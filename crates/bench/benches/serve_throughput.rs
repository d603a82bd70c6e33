//! Loopback throughput of the `newslink-serve` HTTP layer.
//!
//! Starts one server over a synthetic world and measures requests per
//! second at client concurrency 1, 8 and 64 — every request a full TCP
//! connect + HTTP round-trip against `POST /v1/search` (distinct queries,
//! so the engine really scores) plus a warm-cache pass (repeated query,
//! served by the whole-query memo) to isolate protocol overhead.
//!
//! Run with `cargo bench --bench serve_throughput`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use newslink_core::{NewsLink, NewsLinkConfig};
use newslink_kg::{synth, LabelIndex, SynthConfig};
use newslink_serve::{client, ServeConfig, Server};

const REQUESTS_PER_LEVEL: usize = 300;
const CONCURRENCY: [usize; 3] = [1, 8, 64];

fn main() {
    let world = synth::generate(&SynthConfig::small(42));
    let labels = LabelIndex::build(&world.graph);
    let engine = NewsLink::new(&world.graph, &labels, NewsLinkConfig::default());
    let pool: Vec<_> = world
        .countries
        .iter()
        .chain(&world.provinces)
        .chain(&world.cities)
        .copied()
        .collect();
    let docs: Vec<String> = (0..120)
        .map(|i| {
            let a = world.graph.label(pool[(i * 3) % pool.len()]);
            let b = world.graph.label(pool[(i * 7 + 1) % pool.len()]);
            format!("Update {i}: sources close to {a} commented on events involving {b}.")
        })
        .collect();
    let index = parking_lot::RwLock::new(engine.index_corpus(&docs));

    // Distinct query bodies (cycled) and one repeated body for the
    // warm-cache pass.
    let bodies: Vec<String> = (0..24)
        .map(|i| {
            let a = world.graph.label(pool[(i * 5 + 2) % pool.len()]);
            format!(r#"{{"query": "what is happening around {a}", "k": 10}}"#)
        })
        .collect();
    let warm_body = bodies[0].clone();

    let config = ServeConfig::default().with_workers(4).with_queue_depth(256);
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let handle = server.handle();
    let addr = handle.addr();
    println!(
        "serve_throughput: {} docs, {} workers, {} requests per level\n",
        index.read().doc_count(),
        server.config().workers,
        REQUESTS_PER_LEVEL
    );
    println!("{:<24} {:>12} {:>12} {:>8}", "scenario", "req/s", "mean", "errors");

    std::thread::scope(|scope| {
        scope.spawn(|| server.run(&engine, &index).expect("server run"));

        for &concurrency in &CONCURRENCY {
            run_level(addr, &bodies, concurrency, &format!("search c={concurrency}"));
        }
        // Warm pass: the repeated query is answered by the query memo, so
        // this approximates pure protocol + dispatch overhead.
        run_level(addr, std::slice::from_ref(&warm_body), 8, "warm cache c=8");

        handle.shutdown();
    });
}

/// Fire `REQUESTS_PER_LEVEL` requests at `addr` from `concurrency`
/// client threads and print the achieved rate.
fn run_level(addr: std::net::SocketAddr, bodies: &[String], concurrency: usize, label: &str) {
    let next = AtomicUsize::new(0);
    let errors = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..concurrency {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= REQUESTS_PER_LEVEL {
                    break;
                }
                let body = &bodies[i % bodies.len()];
                match client::request(addr, "POST", "/v1/search", body) {
                    Ok((200, _)) => {}
                    // 429s count as errors here: the bench sizes its
                    // queue to admit the full offered load.
                    Ok(_) | Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let elapsed = t0.elapsed();
    let rate = REQUESTS_PER_LEVEL as f64 / elapsed.as_secs_f64();
    println!(
        "{:<24} {:>10.0}/s {:>9.2}ms {:>8}",
        label,
        rate,
        elapsed.as_secs_f64() * 1e3 / REQUESTS_PER_LEVEL as f64,
        errors.load(Ordering::Relaxed)
    );
}
