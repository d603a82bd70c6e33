//! Tail latency of the cluster router with one injected slow replica:
//! hedged reads off vs on.
//!
//! One shard group holds the whole corpus on two replicas serving the
//! same index. The first replica sits behind a seeded chaos proxy that
//! delays every response by ~15 ms (±5 ms jitter) — the classic
//! one-slow-machine tail. Because the slow replica is listed first it
//! is every read's primary choice, so without hedging each request
//! eats the full delay. With `--hedge-after-ms 3` the router launches
//! a budget-paid second attempt at the healthy sibling after 3 ms and
//! takes whichever answers first.
//!
//! The run asserts (from the router's own `/metrics` counters) that
//! hedging cut p99 and that upstream amplification stayed inside the
//! configured retry budget: `retries_spent ≤ ratio × primary_calls +
//! cap`.
//!
//! Run with `cargo bench --bench router_tail_latency`. Set
//! `NEWSLINK_BENCH_QUICK=1` for fewer requests (CI snapshot mode).
//! Either way the numbers land in `BENCH_PR9.json` at the repo root.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::Instant;

use newslink_core::{NewsLink, NewsLinkConfig};
use newslink_kg::{synth, LabelIndex, SynthConfig};
use newslink_serve::{client, Cluster, ResilienceConfig, ServeConfig, Server};
use newslink_util::chaos::{ChaosProxy, Fault, FaultPlan};
use parking_lot::RwLock;

/// Percentile over a latency sample (nearest-rank on the sorted set).
fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx]
}

struct ScenarioResult {
    p50_ms: f64,
    p99_ms: f64,
    errors: usize,
    primary_calls: i64,
    retries_spent: i64,
    hedges_launched: i64,
    hedges_won: i64,
}

/// Serve the corpus through a 2-replica group (replica A delayed by
/// the chaos proxy) and time `requests` sequential searches.
fn run_scenario(
    engine: &NewsLink<'_>,
    docs: &[String],
    bodies: &[String],
    hedge_after_ms: Option<u64>,
    requests: usize,
) -> ScenarioResult {
    let index = RwLock::new(engine.index_corpus(docs));
    let serve_config = ServeConfig {
        read_timeout_ms: 250,
        ..ServeConfig::default().with_workers(4).with_queue_depth(256)
    };
    let replica_a = Server::bind("127.0.0.1:0", serve_config.clone()).expect("bind replica a");
    let replica_b = Server::bind("127.0.0.1:0", serve_config.clone()).expect("bind replica b");
    let proxy = ChaosProxy::spawn(
        replica_a.local_addr(),
        FaultPlan::always(Fault::Delay { ms: 15, jitter_ms: 5 }),
    )
    .expect("spawn proxy");
    let groups: Vec<Vec<SocketAddr>> = vec![vec![proxy.addr(), replica_b.local_addr()]];
    let resilience = ResilienceConfig {
        hedge_after_ms,
        retry_budget: 2.0, // enough tokens that every request may hedge
        ..ResilienceConfig::default()
    };
    let cluster = Cluster::with_config(groups, resilience);
    let router = Server::bind("127.0.0.1:0", serve_config).expect("bind router");
    let router_handle = router.handle();
    let a_handle = replica_a.handle();
    let b_handle = replica_b.handle();

    let (index, cluster, router, replica_a, replica_b) =
        (&index, &cluster, &router, &replica_a, &replica_b);
    std::thread::scope(|scope| {
        scope.spawn(move || replica_a.run(engine, index).expect("replica a run"));
        scope.spawn(move || replica_b.run(engine, index).expect("replica b run"));
        scope.spawn(move || router.run_router(engine, cluster).expect("router run"));
        let addr = router_handle.addr();

        // Warm up: park connections, fill caches, settle the prober.
        for body in bodies.iter().take(8) {
            let _ = client::request(addr, "POST", "/v1/search", body);
        }

        let mut latencies_ms = Vec::with_capacity(requests);
        let mut errors = 0usize;
        for i in 0..requests {
            let body = &bodies[i % bodies.len()];
            let t = Instant::now();
            match client::request(addr, "POST", "/v1/search", body) {
                Ok((200, _)) => latencies_ms.push(t.elapsed().as_secs_f64() * 1e3),
                Ok(_) | Err(_) => errors += 1,
            }
        }
        latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

        // Resilience counters from the router's own /metrics endpoint.
        let (status, text) =
            client::request(addr, "GET", "/v1/metrics", "").expect("metrics fetch");
        assert_eq!(status, 200, "{text}");
        let metrics: serde::Value = serde_json::from_str(&text).expect("metrics json");
        let res = metrics
            .get("cluster")
            .and_then(|c| c.get("resilience").cloned())
            .expect("resilience section");
        let counter =
            |k: &str| res.get(k).and_then(|v| v.as_i64()).expect("resilience counter");

        router_handle.shutdown();
        a_handle.shutdown();
        b_handle.shutdown();
        ScenarioResult {
            p50_ms: percentile(&latencies_ms, 0.50),
            p99_ms: percentile(&latencies_ms, 0.99),
            errors,
            primary_calls: counter("primary_calls"),
            retries_spent: counter("retries_spent"),
            hedges_launched: counter("hedges_launched"),
            hedges_won: counter("hedges_won"),
        }
    })
}

fn main() {
    let quick = std::env::var("NEWSLINK_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let (n_docs, requests) = if quick { (400, 120) } else { (1_200, 400) };

    let world = synth::generate(&SynthConfig::small(42));
    let labels = LabelIndex::build(&world.graph);
    let pool: Vec<_> = world
        .countries
        .iter()
        .chain(&world.provinces)
        .chain(&world.cities)
        .copied()
        .collect();
    let docs: Vec<String> = (0..n_docs)
        .map(|i| {
            let a = world.graph.label(pool[(i * 3) % pool.len()]);
            let b = world.graph.label(pool[(i * 7 + 1) % pool.len()]);
            format!("Update {i}: sources close to {a} commented on events involving {b}.")
        })
        .collect();
    let bodies: Vec<String> = (0..24)
        .map(|i| {
            let a = world.graph.label(pool[(i * 5 + 2) % pool.len()]);
            format!(r#"{{"query": "what is happening around {a}", "k": 10}}"#)
        })
        .collect();

    let config = NewsLinkConfig::default()
        .with_segment_docs((n_docs / 8).max(1))
        .with_auto_threads();
    let engine = NewsLink::new(&world.graph, &labels, config);
    println!(
        "router_tail_latency: {n_docs} docs, {requests} requests per scenario, \
         one replica delayed ~15ms…\n"
    );
    println!(
        "{:<14} {:>10} {:>10} {:>8} {:>9} {:>9} {:>8}",
        "scenario", "p50", "p99", "errors", "hedges", "won", "retries"
    );

    let off = run_scenario(&engine, &docs, &bodies, None, requests);
    println!(
        "{:<14} {:>8.2}ms {:>8.2}ms {:>8} {:>9} {:>9} {:>8}",
        "hedge off", off.p50_ms, off.p99_ms, off.errors, off.hedges_launched, off.hedges_won,
        off.retries_spent
    );
    let on = run_scenario(&engine, &docs, &bodies, Some(3), requests);
    println!(
        "{:<14} {:>8.2}ms {:>8.2}ms {:>8} {:>9} {:>9} {:>8}",
        "hedge 3ms", on.p50_ms, on.p99_ms, on.errors, on.hedges_launched, on.hedges_won,
        on.retries_spent
    );

    // The two claims this bench exists to check.
    assert_eq!(off.errors + on.errors, 0, "all requests answered 200");
    assert!(
        on.p99_ms < off.p99_ms,
        "hedging must cut p99 under a slow replica: {:.2}ms !< {:.2}ms",
        on.p99_ms,
        off.p99_ms
    );
    for (name, r) in [("off", &off), ("on", &on)] {
        let bound = 2.0 * r.primary_calls as f64 + 16.0; // ratio × primaries + cap
        assert!(
            (r.retries_spent as f64) <= bound,
            "hedge {name}: amplification {} exceeds retry budget bound {bound}",
            r.retries_spent
        );
    }
    let speedup = off.p99_ms / on.p99_ms;
    println!(
        "\nrouter_tail_latency: hedging cut p99 {speedup:.1}x \
         ({:.2}ms -> {:.2}ms); amplification stayed within budget",
        off.p99_ms, on.p99_ms
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"router_tail_latency\",");
    let _ = writeln!(json, "  \"docs\": {n_docs},");
    let _ = writeln!(json, "  \"requests\": {requests},");
    let _ = writeln!(json, "  \"slow_replica_delay_ms\": 15,");
    let _ = writeln!(json, "  \"quick\": {quick},");
    for (key, r, comma) in [("hedge_off", &off, ","), ("hedge_on_3ms", &on, ",")] {
        let _ = writeln!(
            json,
            "  \"{key}\": {{\"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"errors\": {}, \
             \"primary_calls\": {}, \"retries_spent\": {}, \"hedges_launched\": {}, \
             \"hedges_won\": {}}}{comma}",
            r.p50_ms, r.p99_ms, r.errors, r.primary_calls, r.retries_spent, r.hedges_launched,
            r.hedges_won
        );
    }
    let _ = writeln!(json, "  \"p99_speedup\": {speedup:.3}");
    let _ = writeln!(json, "}}");

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR9.json");
    std::fs::write(&out, &json).expect("write BENCH_PR9.json");
    println!("router_tail_latency: wrote {}", out.display());
}
