//! Serving demo: start the HTTP search service on an ephemeral port,
//! drive it with the crate's own one-shot HTTP client (single request,
//! batch, health, metrics), then shut it down gracefully.
//!
//! Run with: `cargo run --release --example serve_demo`

use newslink::core::{NewsLink, NewsLinkConfig};
use newslink::kg::{synth, LabelIndex, SynthConfig};
use newslink::serve::{client, ServeConfig, Server};

fn main() {
    // 1. A synthetic world and a tiny corpus to serve.
    let world = synth::generate(&SynthConfig::small(42));
    let labels = LabelIndex::build(&world.graph);
    let engine = NewsLink::new(&world.graph, &labels, NewsLinkConfig::default());
    let country = world.graph.label(world.countries[0]);
    let city = world.graph.label(world.cities[0]);
    let docs = vec![
        format!("Tensions rose in {country} as officials met in {city}."),
        format!("A festival in {city} drew visitors from across {country}."),
        "Unrelated filler text with no entity names at all.".to_string(),
    ];
    let index = parking_lot::RwLock::new(engine.index_corpus(&docs));
    println!("indexed {} docs", index.read().doc_count());

    // 2. Bind an ephemeral port and serve from a background thread. The
    // engine borrows the graph, so the server runs inside a scope.
    let config = ServeConfig::default()
        .with_workers(2)
        .with_default_timeout(std::time::Duration::from_secs(2));
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let handle = server.handle();
    let addr = handle.addr();
    println!("serving on http://{addr}\n");

    std::thread::scope(|scope| {
        scope.spawn(|| server.run(&engine, &index).expect("server run"));

        // 3. One search request, with explanations.
        let body = format!(r#"{{"query": "news about {country}", "k": 3, "explain": true}}"#);
        let (status, text) = client::request(addr, "POST", "/v1/search", &body).expect("search");
        println!("POST /v1/search -> {status}");
        let v: serde::Value = serde_json::from_str(&text).expect("response JSON");
        for hit in v["results"].as_array().unwrap_or(&[]) {
            println!(
                "  doc {} score {:.3}",
                hit["doc"].as_i64().unwrap_or(-1),
                hit["score"].as_f64().unwrap_or(0.0),
            );
        }

        // 4. A batch: the repeated query is served from the engine cache.
        let body = format!(
            r#"{{"requests": [{{"query": "events in {city}"}}, {{"query": "news about {country}"}}]}}"#
        );
        let (status, text) =
            client::request(addr, "POST", "/v1/search/batch", &body).expect("batch");
        let v: serde::Value = serde_json::from_str(&text).expect("batch JSON");
        let responses = v["responses"].as_array().map(<[_]>::len).unwrap_or(0);
        println!("POST /v1/search/batch -> {status} ({responses} responses)");

        // 5. Live mutation: insert a document, then tombstone it.
        let body = format!(r#"{{"text": "Breaking update from {city} in {country}."}}"#);
        let (status, text) = client::request(addr, "POST", "/v1/docs", &body).expect("insert");
        let v: serde::Value = serde_json::from_str(&text).expect("insert JSON");
        let id = v["id"].as_i64().unwrap_or(-1);
        println!("POST /v1/docs -> {status} (doc {id}, {} segments)", v["index"]["segments"]);
        let (status, _) =
            client::request(addr, "DELETE", &format!("/v1/docs/{id}"), "").expect("delete");
        println!("DELETE /v1/docs/{id} -> {status}");

        // 6. Health and metrics.
        let (status, _) = client::request(addr, "GET", "/v1/healthz", "").expect("healthz");
        println!("GET /v1/healthz -> {status}");
        let (status, text) = client::request(addr, "GET", "/v1/metrics", "").expect("metrics");
        let v: serde::Value = serde_json::from_str(&text).expect("metrics JSON");
        println!(
            "GET /v1/metrics -> {status}: {} requests, p50 {}µs, query-cache hits {}, \
             {} segments / {} tombstones / {} compactions",
            v["requests_total"],
            v["latency_us"]["p50"],
            v["cache"]["queries"]["hits"],
            v["index"]["segments"],
            v["index"]["tombstones"],
            v["index"]["compactions"],
        );

        // 7. Graceful shutdown: in-flight requests drain, the pool joins.
        handle.shutdown();
    });
    println!("\nserver drained and stopped");
}
