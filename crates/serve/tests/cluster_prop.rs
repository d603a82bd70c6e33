//! Property test for the cluster layer's core guarantee: a router
//! scatter-gathering real shard servers over TCP merges to the **same
//! bits** an in-process multi-segment search produces over the union.
//!
//! Each case builds a corpus, runs it two ways — one standalone server
//! holding everything, and a router in front of 1–4 single-replica
//! shard groups each holding its id stripe — drives identical deletes
//! and searches into both, and requires the `results` (and the
//! explanations riding along) to compare equal. Scores travel the wire
//! as `f64` bit patterns and both sides format responses with the same
//! serializer, so JSON-level equality here is bit-level equality of the
//! blended scores.

use std::net::SocketAddr;

use newslink_core::{NewsLink, NewsLinkConfig, NewsLinkIndex};
use newslink_kg::{EntityType, GraphBuilder, KnowledgeGraph, LabelIndex};
use newslink_serve::{client, Cluster, ResilienceConfig, ServeConfig, Server};
use newslink_util::chaos::{ChaosProxy, Fault, FaultPlan};
use parking_lot::RwLock;
use proptest::prelude::*;
use serde::Value;

/// A small fixed world: enough entities that documents collide on both
/// the BOW side (shared filler words) and the BON side (shared graph
/// neighborhoods).
fn world() -> (KnowledgeGraph, LabelIndex) {
    let mut b = GraphBuilder::new();
    let khyber = b.add_node("Khyber", EntityType::Gpe);
    let kunar = b.add_node("Kunar", EntityType::Gpe);
    let taliban = b.add_node("Taliban", EntityType::Organization);
    let pakistan = b.add_node("Pakistan", EntityType::Gpe);
    let kabul = b.add_node("Kabul", EntityType::Gpe);
    let unhcr = b.add_node("UNHCR", EntityType::Organization);
    b.add_edge(kunar, khyber, "borders", 1);
    b.add_edge(taliban, kunar, "operates in", 1);
    b.add_edge(khyber, pakistan, "located in", 1);
    b.add_edge(kabul, pakistan, "trades with", 2);
    b.add_edge(unhcr, kabul, "operates in", 1);
    let g = b.freeze();
    let idx = LabelIndex::build(&g);
    (g, idx)
}

const VOCAB: &[&str] = &[
    "Khyber", "Kunar", "Taliban", "Pakistan", "Kabul", "UNHCR", "trade", "talks", "storm",
    "attack", "aid", "festival",
];

fn doc_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0..VOCAB.len(), 1..12)
        .prop_map(|ws| ws.into_iter().map(|w| VOCAB[w]).collect::<Vec<_>>().join(" ") + ".")
}

fn query_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0..VOCAB.len(), 1..5)
        .prop_map(|ws| ws.into_iter().map(|w| VOCAB[w]).collect::<Vec<_>>().join(" "))
}

/// `(query, beta, k)` — beta from the interesting points of the blend
/// (pure BOW, paper default, even blend, pure BON).
fn search_strategy() -> impl Strategy<Value = (String, f64, usize)> {
    (query_strategy(), 0..4usize, 1usize..6)
        .prop_map(|(q, b, k)| (q, [0.0, 0.2, 0.5, 1.0][b], k))
}

/// A corpus plus delete targets drawn from its id range (duplicates
/// stay in: the second delete must 404 identically on both sides).
fn corpus_and_deletes() -> impl Strategy<Value = (Vec<String>, Vec<u32>)> {
    prop::collection::vec(doc_strategy(), 1..10).prop_flat_map(|docs| {
        let len = docs.len() as u32;
        (Just(docs), prop::collection::vec(0..len, 0..4))
    })
}

/// Issue the same deletes and searches to both servers and demand
/// equal statuses and bit-equal result payloads.
fn drive(mono: SocketAddr, router: SocketAddr, deletes: &[u32], searches: &[(String, f64, usize)]) {
    // Both modes share one `/v1` gate: an unversioned path is the typed 404.
    for (addr, who) in [(mono, "mono"), (router, "router")] {
        let (status, text) =
            client::request(addr, "POST", "/search", r#"{"query": "x"}"#).expect("bare path");
        assert_eq!(status, 404, "{who}: {text}");
        let v: Value = serde_json::from_str(&text).expect("404 json");
        assert_eq!(v["error"]["code"], "not_found", "{who}: {text}");
    }
    for &id in deletes {
        let path = format!("/v1/docs/{id}");
        let (ms, mb) = client::request(mono, "DELETE", &path, "").expect("mono delete");
        let (rs, rb) = client::request(router, "DELETE", &path, "").expect("router delete");
        assert_eq!(ms, rs, "delete {id}: mono said {mb}, router said {rb}");
    }
    for (query, beta, k) in searches {
        let body = format!(r#"{{"query": {query:?}, "k": {k}, "beta": {beta}, "explain": true}}"#);
        let (ms, mtext) = client::request(mono, "POST", "/v1/search", &body).expect("mono search");
        let (rs, rtext) =
            client::request(router, "POST", "/v1/search", &body).expect("router search");
        assert_eq!(ms, 200, "mono: {mtext}");
        assert_eq!(rs, 200, "router: {rtext}");
        let m: Value = serde_json::from_str(&mtext).expect("mono json");
        let r: Value = serde_json::from_str(&rtext).expect("router json");
        let label = format!("query {query:?} beta {beta} k {k}");
        assert_eq!(
            m.get("results"),
            r.get("results"),
            "{label}: results diverge\nmono:   {mtext}\nrouter: {rtext}"
        );
        assert_eq!(
            m.get("explanations"),
            r.get("explanations"),
            "{label}: explanations diverge"
        );
        assert_eq!(r.get("degraded"), Some(&Value::Bool(false)), "{label}: {rtext}");
    }
}

/// One full comparison at a given shard count: standalone server vs
/// router over `shard_count` single-replica groups, all real TCP.
fn run_cluster_case(
    texts: &[String],
    shard_count: u32,
    deletes: &[u32],
    searches: &[(String, f64, usize)],
) {
    let (graph, labels) = world();
    // Multi-segment on both sides: the merge invariants must hold for
    // the layered case (segments within shards within the cluster).
    let config = NewsLinkConfig::default().with_segment_docs(2);
    let engine = NewsLink::new(&graph, &labels, config);

    let mono_index = RwLock::new(engine.index_corpus(texts));
    let mut shard_indexes: Vec<RwLock<NewsLinkIndex>> = Vec::new();
    for s in 0..shard_count {
        let mut idx = engine.index_corpus_sharded(texts, s, shard_count);
        idx.set_id_stripe(s, shard_count);
        shard_indexes.push(RwLock::new(idx));
    }

    // A short idle read timeout so shutdown does not wait out the
    // default 5s drain for every connection the router left parked.
    let serve_config = ServeConfig {
        read_timeout_ms: 250,
        ..ServeConfig::default()
    };
    let mono = Server::bind("127.0.0.1:0", serve_config.clone()).expect("bind mono");
    let shard_servers: Vec<Server> = (0..shard_count)
        .map(|_| Server::bind("127.0.0.1:0", serve_config.clone()).expect("bind shard"))
        .collect();
    let groups: Vec<Vec<SocketAddr>> =
        shard_servers.iter().map(|s| vec![s.local_addr()]).collect();
    let cluster = Cluster::new(groups);
    let router = Server::bind("127.0.0.1:0", serve_config).expect("bind router");

    let mono_handle = mono.handle();
    let router_handle = router.handle();
    let shard_handles: Vec<_> = shard_servers.iter().map(Server::handle).collect();

    // `move` closures below must capture shared references, not the
    // owning locals.
    let (engine, mono_index, cluster) = (&engine, &mono_index, &cluster);
    let (mono, router) = (&mono, &router);
    std::thread::scope(|scope| {
        scope.spawn(move || mono.run(engine, mono_index));
        for (srv, idx) in shard_servers.iter().zip(&shard_indexes) {
            scope.spawn(move || srv.run(engine, idx));
        }
        scope.spawn(move || router.run_router(engine, cluster));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drive(mono_handle.addr(), router_handle.addr(), deletes, searches)
        }));
        router_handle.shutdown();
        for h in &shard_handles {
            h.shutdown();
        }
        mono_handle.shutdown();
        if let Err(panic) = result {
            std::panic::resume_unwind(panic);
        }
    });
}

/// The chaos dimension: the same bit-equality property, but the first
/// replica of every group sits behind a seeded [`ChaosProxy`] injecting
/// recoverable faults (latency, short writes, throttling), with a
/// healthy sibling replica to fail over to. The resilience layer must
/// absorb every fault without changing a single bit of the answer —
/// loss shows up as a degraded 503 (which `drive` rejects), never as a
/// silently truncated 200.
fn run_chaos_case(texts: &[String], chaos_seed: u64, searches: &[(String, f64, usize)]) {
    let (graph, labels) = world();
    let config = NewsLinkConfig::default().with_segment_docs(2);
    let engine = NewsLink::new(&graph, &labels, config);
    let shard_count = 2u32;

    let mono_index = RwLock::new(engine.index_corpus(texts));
    let mut shard_indexes: Vec<RwLock<NewsLinkIndex>> = Vec::new();
    for s in 0..shard_count {
        let mut idx = engine.index_corpus_sharded(texts, s, shard_count);
        idx.set_id_stripe(s, shard_count);
        shard_indexes.push(RwLock::new(idx));
    }

    let serve_config = ServeConfig {
        read_timeout_ms: 250,
        ..ServeConfig::default()
    };
    let mono = Server::bind("127.0.0.1:0", serve_config.clone()).expect("bind mono");
    // Two replicas per group over the group's shared index: the first
    // behind a seeded proxy mixing benign faults, the second direct.
    let replica_servers: Vec<Vec<Server>> = (0..shard_count)
        .map(|_| {
            (0..2)
                .map(|_| Server::bind("127.0.0.1:0", serve_config.clone()).expect("bind replica"))
                .collect()
        })
        .collect();
    let plan = |group: u64| {
        FaultPlan::seeded(
            chaos_seed ^ group,
            vec![
                (3, Fault::None),
                (2, Fault::Delay { ms: 8, jitter_ms: 4 }),
                (2, Fault::ShortWrite { keep_bytes: 48 }),
                (2, Fault::Throttle { bytes_per_sec: 50_000 }),
            ],
        )
    };
    let proxies: Vec<ChaosProxy> = replica_servers
        .iter()
        .enumerate()
        .map(|(g, group)| {
            ChaosProxy::spawn(group[0].local_addr(), plan(g as u64)).expect("spawn proxy")
        })
        .collect();
    let groups: Vec<Vec<SocketAddr>> = proxies
        .iter()
        .zip(&replica_servers)
        .map(|(proxy, group)| vec![proxy.addr(), group[1].local_addr()])
        .collect();
    let resilience = ResilienceConfig {
        retry_budget: 1.0,
        ..ResilienceConfig::default()
    };
    let cluster = Cluster::with_config(groups, resilience);
    let router = Server::bind("127.0.0.1:0", serve_config).expect("bind router");

    let mono_handle = mono.handle();
    let router_handle = router.handle();
    let replica_handles: Vec<_> = replica_servers.iter().flatten().map(Server::handle).collect();

    let (engine, mono_index, cluster) = (&engine, &mono_index, &cluster);
    let (mono, router) = (&mono, &router);
    let replica_servers = &replica_servers;
    std::thread::scope(|scope| {
        scope.spawn(move || mono.run(engine, mono_index));
        for (group, idx) in replica_servers.iter().zip(&shard_indexes) {
            for srv in group {
                scope.spawn(move || srv.run(engine, idx));
            }
        }
        scope.spawn(move || router.run_router(engine, cluster));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Searches only: writes route to the group primary (the
            // proxied replica) by design and are not failover-eligible,
            // so a torn write would legitimately surface as an error.
            drive(mono_handle.addr(), router_handle.addr(), &[], searches)
        }));
        router_handle.shutdown();
        for h in &replica_handles {
            h.shutdown();
        }
        mono_handle.shutdown();
        if let Err(panic) = result {
            std::panic::resume_unwind(panic);
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance property: for any corpus, tombstone set, query,
    /// beta, and k, the router's merged answer is bit-identical to the
    /// in-process answer — at every shard count from one (degenerate
    /// cluster) to four (more groups than some corpora have docs, so
    /// empty shards are covered too).
    #[test]
    fn router_merge_is_bit_identical_to_in_process(
        (texts, deletes) in corpus_and_deletes(),
        searches in prop::collection::vec(search_strategy(), 1..3),
    ) {
        for shard_count in 1..=4u32 {
            run_cluster_case(&texts, shard_count, &deletes, &searches);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Chaos property: under any seed's mix of recoverable injected
    /// faults, the router's answer stays bit-identical to the oracle —
    /// the resilience layer recovers (retries, fails over) rather than
    /// truncating, and never fakes a clean 200 out of a lossy path.
    #[test]
    fn router_merge_survives_recoverable_chaos_bit_identical(
        texts in prop::collection::vec(doc_strategy(), 3..10),
        chaos_seed in any::<u64>(),
        searches in prop::collection::vec(search_strategy(), 2..4),
    ) {
        run_chaos_case(&texts, chaos_seed, &searches);
    }
}
