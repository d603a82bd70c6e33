//! Cold-start benchmark: process start → first query served, heap vs
//! mmap storage backends.
//!
//! Builds a ~10k-doc corpus once, saves a format-v4 snapshot, then
//! measures **time-to-first-query** per backend: open the snapshot
//! through [`StorageBackend::open`] and answer one search. The heap
//! backend reads and checksums the whole file before it can serve; the
//! mmap backend maps the file, validates the envelope, and faults pages
//! in as the first query touches them.
//!
//! Run with `cargo bench --bench cold_start`. Set
//! `NEWSLINK_BENCH_QUICK=1` for a smaller corpus (CI snapshot mode).
//! Either way the numbers land in `BENCH_PR6.json` at the repo root.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use newslink_core::{
    read_newslink_index_bytes, FsDirectory, NewsLink, NewsLinkConfig, NewsLinkIndex,
    StorageBackend,
};
use newslink_kg::{synth, LabelIndex, SynthConfig};

/// Best-of-`reps` wall time of `f`.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (Duration, R) {
    let mut best: Option<Duration> = None;
    let mut out = None;
    for _ in 0..reps {
        let t = Instant::now();
        let r = f();
        let dt = t.elapsed();
        if best.is_none_or(|b| dt < b) {
            best = Some(dt);
        }
        out = Some(r);
    }
    (best.unwrap(), out.unwrap())
}

fn main() {
    let quick = std::env::var("NEWSLINK_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let (n_docs, reps) = if quick { (2_000, 3) } else { (10_000, 5) };

    let world = synth::generate(&SynthConfig::medium(42));
    let labels = LabelIndex::build(&world.graph);
    let pool: Vec<_> = world
        .countries
        .iter()
        .chain(&world.provinces)
        .chain(&world.cities)
        .chain(&world.people)
        .chain(&world.organizations)
        .copied()
        .collect();
    let docs: Vec<String> = (0..n_docs)
        .map(|i| {
            let a = world.graph.label(pool[(i * 3) % pool.len()]);
            let b = world.graph.label(pool[(i * 7 + 1) % pool.len()]);
            let c = world.graph.label(pool[(i * 11 + 2) % pool.len()]);
            format!(
                "Report {i}: {a} officials discussed developments with {b} while \
                 observers in {c} tracked trade, aid and security talks."
            )
        })
        .collect();
    // Entity-shaped probe, the query class NewsLink exists for: selective
    // terms, so the measurement isolates open cost instead of drowning it
    // in a full-corpus postings walk.
    let query = format!(
        "{} {}",
        world.graph.label(pool[0]),
        world.graph.label(pool[1])
    );

    // Sharded build (~10 sections) — the shape a served snapshot has in
    // practice, and what lets the mapped open verify sections in parallel.
    let config = NewsLinkConfig::default()
        .with_segment_docs((n_docs / 10).max(1))
        .with_auto_threads();
    let engine = NewsLink::new(&world.graph, &labels, config);
    println!("cold_start: indexing {n_docs} docs…");
    let index = engine.index_corpus(&docs);

    let dir_path = std::env::temp_dir().join(format!("newslink_cold_start_{}", std::process::id()));
    std::fs::remove_dir_all(&dir_path).ok();
    std::fs::create_dir_all(&dir_path).unwrap();
    let snap = dir_path.join("index.nlnk");
    newslink_core::save_newslink_index(&index, &world.graph, &snap).unwrap();
    let snapshot_bytes = std::fs::metadata(&snap).unwrap().len();
    println!(
        "cold_start: snapshot is {:.1} MiB ({} segments)\n",
        snapshot_bytes as f64 / (1024.0 * 1024.0),
        index.segments().len(),
    );

    let dir = FsDirectory::create(&dir_path).unwrap();
    let reference = engine.search(&index, &query, 10);
    assert!(!reference.results.is_empty(), "probe query must match");

    let mut rows: Vec<(StorageBackend, Duration, Duration)> = Vec::new();
    for backend in [StorageBackend::Heap, StorageBackend::Mmap] {
        let open = || -> NewsLinkIndex {
            let bytes = backend.open(&dir, "index.nlnk").expect("snapshot opens");
            let (idx, report) =
                read_newslink_index_bytes(&world.graph, &bytes, false).expect("snapshot loads");
            assert!(!report.degraded());
            idx
        };
        let (open_only, _) = best_of(reps, open);
        let (first_query, loaded) = best_of(reps, || {
            let idx = open();
            let out = engine.search(&idx, &query, 10);
            assert_eq!(out.results.len(), reference.results.len());
            idx
        });
        // Bit-parity with the in-memory build, per backend.
        let out = engine.search(&loaded, &query, 10);
        for (x, y) in out.results.iter().zip(&reference.results) {
            assert_eq!(x.doc, y.doc, "{backend}: ranking diverged");
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "{backend}: score bits diverged");
        }
        println!(
            "{backend:>5}: open {:>10.3?}  open+first-query {:>10.3?}",
            open_only, first_query
        );
        rows.push((backend, open_only, first_query));
    }

    let heap = rows[0].2.as_secs_f64();
    let mmap = rows[1].2.as_secs_f64();
    let speedup = heap / mmap;
    println!("\ncold_start: mmap time-to-first-query speedup = {speedup:.1}x");

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"cold_start\",");
    let _ = writeln!(json, "  \"docs\": {n_docs},");
    let _ = writeln!(json, "  \"snapshot_bytes\": {snapshot_bytes},");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"backends\": [");
    for (i, (backend, open, first)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"backend\": \"{backend}\", \"open_us\": {:.1}, \
             \"time_to_first_query_us\": {:.1}}}{comma}",
            open.as_secs_f64() * 1e6,
            first.as_secs_f64() * 1e6,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"mmap_speedup\": {speedup:.2}");
    let _ = writeln!(json, "}}");

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR6.json");
    std::fs::write(&out, &json).expect("write BENCH_PR6.json");
    println!("cold_start: wrote {}", out.display());
    std::fs::remove_dir_all(&dir_path).ok();
}
