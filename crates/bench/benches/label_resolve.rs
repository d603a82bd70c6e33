//! Label-resolution benchmark: FST automaton vs HashMap oracle at
//! 10k / 100k / 1M labels (DESIGN.md §6j).
//!
//! For each scale a synthetic world of roughly that many nodes is
//! generated ([`SynthConfig::scaled`]) and both [`LabelIndex`] backends
//! are built from the same graph. The bench records, per scale:
//!
//! - **resident bytes** of each resolver (`resolver_bytes`) and the
//!   memory ratio — the automaton must stay well under the HashMap;
//! - **build time** for each backend;
//! - **exact-probe latency** over a mixed hit/miss probe set, with every
//!   timed probe parity-checked against the oracle node-for-node.
//!
//! The largest scale then exercises the streaming ingest path end to
//! end: the world is serialized as a wikidata-shaped TSV, re-ingested
//! with a deliberately small sort buffer (forcing external spill runs),
//! and the resulting blob is round-tripped through the v4 `Directory`
//! on both the heap and mmap storage backends.
//!
//! Run with `cargo bench --bench label_resolve`. Set
//! `NEWSLINK_BENCH_QUICK=1` for the reduced CI sweep (10k/100k only).
//! Either way the numbers land in `BENCH_PR8.json` at the repo root.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use newslink_core::{Directory, FsDirectory, StorageBackend};
use newslink_kg::{
    ingest_tsv, synth, write_graph_tsv, FstLabelIndex, IngestConfig, LabelIndex, SynthConfig,
};

struct ScaleRow {
    labels: usize,
    hash_bytes: usize,
    fst_bytes: usize,
    hash_build: Duration,
    fst_build: Duration,
    hash_probe_ns: f64,
    fst_probe_ns: f64,
    probes: usize,
}

/// Time `f` once.
fn timed<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed(), r)
}

/// Probe every surface in `probes` against `index`, returning ns/probe
/// and a checksum of the postings walked (so the loop can't be elided).
fn probe_pass(index: &LabelIndex, probes: &[String]) -> (f64, u64) {
    let t = Instant::now();
    let mut checksum = 0u64;
    for p in probes {
        for node in index.exact(p) {
            checksum = checksum.wrapping_mul(31).wrapping_add(node.index() as u64);
        }
    }
    let dt = t.elapsed();
    (dt.as_secs_f64() * 1e9 / probes.len() as f64, checksum)
}

fn run_scale(target: usize, max_probes: usize) -> ScaleRow {
    let world = synth::generate(&SynthConfig::scaled(42, target));

    let (hash_build, hash) = timed(|| LabelIndex::build(&world.graph));
    let (fst_build, fst) = timed(|| LabelIndex::build_fst(&world.graph));
    assert_eq!(hash.len(), fst.len(), "surface counts diverged");

    // Mixed probe set: every kth known surface (already normalized by the
    // build) plus a guaranteed-miss variant per hit, shuffled by stride.
    let surfaces = hash.surface_postings();
    let stride = (surfaces.len() / (max_probes / 2).max(1)).max(1);
    let mut probes = Vec::new();
    for (s, _) in surfaces.iter().step_by(stride) {
        probes.push(s.clone());
        probes.push(format!("{s} zz"));
    }

    // Parity: every probe resolves to the same node set on both backends.
    for p in &probes {
        let h: Vec<_> = hash.exact(p).collect();
        let f: Vec<_> = fst.exact(p).collect();
        assert_eq!(h, f, "postings diverged for {p:?}");
    }

    // Warm up once, then time; checksums must agree (same walk).
    let _ = probe_pass(&hash, &probes);
    let _ = probe_pass(&fst, &probes);
    let (hash_probe_ns, hsum) = probe_pass(&hash, &probes);
    let (fst_probe_ns, fsum) = probe_pass(&fst, &probes);
    assert_eq!(hsum, fsum, "probe checksums diverged");

    ScaleRow {
        labels: hash.len(),
        hash_bytes: hash.resolver_bytes(),
        fst_bytes: fst.resolver_bytes(),
        hash_build,
        fst_build,
        hash_probe_ns,
        fst_probe_ns,
        probes: probes.len(),
    }
}

/// Streaming-ingest round trip at the largest scale: world → TSV →
/// `ingest_tsv` with a small sort buffer (forced spill runs) → blob →
/// decode via heap read and via mmap, node tables intact on both.
fn run_ingest(target: usize) -> String {
    let world = synth::generate(&SynthConfig::scaled(7, target));
    let dir_path =
        std::env::temp_dir().join(format!("newslink_label_resolve_{}", std::process::id()));
    std::fs::remove_dir_all(&dir_path).ok();
    std::fs::create_dir_all(&dir_path).unwrap();

    let tsv_path = dir_path.join("labels.tsv");
    let mut w = std::io::BufWriter::new(std::fs::File::create(&tsv_path).unwrap());
    let lines = write_graph_tsv(&world.graph, &mut w).unwrap();
    drop(w);
    let tsv_bytes = std::fs::metadata(&tsv_path).unwrap().len();

    // 4 MiB sort buffers: large worlds must spill, proving the external
    // sort path is what's being measured.
    let cfg = IngestConfig {
        spill_dir: Some(dir_path.clone()),
        run_bytes: 4 << 20,
        ..IngestConfig::default()
    };
    let reader = std::io::BufReader::new(std::fs::File::open(&tsv_path).unwrap());
    let (ingest_time, out) = timed(|| ingest_tsv(reader, &cfg).expect("ingest succeeds"));
    let (index, report) = out;
    assert_eq!(report.quarantined, 0);
    println!(
        "label_resolve: ingest of {lines} label lines ({:.1} MiB TSV): {:.3?} ({} spill runs)",
        tsv_bytes as f64 / (1024.0 * 1024.0),
        ingest_time,
        report.spilled_runs,
    );

    let dir = FsDirectory::create(&dir_path).unwrap();
    let blob = index.encode();
    let blob_bytes = blob.len();
    dir.atomic_write("labels.fst", &blob).unwrap();

    let (heap_open, heap_idx) = timed(|| {
        let bytes = StorageBackend::Heap.open(&dir, "labels.fst").unwrap();
        FstLabelIndex::decode(bytes).expect("heap decode")
    });
    let (mmap_open, mmap_idx) = timed(|| {
        let bytes = StorageBackend::Mmap.open(&dir, "labels.fst").unwrap();
        assert!(bytes.is_mapped(), "FsDirectory must mmap");
        FstLabelIndex::decode(bytes).expect("mmap decode")
    });
    assert_eq!(heap_idx.node_meta_count(), report.nodes as u32);
    assert_eq!(mmap_idx.node_meta_count(), report.nodes as u32);
    println!(
        "label_resolve: blob {:.1} MiB  heap open {:.3?}  mmap open {:.3?}",
        blob_bytes as f64 / (1024.0 * 1024.0),
        heap_open,
        mmap_open,
    );

    let mut json = String::new();
    let _ = writeln!(json, "  \"ingest\": {{");
    let _ = writeln!(json, "    \"label_lines\": {lines},");
    let _ = writeln!(json, "    \"tsv_bytes\": {tsv_bytes},");
    let _ = writeln!(json, "    \"run_bytes\": {},", cfg.run_bytes);
    let _ = writeln!(json, "    \"spilled_runs\": {},", report.spilled_runs);
    let _ = writeln!(
        json,
        "    \"ingest_ms\": {:.1},",
        ingest_time.as_secs_f64() * 1e3
    );
    let _ = writeln!(json, "    \"blob_bytes\": {blob_bytes},");
    let _ = writeln!(
        json,
        "    \"heap_open_ms\": {:.2},",
        heap_open.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        json,
        "    \"mmap_open_ms\": {:.2}",
        mmap_open.as_secs_f64() * 1e3
    );
    let _ = writeln!(json, "  }}");
    std::fs::remove_dir_all(&dir_path).ok();
    json
}

fn main() {
    let quick = std::env::var("NEWSLINK_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let (scales, max_probes): (&[usize], usize) = if quick {
        (&[10_000, 100_000], 2_000)
    } else {
        // ~1.4M-node world → >1M distinct surface forms in the resolver.
        (&[10_000, 100_000, 1_400_000], 10_000)
    };

    let mut rows = Vec::new();
    for &target in scales {
        println!("label_resolve: building resolvers at ~{target} nodes…");
        let row = run_scale(target, max_probes);
        println!(
            "  {:>9} labels  hash {:>8.1} MiB / fst {:>8.1} MiB ({:.2}x smaller)  \
             build {:>8.3?} / {:>8.3?}  probe {:>7.0} ns / {:>7.0} ns",
            row.labels,
            row.hash_bytes as f64 / (1024.0 * 1024.0),
            row.fst_bytes as f64 / (1024.0 * 1024.0),
            row.hash_bytes as f64 / row.fst_bytes as f64,
            row.hash_build,
            row.fst_build,
            row.hash_probe_ns,
            row.fst_probe_ns,
        );
        rows.push(row);
    }

    let last = rows.last().unwrap();
    let memory_ratio = last.hash_bytes as f64 / last.fst_bytes as f64;
    let slowdown = last.fst_probe_ns / last.hash_probe_ns;
    println!(
        "\nlabel_resolve: at {} labels the automaton is {memory_ratio:.2}x smaller, \
         probes {slowdown:.2}x the oracle's latency",
        last.labels
    );
    assert!(
        memory_ratio >= 2.0,
        "acceptance: automaton must be ≥2x smaller than the HashMap (got {memory_ratio:.2}x)"
    );
    assert!(
        slowdown <= 2.0,
        "acceptance: automaton lookups must stay within 2x of the HashMap (got {slowdown:.2}x)"
    );

    let ingest_json = run_ingest(*scales.last().unwrap());

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"label_resolve\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"scales\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"labels\": {}, \"probes\": {}, \"hash_bytes\": {}, \"fst_bytes\": {}, \
             \"memory_ratio\": {:.2}, \"hash_build_ms\": {:.1}, \"fst_build_ms\": {:.1}, \
             \"hash_probe_ns\": {:.0}, \"fst_probe_ns\": {:.0}}}{comma}",
            r.labels,
            r.probes,
            r.hash_bytes,
            r.fst_bytes,
            r.hash_bytes as f64 / r.fst_bytes as f64,
            r.hash_build.as_secs_f64() * 1e3,
            r.fst_build.as_secs_f64() * 1e3,
            r.hash_probe_ns,
            r.fst_probe_ns,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"memory_ratio\": {memory_ratio:.2},");
    let _ = writeln!(json, "  \"probe_slowdown\": {slowdown:.2},");
    json.push_str(&ingest_json);
    let _ = writeln!(json, "}}");

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR8.json");
    std::fs::write(&out, &json).expect("write BENCH_PR8.json");
    println!("label_resolve: wrote {}", out.display());
}
