//! Forward-migration and mapped-corruption suite for segment format v4.
//!
//! Contracts under test:
//!
//! 1. a **version-3** snapshot on disk keeps loading — through the byte
//!    decoder, through [`DurableStore`] on either storage backend — and
//!    the first checkpoint rewrites it as v4 without changing a single
//!    search result bit;
//! 2. both storage backends ([`StorageBackend::Heap`] and
//!    [`StorageBackend::Mmap`]) produce **bit-identical** indexes from
//!    the same v4 file;
//! 3. flipping bytes inside a **memory-mapped** block never panics and
//!    never fabricates documents: a corrupt section is quarantined in
//!    tolerant mode (degraded [`LoadReport`]) and is a typed error in
//!    strict mode, at every byte offset of every section.

use newslink_core::{
    doc_ids, read_newslink_index_bytes, segment_byte_spans, write_newslink_index_v3,
    DurableStore, FsDirectory, LoadReport, NewsLink, NewsLinkConfig, NewsLinkIndex, PersistError,
    StorageBackend,
};
use newslink_kg::{EntityType, GraphBuilder, KnowledgeGraph, LabelIndex};
use newslink_text::DocId;
use newslink_util::Bytes;

fn world() -> (KnowledgeGraph, LabelIndex) {
    let mut b = GraphBuilder::new();
    let khyber = b.add_node("Khyber", EntityType::Gpe);
    let kunar = b.add_node("Kunar", EntityType::Gpe);
    let taliban = b.add_node("Taliban", EntityType::Organization);
    let pakistan = b.add_node("Pakistan", EntityType::Gpe);
    let kabul = b.add_node("Kabul", EntityType::Gpe);
    b.add_edge(kunar, khyber, "borders", 1);
    b.add_edge(taliban, kunar, "operates in", 1);
    b.add_edge(khyber, pakistan, "located in", 1);
    b.add_edge(kabul, pakistan, "trades with", 2);
    let g = b.freeze();
    let idx = LabelIndex::build(&g);
    (g, idx)
}

const DOCS: &[&str] = &[
    "Taliban attacked Kunar. Pakistan responded near Khyber.",
    "Pakistan held talks in Khyber.",
    "Kabul hosted a trade summit with Pakistan.",
];

fn ids(index: &NewsLinkIndex) -> Vec<DocId> {
    doc_ids(index).collect()
}

fn assert_bit_identical(
    engine: &NewsLink<'_>,
    a: &NewsLinkIndex,
    b: &NewsLinkIndex,
    label: &str,
) {
    assert_eq!(ids(a), ids(b), "{label}: doc ids");
    for q in ["Taliban near Kunar", "Pakistan trade", "Khyber summit"] {
        let ra = engine.search(a, q, 10);
        let rb = engine.search(b, q, 10);
        assert_eq!(ra.results.len(), rb.results.len(), "{label}: query {q}");
        for (x, y) in ra.results.iter().zip(&rb.results) {
            assert_eq!(x.doc, y.doc, "{label}: query {q}");
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "{label}: query {q}");
        }
    }
}

/// Load `index.nlnk` from `fs` through `backend`.
fn load(
    fs: &FsDirectory,
    backend: StorageBackend,
    g: &KnowledgeGraph,
    tolerant: bool,
) -> Result<(NewsLinkIndex, LoadReport), PersistError> {
    read_newslink_index_bytes(g, &backend.open(fs, "index.nlnk")?, tolerant)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "newslink_format_migration_{}_{tag}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A v3 snapshot seeded under a [`DurableStore`] data directory loads on
/// either backend, and the first checkpoint migrates it to v4 in place —
/// all without changing a search result.
#[test]
fn v3_data_dir_migrates_to_v4_on_first_checkpoint() {
    for backend in [StorageBackend::Heap, StorageBackend::Mmap] {
        let (g, li) = world();
        let engine = NewsLink::new(
            &g,
            &li,
            NewsLinkConfig::default().with_segment_docs(1).with_max_segments(64),
        );
        let reference = engine.index_corpus(DOCS);
        let dir = temp_dir(&format!("v3dir_{backend}"));
        std::fs::create_dir_all(&dir).unwrap();

        // Plant a v3-format snapshot where the store expects its file,
        // modelling a data directory written by the previous release.
        let snap = dir.join("index.nlnk");
        let mut v3 = Vec::new();
        write_newslink_index_v3(&reference, &g, &mut v3).unwrap();
        std::fs::write(&snap, &v3).unwrap();
        assert!(
            segment_byte_spans(&v3).is_err(),
            "a v3 image has no v4 directory"
        );

        {
            let (mut store, index) =
                DurableStore::open_with(&engine, &dir, backend, || unreachable!())
                    .expect("v3 snapshot loads forward");
            assert!(!store.report().degraded(), "{backend}");
            assert_bit_identical(&engine, &reference, &index, "v3 loaded");
            store.checkpoint(&index, &g).expect("checkpoint rewrites as v4");
        }
        let migrated = std::fs::read(&snap).unwrap();
        let spans = segment_byte_spans(&migrated).expect("checkpoint wrote v4");
        assert_eq!(spans.len(), DOCS.len(), "one section per one-doc segment");

        // The migrated file round-trips on the same backend.
        let (_store, index) = DurableStore::open_with(&engine, &dir, backend, || unreachable!())
            .expect("v4 snapshot reopens");
        assert_bit_identical(&engine, &reference, &index, "v4 migrated");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The same v4 file read through the heap and mmap backends yields
/// bit-identical indexes.
#[test]
fn heap_and_mmap_backends_agree_bit_for_bit() {
    let (g, li) = world();
    let engine = NewsLink::new(
        &g,
        &li,
        NewsLinkConfig::default().with_segment_docs(1).with_max_segments(64),
    );
    let reference = engine.index_corpus(DOCS);
    let dir = temp_dir("parity");
    std::fs::create_dir_all(&dir).unwrap();
    newslink_core::save_newslink_index(&reference, &g, &dir.join("index.nlnk")).unwrap();

    let fs = FsDirectory::create(&dir).unwrap();
    let mut loaded = Vec::new();
    for backend in [StorageBackend::Heap, StorageBackend::Mmap] {
        let (index, report) =
            load(&fs, backend, &g, false).unwrap_or_else(|e| panic!("{backend}: {e}"));
        assert!(!report.degraded(), "{backend}");
        loaded.push(index);
    }
    let (heap, mmap) = (&loaded[0], &loaded[1]);
    assert_bit_identical(&engine, heap, mmap, "heap vs mmap");
    assert_bit_identical(&engine, &reference, mmap, "reference vs mmap");
    std::fs::remove_dir_all(&dir).ok();
}

/// Corrupted-mapping sweep: flip every byte of every mapped segment
/// section in turn; the tolerant mmap load must quarantine (never
/// panic, never invent documents), and the strict load must error.
#[test]
fn every_mapped_section_byte_flip_quarantines_without_panic() {
    let (g, li) = world();
    let engine = NewsLink::new(
        &g,
        &li,
        NewsLinkConfig::default().with_segment_docs(1).with_max_segments(64),
    );
    let reference = engine.index_corpus(DOCS);
    let dir = temp_dir("flip");
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("index.nlnk");
    newslink_core::save_newslink_index(&reference, &g, &snap).unwrap();
    let pristine = std::fs::read(&snap).unwrap();
    let spans = segment_byte_spans(&pristine).unwrap();
    let all_ids = ids(&reference);

    let fs = FsDirectory::create(&dir).unwrap();
    for (si, &(start, end)) in spans.iter().enumerate() {
        // Striding keeps the sweep fast while still probing headers,
        // tables, posting data and the doc-store blob of each section.
        for at in (start..end).step_by(7).chain([end - 1]) {
            let mut bytes = pristine.clone();
            bytes[at] ^= 0xA5;
            std::fs::write(&snap, &bytes).unwrap();

            // Strict: typed error, never a panic.
            let strict = load(&fs, StorageBackend::Mmap, &g, false);
            assert!(strict.is_err(), "section {si} byte {at}: strict must fail");

            // Tolerant: exactly that section quarantined; survivors and
            // their scores are untouched.
            let (index, report) = load(&fs, StorageBackend::Mmap, &g, true)
                .unwrap_or_else(|e| panic!("section {si} byte {at}: tolerant load failed: {e}"));
            assert!(report.degraded(), "section {si} byte {at}");
            assert_eq!(report.quarantined_segments, 1, "section {si} byte {at}");
            let survivors = ids(&index);
            let expected: Vec<DocId> = all_ids
                .iter()
                .copied()
                .filter(|d| d.index() != si)
                .collect();
            assert_eq!(survivors, expected, "section {si} byte {at}");
            let out = engine.search(&index, "Pakistan trade", 10);
            for hit in &out.results {
                assert_ne!(hit.doc.index(), si, "quarantined doc must not rank");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The v3 byte image keeps decoding through the version dispatch even
/// when handed over as a mapped buffer — format decides the decode
/// path, backend decides the residence.
#[test]
fn v3_bytes_decode_identically_from_heap_and_mapped_buffers() {
    let (g, li) = world();
    let engine = NewsLink::new(&g, &li, NewsLinkConfig::default().with_segment_docs(1));
    let reference = engine.index_corpus(DOCS);
    let mut v3 = Vec::new();
    write_newslink_index_v3(&reference, &g, &mut v3).unwrap();

    let dir = temp_dir("v3bytes");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("old.nlnk"), &v3).unwrap();
    let fs = FsDirectory::create(&dir).unwrap();

    let (from_heap, _) =
        read_newslink_index_bytes(&g, &Bytes::from_vec(v3), false).expect("heap v3 decode");
    let mapped = StorageBackend::Mmap.open(&fs, "old.nlnk").expect("map v3 file");
    assert!(mapped.is_mapped());
    let (from_map, _) = read_newslink_index_bytes(&g, &mapped, false).expect("mapped v3 decode");
    assert_bit_identical(&engine, &from_heap, &from_map, "v3 heap vs mapped");
    std::fs::remove_dir_all(&dir).ok();
}
