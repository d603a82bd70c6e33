//! Property tests for the intra-query parallel segment fan-out: on
//! arbitrary corpora, with any blend of β, normalization, segmentation,
//! tombstones, and storage backend, the pruned blended top-k must return
//! *bit-identical* results — scores, tie order, and explanations —
//! whether segments are scanned sequentially (each pruning against the
//! merged heap of its left neighbors) or concurrently (all pruning
//! against the shared atomic floor). Parallelism is a wall-clock
//! strategy, never a ranking change — not even in the last bit.

use proptest::prelude::*;

use newslink_core::{
    index_corpus, read_newslink_index_bytes, search, write_newslink_index, Directory,
    ExplainOptions, FsDirectory, NewsLink, NewsLinkConfig, NewsLinkIndex, RamDirectory,
    SearchRequest, StorageBackend,
};
use newslink_kg::{EntityType, GraphBuilder, KnowledgeGraph, LabelIndex};
use newslink_text::DocId;

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

/// Words documents and queries are drawn from: entity labels (which hit
/// the BON side) plus plain filler (BOW only).
const VOCAB: &[&str] = &[
    "Khyber", "Kunar", "Taliban", "Pakistan", "Kabul", "UNHCR", "trade", "talks", "storm",
    "attack", "aid", "festival",
];

fn doc_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0..VOCAB.len(), 1..12)
        .prop_map(|ws| ws.into_iter().map(|w| VOCAB[w]).collect::<Vec<_>>().join(" ") + ".")
}

fn corpus_strategy() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(doc_strategy(), 1..13)
}

fn query_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0..VOCAB.len(), 1..5)
        .prop_map(|ws| ws.into_iter().map(|w| VOCAB[w]).collect::<Vec<_>>().join(" "))
}

/// Save `index` as a v4 snapshot and load it back through both storage
/// backends (heap over a [`RamDirectory`], mmap over a real file).
fn round_trip_both_backends(
    g: &KnowledgeGraph,
    index: &NewsLinkIndex,
    tag: &str,
) -> (NewsLinkIndex, NewsLinkIndex) {
    let mut buf = Vec::new();
    write_newslink_index(index, g, &mut buf).expect("encode v4");
    let ram = RamDirectory::new();
    ram.atomic_write("index.nlnk", &buf).expect("ram write");
    let (heap, _) = read_newslink_index_bytes(
        g,
        &StorageBackend::Heap.open(&ram, "index.nlnk").expect("heap open"),
        false,
    )
    .expect("heap load");
    let dir = std::env::temp_dir().join(format!(
        "newslink_parallel_prop_{}_{tag}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let fs = FsDirectory::create(&dir).expect("fs dir");
    fs.atomic_write("index.nlnk", &buf).expect("fs write");
    let (mmap, _) = read_newslink_index_bytes(
        g,
        &StorageBackend::Mmap.open(&fs, "index.nlnk").expect("mmap open"),
        false,
    )
    .expect("mmap load");
    std::fs::remove_dir_all(&dir).ok();
    (heap, mmap)
}

/// Assert two result vectors agree bit for bit, including tie order.
fn assert_results_identical(
    a: &[newslink_core::SearchResult],
    b: &[newslink_core::SearchResult],
    label: &str,
) {
    assert_eq!(a.len(), b.len(), "result count ({label})");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.doc, y.doc, "doc / tie order ({label})");
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "score bits for doc {} ({label})",
            x.doc.0
        );
        assert_eq!(x.bow.to_bits(), y.bow.to_bits(), "bow bits ({label})");
        assert_eq!(x.bon.to_bits(), y.bon.to_bits(), "bon bits ({label})");
    }
}

/// The deterministic tie-retention regression from the pruned-evaluator
/// PR, replayed under the parallel fan-out: two segments hold tied
/// documents whose survival depends on the per-segment-heaps-then-merge
/// structure, and concurrent workers racing the shared floor must keep
/// exactly the docs the sequential oracle keeps, at every k.
#[test]
fn tied_docs_across_segments_match_oracle_in_parallel() {
    let (g, li) = world();
    // Segments (segment_docs = 3): [P, A, Z] and [B, C, Q] with
    // score(P) > score(Q) > score(A) = score(B) = score(C) > 0 = score(Z).
    // At k = 3 the oracle keeps {P, Q, A}; a structure-perturbing merge
    // would keep {P, Q, B}.
    let docs: Vec<String> = [
        "Pakistan Pakistan Pakistan talks talks talks.", // P
        "Pakistan aid talks.",                           // A
        "storm.",                                        // Z
        "Pakistan aid talks.",                           // B
        "Pakistan aid talks.",                           // C
        "Pakistan Pakistan aid talks talks.",            // Q
    ]
    .map(String::from)
    .to_vec();
    let par_cfg = NewsLinkConfig::default()
        .with_segment_docs(3)
        .with_search_threads(4);
    let oracle_cfg = par_cfg.clone().with_prune_topk(false).with_search_threads(1);
    let idx = index_corpus(&g, &li, &par_cfg, &docs);

    let oracle = search(&g, &li, &oracle_cfg, &idx, "Pakistan talks", 3);
    // Precondition: the corpus really produces the P > Q > tie shape.
    assert_eq!(oracle.results.len(), 3);
    assert_eq!(oracle.results[0].doc, DocId(0), "P must rank first");
    assert_eq!(oracle.results[1].doc, DocId(5), "Q must rank second");
    assert!(oracle.results[1].score > oracle.results[2].score);

    for k in [1usize, 2, 3, 4, 6, 100] {
        let par = search(&g, &li, &par_cfg, &idx, "Pakistan talks", k);
        let oracle = search(&g, &li, &oracle_cfg, &idx, "Pakistan talks", k);
        assert_eq!(par.results.len(), oracle.results.len(), "k={k}");
        for (x, y) in par.results.iter().zip(&oracle.results) {
            assert_eq!(x.doc, y.doc, "tied-doc retention under parallelism (k={k})");
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "k={k}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sequential ≡ parallel: pinned 4-worker and auto fan-outs return
    /// the same ranked vector as the single-threaded scan, bit for bit,
    /// across β ∈ {0, 0.3, 1}, k ∈ {1, 5, 100}, 1–6+ segments,
    /// normalization on/off, tombstones, and both storage backends —
    /// and request-level explanations agree too.
    #[test]
    fn parallel_pruned_topk_is_bit_identical_to_sequential(
        docs in corpus_strategy(),
        query in query_strategy(),
        beta_i in 0usize..3,
        k_i in 0usize..3,
        normalize in any::<bool>(),
        segment_docs in 1usize..4,
        do_delete in any::<bool>(),
        delete_mask in prop::collection::vec(any::<bool>(), 10..11),
    ) {
        let beta = [0.0, 0.3, 1.0][beta_i];
        let k = [1usize, 5, 100][k_i];
        let (g, li) = world();
        let mut seq_cfg = NewsLinkConfig::default()
            .with_beta(beta)
            .with_segment_docs(segment_docs)
            .with_search_threads(1);
        seq_cfg.normalize_scores = normalize;
        let par_cfg = seq_cfg.clone().with_search_threads(4);
        let auto_cfg = seq_cfg.clone().with_search_threads(0);

        let mut idx = index_corpus(&g, &li, &seq_cfg, &docs);
        if do_delete {
            // Delete a pseudo-random subset, keeping at least one doc.
            let mut live = docs.len();
            for i in 0..docs.len() {
                if live > 1 && delete_mask[i % delete_mask.len()] {
                    prop_assert!(idx.delete(DocId(i as u32)));
                    live -= 1;
                }
            }
        }

        let seq = search(&g, &li, &seq_cfg, &idx, &query, k);
        let par = search(&g, &li, &par_cfg, &idx, &query, k);
        let auto = search(&g, &li, &auto_cfg, &idx, &query, k);
        assert_results_identical(&seq.results, &par.results, "4 workers");
        assert_results_identical(&seq.results, &auto.results, "auto workers");

        // Explanations ride the ranked list: identical ranking must
        // yield identical relationship paths through the engine path.
        let request = SearchRequest::new(&query)
            .with_k(k)
            .with_explanations(ExplainOptions::default());
        let seq_resp = NewsLink::new(&g, &li, seq_cfg.clone()).execute(&idx, &request);
        let par_resp = NewsLink::new(&g, &li, par_cfg.clone()).execute(&idx, &request);
        assert_results_identical(&seq_resp.results, &par_resp.results, "engine");
        prop_assert_eq!(
            format!("{:?}", seq_resp.explanations),
            format!("{:?}", par_resp.explanations),
            "explanations must agree"
        );

        // The fan-out must stay bit-identical whether the postings live
        // on the heap or straight in a file mapping.
        let (heap_idx, mmap_idx) = round_trip_both_backends(&g, &idx, "parallel");
        for (reloaded, label) in [(&heap_idx, "heap"), (&mmap_idx, "mmap")] {
            let seq_r = search(&g, &li, &seq_cfg, reloaded, &query, k);
            let par_r = search(&g, &li, &par_cfg, reloaded, &query, k);
            assert_results_identical(&seq.results, &seq_r.results, label);
            assert_results_identical(&seq_r.results, &par_r.results, label);
        }
    }
}
