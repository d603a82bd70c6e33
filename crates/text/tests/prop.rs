//! Property tests for the retrieval substrate: pruning and persistence
//! must be *exactly* equivalent to the naive paths on arbitrary corpora.

use proptest::prelude::*;

use newslink_text::{
    blended_scan, query_tf, read_index, write_index, Bm25, CollectionStats, IndexBuilder,
    PruneStats, Searcher, SideSpec,
};
use newslink_util::TopK;

/// Strategy: a corpus of small documents over a tiny vocabulary (so terms
/// collide across documents and scoring paths are exercised).
fn corpus_strategy() -> impl Strategy<Value = Vec<Vec<String>>> {
    prop::collection::vec(
        prop::collection::vec(0u8..20, 0..15)
            .prop_map(|ws| ws.into_iter().map(|w| format!("w{w}")).collect()),
        1..40,
    )
}

fn query_strategy() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(0u8..25, 1..6).prop_map(|ws| {
        ws.into_iter().map(|w| format!("w{w}")).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The block-max pruned scan with a BOW side alone at β = 0 returns
    /// exactly the exhaustive BM25 top-k: same documents, same order,
    /// same score bits.
    #[test]
    fn maxscore_equals_exhaustive(docs in corpus_strategy(), query in query_strategy(), k in 1usize..8) {
        let mut b = IndexBuilder::new();
        for d in &docs {
            b.add_document(d);
        }
        let index = b.build();
        let naive = Searcher::new(&index, Bm25::default()).search(&query, k);

        let dict = index.dictionary();
        let terms = query_tf(&query)
            .into_iter()
            .filter_map(|(t, q)| dict.get(t).map(|id| (index.postings(id), q, dict.doc_freq(id))))
            .collect();
        let spec = SideSpec {
            index: &index,
            scorer: Bm25::default(),
            stats: CollectionStats::from_index(&index),
            terms,
            norm: 1.0,
        };
        let mut topk = TopK::new(k);
        let mut stats = PruneStats::default();
        let no_floor = f64::NEG_INFINITY;
        blended_scan(Some(&spec), None, 0.0, &no_floor, |_| true, |d| d, &mut topk, &mut stats);
        let pruned = topk.into_sorted();

        prop_assert_eq!(naive.len(), pruned.len());
        for (a, (score, (doc, bow, _))) in naive.iter().zip(&pruned) {
            prop_assert_eq!(a.doc, *doc);
            prop_assert_eq!(a.score.to_bits(), score.to_bits());
            prop_assert_eq!(a.score.to_bits(), bow.to_bits());
        }
    }

    /// The binary codec round-trips scores exactly.
    #[test]
    fn codec_preserves_scores(docs in corpus_strategy(), query in query_strategy()) {
        let mut b = IndexBuilder::new();
        for d in &docs {
            b.add_document(d);
        }
        let index = b.build();
        let mut buf = Vec::new();
        write_index(&index, &mut buf).unwrap();
        let back = read_index(&mut &buf[..]).unwrap();
        let a = Searcher::new(&index, Bm25::default()).search(&query, 10);
        let c = Searcher::new(&back, Bm25::default()).search(&query, 10);
        prop_assert_eq!(a.len(), c.len());
        for (x, y) in a.iter().zip(&c) {
            prop_assert_eq!(x.doc, y.doc);
            prop_assert!((x.score - y.score).abs() < 1e-15);
        }
    }
}
