//! Document-at-a-time blended top-k with MaxScore and block-max pruning.
//!
//! The paper's NS component "employ\[s\] existing top-k ranking algorithms
//! \[Threshold Algorithm; VSM\]" (§VI). This module provides that
//! machinery as one exact evaluator, [`blended_scan`]: NewsLink's
//! Equation-3 score `(1-β)·bow + β·bon` evaluated by one cursor set that
//! drives both the BOW and the BON posting lists with the combined bound
//! `(1-β)·bow_bound + β·bon_bound`, producing the blended top-k directly,
//! without materializing per-document score maps. Terms are split
//! Turtle & Flood style into an *essential* set — at least one of which
//! any new top-k document must contain — and a non-essential remainder
//! evaluated only for candidates that survive a per-block score bound
//! check; [`PostingCursor::seek`] skips whole compressed blocks via their
//! metadata without decoding them. With one side passed (β = 0 and a BOW
//! side alone) it is plain BM25 top-k, the paper's Lucene baseline.
//!
//! ## Exactness
//!
//! Pruning decisions only ever *skip* pushing a document whose score
//! upper bound cannot beat the current k-th score; a skipped push is
//! exactly one the top-k heap would have rejected (rejected pushes leave
//! the heap untouched, including its tie counter). Full scores are
//! accumulated in the same canonical term order as the exhaustive
//! evaluator ([`crate::search::score_segment`]), so surviving documents
//! carry bit-identical f64 scores. Every bound is additionally inflated
//! by [`SAFETY`] before comparison so floating-point rounding in the
//! bound arithmetic can never turn a mathematical upper bound into a
//! hair-too-small one.

use std::sync::atomic::{AtomicU64, Ordering};

use newslink_util::TopK;

use crate::inverted::{CollectionStats, DocId, InvertedIndex, PostingCursor, PostingList};
use crate::score::Bm25;

/// Multiplicative inflation applied to every pruning bound before it is
/// compared against the heap threshold. Bounds are mathematical upper
/// bounds evaluated in floating point; their handful of f64 operations
/// can land within ~1e-14 relative error of the true supremum, so
/// comparing `bound * SAFETY` guarantees a document whose exact score
/// would beat the threshold is never skipped — pruning stays exact, it
/// only becomes infinitesimally less eager.
pub const SAFETY: f64 = 1.0 + 1e-9;

/// Work counters for the pruned evaluators: how much the index structure
/// let us avoid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PruneStats {
    /// Live candidate documents examined (DAAT pivots).
    pub candidates: u64,
    /// Candidates that survived every bound check and were fully scored.
    pub scored: u64,
    /// Posting blocks skipped whole by metadata, never decoded.
    pub blocks_skipped: u64,
}

impl PruneStats {
    /// Fold another evaluator pass's counters in.
    pub fn add(&mut self, other: &PruneStats) {
        self.candidates += other.candidates;
        self.scored += other.scored;
        self.blocks_skipped += other.blocks_skipped;
    }
}

/// Work counters for the intra-query parallel segment fan-out: how many
/// workers a query's NS stage used and how much pruning the shared
/// cross-segment floor bought. All zero when the scan ran sequentially.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ParallelStats {
    /// Scoped worker threads the fan-out ran on (0 = sequential path).
    pub workers: u64,
    /// Segments scanned concurrently under the shared floor.
    pub segments: u64,
    /// Successful monotone raises of the shared pruning floor.
    pub floor_raises: u64,
    /// Candidates discarded where the shared floor — not the segment's
    /// own heap threshold — was the binding bound.
    pub floor_pruned: u64,
    /// Posting blocks skipped whole during bound refinement of those
    /// floor-discarded candidates: decode work the shared floor paid for.
    pub floor_blocks_skipped: u64,
}

impl ParallelStats {
    /// Fold another query's counters in (metrics aggregation).
    pub fn add(&mut self, other: &ParallelStats) {
        self.workers = self.workers.max(other.workers);
        self.segments += other.segments;
        self.floor_raises += other.floor_raises;
        self.floor_pruned += other.floor_pruned;
        self.floor_blocks_skipped += other.floor_blocks_skipped;
    }
}

/// An externally supplied pruning floor consulted by [`blended_scan`]
/// every time it re-derives its threshold `θ`.
///
/// The sequential path passes a plain `f64` (the merged heap's k-th
/// score after the previous segments — constant for the duration of one
/// segment's scan). The parallel path passes a [`SharedFloor`] so
/// segments scanned concurrently prune against each other's *live*
/// progress: `get` is re-read at every threshold check, and `raise` is
/// offered each time a segment's own heap threshold rises.
pub trait Floor {
    /// The current floor value. Any candidate whose score upper bound
    /// (inflated by [`SAFETY`]) is at or below `max(get(), local θ)` is
    /// discarded — so implementations must only ever report values that
    /// provably cannot survive the final merge (see [`SharedFloor`]).
    fn get(&self) -> f64;
    /// Offer a proven lower bound on the final merged k-th score (a full
    /// local heap's threshold). Default: ignore (constant floors).
    #[inline]
    fn raise(&self, _kth: f64) {}
    /// Record a candidate discarded because the external floor (not the
    /// local heap) was the binding bound, along with the posting blocks
    /// skipped whole while refining it. Default: ignore.
    #[inline]
    fn note_floor_prune(&self, _refine_blocks: u64) {}
}

/// A constant floor: the sequential cross-segment threshold.
impl Floor for f64 {
    #[inline]
    fn get(&self) -> f64 {
        *self
    }
}

/// Lock-free shared pruning floor for concurrent segment scans: an
/// `AtomicU64` holding the f64 bits of the best k-th score any segment's
/// local heap has reached so far, raised monotonically via fetch-update.
///
/// **Why sharing it is exact** (the §6l safety argument, proven by the
/// `parallel_prop` suite): a full local `TopK(k)`'s threshold is the
/// k-th best score of real documents, all of which reach the final
/// merge — so the merged k-th score can only be ≥ it, and the floor is
/// always a lower bound on the final merged threshold. The scan discards
/// a candidate only when `bound · SAFETY ≤ floor` with `bound ≥ score`,
/// i.e. only documents *strictly* below the floor (ties survive: for a
/// doc scoring exactly `floor > 0`, `bound · SAFETY > floor`). Such
/// documents lose the final merge no matter the push order, and inside a
/// local heap they are only ever eviction victims — never competing with
/// an above-floor document for a tie — so which documents survive, and
/// their tie order, is untouched. Memory ordering is `Relaxed`
/// throughout: the floor is monotone and advisory, so a stale read is
/// just a slightly weaker (still valid) earlier value.
#[derive(Debug)]
pub struct SharedFloor {
    bits: AtomicU64,
    raises: AtomicU64,
    pruned: AtomicU64,
    blocks: AtomicU64,
}

impl SharedFloor {
    /// A floor starting at `f64::NEG_INFINITY` (no constraint).
    pub fn new() -> Self {
        Self::seeded(f64::NEG_INFINITY)
    }

    /// A floor pre-seeded with an externally proven threshold (e.g. a
    /// router-supplied merge floor); the seed is not counted as a raise.
    pub fn seeded(floor: f64) -> Self {
        Self {
            bits: AtomicU64::new(floor.to_bits()),
            raises: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
            blocks: AtomicU64::new(0),
        }
    }

    /// The current floor value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Drain the counters into a [`ParallelStats`] describing a fan-out
    /// that ran on `workers` threads over `segments` segments.
    pub fn harvest(&self, workers: usize, segments: usize) -> ParallelStats {
        ParallelStats {
            workers: workers as u64,
            segments: segments as u64,
            floor_raises: self.raises.load(Ordering::Relaxed),
            floor_pruned: self.pruned.load(Ordering::Relaxed),
            floor_blocks_skipped: self.blocks.load(Ordering::Relaxed),
        }
    }
}

impl Default for SharedFloor {
    fn default() -> Self {
        Self::new()
    }
}

impl Floor for SharedFloor {
    #[inline]
    fn get(&self) -> f64 {
        self.value()
    }

    #[inline]
    fn raise(&self, kth: f64) {
        // Monotone max on the f64 *values* (not their bit patterns —
        // negative floors order backwards as bits). Scores are finite and
        // the seed is -inf, so total_cmp-free `>` is sufficient.
        let raised = self
            .bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                (kth > f64::from_bits(cur)).then(|| kth.to_bits())
            })
            .is_ok();
        if raised {
            self.raises.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    fn note_floor_prune(&self, refine_blocks: u64) {
        self.pruned.fetch_add(1, Ordering::Relaxed);
        self.blocks.fetch_add(refine_blocks, Ordering::Relaxed);
    }
}

/// Upper bound of BM25's tf-saturation factor over all document lengths:
/// `tf·(k1+1) / (tf + k1·(1-b))` — the saturation at the minimal length
/// norm `1-b` (`doc_len = 0`). Exact (not just an upper bound) for
/// `b = 0`, where the norm is length-independent.
#[inline]
fn sat_bound(scorer: &Bm25, tf: u32) -> f64 {
    if tf == 0 {
        return 0.0;
    }
    let tf = f64::from(tf);
    tf * (scorer.k1 + 1.0) / (tf + scorer.k1 * (1.0 - scorer.b))
}

/// One side (BOW or BON) of the blended evaluator, fully resolved
/// against one segment.
pub struct SideSpec<'i> {
    /// The segment's inverted index for this side (document lengths).
    pub index: &'i InvertedIndex,
    /// The side's BM25 parameterization.
    pub scorer: Bm25,
    /// Collection-wide overlay statistics for the side.
    pub stats: CollectionStats,
    /// `(postings, query_tf, global_df)` per resolved query term, in the
    /// shared canonical query-term order — the order
    /// [`crate::search::score_segment`] accumulates contributions in,
    /// which the blended evaluator must reproduce for bit-identity.
    pub terms: Vec<(&'i PostingList, u32, u32)>,
    /// Normalization divisor (the side's global score max, or 1.0).
    pub norm: f64,
}

/// Per-term cursor state of the blended evaluator. Cursor order is the
/// canonical accumulation order: all BOW terms first, then all BON
/// terms, each side in its spec order.
struct BlendedCursor<'i> {
    cursor: PostingCursor<'i>,
    /// 0 = BOW, 1 = BON.
    side: usize,
    scorer: Bm25,
    /// `qtf · idf` ([`Bm25::term_partial`]) — the document-independent
    /// factor of this term's raw contribution, folded once per term so
    /// the scoring loop multiplies it by saturation per posting instead
    /// of recomputing the idf (bit-identical: the product associates at
    /// the same boundary).
    partial: f64,
    /// `weight · qtf · idf / norm` — multiply by a saturation bound for
    /// a weighted normalized score bound.
    base: f64,
    /// List-level weighted upper bound on this term's blended
    /// contribution.
    wub: f64,
}

/// Pruned blended top-k scan of **one segment**: pushes every live
/// document whose Equation-3 score `(1-β)·bow + β·bon` can still beat
/// the threshold of `topk`, in ascending doc-id order, with scores
/// bit-identical to the exhaustive map-based evaluator.
///
/// For bit-identical top-k across segments, feed each segment a *fresh*
/// `topk` and merge the survivors afterwards: a heap carried across
/// segments can retain a different one of several tied documents than
/// the per-segment-then-merge structure the exhaustive path uses.
/// (Sharing `topk` across segments is fine when only the retained
/// *values* matter, e.g. a top-1 max pass.)
///
/// `floor` is an extra pruning threshold from *outside* this segment,
/// consulted through the [`Floor`] trait at every threshold check. The
/// sequential path passes the merged heap's current k-th score as a
/// plain `&f64` (or `&f64::NEG_INFINITY` for none); the parallel path
/// passes a [`SharedFloor`] that concurrent segment scans raise against
/// each other. Skipping a candidate whose bound is ≤ the floor cannot
/// change the merged outcome: such a document would be rejected when
/// the survivors are pushed into the (already full, min ≥ floor)
/// merged heap, and inside this segment's heap ≤-floor entries are only
/// ever eviction victims, so which above-floor documents survive — and
/// their tie order — is unaffected by their presence. Whenever this
/// segment's own heap threshold rises it is offered back through
/// [`Floor::raise`], making the pruning bidirectional under a shared
/// floor.
///
/// `map_doc` translates segment-local ids to global ones at push time;
/// `live` filters tombstoned documents. A side passed as `None`
/// contributes 0.0, matching the exhaustive path's behavior for
/// `β ∈ {0, 1}` and for sides with no live documents.
#[allow(clippy::too_many_arguments)]
pub fn blended_scan(
    bow: Option<&SideSpec<'_>>,
    bon: Option<&SideSpec<'_>>,
    beta: f64,
    floor: &impl Floor,
    live: impl Fn(DocId) -> bool,
    map_doc: impl Fn(DocId) -> DocId,
    topk: &mut TopK<(DocId, f64, f64)>,
    stats_out: &mut PruneStats,
) {
    let sides = [bow, bon];
    let weights = [1.0 - beta, beta];
    let mut cursors: Vec<BlendedCursor<'_>> = Vec::new();
    for (si, spec) in sides.iter().enumerate() {
        let Some(spec) = spec else { continue };
        for &(list, qtf, df) in &spec.terms {
            if list.is_empty() {
                continue;
            }
            let base = weights[si] * f64::from(qtf) * spec.scorer.idf(spec.stats.docs, df)
                / spec.norm;
            let wub = base * sat_bound(&spec.scorer, list.max_tf());
            cursors.push(BlendedCursor {
                cursor: list.cursor(),
                side: si,
                scorer: spec.scorer,
                partial: spec.scorer.term_partial(spec.stats, df, qtf),
                base,
                wub,
            });
        }
    }
    if cursors.is_empty() {
        return;
    }
    // Evaluation order ascending by bound; ties by canonical index so the
    // partition is deterministic. (Bound order only steers *which* docs
    // get fully scored, never their scores.)
    let mut order: Vec<usize> = (0..cursors.len()).collect();
    order.sort_by(|&a, &b| cursors[a].wub.total_cmp(&cursors[b].wub).then(a.cmp(&b)));
    // prefix_bounds[i] = sum of bounds of order[0..i].
    let mut prefix_bounds = vec![0.0f64; cursors.len() + 1];
    for i in 0..cursors.len() {
        prefix_bounds[i + 1] = prefix_bounds[i] + cursors[order[i]].wub;
    }
    let mut first_essential = 0usize;

    loop {
        let theta = topk.threshold().unwrap_or(f64::NEG_INFINITY).max(floor.get());
        while first_essential < cursors.len()
            && prefix_bounds[first_essential + 1] * SAFETY <= theta
        {
            first_essential += 1;
        }
        if first_essential >= cursors.len() {
            break;
        }
        let mut pivot: Option<DocId> = None;
        for &ci in &order[first_essential..] {
            if let Some(d) = cursors[ci].cursor.current_doc() {
                pivot = Some(match pivot {
                    Some(p) if p <= d => p,
                    _ => d,
                });
            }
        }
        let Some(doc) = pivot else { break };

        if live(doc) {
            stats_out.candidates += 1;
            // Bound refinement, most-promising non-essential first:
            // `bound` holds block-level bounds for every cursor known to
            // sit on `doc` plus list-level bounds for the not-yet-seeked
            // prefix. Only bounds are consulted here — actual scores are
            // computed once, in canonical order, for survivors.
            let mut bound = prefix_bounds[first_essential];
            for &ci in &order[first_essential..] {
                let c = &cursors[ci];
                if c.cursor.current_doc() == Some(doc) {
                    bound += c.base * sat_bound(&c.scorer, c.cursor.block_max_tf());
                }
            }
            let mut abandoned = false;
            let mut refine_blocks = 0u64;
            let mut j = first_essential;
            loop {
                let local = topk.threshold().unwrap_or(f64::NEG_INFINITY);
                let ext = floor.get();
                if bound * SAFETY <= local.max(ext) {
                    if ext > local {
                        // The external (shared) floor, not this segment's
                        // own heap, killed the candidate: credit it.
                        floor.note_floor_prune(refine_blocks);
                    }
                    abandoned = true;
                    break;
                }
                if j == 0 {
                    break;
                }
                j -= 1;
                let ci = order[j];
                bound -= cursors[ci].wub;
                let c = &mut cursors[ci];
                let before = c.cursor.blocks_skipped();
                c.cursor.seek(doc);
                refine_blocks += c.cursor.blocks_skipped() - before;
                if c.cursor.current_doc() == Some(doc) {
                    bound += c.base * sat_bound(&c.scorer, c.cursor.block_max_tf());
                }
            }
            if !abandoned {
                stats_out.scored += 1;
                // Canonical-order accumulation: identical f64 sums to the
                // exhaustive evaluator's per-document map entries. The
                // per-term `qtf · idf` partial is folded into the cursor;
                // only the length-dependent saturation is computed here.
                let mut raw = [0.0f64; 2];
                for c in &cursors {
                    if let Some(p) = c.cursor.current() {
                        if p.doc == doc {
                            let spec = sides[c.side].expect("cursor from an active side");
                            raw[c.side] += spec.scorer.contribution_from_partial(
                                spec.stats,
                                spec.index.doc_len(doc),
                                p.tf,
                                c.partial,
                            );
                        }
                    }
                }
                let bow_v = sides[0].map_or(0.0, |s| raw[0] / s.norm);
                let bon_v = sides[1].map_or(0.0, |s| raw[1] / s.norm);
                let score = (1.0 - beta) * bow_v + beta * bon_v;
                if score > 0.0 && topk.push(score, (map_doc(doc), bow_v, bon_v)) {
                    // A full heap's k-th score is a proven lower bound on
                    // the final merged threshold: offer it to siblings.
                    if let Some(kth) = topk.threshold() {
                        floor.raise(kth);
                    }
                }
            }
        }
        for c in cursors.iter_mut() {
            if c.cursor.current_doc() == Some(doc) {
                c.cursor.advance();
            }
        }
    }
    stats_out.blocks_skipped += cursors
        .iter()
        .map(|c| c.cursor.blocks_skipped())
        .sum::<u64>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverted::IndexBuilder;
    use crate::search::{query_tf, score_segment};
    use newslink_util::{DetRng, FxHashMap};

    /// One ranked row: `(doc, blended, bow, bon)`.
    type Row = (DocId, f64, f64, f64);

    fn random_index(seed: u64, docs: usize, vocab: usize) -> (InvertedIndex, Vec<Vec<String>>) {
        let mut rng = DetRng::new(seed);
        let mut b = IndexBuilder::new();
        let mut all = Vec::new();
        for _ in 0..docs {
            let len = rng.range(3, 30);
            let terms: Vec<String> = (0..len)
                .map(|_| format!("t{}", rng.zipf(vocab, 1.2)))
                .collect();
            b.add_document(&terms);
            all.push(terms);
        }
        (b.build(), all)
    }

    fn random_query(seed: u64, vocab: usize) -> Vec<String> {
        let mut rng = DetRng::new(seed);
        let qlen = rng.range(1, 6);
        (0..qlen).map(|_| format!("t{}", rng.zipf(vocab, 1.2))).collect()
    }

    /// The collection statistics and per-term document frequencies a
    /// scan and its oracle both run under.
    struct Overlay<'q> {
        stats: CollectionStats,
        df: FxHashMap<&'q str, u32>,
    }

    /// The whole index: its own stats and dictionary doc-freqs, as the
    /// engine resolves a single segment without tombstones.
    fn full_overlay<'q>(index: &InvertedIndex, qtf: &FxHashMap<&'q str, u32>) -> Overlay<'q> {
        let dict = index.dictionary();
        let df = qtf
            .keys()
            .filter_map(|&t| dict.get(t).map(|id| (t, dict.doc_freq(id))))
            .collect();
        Overlay {
            stats: CollectionStats::from_index(index),
            df,
        }
    }

    /// Live documents only: stats and doc-freqs count just the documents
    /// `live` admits, as the engine's tombstone overlay does.
    fn live_overlay<'q>(
        index: &InvertedIndex,
        qtf: &FxHashMap<&'q str, u32>,
        live: impl Fn(DocId) -> bool,
    ) -> Overlay<'q> {
        let mut stats = CollectionStats::default();
        for d in (0..index.doc_count() as u32).map(DocId) {
            if live(d) {
                stats.add_doc(index.doc_len(d));
            }
        }
        let df = qtf
            .keys()
            .map(|&t| (t, index.postings_for(t).iter().filter(|p| live(p.doc)).count() as u32))
            .filter(|&(_, n)| n > 0)
            .collect();
        Overlay { stats, df }
    }

    /// Build a [`SideSpec`] the way the segmented engine does: terms in
    /// `query_tf` iteration order, doc-freqs from the overlay.
    fn spec_for<'i>(
        index: &'i InvertedIndex,
        scorer: Bm25,
        qtf: &FxHashMap<&str, u32>,
        overlay: &Overlay<'_>,
        norm: f64,
    ) -> SideSpec<'i> {
        let dict = index.dictionary();
        let mut terms = Vec::new();
        for (term, &q) in qtf {
            let Some(id) = dict.get(term) else { continue };
            let df = overlay.df.get(term).copied().unwrap_or(0);
            terms.push((index.postings(id), q, df));
        }
        SideSpec {
            index,
            scorer,
            stats: overlay.stats,
            terms,
            norm,
        }
    }

    /// The pruned scan with a BOW side alone.
    fn single_side_scan(
        index: &InvertedIndex,
        qtf: &FxHashMap<&str, u32>,
        overlay: &Overlay<'_>,
        beta: f64,
        k: usize,
        live: impl Fn(DocId) -> bool,
    ) -> (Vec<Row>, PruneStats) {
        let spec = spec_for(index, Bm25::default(), qtf, overlay, 1.0);
        let mut topk = TopK::new(k);
        let mut stats = PruneStats::default();
        blended_scan(
            Some(&spec),
            None,
            beta,
            &f64::NEG_INFINITY,
            live,
            |d| d,
            &mut topk,
            &mut stats,
        );
        let rows = topk
            .into_sorted()
            .into_iter()
            .map(|(s, (d, bw, bn))| (d, s, bw, bn))
            .collect();
        (rows, stats)
    }

    /// Exhaustive oracle mirroring the engine's map-based blended path.
    fn blended_exhaustive(
        index: &InvertedIndex,
        qtf: &FxHashMap<&str, u32>,
        overlay: &Overlay<'_>,
        beta: f64,
        k: usize,
        live: impl Fn(DocId) -> bool,
    ) -> Vec<Row> {
        let scores = score_segment(Bm25::default(), index, overlay.stats, qtf, &overlay.df, live);
        let mut docs: Vec<DocId> = scores.keys().copied().collect();
        docs.sort_unstable();
        let mut topk = TopK::new(k);
        for doc in docs {
            let bow = scores.get(&doc).copied().unwrap_or(0.0);
            let score = (1.0 - beta) * bow + beta * 0.0;
            if score > 0.0 {
                topk.push(score, (doc, bow, 0.0));
            }
        }
        topk.into_sorted()
            .into_iter()
            .map(|(s, (d, bw, bn))| (d, s, bw, bn))
            .collect()
    }

    /// Same documents in the same order with the same score bits.
    fn assert_bit_identical(got: &[Row], want: &[Row], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.0, w.0, "doc order: {ctx}");
            assert_eq!(g.1.to_bits(), w.1.to_bits(), "score bits: {ctx}");
            assert_eq!(g.2.to_bits(), w.2.to_bits(), "bow bits: {ctx}");
            assert_eq!(g.3.to_bits(), w.3.to_bits(), "bon bits: {ctx}");
        }
    }

    /// Run the scan and the oracle on one whole-index query and compare.
    fn check_full(index: &InvertedIndex, query: &[String], beta: f64, k: usize) -> Vec<Row> {
        let qtf = query_tf(query);
        let overlay = full_overlay(index, &qtf);
        let (got, stats) = single_side_scan(index, &qtf, &overlay, beta, k, |_| true);
        let want = blended_exhaustive(index, &qtf, &overlay, beta, k, |_| true);
        assert_bit_identical(&got, &want, &format!("beta {beta} k {k} query {query:?}"));
        assert!(stats.scored <= stats.candidates);
        got
    }

    fn strings(terms: &[&str]) -> Vec<String> {
        terms.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn blended_scan_single_side_is_bit_identical_to_exhaustive() {
        let (index, _) = random_index(11, 400, 40);
        for beta in [0.0, 0.4] {
            for k in [1usize, 5, 1000] {
                for qseed in 0..10u64 {
                    check_full(&index, &random_query(3000 + qseed, 40), beta, k);
                }
            }
        }
        // A 1000-doc index queried for its five most frequent terms at
        // k = 1: the deepest pruning, still exact.
        let (index, _) = random_index(4, 1000, 30);
        check_full(&index, &strings(&["t0", "t1", "t2", "t3", "t4"]), 0.0, 1);
    }

    #[test]
    fn blended_scan_single_side_edge_queries_are_bit_identical() {
        let (index, _) = random_index(2, 200, 20);
        for beta in [0.0, 0.4] {
            for k in [0usize, 1, 5, 8] {
                // The empty query and an unknown-only query rank nothing.
                assert!(check_full(&index, &[], beta, k).is_empty());
                assert!(check_full(&index, &strings(&["zzz"]), beta, k).is_empty());
                // An unknown term beside a known one ranks as the known
                // one alone.
                let mixed = check_full(&index, &strings(&["zzz", "t1"]), beta, k);
                let known = check_full(&index, &strings(&["t1"]), beta, k);
                assert_bit_identical(&mixed, &known, "mixed");
                assert_eq!(mixed.is_empty(), k == 0);
                // Repeated query terms weigh by their query frequency.
                check_full(&index, &strings(&["t1", "t1", "t2"]), beta, k);
            }
        }

        // 100 docs over two interleaved terms of unequal idf, every
        // third `x`.
        let mut b = IndexBuilder::new();
        for i in 0..100 {
            b.add_document(&[if i % 3 == 0 { "x" } else { "y" }]);
        }
        let index = b.build();
        for k in [1usize, 10, 100] {
            let got = check_full(&index, &strings(&["x", "y"]), 0.0, k);
            assert_eq!(got.len(), k);
        }
    }

    #[test]
    fn blended_scan_single_side_with_tombstones_matches_overlay_oracle() {
        let (index, docs) = random_index(7, 200, 30);
        // Tombstone every fifth document.
        let is_live = |d: DocId| !d.0.is_multiple_of(5);
        // The same live documents indexed on their own: the overlay must
        // score exactly as this rebuilt index does.
        let mut b = IndexBuilder::new();
        let mut live_ids = Vec::new();
        for (i, terms) in docs.iter().enumerate() {
            if is_live(DocId(i as u32)) {
                live_ids.push(DocId(i as u32));
                b.add_document(terms);
            }
        }
        let fresh = b.build();

        let mut queries = vec![strings(&["t0", "t1", "t2"])];
        queries.extend((0..8u64).map(|s| random_query(5000 + s, 30)));
        for query in &queries {
            for k in [1usize, 10, 1000] {
                let ctx = format!("k {k} query {query:?}");
                let qtf = query_tf(query);
                let overlay = live_overlay(&index, &qtf, is_live);
                let (got, _) = single_side_scan(&index, &qtf, &overlay, 0.0, k, is_live);
                let want = blended_exhaustive(&index, &qtf, &overlay, 0.0, k, is_live);
                assert_bit_identical(&got, &want, &ctx);
                assert!(!got.is_empty(), "{ctx}");
                assert!(got.iter().all(|r| is_live(r.0)), "{ctx}");

                let rebuilt: Vec<Row> = check_full(&fresh, query, 0.0, k)
                    .into_iter()
                    .map(|(d, s, bw, bn)| (live_ids[d.index()], s, bw, bn))
                    .collect();
                assert_bit_identical(&got, &rebuilt, &ctx);
            }
        }
    }

    #[test]
    fn blended_scan_prunes_on_small_k() {
        let (index, _) = random_index(12, 2000, 30);
        let query: Vec<String> = (0..4).map(|i| format!("t{i}")).collect();
        let qtf = query_tf(&query);
        let overlay = full_overlay(&index, &qtf);
        let (_, stats) = single_side_scan(&index, &qtf, &overlay, 0.0, 3, |_| true);
        assert!(stats.candidates > 0);
        assert!(
            stats.scored < stats.candidates,
            "expected pruning: {stats:?}"
        );
    }
}
