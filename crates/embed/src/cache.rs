//! The traversal/embedding cache for the hot `G*` path.
//!
//! Figure 7 of the paper identifies embedding time as the dominant
//! indexing cost, and real corpora repeat entity groups across thousands
//! of documents. [`EmbeddingCache`] amortizes that cost at two levels:
//!
//! 1. **Group memo** — the full `Result<G*, EmbedError>` per
//!    `(model, label sequence)`. A recurring entity group skips traversal
//!    entirely. Errors are cached too: a group that cannot embed today
//!    cannot embed tomorrow (the graph is frozen).
//! 2. **Distance maps** — a [`DistanceCache`] of truncated per-source-set
//!    Dijkstra maps shared across *different* groups that mention the same
//!    entities. A novel group whose labels were each seen before
//!    reconstructs its `G*` from cached maps without touching the
//!    interleaved frontier search.
//!
//! Tier 2 is exact: the root chosen from complete-to-radius distance maps
//! is the unique compactness-order optimum (Definition 4 ties broken by
//! root id, as in [`find_lcag`]), and the shortest-path DAG is rebuilt
//! from the tightness condition `D(u) + w(u, v) = D(v)` — the same edge
//! set the frontier search retains. Configurations whose outcome depends
//! on traversal *order* rather than distances (the `single_path`
//! ablation, binding `max_settled` budgets) fall back to the uncached
//! search so results stay bit-identical in every configuration.

use std::sync::Arc;

use newslink_kg::{DistanceCache, DistanceMap, KnowledgeGraph, LabelIndex, NodeId, ShardedCache};
use newslink_util::{CacheStats, FxHashSet};

use crate::algo::{find_lcag, EmbedError, SearchConfig};
use crate::model::{compactness_cmp, CommonAncestorGraph, EmbedEdge};
use crate::tree::find_tree_embedding;

/// Which embedding algorithm a cached group belongs to (the cache key
/// must separate them — same labels, different subgraphs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CachedModel {
    /// The paper's `G*` (all shortest paths).
    Lcag,
    /// The TreeEmb baseline (one path per label).
    Tree,
}

/// Group-memo key: the exact label sequence plus the model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GroupKey {
    model: CachedModel,
    labels: Box<[String]>,
}

type GroupResult = Arc<Result<CommonAncestorGraph, EmbedError>>;

/// The two-tier traversal/embedding cache. Safe to share across threads
/// (`&self` everywhere); create one per `(graph, SearchConfig)` pair —
/// entries encode distances of a specific graph under a specific search
/// configuration and must not be reused across either.
#[derive(Debug)]
pub struct EmbeddingCache {
    groups: ShardedCache<GroupKey, GroupResult>,
    distances: DistanceCache,
}

/// Starting radius for the progressive-deepening distance maps; most news
/// entity groups meet within a few hops (the paper's examples embed at
/// depth ≤ 2), and a deeper cached map is reused by shallower requests.
const INITIAL_RADIUS: u32 = 4;

impl EmbeddingCache {
    /// A cache bounded to `group_capacity` memoized groups and
    /// `distance_capacity` distance maps. Zero capacities disable the
    /// respective tier.
    pub fn new(group_capacity: usize, distance_capacity: usize) -> Self {
        Self {
            groups: ShardedCache::new(group_capacity),
            distances: DistanceCache::new(distance_capacity),
        }
    }

    /// Embed one entity group under `model`, consulting both cache tiers.
    ///
    /// Identical to the uncached [`find_lcag`] / [`find_tree_embedding`]
    /// in every configuration (see the module docs for why).
    pub fn embed_group(
        &self,
        graph: &KnowledgeGraph,
        index: &LabelIndex,
        labels: &[String],
        config: &SearchConfig,
        model: CachedModel,
    ) -> Result<CommonAncestorGraph, EmbedError> {
        let key = GroupKey {
            model,
            labels: labels.to_vec().into_boxed_slice(),
        };
        if let Some(cached) = self.groups.get(&key) {
            return (*cached).clone();
        }
        let result = match model {
            CachedModel::Tree => find_tree_embedding(graph, index, labels, config),
            CachedModel::Lcag => {
                match lcag_via_distances(graph, index, labels, config, &self.distances) {
                    Some(r) => r,
                    None => find_lcag(graph, index, labels, config),
                }
            }
        };
        self.groups.insert(key, Arc::new(result.clone()));
        result
    }

    /// Group-memo counters.
    pub fn group_stats(&self) -> CacheStats {
        self.groups.stats()
    }

    /// Distance-map counters.
    pub fn distance_stats(&self) -> CacheStats {
        self.distances.stats()
    }

    /// The underlying distance cache (for direct traversal reuse).
    pub fn distances(&self) -> &DistanceCache {
        &self.distances
    }

    /// Invalidate both tiers (needed only when the graph is replaced).
    pub fn clear(&self) {
        self.groups.clear();
        self.distances.clear();
    }
}

/// [`find_lcag`] with a shared [`EmbeddingCache`] in front.
pub fn find_lcag_cached(
    graph: &KnowledgeGraph,
    index: &LabelIndex,
    labels: &[String],
    config: &SearchConfig,
    cache: &EmbeddingCache,
) -> Result<CommonAncestorGraph, EmbedError> {
    cache.embed_group(graph, index, labels, config, CachedModel::Lcag)
}

/// [`find_tree_embedding`] with a shared [`EmbeddingCache`] in front.
pub fn find_tree_embedding_cached(
    graph: &KnowledgeGraph,
    index: &LabelIndex,
    labels: &[String],
    config: &SearchConfig,
    cache: &EmbeddingCache,
) -> Result<CommonAncestorGraph, EmbedError> {
    cache.embed_group(graph, index, labels, config, CachedModel::Tree)
}

/// Rebuild the `G*` from cached truncated distance maps, or `None` when
/// exactness cannot be guaranteed (fall back to the frontier search).
fn lcag_via_distances(
    graph: &KnowledgeGraph,
    index: &LabelIndex,
    labels: &[String],
    config: &SearchConfig,
    dcache: &DistanceCache,
) -> Option<Result<CommonAncestorGraph, EmbedError>> {
    // Order-dependent configurations are not reproducible from distance
    // maps alone; let the frontier search own them.
    if config.single_path {
        return None;
    }
    if labels.is_empty() {
        return Some(Err(EmbedError::EmptyLabelSet));
    }
    let mut sources_per_label = Vec::with_capacity(labels.len());
    for l in labels {
        let mut sources = index.candidates(graph, l);
        if sources.is_empty() {
            return Some(Err(EmbedError::NoSources(l.clone())));
        }
        sources.truncate(config.max_sources_per_label);
        sources_per_label.push(sources);
    }

    let mut radius = INITIAL_RADIUS;
    loop {
        let maps: Vec<Arc<DistanceMap>> = sources_per_label
            .iter()
            .map(|s| dcache.distances(graph, s, radius, config.max_settled))
            .collect();
        if maps.iter().any(|m| m.capped()) {
            // The per-label node budget bound the traversal; the frontier
            // search's own budget semantics must decide this group.
            return None;
        }
        // The maps are jointly complete up to the smallest radius.
        let complete_to = maps
            .iter()
            .map(|m| if m.exhausted() { u32::MAX } else { m.radius() })
            .min()
            .expect("at least one label");

        // Candidate roots: nodes settled by every label, within the
        // jointly complete radius so no unseen node can be more compact.
        let smallest = maps
            .iter()
            .min_by_key(|m| m.len())
            .expect("at least one map");
        let mut best: Option<(Vec<u32>, NodeId, Vec<u32>)> = None;
        'nodes: for (v, _) in smallest.iter() {
            let mut distances = Vec::with_capacity(maps.len());
            for m in &maps {
                match m.get(v) {
                    Some(d) => distances.push(d),
                    None => continue 'nodes,
                }
            }
            let mut key = distances.clone();
            key.sort_unstable_by(|a, b| b.cmp(a));
            if key[0] > complete_to {
                continue; // not provably optimal at this depth
            }
            let better = match &best {
                Some((bk, br, _)) => {
                    compactness_cmp(&key, bk).then(v.cmp(br)) == std::cmp::Ordering::Less
                }
                None => true,
            };
            if better {
                best = Some((key, v, distances));
            }
        }

        if let Some((key, root, distances)) = best {
            // Mirror the frontier search's settlement budget: it settles
            // every (label, node) pair within the optimum depth before
            // terminating; if that would have tripped `max_settled`, its
            // outcome is budget-dependent and the fallback must decide.
            let depth = key[0];
            let settled: usize = maps.iter().map(|m| m.settled_within(depth)).sum();
            if settled >= config.max_settled {
                return None;
            }
            return Some(Ok(materialize_from_maps(
                graph, labels, &maps, root, distances,
            )));
        }
        if maps.iter().all(|m| m.exhausted()) {
            // Full components explored, no common node anywhere.
            let settled: usize = maps.iter().map(|m| m.len()).sum();
            if settled >= config.max_settled {
                return None; // the frontier search would have given up earlier
            }
            return Some(Err(EmbedError::NoCommonAncestor));
        }
        radius = radius.saturating_mul(4);
    }
}

/// Expand `root` into `∪_i P(l_i → r, D)` using distance maps: an edge
/// `u → v` is on a retained shortest path iff `D(u) + w = D(v)` — exactly
/// the tight-predecessor set the frontier search accumulates.
fn materialize_from_maps(
    graph: &KnowledgeGraph,
    labels: &[String],
    maps: &[Arc<DistanceMap>],
    root: NodeId,
    distances: Vec<u32>,
) -> CommonAncestorGraph {
    let mut nodes: FxHashSet<NodeId> = FxHashSet::default();
    let mut edges: FxHashSet<EmbedEdge> = FxHashSet::default();
    let mut sources: Vec<Vec<NodeId>> = Vec::with_capacity(maps.len());
    nodes.insert(root);

    for m in maps {
        let mut reached_sources = Vec::new();
        let mut visited: FxHashSet<NodeId> = FxHashSet::default();
        let mut stack = vec![root];
        visited.insert(root);
        while let Some(v) = stack.pop() {
            nodes.insert(v);
            let dv = m.get(v).expect("walk stays inside the settled map");
            if dv == 0 {
                reached_sources.push(v);
            }
            for e in graph.neighbors(v) {
                let Some(du) = m.get(e.to) else { continue };
                if du + e.weight != dv || du >= dv {
                    continue; // not a strictly-descending tight predecessor
                }
                // `e` is v's adjacency entry toward u; the stored twin at
                // u pointing back to v carries the flipped inverse flag,
                // which is what the frontier search records.
                edges.insert(EmbedEdge {
                    from: e.to,
                    to: v,
                    predicate: e.predicate,
                    inverse: !e.inverse,
                });
                if visited.insert(e.to) {
                    stack.push(e.to);
                }
            }
        }
        reached_sources.sort_unstable();
        reached_sources.dedup();
        sources.push(reached_sources);
    }

    let mut nodes: Vec<NodeId> = nodes.into_iter().collect();
    nodes.sort_unstable();
    let mut edges: Vec<EmbedEdge> = edges.into_iter().collect();
    edges.sort_unstable_by_key(|e| (e.from, e.to, e.predicate, e.inverse));

    CommonAncestorGraph {
        root,
        labels: labels.to_vec(),
        distances,
        nodes,
        edges,
        sources,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newslink_kg::{EntityType, GraphBuilder};

    /// The paper's Figure 1 topology (same as `algo::tests::figure1`).
    fn figure1() -> (KnowledgeGraph, LabelIndex) {
        let mut b = GraphBuilder::new();
        let v0 = b.add_node("Khyber", EntityType::Gpe);
        let v1 = b.add_node("Waziristan", EntityType::Gpe);
        let v2 = b.add_node("Taliban", EntityType::Organization);
        let v3 = b.add_node("Kunar", EntityType::Gpe);
        let v6 = b.add_node("Pakistan", EntityType::Gpe);
        let v7 = b.add_node("Upper Dir", EntityType::Gpe);
        let v8 = b.add_node("Swat Valley", EntityType::Location);
        b.add_edge(v2, v1, "operates in", 1);
        b.add_edge(v2, v3, "operates in", 1);
        b.add_edge(v1, v0, "located in", 1);
        b.add_edge(v3, v0, "shares border with", 1);
        b.add_edge(v7, v0, "located in", 1);
        b.add_edge(v8, v0, "located in", 1);
        b.add_edge(v6, v0, "contains", 1);
        let g = b.freeze();
        let idx = LabelIndex::build(&g);
        (g, idx)
    }

    fn labels(ls: &[&str]) -> Vec<String> {
        ls.iter().map(|s| s.to_string()).collect()
    }

    fn assert_same_cag(a: &CommonAncestorGraph, b: &CommonAncestorGraph) {
        assert_eq!(a.root, b.root);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.distances, b.distances);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.sources, b.sources);
    }

    #[test]
    fn cached_lcag_matches_uncached_exactly() {
        let (g, idx) = figure1();
        let cfg = SearchConfig::default();
        let cache = EmbeddingCache::new(64, 64);
        for ls in [
            labels(&["upper dir", "swat valley", "pakistan", "taliban"]),
            labels(&["taliban", "pakistan"]),
            labels(&["pakistan"]),
            labels(&["kunar", "waziristan"]),
        ] {
            let want = find_lcag(&g, &idx, &ls, &cfg).unwrap();
            let cold = find_lcag_cached(&g, &idx, &ls, &cfg, &cache).unwrap();
            let warm = find_lcag_cached(&g, &idx, &ls, &cfg, &cache).unwrap();
            assert_same_cag(&want, &cold);
            assert_same_cag(&want, &warm);
        }
        let gs = cache.group_stats();
        assert_eq!(gs.hits, 4, "second pass must hit the group memo");
        assert!(cache.distance_stats().lookups() > 0);
    }

    #[test]
    fn cached_errors_match_and_are_memoized() {
        let (g, idx) = figure1();
        let cfg = SearchConfig::default();
        let cache = EmbeddingCache::new(16, 16);
        assert_eq!(
            find_lcag_cached(&g, &idx, &labels(&["atlantis"]), &cfg, &cache).unwrap_err(),
            EmbedError::NoSources("atlantis".to_string())
        );
        assert_eq!(
            find_lcag_cached(&g, &idx, &[], &cfg, &cache).unwrap_err(),
            EmbedError::EmptyLabelSet
        );
        // Two islands: no common ancestor, cached as such.
        let mut b = GraphBuilder::new();
        b.add_node("IslandA", EntityType::Gpe);
        b.add_node("IslandB", EntityType::Gpe);
        let g2 = b.freeze();
        let idx2 = LabelIndex::build(&g2);
        let cache2 = EmbeddingCache::new(16, 16);
        for _ in 0..2 {
            assert_eq!(
                find_lcag_cached(&g2, &idx2, &labels(&["islanda", "islandb"]), &cfg, &cache2)
                    .unwrap_err(),
                EmbedError::NoCommonAncestor
            );
        }
        assert_eq!(cache2.group_stats().hits, 1);
    }

    #[test]
    fn distance_maps_shared_across_groups() {
        let (g, idx) = figure1();
        let cfg = SearchConfig::default();
        let cache = EmbeddingCache::new(64, 64);
        // Two distinct groups both mentioning taliban: the second group's
        // taliban map is a distance-cache hit even though the group memo
        // misses.
        find_lcag_cached(&g, &idx, &labels(&["taliban", "pakistan"]), &cfg, &cache).unwrap();
        let before = cache.distance_stats();
        find_lcag_cached(&g, &idx, &labels(&["taliban", "upper dir"]), &cfg, &cache).unwrap();
        let after = cache.distance_stats();
        assert!(after.hits > before.hits, "shared entity map must hit");
    }

    #[test]
    fn timing_dependent_configs_fall_back() {
        let (g, idx) = figure1();
        let cache = EmbeddingCache::new(16, 16);
        let single = SearchConfig {
            single_path: true,
            ..SearchConfig::default()
        };
        let l = labels(&["upper dir", "swat valley", "pakistan", "taliban"]);
        let want = find_lcag(&g, &idx, &l, &single).unwrap();
        let got = find_lcag_cached(&g, &idx, &l, &single, &cache).unwrap();
        assert_same_cag(&want, &got);
        assert_eq!(
            cache.distances().stats().lookups(),
            0,
            "single-path must bypass distance maps"
        );
    }

    #[test]
    fn tree_embeddings_are_memoized() {
        let (g, idx) = figure1();
        let cfg = SearchConfig::default();
        let cache = EmbeddingCache::new(16, 16);
        let l = labels(&["taliban", "pakistan"]);
        let want = find_tree_embedding(&g, &idx, &l, &cfg).unwrap();
        let cold = find_tree_embedding_cached(&g, &idx, &l, &cfg, &cache).unwrap();
        let warm = find_tree_embedding_cached(&g, &idx, &l, &cfg, &cache).unwrap();
        assert_same_cag(&want, &cold);
        assert_same_cag(&want, &warm);
        assert_eq!(cache.group_stats().hits, 1);
        // Lcag and Tree results for the same labels are cached separately.
        let lcag = find_lcag_cached(&g, &idx, &l, &cfg, &cache).unwrap();
        assert!(lcag.node_count() >= want.node_count());
    }

    #[test]
    fn weighted_graphs_reconstruct_identically() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A", EntityType::Gpe);
        let c = b.add_node("C", EntityType::Gpe);
        let mid = b.add_node("M", EntityType::Gpe);
        b.add_edge(a, c, "direct", 5);
        b.add_edge(a, mid, "p", 1);
        b.add_edge(mid, c, "p", 1);
        let g = b.freeze();
        let idx = LabelIndex::build(&g);
        let cfg = SearchConfig::default();
        let cache = EmbeddingCache::new(16, 16);
        let l = labels(&["a", "c"]);
        let want = find_lcag(&g, &idx, &l, &cfg).unwrap();
        let got = find_lcag_cached(&g, &idx, &l, &cfg, &cache).unwrap();
        assert_same_cag(&want, &got);
    }

    #[test]
    fn clear_invalidates_both_tiers() {
        let (g, idx) = figure1();
        let cfg = SearchConfig::default();
        let cache = EmbeddingCache::new(16, 16);
        let l = labels(&["taliban", "pakistan"]);
        find_lcag_cached(&g, &idx, &l, &cfg, &cache).unwrap();
        cache.clear();
        find_lcag_cached(&g, &idx, &l, &cfg, &cache).unwrap();
        assert_eq!(cache.group_stats().hits, 0);
        assert_eq!(cache.group_stats().misses, 2);
    }
}
