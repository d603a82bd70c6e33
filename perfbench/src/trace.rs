//! The traced replay: one request at a time through the public calls
//! each layer exposes, with a span around every call.
//!
//! For every search the replay
//!
//! 1. times the whole standalone handler, `router::dispatch`, in-process
//!    and cold (`serve.dispatch_us`);
//! 2. replays the same request layer by layer — parse, the query memo,
//!    NLP (`NlpPipeline::analyze_document`), NE (`EmbeddingCache::embed_group`
//!    per entity group), NS (`side_overlay_stats`, the `side_top1_overlay`
//!    normalization passes, `blended_topk_overlay`), explanations
//!    (`NewsLink::explain`) and serialization — and checks that the
//!    replayed ranking equals `NewsLink::execute` and the dispatched body
//!    bit for bit;
//! 3. sends the request to the idle server and dispatches it again
//!    in-process, both warm, so their difference is the wire cost
//!    (`serve.wire_us`); through the router as well when one is given
//!    (`cluster.hop_us`).
//!
//! The replay keeps caches of its own, shaped like the engine's (same
//! capacities, warmed by the same corpus and the same earlier queries),
//! so its layers do the work the engine's did.

use std::sync::Arc;
use std::time::{Duration, Instant};

use newslink_core::{
    index_corpus_with, DurableStore, EmbeddingModel, Explanation, NewsLink, NewsLinkIndex,
    ParallelStats, PruneStats, QueryCacheInfo, SearchRequest, SearchResponse, SearchResult, Side,
    SideOverlay,
};
use newslink_embed::{bon_terms, CachedModel, DocEmbedding, EmbeddingCache};
use newslink_kg::ShardedCache;
use newslink_nlp::NlpPipeline;
use newslink_serve::router::{dispatch, RequestContext};
use newslink_serve::{parse_search_request, HttpRequest, ServeConfig, ServerMetrics};
use newslink_util::{CacheStats, ComponentTimer};
use parking_lot::RwLock;
use serde::Serialize;

use crate::loadgen::{parse_ranking, Conn};

type Analysis = Arc<(Vec<String>, DocEmbedding)>;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ranking(results: &[SearchResult]) -> Vec<(u32, u64)> {
    results
        .iter()
        .map(|r| (r.doc.0, r.score.to_bits()))
        .collect()
}

/// Sums over the replayed requests (times in µs).
#[derive(Debug, Default)]
pub struct Sums {
    pub searches: u64,
    pub parse: f64,
    pub memo: f64,
    pub nlp: f64,
    pub ne: f64,
    pub ns_stats: f64,
    pub ns_top1: f64,
    pub ns_scan: f64,
    pub explain: f64,
    pub serialize: f64,
    pub dispatch: f64,
    pub replay: f64,
    /// Per request: idle HTTP latency minus warm in-process dispatch.
    pub wire: Vec<f64>,
    /// Per request: idle routed latency minus idle standalone latency.
    pub hop: Vec<f64>,
    pub nlp_runs: u64,
    pub mentions: u64,
    pub groups: u64,
    pub results: u64,
    pub paths: u64,
    pub response_bytes: u64,
    pub prune: PruneStats,
    pub inserts: u64,
    pub insert: f64,
    pub wal: f64,
    pub hold: f64,
    pub segments: u64,
    pub compactions: u64,
    pub mismatches: Vec<String>,
}

/// Replays requests against one engine and index.
pub struct Tracer<'e, 'g> {
    engine: &'e NewsLink<'g>,
    embed: EmbeddingCache,
    memo: ShardedCache<String, Analysis>,
    metrics: ServerMetrics,
    serve: ServeConfig,
    start_stats: [CacheStats; 3],
    /// What the replay measured so far.
    pub sums: Sums,
}

impl<'e, 'g> Tracer<'e, 'g> {
    /// A tracer for `engine` whose caches are warmed by embedding `docs`,
    /// as the engine's were when it indexed them.
    pub fn new(engine: &'e NewsLink<'g>, docs: &[String]) -> Self {
        let config = engine.config();
        assert_eq!(
            config.model,
            EmbeddingModel::Lcag,
            "the replay embeds with LCAG"
        );
        let embed =
            EmbeddingCache::new(config.cache.group_capacity, config.cache.distance_capacity);
        index_corpus_with(
            engine.graph(),
            engine.label_index(),
            config,
            Some(&embed),
            docs,
        );
        Self {
            engine,
            embed,
            memo: ShardedCache::new(config.cache.query_capacity),
            metrics: ServerMetrics::new(),
            serve: crate::fixture::serve_config(),
            start_stats: [CacheStats::default(); 3],
            sums: Sums::default(),
        }
    }

    /// The engine the replay runs against.
    pub fn engine(&self) -> &'e NewsLink<'g> {
        self.engine
    }

    /// Feed the queries sent before the replay starts through the
    /// replay's caches, untimed, then zero the cache counters. With
    /// `engine_too` the engine analyzes them as well: it did not serve
    /// them itself (they went through a router).
    pub fn warm_queries<'q>(&mut self, queries: impl Iterator<Item = &'q str>, engine_too: bool) {
        let mut untimed = Sums::default();
        for q in queries {
            self.analyze(q, &mut untimed);
            if engine_too {
                self.engine.analyze_query(q);
            }
        }
        self.start_stats = self.cache_stats();
    }

    fn cache_stats(&self) -> [CacheStats; 3] {
        [
            self.embed.group_stats(),
            self.embed.distance_stats(),
            self.memo.stats(),
        ]
    }

    /// Hit ratios of the group memo, the distance cache and the query
    /// memo over the replay.
    pub fn hit_ratios(&self) -> [f64; 3] {
        let now = self.cache_stats();
        let mut out = [0.0; 3];
        for i in 0..3 {
            out[i] = now[i].since(&self.start_stats[i]).hit_rate();
        }
        out
    }

    /// The query memo, then NLP and NE on a miss.
    fn analyze(&self, query: &str, sums: &mut Sums) -> (Analysis, bool) {
        let t = Instant::now();
        if let Some(hit) = self.memo.get(query) {
            // The engine clones the memoized artifacts out of the memo.
            let copy = Arc::new((hit.0.clone(), hit.1.clone()));
            sums.memo += us(t.elapsed());
            return (copy, true);
        }
        sums.memo += us(t.elapsed());
        let (graph, labels, config) = (
            self.engine.graph(),
            self.engine.label_index(),
            self.engine.config(),
        );
        let t = Instant::now();
        let analysis = NlpPipeline::new(graph, labels).analyze_document(query);
        sums.nlp += us(t.elapsed());
        sums.nlp_runs += 1;
        sums.mentions += analysis.stats.identified as u64;
        let mut groups = Vec::new();
        for set in &analysis.entity_groups {
            let group: Vec<String> = set.iter().cloned().collect();
            let t = Instant::now();
            let embedded =
                self.embed
                    .embed_group(graph, labels, &group, &config.search, CachedModel::Lcag);
            sums.ne += us(t.elapsed());
            sums.groups += 1;
            if let Ok(g) = embedded {
                groups.push(g);
            }
        }
        let t = Instant::now();
        let art: Analysis = Arc::new((analysis.terms, DocEmbedding::new(groups)));
        self.memo.insert(query.to_string(), Arc::clone(&art));
        sums.memo += us(t.elapsed());
        (art, false)
    }

    fn dispatch_us(&self, index: &RwLock<NewsLinkIndex>, body: &str) -> (f64, u16, String) {
        let request = HttpRequest {
            method: "POST".into(),
            path: "/v1/search".into(),
            body: body.to_string(),
            keep_alive: false,
        };
        let ctx = RequestContext {
            engine: self.engine,
            index,
            config: &self.serve,
            metrics: &self.metrics,
            accepted: Instant::now(),
            in_flight: 1,
            durable: None,
        };
        let t = Instant::now();
        let routed = dispatch(&request, &ctx);
        (us(t.elapsed()), routed.status, routed.body)
    }

    /// Replay one search. `server` is an idle standalone server over the
    /// same engine and index; `router`, when given, an idle router over
    /// shards holding the same corpus.
    pub fn search(
        &mut self,
        index: &RwLock<NewsLinkIndex>,
        body: &str,
        server: &mut Conn,
        router: Option<&mut Conn>,
    ) {
        let mut sums = std::mem::take(&mut self.sums);
        self.search_into(index, body, server, router, &mut sums);
        self.sums = sums;
    }

    /// The request layer by layer, each call timed; returns the parsed
    /// request and the replayed ranking.
    fn replay(
        &self,
        index: &RwLock<NewsLinkIndex>,
        body: &str,
        sums: &mut Sums,
    ) -> Result<(SearchRequest, Vec<(u32, u64)>), String> {
        let replay_start = Instant::now();
        let t = Instant::now();
        let request = parse_search_request(body)?;
        sums.parse += us(t.elapsed());
        let (art, query_hit) = self.analyze(&request.query, sums);
        let config = self.engine.config();
        let guard = index.read();
        let beta = request.beta.unwrap_or(config.beta).clamp(0.0, 1.0);
        let threads = config.effective_search_threads(guard.segment_count());
        let bon = bon_terms(&art.1);
        let t = Instant::now();
        let (bow_stats, bow_df) = guard.side_overlay_stats(Side::Bow, &art.0);
        let (bon_stats, bon_df) = guard.side_overlay_stats(Side::Bon, &bon);
        sums.ns_stats += us(t.elapsed());
        let mut bow = SideOverlay {
            terms: &art.0,
            stats: bow_stats,
            df: &bow_df,
            norm: 1.0,
        };
        let mut bon_ov = SideOverlay {
            terms: &bon,
            stats: bon_stats,
            df: &bon_df,
            norm: 1.0,
        };
        let mut prune = PruneStats::default();
        let mut parallel = ParallelStats::default();
        let t = Instant::now();
        if config.normalize_scores {
            if beta < 1.0 {
                let max =
                    guard.side_top1_overlay(Side::Bow, &bow, threads, &mut prune, &mut parallel);
                if max > 0.0 {
                    bow.norm = max;
                }
            }
            if beta > 0.0 {
                let max =
                    guard.side_top1_overlay(Side::Bon, &bon_ov, threads, &mut prune, &mut parallel);
                if max > 0.0 {
                    bon_ov.norm = max;
                }
            }
        }
        let top1 = t.elapsed();
        let t = Instant::now();
        let (ranked, scan_prune, scan_parallel) =
            guard.blended_topk_overlay(beta, &bow, &bon_ov, request.k, f64::NEG_INFINITY, threads);
        let scan = t.elapsed();
        sums.ns_top1 += us(top1);
        sums.ns_scan += us(scan);
        prune.add(&scan_prune);
        parallel.add(&scan_parallel);
        sums.prune.add(&prune);
        let results: Vec<SearchResult> = ranked
            .into_iter()
            .map(|(score, (doc, bow, bon))| SearchResult {
                doc,
                score,
                bow,
                bon,
            })
            .collect();
        let t = Instant::now();
        let explanations: Vec<Explanation> = match request.explain {
            Some(opts) => results
                .iter()
                .map(|r| Explanation {
                    doc: r.doc,
                    paths: self
                        .engine
                        .explain(&guard, &art.1, r.doc, opts.max_len, opts.max_paths),
                })
                .collect(),
            None => Vec::new(),
        };
        sums.explain += us(t.elapsed());
        if request.explain.is_some() {
            sums.results += explanations.len() as u64;
            sums.paths += explanations
                .iter()
                .map(|e| e.paths.len() as u64)
                .sum::<u64>();
        }
        let mut timer = ComponentTimer::new();
        timer.record("ns", top1 + scan);
        let replayed = ranking(&results);
        let response = SearchResponse {
            results,
            embedding: art.1.clone(),
            timer,
            cache: QueryCacheInfo {
                enabled: true,
                query_hit,
            },
            explanations,
            timed_out: false,
            prune,
            parallel,
        };
        // The handler drops the response once it is serialized; the drop
        // frees every explanation path, so it is timed with the
        // serialization.
        let t = Instant::now();
        let serialized = response.serialize_value().to_compact_string();
        drop(response);
        sums.serialize += us(t.elapsed());
        sums.response_bytes += serialized.len() as u64;
        sums.replay += us(replay_start.elapsed());
        Ok((request, replayed))
    }

    fn search_into(
        &self,
        index: &RwLock<NewsLinkIndex>,
        body: &str,
        server: &mut Conn,
        router: Option<&mut Conn>,
        sums: &mut Sums,
    ) {
        // Alternate which of the two goes first, so neither always runs
        // with the other's data in the CPU caches.
        let early = (sums.searches % 2 == 1).then(|| self.replay(index, body, sums));
        let (cold_us, status, dispatched) = self.dispatch_us(index, body);
        if status != 200 {
            sums.mismatches
                .push(format!("dispatch answered {status}: {dispatched}"));
            return;
        }
        sums.searches += 1;
        sums.dispatch += cold_us;
        let (request, replayed) = match early.unwrap_or_else(|| self.replay(index, body, sums)) {
            Ok(r) => r,
            Err(e) => {
                sums.mismatches
                    .push(format!("replay could not parse {body}: {e}"));
                return;
            }
        };
        let mut plain = request;
        plain.explain = None;
        let executed = ranking(&self.engine.execute(&index.read(), &plain).results);
        if executed != replayed || parse_ranking(&dispatched).as_ref() != Some(&replayed) {
            sums.mismatches.push(format!(
                "replayed ranking differs from execute/dispatch for {body}"
            ));
        }

        let t = Instant::now();
        let http = server.call("POST", "/v1/search", body);
        let http_us = us(t.elapsed());
        let (warm_us, _, _) = self.dispatch_us(index, body);
        match http {
            Ok((200, _)) => sums.wire.push(http_us - warm_us),
            other => sums
                .mismatches
                .push(format!("idle server answered {other:?}")),
        }
        if let Some(router) = router {
            let t = Instant::now();
            match router.call("POST", "/v1/search", body) {
                Ok((200, answer)) => {
                    sums.hop.push(us(t.elapsed()) - http_us);
                    if parse_ranking(&answer).as_ref() != Some(&replayed) {
                        sums.mismatches
                            .push(format!("router ranking differs for {body}"));
                    }
                }
                other => sums
                    .mismatches
                    .push(format!("idle router answered {other:?}")),
            }
        }
    }

    /// Replay one insert the way the durable handler runs it: embed and
    /// seal under the index write lock, then log and fsync before the
    /// lock is released.
    pub fn insert(&mut self, index: &RwLock<NewsLinkIndex>, store: &mut DurableStore, text: &str) {
        let mut guard = index.write();
        let held = Instant::now();
        let before = guard.compactions();
        let id = self.engine.insert_document(&mut guard, text);
        let insert = held.elapsed();
        let t = Instant::now();
        if let Err(e) = store.log_insert(id, text) {
            self.sums.mismatches.push(format!("wal append failed: {e}"));
        }
        self.sums.wal += us(t.elapsed());
        self.sums.hold += us(held.elapsed());
        self.sums.insert += us(insert);
        self.sums.inserts += 1;
        self.sums.segments += guard.segment_count() as u64;
        self.sums.compactions += guard.compactions() - before;
    }
}
