//! Router-mode request dispatch: scatter each search across the shard
//! groups, gather and merge.
//!
//! The merge reproduces the in-process multi-segment search bit for
//! bit. Three invariants carry the proof:
//!
//! 1. **Exact overlay** — collection statistics and per-term document
//!    frequencies are integer sums over shards, so the totals the
//!    shards score under equal the monolithic values; normalization
//!    divisors are maxima over shard maxima, and `max` over a set is
//!    feed-order independent.
//! 2. **Exact selection** — each shard returns its k best under the
//!    total order (score desc, global id asc); the union of shard
//!    lists therefore contains the global k best.
//! 3. **Canonical merge order** — the gathered union is sorted by
//!    ascending global id before being pushed through one
//!    `newslink_util::TopK`, which resolves score ties toward earlier
//!    pushes — i.e. lower ids, exactly like the in-process
//!    per-segment-then-merge structure.
//!
//! Failures degrade instead of failing: a group whose every replica is
//! unreachable is dropped from later phases and the response comes back
//! `503` with `"degraded": true` plus whatever the healthy groups
//! found.

use std::time::{Duration, Instant};

use newslink_core::{
    DocId, Explanation, IndexStats, NewsLink, ParallelStats, PruneStats, SearchRequest, SearchResponse,
    SearchResult,
};
use newslink_util::TopK;
use serde::{Deserialize, Number, Serialize, Value};

use super::proto::{
    f64_bits, f64_from_bits, OverlayWire, ShardSearchRequest, ShardSearchResponse, StatsRequest,
    StatsResponse, Top1Request, Top1Response,
};
use super::Cluster;
use crate::metrics::{Route, ServerMetrics};
use crate::protocol::HttpRequest;
use crate::router::{
    apply_deadline, dispatch_v1, error_body, is_api_path, not_found, parse_body,
    parse_insert_body, request_from_value, routed, Routed,
};
use crate::server::ServeConfig;

/// Everything a router worker needs to answer one request.
pub struct ClusterContext<'a, 'g> {
    /// Cluster topology and health state.
    pub cluster: &'a Cluster,
    /// The router's engine — it analyzes queries (NLP + NE) and owns
    /// the caches; it holds no corpus index.
    pub engine: &'a NewsLink<'g>,
    /// Server configuration (default deadline budget).
    pub config: &'a ServeConfig,
    /// Server counters, for the `/metrics` document.
    pub metrics: &'a ServerMetrics,
    /// Deadline anchor (accept or keep-alive arrival).
    pub accepted: Instant,
    /// Current admission gauge.
    pub in_flight: usize,
}

/// Dispatch one parsed request in router mode. Same `/v1` versioning
/// as the standalone [`dispatch`](crate::router::dispatch).
pub fn dispatch_cluster(req: &HttpRequest, ctx: &ClusterContext<'_, '_>) -> Routed {
    dispatch_v1(req, |path| dispatch_path(req, path, ctx))
}

fn dispatch_path(req: &HttpRequest, path: &str, ctx: &ClusterContext<'_, '_>) -> Routed {
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => handle_healthz(ctx),
        ("GET", "/metrics") => {
            let snap = ctx.metrics.snapshot(
                ctx.in_flight,
                &ctx.engine.cache_stats(),
                IndexStats::default(),
                crate::metrics::KgStats::of(ctx.engine.graph(), ctx.engine.label_index()),
                None,
                Some(ctx.cluster.metrics_value()),
            );
            routed(Route::Metrics, 200, snap.to_compact_string())
        }
        ("POST", "/search") => handle_search(req, ctx),
        ("POST", "/search/batch") => handle_batch(req, ctx),
        ("POST", "/docs") => handle_insert(req, ctx),
        ("POST", "/admin/snapshot") => routed(
            Route::Admin,
            400,
            error_body(400, "snapshots are per-shard; POST /v1/admin/snapshot to a shard directly"),
        ),
        ("DELETE", path) if path.strip_prefix("/docs/").is_some() => handle_delete(path, ctx),
        (_, path) if is_api_path(path) => routed(
            Route::Other,
            405,
            error_body(405, &format!("method {} not allowed here", req.method)),
        ),
        (_, _) => not_found(&req.path),
    }
}

/// Router `/healthz`: up as long as the router itself runs, `degraded`
/// when any shard group has no healthy replica. Always `200` with
/// `"status": "ok"` unless degraded — same contract as the standalone
/// server, with the topology view replacing the index gauges.
fn handle_healthz(ctx: &ClusterContext<'_, '_>) -> Routed {
    let num = |n: u64| Value::Number(Number::from_i128(n as i128));
    let down = ctx.cluster.groups_down();
    let degraded = !down.is_empty();
    let status = if degraded { "degraded" } else { "ok" };
    let body = Value::Object(vec![
        ("status".into(), Value::String(status.into())),
        ("degraded".into(), Value::Bool(degraded)),
        ("backend".into(), Value::String("router".into())),
        ("groups".into(), num(ctx.cluster.groups().len() as u64)),
        ("groups_down".into(), num(down.len() as u64)),
        (
            "version".into(),
            Value::String(env!("CARGO_PKG_VERSION").into()),
        ),
    ]);
    routed(Route::Healthz, 200, body.to_compact_string())
}

fn handle_search(req: &HttpRequest, ctx: &ClusterContext<'_, '_>) -> Routed {
    let request = match parse_body(&req.body).and_then(|v| request_from_value(&v)) {
        Ok(r) => apply_deadline(r, ctx.config.default_timeout_ms, ctx.accepted),
        Err(e) => return e.into_routed(Route::Search),
    };
    let (value, status) = cluster_execute(&request, ctx);
    routed(Route::Search, status, value.to_compact_string())
}

/// `POST /search/batch` in router mode: requests run sequentially, each
/// through the full scatter-gather; the batch answers `200` as long as
/// it parsed (per-response `degraded` / `timed_out` flags tell the
/// rest), matching the standalone batch contract.
fn handle_batch(req: &HttpRequest, ctx: &ClusterContext<'_, '_>) -> Routed {
    let v = match parse_body(&req.body) {
        Ok(v) => v,
        Err(e) => return e.into_routed(Route::Batch),
    };
    let Some(items) = v.as_object().and_then(|obj| {
        (obj.len() == 1).then_some(())?;
        v.get("requests").and_then(|r| r.as_array())
    }) else {
        return routed(
            Route::Batch,
            400,
            error_body(400, "batch body must be {\"requests\": [...]}"),
        );
    };
    let start = Instant::now();
    let mut responses = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let request = match request_from_value(item) {
            Ok(r) => apply_deadline(r, ctx.config.default_timeout_ms, ctx.accepted),
            Err(e) => {
                return routed(
                    Route::Batch,
                    400,
                    error_body(400, &format!("requests[{i}]: {}", match e {
                        crate::router::RequestError::BadRequest(m)
                        | crate::router::RequestError::Internal(m) => m,
                    })),
                )
            }
        };
        let (value, _status) = cluster_execute(&request, ctx);
        responses.push(value);
    }
    let mut timer = newslink_util::ComponentTimer::new();
    timer.record("batch", start.elapsed());
    let body = Value::Object(vec![
        ("responses".into(), Value::Array(responses)),
        ("timer".into(), timer.serialize_value()),
    ]);
    routed(Route::Batch, 200, body.to_compact_string())
}

/// `POST /docs` in router mode: hash the text to its owning group and
/// relay to that group's *primary* — the only replica with the group's
/// WAL. A dead primary is a `503` (writes do not fail over; see
/// [`Cluster::call_primary`]).
fn handle_insert(req: &HttpRequest, ctx: &ClusterContext<'_, '_>) -> Routed {
    let text = match parse_insert_body(&req.body) {
        Ok(t) => t,
        Err(e) => return e.into_routed(Route::Docs),
    };
    let group = ctx.cluster.route_insert(&text);
    relay_write(ctx, group, "POST", "/v1/docs", &req.body)
}

/// `DELETE /docs/<id>` in router mode: the id names its owning group
/// (`id % groups`); relay to that group's primary. A `404` from the
/// shard passes through — it is an answer, not a failure.
fn handle_delete(path: &str, ctx: &ClusterContext<'_, '_>) -> Routed {
    let raw = path.strip_prefix("/docs/").unwrap_or_default();
    let Ok(id) = raw.parse::<u32>() else {
        return routed(Route::Docs, 400, error_body(400, &format!("bad document id {raw:?}")));
    };
    let group = ctx.cluster.route_doc(id);
    relay_write(ctx, group, "DELETE", &format!("/v1/docs/{id}"), "")
}

fn relay_write(
    ctx: &ClusterContext<'_, '_>,
    group: usize,
    method: &str,
    path: &str,
    body: &str,
) -> Routed {
    let deadline = write_deadline(ctx);
    match ctx.cluster.call_primary(group, method, path, body, deadline) {
        Ok((status, body)) => routed(Route::Docs, status, annotate_group(body, group)),
        Err(_) => routed(
            Route::Docs,
            503,
            error_body(
                503,
                &format!("shard group {group} primary unreachable; write not applied"),
            ),
        ),
    }
}

/// Tag a relayed JSON-object response with the group that served it.
fn annotate_group(body: String, group: usize) -> String {
    match serde_json::from_str::<Value>(&body) {
        Ok(Value::Object(mut pairs)) => {
            pairs.push((
                "shard_group".into(),
                Value::Number(Number::from_i128(group as i128)),
            ));
            Value::Object(pairs).to_compact_string()
        }
        _ => body,
    }
}

/// The deadline a relayed write propagates: the request's remaining
/// accept-anchored budget when the server has one.
fn write_deadline(ctx: &ClusterContext<'_, '_>) -> Option<Instant> {
    ctx.config
        .default_timeout_ms
        .map(|ms| ctx.accepted + Duration::from_millis(ms))
}

/// What the gather produced, before it becomes a response body.
struct GatherOutcome {
    results: Vec<SearchResult>,
    explanations: Vec<Explanation>,
    prune: PruneStats,
    timed_out: bool,
    groups_down: usize,
}

/// Scatter the same body to every still-alive group concurrently (one
/// thread per group — the calls are blocking I/O), parse each `200`
/// answer, and mark groups that failed any step as dead.
fn scatter<T: Deserialize>(
    cluster: &Cluster,
    alive: &mut [bool],
    path: &str,
    body: &str,
    deadline: Option<Instant>,
) -> Vec<Option<T>> {
    let n = cluster.groups().len();
    let mut raw: Vec<Option<String>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<(usize, _)> = (0..n)
            .filter(|&i| alive[i])
            .map(|i| {
                let handle =
                    scope.spawn(move || cluster.call_group(i, "POST", path, body, deadline).ok());
                (i, handle)
            })
            .collect();
        for (i, handle) in handles {
            raw[i] = handle.join().ok().flatten().map(|(_, body)| body);
        }
    });
    raw.into_iter()
        .enumerate()
        .map(|(i, body)| {
            let parsed = body.and_then(|b| serde_json::from_str::<T>(&b).ok());
            if parsed.is_none() {
                alive[i] = false;
            }
            parsed
        })
        .collect()
}

/// Execute one search request across the cluster: analyze locally,
/// scatter the three protocol phases, merge. Returns the response body
/// and its status (`503` when degraded or timed out, else `200`).
fn cluster_execute(request: &SearchRequest, ctx: &ClusterContext<'_, '_>) -> (Value, u16) {
    let config = ctx.engine.config();
    let deadline = request
        .timeout_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let gather_start = Instant::now();
    let analysis = ctx.engine.analyze_query(&request.query);
    let beta = request.beta.unwrap_or(config.beta).clamp(0.0, 1.0);
    let beta_bits = f64_bits(beta);
    let n = ctx.cluster.groups().len();
    let mut alive = vec![true; n];
    let mut prune = PruneStats::default();

    // Deadline gate between analysis and the scatter, mirroring the
    // in-process gate between NLP/NE and NS.
    if deadline.is_some_and(|d| Instant::now() >= d) {
        let outcome = GatherOutcome {
            results: Vec::new(),
            explanations: Vec::new(),
            prune,
            timed_out: true,
            groups_down: 0,
        };
        return respond(ctx, analysis, outcome, gather_start);
    }

    // Phase 1: shard-local statistics, summed into the global overlay.
    let stats_request = StatsRequest {
        bow_terms: analysis.terms.clone(),
        bon_terms: analysis.bon_terms.clone(),
    };
    // `to_string` is infallible for these plain internal-protocol
    // structs (string keys, no fallible Serialize impls); the
    // `unwrap_or_default` here and below keeps the socket path free of
    // panics without introducing an error branch that cannot fire — an
    // empty body would 400 at the shard and count as a failed call.
    let body = serde_json::to_string(&stats_request).unwrap_or_default();
    let stats: Vec<Option<StatsResponse>> =
        scatter(ctx.cluster, &mut alive, "/v1/internal/stats", &body, deadline);

    let mut bow = OverlayWire {
        terms: analysis.terms.clone(),
        docs: 0,
        total_len: 0,
        df: vec![0; analysis.terms.len()],
        norm_bits: f64_bits(1.0),
    };
    let mut bon = OverlayWire {
        terms: analysis.bon_terms.clone(),
        docs: 0,
        total_len: 0,
        df: vec![0; analysis.bon_terms.len()],
        norm_bits: f64_bits(1.0),
    };
    for s in stats.into_iter().flatten() {
        for (side, wire) in [(&mut bow, s.bow), (&mut bon, s.bon)] {
            side.docs += wire.docs;
            side.total_len += wire.total_len;
            if wire.df.len() == side.df.len() {
                for (slot, df) in side.df.iter_mut().zip(&wire.df) {
                    *slot += df;
                }
            }
        }
    }

    if alive.iter().all(|a| !a) {
        let outcome = GatherOutcome {
            results: Vec::new(),
            explanations: Vec::new(),
            prune,
            timed_out: false,
            groups_down: n,
        };
        return respond(ctx, analysis, outcome, gather_start);
    }

    // Phase 2: normalization divisors — each side's global maximum raw
    // score is the max over shard maxima.
    if config.normalize_scores {
        let top1_request = Top1Request {
            beta_bits,
            bow: bow.clone(),
            bon: bon.clone(),
        };
        let body = serde_json::to_string(&top1_request).unwrap_or_default();
        let tops: Vec<Option<Top1Response>> =
            scatter(ctx.cluster, &mut alive, "/v1/internal/top1", &body, deadline);
        let (mut bow_max, mut bon_max) = (0.0f64, 0.0f64);
        for t in tops.into_iter().flatten() {
            bow_max = bow_max.max(f64_from_bits(t.bow_max_bits));
            bon_max = bon_max.max(f64_from_bits(t.bon_max_bits));
            prune.add(&t.prune);
        }
        if bow_max > 0.0 {
            bow.norm_bits = f64_bits(bow_max);
        }
        if bon_max > 0.0 {
            bon.norm_bits = f64_bits(bon_max);
        }
    }

    // Phase 3: the pruned blended top-k under the full overlay.
    let remaining_ms =
        deadline.map(|d| d.saturating_duration_since(Instant::now()).as_millis() as u64);
    let search_request = ShardSearchRequest {
        query: request.query.clone(),
        k: request.k,
        beta_bits,
        floor_bits: f64_bits(f64::NEG_INFINITY),
        budget_ms: remaining_ms,
        explain: request.explain,
        bow,
        bon,
    };
    let body = serde_json::to_string(&search_request).unwrap_or_default();
    let parts: Vec<Option<ShardSearchResponse>> =
        scatter(ctx.cluster, &mut alive, "/v1/internal/search", &body, deadline);

    // Merge: sort the union by ascending global id, then push through
    // one TopK — ties resolve toward lower ids, exactly like the
    // in-process per-segment-then-merge structure.
    let mut union: Vec<(f64, (DocId, f64, f64))> = Vec::new();
    let mut shard_explanations: Vec<Explanation> = Vec::new();
    let mut timed_out = false;
    for part in parts.into_iter().flatten() {
        prune.add(&part.prune);
        timed_out |= part.timed_out;
        shard_explanations.extend(part.explanations);
        for h in part.hits {
            union.push((
                f64_from_bits(h.score_bits),
                (
                    DocId(h.doc),
                    f64_from_bits(h.bow_bits),
                    f64_from_bits(h.bon_bits),
                ),
            ));
        }
    }
    union.sort_by_key(|&(_, (doc, _, _))| doc.0);
    let mut merged: TopK<(DocId, f64, f64)> = TopK::new(request.k);
    for (score, item) in union {
        merged.push(score, item);
    }
    let results: Vec<SearchResult> = merged
        .into_sorted()
        .into_iter()
        .map(|(score, (doc, bow, bon))| SearchResult { doc, score, bow, bon })
        .collect();
    let explanations = if request.explain.is_some() && !timed_out {
        results
            .iter()
            .filter_map(|r| shard_explanations.iter().find(|e| e.doc == r.doc).cloned())
            .collect()
    } else {
        Vec::new()
    };

    ctx.metrics.observe_pruning(&prune);
    let outcome = GatherOutcome {
        results,
        explanations,
        prune,
        timed_out,
        groups_down: alive.iter().filter(|a| !**a).count(),
    };
    respond(ctx, analysis, outcome, gather_start)
}

/// Assemble the wire response: the standalone `SearchResponse` shape
/// plus the router's `degraded` / `groups_down` fields.
fn respond(
    ctx: &ClusterContext<'_, '_>,
    analysis: newslink_core::QueryAnalysis,
    outcome: GatherOutcome,
    gather_start: Instant,
) -> (Value, u16) {
    let degraded = outcome.groups_down > 0;
    if degraded {
        ctx.cluster.note_degraded();
    }
    let mut timer = analysis.timer;
    timer.record("gather", gather_start.elapsed());
    let response = SearchResponse {
        results: outcome.results,
        embedding: analysis.embedding,
        timer,
        cache: analysis.cache,
        explanations: outcome.explanations,
        timed_out: outcome.timed_out,
        prune: outcome.prune,
        parallel: ParallelStats::default(),
    };
    let mut value = response.serialize_value();
    if let Value::Object(pairs) = &mut value {
        pairs.push(("degraded".into(), Value::Bool(degraded)));
        pairs.push((
            "groups_down".into(),
            Value::Number(Number::from_i128(outcome.groups_down as i128)),
        ));
    }
    let status = if degraded || outcome.timed_out { 503 } else { 200 };
    (value, status)
}
