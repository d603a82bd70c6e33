//! The workloads: stand the system up (timed, several times), drive it,
//! check every answer, and turn the samples into metrics.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};

use newslink_core::{load_newslink_index, DurableStore, NewsLink, NewsLinkIndex, SearchRequest};
use newslink_serve::{Cluster, DurableState, Server, ServerHandle};
use parking_lot::RwLock;
use serde::Value;

use crate::fixture::{
    serve_config, shipped_config, HeldOut, InsertStream, SearchStream, World, HOT_QUERIES,
};
use crate::loadgen::{closed_loop, open_loop, Conn, Kept, Phase, Sample, Schedule, Source};
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// The runnable workloads. `BENCHMARK.json` gates the first two;
/// `routed_hot` and `ingest_mixed` run on demand (see `README.md` for
/// why they are not gated).
pub const WORKLOADS: [&str; 4] = ["search_fresh", "search_hot", "routed_hot", "ingest_mixed"];
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 2;
/// The latency limit `slo_attainment` counts against.
pub const SLO_MS: f64 = 20.0;
/// Fixed insert rate of `ingest_mixed`.
pub const INSERT_RATE: f64 = 20.0;
/// Queries the fresh stream spends warming the server before timing.
const FRESH_WARM: usize = 256;
/// Sent queries fed through the replay's caches before a traced replay.
const TRACE_WARM: usize = 4_096;
/// Temporary directory for `ingest_mixed`'s data directories, under the
/// working directory.
const TMP_DIR: &str = ".perfbench-tmp";

/// Open-loop search rate of each workload: about half the closed-loop
/// capacity measured on a 2-core host.
pub fn open_rate(workload: &str) -> f64 {
    match workload {
        "search_fresh" => 400.0,
        "search_hot" => 900.0,
        "routed_hot" => 180.0,
        _ => 220.0,
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    /// Seed of the request streams drawn from the held-out pool.
    pub seed: u64,
    /// Seed of the served world and index corpus.
    pub world_seed: u64,
    /// Seed of the held-out corpus and its popular queries.
    pub held_out_seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value.
    pub count: usize,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub context: Vec<(String, Value)>,
    pub attempted: usize,
    pub failed: usize,
    /// Parity and consistency failures; any makes the run incorrect.
    pub problems: Vec<String>,
}

impl Report {
    fn e2e(&mut self, name: &'static str, unit: &'static str, value: f64, count: usize) {
        self.e2e.push(Metric {
            name,
            unit,
            value,
            count,
        });
    }

    fn layer(&mut self, name: &'static str, unit: &'static str, value: f64, count: usize) {
        self.layers.push(Metric {
            name,
            unit,
            value,
            count,
        });
    }

    fn note(&mut self, key: &str, value: Value) {
        self.context.push((key.to_string(), value));
    }

    fn problem(&mut self, msg: String) {
        if self.problems.len() < 20 {
            eprintln!("perfbench: {msg}");
        }
        self.problems.push(msg);
    }

    fn count_phase<'p>(&mut self, name: &str, phases: impl IntoIterator<Item = &'p Phase>) {
        let (mut sent, mut ok, mut seconds) = (0, 0, 0.0);
        for phase in phases {
            sent += phase.samples.len();
            ok += phase.ok();
            seconds += phase.elapsed.as_secs_f64();
            if phase.exhausted && name != "warm_up" {
                self.problem(format!("phase {name}: the request stream ran out"));
            }
        }
        self.attempted += sent;
        self.failed += sent - ok;
        let entry = Value::Object(vec![
            ("sent".into(), int(sent)),
            ("succeeded".into(), int(ok)),
            ("failed".into(), int(sent - ok)),
            ("seconds".into(), float(seconds)),
        ]);
        self.note(&format!("phase.{name}"), entry);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A JSON integer.
pub fn int(n: usize) -> Value {
    Value::Number(serde::Number::from_i128(n as i128))
}

/// A JSON float.
pub fn float(x: f64) -> Value {
    Value::Number(serde::Number::from_f64(x))
}

fn bind() -> Result<Server, String> {
    Server::bind("127.0.0.1:0", serve_config()).map_err(|e| format!("binding a server: {e}"))
}

/// Triggers a server's shutdown when dropped, so a failing client never
/// leaves a scoped server thread running.
struct Stop(ServerHandle);

impl Drop for Stop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

fn join_server(
    handle: std::thread::ScopedJoinHandle<'_, std::io::Result<()>>,
) -> Result<(), String> {
    match handle.join() {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("server failed: {e}")),
        Err(_) => Err("server thread panicked".into()),
    }
}

/// Each popular body once: the `*_hot` warm-up.
struct Walk<'a>(&'a SearchStream);

impl Source for Walk<'_> {
    fn request(&self, seq: usize) -> Option<(&'static str, &'static str, &str)> {
        self.0
            .bodies
            .get(seq)
            .map(|b| ("POST", "/v1/search", b.as_str()))
    }

    fn keep(&self, body: &str) -> Option<Kept> {
        self.0.keep(body)
    }
}

/// The first `end` positions of a stream: the fresh warm-up.
struct Prefix<'a> {
    inner: &'a SearchStream,
    end: usize,
}

impl Source for Prefix<'_> {
    fn request(&self, seq: usize) -> Option<(&'static str, &'static str, &str)> {
        (seq < self.end).then(|| self.inner.request(seq)).flatten()
    }

    fn keep(&self, body: &str) -> Option<Kept> {
        self.inner.keep(body)
    }
}

/// Warm the server before timing: every popular query once, or the
/// first [`FRESH_WARM`] fresh queries (consumed from the stream).
fn warm_up(conns: &mut [Conn], stream: &SearchStream, cursor: &AtomicUsize) -> (Phase, bool) {
    let forever = Duration::from_secs(3_600);
    if stream.order.is_some() {
        (
            closed_loop(conns, &Walk(stream), forever, &AtomicUsize::new(0)),
            true,
        )
    } else {
        let prefix = Prefix {
            inner: stream,
            end: FRESH_WARM,
        };
        (closed_loop(conns, &prefix, forever, cursor), false)
    }
}

/// `(body index, ranking)` of every 200 search answer of `phase`.
/// `walk` marks a warm-up phase whose positions are body indexes.
fn answers<'p>(
    stream: &SearchStream,
    phase: &'p Phase,
    walk: bool,
    report: &mut Report,
) -> Vec<(usize, &'p [(u32, u64)])> {
    let mut out = Vec::new();
    for s in phase.samples.iter().filter(|s| s.ok()) {
        let body = if walk {
            Some(s.seq)
        } else {
            stream.body_index(s.seq)
        };
        match (body, &s.kept) {
            (Some(b), Some(Kept::Ranking(r))) => out.push((b, r.as_slice())),
            _ => report.problem(format!(
                "answer to stream position {} has no ranking",
                s.seq
            )),
        }
    }
    out
}

/// The exhaustive oracle's ranking for one request body.
fn oracle_ranking(
    oracle: &NewsLink<'_>,
    index: &NewsLinkIndex,
    body: &str,
) -> Result<Vec<(u32, u64)>, String> {
    let mut request: SearchRequest = newslink_serve::parse_search_request(body)?;
    request.explain = None;
    Ok(oracle
        .execute(index, &request)
        .results
        .iter()
        .map(|r| (r.doc.0, r.score.to_bits()))
        .collect())
}

/// Compare every answer against the exhaustive oracle on `index`, two
/// oracle threads over the distinct bodies. Returns answers checked.
fn check_answers(
    oracle: &NewsLink<'_>,
    index: &NewsLinkIndex,
    stream: &SearchStream,
    answers: &[(usize, &[(u32, u64)])],
    report: &mut Report,
) -> usize {
    let mut distinct: Vec<usize> = answers.iter().map(|&(b, _)| b).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let expected: HashMap<usize, Result<Vec<(u32, u64)>, String>> = std::thread::scope(|scope| {
        let half = distinct.len().div_ceil(2).max(1);
        let parts: Vec<_> = distinct
            .chunks(half)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&b| (b, oracle_ranking(oracle, index, &stream.bodies[b])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    for &(b, got) in answers {
        match &expected[&b] {
            Ok(want) if want.as_slice() == got => {}
            Ok(_) => report.problem(format!(
                "answer differs from the exhaustive oracle for {}",
                stream.bodies[b]
            )),
            Err(e) => report.problem(format!("oracle could not parse {}: {e}", stream.bodies[b])),
        }
    }
    answers.len()
}

/// The end-to-end search metrics: medians over rounds of each round's
/// closed-loop value.
///
/// Latency comes from the closed loop. On a 2-core virtual machine the
/// open loop's latency is set by how late sleeping threads wake, the
/// load generator's and the server's alike: `loadgen.late_p99_ms` runs
/// at tens of milliseconds, and the open-loop median swings by 2×
/// between runs. The open-loop percentiles, pooled over rounds, are
/// reported per layer under `loadgen.*`.
fn search_e2e(report: &mut Report, phases: &SearchPhases, setup_s: &[f64]) {
    report.e2e("setup_s", "s", median(setup_s), setup_s.len());
    let ok_ms = |p: &Phase| -> Vec<f64> {
        p.samples
            .iter()
            .filter(|s| s.ok())
            .map(|s| ms(s.latency()))
            .collect()
    };
    let value = |q: Option<crate::stats::Quantile>| q.map_or(0.0, |q| q.value);
    let rounds = &phases.rounds;
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<f64>>());
    let closed_ok: usize = rounds.iter().map(|r| r.closed.ok()).sum();
    let p50 = per_round(&|r| value(percentile(&ok_ms(&r.closed), 50.0)));
    let p99 = per_round(&|r| value(percentile(&ok_ms(&r.closed), 99.0)));
    report.e2e("search_p50_ms", "ms", p50, closed_ok);
    report.e2e("search_p99_ms", "ms", p99, closed_ok);
    let beyond = rounds
        .iter()
        .map(|r| percentile(&ok_ms(&r.closed), 99.0).map_or(0, |q| q.beyond))
        .min()
        .unwrap_or(0);
    report.note("search_p99_fewest_beyond_per_round", int(beyond));
    let qps = per_round(&|r| r.closed.ok() as f64 / r.closed.elapsed.as_secs_f64());
    report.e2e("search_qps", "1/s", qps, closed_ok);
    let cpu = per_round(&|r| r.closed_cpu_s * 1e3 / r.closed.ok().max(1) as f64);
    report.e2e("search_cpu_ms", "ms", cpu, closed_ok);
    let all: Vec<&Sample> = rounds
        .iter()
        .flat_map(|r| r.open.samples.iter().chain(&r.closed.samples))
        .collect();
    let within = all
        .iter()
        .filter(|s| s.ok() && ms(s.latency()) <= SLO_MS)
        .count();
    report.e2e(
        "slo_attainment",
        "share",
        within as f64 / all.len().max(1) as f64,
        all.len(),
    );
    report.e2e("peak_rss_mb", "MB", peak_rss_mb(), 1);
    let open: Vec<&Sample> = rounds.iter().flat_map(|r| &r.open.samples).collect();
    let open_lat: Vec<f64> = open
        .iter()
        .filter(|s| s.ok())
        .map(|s| ms(s.latency()))
        .collect();
    report.layer(
        "loadgen.open_p50_ms",
        "ms",
        value(percentile(&open_lat, 50.0)),
        open_lat.len(),
    );
    report.layer(
        "loadgen.open_p99_ms",
        "ms",
        value(percentile(&open_lat, 99.0)),
        open_lat.len(),
    );
    let late: Vec<f64> = open.iter().map(|s| ms(s.lateness())).collect();
    report.layer(
        "loadgen.late_p99_ms",
        "ms",
        value(percentile(&late, 99.0)),
        late.len(),
    );
}

/// User plus system CPU time of this process so far, in seconds. Time
/// the hypervisor gave other guests is not in it.
fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesized command name; utime and
            // stime are the 14th and 15th fields overall, in clock ticks.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
            Some(ticks / 100.0)
        })
        .unwrap_or(0.0)
}

/// `VmHWM` of this process (server and load generator together).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-layer metrics from a finished replay.
fn layer_metrics(report: &mut Report, tracer: &Tracer<'_, '_>) {
    let s = &tracer.sums;
    let n = s.searches.max(1) as f64;
    let per = |x: f64| x / n;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let searches = s.searches as usize;
    let [group_hits, distance_hits, memo_hits] = tracer.hit_ratios();
    report.layer("nlp.analyze_us", "us", per(s.nlp), searches);
    report.layer(
        "nlp.mentions_per_query",
        "count",
        ratio(s.mentions, s.nlp_runs),
        s.nlp_runs as usize,
    );
    report.layer("embed.ne_us", "us", per(s.ne + s.memo), searches);
    report.layer(
        "embed.groups_per_query",
        "count",
        ratio(s.groups, s.nlp_runs),
        s.nlp_runs as usize,
    );
    report.layer(
        "embed.group_hit_ratio",
        "share",
        group_hits,
        s.groups as usize,
    );
    report.layer(
        "embed.distance_hit_ratio",
        "share",
        distance_hits,
        s.groups as usize,
    );
    report.layer("embed.query_memo_hit_ratio", "share", memo_hits, searches);
    report.layer("ns.stats_us", "us", per(s.ns_stats), searches);
    report.layer("ns.top1_us", "us", per(s.ns_top1), searches);
    report.layer("ns.scan_us", "us", per(s.ns_scan), searches);
    report.layer(
        "ns.scored_per_candidate",
        "share",
        ratio(s.prune.scored, s.prune.candidates),
        s.prune.candidates as usize,
    );
    report.layer(
        "ns.blocks_skipped_per_query",
        "count",
        per(s.prune.blocks_skipped as f64),
        searches,
    );
    report.layer("explain.us", "us", per(s.explain), searches);
    report.layer(
        "explain.paths_per_result",
        "count",
        ratio(s.paths, s.results),
        s.results as usize,
    );
    report.layer("serve.parse_us", "us", per(s.parse), searches);
    report.layer("serve.serialize_us", "us", per(s.serialize), searches);
    report.layer(
        "serve.response_bytes",
        "bytes",
        per(s.response_bytes as f64),
        searches,
    );
    report.layer("serve.dispatch_us", "us", per(s.dispatch), searches);
    report.layer("serve.wire_us", "us", median(&s.wire), s.wire.len());
    report.layer("cluster.hop_us", "us", median(&s.hop), s.hop.len());
    let layers = s.parse
        + s.memo
        + s.nlp
        + s.ne
        + s.ns_stats
        + s.ns_top1
        + s.ns_scan
        + s.explain
        + s.serialize;
    let unaccounted = if s.dispatch > 0.0 {
        1.0 - layers / s.dispatch
    } else {
        0.0
    };
    report.layer("layers.unaccounted_share", "share", unaccounted, searches);
    report.layer(
        "trace.overhead_us",
        "us",
        per(s.replay - s.dispatch),
        searches,
    );
    let k = s.inserts.max(1) as f64;
    let inserts = s.inserts as usize;
    report.layer("index.insert_us", "us", s.insert / k, inserts);
    report.layer("index.write_hold_us", "us", s.hold / k, inserts);
    report.layer(
        "index.compactions",
        "count",
        s.compactions as f64 / k,
        inserts,
    );
    report.layer("index.segments", "count", s.segments as f64 / k, inserts);
    report.layer("wal.append_us", "us", s.wal / k, inserts);
    report.note(
        "layers_add_up",
        Value::Bool(unaccounted.abs() <= crate::UNACCOUNTED_MARGIN),
    );
    for m in s.mismatches.iter().take(20) {
        eprintln!("perfbench: trace: {m}");
    }
    if !s.mismatches.is_empty() {
        report
            .problems
            .push(format!("{} traced replays disagreed", s.mismatches.len()));
    }
}

/// Fill the metrics a workload does not exercise with zeros, so every
/// run prints the full list.
fn fill_missing(report: &mut Report) {
    for (name, unit) in crate::PER_LAYER {
        if !report.layers.iter().any(|m| m.name == name) {
            report.layer(name, unit, 0.0, 0);
        }
    }
}

/// Feed the replay's caches the last queries the server answered
/// before the replay starts.
fn warm_tracer(
    tracer: &mut Tracer<'_, '_>,
    stream: &SearchStream,
    sent: &[&Phase],
    engine_too: bool,
) {
    let mut seqs: Vec<usize> = sent
        .iter()
        .flat_map(|p| p.samples.iter().map(|s| s.seq))
        .collect();
    seqs.sort_unstable();
    let tail = &seqs[seqs.len().saturating_sub(TRACE_WARM)..];
    tracer.warm_queries(
        tail.iter()
            .filter_map(|&q| stream.body_index(q))
            .map(|b| stream.queries[b].as_str()),
        engine_too,
    );
}

/// Replay the continuation of `stream` for `duration`, each search
/// also sent to the idle standalone server and through the idle router.
#[allow(clippy::too_many_arguments)]
fn replay_searches(
    tracer: &mut Tracer<'_, '_>,
    index: &RwLock<NewsLinkIndex>,
    stream: &SearchStream,
    cursor: &AtomicUsize,
    sent: &[&Phase],
    warm_engine: bool,
    server: &mut Conn,
    router: &mut Conn,
    duration: Duration,
) {
    warm_tracer(tracer, stream, sent, warm_engine);
    let start = Instant::now();
    while start.elapsed() < duration {
        let seq = cursor.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let Some(b) = stream.body_index(seq) else {
            break;
        };
        tracer.search(index, &stream.bodies[b], server, Some(router));
    }
}

/// Run one workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let held = {
        let world = newslink_kg::synth::generate(&newslink_kg::SynthConfig::scaled(
            args.world_seed,
            crate::fixture::WORLD_NODES,
        ));
        HeldOut::build(&world, args.held_out_seed)
    };
    // Enough Zipf draws for a closed loop far faster than today's.
    let hot_len = 20_000 * args.seconds as usize + 100_000;
    let mut report = match args.workload.as_str() {
        "search_fresh" => {
            search_workload(args, &held, &SearchStream::fresh(&held, args.seed), false)
        }
        "search_hot" => search_workload(
            args,
            &held,
            &SearchStream::hot(&held, args.seed, hot_len),
            false,
        ),
        "routed_hot" => search_workload(
            args,
            &held,
            &SearchStream::hot(&held, args.seed, hot_len),
            true,
        ),
        "ingest_mixed" => ingest(args, &held, &SearchStream::hot(&held, args.seed, hot_len)),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    report.note("held_out_sentences", int(held.sentences.len()));
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    report.layer("error_share", "share", failed_share, report.attempted);
    report.note("hot_queries", int(HOT_QUERIES));
    fill_missing(&mut report);
    Ok(report)
}

fn setup_note(report: &mut Report, w: &World, setup_s: &[f64]) {
    report.note("world_nodes", int(w.world.graph.node_count()));
    report.note("world_edges", int(w.world.graph.edge_count()));
    report.note("index_docs", int(w.docs.len()));
    report.note(
        "setup_runs_s",
        Value::Array(setup_s.iter().map(|&s| float(s)).collect()),
    );
}

struct Standalone<'g> {
    engine: NewsLink<'g>,
    index: RwLock<NewsLinkIndex>,
    server: Server,
}

fn stand_up(w: &World) -> Result<Standalone<'_>, String> {
    let engine = NewsLink::new(&w.world.graph, &w.labels, shipped_config());
    let index = RwLock::new(engine.index_corpus(&w.docs));
    let server = bind()?;
    Ok(Standalone {
        engine,
        index,
        server,
    })
}

/// Set-ups before the kept one: each stands the system up from world
/// generation until the servers accept, is timed, and is torn down.
fn discarded_setups(
    args: &Args,
    build: impl Fn(&World) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let reps = if args.trace { 1 } else { SETUP_REPEATS };
    let mut times = Vec::new();
    for _ in 1..reps {
        let t = Instant::now();
        let w = World::build(args.world_seed);
        build(&w)?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(times)
}

/// Rounds a run's measured seconds are split into. Each round runs an
/// open loop for 40% of its time, then a closed loop for the rest, and
/// the end-to-end metrics are medians over rounds: a burst of CPU steal
/// from the host's other guests then spoils one round, not the run.
const ROUNDS: usize = 4;

/// One open-loop phase followed by one closed-loop phase.
struct Round {
    open: Phase,
    closed: Phase,
    /// Process CPU seconds spent during the closed loop.
    closed_cpu_s: f64,
}

impl Round {
    fn drive(args: &Args, conns: &mut [Conn], stream: &SearchStream, cursor: &AtomicUsize) -> Self {
        let round = args.seconds as f64 / ROUNDS as f64;
        let open_for = Duration::from_secs_f64(round * 0.4);
        let closed_for = Duration::from_secs_f64(round * 0.6);
        let rate = open_rate(&args.workload);
        let open = open_loop(conns, stream, Schedule::new(rate, open_for), cursor);
        let cpu = process_cpu_s();
        let closed = closed_loop(conns, stream, closed_for, cursor);
        let closed_cpu_s = process_cpu_s() - cpu;
        Self {
            open,
            closed,
            closed_cpu_s,
        }
    }
}

/// What a workload's search stream ran through: an untimed warm-up,
/// then [`ROUNDS`] rounds.
struct SearchPhases {
    warm: Phase,
    /// The warm-up walked the popular bodies by index.
    warm_walk: bool,
    rounds: Vec<Round>,
}

impl SearchPhases {
    fn drive(args: &Args, conns: &mut [Conn], stream: &SearchStream, cursor: &AtomicUsize) -> Self {
        let (warm, warm_walk) = warm_up(conns, stream, cursor);
        let rounds = (0..ROUNDS)
            .map(|_| Round::drive(args, conns, stream, cursor))
            .collect();
        Self {
            warm,
            warm_walk,
            rounds,
        }
    }

    /// Every phase with whether its positions are body indexes.
    fn all(&self) -> Vec<(&Phase, bool)> {
        let mut out = vec![(&self.warm, self.warm_walk)];
        for r in &self.rounds {
            out.push((&r.open, false));
            out.push((&r.closed, false));
        }
        out
    }

    fn count(&self, report: &mut Report) {
        report.count_phase("warm_up", [&self.warm]);
        report.count_phase("open_loop", self.rounds.iter().map(|r| &r.open));
        report.count_phase("closed_loop", self.rounds.iter().map(|r| &r.closed));
    }

    fn answers<'p>(
        &'p self,
        stream: &SearchStream,
        report: &mut Report,
    ) -> Vec<(usize, &'p [(u32, u64)])> {
        let mut out = Vec::new();
        for (phase, walk) in self.all() {
            out.extend(answers(stream, phase, walk, report));
        }
        out
    }
}

fn oracle_engine(w: &World) -> NewsLink<'_> {
    NewsLink::new(
        &w.world.graph,
        &w.labels,
        shipped_config().with_prune_topk(false),
    )
}

struct Shards<'g> {
    shards: Vec<(NewsLink<'g>, RwLock<NewsLinkIndex>, Server)>,
    router_engine: NewsLink<'g>,
    router: Server,
}

/// Two single-replica shard groups over the id stripes of the corpus,
/// every server with its own engine (as separate processes would have),
/// and a router in front.
fn stand_up_shards(w: &World) -> Result<Shards<'_>, String> {
    let mut shards = Vec::new();
    for shard in 0..2u32 {
        let engine = NewsLink::new(&w.world.graph, &w.labels, shipped_config());
        let mut index = engine.index_corpus_sharded(&w.docs, shard, 2);
        index.set_id_stripe(shard, 2);
        shards.push((engine, RwLock::new(index), bind()?));
    }
    let router_engine = NewsLink::new(&w.world.graph, &w.labels, shipped_config());
    Ok(Shards {
        shards,
        router_engine,
        router: bind()?,
    })
}

/// Router metrics `(attempts per primary call, retries spent)`.
fn cluster_counters(router: &mut Conn) -> Option<(f64, f64)> {
    let (status, body) = router.call("GET", "/v1/metrics", "").ok()?;
    if status != 200 {
        return None;
    }
    let v: Value = serde_json::from_str(&body).ok()?;
    let cluster = v.get("cluster")?;
    let attempts: f64 = cluster
        .get("groups")?
        .as_array()?
        .iter()
        .filter_map(|g| g.get("replicas")?.as_array())
        .flatten()
        .filter_map(|r| r.get("requests")?.as_f64())
        .sum();
    let resilience = cluster.get("resilience")?;
    let calls = resilience.get("primary_calls")?.as_f64()?;
    let retries = resilience.get("retries_spent")?.as_f64()?;
    Some((if calls > 0.0 { attempts / calls } else { 0.0 }, retries))
}

/// Servers running on scoped threads. Dropping it triggers every
/// shutdown; [`Running::stop`] also joins, the router first so its
/// pooled shard connections are closed before the shards drain.
#[derive(Default)]
struct Running<'scope> {
    router: Option<(
        Stop,
        std::thread::ScopedJoinHandle<'scope, std::io::Result<()>>,
    )>,
    servers: Vec<(
        Stop,
        std::thread::ScopedJoinHandle<'scope, std::io::Result<()>>,
    )>,
}

impl<'scope> Running<'scope> {
    fn standalone<'env>(
        &mut self,
        scope: &'scope std::thread::Scope<'scope, 'env>,
        s: &'env Standalone<'_>,
    ) {
        let stop = Stop(s.server.handle());
        self.servers
            .push((stop, scope.spawn(|| s.server.run(&s.engine, &s.index))));
    }

    fn cluster<'env>(
        &mut self,
        scope: &'scope std::thread::Scope<'scope, 'env>,
        c: &'env Shards<'_>,
    ) {
        for (engine, index, server) in &c.shards {
            let stop = Stop(server.handle());
            self.servers
                .push((stop, scope.spawn(move || server.run(engine, index))));
        }
        let groups: Vec<Vec<std::net::SocketAddr>> = c
            .shards
            .iter()
            .map(|(_, _, server)| vec![server.local_addr()])
            .collect();
        let stop = Stop(c.router.handle());
        self.router = Some((
            stop,
            scope.spawn(move || {
                // The cluster, and with it the router's pooled shard
                // connections, ends with the router.
                let cluster = Cluster::new(groups);
                c.router.run_router(&c.router_engine, &cluster)
            }),
        ));
    }

    fn stop(self) -> Result<(), String> {
        if let Some((stop, handle)) = self.router {
            drop(stop);
            join_server(handle)?;
        }
        for (stop, handle) in self.servers {
            drop(stop);
            join_server(handle)?;
        }
        Ok(())
    }
}

/// `search_fresh` and `search_hot` talk to one standalone server,
/// `routed_hot` to a router over two shards. A traced run stands up the
/// other system too, off the clock, so the hop is measured on every
/// search workload.
fn search_workload(
    args: &Args,
    held: &HeldOut,
    stream: &SearchStream,
    routed: bool,
) -> Result<Report, String> {
    let mut setup_s = discarded_setups(args, |w| {
        if routed {
            stand_up_shards(w).map(drop)
        } else {
            stand_up(w).map(drop)
        }
    })?;
    let t = Instant::now();
    let w = World::build(args.world_seed);
    let (mut single, mut shards) = (None, None);
    if routed {
        shards = Some(stand_up_shards(&w)?);
    } else {
        single = Some(stand_up(&w)?);
    }
    setup_s.push(t.elapsed().as_secs_f64());
    if args.trace {
        if single.is_none() {
            single = Some(stand_up(&w)?);
        }
        if shards.is_none() {
            shards = Some(stand_up_shards(&w)?);
        }
    }
    let mut tracer = match (&single, args.trace) {
        (Some(s), true) => Some(Tracer::new(&s.engine, &w.docs)),
        _ => None,
    };
    let front = match (&single, &shards) {
        (_, Some(c)) if routed => c.router.local_addr(),
        (Some(s), _) => s.server.local_addr(),
        _ => return Err("no server to send to".into()),
    };
    let cursor = AtomicUsize::new(0);
    let mut counters = None;
    let phases = std::thread::scope(|scope| -> Result<SearchPhases, String> {
        let mut running = Running::default();
        if let Some(s) = &single {
            running.standalone(scope, s);
        }
        if let Some(c) = &shards {
            running.cluster(scope, c);
        }
        let mut conns = [Conn::new(front), Conn::new(front)];
        let phases = SearchPhases::drive(args, &mut conns, stream, &cursor);
        drop(conns);
        if let (Some(tracer), Some(s), Some(c)) = (tracer.as_mut(), &single, &shards) {
            let mut direct = Conn::new(s.server.local_addr());
            let mut router = Conn::new(c.router.local_addr());
            let sent: Vec<&Phase> = phases.all().into_iter().map(|(p, _)| p).collect();
            let duration = Duration::from_secs(args.seconds);
            // Through a router, the standalone engine did not serve the
            // load itself, so the replay warms it as well.
            replay_searches(
                tracer,
                &s.index,
                stream,
                &cursor,
                &sent,
                routed,
                &mut direct,
                &mut router,
                duration,
            );
            counters = cluster_counters(&mut router);
        }
        running.stop()?;
        Ok(phases)
    })?;

    let mut report = Report::default();
    setup_note(&mut report, &w, &setup_s);
    phases.count(&mut report);
    search_e2e(&mut report, &phases, &setup_s);
    // Routed answers are checked against a single process over the
    // whole corpus.
    let built;
    let whole = match &single {
        Some(s) => &s.index,
        None => {
            let engine = NewsLink::new(&w.world.graph, &w.labels, shipped_config());
            built = RwLock::new(engine.index_corpus(&w.docs));
            &built
        }
    };
    let answers = phases.answers(stream, &mut report);
    let checked = check_answers(
        &oracle_engine(&w),
        &whole.read(),
        stream,
        &answers,
        &mut report,
    );
    report.note("answers_checked", int(checked));
    if let Some(tracer) = tracer.as_mut() {
        replay_writes(tracer, whole, &InsertStream::new(held, args.seed))?;
        layer_metrics(&mut report, tracer);
        let (attempts, retries) = counters.unwrap_or((0.0, 0.0));
        if counters.is_none() {
            report.problem("router /v1/metrics had no cluster counters".into());
        }
        report.layer("cluster.attempts_per_call", "count", attempts, 1);
        report.layer("cluster.retries", "count", retries, 1);
    }
    Ok(report)
}

/// Inserts a traced run replays after its searches on the workloads
/// without a write stream, so the write layer is measured on every
/// workload.
const TRACE_INSERTS: usize = 40;

/// Replay [`TRACE_INSERTS`] inserts into `index`, each logged to a
/// write-ahead log in a temporary directory.
fn replay_writes(
    tracer: &mut Tracer<'_, '_>,
    index: &RwLock<NewsLinkIndex>,
    inserts: &InsertStream,
) -> Result<(), String> {
    let dir = data_dir(usize::MAX);
    let _ = std::fs::remove_dir_all(&dir);
    let engine = tracer.engine();
    let opened = DurableStore::open(engine, &dir, || engine.index_corpus::<String>(&[]));
    let result = opened
        .map_err(|e| format!("opening {}: {e}", dir.display()))
        .map(|(mut store, _)| {
            for seq in 0..TRACE_INSERTS {
                if let Some(text) = inserts.text(seq) {
                    tracer.insert(index, &mut store, text);
                }
            }
        });
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(TMP_DIR);
    result
}

struct Durable<'g> {
    engine: NewsLink<'g>,
    index: RwLock<NewsLinkIndex>,
    state: DurableState,
    server: Server,
}

fn data_dir(tag: usize) -> PathBuf {
    Path::new(TMP_DIR).join(format!("{}-{tag}", std::process::id()))
}

/// A durable server: the corpus seeds a fresh data directory whose
/// snapshot is written before the server accepts.
fn stand_up_durable<'w>(w: &'w World, dir: &Path) -> Result<Durable<'w>, String> {
    let _ = std::fs::remove_dir_all(dir);
    let engine = NewsLink::new(&w.world.graph, &w.labels, shipped_config());
    let (store, index) = DurableStore::open(&engine, dir, || engine.index_corpus(&w.docs))
        .map_err(|e| format!("opening {}: {e}", dir.display()))?;
    Ok(Durable {
        engine,
        index: RwLock::new(index),
        state: DurableState::new(store),
        server: bind()?,
    })
}

/// An acknowledged insert, with absolute send and answer times.
struct Ack {
    seq: usize,
    id: u32,
    sent: Instant,
    done: Instant,
}

/// `ingest_mixed`: the hot stream on one connection, inserts at a fixed
/// rate on another, against a durable server.
fn ingest(args: &Args, held: &HeldOut, stream: &SearchStream) -> Result<Report, String> {
    let inserts = InsertStream::new(held, args.seed);
    let mut setup_s = Vec::new();
    let reps = if args.trace { 1 } else { SETUP_REPEATS };
    for rep in 1..reps {
        let t = Instant::now();
        let w = World::build(args.world_seed);
        let dir = data_dir(rep);
        drop(stand_up_durable(&w, &dir)?);
        setup_s.push(t.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(&dir);
    }
    let dir = data_dir(0);
    let t = Instant::now();
    let w = World::build(args.world_seed);
    let d = stand_up_durable(&w, &dir)?;
    setup_s.push(t.elapsed().as_secs_f64());
    let result = drive_ingest(args, &w, d, &dir, stream, &inserts, setup_s);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(TMP_DIR);
    result
}

fn drive_ingest(
    args: &Args,
    w: &World,
    d: Durable<'_>,
    dir: &Path,
    stream: &SearchStream,
    inserts: &InsertStream,
    setup_s: Vec<f64>,
) -> Result<Report, String> {
    let mut tracer = args.trace.then(|| Tracer::new(&d.engine, &w.docs));
    let addr = d.server.local_addr();
    let cursor = AtomicUsize::new(0);
    let insert_cursor = AtomicUsize::new(0);
    let base_docs = d.index.read().doc_count();
    let (phases, written) = std::thread::scope(|scope| -> Result<(SearchPhases, Phase), String> {
        let stop = Stop(d.server.handle());
        let server = scope.spawn(|| d.server.run_durable(&d.engine, &d.index, Some(&d.state)));
        let mut search = [Conn::new(addr)];
        let (warm, warm_walk) = warm_up(&mut search, stream, &cursor);
        let writer = scope.spawn(|| {
            let mut conn = [Conn::new(addr)];
            let schedule = Schedule::new(INSERT_RATE, Duration::from_secs(args.seconds));
            open_loop(&mut conn, inserts, schedule, &insert_cursor)
        });
        let rounds = (0..ROUNDS)
            .map(|_| Round::drive(args, &mut search, stream, &cursor))
            .collect();
        let written = writer
            .join()
            .map_err(|_| "insert thread panicked".to_string())?;
        drop(search);
        drop(stop);
        join_server(server)?;
        Ok((
            SearchPhases {
                warm,
                warm_walk,
                rounds,
            },
            written,
        ))
    })?;
    let (index, state) = (d.index, d.state);
    drop(state);
    let served_docs = index.read().doc_count();
    drop(index);

    let mut report = Report::default();
    setup_note(&mut report, w, &setup_s);
    phases.count(&mut report);
    report.count_phase("inserts", [&written]);
    search_e2e(&mut report, &phases, &setup_s);
    insert_metrics(&mut report, &written);

    let mut acks: Vec<Ack> = written
        .samples
        .iter()
        .filter_map(|s| match (s.ok(), &s.kept) {
            (true, Some(Kept::DocId(id))) => Some(Ack {
                seq: s.seq,
                id: *id,
                sent: written.start + s.sent,
                done: written.start + s.done,
            }),
            _ => None,
        })
        .collect();
    acks.sort_by_key(|a| a.seq);
    if written.failed() > 0 || acks.iter().enumerate().any(|(i, a)| a.seq != i) {
        report.problem(
            "an insert failed, so the acknowledged inserts are not a prefix of the stream".into(),
        );
    }
    if served_docs != base_docs + acks.len() {
        report.problem(format!(
            "server holds {served_docs} docs, expected {base_docs} + {} acknowledged",
            acks.len()
        ));
    }

    // Every search answer against the exhaustive oracle on the index
    // state it could have seen: the prefix of inserts acknowledged
    // before it was sent, up to those sent before its answer arrived.
    let snapshot = dir.join("index.nlnk");
    let base = load_newslink_index(&w.world.graph, &snapshot)
        .map_err(|e| format!("loading {}: {e}", snapshot.display()))?;
    let checked = check_windows(w, base, stream, &phases, &acks, inserts, &mut report);
    report.note("answers_checked", int(checked));

    // The store must reopen with WAL replay to the same documents.
    let (mut store, reopened) = DurableStore::open(&d.engine, dir, || {
        unreachable!("the data directory holds a snapshot")
    })
    .map_err(|e| format!("reopening {}: {e}", dir.display()))?;
    if reopened.doc_count() != served_docs {
        report.problem(format!(
            "reopened store holds {} docs, served {served_docs}",
            reopened.doc_count()
        ));
    }
    if let Some(a) = acks
        .iter()
        .find(|a| !reopened.is_live(newslink_core::DocId(a.id)))
    {
        report.problem(format!(
            "acknowledged insert {} is missing after reopen",
            a.id
        ));
    }
    report.note(
        "wal_records_replayed",
        int(store.report().wal_records_replayed),
    );

    if let Some(tracer) = tracer.as_mut() {
        let index = RwLock::new(reopened);
        let server = bind()?;
        let sent: Vec<&Phase> = phases.all().into_iter().map(|(p, _)| p).collect();
        std::thread::scope(|scope| -> Result<(), String> {
            let stop = Stop(server.handle());
            let running = scope.spawn(|| server.run(&d.engine, &index));
            let mut conn = Conn::new(server.local_addr());
            replay_mixed(
                tracer,
                &index,
                &mut store,
                stream,
                &cursor,
                inserts,
                &insert_cursor,
                &sent,
                &mut conn,
                args,
            );
            drop(conn);
            drop(stop);
            join_server(running)
        })?;
        layer_metrics(&mut report, tracer);
    }
    Ok(report)
}

/// Client-side insert latency (from due time) and throughput.
fn insert_metrics(report: &mut Report, written: &Phase) {
    let lat: Vec<f64> = written
        .samples
        .iter()
        .filter(|s| s.ok())
        .map(|s| ms(s.latency()))
        .collect();
    report.layer(
        "insert_p50_ms",
        "ms",
        percentile(&lat, 50.0).map_or(0.0, |q| q.value),
        lat.len(),
    );
    report.layer(
        "insert_p99_ms",
        "ms",
        percentile(&lat, 99.0).map_or(0.0, |q| q.value),
        lat.len(),
    );
    report.layer(
        "insert_per_s",
        "1/s",
        lat.len() as f64 / written.elapsed.as_secs_f64(),
        lat.len(),
    );
}

/// Search the oracle through the sequence of index states the inserts
/// produced, accepting each answer at any state inside its window.
fn check_windows(
    w: &World,
    mut index: NewsLinkIndex,
    stream: &SearchStream,
    phases: &SearchPhases,
    acks: &[Ack],
    inserts: &InsertStream,
    report: &mut Report,
) -> usize {
    let oracle = oracle_engine(w);
    struct Pending<'p> {
        body: usize,
        ranking: &'p [(u32, u64)],
        lo: usize,
        hi: usize,
    }
    let mut pending: Vec<Pending<'_>> = Vec::new();
    for (phase, walk) in phases.all() {
        for s in phase.samples.iter().filter(|s| s.ok()) {
            let body = if walk {
                Some(s.seq)
            } else {
                stream.body_index(s.seq)
            };
            let (Some(body), Some(Kept::Ranking(ranking))) = (body, &s.kept) else {
                report.problem(format!(
                    "answer to stream position {} has no ranking",
                    s.seq
                ));
                continue;
            };
            let (sent, done) = (phase.start + s.sent, phase.start + s.done);
            let lo = acks.iter().take_while(|a| a.done <= sent).count();
            let hi = acks.iter().take_while(|a| a.sent < done).count();
            pending.push(Pending {
                body,
                ranking,
                lo,
                hi: hi.max(lo),
            });
        }
    }
    let checked = pending.len();
    let mut matched = vec![false; pending.len()];
    for state in 0..=acks.len() {
        let mut cache: HashMap<usize, Vec<(u32, u64)>> = HashMap::new();
        for (i, p) in pending.iter().enumerate() {
            if matched[i] || p.lo > state || p.hi < state {
                continue;
            }
            let want = cache.entry(p.body).or_insert_with(|| {
                oracle_ranking(&oracle, &index, &stream.bodies[p.body]).unwrap_or_default()
            });
            if want.as_slice() == p.ranking {
                matched[i] = true;
            } else if p.hi == state {
                report.problem(format!(
                    "answer differs from the oracle at every state it could have seen for {}",
                    stream.bodies[p.body]
                ));
            }
        }
        if let Some(a) = acks.get(state) {
            let text = inserts.text(a.seq).unwrap_or_default();
            let id = oracle.insert_document(&mut index, text);
            if id.0 != a.id {
                report.problem(format!(
                    "oracle minted id {} where the server acknowledged {}",
                    id.0, a.id
                ));
            }
        }
    }
    checked
}

/// Replay the continuation of both streams in due-time order.
#[allow(clippy::too_many_arguments)]
fn replay_mixed(
    tracer: &mut Tracer<'_, '_>,
    index: &RwLock<NewsLinkIndex>,
    store: &mut DurableStore,
    stream: &SearchStream,
    cursor: &AtomicUsize,
    inserts: &InsertStream,
    insert_cursor: &AtomicUsize,
    sent: &[&Phase],
    conn: &mut Conn,
    args: &Args,
) {
    use std::sync::atomic::Ordering::SeqCst;
    warm_tracer(tracer, stream, sent, false);
    let search_rate = open_rate(&args.workload);
    let (mut searches, mut writes) = (0usize, 0usize);
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(args.seconds) {
        if (writes as f64) / INSERT_RATE <= (searches as f64) / search_rate {
            let seq = insert_cursor.fetch_add(1, SeqCst);
            let Some(text) = inserts.text(seq) else { break };
            tracer.insert(index, store, text);
            writes += 1;
        } else {
            let seq = cursor.fetch_add(1, SeqCst);
            let Some(b) = stream.body_index(seq) else {
                break;
            };
            tracer.search(index, &stream.bodies[b], conn, None);
            searches += 1;
        }
    }
}
