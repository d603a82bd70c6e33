//! Served-traffic benchmark for NewsLink: search and ingest over HTTP,
//! end to end and per layer. See `README.md` beside this package.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload search_hot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! holds the run's context and every metric with its sample count.

mod fixture;
mod loadgen;
mod run;
mod stats;
mod trace;

use std::time::Instant;

use serde::Value;

use run::{float, int, Args, Metric, Report};

/// The end-to-end metrics an untraced run prints, in `BENCHMARK.json`
/// order.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "search_p50_ms",
    "search_p99_ms",
    "search_qps",
    "search_cpu_ms",
    "peak_rss_mb",
];

/// The per-layer metrics a traced run prints, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("nlp.analyze_us", "us"),
    ("nlp.mentions_per_query", "count"),
    ("embed.ne_us", "us"),
    ("embed.groups_per_query", "count"),
    ("embed.group_hit_ratio", "share"),
    ("embed.distance_hit_ratio", "share"),
    ("embed.query_memo_hit_ratio", "share"),
    ("ns.stats_us", "us"),
    ("ns.top1_us", "us"),
    ("ns.scan_us", "us"),
    ("ns.scored_per_candidate", "share"),
    ("ns.blocks_skipped_per_query", "count"),
    ("explain.us", "us"),
    ("explain.paths_per_result", "count"),
    ("serve.parse_us", "us"),
    ("serve.serialize_us", "us"),
    ("serve.response_bytes", "bytes"),
    ("serve.dispatch_us", "us"),
    ("serve.wire_us", "us"),
    ("cluster.hop_us", "us"),
    ("cluster.attempts_per_call", "count"),
    ("cluster.retries", "count"),
    ("index.insert_us", "us"),
    ("index.write_hold_us", "us"),
    ("index.compactions", "count"),
    ("index.segments", "count"),
    ("wal.append_us", "us"),
    ("error_share", "share"),
    ("loadgen.open_p50_ms", "ms"),
    ("loadgen.open_p99_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("layers.unaccounted_share", "share"),
    ("trace.overhead_us", "us"),
];

/// How far the layer self-times may fall short of (or exceed)
/// `serve.dispatch_us`, as a share of it, before `layers_add_up` reads
/// false.
pub const UNACCOUNTED_MARGIN: f64 = 0.15;

/// The seed of the served world and index corpus when `--world-seed` is
/// not given.
const WORLD_SEED: u64 = 1101;
/// The seed of the held-out corpus when `--held-out-seed` is not given.
const HELD_OUT_SEED: u64 = 2202;

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut world_seed = WORLD_SEED;
    let mut held_out_seed = HELD_OUT_SEED;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--world-seed" => world_seed = number()?,
            "--held-out-seed" => held_out_seed = number()?,
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !run::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {:?}",
            run::WORKLOADS
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        world_seed,
        held_out_seed,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The checked-out commit, read from `.git` in the working directory
/// when there is one.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).map(|s| s.trim().to_string()),
        None => Ok(head.to_string()),
    }
    .ok()
    .filter(|s| !s.is_empty())
    .unwrap_or_else(|| "unknown".into())
}

/// CPU time the hypervisor gave other guests (`steal` in `/proc/stat`),
/// in seconds; a noisy-neighbour check for the run's numbers.
fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s
                .lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()?;
            Some(cpu / 100.0)
        })
        .unwrap_or(0.0)
}

fn metric_object(list: &[Metric], with_count: bool) -> Value {
    Value::Object(
        list.iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".into(), float(m.value)),
                    ("unit".into(), Value::String(m.unit.into())),
                ];
                if with_count {
                    fields.push(("count".into(), int(m.count)));
                }
                (m.name.to_string(), Value::Object(fields))
            })
            .collect(),
    )
}

fn print_report(args: &Args, report: &Report, started: Instant, steal_at_start: f64) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut context = vec![
        ("workload".to_string(), Value::String(args.workload.clone())),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("host_cores".to_string(), int(cores)),
        ("git_rev".to_string(), Value::String(git_rev())),
        ("seed".to_string(), int(args.seed as usize)),
        ("world_seed".to_string(), int(args.world_seed as usize)),
        (
            "held_out_seed".to_string(),
            int(args.held_out_seed as usize),
        ),
        ("seconds".to_string(), int(args.seconds as usize)),
        (
            "open_rate_per_s".to_string(),
            float(run::open_rate(&args.workload)),
        ),
        ("insert_rate_per_s".to_string(), float(run::INSERT_RATE)),
        ("slo_ms".to_string(), float(run::SLO_MS)),
        ("wall_s".to_string(), float(started.elapsed().as_secs_f64())),
        ("cpu_steal_s".to_string(), float(steal_s() - steal_at_start)),
    ];
    context.extend(report.context.iter().cloned());
    let detail = Value::Object(vec![
        ("context".into(), Value::Object(context)),
        ("end_to_end".into(), metric_object(&report.e2e, true)),
        ("per_layer".into(), metric_object(&report.layers, true)),
        ("problems".into(), int(report.problems.len())),
    ]);
    println!("{}", detail.to_compact_string());
    let chosen: Vec<Metric> = if args.trace {
        PER_LAYER
            .iter()
            .filter_map(|(name, _)| report.layers.iter().find(|m| m.name == *name).cloned())
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter_map(|name| report.e2e.iter().find(|m| m.name == *name).cloned())
            .collect()
    };
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(report.problems.is_empty())),
        ("attempted".into(), int(report.attempted.max(1))),
        ("failed".into(), int(report.failed)),
        ("metrics".into(), metric_object(&chosen, false)),
    ]);
    println!("{}", result.to_compact_string());
}

fn main() {
    let started = Instant::now();
    let steal_at_start = steal_s();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run::run(&args) {
        Ok(report) => print_report(&args, &report, started, steal_at_start),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
