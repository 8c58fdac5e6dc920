//! `dpsan-benchmark`: one run of one workload, as a fresh process.
//!
//! ```text
//! dpsan-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 --work-dir <dir> [--spans <file.jsonl>]
//! ```
//!
//! Untraced (`--trace 0`): repeat the workload's fixed work a number
//! of times derived only from `--seconds`, setting up several times
//! before the first repetition and after each, check every output, and
//! print the end-to-end metrics.
//! Traced (`--trace 1`): one untraced repetition as the reference, then
//! one repetition composed from the layers' stage functions under
//! spans; the two must release the same bytes. Prints the per-layer
//! metrics and, on stderr, the stage-share table.
//!
//! The last stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! carries the exact counts the steadiness check compares across runs.

#![forbid(unsafe_code)]

mod bb;
mod checks;
mod follow;
mod procfs;
mod release;
mod sweep;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;
use workload::{Ctx, Rep, Workload, EXACT_COUNTS};

/// Set-ups before the first repetition and again after each one;
/// `setup_s` is the median of all of them. Spreading the samples over
/// the whole run, as `wall_s` is, keeps a slow host phase at the start
/// of a process from deciding the figure.
const SETUPS_PER_SLOT: usize = 5;

/// Nominal seconds of one repetition per workload (2 vCPU KVM guest,
/// release build). Only `--seconds` and these constants pick the
/// repetition count, so a run's work never depends on the clock.
const WORKLOADS: [(&str, f64); 4] =
    [("sweep_small", 8.0), ("release_medium", 10.0), ("follow_zealous", 5.0), ("bb_tiny", 7.0)];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace, mut work_dir, mut spans) =
        (None, None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--spans" => spans = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
        work_dir: work_dir.ok_or("--work-dir is required")?,
        spans,
    })
}

/// Nearest-rank percentile of unsorted samples.
fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Ordered `name -> (value, unit)` metrics of the result line.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Run-level outcome: ops attempted, ops failed, every failure.
struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Metrics,
    counts: BTreeMap<&'static str, u64>,
    /// Work time of each repetition, in seconds.
    rep_walls: Vec<f64>,
}

/// Exact counts of `b` that differ from `a` (keys both carry).
fn count_drift(a: &Rep, b: &Rep) -> Vec<String> {
    let mut out: Vec<String> = EXACT_COUNTS
        .iter()
        .filter_map(|k| match (a.counts.get(k), b.counts.get(k)) {
            (Some(x), Some(y)) if x != y => Some(format!("{k}: {x} vs {y}")),
            _ => None,
        })
        .collect();
    if a.digests != b.digests {
        out.push("released outputs differ".into());
    }
    out
}

/// Set the workload up `SETUPS_PER_SLOT` times, timing each; keep the
/// last. Set-up is deterministic, so every copy is the same input.
fn timed_setups<W: Workload>(ctx: &Ctx, samples: &mut Vec<f64>) -> Result<W, String> {
    let mut w = None;
    for _ in 0..SETUPS_PER_SLOT {
        let start = Instant::now();
        w = Some(W::setup(ctx)?);
        samples.push(start.elapsed().as_secs_f64());
    }
    Ok(w.expect("SETUPS_PER_SLOT >= 1"))
}

fn untraced<W: Workload>(ctx: &Ctx, reps: usize) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUPS_PER_SLOT * (reps + 1));
    let w = timed_setups::<W>(ctx, &mut setup_s)?;
    let mut runs: Vec<Rep> = Vec::with_capacity(reps);
    for _ in 0..reps {
        runs.push(w.run(ctx));
        timed_setups::<W>(ctx, &mut setup_s)?;
    }
    let shown: Vec<String> = setup_s.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    eprintln!("set-up samples (ms): {}", shown.join(" "));

    let mut failures: Vec<String> = runs.iter().flat_map(|r| r.failures.clone()).collect();
    let mut failed: u64 = runs.iter().map(|r| r.failed_ops).sum();
    let mut run_level: Vec<String> =
        runs[1..].iter().flat_map(|r| count_drift(&runs[0], r)).collect();
    run_level.extend(w.final_checks(ctx, runs.last().expect("reps >= 1")));
    failed += run_level.len() as u64;
    failures.extend(run_level);

    // Per-repetition figures averaged over the repetitions: a
    // percentile is taken over one pass of the workload's op list (the
    // unit its sample counts refer to), and the averaging spreads each
    // figure over the whole run rather than over one host phase.
    let per_rep = |f: &dyn Fn(&Rep) -> f64| runs.iter().map(f).sum::<f64>() / runs.len() as f64;
    let counts = runs[0].counts.clone();
    let count = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;
    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_s), "s");
    m.put("wall_s", per_rep(&|r| r.work_ms / 1e3), "s");
    m.put("release_p50_ms", per_rep(&|r| percentile(&r.op_ms, 0.50)), "ms");
    m.put("release_p75_ms", per_rep(&|r| percentile(&r.op_ms, 0.75)), "ms");
    m.put("output_size", count("output_size"), "tuples");
    m.put("retained_pairs", count("retained_pairs"), "pairs");
    m.put("peak_rss_mb", procfs::peak_rss_mb().unwrap_or(0.0), "MB");
    let attempted = runs.iter().map(|r| r.op_ms.len() as u64).sum();
    let walls = runs.iter().map(|r| r.work_ms / 1e3).collect();
    Ok(Outcome {
        attempted,
        failed: failed.min(attempted),
        failures,
        metrics: m,
        counts,
        rep_walls: walls,
    })
}

fn traced<W: Workload>(ctx: &Ctx, args: &Args) -> Result<Outcome, String> {
    let w = W::setup(ctx)?;
    let reference = w.run(ctx);

    let mut t = Tracer::new(format!("{}-{}-{}", args.workload, args.seed, std::process::id()));
    let registry_before = dpsan_obs::global().snapshot();
    let sched_before = procfs::schedstat();
    let rep = w.run_traced(ctx, &mut t);
    let sched_after = procfs::schedstat();
    let obs = dpsan_obs::global().snapshot().delta(&registry_before);

    let mut failures: Vec<String> =
        reference.failures.iter().chain(&rep.failures).cloned().collect();
    let mut run_level: Vec<String> = count_drift(&reference, &rep)
        .into_iter()
        .map(|d| format!("traced composition is not the same program: {d}"))
        .collect();
    run_level.extend(w.final_checks(ctx, &rep));
    let iterations = rep.counts.get("lp.iterations").copied().unwrap_or(0);
    if obs.counter("dpsan_solve_iterations_total") != iterations {
        run_level.push(format!(
            "registry counted {} simplex iterations, the session {iterations}",
            obs.counter("dpsan_solve_iterations_total")
        ));
    }
    let failed = reference.failed_ops + rep.failed_ops + run_level.len() as u64;
    failures.extend(run_level);

    if let Some(path) = &args.spans {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        t.write_jsonl(path).map_err(|e| format!("writing spans: {e}"))?;
    }
    let self_ms = t.self_ms();
    print_stage_shares(&self_ms, rep.work_ms);

    let span = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
    let count = |k: &str| rep.counts.get(k).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let layered: f64 = self_ms.iter().filter(|(n, _)| n.contains('.')).map(|(_, v)| v).sum();
    let factor_s = obs.histogram("dpsan_lp_factor_seconds").map_or(0.0, |h| h.sum);
    let (cpu_ns, wait_ns) = match (sched_before, sched_after) {
        (Some(b), Some(a)) => ((a.0 - b.0) as f64, (a.1 - b.1) as f64),
        _ => (0.0, 0.0),
    };

    let mut m = Metrics::default();
    m.put("lp.solve_ms", span("lp.solve"), "ms");
    m.put("lp.iterations", count("lp.iterations"), "count");
    m.put("lp.us_per_iteration", ratio(span("lp.solve") * 1e3, count("lp.iterations")), "us");
    m.put("lp.refactorizations", count("lp.refactorizations"), "count");
    m.put("lp.solves", count("lp.solves"), "count");
    m.put("lp.solves_cold", count("lp.solves_cold"), "count");
    m.put("lp.solves_warm", count("lp.solves_warm"), "count");
    m.put("lp.solves_dual", count("lp.solves_dual"), "count");
    m.put("lp.fallbacks_dual", count("lp.fallbacks_dual"), "count");
    m.put("lp.fallbacks_degenerate", count("lp.fallbacks_degenerate"), "count");
    m.put(
        "lp.warm_ratio",
        ratio(count("lp.solves_warm") + count("lp.solves_dual"), count("lp.solves")),
        "ratio",
    );
    m.put("lp.factor_ms", factor_s * 1e3, "ms");
    m.put(
        "lp.sparse_factorizations",
        obs.counter("dpsan_lp_sparse_factorizations_total") as f64,
        "count",
    );
    m.put("lp.factor_nnz", obs.gauge("dpsan_lp_factor_nnz"), "count");
    m.put("mip.solve_ms", span("mip.solve"), "ms");
    m.put("mip.nodes", count("mip.nodes"), "count");
    m.put("mip.ms_per_node", ratio(span("mip.solve"), count("mip.nodes")), "ms");
    m.put("mip.proven_optimal", count("mip.proven_optimal"), "cells");
    m.put("stream.ingest_ms", span("stream.ingest"), "ms");
    m.put("stream.snapshot_ms", span("stream.snapshot"), "ms");
    m.put("stream.rows", count("stream.rows"), "rows");
    m.put("stream.rows_per_s", ratio(count("stream.rows") * 1e3, span("stream.ingest")), "rows/s");
    m.put("searchlog.preprocess_ms", span("searchlog.preprocess"), "ms");
    m.put("searchlog.write_ms", span("searchlog.write"), "ms");
    m.put("searchlog.output_bytes", count("searchlog.output_bytes"), "bytes");
    m.put("core.constraints_ms", span("core.constraints"), "ms");
    m.put("core.verify_ms", span("core.verify"), "ms");
    m.put("core.sample_ms", span("core.sample"), "ms");
    m.put("core.mechanism_ms", span("core.mechanism"), "ms");
    m.put("store.wal_ms", span("store.wal"), "ms");
    m.put("store.checkpoint_ms", span("store.checkpoint"), "ms");
    m.put("store.manifest_ms", span("store.manifest"), "ms");
    m.put("store.wal_appends", count("store.wal_appends"), "count");
    m.put("store.checkpoints", count("store.checkpoints"), "count");
    m.put("store.bytes_written", count("store.bytes_written"), "bytes");
    m.put(
        "store.write_amplification",
        ratio(count("store.bytes_written"), count("store.input_bytes")),
        "ratio",
    );
    m.put("serve.release_ms", t.total_ms("serve.release"), "ms");
    m.put("process.cpu_s", cpu_ns / 1e9, "s");
    m.put("process.runq_wait_ms", wait_ns / 1e6, "ms");
    m.put("trace.wall_ms", rep.work_ms, "ms");
    m.put(
        "trace.overhead_pct",
        ratio(rep.work_ms - reference.work_ms, reference.work_ms) * 100.0,
        "%",
    );
    m.put("other_ms", rep.work_ms - layered, "ms");

    let attempted = (reference.op_ms.len() + rep.op_ms.len()) as u64;
    let counts = rep.counts.clone();
    Ok(Outcome {
        attempted,
        failed: failed.min(attempted),
        failures,
        metrics: m,
        counts,
        rep_walls: vec![reference.work_ms / 1e3, rep.work_ms / 1e3],
    })
}

/// The stage-share (Amdahl) table of a traced run, on stderr: self
/// time per span and per layer, as a share of the traced wall time.
fn print_stage_shares(self_ms: &BTreeMap<&'static str, f64>, wall_ms: f64) {
    let mut rows: Vec<(&str, f64)> = self_ms.iter().map(|(n, v)| (*n, *v)).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, ms) in &rows {
        let layer = name.split_once('.').map_or("other", |(l, _)| l);
        *layers.entry(layer).or_insert(0.0) += ms;
    }
    eprintln!("stage shares (self time, traced wall {wall_ms:.1} ms):");
    for (name, ms) in &rows {
        eprintln!("  {name:<22} {ms:>10.1} ms  {:>5.1}%", 100.0 * ms / wall_ms);
    }
    let mut layers: Vec<(&str, f64)> = layers.into_iter().collect();
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));
    eprintln!("layer shares:");
    for (layer, ms) in layers {
        eprintln!("  {layer:<22} {ms:>10.1} ms  {:>5.1}%", 100.0 * ms / wall_ms);
    }
}

fn dispatch(args: &Args, ctx: &Ctx, reps: usize) -> Result<Outcome, String> {
    macro_rules! go {
        ($w:ty) => {
            if args.trace {
                traced::<$w>(ctx, args)
            } else {
                untraced::<$w>(ctx, reps)
            }
        };
    }
    match args.workload.as_str() {
        "sweep_small" => go!(sweep::Sweep),
        "release_medium" => go!(release::Release),
        "follow_zealous" => go!(follow::Follow),
        "bb_tiny" => go!(bb::Bb),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dpsan-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("dpsan-benchmark: work dir: {e}");
        return ExitCode::from(2);
    }
    let nominal = WORKLOADS.iter().find(|(w, _)| *w == args.workload).expect("validated").1;
    let reps = ((args.seconds / nominal).round() as usize).max(1);
    let ctx = Ctx { seed: args.seed, work_dir: args.work_dir.clone() };
    let outcome = match dispatch(&args, &ctx, reps) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dpsan-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &outcome.failures {
        eprintln!("check failed: {f}");
    }
    let counts: Vec<String> = outcome.counts.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    let walls: Vec<String> = outcome.rep_walls.iter().map(f64::to_string).collect();
    let cfg = workload::stream_config();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"rep_wall_s\": [{}], \"stream\": {{\"shards\": {}, \"jobs\": {}, \"chunk_rows\": {}}}, \"exact_counts\": {{{}}}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        walls.join(", "),
        cfg.shards,
        cfg.jobs,
        cfg.chunk_rows,
        counts.join(", ")
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failed,
        outcome.metrics.json()
    );
    ExitCode::SUCCESS
}
