//! What every workload shares: the run context, one repetition's
//! outcome, and the [`Workload`] contract.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dpsan_core::session::SessionStats;
use dpsan_searchlog::SearchLog;
use dpsan_stream::StreamConfig;

use crate::trace::Tracer;

/// Fixed per-run inputs handed to every workload.
pub struct Ctx {
    /// Release seed: multinomial sampling and ZEALOUS noise.
    pub seed: u64,
    /// Private scratch directory of this run (spooled logs, stores,
    /// release artifacts).
    pub work_dir: PathBuf,
}

/// The ingestion setting of every workload: one drain thread, 16
/// user-hash shards, the `sanitize` CLI's chunk size, no sketch.
pub fn stream_config() -> StreamConfig {
    StreamConfig { shards: 16, chunk_rows: 8192, sketch_capacity: 0, jobs: 1 }
}

/// Count metrics that must repeat exactly for a given seed.
pub const EXACT_COUNTS: [&str; 16] = [
    "output_size",
    "retained_pairs",
    "lp.iterations",
    "lp.refactorizations",
    "lp.solves",
    "lp.solves_cold",
    "lp.solves_warm",
    "lp.solves_dual",
    "lp.fallbacks_dual",
    "lp.fallbacks_degenerate",
    "mip.nodes",
    "stream.rows",
    "store.wal_appends",
    "store.checkpoints",
    "store.bytes_written",
    "searchlog.output_bytes",
];

/// What one repetition of a workload did.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall time of the fixed work, output checks excluded.
    pub work_ms: f64,
    /// Latency of each op (a release, or a cell solve for `bb_tiny`).
    pub op_ms: Vec<f64>,
    /// One digest per op: the released TSV bytes, or the retained
    /// selection for D-UMP. Traced and untraced runs must agree.
    pub digests: Vec<u64>,
    /// Count metrics (see [`EXACT_COUNTS`]) plus layer-specific ones.
    pub counts: BTreeMap<&'static str, u64>,
    /// Ops with at least one failed output check.
    pub failed_ops: u64,
    /// Every failed check, for stderr.
    pub failures: Vec<String>,
}

impl Rep {
    pub fn add(&mut self, key: &'static str, n: u64) {
        *self.counts.entry(key).or_insert(0) += n;
    }

    /// Record one op's latency; it also counts as work time.
    pub fn op(&mut self, elapsed: Duration) {
        let ms = elapsed.as_secs_f64() * 1e3;
        self.op_ms.push(ms);
        self.work_ms += ms;
    }

    /// Time work that belongs to no op (store open, exit checkpoint).
    pub fn work<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.work_ms += start.elapsed().as_secs_f64() * 1e3;
        out
    }

    /// Close the current op with its failed checks (empty = passed).
    pub fn finish_op(&mut self, failures: Vec<String>) {
        if !failures.is_empty() {
            self.failed_ops += 1;
            let op = self.op_ms.len();
            self.failures.extend(failures.into_iter().map(|f| format!("op {op}: {f}")));
        }
    }

    /// Account one released output: its counts and TSV bytes.
    pub fn released(&mut self, counts: &[u64], tsv: &[u8]) {
        self.add("output_size", counts.iter().sum());
        self.add("retained_pairs", counts.iter().filter(|&&c| c > 0).count() as u64);
        self.add("searchlog.output_bytes", tsv.len() as u64);
        self.digests.push(fnv1a(tsv));
    }

    /// Account one release's LP-solver counters.
    pub fn solver(&mut self, s: &SessionStats) {
        self.add("lp.solves", s.solves as u64);
        self.add("lp.solves_cold", s.cold_starts as u64);
        self.add("lp.solves_warm", s.warm_primal() as u64);
        self.add("lp.solves_dual", s.dual_reopts as u64);
        self.add("lp.fallbacks_dual", s.dual_fallbacks as u64);
        self.add("lp.fallbacks_degenerate", s.degenerate_fallbacks as u64);
        self.add("lp.iterations", s.iterations as u64);
        self.add("lp.refactorizations", s.refactorizations as u64);
    }
}

/// One benchmark workload. `run` goes through the workspace's public
/// entry points; `run_traced` composes the same work from the public
/// stage functions under spans and must produce the same outputs.
pub trait Workload: Sized {
    /// Build the fixed inputs (timed as set-up).
    fn setup(ctx: &Ctx) -> Result<Self, String>;
    /// One repetition through the public entry points.
    fn run(&self, ctx: &Ctx) -> Rep;
    /// One repetition composed from stage functions, under `t`.
    fn run_traced(&self, ctx: &Ctx, t: &mut Tracer) -> Rep;
    /// Once-per-run checks on the last repetition (outside timing).
    fn final_checks(&self, _ctx: &Ctx, _last: &Rep) -> Vec<String> {
        Vec::new()
    }
}

/// Serialize a log as the native TSV the CLIs write.
pub fn tsv_bytes(log: &SearchLog) -> Vec<u8> {
    let mut buf = Vec::new();
    dpsan_searchlog::io::write_tsv(log, &mut buf).expect("writing to memory cannot fail");
    buf
}

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
