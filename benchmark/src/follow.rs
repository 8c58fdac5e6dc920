//! `follow_zealous`: the operator's `sanitize --follow` service,
//! replayed durably. The spooled `aol_medium` log is cut into 48
//! appended chunks; each goes through the calls `dpsan_serve::serve`
//! makes, in its order: WAL append, feed, checkpoint every 4 096
//! rows, `release_now`, `write_tsv`, `record_release`, publish. The
//! mechanism is ZEALOUS, so no LP runs; the store is real files with
//! fsync.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dpsan_core::error::CoreError;
use dpsan_core::mechanism::{
    zealous_plan, Sanitizer, TriggerPolicy, ZealousOptions, ZealousSanitizer,
};
use dpsan_datagen::{presets::aol_medium, write_log_file};
use dpsan_dp::composition::BudgetLedger;
use dpsan_dp::params::PrivacyParams;
use dpsan_searchlog::{preprocess, SearchLog, SearchLogBuilder};
use dpsan_serve::{ServeError, ServeSession};
use dpsan_store::{DiskIo, DurableStore, StoreConfig, StoreIo};
use dpsan_stream::{ingest_path, IngestSession};

use crate::checks;
use crate::trace::Tracer;
use crate::workload::{stream_config, tsv_bytes, Ctx, Rep, Workload};

/// Appended chunks per run.
const CHUNKS: usize = 48;
/// Checkpoint cadence of the store, in rows.
const CHECKPOINT_ROWS: u64 = 4096;
/// The ledger label ZEALOUS debits per release.
const ZEALOUS_DEBIT: &str = "ZEALOUS noisy-threshold release";

fn params() -> PrivacyParams {
    PrivacyParams::from_e_epsilon(2.0, 0.5)
}

/// `sanitize --follow --mechanism zealous` defaults.
fn options() -> ZealousOptions {
    ZealousOptions { contribution_cap: 8, coarse_threshold: 2, candidates: None }
}

/// [`DiskIo`] plus a count of the bytes the store writes.
#[derive(Default)]
struct CountingIo {
    bytes: AtomicU64,
}

impl StoreIo for CountingIo {
    fn append(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        DiskIo.append(path, bytes)
    }
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        DiskIo.write_atomic(path, bytes)
    }
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        DiskIo.create_dir_all(path)
    }
    fn remove_all(&self, path: &Path) -> std::io::Result<()> {
        DiskIo.remove_all(path)
    }
    fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()> {
        DiskIo.truncate(path, len)
    }
}

pub struct Follow {
    input: PathBuf,
    bytes: Vec<u8>,
    /// End offset of each chunk; chunks end on line boundaries.
    cuts: Vec<usize>,
    dir: PathBuf,
}

/// Cut `bytes` into `n` chunks of near-equal size, each ending on a
/// newline.
fn cut_lines(bytes: &[u8], n: usize) -> Vec<usize> {
    let mut cuts = Vec::with_capacity(n);
    let mut prev = 0;
    for i in 1..=n {
        let target = (bytes.len() * i / n).max(prev);
        let end = match bytes[target..].iter().position(|&b| b == b'\n') {
            Some(p) if i < n => target + p + 1,
            _ => bytes.len(),
        };
        if end > prev {
            cuts.push(end);
            prev = end;
        }
    }
    cuts
}

/// Publish a release artifact as `serve` does: temp file + rename.
fn publish(out_dir: &Path, index: u64, tsv: &[u8]) -> std::io::Result<()> {
    let path = out_dir.join(format!("release-{index:04}.tsv"));
    let tmp = out_dir.join(format!(".release-{index:04}.tsv.tmp"));
    std::fs::write(&tmp, tsv)?;
    std::fs::rename(&tmp, &path)
}

/// The body of `ZealousSanitizer::sanitize_into` after its ledger
/// debit: preprocess, plan, and the aggregate output log.
fn compose_zealous(t: &mut Tracer, log: &SearchLog, seed: u64) -> (Vec<u64>, SearchLog) {
    t.span("core.mechanism", |t| {
        let (pre, _) = t.span("searchlog.preprocess", |_| preprocess(log));
        let plan = zealous_plan(&pre, params(), seed, &options());
        let mut counts = vec![0u64; pre.n_pairs()];
        let mut builder = SearchLogBuilder::with_vocabulary_of(&pre);
        for d in plan.decisions.iter().filter(|d| d.released) {
            let c = d.noisy_count.round().max(1.0) as u64;
            counts[d.pair.index()] = c;
            let (q, u) = pre.pair_key(d.pair);
            builder
                .add("*", pre.queries().resolve(q.0), pre.urls().resolve(u.0), c)
                .expect("released pair over the input vocabulary");
        }
        (counts, builder.build())
    })
}

impl Follow {
    /// A fresh store and output directory for one repetition.
    fn fresh(&self) -> Result<(Arc<CountingIo>, PathBuf, PathBuf), String> {
        if self.dir.exists() {
            std::fs::remove_dir_all(&self.dir).map_err(|e| e.to_string())?;
        }
        let out_dir = self.dir.join("out");
        std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
        Ok((Arc::new(CountingIo::default()), self.dir.join("store"), out_dir))
    }

    fn chunks(&self) -> impl Iterator<Item = (u64, &[u8])> {
        let starts = std::iter::once(0).chain(self.cuts.iter().copied());
        starts.zip(&self.cuts).map(|(s, &e)| (e as u64, &self.bytes[s..e]))
    }

    fn store_counts(&self, rep: &mut Rep, io: &CountingIo, checkpoints: u64) {
        rep.add("store.wal_appends", self.cuts.len() as u64);
        rep.add("store.checkpoints", checkpoints);
        rep.add("store.bytes_written", io.bytes.load(Ordering::Relaxed));
        rep.add("store.input_bytes", self.bytes.len() as u64);
    }
}

/// Per-release checks shared by both paths.
fn check_release(rep: &mut Rep, counts: &[u64], output: &SearchLog, tsv: &[u8], debits: usize) {
    rep.released(counts, tsv);
    let mut f = checks::schema_roundtrip(output, tsv);
    f.extend(checks::one_debit(debits));
    rep.finish_op(f);
}

impl Workload for Follow {
    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let input = ctx.work_dir.join("aol_medium_follow.tsv");
        write_log_file(&aol_medium(), &input).map_err(|e| format!("spooling input: {e}"))?;
        let bytes = std::fs::read(&input).map_err(|e| format!("reading input: {e}"))?;
        let cuts = cut_lines(&bytes, CHUNKS);
        Ok(Follow { input, bytes, cuts, dir: ctx.work_dir.join("follow") })
    }

    fn run(&self, ctx: &Ctx) -> Rep {
        let mut rep = Rep::default();
        let (io, store_dir, out_dir) = match self.fresh() {
            Ok(d) => d,
            Err(e) => {
                rep.failures.push(format!("store directory: {e}"));
                rep.failed_ops = 1;
                return rep;
            }
        };
        let store_io: Arc<dyn StoreIo> = io.clone();
        let cfg = StoreConfig { dir: store_dir, checkpoint_rows: CHECKPOINT_ROWS };
        let (mut store, _) = match rep.work(|| DurableStore::open(store_io, cfg)) {
            Ok(s) => s,
            Err(e) => {
                rep.failures.push(format!("store open: {e}"));
                rep.failed_ops = 1;
                return rep;
            }
        };
        let mut session = ServeSession::new(
            Box::new(ZealousSanitizer::with_options(options())),
            stream_config(),
            params(),
            ctx.seed,
            TriggerPolicy::every_rows(1),
            None,
        );
        let mut checkpoints = 0;
        let mut consumed = 0;
        for (offset, chunk) in self.chunks() {
            let start = Instant::now();
            let out = (|| -> Result<_, ServeError> {
                store.log_chunk(offset, chunk)?;
                let added = session.feed(chunk)?;
                if store.note_rows(added) {
                    store.checkpoint(&session.ingest_state(), offset)?;
                    checkpoints += 1;
                }
                let debits = session.ledger().entries().len();
                let release = session.release_now()?;
                let tsv = tsv_bytes(&release.output);
                let spent = session.ledger().entries()[debits..].to_vec();
                store.record_release(&spent, session.rows(), &tsv)?;
                publish(&out_dir, session.releases(), &tsv)?;
                Ok((release, tsv, spent.len()))
            })();
            rep.op(start.elapsed());
            consumed = offset;
            match out {
                Ok((r, tsv, debits)) => check_release(&mut rep, &r.counts, &r.output, &tsv, debits),
                Err(e) => {
                    rep.finish_op(vec![format!("release failed: {e}")]);
                    return rep;
                }
            }
        }
        // a clean exit checkpoints, as `serve` does
        match rep.work(|| store.checkpoint(&session.ingest_state(), consumed)) {
            Ok(()) => checkpoints += 1,
            Err(e) => rep.failures.push(format!("exit checkpoint: {e}")),
        }
        rep.add("stream.rows", session.rows());
        self.store_counts(&mut rep, &io, checkpoints);
        rep
    }

    fn run_traced(&self, ctx: &Ctx, t: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let (io, store_dir, out_dir) = match self.fresh() {
            Ok(d) => d,
            Err(e) => {
                rep.failures.push(format!("store directory: {e}"));
                rep.failed_ops = 1;
                return rep;
            }
        };
        let store_io: Arc<dyn StoreIo> = io.clone();
        let cfg = StoreConfig { dir: store_dir, checkpoint_rows: CHECKPOINT_ROWS };
        let start = Instant::now();
        let opened = t.span("store.open", |_| DurableStore::open(store_io, cfg));
        rep.work_ms += start.elapsed().as_secs_f64() * 1e3;
        let (mut store, _) = match opened {
            Ok(s) => s,
            Err(e) => {
                rep.failures.push(format!("store open: {e}"));
                rep.failed_ops = 1;
                return rep;
            }
        };
        let mut ingest = IngestSession::new(stream_config());
        let mut ledger = BudgetLedger::new();
        let mut checkpoints = 0;
        let mut consumed = 0;
        for (index, (offset, chunk)) in self.chunks().enumerate() {
            let start = Instant::now();
            let out = t.span("op", |t| -> Result<_, Box<dyn std::error::Error>> {
                t.span("store.wal", |_| store.log_chunk(offset, chunk))?;
                let added = t.span("stream.ingest", |_| ingest.ingest(chunk))?;
                if store.note_rows(added) {
                    t.span("store.checkpoint", |t| {
                        let state = t.span("stream.export", |_| ingest.export_state());
                        store.checkpoint(&state, offset)
                    })?;
                    checkpoints += 1;
                }
                let debits = ledger.entries().len();
                let (counts, output) = t.span("serve.release", |t| {
                    let snapshot = t.span("stream.snapshot", |_| ingest.snapshot());
                    ledger.try_spend(ZEALOUS_DEBIT, params().epsilon(), params().delta())?;
                    Ok::<_, CoreError>(compose_zealous(t, &snapshot.log, ctx.seed))
                })?;
                let tsv = t.span("searchlog.write", |_| tsv_bytes(&output));
                let spent = ledger.entries()[debits..].to_vec();
                t.span("store.manifest", |_| store.record_release(&spent, ingest.rows(), &tsv))?;
                t.span("serve.publish", |_| publish(&out_dir, index as u64 + 1, &tsv))?;
                Ok((counts, output, tsv, spent.len()))
            });
            rep.op(start.elapsed());
            consumed = offset;
            match out {
                Ok((counts, output, tsv, debits)) => {
                    check_release(&mut rep, &counts, &output, &tsv, debits)
                }
                Err(e) => {
                    rep.finish_op(vec![format!("release failed: {e}")]);
                    return rep;
                }
            }
        }
        let start = Instant::now();
        let exit = t.span("store.checkpoint", |t| {
            let state = t.span("stream.export", |_| ingest.export_state());
            store.checkpoint(&state, consumed)
        });
        rep.work_ms += start.elapsed().as_secs_f64() * 1e3;
        match exit {
            Ok(()) => checkpoints += 1,
            Err(e) => rep.failures.push(format!("exit checkpoint: {e}")),
        }
        rep.add("stream.rows", ingest.rows());
        self.store_counts(&mut rep, &io, checkpoints);
        rep
    }

    /// The last re-release must be byte-identical to a one-shot
    /// ZEALOUS release over the whole log with the same seed.
    fn final_checks(&self, ctx: &Ctx, _last: &Rep) -> Vec<String> {
        let last = self.dir.join("out").join(format!("release-{:04}.tsv", self.cuts.len()));
        let published = match std::fs::read(&last) {
            Ok(b) => b,
            Err(e) => return vec![format!("last release unreadable: {e}")],
        };
        let one_shot = ingest_path(&self.input, &stream_config())
            .map_err(|e| e.to_string())
            .and_then(|ingested| {
                let (pre, _) = preprocess(&ingested.log);
                ZealousSanitizer::with_options(options())
                    .sanitize(&pre, params(), ctx.seed)
                    .map_err(|e| e.to_string())
            });
        match one_shot {
            Ok(r) if tsv_bytes(&r.output) == published => vec![],
            Ok(_) => vec!["last re-release differs from the one-shot release".into()],
            Err(e) => vec![format!("one-shot reference failed: {e}")],
        }
    }
}
