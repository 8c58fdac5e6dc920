//! `release_medium`: the publisher's one-shot `sanitize` run. Stream
//! the spooled `aol_medium` TSV through `ingest_path`, preprocess,
//! release with O-UMP (994 rows: the sparse LP route) and write the
//! output file.

use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

use dpsan_core::error::CoreError;
use dpsan_core::mechanism::{Sanitizer, UmpSanitizer, UtilityObjective};
use dpsan_core::session::SolveSession;
use dpsan_datagen::{presets::aol_medium, write_log_file};
use dpsan_dp::composition::BudgetLedger;
use dpsan_dp::params::PrivacyParams;
use dpsan_lp::simplex::SimplexOptions;
use dpsan_searchlog::{preprocess, SearchLog};
use dpsan_stream::ingest_path;

use crate::checks;
use crate::sweep::{compose_oump, SAMPLING_DEBIT};
use crate::trace::Tracer;
use crate::workload::{stream_config, Ctx, Rep, Workload};

/// The `sanitize` CLI's default cell.
fn params() -> PrivacyParams {
    PrivacyParams::from_e_epsilon(2.0, 0.5)
}

pub struct Release {
    input: PathBuf,
    output: PathBuf,
}

/// Write `log` to `path` the way `sanitize --out` does.
fn write_output(log: &SearchLog, path: &PathBuf) -> Result<(), Box<dyn std::error::Error>> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    dpsan_searchlog::io::write_tsv(log, &mut w)?;
    w.flush()?;
    Ok(())
}

impl Release {
    /// Checks on the written file, shared by both paths.
    fn check(
        &self,
        rep: &mut Rep,
        reference: &SearchLog,
        counts: &[u64],
        output: &SearchLog,
        debits: usize,
    ) -> Vec<String> {
        let tsv = match std::fs::read(&self.output) {
            Ok(b) => b,
            Err(e) => return vec![format!("output file unreadable: {e}")],
        };
        rep.released(counts, &tsv);
        let mut f = checks::theorem1(reference, params(), counts, output);
        f.extend(checks::schema_roundtrip(output, &tsv));
        f.extend(checks::one_debit(debits));
        f
    }
}

impl Workload for Release {
    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let input = ctx.work_dir.join("aol_medium.tsv");
        write_log_file(&aol_medium(), &input).map_err(|e| format!("spooling input: {e}"))?;
        Ok(Release { input, output: ctx.work_dir.join("release_medium.tsv") })
    }

    fn run(&self, ctx: &Ctx) -> Rep {
        let mut rep = Rep::default();
        let mut ledger = BudgetLedger::new();
        let start = Instant::now();
        let out = (|| -> Result<_, Box<dyn std::error::Error>> {
            let ingested = ingest_path(&self.input, &stream_config())?;
            let (pre, _) = preprocess(&ingested.log);
            let mechanism = UmpSanitizer::new(UtilityObjective::OutputSize);
            let release = mechanism.sanitize_into(&pre, params(), ctx.seed, &mut ledger)?;
            write_output(&release.output, &self.output)?;
            Ok((ingested.report.rows, release))
        })();
        rep.op(start.elapsed());
        let fails = match out {
            Ok((rows, r)) => {
                rep.add("stream.rows", rows);
                rep.solver(&r.solver);
                let debits = r.ledger.entries().len();
                let mut f = self.check(&mut rep, &r.reference, &r.counts, &r.output, debits);
                f.extend(checks::one_debit(ledger.entries().len()));
                f
            }
            Err(e) => vec![format!("release failed: {e}")],
        };
        rep.finish_op(fails);
        rep
    }

    fn run_traced(&self, ctx: &Ctx, t: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let mut session = SolveSession::new(SimplexOptions::default());
        let mut ledger = BudgetLedger::new();
        let start = Instant::now();
        let out = t.span("op", |t| -> Result<_, Box<dyn std::error::Error>> {
            let ingested =
                t.span("stream.ingest", |_| ingest_path(&self.input, &stream_config()))?;
            let (raw_pre, _) = t.span("searchlog.preprocess", |_| preprocess(&ingested.log));
            let (pre, counts, output) =
                compose_oump(t, &mut session, &raw_pre, params(), ctx.seed)?;
            ledger
                .try_spend(SAMPLING_DEBIT, params().epsilon(), params().delta())
                .map_err(CoreError::from)?;
            t.span("searchlog.write", |_| write_output(&output, &self.output))?;
            Ok((ingested.report.rows, pre, counts, output))
        });
        rep.op(start.elapsed());
        let fails = match out {
            Ok((rows, pre, counts, output)) => {
                rep.add("stream.rows", rows);
                rep.solver(&session.stats());
                self.check(&mut rep, &pre, &counts, &output, ledger.entries().len())
            }
            Err(e) => vec![format!("release failed: {e}")],
        };
        rep.finish_op(fails);
        rep
    }
}
