//! `sweep_small`: the researcher's `repro` sweep. One O-UMP
//! `UmpSanitizer` (so one shared `SolveSession`) releases the
//! `aol_small` log on 20 (e^ε, δ) cells, e^ε-major.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dpsan_core::constraints::PrivacyConstraints;
use dpsan_core::error::CoreError;
use dpsan_core::mechanism::{Sanitizer, UmpSanitizer, UtilityObjective};
use dpsan_core::sampling::sample_output;
use dpsan_core::session::SolveSession;
use dpsan_core::ump::output_size::OumpOptions;
use dpsan_core::ump::verify_counts;
use dpsan_datagen::{generate, presets::aol_small};
use dpsan_dp::composition::BudgetLedger;
use dpsan_dp::multinomial::MultinomialStrategy;
use dpsan_dp::params::PrivacyParams;
use dpsan_lp::simplex::SimplexOptions;
use dpsan_searchlog::{preprocess, SearchLog};

use crate::checks;
use crate::trace::Tracer;
use crate::workload::{tsv_bytes, Ctx, Rep, Workload};

const E_EPS: [f64; 5] = [1.1, 1.4, 1.7, 2.0, 2.3];
const DELTAS: [f64; 4] = [0.01, 0.1, 0.5, 0.8];

/// The ledger label `UmpSanitizer` debits per release.
pub const SAMPLING_DEBIT: &str = "multinomial sampling (Theorem 1)";

fn cells() -> impl Iterator<Item = PrivacyParams> {
    E_EPS.iter().flat_map(|&e| DELTAS.iter().map(move |&d| PrivacyParams::from_e_epsilon(e, d)))
}

pub struct Sweep {
    log: SearchLog,
}

/// One O-UMP release composed from the stage functions that
/// `UmpSanitizer::sanitize_into` runs, each under its own span.
/// Returns the preprocessed reference, the released counts and the
/// sampled output.
pub fn compose_oump(
    t: &mut Tracer,
    session: &mut SolveSession,
    log: &SearchLog,
    params: PrivacyParams,
    seed: u64,
) -> Result<(SearchLog, Vec<u64>, SearchLog), CoreError> {
    let (pre, _) = t.span("searchlog.preprocess", |_| preprocess(log));
    let constraints = t.span("core.constraints", |_| PrivacyConstraints::build(&pre, params))?;
    let lp = session.lp_options().clone();
    let sol = t.span("lp.solve", |_| {
        session.solve_oump(&constraints, &OumpOptions { lp, ..Default::default() })
    })?;
    t.span("core.verify", |_| verify_counts(&constraints, &sol.counts))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let output = t.span("core.sample", |_| {
        sample_output(&mut rng, &pre, &sol.counts, MultinomialStrategy::Auto)
    });
    Ok((pre, sol.counts, output))
}

impl Workload for Sweep {
    fn setup(_ctx: &Ctx) -> Result<Self, String> {
        Ok(Sweep { log: generate(&aol_small()) })
    }

    fn run(&self, ctx: &Ctx) -> Rep {
        let mut rep = Rep::default();
        let mechanism = UmpSanitizer::new(UtilityObjective::OutputSize);
        let mut ledger = BudgetLedger::new();
        for params in cells() {
            let debits = ledger.entries().len();
            let start = Instant::now();
            let out = mechanism
                .sanitize_into(&self.log, params, ctx.seed, &mut ledger)
                .map(|r| (tsv_bytes(&r.output), r));
            rep.op(start.elapsed());
            let fails = match out {
                Ok((tsv, r)) => {
                    rep.solver(&r.solver);
                    rep.released(&r.counts, &tsv);
                    let mut f = checks::theorem1(&r.reference, params, &r.counts, &r.output);
                    f.extend(checks::schema_roundtrip(&r.output, &tsv));
                    f.extend(checks::one_debit(ledger.entries().len() - debits));
                    f.extend(checks::one_debit(r.ledger.entries().len()));
                    f
                }
                Err(e) => vec![format!("release failed: {e}")],
            };
            rep.finish_op(fails);
        }
        rep
    }

    fn run_traced(&self, ctx: &Ctx, t: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let mut session = SolveSession::new(SimplexOptions::default());
        let mut ledger = BudgetLedger::new();
        for params in cells() {
            let debits = ledger.entries().len();
            let before = session.stats();
            let start = Instant::now();
            let out = t.span("op", |t| {
                let (pre, counts, output) =
                    compose_oump(t, &mut session, &self.log, params, ctx.seed)?;
                ledger.try_spend(SAMPLING_DEBIT, params.epsilon(), params.delta())?;
                let tsv = t.span("searchlog.write", |_| tsv_bytes(&output));
                Ok::<_, CoreError>((pre, counts, output, tsv))
            });
            rep.op(start.elapsed());
            let fails = match out {
                Ok((pre, counts, output, tsv)) => {
                    rep.solver(&session.stats().delta(&before));
                    rep.released(&counts, &tsv);
                    let mut f = checks::theorem1(&pre, params, &counts, &output);
                    f.extend(checks::schema_roundtrip(&output, &tsv));
                    f.extend(checks::one_debit(ledger.entries().len() - debits));
                    f
                }
                Err(e) => vec![format!("release failed: {e}")],
            };
            rep.finish_op(fails);
        }
        rep
    }
}
