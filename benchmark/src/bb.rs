//! `bb_tiny`: D-UMP by branch & bound (`repro table7`'s tiny cap of
//! 20 000 nodes) on the `aol_tiny` log at e^ε = 2 for three δ. Two
//! cells are proven optimal; one stops at the node cap.

use std::time::Instant;

use dpsan_core::constraints::PrivacyConstraints;
use dpsan_core::ump::diversity::{solve_dump_with, DumpOptions, DumpSolver};
use dpsan_core::ump::verify_counts;
use dpsan_datagen::{generate, presets::aol_tiny};
use dpsan_dp::params::PrivacyParams;
use dpsan_lp::mip::{solve_mip, BbOptions, MipStatus};
use dpsan_lp::problem::{Problem, Sense, VarBounds};
use dpsan_lp::simplex::SimplexOptions;
use dpsan_searchlog::{preprocess, SearchLog};

use crate::trace::Tracer;
use crate::workload::{fnv1a, Ctx, Rep, Workload};

const DELTAS: [f64; 3] = [0.1, 0.2, 0.5];
const MAX_NODES: usize = 20_000;

fn cells() -> impl Iterator<Item = PrivacyParams> {
    DELTAS.iter().map(|&d| PrivacyParams::from_e_epsilon(2.0, d))
}

pub struct Bb {
    pre: SearchLog,
}

/// The packing BIP of Equation (8), as `solve_dump_with` builds it.
fn build_bip(constraints: &PrivacyConstraints) -> Problem {
    let mut p = Problem::new(Sense::Maximize);
    let cols: Vec<usize> = (0..constraints.n_pairs())
        .map(|_| {
            let j = p.add_col(1.0, VarBounds::unit()).expect("valid column");
            p.set_integer(j).expect("column exists");
            j
        })
        .collect();
    constraints.add_to_problem(&mut p, &cols);
    p
}

/// Checks on one cell's selection, shared by both paths.
fn check_cell(rep: &mut Rep, constraints: &PrivacyConstraints, counts: &[u64], retained: usize) {
    let bytes: Vec<u8> = counts.iter().map(|&c| c as u8).collect();
    rep.digests.push(fnv1a(&bytes));
    rep.add("output_size", counts.iter().sum());
    rep.add("retained_pairs", retained as u64);
    let mut f = Vec::new();
    if !constraints.satisfied_by(counts, 1e-9) {
        f.push("D-UMP selection violates Theorem 1".to_string());
    }
    if counts.iter().any(|&c| c > 1) || counts.iter().filter(|&&c| c > 0).count() != retained {
        f.push("D-UMP selection is not a 0/1 vector of `retained` pairs".to_string());
    }
    rep.finish_op(f);
}

impl Workload for Bb {
    fn setup(_ctx: &Ctx) -> Result<Self, String> {
        let (pre, _) = preprocess(&generate(&aol_tiny()));
        Ok(Bb { pre })
    }

    fn run(&self, _ctx: &Ctx) -> Rep {
        let mut rep = Rep::default();
        let opts = DumpOptions {
            solver: DumpSolver::BranchBound { max_nodes: MAX_NODES },
            lp: SimplexOptions::default(),
        };
        for params in cells() {
            let start = Instant::now();
            let out = PrivacyConstraints::build(&self.pre, params)
                .and_then(|c| solve_dump_with(&c, &opts).map(|s| (c, s)));
            rep.op(start.elapsed());
            match out {
                Ok((c, s)) => {
                    rep.add("mip.proven_optimal", u64::from(s.proven_optimal));
                    check_cell(&mut rep, &c, &s.counts, s.retained);
                }
                Err(e) => rep.finish_op(vec![format!("D-UMP solve failed: {e}")]),
            }
        }
        rep
    }

    fn run_traced(&self, _ctx: &Ctx, t: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let bb =
            BbOptions { max_nodes: MAX_NODES, lp: SimplexOptions::default(), ..Default::default() };
        for params in cells() {
            let start = Instant::now();
            let out = t.span("op", |t| {
                let c = t
                    .span("core.constraints", |_| PrivacyConstraints::build(&self.pre, params))
                    .map_err(|e| e.to_string())?;
                let p = t.span("mip.build", |_| build_bip(&c));
                let s = t.span("mip.solve", |_| solve_mip(&p, &bb));
                if !matches!(s.status, MipStatus::Optimal | MipStatus::Feasible) {
                    return Err("branch & bound found no point".to_string());
                }
                let counts: Vec<u64> = s.x.iter().map(|&v| v.round() as u64).collect();
                t.span("core.verify", |_| verify_counts(&c, &counts)).map_err(|e| e.to_string())?;
                Ok((c, s, counts))
            });
            rep.op(start.elapsed());
            match out {
                Ok((c, s, counts)) => {
                    rep.add("mip.nodes", s.nodes as u64);
                    rep.add("mip.proven_optimal", u64::from(s.status == MipStatus::Optimal));
                    let retained = counts.iter().filter(|&&v| v > 0).count();
                    check_cell(&mut rep, &c, &counts, retained);
                }
                Err(e) => rep.finish_op(vec![format!("D-UMP solve failed: {e}")]),
            }
        }
        rep
    }
}
