//! Counted solve sessions.
//!
//! The evaluation workload (Tables 4–6, Figures 3–4) solves one LP per
//! `(ε, δ)` cell of a grid. A [`SolveSession`] holds the LP options those
//! solves share and counts what they cost in [`SessionStats`], mirrored
//! into the process-wide metrics registry.
//!
//! Every solve is the cold two-phase primal simplex of
//! [`dpsan_lp::simplex`]: nothing carries over from one solve to the
//! next, so a session's answer to a problem is the same as a fresh
//! session's — whatever it solved before. Releases are therefore a
//! function of the problem alone, by construction.

use dpsan_lp::error::LpError;
use dpsan_lp::problem::Problem;
use dpsan_lp::simplex::{solve_with_stats, SimplexOptions, Solution};

/// Counters describing how a session's solves went.
///
/// Every solve is cold, so `cold_starts == solves` always holds and the
/// four warm/dual counters always read 0. They stay because the
/// repository benchmark (`benchmark/`) reads all eight fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Total solves issued through the session.
    pub solves: usize,
    /// Always 0: no solve is seeded from an earlier basis. Kept for
    /// `benchmark/`, which reads it.
    pub warm_starts: usize,
    /// Always 0: there is no dual reoptimization. Kept for
    /// `benchmark/`, which reads it.
    pub dual_reopts: usize,
    /// Solves that ran the full two-phase primal from scratch (all of
    /// them).
    pub cold_starts: usize,
    /// Always 0: there is no dual path to fall back from. Kept for
    /// `benchmark/`, which reads it.
    pub dual_fallbacks: usize,
    /// Always 0: there is no warm answer to discard. Kept for
    /// `benchmark/`, which reads it.
    pub degenerate_fallbacks: usize,
    /// Simplex iterations summed over all solves.
    pub iterations: usize,
    /// Basis (re)factorizations summed over all solves.
    pub refactorizations: usize,
}

impl SessionStats {
    /// Accumulate another stats block into this one (used to aggregate
    /// per-shard sessions into experiment-wide totals).
    pub fn merge(&mut self, other: &SessionStats) {
        self.solves += other.solves;
        self.warm_starts += other.warm_starts;
        self.dual_reopts += other.dual_reopts;
        self.cold_starts += other.cold_starts;
        self.dual_fallbacks += other.dual_fallbacks;
        self.degenerate_fallbacks += other.degenerate_fallbacks;
        self.iterations += other.iterations;
        self.refactorizations += other.refactorizations;
    }

    /// Warm primal starts: `warm_starts - dual_reopts`, always 0. Kept
    /// for `benchmark/`, which reads it.
    pub fn warm_primal(&self) -> usize {
        self.warm_starts - self.dual_reopts
    }

    /// The counter increments since `before` (a snapshot of the same
    /// monotone session). Used to attribute per-release solver work
    /// when a session spans several releases.
    pub fn delta(&self, before: &SessionStats) -> SessionStats {
        SessionStats {
            solves: self.solves - before.solves,
            warm_starts: self.warm_starts - before.warm_starts,
            dual_reopts: self.dual_reopts - before.dual_reopts,
            cold_starts: self.cold_starts - before.cold_starts,
            dual_fallbacks: self.dual_fallbacks - before.dual_fallbacks,
            degenerate_fallbacks: self.degenerate_fallbacks - before.degenerate_fallbacks,
            iterations: self.iterations - before.iterations,
            refactorizations: self.refactorizations - before.refactorizations,
        }
    }
}

/// LP options plus the counters of every solve run with them.
#[derive(Debug, Clone)]
pub struct SolveSession {
    lp: SimplexOptions,
    stats: SessionStats,
}

impl SolveSession {
    /// New session with the given LP options and zeroed counters.
    pub fn new(lp: SimplexOptions) -> SolveSession {
        SolveSession { lp, stats: SessionStats::default() }
    }

    /// The LP options every solve of this session uses.
    pub fn lp_options(&self) -> &SimplexOptions {
        &self.lp
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Solve `problem` cold with the session's LP options and count it.
    pub fn solve(&mut self, problem: &Problem) -> Result<Solution, LpError> {
        let (solution, run) = solve_with_stats(problem, &self.lp)?;
        // every increment mirrors into the process-wide registry so the
        // exported series and this session's stats agree by construction
        self.stats.solves += 1;
        self.stats.cold_starts += 1;
        self.stats.iterations += run.iterations;
        self.stats.refactorizations += run.refactorizations;
        crate::obs::solves_total(run.sparse).inc();
        crate::obs::iterations_total().add(run.iterations as u64);
        crate::obs::refactorizations_total().add(run.refactorizations as u64);
        Ok(solution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsan_lp::problem::{RowBounds, Sense, VarBounds};
    use dpsan_lp::simplex::SolveStatus;

    /// `max x0 + x1` over one shared row: the optimal face is the whole
    /// segment `x0 + x1 = rhs`, so any solve that carried state from an
    /// earlier one could land on a different corner.
    fn flat(rhs: f64) -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_col(1.0, VarBounds { lower: 0.0, upper: 10.0 }).unwrap();
        let b = p.add_col(1.0, VarBounds { lower: 0.0, upper: 10.0 }).unwrap();
        p.add_row(RowBounds::at_most(rhs), &[(a, 1.0), (b, 1.0)]).unwrap();
        p
    }

    #[test]
    fn sweep_answers_match_fresh_sessions_and_every_solve_is_cold() {
        let mut s = SolveSession::new(SimplexOptions::default());
        for rhs in [9.0, 7.0, 5.0, 3.0, 8.0] {
            let swept = s.solve(&flat(rhs)).unwrap();
            let fresh = SolveSession::new(SimplexOptions::default()).solve(&flat(rhs)).unwrap();
            assert_eq!(swept.status, SolveStatus::Optimal);
            assert!((swept.objective - rhs).abs() < 1e-9);
            assert_eq!(swept.x, fresh.x, "rhs={rhs}: history leaked into the vertex");
        }
        let st = s.stats();
        assert_eq!(st.solves, 5);
        assert_eq!(st.cold_starts, st.solves, "{st:?}");
        assert_eq!(st.warm_starts + st.dual_reopts + st.dual_fallbacks, 0, "{st:?}");
        assert_eq!(st.degenerate_fallbacks, 0, "{st:?}");
    }

    #[test]
    fn stats_merge_adds_fieldwise() {
        let mut a = SessionStats {
            solves: 1,
            warm_starts: 1,
            dual_reopts: 1,
            cold_starts: 0,
            dual_fallbacks: 0,
            degenerate_fallbacks: 0,
            iterations: 5,
            refactorizations: 2,
        };
        let b = SessionStats {
            solves: 2,
            warm_starts: 0,
            dual_reopts: 0,
            cold_starts: 2,
            dual_fallbacks: 1,
            degenerate_fallbacks: 1,
            iterations: 11,
            refactorizations: 3,
        };
        a.merge(&b);
        assert_eq!(a.solves, 3);
        assert_eq!(a.iterations, 16);
        assert_eq!(a.refactorizations, 5);
        assert_eq!(a.dual_fallbacks, 1);
        assert_eq!(a.degenerate_fallbacks, 1);
        assert_eq!(a.warm_primal(), 0);
        assert_eq!(a.delta(&b).solves, 1);
    }
}
