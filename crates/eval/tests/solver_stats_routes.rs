//! The solver stat line reads the same whether it is rendered from a
//! session's [`SessionStats`] or from the metrics registry, on both
//! kernel routes. A registry reader that missed one route's series
//! would print `solves=0` for every LP that ran on it.
//!
//! One test in its own binary: the registry is process-wide, so no
//! other solve may run while the snapshot delta is taken.

use dpsan_core::session::SolveSession;
use dpsan_eval::stats_text::{solver_line, SolverCounters};
use dpsan_lp::problem::{Problem, RowBounds, Sense, VarBounds};
use dpsan_lp::simplex::{SimplexOptions, SolveStatus};

/// A small packing LP that needs a few pivots on either route.
fn packing(rhs: f64) -> Problem {
    let mut p = Problem::new(Sense::Maximize);
    let cols: Vec<usize> =
        (0..6).map(|j| p.add_col(1.0 + 0.1 * j as f64, VarBounds::unit()).unwrap()).collect();
    for r in 0..4 {
        let entries: Vec<(usize, f64)> =
            cols.iter().map(|&j| (j, 0.2 + 0.1 * ((j + r) % 4) as f64)).collect();
        p.add_row(RowBounds::at_most(rhs), &entries).unwrap();
    }
    p
}

#[test]
fn stat_line_from_session_equals_stat_line_from_registry_on_both_routes() {
    for sparse in [true, false] {
        let before = dpsan_obs::global().snapshot();
        let mut session =
            SolveSession::new(SimplexOptions { sparse: Some(sparse), ..Default::default() });
        for rhs in [0.8, 1.2, 0.5] {
            assert_eq!(session.solve(&packing(rhs)).unwrap().status, SolveStatus::Optimal);
        }
        let delta = dpsan_obs::global().snapshot().delta(&before);

        let from_session = SolverCounters::from(&session.stats());
        let from_registry = SolverCounters::from_snapshot(&delta);
        assert_eq!(from_session.solves, 3, "sparse={sparse}");
        assert!(from_session.iterations > 0, "sparse={sparse}");
        assert_eq!(solver_line(&from_registry), solver_line(&from_session), "sparse={sparse}");
        let route = if sparse { "sparse" } else { "dense" };
        assert_eq!(delta.counter(&format!("dpsan_solves_total{{route=\"{route}\"}}")), 3);
    }
}
