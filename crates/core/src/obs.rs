//! Solver telemetry handles.
//!
//! | series | type | meaning |
//! |---|---|---|
//! | `dpsan_solves_total{route=...}` | counter | solves by the kernel route the LP layer ran them on: `dense` or `sparse` |
//! | `dpsan_solve_iterations_total` | counter | simplex iterations |
//! | `dpsan_solve_refactorizations_total` | counter | basis (re)factorizations |
//!
//! These mirror [`crate::SessionStats`] one-for-one: every increment in
//! `SolveSession::solve` lands in both the per-session struct and the
//! process-wide registry, so a stats line rendered from either source
//! agrees with the other by construction. Every solve is cold, so the
//! two routes summed equal both `solves` and `cold_starts`.

use dpsan_obs::{global, Counter};
use std::sync::OnceLock;

/// Solves that ran on the sparse (`true`) or dense (`false`) kernel
/// route. Handles are cached per route so the hot solve loop never
/// touches the registry lock.
pub fn solves_total(sparse: bool) -> &'static Counter {
    static DENSE: OnceLock<Counter> = OnceLock::new();
    static SPARSE: OnceLock<Counter> = OnceLock::new();
    let (cache, route) = if sparse { (&SPARSE, "sparse") } else { (&DENSE, "dense") };
    cache.get_or_init(|| global().counter_with("dpsan_solves_total", "route", route))
}

/// Simplex iterations summed over all solves.
pub fn iterations_total() -> &'static Counter {
    static H: OnceLock<Counter> = OnceLock::new();
    H.get_or_init(|| global().counter("dpsan_solve_iterations_total"))
}

/// Basis (re)factorizations summed over all solves.
pub fn refactorizations_total() -> &'static Counter {
    static H: OnceLock<Counter> = OnceLock::new();
    H.get_or_init(|| global().counter("dpsan_solve_refactorizations_total"))
}
