//! Output checks applied to every op. A failure is reported, counted
//! against its op, and never aborts the run.

use dpsan_core::constraints::PrivacyConstraints;
use dpsan_core::sampling::output_pair_counts;
use dpsan_dp::params::PrivacyParams;
use dpsan_searchlog::SearchLog;

/// Tolerance of the Theorem 1 re-check, as in the core unit tests.
const TOL: f64 = 1e-9;

/// Re-verify released LP counts against Theorem 1 and check that the
/// sampled output carries exactly those counts.
pub fn theorem1(
    reference: &SearchLog,
    params: PrivacyParams,
    counts: &[u64],
    output: &SearchLog,
) -> Vec<String> {
    let mut fails = Vec::new();
    match PrivacyConstraints::build(reference, params) {
        Ok(c) if c.satisfied_by(counts, TOL) => {}
        Ok(c) => {
            let x: Vec<f64> = counts.iter().map(|&v| v as f64).collect();
            fails.push(format!("Theorem 1 violated by {:e}", c.max_violation(&x)));
        }
        Err(e) => fails.push(format!("constraints rebuild failed: {e}")),
    }
    if output_pair_counts(reference, output) != counts {
        fails.push("sampled output does not carry the released counts".into());
    }
    fails
}

/// `write_tsv` → `read_tsv` must keep the output's size and pairs.
pub fn schema_roundtrip(output: &SearchLog, tsv: &[u8]) -> Vec<String> {
    match dpsan_searchlog::io::read_tsv(std::io::Cursor::new(tsv)) {
        Ok(back) if back.size() == output.size() && back.n_pairs() == output.n_pairs() => vec![],
        Ok(back) => vec![format!(
            "schema round trip changed the output: size {} -> {}, pairs {} -> {}",
            output.size(),
            back.size(),
            output.n_pairs(),
            back.n_pairs()
        )],
        Err(e) => vec![format!("released TSV does not parse: {e}")],
    }
}

/// Exactly one ledger debit per release.
pub fn one_debit(debits: usize) -> Vec<String> {
    if debits == 1 {
        vec![]
    } else {
        vec![format!("release debited the ledger {debits} times, expected once")]
    }
}
