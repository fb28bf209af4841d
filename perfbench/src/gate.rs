//! The correctness gate: the paper's claims as each timed result must
//! show them.  A check returns `Err` with the reason when a result breaks
//! a claim; equality with an in-process reference fold is checked by the
//! workloads themselves.

use sweep::experiments::{Fig4Row, Prop2Report, Thm1Case, Thm3Row};

/// Theorem 1: `(n, t, k, adversaries)` of the built-in scopes, every
/// violation and "beaten" column zero.
pub const THM1_GOLDEN: [(usize, usize, usize, u128); 4] =
    [(3, 1, 1, 200), (4, 2, 1, 25_616), (4, 2, 2, 129_681), (5, 2, 2, 12_393)];

/// The omission scan: `(n, t, k, adversaries, correctness violations)`;
/// nonzero violations are the expected data of the send-omission model.
pub const OMISSION_GOLDEN: [(usize, usize, usize, u128, u64); 2] =
    [(3, 1, 1, 800, 27), (4, 1, 1, 13_456, 84)];

fn fail(message: String) -> Result<(), String> {
    Err(message)
}

/// Theorem 1 rows: the golden scopes, all zeros.
pub fn thm1(rows: &[Thm1Case]) -> Result<(), String> {
    if rows.len() != THM1_GOLDEN.len() {
        return fail(format!("thm1: {} rows, expected {}", rows.len(), THM1_GOLDEN.len()));
    }
    for (row, &(n, t, k, adversaries)) in rows.iter().zip(&THM1_GOLDEN) {
        let shape = (row.n, row.t, row.k, row.adversaries);
        if shape != (n, t, k, adversaries)
            || row.correctness_violations != 0
            || row.beaten_by != 0
            || row.structure_violations != 0
        {
            return fail(format!("thm1: row {row:?} breaks the golden table"));
        }
    }
    Ok(())
}

/// Omission rows: exactly 27 and 84 correctness violations, nothing else.
pub fn omission(rows: &[Thm1Case]) -> Result<(), String> {
    if rows.len() != OMISSION_GOLDEN.len() {
        return fail(format!("omission: {} rows, expected {}", rows.len(), OMISSION_GOLDEN.len()));
    }
    for (row, &(n, t, k, adversaries, violations)) in rows.iter().zip(&OMISSION_GOLDEN) {
        let shape = (row.n, row.t, row.k, row.adversaries, row.correctness_violations);
        if shape != (n, t, k, adversaries, violations)
            || row.beaten_by != 0
            || row.structure_violations != 0
        {
            return fail(format!("omission: row {row:?} breaks the golden table"));
        }
    }
    Ok(())
}

/// Proposition 2: no counterexample, and a connected star and link in the
/// targeted analysis.
pub fn prop2(report: &Prop2Report) -> Result<(), String> {
    if report.exhaustive.is_empty()
        || report.exhaustive.iter().any(|row| row.counterexamples != 0)
        || !report.targeted.star_connected
        || !report.targeted.link_connected
    {
        return fail(format!("prop2: report {report:?} shows a counterexample"));
    }
    Ok(())
}

/// Theorem 3: no uniform violation, and every worst decision time within
/// the bound `min{⌊t/k⌋ + 1, ⌊f/k⌋ + 2}`.
pub fn thm3(rows: &[Thm3Row]) -> Result<(), String> {
    if rows.is_empty() {
        return fail("thm3: no rows".into());
    }
    match rows.iter().find(|row| row.violations != 0 || row.worst > row.bound) {
        Some(row) => fail(format!("thm3: row {row:?} breaks Theorem 3")),
        None => Ok(()),
    }
}

/// Fig. 4: `u-Pmin[k]` decides at time 2 on every point, FloodMin only at
/// `⌊t/k⌋ + 1`, with no uniform violation.
pub fn fig4(rows: &[Fig4Row]) -> Result<(), String> {
    if rows.is_empty() {
        return fail("fig4: no rows".into());
    }
    let broken = rows.iter().find(|row| {
        row.latest[0] != 2 || row.latest[3] as usize != row.t / row.k + 1 || row.violations != 0
    });
    match broken {
        Some(row) => fail(format!("fig4: row {row:?} breaks the uniform gap")),
        None => Ok(()),
    }
}

/// `Ok` when `actual == reference`, naming `what` otherwise.
pub fn same<T: PartialEq + std::fmt::Debug>(
    what: &str,
    actual: &T,
    reference: &T,
) -> Result<(), String> {
    if actual == reference {
        Ok(())
    } else {
        fail(format!("{what}: {actual:?} differs from the reference {reference:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden_thm1() -> Vec<Thm1Case> {
        THM1_GOLDEN
            .iter()
            .map(|&(n, t, k, adversaries)| Thm1Case {
                n,
                t,
                k,
                adversaries,
                correctness_violations: 0,
                beaten_by: 0,
                structure_violations: 0,
            })
            .collect()
    }

    #[test]
    fn the_thm1_gate_accepts_the_golden_table_only() {
        let mut rows = golden_thm1();
        assert!(thm1(&rows).is_ok());
        rows[2].structure_violations = 1;
        assert!(thm1(&rows).is_err());
        let mut rows = golden_thm1();
        rows[3].adversaries -= 1;
        assert!(thm1(&rows).is_err());
        assert!(thm1(&golden_thm1()[..3]).is_err());
    }

    #[test]
    fn the_omission_gate_pins_both_violation_counts() {
        let mut rows: Vec<Thm1Case> = OMISSION_GOLDEN
            .iter()
            .map(|&(n, t, k, adversaries, violations)| Thm1Case {
                n,
                t,
                k,
                adversaries,
                correctness_violations: violations,
                beaten_by: 0,
                structure_violations: 0,
            })
            .collect();
        assert!(omission(&rows).is_ok());
        rows[1].correctness_violations = 0;
        assert!(omission(&rows).is_err());
    }

    #[test]
    fn the_thm3_gate_rejects_a_late_decision() {
        let row = Thm3Row { n: 8, t: 5, k: 2, f: 2, runs: 1, worst: 3, bound: 3, violations: 0 };
        assert!(thm3(std::slice::from_ref(&row)).is_ok());
        assert!(thm3(&[Thm3Row { worst: 4, ..row.clone() }]).is_err());
        assert!(thm3(&[Thm3Row { violations: 1, ..row }]).is_err());
        assert!(thm3(&[]).is_err());
    }

    #[test]
    fn the_fig4_gate_needs_the_gap() {
        let row = Fig4Row { k: 2, t: 8, n: 11, bound: 5, latest: [2, 2, 5, 5], violations: 0 };
        assert!(fig4(std::slice::from_ref(&row)).is_ok());
        assert!(fig4(&[Fig4Row { latest: [3, 2, 5, 5], ..row.clone() }]).is_err());
        assert!(fig4(&[Fig4Row { latest: [2, 2, 5, 4], ..row }]).is_err());
    }
}
