//! Renderers turning the `sweep::experiments` result structs into the
//! plain-text tables the `sweep` CLI prints.
//!
//! The one-shot and daemon paths of the CLI both go through these
//! functions, so their output is byte-identical for the same fold data.

use sweep::experiments::{Fig4Row, Prop2Report, Thm1Case, Thm3Row};

use crate::Table;

/// The paper-claim trailer of the Theorem 1 experiment.
pub const THM1_CLAIM: &str =
    "Paper claim (Theorem 1): Optmin[k] is unbeatable — no protocol solving nonuniform k-set\n\
     consensus can have any process decide earlier in any run without another process deciding\n\
     later elsewhere.  The exhaustive checks above verify the implemented competitors never\n\
     beat it and that it decides exactly when the hidden-capacity condition first allows.";

/// Renders the Theorem 1 rows.
pub fn thm1_table(rows: &[Thm1Case]) -> Table {
    let mut table = Table::new(
        "E7 / Theorem 1 — exhaustive small-system unbeatability spot-checks for Optmin[k]",
        &[
            "n",
            "t",
            "k",
            "adversaries",
            "correctness violations",
            "competitors beating Optmin",
            "Lemma-3 structure violations",
        ],
    );
    for row in rows {
        table.push(&[
            row.n.to_string(),
            row.t.to_string(),
            row.k.to_string(),
            row.adversaries.to_string(),
            row.correctness_violations.to_string(),
            row.beaten_by.to_string(),
            row.structure_violations.to_string(),
        ]);
    }
    table
}

/// The trailer of the omission scan.  Unlike the theorem trailers this
/// states an *observation*: the paper proves its claims in the crash
/// model only, so the omission columns are measured data, not predictions
/// — nonzero correctness violations are the expected honest outcome for
/// crash-model protocols under send omissions.
pub const OMISSION_CLAIM: &str =
    "Beyond the paper (omission scan): the Theorem 1 fold re-run over the exhaustive mobile\n\
     send-omission space.  The paper's unbeatability claims are proved for crashes only;\n\
     these columns measure how the crash-model protocols fare when faulty senders stay alive\n\
     and silently drop messages — correctness violations are expected, not a regression.";

/// Renders the omission-scan rows (the Theorem 1 row shape over the
/// send-omission space).
pub fn omission_table(rows: &[Thm1Case]) -> Table {
    let mut table = Table::new(
        "Omission scan — the Theorem 1 fold over the exhaustive mobile send-omission space",
        &[
            "n",
            "t",
            "k",
            "adversaries",
            "correctness violations",
            "competitors beating Optmin",
            "Lemma-3 structure violations",
        ],
    );
    for row in rows {
        table.push(&[
            row.n.to_string(),
            row.t.to_string(),
            row.k.to_string(),
            row.adversaries.to_string(),
            row.correctness_violations.to_string(),
            row.beaten_by.to_string(),
            row.structure_violations.to_string(),
        ]);
    }
    table
}

/// The paper-claim trailer of the Theorem 3 experiment.
pub const THM3_CLAIM: &str =
    "Paper claim (Theorem 3): u-Pmin[k] solves uniform k-set consensus and every process\n\
     decides by min{⌊t/k⌋ + 1, ⌊f/k⌋ + 2}.";

/// Renders the Theorem 3 rows.
pub fn thm3_table(rows: &[Thm3Row]) -> Table {
    let mut table = Table::new(
        "E6 / Theorem 3 — u-Pmin[k] decision times vs the min{⌊t/k⌋+1, ⌊f/k⌋+2} bound",
        &["n", "t", "k", "f", "runs", "worst decision time", "bound", "violations"],
    );
    for row in rows {
        table.push(&[
            row.n.to_string(),
            row.t.to_string(),
            row.k.to_string(),
            row.f.to_string(),
            row.runs.to_string(),
            row.worst.to_string(),
            row.bound.to_string(),
            row.violations.to_string(),
        ]);
    }
    table
}

/// The paper-claim trailer of the Fig. 4 experiment.
pub const FIG4_CLAIM: &str =
    "Paper claim (Fig. 4, §5): there are runs in which all previously known uniform protocols\n\
     decide only at ⌊t/k⌋ + 1 while every process decides by time 2 in u-Pmin[k] — an\n\
     unbounded improvement as t grows.";

/// Renders the Fig. 4 rows.
pub fn fig4_table(rows: &[Fig4Row]) -> Table {
    let mut table = Table::new(
        "E4 / Fig. 4 — latest correct decision time on the uniform-gap adversary family",
        &[
            "k",
            "t",
            "n",
            "⌊t/k⌋+1",
            "u-Pmin[k]",
            "Optmin[k]",
            "EarlyUniformFloodMin",
            "FloodMin",
            "uniform violations",
        ],
    );
    for row in rows {
        table.push(&[
            row.k.to_string(),
            row.t.to_string(),
            row.n.to_string(),
            row.bound.to_string(),
            row.latest[0].to_string(),
            row.latest[1].to_string(),
            row.latest[2].to_string(),
            row.latest[3].to_string(),
            row.violations.to_string(),
        ]);
    }
    table
}

/// The paper-claim trailer of the Proposition 2 experiment.
pub const PROP2_CLAIM: &str =
    "Paper claim (Proposition 2): a state with hidden capacity at least k in every round has a\n\
     (k−1)-connected star complex.  The star is a cone over its link (every indistinguishable\n\
     execution contains the observer's own vertex), so the decisive structure is the richly\n\
     connected link — which is what lets the Sperner subdivision of Lemma 1's proof be mapped\n\
     onto indistinguishable executions.";

/// Renders both Proposition 2 tables (the exhaustive `k = 1` sweep and the
/// targeted `k = 2` star).
pub fn prop2_tables(report: &Prop2Report) -> (Table, Table) {
    let mut exhaustive = Table::new(
        "E9a / Proposition 2 (k = 1, exhaustive) — hidden paths imply connected stars",
        &["n", "t", "states in P_1", "states with HC >= 1", "stars connected", "counterexamples"],
    );
    for row in &report.exhaustive {
        exhaustive.push(&[
            row.n.to_string(),
            row.t.to_string(),
            row.states.to_string(),
            row.with_capacity.to_string(),
            row.connected.to_string(),
            row.counterexamples.to_string(),
        ]);
    }

    let targeted = &report.targeted;
    let mut detail = Table::new(
        "E9b / Proposition 2 (k = 2, targeted) — the star of a hidden-capacity-2 state",
        &["quantity", "value"],
    );
    detail.push(&["observer hidden capacity".to_owned(), targeted.hidden_capacity.to_string()]);
    detail.push(&["indistinguishable executions".to_owned(), targeted.executions.to_string()]);
    detail.push(&[
        "star: states / facets".to_owned(),
        format!("{} / {}", targeted.star_states, targeted.star_facets),
    ]);
    detail.push(&["star reduced Betti numbers".to_owned(), format!("{:?}", targeted.star_betti)]);
    detail.push(&["star is (k-1)-connected".to_owned(), targeted.star_connected.to_string()]);
    detail.push(&["link reduced Betti numbers".to_owned(), format!("{:?}", targeted.link_betti)]);
    detail.push(&["link is (k-2)-connected".to_owned(), targeted.link_connected.to_string()]);
    (exhaustive, detail)
}
