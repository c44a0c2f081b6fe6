//! End-to-end pipeline test: the full Table I detection matrix.
//!
//! For each implementation, the pipeline must flag exactly the attacks
//! the paper's Table I marks for it — detected by the model checker on
//! the automatically extracted models, and confirmed on the simulated
//! testbed. The expected matrix is read from EXPERIMENTS.md's Table I,
//! so the published table and this test cannot drift apart.

use procheck::pipeline::{analyze_implementation, AnalysisConfig};
use procheck::report::PropertyOutcome;
use procheck_props::registry;
use procheck_stack::quirks::Implementation;

/// EXPERIMENTS.md, whose Table I is the matrix these tests check.
const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");

/// One row of Table I: the attack id, its detecting property, and
/// whether it fires on the closed-source reference, srsLTE and OAI.
struct Row {
    attack: String,
    property: String,
    fires: [bool; 3],
}

/// The nine `P`/`I` rows of EXPERIMENTS.md's Table I, parsed from its
/// Markdown: `| id | attack | property | closed | srsLTE | OAI | paper |`,
/// where `●` marks a stack the attack succeeds on and `○` one it does
/// not.
fn matrix() -> Vec<Row> {
    let table = EXPERIMENTS
        .split("## Table I — attack matrix")
        .nth(1)
        .expect("EXPERIMENTS.md has a Table I section");
    let rows: Vec<Row> = table
        .lines()
        .take_while(|line| !line.starts_with("## "))
        .filter_map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            // A table row splits into an empty cell, seven cells and an
            // empty cell.
            let [_, id, _, property, closed, srs, oai, _, _] = cells[..] else {
                return None;
            };
            let mut chars = id.chars();
            let numbered =
                matches!(chars.next(), Some('P' | 'I')) && chars.as_str().parse::<u32>().is_ok();
            let dot = |cell: &str| match cell {
                "●" => true,
                "○" => false,
                other => panic!("{id}: `{other}` is neither ● nor ○"),
            };
            numbered.then(|| Row {
                attack: id.to_string(),
                property: property.to_string(),
                fires: [dot(closed), dot(srs), dot(oai)],
            })
        })
        .collect();
    assert_eq!(
        rows.len(),
        9,
        "Table I lists P1–P3 and I1–I6: {:?}",
        rows.iter().map(|r| &r.attack).collect::<Vec<_>>()
    );
    rows
}

fn flagged(outcome: &PropertyOutcome) -> bool {
    matches!(
        outcome,
        PropertyOutcome::Attack(_)
            | PropertyOutcome::GoalReachable(_)
            | PropertyOutcome::Distinguishable(_)
    )
}

fn run_matrix(implementation: Implementation, expected_col: usize) {
    let matrix = matrix();
    let ids: Vec<&'static str> = matrix
        .iter()
        .map(|row| {
            registry()
                .into_iter()
                .find(|p| p.id == row.property)
                .unwrap_or_else(|| panic!("{}: no property {}", row.attack, row.property))
                .id
        })
        .collect();
    let report = analyze_implementation(
        implementation,
        &AnalysisConfig {
            property_filter: Some(ids),
            ..AnalysisConfig::default()
        },
    );
    for row in &matrix {
        let expected = row.fires[expected_col];
        let r = report
            .result(&row.property)
            .unwrap_or_else(|| panic!("{} missing", row.property));
        assert_eq!(
            flagged(&r.outcome),
            expected,
            "{}/{} on {}: outcome {} (expected flagged={expected})",
            row.attack,
            row.property,
            implementation.name(),
            r.outcome.tag()
        );
    }
}

#[test]
fn table1_matrix_reference() {
    run_matrix(Implementation::Reference, 0);
}

#[test]
fn table1_matrix_srs() {
    run_matrix(Implementation::Srs, 1);
}

#[test]
fn table1_matrix_oai() {
    run_matrix(Implementation::Oai, 2);
}

/// Every counterexample the pipeline reports must be crypto-feasible —
/// its adversarial steps validated by the CPV (zero refinements left
/// unresolved) — and standards-level attacks must be flagged on *all*
/// implementations.
#[test]
fn standards_attacks_are_implementation_independent() {
    let ids = vec!["S01", "S19", "S21", "S22", "S24", "S29"];
    let mut per_impl = Vec::new();
    for imp in [
        Implementation::Reference,
        Implementation::Srs,
        Implementation::Oai,
    ] {
        let report = analyze_implementation(
            imp,
            &AnalysisConfig {
                property_filter: Some(ids.clone()),
                ..AnalysisConfig::default()
            },
        );
        let flagged_ids: Vec<&str> = report
            .results
            .iter()
            .filter(|r| flagged(&r.outcome))
            .map(|r| r.property_id)
            .collect();
        per_impl.push(flagged_ids);
    }
    assert_eq!(per_impl[0], per_impl[1], "reference vs srs");
    assert_eq!(per_impl[1], per_impl[2], "srs vs oai");
    assert_eq!(
        per_impl[0].len(),
        ids.len(),
        "all standards-level attacks fire"
    );
}

/// The paper's summary numbers: 62 properties split 37/25; the reference
/// implementation yields only standards-level findings, the buggy
/// profiles add implementation-specific ones.
#[test]
fn finding_classification_split() {
    let cfg = AnalysisConfig::default();
    let reference = analyze_implementation(Implementation::Reference, &cfg);
    assert_eq!(reference.results.len(), 62);
    assert!(
        reference
            .results
            .iter()
            .filter(|r| r.is_finding())
            .all(|r| !r.is_implementation_finding()),
        "a conformant stack has no implementation-specific findings"
    );

    let srs = analyze_implementation(Implementation::Srs, &cfg);
    let srs_impl: Vec<&str> = srs
        .results
        .iter()
        .filter(|r| r.is_implementation_finding())
        .map(|r| r.property_id)
        .collect();
    assert!(
        !srs_impl.is_empty(),
        "srsUE has implementation findings: {srs_impl:?}"
    );
    assert!(srs_impl.contains(&"S13"), "I4 flagged: {srs_impl:?}");
}
