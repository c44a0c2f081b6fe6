//! Budget exhaustion degrades deterministically — tier-1.
//!
//! The count-based caps ([`Budget::with_total_states`],
//! [`Budget::with_property_states`]) are probed before the wall clock,
//! so their degraded reports are bit-stable run to run: same outcomes,
//! same partial counters, no timing dependence. The wall-clock deadline
//! is only exercised at `Duration::ZERO`, where it trips on the first
//! probe regardless of machine speed.

use procheck::pipeline::{analyze_implementation, AnalysisConfig, BackendKind};
use procheck::report::PropertyOutcome;
use procheck_smv::Budget;
use procheck_stack::quirks::Implementation;
use std::time::Duration;

fn cfg(budget: Budget, ids: &[&'static str]) -> AnalysisConfig {
    AnalysisConfig {
        property_filter: Some(ids.to_vec()),
        state_limit: 2_000_000,
        threads: 1,
        budget,
        // Hermetic against an ambient PROCHECK_STORE: budget exhaustion
        // is never stored, but warm hits would skip the checks entirely.
        store_dir: None,
        // Pinned: the count-based caps bill explicit exploration work
        // (states), which the symbolic backend never performs; an
        // ambient PROCHECK_BACKEND would change what exhausts. The
        // symbolic meter integration has its own test below.
        backend: BackendKind::Explicit,
        ..AnalysisConfig::default()
    }
}

/// A tiny total-state cap degrades the affected model checks to
/// `BudgetExhausted` — and twice in a row produces byte-identical
/// outcome lines and partial exploration stats (count-based exhaustion
/// is deterministic).
#[test]
fn total_state_cap_degrades_deterministically() {
    let run = || {
        let report = analyze_implementation(
            Implementation::Reference,
            &cfg(
                Budget::unlimited().with_total_states(2_000),
                &["S01", "S02", "S03"],
            ),
        );
        assert!(
            report.degraded.budget_exhausted > 0,
            "a 2k-state budget cannot cover these slices"
        );
        assert_eq!(report.degraded.total(), report.degraded.budget_exhausted);
        report
            .results
            .iter()
            .map(|r| {
                format!(
                    "{}|{:?}|states={}|peak={}",
                    r.property_id, r.outcome, r.states_explored, r.peak_queue
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        run(),
        run(),
        "degraded outcomes and partial stats must be reproducible"
    );
}

/// The per-property state cap lowers the effective limit for every
/// check; tripping it reports `BudgetExhausted`, not the state-limit
/// skip (the run-level budget is the cause, and the report says so).
#[test]
fn property_state_cap_reports_budget_not_skip() {
    let report = analyze_implementation(
        Implementation::Reference,
        &cfg(Budget::unlimited().with_property_states(10), &["S01"]),
    );
    let r = report.result("S01").unwrap();
    let PropertyOutcome::BudgetExhausted(reason) = &r.outcome else {
        panic!("expected budget exhaustion, got {:?}", r.outcome);
    };
    assert!(reason.contains("state cap"), "{reason}");
    assert!(!r.is_finding(), "degraded outcomes are never findings");
    assert_eq!(report.degraded.budget_exhausted, 1);
}

/// A zero wall-clock deadline trips on the first budget probe: every
/// model check degrades, linkability checks (no exploration, nothing to
/// probe) still complete, and the run never aborts.
#[test]
fn zero_deadline_degrades_model_checks_but_completes_run() {
    let report = analyze_implementation(
        Implementation::Reference,
        &cfg(
            Budget::unlimited().with_deadline(Duration::ZERO),
            &["S01", "S02", "PR07"],
        ),
    );
    assert_eq!(report.results.len(), 3, "the run always completes");
    for id in ["S01", "S02"] {
        let r = report.result(id).unwrap();
        assert_eq!(r.outcome.tag(), "budget-exhausted", "{id}: {:?}", r.outcome);
    }
    assert_eq!(
        report.result("PR07").unwrap().outcome.tag(),
        "distinguishable",
        "linkability is not billed against exploration budgets"
    );
    assert_eq!(report.degraded.budget_exhausted, 2);
}

/// An unlimited budget is the default and changes nothing: clean run,
/// zero degraded outcomes, verdicts as ever.
#[test]
fn unlimited_budget_is_clean() {
    let report = analyze_implementation(
        Implementation::Reference,
        &cfg(Budget::unlimited(), &["S01", "S12", "PR07"]),
    );
    assert!(report.degraded.is_clean(), "{:?}", report.degraded);
    assert_eq!(report.result("S01").unwrap().outcome.tag(), "attack");
    assert_eq!(report.result("S12").unwrap().outcome.tag(), "verified");
}

/// The symbolic (BMC) backend honours the budget too: a zero wall-clock
/// deadline trips the meter probe at the head of every bounded check,
/// so model properties degrade to `BudgetExhausted` exactly as they do
/// on the explicit engine, and the run still completes.
#[test]
fn zero_deadline_degrades_symbolic_backend_too() {
    let mut config = cfg(
        Budget::unlimited().with_deadline(Duration::ZERO),
        &["S01", "S12", "PR07"],
    );
    config.backend = BackendKind::Symbolic;
    let report = analyze_implementation(Implementation::Reference, &config);
    assert_eq!(report.results.len(), 3, "the run always completes");
    for id in ["S01", "S12"] {
        let r = report.result(id).unwrap();
        assert_eq!(r.outcome.tag(), "budget-exhausted", "{id}: {:?}", r.outcome);
    }
    assert_eq!(
        report.result("PR07").unwrap().outcome.tag(),
        "distinguishable",
        "linkability is backend-independent and never billed"
    );
    assert_eq!(report.degraded.budget_exhausted, 2);
}

/// Budget exhaustion mid-run leaves partial work visible: the exhausted
/// property still reports the exploration it paid for before tripping
/// (via the shared graph build), rather than pretending nothing ran.
#[test]
fn exhausted_checks_carry_partial_stats() {
    let report = analyze_implementation(
        Implementation::Reference,
        &cfg(Budget::unlimited().with_total_states(2_000), &["S01"]),
    );
    let r = report.result("S01").unwrap();
    assert_eq!(r.outcome.tag(), "budget-exhausted");
    assert!(
        r.states_explored > 0,
        "the designated builder keeps its partial exploration stats"
    );
    assert!(
        r.states_explored < 2_000_000,
        "exploration was cut off well before the state limit"
    );
}
