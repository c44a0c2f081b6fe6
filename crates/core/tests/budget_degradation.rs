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
///
/// S02 is an invariant that holds, so its verdict needs its whole
/// 8,018-state graph, and the 2,000-state budget trips after 3,186
/// states. (S01 served here once; its attack is the 400th node of its
/// graph, which a query reaches without exploring past the budget.)
#[test]
fn exhausted_checks_carry_partial_stats() {
    let report = analyze_implementation(
        Implementation::Reference,
        &cfg(Budget::unlimited().with_total_states(2_000), &["S02"]),
    );
    let r = report.result("S02").unwrap();
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

/// An invariant whose violation lies inside the budget is a verdict,
/// not a degraded outcome: S01's attack is the 400th node of its graph,
/// so under a 2,000-state budget the run reports exactly the unlimited
/// run's outcome, having explored fewer states than the budget allows.
#[test]
fn violation_inside_the_budget_is_reported() {
    let unlimited = analyze_implementation(
        Implementation::Reference,
        &cfg(Budget::unlimited(), &["S01"]),
    );
    let budgeted = analyze_implementation(
        Implementation::Reference,
        &cfg(Budget::unlimited().with_total_states(2_000), &["S01"]),
    );
    let (want, got) = (
        unlimited.result("S01").unwrap(),
        budgeted.result("S01").unwrap(),
    );
    assert_eq!(got.outcome.tag(), "attack");
    assert_eq!(got.outcome, want.outcome, "same attack, same trace");
    assert_eq!(
        (got.cegar_iterations, got.refinements, got.cpv_queries),
        (want.cegar_iterations, want.refinements, want.cpv_queries)
    );
    assert!(
        got.states_explored < 2_000,
        "explored {} states",
        got.states_explored
    );
    assert!(budgeted.degraded.is_clean(), "{:?}", budgeted.degraded);
}

/// Under a state limit, each property on a shared graph keeps the
/// outcome its own match allows, whichever sibling reaches the graph
/// first. S21, S24, S29, S35 and PR16 share one threat configuration on
/// Reference. S21, S24 and S35 are invariants violated within the first
/// 1,000 states (S35 at the 915th node), so they report their unlimited
/// attacks; S29 (a response) and PR16 (a precedence) need the whole
/// graph and report the state-limit skip — identically at one and four
/// workers.
#[test]
fn state_limit_keeps_verdicts_found_inside_it() {
    const IDS: [&str; 5] = ["S21", "S24", "S29", "S35", "PR16"];
    let unlimited =
        analyze_implementation(Implementation::Reference, &cfg(Budget::unlimited(), &IDS));
    for threads in [1, 4] {
        let report = analyze_implementation(
            Implementation::Reference,
            &AnalysisConfig {
                state_limit: 1_000,
                threads,
                ..cfg(Budget::unlimited(), &IDS)
            },
        );
        for id in ["S21", "S24", "S35"] {
            let (want, got) = (unlimited.result(id).unwrap(), report.result(id).unwrap());
            assert_eq!(want.outcome.tag(), "attack", "{id}");
            assert_eq!(got.outcome, want.outcome, "{id} at threads={threads}");
        }
        for id in ["S29", "PR16"] {
            let PropertyOutcome::Skipped(reason) = &report.result(id).unwrap().outcome else {
                panic!(
                    "{id} at threads={threads}: {:?}",
                    report.result(id).unwrap().outcome
                );
            };
            assert_eq!(reason, "state limit 1000 exceeded", "{id}");
        }
        assert_eq!(report.degraded.skipped, 2, "threads={threads}");
        assert_eq!(report.degraded.total(), 2, "threads={threads}");
    }
}
