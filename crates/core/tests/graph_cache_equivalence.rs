//! The reachability-graph cache must be invisible in results: the
//! pipeline, which explores each distinct threat configuration (or
//! cone) at most once, only as far as its properties need, and answers
//! properties as queries over the shared graph, returns the verdicts,
//! counterexample traces and CEGAR outcomes of the reference check —
//! `cegar_check` on a privately composed, eagerly and privately
//! explored, unsliced graph per property — on all three stacks, at any
//! thread count. Only the exploration *accounting* may differ (that is
//! the point of the cache).

use procheck::cegar::{cegar_check, FinalVerdict};
use procheck::pipeline::{
    analyze_implementation, extract_models, AnalysisConfig, AnalysisReport, BackendKind,
};
use procheck::report::PropertyOutcome;
use procheck_props::{registry, Check};
use procheck_smv::budget::BudgetMeter;
use procheck_smv::checker::{CheckError, Property};
use procheck_stack::quirks::Implementation;
use procheck_telemetry::Collector;
use procheck_threat::{build_threat_model, StepSemantics};
use std::sync::OnceLock;

/// Lowest acceptable threat-model composition hit rate for a
/// full-registry run: the measured 0.673077 less 25%.
const COMPOSE_HIT_RATE_FLOOR: f64 = 0.504808;

const STATE_LIMIT: usize = 2_000_000;

fn config(threads: usize) -> AnalysisConfig {
    AnalysisConfig {
        threads,
        state_limit: STATE_LIMIT,
        // Hermetic against an ambient PROCHECK_STORE: stored verdicts
        // would bypass the graph cache under test.
        store_dir: None,
        // And against an ambient PROCHECK_BACKEND: only the explicit
        // engine consults the graph cache, and `Both` doubles the
        // composition lookups asserted below.
        backend: BackendKind::Explicit,
        ..AnalysisConfig::default()
    }
}

/// The stacks checked against the reference. The golden snapshot covers
/// only Reference, while the largest early stops (S06's configuration)
/// are on srsLTE and OAI.
const IMPLEMENTATIONS: [Implementation; 3] = [
    Implementation::Reference,
    Implementation::Srs,
    Implementation::Oai,
];

fn run(implementation: Implementation, threads: usize) -> AnalysisReport {
    analyze_implementation(implementation, &config(threads))
}

/// Everything checked for equivalence: identity, outcome (including
/// every counterexample step and command label via `Debug`), and the
/// CEGAR trajectory. Exploration accounting (`states_explored`,
/// `peak_queue`, `nodes_reused`, `graph_cache_hit`) legitimately
/// differs and is asserted separately.
fn fingerprint(
    id: &str,
    outcome: &PropertyOutcome,
    iterations: usize,
    refinements: usize,
    cpv: usize,
) -> String {
    format!("{id}|{outcome:?}|{iterations}|{refinements}|{cpv}")
}

/// One model property checked the reference way.
struct Reference {
    fingerprint: String,
    /// States its private graph holds.
    states: u64,
}

/// The reference check of every model property of `implementation`, in
/// registry order: its threat model composed and explored privately,
/// eagerly and unsliced, and handed to `cegar_check`. The outcome is
/// mapped the way the pipeline reports it. Computed once per stack and
/// test binary.
fn reference(implementation: Implementation) -> &'static [Reference] {
    static REFERENCE: [OnceLock<Vec<Reference>>; 3] =
        [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    let slot = IMPLEMENTATIONS
        .iter()
        .position(|&i| i == implementation)
        .expect("a checked stack");
    REFERENCE[slot].get_or_init(|| {
        let cfg = config(1);
        let models = extract_models(implementation, &cfg);
        let meter = BudgetMeter::unlimited();
        registry()
            .iter()
            .filter_map(|prop| {
                let Check::Model(p) = &prop.check else {
                    return None;
                };
                let threat_cfg = prop.slice.threat_config();
                let model = build_threat_model(&models.ue, &models.mme, &threat_cfg);
                let checked = cegar_check(
                    &model,
                    p,
                    &StepSemantics::new(threat_cfg),
                    cfg.state_limit,
                    cfg.max_cegar_iterations,
                    &meter,
                    &Collector::disabled(),
                );
                let states = checked.as_ref().map_or(0, |o| o.explore.states);
                let (outcome, iterations, refinements, cpv) = match checked {
                    Ok(o) => {
                        let outcome = match o.verdict {
                            FinalVerdict::Verified => PropertyOutcome::Verified,
                            FinalVerdict::Attack(ce) => PropertyOutcome::Attack(ce),
                            FinalVerdict::GoalReachable(ce) => PropertyOutcome::GoalReachable(ce),
                            FinalVerdict::GoalUnreachable => PropertyOutcome::GoalUnreachable,
                            v => panic!("{}: unexpected reference verdict {v:?}", prop.id),
                        };
                        (outcome, o.iterations, o.refinements.len(), o.cpv_queries)
                    }
                    // A goal whose vocabulary the model lacks is
                    // unreachable; any other property is not applicable.
                    Err(CheckError::InvalidModel(problems)) => {
                        let outcome = if matches!(p, Property::Reachable { .. }) {
                            PropertyOutcome::GoalUnreachable
                        } else {
                            PropertyOutcome::Skipped(format!(
                                "not applicable to this model: {}",
                                problems.join("; ")
                            ))
                        };
                        (outcome, 0, 0, 0)
                    }
                    Err(e) => panic!("{}: reference check failed: {e:?}", prop.id),
                };
                Some(Reference {
                    fingerprint: fingerprint(prop.id, &outcome, iterations, refinements, cpv),
                    states,
                })
            })
            .collect()
    })
}

#[test]
fn cached_and_uncached_runs_agree_on_every_property() {
    for implementation in IMPLEMENTATIONS {
        let expected: Vec<&str> = reference(implementation)
            .iter()
            .map(|r| r.fingerprint.as_str())
            .collect();
        assert!(expected.len() >= 52, "every model property must be checked");
        for threads in [1, 4] {
            let report = run(implementation, threads);
            let got: Vec<String> = report
                .results
                .iter()
                .zip(registry())
                .filter(|(_, prop)| matches!(prop.check, Check::Model(_)))
                .map(|(r, _)| {
                    fingerprint(
                        r.property_id,
                        &r.outcome,
                        r.cegar_iterations,
                        r.refinements,
                        r.cpv_queries,
                    )
                })
                .collect();
            assert_eq!(
                expected, got,
                "{implementation:?} at threads={threads}: the pipeline diverged from the \
                 private, unsliced reference check"
            );
        }
    }
}

#[test]
fn cache_accounting_matches_each_mode() {
    let cached = run(Implementation::Reference, 1);

    // Shared: fewer explorations than consulting properties, one
    // designated builder per distinct configuration, and real node
    // re-use on the hit rows.
    let stats = &cached.graph_cache_stats;
    assert!(stats.builds > 0, "model properties must build graphs");
    assert!(stats.hits() > 0, "shared slices must produce hits");
    assert!(stats.hit_rate() > 0.5, "most lookups must be hits");
    let builders = cached
        .results
        .iter()
        .filter(|r| r.graph_cache_hit == Some(false))
        .count();
    let hits = cached
        .results
        .iter()
        .filter(|r| r.graph_cache_hit == Some(true))
        .count();
    assert_eq!(builders, stats.builds);
    assert_eq!(hits, stats.hits());
    assert!(cached
        .results
        .iter()
        .filter(|r| r.graph_cache_hit == Some(true))
        .all(|r| r.states_explored == 0 && r.nodes_reused > 0));

    // The tentpole claim: exploring once per distinct configuration
    // visits strictly fewer states than exploring once per property (the
    // reference check). Measured: the registry's distinct slots explore
    // 239,638 states (the 17 threat configurations hold 294,770
    // reachable states; slicing and stopping at each invariant's first
    // violation leave some unexplored) vs 565,503 for one full build per
    // property — a 2.4x drop. The margin asserted below is deliberately
    // looser than the measurement so registry growth does not flake the
    // suite.
    let cached_states: u64 = cached.results.iter().map(|x| x.states_explored).sum();
    let uncached_states: u64 = reference(Implementation::Reference)
        .iter()
        .map(|r| r.states)
        .sum();
    assert!(
        cached_states * 3 < uncached_states * 2,
        "cached run must explore < 2/3 of the states ({cached_states} vs {uncached_states})"
    );

    // Threat-model composition is shared per distinct configuration:
    // 17 builds for 52 lookups.
    let rate = cached.cache_stats.hit_rate();
    assert!(
        rate >= COMPOSE_HIT_RATE_FLOOR,
        "composition hit rate {rate:.6} below {COMPOSE_HIT_RATE_FLOOR}"
    );
}
