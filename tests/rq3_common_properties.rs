//! RQ3 — scalability: every Table II property is checkable on both the
//! extracted ProChecker model and the hand-built LTEInspector model, and
//! both complete comfortably within COTS-model-checker budgets.

use procheck::cegar::{cegar_check, FinalVerdict};
use procheck::lteinspector;
use procheck::pipeline::{extract_models, AnalysisConfig};
use procheck_props::{common_properties, Check};
use procheck_smv::checker::{build_reach_graph_budgeted, CheckStats, CompiledModel};
use procheck_smv::model::Model;
use procheck_smv::BudgetMeter;
use procheck_stack::quirks::Implementation;
use procheck_telemetry::Collector;
use procheck_threat::{build_threat_model, StepSemantics};
use std::time::Instant;

const STATE_LIMIT: usize = 2_000_000;

/// The number of reachable states of `model`, explored serially.
fn reachable_states(model: &Model) -> usize {
    let compiled = CompiledModel::new(model).expect("composed models compile");
    let meter = BudgetMeter::unlimited();
    build_reach_graph_budgeted(
        &compiled,
        STATE_LIMIT,
        &meter,
        &mut CheckStats::default(),
        1,
    )
    .expect("model explores")
    .node_count()
}

#[test]
fn all_common_properties_run_on_both_models() {
    let models = extract_models(Implementation::Reference, &AnalysisConfig::default());
    let baseline_ue = lteinspector::ue_model();
    let baseline_mme = lteinspector::mme_model();

    for p in common_properties() {
        let Check::Model(prop) = &p.check else {
            panic!("{}: Table II properties are model-checkable", p.id)
        };
        let semantics = StepSemantics::new(p.slice.threat_config());
        for (name, ue, mme) in [
            ("prochecker", &models.ue, &models.mme),
            ("lteinspector", &baseline_ue, &baseline_mme),
        ] {
            let model = build_threat_model(ue, mme, &p.slice.threat_config());
            let start = Instant::now();
            let outcome = cegar_check(
                &model,
                prop,
                &semantics,
                STATE_LIMIT,
                24,
                &BudgetMeter::unlimited(),
                &Collector::disabled(),
            )
            .unwrap_or_else(|e| panic!("{} on {name}: {e}", p.id));
            assert!(
                !matches!(outcome.verdict, FinalVerdict::Inconclusive),
                "{} on {name}: inconclusive",
                p.id
            );
            assert!(
                start.elapsed().as_secs() < 30,
                "{} on {name}: too slow ({:?})",
                p.id,
                start.elapsed()
            );
        }
    }
}

/// The paper's RQ3 point in one number: the extracted model's composed
/// state space stays within bounds for explicit-state checking, despite
/// being an order of magnitude richer than the hand-built one.
#[test]
fn composed_state_spaces_are_tractable() {
    let models = extract_models(Implementation::Reference, &AnalysisConfig::default());
    let p1 = common_properties()
        .into_iter()
        .next()
        .expect("14 properties");
    let threat_cfg = p1.slice.threat_config();

    let pro = build_threat_model(&models.ue, &models.mme, &threat_cfg);
    let pro_states = reachable_states(&pro);

    let lte = build_threat_model(
        &lteinspector::ue_model(),
        &lteinspector::mme_model(),
        &threat_cfg,
    );
    let lte_states = reachable_states(&lte);

    assert!(pro_states > lte_states, "extracted model is richer");
    assert!(
        pro_states < STATE_LIMIT,
        "and still tractable: {pro_states}"
    );
}
