//! Composes the threat model from FSMs extracted from the real simulated
//! stacks and checks that it stays within explicit-state reach.

use procheck_conformance::runner::run_suite;
use procheck_conformance::suites;
use procheck_extractor::{extract_fsm, ExtractorConfig};
use procheck_smv::checker::{
    build_reach_graph_budgeted, check_bounded, CheckStats, CompiledModel, Property, Verdict,
};
use procheck_smv::expr::Expr;
use procheck_smv::smvformat::to_smv;
use procheck_stack::UeConfig;
use procheck_threat::{build_threat_model, ThreatConfig};

fn models(cfg: &UeConfig) -> (procheck_fsm::Fsm, procheck_fsm::Fsm) {
    let report = run_suite(cfg, &suites::full_suite(cfg));
    let ue = extract_fsm(
        "ue",
        &report.ue_log,
        &ExtractorConfig::for_ue(&cfg.signatures),
    );
    let mme = extract_fsm("mme", &report.mme_log, &ExtractorConfig::for_mme());
    (ue, mme)
}

#[test]
fn composed_model_is_tractable() {
    let cfg = UeConfig::reference("001010000000001", 0x42);
    let (ue, mme) = models(&cfg);
    let model = build_threat_model(&ue, &mme, &ThreatConfig::lte());
    assert!(model.validate().is_empty(), "{:?}", model.validate());
    let compiled = CompiledModel::new(&model).expect("composed model compiles");
    let meter = procheck_smv::BudgetMeter::unlimited();
    let mut stats = CheckStats::default();
    build_reach_graph_budgeted(&compiled, 3_000_000, &meter, &mut stats, 1).expect("within limits");
    assert!(stats.states > 100, "non-trivial: {} states", stats.states);
    assert!(
        stats.states < 3_000_000,
        "tractable: {} states",
        stats.states
    );
    println!(
        "IMP^mu: {} commands, {} reachable states, {} transitions",
        model.commands().len(),
        stats.states,
        stats.transitions
    );
}

/// The reachability-graph cache keys graphs by `ThreatConfig` and
/// assumes composition is a pure function of (FSMs, config): the same
/// config must compose the same model, and only then may two
/// properties share one explored graph. A nondeterministic composer
/// would silently hand one property another property's state space.
#[test]
fn composition_is_deterministic_per_config() {
    let cfg = UeConfig::reference("001010000000001", 0x42);
    let (ue, mme) = models(&cfg);
    let lte = ThreatConfig::lte();
    let a = build_threat_model(&ue, &mme, &lte);
    let b = build_threat_model(&ue, &mme, &lte);
    assert_eq!(
        to_smv(&a),
        to_smv(&b),
        "same ThreatConfig must compose a textually identical model"
    );
    let sliced = build_threat_model(&ue, &mme, &ThreatConfig::lte().with_replay_monitor());
    assert_ne!(
        to_smv(&a),
        to_smv(&sliced),
        "a config with extra trap monitors must not alias to one cache slot"
    );
}

#[test]
fn attach_completion_reachable_under_adversary() {
    let cfg = UeConfig::reference("001010000000001", 0x42);
    let (ue, mme) = models(&cfg);
    let model = build_threat_model(&ue, &mme, &ThreatConfig::lte());
    let p = Property::reachable(
        "attach_completes",
        Expr::and([
            Expr::var_eq("ue_state", "emm_registered"),
            Expr::var_eq("mme_state", "mme_registered"),
        ]),
    );
    let v = check_bounded(&model, &p, 3_000_000, &mut CheckStats::default()).expect("check runs");
    assert!(
        matches!(v, Verdict::Reachable(_)),
        "normal attach must survive composition"
    );
}

#[test]
fn p1_stale_acceptance_reachable_in_imp() {
    let cfg = UeConfig::reference("001010000000001", 0x42);
    let (ue, mme) = models(&cfg);
    let model = build_threat_model(&ue, &mme, &ThreatConfig::lte());
    let p = Property::reachable("stale_sqn_accepted", Expr::var_eq("last_auth_sqn", "stale"));
    let v = check_bounded(&model, &p, 3_000_000, &mut CheckStats::default()).expect("check runs");
    let Verdict::Reachable(ce) = v else {
        panic!("P1's stale acceptance must be reachable in the threat model");
    };
    // The trace must involve a replayed challenge.
    assert!(
        ce.command_labels()
            .iter()
            .any(|l| l.contains("replay_old_unconsumed")),
        "trace: {ce}"
    );
}
