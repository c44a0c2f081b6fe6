//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **predicates on/off** — extracting without check-predicate
//!   enrichment yields the black-box-equivalent model; measures what the
//!   information-rich log buys and costs;
//! * **property-guided slicing on/off** — checking one property on a
//!   minimal slice vs a fully-observed model quantifies the slicing win;
//! * **optimistic crypto on/off** — the cost of carrying forge commands
//!   (and the CEGAR iterations that refute them) vs a model without them.

use criterion::{criterion_group, criterion_main, Criterion};
use procheck::cegar::{cegar_check, CegarOutcome};
use procheck::pipeline::{extract_models, AnalysisConfig};
use procheck_conformance::runner::run_suite;
use procheck_conformance::suites;
use procheck_extractor::{extract_fsm, ExtractorConfig};
use procheck_props::registry;
use procheck_props::Check;
use procheck_smv::checker::Property;
use procheck_smv::expr::Expr;
use procheck_smv::model::Model;
use procheck_smv::BudgetMeter;
use procheck_stack::quirks::Implementation;
use procheck_stack::UeConfig;
use procheck_telemetry::Collector;
use procheck_threat::{build_threat_model, StepSemantics, ThreatConfig};
use std::time::Duration;

const STATE_LIMIT: usize = 6_000_000;

/// One private-exploration CEGAR run: serial and unbudgeted.
fn one_shot(model: &Model, prop: &Property, semantics: &StepSemantics) -> CegarOutcome {
    let meter = BudgetMeter::unlimited();
    cegar_check(
        model,
        prop,
        semantics,
        STATE_LIMIT,
        24,
        &meter,
        &Collector::disabled(),
    )
    .unwrap()
}

fn ablations(c: &mut Criterion) {
    let ue_cfg = UeConfig::reference("001010123456789", 0x42);
    let report = run_suite(&ue_cfg, &suites::full_suite(&ue_cfg));

    // --- extraction: predicates on/off --------------------------------
    let mut group = c.benchmark_group("ablation_extraction_predicates");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));
    let with = ExtractorConfig::for_ue(&ue_cfg.signatures);
    let without = ExtractorConfig {
        include_predicates: false,
        ..with.clone()
    };
    group.bench_function("with_predicates", |b| {
        b.iter(|| extract_fsm("ue", &report.ue_log, &with))
    });
    group.bench_function("without_predicates", |b| {
        b.iter(|| extract_fsm("ue", &report.ue_log, &without))
    });
    group.finish();

    // --- checking: sliced vs fully-observed model ----------------------
    // The two models differ *only* in observer variables; the slicing win
    // is what property-guided model construction buys.
    let models = extract_models(Implementation::Reference, &AnalysisConfig::default());
    let s01 = registry().into_iter().find(|p| p.id == "S01").unwrap();
    let Check::Model(prop) = s01.check.clone() else {
        unreachable!()
    };
    let base_cfg = ThreatConfig::lte()
        .with_replayable(["authentication_request"])
        .without_forge();
    let semantics = StepSemantics::new(base_cfg.clone());

    let sliced = build_threat_model(&models.ue, &models.mme, &base_cfg);
    let full_cfg = base_cfg
        .with_ue_last()
        .with_mme_last()
        .with_replay_monitor()
        .with_plain_monitor()
        .with_bypass_monitor()
        .with_imsi_monitor();
    let full = build_threat_model(&models.ue, &models.mme, &full_cfg);

    let mut group = c.benchmark_group("ablation_model_slicing");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(3));
    group.bench_function("sliced", |b| {
        b.iter(|| one_shot(&sliced, &prop, &semantics))
    });
    group.bench_function("fully_observed", |b| {
        b.iter(|| one_shot(&full, &prop, &semantics))
    });
    group.finish();

    // --- CEGAR: optimistic crypto on/off -------------------------------
    let mut group = c.benchmark_group("ablation_optimistic_crypto");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(3));
    // S30-style correspondence property: holds only after the forge
    // counterexamples are refined away.
    let prop = Property::precedence(
        "s30_like",
        Expr::var_eq("ue_state", "emm_registered"),
        Expr::var_eq("mme_last_action", "attach_accept"),
    );
    let optimistic_cfg = ThreatConfig::lte()
        .with_mme_last()
        .with_replayable(["attach_accept"]);
    let optimistic = build_threat_model(&models.ue, &models.mme, &optimistic_cfg);
    let opt_sem = StepSemantics::new(optimistic_cfg);
    let exact_cfg = ThreatConfig::lte()
        .with_mme_last()
        .with_replayable(["attach_accept"])
        .without_forge();
    let exact = build_threat_model(&models.ue, &models.mme, &exact_cfg);
    let exact_sem = StepSemantics::new(exact_cfg);
    group.bench_function("optimistic_with_cegar", |b| {
        b.iter(|| one_shot(&optimistic, &prop, &opt_sem))
    });
    group.bench_function("exact_crypto", |b| {
        b.iter(|| one_shot(&exact, &prop, &exact_sem))
    });
    group.finish();
}

criterion_group!(benches, ablations);
criterion_main!(benches);
