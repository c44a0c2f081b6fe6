//! Ablations of three design choices (DESIGN.md §6), and the extractor's
//! cost per log record as the log grows (paper §VI: "For the largest log
//! from the closed-source implementation, it takes our model extractor
//! around 5 minutes").
//!
//! * **check predicates on/off** — extracting without check-predicate
//!   enrichment yields the black-box-equivalent model; measures what
//!   dissecting the information-rich log costs;
//! * **per-property vs fully observed threat model** — S01 checked on
//!   the composition its threat configuration asks for vs one that also
//!   carries every observer and monitor variable. Both compose the same
//!   FSMs in full: this is not cone-of-influence slicing;
//! * **optimistic crypto on/off** — the cost of carrying forge commands
//!   (and the CEGAR iterations that refute them) vs a model without them.
//!
//! Each time is the median of `SAMPLES` calls after one warm-up, with its
//! quartiles in brackets; the tables print as Markdown. A check that
//! fails ends the run with status 1.

use procheck::cegar::cegar_check;
use procheck::pipeline::{extract_models, AnalysisConfig};
use procheck_bench::{or_exit, sample, timed_ms, Spread, SAMPLES};
use procheck_conformance::generator::generate_suite;
use procheck_conformance::runner::run_suite;
use procheck_conformance::suites;
use procheck_extractor::{extract_fsm, ExtractorConfig};
use procheck_props::{registry, Check};
use procheck_smv::checker::Property;
use procheck_smv::expr::Expr;
use procheck_smv::model::Model;
use procheck_smv::BudgetMeter;
use procheck_stack::quirks::Implementation;
use procheck_stack::UeConfig;
use procheck_telemetry::Collector;
use procheck_threat::{build_threat_model, StepSemantics, ThreatConfig};

const STATE_LIMIT: usize = 6_000_000;
const CEGAR_BOUND: usize = 24;

/// Milliseconds per CEGAR check of `prop` on the `variant` model,
/// serial and unbudgeted.
fn check_ms(variant: &str, model: &Model, prop: &Property, semantics: &StepSemantics) -> Spread {
    Spread::of(&sample(|| {
        let (outcome, ms) = timed_ms(|| {
            let meter = BudgetMeter::unlimited();
            let collector = Collector::disabled();
            cegar_check(
                model,
                prop,
                semantics,
                STATE_LIMIT,
                CEGAR_BOUND,
                &meter,
                &collector,
            )
        });
        or_exit(outcome, &format!("{} on the {variant}", prop.name()));
        ms
    }))
}

/// Prints one ablation's row: both variants and B's median over A's.
fn print_pair(ablation: &str, (a_name, a): (&str, Spread), (b_name, b): (&str, Spread)) {
    println!(
        "| {ablation} | {a_name} | {a} | {b_name} | {b} | {:.1}× |",
        b.median / a.median
    );
}

fn main() {
    let ue_cfg = UeConfig::reference("001010123456789", 0x42);
    let report = run_suite(&ue_cfg, &suites::full_suite(&ue_cfg));
    println!(
        "Milliseconds per call: median of {SAMPLES} after one warm-up, quartiles in brackets.\n"
    );
    println!("| ablation | A | A, ms | B | B, ms | B / A |");
    println!("|---|---|---|---|---|---|");

    // --- extraction: check predicates on/off ----------------------------
    let with = ExtractorConfig::for_ue(&ue_cfg.signatures);
    let without = ExtractorConfig {
        include_predicates: false,
        ..with.clone()
    };
    let extract_ms = |cfg: &ExtractorConfig| {
        Spread::of(&sample(|| {
            timed_ms(|| extract_fsm("ue", &report.ue_log, cfg)).1
        }))
    };
    print_pair(
        "check predicates, full-suite UE log extraction",
        ("without predicates", extract_ms(&without)),
        ("with predicates", extract_ms(&with)),
    );

    // --- checking: per-property vs fully observed threat model ----------
    // The two models differ only in observer and monitor variables.
    let models = extract_models(Implementation::Reference, &AnalysisConfig::default());
    let s01 = registry()
        .into_iter()
        .find(|p| p.id == "S01")
        .expect("S01 is in the registry");
    let Check::Model(prop) = s01.check.clone() else {
        unreachable!("S01 is a model property")
    };
    let base_cfg = ThreatConfig::lte()
        .with_replayable(["authentication_request"])
        .without_forge();
    let semantics = StepSemantics::new(base_cfg.clone());
    let per_property = build_threat_model(&models.ue, &models.mme, &base_cfg);
    let full_cfg = base_cfg
        .with_ue_last()
        .with_mme_last()
        .with_replay_monitor()
        .with_plain_monitor()
        .with_bypass_monitor()
        .with_imsi_monitor();
    let fully_observed = build_threat_model(&models.ue, &models.mme, &full_cfg);
    let [a, b] = ["per-property threat model", "fully observed threat model"];
    print_pair(
        "threat model, S01",
        (a, check_ms(a, &per_property, &prop, &semantics)),
        (b, check_ms(b, &fully_observed, &prop, &semantics)),
    );

    // --- CEGAR: optimistic crypto on/off --------------------------------
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
    let exact_cfg = optimistic_cfg.clone().without_forge();
    let exact = build_threat_model(&models.ue, &models.mme, &exact_cfg);
    let [a, b] = ["exact crypto", "optimistic crypto + CEGAR"];
    print_pair(
        "crypto model, S30-like precedence",
        (
            a,
            check_ms(a, &exact, &prop, &StepSemantics::new(exact_cfg)),
        ),
        (
            b,
            check_ms(b, &optimistic, &prop, &StepSemantics::new(optimistic_cfg)),
        ),
    );

    // --- extractor scaling ----------------------------------------------
    let ex = ExtractorConfig::for_reference_ue();
    println!("\n| generated cases | UE log records | ns per record |");
    println!("|---|---|---|");
    for cases in [25, 100, 400] {
        let log = run_suite(&ue_cfg, &generate_suite(&ue_cfg, 7, cases)).ue_log;
        let ns_per_record = Spread::of(&sample(|| {
            timed_ms(|| extract_fsm("ue", &log, &ex)).1 * 1e6 / log.len() as f64
        }));
        println!("| {cases} | {} | {ns_per_record:.0} |", log.len());
    }
}
