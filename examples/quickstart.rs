//! Quickstart: extract a formal model from an implementation and check a
//! property against it — the whole ProChecker loop in ~40 lines.
//!
//! ```sh
//! cargo run --release -p procheck-core --example quickstart
//! ```

use procheck::cegar::{cegar_check, FinalVerdict};
use procheck::pipeline::{extract_models, AnalysisConfig};
use procheck_fsm::dot;
use procheck_props::registry;
use procheck_props::Check;
use procheck_smv::BudgetMeter;
use procheck_stack::quirks::Implementation;
use procheck_telemetry::Collector;
use procheck_threat::{build_threat_model, StepSemantics};

fn main() {
    // 1. Run the instrumented conformance suite against the srsLTE-like
    //    stack and extract its finite-state machine (paper Algorithm 1).
    let cfg = AnalysisConfig::default();
    let models = extract_models(Implementation::Srs, &cfg);
    println!(
        "extracted UE model: {} states, {} transitions ({} log records)",
        models.ue.states().count(),
        models.ue.transition_count(),
        models.log_records
    );
    println!("\nGraphviz-like form (paper §VI, model generator input):\n");
    println!("{}", dot::to_dot(&models.ue));

    // 2. Pick a property — S06, TS 24.301's replay-protection requirement.
    let prop = registry()
        .into_iter()
        .find(|p| p.id == "S06")
        .expect("S06 exists");
    println!(
        "property {}: {}\n  \"{}\"",
        prop.id, prop.title, prop.description
    );

    // 3. Compose the threat-instrumented model IMP^u and run the CEGAR
    //    loop (model checker <-> crypto verifier).
    let threat_cfg = prop.slice.threat_config();
    let model = build_threat_model(&models.ue, &models.mme, &threat_cfg);
    let semantics = StepSemantics::new(threat_cfg);
    let Check::Model(formula) = &prop.check else {
        unreachable!("S06 is a model property")
    };
    let outcome = cegar_check(
        &model,
        formula,
        &semantics,
        2_000_000,
        24,
        &BudgetMeter::unlimited(),
        &Collector::disabled(),
    )
    .expect("check runs");

    // 4. Report. On srsUE this property is violated: issue I1.
    match outcome.verdict {
        FinalVerdict::Attack(trace) => {
            println!("\nVIOLATED — crypto-feasible counterexample (issue I1):");
            println!("{trace}");
        }
        other => println!("\nverdict: {other:?}"),
    }
}
