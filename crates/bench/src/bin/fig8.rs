//! Fig 8 — execution time of the 14 common properties on the
//! ProChecker-extracted model vs the hand-built LTEInspector model
//! (paper §VII-C, RQ3).
//!
//! The paper's claim is about *shape*: the richer extracted model costs
//! only a fraction more per property than the coarse hand-built one, and
//! both stay well inside COTS-model-checker territory. Absolute times
//! differ from the paper's i7-3750QCM laptop, but the ratio series is
//! comparable.
//!
//! Each time is the median of `SAMPLES` checks after one warm-up, with
//! its quartiles in brackets; the table prints as Markdown. A check
//! that fails ends the run with status 1.

use procheck::cegar::{cegar_check, CegarOutcome};
use procheck_bench::{
    default_threads, or_exit, parallel_map, sample, timed_ms, Fig8Models, Spread, SAMPLES,
};
use procheck_props::{common_properties, Check};
use procheck_smv::checker::CheckError;
use procheck_smv::model::Model;
use procheck_smv::BudgetMeter;
use procheck_telemetry::{json, Collector};
use procheck_threat::StepSemantics;
use std::path::Path;

const STATE_LIMIT: usize = 2_000_000;

fn spread_json(s: &Spread) -> String {
    format!(
        "{{\"median\": {:.3}, \"q1\": {:.3}, \"q3\": {:.3}}}",
        s.median, s.q1, s.q3
    )
}

fn main() {
    println!("preparing models (conformance run + extraction)…");
    let models = Fig8Models::prepare();
    println!(
        "ProChecker UE: {} transitions; LTEInspector UE: {} transitions\n",
        models.extracted.ue.transition_count(),
        models.baseline_ue.transition_count()
    );
    println!(
        "Milliseconds per check: median of {SAMPLES} after one warm-up, quartiles in brackets.\n"
    );
    println!("| # | property | LTEInspector | ProChecker | ratio |");
    println!("|---|---|---|---|---|");
    let mut ratios = Vec::new();
    let mut telemetry_rows: Vec<String> = Vec::new();
    let collector = Collector::enabled();
    // Threat-model composition for all properties runs on the worker
    // pool; the timed checks below stay serial so each measurement has
    // the machine to itself.
    let props: Vec<_> = common_properties()
        .into_iter()
        .filter(|p| matches!(p.check, Check::Model(_)))
        .collect();
    let prepared = parallel_map(&props, default_threads(), |p| {
        (
            StepSemantics::new(p.slice.threat_config()),
            models.lteinspector_model(p),
            models.prochecker_model(p),
        )
    });
    for (p, (semantics, lte_model, pro_model)) in props.iter().zip(&prepared) {
        let Check::Model(prop) = &p.check else {
            continue;
        };
        let index = p
            .table2_index
            .expect("common properties carry a Table II index");
        let check = |model: &Model, collector: &Collector| -> Result<CegarOutcome, CheckError> {
            let meter = BudgetMeter::unlimited();
            cegar_check(model, prop, semantics, STATE_LIMIT, 24, &meter, collector)
        };
        let row = |side: &str| format!("property {index} ({}) on {side}", p.title);
        let time = |model: &Model, side: &str| {
            Spread::of(&sample(|| {
                let (outcome, ms) = timed_ms(|| check(model, &Collector::disabled()));
                or_exit(outcome, &row(side));
                ms
            }))
        };
        let lte = time(lte_model, "LTEInspector");
        let pro = time(pro_model, "ProChecker");
        let ratio = pro.median / lte.median.max(1e-6);
        ratios.push(ratio);
        // One untimed traced run per model for the exploration numbers
        // (kept out of the timing loop so the measurement stays clean).
        let pro_run = or_exit(check(pro_model, &collector), &row("ProChecker"));
        let lte_run = or_exit(check(lte_model, &collector), &row("LTEInspector"));
        telemetry_rows.push(format!(
            "    {{\"index\": {index}, \"title\": {}, \"lte_ms\": {}, \
             \"pro_ms\": {}, \"ratio\": {ratio:.3}, \
             \"pro_states_explored\": {}, \"lte_states_explored\": {}, \
             \"pro_cegar_iterations\": {}, \"lte_cegar_iterations\": {}}}",
            json::escape(p.title),
            spread_json(&lte),
            spread_json(&pro),
            pro_run.explore.states,
            lte_run.explore.states,
            pro_run.iterations,
            lte_run.iterations,
        ));
        println!(
            "| {index} | {} | {lte} ms | {pro} ms | {ratio:.1}× |",
            p.title
        );
    }
    let gmean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    println!(
        "\nGeometric mean of the ratios of the medians: **{gmean:.2}×** \
         (paper: \"only a fraction higher\")."
    );

    let mut out = String::from("{\n  \"benchmark\": \"fig8 common properties\",\n");
    out.push_str(&format!("  \"samples\": {SAMPLES},\n"));
    out.push_str(&format!("  \"geometric_mean_ratio\": {gmean:.3},\n"));
    out.push_str("  \"properties\": [\n");
    out.push_str(&telemetry_rows.join(",\n"));
    out.push_str("\n  ],\n  \"counters\": {");
    out.push_str(
        &collector
            .counters()
            .into_iter()
            .map(|(name, value)| format!("{}: {}", json::escape(&name), value))
            .collect::<Vec<_>>()
            .join(", "),
    );
    out.push_str("}\n}\n");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_telemetry_fig8.json");
    std::fs::write(&path, out).expect("write BENCH_telemetry_fig8.json");
    println!("wrote {}", path.display());
}
