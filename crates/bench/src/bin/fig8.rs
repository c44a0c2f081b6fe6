//! Fig 8 — execution time of the 14 common properties on the
//! ProChecker-extracted model vs the hand-built LTEInspector model
//! (paper §VII-C, RQ3).
//!
//! The paper's claim is about *shape*: the richer extracted model costs
//! only a fraction more per property than the coarse hand-built one, and
//! both stay well inside COTS-model-checker territory. Absolute times
//! differ from the paper's i7-3750QCM laptop, but the ratio series is
//! comparable.

use procheck::cegar::{cegar_check, CegarOutcome};
use procheck_bench::{col, default_threads, parallel_map, Fig8Models};
use procheck_props::{common_properties, Check};
use procheck_smv::checker::CheckError;
use procheck_smv::model::Model;
use procheck_smv::BudgetMeter;
use procheck_telemetry::{json, Collector};
use procheck_threat::StepSemantics;
use std::path::Path;
use std::time::Instant;

const STATE_LIMIT: usize = 2_000_000;
const RUNS: u32 = 5;

fn main() {
    println!("preparing models (conformance run + extraction)…");
    let models = Fig8Models::prepare();
    println!(
        "  ProChecker UE: {} transitions; LTEInspector UE: {} transitions\n",
        models.extracted.ue.transition_count(),
        models.baseline_ue.transition_count()
    );
    println!(
        "{} {} {} {} {}",
        col("#", 3),
        col("property", 42),
        col("LTEInspector", 14),
        col("ProChecker", 14),
        col("ratio", 6)
    );
    println!("{}", "-".repeat(84));
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

        let check = |model: &Model, collector: &Collector| -> Result<CegarOutcome, CheckError> {
            let meter = BudgetMeter::unlimited();
            cegar_check(model, prop, semantics, STATE_LIMIT, 24, &meter, collector)
        };
        let time = |model: &Model| -> f64 {
            let start = Instant::now();
            for _ in 0..RUNS {
                let _ = check(model, &Collector::disabled());
            }
            start.elapsed().as_secs_f64() * 1e3 / RUNS as f64
        };
        let lte_ms = time(lte_model);
        let pro_ms = time(pro_model);
        let ratio = pro_ms / lte_ms.max(1e-6);
        ratios.push(ratio);
        // One untimed traced run per model for the exploration numbers
        // (kept out of the timing loop so the measurement stays clean).
        let pro = check(pro_model, &collector);
        let lte = check(lte_model, &collector);
        if let (Ok(pro), Ok(lte)) = (pro, lte) {
            telemetry_rows.push(format!(
                "    {{\"index\": {}, \"title\": {}, \"lte_ms\": {lte_ms:.3}, \
                 \"pro_ms\": {pro_ms:.3}, \"ratio\": {ratio:.3}, \
                 \"pro_states_explored\": {}, \"lte_states_explored\": {}, \
                 \"pro_cegar_iterations\": {}, \"lte_cegar_iterations\": {}}}",
                p.table2_index.unwrap(),
                json::escape(p.title),
                pro.explore.states,
                lte.explore.states,
                pro.iterations,
                lte.iterations,
            ));
        }
        println!(
            "{} {} {} {} {}",
            col(&p.table2_index.unwrap().to_string(), 3),
            col(p.title, 42),
            col(&format!("{lte_ms:9.2} ms"), 14),
            col(&format!("{pro_ms:9.2} ms"), 14),
            col(&format!("{ratio:4.1}x"), 6)
        );
    }
    let gmean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    println!("{}", "-".repeat(84));
    println!(
        "geometric-mean slowdown of the extracted model: {gmean:.2}x \
         (paper: \"only a fraction higher\")"
    );

    let mut out = String::from("{\n  \"benchmark\": \"fig8 common properties\",\n");
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
