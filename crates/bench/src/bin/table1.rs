//! Table I — the attack matrix (paper §VII-A).
//!
//! Runs the complete ProChecker pipeline on the three implementations and
//! prints the paper's table: 3 new protocol-specific attacks, 6
//! implementation issues, and the 14 previously-known attacks, with
//! per-implementation applicability dots. Each row is backed twice:
//! by the model-checking pipeline (which property flagged it) and by the
//! end-to-end testbed validation.

use procheck::pipeline::{analyze_implementation, ue_config_for, AnalysisConfig};
use procheck::report::PropertyOutcome;
use procheck::telemetry_report;
use procheck_bench::{col, default_threads, dot, parallel_map};
use procheck_stack::quirks::Implementation;
use procheck_telemetry::Collector;
use procheck_testbed::linkability::{run_scenario, Scenario};
use procheck_testbed::{prior, scenarios};
use std::path::Path;

/// One Table I row: name, detecting property, and the per-implementation
/// testbed verdicts.
struct Row {
    id: &'static str,
    name: &'static str,
    property: &'static str,
    kind: &'static str,
    srs: bool,
    oai: bool,
    reference: bool,
}

fn main() {
    let cfg = AnalysisConfig::default();
    let impls = [
        Implementation::Reference,
        Implementation::Srs,
        Implementation::Oai,
    ];

    // --- testbed validation (ground truth for the dots) -----------------
    // The three implementations are independent: validate them on the
    // worker pool and merge per-implementation results in `impls` order.
    let per_imp = parallel_map(&impls, default_threads(), |&imp| {
        let ue_cfg = ue_config_for(imp, &cfg);
        let mut verdicts: Vec<(String, bool)> = Vec::new();
        for report in scenarios::run_all(&ue_cfg) {
            verdicts.push((report.id.to_string(), report.succeeded));
        }
        // P2 runs as a linkability experiment (paper Fig 6).
        let p2 = run_scenario(Scenario::StaleAuthReplay, &ue_cfg);
        verdicts.push(("P2".to_string(), p2.distinguishable));
        for report in prior::run_all_prior(&ue_cfg) {
            verdicts.push((report.id.to_string(), report.succeeded));
        }
        verdicts
    });
    let mut testbed: Vec<(String, Vec<(Implementation, bool)>)> = Vec::new();
    for (imp, verdicts) in impls.iter().zip(per_imp) {
        for (id, succeeded) in verdicts {
            push(&mut testbed, &id, *imp, succeeded);
        }
    }
    let succeeded = |id: &str, imp: Implementation| -> bool {
        testbed
            .iter()
            .find(|(i, _)| i == id)
            .and_then(|(_, v)| v.iter().find(|(x, _)| *x == imp))
            .map(|(_, s)| *s)
            .unwrap_or(false)
    };

    // --- model-checking detection (which property flags each attack) ----
    let detecting: &[(&str, &str)] = &[
        ("P1", "S01"),
        ("P2", "PR07"),
        ("P3", "S19"),
        ("I1", "S06"),
        ("I2", "S12"),
        ("I3", "S14"),
        ("I4", "S13"),
        ("I5", "PR01"),
        ("I6", "S03"),
    ];
    println!("running the ProChecker pipeline on all three implementations…\n");
    // One full analysis per implementation, on the pool; detection rows
    // are merged in `impls` order so the output is run-to-run stable.
    // Each implementation records into its own telemetry collector.
    let per_imp_runs = parallel_map(&impls, default_threads(), |&imp| {
        let collector = Collector::enabled();
        let ids: Vec<&'static str> = detecting.iter().map(|(_, p)| *p).collect();
        let analysis = analyze_implementation(
            imp,
            &AnalysisConfig {
                property_filter: Some(ids),
                collector: collector.clone(),
                ..cfg.clone()
            },
        );
        let mut found = Vec::new();
        for (attack, prop) in detecting {
            if let Some(r) = analysis.result(prop) {
                let flagged = matches!(
                    r.outcome,
                    PropertyOutcome::Attack(_)
                        | PropertyOutcome::GoalReachable(_)
                        | PropertyOutcome::Distinguishable(_)
                );
                if flagged {
                    found.push((imp, attack.to_string(), prop.to_string()));
                }
            }
        }
        (found, telemetry_report::to_json(&analysis, &collector))
    });
    let mut telemetry_runs = Vec::new();
    let mut detections: Vec<(Implementation, String, String)> = Vec::new();
    for (found, telemetry) in per_imp_runs {
        detections.extend(found);
        telemetry_runs.push(telemetry);
    }

    // --- assemble the rows ------------------------------------------------
    let new_attacks: Vec<Row> = vec![
        row(
            "P1",
            "Service disruption using authentication_request",
            "S01",
            "Standards",
            &succeeded,
        ),
        row(
            "P2",
            "Linkability using authentication_response",
            "PR07",
            "Standards",
            &succeeded,
        ),
        row(
            "P3",
            "Selective service dropping",
            "S19",
            "Standards",
            &succeeded,
        ),
        row(
            "I1",
            "Broken replay protection (all protected messages)",
            "S06",
            "Implementation",
            &succeeded,
        ),
        row(
            "I2",
            "Broken integrity/confidentiality (plaintext accepted)",
            "S12",
            "Implementation",
            &succeeded,
        ),
        row(
            "I3",
            "Counter-reset with replayed authentication_request",
            "S14",
            "Implementation",
            &succeeded,
        ),
        row(
            "I4",
            "Security bypass with reject messages",
            "S13",
            "Implementation",
            &succeeded,
        ),
        row(
            "I5",
            "Privacy leakage with identity request",
            "PR01",
            "Implementation",
            &succeeded,
        ),
        row(
            "I6",
            "Linkability with security_mode_command",
            "S03",
            "Implementation",
            &succeeded,
        ),
    ];
    let prior_rows: Vec<Row> =
        prior::run_all_prior(&ue_config_for(Implementation::Reference, &cfg))
            .into_iter()
            .map(|r| Row {
                id: r.id,
                name: r.name,
                property: "-",
                kind: "Standards",
                srs: succeeded(r.id, Implementation::Srs),
                oai: succeeded(r.id, Implementation::Oai),
                reference: succeeded(r.id, Implementation::Reference),
            })
            .collect();

    // --- print -------------------------------------------------------------
    println!(
        "{} {} {} {} {} {} {}",
        col("id", 4),
        col("attack", 52),
        col("property", 8),
        col("type", 14),
        col("closed", 6),
        col("srsLTE", 6),
        col("OAI", 4)
    );
    println!("{}", "-".repeat(100));
    println!("New attacks");
    for r in &new_attacks {
        print_row(r);
    }
    println!("Previous attacks");
    for r in &prior_rows {
        print_row(r);
    }
    println!();
    println!("model-checking detections (implementation, attack, property):");
    for (imp, attack, prop) in &detections {
        println!("  {:14} {attack:4} flagged by {prop}", imp.name());
    }
    let new_count = 3;
    let impl_count = 6;
    println!(
        "\nsummary: {new_count} protocol-specific attacks, {impl_count} implementation issues, \
         {} prior attacks re-detected",
        prior_rows
            .iter()
            .filter(|r| r.reference && r.srs && r.oai)
            .count()
    );

    // Per-implementation telemetry for the three pipeline runs above.
    let runs: Vec<&str> = telemetry_runs.iter().map(|run| run.trim_end()).collect();
    let json = format!("{{\n  \"runs\": [\n{}\n  ]\n}}\n", runs.join(",\n"));
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_telemetry_table1.json");
    std::fs::write(&out, json).expect("write BENCH_telemetry_table1.json");
    println!("wrote {}", out.display());
}

fn push(
    acc: &mut Vec<(String, Vec<(Implementation, bool)>)>,
    id: &str,
    imp: Implementation,
    succeeded: bool,
) {
    if let Some((_, v)) = acc.iter_mut().find(|(i, _)| i == id) {
        v.push((imp, succeeded));
    } else {
        acc.push((id.to_string(), vec![(imp, succeeded)]));
    }
}

fn row(
    id: &'static str,
    name: &'static str,
    property: &'static str,
    kind: &'static str,
    succeeded: &dyn Fn(&str, Implementation) -> bool,
) -> Row {
    Row {
        id,
        name,
        property,
        kind,
        srs: succeeded(id, Implementation::Srs),
        oai: succeeded(id, Implementation::Oai),
        reference: succeeded(id, Implementation::Reference),
    }
}

fn print_row(r: &Row) {
    println!(
        "{} {} {} {} {} {} {}",
        col(r.id, 4),
        col(r.name, 52),
        col(r.property, 8),
        col(r.kind, 14),
        col(dot(r.reference), 6),
        col(dot(r.srs), 6),
        col(dot(r.oai), 4)
    );
}
