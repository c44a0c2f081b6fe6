//! Short runs of every workload on three properties: each emits every
//! metric `BENCHMARK.json` names with outputs that check out, and a
//! wrong row planted in the expected table counts as a mismatch.

use procheck_benchmark::expected::{Expected, VERDICTS_TSV};
use procheck_benchmark::{run, Options, Workload};
use procheck_telemetry::json::{parse, Value};
use std::path::PathBuf;

/// One property per kind of work: an invariant checked on an explored
/// graph, a goal outside the model's vocabulary, and a linkability
/// scenario.
const PROPERTIES: [&str; 3] = ["S12", "S31", "PR07"];

fn options(workload: Workload, trace: bool, max_requests: usize) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.001,
        trace,
        properties: Some(PROPERTIES.to_vec()),
        max_requests: Some(max_requests),
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke"),
    }
}

fn listed(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_emits_every_listed_metric() {
    let expected = Expected::embedded();
    for workload in Workload::ALL {
        for (trace, requests, section) in [(false, 2, "end_to_end"), (true, 1, "per_layer")] {
            let r = run(&options(workload, trace, requests), &expected).expect("run");
            let names: Vec<String> = r.metrics.iter().map(|m| m.name.to_string()).collect();
            assert_eq!(names, listed(section), "{} trace={trace}", workload.name());
            assert!(r.correct(), "{} trace={trace}: {r:?}", workload.name());
            assert_eq!(r.requests, requests, "{}", workload.name());
            assert!(r.attempted > 0 && r.failed == 0, "{}", workload.name());
        }
    }
}

#[test]
fn planted_wrong_tag_is_a_mismatch() {
    // S12 holds on the closed-source stack and is attacked on the other
    // two; claim the opposite for all three.
    let planted: String = VERDICTS_TSV
        .lines()
        .map(|line| match line.split('\t').collect::<Vec<_>>()[..] {
            ["explicit", subject @ ("Reference" | "Srs" | "Oai"), "S12", tag] => {
                let wrong = if tag == "verified" {
                    "attack"
                } else {
                    "verified"
                };
                format!("explicit\t{subject}\tS12\t{wrong}\n")
            }
            _ => format!("{line}\n"),
        })
        .collect();
    let expected = Expected::parse(&planted).expect("planted table parses");
    let r = run(&options(Workload::RegistryExplicit, false, 2), &expected).expect("run");
    assert_eq!(r.verdict_mismatches, 2, "one planted row per request");
    assert!(!r.correct());
}
