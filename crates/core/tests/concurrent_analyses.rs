//! Analysis state is scoped to one run: two analyses running at once in
//! one process return the same reports and record the same counters as
//! each run alone.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Duration;

use procheck::pipeline::{analyze_implementation, AnalysisConfig};
use procheck::report::PropertyResult;
use procheck_stack::quirks::Implementation;
use procheck_telemetry::Collector;

/// One analysis with its own enabled collector: every result field
/// except the wall-clock `elapsed`, and every counter.
fn run(implementation: Implementation) -> (Vec<String>, BTreeMap<String, u64>) {
    let collector = Collector::enabled();
    let report = analyze_implementation(
        implementation,
        &AnalysisConfig {
            collector: collector.clone(),
            store_dir: None,
            ..AnalysisConfig::default()
        },
    );
    let results = report
        .results
        .into_iter()
        .map(|r| {
            format!(
                "{:?}",
                PropertyResult {
                    elapsed: Duration::ZERO,
                    ..r
                }
            )
        })
        .collect();
    (results, collector.counters())
}

#[test]
fn concurrent_analyses_match_solo_runs() {
    let stacks = [Implementation::Reference, Implementation::Srs];
    let solo = stacks.map(run);
    let start = &Barrier::new(stacks.len());
    let concurrent = std::thread::scope(|scope| {
        stacks
            .map(|implementation| {
                scope.spawn(move || {
                    start.wait();
                    run(implementation)
                })
            })
            .map(|handle| handle.join().expect("analysis thread panicked"))
    });
    for ((implementation, solo), concurrent) in stacks.iter().zip(&solo).zip(&concurrent) {
        let name = implementation.name();
        assert!(!solo.0.is_empty(), "{name}: registry must not be empty");
        assert_eq!(solo.0, concurrent.0, "{name}: concurrent report diverged");
        assert_eq!(solo.1, concurrent.1, "{name}: concurrent counters diverged");
    }
}
