//! Wall-clock floors for the explicit engine and the persistent store.
//!
//! Each gate takes one warm-up sample and then `SAMPLES` samples, prints
//! every sample, and fails when their median falls below the gate's
//! floor. The tests are ignored in the default suite because they only
//! mean something in an optimised build on an otherwise idle machine:
//!
//! ```text
//! cargo test --release -p procheck-bench --test timing_floors -- \
//!     --ignored --test-threads=1 --nocapture
//! ```

use std::path::PathBuf;
use std::time::Instant;

use procheck::pipeline::{
    analyze_extracted, analyze_implementation, extract_models, AnalysisConfig,
};
use procheck_props::registry;
use procheck_stack::quirks::Implementation;
use procheck_telemetry::Collector;

/// Samples per gate; the gate reads their median.
const SAMPLES: usize = 5;

/// Full-registry checking throughput, in distinct states explored per
/// second of a Reference analysis through the shared graph cache, best
/// over the `threads` sweep {1, `available_parallelism`}. The floor is a
/// 2.6M baseline less 25%. On a 2-vCPU VM the single-sample best of the
/// kernel before the per-field enable tables reached 1.70M; the slowest
/// of seventeen runs of the table-driven kernel was 2.24M. So the floor
/// sits below every run of the current kernel and above every run of
/// the old one: this gate is the one that catches a kernel revert.
const STATES_PER_SEC_FLOOR: f64 = 1_950_000.0;

/// Cold over warm wall-clock of a store-backed Reference analysis: an
/// unchanged warm run replays every verdict instead of exploring. An
/// absolute floor, with headroom for slow CI filesystems.
const WARM_SPEEDUP_FLOOR: f64 = 5.0;

/// A store directory under the system temp dir, removed when dropped —
/// also while a failing gate unwinds, so it leaves no store behind.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `measure` once to warm up and then `SAMPLES` times, prints every
/// sample, and fails when the median of any gate is below its floor.
fn assert_median_floors<const N: usize>(
    gates: [(&str, f64); N],
    mut measure: impl FnMut() -> [f64; N],
) {
    println!("available_parallelism = {}", hardware_threads());
    let _ = measure();
    let samples: Vec<[f64; N]> = (0..SAMPLES).map(|_| measure()).collect();
    let mut below = Vec::new();
    for (i, (name, floor)) in gates.into_iter().enumerate() {
        let mut values: Vec<f64> = samples.iter().map(|s| s[i]).collect();
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.2}")).collect();
        println!("{name}: samples {}", shown.join(", "));
        values.sort_by(f64::total_cmp);
        let median = values[SAMPLES / 2];
        let verdict = if median >= floor {
            "ok"
        } else {
            below.push(name);
            "BELOW FLOOR"
        };
        println!("{name}: median {median:.2}, floor {floor:.2} -> {verdict}");
    }
    assert!(
        below.is_empty(),
        "median below its floor: {}",
        below.join(", ")
    );
}

/// One `states_per_sec` sample: the best rate over the `threads` sweep.
fn best_states_per_sec() -> f64 {
    let mut sweep = vec![1, hardware_threads()];
    sweep.dedup();
    sweep
        .into_iter()
        .map(|threads| {
            let collector = Collector::enabled();
            let cfg = AnalysisConfig {
                threads,
                collector: collector.clone(),
                store_dir: None,
                ..AnalysisConfig::default()
            };
            let start = Instant::now();
            let report = analyze_implementation(Implementation::Reference, &cfg);
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(report.results.len(), registry().len());
            collector.counter_value("smv.states_explored") as f64 / secs
        })
        .fold(0.0, f64::max)
}

#[test]
#[ignore = "timing floor: run in release with --ignored --test-threads=1"]
fn states_per_sec() {
    assert_median_floors([("states_per_sec", STATES_PER_SEC_FLOOR)], || {
        [best_states_per_sec()]
    });
}

#[test]
#[ignore = "timing floor: run in release with --ignored --test-threads=1"]
fn warm_speedup_vs_cold() {
    let models = extract_models(Implementation::Reference, &AnalysisConfig::default());
    let dir = TempDir(
        std::env::temp_dir().join(format!("procheck-timing-floors-{}", std::process::id())),
    );
    let cfg = AnalysisConfig {
        store_dir: Some(dir.0.clone()),
        ..AnalysisConfig::default()
    };
    let timed = || {
        let start = Instant::now();
        let report = analyze_extracted(Implementation::Reference, &models, &cfg);
        (start.elapsed().as_secs_f64(), report)
    };
    assert_median_floors([("warm_speedup_vs_cold", WARM_SPEEDUP_FLOOR)], || {
        // Every sample starts from an empty store.
        let _ = std::fs::remove_dir_all(&dir.0);
        let (cold_secs, _) = timed();
        let (warm_secs, warm) = timed();
        assert_eq!(
            warm.store_stats.hits, warm.store_stats.lookups,
            "the warm run must replay every verdict"
        );
        [cold_secs / warm_secs]
    });
}
