//! Injected `StoreRead` / `StoreWrite` faults against the persistent
//! store: every fault — a panic mid-load, a frame mangled on the way in
//! or out — must cost at most one run's warmth for one record, never a
//! wrong or missing result. The golden reference is the same run
//! without a store; reports are compared byte for byte.
//!
//! The armed fault plan is process-global, so tests serialize their
//! arm/run/disarm sections through one mutex (the `fault_isolation.rs`
//! idiom).

#![cfg(feature = "fault-inject")]

use procheck::pipeline::{analyze_extracted, extract_models, AnalysisConfig, AnalysisReport};
use procheck_faults::{arm, disarm, FaultKind, FaultPlan, FaultSite};
use procheck_stack::quirks::Implementation;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

mod common;
use common::{stored_index, TempDir};

static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A model/linkability mix small enough to re-run many times.
const IDS: &[&str] = &["S01", "S12", "PR07", "PR19", "PR20"];

/// A fresh, empty store directory unique to this case + process,
/// removed when dropped.
fn fresh_dir(tag: &str) -> TempDir {
    TempDir::new(&format!("procheck-storefault-{tag}"))
}

fn cfg(store_dir: Option<PathBuf>) -> AnalysisConfig {
    AnalysisConfig {
        property_filter: Some(IDS.to_vec()),
        state_limit: 2_000_000,
        max_cegar_iterations: 24,
        threads: 1,
        store_dir,
        ..AnalysisConfig::default()
    }
}

fn render(report: &AnalysisReport) -> String {
    let mut out = String::new();
    for r in &report.results {
        let _ = writeln!(
            out,
            "{}|{:?}|iters={}|refs={}|cpv={}|cache_hit={}",
            r.property_id, r.outcome, r.cegar_iterations, r.refinements, r.cpv_queries, r.cache_hit
        );
    }
    out
}

/// Which record a fault matrix arms: the verdict index, which every warm
/// run reads first, or one model verdict the index points at.
#[derive(Debug, Clone, Copy)]
enum Target {
    Index,
    Verdict,
}

impl Target {
    /// The hex key of this target in a store populated by a cold run.
    fn key(self, dir: &Path) -> String {
        let (key, index) = stored_index(dir);
        match self {
            Target::Index => key.to_hex(),
            Target::Verdict => {
                let (_, entry) = index.entries.first_key_value().expect("indexed verdicts");
                entry.verdict_key.to_hex()
            }
        }
    }
}

/// A fault on the load path — mangled payload or a panic inside the
/// loader — degrades that record to a cold miss: a faulted index sends
/// every property to its second-level key, a faulted verdict re-checks
/// its property live. Either way the report stays byte-identical, only
/// the faulted record is rewritten, and that heals the store for the
/// next run, which composes and writes nothing.
#[test]
fn read_faults_degrade_to_cold_misses() {
    let _guard = lock();
    let models = extract_models(Implementation::Reference, &cfg(None));
    for target in [Target::Index, Target::Verdict] {
        for kind in [FaultKind::Truncate, FaultKind::Garbage, FaultKind::Panic] {
            let tag = format!("{target:?}/{kind:?}");
            let dir = fresh_dir(&format!("read-{target:?}-{kind:?}"));
            let cold = analyze_extracted(
                Implementation::Reference,
                &models,
                &cfg(Some(dir.to_path_buf())),
            );
            assert!(cold.store_stats.writes > 0, "[{tag}] cold run populates");

            arm(FaultPlan::new(FaultSite::StoreRead, kind).at_key(target.key(&dir)));
            let warm = analyze_extracted(
                Implementation::Reference,
                &models,
                &cfg(Some(dir.to_path_buf())),
            );
            assert!(disarm(), "[{tag}] a warm run must reach the read hook");
            assert_eq!(
                render(&warm),
                render(&cold),
                "[{tag}] a faulted load must re-check, not corrupt the report"
            );
            assert!(
                warm.store_stats.invalidated >= 1,
                "[{tag}] the fault surfaces as an invalidated record: {:?}",
                warm.store_stats
            );
            match target {
                Target::Index => assert_eq!(
                    warm.store_stats.hits,
                    IDS.len() as u64,
                    "[{tag}] every verdict still replays through its second-level key"
                ),
                Target::Verdict => assert_eq!(
                    (warm.store_stats.lookups, warm.store_stats.hits),
                    (IDS.len() as u64, IDS.len() as u64 - 1),
                    "[{tag}] one lookup per property, and the faulted one is no hit: {:?}",
                    warm.store_stats
                ),
            }
            assert_eq!(
                warm.store_stats.writes, 1,
                "[{tag}] only the faulted record is rewritten: {:?}",
                warm.store_stats
            );
            assert!(
                warm.degraded.is_clean(),
                "[{tag}] store faults never degrade results"
            );

            // The re-check re-wrote the record: the next run is fully warm.
            let healed = analyze_extracted(
                Implementation::Reference,
                &models,
                &cfg(Some(dir.to_path_buf())),
            );
            assert_eq!(render(&healed), render(&cold), "[{tag}]");
            assert_eq!(
                healed.store_stats.hits, healed.store_stats.lookups,
                "[{tag}] the store heals itself: {:?}",
                healed.store_stats
            );
            assert_eq!(healed.cache_stats.lookups, 0, "[{tag}] composes nothing");
            assert_eq!(healed.store_stats.writes, 0, "[{tag}] writes nothing");
        }
    }
}

/// A fault on the save path — the framed bytes mangled before the
/// write, or a panic that skips it — never touches the faulted run's
/// results. A faulted verdict costs exactly that verdict's warmth on
/// the *next* run (the corrupt frame is rejected, the miss re-checks);
/// a faulted index costs no verdict's warmth, only the composition the
/// second-level keys need, and that run rewrites it. The run after is
/// fully warm again and composes and writes nothing.
#[test]
fn write_faults_cost_only_the_next_runs_warmth() {
    let _guard = lock();
    let models = extract_models(Implementation::Reference, &cfg(None));
    let baseline = analyze_extracted(Implementation::Reference, &models, &cfg(None));

    // Keys are content-addressed, so the same models produce the same
    // file names every run: probe once, then target one key
    // deterministically across the fault matrix.
    let probe = fresh_dir("write-probe");
    let _ = analyze_extracted(
        Implementation::Reference,
        &models,
        &cfg(Some(probe.to_path_buf())),
    );
    let targets = [Target::Index, Target::Verdict].map(|t| (t, t.key(&probe)));
    assert_eq!(
        std::fs::read_dir(probe.join("verdicts")).unwrap().count(),
        IDS.len(),
        "one verdict record per property"
    );
    drop(probe);

    for (target, key) in targets {
        for kind in [FaultKind::Truncate, FaultKind::Garbage, FaultKind::Panic] {
            let tag = format!("{target:?}/{kind:?}");
            let dir = fresh_dir(&format!("write-{target:?}-{kind:?}"));
            arm(FaultPlan::new(FaultSite::StoreWrite, kind).at_key(&key));
            let cold = analyze_extracted(
                Implementation::Reference,
                &models,
                &cfg(Some(dir.to_path_buf())),
            );
            assert!(disarm(), "[{tag}] the cold run must write the target");
            assert_eq!(
                render(&cold),
                render(&baseline),
                "[{tag}] saves are best-effort; a faulted one is invisible now"
            );
            assert!(cold.degraded.is_clean(), "[{tag}]");

            // Next run: the poisoned (or skipped) frame is rejected as a
            // cold miss, everything else replays.
            let warm = analyze_extracted(
                Implementation::Reference,
                &models,
                &cfg(Some(dir.to_path_buf())),
            );
            assert_eq!(render(&warm), render(&baseline), "[{tag}]");
            let lost = match target {
                Target::Index => 0,
                Target::Verdict => 1,
            };
            assert_eq!(
                warm.store_stats.hits,
                warm.store_stats.lookups - lost,
                "[{tag}] {lost} verdicts lost their warmth: {:?}",
                warm.store_stats
            );
            assert!(warm.degraded.is_clean(), "[{tag}]");

            // The miss re-settled and re-wrote it: run three is fully warm.
            let healed = analyze_extracted(
                Implementation::Reference,
                &models,
                &cfg(Some(dir.to_path_buf())),
            );
            assert_eq!(render(&healed), render(&baseline), "[{tag}]");
            assert_eq!(
                healed.store_stats.hits, healed.store_stats.lookups,
                "[{tag}] {:?}",
                healed.store_stats
            );
            assert_eq!(healed.cache_stats.lookups, 0, "[{tag}] composes nothing");
            assert_eq!(healed.store_stats.writes, 0, "[{tag}] writes nothing");
        }
    }
}

/// A run whose extraction failed analyses empty placeholder machines; it
/// must not make them the stored baseline (nor key an index by them), or
/// the next healthy run would report a delta against the placeholders
/// for machines that never changed.
#[test]
fn failed_extraction_keeps_the_stored_baseline() {
    let _guard = lock();
    let models = extract_models(Implementation::Reference, &cfg(None));
    let dir = fresh_dir("extract-baseline");
    let _ = analyze_extracted(
        Implementation::Reference,
        &models,
        &cfg(Some(dir.to_path_buf())),
    );

    arm(FaultPlan::new(FaultSite::Extractor, FaultKind::Panic).at_key("ue"));
    let broken = extract_models(Implementation::Reference, &cfg(None));
    assert!(disarm(), "UE extraction must reach the hook");
    assert!(!broken.extraction_errors.is_empty());
    let failed = analyze_extracted(
        Implementation::Reference,
        &broken,
        &cfg(Some(dir.to_path_buf())),
    );
    assert_eq!(
        failed.store_stats.writes, 0,
        "a failed extraction writes no baseline, no index and no verdict: {:?}",
        failed.store_stats
    );

    let collector = procheck_telemetry::Collector::enabled();
    let mut healthy_cfg = cfg(Some(dir.to_path_buf()));
    healthy_cfg.collector = collector.clone();
    let healthy = analyze_extracted(Implementation::Reference, &models, &healthy_cfg);
    assert_eq!(collector.counter_value("store.baseline_found"), 1);
    assert_eq!(
        collector.counter_value("store.delta_transitions"),
        0,
        "the baseline is still the healthy machines"
    );
    assert_eq!(healthy.store_stats.hits, healthy.store_stats.lookups);
    assert_eq!(healthy.store_stats.writes, 0);
}

/// A faulted *baseline* load (the FSM-delta telemetry path) is absorbed
/// like any other: the run completes, reports no delta, and re-snapshots
/// the baseline so the next run diffs cleanly again.
#[test]
fn baseline_read_fault_only_mutes_the_delta_telemetry() {
    let _guard = lock();
    let models = extract_models(Implementation::Reference, &cfg(None));
    let dir = fresh_dir("baseline-read");
    let cold = analyze_extracted(
        Implementation::Reference,
        &models,
        &cfg(Some(dir.to_path_buf())),
    );

    let key = procheck::store::baseline_key(
        Implementation::Reference.name(),
        &cfg(None).imsi,
        cfg(None).key_material,
    );
    arm(FaultPlan::new(FaultSite::StoreRead, FaultKind::Garbage).at_key(key.to_hex()));
    let collector = procheck_telemetry::Collector::enabled();
    let mut warm_cfg = cfg(Some(dir.to_path_buf()));
    warm_cfg.collector = collector.clone();
    let warm = analyze_extracted(Implementation::Reference, &models, &warm_cfg);
    assert!(disarm(), "the delta pass must load the stored baseline");
    assert_eq!(render(&warm), render(&cold));
    assert_eq!(
        collector.counter_value("store.baseline_found"),
        0,
        "a mangled baseline reads as absent"
    );
    assert_eq!(
        warm.store_stats.hits, warm.store_stats.lookups,
        "verdicts unaffected"
    );

    // The baseline was re-snapshotted; the next run diffs it again.
    let collector2 = procheck_telemetry::Collector::enabled();
    let mut again_cfg = cfg(Some(dir.to_path_buf()));
    again_cfg.collector = collector2.clone();
    let _ = analyze_extracted(Implementation::Reference, &models, &again_cfg);
    assert_eq!(collector2.counter_value("store.baseline_found"), 1);
    assert_eq!(collector2.counter_value("store.delta_transitions"), 0);
}
