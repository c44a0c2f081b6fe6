//! Registry-wide fault isolation, driven by the deterministic harness
//! (`--features fault-inject`).
//!
//! The contract under test: a fault at any instrumented stage boundary
//! — a property evaluation panicking, a threat-model composition or
//! graph build blowing up mid-build, an extractor panic, a truncated
//! conformance log — collapses to per-property (or per-stage) degraded
//! outcomes while the full-registry run completes and every *unaffected*
//! property's result line stays byte-identical to the committed golden
//! snapshot (`tests/golden/registry.snap`, section 1).
//!
//! The armed fault plan is process-global and the test binary runs tests
//! on parallel threads, so every test serializes its arm/run/disarm
//! section through one mutex (same idiom as the harness's own tests).

#![cfg(feature = "fault-inject")]

use procheck::pipeline::{analyze_implementation, AnalysisConfig, BackendKind};
use procheck::report::PropertyResult;
use procheck_faults::{arm, disarm, FaultKind, FaultPlan, FaultSite};
use procheck_props::{registry, Check};
use procheck_stack::quirks::Implementation;
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::{Mutex, MutexGuard, OnceLock};

static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The golden config: single-threaded, graph cache on — byte-identical
/// reference output for every unaffected property.
fn config(graph_cache: bool, threads: usize) -> AnalysisConfig {
    AnalysisConfig {
        threads,
        graph_cache,
        state_limit: 2_000_000,
        max_cegar_iterations: 24,
        // Hermetic against an ambient PROCHECK_STORE: a warm store would
        // satisfy verdicts before the faulted stage is ever reached.
        store_dir: None,
        ..AnalysisConfig::default()
    }
}

/// Reference lines for every property, keyed by id.
///
/// On the default (explicit) backend these are section 1 of the
/// committed snapshot. When `PROCHECK_BACKEND` routes the run through
/// another engine the snapshot no longer describes the outcomes
/// (bounded checks settle `bound-reached` where the explicit engine
/// proves `verified`), so the reference is a clean in-process run with
/// the same configuration instead — the isolation contract under test
/// ("unaffected siblings are byte-identical to a fault-free run") is
/// backend-independent. Cached: one clean run serves every test.
fn golden_lines() -> BTreeMap<String, String> {
    if AnalysisConfig::default().backend != BackendKind::Explicit {
        static CLEAN: OnceLock<BTreeMap<String, String>> = OnceLock::new();
        return CLEAN
            .get_or_init(|| {
                let report = analyze_implementation(Implementation::Reference, &config(true, 1));
                report
                    .results
                    .iter()
                    .map(|r| (r.property_id.to_string(), render(r)))
                    .collect()
            })
            .clone();
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/registry.snap");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden snapshot {}: {e}", path.display()));
    let mut out = BTreeMap::new();
    for line in text.lines().skip(1) {
        if line.starts_with("== ") {
            break;
        }
        let id = line.split('|').next().expect("id column").to_string();
        out.insert(id, line.to_string());
    }
    assert_eq!(out.len(), registry().len(), "snapshot covers the registry");
    out
}

/// Renders one result exactly as the golden snapshot's section 1 does.
fn render(r: &PropertyResult) -> String {
    format!(
        "{}|{:?}|iters={}|refs={}|cpv={}|cache_hit={}",
        r.property_id, r.outcome, r.cegar_iterations, r.refinements, r.cpv_queries, r.cache_hit
    )
}

/// A panic planted inside one property's evaluation degrades exactly
/// that property to an `error` outcome; the other 61 results are
/// byte-identical to the golden snapshot — with the graph cache on and
/// off, single-threaded and on a 4-worker pool.
#[test]
fn property_eval_panic_isolates_to_one_property() {
    let _guard = lock();
    let golden = golden_lines();
    for graph_cache in [true, false] {
        for threads in [1, 4] {
            arm(FaultPlan::new(FaultSite::PropertyEval, FaultKind::Panic).at_key("S05"));
            let report =
                analyze_implementation(Implementation::Reference, &config(graph_cache, threads));
            assert!(disarm(), "plan must fire (cache={graph_cache} t={threads})");
            assert_eq!(report.results.len(), golden.len());
            for r in &report.results {
                if r.property_id == "S05" {
                    assert_eq!(r.outcome.tag(), "error");
                    let rendered = render(r);
                    assert!(rendered.contains("injected fault"), "{rendered}");
                } else {
                    assert_eq!(
                        render(r),
                        golden[r.property_id],
                        "sibling diverged (cache={graph_cache} t={threads})"
                    );
                }
            }
            assert_eq!(report.degraded.panics_isolated, 1);
            assert_eq!(report.degraded.total(), 1);
        }
    }
}

/// A panic inside the first threat-model composition poisons only that
/// `ThreatConfig`'s cache slot: every property sharing the slice reports
/// `error`, every property on another slice matches the golden snapshot.
#[test]
fn threat_compose_panic_poisons_only_its_config_group() {
    let _guard = lock();
    let golden = golden_lines();
    // With one worker the first composition (registry order) belongs to
    // the first model-checked property's threat configuration.
    let first_cfg = registry()
        .iter()
        .find_map(|p| match &p.check {
            Check::Model(_) => Some(p.slice.threat_config()),
            Check::Linkability(_) => None,
        })
        .expect("registry has model properties");
    let group: HashSet<&str> = registry()
        .iter()
        .filter(|p| matches!(p.check, Check::Model(_)) && p.slice.threat_config() == first_cfg)
        .map(|p| p.id)
        .collect();
    assert!(!group.is_empty());
    arm(FaultPlan::new(FaultSite::ThreatCompose, FaultKind::Panic));
    let report = analyze_implementation(Implementation::Reference, &config(true, 1));
    assert!(disarm(), "compose fault must fire");
    let mut errored = 0;
    for r in &report.results {
        if group.contains(r.property_id) {
            assert_eq!(r.outcome.tag(), "error", "{}", r.property_id);
            errored += 1;
        } else {
            assert_eq!(
                render(r),
                golden[r.property_id],
                "outside the poisoned slice"
            );
        }
    }
    assert_eq!(errored, group.len(), "whole slice degraded, nothing else");
    assert_eq!(report.degraded.panics_isolated, group.len());
}

/// A panic inside the first reachability-graph build poisons only that
/// graph's slot. Properties on the slice that never consult the graph
/// (inapplicable vocabulary errors out earlier) keep their golden lines;
/// everything outside the slice is untouched.
#[test]
fn graph_build_panic_poisons_only_its_graph() {
    let _guard = lock();
    if AnalysisConfig::default().backend == BackendKind::Symbolic {
        // The bounded symbolic backend bit-blasts the compiled model
        // directly — no reachability graph is ever built, so this fault
        // site cannot fire and `disarm()` would report a dead plan.
        eprintln!("skipped: no graph builds under the symbolic backend");
        return;
    }
    let golden = golden_lines();
    let first_cfg = registry()
        .iter()
        .find_map(|p| match &p.check {
            Check::Model(_) => Some(p.slice.threat_config()),
            Check::Linkability(_) => None,
        })
        .expect("registry has model properties");
    arm(FaultPlan::new(FaultSite::GraphBuild, FaultKind::Panic));
    let report = analyze_implementation(Implementation::Reference, &config(true, 1));
    assert!(disarm(), "graph-build fault must fire");
    let mut errored = 0;
    for (r, prop) in report.results.iter().zip(registry().iter()) {
        assert_eq!(r.property_id, prop.id);
        let in_group =
            matches!(prop.check, Check::Model(_)) && prop.slice.threat_config() == first_cfg;
        if r.outcome.tag() == "error" {
            assert!(
                in_group,
                "{} errored outside the poisoned graph",
                r.property_id
            );
            errored += 1;
        } else {
            assert_eq!(render(r), golden[r.property_id], "unaffected line diverged");
        }
    }
    assert!(errored > 0, "at least the designated builder degrades");
    assert_eq!(report.degraded.panics_isolated, errored);
}

/// An extractor panic is isolated at the extraction stage: every model
/// property degrades to an explicit `error` naming the failed stage,
/// while the linkability experiments (which run on the testbed, not the
/// extracted models) still match the golden snapshot byte-for-byte.
#[test]
fn extractor_panic_degrades_model_checks_only() {
    let _guard = lock();
    let golden = golden_lines();
    arm(FaultPlan::new(FaultSite::Extractor, FaultKind::Panic).at_key("ue"));
    let report = analyze_implementation(Implementation::Reference, &config(true, 1));
    assert!(disarm(), "extractor fault must fire");
    assert_eq!(report.results.len(), golden.len(), "run completes");
    for (r, prop) in report.results.iter().zip(registry().iter()) {
        match prop.check {
            Check::Model(_) => {
                assert_eq!(r.outcome.tag(), "error", "{}", r.property_id);
                assert!(
                    render(r).contains("model extraction failed"),
                    "{}",
                    render(r)
                );
            }
            Check::Linkability(_) => {
                assert_eq!(render(r), golden[r.property_id], "linkability untouched");
            }
        }
    }
    assert!(report.degraded.panics_isolated > 0);
}

/// A truncated conformance log (the stack died mid-suite) must never
/// panic the pipeline: extraction sees half the records, the run still
/// produces a result for all 62 properties, and every result carries an
/// explicit outcome.
#[test]
fn log_source_truncation_completes_full_run() {
    let _guard = lock();
    arm(FaultPlan::new(FaultSite::LogSource, FaultKind::Truncate));
    // This test asserts *completion*, not verdicts, so the BMC bound is
    // kept small: a truncated log extracts mutated FSMs whose deep
    // unrollings make pathologically hard SAT instances (the solver
    // keeps every learned clause), and the contract "never panic, one
    // outcome per property" is fully exercised at a shallow bound.
    let cfg = AnalysisConfig {
        bmc_bound: 6,
        ..config(true, 2)
    };
    let report = analyze_implementation(Implementation::Reference, &cfg);
    assert!(disarm(), "log fault must fire");
    assert_eq!(report.results.len(), registry().len());
    for r in &report.results {
        assert!(!r.outcome.tag().is_empty());
    }
}

/// Seed sweep: whatever plan a seed derives — any site, any kind — a
/// filtered analysis run completes with one explicit result per
/// property. (Plans whose site/nth never matches simply don't fire;
/// that is also a completion case.)
#[test]
fn seeded_fault_sweep_always_completes() {
    let _guard = lock();
    for seed in 0..8u64 {
        let plan = FaultPlan::from_seed(seed);
        arm(plan.clone());
        let cfg = AnalysisConfig {
            property_filter: Some(vec!["S01", "S05", "S12", "PR07"]),
            // Completion-contract test (see the truncation test above):
            // seeds that mutate the log source produce mutated models,
            // so the BMC bound stays shallow to keep SAT effort sane.
            bmc_bound: 6,
            ..config(true, 2)
        };
        let report = analyze_implementation(Implementation::Reference, &cfg);
        disarm();
        assert_eq!(
            report.results.len(),
            4,
            "seed {seed} ({plan}) broke the run"
        );
    }
}
