//! The persistent store's correctness contract, end to end:
//!
//! 1. **Byte-identity** — a warm run (every verdict replayed from the
//!    store) renders the same golden-format report as the cold run that
//!    populated it, and as a storeless run; at any thread count.
//! 2. **Full warmth** — an unchanged re-run hits on every verdict
//!    through the verdict index: it composes no threat model, consults
//!    no graph slot and writes nothing. A store without indexes (as an
//!    older build wrote it) is still fully warm through the second-level
//!    keys, and gains its index on that run. A cold run stores verdicts,
//!    one index and one baseline, and no reachability graph.
//! 3. **Corruption degrades to cold** — a store whose files are
//!    truncated, checksum-flipped, or version-skewed produces the same
//!    report as no store at all, never a wrong answer.
//! 4. **Incremental re-check** — after a one-transition FSM mutation,
//!    properties whose keys still match (linkability; cone-disjoint
//!    slices) replay warm, the rest re-check, and the mutated-warm
//!    report is byte-identical to a mutated-cold one.
//! 5. **Backend isolation** — verdict keys carry the backend tag (and
//!    the BMC bound), so a store warmed by one backend yields zero
//!    verdict hits under the other, and `Both` mode replays both sets.

use procheck::pipeline::{
    analyze_extracted, extract_models, AnalysisConfig, AnalysisReport, BackendKind,
};
use procheck::report::PropertyOutcome;
use procheck_fsm::Transition;
use procheck_stack::quirks::Implementation;
use procheck_store::{Kind, FORMAT_VERSION};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

mod common;
use common::{stored_index, TempDir};

const IDS: &[&str] = &["S01", "S12", "PR07", "PR19", "PR20"];

/// A fresh, empty store directory unique to this test + process,
/// removed when dropped.
fn fresh_dir(tag: &str) -> TempDir {
    TempDir::new(&format!("procheck-warm-{tag}"))
}

/// The pipeline configuration under test: single-threaded and explicit
/// about every switch the environment could otherwise default, so the
/// tests are hermetic.
fn cfg(store_dir: Option<PathBuf>, threads: usize) -> AnalysisConfig {
    AnalysisConfig {
        property_filter: Some(IDS.to_vec()),
        state_limit: 2_000_000,
        max_cegar_iterations: 24,
        threads,
        store_dir,
        backend: BackendKind::Explicit,
        ..AnalysisConfig::default()
    }
}

/// The golden-format rendering (`golden_registry.rs` section 1): every
/// observable field of every result, byte-comparable.
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

/// Applies `corrupt` to every record file under the store root.
fn corrupt_all_files(root: &Path, corrupt: &dyn Fn(&mut Vec<u8>)) {
    fn walk(dir: &Path, corrupt: &dyn Fn(&mut Vec<u8>)) {
        for entry in std::fs::read_dir(dir).expect("store dir readable") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(&path, corrupt);
            } else {
                let mut data = std::fs::read(&path).unwrap();
                corrupt(&mut data);
                std::fs::write(&path, &data).unwrap();
            }
        }
    }
    walk(root, corrupt);
}

#[test]
fn warm_run_replays_cold_run_byte_identically() {
    let dir = fresh_dir("replay");
    let models = extract_models(Implementation::Reference, &cfg(None, 1));

    let storeless = analyze_extracted(Implementation::Reference, &models, &cfg(None, 1));
    let cold = analyze_extracted(
        Implementation::Reference,
        &models,
        &cfg(Some(dir.to_path_buf()), 1),
    );
    assert_eq!(
        render(&cold),
        render(&storeless),
        "attaching a store must not change a cold run"
    );
    assert_eq!(cold.store_stats.hits, 0, "first run finds nothing");
    assert!(cold.store_stats.lookups > 0);
    assert!(cold.store_stats.writes > 0, "cold run populates the store");
    assert!(
        cold.graph_cache_stats.builds > 0,
        "cold run explores for real"
    );

    let warm = analyze_extracted(
        Implementation::Reference,
        &models,
        &cfg(Some(dir.to_path_buf()), 1),
    );
    assert_eq!(render(&warm), render(&cold), "warm replay must be exact");
    assert!(warm.store_stats.lookups > 0);
    assert_eq!(
        warm.store_stats.hits, warm.store_stats.lookups,
        "unchanged re-run hits on every verdict"
    );
    assert_eq!(
        warm.graph_cache_stats.lookups, 0,
        "verdict hits never reach the graph layer"
    );
    assert_eq!(
        warm.cache_stats.lookups, 0,
        "the verdict index answers before any composition"
    );
    assert_eq!(
        warm.store_stats.writes, 0,
        "a fully warm run writes nothing"
    );
    assert!(warm.degraded.is_clean());

    // Thread-count independence of the warm path.
    let warm4 = analyze_extracted(
        Implementation::Reference,
        &models,
        &cfg(Some(dir.to_path_buf()), 4),
    );
    assert_eq!(render(&warm4), render(&cold));
    assert_eq!(warm4.store_stats.hits, warm4.store_stats.lookups);
    assert_eq!(warm4.cache_stats.lookups, 0);
    assert_eq!(warm4.store_stats.writes, 0);
}

/// A cold store-backed run of the full registry writes three record
/// kinds: one verdict per property, one verdict index and one baseline.
/// The graphs it explores stay in memory, so `graphs/` stays empty.
#[test]
fn cold_run_stores_no_graphs() {
    let dir = fresh_dir("record-kinds");
    let mut full = cfg(Some(dir.to_path_buf()), 2);
    full.property_filter = None;
    let models = extract_models(Implementation::Reference, &full);
    let cold = analyze_extracted(Implementation::Reference, &models, &full);
    assert!(cold.degraded.is_clean());
    assert!(cold.graph_cache_stats.builds > 0, "the run explores graphs");
    let records = |kind: Kind| {
        std::fs::read_dir(dir.join(kind.dir()))
            .unwrap_or_else(|e| panic!("{}/: {e}", kind.dir()))
            .count()
    };
    assert_eq!(records(Kind::Graph), 0, "a cold run stores no graph");
    assert_eq!(records(Kind::Verdict), cold.results.len());
    assert_eq!(records(Kind::Index), 1);
    assert_eq!(records(Kind::Baseline), 1);
    assert_eq!(
        cold.store_stats.writes,
        cold.results.len() as u64 + 2,
        "verdicts, the index and the baseline are all it writes"
    );
}

/// Verdict keys carry the backend discriminant: an Explicit-warmed
/// store yields zero verdict hits under the Symbolic backend (and vice
/// versa), and `Both` mode — after both backends have settled their
/// verdicts — replays both sets without touching an engine.
///
/// Model-only properties: linkability verdicts check testbed traces,
/// not a composed model, so their keys are backend-independent and
/// would hit across backends by design.
#[test]
fn store_warmth_is_backend_scoped() {
    const MODEL_IDS: &[&str] = &["S01", "S12", "PR19"];
    let backend_cfg = |dir: PathBuf, backend: BackendKind| {
        let mut c = cfg(Some(dir), 1);
        c.property_filter = Some(MODEL_IDS.to_vec());
        c.backend = backend;
        c
    };
    let dir = fresh_dir("backend");
    let models = extract_models(Implementation::Reference, &cfg(None, 1));

    // Cold explicit run populates the store with explicit-keyed verdicts.
    let explicit_cold = analyze_extracted(
        Implementation::Reference,
        &models,
        &backend_cfg(dir.to_path_buf(), BackendKind::Explicit),
    );
    assert_eq!(explicit_cold.store_stats.hits, 0);
    assert!(explicit_cold.store_stats.writes > 0);

    // The symbolic backend sees none of them: every lookup misses, the
    // BMC engine settles its own verdicts, and they are written back
    // under symbolic-tagged keys.
    let symbolic_cold = analyze_extracted(
        Implementation::Reference,
        &models,
        &backend_cfg(dir.to_path_buf(), BackendKind::Symbolic),
    );
    assert_eq!(
        symbolic_cold.store_stats.hits, 0,
        "explicit-warmed store must not serve symbolic queries: {:?}",
        symbolic_cold.store_stats
    );
    assert!(symbolic_cold.store_stats.lookups > 0);
    assert!(
        symbolic_cold.store_stats.writes > 0,
        "symbolic run settles and stores its own verdicts"
    );

    // Each backend is now fully warm under its own keys.
    let explicit_warm = analyze_extracted(
        Implementation::Reference,
        &models,
        &backend_cfg(dir.to_path_buf(), BackendKind::Explicit),
    );
    assert_eq!(render(&explicit_warm), render(&explicit_cold));
    assert_eq!(
        explicit_warm.store_stats.hits,
        explicit_warm.store_stats.lookups
    );
    let symbolic_warm = analyze_extracted(
        Implementation::Reference,
        &models,
        &backend_cfg(dir.to_path_buf(), BackendKind::Symbolic),
    );
    assert_eq!(render(&symbolic_warm), render(&symbolic_cold));
    assert_eq!(
        symbolic_warm.store_stats.hits,
        symbolic_warm.store_stats.lookups
    );

    // `Both` mode replays both sets: each leg hits on its own keys, so
    // every lookup is a hit and no engine runs (zero graph builds).
    let both = analyze_extracted(
        Implementation::Reference,
        &models,
        &backend_cfg(dir.to_path_buf(), BackendKind::Both),
    );
    assert_eq!(
        both.store_stats.hits, both.store_stats.lookups,
        "Both mode must replay both warmed sets: {:?}",
        both.store_stats
    );
    assert!(
        both.store_stats.lookups > explicit_warm.store_stats.lookups,
        "Both mode looks up per leg"
    );
    assert_eq!(
        both.graph_cache_stats.builds, 0,
        "fully warm Both run never explores"
    );
    assert_eq!(
        both.cache_stats.lookups, 0,
        "each leg's verdict index answers before any composition"
    );
    // On agreement Both reports the explicit leg's results verbatim.
    assert_eq!(render(&both), render(&explicit_cold));
    assert!(both.degraded.is_clean());
}

#[test]
fn corrupted_store_degrades_to_cold_miss() {
    let truncate: &dyn Fn(&mut Vec<u8>) = &|data| data.truncate(data.len() / 2);
    let bad_checksum: &dyn Fn(&mut Vec<u8>) = &|data| {
        let last = data.len() - 1;
        data[last] ^= 0xff;
    };
    let version_skew: &dyn Fn(&mut Vec<u8>) = &|data| {
        // A future build's file: bump the version and re-checksum, so
        // *only* the version gate rejects it.
        data[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let body_end = data.len() - 16;
        let sum = procheck_store::hash_bytes(&data[..body_end]);
        data[body_end..].copy_from_slice(&sum.0);
    };
    let models = extract_models(Implementation::Reference, &cfg(None, 1));
    let baseline = analyze_extracted(Implementation::Reference, &models, &cfg(None, 1));
    for (tag, corrupt) in [
        ("truncate", truncate),
        ("checksum", bad_checksum),
        ("version", version_skew),
    ] {
        let dir = fresh_dir(&format!("corrupt-{tag}"));
        let _ = analyze_extracted(
            Implementation::Reference,
            &models,
            &cfg(Some(dir.to_path_buf()), 1),
        );
        // The corpus corrupts the verdict index too.
        let _ = stored_index(&dir);
        corrupt_all_files(&dir, corrupt);
        let warm = analyze_extracted(
            Implementation::Reference,
            &models,
            &cfg(Some(dir.to_path_buf()), 1),
        );
        assert_eq!(
            render(&warm),
            render(&baseline),
            "[{tag}] corruption must replay nothing, change nothing"
        );
        assert_eq!(warm.store_stats.hits, 0, "[{tag}] no corrupt record hits");
        assert!(
            warm.store_stats.writes > 0,
            "[{tag}] the run re-settles and re-writes the store"
        );
        assert!(warm.degraded.is_clean(), "[{tag}]");
    }
}

#[test]
fn mutated_model_rechecks_only_what_the_delta_touches() {
    let dir = fresh_dir("mutate");
    let models = extract_models(Implementation::Reference, &cfg(None, 1));
    let cold = analyze_extracted(
        Implementation::Reference,
        &models,
        &cfg(Some(dir.to_path_buf()), 1),
    );

    // One added UE transition — the paper's incremental scenario: a
    // patched implementation whose extracted machine differs by one
    // transition. The new command lands in every *full* composed model
    // (shifting their fingerprints) but outside every existing cone.
    let mut mutated = models.clone();
    mutated.ue.add_transition(
        Transition::build("emm_deregistered", "emm_deregistered")
            .when("probe_request")
            .then("probe_reject"),
    );

    let collector = procheck_telemetry::Collector::enabled();
    let mut warm_cfg = cfg(Some(dir.to_path_buf()), 1);
    warm_cfg.collector = collector.clone();
    let warm = analyze_extracted(Implementation::Reference, &mutated, &warm_cfg);

    // The arbiter is key equality: linkability keys carry no FSM hash
    // at all, and sliced verdict keys only change when the delta lands
    // inside the cone — so some (not all) verdicts replay.
    assert!(
        warm.store_stats.hits > 0,
        "delta-disjoint verdicts must survive the mutation: {:?}",
        warm.store_stats
    );
    assert!(
        warm.store_stats.hits < warm.store_stats.lookups,
        "a real mutation must force some re-checking: {:?}",
        warm.store_stats
    );
    assert_eq!(
        warm.store_stats.lookups,
        IDS.len() as u64,
        "one verdict lookup per property, however it resolves"
    );
    for id in ["PR07", "PR20"] {
        let r = warm.result(id).unwrap();
        assert!(
            matches!(
                r.outcome,
                PropertyOutcome::Distinguishable(_) | PropertyOutcome::Equivalent
            ),
            "{id} is linkability"
        );
    }
    // FSM-delta telemetry: the stored baseline was diffed against the
    // mutated machine and saw exactly the one added transition.
    assert_eq!(collector.counter_value("store.baseline_found"), 1);
    assert_eq!(collector.counter_value("store.delta_transitions"), 1);

    // Ground truth: the warm mutated report equals a storeless run on
    // the mutated models, byte for byte.
    let cold_mutated = analyze_extracted(Implementation::Reference, &mutated, &cfg(None, 1));
    assert_eq!(render(&warm), render(&cold_mutated));
    // And the original machines' verdicts are untouched in the store
    // (keys are content-addressed, not overwritten): re-running the
    // *original* models is still fully warm.
    let warm_orig = analyze_extracted(
        Implementation::Reference,
        &models,
        &cfg(Some(dir.to_path_buf()), 1),
    );
    assert_eq!(render(&warm_orig), render(&cold));
    assert_eq!(warm_orig.store_stats.hits, warm_orig.store_stats.lookups);
    // The verdict index is content-addressed too: the original pair's
    // index still answers, so nothing is composed.
    assert_eq!(warm_orig.cache_stats.lookups, 0);
}

/// A store without verdict indexes — what a build before the index
/// wrote — is still fully warm through the second-level keys. That run
/// composes to compute them and writes only the index; the run after it
/// composes nothing.
#[test]
fn store_without_indexes_stays_warm_and_gains_one() {
    let dir = fresh_dir("no-index");
    let models = extract_models(Implementation::Reference, &cfg(None, 1));
    let cold = analyze_extracted(
        Implementation::Reference,
        &models,
        &cfg(Some(dir.to_path_buf()), 1),
    );
    let cold_index = stored_index(&dir);
    std::fs::remove_dir_all(dir.join("indexes")).unwrap();

    let rebuilt = analyze_extracted(
        Implementation::Reference,
        &models,
        &cfg(Some(dir.to_path_buf()), 1),
    );
    assert_eq!(render(&rebuilt), render(&cold));
    assert_eq!(rebuilt.store_stats.lookups, IDS.len() as u64);
    assert_eq!(rebuilt.store_stats.hits, rebuilt.store_stats.lookups);
    assert_eq!(rebuilt.graph_cache_stats.lookups, 0);
    assert!(
        rebuilt.cache_stats.lookups > 0,
        "second-level keys need the composed models"
    );
    assert_eq!(
        rebuilt.store_stats.writes, 1,
        "only the index is written: {:?}",
        rebuilt.store_stats
    );
    assert_eq!(stored_index(&dir), cold_index, "the cold run's index again");

    let warm = analyze_extracted(
        Implementation::Reference,
        &models,
        &cfg(Some(dir.to_path_buf()), 1),
    );
    assert_eq!(render(&warm), render(&cold));
    assert_eq!(warm.store_stats.hits, warm.store_stats.lookups);
    assert_eq!(warm.cache_stats.lookups, 0);
    assert_eq!(warm.store_stats.writes, 0);
}
