//! Registry-wide golden snapshot: the refactor-invisibility contract.
//!
//! Everything a user of the framework can observe — property verdicts,
//! counterexample traces (every step label and state assignment), CEGAR
//! refinement sequences (the excluded adversary command *names*), the
//! extracted models' DOT rendering, and the SMV emission of composed
//! threat models — is rendered into one canonical text snapshot and
//! compared byte-for-byte against `tests/golden/registry.snap`,
//! generated before the symbol-interning refactor. Internal
//! representation changes (interned ids, compiled expressions, bitset
//! exclusion masks) must never show up here.
//!
//! Regenerate (only when an *intentional* output change is reviewed):
//!
//! ```text
//! PROCHECK_UPDATE_GOLDEN=1 cargo test -q -p procheck-core --test golden_registry
//! ```

use procheck::cache::ThreatModelCache;
use procheck::cegar::cegar_check_backend_budgeted;
use procheck::pipeline::{analyze_implementation, extract_models, AnalysisConfig};
use procheck_props::{registry, Check};
use procheck_smv::smvformat::to_smv;
use procheck_smv::{BudgetMeter, ExplicitBackend};
use procheck_stack::quirks::Implementation;
use procheck_telemetry::Collector;
use procheck_threat::{build_threat_model, StepSemantics, ThreatConfig};
use std::fmt::Write as _;
use std::path::Path;

const STATE_LIMIT: usize = 2_000_000;
const MAX_ITERATIONS: usize = 24;

fn config(explore_threads: usize) -> AnalysisConfig {
    AnalysisConfig {
        threads: 1,
        explore_threads,
        graph_cache: true,
        state_limit: STATE_LIMIT,
        max_cegar_iterations: MAX_ITERATIONS,
        // Hermetic against an ambient PROCHECK_STORE: the snapshot's
        // exploration counters only exist when the run is cold.
        store_dir: None,
        ..AnalysisConfig::default()
    }
}

/// Renders the canonical snapshot text. Deterministic by construction:
/// no wall-clock fields, single-threaded pipeline, registry order — and
/// byte-identical at *any* `explore_threads` width, because the parallel
/// frontier interns states in the serial engine's canonical order.
fn render_snapshot(explore_threads: usize) -> String {
    let mut out = String::new();

    // -- Section 1: the full-registry analysis report ----------------
    // Verdicts and complete counterexample traces via `Debug` (which
    // spells out every step's command label and state assignment), plus
    // the CEGAR trajectory counters.
    let report = analyze_implementation(Implementation::Reference, &config(explore_threads));
    let _ = writeln!(out, "== results: Reference ==");
    for r in &report.results {
        let _ = writeln!(
            out,
            "{}|{:?}|iters={}|refs={}|cpv={}|cache_hit={}",
            r.property_id, r.outcome, r.cegar_iterations, r.refinements, r.cpv_queries, r.cache_hit
        );
    }

    // -- Section 2: CEGAR refinement names ---------------------------
    // The report only counts refinements; the excluded adversary
    // command *labels* (and the underivable terms) are re-derived here
    // per model-checked property, against the same shared graphs the
    // pipeline uses.
    let models = extract_models(Implementation::Reference, &config(explore_threads));
    let cache = ThreatModelCache::new();
    let (meter, collector) = (BudgetMeter::unlimited(), Collector::disabled());
    let _ = writeln!(out, "== cegar refinements: Reference ==");
    for prop in registry() {
        let Check::Model(p) = &prop.check else {
            continue;
        };
        let threat_cfg = prop.slice.threat_config();
        let model = cache
            .compose(&models.ue, &models.mme, &threat_cfg, &collector)
            .expect("golden models compose cleanly");
        let semantics = StepSemantics::new(threat_cfg.clone());
        let compiled = cache.compile(&model, &threat_cfg, &collector);
        if !compiled
            .as_ref()
            .is_ok_and(|c| c.compile_property(p).is_ok())
        {
            let _ = writeln!(out, "{}|not-applicable", prop.id);
            continue;
        }
        let line = match compiled.and_then(|compiled| {
            let graph = cache.graph(
                &threat_cfg,
                None,
                &compiled,
                STATE_LIMIT,
                &meter,
                explore_threads,
                true,
                &collector,
            )?;
            cegar_check_backend_budgeted(
                &compiled,
                &ExplicitBackend { graph: &graph },
                p,
                &semantics,
                STATE_LIMIT,
                MAX_ITERATIONS,
                &meter,
                &collector,
            )
        }) {
            Ok(outcome) => {
                let refs: Vec<String> = outcome
                    .refinements
                    .iter()
                    .map(|r| format!("{}!{:?}", r.excluded_command, r.underivable))
                    .collect();
                format!(
                    "{}|iters={}|[{}]",
                    prop.id,
                    outcome.iterations,
                    refs.join(", ")
                )
            }
            Err(e) => format!("{}|error={e:?}", prop.id),
        };
        let _ = writeln!(out, "{line}");
    }

    // -- Section 3: DOT rendering of the extracted models ------------
    let _ = writeln!(out, "== dot: ue ==");
    out.push_str(&procheck_fsm::dot::to_dot(&models.ue));
    let _ = writeln!(out, "== dot: mme ==");
    out.push_str(&procheck_fsm::dot::to_dot(&models.mme));

    // -- Section 4: SMV emission of composed threat models -----------
    // Two representative compositions: the bare LTE profile and a
    // monitor-heavy slice (capture bits, replay monitor, last-event
    // observers), covering every declaration family the builder emits.
    let lte = ThreatConfig::lte();
    let _ = writeln!(out, "== smv: lte ==");
    out.push_str(&to_smv(&build_threat_model(&models.ue, &models.mme, &lte)));
    let rich = ThreatConfig::lte()
        .with_replayable(["authentication_request", "security_mode_command"])
        .with_ue_last()
        .with_mme_last()
        .with_replay_monitor()
        .with_plain_monitor()
        .with_bypass_monitor()
        .with_imsi_monitor();
    let _ = writeln!(out, "== smv: lte+monitors ==");
    out.push_str(&to_smv(&build_threat_model(&models.ue, &models.mme, &rich)));

    out
}

fn assert_matches_committed(rendered: &str, context: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/registry.snap");
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate with \
             PROCHECK_UPDATE_GOLDEN=1 cargo test -p procheck-core --test golden_registry",
            path.display()
        )
    });
    if committed != *rendered {
        // Surface the first divergent line, not a multi-megabyte diff.
        for (i, (want, got)) in committed.lines().zip(rendered.lines()).enumerate() {
            assert_eq!(
                want,
                got,
                "golden snapshot diverges at line {} [{}] (see {})",
                i + 1,
                context,
                path.display()
            );
        }
        assert_eq!(
            committed.lines().count(),
            rendered.lines().count(),
            "golden snapshot line count diverges [{}] (see {})",
            context,
            path.display()
        );
        panic!("golden snapshot diverges in line endings only [{context}]");
    }
}

#[test]
fn registry_outputs_match_committed_snapshot() {
    let rendered = render_snapshot(1);
    if std::env::var_os("PROCHECK_UPDATE_GOLDEN").is_some() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/registry.snap");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("golden snapshot rewritten: {}", path.display());
        return;
    }
    assert_matches_committed(&rendered, "explore_threads=1");
}

/// The byte-identity contract of the parallel frontier: the *same*
/// committed snapshot at every exploration width — node ids, traces,
/// CEGAR exclusions, DOT, and SMV never depend on the worker count.
#[test]
fn registry_outputs_identical_at_any_explore_width() {
    if std::env::var_os("PROCHECK_UPDATE_GOLDEN").is_some() {
        return; // regeneration is the serial test's job
    }
    for explore_threads in [2, 4, 8] {
        let rendered = render_snapshot(explore_threads);
        assert_matches_committed(&rendered, &format!("explore_threads={explore_threads}"));
    }
}
