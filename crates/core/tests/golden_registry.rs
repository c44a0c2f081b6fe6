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
use procheck::pipeline::{analyze_implementation, extract_models, AnalysisConfig, BackendKind};
use procheck_props::{registry, Check};
use procheck_smv::smvformat::to_smv;
use procheck_smv::BudgetMeter;
use procheck_stack::quirks::Implementation;
use procheck_telemetry::Collector;
use procheck_threat::{build_threat_model, StepSemantics, ThreatConfig};
use std::fmt::Write as _;
use std::path::Path;

const STATE_LIMIT: usize = 2_000_000;
const MAX_ITERATIONS: usize = 24;

fn config() -> AnalysisConfig {
    AnalysisConfig {
        threads: 1,
        state_limit: STATE_LIMIT,
        max_cegar_iterations: MAX_ITERATIONS,
        // Hermetic against an ambient PROCHECK_STORE: the snapshot's
        // exploration counters only exist when the run is cold.
        store_dir: None,
        ..AnalysisConfig::default()
    }
}

/// Renders the canonical snapshot text. Deterministic by construction:
/// no wall-clock fields, single-threaded pipeline, registry order.
fn render_snapshot() -> String {
    let mut out = String::new();

    // -- Section 1: the full-registry analysis report ----------------
    // Verdicts and complete counterexample traces via `Debug` (which
    // spells out every step's command label and state assignment), plus
    // the CEGAR trajectory counters.
    let telemetry = Collector::enabled();
    let cfg = AnalysisConfig {
        collector: telemetry.clone(),
        ..config()
    };
    let report = analyze_implementation(Implementation::Reference, &cfg);
    // Under `PROCHECK_BACKEND=symbolic` or `both` the symbolic engine
    // must have done real work, and under `both` it must agree with the
    // explicit engine on every model property.
    if cfg.backend != BackendKind::Explicit {
        let divergences = telemetry.counter_value("backend.divergences");
        assert_eq!(divergences, 0, "{divergences} backend divergences");
        assert!(
            telemetry.counter_value("backend.clauses") > 0,
            "the symbolic backend emitted no clauses"
        );
    }
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
    let models = extract_models(Implementation::Reference, &config());
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
            let graph = cache.graph(&threat_cfg, None, &compiled, STATE_LIMIT, &collector)?;
            cegar_check_backend_budgeted(
                &compiled,
                &*graph,
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

#[test]
fn registry_outputs_match_committed_snapshot() {
    let rendered = render_snapshot();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/registry.snap");
    if std::env::var_os("PROCHECK_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("golden snapshot rewritten: {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate with \
             PROCHECK_UPDATE_GOLDEN=1 cargo test -p procheck-core --test golden_registry",
            path.display()
        )
    });
    if committed != rendered {
        // Surface the first divergent line, not a multi-megabyte diff.
        for (i, (want, got)) in committed.lines().zip(rendered.lines()).enumerate() {
            assert_eq!(
                want,
                got,
                "golden snapshot diverges at line {} (see {})",
                i + 1,
                path.display()
            );
        }
        assert_eq!(
            committed.lines().count(),
            rendered.lines().count(),
            "golden snapshot line count diverges (see {})",
            path.display()
        );
        panic!("golden snapshot diverges in line endings only");
    }
}
