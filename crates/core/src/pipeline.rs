//! The end-to-end analysis pipeline (paper Fig 2).
//!
//! `analyze_implementation` runs, for one implementation profile:
//!
//! 1. **instrument + conformance** — the stacks run the full conformance
//!    suite with instrumentation on, producing the information-rich log;
//! 2. **extract** — Algorithm 1 builds `UE^μ` and `MME^μ`;
//! 3. per property: **threat-instrument** (property-sliced `IMP^μ`),
//!    **CEGAR-check** (model checker ⇄ crypto verifier), or run the
//!    **linkability** experiment on the simulated testbed;
//! 4. classify outcomes against each property's conformant expectation
//!    into findings (standards-level vs implementation-specific).
//!
//! Step 3 fans out across a worker pool ([`AnalysisConfig::threads`]):
//! properties are independent once the models are extracted, so workers
//! pull indices from a shared counter and deposit results into
//! per-property slots — the report is always in registry order, byte-
//! identical to a single-threaded run. Composed threat models are
//! shared through a [`ThreatModelCache`], so each distinct property
//! slice is built once per run instead of once per property — and the
//! same cache shares one reachability graph per distinct configuration
//! (or cone), explored at most once per run and only as far as its
//! properties need: an invariant or reachability goal stops the BFS at
//! its first matching state, and every other property answers as a
//! query over the graph run to the end. The cache lives in memory; only
//! verdicts, verdict indexes and FSM baselines reach the persistent
//! store.

use crate::cache::{CacheStats, ThreatModelCache};
use crate::cegar::{cegar_check_backend_budgeted, CegarOutcome, FinalVerdict};
use crate::report::{DegradedStats, Finding, PropertyOutcome, PropertyResult};
use crate::store::{
    baseline_key, checked_model_fps, cone_intersects_delta, delta_commands, fsm_pair_fingerprint,
    index_key, knobs_fingerprint, link_key, outcome_from_data, outcome_to_data, threat_fingerprint,
    verdict_key, RunStore, VerdictIndex, BACKEND_TAG_EXPLICIT, BACKEND_TAG_SYMBOLIC,
};
use procheck_conformance::runner::run_suite_traced;
use procheck_conformance::suites;
use procheck_conformance::CoverageReport;
use procheck_extractor::{extract_fsm_traced, ExtractorConfig};
use procheck_fsm::canon::canonical_text;
use procheck_fsm::stats::FsmStats;
use procheck_fsm::Fsm;
use procheck_props::{registry, BaseProfile, Check, LinkScenario, NasProperty};
use procheck_smv::budget::{panic_message, Budget, BudgetMeter};
use procheck_smv::checker::{
    CheckError, CheckStats, CompiledModel, CompiledProperty, QueryStats, DEFAULT_STATE_LIMIT,
};
use procheck_smv::coi::{expand_counterexample, slice_for_property, ConeSig, SlicedModel};
use procheck_stack::quirks::Implementation;
use procheck_stack::UeConfig;
use procheck_store::{BaselineRecord, Fingerprint, IndexEntry, StoreStats, VerdictRecord};
use procheck_symbolic::{BmcBackend, DEFAULT_BMC_BOUND};
use procheck_telemetry::Collector;
use procheck_testbed::linkability::{run_scenario, Scenario};
use procheck_threat::{StepSemantics, ThreatConfig};
use std::collections::HashSet;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;
use std::time::Instant;

/// Which checking engine answers model properties (the
/// [`CheckBackend`] seam).
///
/// [`CheckBackend`]: procheck_smv::CheckBackend
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The explicit-state engine over cached reachability graphs — the
    /// historical path, complete over the reachable space. The default.
    #[default]
    Explicit,
    /// The bounded symbolic engine (`procheck-symbolic`): CNF
    /// bit-blasting solved by the in-repo CDCL solver, refutation-
    /// complete up to [`AnalysisConfig::bmc_bound`]. A pass within the
    /// bound reports [`PropertyOutcome::BoundReached`], never
    /// `Verified`.
    Symbolic,
    /// Cross-validation: run *both* engines per model property and
    /// compare under the agreement rules (a symbolic `BoundReached`
    /// agrees with an explicit pass; a definite answer must match in
    /// class). Any disagreement is reported as a hard
    /// [`PropertyOutcome::Error`] — never resolved by picking a winner.
    /// On agreement the explicit leg's outcome (and counters) are
    /// reported, so reports stay byte-identical to `Explicit` mode.
    Both,
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Subscriber identity used for the conformance run.
    pub imsi: String,
    /// Subscriber key material.
    pub key_material: u64,
    /// Explicit-state limit per model check.
    pub state_limit: usize,
    /// CEGAR iteration bound per property.
    pub max_cegar_iterations: usize,
    /// When set, only properties with these ids are checked.
    pub property_filter: Option<Vec<&'static str>>,
    /// Worker threads for the property-checking pool. Values are clamped
    /// to ≥ 1; results are identical (and identically ordered) for any
    /// value.
    pub threads: usize,
    /// Read by nothing: every reachability graph is built by one serial
    /// BFS. The field stays only because the repository benchmark
    /// (`benchmark/`) sets and prints it. Defaults to 1.
    pub explore_threads: usize,
    /// Read by nothing: every model property answers as a query over
    /// the run's in-memory graph cache, which has no switch. The field
    /// stays only because the repository benchmark (`benchmark/`) sets
    /// and prints it. Defaults to `true`.
    pub graph_cache: bool,
    /// Project each model property onto its cone of influence before
    /// exploration: variables the property cannot observe (directly or
    /// through kept-command guards) are dropped from the packed state,
    /// and commands updating only dropped variables are dropped with
    /// them, so the per-property reachable space shrinks — often by an
    /// order of magnitude. Verdicts, counterexample traces (re-expanded
    /// to full-variable form at the report edge), and CEGAR refinement
    /// sequences are byte-identical either way; only the exploration
    /// accounting moves. Sliced graphs live in the shared cache keyed by
    /// `(ThreatConfig, ConeSig)`. Only the explicit engine slices.
    /// Defaults to on; `PROCHECK_NO_SLICE=1` defaults it off.
    pub slice: bool,
    /// Read by nothing: exploration has one way to find enabled commands
    /// and no reduction to switch. The field stays only because the
    /// repository benchmark (`benchmark/`) sets and prints it. Defaults
    /// to `true`.
    pub por: bool,
    /// Telemetry sink every pipeline stage reports into. Disabled by
    /// default (all operations are no-ops); pass
    /// [`Collector::enabled`] to record counters, spans, and marks.
    /// Counter totals are identical for any `threads` value.
    pub collector: Collector,
    /// Resource budget for the whole run: wall-clock deadline,
    /// per-property state cap, run-wide total-state cap. Exhaustion
    /// degrades the affected properties to
    /// [`PropertyOutcome::BudgetExhausted`] — the run always completes
    /// and reports partial work; it never aborts. Unlimited by default.
    pub budget: Budget,
    /// Directory of the persistent cross-run analysis store. When set,
    /// settled verdicts from previous runs are reused: a verdict hit
    /// skips the property's check entirely. The store holds verdicts,
    /// verdict indexes and FSM baselines; reachability graphs stay in
    /// the run's memory and are never written. Every reuse is gated by
    /// stable content fingerprints, so results are always
    /// byte-identical to a cold run; corruption of any stored record
    /// degrades to a cold miss, never a wrong answer. `None` (the
    /// default) runs fully cold; the `PROCHECK_STORE` environment
    /// variable supplies a default directory.
    pub store_dir: Option<PathBuf>,
    /// Which checking engine answers model properties. Defaults from
    /// the `PROCHECK_BACKEND` environment variable (`explicit` /
    /// `symbolic` / `both`, any case; unset = explicit). Linkability properties
    /// run on the simulated testbed in every mode — there is no second
    /// engine for them to diverge from.
    pub backend: BackendKind,
    /// Transition bound for the symbolic (BMC) engine: behaviours of up
    /// to this many steps are searched exhaustively; longer ones are
    /// honestly reported as [`PropertyOutcome::BoundReached`]. Part of
    /// the persistent store's knobs fingerprint. Defaults to
    /// [`DEFAULT_BMC_BOUND`].
    pub bmc_bound: usize,
}

impl Default for AnalysisConfig {
    /// The built-in defaults, adjusted by three `PROCHECK_*` environment
    /// knobs — the one place the pipeline reads its environment:
    ///
    /// * `PROCHECK_NO_SLICE` — `1`/`true` turns slicing off,
    ///   `0`/`false` leaves it on;
    /// * `PROCHECK_STORE` — a store directory;
    /// * `PROCHECK_BACKEND` — `explicit`, `symbolic` or `both`, any case.
    ///
    /// An empty (or blank) value counts as unset.
    ///
    /// # Panics
    ///
    /// When a knob holds any other value; the message names the
    /// variable, the value, and the values it accepts.
    fn default() -> Self {
        AnalysisConfig::from_env(|name| {
            std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
        })
        .unwrap_or_else(|e| panic!("{e}"))
    }
}

impl AnalysisConfig {
    /// [`AnalysisConfig::default`] over the knob values `lookup`
    /// resolves, returning the rejection instead of panicking.
    fn from_env(lookup: impl Fn(&str) -> Option<String>) -> Result<AnalysisConfig, String> {
        let knob = |name: &str| lookup(name).filter(|v| !v.trim().is_empty());
        let reject = |name: &str, value: &str, accepted: &str| {
            format!("{name}={value:?}: expected {accepted}")
        };
        let off = |name: &str| match knob(name) {
            None => Ok(false),
            Some(v) => match v.trim().to_ascii_lowercase().as_str() {
                "1" | "true" => Ok(true),
                "0" | "false" => Ok(false),
                _ => Err(reject(name, &v, "1 or true (off), 0 or false (on)")),
            },
        };
        let backend = match knob("PROCHECK_BACKEND") {
            None => BackendKind::Explicit,
            Some(v) => match v.trim().to_ascii_lowercase().as_str() {
                "explicit" => BackendKind::Explicit,
                "symbolic" => BackendKind::Symbolic,
                "both" => BackendKind::Both,
                _ => return Err(reject("PROCHECK_BACKEND", &v, "explicit, symbolic or both")),
            },
        };
        Ok(AnalysisConfig {
            imsi: "001010123456789".into(),
            key_material: 0x1122_3344_5566_7788,
            state_limit: DEFAULT_STATE_LIMIT,
            max_cegar_iterations: 24,
            property_filter: None,
            threads: default_threads(),
            explore_threads: 1,
            graph_cache: true,
            slice: !off("PROCHECK_NO_SLICE")?,
            por: true,
            collector: Collector::disabled(),
            budget: Budget::unlimited(),
            store_dir: knob("PROCHECK_STORE").map(PathBuf::from),
            backend,
            bmc_bound: DEFAULT_BMC_BOUND,
        })
    }
}

/// One worker per available hardware thread, falling back to 1 where
/// parallelism cannot be queried.
fn default_threads() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// The extracted models plus extraction metadata.
#[derive(Debug, Clone)]
pub struct ExtractedModels {
    /// The UE FSM `UE^μ`.
    pub ue: Fsm,
    /// The MME FSM `MME^μ`.
    pub mme: Fsm,
    /// NAS handler coverage achieved by the conformance suite.
    pub coverage: CoverageReport,
    /// Size of the information-rich log (records).
    pub log_records: usize,
    /// Extraction failures that were isolated (one entry per FSM whose
    /// extraction panicked; the model is an empty placeholder). Model
    /// properties degrade to [`PropertyOutcome::Error`] when this is
    /// non-empty; linkability properties are unaffected.
    pub extraction_errors: Vec<String>,
}

/// Builds the UE configuration for an implementation profile.
pub fn ue_config_for(implementation: Implementation, cfg: &AnalysisConfig) -> UeConfig {
    match implementation {
        Implementation::Reference => UeConfig::reference(&cfg.imsi, cfg.key_material),
        Implementation::Srs => UeConfig::srs(&cfg.imsi, cfg.key_material),
        Implementation::Oai => UeConfig::oai(&cfg.imsi, cfg.key_material),
    }
}

/// Phase 1+2: run the instrumented conformance suite and extract the
/// FSMs.
///
/// Extraction is fault-isolated: a panic while extracting one FSM is
/// caught, recorded in [`ExtractedModels::extraction_errors`], and
/// replaced with an empty placeholder model, so the pipeline always
/// reaches the per-property stage (where model properties then degrade
/// to explicit [`PropertyOutcome::Error`] results).
pub fn extract_models(implementation: Implementation, cfg: &AnalysisConfig) -> ExtractedModels {
    let ue_cfg = ue_config_for(implementation, cfg);
    #[cfg_attr(not(feature = "fault-inject"), allow(unused_mut))]
    let mut report = run_suite_traced(&ue_cfg, &suites::full_suite(&ue_cfg), &cfg.collector);
    #[cfg(feature = "fault-inject")]
    if let Some(fault) = procheck_faults::inject(procheck_faults::FaultSite::LogSource, None) {
        apply_log_fault(&mut report.ue_log, fault);
    }
    let mut extraction_errors = Vec::new();
    let mut extract =
        |name: &'static str, log: &[procheck_instrument::LogRecord], xcfg: &ExtractorConfig| {
            catch_unwind(AssertUnwindSafe(|| {
                extract_fsm_traced(name, log, xcfg, &cfg.collector)
            }))
            .unwrap_or_else(|payload| {
                extraction_errors.push(format!(
                    "{name} extraction panicked: {}",
                    panic_message(payload)
                ));
                Fsm::new(name)
            })
        };
    let ue = extract(
        "ue",
        &report.ue_log,
        &ExtractorConfig::for_ue(&ue_cfg.signatures),
    );
    let mme = extract("mme", &report.mme_log, &ExtractorConfig::for_mme());
    ExtractedModels {
        ue,
        mme,
        coverage: report.coverage,
        log_records: report.ue_log.len() + report.mme_log.len(),
        extraction_errors,
    }
}

/// Applies a [`DataFault`] from the `LogSource` site to an
/// information-rich log: `Truncate` drops the tail half (a stack that
/// died mid-suite), `Garbage` reverses the record order (a log whose
/// sequencing is wrecked). Both are deterministic.
///
/// [`DataFault`]: procheck_faults::DataFault
#[cfg(feature = "fault-inject")]
fn apply_log_fault(
    log: &mut Vec<procheck_instrument::LogRecord>,
    fault: procheck_faults::DataFault,
) {
    match fault {
        procheck_faults::DataFault::Truncate => log.truncate(log.len() / 2),
        procheck_faults::DataFault::Garbage => log.reverse(),
    }
}

/// Full analysis report for one implementation.
#[derive(Debug)]
pub struct AnalysisReport {
    /// The implementation analysed.
    pub implementation: Implementation,
    /// Per-property results, in registry order.
    pub results: Vec<PropertyResult>,
    /// Structural statistics of the extracted UE model.
    pub ue_stats: FsmStats,
    /// Structural statistics of the extracted MME model.
    pub mme_stats: FsmStats,
    /// Conformance coverage.
    pub coverage: CoverageReport,
    /// Threat-model composition cache accounting for this run.
    pub cache_stats: CacheStats,
    /// Reachability-graph cache accounting for this run.
    pub graph_cache_stats: CacheStats,
    /// Degraded-outcome accounting: budget exhaustions, isolated panics,
    /// skips. All zeros on a clean run (CI gates on this).
    pub degraded: DegradedStats,
    /// Persistent-store accounting for this run; all zeros when no
    /// store was configured ([`AnalysisConfig::store_dir`]).
    pub store_stats: StoreStats,
}

impl AnalysisReport {
    /// All findings (deviations from the conformant expectation).
    pub fn findings(&self) -> Vec<Finding> {
        self.results
            .iter()
            .filter(|r| r.is_finding())
            .map(|r| Finding {
                property_id: r.property_id,
                attack: r.related_attack,
                summary: format!("{} — outcome: {}", r.title, r.outcome.tag()),
                vulnerability_type: if r.is_implementation_finding() {
                    "implementation"
                } else {
                    "standards"
                },
            })
            .collect()
    }

    /// Result for one property id.
    pub fn result(&self, id: &str) -> Option<&PropertyResult> {
        self.results.iter().find(|r| r.property_id == id)
    }

    /// Count of properties whose outcome matched the conformant
    /// expectation.
    pub fn conforming(&self) -> usize {
        self.results.iter().filter(|r| !r.is_finding()).count()
    }

    /// Renders a human-readable summary of the analysis.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "ProChecker analysis — {}", self.implementation.name());
        let _ = writeln!(out, "  UE model : {}", self.ue_stats);
        let _ = writeln!(out, "  MME model: {}", self.mme_stats);
        let _ = writeln!(out, "  coverage : {}", self.coverage);
        let findings = self.findings();
        let standards = findings
            .iter()
            .filter(|f| f.vulnerability_type == "standards")
            .count();
        let _ = writeln!(
            out,
            "  properties: {} checked, {} conforming, {} findings \
             ({} standards-level, {} implementation-specific)",
            self.results.len(),
            self.conforming(),
            findings.len(),
            standards,
            findings.len() - standards,
        );
        if !self.degraded.is_clean() {
            let _ = writeln!(
                out,
                "  degraded  : {} ({} budget-exhausted, {} isolated panics, {} skipped)",
                self.degraded.total(),
                self.degraded.budget_exhausted,
                self.degraded.panics_isolated,
                self.degraded.skipped,
            );
        }
        for f in &findings {
            let _ = writeln!(
                out,
                "    [{:14}] {:5} {:4} {}",
                f.vulnerability_type,
                f.property_id,
                f.attack.unwrap_or("-"),
                f.summary
            );
        }
        out
    }
}

/// This run's verdict indexes by backend leg, `[explicit, symbolic]`;
/// `None` for a leg the run does not check, and for both when
/// extraction failed.
type LegIndexes = [Option<VerdictIndex>; 2];

/// A store-backed run's persistent store, with the verdict index of each
/// backend leg.
struct StoreCtx<'a> {
    store: &'a RunStore,
    indexes: LegIndexes,
}

impl StoreCtx<'_> {
    /// The verdict index of the symbolic leg, or of the explicit one.
    fn index(&self, symbolic: bool) -> Option<&VerdictIndex> {
        self.indexes[usize::from(symbolic)].as_ref()
    }
}

/// The cone a model property was checked against, recorded by its
/// worker once the property's configuration compiled: `Some(None)` for
/// the full model, `Some(Some(sig))` for a cone-of-influence projection.
/// `None` when nothing compiled: a verdict-index hit, a linkability
/// property, or a failed extraction, composition or compilation.
type CheckedCone = Option<Option<ConeSig>>;

/// Checks one property against the extracted models. The composed
/// threat model for the property's slice is fetched from (or built
/// into) `cache`, so callers checking many properties share one
/// composition per distinct configuration. The work is charged to
/// `meter`, which `analyze_implementation` shares across all properties
/// so the total-state cap and deadline govern the whole run. Returns the
/// result with the cone it was checked against.
///
/// Every degraded path — budget exhaustion, a panic isolated in a
/// cached build, a failed extraction — returns an explicit
/// [`PropertyOutcome`]; this function only panics if the property
/// evaluation itself does (the worker pool catches that too).
fn check_property_metered(
    prop: &NasProperty,
    models: &ExtractedModels,
    implementation: Implementation,
    cfg: &AnalysisConfig,
    cache: &ThreatModelCache,
    store: Option<&StoreCtx>,
    meter: &BudgetMeter,
) -> (PropertyResult, CheckedCone) {
    let start = Instant::now();
    #[cfg(feature = "fault-inject")]
    procheck_faults::inject(procheck_faults::FaultSite::PropertyEval, Some(prop.id));
    let mut states_explored = 0u64;
    let mut peak_queue = 0u64;
    let mut cpv_queries = 0usize;
    let mut nodes_reused = 0u64;
    let mut graph_cache_hit = None;
    let mut cone = None;
    let (outcome, iterations, refinements) = match &prop.check {
        Check::Model(_) if !models.extraction_errors.is_empty() => (
            PropertyOutcome::Error(format!(
                "model extraction failed: {}",
                models.extraction_errors.join("; ")
            )),
            0,
            0,
        ),
        Check::Model(p) => {
            // One leg per engine; `Both` runs them back to back and
            // arbitrates. Each leg resolves independently — own index,
            // own store key, own store write — so warm stores never
            // cross-pollinate engines.
            let mut run_leg = |symbolic: bool| {
                let resolution = check_model_property(
                    prop,
                    p,
                    models,
                    cfg,
                    cache,
                    store,
                    meter,
                    symbolic,
                    &mut graph_cache_hit,
                    &mut cone,
                );
                resolve_model_check(prop, resolution, cfg, store, symbolic)
            };
            let leg = match cfg.backend {
                BackendKind::Explicit => run_leg(false),
                BackendKind::Symbolic => run_leg(true),
                BackendKind::Both => {
                    let explicit = run_leg(false);
                    let symbolic = run_leg(true);
                    match backend_divergence(&explicit.outcome, &symbolic.outcome) {
                        Some(msg) => {
                            cfg.collector.add("backend.divergences", 1);
                            LegResult {
                                outcome: PropertyOutcome::Error(msg),
                                ..explicit
                            }
                        }
                        // Agreement: report the explicit leg verbatim,
                        // so `Both` reports are byte-identical to
                        // `Explicit` ones.
                        None => explicit,
                    }
                }
            };
            states_explored = leg.states_explored;
            peak_queue = leg.peak_queue;
            cpv_queries = leg.cpv_queries;
            nodes_reused = leg.nodes_reused;
            (leg.outcome, leg.iterations, leg.refinements)
        }
        Check::Linkability(scenario) => {
            // Linkability verdicts depend only on (implementation,
            // identity, property) — no composed model, no knobs — so
            // they are stored and replayed under that key alone.
            let store = store.map(|ctx| ctx.store);
            let key = link_key(implementation.name(), &cfg.imsi, cfg.key_material, prop.id);
            let stored = store
                .and_then(|st| st.load_verdict(key))
                .filter(|record| record.property_id == prop.id);
            if let Some(record) = stored {
                (outcome_from_data(record.outcome), 0, 0)
            } else {
                let mut ue_cfg = ue_config_for(implementation, cfg);
                if prop.slice.base == BaseProfile::LteFreshnessLimit {
                    ue_cfg.sqn_config.freshness_limit = Some(4);
                }
                let outcome = run_scenario(map_scenario(*scenario), &ue_cfg);
                let mapped = if outcome.distinguishable {
                    PropertyOutcome::Distinguishable(outcome.summary)
                } else {
                    PropertyOutcome::Equivalent
                };
                if let Some(store) = store {
                    if let Some(data) = outcome_to_data(&mapped) {
                        store.save_verdict(
                            key,
                            &VerdictRecord {
                                property_id: prop.id.to_string(),
                                outcome: data,
                                cegar_iterations: 0,
                                refinements: 0,
                                cpv_queries: 0,
                                // No composed model participates; the key
                                // (and the trace-free outcome) carry the
                                // whole reuse decision.
                                model_fp: Fingerprint::ZERO,
                            },
                        );
                    }
                }
                (mapped, 0, 0)
            }
        }
    };
    let result = PropertyResult {
        property_id: prop.id,
        title: prop.title,
        category: prop.category,
        expectation: prop.expectation,
        outcome,
        cegar_iterations: iterations,
        refinements,
        states_explored,
        peak_queue,
        cpv_queries,
        nodes_reused,
        // Overwritten by `analyze_implementation` with the
        // registry-order value; a standalone check has a cold cache.
        cache_hit: false,
        graph_cache_hit,
        elapsed: start.elapsed(),
        related_attack: prop.related_attack,
    };
    (result, cone)
}

/// How one model property's check was resolved: replayed from the
/// persistent store, or computed live (with, when a store is attached,
/// the key the settled result should be written back under).
enum ModelCheckResolution {
    /// A stored verdict whose key and usability gates both passed — the
    /// outcome, CEGAR trajectory, and crypto-query count replay
    /// verbatim; nothing was explored or checked this run.
    Stored(VerdictRecord),
    /// The check ran (or failed) live. The [`PendingWrite`] carries the
    /// verdict key and the exact model fingerprint to persist alongside
    /// a settled outcome; `None` when no store participates (store
    /// absent, or the model never compiled).
    Live(Result<CegarOutcome, CheckError>, Option<PendingWrite>),
}

/// Everything a settled live outcome needs to become a stored verdict.
struct PendingWrite {
    key: Fingerprint,
    model_fp: Fingerprint,
}

impl PendingWrite {
    /// The verdict-index entry pointing at this verdict.
    fn entry(&self) -> IndexEntry {
        IndexEntry {
            verdict_key: self.key,
            model_fp: self.model_fp,
        }
    }
}

/// One backend leg's model check, resolved to report shape. In `Both`
/// mode two of these exist per property; the explicit one is reported
/// on agreement.
struct LegResult {
    outcome: PropertyOutcome,
    iterations: usize,
    refinements: usize,
    states_explored: u64,
    peak_queue: u64,
    cpv_queries: usize,
    nodes_reused: u64,
}

/// Maps a [`ModelCheckResolution`] (warm or live, either engine) to a
/// [`LegResult`], writing settled live outcomes back to the store and
/// their keys to the verdict index of the `symbolic` (else explicit)
/// leg.
/// Degraded outcomes (budget, panics) describe this run and never reach
/// disk; a [`CheckError::BackendDivergence`] — a counterexample that
/// failed replay validation — surfaces as a hard
/// [`PropertyOutcome::Error`] and bumps `backend.divergences`. Every
/// [`CheckError::InvalidModel`] that reaches here, whatever the property
/// kind, is a stored `Skipped("not applicable to this model: …")`: a
/// property outside the model's vocabulary, a composed model that fails
/// validation, or one whose state needs more than the explicit engine's
/// 64 bits. The one `InvalidModel` that settles as a verdict, a
/// reachability goal outside the model's vocabulary, is settled where
/// [`check_model_property`] raises it and never reaches here.
fn resolve_model_check(
    prop: &NasProperty,
    resolution: ModelCheckResolution,
    cfg: &AnalysisConfig,
    store: Option<&StoreCtx>,
    symbolic: bool,
) -> LegResult {
    match resolution {
        ModelCheckResolution::Stored(record) => {
            // Warm verdict hit: the settled outcome and its CEGAR
            // trajectory replay verbatim; no model was checked, no
            // graph consulted, no exploration charged.
            LegResult {
                outcome: outcome_from_data(record.outcome),
                iterations: record.cegar_iterations as usize,
                refinements: record.refinements as usize,
                states_explored: 0,
                peak_queue: 0,
                cpv_queries: record.cpv_queries as usize,
                nodes_reused: 0,
            }
        }
        ModelCheckResolution::Live(checked, pending) => {
            let mut states_explored = 0u64;
            let mut peak_queue = 0u64;
            let mut cpv_queries = 0usize;
            let mut nodes_reused = 0u64;
            let (outcome, iterations, refinements) = match checked {
                Ok(outcome) => {
                    states_explored = outcome.explore.states;
                    peak_queue = outcome.explore.peak_queue.max(outcome.query.peak_queue);
                    cpv_queries = outcome.cpv_queries;
                    nodes_reused = outcome.query.nodes_reused;
                    let mapped = match outcome.verdict {
                        FinalVerdict::Verified => PropertyOutcome::Verified,
                        FinalVerdict::Attack(ce) => PropertyOutcome::Attack(ce),
                        FinalVerdict::GoalReachable(ce) => PropertyOutcome::GoalReachable(ce),
                        FinalVerdict::GoalUnreachable => PropertyOutcome::GoalUnreachable,
                        FinalVerdict::BoundReached(k) => PropertyOutcome::BoundReached(k),
                        FinalVerdict::Inconclusive => {
                            PropertyOutcome::Skipped("CEGAR iteration bound exhausted".into())
                        }
                    };
                    (mapped, outcome.iterations, outcome.refinements.len())
                }
                Err(CheckError::InvalidModel(problems)) => (
                    PropertyOutcome::Skipped(format!(
                        "not applicable to this model: {}",
                        problems.join("; ")
                    )),
                    0,
                    0,
                ),
                Err(CheckError::StateLimit(n)) if n < cfg.state_limit => (
                    // Only the budget's per-property cap can lower the
                    // limit below the configured one.
                    PropertyOutcome::BudgetExhausted(format!(
                        "per-property state cap {n} exhausted"
                    )),
                    0,
                    0,
                ),
                Err(CheckError::StateLimit(n)) => (
                    PropertyOutcome::Skipped(format!("state limit {n} exceeded")),
                    0,
                    0,
                ),
                Err(CheckError::Budget(e)) => {
                    (PropertyOutcome::BudgetExhausted(e.to_string()), 0, 0)
                }
                Err(CheckError::Panic(msg)) => (PropertyOutcome::Error(msg), 0, 0),
                Err(CheckError::BackendDivergence(msg)) => {
                    cfg.collector.add("backend.divergences", 1);
                    (
                        PropertyOutcome::Error(format!("backend divergence: {msg}")),
                        0,
                        0,
                    )
                }
            };
            // Settled outcomes persist for the next run; degraded
            // ones (budget, panics) describe this run and never
            // reach disk.
            if let (Some(ctx), Some(pending)) = (store, pending) {
                if let Some(data) = outcome_to_data(&outcome) {
                    ctx.store.save_verdict(
                        pending.key,
                        &VerdictRecord {
                            property_id: prop.id.to_string(),
                            outcome: data,
                            cegar_iterations: iterations as u64,
                            refinements: refinements as u64,
                            cpv_queries: cpv_queries as u64,
                            model_fp: pending.model_fp,
                        },
                    );
                    if let Some(index) = ctx.index(symbolic) {
                        index.add(prop.id, pending.entry());
                    }
                }
            }
            LegResult {
                outcome,
                iterations,
                refinements,
                states_explored,
                peak_queue,
                cpv_queries,
                nodes_reused,
            }
        }
    }
}

/// The `Both`-mode agreement table. Returns `Some(message)` on a
/// divergence, `None` on agreement or when either leg degraded
/// (budget, panic, skip — there is no verdict to compare).
///
/// A symbolic [`PropertyOutcome::BoundReached`] agrees with an explicit
/// pass (`Verified` / `GoalUnreachable`): the bounded engine honestly
/// searched less. It *diverges* from an explicit violation only when
/// the explicit counterexample fits inside the bound — the BMC engine
/// is refutation-complete up to its bound, so missing a trace of ≤ `k`
/// transitions is an encoder or solver bug, while missing a longer one
/// is exactly the weakness `BoundReached` declares.
fn backend_divergence(explicit: &PropertyOutcome, symbolic: &PropertyOutcome) -> Option<String> {
    use PropertyOutcome as O;
    if explicit.is_degraded() || symbolic.is_degraded() {
        return None;
    }
    let agree = match (explicit, symbolic) {
        (O::Verified, O::Verified | O::BoundReached(_)) => true,
        (O::GoalUnreachable, O::GoalUnreachable | O::BoundReached(_)) => true,
        (O::Attack(_), O::Attack(_)) => true,
        (O::GoalReachable(_), O::GoalReachable(_)) => true,
        (O::Attack(ce) | O::GoalReachable(ce), O::BoundReached(k)) => ce.steps.len() - 1 > *k,
        _ => false,
    };
    if agree {
        None
    } else {
        Some(format!(
            "backend divergence: explicit={} symbolic={}",
            explicit.tag(),
            symbolic.tag()
        ))
    }
}

/// The checking-knobs fingerprint of one backend leg: the explicit
/// engine, or the bounded symbolic one (with its bound) when `symbolic`
/// is set.
fn leg_knobs(cfg: &AnalysisConfig, symbolic: bool) -> Fingerprint {
    let (backend_tag, bound) = if symbolic {
        (BACKEND_TAG_SYMBOLIC, cfg.bmc_bound as u64)
    } else {
        (BACKEND_TAG_EXPLICIT, 0)
    };
    knobs_fingerprint(
        cfg.state_limit,
        cfg.max_cegar_iterations,
        backend_tag,
        bound,
    )
}

/// The model-property body of [`check_property_metered`] for one engine:
/// the explicit one, or the bounded symbolic one when `symbolic` is set.
///
/// With a store attached, a verdict is looked up in two levels, one
/// verdict lookup per property however it resolves. First the leg's
/// verdict index, before any composition: a property it lists loads
/// the indexed verdict key, and a record passing the property-id and
/// exact-fingerprint gates replays with nothing composed, compiled or
/// fingerprinted. Otherwise compose and compile (via the shared cache)
/// and — before any exploration — look up the as-checked model's key,
/// unless the index already tried that key. Compose and compile errors
/// surface before the property's vocabulary check, which surfaces
/// before any graph work (a reachability goal outside the vocabulary
/// settles there as unreachable, with zero counts; any other property
/// returns the error); the second-level lookup sits *after*
/// compilation so even not-applicable outcomes replay warm, and
/// `graph_cache_hit` is left `None` on every path that never consulted
/// the graph layer (store hits included). Once compiled, the cone the
/// property is checked against goes into `checked_cone`, unless an
/// earlier leg of the same property already recorded one.
///
/// The engines differ in two places only. The explicit engine projects
/// the property onto its cone of influence and asks the cache for the
/// (sliced or full) graph; the symbolic engine hands the *full* compiled
/// model to the BMC backend — no graph is built and no slice applies
/// (the encoder unrolls transitions symbolically; dropping commands
/// would change which behaviours the bound covers). And the store key
/// carries the engine's tag (plus the BMC bound), so warm replays never
/// cross engines.
#[allow(clippy::too_many_arguments)]
fn check_model_property(
    prop: &NasProperty,
    p: &procheck_smv::checker::Property,
    models: &ExtractedModels,
    cfg: &AnalysisConfig,
    cache: &ThreatModelCache,
    store: Option<&StoreCtx>,
    meter: &BudgetMeter,
    symbolic: bool,
    graph_cache_hit: &mut Option<bool>,
    checked_cone: &mut CheckedCone,
) -> ModelCheckResolution {
    let index = store.and_then(|ctx| ctx.index(symbolic));
    let store = store.map(|ctx| ctx.store);
    let indexed = index.and_then(|index| index.entry(prop.id));
    if let (Some(store), Some(entry)) = (store, indexed) {
        if let Some(record) = store.load_verdict(entry.verdict_key) {
            if record.property_id == prop.id && RunStore::verdict_usable(&record, entry.model_fp) {
                return ModelCheckResolution::Stored(record);
            }
        }
    }
    let threat_cfg = prop.slice.threat_config();
    let semantics = StepSemantics::new(threat_cfg.clone());
    let model = match cache.compose(&models.ue, &models.mme, &threat_cfg, &cfg.collector) {
        Ok(model) => model,
        Err(e) => return ModelCheckResolution::Live(Err(e), None),
    };
    // The model is compiled (validated) and the property's vocabulary
    // checked *before* asking the cache for a graph: an inapplicable
    // property must report "not applicable", never the state-limit skip
    // a doomed shared build would produce.
    let compiled = match cache.compile(&model, &threat_cfg, &cfg.collector) {
        Ok(compiled) => compiled,
        Err(e) => return ModelCheckResolution::Live(Err(e), None),
    };
    let cp = compiled.compile_property(p);
    // Cone-of-influence slicing: when the property observes a proper
    // subset of the model, explore (and query) the projection instead —
    // the cache shares sliced graphs per `(config, cone)`.
    let sliced = match &cp {
        Ok(cp) if cfg.slice && !symbolic => profitable_slice(&compiled, cp),
        _ => None,
    };
    let checked = sliced.as_ref().map_or(&*compiled, |s| &s.model);
    checked_cone.get_or_insert_with(|| sliced.as_ref().map(|s| s.sig.clone()));
    // Fingerprint the model *as checked* — the cone projection when the
    // pipeline sliced, the full composition otherwise — so the verdict
    // key is itself the statement "the model this property observes is
    // unchanged". Computed on the vocabulary-error path too: the
    // resulting skip is a settled, replayable outcome.
    let pending = store.map(|_| {
        let fps = checked_model_fps(checked);
        PendingWrite {
            key: verdict_key(
                fps.semantic,
                threat_fingerprint(&threat_cfg),
                prop.id,
                leg_knobs(cfg, symbolic),
            ),
            model_fp: fps.exact,
        }
    });
    // A key the index listed was already looked up above.
    let untried = pending
        .as_ref()
        .filter(|pw| indexed.is_none_or(|entry| entry.verdict_key != pw.key));
    if let (Some(store), Some(pw)) = (store, untried) {
        if let Some(record) = store.load_verdict(pw.key) {
            if record.property_id == prop.id && RunStore::verdict_usable(&record, pw.model_fp) {
                if let Some(index) = index {
                    index.add(prop.id, pw.entry());
                }
                return ModelCheckResolution::Stored(record);
            }
        }
    }
    if let Err(e) = cp {
        // A reachability goal whose vocabulary does not exist in this
        // model is trivially unreachable, settled with nothing checked;
        // other property kinds are genuinely not applicable.
        let settled = match p {
            procheck_smv::checker::Property::Reachable { .. } => Ok(CegarOutcome {
                verdict: FinalVerdict::GoalUnreachable,
                iterations: 0,
                refinements: Vec::new(),
                cpv_queries: 0,
                cpv_steps: 0,
                explore: CheckStats::default(),
                query: QueryStats::default(),
            }),
            _ => Err(e),
        };
        return ModelCheckResolution::Live(settled, pending);
    }
    // The budget's per-property cap lowers the effective state limit;
    // tripping the lowered limit is a budget degradation, not a skip.
    let limit = cfg.budget.property_limit(cfg.state_limit);
    let outcome = if symbolic {
        let backend = BmcBackend::with_collector(cfg.bmc_bound, cfg.collector.clone());
        cegar_check_backend_budgeted(
            &compiled,
            &backend,
            p,
            &semantics,
            limit,
            cfg.max_cegar_iterations,
            meter,
            &cfg.collector,
        )
    } else {
        // Placeholder: `analyze_implementation` rewrites this to the
        // registry-order attribution.
        *graph_cache_hit = Some(false);
        let cone = sliced.as_ref().map(|s| &s.sig);
        cache
            .graph(&threat_cfg, cone, checked, limit, &cfg.collector)
            .and_then(|graph| {
                cegar_check_backend_budgeted(
                    checked,
                    &*graph,
                    p,
                    &semantics,
                    limit,
                    cfg.max_cegar_iterations,
                    meter,
                    &cfg.collector,
                )
            })
            .map(|mut outcome| {
                // A sliced loop reports its trace over the cone's
                // variables; re-expand it against the full model before
                // anything user-visible is built from it. Labels are
                // unchanged, so the CPV validation holds of the expanded
                // trace too.
                if sliced.is_some() {
                    outcome.verdict = match outcome.verdict {
                        FinalVerdict::Attack(ce) => {
                            FinalVerdict::Attack(expand_counterexample(&compiled, &ce))
                        }
                        FinalVerdict::GoalReachable(ce) => {
                            FinalVerdict::GoalReachable(expand_counterexample(&compiled, &ce))
                        }
                        v => v,
                    };
                }
                outcome
            })
    };
    ModelCheckResolution::Live(outcome, pending)
}

/// The result slot for a property whose check panicked outright (past
/// the cached-build isolation): zeroed counters, an [`Error`] outcome
/// carrying the panic payload.
///
/// [`Error`]: PropertyOutcome::Error
fn panicked_property_result(
    prop: &NasProperty,
    message: String,
    elapsed: std::time::Duration,
) -> PropertyResult {
    PropertyResult {
        property_id: prop.id,
        title: prop.title,
        category: prop.category,
        expectation: prop.expectation,
        outcome: PropertyOutcome::Error(format!("isolated panic: {message}")),
        cegar_iterations: 0,
        refinements: 0,
        states_explored: 0,
        peak_queue: 0,
        cpv_queries: 0,
        nodes_reused: 0,
        cache_hit: false,
        graph_cache_hit: None,
        elapsed,
        related_attack: prop.related_attack,
    }
}

/// Which of `props` are served from the composition cache, computed
/// from property order alone: the first property to use each distinct
/// threat configuration is the miss, every later one the hit. This is
/// what a sequential run observes, and the parallel pool builds each
/// configuration exactly once, so it is also the only scheduling-
/// independent answer. Linkability properties never compose a model.
fn cache_hits_in_order(props: &[&NasProperty]) -> Vec<bool> {
    let mut seen = HashSet::new();
    props
        .iter()
        .map(|p| match &p.check {
            Check::Model(_) => !seen.insert(p.slice.threat_config()),
            Check::Linkability(_) => false,
        })
        .collect()
}

/// The pipeline's slicing policy: project onto the cone of influence
/// only when the projection drops at least one *command*. A cone that
/// keeps every command (it merely hides a variable or two) explores
/// nearly the same space as the full graph, so routing it to its own
/// cache slot would duplicate an exploration the configuration's other
/// properties (or its unsliceable response properties) pay for anyway —
/// sharing the full graph is strictly cheaper. Dropping commands, by
/// contrast, cuts genuine branching: the measured registry cones that
/// drop commands collapse to a handful of states.
fn profitable_slice(compiled: &CompiledModel, cp: &CompiledProperty) -> Option<SlicedModel> {
    slice_for_property(compiled, cp).filter(|s| s.sig.cmd_count() < compiled.command_count())
}

fn map_scenario(s: LinkScenario) -> Scenario {
    match s {
        LinkScenario::StaleAuthReplay => Scenario::StaleAuthReplay,
        LinkScenario::ConsumedAuthReplay => Scenario::ConsumedAuthReplay,
        LinkScenario::ForgedAuthRequest => Scenario::ForgedAuthRequest,
        LinkScenario::SmcReplay => Scenario::SmcReplay,
        LinkScenario::ImsiPaging => Scenario::ImsiPaging,
        LinkScenario::GutiPagingPresence => Scenario::GutiPagingPresence,
        LinkScenario::GutiReuse => Scenario::GutiReuse,
        LinkScenario::AttachAcceptReplay => Scenario::AttachAcceptReplay,
    }
}

/// Runs the whole pipeline for one implementation.
///
/// Property checks run on [`AnalysisConfig::threads`] workers. Work is
/// handed out by index from a shared counter and each result lands in
/// its property's slot, so `results` is in registry order and identical
/// for every thread count.
pub fn analyze_implementation(
    implementation: Implementation,
    cfg: &AnalysisConfig,
) -> AnalysisReport {
    let models = extract_models(implementation, cfg);
    analyze_extracted(implementation, &models, cfg)
}

/// [`analyze_implementation`] from already-extracted models: phases 3–4
/// only. Callers that mutate or synthesize models (the warm-run bench,
/// incremental re-check experiments) enter here.
///
/// When [`AnalysisConfig::store_dir`] is set, the persistent store is
/// opened first and each backend leg's verdict index is read: verdicts
/// from previous runs short-circuit this one, and at the end the
/// extracted machines are compared with the stored baseline snapshot
/// (the FSM-delta telemetry) before becoming the new baseline, and the
/// indexes are written if they changed. A fully warm run writes
/// nothing. Reachability graphs stay in this run's memory. A store that
/// fails to open degrades to a fully cold run.
pub fn analyze_extracted(
    implementation: Implementation,
    models: &ExtractedModels,
    cfg: &AnalysisConfig,
) -> AnalysisReport {
    let store = cfg
        .store_dir
        .as_ref()
        .and_then(|dir| RunStore::open(dir).ok());
    let cache = ThreatModelCache::new();
    // Both machines' canonical texts: the baseline snapshot's contents
    // and the verdict indexes' key input.
    let canon = store.as_ref().map(|_| BaselineRecord {
        ue: canonical_text(&models.ue),
        mme: canonical_text(&models.mme),
    });
    let store_ctx = match (&store, &canon) {
        (Some(store), Some(canon)) => Some(StoreCtx {
            store,
            indexes: if models.extraction_errors.is_empty() {
                load_indexes(store, canon, cfg)
            } else {
                [None, None]
            },
        }),
        _ => None,
    };
    let all = registry();
    let props: Vec<&NasProperty> = all
        .iter()
        .filter(|p| {
            cfg.property_filter
                .as_ref()
                .is_none_or(|ids| ids.contains(&p.id))
        })
        .collect();
    let slots: Vec<OnceLock<(PropertyResult, CheckedCone)>> =
        props.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    // One meter for the whole run: the total-state cap and deadline are
    // charged by every worker against the same account.
    let meter = cfg.budget.start();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(prop) = props.get(i) else { break };
        // A panic inside one property's check is that property's
        // failure, nobody else's: the worker survives, the result slot
        // gets an explicit `Error` outcome, and the sibling properties'
        // results are untouched.
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            check_property_metered(
                prop,
                models,
                implementation,
                cfg,
                &cache,
                store_ctx.as_ref(),
                &meter,
            )
        }))
        .unwrap_or_else(|payload| {
            let result = panicked_property_result(prop, panic_message(payload), start.elapsed());
            (result, None)
        });
        slots[i]
            .set(result)
            .expect("each index is claimed exactly once");
    };
    let workers = cfg.threads.clamp(1, props.len().max(1));
    {
        let _span = cfg.collector.span("stage.check");
        thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(work);
            }
            work();
        });
    }
    // End-of-run high-water mark of the process-global intern table —
    // the `symbols_interned` total the telemetry report breaks out.
    cfg.collector
        .record_max("ident.symbols_interned", procheck_ident::symbols_interned());
    let hits = cache_hits_in_order(&props);
    let (mut results, cones): (Vec<PropertyResult>, Vec<CheckedCone>) = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("all slots filled by the pool"))
        .unzip();
    for (result, hit) in results.iter_mut().zip(hits) {
        result.cache_hit = hit;
    }
    // Graph-cache attribution, like `cache_hits_in_order`: among the
    // properties that consulted the graph cache, the first (in registry
    // order) per distinct graph slot — `(threat config, cone signature)`
    // when sliced, the threat config alone when not — is the designated
    // builder, charged the slot's whole exploration; every later sharer
    // is a hit charged nothing. Which worker thread actually extended the
    // graph, and how far each time, is a scheduling accident; the slot's
    // final extent is the largest demand any property made, so this
    // assignment (and the work counters recorded with it) is the only
    // thread-count-independent one, and it is what a sequential run
    // observes.
    let mut built_graphs: HashSet<(ThreatConfig, Option<ConeSig>)> = HashSet::new();
    for ((result, prop), cone) in results.iter_mut().zip(&props).zip(&cones) {
        // A property that consulted the graph cache compiled first, so
        // its worker recorded the cone of the slot it used.
        let (Some(_), Some(cone)) = (result.graph_cache_hit, cone) else {
            continue;
        };
        let threat_cfg = prop.slice.threat_config();
        if built_graphs.insert((threat_cfg.clone(), cone.clone())) {
            result.graph_cache_hit = Some(false);
            if let Some(extent) =
                cache.record_graph_extent(&threat_cfg, cone.as_ref(), &cfg.collector)
            {
                result.states_explored = extent.stats.states;
                result.peak_queue = result.peak_queue.max(extent.stats.peak_queue);
            }
        } else {
            result.graph_cache_hit = Some(true);
            result.states_explored = 0;
        }
    }
    // Degraded-outcome accounting, in registry order like everything
    // after the pool. The counters are recorded even when zero so the
    // telemetry shape is identical for clean and degraded runs.
    let mut degraded = DegradedStats::default();
    for r in &results {
        match &r.outcome {
            PropertyOutcome::BudgetExhausted(_) => degraded.budget_exhausted += 1,
            PropertyOutcome::Error(_) => degraded.panics_isolated += 1,
            PropertyOutcome::Skipped(_) => degraded.skipped += 1,
            _ => {}
        }
    }
    cfg.collector.add(
        "degraded.budget_exhausted",
        degraded.budget_exhausted as u64,
    );
    cfg.collector
        .add("degraded.panics_isolated", degraded.panics_isolated as u64);
    cfg.collector
        .add("degraded.skipped", degraded.skipped as u64);
    // Marks go out after the pool, in registry order, so the event
    // stream is identical for every thread count.
    for r in &results {
        cfg.collector.mark(
            "property.checked",
            &[
                ("id", r.property_id),
                ("outcome", r.outcome.tag()),
                ("states", &r.states_explored.to_string()),
                ("cegar_iterations", &r.cegar_iterations.to_string()),
                ("cache_hit", if r.cache_hit { "true" } else { "false" }),
            ],
        );
    }
    if let (Some(ctx), Some(canon)) = (store_ctx, &canon) {
        let store = ctx.store;
        let checked = props
            .iter()
            .zip(&cones)
            .filter_map(|(prop, cone)| Some((prop.slice.threat_config(), cone.as_ref()?)));
        // The store work after the pool is contained like a store load:
        // a panic (say, on a stored baseline no parser anticipated)
        // counts as an invalidated record, and the report still comes
        // back. The baseline save (contained by the store's own write
        // path) runs even when the delta pass did not finish, so a bad
        // baseline is replaced rather than re-read.
        let key = baseline_key(implementation.name(), &cfg.imsi, cfg.key_material);
        let unchanged = store
            .contain(|| record_fsm_delta(key, models, canon, cfg, &cache, store, checked))
            .unwrap_or(false);
        if !unchanged && models.extraction_errors.is_empty() {
            store.save_baseline_record(key, canon);
        }
        for index in ctx.indexes.into_iter().flatten() {
            store.contain(|| index.save(store));
        }
        // Mirror the store's own accounting onto the collector, in the
        // same post-pool position as the degraded counters so the event
        // stream stays thread-count-independent.
        let s = store.stats();
        cfg.collector.add("store.lookups", s.lookups);
        cfg.collector.add("store.hits", s.hits);
        cfg.collector.add("store.invalidated", s.invalidated);
        cfg.collector.add("store.writes", s.writes);
        cfg.collector.add("store.bytes_read", s.bytes_read);
        cfg.collector.add("store.bytes_written", s.bytes_written);
    }
    AnalysisReport {
        implementation,
        results,
        ue_stats: FsmStats::of(&models.ue),
        mme_stats: FsmStats::of(&models.mme),
        coverage: models.coverage.clone(),
        cache_stats: cache.stats(),
        graph_cache_stats: cache.graph_stats(),
        degraded,
        store_stats: store.as_ref().map(|s| s.stats()).unwrap_or_default(),
    }
}

/// Reads the verdict index of each backend leg `cfg.backend` runs,
/// `[explicit, symbolic]`, keyed by the extracted pair's canonical
/// texts.
fn load_indexes(store: &RunStore, canon: &BaselineRecord, cfg: &AnalysisConfig) -> LegIndexes {
    let pair = fsm_pair_fingerprint(canon);
    let runs = |symbolic: bool| match cfg.backend {
        BackendKind::Explicit => !symbolic,
        BackendKind::Symbolic => symbolic,
        BackendKind::Both => true,
    };
    [false, true].map(|symbolic| {
        runs(symbolic).then(|| {
            VerdictIndex::load(store, index_key(pair, leg_knobs(cfg, symbolic), cfg.slice))
        })
    })
}

/// The incremental-re-check telemetry pass: diff this run's extracted
/// machines against the stored baseline snapshot under `key`, lower the
/// delta to the compiled command sets it touches, and record which
/// properties' cones of influence the delta lands in — the *explanation*
/// for why a warm run re-checked exactly the properties it did. The
/// reuse decisions themselves were already made, per property, by
/// fingerprint-key equality; this pass records counters only and can
/// never change a result. `checked` lists each model property whose
/// configuration compiled this run, as its threat configuration and the
/// cone it was checked against; a property answered from the verdict
/// index compiled nothing and counts in neither `store.delta_cone_*`
/// counter. Returns true when the stored baseline's texts equal `canon`
/// (this run's canonical texts): a zero delta, neither parsed nor due to
/// be rewritten. Otherwise the caller saves the extracted machines as the
/// new baseline — unless extraction failed, whose placeholder machines
/// must not replace a real one.
fn record_fsm_delta<'a>(
    key: Fingerprint,
    models: &ExtractedModels,
    canon: &BaselineRecord,
    cfg: &AnalysisConfig,
    cache: &ThreatModelCache,
    store: &RunStore,
    checked: impl Iterator<Item = (ThreatConfig, &'a Option<ConeSig>)>,
) -> bool {
    let base = store.load_baseline_record(key);
    if base.as_ref() == Some(canon) {
        cfg.collector.add("store.baseline_found", 1);
        cfg.collector.add("store.delta_transitions", 0);
        return true;
    }
    if let Some((base_ue, base_mme)) = base.and_then(|base| store.parse_baseline(&base)) {
        let ue_diff = procheck_fsm::diff::diff(&base_ue, &models.ue);
        let mme_diff = procheck_fsm::diff::diff(&base_mme, &models.mme);
        let delta_transitions = (ue_diff.added.len()
            + ue_diff.removed.len()
            + mme_diff.added.len()
            + mme_diff.removed.len()) as u64;
        cfg.collector.add("store.baseline_found", 1);
        cfg.collector
            .add("store.delta_transitions", delta_transitions);
        if delta_transitions > 0 {
            // Per-property cone intersection, against the compiled
            // models peeked from the cache (no accounting perturbation).
            let mut intersecting = 0u64;
            let mut disjoint = 0u64;
            for (threat_cfg, cone) in checked {
                let Some(compiled) = cache.peek_compiled(&threat_cfg) else {
                    continue;
                };
                let delta = delta_commands(&compiled, &ue_diff, &mme_diff);
                if cone_intersects_delta(cone.as_ref(), &delta) {
                    intersecting += 1;
                } else {
                    disjoint += 1;
                }
            }
            cfg.collector
                .add("store.delta_cone_intersections", intersecting);
            cfg.collector.add("store.delta_cone_disjoint", disjoint);
        }
    } else {
        cfg.collector.add("store.baseline_found", 0);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(ids: &[&'static str]) -> AnalysisConfig {
        AnalysisConfig {
            property_filter: Some(ids.to_vec()),
            state_limit: 2_000_000,
            ..AnalysisConfig::default()
        }
    }

    /// [`AnalysisConfig::from_env`] over a fixed variable table.
    fn from_vars(vars: &[(&str, &str)]) -> Result<AnalysisConfig, String> {
        AnalysisConfig::from_env(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn env_knobs_parse_accepted_values() {
        let cfg = from_vars(&[("PROCHECK_BMC_BOUND", "5")]).unwrap();
        assert!(cfg.slice);
        assert_eq!(cfg.store_dir, None);
        assert_eq!(cfg.backend, BackendKind::Explicit);
        assert_eq!(cfg.bmc_bound, DEFAULT_BMC_BOUND, "the bound has no knob");
        let cfg = from_vars(&[
            ("PROCHECK_NO_SLICE", "TRUE"),
            ("PROCHECK_STORE", "/tmp/procheck-store"),
            ("PROCHECK_BACKEND", "Symbolic"),
        ])
        .unwrap();
        assert!(!cfg.slice);
        assert_eq!(cfg.store_dir, Some(PathBuf::from("/tmp/procheck-store")));
        assert_eq!(cfg.backend, BackendKind::Symbolic);
        assert_eq!(
            from_vars(&[("PROCHECK_BACKEND", "both")]).unwrap().backend,
            BackendKind::Both
        );
    }

    /// An empty value means unset: CI legs that export
    /// `PROCHECK_NO_SLICE=""` keep slicing on.
    #[test]
    fn empty_env_knobs_are_unset() {
        let vars: Vec<(&str, &str)> = ["PROCHECK_NO_SLICE", "PROCHECK_STORE", "PROCHECK_BACKEND"]
            .iter()
            .map(|name| (*name, ""))
            .collect();
        let cfg = from_vars(&vars).unwrap();
        assert!(cfg.slice);
        assert_eq!(cfg.store_dir, None);
        assert_eq!(cfg.backend, BackendKind::Explicit);
    }

    #[test]
    fn bad_env_knobs_are_rejected_by_name() {
        for (name, value, accepted) in [
            ("PROCHECK_BACKEND", "symbolc", "explicit, symbolic or both"),
            (
                "PROCHECK_NO_SLICE",
                "yes",
                "1 or true (off), 0 or false (on)",
            ),
        ] {
            let err = from_vars(&[(name, value)]).unwrap_err();
            assert!(
                err.contains(name) && err.contains(value) && err.contains(accepted),
                "{err}"
            );
        }
    }

    #[test]
    fn extraction_produces_models_for_all_impls() {
        let cfg = AnalysisConfig::default();
        for imp in [
            Implementation::Reference,
            Implementation::Srs,
            Implementation::Oai,
        ] {
            let m = extract_models(imp, &cfg);
            assert!(m.ue.transition_count() >= 15, "{imp:?}");
            assert!(m.mme.transition_count() >= 8, "{imp:?}");
            assert!(m.coverage.percent() > 90.0);
        }
    }

    /// P1 via the pipeline: the SQN-freshness property is violated on the
    /// *reference* implementation — a standards-level attack.
    #[test]
    fn s01_finds_p1_on_reference() {
        let report = analyze_implementation(Implementation::Reference, &quick_cfg(&["S01"]));
        let r = report.result("S01").unwrap();
        let PropertyOutcome::Attack(trace) = &r.outcome else {
            panic!("expected attack, got {:?}", r.outcome.tag());
        };
        assert!(trace
            .command_labels()
            .iter()
            .any(|l| l.contains("replay_old_unconsumed")));
        assert!(r.is_finding());
        assert!(!r.is_implementation_finding(), "P1 is standards-level");
    }

    /// I2 via the pipeline: plaintext acceptance holds on the reference,
    /// fails on OAI.
    #[test]
    fn s12_separates_reference_from_oai() {
        let reference = analyze_implementation(Implementation::Reference, &quick_cfg(&["S12"]));
        assert_eq!(
            reference.result("S12").unwrap().outcome.tag(),
            "verified",
            "reference rejects plaintext"
        );
        let oai = analyze_implementation(Implementation::Oai, &quick_cfg(&["S12"]));
        let r = oai.result("S12").unwrap();
        assert_eq!(r.outcome.tag(), "attack", "OAI accepts plaintext (I2)");
        assert!(r.is_implementation_finding());
    }

    /// PR07 (P2) via the pipeline: linkability on every implementation.
    #[test]
    fn pr07_linkability_finding() {
        let report = analyze_implementation(Implementation::Reference, &quick_cfg(&["PR07"]));
        let r = report.result("PR07").unwrap();
        assert_eq!(r.outcome.tag(), "distinguishable");
        assert!(r.is_finding());
    }

    /// An absurdly small state limit degrades to an explicit skip, never
    /// a panic or a bogus verdict.
    #[test]
    fn state_limit_exhaustion_reports_skip() {
        let cfg = AnalysisConfig {
            state_limit: 10,
            property_filter: Some(vec!["S01"]),
            ..AnalysisConfig::default()
        };
        let report = analyze_implementation(Implementation::Reference, &cfg);
        let r = report.result("S01").unwrap();
        assert_eq!(r.outcome.tag(), "skipped");
        assert!(!r.is_finding(), "a skip is not a finding");
    }

    /// A reachability goal whose live check fails because the model's
    /// state needs more than 64 bits is not applicable to that model,
    /// never unreachable: it settles as a skip naming the widths, and
    /// the skip is stored and replays as that skip.
    #[test]
    fn width_rejected_reachability_goal_settles_as_a_skip() {
        use procheck_smv::checker::Property;
        let prop = registry()
            .into_iter()
            .find(|p| matches!(p.check, Check::Model(Property::Reachable { .. })))
            .expect("the registry has reachability goals");
        let compiled = CompiledModel::new(&crate::cache::tests::too_wide()).expect("valid");
        let rejected = ThreatModelCache::new()
            .graph(
                &prop.slice.threat_config(),
                None,
                &compiled,
                DEFAULT_STATE_LIMIT,
                &Collector::disabled(),
            )
            .expect_err("66 bits");
        let leg = resolve_model_check(
            &prop,
            ModelCheckResolution::Live(Err(rejected), None),
            &AnalysisConfig::default(),
            None,
            false,
        );
        let PropertyOutcome::Skipped(why) = &leg.outcome else {
            panic!("{}: {:?}", prop.id, leg.outcome)
        };
        assert!(
            why.starts_with(
                "not applicable to this model: a state needs 66 bits, over the 64 of a packed key: x0 6,"
            ),
            "{why}"
        );
        assert_eq!((leg.iterations, leg.refinements), (0, 0));
        let stored = outcome_to_data(&leg.outcome).expect("a skip is stored");
        assert_eq!(outcome_from_data(stored), leg.outcome);
    }

    /// PR19/PR20: the freshness-limit countermeasure closes P1/P2.
    #[test]
    fn freshness_limit_countermeasure_verified() {
        let report =
            analyze_implementation(Implementation::Reference, &quick_cfg(&["PR19", "PR20"]));
        assert_eq!(report.result("PR19").unwrap().outcome.tag(), "verified");
        assert_eq!(report.result("PR20").unwrap().outcome.tag(), "equivalent");
        assert!(report.findings().is_empty());
    }
}
