//! The traced per-layer ledger.
//!
//! [`replay`] answers one request the way `analyze_extracted` does at
//! `threads = 1` — same layer calls, same order, same store traffic — but
//! calls each layer's public entry point itself and wraps every call in
//! a [`Span`]. The layers are conformance (`run_suite`), extraction
//! (`extract_fsm`), threat composition (`build_threat_model`), compilation
//! and slicing (`CompiledModel::new`, `slice_for_property`), exploration
//! (`build_reach_graph_budgeted`), the CEGAR loop
//! (`cegar_check_backend_budgeted`) with each engine answer timed through
//! [`Timed`], the linkability testbed (`run_scenario`) and the store
//! (`RunStore` loads and saves). Counters are recorded at the same
//! boundaries. Spans stay in memory until the run writes them out.
//!
//! The replay must reach the pipeline's verdicts; the workload checks
//! its tags against the expected table like any timed request.

use procheck::cegar::{cegar_check_backend_budgeted, CegarOutcome, FinalVerdict};
use procheck::pipeline::{ue_config_for, AnalysisConfig, BackendKind, ExtractedModels};
use procheck::store::{
    baseline_key, checked_model_fps, graph_key, knobs_fingerprint, link_key, outcome_from_data,
    outcome_to_data, semantic_fingerprint, threat_fingerprint, verdict_key, BACKEND_TAG_EXPLICIT,
    BACKEND_TAG_SYMBOLIC,
};
use procheck::{PropertyOutcome, RunStore};
use procheck_conformance::{run_suite, suites};
use procheck_extractor::{extract_fsm, ExtractorConfig};
use procheck_fsm::Fsm;
use procheck_ident::CmdIdSet;
use procheck_props::{registry, BaseProfile, Check, LinkScenario, NasProperty};
use procheck_smv::checker::{
    build_reach_graph_budgeted, CheckError, CheckStats, CompiledModel, CompiledProperty, Property,
    QueryStats,
};
use procheck_smv::coi::{expand_counterexample, slice_for_property, ConeSig, SlicedModel};
use procheck_smv::model::Model;
use procheck_smv::reach::ReachGraph;
use procheck_smv::{BackendVerdict, BudgetMeter, CheckBackend, ExplicitBackend};
use procheck_stack::quirks::Implementation;
use procheck_store::{Fingerprint, VerdictRecord};
use procheck_symbolic::BmcBackend;
use procheck_telemetry::Collector;
use procheck_testbed::linkability::{run_scenario, Scenario};
use procheck_threat::{build_threat_model, StepSemantics, ThreatConfig};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// One timed layer call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: u32,
    /// The enclosing span; `None` for a request's root span.
    pub parent: Option<u32>,
    /// The request this span belongs to.
    pub request: u32,
    /// Layer name (`smv.explore`, `store.read`, …) or `request`.
    pub name: &'static str,
    /// Microseconds since the tracer started.
    pub start_us: u64,
    /// Microseconds since the tracer started.
    pub end_us: u64,
}

/// In-memory span and counter recorder for one run.
pub struct Tracer {
    epoch: Instant,
    request: Cell<u32>,
    open: RefCell<Vec<u32>>,
    spans: RefCell<Vec<Span>>,
    counts: RefCell<BTreeMap<&'static str, f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            request: Cell::new(0),
            open: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
            counts: RefCell::new(BTreeMap::new()),
        }
    }
}

impl Tracer {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len() as u32;
            let start_us = self.now_us();
            spans.push(Span {
                id,
                parent: self.open.borrow().last().copied(),
                request: self.request.get(),
                name,
                start_us,
                end_us: start_us,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        let end_us = self.now_us();
        self.spans.borrow_mut()[id as usize].end_us = end_us;
        out
    }

    /// Adds `n` to the current request's counter `name`.
    pub fn add(&self, name: &'static str, n: f64) {
        *self.counts.borrow_mut().entry(name).or_default() += n;
    }

    /// Starts request `request`: later spans and counters belong to it.
    pub fn begin_request(&self, request: u32) {
        self.request.set(request);
        self.counts.borrow_mut().clear();
    }

    /// The current request's per-layer values, given its untraced
    /// latency. Layer busy times are self times: a span's duration minus
    /// the part its child spans cover.
    pub fn request_ledger(&self, untraced_ms: f64) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let request = self.request.get();
        let mine: Vec<&Span> = spans.iter().filter(|s| s.request == request).collect();
        let mut child_us: HashMap<u32, u64> = HashMap::new();
        for s in &mine {
            if let Some(p) = s.parent {
                *child_us.entry(p).or_default() += s.end_us - s.start_us;
            }
        }
        let mut busy: HashMap<&str, f64> = HashMap::new();
        let mut total_ms = 0.0;
        for s in &mine {
            let dur = s.end_us - s.start_us;
            if s.parent.is_none() {
                total_ms += dur as f64 / 1e3;
                continue;
            }
            let own = dur.saturating_sub(child_us.get(&s.id).copied().unwrap_or(0));
            *busy.entry(s.name).or_default() += own as f64 / 1e3;
        }
        let counts = self.counts.borrow();
        let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let share = |name: &str| ratio(busy.get(name).copied().unwrap_or(0.0), untraced_ms);
        let attributed: f64 = busy.values().sum();
        let explore_s = busy.get("smv.explore").copied().unwrap_or(0.0) / 1e3;
        BTreeMap::from([
            ("smv.explore.busy_share", share("smv.explore")),
            ("smv.explore.states", count("smv.explore.states")),
            (
                "smv.explore.states_per_s",
                ratio(count("smv.explore.states"), explore_s),
            ),
            ("smv.explore.graphs", count("smv.explore.graphs")),
            ("smv.query.busy_share", share("smv.query")),
            ("smv.query.calls", count("smv.query.calls")),
            (
                "smv.slice.sliced_share",
                ratio(count("smv.slice.sliced"), count("smv.slice.candidates")),
            ),
            ("cegar.self_share", share("cegar")),
            ("cegar.iterations", count("cegar.iterations")),
            ("cegar.refinements", count("cegar.refinements")),
            ("cpv.queries", count("cpv.queries")),
            ("symbolic.busy_share", share("symbolic")),
            ("symbolic.clauses", count("symbolic.clauses")),
            ("symbolic.conflicts", count("symbolic.conflicts")),
            ("symbolic.propagations", count("symbolic.propagations")),
            (
                "symbolic.definite_share",
                ratio(count("symbolic.definite"), count("symbolic.calls")),
            ),
            ("threat.busy_share", share("threat")),
            ("threat.models_built", count("threat.models_built")),
            ("smv.compile.busy_share", share("smv.compile")),
            ("conformance.busy_share", share("conformance")),
            ("conformance.rounds", count("conformance.rounds")),
            ("extractor.busy_share", share("extractor")),
            ("extractor.transitions", count("extractor.transitions")),
            ("testbed.busy_share", share("testbed")),
            ("store.read_share", share("store.read")),
            ("store.reads", count("store.reads")),
            (
                "store.hit_rate",
                ratio(count("store.verdict_hits"), count("store.verdict_lookups")),
            ),
            ("store.write_share", share("store.write")),
            ("store.bytes_written", count("store.bytes_written")),
            (
                "ledger.unattributed_share",
                1.0 - ratio(attributed, untraced_ms),
            ),
            (
                "ledger.trace_overhead_share",
                ratio(total_ms, untraced_ms) - 1.0,
            ),
        ])
    }

    /// Every span recorded so far, as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                s.id, s.request, s.name, s.start_us, s.end_us
            );
        }
        out
    }
}

/// Every per-layer metric, with its unit, in report order. Busy times
/// are shares of the request's untraced latency, so a layer a workload
/// never calls reads 0 without posing as a measured time.
pub const LAYER_METRICS: [(&str, &str); 31] = [
    ("smv.explore.busy_share", "ratio"),
    ("smv.explore.states", "count"),
    ("smv.explore.states_per_s", "1/s"),
    ("smv.explore.graphs", "count"),
    ("smv.query.busy_share", "ratio"),
    ("smv.query.calls", "count"),
    ("smv.slice.sliced_share", "ratio"),
    ("cegar.self_share", "ratio"),
    ("cegar.iterations", "count"),
    ("cegar.refinements", "count"),
    ("cpv.queries", "count"),
    ("symbolic.busy_share", "ratio"),
    ("symbolic.clauses", "count"),
    ("symbolic.conflicts", "count"),
    ("symbolic.propagations", "count"),
    ("symbolic.definite_share", "ratio"),
    ("threat.busy_share", "ratio"),
    ("threat.models_built", "count"),
    ("smv.compile.busy_share", "ratio"),
    ("conformance.busy_share", "ratio"),
    ("conformance.rounds", "count"),
    ("extractor.busy_share", "ratio"),
    ("extractor.transitions", "count"),
    ("testbed.busy_share", "ratio"),
    ("store.read_share", "ratio"),
    ("store.reads", "count"),
    ("store.hit_rate", "ratio"),
    ("store.write_share", "ratio"),
    ("store.bytes_written", "bytes"),
    ("ledger.unattributed_share", "ratio"),
    ("ledger.trace_overhead_share", "ratio"),
];

/// Answers one request through the traced layer calls: from `models`
/// when the request starts from extracted machines, otherwise after
/// conformance and extraction. Returns each checked property's outcome,
/// in registry order.
pub fn replay(
    tracer: &Tracer,
    implementation: Implementation,
    models: Option<&ExtractedModels>,
    cfg: &AnalysisConfig,
) -> Vec<(&'static str, PropertyOutcome)> {
    tracer.span("request", || {
        let extracted;
        let (ue, mme) = match models {
            Some(m) => (&m.ue, &m.mme),
            None => {
                extracted = extract(tracer, implementation, cfg);
                (&extracted.0, &extracted.1)
            }
        };
        let store = cfg.store_dir.as_ref().map(|dir| {
            tracer.span("store.read", || {
                RunStore::open(dir).expect("the benchmark's store directory opens")
            })
        });
        let mut layers = Layers {
            tracer,
            cfg,
            ue,
            mme,
            store: store.as_deref(),
            meter: cfg.budget.start(),
            models: HashMap::new(),
            compiled: HashMap::new(),
            graphs: HashMap::new(),
        };
        let outcomes = registry()
            .iter()
            .filter(|p| {
                cfg.property_filter
                    .as_ref()
                    .is_none_or(|ids| ids.contains(&p.id))
            })
            .map(|p| (p.id, layers.check(p, implementation)))
            .collect();
        if let Some(store) = &store {
            // The pipeline also diffs the machines against this baseline
            // for its delta telemetry; that diff is not replayed.
            let key = baseline_key(implementation.name(), &cfg.imsi, cfg.key_material);
            tracer.span("store.read", || store.load_baseline(key));
            tracer.add("store.reads", 1.0);
            tracer.span("store.write", || store.save_baseline(key, ue, mme));
            tracer.add("store.bytes_written", store.stats().bytes_written as f64);
        }
        outcomes
    })
}

/// Conformance replay, then extraction of `(UE^μ, MME^μ)`.
fn extract(tracer: &Tracer, implementation: Implementation, cfg: &AnalysisConfig) -> (Fsm, Fsm) {
    let ue_cfg = ue_config_for(implementation, cfg);
    let report = tracer.span("conformance", || {
        run_suite(&ue_cfg, &suites::full_suite(&ue_cfg))
    });
    tracer.add(
        "conformance.rounds",
        report
            .results
            .iter()
            .map(|r| r.exchange_rounds as f64)
            .sum(),
    );
    let (ue, mme) = tracer.span("extractor", || {
        (
            extract_fsm(
                "ue",
                &report.ue_log,
                &ExtractorConfig::for_ue(&ue_cfg.signatures),
            ),
            extract_fsm("mme", &report.mme_log, &ExtractorConfig::for_mme()),
        )
    });
    tracer.add(
        "extractor.transitions",
        (ue.transition_count() + mme.transition_count()) as f64,
    );
    (ue, mme)
}

/// The per-request layer state the pipeline keeps in its
/// `ThreatModelCache`: one composition, compilation and graph per
/// distinct slot.
struct Layers<'a> {
    tracer: &'a Tracer,
    cfg: &'a AnalysisConfig,
    ue: &'a Fsm,
    mme: &'a Fsm,
    store: Option<&'a RunStore>,
    meter: BudgetMeter,
    models: HashMap<ThreatConfig, Arc<Model>>,
    compiled: HashMap<ThreatConfig, Result<Arc<CompiledModel>, CheckError>>,
    graphs: HashMap<(ThreatConfig, Option<ConeSig>), Result<Arc<ReachGraph>, CheckError>>,
}

/// A settled outcome with the CEGAR trajectory the store records.
struct Settled {
    outcome: PropertyOutcome,
    iterations: usize,
    refinements: usize,
    cpv_queries: usize,
}

impl Layers<'_> {
    fn check(&mut self, prop: &NasProperty, implementation: Implementation) -> PropertyOutcome {
        match &prop.check {
            Check::Model(p) => self.check_model(prop, p),
            Check::Linkability(scenario) => self.check_link(prop, *scenario, implementation),
        }
    }

    fn load_verdict(&self, store: &RunStore, key: Fingerprint) -> Option<VerdictRecord> {
        let record = self.tracer.span("store.read", || store.load_verdict(key));
        self.tracer.add("store.reads", 1.0);
        self.tracer.add("store.verdict_lookups", 1.0);
        record
    }

    fn save_verdict(
        &self,
        key: Fingerprint,
        prop: &NasProperty,
        settled: &Settled,
        fp: Fingerprint,
    ) {
        let (Some(store), Some(data)) = (self.store, outcome_to_data(&settled.outcome)) else {
            return;
        };
        let record = VerdictRecord {
            property_id: prop.id.to_string(),
            outcome: data,
            cegar_iterations: settled.iterations as u64,
            refinements: settled.refinements as u64,
            cpv_queries: settled.cpv_queries as u64,
            model_fp: fp,
        };
        self.tracer
            .span("store.write", || store.save_verdict(key, &record));
    }

    fn check_link(
        &mut self,
        prop: &NasProperty,
        scenario: LinkScenario,
        implementation: Implementation,
    ) -> PropertyOutcome {
        let key = link_key(
            implementation.name(),
            &self.cfg.imsi,
            self.cfg.key_material,
            prop.id,
        );
        if let Some(store) = self.store {
            if let Some(record) = self
                .load_verdict(store, key)
                .filter(|r| r.property_id == prop.id)
            {
                self.tracer.add("store.verdict_hits", 1.0);
                return outcome_from_data(record.outcome);
            }
        }
        let mut ue_cfg = ue_config_for(implementation, self.cfg);
        if prop.slice.base == BaseProfile::LteFreshnessLimit {
            ue_cfg.sqn_config.freshness_limit = Some(4);
        }
        let outcome = self.tracer.span("testbed", || {
            run_scenario(testbed_scenario(scenario), &ue_cfg)
        });
        let settled = Settled {
            outcome: if outcome.distinguishable {
                PropertyOutcome::Distinguishable(outcome.summary)
            } else {
                PropertyOutcome::Equivalent
            },
            iterations: 0,
            refinements: 0,
            cpv_queries: 0,
        };
        self.save_verdict(key, prop, &settled, Fingerprint::ZERO);
        settled.outcome
    }

    fn check_model(&mut self, prop: &NasProperty, p: &Property) -> PropertyOutcome {
        let threat_cfg = prop.slice.threat_config();
        let semantics = StepSemantics::new(threat_cfg.clone());
        let explicit = self.cfg.backend == BackendKind::Explicit;
        let model = self.model(&threat_cfg);
        let compiled = match self.compiled(&threat_cfg, &model) {
            Ok(c) => c,
            Err(e) => return self.settle(Err(e), p).outcome,
        };
        let (cp, sliced) = self.tracer.span("smv.compile", || {
            let cp = compiled.compile_property(p);
            let sliced = match &cp {
                Ok(cp) if explicit && self.cfg.slice => profitable_slice(&compiled, cp),
                _ => None,
            };
            (cp, sliced)
        });
        if explicit && cp.is_ok() {
            self.tracer.add("smv.slice.candidates", 1.0);
            self.tracer
                .add("smv.slice.sliced", f64::from(u8::from(sliced.is_some())));
        }
        let checked: &CompiledModel = sliced.as_ref().map_or(&compiled, |s| &s.model);
        let (tag, bound) = if explicit {
            (BACKEND_TAG_EXPLICIT, 0)
        } else {
            (BACKEND_TAG_SYMBOLIC, self.cfg.bmc_bound as u64)
        };
        let pending = self.store.map(|_| {
            self.tracer.span("store.read", || {
                let fps = checked_model_fps(checked);
                let knobs = knobs_fingerprint(
                    self.cfg.state_limit,
                    self.cfg.max_cegar_iterations,
                    tag,
                    bound,
                );
                let key = verdict_key(
                    fps.semantic,
                    threat_fingerprint(&threat_cfg),
                    prop.id,
                    knobs,
                );
                (key, fps.exact)
            })
        });
        if let (Some(store), Some((key, exact))) = (self.store, pending) {
            if let Some(record) = self.load_verdict(store, key) {
                if record.property_id == prop.id && RunStore::verdict_usable(&record, exact) {
                    self.tracer.add("store.verdict_hits", 1.0);
                    return outcome_from_data(record.outcome);
                }
            }
        }
        let checked_result = match cp {
            Err(e) => Err(e),
            Ok(_) if explicit => {
                self.explicit(&threat_cfg, &compiled, sliced.as_ref(), p, &semantics)
            }
            Ok(_) => self.symbolic(&compiled, p, &semantics),
        };
        let settled = self.settle(checked_result, p);
        if let Some((key, exact)) = pending {
            self.save_verdict(key, prop, &settled, exact);
        }
        settled.outcome
    }

    fn model(&mut self, threat_cfg: &ThreatConfig) -> Arc<Model> {
        if let Some(m) = self.models.get(threat_cfg) {
            return Arc::clone(m);
        }
        let model = Arc::new(self.tracer.span("threat", || {
            build_threat_model(self.ue, self.mme, threat_cfg)
        }));
        self.tracer.add("threat.models_built", 1.0);
        self.models.insert(threat_cfg.clone(), Arc::clone(&model));
        model
    }

    fn compiled(
        &mut self,
        threat_cfg: &ThreatConfig,
        model: &Model,
    ) -> Result<Arc<CompiledModel>, CheckError> {
        if let Some(c) = self.compiled.get(threat_cfg) {
            return c.clone();
        }
        let compiled = self
            .tracer
            .span("smv.compile", || CompiledModel::new(model).map(Arc::new));
        self.compiled.insert(threat_cfg.clone(), compiled.clone());
        compiled
    }

    fn graph(
        &mut self,
        threat_cfg: &ThreatConfig,
        cone: Option<&ConeSig>,
        checked: &CompiledModel,
    ) -> Result<Arc<ReachGraph>, CheckError> {
        let slot = (threat_cfg.clone(), cone.cloned());
        if let Some(g) = self.graphs.get(&slot) {
            return g.clone();
        }
        let limit = self.cfg.state_limit;
        let mut store_key = None;
        let mut loaded = None;
        if let Some(store) = self.store {
            let (key, graph) = self.tracer.span("store.read", || {
                let key = graph_key(semantic_fingerprint(checked));
                (key, store.load_graph(key, checked, limit))
            });
            self.tracer.add("store.reads", 1.0);
            store_key = Some((store, key));
            loaded = graph;
        }
        let graph = match loaded {
            Some(g) => Ok(Arc::new(g)),
            None => {
                let mut stats = CheckStats::default();
                let built = self.tracer.span("smv.explore", || {
                    build_reach_graph_budgeted(
                        checked,
                        limit,
                        &self.meter,
                        &mut stats,
                        self.cfg.explore_threads,
                    )
                });
                self.tracer.add("smv.explore.states", stats.states as f64);
                self.tracer.add("smv.explore.graphs", 1.0);
                if let (Ok(g), Some((store, key))) = (&built, store_key) {
                    self.tracer.span("store.write", || store.save_graph(key, g));
                }
                built.map(Arc::new)
            }
        };
        self.graphs.insert(slot, graph.clone());
        graph
    }

    fn explicit(
        &mut self,
        threat_cfg: &ThreatConfig,
        compiled: &CompiledModel,
        sliced: Option<&SlicedModel>,
        p: &Property,
        semantics: &StepSemantics,
    ) -> Result<CegarOutcome, CheckError> {
        let checked = sliced.map_or(compiled, |s| &s.model);
        let graph = self.graph(threat_cfg, sliced.map(|s| &s.sig), checked)?;
        let backend = Timed {
            inner: ExplicitBackend { graph: &graph },
            tracer: self.tracer,
            layer: Layer::Query,
        };
        let mut outcome = self.cegar(checked, &backend, p, semantics)?;
        // A sliced loop reports its trace over the cone's variables; the
        // pipeline re-expands it to the full model at the report edge.
        if sliced.is_some() {
            outcome.verdict = match outcome.verdict {
                FinalVerdict::Attack(ce) => {
                    FinalVerdict::Attack(expand_counterexample(compiled, &ce))
                }
                FinalVerdict::GoalReachable(ce) => {
                    FinalVerdict::GoalReachable(expand_counterexample(compiled, &ce))
                }
                v => v,
            };
        }
        Ok(outcome)
    }

    fn symbolic(
        &mut self,
        compiled: &CompiledModel,
        p: &Property,
        semantics: &StepSemantics,
    ) -> Result<CegarOutcome, CheckError> {
        let solver = Collector::enabled();
        let backend = Timed {
            inner: BmcBackend::with_collector(self.cfg.bmc_bound, solver.clone()),
            tracer: self.tracer,
            layer: Layer::Symbolic,
        };
        let outcome = self.cegar(compiled, &backend, p, semantics);
        for (counter, metric) in [
            ("backend.clauses", "symbolic.clauses"),
            ("backend.conflicts", "symbolic.conflicts"),
            ("backend.propagations", "symbolic.propagations"),
        ] {
            self.tracer
                .add(metric, solver.counter_value(counter) as f64);
        }
        outcome
    }

    fn cegar(
        &self,
        model: &CompiledModel,
        backend: &dyn CheckBackend,
        p: &Property,
        semantics: &StepSemantics,
    ) -> Result<CegarOutcome, CheckError> {
        let outcome = self.tracer.span("cegar", || {
            cegar_check_backend_budgeted(
                model,
                backend,
                p,
                semantics,
                self.cfg.state_limit,
                self.cfg.max_cegar_iterations,
                &self.meter,
                &Collector::disabled(),
            )
        });
        if let Ok(o) = &outcome {
            self.tracer.add("cegar.iterations", o.iterations as f64);
            self.tracer
                .add("cegar.refinements", o.refinements.len() as f64);
            self.tracer.add("cpv.queries", o.cpv_queries as f64);
        }
        outcome
    }

    /// The pipeline's mapping from a check result to a report outcome.
    fn settle(&self, checked: Result<CegarOutcome, CheckError>, p: &Property) -> Settled {
        let (outcome, iterations, refinements, cpv_queries) = match checked {
            Ok(o) => {
                let outcome = match o.verdict {
                    FinalVerdict::Verified => PropertyOutcome::Verified,
                    FinalVerdict::Attack(ce) => PropertyOutcome::Attack(ce),
                    FinalVerdict::GoalReachable(ce) => PropertyOutcome::GoalReachable(ce),
                    FinalVerdict::GoalUnreachable => PropertyOutcome::GoalUnreachable,
                    FinalVerdict::BoundReached(k) => PropertyOutcome::BoundReached(k),
                    FinalVerdict::Inconclusive => {
                        PropertyOutcome::Skipped("CEGAR iteration bound exhausted".into())
                    }
                };
                (outcome, o.iterations, o.refinements.len(), o.cpv_queries)
            }
            Err(CheckError::InvalidModel(problems)) => {
                let outcome = if matches!(p, Property::Reachable { .. }) {
                    PropertyOutcome::GoalUnreachable
                } else {
                    PropertyOutcome::Skipped(format!(
                        "not applicable to this model: {}",
                        problems.join("; ")
                    ))
                };
                (outcome, 0, 0, 0)
            }
            Err(CheckError::StateLimit(n)) if n < self.cfg.state_limit => (
                PropertyOutcome::BudgetExhausted(format!("per-property state cap {n} exhausted")),
                0,
                0,
                0,
            ),
            Err(CheckError::StateLimit(n)) => (
                PropertyOutcome::Skipped(format!("state limit {n} exceeded")),
                0,
                0,
                0,
            ),
            Err(CheckError::Budget(e)) => {
                (PropertyOutcome::BudgetExhausted(e.to_string()), 0, 0, 0)
            }
            Err(CheckError::Panic(msg)) => (PropertyOutcome::Error(msg), 0, 0, 0),
            Err(CheckError::BackendDivergence(msg)) => (
                PropertyOutcome::Error(format!("backend divergence: {msg}")),
                0,
                0,
                0,
            ),
        };
        Settled {
            outcome,
            iterations,
            refinements,
            cpv_queries,
        }
    }
}

/// The pipeline's slicing policy: slice only when the cone drops a
/// command.
fn profitable_slice(compiled: &CompiledModel, cp: &CompiledProperty) -> Option<SlicedModel> {
    slice_for_property(compiled, cp).filter(|s| s.sig.cmd_count() < compiled.command_count())
}

fn testbed_scenario(s: LinkScenario) -> Scenario {
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

/// A [`CheckBackend`] that times each answer of the engine it wraps in a
/// span named after its layer and counts the calls — and, for the
/// bounded engine, the definite answers among them.
struct Timed<'a, B> {
    inner: B,
    tracer: &'a Tracer,
    layer: Layer,
}

/// The engine layers behind the CEGAR loop.
#[derive(Clone, Copy)]
enum Layer {
    Query,
    Symbolic,
}

impl<B: CheckBackend> CheckBackend for Timed<'_, B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn answer(
        &self,
        model: &CompiledModel,
        property: &CompiledProperty,
        excluded: &CmdIdSet,
        limit: usize,
        meter: &BudgetMeter,
        stats: &mut QueryStats,
    ) -> Result<BackendVerdict, CheckError> {
        let (span, calls, definite) = match self.layer {
            Layer::Query => ("smv.query", "smv.query.calls", None),
            Layer::Symbolic => ("symbolic", "symbolic.calls", Some("symbolic.definite")),
        };
        let answer = self.tracer.span(span, || {
            self.inner
                .answer(model, property, excluded, limit, meter, stats)
        });
        self.tracer.add(calls, 1.0);
        if let (Some(definite), Ok(BackendVerdict::Definite(_))) = (definite, &answer) {
            self.tracer.add(definite, 1.0);
        }
        answer
    }
}
