//! Shared threat-model and reachability-graph cache.
//!
//! Property slicing (paper §V) keys each property to a `ThreatConfig`,
//! and many of the 60+ registry properties share a slice: building the
//! composed `IMP^μ` fresh per property repeats the same FSM × adversary
//! composition dozens of times per run. This cache builds each distinct
//! configuration exactly once and hands out shared `Arc<Model>`s, safe
//! to use from the parallel property-checking pool.
//!
//! Between composition and exploration sits the compiled-model layer
//! ([`ThreatModelCache::compile`]): each distinct
//! configuration's model is lowered once to the checker's id-space
//! [`CompiledModel`] (interned variable/value/command tables), and every
//! property query and CEGAR iteration for that configuration reuses the
//! one compiled form instead of re-resolving names.
//!
//! The same sharing applies one layer up: *exploring* a composed model
//! costs far more than composing it, and every property keyed to the
//! same configuration explores the identical reachable state space. The
//! cache therefore also holds one [`LazyGraph`] per configuration
//! ([`ThreatModelCache::graph`]): a resumable BFS that every property
//! keyed to it queries. An invariant or reachability query stops the BFS
//! at its first matching state; any other query runs it to the end
//! first, once for all sharers. A BFS that fails (a state-limit blowup,
//! an exhausted budget, an isolated panic) keeps its failure and its
//! explored prefix, so every sharer sees the same error without
//! re-paying for the partial exploration, and a scan whose match lies in
//! the prefix still answers. Graph slots are keyed by
//! `(ThreatConfig, Option<ConeSig>)`: `None` is the full composition,
//! `Some(cone)` a cone-of-influence projection, so properties whose
//! cones coincide still share one (smaller) exploration. The key holds
//! no state limit, so all callers of one cache must use one limit (the
//! analysis pipeline has a single per-run limit).
//!
//! The cache lives in memory for one run and holds no store: a graph is
//! a by-product of checking, and only the verdicts answered from it
//! outlive the run (the pipeline hands them to the persistent store).
//!
//! Locking: the map mutex is held only to fetch/insert a per-key slot;
//! the (expensive) composition runs under the slot's `OnceLock`, and a
//! graph's exploration under the graph's own lock, so work on
//! *different* configurations proceeds in parallel while two threads
//! asking for the *same* one result in one build and one waiter.
//!
//! Fault isolation: every build closure (compose, compile, graph-slot
//! creation) runs under `catch_unwind`, and a graph catches panics in its
//! own exploration. A panic poisons only that configuration's slot — it
//! is cached as [`CheckError::Panic`], exactly like the existing error
//! caching, so every property sharing the configuration sees the same
//! degraded error while the other configurations' builds and all
//! sibling properties proceed untouched. A model whose state needs more
//! than 64 bits fails its graph-slot creation the same way: the
//! explorer's width error is cached on the slot.

use procheck_fsm::Fsm;
use procheck_smv::budget::panic_message;
use procheck_smv::checker::{CheckError, CompiledModel};
use procheck_smv::coi::ConeSig;
use procheck_smv::model::Model;
use procheck_smv::{GraphExtent, LazyGraph};
use procheck_telemetry::Collector;
use procheck_threat::{build_threat_model, ThreatConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A configuration's graph, explored on demand by the properties that
/// query it, or the error its creation died with: an isolated panic, or
/// a state wider than 64 bits.
type GraphSlot = OnceLock<Result<Arc<LazyGraph>, CheckError>>;

/// A memoized model compilation: the id-space [`CompiledModel`] every
/// query and CEGAR iteration for the configuration shares, or the
/// validation error the one compile died with.
type CompiledSlot = OnceLock<Result<Arc<CompiledModel>, CheckError>>;

/// A memoized threat-model composition: the shared `IMP^μ`, or the
/// isolated panic the one build died with.
type ComposeSlot = OnceLock<Result<Arc<Model>, CheckError>>;

/// A graph slot's key: the threat configuration, plus the cone of
/// influence for a sliced graph (`None` for the full composition).
type GraphKey = (ThreatConfig, Option<ConeSig>);

/// Per-run cache of composed threat models, their compiled (id-space)
/// forms, and their lazily explored reachability graphs, keyed by the full
/// [`ThreatConfig`].
#[derive(Debug, Default)]
pub struct ThreatModelCache {
    slots: Mutex<HashMap<ThreatConfig, Arc<ComposeSlot>>>,
    builds: AtomicUsize,
    lookups: AtomicUsize,
    compiled_slots: Mutex<HashMap<ThreatConfig, Arc<CompiledSlot>>>,
    compile_builds: AtomicUsize,
    compile_lookups: AtomicUsize,
    graph_slots: Mutex<HashMap<GraphKey, Arc<GraphSlot>>>,
    graph_builds: AtomicUsize,
    graph_lookups: AtomicUsize,
}

/// Snapshot of a cache's hit/miss accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups.
    pub lookups: usize,
    /// Lookups that composed a new model (cache misses).
    pub builds: usize,
}

impl CacheStats {
    /// Lookups served from an already-composed model.
    pub fn hits(&self) -> usize {
        self.lookups - self.builds
    }

    /// Fraction of lookups served from cache (0.0 when never used).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits() as f64 / self.lookups as f64
        }
    }
}

impl ThreatModelCache {
    pub fn new() -> Self {
        ThreatModelCache::default()
    }

    /// Returns the composed `IMP^μ` for `cfg`, building it on first use.
    /// Every caller passing an equal `cfg` gets the same `Arc`. Records
    /// `compose.lookups`, `compose.builds`, and a `compose.build` span
    /// per actual composition on `collector`.
    ///
    /// # Errors
    ///
    /// Returns the (cached) [`CheckError::Panic`] when the one build for
    /// this configuration panicked — only that slot is poisoned.
    pub fn compose(
        &self,
        ue: &Fsm,
        mme: &Fsm,
        cfg: &ThreatConfig,
        collector: &Collector,
    ) -> Result<Arc<Model>, CheckError> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        collector.add("compose.lookups", 1);
        let slot = {
            let mut map = self.slots.lock().expect("cache map lock");
            Arc::clone(map.entry(cfg.clone()).or_default())
        };
        slot.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            collector.add("compose.builds", 1);
            let _span = collector.span("compose.build");
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                #[cfg(feature = "fault-inject")]
                procheck_faults::inject(procheck_faults::FaultSite::ThreatCompose, None);
                Arc::new(build_threat_model(ue, mme, cfg))
            }))
            .map_err(|p| CheckError::Panic(panic_message(p)))
        })
        .clone()
    }

    /// Returns the compiled (id-space) form of `model` (the composed
    /// `IMP^μ` for `cfg`), compiling it on first use. Every caller
    /// passing an equal `cfg` gets the same `Arc` — or the same cached
    /// validation [`CheckError`] when the one compile failed. Records
    /// `compile.lookups`, `compile.builds`, a `compile` span per actual
    /// compilation, and the high-water `ident.symbols_interned` gauge on
    /// `collector`.
    ///
    /// # Errors
    ///
    /// Returns the (cached) [`CheckError`] from model validation.
    pub fn compile(
        &self,
        model: &Model,
        cfg: &ThreatConfig,
        collector: &Collector,
    ) -> Result<Arc<CompiledModel>, CheckError> {
        self.compile_lookups.fetch_add(1, Ordering::Relaxed);
        collector.add("compile.lookups", 1);
        let slot = {
            let mut map = self.compiled_slots.lock().expect("compile cache map lock");
            Arc::clone(map.entry(cfg.clone()).or_default())
        };
        let result = slot.get_or_init(|| {
            self.compile_builds.fetch_add(1, Ordering::Relaxed);
            collector.add("compile.builds", 1);
            let _span = collector.span("compile");
            let compiled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                CompiledModel::new(model).map(Arc::new)
            }))
            .unwrap_or_else(|p| Err(CheckError::Panic(panic_message(p))));
            collector.record_max("ident.symbols_interned", procheck_ident::symbols_interned());
            compiled
        });
        result.clone()
    }

    /// Returns the reachability graph of `model` — the compiled `IMP^μ`
    /// for `cfg`, or its projection onto `cone` — creating it on first
    /// use with only its initial states interned. Every caller passing an
    /// equal `(cfg, cone)` gets the same `Arc`, and queries through it
    /// explore only as far as they need (see [`LazyGraph`]); a state-limit
    /// blowup or an exhausted budget surfaces from those queries.
    ///
    /// Records `graph_cache.lookups`, `graph_cache.builds` (creating the
    /// slot counts as the build) and `graph_cache.hits` on `collector`.
    /// The work counters are recorded once per slot after the run, from
    /// the slot's final extent ([`ThreatModelCache::record_graph_extent`]).
    ///
    /// # Errors
    ///
    /// Returns the (cached) error creating the slot died with — only that
    /// slot is poisoned: [`CheckError::Panic`] when it panicked,
    /// [`CheckError::InvalidModel`] when a state of `model` needs more
    /// than 64 bits.
    pub fn graph(
        &self,
        cfg: &ThreatConfig,
        cone: Option<&ConeSig>,
        model: &CompiledModel,
        state_limit: usize,
        collector: &Collector,
    ) -> Result<Arc<LazyGraph>, CheckError> {
        let slot = {
            let mut map = self.graph_slots.lock().expect("graph cache map lock");
            Arc::clone(map.entry((cfg.clone(), cone.cloned())).or_default())
        };
        self.graph_lookups.fetch_add(1, Ordering::Relaxed);
        collector.add("graph_cache.lookups", 1);
        let mut built_now = false;
        let result = slot.get_or_init(|| {
            built_now = true;
            self.graph_builds.fetch_add(1, Ordering::Relaxed);
            collector.add("graph_cache.builds", 1);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                #[cfg(feature = "fault-inject")]
                procheck_faults::inject(procheck_faults::FaultSite::GraphBuild, None);
                LazyGraph::new(model, state_limit).map(Arc::new)
            }))
            .unwrap_or_else(|p| Err(CheckError::Panic(panic_message(p))))
        });
        if !built_now {
            collector.add("graph_cache.hits", 1);
        }
        result.clone()
    }

    /// The compiled model for `cfg`, if its one compilation has happened
    /// and succeeded — a read-only peek that does *not* count as a cache
    /// lookup, so the pipeline's post-pool FSM-delta pass can lower a
    /// delta to the configuration's commands without perturbing the
    /// hit/miss accounting.
    pub fn peek_compiled(&self, cfg: &ThreatConfig) -> Option<Arc<CompiledModel>> {
        let map = self.compiled_slots.lock().expect("compile cache map lock");
        map.get(cfg)
            .and_then(|slot| slot.get())
            .and_then(|r| r.as_ref().ok())
            .cloned()
    }

    /// Records the work graph slot `(cfg, cone)` has done on `collector`
    /// and returns its extent; `None` when the slot was never created or
    /// its creation failed. Call once per slot, after every query on it:
    /// the extent is then the largest demand any property made, so the
    /// counters are the same at any thread count.
    ///
    /// Records `smv.states_explored`, `smv.transitions`, `smv.peak_queue`,
    /// `explore.levels`, `explore.peak_level`, `explore.partial_graphs`
    /// (1 for a slot the run never completed) and a `graph.build` span
    /// timing the slot's exploration — plus the `reduction.*` cone
    /// counters for a sliced slot.
    pub fn record_graph_extent(
        &self,
        cfg: &ThreatConfig,
        cone: Option<&ConeSig>,
        collector: &Collector,
    ) -> Option<GraphExtent> {
        let graph = {
            let map = self.graph_slots.lock().expect("graph cache map lock");
            map.get(&(cfg.clone(), cone.cloned()))
                .and_then(|slot| slot.get())
                .and_then(|r| r.as_ref().ok())
                .cloned()
        }?;
        let extent = graph.extent();
        collector.add("smv.states_explored", extent.stats.states);
        collector.add("smv.transitions", extent.stats.transitions);
        collector.record_max("smv.peak_queue", extent.stats.peak_queue);
        collector.add("explore.levels", u64::from(extent.levels));
        collector.record_max("explore.peak_level", extent.peak_level);
        collector.add("explore.partial_graphs", u64::from(!extent.complete));
        collector.record_span("graph.build", extent.elapsed);
        if let Some(sig) = cone {
            collector.add("reduction.sliced_graphs", 1);
            collector.add("reduction.cone_vars", sig.var_count() as u64);
            collector.add("reduction.cone_cmds", sig.cmd_count() as u64);
            collector.add("reduction.sliced_states", extent.stats.states);
        }
        Some(extent)
    }

    /// Hit/miss accounting for the composed-model layer.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
        }
    }

    /// Hit/miss accounting for the compiled-model layer.
    pub fn compile_stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.compile_lookups.load(Ordering::Relaxed),
            builds: self.compile_builds.load(Ordering::Relaxed),
        }
    }

    /// Hit/miss accounting for the reachability-graph layer.
    pub fn graph_stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.graph_lookups.load(Ordering::Relaxed),
            builds: self.graph_builds.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use procheck_props::registry;
    use procheck_smv::BudgetMeter;
    use procheck_stack::UeConfig;

    fn small_models() -> (Fsm, Fsm) {
        use procheck_conformance::runner::run_suite;
        use procheck_conformance::suites;
        use procheck_extractor::{extract_fsm, ExtractorConfig};
        let ue_cfg = UeConfig::reference("001010123456789", 0x42);
        let report = run_suite(&ue_cfg, &suites::full_suite(&ue_cfg));
        let ue = extract_fsm(
            "ue",
            &report.ue_log,
            &ExtractorConfig::for_ue(&ue_cfg.signatures),
        );
        let mme = extract_fsm("mme", &report.mme_log, &ExtractorConfig::for_mme());
        (ue, mme)
    }

    /// The full (unsliced) graph slot of `cfg`.
    fn full_graph(
        cache: &ThreatModelCache,
        compiled: &CompiledModel,
        cfg: &ThreatConfig,
        state_limit: usize,
        collector: &Collector,
    ) -> Arc<LazyGraph> {
        cache
            .graph(cfg, None, compiled, state_limit, collector)
            .expect("creating a slot cannot fail without a fault")
    }

    /// Two properties sharing a ThreatConfig get the *same* model (by
    /// pointer), and the build counter shows one composition.
    #[test]
    fn shared_config_shares_one_model() {
        let (ue, mme) = small_models();
        let cache = ThreatModelCache::new();
        let mut shared = None;
        for p in registry() {
            let cfg = p.slice.threat_config();
            let a = cache
                .compose(&ue, &mme, &cfg, &Collector::disabled())
                .expect("compose");
            let b = cache
                .compose(&ue, &mme, &cfg, &Collector::disabled())
                .expect("compose");
            assert!(Arc::ptr_eq(&a, &b), "{}: repeat lookup must share", p.id);
            if let Some((prev_cfg, prev_model)) = &shared {
                if *prev_cfg == cfg {
                    assert!(
                        Arc::ptr_eq(prev_model, &a),
                        "equal configs must share one model"
                    );
                }
            } else {
                shared = Some((cfg, a));
            }
        }
        let distinct: std::collections::HashSet<_> =
            registry().iter().map(|p| p.slice.threat_config()).collect();
        assert_eq!(cache.stats().builds, distinct.len());
        assert!(
            distinct.len() < registry().len(),
            "slicing must share configs across properties for the cache to pay off"
        );
    }

    /// The graph layer shares one exploration per distinct config,
    /// serves repeat lookups as hits, and records the exploration's work
    /// counters once, from the slot's extent.
    #[test]
    fn graph_layer_shares_one_exploration() {
        let (ue, mme) = small_models();
        let cache = ThreatModelCache::new();
        let collector = Collector::enabled();
        let cfg = registry()[0].slice.threat_config();
        let model = cache.compose(&ue, &mme, &cfg, &collector).expect("compose");
        let compiled = cache.compile(&model, &cfg, &collector).unwrap();
        let mut graphs = Vec::new();
        for _ in 0..3 {
            graphs.push(full_graph(&cache, &compiled, &cfg, 1_000_000, &collector));
        }
        assert!(Arc::ptr_eq(&graphs[0], &graphs[1]));
        assert!(Arc::ptr_eq(&graphs[0], &graphs[2]));
        let stats = cache.graph_stats();
        assert_eq!(stats.lookups, 3);
        assert_eq!(stats.builds, 1);
        assert_eq!(stats.hits(), 2);
        assert_eq!(collector.counter_value("graph_cache.lookups"), 3);
        assert_eq!(collector.counter_value("graph_cache.builds"), 1);
        assert_eq!(collector.counter_value("graph_cache.hits"), 2);
        // Nothing is explored until a query asks.
        assert_eq!(collector.counter_value("smv.states_explored"), 0);
        let graph = graphs[0].complete(&BudgetMeter::unlimited()).expect("fits");
        let extent = cache
            .record_graph_extent(&cfg, None, &collector)
            .expect("slot exists");
        assert!(extent.complete);
        assert_eq!(extent.stats, graph.build_stats());
        assert_eq!(
            collector.counter_value("smv.states_explored"),
            graph.build_stats().states
        );
        assert_eq!(collector.counter_value("explore.partial_graphs"), 0);
    }

    /// The compiled-model layer shares one compilation per distinct
    /// config, records the `compile` span and `ident.symbols_interned`
    /// gauge once, and serves repeat lookups from cache.
    #[test]
    fn compiled_layer_shares_one_compilation() {
        let (ue, mme) = small_models();
        let cache = ThreatModelCache::new();
        let collector = Collector::enabled();
        let cfg = registry()[0].slice.threat_config();
        let model = cache
            .compose(&ue, &mme, &cfg, &Collector::disabled())
            .expect("compose");
        let a = cache.compile(&model, &cfg, &collector).unwrap();
        let b = cache.compile(&model, &cfg, &collector).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "repeat lookup must share");
        assert_eq!(a.command_count(), model.commands().len());
        let stats = cache.compile_stats();
        assert_eq!(stats.lookups, 2);
        assert_eq!(stats.builds, 1);
        assert_eq!(cache.compile_stats().builds, 1);
        assert_eq!(collector.counter_value("compile.lookups"), 2);
        assert_eq!(collector.counter_value("compile.builds"), 1);
        assert!(
            collector.counter_value("ident.symbols_interned") > 0,
            "intern-table gauge recorded at compile time"
        );
        let spans = collector
            .events()
            .iter()
            .filter(
                |e| matches!(e, procheck_telemetry::Event::Span { name, .. } if name == "compile"),
            )
            .count();
        assert_eq!(spans, 1, "one compile span per compilation");
    }

    /// A failed exploration (state-limit blowup) is kept on the slot:
    /// every sharer sees the same error, the exploration is paid for
    /// once, and the partial stats stay readable.
    #[test]
    fn failed_graph_builds_are_cached() {
        let (ue, mme) = small_models();
        let cache = ThreatModelCache::new();
        let collector = Collector::enabled();
        let cfg = registry()[0].slice.threat_config();
        let model = cache.compose(&ue, &mme, &cfg, &collector).expect("compose");
        let compiled = cache.compile(&model, &cfg, &collector).unwrap();
        let meter = BudgetMeter::unlimited();
        let a = full_graph(&cache, &compiled, &cfg, 1, &collector)
            .complete(&meter)
            .unwrap_err();
        let b = full_graph(&cache, &compiled, &cfg, 1, &collector)
            .complete(&meter)
            .unwrap_err();
        assert!(matches!(a, CheckError::StateLimit(1)));
        assert_eq!(a, b);
        assert_eq!(cache.graph_stats().builds, 1);
        let partial = cache
            .record_graph_extent(&cfg, None, &collector)
            .expect("slot exists");
        assert!(
            partial.stats.states > 1,
            "partial exploration must be visible"
        );
        assert!(!partial.complete);
        assert_eq!(collector.counter_value("explore.partial_graphs"), 1);
    }

    /// A budget-exhausted exploration degrades exactly like a
    /// state-limit one: the failure is kept, sharers (even later
    /// un-budgeted queries) see the same error, and the exploration is
    /// never re-paid.
    #[test]
    fn budget_exhausted_graph_builds_are_cached() {
        use procheck_smv::budget::Budget;
        let (ue, mme) = small_models();
        let cache = ThreatModelCache::new();
        let collector = Collector::disabled();
        let cfg = registry()[0].slice.threat_config();
        let model = cache.compose(&ue, &mme, &cfg, &collector).expect("compose");
        let compiled = cache.compile(&model, &cfg, &collector).unwrap();
        let meter = Budget::unlimited().with_total_states(1).start();
        meter.charge_and_probe(1).expect("exactly at cap");
        let a = full_graph(&cache, &compiled, &cfg, 1_000_000, &collector)
            .complete(&meter)
            .unwrap_err();
        assert!(matches!(a, CheckError::Budget(_)), "{a:?}");
        let b = full_graph(&cache, &compiled, &cfg, 1_000_000, &collector)
            .complete(&BudgetMeter::unlimited())
            .unwrap_err();
        assert_eq!(a, b, "sharers see the cached budget failure");
        assert_eq!(cache.graph_stats().builds, 1);
        assert!(cache.record_graph_extent(&cfg, None, &collector).is_some());
    }

    /// Eleven variables of 64 values each, `x0` stepping from `v0` to
    /// `v1`: a state needs 66 bits, more than the explicit engine packs.
    pub(crate) fn too_wide() -> Model {
        use procheck_smv::{Expr, GuardedCmd};
        let mut m = Model::new("wide");
        let domain: Vec<String> = (0..64).map(|i| format!("v{i}")).collect();
        let domain_refs: Vec<&str> = domain.iter().map(String::as_str).collect();
        for i in 0..11 {
            m.declare_var(&format!("x{i}"), &domain_refs, &["v0"]);
        }
        m.add_command(GuardedCmd::new("step", Expr::var_eq("x0", "v0")).set("x0", "v1"));
        m
    }

    /// A model whose state needs more than 64 bits fails its slot's
    /// creation once: every caller sharing the slot gets the same width
    /// error, and nothing is explored or recorded for it.
    #[test]
    fn width_rejections_are_cached_on_the_slot() {
        let compiled = CompiledModel::new(&too_wide()).expect("valid");
        let cache = ThreatModelCache::new();
        let collector = Collector::enabled();
        let cfg = registry()[0].slice.threat_config();
        let errors: Vec<CheckError> = (0..3)
            .map(|_| {
                cache
                    .graph(&cfg, None, &compiled, 1_000_000, &collector)
                    .expect_err("66 bits")
            })
            .collect();
        let CheckError::InvalidModel(problems) = &errors[0] else {
            panic!("{:?}", errors[0])
        };
        assert!(
            problems[0].starts_with("a state needs 66 bits, over the 64 of a packed key: x0 6,"),
            "{problems:?}"
        );
        assert!(errors.iter().all(|e| *e == errors[0]));
        assert_eq!(cache.graph_stats().builds, 1);
        assert_eq!(cache.graph_stats().hits(), 2);
        assert!(cache.record_graph_extent(&cfg, None, &collector).is_none());
        assert_eq!(collector.counter_value("smv.states_explored"), 0);
    }

    /// Hit/miss accounting: lookups = hits + builds, and the traced path
    /// mirrors the numbers onto the collector.
    #[test]
    fn cache_stats_and_collector_agree() {
        let (ue, mme) = small_models();
        let cache = ThreatModelCache::new();
        let collector = Collector::enabled();
        let cfg_a = registry()[0].slice.threat_config();
        for _ in 0..3 {
            let _ = cache.compose(&ue, &mme, &cfg_a, &collector);
        }
        let stats = cache.stats();
        assert_eq!(stats.lookups, 3);
        assert_eq!(stats.builds, 1);
        assert_eq!(stats.hits(), 2);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(collector.counter_value("compose.lookups"), 3);
        assert_eq!(collector.counter_value("compose.builds"), 1);
        let spans = collector
            .events()
            .iter()
            .filter(|e| matches!(e, procheck_telemetry::Event::Span { name, .. } if name == "compose.build"))
            .count();
        assert_eq!(spans, 1, "one build span per composition");
    }
}
