//! The four workloads: seeded inputs, set-up, the timed closed loop, the
//! verdict checks, and the traced replay.
//!
//! Every workload is a closed loop with one client — an analyst waiting
//! for each report — over one *pass*: a request list fixed by the seed.
//! A run makes whole passes, as many as bring its length closest to the
//! requested seconds (at least one), so the seed changes the order of
//! the work but never its mix. A request's latency and CPU time are the
//! lower quartile of its repeats in the run, which keeps bursts of load
//! from the rest of a shared host out of the percentiles.

use crate::expected::{embedded_edits, subject_name, Edit, Engine, Expected};
use crate::ledger::{self, Tracer, LAYER_METRICS};
use crate::stats::{key_lower_quartiles, median, peak_rss_mb, process_cpu_ms, quantile, Rng};
use procheck::pipeline::{
    analyze_extracted, analyze_implementation, extract_models, AnalysisConfig, AnalysisReport,
    BackendKind, ExtractedModels,
};
use procheck::PropertyOutcome;
use procheck_props::{registry, Check};
use procheck_smv::checker::DEFAULT_STATE_LIMIT;
use procheck_smv::Budget;
use procheck_stack::quirks::Implementation;
use procheck_telemetry::Collector;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full-registry explicit analyses of the three stacks, no store.
    RegistryExplicit,
    /// One model property per request on the bounded symbolic engine.
    PropertySymbolic,
    /// Full-registry analyses answered entirely from a warm store.
    StoreWarm,
    /// Single-transition edits re-checked against a warm store.
    StoreIncremental,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::RegistryExplicit,
        Workload::PropertySymbolic,
        Workload::StoreWarm,
        Workload::StoreIncremental,
    ];

    /// The workload's name in `BENCHMARK.json` and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RegistryExplicit => "registry-explicit",
            Workload::PropertySymbolic => "property-symbolic",
            Workload::StoreWarm => "store-warm",
            Workload::StoreIncremental => "store-incremental",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn backend(self) -> BackendKind {
        match self {
            Workload::PropertySymbolic => BackendKind::Symbolic,
            _ => BackendKind::Explicit,
        }
    }
}

/// What one run does.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Target run length; the run makes whole passes.
    pub seconds: f64,
    /// Run the traced ledger instead of the timed loop.
    pub trace: bool,
    /// Check only these properties (short runs).
    pub properties: Option<Vec<&'static str>>,
    /// Stop after this many requests (short runs).
    pub max_requests: Option<usize>,
    /// Where store directories live while the run lasts.
    pub out_dir: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run measured and whether its outputs were right.
#[derive(Debug)]
pub struct RunResult {
    /// Requests answered in the measured part of the run.
    pub requests: usize,
    /// Property verdicts those requests produced.
    pub attempted: u64,
    /// Verdicts that were degraded or errored (skipped, budget, error).
    pub failed: u64,
    /// Verdicts whose tag differs from the expected table.
    pub verdict_mismatches: u64,
    /// Other failed checks, described.
    pub check_failures: Vec<String>,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
    /// The configuration of the measured requests.
    pub config: AnalysisConfig,
    /// The traced run's spans as JSON lines.
    pub spans_jsonl: Option<String>,
}

impl RunResult {
    /// True when every verdict matched and every check passed.
    pub fn correct(&self) -> bool {
        self.verdict_mismatches == 0 && self.check_failures.is_empty()
    }
}

/// Set-ups per timed run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Analysis worker threads of every workload. One client waits on one
/// worker: on a host of few shared cores a second worker makes each
/// request wait for the slower of two, and runs spread several times
/// wider.
const THREADS: usize = 1;

const IMPLEMENTATIONS: [Implementation; 3] = [
    Implementation::Reference,
    Implementation::Srs,
    Implementation::Oai,
];

/// The symbolic workload leaves Srs out: two of its properties take
/// 20–60 s each at bound 24.
const SYMBOLIC_IMPLEMENTATIONS: [Implementation; 2] =
    [Implementation::Reference, Implementation::Oai];

/// The (stack, property) pairs the symbolic workload leaves out. All but
/// the last take 0.4–3.7 s each at bound 24, together more than half a
/// pass, so without them a run repeats every request three or four
/// times. The last takes 0.2 s, but its peak memory depends on what ran
/// before it and moved `peak_rss_mb` between runs by half.
const SYMBOLIC_LEFT_OUT: [(Implementation, &str); 7] = [
    (Implementation::Reference, "S30"),
    (Implementation::Reference, "S37"),
    (Implementation::Oai, "S30"),
    (Implementation::Oai, "S06"),
    (Implementation::Oai, "S05"),
    (Implementation::Oai, "PR21"),
    (Implementation::Reference, "PR21"),
];

/// Hardware threads available to the run.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The analysis configuration, every field set: the property pool runs
/// `threads` workers and each exploration runs serially, so no workload
/// runs more threads than `threads`.
pub fn analysis_config(
    threads: usize,
    backend: BackendKind,
    store_dir: Option<PathBuf>,
    property_filter: Option<Vec<&'static str>>,
) -> AnalysisConfig {
    AnalysisConfig {
        imsi: "001010123456789".into(),
        key_material: 0x1122_3344_5566_7788,
        state_limit: DEFAULT_STATE_LIMIT,
        max_cegar_iterations: 24,
        property_filter,
        threads,
        explore_threads: 1,
        graph_cache: true,
        slice: true,
        por: true,
        collector: Collector::disabled(),
        budget: Budget::unlimited(),
        store_dir,
        backend,
        bmc_bound: 24,
    }
}

enum Request {
    /// A full analysis of one implementation, conformance first.
    Implementation(Implementation),
    /// One model property on already-extracted models.
    Property(Implementation, &'static str),
    /// The Reference models under one pool edit.
    Edit(usize),
}

/// A store directory under the run's output directory, removed when
/// dropped — also while a panic unwinds.
struct StoreDir {
    path: PathBuf,
    snapshot: Option<BTreeMap<PathBuf, Vec<u8>>>,
}

impl StoreDir {
    fn create(out_dir: &Path, workload: Workload) -> StoreDir {
        let path = out_dir.join(format!("store-{}-{}", workload.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("the store directory can be created");
        StoreDir {
            path,
            snapshot: None,
        }
    }

    fn files(&self) -> Vec<PathBuf> {
        let mut files = Vec::new();
        for kind in std::fs::read_dir(&self.path).expect("store directory is readable") {
            let kind = kind.expect("store entry is readable").path();
            for file in std::fs::read_dir(&kind).expect("store kind directory is readable") {
                files.push(file.expect("store file entry is readable").path());
            }
        }
        files
    }

    /// Records the current contents as the state [`Self::restore`]
    /// returns to.
    fn take_snapshot(&mut self) {
        let files = self.files().into_iter().map(|f| {
            let bytes = std::fs::read(&f).expect("store file is readable");
            (f, bytes)
        });
        self.snapshot = Some(files.collect());
    }

    /// Removes every file written since the snapshot and rewrites every
    /// snapshot file that changed, so each request sees the same store
    /// and disk use stays bounded. Without a snapshot, does nothing.
    fn restore(&self) {
        let Some(snapshot) = &self.snapshot else {
            return;
        };
        for f in self.files() {
            match snapshot.get(&f) {
                None => std::fs::remove_file(&f).expect("new store file can be removed"),
                Some(bytes) => {
                    if std::fs::read(&f).ok().as_deref() != Some(bytes.as_slice()) {
                        std::fs::write(&f, bytes).expect("store file can be restored");
                    }
                }
            }
        }
        for (f, bytes) in snapshot {
            if !f.exists() {
                std::fs::write(f, bytes).expect("store file can be restored");
            }
        }
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Everything a run needs before its first measured request.
struct Prepared {
    pass: Vec<Request>,
    extracted: Vec<(Implementation, ExtractedModels)>,
    pool: Vec<(Edit, ExtractedModels)>,
    /// Storeless renders of the pool entries a run can request, made
    /// after set-up and untimed.
    cold: Vec<String>,
    store: Option<StoreDir>,
}

impl Prepared {
    fn store_path(&self) -> Option<PathBuf> {
        self.store.as_ref().map(|s| s.path.clone())
    }

    fn restore(&self) {
        if let Some(store) = &self.store {
            store.restore();
        }
    }

    fn models(&self, imp: Implementation) -> &ExtractedModels {
        &self
            .extracted
            .iter()
            .find(|(i, _)| *i == imp)
            .expect("models extracted at set-up")
            .1
    }

    /// The request's configuration: `base` narrowed to its property.
    fn config(&self, base: &AnalysisConfig, req: &Request) -> AnalysisConfig {
        match req {
            Request::Property(_, id) => AnalysisConfig {
                property_filter: Some(vec![id]),
                ..base.clone()
            },
            _ => base.clone(),
        }
    }

    fn execute(&self, req: &Request, cfg: &AnalysisConfig) -> AnalysisReport {
        match req {
            Request::Implementation(imp) => analyze_implementation(*imp, cfg),
            Request::Property(imp, _) => analyze_extracted(*imp, self.models(*imp), cfg),
            Request::Edit(i) => analyze_extracted(Implementation::Reference, &self.pool[*i].1, cfg),
        }
    }

    fn replay(
        &self,
        tracer: &Tracer,
        req: &Request,
        cfg: &AnalysisConfig,
    ) -> Vec<(&'static str, PropertyOutcome)> {
        match req {
            Request::Implementation(imp) => ledger::replay(tracer, *imp, None, cfg),
            Request::Property(imp, _) => ledger::replay(tracer, *imp, Some(self.models(*imp)), cfg),
            Request::Edit(i) => ledger::replay(
                tracer,
                Implementation::Reference,
                Some(&self.pool[*i].1),
                cfg,
            ),
        }
    }

    /// The expected-table row set the request's verdicts belong to.
    fn expectation(&self, req: &Request) -> (Engine, String) {
        match req {
            Request::Implementation(imp) => (Engine::Explicit, subject_name(*imp).to_string()),
            Request::Property(imp, _) => (Engine::Symbolic, subject_name(*imp).to_string()),
            Request::Edit(i) => (Engine::Explicit, self.pool[*i].0.subject()),
        }
    }
}

/// The model-checked registry properties, in registry order, narrowed to
/// `filter`.
fn model_properties(filter: Option<&Vec<&'static str>>) -> Vec<&'static str> {
    registry()
        .iter()
        .filter(|p| matches!(p.check, Check::Model(_)))
        .filter(|p| filter.is_none_or(|ids| ids.contains(&p.id)))
        .map(|p| p.id)
        .collect()
}

fn setup(opts: &Options) -> Result<Prepared, String> {
    let mut rng = Rng::new(opts.seed);
    let filter = opts.properties.clone();
    let mut prepared = Prepared {
        pass: Vec::new(),
        extracted: Vec::new(),
        pool: Vec::new(),
        cold: Vec::new(),
        store: None,
    };
    match opts.workload {
        Workload::RegistryExplicit => {
            let cfg = analysis_config(THREADS, BackendKind::Explicit, None, filter);
            // Warm-up: the first analysis of a stack in a process pays
            // for lazy initialisation no analyst sees twice.
            for imp in IMPLEMENTATIONS {
                analyze_implementation(imp, &cfg);
            }
            let mut order = IMPLEMENTATIONS;
            rng.shuffle(&mut order);
            prepared.pass = order.map(Request::Implementation).into();
        }
        Workload::PropertySymbolic => {
            let ids = model_properties(filter.as_ref());
            let first = *ids
                .first()
                .ok_or("the property filter keeps no model property")?;
            let cfg = analysis_config(THREADS, BackendKind::Symbolic, None, Some(vec![first]));
            for imp in SYMBOLIC_IMPLEMENTATIONS {
                let models = extract_models(imp, &cfg);
                analyze_extracted(imp, &models, &cfg);
                prepared.extracted.push((imp, models));
            }
            prepared.pass = SYMBOLIC_IMPLEMENTATIONS
                .iter()
                .flat_map(|imp| ids.iter().map(|id| (*imp, *id)))
                .filter(|pair| !SYMBOLIC_LEFT_OUT.contains(pair))
                .map(|(imp, id)| Request::Property(imp, id))
                .collect();
            rng.shuffle(&mut prepared.pass);
        }
        Workload::StoreWarm => {
            let store = StoreDir::create(&opts.out_dir, opts.workload);
            let cfg = analysis_config(
                THREADS,
                BackendKind::Explicit,
                Some(store.path.clone()),
                filter,
            );
            for imp in IMPLEMENTATIONS {
                analyze_implementation(imp, &cfg);
            }
            prepared.store = Some(store);
            let mut order = IMPLEMENTATIONS;
            rng.shuffle(&mut order);
            prepared.pass = order.map(Request::Implementation).into();
        }
        Workload::StoreIncremental => {
            let mut store = StoreDir::create(&opts.out_dir, opts.workload);
            let cfg = analysis_config(
                THREADS,
                BackendKind::Explicit,
                Some(store.path.clone()),
                filter,
            );
            let base = extract_models(Implementation::Reference, &cfg);
            analyze_extracted(Implementation::Reference, &base, &cfg);
            store.take_snapshot();
            prepared.store = Some(store);
            // Every edit, in seeded order: edits differ by a third in
            // cost, so a drawn subset would make the seed change the mix.
            let mut edits = embedded_edits();
            rng.shuffle(&mut edits);
            for edit in edits {
                let models = edit.apply(&base)?;
                prepared.pool.push((edit, models));
            }
            prepared.pass = (0..prepared.pool.len()).map(Request::Edit).collect();
        }
    }
    Ok(prepared)
}

/// Running totals of the run's verdict checks.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatches: u64,
    check_failures: Vec<String>,
}

impl Tally {
    fn verdicts<'a>(
        &mut self,
        expected: &Expected,
        (engine, subject): &(Engine, String),
        outcomes: impl Iterator<Item = (&'a str, &'a PropertyOutcome)>,
    ) {
        for (id, outcome) in outcomes {
            self.attempted += 1;
            self.failed += u64::from(outcome.is_degraded());
            if expected.tag(*engine, subject, id) != Some(outcome.tag()) {
                self.mismatches += 1;
            }
        }
    }
}

impl Prepared {
    /// The workload's own check of one request's report. `store-warm`:
    /// every verdict replays from the store and no graph is consulted.
    /// `store-incremental`: the report renders exactly as a storeless run
    /// of the same edited models did before timing.
    fn check(&self, workload: Workload, req: &Request, report: &AnalysisReport, tally: &mut Tally) {
        match (workload, req) {
            (Workload::StoreWarm, _) => {
                let s = &report.store_stats;
                let n = report.results.len() as u64;
                if s.hits != n || s.lookups != n || report.graph_cache_stats.lookups != 0 {
                    tally.check_failures.push(format!(
                        "{:?}: {}/{} verdict hits, {} graph lookups on a warm store",
                        report.implementation, s.hits, n, report.graph_cache_stats.lookups
                    ));
                }
            }
            (Workload::StoreIncremental, Request::Edit(i))
                if self.cold.get(*i) != Some(&render(report)) =>
            {
                tally.check_failures.push(format!(
                    "{}: the warm-store report differs from a storeless run",
                    self.pool[*i].0.id
                ));
            }
            _ => {}
        }
    }
}

/// A report's verdicts and CEGAR trajectory, one line per property.
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

/// Whether to start another pass: yes while that brings the run closer
/// to `seconds` than stopping would.
fn another_pass(start: Instant, passes: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed + elapsed / passes as f64 / 2.0 < seconds
}

/// Runs one workload as `opts` says.
///
/// # Errors
///
/// Set-up failures: a property filter that leaves a workload nothing to
/// do, or an edit that no longer fits the extracted models.
pub fn run(opts: &Options, expected: &Expected) -> Result<RunResult, String> {
    let repeats = if opts.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..repeats {
        drop(prepared.take());
        let start = Instant::now();
        prepared = Some(setup(opts)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut prep = prepared.expect("at least one set-up");
    prep.cold = cold_renders(opts, &prep);
    let mut tally = Tally::default();
    if opts.trace {
        return Ok(run_traced(opts, &prep, expected, tally));
    }
    let cfg = analysis_config(
        THREADS,
        opts.workload.backend(),
        prep.store_path(),
        opts.properties.clone(),
    );
    // (position in the pass, ms) of every measured request.
    let mut latency_samples = Vec::new();
    let mut cpu_samples = Vec::new();
    let start = Instant::now();
    let mut passes = 0;
    'run: loop {
        for (position, req) in prep.pass.iter().enumerate() {
            if opts
                .max_requests
                .is_some_and(|m| latency_samples.len() >= m)
            {
                break 'run;
            }
            let rcfg = prep.config(&cfg, req);
            let cpu0 = process_cpu_ms();
            let t0 = Instant::now();
            let report = prep.execute(req, &rcfg);
            latency_samples.push((position, t0.elapsed().as_secs_f64() * 1e3));
            cpu_samples.push((position, process_cpu_ms() - cpu0));
            let outcomes = report.results.iter().map(|r| (r.property_id, &r.outcome));
            tally.verdicts(expected, &prep.expectation(req), outcomes);
            prep.check(opts.workload, req, &report, &mut tally);
            prep.restore();
        }
        passes += 1;
        if !another_pass(start, passes, opts.seconds) {
            break;
        }
    }
    let latency_ms = key_lower_quartiles(&latency_samples);
    let cpu_ms = key_lower_quartiles(&cpu_samples);
    let busy_s: f64 = latency_ms.iter().sum::<f64>() / 1e3;
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: median(&setup_s),
            unit: "s",
        },
        Metric {
            name: "latency_p50_ms",
            value: median(&latency_ms),
            unit: "ms",
        },
        Metric {
            name: "latency_p90_ms",
            value: quantile(&latency_ms, 9, 10),
            unit: "ms",
        },
        Metric {
            name: "throughput_props_per_s",
            value: tally.attempted as f64 / busy_s,
            unit: "1/s",
        },
        Metric {
            name: "cpu_ms_per_request",
            value: cpu_ms.iter().sum::<f64>() / cpu_ms.len() as f64,
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MB",
        },
    ];
    Ok(RunResult {
        requests: latency_ms.len(),
        attempted: tally.attempted,
        failed: tally.failed,
        verdict_mismatches: tally.mismatches,
        check_failures: tally.check_failures,
        metrics,
        config: cfg,
        spans_jsonl: None,
    })
}

/// The storeless reports, rendered, of the pool entries the run can
/// request (none outside `store-incremental`): the reference its
/// warm-store requests must match.
fn cold_renders(opts: &Options, prep: &Prepared) -> Vec<String> {
    let cold = analysis_config(
        THREADS,
        BackendKind::Explicit,
        None,
        opts.properties.clone(),
    );
    let requested = prep.pool.len().min(opts.max_requests.unwrap_or(usize::MAX));
    prep.pool[..requested]
        .iter()
        .map(|(_, models)| render(&analyze_extracted(Implementation::Reference, models, &cold)))
        .collect()
}

/// The traced ledger: each request of the pass runs untraced through
/// the pipeline at `threads = 1`, then through [`ledger::replay`]; the
/// per-layer metrics are medians over requests.
fn run_traced(opts: &Options, prep: &Prepared, expected: &Expected, mut tally: Tally) -> RunResult {
    let cfg = analysis_config(
        THREADS,
        opts.workload.backend(),
        prep.store_path(),
        opts.properties.clone(),
    );
    let tracer = Tracer::default();
    let mut ledgers = Vec::new();
    let start = Instant::now();
    let mut passes = 0;
    'run: loop {
        for req in &prep.pass {
            if opts.max_requests.is_some_and(|m| ledgers.len() >= m) {
                break 'run;
            }
            let rcfg = prep.config(&cfg, req);
            let t0 = Instant::now();
            let report = prep.execute(req, &rcfg);
            let untraced_ms = t0.elapsed().as_secs_f64() * 1e3;
            prep.restore();
            prep.check(opts.workload, req, &report, &mut tally);
            tracer.begin_request(ledgers.len() as u32);
            let outcomes = prep.replay(&tracer, req, &rcfg);
            prep.restore();
            ledgers.push(tracer.request_ledger(untraced_ms));
            let replayed: Vec<(&str, &PropertyOutcome)> =
                outcomes.iter().map(|(id, o)| (*id, o)).collect();
            tally.verdicts(expected, &prep.expectation(req), replayed.iter().copied());
            let pipeline: Vec<(&str, &PropertyOutcome)> = report
                .results
                .iter()
                .map(|r| (r.property_id, &r.outcome))
                .collect();
            if pipeline != replayed {
                tally.check_failures.push(format!(
                    "request {}: the traced replay's outcomes differ from the pipeline's",
                    ledgers.len()
                ));
            }
        }
        passes += 1;
        if !another_pass(start, passes, opts.seconds) {
            break;
        }
    }
    let metrics = LAYER_METRICS
        .iter()
        .map(|(name, unit)| {
            let values: Vec<f64> = ledgers.iter().map(|l| l[name]).collect();
            Metric {
                name,
                value: median(&values),
                unit,
            }
        })
        .collect();
    RunResult {
        requests: ledgers.len(),
        attempted: tally.attempted,
        failed: tally.failed,
        verdict_mismatches: tally.mismatches,
        check_failures: tally.check_failures,
        metrics,
        config: cfg,
        spans_jsonl: Some(tracer.to_jsonl()),
    }
}
