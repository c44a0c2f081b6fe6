//! Pipeline bridge to the persistent cross-run analysis store.
//!
//! [`RunStore`] wraps a [`procheck_store::Store`] with everything the
//! pipeline needs to go warm: stable key derivation, record
//! encode/decode, and the outcome conversions between
//! [`PropertyOutcome`] and the on-disk [`OutcomeData`]. The pipeline
//! reads and writes three record kinds: verdicts, verdict indexes and
//! FSM baselines. Its reachability graphs live in memory for one run;
//! [`graph_key`], [`RunStore::load_graph`] and [`RunStore::save_graph`]
//! remain only for the repository benchmark's traced replay
//! (`benchmark/src/ledger.rs`).
//!
//! # Key discipline
//!
//! All keys are [`Fingerprint`]s over resolved strings — never over
//! `Sym(u32)` interning ids, which are process-global and differ
//! between runs. Verdicts are found in two levels:
//!
//! ```text
//! index_key   = H(fsm pair fp, checking knobs, slice flag)
//!               → per property: (verdict_key, exact model fp)
//! verdict_key = H(semantic fp of the model as checked,
//!                 threat-config fp, property id, checking knobs)
//! ```
//!
//! The first level, the *verdict index*, is keyed by
//! content the pipeline has before it composes anything: the canonical
//! text of both extracted machines ([`fsm_pair_fingerprint`]). It
//! memoizes a pure function — composition, compilation and slicing
//! read only what the canonical text holds — so an unchanged run reads
//! each verdict key from it and composes nothing. Any edit to either
//! machine misses it, and the run falls back to the second level.
//! Because the index trusts that purity, a change to composition,
//! compilation, slicing or fingerprinting must bump [`INDEX_DOMAIN`];
//! `crates/core/tests/verdict_index.rs` pins digests of every stack's
//! compositions and cold-run indexes so such a change fails loudly.
//!
//! The second level, the verdict key, binds *everything the verdict
//! depends on*. "As checked" means the cone-of-influence projection
//! when the pipeline sliced, the full compiled model otherwise — so the
//! key is itself the precise form of "the FSM delta does not touch this
//! property's cone": any change inside the cone changes the model the
//! property actually observes, hence the key, hence misses cold.
//!
//! The *semantic* fingerprint ([`model_semantic_fingerprint`]) strips
//! the `#<uniq>` label suffixes, which are numbered sequentially across
//! the whole threat-model build — an insertion anywhere shifts every
//! later suffix without changing any guard, update, or verdict. The
//! suffix does appear verbatim in counterexample trace strings, so a
//! stored record additionally carries the *exact* fingerprint
//! ([`VerdictRecord::model_fp`]); trace-bearing outcomes are replayed
//! only when it matches the fresh model exactly
//! ([`RunStore::verdict_usable`]), keeping warm reports byte-identical.
//!
//! # Degradation
//!
//! Every load path collapses to a cold miss — decode failures bump the
//! store's `invalidated` counter, injected `StoreRead`/`StoreWrite`
//! faults and I/O errors are absorbed — and never to a wrong answer.
//! Saves are best-effort: a failed write costs the next run warmth,
//! nothing else.

use crate::report::PropertyOutcome;
use procheck_fsm::canon::{canonical_text, parse_canonical};
use procheck_fsm::diff::FsmDiff;
use procheck_fsm::Fsm;
use procheck_smv::checker::CompiledModel;
use procheck_smv::reach::ReachGraph;
use procheck_smv::trace::{Counterexample, TraceStep};
use procheck_smv::{model_fingerprint, model_semantic_fingerprint, ReachGraphData};
use procheck_store::{
    BaselineRecord, Fingerprint, IndexEntry, IndexRecord, Kind, LoadOutcome, OutcomeData,
    StableHasher, Store, StoreStats, TraceData, TraceStepData, VerdictRecord,
};
use procheck_threat::ThreatConfig;
use std::collections::{BTreeMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

pub use procheck_smv::model_semantic_fingerprint as semantic_fingerprint;

/// Stable fingerprint of a [`ThreatConfig`]: every field, in declaration
/// order. Part of the verdict key — two properties whose slices differ
/// only in a monitor flag check different instrumented models.
pub fn threat_fingerprint(cfg: &ThreatConfig) -> Fingerprint {
    let mut h = StableHasher::with_domain("threat-config-v1");
    for set in [
        &cfg.replayable_dl,
        &cfg.plain_injectable_dl,
        &cfg.plain_injectable_ul,
        &cfg.plain_legit_dl,
        &cfg.protected_class_dl,
    ] {
        h.write_u64(set.len() as u64);
        for s in set.iter() {
            h.write_str(s);
        }
    }
    for flag in [
        cfg.stale_unconsumed_sqn_accepted,
        cfg.optimistic_crypto,
        cfg.track_ue_last,
        cfg.track_mme_last,
        cfg.monitor_replay,
        cfg.monitor_plain,
        cfg.monitor_bypass,
        cfg.monitor_imsi,
        cfg.fair_delivery,
    ] {
        h.write_u8(u8::from(flag));
    }
    h.finish()
}

/// Stable fingerprint of the checking knobs a verdict depends on: the
/// state limit (decides limit-skips), the CEGAR iteration bound
/// (decides convergence skips), and — since the backend seam — the
/// checking engine itself plus its BMC bound, so verdicts settled by
/// one engine are never replayed as another's (an explicit `Verified`
/// must not answer a symbolic query, whose honest answer may only be
/// `BoundReached`). Thread counts are proven result-invariant and
/// deliberately excluded — a store written at one thread count must hit
/// at another.
///
/// `backend_tag` is the engine discriminant
/// ([`BACKEND_TAG_EXPLICIT`] / [`BACKEND_TAG_SYMBOLIC`]); `bmc_bound`
/// is 0 for the explicit engine, whose answers don't depend on any
/// bound.
pub fn knobs_fingerprint(
    state_limit: usize,
    max_cegar_iterations: usize,
    backend_tag: u8,
    bmc_bound: u64,
) -> Fingerprint {
    let mut h = StableHasher::with_domain("check-knobs-v2");
    h.write_u64(state_limit as u64);
    h.write_u64(max_cegar_iterations as u64);
    h.write_u8(backend_tag);
    h.write_u64(bmc_bound);
    h.finish()
}

/// [`knobs_fingerprint`] discriminant for the explicit-state engine.
pub const BACKEND_TAG_EXPLICIT: u8 = 0;
/// [`knobs_fingerprint`] discriminant for the bounded symbolic engine.
pub const BACKEND_TAG_SYMBOLIC: u8 = 1;

/// The verdict-store key for one model property: semantic fingerprint
/// of the model *as checked* (sliced when the pipeline sliced), threat
/// configuration, property id, knobs.
pub fn verdict_key(
    checked_semantic_fp: Fingerprint,
    threat_fp: Fingerprint,
    property_id: &str,
    knobs_fp: Fingerprint,
) -> Fingerprint {
    let mut h = StableHasher::with_domain("verdict-key-v1");
    h.write(&checked_semantic_fp.0);
    h.write(&threat_fp.0);
    h.write_str(property_id);
    h.write(&knobs_fp.0);
    h.finish()
}

/// The verdict-store key for one linkability property. Linkability
/// checks run scenario traces on the simulated testbed — no composed
/// model, no knobs — so the key binds the implementation profile, the
/// subscriber identity, and the property.
pub fn link_key(
    implementation: &str,
    imsi: &str,
    key_material: u64,
    property_id: &str,
) -> Fingerprint {
    let mut h = StableHasher::with_domain("link-key-v1");
    h.write_str(implementation);
    h.write_str(imsi);
    h.write_u64(key_material);
    h.write_str(property_id);
    h.finish()
}

/// Stable fingerprint of an extracted FSM pair: the canonical text of
/// both machines, the same strings a [`BaselineRecord`] stores.
pub fn fsm_pair_fingerprint(pair: &BaselineRecord) -> Fingerprint {
    let mut h = StableHasher::with_domain("fsm-pair-v1");
    h.write_str(&pair.ue);
    h.write_str(&pair.mme);
    h.finish()
}

/// Domain tag of [`index_key`]. An index entry is only as good as the
/// composition, compilation, slicing and fingerprinting code that
/// produced it; bump the version whenever any of them changes, so
/// indexes written by older code are never read.
pub const INDEX_DOMAIN: &str = "verdict-index-v1";

/// The verdict-index key for one backend leg of one run: the extracted
/// FSM pair, the leg's [`knobs_fingerprint`], and whether the pipeline
/// slices — slicing decides which model a property is checked against,
/// hence which verdict key a fresh run computes.
pub fn index_key(fsm_pair_fp: Fingerprint, knobs_fp: Fingerprint, slice: bool) -> Fingerprint {
    let mut h = StableHasher::with_domain(INDEX_DOMAIN);
    h.write(&fsm_pair_fp.0);
    h.write(&knobs_fp.0);
    h.write_u8(u8::from(slice));
    h.finish()
}

/// The baseline-snapshot key for one implementation profile (plus the
/// subscriber identity that parameterizes extraction).
pub fn baseline_key(implementation: &str, imsi: &str, key_material: u64) -> Fingerprint {
    let mut h = StableHasher::with_domain("baseline-key-v1");
    h.write_str(implementation);
    h.write_str(imsi);
    h.write_u64(key_material);
    h.finish()
}

/// The graph-artifact key: the checked model's *semantic* fingerprint.
/// Graph payloads contain no labels (edges carry dense command indices
/// into the model's own tables), so a graph explored for one model is
/// valid for any model whose semantic fingerprint matches — uniq-suffix
/// shifts don't invalidate it. [`ReachGraph::from_data`] re-validates
/// every index against the live model at load regardless. The pipeline
/// stores no graphs; the benchmark ledger's replay is the only caller.
pub fn graph_key(checked_semantic_fp: Fingerprint) -> Fingerprint {
    let mut h = StableHasher::with_domain("graph-key-v1");
    h.write(&checked_semantic_fp.0);
    h.finish()
}

/// Converts a settled [`PropertyOutcome`] to its storable form. `None`
/// for the degraded outcomes ([`PropertyOutcome::BudgetExhausted`],
/// [`PropertyOutcome::Error`]) — they describe the run, not the
/// property, and must never be replayed from a cache.
pub fn outcome_to_data(outcome: &PropertyOutcome) -> Option<OutcomeData> {
    Some(match outcome {
        PropertyOutcome::Verified => OutcomeData::Verified,
        PropertyOutcome::Attack(ce) => OutcomeData::Attack(trace_to_data(ce)),
        PropertyOutcome::GoalReachable(ce) => OutcomeData::GoalReachable(trace_to_data(ce)),
        PropertyOutcome::GoalUnreachable => OutcomeData::GoalUnreachable,
        PropertyOutcome::Equivalent => OutcomeData::Equivalent,
        PropertyOutcome::Distinguishable(s) => OutcomeData::Distinguishable(s.clone()),
        PropertyOutcome::Skipped(s) => OutcomeData::Skipped(s.clone()),
        PropertyOutcome::BoundReached(k) => OutcomeData::BoundReached(*k as u64),
        PropertyOutcome::BudgetExhausted(_) | PropertyOutcome::Error(_) => return None,
    })
}

/// Reconstitutes a stored outcome.
pub fn outcome_from_data(data: OutcomeData) -> PropertyOutcome {
    match data {
        OutcomeData::Verified => PropertyOutcome::Verified,
        OutcomeData::Attack(t) => PropertyOutcome::Attack(trace_from_data(t)),
        OutcomeData::GoalReachable(t) => PropertyOutcome::GoalReachable(trace_from_data(t)),
        OutcomeData::GoalUnreachable => PropertyOutcome::GoalUnreachable,
        OutcomeData::Equivalent => PropertyOutcome::Equivalent,
        OutcomeData::Distinguishable(s) => PropertyOutcome::Distinguishable(s),
        OutcomeData::Skipped(s) => PropertyOutcome::Skipped(s),
        OutcomeData::BoundReached(k) => PropertyOutcome::BoundReached(k as usize),
    }
}

/// True when `data` carries a counterexample trace — the outcomes whose
/// reuse additionally requires an exact model-fingerprint match
/// (traces quote command labels verbatim, `#<uniq>` suffix included).
pub fn outcome_bears_trace(data: &OutcomeData) -> bool {
    matches!(data, OutcomeData::Attack(_) | OutcomeData::GoalReachable(_))
}

fn trace_to_data(ce: &Counterexample) -> TraceData {
    TraceData {
        steps: ce
            .steps
            .iter()
            .map(|s| TraceStepData {
                label: s.label.clone(),
                // BTreeMap iteration is already the canonical sorted
                // order the record format specifies.
                state: s
                    .state
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
            })
            .collect(),
        lasso_start: ce.lasso_start.map(|i| i as u64),
    }
}

fn trace_from_data(t: TraceData) -> Counterexample {
    Counterexample {
        steps: t
            .steps
            .into_iter()
            .map(|s| TraceStep {
                label: s.label,
                state: s.state.into_iter().collect::<BTreeMap<_, _>>(),
            })
            .collect(),
        lasso_start: t.lasso_start.map(|i| i as usize),
    }
}

/// The set of compiled-command indices an FSM delta touches, lowered
/// through the threat-model label grammar: a command is touched when
/// its participant matches the diffed machine and its subject or action
/// names a message appearing in any added/removed transition.
///
/// This is the *explanation* layer for warm-run telemetry ("which cones
/// did the delta land in") — the reuse decision itself is arbitrated by
/// fingerprint-key equality, which also covers hazards this lowering
/// cannot see (removed transitions change guard structure without
/// leaving a matchable label; monitor vocabulary shifts with the
/// config).
pub fn delta_commands(
    compiled: &CompiledModel,
    ue_diff: &FsmDiff,
    mme_diff: &FsmDiff,
) -> HashSet<u32> {
    let mut touched: Vec<(&str, HashSet<String>)> = Vec::new();
    for (who, diff) in [("ue", ue_diff), ("mme", mme_diff)] {
        let mut names = HashSet::new();
        for t in diff.added.iter().chain(&diff.removed) {
            for c in &t.condition {
                names.insert(c.name().to_string());
            }
            for a in &t.action {
                names.insert(a.as_str().to_string());
            }
        }
        if !names.is_empty() {
            touched.push((who, names));
        }
    }
    let mut out = HashSet::new();
    if touched.is_empty() {
        return out;
    }
    for i in 0..compiled.command_count() {
        let label = compiled.command_label(procheck_ident::CmdId::new(i));
        let Some(info) = procheck_threat::labels::CommandInfo::parse(label.as_str()) else {
            continue;
        };
        let who = match info.who {
            procheck_threat::labels::Participant::Ue => "ue",
            procheck_threat::labels::Participant::Mme => "mme",
            procheck_threat::labels::Participant::Adversary => continue,
        };
        for (machine, names) in &touched {
            if who == *machine && (names.contains(&info.subject) || names.contains(&info.action)) {
                out.insert(i as u32);
            }
        }
    }
    out
}

/// True when a property's cone (or the full model, for unsliced
/// properties) intersects the delta-touched command set.
pub fn cone_intersects_delta(
    cone: Option<&procheck_smv::coi::ConeSig>,
    delta: &HashSet<u32>,
) -> bool {
    match cone {
        None => !delta.is_empty(),
        Some(sig) => sig.kept_cmds.iter().any(|c| delta.contains(c)),
    }
}

#[cfg(feature = "fault-inject")]
fn read_fault(key: Fingerprint) -> Option<procheck_faults::DataFault> {
    procheck_faults::inject(procheck_faults::FaultSite::StoreRead, Some(&key.to_hex()))
}

#[cfg(feature = "fault-inject")]
fn write_fault(key: Fingerprint) -> Option<procheck_faults::DataFault> {
    procheck_faults::inject(procheck_faults::FaultSite::StoreWrite, Some(&key.to_hex()))
}

#[cfg(feature = "fault-inject")]
fn mangle(bytes: &mut Vec<u8>, fault: procheck_faults::DataFault) {
    match fault {
        procheck_faults::DataFault::Truncate => bytes.truncate(bytes.len() / 2),
        // XOR every byte: length prefixes become absurd, magic breaks —
        // the next decode layer deterministically rejects it.
        procheck_faults::DataFault::Garbage => bytes.iter_mut().for_each(|b| *b ^= 0xa5),
    }
}

/// The pipeline's handle to one persistent store directory.
///
/// Cloneable via `Arc`; all methods are `&self` and thread-safe (the
/// underlying [`Store`] is). Every failure mode is absorbed into a cold
/// miss; see the module docs.
#[derive(Debug)]
pub struct RunStore {
    store: Store,
}

impl RunStore {
    /// Opens (creating if needed) the store at `dir`.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory tree.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Arc<RunStore>> {
        Ok(Arc::new(RunStore {
            store: Store::open(dir)?,
        }))
    }

    /// Counter snapshot of the underlying store.
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Loads, frame-validates, (optionally fault-mangles,) and decodes
    /// the raw payload under `(kind, key)`. All failures are cold
    /// misses; payload-level failures bump `invalidated`.
    fn load_payload(&self, kind: Kind, key: Fingerprint) -> Option<Vec<u8>> {
        let loaded = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "fault-inject")]
            let fault = read_fault(key);
            match self.store.load(kind, key) {
                LoadOutcome::Hit(payload) => {
                    #[cfg_attr(not(feature = "fault-inject"), allow(unused_mut))]
                    let mut payload = payload;
                    #[cfg(feature = "fault-inject")]
                    if let Some(fault) = fault {
                        mangle(&mut payload, fault);
                    }
                    Some(payload)
                }
                LoadOutcome::Miss | LoadOutcome::Corrupt(_) => None,
            }
        }));
        match loaded {
            Ok(payload) => payload,
            Err(_) => {
                // An isolated panic mid-load (injected or real) is
                // corruption-equivalent: count it, miss cold.
                self.store.note_invalidated();
                None
            }
        }
    }

    /// Runs store work that reads, parses or writes records under the
    /// same containment as a load: a panic inside `f` (say, on a stored
    /// record no parser anticipated) counts as an invalidated record and
    /// returns `None`, so the run that hit it still completes.
    pub(crate) fn contain<T>(&self, f: impl FnOnce() -> T) -> Option<T> {
        catch_unwind(AssertUnwindSafe(f))
            .map_err(|_| self.store.note_invalidated())
            .ok()
    }

    /// Frames and writes `payload` under `(kind, key)`, best-effort.
    /// Injected `StoreWrite` data faults corrupt the *framed bytes*
    /// before the write, so the next run exercises the corrupt-read
    /// path end to end; injected panics are caught and skip the write.
    fn save_payload(&self, kind: Kind, key: Fingerprint, payload: &[u8]) {
        let _ = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "fault-inject")]
            {
                if let Some(fault) = write_fault(key) {
                    let mut framed = procheck_store::frame(kind, key, payload);
                    mangle(&mut framed, fault);
                    let _ = self.store.save_frame(kind, key, &framed);
                    return;
                }
            }
            let _ = self.store.save(kind, key, payload);
        }));
    }

    /// Loads the verdict record under `key`, fully decoded. Counts one
    /// verdict lookup, and a hit only when a decoded record comes back;
    /// a frame hit whose record fails to decode counts `invalidated` and
    /// misses cold.
    pub fn load_verdict(&self, key: Fingerprint) -> Option<VerdictRecord> {
        let record = self.load_payload(Kind::Verdict, key).and_then(|payload| {
            VerdictRecord::decode(&payload)
                .map_err(|_| self.store.note_invalidated())
                .ok()
        });
        self.store.note_verdict_lookup(record.is_some());
        record
    }

    /// Whether a loaded verdict may be replayed against a model whose
    /// exact fingerprint is `fresh_exact_fp`: trace-free outcomes
    /// always (the verdict depends only on semantics, which the key
    /// already binds); trace-bearing outcomes only on an exact match,
    /// because traces quote `#<uniq>` label suffixes verbatim and those
    /// shift under insertions elsewhere in the build.
    pub fn verdict_usable(record: &VerdictRecord, fresh_exact_fp: Fingerprint) -> bool {
        !outcome_bears_trace(&record.outcome) || record.model_fp == fresh_exact_fp
    }

    /// Stores a verdict record under `key`, best-effort.
    pub fn save_verdict(&self, key: Fingerprint, record: &VerdictRecord) {
        self.save_payload(Kind::Verdict, key, &record.encode());
    }

    /// Loads and revalidates the graph artifact under `key` against the
    /// live `model`: the payload must decode, every index must validate
    /// against the model ([`ReachGraph::from_data`]), and the stored
    /// exploration must fit under this run's `state_limit` (a graph
    /// stored under a larger limit could contain states this run's
    /// budget forbids — reject it rather than reason about it). The
    /// pipeline loads no graphs; the benchmark ledger's replay is the
    /// only caller.
    pub fn load_graph(
        &self,
        key: Fingerprint,
        model: &CompiledModel,
        state_limit: usize,
    ) -> Option<ReachGraph> {
        let payload = self.load_payload(Kind::Graph, key)?;
        let data = match ReachGraphData::decode(&payload) {
            Ok(d) => d,
            Err(_) => {
                self.store.note_invalidated();
                return None;
            }
        };
        let graph = catch_unwind(AssertUnwindSafe(|| ReachGraph::from_data(model, &data)));
        match graph {
            Ok(Ok(graph)) if graph.build_stats().states <= state_limit as u64 => Some(graph),
            _ => {
                self.store.note_invalidated();
                None
            }
        }
    }

    /// Stores a successfully built graph under `key`, best-effort. Only
    /// complete builds should reach here — partial (limit/budget-failed)
    /// explorations are not reusable artifacts. The pipeline stores no
    /// graphs; the benchmark ledger's replay is the only caller.
    pub fn save_graph(&self, key: Fingerprint, graph: &ReachGraph) {
        self.save_payload(Kind::Graph, key, &graph.to_data().encode());
    }

    /// Loads the baseline FSM snapshot for `(implementation, identity)`
    /// and reconstructs both machines from canonical text. Any parse
    /// failure is baseline corruption: `invalidated`, cold miss.
    pub fn load_baseline(&self, key: Fingerprint) -> Option<(Fsm, Fsm)> {
        self.load_baseline_record(key)
            .and_then(|record| self.parse_baseline(&record))
    }

    /// Loads the baseline snapshot's canonical texts without parsing
    /// them; a payload that fails to decode counts `invalidated`.
    pub(crate) fn load_baseline_record(&self, key: Fingerprint) -> Option<BaselineRecord> {
        let payload = self.load_payload(Kind::Baseline, key)?;
        BaselineRecord::decode(&payload)
            .map_err(|_| self.store.note_invalidated())
            .ok()
    }

    /// Reconstructs both machines of a loaded snapshot. A parse failure
    /// is baseline corruption: `invalidated`, `None`.
    pub(crate) fn parse_baseline(&self, record: &BaselineRecord) -> Option<(Fsm, Fsm)> {
        match (parse_canonical(&record.ue), parse_canonical(&record.mme)) {
            (Ok(ue), Ok(mme)) => Some((ue, mme)),
            _ => {
                self.store.note_invalidated();
                None
            }
        }
    }

    /// Stores the baseline snapshot for this run's extracted machines,
    /// best-effort.
    pub fn save_baseline(&self, key: Fingerprint, ue: &Fsm, mme: &Fsm) {
        self.save_baseline_record(
            key,
            &BaselineRecord {
                ue: canonical_text(ue),
                mme: canonical_text(mme),
            },
        );
    }

    /// Stores a baseline snapshot whose canonical texts are already
    /// computed, best-effort.
    pub(crate) fn save_baseline_record(&self, key: Fingerprint, record: &BaselineRecord) {
        self.save_payload(Kind::Baseline, key, &record.encode());
    }
}

/// One backend leg's verdict index for one run: the record the store
/// held when the run began, plus the entries this run resolved through
/// the second-level key or settled live. [`VerdictIndex::save`] merges
/// them and writes the record once, only when it changed — so a fully
/// warm run writes nothing.
#[derive(Debug)]
pub(crate) struct VerdictIndex {
    key: Fingerprint,
    loaded: IndexRecord,
    added: Mutex<BTreeMap<String, IndexEntry>>,
}

impl VerdictIndex {
    /// Reads the index under `key`. A missing or corrupt record reads as
    /// empty (corruption counts `invalidated`); either way the run
    /// falls back to second-level keys and rewrites the index.
    pub(crate) fn load(store: &RunStore, key: Fingerprint) -> VerdictIndex {
        let loaded = store
            .load_payload(Kind::Index, key)
            .and_then(|payload| {
                IndexRecord::decode(&payload)
                    .map_err(|_| store.store.note_invalidated())
                    .ok()
            })
            .unwrap_or_default();
        VerdictIndex {
            key,
            loaded,
            added: Mutex::new(BTreeMap::new()),
        }
    }

    /// The indexed entry for `property_id`, as loaded.
    pub(crate) fn entry(&self, property_id: &str) -> Option<IndexEntry> {
        self.loaded.entries.get(property_id).copied()
    }

    /// Records where `property_id`'s verdict lives, for the end-of-run
    /// write.
    pub(crate) fn add(&self, property_id: &str, entry: IndexEntry) {
        self.added
            .lock()
            .expect("no thread panics while holding the index lock")
            .insert(property_id.to_string(), entry);
    }

    /// Merges this run's entries into the loaded record and writes it,
    /// best-effort — only when some entry is new or different.
    pub(crate) fn save(self, store: &RunStore) {
        let added = self
            .added
            .into_inner()
            .expect("no thread panics while holding the index lock");
        if added
            .iter()
            .all(|(id, entry)| self.loaded.entries.get(id) == Some(entry))
        {
            return;
        }
        let mut merged = self.loaded;
        merged.entries.extend(added);
        store.save_payload(Kind::Index, self.key, &merged.encode());
    }
}

/// The exact and semantic fingerprints of the model a property was
/// checked against, bundled so call sites can't mix them up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckedModelFps {
    /// Exact fingerprint (labels verbatim) — the trace-reuse gate.
    pub exact: Fingerprint,
    /// Semantic fingerprint (uniq suffixes stripped) — the key input.
    pub semantic: Fingerprint,
}

/// Both fingerprints of `model` in one pass pair.
pub fn checked_model_fps(model: &CompiledModel) -> CheckedModelFps {
    CheckedModelFps {
        exact: model_fingerprint(model),
        semantic: model_semantic_fingerprint(model),
    }
}
