//! Graph persistence and stable model fingerprinting for the cross-run
//! analysis store.
//!
//! A [`ReachGraph`]'s packed state arena, CSR successor adjacency, and
//! BFS parent pointers are plain integer arrays. This module serializes
//! them ([`ReachGraph::to_data`]) and reconstructs a graph from a stored
//! payload ([`ReachGraph::from_data`]) against a freshly compiled model.
//! The analysis pipeline keeps its graphs in memory for one run and
//! never stores one; the repository benchmark's traced replay is the
//! only caller of the two conversions.
//!
//! # Why dense ids may reach disk but `Sym`s must not
//!
//! `Sym(u32)` interning ids are process-global: they depend on every
//! string interned before, in order, anywhere in the process, so the
//! same label gets different ids in different runs. They never reach
//! disk. The dense ids inside a [`CompiledModel`] (`VarId`/`ValId`/
//! command indices) are different: they index the model's *own* tables
//! in declaration order, and threat-model construction is deterministic
//! — the same FSMs and `ThreatConfig` produce the same variable order,
//! domain order, and command order in every process. A stored graph is
//! therefore valid exactly for models whose [`model_fingerprint`]
//! (computed over resolved strings) matches the one it was stored
//! under; graph artifacts are keyed by that fingerprint, and
//! [`ReachGraph::from_data`] re-validates every index against the live
//! model before the graph is used.

use crate::checker::{CExpr, CheckStats, CompiledModel};
use crate::reach::{PackLayout, ReachGraph, StateArena, NO_PARENT, STUTTER_CMD};
use procheck_store::{ByteReader, ByteWriter, Fingerprint, StableHasher};

/// Plain-data image of a [`ReachGraph`]: every field a stored graph
/// needs, as integer arrays. The pipeline stores no graphs; the
/// repository benchmark's traced replay is the only user of this image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachGraphData {
    /// Declared variable count of the model the graph was explored for.
    pub num_vars: u64,
    /// True when `keys` holds the packed arena; false when `values`
    /// holds the wide arena.
    pub packed: bool,
    /// Packed `u64` state keys (empty unless `packed`).
    pub keys: Vec<u64>,
    /// Wide arena value indices, `num_vars` per state (empty when
    /// `packed`).
    pub values: Vec<u16>,
    /// BFS parent node per node.
    pub parent_node: Vec<u32>,
    /// Command index of the edge from the BFS parent.
    pub parent_cmd: Vec<u32>,
    /// CSR offsets into `succ_cmd`/`succ_node`.
    pub succ_off: Vec<u32>,
    /// Command index per successor edge.
    pub succ_cmd: Vec<u32>,
    /// Successor node per edge.
    pub succ_node: Vec<u32>,
    /// Count of initial states (nodes `0..init_count`).
    pub init_count: u32,
    /// BFS levels walked by the original exploration.
    pub levels: u32,
    /// Widest BFS level of the original exploration.
    pub peak_level: u64,
    /// Exploration cost of the original build (`states`, `transitions`,
    /// `peak_queue`).
    pub stats: [u64; 3],
}

impl ReachGraphData {
    /// Encodes to a store payload (hand-rolled framing, no serde).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(self.num_vars);
        w.u8(u8::from(self.packed));
        w.vec_u64(&self.keys);
        w.vec_u16(&self.values);
        w.vec_u32(&self.parent_node);
        w.vec_u32(&self.parent_cmd);
        w.vec_u32(&self.succ_off);
        w.vec_u32(&self.succ_cmd);
        w.vec_u32(&self.succ_node);
        w.u32(self.init_count);
        w.u32(self.levels);
        w.u64(self.peak_level);
        for s in self.stats {
            w.u64(s);
        }
        w.into_bytes()
    }

    /// Decodes a store payload.
    ///
    /// # Errors
    ///
    /// A description of the decode failure; the caller treats it as
    /// record corruption (a cold miss).
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let mut r = ByteReader::new(payload);
        let mut run = || -> Result<ReachGraphData, procheck_store::DecodeError> {
            let num_vars = r.u64()?;
            let packed = r.u8()? != 0;
            let keys = r.vec_u64()?;
            let values = r.vec_u16()?;
            let parent_node = r.vec_u32()?;
            let parent_cmd = r.vec_u32()?;
            let succ_off = r.vec_u32()?;
            let succ_cmd = r.vec_u32()?;
            let succ_node = r.vec_u32()?;
            let init_count = r.u32()?;
            let levels = r.u32()?;
            let peak_level = r.u64()?;
            let stats = [r.u64()?, r.u64()?, r.u64()?];
            r.finish()?;
            Ok(ReachGraphData {
                num_vars,
                packed,
                keys,
                values,
                parent_node,
                parent_cmd,
                succ_off,
                succ_cmd,
                succ_node,
                init_count,
                levels,
                peak_level,
                stats,
            })
        };
        run().map_err(|e| format!("graph payload: {e}"))
    }
}

impl ReachGraph {
    /// Serializes this graph into its plain-data image.
    pub fn to_data(&self) -> ReachGraphData {
        let (packed, keys, values) = match &self.arena {
            StateArena::Packed { keys, .. } => (true, keys.clone(), Vec::new()),
            StateArena::Wide { values, .. } => (false, Vec::new(), values.clone()),
        };
        ReachGraphData {
            num_vars: self.num_vars as u64,
            packed,
            keys,
            values,
            parent_node: self.parent_node.clone(),
            parent_cmd: self.parent_cmd.clone(),
            succ_off: self.succ_off.clone(),
            succ_cmd: self.succ_cmd.clone(),
            succ_node: self.succ_node.clone(),
            init_count: self.init_count,
            levels: self.levels,
            peak_level: self.peak_level,
            stats: [
                self.stats.states,
                self.stats.transitions,
                self.stats.peak_queue,
            ],
        }
    }

    /// Reconstructs a graph from a stored image against a freshly
    /// compiled `model`, re-deriving the pack layout from the live
    /// domains and validating every node, edge, and command index before
    /// anything downstream can read it.
    ///
    /// # Errors
    ///
    /// A description of the first inconsistency between the image and
    /// the model (the caller treats any error as a cold miss, never as
    /// an answer).
    pub fn from_data(model: &CompiledModel, data: &ReachGraphData) -> Result<ReachGraph, String> {
        if data.num_vars as usize != model.num_vars() {
            return Err(format!(
                "variable count mismatch: stored {}, model has {}",
                data.num_vars,
                model.num_vars()
            ));
        }
        let domain_sizes: Vec<usize> = model.vars.iter().map(|v| v.domain.len()).collect();
        let arena = if data.packed {
            if !data.values.is_empty() {
                return Err("packed graph carries a wide arena".to_string());
            }
            let layout = PackLayout::for_domains(&domain_sizes).ok_or_else(|| {
                "stored graph is packed but the model does not fit 64 bits".to_string()
            })?;
            StateArena::Packed {
                layout,
                keys: data.keys.clone(),
            }
        } else {
            if !data.keys.is_empty() {
                return Err("wide graph carries packed keys".to_string());
            }
            if model.num_vars() > 0 && !data.values.len().is_multiple_of(model.num_vars()) {
                return Err(format!(
                    "wide arena length {} is not a multiple of {} variables",
                    data.values.len(),
                    model.num_vars()
                ));
            }
            StateArena::Wide {
                num_vars: model.num_vars(),
                values: data.values.clone(),
            }
        };
        let n = arena.len();
        let edges = data.succ_node.len();
        if data.parent_node.len() != n || data.parent_cmd.len() != n {
            return Err(format!(
                "parent arrays sized {}/{} for {n} nodes",
                data.parent_node.len(),
                data.parent_cmd.len()
            ));
        }
        if data.succ_off.len() != n + 1 || data.succ_cmd.len() != edges {
            return Err(format!(
                "CSR shape mismatch: {} offsets, {} commands, {edges} targets for {n} nodes",
                data.succ_off.len(),
                data.succ_cmd.len()
            ));
        }
        if data.succ_off.first().copied().unwrap_or(0) != 0
            || data.succ_off.last().copied().unwrap_or(0) as usize != edges
            || data.succ_off.windows(2).any(|w| w[0] > w[1])
        {
            return Err("successor offsets are not a monotone CSR".to_string());
        }
        if data.init_count as usize > n {
            return Err(format!(
                "{} initial states among {n} nodes",
                data.init_count
            ));
        }
        let cmds = model.command_count() as u32;
        if data.succ_node.iter().any(|&v| v as usize >= n)
            || data.succ_cmd.iter().any(|&c| c != STUTTER_CMD && c >= cmds)
        {
            return Err("edge references an out-of-range node or command".to_string());
        }
        // BFS interns a parent before its children, so exactly the
        // initial states lack a parent and every other node's parent is
        // an earlier node. Anything else — a cycle in particular — would
        // send trace reconstruction round the loop forever.
        for (id, (&p, &c)) in data.parent_node.iter().zip(&data.parent_cmd).enumerate() {
            if id < data.init_count as usize {
                if p != NO_PARENT {
                    return Err(format!("initial state {id} has BFS parent {p}"));
                }
            } else if p as usize >= id {
                return Err(format!("node {id} has BFS parent {p}, not an earlier node"));
            } else if c != STUTTER_CMD && c >= cmds {
                return Err(format!("node {id} is reached by out-of-range command {c}"));
            }
        }
        // Every stored state must decode to in-domain value indices, or
        // trace rendering would index past a domain table.
        let mut scratch = vec![0u16; model.num_vars()];
        for id in 0..n {
            arena.load(id as u32, &mut scratch);
            for (i, &v) in scratch.iter().enumerate() {
                if v as usize >= domain_sizes[i].max(1) {
                    return Err(format!(
                        "node {id} holds out-of-domain value {v} for variable {i}"
                    ));
                }
            }
        }
        Ok(ReachGraph {
            num_vars: model.num_vars(),
            arena,
            parent_node: data.parent_node.clone(),
            parent_cmd: data.parent_cmd.clone(),
            succ_off: data.succ_off.clone(),
            succ_cmd: data.succ_cmd.clone(),
            succ_node: data.succ_node.clone(),
            init_count: data.init_count,
            levels: data.levels,
            peak_level: data.peak_level,
            stats: CheckStats {
                states: data.stats[0],
                transitions: data.stats[1],
                peak_queue: data.stats[2],
            },
        })
    }
}

fn absorb_expr(h: &mut StableHasher, e: &CExpr) {
    match e {
        CExpr::True => h.write_u8(0),
        CExpr::False => h.write_u8(1),
        CExpr::Eq(v, x) => {
            h.write_u8(2);
            h.write_u32(v.index() as u32);
            h.write_u16(x.index() as u16);
        }
        CExpr::Ne(v, x) => {
            h.write_u8(3);
            h.write_u32(v.index() as u32);
            h.write_u16(x.index() as u16);
        }
        CExpr::In(v, xs) => {
            h.write_u8(4);
            h.write_u32(v.index() as u32);
            h.write_u64(xs.len() as u64);
            for x in xs {
                h.write_u16(x.index() as u16);
            }
        }
        CExpr::And(xs) => {
            h.write_u8(5);
            h.write_u64(xs.len() as u64);
            for x in xs {
                absorb_expr(h, x);
            }
        }
        CExpr::Or(xs) => {
            h.write_u8(6);
            h.write_u64(xs.len() as u64);
            for x in xs {
                absorb_expr(h, x);
            }
        }
        CExpr::Not(x) => {
            h.write_u8(7);
            absorb_expr(h, x);
        }
    }
}

/// Stable 128-bit fingerprint of a compiled model: variable names,
/// domains, and initial values as resolved strings, then guards,
/// updates, and fairness structurally (dense indices are admissible —
/// they index the tables just absorbed; see the module docs). Two
/// processes compiling the same composed threat model produce the same
/// fingerprint; any change to the model — a different FSM, threat
/// configuration, or cone-of-influence slice — changes it.
pub fn model_fingerprint(model: &CompiledModel) -> Fingerprint {
    fingerprint_with_labels(model, "compiled-model-v1", |label| (label, ""))
}

/// [`model_fingerprint`] with command labels hashed *without* their
/// trailing `#<uniq>` disambiguation suffix.
///
/// Threat-model construction numbers commands sequentially across the
/// whole build, so inserting one command shifts the suffix of every
/// later label even when the later commands are otherwise untouched.
/// The suffix carries no semantics — guards, updates, and the CEGAR
/// loop's label *prefix* parsing decide every verdict — so two models
/// equal under this fingerprint check identically: same exploration,
/// same verdict, same iteration/refinement/query counts. Only the
/// user-visible trace strings can differ (they quote full labels),
/// which is why verdict reuse of trace-bearing outcomes is additionally
/// gated on the exact [`model_fingerprint`].
pub fn model_semantic_fingerprint(model: &CompiledModel) -> Fingerprint {
    fingerprint_with_labels(model, "compiled-model-semantic-v1", |label| {
        match label.rsplit_once('#') {
            Some((prefix, suffix))
                if !suffix.is_empty() && suffix.bytes().all(|b| b.is_ascii_digit()) =>
            {
                (prefix, "#")
            }
            _ => (label, ""),
        }
    })
}

/// Shared body of the two fingerprints: `project` maps each command
/// label to the `(text, marker)` pair actually absorbed — the marker
/// keeps a stripped label from colliding with a raw label that happens
/// to equal the stripped form.
fn fingerprint_with_labels(
    model: &CompiledModel,
    domain_tag: &str,
    project: impl Fn(&str) -> (&str, &'static str),
) -> Fingerprint {
    let mut h = StableHasher::with_domain(domain_tag);
    h.write_u64(model.vars.len() as u64);
    for v in &model.vars {
        h.write_str(v.name.as_str());
        h.write_u64(v.domain.len() as u64);
        for d in &v.domain {
            h.write_str(d.as_str());
        }
        h.write_u64(v.init.len() as u64);
        for i in &v.init {
            h.write_u16(i.index() as u16);
        }
    }
    h.write_u64(model.commands.len() as u64);
    for c in &model.commands {
        let (text, marker) = project(c.label.as_str());
        h.write_str(text);
        h.write_str(marker);
        absorb_expr(&mut h, &c.guard);
        h.write_u64(c.updates.len() as u64);
        for (var, val) in &c.updates {
            h.write_u32(var.index() as u32);
            h.write_u16(val.index() as u16);
        }
    }
    h.write_u64(model.fairness.len() as u64);
    for f in &model.fairness {
        absorb_expr(&mut h, f);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::BudgetMeter;
    use crate::checker::{build_reach_graph_budgeted, check_on_graph, CheckError, Property};
    use crate::expr::Expr;
    use crate::model::{GuardedCmd, Model};

    /// Compiles and explores `m`, unbudgeted.
    fn explore(m: &Model, limit: usize) -> Result<ReachGraph, CheckError> {
        let c = CompiledModel::new(m)?;
        build_reach_graph_budgeted(
            &c,
            limit,
            &BudgetMeter::unlimited(),
            &mut CheckStats::default(),
            1,
        )
    }

    fn toggle_model() -> Model {
        let mut m = Model::new("toggle");
        m.declare_var("light", &["off", "on"], &["off"]);
        m.declare_var("count", &["zero", "one", "two"], &["zero"]);
        m.add_command(
            GuardedCmd::new("switch_on", Expr::var_eq("light", "off"))
                .set("light", "on")
                .set("count", "one"),
        );
        m.add_command(
            GuardedCmd::new("switch_off", Expr::var_eq("light", "on")).set("light", "off"),
        );
        m
    }

    #[test]
    fn graph_roundtrips_and_answers_identically() {
        let m = toggle_model();
        let compiled = CompiledModel::new(&m).unwrap();
        let graph = explore(&m, 1000).unwrap();
        let data = graph.to_data();
        let bytes = data.encode();
        let decoded = ReachGraphData::decode(&bytes).unwrap();
        assert_eq!(decoded, data);
        let restored = ReachGraph::from_data(&compiled, &decoded).unwrap();
        assert_eq!(restored.node_count(), graph.node_count());
        assert_eq!(restored.edge_count(), graph.edge_count());
        assert_eq!(restored.build_stats(), graph.build_stats());
        for id in 0..graph.node_count() as u32 {
            assert_eq!(restored.state_of(id), graph.state_of(id));
            assert_eq!(
                restored.successors(id).collect::<Vec<_>>(),
                graph.successors(id).collect::<Vec<_>>()
            );
        }
        // Checking on the restored graph matches the live one verbatim.
        let p = compiled
            .compile_property(&Property::reachable("on", Expr::var_eq("light", "on")))
            .unwrap();
        let excluded = compiled.exclusion_set();
        let mut live_stats = crate::checker::QueryStats::default();
        let mut warm_stats = crate::checker::QueryStats::default();
        let meter = BudgetMeter::unlimited();
        let live = check_on_graph(
            &compiled,
            &graph,
            &p,
            &excluded,
            1000,
            &meter,
            &mut live_stats,
        )
        .unwrap();
        let warm = check_on_graph(
            &compiled,
            &restored,
            &p,
            &excluded,
            1000,
            &meter,
            &mut warm_stats,
        )
        .unwrap();
        assert_eq!(format!("{live:?}"), format!("{warm:?}"));
        assert_eq!(live_stats, warm_stats);
    }

    #[test]
    fn from_data_rejects_mismatched_model() {
        let m = toggle_model();
        let graph = explore(&m, 1000).unwrap();
        let mut other = Model::new("other");
        other.declare_var("light", &["off", "on"], &["off"]);
        let other_compiled = CompiledModel::new(&other).unwrap();
        let err = ReachGraph::from_data(&other_compiled, &graph.to_data());
        assert!(err.is_err(), "one-variable model must reject two-var graph");
    }

    #[test]
    fn from_data_rejects_corrupt_indices() {
        let m = toggle_model();
        let compiled = CompiledModel::new(&m).unwrap();
        let graph = explore(&m, 1000).unwrap();
        let data = graph.to_data();

        let mut bad = data.clone();
        bad.succ_node[0] = 10_000;
        assert!(ReachGraph::from_data(&compiled, &bad).is_err());

        let mut bad = data.clone();
        bad.succ_off[1] = u32::MAX;
        assert!(ReachGraph::from_data(&compiled, &bad).is_err());

        let mut bad = data.clone();
        bad.init_count = u32::MAX;
        assert!(ReachGraph::from_data(&compiled, &bad).is_err());

        let mut bad = data.clone();
        bad.parent_node.pop();
        assert!(ReachGraph::from_data(&compiled, &bad).is_err());

        // Parent pointers must run from the roots to strictly earlier
        // nodes: no cycle, no parent on a root, no orphan.
        assert_eq!(data.parent_node, [NO_PARENT, 0, 1]);
        let mut bad = data.clone();
        bad.parent_node[1] = 2;
        assert!(
            ReachGraph::from_data(&compiled, &bad).is_err(),
            "parent cycle"
        );
        let mut bad = data.clone();
        bad.parent_node[0] = 1;
        assert!(
            ReachGraph::from_data(&compiled, &bad).is_err(),
            "root with a parent"
        );
        let mut bad = data.clone();
        bad.parent_node[2] = NO_PARENT;
        assert!(
            ReachGraph::from_data(&compiled, &bad).is_err(),
            "non-root orphan"
        );

        if !data.keys.is_empty() {
            let mut bad = data;
            // An all-ones packed key decodes to out-of-domain values.
            *bad.keys.last_mut().unwrap() = u64::MAX;
            assert!(ReachGraph::from_data(&compiled, &bad).is_err());
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let m = toggle_model();
        let graph = explore(&m, 1000).unwrap();
        let bytes = graph.to_data().encode();
        for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(ReachGraphData::decode(&bytes[..cut]).is_err());
        }
        let mut long = bytes;
        long.push(0);
        assert!(ReachGraphData::decode(&long).is_err());
    }

    #[test]
    fn fingerprint_tracks_model_content() {
        let base = CompiledModel::new(&toggle_model()).unwrap();
        let again = CompiledModel::new(&toggle_model()).unwrap();
        assert_eq!(model_fingerprint(&base), model_fingerprint(&again));

        // Renaming a domain value changes the fingerprint even though
        // every dense index stays identical.
        let mut renamed = Model::new("toggle");
        renamed.declare_var("light", &["off", "dim"], &["off"]);
        renamed.declare_var("count", &["zero", "one", "two"], &["zero"]);
        renamed.add_command(
            GuardedCmd::new("switch_on", Expr::var_eq("light", "off"))
                .set("light", "dim")
                .set("count", "one"),
        );
        renamed.add_command(
            GuardedCmd::new("switch_off", Expr::var_eq("light", "dim")).set("light", "off"),
        );
        let renamed = CompiledModel::new(&renamed).unwrap();
        assert_ne!(model_fingerprint(&base), model_fingerprint(&renamed));

        // A guard change alone changes it too.
        let mut guard = toggle_model();
        guard.add_command(GuardedCmd::new("noop", Expr::var_eq("count", "two")));
        let guard = CompiledModel::new(&guard).unwrap();
        assert_ne!(model_fingerprint(&base), model_fingerprint(&guard));
    }

    /// The semantic fingerprint ignores `#<uniq>` label suffixes and
    /// nothing else.
    #[test]
    fn semantic_fingerprint_strips_uniq_suffixes_only() {
        let labeled = |a: &str, b: &str| {
            let mut m = Model::new("t");
            m.declare_var("light", &["off", "on"], &["off"]);
            m.add_command(GuardedCmd::new(a, Expr::var_eq("light", "off")).set("light", "on"));
            m.add_command(GuardedCmd::new(b, Expr::var_eq("light", "on")).set("light", "off"));
            CompiledModel::new(&m).unwrap()
        };
        let base = labeled("ue:recv:x:legit:-#0", "mme:recv:y:legit:-#1");
        let shifted = labeled("ue:recv:x:legit:-#7", "mme:recv:y:legit:-#8");
        assert_ne!(model_fingerprint(&base), model_fingerprint(&shifted));
        assert_eq!(
            model_semantic_fingerprint(&base),
            model_semantic_fingerprint(&shifted)
        );
        // A prefix change is semantic and must still be caught.
        let other = labeled("ue:recv:z:legit:-#0", "mme:recv:y:legit:-#1");
        assert_ne!(
            model_semantic_fingerprint(&base),
            model_semantic_fingerprint(&other)
        );
        // A non-numeric suffix is part of the label, not a uniq counter.
        let odd = labeled("ue:recv:x:legit:-#zz", "mme:recv:y:legit:-#1");
        assert_ne!(
            model_semantic_fingerprint(&base),
            model_semantic_fingerprint(&odd)
        );
        // Stripping never collides with a raw label equal to the prefix.
        let raw = labeled("ue:recv:x:legit:-", "mme:recv:y:legit:-#1");
        assert_ne!(
            model_semantic_fingerprint(&base),
            model_semantic_fingerprint(&raw)
        );
    }
}
