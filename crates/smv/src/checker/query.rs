//! The evaluate phase: properties answered as queries over a cached
//! graph — scans in id order, early-exit searches of the graph's
//! adjacency, and the response product with its first fair cycle.

use super::compile::{State, Value};
use super::explore::Pacer;
use super::{
    lower_guard, CExpr, CProp, CheckError, CompiledModel, CompiledProperty, QueryStats, Verdict,
};
use crate::budget::BudgetMeter;
use crate::reach::{ReachGraph, NO_PARENT, STUTTER_CMD};
use crate::trace::{Counterexample, TraceStep};
use procheck_ident::{CmdId, CmdIdSet};
use std::collections::{HashMap, VecDeque};

/// What a query that interned `nodes` states cost.
fn query_stats(nodes: usize, transitions: u64, peak_queue: u64) -> QueryStats {
    QueryStats {
        nodes_reused: nodes as u64,
        product_states: nodes as u64,
        transitions,
        peak_queue,
    }
}

/// One property query over a cached graph: the compiled model, its
/// graph, the CEGAR mask (`None` when it is empty), and the state limit
/// and budget meter that pace every search the query runs.
struct Query<'a> {
    c: &'a CompiledModel,
    g: &'a ReachGraph,
    excluded: Option<&'a CmdIdSet>,
    limit: usize,
    meter: &'a BudgetMeter,
}

/// [`GraphSearch::index`] entry of a graph node not seen yet.
const UNSEEN: u32 = u32::MAX;

/// [`GraphSearch::index`] entry of a graph node seen and not allowed.
const BLOCKED: u32 = u32::MAX - 1;

/// The nodes one [`Query::search_graph`] has interned, with their BFS
/// parents, and what the search has cost.
struct GraphSearch {
    /// Graph node → search id, or [`UNSEEN`] / [`BLOCKED`].
    index: Vec<u32>,
    /// Search id → graph node, in intern (BFS) order.
    nodes: Vec<u32>,
    parent_node: Vec<u32>,
    parent_cmd: Vec<u32>,
    transitions: u64,
    peak_queue: u64,
}

impl GraphSearch {
    /// Interns graph node `gid` unless it is interned already or
    /// `allowed` rejects its key; true when it is fresh and `target`
    /// matches it.
    fn visit(
        &mut self,
        g: &ReachGraph,
        gid: u32,
        parent: (u32, u32),
        allowed: &impl Fn(u64) -> bool,
        target: &impl Fn(u64) -> bool,
    ) -> bool {
        let slot = &mut self.index[gid as usize];
        if *slot != UNSEEN {
            return false;
        }
        let key = g.keys[gid as usize];
        if !allowed(key) {
            *slot = BLOCKED;
            return false;
        }
        *slot = self.nodes.len() as u32;
        self.nodes.push(gid);
        self.parent_node.push(parent.0);
        self.parent_cmd.push(parent.1);
        target(key)
    }

    /// Runs the search to its first target (its search id) or to its
    /// end (`None`).
    fn run(
        &mut self,
        q: &Query<'_>,
        allowed: &impl Fn(u64) -> bool,
        target: &impl Fn(u64) -> bool,
    ) -> Result<Option<u32>, CheckError> {
        let g = q.g;
        let mut hit = (0..g.init_count())
            .any(|gid| self.visit(g, gid, (NO_PARENT, NO_PARENT), allowed, target))
            .then(|| self.nodes.len() as u32 - 1);
        self.peak_queue = self.nodes.len() as u64;
        let mut pacer = Pacer::new(q.limit);
        let mut next = 0usize;
        while hit.is_none() && next < self.nodes.len() {
            pacer.before_pop(next, self.nodes.len(), q.meter)?;
            let pid = next as u32;
            next += 1;
            let gid = self.nodes[pid as usize];
            let mut fired = 0u64;
            for (cmd, succ) in g.successors(gid) {
                if q.masked(cmd) {
                    continue;
                }
                fired += 1;
                if self.visit(g, succ, (pid, cmd), allowed, target) {
                    hit = Some(self.nodes.len() as u32 - 1);
                    break;
                }
            }
            // A node whose every outgoing command is excluded stutters
            // back to itself in the filtered model: one more edge, to a
            // node interned already.
            self.transitions += fired.max(1);
            self.peak_queue = self.peak_queue.max((self.nodes.len() - next) as u64);
        }
        pacer.charge_tail(self.nodes.len(), q.meter);
        Ok(hit)
    }
}

/// The product of a cached graph with a response property's obligation
/// monitor. Ephemeral: built per query, in the same BFS order a direct
/// product exploration of the (possibly command-filtered) model would
/// use, so lasso traces are bit-identical to the single-pass checker's.
struct ProductGraph {
    /// Interned (graph node, obligation pending) pairs, in BFS order.
    nodes: Vec<(u32, bool)>,
    /// BFS parent product id, [`NO_PARENT`] for roots.
    parent_node: Vec<u32>,
    /// Command index of the edge from the BFS parent.
    parent_cmd: Vec<u32>,
    /// Node `pid`'s edges are `edges[edge_off[pid]..edge_off[pid + 1]]`.
    edge_off: Vec<u32>,
    /// `(command index, product id)` edges out of pending nodes, the only
    /// ones a fair cycle uses, in pop order.
    edges: Vec<(u32, u32)>,
    transitions: u64,
    peak_queue: u64,
}

impl ProductGraph {
    /// The edges out of `pid`: all of them if its obligation is pending,
    /// none otherwise.
    fn out(&self, pid: u32) -> &[(u32, u32)] {
        let lo = self.edge_off[pid as usize] as usize;
        let hi = self.edge_off[pid as usize + 1] as usize;
        &self.edges[lo..hi]
    }

    /// Whether `pid` carries an undischarged obligation.
    fn pending(&self, pid: u32) -> bool {
        self.nodes[pid as usize].1
    }

    /// Interns `(gid, flag)`. `index` is dense over the pairs: entry
    /// `2 * gid + flag` holds the product id, `u32::MAX` while unseen.
    fn intern(&mut self, index: &mut [u32], gid: u32, flag: bool, parent: (u32, u32)) -> u32 {
        let slot = &mut index[2 * gid as usize + usize::from(flag)];
        if *slot != u32::MAX {
            return *slot;
        }
        let id = self.nodes.len() as u32;
        *slot = id;
        self.nodes.push((gid, flag));
        self.parent_node.push(parent.0);
        self.parent_cmd.push(parent.1);
        id
    }

    /// Runs the product BFS to its end; `step(pending, gid)` is the
    /// obligation on entering graph node `gid`.
    fn run(&mut self, q: &Query<'_>, step: impl Fn(bool, u32) -> bool) -> Result<(), CheckError> {
        let g = q.g;
        let mut index = vec![u32::MAX; 2 * g.node_count()];
        for gid in 0..g.init_count() {
            self.intern(&mut index, gid, step(false, gid), (NO_PARENT, NO_PARENT));
        }
        self.peak_queue = self.nodes.len() as u64;
        let mut pacer = Pacer::new(q.limit);
        let mut next = 0usize;
        while next < self.nodes.len() {
            pacer.before_pop(next, self.nodes.len(), q.meter)?;
            let pid = next as u32;
            next += 1;
            let (gid, pending) = self.nodes[pid as usize];
            let mut fired = 0u64;
            for (cmd, succ) in g.successors(gid) {
                if q.masked(cmd) {
                    continue;
                }
                fired += 1;
                let sid = self.intern(&mut index, succ, step(pending, succ), (pid, cmd));
                if pending {
                    self.edges.push((cmd, sid));
                }
            }
            if fired == 0 {
                // Every outgoing command is excluded: the refined model
                // deadlocks here and stutters, exactly as a fresh
                // exploration of the command-filtered model would.
                let sid = self.intern(&mut index, gid, step(pending, gid), (pid, STUTTER_CMD));
                if pending {
                    self.edges.push((STUTTER_CMD, sid));
                }
            }
            self.transitions += fired.max(1);
            self.edge_off.push(self.edges.len() as u32);
            self.peak_queue = self.peak_queue.max((self.nodes.len() - next) as u64);
        }
        pacer.charge_tail(self.nodes.len(), q.meter);
        Ok(())
    }
}

impl Query<'_> {
    /// Whether the CEGAR mask removes the edge fired by `cmd`. The
    /// deadlock stutter is never masked.
    fn masked(&self, cmd: u32) -> bool {
        cmd != STUTTER_CMD
            && self
                .excluded
                .is_some_and(|mask| mask.contains(CmdId::new(cmd as usize)))
    }

    /// Breadth-first search of the graph's own adjacency with the masked
    /// commands removed, through `allowed` nodes only, that stops at the
    /// first node it interns whose key satisfies `target` and returns
    /// that node's BFS path.
    ///
    /// The search interns the initial nodes in id order and expands each
    /// node's unmasked edges in CSR order. With every node allowed, as for
    /// masked invariants and goals, it interns the command-filtered model's
    /// nodes in the order, and with the parents, a fresh exploration of
    /// that model would, so its first target is the one that exploration
    /// reaches first. A node whose every command is masked stutters back to
    /// itself, as the filtered model would. A precedence allows the nodes
    /// where its prerequisite does not hold: the product's "prerequisite
    /// seen" flag never turns off, so a flag-off product node only ever has
    /// a flag-off parent, and the flag-off half of the product is this
    /// search, node for node.
    ///
    /// `stats` counts the nodes the search interned, on every path. The
    /// search is paced like the explorer ([`Pacer`]), so a target
    /// interned before the state limit or the budget trips is an answer.
    ///
    /// # Errors
    ///
    /// [`CheckError::StateLimit`] past the limit;
    /// [`CheckError::Budget`] when the meter trips.
    fn search_graph(
        &self,
        allowed: impl Fn(u64) -> bool,
        target: impl Fn(u64) -> bool,
        stats: &mut QueryStats,
    ) -> Result<Option<Counterexample>, CheckError> {
        let mut s = GraphSearch {
            index: vec![UNSEEN; self.g.node_count()],
            nodes: Vec::new(),
            parent_node: Vec::new(),
            parent_cmd: Vec::new(),
            transitions: 0,
            peak_queue: 0,
        };
        let hit = s.run(self, &allowed, &target);
        stats.absorb(query_stats(s.nodes.len(), s.transitions, s.peak_queue));
        Ok(hit?.map(|id| Counterexample {
            steps: rebuild_path(
                self.c,
                |id, out| self.g.load_state(s.nodes[id as usize], out),
                &s.parent_node,
                &s.parent_cmd,
                id,
            ),
            lasso_start: None,
        }))
    }

    /// BFS over the cached adjacency carrying the response monitor, whose
    /// obligation is pending in a state that triggers without responding
    /// and stays pending until a state responds: pending' = (pending ∨
    /// trigger(s')) ∧ ¬response(s'). `trigger` and `response` are the
    /// predicates' values per graph node. A node whose outgoing commands
    /// are all masked gets the stutter self-loop the filtered model would
    /// have.
    fn product_bfs(
        &self,
        trigger: &[bool],
        response: &[bool],
        stats: &mut QueryStats,
    ) -> Result<ProductGraph, CheckError> {
        let cap = self.g.node_count().max(1);
        let mut pg = ProductGraph {
            nodes: Vec::with_capacity(cap),
            parent_node: Vec::with_capacity(cap),
            parent_cmd: Vec::with_capacity(cap),
            edge_off: Vec::with_capacity(cap + 1),
            edges: Vec::new(),
            transitions: 0,
            peak_queue: 0,
        };
        pg.edge_off.push(0);
        let explored = pg.run(self, |pending, gid| {
            (pending || trigger[gid as usize]) && !response[gid as usize]
        });
        stats.absorb(query_stats(pg.nodes.len(), pg.transitions, pg.peak_queue));
        explored.map(|()| pg)
    }

    /// A response query: the product BFS, then the first fair cycle of
    /// pending states, returned as a lasso.
    fn response(
        &self,
        trigger: &CExpr,
        response: &CExpr,
        stats: &mut QueryStats,
    ) -> Result<Verdict, CheckError> {
        let (c, g) = (self.c, self.g);
        let pg = self.product_bfs(&eval_nodes(g, trigger), &eval_nodes(g, response), stats)?;
        // Fairness constraints were compiled with the model — evaluating
        // them here touches no string table.
        let fairness: Vec<Vec<bool>> = c.fairness.iter().map(|f| eval_nodes(g, f)).collect();
        // A fair cycle of pending nodes: a cyclic SCC in which every
        // fairness constraint holds on some member.
        let fair = |scc: &[u32]| {
            scc_has_cycle(&pg, scc)
                && fairness.iter().all(|f_at| {
                    scc.iter()
                        .any(|&pid| f_at[pg.nodes[pid as usize].0 as usize])
                })
        };
        let Some(scc) = first_pending_scc(&pg, fair) else {
            return Ok(Verdict::Holds);
        };
        let entry = scc[0];
        let prefix = rebuild_path(
            c,
            |pid, out| g.load_state(pg.nodes[pid as usize].0, out),
            &pg.parent_node,
            &pg.parent_cmd,
            entry,
        );
        let cycle = build_fair_cycle(c, g, &pg, &scc, entry, &fairness);
        let lasso_start = prefix.len() - 1;
        let mut steps = prefix;
        steps.extend(cycle);
        Ok(Verdict::Violated(Counterexample {
            steps,
            lasso_start: Some(lasso_start),
        }))
    }
}

/// A compiled expression's value in every graph node, in id order: the
/// expression is lowered once and read straight off the keys.
fn node_values<'a>(g: &'a ReachGraph, e: &CExpr) -> impl Iterator<Item = bool> + 'a {
    let guard = lower_guard(e, &g.layout);
    g.keys.iter().map(move |&key| guard.eval(key))
}

/// Evaluates a compiled expression in every graph node, in id order.
pub(super) fn eval_nodes(g: &ReachGraph, e: &CExpr) -> Vec<bool> {
    node_values(g, e).collect()
}

/// Rebuilds the BFS-shortest path to `target` from BFS parent arrays,
/// loading each node's state with `load`.
pub(super) fn rebuild_path(
    c: &CompiledModel,
    load: impl Fn(u32, &mut [Value]),
    parent_node: &[u32],
    parent_cmd: &[u32],
    target: u32,
) -> Vec<TraceStep> {
    let mut cur: State = vec![0; c.num_vars()];
    let mut rev = Vec::new();
    let mut id = target;
    loop {
        load(id, &mut cur);
        let parent = parent_node[id as usize];
        let label = if parent == NO_PARENT {
            "init".to_string()
        } else {
            c.label_of(parent_cmd[id as usize]).to_string()
        };
        rev.push(TraceStep {
            label,
            state: c.assignment(&cur),
        });
        if parent == NO_PARENT {
            break;
        }
        id = parent;
    }
    rev.reverse();
    rev
}

/// Scans graph nodes in BFS (id) order for the first state where `e`
/// evaluates to `bad`; the trace comes straight from the graph's parent
/// pointers.
pub(super) fn scan_graph(
    c: &CompiledModel,
    g: &ReachGraph,
    stats: &mut QueryStats,
    e: &CExpr,
    bad: bool,
) -> Option<Counterexample> {
    let hit = node_values(g, e).position(|v| v == bad);
    stats.nodes_reused += hit.map_or(g.node_count(), |id| id + 1) as u64;
    hit.map(|id| Counterexample {
        steps: rebuild_path(
            c,
            |id, out| g.load_state(id, out),
            &g.parent_node,
            &g.parent_cmd,
            id as u32,
        ),
        lasso_start: None,
    })
}

/// Answers a compiled property as a query over a cached graph.
///
/// `excluded` is the [`CmdId`] bitset mask of commands removed by CEGAR
/// refinement; the query behaves exactly as if those commands had been
/// deleted from the model and the state space re-explored (same
/// verdicts, same traces), but touches only the cached adjacency and
/// never resolves a name. `model` must be the compiled form of the model
/// the graph was built from.
///
/// Unmasked invariants and goals scan the graph in id order. Precedence,
/// and invariants and goals under a mask, search the graph's adjacency
/// breadth-first and stop at their first match. Response builds the
/// product with its obligation monitor and stops at the first fair cycle
/// of pending states. The states a search or product interns are
/// charged against `meter`, so a CEGAR re-query can exhaust the run's
/// budget just like a graph build can.
///
/// # Errors
///
/// Returns [`CheckError::InvalidModel`] on a model/graph shape mismatch;
/// [`CheckError::StateLimit`] if a search or product BFS exceeds `limit`
/// states before it answers; [`CheckError::Budget`] when the meter
/// trips.
pub fn check_on_graph(
    c: &CompiledModel,
    g: &ReachGraph,
    property: &CompiledProperty,
    excluded: &CmdIdSet,
    limit: usize,
    meter: &BudgetMeter,
    stats: &mut QueryStats,
) -> Result<Verdict, CheckError> {
    if c.num_vars() != g.num_vars() {
        return Err(CheckError::InvalidModel(vec![format!(
            "graph/model mismatch: graph has {} variables, model declares {}",
            g.num_vars(),
            c.num_vars()
        )]));
    }
    let q = Query {
        c,
        g,
        excluded: (!excluded.is_empty()).then_some(excluded),
        limit,
        meter,
    };
    // The first node, in the filtered model's BFS order, that matches
    // `e == hit`. No refinement: every graph node is reachable, so that
    // is a straight scan in id order.
    let first = |e: &CExpr, hit: bool, stats: &mut QueryStats| match q.excluded {
        None => Ok(scan_graph(c, g, stats, e, hit)),
        Some(_) => {
            let e = lower_guard(e, &g.layout);
            q.search_graph(|_| true, |key| e.eval(key) == hit, stats)
        }
    };
    match &property.kind {
        CProp::Invariant { holds } => {
            Ok(first(holds, false, stats)?.map_or(Verdict::Holds, Verdict::Violated))
        }
        CProp::Reachable { goal } => {
            Ok(first(goal, true, stats)?.map_or(Verdict::Unreachable, Verdict::Reachable))
        }
        CProp::Precedence {
            event,
            requires_before,
        } => {
            // Violation: the event in a state reached without the
            // prerequisite holding in it or any state before it.
            let event = lower_guard(event, &g.layout);
            let before = lower_guard(requires_before, &g.layout);
            let violation =
                q.search_graph(|key| !before.eval(key), |key| event.eval(key), stats)?;
            Ok(violation.map_or(Verdict::Holds, Verdict::Violated))
        }
        CProp::Response { trigger, response } => q.response(trigger, response, stats),
    }
}

// ---------------------------------------------------------------------------
// Cycle machinery on the product graph
// ---------------------------------------------------------------------------

/// Tarjan SCC over the pending nodes (iterative), started from each
/// pending node in id order: the first SCC it emits that `accept`
/// passes, or `None` once every SCC has failed it.
fn first_pending_scc(pg: &ProductGraph, accept: impl Fn(&[u32]) -> bool) -> Option<Vec<u32>> {
    let n = pg.nodes.len();
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;

    struct Frame {
        node: u32,
        edge: usize,
    }

    for start in 0..n as u32 {
        if !pg.pending(start) || index[start as usize] != u32::MAX {
            continue;
        }
        let mut call: Vec<Frame> = vec![Frame {
            node: start,
            edge: 0,
        }];
        index[start as usize] = next_index;
        low[start as usize] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start as usize] = true;

        while let Some(frame) = call.last_mut() {
            let u = frame.node;
            let edges = pg.out(u);
            if frame.edge < edges.len() {
                let (_, v) = edges[frame.edge];
                frame.edge += 1;
                if !pg.pending(v) {
                    continue;
                }
                if index[v as usize] == u32::MAX {
                    index[v as usize] = next_index;
                    low[v as usize] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v as usize] = true;
                    call.push(Frame { node: v, edge: 0 });
                } else if on_stack[v as usize] {
                    low[u as usize] = low[u as usize].min(index[v as usize]);
                }
            } else {
                call.pop();
                if let Some(parent) = call.last() {
                    let p = parent.node;
                    low[p as usize] = low[p as usize].min(low[u as usize]);
                }
                if low[u as usize] == index[u as usize] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        scc.push(w);
                        if w == u {
                            break;
                        }
                    }
                    if accept(&scc) {
                        return Some(scc);
                    }
                }
            }
        }
    }
    None
}

/// Whether an SCC of pending nodes holds a cycle: more than one member,
/// or a self-loop.
fn scc_has_cycle(pg: &ProductGraph, scc: &[u32]) -> bool {
    if scc.len() > 1 {
        return true;
    }
    let u = scc[0];
    pg.out(u).iter().any(|&(_, v)| v == u)
}

/// Builds a cycle within the SCC starting and ending at `entry`, visiting
/// a witness state for every fairness constraint (each constraint given
/// as its per-graph-node truth table).
fn build_fair_cycle(
    c: &CompiledModel,
    g: &ReachGraph,
    pg: &ProductGraph,
    scc: &[u32],
    entry: u32,
    fairness: &[Vec<bool>],
) -> Vec<TraceStep> {
    use std::collections::HashSet;
    let members: HashSet<u32> = scc.iter().copied().collect();
    let fair_at = |f_at: &[bool], pid: u32| f_at[pg.nodes[pid as usize].0 as usize];

    // BFS within the SCC from `from` to the first node satisfying `pred`,
    // returning the steps taken (labels + states), excluding `from`.
    let bfs = |from: u32, pred: &dyn Fn(u32) -> bool| -> Vec<(u32, u32)> {
        let mut prev: HashMap<u32, (u32, u32)> = HashMap::new();
        let mut queue = VecDeque::from([from]);
        let mut found = None;
        // Note: `from` itself only counts if it has a self-edge path; we
        // look for the first satisfying node reached by ≥1 edge.
        'outer: while let Some(u) = queue.pop_front() {
            for &(cmd, v) in pg.out(u) {
                if !members.contains(&v) {
                    continue;
                }
                if let std::collections::hash_map::Entry::Vacant(e) = prev.entry(v) {
                    e.insert((u, cmd));
                    if pred(v) {
                        found = Some(v);
                        break 'outer;
                    }
                    queue.push_back(v);
                }
            }
        }
        let Some(found) = found else {
            return Vec::new();
        };
        // Walk parent pointers back to `from`. The target may equal
        // `from` (a self-loop / cycle back to the start), so the walk is
        // do-while-shaped: always take at least one edge.
        let mut rev = Vec::new();
        let mut cur = found;
        loop {
            let (p, cmd) = prev[&cur];
            rev.push((cmd, cur));
            if p == from || rev.len() > pg.nodes.len() {
                break;
            }
            cur = p;
        }
        rev.reverse();
        rev
    };

    let mut pos = entry;
    let mut segments: Vec<(u32, u32)> = Vec::new();
    for f_at in fairness {
        if fair_at(f_at, pos) {
            continue; // already satisfied here
        }
        let seg = bfs(pos, &|pid| fair_at(f_at, pid));
        if let Some(&(_, last)) = seg.last() {
            pos = last;
        }
        segments.extend(seg);
    }
    // Close the loop back to entry.
    if pos != entry || segments.is_empty() {
        let seg = bfs(pos, &|pid| pid == entry);
        segments.extend(seg);
    }
    let mut cur: State = vec![0; g.num_vars()];
    segments
        .into_iter()
        .map(|(cmd, pid)| {
            g.load_state(pg.nodes[pid as usize].0, &mut cur);
            TraceStep {
                label: c.label_of(cmd).to_string(),
                state: c.assignment(&cur),
            }
        })
        .collect()
}
