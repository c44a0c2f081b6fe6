//! The explore phase: the packed explorer that builds a model's
//! reachability graph, and the [`Pacer`] through which every
//! breadth-first search of the engine decides when to stop or charge
//! the budget.

use super::compile::{State, Value};
use super::query::rebuild_path;
use super::{CExpr, CheckError, CheckStats, CompiledModel};
use crate::budget::{BudgetMeter, PROBE_STRIDE};
use crate::reach::{PackLayout, ReachGraph, NO_PARENT, STUTTER_CMD};
use crate::trace::TraceStep;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::mem;

/// Explores the compiled model's reachable state space once, by one
/// serial BFS over packed `u64` keys, and returns it as a
/// [`ReachGraph`] ready for any number of property queries. Exploration
/// cost is absorbed into `stats` — on the error paths too, so callers
/// see how far an aborted build got.
///
/// The live [`BudgetMeter`] is charged for freshly interned states every
/// [`PROBE_STRIDE`] pops, and exhaustion aborts this build without
/// touching any other work sharing the meter.
///
/// The last argument is a worker count that nothing reads. It stays in
/// the signature only because the repository benchmark (`benchmark/`)
/// passes it.
///
/// # Errors
///
/// [`CheckError::InvalidModel`] when a state of `model` needs more than
/// 64 bits, before anything is explored; [`CheckError::StateLimit`] past
/// `limit`; [`CheckError::Budget`] when the meter trips.
pub fn build_reach_graph_budgeted(
    model: &CompiledModel,
    limit: usize,
    meter: &BudgetMeter,
    stats: &mut CheckStats,
    _explore_threads: usize,
) -> Result<ReachGraph, CheckError> {
    let mut explorer = PackedExplorer::new(model, limit)?;
    let explored = explorer.advance(meter, |_| false);
    if explored.is_ok() {
        explorer.charge_tail(meter);
    }
    stats.absorb(explorer.stats());
    explored.map(|_| explorer.finish())
}

/// A guard lowered against a [`PackLayout`]: every atom carries its
/// variable's field mask precomputed, so evaluation on the raw packed
/// key is an AND plus a compare — no per-atom layout lookup, no unpack
/// into a scratch vector. Exploration lowers the guard conjuncts the
/// [`EnableTables`] cannot table; queries lower their predicates once and
/// evaluate them on every node's key.
pub(crate) enum PGuard {
    True,
    False,
    /// `key & mask == bits` — equality against one variable's field.
    EqBits {
        mask: u64,
        bits: u64,
    },
    /// `key & mask != bits`.
    NeBits {
        mask: u64,
        bits: u64,
    },
    /// Membership via a value bitset (fields up to 6 bits wide, so every
    /// domain index fits a `u64` bitset).
    InSmall {
        shift: u8,
        mask: u64,
        allowed: u64,
    },
    /// Membership fallback for fields wider than 6 bits.
    InWide {
        shift: u8,
        mask: u64,
        values: Vec<Value>,
    },
    And(Vec<PGuard>),
    Or(Vec<PGuard>),
    Not(Box<PGuard>),
}

impl PGuard {
    pub(crate) fn eval(&self, key: u64) -> bool {
        match self {
            PGuard::True => true,
            PGuard::False => false,
            PGuard::EqBits { mask, bits } => key & mask == *bits,
            PGuard::NeBits { mask, bits } => key & mask != *bits,
            PGuard::InSmall {
                shift,
                mask,
                allowed,
            } => (allowed >> ((key >> shift) & mask)) & 1 != 0,
            PGuard::InWide {
                shift,
                mask,
                values,
            } => values.contains(&(((key >> shift) & mask) as Value)),
            PGuard::And(xs) => xs.iter().all(|x| x.eval(key)),
            PGuard::Or(xs) => xs.iter().any(|x| x.eval(key)),
            PGuard::Not(x) => !x.eval(key),
        }
    }
}

pub(crate) fn lower_guard(e: &CExpr, l: &PackLayout) -> PGuard {
    match e {
        CExpr::True => PGuard::True,
        CExpr::False => PGuard::False,
        CExpr::Eq(v, x) => {
            let (shift, width) = l.field(v.index());
            let mask = if width == 0 {
                0
            } else {
                (u64::MAX >> (64 - u32::from(width))) << shift
            };
            let bits = u64::from(x.0) << shift;
            if bits & !mask != 0 {
                // The value does not fit the field: unrepresentable, so
                // no packed state can ever equal it.
                PGuard::False
            } else {
                PGuard::EqBits { mask, bits }
            }
        }
        CExpr::Ne(v, x) => match lower_guard(&CExpr::Eq(*v, *x), l) {
            PGuard::False => PGuard::True,
            PGuard::EqBits { mask, bits } => PGuard::NeBits { mask, bits },
            _ => unreachable!("Eq lowers to False or EqBits"),
        },
        CExpr::In(v, xs) => {
            let (shift, width) = l.field(v.index());
            let mask = if width == 0 {
                0
            } else {
                u64::MAX >> (64 - u32::from(width))
            };
            if width <= 6 {
                let mut allowed = 0u64;
                for x in xs {
                    if u64::from(x.0) <= mask {
                        allowed |= 1u64 << x.0;
                    }
                }
                PGuard::InSmall {
                    shift,
                    mask,
                    allowed,
                }
            } else {
                PGuard::InWide {
                    shift,
                    mask,
                    values: xs.iter().map(|x| x.0).collect(),
                }
            }
        }
        CExpr::And(xs) => PGuard::And(xs.iter().map(|x| lower_guard(x, l)).collect()),
        CExpr::Or(xs) => PGuard::Or(xs.iter().map(|x| lower_guard(x, l)).collect()),
        CExpr::Not(x) => PGuard::Not(Box::new(lower_guard(x, l))),
    }
}

/// A command's updates lowered against a [`PackLayout`]: firing it on a
/// packed state is one `(key & clear) | set`.
struct PackedCmd {
    clear: u64,
    set: u64,
}

/// The packed explorer's guard kernel: a state's enabled commands by
/// table lookup instead of per-command guard evaluation.
///
/// Every guard splits into its top-level conjuncts. A conjunct that
/// reads one variable becomes a column of that variable's table, whose
/// row `v` is the word of commands the conjunct admits when the variable
/// holds `v`; a conjunct that reads none folds into `base`. A state's
/// enabled word is then `base & row[f0][v0] & row[f1][v1] & …`, one AND
/// per tabled field and word. Conjuncts over several variables stay as
/// residual [`PGuard`]s, evaluated only for commands the tables leave
/// enabled, so any guard shape explores through the same kernel. Words
/// are `ceil(commands / 64)` wide: there is no command-count cap.
/// Singleton-domain variables occupy no key bits and always hold value
/// 0, so they never get a table and constant conjuncts see them as 0.
struct EnableTables {
    /// `u64` words per enabled-command word (two for the registry's
    /// threat models, which reach 123 commands).
    words: usize,
    /// Every command, minus those with a conjunct that is always false.
    base: Vec<u64>,
    /// Per tabled field: `(shift, value mask, offset of row 0 in rows)`.
    fields: Vec<(u8, u64, usize)>,
    /// Field `f`'s row for value `v` is `rows[offset + v * words..]`.
    rows: Vec<u64>,
    /// `(command, its multi-variable conjuncts)`, ascending by command.
    residual: Vec<(usize, PGuard)>,
}

/// `e`'s top-level conjuncts (nested `And`s flattened).
fn conjuncts<'a>(e: &'a CExpr, out: &mut Vec<&'a CExpr>) {
    match e {
        CExpr::And(xs) => xs.iter().for_each(|x| conjuncts(x, out)),
        _ => out.push(e),
    }
}

impl EnableTables {
    fn new(c: &CompiledModel, layout: &PackLayout) -> Self {
        let n = c.commands.len();
        let words = n.div_ceil(64);
        let mut base = vec![0u64; words];
        for i in 0..n {
            base[i / 64] |= 1 << (i % 64);
        }
        // Per variable: its rows, allocated when a conjunct first reads it.
        let mut tables: Vec<Vec<u64>> = vec![Vec::new(); c.num_vars()];
        let mut residual = Vec::new();
        // Conjuncts are tabled by evaluating them on a state that is 0
        // everywhere but the tabled variable.
        let mut state: State = vec![0; c.num_vars()];
        let mut parts = Vec::new();
        for (i, cmd) in c.commands.iter().enumerate() {
            let (w, bit) = (i / 64, 1u64 << (i % 64));
            parts.clear();
            conjuncts(&cmd.guard, &mut parts);
            let mut multi = Vec::new();
            for &e in &parts {
                let read = guard_read_mask(e, layout);
                if read == 0 {
                    if !e.eval(&state) {
                        base[w] &= !bit;
                    }
                } else if let Some(v) = (0..c.num_vars()).find(|&v| layout.field_mask(v) == read) {
                    let values = 1usize << layout.field(v).1;
                    let rows = &mut tables[v];
                    if rows.is_empty() {
                        *rows = vec![u64::MAX; values * words];
                    }
                    for x in 0..values {
                        state[v] = x as Value;
                        if !e.eval(&state) {
                            rows[x * words + w] &= !bit;
                        }
                    }
                    state[v] = 0;
                } else {
                    multi.push(lower_guard(e, layout));
                }
            }
            if !multi.is_empty() {
                residual.push((i, PGuard::And(multi)));
            }
        }
        let mut fields = Vec::new();
        let mut rows = Vec::new();
        for (v, table) in tables.into_iter().enumerate() {
            if !table.is_empty() {
                let (shift, width) = layout.field(v);
                fields.push((shift, (1u64 << width) - 1, rows.len()));
                rows.extend(table);
            }
        }
        EnableTables {
            words,
            base,
            fields,
            rows,
            residual,
        }
    }

    /// Writes the enabled-command word of `key` to `out`: the table rows
    /// of every field ANDed onto `base`, then residual conjuncts
    /// evaluated for the commands still enabled.
    #[inline]
    fn enabled(&self, key: u64, out: &mut [u64]) {
        out.copy_from_slice(&self.base);
        for &(shift, mask, offset) in &self.fields {
            let row = offset + ((key >> shift) & mask) as usize * self.words;
            for (o, r) in out.iter_mut().zip(&self.rows[row..row + self.words]) {
                *o &= r;
            }
        }
        for (i, guard) in &self.residual {
            let (w, bit) = (i / 64, 1u64 << (i % 64));
            if out[w] & bit != 0 && !guard.eval(key) {
                out[w] &= !bit;
            }
        }
    }
}

/// Union of the packed-key field masks a compiled guard reads. Singleton
/// (zero-width) fields contribute nothing: their value is constant, so
/// the enable tables fold a conjunct over them into `base`.
fn guard_read_mask(e: &CExpr, l: &PackLayout) -> u64 {
    match e {
        CExpr::True | CExpr::False => 0,
        CExpr::Eq(v, _) | CExpr::Ne(v, _) | CExpr::In(v, _) => l.field_mask(v.index()),
        CExpr::And(xs) | CExpr::Or(xs) => xs.iter().fold(0, |m, x| m | guard_read_mask(x, l)),
        CExpr::Not(x) => guard_read_mask(x, l),
    }
}

/// Calls `f` with the index of every set bit of a multi-word bitset, in
/// ascending order.
#[inline]
fn for_each_bit(word: &[u64], mut f: impl FnMut(usize)) {
    for (w, &bits) in word.iter().enumerate() {
        let mut m = bits;
        while m != 0 {
            f(w * 64 + m.trailing_zeros() as usize);
            m &= m - 1;
        }
    }
}

/// What the packed explorer builds once per graph: every command's
/// lowered updates and the enable tables.
struct PackedKernel {
    cmds: Vec<PackedCmd>,
    tables: EnableTables,
}

impl PackedKernel {
    fn new(c: &CompiledModel, layout: &PackLayout) -> Self {
        let cmds: Vec<PackedCmd> = c
            .commands
            .iter()
            .map(|cmd| {
                let updates: Vec<(usize, Value)> = cmd
                    .updates
                    .iter()
                    .map(|&(vi, value)| (vi.index(), value.0))
                    .collect();
                let (clear, set) = layout.update_masks(&updates);
                PackedCmd { clear, set }
            })
            .collect();
        PackedKernel {
            cmds,
            tables: EnableTables::new(c, layout),
        }
    }
}

/// Hasher for the packed-key index. `FxHasher` hashes a `u64` as
/// `key * SEED`, and the map takes the bucket index from the hash's low
/// bits — which depend only on the key's low bits, i.e. on the first
/// few packed fields, so states differing only in later fields pile
/// into few buckets. Rotating the product brings its high bits, which
/// every key bit reaches, down into the bucket bits.
#[derive(Default)]
pub(super) struct PackedKeyHasher(u64);

impl Hasher for PackedKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0xf135_7aea_2e62_a9c5).rotate_left(26);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Packed key → node id.
type PackedIndex = HashMap<u64, u32, BuildHasherDefault<PackedKeyHasher>>;

/// Interner for the packed exploration path: one `u64` key per state,
/// BFS parent info recorded on first sight.
struct PackedFrontier {
    layout: PackLayout,
    keys: Vec<u64>,
    index: PackedIndex,
    parent_node: Vec<u32>,
    parent_cmd: Vec<u32>,
}

impl PackedFrontier {
    fn with_capacity(layout: PackLayout, cap: usize) -> Self {
        PackedFrontier {
            layout,
            keys: Vec::with_capacity(cap),
            index: PackedIndex::with_capacity_and_hasher(cap, Default::default()),
            parent_node: Vec::with_capacity(cap),
            parent_cmd: Vec::with_capacity(cap),
        }
    }

    fn intern_key(&mut self, key: u64, parent: (u32, u32)) -> u32 {
        match self.index.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let id = self.keys.len() as u32;
                self.keys.push(key);
                e.insert(id);
                self.parent_node.push(parent.0);
                self.parent_cmd.push(parent.1);
                id
            }
        }
    }
}

/// When a breadth-first search stops or charges the budget. Before each
/// pop the state limit is tested, and every [`PROBE_STRIDE`] pops the
/// meter is charged for the states interned since the last probe and
/// probed; a tail charge that never fails settles the rest once the
/// search ends or pauses. The explorer, the graph search and the
/// response product all pop through one, so a search trips at the same
/// pop with the same partial stats whichever loop it is.
///
/// Whether to probe depends on the meter each call passes, not on the
/// pacer: a lazy graph's successive queries may pass different meters.
/// The charged-states watermark persists, so a resumed search charges
/// each state once.
pub(super) struct Pacer {
    limit: usize,
    /// Interned states already charged to a meter.
    charged: usize,
}

impl Pacer {
    #[inline]
    pub(super) fn new(limit: usize) -> Self {
        Pacer { limit, charged: 0 }
    }

    /// The checks before popping the node at queue position `next`, with
    /// `interned` states interned.
    ///
    /// # Errors
    ///
    /// [`CheckError::StateLimit`] past the limit; [`CheckError::Budget`]
    /// when the meter trips.
    #[inline]
    pub(super) fn before_pop(
        &mut self,
        next: usize,
        interned: usize,
        meter: &BudgetMeter,
    ) -> Result<(), CheckError> {
        if interned > self.limit {
            return Err(CheckError::StateLimit(self.limit));
        }
        if next.is_multiple_of(PROBE_STRIDE) && meter.is_limited() {
            let fresh = (interned - self.charged) as u64;
            self.charged = interned;
            meter.charge_and_probe(fresh).map_err(CheckError::Budget)?;
        }
        Ok(())
    }

    /// Charges the interned states the meter has not seen yet, without
    /// failing: work that completed (or paused) is never failed
    /// retroactively, but the next probe sharing the meter sees an
    /// accurate run total.
    #[inline]
    pub(super) fn charge_tail(&mut self, interned: usize, meter: &BudgetMeter) {
        if meter.is_limited() {
            let _ = meter.charge_and_probe((interned - self.charged) as u64);
            self.charged = interned;
        }
    }
}

/// The packed explorer: one serial BFS over packed `u64` keys, expanding
/// successors straight from the raw key. The enabled commands come from
/// the per-field [`EnableTables`] and updates apply as precomputed
/// `(clear, set)` masks, so nothing is unpacked and no guard is evaluated
/// per command.
///
/// The search is resumable. The struct holds the frontier, the CSR
/// arrays, the work counters, the pop cursor and the level bookkeeping,
/// and [`PackedExplorer::advance`] pops nodes until the BFS ends or a
/// pop interns a node its caller is looking for. [`build_reach_graph_budgeted`] advances
/// it to the end in one call; a [`crate::lazy::LazyGraph`] advances it
/// only as far as its queries need. Probe placement (state limit per
/// pop, budget every [`PROBE_STRIDE`] pops) does not depend on where the
/// search paused, so a BFS run to the end is node for node, edge for
/// edge and level for level the same graph, with the same partial stats
/// on the error paths.
pub(crate) struct PackedExplorer {
    kernel: PackedKernel,
    /// Scratch enabled-command word for the node being expanded.
    word: Vec<u64>,
    frontier: PackedFrontier,
    pacer: Pacer,
    init_count: u32,
    succ_off: Vec<u32>,
    succ_cmd: Vec<u32>,
    succ_node: Vec<u32>,
    transitions: u64,
    peak_queue: u64,
    /// The next node to pop: nodes below it are expanded, nodes from it
    /// on are the frontier (pop order equals intern order, so the queue
    /// is implicit and each node's CSR offsets seal as it is popped).
    next: usize,
    level_end: usize,
    levels: u32,
    peak_level: u64,
}

impl PackedExplorer {
    /// An explorer with the initial states interned and nothing popped.
    ///
    /// # Errors
    ///
    /// [`CheckError::InvalidModel`] when a state of `c` needs more than
    /// 64 bits; the message names the total and every variable's width.
    pub(crate) fn new(c: &CompiledModel, limit: usize) -> Result<Self, CheckError> {
        let layout = PackLayout::for_model(c)?;
        let cap = c.capacity_hint(limit);
        let kernel = PackedKernel::new(c, &layout);
        let word = vec![0u64; kernel.tables.words];
        let mut frontier = PackedFrontier::with_capacity(layout, cap);
        for s in c.initial_states() {
            let key = frontier.layout.pack(&s);
            frontier.intern_key(key, (NO_PARENT, NO_PARENT));
        }
        let init_count = frontier.keys.len() as u32;
        let mut succ_off = Vec::with_capacity(cap + 1);
        succ_off.push(0);
        Ok(PackedExplorer {
            kernel,
            word,
            frontier,
            pacer: Pacer::new(limit),
            init_count,
            succ_off,
            succ_cmd: Vec::new(),
            succ_node: Vec::new(),
            transitions: 0,
            peak_queue: u64::from(init_count),
            next: 0,
            level_end: 0,
            levels: 0,
            peak_level: 0,
        })
    }

    /// Pops nodes until the BFS ends (`None`), or until a pop interns a
    /// node whose key satisfies `found`, checked in id order: the id of
    /// the first such node.
    ///
    /// # Errors
    ///
    /// [`CheckError::StateLimit`] past the limit; [`CheckError::Budget`]
    /// when the meter trips. Either leaves the explorer as it was at the
    /// failing pop: every node interned before it stays readable.
    pub(crate) fn advance(
        &mut self,
        meter: &BudgetMeter,
        found: impl Fn(u64) -> bool,
    ) -> Result<Option<u32>, CheckError> {
        let f = &mut self.frontier;
        while self.next < f.keys.len() {
            if self.next == self.level_end {
                self.level_end = f.keys.len();
                self.levels += 1;
                self.peak_level = self.peak_level.max((self.level_end - self.next) as u64);
            }
            self.pacer.before_pop(self.next, f.keys.len(), meter)?;
            let id = self.next as u32;
            self.next += 1;
            let key = f.keys[id as usize];
            self.kernel.tables.enabled(key, &mut self.word);
            let first_edge = self.succ_cmd.len();
            let first_new = f.keys.len();
            for_each_bit(&self.word, |i| {
                let pc = &self.kernel.cmds[i];
                let sid = f.intern_key((key & pc.clear) | pc.set, (id, i as u32));
                self.succ_cmd.push(i as u32);
                self.succ_node.push(sid);
            });
            if self.succ_cmd.len() == first_edge {
                self.succ_cmd.push(STUTTER_CMD);
                self.succ_node.push(id);
            }
            self.transitions += (self.succ_cmd.len() - first_edge) as u64;
            self.succ_off.push(self.succ_cmd.len() as u32);
            self.peak_queue = self.peak_queue.max((f.keys.len() - self.next) as u64);
            if let Some(hit) = (first_new..f.keys.len()).find(|&n| found(f.keys[n])) {
                return Ok(Some(hit as u32));
            }
        }
        Ok(None)
    }

    /// Charges the states interned so far that `meter` has not seen,
    /// without failing ([`Pacer::charge_tail`]).
    pub(crate) fn charge_tail(&mut self, meter: &BudgetMeter) {
        self.pacer.charge_tail(self.frontier.keys.len(), meter);
    }

    /// Interned states so far.
    pub(crate) fn len(&self) -> usize {
        self.frontier.keys.len()
    }

    /// The packed keys interned so far, in BFS (id) order.
    pub(crate) fn keys(&self) -> &[u64] {
        &self.frontier.keys
    }

    /// The layout the keys are packed with.
    pub(crate) fn layout(&self) -> &PackLayout {
        &self.frontier.layout
    }

    /// BFS levels entered so far, and the widest of them.
    pub(crate) fn levels(&self) -> (u32, u64) {
        (self.levels, self.peak_level)
    }

    /// What the search has cost so far.
    pub(crate) fn stats(&self) -> CheckStats {
        CheckStats {
            states: self.len() as u64,
            transitions: self.transitions,
            peak_queue: self.peak_queue,
        }
    }

    /// The BFS path to `target`, from its interned parents.
    pub(crate) fn path_to(&self, c: &CompiledModel, target: u32) -> Vec<TraceStep> {
        let f = &self.frontier;
        rebuild_path(
            c,
            |id, out| f.layout.unpack(f.keys[id as usize], out),
            &f.parent_node,
            &f.parent_cmd,
            target,
        )
    }

    /// The finished graph, its arrays moved out of the explorer. Call
    /// once, after [`PackedExplorer::advance`] has run to the end of the
    /// BFS.
    pub(crate) fn finish(&mut self) -> ReachGraph {
        debug_assert_eq!(self.next, self.len(), "finish() before the BFS ended");
        let stats = self.stats();
        let f = &mut self.frontier;
        ReachGraph {
            layout: f.layout.clone(),
            keys: mem::take(&mut f.keys),
            parent_node: mem::take(&mut f.parent_node),
            parent_cmd: mem::take(&mut f.parent_cmd),
            succ_off: mem::take(&mut self.succ_off),
            succ_cmd: mem::take(&mut self.succ_cmd),
            succ_node: mem::take(&mut self.succ_node),
            init_count: self.init_count,
            levels: self.levels,
            peak_level: self.peak_level,
            stats,
        }
    }
}
