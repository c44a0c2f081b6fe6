//! Cached reachable-state graphs ("explore once, check many").
//!
//! The explicit-state engine used to re-explore the composed model's
//! reachable state space once per property, even though every property
//! sliced to the same threat configuration sees the *same* graph. A
//! [`ReachGraph`] is that graph, fully explored once and kept:
//!
//! * a **packed state arena** — each state is bit-packed into one `u64`
//!   key (`PackLayout`), the engine's only state representation; a model
//!   whose state needs more than 64 bits is rejected, with each
//!   variable's width, where its layout is computed;
//! * **CSR successor adjacency** — per node, the enabled commands and
//!   their successor states, in command declaration order (plus the
//!   deadlock stutter self-loop), so queries never re-evaluate guards;
//! * **BFS parent pointers** from the original exploration — the
//!   shortest-path tree every safety counterexample is rebuilt from
//!   without re-search.
//!
//! Properties are then answered as *queries* over this graph (direct
//! scans for invariants/reachability, a product BFS carrying the monitor
//! bit for precedence/response and CEGAR-refined re-checks) — see
//! [`crate::checker::check_on_graph`]. A [`crate::lazy::LazyGraph`]
//! builds the same graph on demand, sealing it once its BFS has run to
//! the end. Queries visit graph nodes by
//! index; they never touch the interning table, which is dropped once
//! construction finishes.

use crate::checker::{CheckError, CheckStats, CompiledModel};

/// Per-variable value index (position in the declared domain).
pub type Value = u16;

/// Sentinel command index for the deadlock stutter self-loop.
pub const STUTTER_CMD: u32 = u32::MAX;

/// Sentinel parent id for initial states.
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// Bit layout packing one state (a value-index per variable) into a
/// `u64`. Variable `i` occupies `widths[i]` bits starting at
/// `shifts[i]`; variables with singleton domains occupy zero bits.
#[derive(Debug, Clone)]
pub(crate) struct PackLayout {
    shifts: Vec<u8>,
    widths: Vec<u8>,
}

/// Bits a field of `d` values occupies: enough for index `d - 1`, none
/// for a singleton domain.
fn field_width(d: usize) -> u8 {
    if d <= 1 {
        0
    } else {
        (usize::BITS - (d - 1).leading_zeros()) as u8
    }
}

impl PackLayout {
    /// Computes `model`'s layout: one field per variable, in declaration
    /// order.
    ///
    /// # Errors
    ///
    /// [`CheckError::InvalidModel`] when a state needs more than the 64
    /// bits of a packed key. Its one problem names the total and every
    /// variable's width.
    pub(crate) fn for_model(model: &CompiledModel) -> Result<PackLayout, CheckError> {
        let sizes: Vec<usize> = model.vars.iter().map(|v| v.domain.len()).collect();
        PackLayout::for_domains(&sizes).map_err(|total| {
            let widths: Vec<String> = model
                .vars
                .iter()
                .zip(&sizes)
                .map(|(v, &d)| format!("{} {}", v.name.as_str(), field_width(d)))
                .collect();
            CheckError::InvalidModel(vec![format!(
                "a state needs {total} bits, over the 64 of a packed key: {}",
                widths.join(", ")
            )])
        })
    }

    /// Computes the layout for the given domain sizes, or the bits a
    /// state needs when that is over 64.
    fn for_domains(domain_sizes: &[usize]) -> Result<PackLayout, u32> {
        let widths: Vec<u8> = domain_sizes.iter().map(|&d| field_width(d)).collect();
        let total: u32 = widths.iter().map(|&w| u32::from(w)).sum();
        if total > 64 {
            return Err(total);
        }
        let mut shifts = Vec::with_capacity(widths.len());
        let mut next = 0u8;
        for &width in &widths {
            shifts.push(next);
            next += width;
        }
        Ok(PackLayout { shifts, widths })
    }

    /// Number of variables (fields, zero-width ones included).
    pub(crate) fn num_vars(&self) -> usize {
        self.widths.len()
    }

    /// Packs a state into its `u64` key.
    pub(crate) fn pack(&self, s: &[Value]) -> u64 {
        debug_assert_eq!(s.len(), self.shifts.len());
        let mut key = 0u64;
        for (i, &v) in s.iter().enumerate() {
            key |= (v as u64) << self.shifts[i];
        }
        key
    }

    /// Unpacks a `u64` key back into per-variable value indices.
    pub(crate) fn unpack(&self, key: u64, out: &mut [Value]) {
        debug_assert_eq!(out.len(), self.shifts.len());
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.extract(key, i);
        }
    }

    /// Variable `i`'s `(shift, width)` field position — the guard
    /// lowering precomputes per-atom masks from it.
    #[inline]
    pub(crate) fn field(&self, i: usize) -> (u8, u8) {
        (self.shifts[i], self.widths[i])
    }

    /// Bit mask covering variable `i`'s field in the packed key (0 for
    /// zero-width singleton domains, whose value never occupies bits).
    /// The enable tables sort guard conjuncts by the fields they read
    /// from these masks.
    #[inline]
    pub(crate) fn field_mask(&self, i: usize) -> u64 {
        let width = self.widths[i];
        if width == 0 {
            0
        } else {
            (u64::MAX >> (64 - u32::from(width))) << self.shifts[i]
        }
    }

    /// Reads variable `i`'s value index straight out of a packed key.
    #[inline]
    pub(crate) fn extract(&self, key: u64, i: usize) -> Value {
        let width = self.widths[i];
        if width == 0 {
            0
        } else {
            ((key >> self.shifts[i]) & ((1u64 << width) - 1)) as Value
        }
    }

    /// Lowers a command's update list to a `(clear, set)` mask pair:
    /// applying the command to a packed state is `(key & clear) | set`,
    /// with no unpack/repack round trip.
    pub(crate) fn update_masks(&self, updates: &[(usize, Value)]) -> (u64, u64) {
        let mut clear = !0u64;
        let mut set = 0u64;
        for &(i, value) in updates {
            let width = self.widths[i];
            if width == 0 {
                // Singleton domain: the only value is 0, nothing stored.
                continue;
            }
            let mask = ((1u64 << width) - 1) << self.shifts[i];
            clear &= !mask;
            set |= (value as u64) << self.shifts[i];
        }
        (clear, set)
    }
}

/// A fully-explored reachable state graph for one model.
///
/// Built by [`crate::checker::build_reach_graph_budgeted`]; immutable
/// afterwards.
/// Shared (e.g. behind an `Arc` in a per-threat-configuration cache) so
/// every property keyed to the same model answers its query against one
/// exploration instead of re-running BFS.
#[derive(Debug)]
pub struct ReachGraph {
    /// The layout every key is packed with.
    pub(crate) layout: PackLayout,
    /// Packed state key per node.
    pub(crate) keys: Vec<u64>,
    /// BFS parent node per node ([`NO_PARENT`] for initial states).
    pub(crate) parent_node: Vec<u32>,
    /// Command index of the edge from the BFS parent.
    pub(crate) parent_cmd: Vec<u32>,
    /// CSR offsets into `succ_cmd`/`succ_node` (length `nodes + 1`).
    pub(crate) succ_off: Vec<u32>,
    /// Command index per successor edge ([`STUTTER_CMD`] for stutters).
    pub(crate) succ_cmd: Vec<u32>,
    /// Successor node per edge.
    pub(crate) succ_node: Vec<u32>,
    /// The first `init_count` nodes are the (distinct) initial states.
    pub(crate) init_count: u32,
    /// Number of BFS levels (depth layers, counting the initial one).
    pub(crate) levels: u32,
    /// Widest single BFS level encountered during exploration.
    pub(crate) peak_level: u64,
    /// Exploration cost of building this graph.
    pub(crate) stats: CheckStats,
}

impl ReachGraph {
    /// Number of reachable states.
    pub fn node_count(&self) -> usize {
        self.keys.len()
    }

    /// Number of successor edges (including deadlock stutters).
    pub fn edge_count(&self) -> usize {
        self.succ_node.len()
    }

    /// Number of distinct initial states (nodes `0..init_count`).
    pub fn init_count(&self) -> u32 {
        self.init_count
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.layout.num_vars()
    }

    /// What exploring this graph cost (states interned, transitions
    /// generated, peak BFS frontier).
    pub fn build_stats(&self) -> CheckStats {
        self.stats
    }

    /// Number of BFS levels (depth layers) the exploration walked.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Widest single BFS level seen while exploring.
    pub fn peak_level(&self) -> u64 {
        self.peak_level
    }

    /// BFS parent edge of `id` as `(parent node, command index)`, or
    /// `None` for initial states.
    pub fn parent_edge(&self, id: u32) -> Option<(u32, u32)> {
        let p = self.parent_node[id as usize];
        (p != NO_PARENT).then(|| (p, self.parent_cmd[id as usize]))
    }

    /// Node `id`'s state as per-variable value indices (test/debug aid).
    pub fn state_of(&self, id: u32) -> Vec<u16> {
        let mut out = vec![0u16; self.num_vars()];
        self.load_state(id, &mut out);
        out
    }

    /// Successor edges of `id` as `(command index, successor node)`, in
    /// command declaration order.
    pub fn successors(&self, id: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = self.succ_off[id as usize] as usize;
        let hi = self.succ_off[id as usize + 1] as usize;
        self.succ_cmd[lo..hi]
            .iter()
            .copied()
            .zip(self.succ_node[lo..hi].iter().copied())
    }

    /// Copies node `id`'s state (value indices) into `out`.
    pub(crate) fn load_state(&self, id: u32, out: &mut [Value]) {
        self.layout.unpack(self.keys[id as usize], out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_layout_roundtrips() {
        let layout = PackLayout::for_domains(&[3, 1, 7, 2]).expect("fits");
        let states = [
            vec![0u16, 0, 0, 0],
            vec![2, 0, 6, 1],
            vec![1, 0, 3, 0],
            vec![2, 0, 0, 1],
        ];
        let mut out = vec![0u16; 4];
        for s in &states {
            layout.unpack(layout.pack(s), &mut out);
            assert_eq!(&out, s);
        }
    }

    #[test]
    fn pack_layout_rejects_wide_products() {
        // 11 variables × 64-value domains = 66 bits: does not fit.
        let sizes = vec![64usize; 11];
        assert_eq!(PackLayout::for_domains(&sizes).err(), Some(66));
        // 10 × 6 bits = 60 bits: fits.
        assert!(PackLayout::for_domains(&sizes[..10]).is_ok());
        // Exactly 64 bits fits; one more bit does not.
        let mut sizes = vec![256usize; 8];
        assert!(PackLayout::for_domains(&sizes).is_ok());
        sizes.push(2);
        assert_eq!(PackLayout::for_domains(&sizes).err(), Some(65));
    }

    #[test]
    fn singleton_domains_take_no_bits() {
        let layout = PackLayout::for_domains(&[1; 100]).expect("zero bits each");
        assert_eq!(layout.pack(&[0u16; 100]), 0);
        let mut out = vec![9u16; 100];
        layout.unpack(0, &mut out);
        assert!(out.iter().all(|&v| v == 0));
    }

    #[test]
    fn field_mask_matches_field_position() {
        let layout = PackLayout::for_domains(&[3, 1, 7, 2]).expect("fits");
        for i in 0..4 {
            let (shift, width) = layout.field(i);
            let expect = if width == 0 {
                0
            } else {
                ((1u64 << width) - 1) << shift
            };
            assert_eq!(layout.field_mask(i), expect);
        }
        // Distinct fields occupy disjoint bits; singletons occupy none.
        assert_eq!(layout.field_mask(0) & layout.field_mask(2), 0);
        assert_eq!(layout.field_mask(1), 0);
    }

    #[test]
    fn extract_matches_unpack() {
        let layout = PackLayout::for_domains(&[3, 1, 7, 2]).expect("fits");
        let states = [vec![0u16, 0, 0, 0], vec![2, 0, 6, 1], vec![1, 0, 3, 0]];
        let mut out = vec![0u16; 4];
        for s in &states {
            let key = layout.pack(s);
            layout.unpack(key, &mut out);
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(layout.extract(key, i), v);
            }
        }
    }

    #[test]
    fn update_masks_apply_like_unpack_update_repack() {
        let layout = PackLayout::for_domains(&[3, 1, 7, 2]).expect("fits");
        let updates = [(0usize, 2u16), (1, 0), (2, 5)];
        let (clear, set) = layout.update_masks(&updates);
        let start = layout.pack(&[1, 0, 6, 1]);
        let succ = (start & clear) | set;
        // Reference semantics: unpack, apply updates, repack.
        let mut s = vec![0u16; 4];
        layout.unpack(start, &mut s);
        for &(i, v) in &updates {
            s[i] = v;
        }
        assert_eq!(succ, layout.pack(&s));
    }
}
