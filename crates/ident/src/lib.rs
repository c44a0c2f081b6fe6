//! Workspace-wide symbol interning (DESIGN.md §5d).
//!
//! The pipeline is one dataflow — log → FSM → composed threat model →
//! model checking → CEGAR — and every layer speaks the same small
//! vocabulary: state names, message and event labels, variable names and
//! enum domains, adversary command labels. Carrying that vocabulary as
//! owned `String`s meant re-hashing and re-cloning the same few hundred
//! words at every layer boundary. This crate is the shared currency
//! instead: a process-global, append-only [`SymTable`] maps each
//! distinct string to a [`Sym`] (a `u32` handle), and the rest of the
//! workspace passes `Sym`s — `Copy`, 4 bytes, equality and hashing by
//! id — resolving back to `&'static str` only at serialization edges
//! (reports, DOT, SMV emission, traces).
//!
//! Two design points keep the refactor invisible outside the workspace:
//!
//! * **Ordering is lexicographic.** `Sym: Ord` compares the *resolved
//!   strings*, not the ids, so a `BTreeSet<Sym>` iterates in exactly the
//!   order a `BTreeSet<String>` did — domain declarations, DOT edges,
//!   and refinement sequences keep their historical byte-identical
//!   order. (Equality by id and order by string are mutually consistent
//!   because the table never interns one string twice.)
//! * **Resolution is `&'static`.** Interned strings are leaked once;
//!   [`Sym::as_str`] hands out `&'static str`, so no layer ever needs a
//!   lifetime tied to the table.
//!
//! The typed wrappers come in two families. [`StateId`] and [`MsgId`]
//! are `Sym` newtypes that keep FSM state names and message/action
//! labels from mixing. [`VarId`], [`ValId`], and [`CmdId`] are *dense
//! per-model indices* — positions in a compiled model's variable list,
//! a variable's domain, and the command list — the currency of the
//! checker's compiled expressions and of [`CmdIdSet`] exclusion masks.

pub mod fxhash;

use fxhash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{OnceLock, RwLock, RwLockReadGuard};

/// The interning table: distinct strings in, stable `u32` handles out.
///
/// One process-global instance lives behind [`Sym::intern`]; the type is
/// public so tests and tools can build private tables, but workspace
/// code should go through [`Sym`]. Append-only — nothing is ever
/// removed, so handles stay valid for the process lifetime.
#[derive(Debug, Default)]
pub struct SymTable {
    map: FxHashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

impl SymTable {
    /// An empty table.
    pub fn new() -> Self {
        SymTable::default()
    }

    /// Interns `s`, returning the existing handle when already present.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let owned: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(self.strings.len()).expect("symbol table overflow");
        self.strings.push(owned);
        self.map.insert(owned, id);
        id
    }

    /// Looks `s` up without interning it.
    pub fn get(&self, s: &str) -> Option<u32> {
        self.map.get(s).copied()
    }

    /// Resolves a handle. Panics on a handle from another table.
    pub fn resolve(&self, id: u32) -> &'static str {
        self.strings[id as usize]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

fn global() -> &'static RwLock<SymTable> {
    static TABLE: OnceLock<RwLock<SymTable>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(SymTable::new()))
}

fn read_global() -> RwLockReadGuard<'static, SymTable> {
    global().read().unwrap_or_else(|e| e.into_inner())
}

/// Number of distinct symbols in the process-global table. It counts
/// every run's symbols, so no per-run collector records it.
pub fn symbols_interned() -> u64 {
    read_global().len() as u64
}

/// An interned string: 4 bytes, `Copy`, equality and hashing by id,
/// *ordering by resolved string* (see the crate docs for why).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

impl Sym {
    /// Interns `s` in the process-global table.
    pub fn intern(s: &str) -> Sym {
        {
            // Fast path: almost every intern after warm-up is a re-read.
            let table = read_global();
            if let Some(id) = table.get(s) {
                return Sym(id);
            }
        }
        let mut table = global().write().unwrap_or_else(|e| e.into_inner());
        Sym(table.intern(s))
    }

    /// The interned string (leaked once, live for the process).
    pub fn as_str(self) -> &'static str {
        read_global().resolve(self.0)
    }

    /// The raw table index.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            return std::cmp::Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::intern(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Sym {
        Sym::intern(&s)
    }
}

impl From<&String> for Sym {
    fn from(s: &String) -> Sym {
        Sym::intern(s)
    }
}

impl Serialize for Sym {}
impl<'de> Deserialize<'de> for Sym {}

macro_rules! sym_wrapper {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
        pub struct $name(pub Sym);

        impl $name {
            /// Interns `s` as this kind of symbol.
            pub fn intern(s: &str) -> $name {
                $name(Sym::intern(s))
            }

            /// The underlying symbol.
            pub fn sym(self) -> Sym {
                self.0
            }

            /// The interned string.
            pub fn as_str(self) -> &'static str {
                self.0.as_str()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(&self.0, f)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(&self.0, f)
            }
        }
    };
}

sym_wrapper! {
    /// An interned FSM state name.
    StateId
}
sym_wrapper! {
    /// An interned message / event / action label.
    MsgId
}

macro_rules! dense_index {
    ($(#[$doc:meta])* $name:ident($repr:ty)) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
        pub struct $name(pub $repr);

        impl $name {
            /// Wraps a dense index.
            pub fn new(i: usize) -> $name {
                $name(<$repr>::try_from(i).expect("dense index overflow"))
            }

            /// The index as a `usize`.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }
    };
}

dense_index! {
    /// Position of a variable in a compiled model's declaration list.
    VarId(u32)
}
dense_index! {
    /// Position of a value in one variable's declared domain.
    ValId(u16)
}
dense_index! {
    /// Position of a guarded command in a compiled model's command list.
    CmdId(u32)
}

/// A dense bitset over one model's [`CmdId`] space — the CEGAR
/// exclusion mask. Refining away an adversary command is one bit set;
/// querying the mask per edge during graph traversal is one bit test.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CmdIdSet {
    bits: Vec<u64>,
    count: usize,
}

impl CmdIdSet {
    /// An empty mask sized for `num_commands` commands.
    pub fn with_capacity(num_commands: usize) -> CmdIdSet {
        CmdIdSet {
            bits: vec![0; num_commands.div_ceil(64)],
            count: 0,
        }
    }

    /// Inserts a command id; returns `false` when already present.
    pub fn insert(&mut self, id: CmdId) -> bool {
        let (word, bit) = (id.index() / 64, id.index() % 64);
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        if self.bits[word] & mask != 0 {
            return false;
        }
        self.bits[word] |= mask;
        self.count += 1;
        true
    }

    /// True when the command id is in the mask.
    #[inline]
    pub fn contains(&self, id: CmdId) -> bool {
        self.bits
            .get(id.index() / 64)
            .is_some_and(|w| w & (1u64 << (id.index() % 64)) != 0)
    }

    /// Number of excluded commands.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when nothing is excluded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups_and_resolves() {
        let a = Sym::intern("attach_request");
        let b = Sym::intern("attach_request");
        let c = Sym::intern("attach_accept");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "attach_request");
        assert_eq!(c.as_str(), "attach_accept");
        assert_eq!(a.index(), b.index());
    }

    #[test]
    fn ordering_is_lexicographic_not_by_id() {
        // Intern in reverse-lexicographic order so id order and string
        // order disagree.
        let z = Sym::intern("zzz_order_probe");
        let a = Sym::intern("aaa_order_probe");
        assert!(a < z, "Sym must order by resolved string");
        let set: std::collections::BTreeSet<Sym> = [z, a].into_iter().collect();
        let names: Vec<&str> = set.into_iter().map(Sym::as_str).collect();
        assert_eq!(names, vec!["aaa_order_probe", "zzz_order_probe"]);
    }

    #[test]
    fn display_and_debug_match_string_forms() {
        let s = Sym::intern("emm_registered");
        assert_eq!(format!("{s}"), "emm_registered");
        assert_eq!(format!("{s:?}"), "\"emm_registered\"");
        let st = StateId::intern("emm_registered");
        assert_eq!(format!("{st}"), "emm_registered");
        assert_eq!(st.sym(), s);
    }

    #[test]
    fn from_impls_intern() {
        let a: Sym = "from_probe".into();
        let b: Sym = String::from("from_probe").into();
        assert_eq!(a, b);
    }

    #[test]
    fn private_tables_are_independent() {
        let mut t = SymTable::new();
        assert!(t.is_empty());
        let x = t.intern("x");
        let y = t.intern("y");
        assert_eq!(t.intern("x"), x);
        assert_ne!(x, y);
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(y), "y");
        assert_eq!(t.get("z"), None);
    }

    #[test]
    fn global_count_is_monotonic() {
        let before = symbols_interned();
        Sym::intern("monotonic_probe_unique_string");
        assert!(symbols_interned() > before || before > 0);
        let mid = symbols_interned();
        Sym::intern("monotonic_probe_unique_string");
        assert_eq!(symbols_interned(), mid, "re-interning adds nothing");
    }

    #[test]
    fn cmd_id_set_basics() {
        let mut set = CmdIdSet::with_capacity(70);
        assert!(set.is_empty());
        assert!(set.insert(CmdId::new(3)));
        assert!(set.insert(CmdId::new(69)));
        assert!(!set.insert(CmdId::new(3)), "double insert reports false");
        assert!(set.contains(CmdId::new(3)));
        assert!(set.contains(CmdId::new(69)));
        assert!(!set.contains(CmdId::new(4)));
        assert!(!set.contains(CmdId::new(500)), "out of range is absent");
        assert_eq!(set.len(), 2);
        // Growth past the initial capacity.
        assert!(set.insert(CmdId::new(130)));
        assert!(set.contains(CmdId::new(130)));
    }

    #[test]
    fn dense_indices_round_trip() {
        assert_eq!(VarId::new(7).index(), 7);
        assert_eq!(ValId::new(9).index(), 9);
        assert_eq!(CmdId::new(11).index(), 11);
    }
}
