//! Persistent cross-run analysis store (`PROCHECK_STORE`).
//!
//! The pipeline's warm path: verdicts depend only on *(extracted FSM,
//! threat instrumentation, property, checking knobs)*, so a second run
//! over unchanged inputs should re-check nothing. This crate is the
//! on-disk layer — a content-addressed directory of framed, versioned,
//! checksummed records:
//!
//! * **verdict records** ([`VerdictRecord`]) keyed by a stable 128-bit
//!   hash of `(FSM content, ThreatConfig fingerprint, property id,
//!   reduction/backend knobs)`;
//! * **reachability-graph artifacts** (payloads produced by
//!   `procheck_smv::persist`) keyed by the checked model's fingerprint;
//! * **baseline FSM snapshots** ([`BaselineRecord`]) a warm run diffs
//!   against to drive delta-based invalidation;
//! * **verdict indexes** ([`IndexRecord`]), one per (extracted FSM pair,
//!   checking knobs): each model property's verdict key and exact model
//!   fingerprint, so an unchanged run finds its verdicts without
//!   composing a model.
//!
//! # Frame format
//!
//! ```text
//! magic   "PCKS"                 4 bytes
//! version FORMAT_VERSION         u32 LE
//! kind    1=verdict 2=graph 3=baseline 4=index
//! key     record fingerprint     16 bytes
//! length  payload byte count     u64 LE
//! payload …                      `length` bytes
//! check   StableHasher over everything above, 16 bytes
//! ```
//!
//! Every load re-validates all of it; any mismatch — truncation, bad
//! checksum, version skew, key collision in the file name — degrades to
//! [`LoadOutcome::Corrupt`] (a cold miss plus the `invalidated`
//! counter), **never** a wrong answer. Writes go through a temp file +
//! rename so a crashed writer leaves no half-frame under a live key.
//!
//! # Stable-hash discipline
//!
//! `Sym(u32)` interning ids are process-global and not stable across
//! runs. Nothing in this crate can hold one: keys are [`Fingerprint`]s
//! computed over resolved strings, payload types ([`record`]) hold
//! `String`s, and graph payloads are re-interned by `procheck_smv` at
//! load. See DESIGN.md §5h.

pub mod bytes;
pub mod hash;
pub mod record;

pub use bytes::{ByteReader, ByteWriter, DecodeError};
pub use hash::{hash_bytes, Fingerprint, StableHasher};
pub use record::{
    BaselineRecord, IndexEntry, IndexRecord, OutcomeData, TraceData, TraceStepData, VerdictRecord,
};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// On-disk format version; any change to framing, the stable hash, or a
/// record layout bumps this, and every older file reads as version skew
/// (a cold miss).
pub const FORMAT_VERSION: u32 = 1;

/// Frame magic.
pub const MAGIC: [u8; 4] = *b"PCKS";

const HEADER_LEN: usize = 4 + 4 + 1 + 16 + 8;
const CHECKSUM_LEN: usize = 16;

/// The record families the store holds, each in its own subdirectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Property verdicts.
    Verdict,
    /// Serialized reachability graphs.
    Graph,
    /// Baseline FSM snapshots.
    Baseline,
    /// Verdict indexes.
    Index,
}

impl Kind {
    /// Subdirectory name under the store root.
    pub fn dir(self) -> &'static str {
        match self {
            Kind::Verdict => "verdicts",
            Kind::Graph => "graphs",
            Kind::Baseline => "baselines",
            Kind::Index => "indexes",
        }
    }

    fn tag(self) -> u8 {
        match self {
            Kind::Verdict => 1,
            Kind::Graph => 2,
            Kind::Baseline => 3,
            Kind::Index => 4,
        }
    }
}

/// Result of a keyed load.
#[derive(Debug)]
pub enum LoadOutcome {
    /// A fully validated record payload.
    Hit(Vec<u8>),
    /// No record under this key.
    Miss,
    /// A record exists but failed validation; treated as a cold miss.
    Corrupt(String),
}

/// Counter snapshot (see the field docs for exact semantics — `lookups`
/// and `hits` deliberately count *verdict* traffic only, so
/// `hits / lookups` is the warm-run verdict hit rate the bench gates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Verdict-record load attempts.
    pub lookups: u64,
    /// Verdict-record hits.
    pub hits: u64,
    /// Graph-artifact hits (each one is an exploration avoided).
    pub graph_loads: u64,
    /// Records rejected as corrupt/skewed (any kind), including
    /// corruption detected by the caller's record decode
    /// ([`Store::note_invalidated`]).
    pub invalidated: u64,
    /// Frames written (any kind).
    pub writes: u64,
    /// Frame bytes read on validated hits.
    pub bytes_read: u64,
    /// Frame bytes written.
    pub bytes_written: u64,
}

#[derive(Debug, Default)]
struct Counters {
    lookups: AtomicU64,
    hits: AtomicU64,
    graph_loads: AtomicU64,
    invalidated: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// Handle to one store directory. Thread-safe: loads and saves may race
/// freely (distinct keys never interact; same-key writers settle by
/// last rename, and both write identical bytes by determinism).
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    counters: Counters,
}

/// Builds a complete frame (header + payload + checksum) for `payload`
/// under `key`. Public so tests can construct deliberately mangled
/// frames and the fault-injection harness can corrupt writes end to end.
pub fn frame(kind: Kind, key: Fingerprint, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(kind.tag());
    out.extend_from_slice(&key.0);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = hash_bytes(&out);
    out.extend_from_slice(&sum.0);
    out
}

/// Validates a frame read from disk and extracts its payload.
///
/// # Errors
///
/// A human-readable description of the first validation failure:
/// truncation, bad magic, version skew, kind/key mismatch, length
/// mismatch, or checksum mismatch.
pub fn unframe(data: &[u8], kind: Kind, key: Fingerprint) -> Result<Vec<u8>, String> {
    if data.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(format!("truncated frame: {} bytes", data.len()));
    }
    if data[..4] != MAGIC {
        return Err("bad magic".to_string());
    }
    let version = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(format!(
            "format version skew: file has v{version}, this build reads v{FORMAT_VERSION}"
        ));
    }
    if data[8] != kind.tag() {
        return Err(format!("kind mismatch: tag {}", data[8]));
    }
    if data[9..25] != key.0 {
        return Err("key mismatch".to_string());
    }
    let payload_len = u64::from_le_bytes(data[25..33].try_into().expect("8 bytes"));
    // The length field is untrusted and may be near `u64::MAX`, so it is
    // compared with what the file holds, never added to. The truncation
    // check above keeps this subtraction from underflowing.
    let actual = data.len() - HEADER_LEN - CHECKSUM_LEN;
    if payload_len != actual as u64 {
        return Err(format!(
            "length mismatch: header says a {payload_len}-byte payload, file holds {actual}"
        ));
    }
    let body_end = data.len() - CHECKSUM_LEN;
    let sum = hash_bytes(&data[..body_end]);
    if data[body_end..] != sum.0 {
        return Err("checksum mismatch".to_string());
    }
    Ok(data[HEADER_LEN..body_end].to_vec())
}

impl Store {
    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory tree.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Store> {
        let root = root.into();
        for kind in [Kind::Verdict, Kind::Graph, Kind::Baseline, Kind::Index] {
            std::fs::create_dir_all(root.join(kind.dir()))?;
        }
        Ok(Store {
            root,
            counters: Counters::default(),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The on-disk path a `(kind, key)` record lives at.
    pub fn path_for(&self, kind: Kind, key: Fingerprint) -> PathBuf {
        self.root
            .join(kind.dir())
            .join(format!("{}.pcks", key.to_hex()))
    }

    /// Loads and fully validates the record under `(kind, key)`.
    pub fn load(&self, kind: Kind, key: Fingerprint) -> LoadOutcome {
        if kind == Kind::Verdict {
            self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        }
        let path = self.path_for(kind, key);
        let data = match std::fs::read(&path) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return LoadOutcome::Miss,
            Err(e) => {
                self.counters.invalidated.fetch_add(1, Ordering::Relaxed);
                return LoadOutcome::Corrupt(format!("read {}: {e}", path.display()));
            }
        };
        match unframe(&data, kind, key) {
            Ok(payload) => {
                self.counters
                    .bytes_read
                    .fetch_add(data.len() as u64, Ordering::Relaxed);
                match kind {
                    Kind::Verdict => {
                        self.counters.hits.fetch_add(1, Ordering::Relaxed);
                    }
                    Kind::Graph => {
                        self.counters.graph_loads.fetch_add(1, Ordering::Relaxed);
                    }
                    Kind::Baseline | Kind::Index => {}
                }
                LoadOutcome::Hit(payload)
            }
            Err(why) => {
                self.counters.invalidated.fetch_add(1, Ordering::Relaxed);
                LoadOutcome::Corrupt(format!("{}: {why}", path.display()))
            }
        }
    }

    /// Frames and atomically writes `payload` under `(kind, key)`.
    ///
    /// # Errors
    ///
    /// I/O errors from the temp-file write or rename.
    pub fn save(&self, kind: Kind, key: Fingerprint, payload: &[u8]) -> std::io::Result<()> {
        self.save_frame(kind, key, &frame(kind, key, payload))
    }

    /// Atomically writes an already-framed record verbatim. Normal
    /// callers use [`save`](Self::save); this exists so the
    /// fault-injection harness can persist deliberately mangled frames
    /// and exercise the corrupt-read path end to end.
    ///
    /// # Errors
    ///
    /// I/O errors from the temp-file write or rename.
    pub fn save_frame(&self, kind: Kind, key: Fingerprint, framed: &[u8]) -> std::io::Result<()> {
        let path = self.path_for(kind, key);
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        std::fs::write(&tmp, framed)?;
        std::fs::rename(&tmp, &path)?;
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_written
            .fetch_add(framed.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Records corruption detected *above* the frame layer — a frame
    /// that validated but whose record payload failed to decode (the
    /// second validation line; also where injected `StoreRead` data
    /// faults surface).
    pub fn note_invalidated(&self) {
        self.counters.invalidated.fetch_add(1, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            lookups: self.counters.lookups.load(Ordering::Relaxed),
            hits: self.counters.hits.load(Ordering::Relaxed),
            graph_loads: self.counters.graph_loads.load(Ordering::Relaxed),
            invalidated: self.counters.invalidated.load(Ordering::Relaxed),
            writes: self.counters.writes.load(Ordering::Relaxed),
            bytes_read: self.counters.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.counters.bytes_written.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> Store {
        let dir =
            std::env::temp_dir().join(format!("procheck-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(dir).expect("store opens")
    }

    fn key(s: &str) -> Fingerprint {
        hash_bytes(s.as_bytes())
    }

    #[test]
    fn save_load_roundtrip_counts() {
        let store = temp_store("roundtrip");
        let k = key("roundtrip");
        assert!(matches!(store.load(Kind::Verdict, k), LoadOutcome::Miss));
        store.save(Kind::Verdict, k, b"payload").unwrap();
        let LoadOutcome::Hit(payload) = store.load(Kind::Verdict, k) else {
            panic!("expected hit");
        };
        assert_eq!(payload, b"payload");
        let stats = store.stats();
        assert_eq!(stats.lookups, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.invalidated, 0);
        assert!(stats.bytes_written > b"payload".len() as u64);
        assert_eq!(stats.bytes_read, stats.bytes_written);
    }

    #[test]
    fn graph_hits_count_separately_from_verdicts() {
        let store = temp_store("kinds");
        let k = key("graph");
        store.save(Kind::Graph, k, b"g").unwrap();
        assert!(matches!(store.load(Kind::Graph, k), LoadOutcome::Hit(_)));
        store.save(Kind::Index, k, b"i").unwrap();
        assert!(matches!(store.load(Kind::Index, k), LoadOutcome::Hit(_)));
        assert!(matches!(
            store.load(Kind::Index, key("absent")),
            LoadOutcome::Miss
        ));
        let stats = store.stats();
        assert_eq!(
            stats.lookups, 0,
            "graph and index loads are not verdict lookups"
        );
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.graph_loads, 1);
    }

    #[test]
    fn truncated_frame_is_corrupt_not_wrong() {
        let store = temp_store("trunc");
        let k = key("trunc");
        store.save(Kind::Verdict, k, b"some payload bytes").unwrap();
        let path = store.path_for(Kind::Verdict, k);
        let full = std::fs::read(&path).unwrap();
        for cut in [0, 3, HEADER_LEN - 1, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(
                matches!(store.load(Kind::Verdict, k), LoadOutcome::Corrupt(_)),
                "cut at {cut} must read as corrupt"
            );
        }
        assert_eq!(store.stats().invalidated, 4);
    }

    #[test]
    fn flipped_payload_bit_fails_checksum() {
        let store = temp_store("checksum");
        let k = key("checksum");
        store
            .save(Kind::Verdict, k, b"payload under checksum")
            .unwrap();
        let path = store.path_for(Kind::Verdict, k);
        let mut data = std::fs::read(&path).unwrap();
        data[HEADER_LEN + 2] ^= 0x40;
        std::fs::write(&path, &data).unwrap();
        let LoadOutcome::Corrupt(why) = store.load(Kind::Verdict, k) else {
            panic!("expected corrupt");
        };
        assert!(why.contains("checksum"), "got: {why}");
    }

    #[test]
    fn version_skew_is_corrupt_with_reason() {
        let store = temp_store("version");
        let k = key("version");
        store.save(Kind::Verdict, k, b"old world").unwrap();
        let path = store.path_for(Kind::Verdict, k);
        let mut data = std::fs::read(&path).unwrap();
        // Pretend a future build wrote this file: bump the version and
        // re-checksum so *only* the version differs.
        data[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let body_end = data.len() - CHECKSUM_LEN;
        let sum = hash_bytes(&data[..body_end]);
        data[body_end..].copy_from_slice(&sum.0);
        std::fs::write(&path, &data).unwrap();
        let LoadOutcome::Corrupt(why) = store.load(Kind::Verdict, k) else {
            panic!("expected corrupt");
        };
        assert!(why.contains("version skew"), "got: {why}");
    }

    #[test]
    fn wrong_kind_and_wrong_key_rejected() {
        let store = temp_store("mismatch");
        let k = key("mismatch");
        store.save(Kind::Verdict, k, b"v").unwrap();
        let framed = std::fs::read(store.path_for(Kind::Verdict, k)).unwrap();
        assert!(unframe(&framed, Kind::Graph, k).is_err());
        assert!(unframe(&framed, Kind::Verdict, key("other")).is_err());
    }

    #[test]
    fn huge_length_field_is_a_length_mismatch() {
        let k = key("huge");
        let mut framed = frame(Kind::Verdict, k, b"");
        framed[25..33].copy_from_slice(&u64::MAX.to_le_bytes());
        let why = unframe(&framed, Kind::Verdict, k).expect_err("length field lies");
        assert!(why.contains("length mismatch"), "got: {why}");
    }

    #[test]
    fn save_overwrites_atomically() {
        let store = temp_store("overwrite");
        let k = key("overwrite");
        store.save(Kind::Baseline, k, b"first").unwrap();
        store.save(Kind::Baseline, k, b"second").unwrap();
        let LoadOutcome::Hit(payload) = store.load(Kind::Baseline, k) else {
            panic!("expected hit");
        };
        assert_eq!(payload, b"second");
        // No temp droppings next to the record.
        let dir = store.root().join(Kind::Baseline.dir());
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x != "pcks"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }
}
