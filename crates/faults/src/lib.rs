//! Deterministic fault-injection harness for the analysis pipeline.
//!
//! CI has to *prove* graceful degradation: a panic, a truncated log, or
//! garbage data at any pipeline stage must collapse to a per-property or
//! per-stage degraded outcome while the rest of the run completes
//! byte-identical to the golden snapshot. This crate is the lever that
//! makes those failures reproducible.
//!
//! The pipeline crates call [`inject`] at these stage boundaries (the
//! hooks compile only under their `fault-inject` feature, so release
//! builds carry zero overhead):
//!
//! | [`FaultSite`]     | hook location                                   |
//! |-------------------|-------------------------------------------------|
//! | `LogSource`       | conformance log handoff in `extract_models`      |
//! | `Extractor`       | `extract_fsm_traced` entry (keyed by FSM name)   |
//! | `ThreatCompose`   | `ThreatModelCache` compose-slot build closure    |
//! | `GraphBuild`      | `ThreatModelCache` graph-slot build closure      |
//! | `PropertyEval`    | `check_property_metered` entry (keyed by id)     |
//! | `StoreRead`       | persistent-store record load (keyed by key hex)  |
//! | `StoreWrite`      | persistent-store record save (keyed by key hex)  |
//!
//! A test arms exactly one [`FaultPlan`] (site + kind + optional key +
//! fire-on-nth-match), runs the pipeline, and disarms. A plan fires at
//! most once, so "one fault per run" is a structural guarantee rather
//! than a test convention. Plans can also be derived from a seed
//! ([`FaultPlan::from_seed`]) for sweep-style coverage: the same seed
//! always yields the same plan.
//!
//! The armed plan is process-global (hooks are called from worker
//! threads the test does not control), so concurrent tests must
//! serialize arm/run/disarm sections — see
//! `crates/core/tests/fault_isolation.rs` for the lock idiom.

use std::fmt;
use std::sync::Mutex;

/// A pipeline stage boundary where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// The instrumented conformance logs, before extraction.
    LogSource,
    /// FSM extraction from one log.
    Extractor,
    /// Threat-model composition for one `ThreatConfig`.
    ThreatCompose,
    /// Reachability-graph exploration for one `ThreatConfig`.
    GraphBuild,
    /// One property's check, inside the worker pool.
    PropertyEval,
    /// A persistent-store record load (verdict, graph, or baseline).
    StoreRead,
    /// A persistent-store record save.
    StoreWrite,
}

/// What happens when the plan fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the hook (exercises `catch_unwind` isolation).
    Panic,
    /// Ask the hook to drop the tail of its input data.
    Truncate,
    /// Ask the hook to splice bogus data into its input.
    Garbage,
    /// Sleep briefly at the hook (exercises wall-clock deadlines).
    Slow,
}

/// A data-shaped fault the *call site* applies to its own input;
/// returned by [`inject`] for [`FaultKind::Truncate`] and
/// [`FaultKind::Garbage`]. Sites with no meaningful data input (compose,
/// graph build, property eval) treat these as no-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataFault {
    /// Drop the tail of the input.
    Truncate,
    /// Splice in bogus input.
    Garbage,
}

/// One planned fault: where, what, for which key, and on which matching
/// call. Fires at most once per arming.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The stage boundary to fault.
    pub site: FaultSite,
    /// The fault to apply there.
    pub kind: FaultKind,
    /// Restrict to hook calls carrying this key (property id, FSM
    /// name); `None` matches any call at the site.
    pub key: Option<String>,
    /// Fire on the nth matching call (1-based).
    pub nth: u32,
}

impl FaultPlan {
    /// A plan firing on the first matching call at `site`.
    pub fn new(site: FaultSite, kind: FaultKind) -> Self {
        FaultPlan {
            site,
            kind,
            key: None,
            nth: 1,
        }
    }

    /// Restricts the plan to hook calls carrying `key`.
    pub fn at_key(mut self, key: impl Into<String>) -> Self {
        self.key = Some(key.into());
        self
    }

    /// Fires on the `n`th matching call instead of the first.
    pub fn on_nth(mut self, n: u32) -> Self {
        self.nth = n.max(1);
        self
    }

    /// Derives a plan deterministically from a seed (splitmix64), for
    /// seed-sweep coverage: same seed, same plan, every run.
    pub fn from_seed(seed: u64) -> Self {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        // Deliberately drawn from the original five sites only: the
        // store sites are armed explicitly by store tests, and keeping
        // the modulus at 5 preserves every historical seed → plan
        // mapping the seeded sweeps were written against.
        let site = match next() % 5 {
            0 => FaultSite::LogSource,
            1 => FaultSite::Extractor,
            2 => FaultSite::ThreatCompose,
            3 => FaultSite::GraphBuild,
            _ => FaultSite::PropertyEval,
        };
        let kind = match next() % 4 {
            0 => FaultKind::Panic,
            1 => FaultKind::Truncate,
            2 => FaultKind::Garbage,
            _ => FaultKind::Slow,
        };
        let nth = 1 + (next() % 3) as u32;
        FaultPlan {
            site,
            kind,
            key: None,
            nth,
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} at {:?}", self.kind, self.site)?;
        if let Some(key) = &self.key {
            write!(f, " key={key}")?;
        }
        write!(f, " nth={}", self.nth)
    }
}

struct Armed {
    plan: FaultPlan,
    seen: u32,
    fired: bool,
}

static ACTIVE: Mutex<Option<Armed>> = Mutex::new(None);

/// Arms `plan` for the whole process, replacing any previous plan.
pub fn arm(plan: FaultPlan) {
    let mut active = ACTIVE.lock().expect("fault plan lock");
    *active = Some(Armed {
        plan,
        seen: 0,
        fired: false,
    });
}

/// Disarms the active plan, reporting whether it ever fired.
pub fn disarm() -> bool {
    let mut active = ACTIVE.lock().expect("fault plan lock");
    active.take().is_some_and(|a| a.fired)
}

/// True when the active plan has fired (without disarming it).
pub fn has_fired() -> bool {
    ACTIVE
        .lock()
        .expect("fault plan lock")
        .as_ref()
        .is_some_and(|a| a.fired)
}

/// The pipeline-side hook. Called at a [`FaultSite`] with the site's key
/// (property id, FSM name) when it has one.
///
/// Returns `Some(DataFault)` when the armed plan fires with a data
/// fault, for the call site to apply to its input. [`FaultKind::Slow`]
/// sleeps ~5ms here and returns `None`.
///
/// # Panics
///
/// Deliberately panics when the armed plan fires with
/// [`FaultKind::Panic`] — that is the fault.
pub fn inject(site: FaultSite, key: Option<&str>) -> Option<DataFault> {
    let kind = {
        let mut active = ACTIVE.lock().expect("fault plan lock");
        let armed = active.as_mut()?;
        if armed.fired || armed.plan.site != site {
            return None;
        }
        if let Some(want) = &armed.plan.key {
            if key != Some(want.as_str()) {
                return None;
            }
        }
        armed.seen += 1;
        if armed.seen != armed.plan.nth {
            return None;
        }
        armed.fired = true;
        armed.plan.kind
        // Lock released here: a panic below must not poison the plan
        // mutex for the sibling workers that keep running.
    };
    match kind {
        FaultKind::Panic => panic!(
            "injected fault: panic at {site:?}{}",
            key.map(|k| format!(" ({k})")).unwrap_or_default()
        ),
        FaultKind::Slow => {
            std::thread::sleep(std::time::Duration::from_millis(5));
            None
        }
        FaultKind::Truncate => Some(DataFault::Truncate),
        FaultKind::Garbage => Some(DataFault::Garbage),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    // The armed plan is process-global; serialize the tests in this
    // binary exactly as pipeline fault tests must.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn lock() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn plan_fires_once_on_matching_site_and_key() {
        let _guard = lock();
        arm(FaultPlan::new(FaultSite::PropertyEval, FaultKind::Truncate).at_key("S05"));
        assert_eq!(inject(FaultSite::GraphBuild, None), None);
        assert_eq!(inject(FaultSite::PropertyEval, Some("S01")), None);
        assert_eq!(
            inject(FaultSite::PropertyEval, Some("S05")),
            Some(DataFault::Truncate)
        );
        assert!(has_fired());
        // At most once per arming.
        assert_eq!(inject(FaultSite::PropertyEval, Some("S05")), None);
        assert!(disarm());
        // Disarmed: nothing fires.
        assert_eq!(inject(FaultSite::PropertyEval, Some("S05")), None);
        assert!(!disarm());
    }

    #[test]
    fn nth_counts_only_matching_calls() {
        let _guard = lock();
        arm(FaultPlan::new(FaultSite::Extractor, FaultKind::Garbage).on_nth(3));
        assert_eq!(inject(FaultSite::Extractor, Some("ue")), None);
        assert_eq!(inject(FaultSite::LogSource, None), None); // not counted
        assert_eq!(inject(FaultSite::Extractor, Some("mme")), None);
        assert_eq!(
            inject(FaultSite::Extractor, Some("ue")),
            Some(DataFault::Garbage)
        );
        assert!(disarm());
    }

    #[test]
    fn panic_kind_panics_without_poisoning_the_plan_lock() {
        let _guard = lock();
        arm(FaultPlan::new(FaultSite::GraphBuild, FaultKind::Panic));
        let err = std::panic::catch_unwind(|| inject(FaultSite::GraphBuild, None))
            .expect_err("must panic");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("injected fault"), "{msg}");
        // The lock is still usable and the plan is spent.
        assert!(has_fired());
        assert_eq!(inject(FaultSite::GraphBuild, None), None);
        assert!(disarm());
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let _guard = lock();
        for seed in 0..64u64 {
            assert_eq!(FaultPlan::from_seed(seed), FaultPlan::from_seed(seed));
        }
        // Distinct seeds cover more than one (site, kind) combination.
        let distinct: std::collections::BTreeSet<String> = (0..64u64)
            .map(|s| FaultPlan::from_seed(s).to_string())
            .collect();
        assert!(distinct.len() > 8, "seed sweep too narrow: {distinct:?}");
    }

    #[test]
    fn slow_kind_returns_no_data_fault() {
        let _guard = lock();
        arm(FaultPlan::new(FaultSite::ThreatCompose, FaultKind::Slow));
        assert_eq!(inject(FaultSite::ThreatCompose, None), None);
        assert!(disarm(), "slow fault still counts as fired");
    }
}
