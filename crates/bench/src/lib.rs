//! Shared helpers for the benchmark harness and the table/figure
//! regeneration binaries.
//!
//! Every table and figure of the paper's evaluation has a regeneration
//! target here (see DESIGN.md §4):
//!
//! | Paper artefact | Target |
//! |---|---|
//! | Table I (attack matrix) | `cargo run -p procheck-bench --bin table1` |
//! | Table II (common properties) | `cargo run -p procheck-bench --bin table2` |
//! | Fig 8 (per-property times) | `--bin fig8` |
//! | RQ2 (model comparison) | `--bin model_comparison` |
//! | §VI coverage / extractor stats | `--bin coverage`, `--bin ablations` |
//! | Design ablations | `--bin ablations` |
//! | Figs 4 & 6 (attack walkthroughs) | `--bin attacks -- p1` etc. |
//!
//! The timing tables of `fig8` and `ablations`, and the timing floors in
//! `tests/timing_floors.rs`, all go through [`sample`] and [`Spread`]:
//! one warm-up call, then [`SAMPLES`] timed calls, reported as their
//! median and quartiles.

use procheck::lteinspector;
use procheck::pipeline::{extract_models, AnalysisConfig, ExtractedModels};
use procheck_fsm::Fsm;
use procheck_props::NasProperty;
use procheck_smv::model::Model;
use procheck_stack::quirks::Implementation;
use procheck_threat::build_threat_model;
use std::fmt;
use std::time::Instant;

/// Timed samples behind every published number, each taken after one
/// untimed warm-up call.
pub const SAMPLES: usize = 5;

/// Calls `f` once to warm up, then [`SAMPLES`] times, and returns what
/// the timed calls returned.
pub fn sample(mut f: impl FnMut() -> f64) -> [f64; SAMPLES] {
    f();
    std::array::from_fn(|_| f())
}

/// Runs `f` once and returns its result (through `black_box`, so the
/// work cannot be optimised away) with the milliseconds it took.
pub fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = std::hint::black_box(f());
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// The value of a timed check, or an exit with status 1 that names the
/// row and the error: a check that failed has no time to report.
pub fn or_exit<T, E: fmt::Display>(result: Result<T, E>, row: &str) -> T {
    result.unwrap_or_else(|err| {
        eprintln!("error: {row}: {err}");
        std::process::exit(1)
    })
}

/// Median and quartiles of a set of samples, by nearest rank: for
/// [`SAMPLES`] = 5, the 2nd, 3rd and 4th smallest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Lower quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Upper quartile.
    pub q3: f64,
}

impl Spread {
    /// The spread of `samples`, which must not be empty.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "a spread needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        // Nearest rank: the p-th percentile is the ceil(p·n/100)-th value.
        let rank = |percent: usize| sorted[(percent * sorted.len()).div_ceil(100).max(1) - 1];
        Spread {
            q1: rank(25),
            median: rank(50),
            q3: rank(75),
        }
    }
}

/// `median (q1–q3)`, at the formatter's precision (two decimals when
/// none is given).
impl fmt::Display for Spread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = f.precision().unwrap_or(2);
        write!(f, "{:.p$} ({:.p$}–{:.p$})", self.median, self.q1, self.q3)
    }
}

/// The two models Fig 8 compares, threat-instrumented per property slice.
pub struct Fig8Models {
    /// ProChecker's extracted UE/MME FSMs (reference implementation).
    pub extracted: ExtractedModels,
    /// LTEInspector's hand-built FSMs.
    pub baseline_ue: Fsm,
    /// LTEInspector MME.
    pub baseline_mme: Fsm,
}

impl Fig8Models {
    /// Extracts the ProChecker models and loads the baseline.
    pub fn prepare() -> Self {
        Fig8Models {
            extracted: extract_models(Implementation::Reference, &AnalysisConfig::default()),
            baseline_ue: lteinspector::ue_model(),
            baseline_mme: lteinspector::mme_model(),
        }
    }

    /// The threat-instrumented ProChecker model for a property.
    pub fn prochecker_model(&self, prop: &NasProperty) -> Model {
        build_threat_model(
            &self.extracted.ue,
            &self.extracted.mme,
            &prop.slice.threat_config(),
        )
    }

    /// The threat-instrumented LTEInspector model for a property.
    pub fn lteinspector_model(&self, prop: &NasProperty) -> Model {
        build_threat_model(
            &self.baseline_ue,
            &self.baseline_mme,
            &prop.slice.threat_config(),
        )
    }
}

/// Order-preserving parallel map over a slice on scoped threads.
///
/// Workers pull indices from a shared counter, so results land in input
/// order regardless of completion order, and a slow item never blocks
/// the others. `threads` is clamped to `1..=items.len()`.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(&T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::OnceLock;
    let slots: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        slots[i]
            .set(f(item))
            .unwrap_or_else(|_| panic!("index {i} claimed twice"));
    };
    let workers = threads.clamp(1, items.len().max(1));
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("all slots filled"))
        .collect()
}

/// One worker per available hardware thread (≥ 1).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Renders a filled/empty dot for attack-matrix cells (Table I style).
pub fn dot(filled: bool) -> &'static str {
    if filled {
        "●"
    } else {
        "○"
    }
}

/// Left-pads/truncates for fixed-width table columns.
pub fn col(text: &str, width: usize) -> String {
    let mut s = text.to_string();
    if s.chars().count() > width {
        s = s.chars().take(width.saturating_sub(1)).collect::<String>() + "…";
    }
    let pad = width.saturating_sub(s.chars().count());
    s + &" ".repeat(pad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_padding_and_truncation() {
        assert_eq!(col("abc", 5), "abc  ");
        assert_eq!(col("abcdefgh", 5), "abcd…");
        assert_eq!(dot(true), "●");
    }

    #[test]
    fn parallel_map_preserves_order_at_any_width() {
        let items: Vec<usize> = (0..97).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for threads in [1, 2, 8, 200] {
            assert_eq!(parallel_map(&items, threads, |x| x * 3), expected);
        }
        let empty: Vec<usize> = Vec::new();
        assert!(parallel_map(&empty, 4, |x| *x).is_empty());
    }

    #[test]
    fn spread_is_nearest_rank() {
        let spread = Spread::of(&[4.0, 1.0, 5.0, 3.0, 2.0]);
        assert_eq!(
            spread,
            Spread {
                q1: 2.0,
                median: 3.0,
                q3: 4.0
            }
        );
        assert_eq!(
            Spread::of(&[7.5; SAMPLES]),
            Spread {
                q1: 7.5,
                median: 7.5,
                q3: 7.5
            }
        );
        assert_eq!(format!("{spread:.1}"), "3.0 (2.0–4.0)");
    }

    #[test]
    fn sample_warms_up_once() {
        let mut calls = 0u32;
        let samples = sample(|| {
            calls += 1;
            f64::from(calls)
        });
        assert_eq!(samples, [2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn fig8_models_prepare() {
        let m = Fig8Models::prepare();
        assert!(m.extracted.ue.transition_count() > m.baseline_ue.transition_count());
    }
}
