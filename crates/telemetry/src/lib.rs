//! Pipeline telemetry: scoped spans, monotonic counters, and a JSONL
//! event sink behind a cheap [`Collector`] handle.
//!
//! The paper's RQ3 argument (Fig 8) rests on measured per-property
//! model-checking time, so the numbers backing it should be collected
//! uniformly instead of ad hoc per binary. This crate is the substrate:
//! every pipeline stage (conformance replay, log dissection, FSM
//! composition, model checking, CEGAR/CPV) reports through a `Collector`
//! threaded through the analysis configuration.
//!
//! # Design constraints
//!
//! * **Near-zero overhead when disabled.** The default collector is a
//!   no-op: counter bumps are a branch on an `Option` that is `None`,
//!   spans never read the clock, and nothing allocates. Hot paths such
//!   as the checker's state-interning loop keep their own plain
//!   `AtomicU64` accounting; the collector only adds to it when
//!   explicitly enabled.
//! * **Deterministic except wall-clock.** Counter totals depend only on
//!   the work performed, never on scheduling: the same analysis at
//!   `threads = 1` and `threads = 4` produces identical counter
//!   snapshots. Only span durations (`elapsed_us`) carry wall-clock.
//! * **`std`-only.** No dependencies; the JSONL sink writes and parses
//!   its own lines (see [`json`]).
//!
//! # Event schema
//!
//! [`Collector::to_jsonl`] emits one JSON object per line:
//!
//! ```text
//! {"type":"counter","name":"smv.states_explored","value":41923}
//! {"type":"span","name":"stage.extract","elapsed_us":1204}
//! {"type":"mark","name":"property.checked","fields":{"id":"S01","outcome":"attack"}}
//! ```
//!
//! Counters are emitted sorted by name (deterministic); spans and marks
//! in recording order.

pub mod json;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A non-counter event recorded by a collector: a completed span or a
/// point-in-time mark with string fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A scoped timer that has been dropped. `elapsed_us` is the only
    /// wall-clock-dependent field in the whole schema.
    Span {
        /// Span name (e.g. `stage.extract`).
        name: String,
        /// Wall-clock duration in microseconds.
        elapsed_us: u64,
    },
    /// A point event with arbitrary string fields, in insertion order.
    Mark {
        /// Mark name (e.g. `property.checked`).
        name: String,
        /// Field key/value pairs.
        fields: Vec<(String, String)>,
    },
}

#[derive(Debug, Default)]
struct Inner {
    counters: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    events: Mutex<Vec<Event>>,
}

impl Inner {
    fn cell(&self, name: &'static str) -> Arc<AtomicU64> {
        let mut map = self.counters.lock().expect("counter map lock");
        Arc::clone(map.entry(name).or_default())
    }
}

/// Handle to a telemetry sink, cheap to clone and share across threads.
///
/// The default handle is *disabled*: every operation is a no-op and no
/// memory is allocated. [`Collector::enabled`] turns on collection.
#[derive(Debug, Clone, Default)]
pub struct Collector {
    inner: Option<Arc<Inner>>,
}

impl Collector {
    /// A collector that records nothing (the default).
    pub fn disabled() -> Self {
        Collector { inner: None }
    }

    /// A collector that records counters, spans, and marks.
    pub fn enabled() -> Self {
        Collector {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// True if this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Returns a handle to the named counter, creating it at zero.
    ///
    /// On a disabled collector the returned [`Counter`] is a no-op and
    /// acquiring it does not allocate, so hot paths may hold one
    /// unconditionally.
    pub fn counter(&self, name: &'static str) -> Counter {
        Counter {
            cell: self.inner.as_ref().map(|inner| inner.cell(name)),
        }
    }

    /// Adds `n` to the named counter.
    pub fn add(&self, name: &'static str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.cell(name).fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Raises the named counter to at least `n` (for high-water marks
    /// such as peak queue depth).
    pub fn record_max(&self, name: &'static str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.cell(name).fetch_max(n, Ordering::Relaxed);
        }
    }

    /// Starts a scoped timer; the span event is recorded when the
    /// returned guard drops. Disabled collectors never read the clock.
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            rec: self
                .inner
                .as_ref()
                .map(|inner| (Arc::clone(inner), name, Instant::now())),
        }
    }

    /// Records a span whose duration was measured elsewhere — for work
    /// done in pieces, such as a graph explored across several queries,
    /// reported as one span once the pieces are summed.
    pub fn record_span(&self, name: &'static str, elapsed: std::time::Duration) {
        if let Some(inner) = &self.inner {
            inner.events.lock().expect("event lock").push(Event::Span {
                name: name.to_string(),
                elapsed_us: elapsed.as_micros() as u64,
            });
        }
    }

    /// Records a point event with string fields.
    pub fn mark(&self, name: &str, fields: &[(&str, &str)]) {
        if let Some(inner) = &self.inner {
            inner.events.lock().expect("event lock").push(Event::Mark {
                name: name.to_string(),
                fields: fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
            });
        }
    }

    /// Snapshot of every counter, sorted by name. Empty when disabled.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        match &self.inner {
            None => BTreeMap::new(),
            Some(inner) => inner
                .counters
                .lock()
                .expect("counter map lock")
                .iter()
                .map(|(name, cell)| (name.to_string(), cell.load(Ordering::Relaxed)))
                .collect(),
        }
    }

    /// Value of one counter (0 if never touched or disabled).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters().get(name).copied().unwrap_or(0)
    }

    /// Snapshot of recorded spans and marks, in recording order.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.events.lock().expect("event lock").clone(),
        }
    }

    /// Serializes the collector's state as JSONL: one `counter` line per
    /// counter (sorted by name), then one `span`/`mark` line per event
    /// in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.counters() {
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":{},\"value\":{}}}\n",
                json::escape(&name),
                value
            ));
        }
        for event in self.events() {
            match event {
                Event::Span { name, elapsed_us } => out.push_str(&format!(
                    "{{\"type\":\"span\",\"name\":{},\"elapsed_us\":{}}}\n",
                    json::escape(&name),
                    elapsed_us
                )),
                Event::Mark { name, fields } => {
                    let body: Vec<String> = fields
                        .iter()
                        .map(|(k, v)| format!("{}:{}", json::escape(k), json::escape(v)))
                        .collect();
                    out.push_str(&format!(
                        "{{\"type\":\"mark\",\"name\":{},\"fields\":{{{}}}}}\n",
                        json::escape(&name),
                        body.join(",")
                    ));
                }
            }
        }
        out
    }
}

/// Parsed view of one JSONL line (see [`Collector::to_jsonl`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonlRecord {
    /// A `counter` line.
    Counter {
        /// Counter name.
        name: String,
        /// Counter value at serialization time.
        value: u64,
    },
    /// A `span` or `mark` line.
    Event(Event),
}

/// Parses JSONL produced by [`Collector::to_jsonl`] back into records.
///
/// # Errors
///
/// Returns a message naming the offending line on malformed input.
pub fn parse_jsonl(text: &str) -> Result<Vec<JsonlRecord>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let obj = value
            .as_object()
            .ok_or_else(|| format!("line {}: not an object", lineno + 1))?;
        let get_str = |key: &str| -> Result<String, String> {
            obj.iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("line {}: missing string field {key:?}", lineno + 1))
        };
        let get_u64 = |key: &str| -> Result<u64, String> {
            obj.iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_u64())
                .ok_or_else(|| format!("line {}: missing integer field {key:?}", lineno + 1))
        };
        let record = match get_str("type")?.as_str() {
            "counter" => JsonlRecord::Counter {
                name: get_str("name")?,
                value: get_u64("value")?,
            },
            "span" => JsonlRecord::Event(Event::Span {
                name: get_str("name")?,
                elapsed_us: get_u64("elapsed_us")?,
            }),
            "mark" => {
                let fields = obj
                    .iter()
                    .find(|(k, _)| k == "fields")
                    .and_then(|(_, v)| v.as_object())
                    .ok_or_else(|| format!("line {}: missing fields object", lineno + 1))?
                    .iter()
                    .map(|(k, v)| {
                        v.as_str()
                            .map(|s| (k.clone(), s.to_string()))
                            .ok_or_else(|| format!("line {}: non-string mark field", lineno + 1))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                JsonlRecord::Event(Event::Mark {
                    name: get_str("name")?,
                    fields,
                })
            }
            other => {
                return Err(format!(
                    "line {}: unknown record type {other:?}",
                    lineno + 1
                ))
            }
        };
        out.push(record);
    }
    Ok(out)
}

/// Handle to one named monotonic counter.
///
/// Bumping a live counter is a single relaxed `AtomicU64::fetch_add`;
/// bumping a disabled one is a branch on `None`. Neither allocates.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A counter that discards everything (what a disabled collector
    /// hands out).
    pub fn noop() -> Self {
        Counter { cell: None }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1)
    }

    /// Raises the value to at least `n`.
    #[inline]
    pub fn record_max(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_max(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn value(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// Guard for a scoped timer; records a [`Event::Span`] on drop.
#[derive(Debug)]
pub struct Span {
    rec: Option<(Arc<Inner>, &'static str, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((inner, name, start)) = self.rec.take() {
            let elapsed_us = start.elapsed().as_micros() as u64;
            inner.events.lock().expect("event lock").push(Event::Span {
                name: name.to_string(),
                elapsed_us,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_records_nothing() {
        let c = Collector::disabled();
        assert!(!c.is_enabled());
        c.add("x", 5);
        c.record_max("y", 9);
        c.mark("m", &[("k", "v")]);
        drop(c.span("s"));
        c.record_span("r", std::time::Duration::from_millis(3));
        let counter = c.counter("x");
        counter.add(100);
        assert_eq!(counter.value(), 0);
        assert!(c.counters().is_empty());
        assert!(c.events().is_empty());
        assert_eq!(c.to_jsonl(), "");
    }

    #[test]
    fn counters_accumulate_and_sort() {
        let c = Collector::enabled();
        c.add("b.second", 2);
        c.add("a.first", 1);
        c.add("b.second", 3);
        let handle = c.counter("a.first");
        handle.incr();
        let snap = c.counters();
        assert_eq!(
            snap.into_iter().collect::<Vec<_>>(),
            vec![("a.first".to_string(), 2), ("b.second".to_string(), 5)]
        );
    }

    #[test]
    fn record_max_keeps_high_water_mark() {
        let c = Collector::enabled();
        c.record_max("peak", 4);
        c.record_max("peak", 9);
        c.record_max("peak", 7);
        assert_eq!(c.counter_value("peak"), 9);
    }

    #[test]
    fn spans_and_marks_keep_order() {
        let c = Collector::enabled();
        drop(c.span("first"));
        c.mark("between", &[("id", "S01")]);
        drop(c.span("second"));
        let events = c.events();
        assert_eq!(events.len(), 3);
        assert!(matches!(&events[0], Event::Span { name, .. } if name == "first"));
        assert!(matches!(&events[1], Event::Mark { name, .. } if name == "between"));
        assert!(matches!(&events[2], Event::Span { name, .. } if name == "second"));
    }

    #[test]
    fn recorded_spans_keep_their_measured_duration() {
        let c = Collector::enabled();
        c.record_span("pieces", std::time::Duration::from_micros(1_500));
        assert_eq!(
            c.events(),
            vec![Event::Span {
                name: "pieces".to_string(),
                elapsed_us: 1_500
            }]
        );
    }

    #[test]
    fn clones_share_one_sink() {
        let c = Collector::enabled();
        let c2 = c.clone();
        c2.add("shared", 7);
        assert_eq!(c.counter_value("shared"), 7);
    }

    #[test]
    fn counter_handles_are_live_views() {
        let c = Collector::enabled();
        let h = c.counter("n");
        let h2 = c.counter("n");
        h.add(2);
        h2.add(3);
        assert_eq!(c.counter_value("n"), 5);
        assert_eq!(h.value(), 5);
    }

    #[test]
    fn counters_are_deterministic_across_thread_counts() {
        // The same work split across different worker counts must leave
        // identical counter totals — the substrate for the pipeline's
        // threads=1 vs threads=4 equality test.
        let totals: Vec<_> = [1usize, 4]
            .into_iter()
            .map(|threads| {
                let c = Collector::enabled();
                std::thread::scope(|s| {
                    for w in 0..threads {
                        let c = c.clone();
                        s.spawn(move || {
                            for i in 0..1000 {
                                if i % threads == w {
                                    c.add("work.items", 1);
                                    c.record_max("work.peak", (i % 17) as u64);
                                }
                            }
                        });
                    }
                });
                c.counters()
            })
            .collect();
        assert_eq!(totals[0], totals[1]);
    }
}
