//! The disabled (default) collector must be free on hot paths: no
//! allocation for counter bumps, span guards, or marks. The checker's
//! state-interning loop runs with one of these handles in scope, so a
//! disabled collector that allocated would tax every model check.

use procheck_telemetry::{Collector, Counter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper that counts allocations per thread, so the
/// test harness's other threads never land in a measured window.
struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. `const`-initialised and
    /// free of `Drop`, so touching it from inside the allocator never
    /// allocates itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the current thread. `try_with` fails only
/// while the thread's TLS is being torn down; such allocations belong to
/// no measured window, and panicking inside `alloc` would abort.
fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn disabled_collector_is_allocation_free() {
    let collector = Collector::disabled();
    let counter = collector.counter("smv.states_explored");
    // Warm up any lazily-initialized runtime machinery outside the
    // measured window.
    counter.add(1);
    drop(collector.span("warmup"));

    let before = allocations();
    for i in 0..10_000 {
        counter.add(1);
        counter.record_max(i);
        collector.add("smv.transitions", 2);
        collector.record_max("smv.peak_queue", i);
        drop(collector.span("stage.check"));
    }
    assert_eq!(
        allocations(),
        before,
        "disabled-collector operations must not allocate"
    );
}

#[test]
fn disabled_counter_handle_is_allocation_free_to_acquire() {
    let collector = Collector::disabled();
    let before = allocations();
    for _ in 0..1_000 {
        let counter = collector.counter("hot.loop");
        counter.incr();
        let noop = Counter::noop();
        noop.add(3);
    }
    assert_eq!(
        allocations(),
        before,
        "acquiring a disabled counter must not allocate"
    );
}

#[test]
fn enabled_counter_bump_is_allocation_free_after_registration() {
    // Live counters allocate once at registration (the Arc'd cell);
    // the per-bump cost is a relaxed fetch_add on a plain AtomicU64.
    let collector = Collector::enabled();
    let counter = collector.counter("hot.bump");
    let peak = collector.counter("hot.peak");
    counter.add(1);
    peak.record_max(1);
    let before = allocations();
    for _ in 0..10_000 {
        counter.add(1);
        peak.record_max(7);
    }
    assert_eq!(
        allocations(),
        before,
        "live counter bumps must not allocate"
    );
    assert_eq!(counter.value(), 10_001);
    assert_eq!(peak.value(), 7);
}
