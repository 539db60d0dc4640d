//! Allocation contract of the metric hot path.
//!
//! Registration is the cold path (it locks and allocates); *recording*
//! is the hot path threaded through per-bin estimation kernels, and it
//! must never allocate — otherwise "zero-overhead instrumentation" would
//! silently break the estimation stack's allocation-free warm loops.
//! A counting global allocator proves it.
//!
//! The allocator counts per thread: the test harness runs each test on
//! its own thread, and its other threads allocate while a test runs
//! (bookkeeping around spawning the next one). A process-wide count
//! would see those, and the other test's allocations, too.

use ic_obs::{MetricsRegistry, Span};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Allocations made by the current thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates to `System` verbatim; the counter is a const-initialized
// thread-local `Cell` without a destructor, so updating it neither allocates
// nor can fail during thread teardown (`try_with` guards it regardless).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn recording_metrics_never_allocates() {
    // Cold path: registration may allocate freely, and the per-thread
    // counter must see it, or every zero below would be vacuous.
    let before = allocations();
    let registry = MetricsRegistry::new();
    let counter = registry.counter("test.counter");
    let gauge = registry.gauge("test.gauge");
    let histogram = registry.histogram_with("test.seconds", &[("k", "v")]);
    assert!(
        allocations() > before,
        "registration allocations went uncounted"
    );

    // Warm one full pass so lazily initialized state (if any) settles.
    counter.inc();
    counter.add(3);
    gauge.set(1.5);
    histogram.record(0.002);
    let span = Span::start(&histogram);
    let _ = span.finish();

    // Hot path: many records, zero allocations.
    let before = allocations();
    for i in 0..10_000u64 {
        counter.inc();
        counter.add(i);
        gauge.set(i as f64);
        histogram.record(i as f64 * 1e-6);
        let span = Span::start(&histogram);
        drop(span); // records on drop
    }
    assert_eq!(
        allocations() - before,
        0,
        "metric recording allocated on the hot path"
    );
    assert_eq!(counter.get(), 4 + 10_000 + (0..10_000u64).sum::<u64>());
    assert_eq!(histogram.count(), 2 + 2 * 10_000);
}

#[test]
fn disabled_span_never_allocates() {
    let before = allocations();
    for _ in 0..10_000 {
        let span = Span::maybe(None);
        assert!(!span.is_recording());
        let _ = span.finish();
    }
    assert_eq!(allocations() - before, 0, "a no-op span allocated");
}
