//! Allocation gate for the stable-fP fit: the sweep loop allocates nothing
//! but the growth of `objective_history`.
//!
//! A fit with a sweep budget of 0 runs the set-up alone (validation, the
//! initial point, the per-fit workspace) and returns. A fit that runs `k`
//! sweeps must allocate exactly that set-up plus what pushing `k` values
//! onto an empty `Vec<f64>` allocates, for either objective, a cold or a
//! warm start, and `f` free or fixed. Comparing against the set-up-only
//! fit, instead of asserting an absolute count, keeps the gate about the
//! sweeps: the per-fit buffers may change without touching it.
//!
//! The allocator counts per thread: the test harness runs each test on
//! its own thread, and its other threads allocate while a test runs. A
//! process-wide count would see those too.

use ic_core::{
    fit_stable_fp, generate_synthetic, FitOptions, FitReport, Objective, StableFpParams,
    SynthConfig, TmSeries, WarmStart,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

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

/// Allocations of growing an empty `Vec<f64>` by `len` pushes, the way
/// the fit grows its objective history.
fn history_growth(len: usize) -> u64 {
    let before = allocations();
    let mut history = Vec::new();
    for k in 0..len {
        history.push(k as f64);
    }
    black_box(&history);
    allocations() - before
}

/// A fit and the allocations it made.
fn counted_fit(x: &TmSeries, options: FitOptions) -> (u64, FitReport<StableFpParams>) {
    let before = allocations();
    let fit = fit_stable_fp(x, options).unwrap();
    (allocations() - before, fit)
}

/// Noisy `serve-mixed`-style traffic: 12 nodes, 6 bins.
fn window() -> TmSeries {
    generate_synthetic(
        &SynthConfig::geant_like(42)
            .with_nodes(12)
            .with_bins(6)
            .with_preference_sigma(0.6)
            .with_activity_alpha(3.0),
    )
    .unwrap()
    .series
}

#[test]
fn the_sweep_loop_allocates_only_the_objective_history() {
    let x = window();
    let warm = WarmStart {
        f: 0.4,
        preference: (0..x.nodes()).map(|i| 1.0 + i as f64).collect(),
    };
    let mut longest = 0;
    for objective in [Objective::WeightedSse, Objective::SumRelL2] {
        for start in [None, Some(warm.clone())] {
            for fix_f in [false, true] {
                let mut base = FitOptions::default()
                    .with_objective(objective)
                    .with_fix_f(fix_f)
                    .with_tolerance(0.0);
                if let Some(w) = &start {
                    base = base.with_warm_start(w.clone());
                }
                let (setup, idle) = counted_fit(&x, base.clone().with_max_sweeps(0));
                assert!(idle.objective_history.is_empty());
                for budget in [1, 2, 3, 7, 40] {
                    let (total, fit) = counted_fit(&x, base.clone().with_max_sweeps(budget));
                    let sweeps = fit.objective_history.len();
                    longest = longest.max(sweeps);
                    assert_eq!(
                        total - setup,
                        history_growth(sweeps),
                        "{objective:?}, warm {}, fix_f {fix_f}: {sweeps} sweeps",
                        start.is_some()
                    );
                }
            }
        }
    }
    // The gate saw long runs, not only fits that stop at once.
    assert!(longest >= 7, "longest fit ran {longest} sweeps");
}
