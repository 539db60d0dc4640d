//! Allocation gate for the per-bin pipeline: once the workspace is warm,
//! an [`EstimationPipeline::estimate_with`] sweep performs a
//! **bin-count-independent** number of heap allocations — i.e. zero
//! allocations per bin — on both sides of the normal solver, the default
//! policy (dense at this size) and forced PCG, and with stage metrics
//! attached, whose recording must not allocate. The test compares the
//! allocation counts of warm sweeps over different bin counts instead of
//! asserting an absolute number, so per-call constants (the prior series,
//! the output series' single backing `Vec`) cannot mask a real per-bin
//! allocation creeping into the kernels.
//!
//! The allocator counts per thread: the test harness runs each test on
//! its own thread, and its other threads allocate while a test runs. A
//! process-wide count would see those too.

use ic_core::TmSeries;
use ic_estimation::{
    EstimationConfig, EstimationPipeline, GravityPrior, ObservationModel, Observations,
    PipelineMetrics, PipelineWorkspace, SolverPolicy, TmPrior,
};
use ic_obs::MetricsRegistry;
use ic_topology::{hierarchical, HierarchicalConfig, RoutingScheme};
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

/// A prior that hands back a clone of a fixed series: one allocation
/// (the clone's backing `Vec`) at any bin count, so the sweep's count
/// is the kernel's.
struct FixedPrior(TmSeries);

impl TmPrior for FixedPrior {
    fn name(&self) -> &str {
        "fixed"
    }

    fn prior_series(&self, _obs: &Observations) -> ic_estimation::Result<TmSeries> {
        Ok(self.0.clone())
    }
}

/// Deterministic positive traffic on a 40-node hierarchical topology.
fn model_and_series(bins: usize) -> (ObservationModel, TmSeries) {
    let cfg = HierarchicalConfig::new(4, 9, 20060419);
    let topo = hierarchical(&cfg).unwrap();
    let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
    let n = topo.node_count();
    let mut tm = TmSeries::zeros(n, bins, 300.0).unwrap();
    for t in 0..bins {
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let v = 1e5 * (1.0 + ((i * 31 + j * 17 + t * 7) % 13) as f64);
                    tm.set(i, j, t, v).unwrap();
                }
            }
        }
    }
    (om, tm)
}

/// Allocation count of one warm `estimate_with` sweep over `bins` bins
/// under the given configuration.
fn warm_sweep_allocs(bins: usize, config: &EstimationConfig) -> u64 {
    let (om, tm) = model_and_series(bins);
    let obs = om.observe(&tm).unwrap();
    let pipeline = EstimationPipeline::new(om).config(config.clone());
    let prior = FixedPrior(GravityPrior.prior_series(&obs).unwrap());
    let mut ws = PipelineWorkspace::new();
    // Two warm-up sweeps: the first sizes the workspace buffers, the
    // second settles any lazily grown scratch (IPF, solver) at this size.
    for _ in 0..2 {
        pipeline.estimate_with(&prior, &obs, &mut ws).unwrap();
    }
    let before = allocations();
    pipeline.estimate_with(&prior, &obs, &mut ws).unwrap();
    allocations() - before
}

#[test]
fn warm_per_bin_sweep_allocates_nothing_per_bin() {
    let metrics = PipelineMetrics::register(&MetricsRegistry::new());
    let configs = [
        ("Auto", EstimationConfig::new()),
        (
            "Pcg",
            EstimationConfig::new().with_solver(SolverPolicy::Pcg),
        ),
        (
            "Auto with metrics",
            EstimationConfig::new().with_metrics(metrics),
        ),
    ];
    for (name, config) in &configs {
        let short = warm_sweep_allocs(8, config);
        let long = warm_sweep_allocs(32, config);
        assert!(short > 0, "{name}: the output series went uncounted");
        // Same allocation count at 8 and 32 bins: everything the warm
        // sweep allocates is a per-call constant (the prior and output
        // series), so the per-bin allocation count is exactly zero.
        assert_eq!(
            short, long,
            "{name}: warm sweep allocations grew with bin count: \
             {short} allocs at 8 bins vs {long} at 32 bins"
        );
    }
}
