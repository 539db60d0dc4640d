//! Allocation gate for warm multilevel calls: dropping a
//! [`MultilevelEstimate`] hands its cluster blocks back to the pipeline,
//! and the next call refills them in place. So a call made after the
//! previous estimate was dropped makes no allocation as large as a
//! cluster block, while the first call, and a call made while the
//! previous estimate is still alive, allocate fresh blocks. Every call
//! gives the same estimate bit for bit.
//!
//! The allocator records, per thread, the largest single allocation; the
//! serial engine runs every cluster job on the calling thread. The
//! network's clusters are larger than its cluster count, so a block
//! (`n_c² × bins`) outweighs every `nodes × bins` matrix a call builds.

use ic_core::TmSeries;
use ic_engine::Engine;
use ic_estimation::{
    EstimationConfig, GravityPrior, MultilevelEstimate, MultilevelPipeline, ObservationModel,
    Observations,
};
use ic_topology::{hierarchical, HierarchicalConfig, Partition, RoutingScheme};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct LargestAllocation;

thread_local! {
    /// Size in bytes of the largest allocation made by the current thread
    /// since the last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: delegates to `System` verbatim; the record is a const-initialized
// thread-local `Cell` without a destructor, so updating it neither allocates
// nor can fail during thread teardown (`try_with` guards it regardless).
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|m| m.set(m.get().max(layout.size())));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

/// Runs `f` and returns its value with the size of the largest
/// allocation it made on this thread.
fn largest_allocation_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|m| m.set(0));
    let value = f();
    (value, LARGEST.with(Cell::get))
}

const BINS: usize = 8;

/// A 39-node hierarchical network in 3 clusters of 13 nodes, its
/// multilevel pipeline, deterministic positive traffic observed over
/// `BINS` bins, and the byte size of the smallest cluster block.
fn setup() -> (MultilevelPipeline, Observations, usize) {
    let cfg = HierarchicalConfig::new(3, 12, 20060419);
    let topo = hierarchical(&cfg).unwrap();
    let partition = Partition::from_assignment(&topo, &cfg.cluster_assignment()).unwrap();
    let n = topo.node_count();
    let mut tm = TmSeries::zeros(n, BINS, 300.0).unwrap();
    for t in 0..BINS {
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let v = 1e5 * (1.0 + ((i * 31 + j * 17 + t * 7) % 13) as f64);
                    tm.set(i, j, t, v).unwrap();
                }
            }
        }
    }
    let obs = ObservationModel::new(&topo, RoutingScheme::Ecmp)
        .unwrap()
        .observe(&tm)
        .unwrap();
    let smallest = (0..partition.cluster_count())
        .map(|c| partition.members(c).len())
        .min()
        .unwrap();
    let block_bytes = smallest * smallest * BINS * std::mem::size_of::<f64>();
    assert!(
        block_bytes > n * BINS * std::mem::size_of::<f64>(),
        "a cluster block must outweigh the nodes × bins matrices"
    );
    let ml = MultilevelPipeline::new(
        &topo,
        RoutingScheme::Ecmp,
        partition,
        EstimationConfig::new(),
    )
    .unwrap();
    (ml, obs, block_bytes)
}

fn estimate(ml: &MultilevelPipeline, obs: &Observations) -> (MultilevelEstimate, usize) {
    largest_allocation_during(|| {
        ml.estimate_parallel(&GravityPrior, obs, &Engine::serial())
            .unwrap()
    })
}

/// Every value of the estimate's coarse matrix, cluster blocks and shares.
fn bits(est: &MultilevelEstimate) -> Vec<u64> {
    let mut values = est.coarse.as_matrix().as_slice().to_vec();
    for block in &est.clusters {
        values.extend_from_slice(block.as_matrix().as_slice());
    }
    values.extend_from_slice(est.out_share.as_slice());
    values.extend_from_slice(est.in_share.as_slice());
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn first_call_allocates_cluster_blocks() {
    let (ml, obs, block_bytes) = setup();
    let (_, largest) = estimate(&ml, &obs);
    assert!(
        largest >= block_bytes,
        "largest allocation {largest} B, smallest cluster block {block_bytes} B"
    );
}

#[test]
fn call_after_drop_allocates_no_cluster_block() {
    let (ml, obs, block_bytes) = setup();
    let (first, _) = estimate(&ml, &obs);
    let want = bits(&first);
    drop(first);
    for call in 0..2 {
        let (warm, largest) = estimate(&ml, &obs);
        assert!(
            largest < block_bytes,
            "warm call {call}: largest allocation {largest} B, \
             smallest cluster block {block_bytes} B"
        );
        assert_eq!(bits(&warm), want, "warm call {call}");
    }
}

#[test]
fn call_while_estimate_alive_allocates_fresh_blocks_bit_identical() {
    let (ml, obs, block_bytes) = setup();
    let (first, _) = estimate(&ml, &obs);
    let want = bits(&first);
    let (second, largest) = estimate(&ml, &obs);
    assert!(
        largest >= block_bytes,
        "largest allocation {largest} B, smallest cluster block {block_bytes} B"
    );
    assert_eq!(bits(&second), want);
    assert_eq!(bits(&first), want, "the live estimate was written to");
}
