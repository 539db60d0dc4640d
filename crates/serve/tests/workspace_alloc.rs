//! Memory gate of `Service::poll`: solver buffers are a per-worker cost.
//! Every job of a poll, a tenant's IC-prior candidate and its gravity
//! baseline alike, runs on the engine worker's `PipelineWorkspace`, whose
//! normal solver factors the `rows × rows` Gram in place. So however many
//! tenants are registered, the live Gram-sized buffers after a poll are
//! one per worker: exactly one on `Engine::serial()`, at most two on a
//! 2-thread engine.
//!
//! A counting global allocator tracks the live allocations at least as
//! large as one tenant's Gram. The ring shape makes that Gram outweigh
//! every other allocation the service keeps (observation model, window
//! series, estimates), so the count is the number of Grams.
//!
//! This file holds exactly one `#[test]`: the counting allocator is
//! process-global, and a concurrent test would pollute the count.

use ic_core::{generate_synthetic, SynthConfig, TmSeries};
use ic_engine::Engine;
use ic_estimation::ObservationModel;
use ic_serve::{Service, TenantSpec};
use ic_topology::{RoutingScheme, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

struct LiveLargeAllocations;

/// Allocations of at least this many bytes are counted (`usize::MAX`
/// until the test sets it to the Gram's size).
static THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);
/// Counted allocations alive right now.
static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: delegates to `System` verbatim; the records are relaxed atomics
// with no other side effects. `realloc` and `alloc_zeroed` keep their
// default bodies, which go through `alloc` and `dealloc`.
unsafe impl GlobalAlloc for LiveLargeAllocations {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= THRESHOLD.load(Ordering::Relaxed) {
            LIVE.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if layout.size() >= THRESHOLD.load(Ordering::Relaxed) {
            LIVE.fetch_sub(1, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LiveLargeAllocations = LiveLargeAllocations;

const NODES: usize = 20;
const WINDOW_BINS: usize = 4;
const WINDOWS: usize = 3;

fn ring_topology(name: &str, n: usize) -> Topology {
    let mut t = Topology::new(name);
    let ids: Vec<usize> = (0..n)
        .map(|k| t.add_node(format!("n{k}")).unwrap())
        .collect();
    for k in 0..n {
        t.add_symmetric_link(ids[k], ids[(k + 1) % n], 1.0, 1e12)
            .unwrap();
    }
    t.add_symmetric_link(ids[0], ids[n / 2], 1.0, 1e12).unwrap();
    t
}

fn series_for(seed: u64) -> TmSeries {
    generate_synthetic(
        &SynthConfig::geant_like(seed)
            .with_nodes(NODES)
            .with_bins(WINDOW_BINS * WINDOWS),
    )
    .unwrap()
    .series
}

#[test]
fn polls_keep_one_gram_per_engine_worker_whatever_the_tenant_count() {
    let topo = ring_topology("ring", NODES);
    let model = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
    let rows = model.stacked_sparse().rows();
    let gram_bytes = rows * rows * std::mem::size_of::<f64>();
    // The window series and estimates are the next largest buffers.
    assert!(gram_bytes > NODES * NODES * WINDOW_BINS * std::mem::size_of::<f64>());
    drop(model);
    THRESHOLD.store(gram_bytes, Ordering::Relaxed);

    for threads in [1, 2] {
        for tenants in [1, 6] {
            let engine = if threads == 1 {
                Engine::serial()
            } else {
                Engine::new().with_threads(threads)
            };
            let before = LIVE.load(Ordering::Relaxed);
            let mut service = Service::with_engine(engine);
            let inputs: Vec<_> = (0..tenants)
                .map(|k| {
                    let name = format!("ring{k}");
                    let spec = TenantSpec::new(&name, &topo, RoutingScheme::Ecmp)
                        .with_window_bins(WINDOW_BINS);
                    (service.register(spec).unwrap(), series_for(40 + k as u64))
                })
                .collect();
            for t in 0..WINDOW_BINS * WINDOWS {
                for (id, series) in &inputs {
                    service.ingest(*id, series.column(t)).unwrap();
                }
                if (t + 1) % WINDOW_BINS != 0 {
                    continue;
                }
                let events = service.poll().unwrap();
                assert_eq!(events.len(), tenants);
                let live = LIVE.load(Ordering::Relaxed) - before;
                let window = t / WINDOW_BINS;
                if threads == 1 {
                    assert_eq!(
                        live, 1,
                        "serial engine, {tenants} tenant(s), window {window}: \
                         {live} Gram-sized buffers alive"
                    );
                } else {
                    assert!(
                        (1..=threads as isize).contains(&live),
                        "{threads} threads, {tenants} tenant(s), window {window}: \
                         {live} Gram-sized buffers alive, want at most {threads}"
                    );
                }
            }
            drop(service);
            assert_eq!(LIVE.load(Ordering::Relaxed), before, "{tenants} tenant(s)");
        }
    }
}
