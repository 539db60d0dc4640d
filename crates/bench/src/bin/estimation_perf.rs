//! Unified estimation performance benchmark — the sparse-vs-dense
//! headline numbers of the scaled-topology overhaul.
//!
//! Sweeps seeded hierarchical backbone/PoP topologies across sizes,
//! generates synthetic IC traffic on each, and times the tomogravity
//! refinement through both linear-algebra paths:
//!
//! * **sparse** — the production path: CSR `A W Aᵀ` with reusable
//!   [`TomogravityWorkspace`] buffers (allocation-free per bin once warm;
//!   the allocation counter below proves it);
//! * **dense** — the dense reference `refine_bin` on the materialized
//!   stacked operator (skipped above `--dense-max` nodes, where dense
//!   memory/time costs stop being measurable in CI).
//!
//! Also times the full prior → tomogravity → IPF pipeline on the sparse
//! path — serially and with bins sharded across an `ic-engine` worker
//! pool (`--threads`) — and emits a machine-readable
//! `BENCH_estimation.json` in the same style as `BENCH_streaming.json`,
//! consumed by the CI perf-regression gate (`perf_gate`). The parallel
//! estimate is asserted bit-identical to the serial one before it is
//! timed; the recorded `threads`/`shard_bins`/`cpus_available` metadata
//! makes the parallel numbers interpretable across machines (on a 1-CPU
//! runner the parallel speedup is necessarily ~1x).
//!
//! `--solver auto|dense|pcg` pins the [`SolverPolicy`] of the timed
//! flat paths (default `auto`); the multilevel solve reads no solver.
//! Independently of the chosen policy, every size also times a
//! forced-PCG refinement pass (`pcg_secs_per_bin`) and cross-checks it
//! against the policy path, so the matrix-free solver is always measured
//! and gated; solver counters (PCG iterations, stalls,
//! Cholesky→pseudo-inverse fallbacks) are logged per size.
//!
//! `--mode flat|multilevel|both` selects the decomposition paths under
//! test (default `both`). `both` augments every size with the
//! partition-aware multilevel solve (coarse quotient + per-cluster
//! blocks, [`MultilevelPipeline`]) on the same observations: its error
//! against the synthetic truth is asserted to stay within
//! `ML_ERR_MARGIN` of the flat pipeline's error **before** anything is
//! timed, and `multilevel_secs_per_bin` joins the perf-gated keys.
//! `multilevel` is the scale sweep the flat path cannot follow: a
//! streaming single-path observation generator produces link loads
//! without ever materializing the `links x n²` routing matrix or the
//! `n²` traffic vector, so 10k–20k-node topologies fit in bounded
//! memory; the flat pipeline is run for cross-checking and timing only
//! up to `--flat-max` nodes (default 1000), and the sweep writes
//! `BENCH_estimation_multilevel.json`.
//!
//! Usage: `estimation_perf [--scale smoke|full] [--sizes 50,100,200]
//! [--bins N] [--dense-max N] [--threads N] [--shard-bins N]
//! [--solver auto|dense|pcg] [--mode flat|multilevel|both]
//! [--flat-max N] [--out PATH]`.

use ic_bench::{arg_value, json_f, out_path, Scale};
use ic_core::{generate_synthetic, mean_rel_l2, SynthConfig, TmSeries};
use ic_engine::{default_threads, Engine, WorkspacePool};
use ic_estimation::{
    EstimationConfig, EstimationPipeline, GravityPrior, MultilevelPipeline, ObservationModel,
    Observations, PipelineMetrics, PipelineWorkspace, SolveStats, SolverPolicy, TmPrior,
    Tomogravity, TomogravityOptions, TomogravityWorkspace,
};
use ic_linalg::Matrix;
use ic_obs::{MetricsRegistry, Span};
use ic_topology::{hierarchical, HierarchicalConfig, Partition, RoutingScheme, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts heap allocations so the bench can report that the sparse
/// workspace path really is allocation-free per bin after warm-up.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates to `System` verbatim; the counter is a relaxed atomic
// with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Runs `f` repeatedly until `target_secs` of wall clock accumulates (or
/// `max_reps` is hit) and returns the **minimum** single-run time — the
/// standard robust estimator for short benchmarks, which is what keeps the
/// smoke-scale numbers stable enough for a 25% CI regression gate.
fn time_min(mut f: impl FnMut(), target_secs: f64, max_reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    let start = Instant::now();
    for _ in 0..max_reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= target_secs {
            break;
        }
    }
    best
}

struct SizeResult {
    nodes: usize,
    links: usize,
    nnz: usize,
    density: f64,
    bins: usize,
    sparse_secs_per_bin: f64,
    dense_secs_per_bin: Option<f64>,
    speedup_vs_dense: Option<f64>,
    pipeline_secs_per_bin: f64,
    parallel_pipeline_secs_per_bin: f64,
    parallel_speedup: f64,
    allocs_per_bin_warm: u64,
    max_rel_diff_vs_dense: Option<f64>,
    /// Forced-PCG refinement time (measured even when the policy path
    /// resolved to dense, so the matrix-free solver is always gated).
    pcg_secs_per_bin: f64,
    /// Mean PCG iterations per forced-PCG solve.
    pcg_iterations_per_solve: f64,
    /// Solver counters of the policy path over one counted bin sweep.
    solve_stats: SolveStats,
    /// Pipeline time with `ic-obs` stage metrics attached — the
    /// metrics-overhead gate compares this against the bare
    /// `pipeline_secs_per_bin`.
    instrumented_pipeline_secs_per_bin: f64,
    /// Warm-sweep allocations per bin with a span recording each refine
    /// into a registry histogram. Must stay 0: metric recording is
    /// clock reads and relaxed atomics only.
    instrumented_allocs_per_bin_warm: u64,
    /// Multilevel solve on the same observations (`--mode both`): timing
    /// plus the truth-relative errors of both paths, asserted within
    /// `ML_ERR_MARGIN` before the timing ran.
    multilevel: Option<MlNumbers>,
}

fn default_sizes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![20, 50],
        Scale::Full => vec![50, 100, 200],
    }
}

fn parse_sizes(spec: &str) -> Vec<usize> {
    let sizes: Vec<usize> = spec
        .split(',')
        .filter_map(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 10)
        .collect();
    assert!(
        !sizes.is_empty(),
        "--sizes {spec:?} contains no valid size (comma-separated integers >= 10); \
         refusing to run an empty sweep"
    );
    sizes
}

fn parse_solver(spec: &str) -> SolverPolicy {
    match spec {
        "auto" => SolverPolicy::Auto,
        "dense" => SolverPolicy::Dense,
        "pcg" => SolverPolicy::Pcg,
        other => panic!("--solver {other:?} is not one of auto|dense|pcg"),
    }
}

/// Which decomposition paths a run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The classic flat sweep only.
    Flat,
    /// The multilevel scale sweep with its streaming observation
    /// generator; flat runs for cross-checking up to `--flat-max`.
    Multilevel,
    /// The flat sweep with the multilevel solve piggybacked on every
    /// size (the CI default, so `multilevel_secs_per_bin` is always
    /// emitted and gated).
    Both,
}

fn parse_mode(spec: &str) -> Mode {
    match spec {
        "flat" => Mode::Flat,
        "multilevel" => Mode::Multilevel,
        "both" => Mode::Both,
        other => panic!("--mode {other:?} is not one of flat|multilevel|both"),
    }
}

/// How much worse (mean relative L2 vs truth) the multilevel estimate
/// may be than the flat estimate before the bench fails. The coarse
/// level loses intra-vs-inter attribution detail, so a small additive
/// margin is expected; a blow-up here means the decomposition is broken,
/// and the assertion fires before any multilevel timing is recorded.
const ML_ERR_MARGIN: f64 = 0.25;

/// Groups the generator's per-backbone clusters (10 nodes each) into
/// contiguous super-clusters of roughly `2·sqrt(n)` nodes. Per-backbone
/// clusters would make the quotient itself a large ring — coarse paths
/// of O(k) hops and a quadratic-in-k coarse solve — while sqrt-sized
/// groups balance the coarse solve against the per-cluster solves.
fn grouped_partition(topo: &Topology, cfg: &HierarchicalConfig) -> Partition {
    let backbone_of = cfg.cluster_assignment();
    let target = ((topo.node_count() as f64).sqrt() / 2.0).round().max(2.0) as usize;
    let group = cfg.backbones.div_ceil(target).max(1);
    let assign: Vec<usize> = backbone_of.iter().map(|&k| k / group).collect();
    Partition::from_assignment(topo, &assign)
        .expect("contiguous backbone groups are a valid partition")
}

/// splitmix64: the bench's deterministic weight source (no RNG state to
/// thread through).
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Normalized gravity weights in `[0.25, 2.0)` before normalization —
/// enough spread to make the solve non-trivial, no heavy tail that
/// would starve small clusters of traffic.
fn gravity_weights(n: usize, salt: u64) -> Vec<f64> {
    let mut w: Vec<f64> = (0..n)
        .map(|i| 0.25 + 1.75 * (splitmix(salt ^ (i as u64)) as f64 / u64::MAX as f64))
        .collect();
    let sum: f64 = w.iter().sum();
    for v in &mut w {
        *v /= sum;
    }
    w
}

/// Min-heap entry for the generator's Dijkstra (reversed distance order,
/// node-id tie-break for determinism — same rule as `ic-topology`).
#[derive(PartialEq)]
struct MinDist {
    dist: f64,
    node: usize,
}

impl Eq for MinDist {}

impl PartialOrd for MinDist {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MinDist {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(core::cmp::Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Streaming single-path link loads for a unit-total gravity matrix
/// `T[s][t] = o[s]·d[t]` (`s ≠ t`): one reverse Dijkstra per destination
/// plus a flow-accumulation pass down the forwarding tree, replicating
/// `RoutingScheme::SinglePath`'s lowest-link-id tie-break. `O(n·(m +
/// n log n))` time and `O(n + m)` working memory — never the `links x
/// n²` routing matrix, which is what lets the multilevel sweep reach
/// sizes the flat observation model cannot.
fn single_path_unit_loads(topo: &Topology, o: &[f64], d: &[f64]) -> Vec<f64> {
    const EPS: f64 = 1e-9;
    let n = topo.node_count();
    let links = topo.links();
    // Reverse adjacency for the to-destination Dijkstra, forward
    // adjacency in link-id order for the deterministic next-hop pick.
    let mut rev: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    let mut fwd: Vec<Vec<(usize, usize, f64)>> = vec![Vec::new(); n];
    for (lid, l) in links.iter().enumerate() {
        rev[l.to].push((l.from, l.igp_weight));
        fwd[l.from].push((lid, l.to, l.igp_weight));
    }
    let mut y = vec![0.0; links.len()];
    let mut dist = vec![f64::INFINITY; n];
    let mut done = vec![false; n];
    let mut load = vec![0.0; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    for t in 0..n {
        dist.fill(f64::INFINITY);
        done.fill(false);
        order.clear();
        dist[t] = 0.0;
        let mut heap = BinaryHeap::new();
        heap.push(MinDist { dist: 0.0, node: t });
        while let Some(MinDist { dist: du, node: u }) = heap.pop() {
            if done[u] {
                continue;
            }
            done[u] = true;
            order.push(u);
            for &(from, w) in &rev[u] {
                let nd = du + w;
                if nd + EPS < dist[from] {
                    dist[from] = nd;
                    heap.push(MinDist {
                        dist: nd,
                        node: from,
                    });
                }
            }
        }
        assert_eq!(
            order.len(),
            n,
            "generator requires a strongly connected topology"
        );
        // Farthest-first: every node's accumulated load is final before
        // it is pushed one hop closer to `t` (positive weights make the
        // next hop strictly closer).
        for &s in order.iter().rev() {
            if s == t {
                continue;
            }
            load[s] += o[s] * d[t];
            let mut pushed = false;
            for &(lid, to, w) in &fwd[s] {
                if (w + dist[to] - dist[s]).abs() < EPS {
                    y[lid] += load[s];
                    load[to] += load[s];
                    pushed = true;
                    break; // lowest link id, as in RoutingScheme::SinglePath
                }
            }
            assert!(pushed, "no shortest-path next hop from node {s}");
            load[s] = 0.0;
        }
        load[t] = 0.0;
    }
    y
}

/// Multilevel numbers piggybacked on a flat size sweep (`--mode both`).
struct MlNumbers {
    clusters: usize,
    boundary_link_fraction: f64,
    secs_per_bin: f64,
    rel_err: f64,
    flat_rel_err: f64,
}

/// One size of the `--mode multilevel` scale sweep.
struct MlSizeResult {
    nodes: usize,
    links: usize,
    clusters: usize,
    boundary_link_fraction: f64,
    bins: usize,
    multilevel_secs_per_bin: f64,
    flat_secs_per_bin: Option<f64>,
    speedup_vs_flat: Option<f64>,
    multilevel_rel_err: Option<f64>,
    flat_rel_err: Option<f64>,
}

/// Benches one size of the multilevel scale sweep: streaming
/// observations, multilevel solve timing, and — up to `flat_max` nodes —
/// the flat pipeline on the same observations for the accuracy assertion
/// and the speedup column.
fn bench_multilevel_size(
    nodes: usize,
    bins: usize,
    flat_max: usize,
    engine: Engine,
    policy: SolverPolicy,
) -> MlSizeResult {
    let cfg = HierarchicalConfig::new((nodes / 10).max(1), 9, 20060419);
    let topo = hierarchical(&cfg).expect("generator config is valid");
    let n = topo.node_count();
    let links = topo.link_count();
    let partition = grouped_partition(&topo, &cfg);
    let clusters = partition.cluster_count();
    let boundary_link_fraction = partition.boundary_link_fraction();

    // Gravity truth `T[i][j](b) = total_b·o_i·d_j`, observed under
    // single-path routing by the streaming generator; marginals are
    // analytic (`Σ_{j≠i} d_j = 1 − d_i`), so nothing `n²`-sized exists
    // unless the flat cross-check below materializes the truth.
    let o = gravity_weights(n, 0xA11C_E5EE_D000 + n as u64);
    let d = gravity_weights(n, 0xB0B5_EED0_0000 + n as u64);
    let y_unit = single_path_unit_loads(&topo, &o, &d);
    let totals: Vec<f64> = (0..bins)
        .map(|b| n as f64 * 1e6 * (1.0 + 0.1 * b as f64))
        .collect();
    let mut obs = Observations {
        y: Matrix::zeros(links, bins),
        ingress: Matrix::zeros(n, bins),
        egress: Matrix::zeros(n, bins),
        bin_seconds: 300.0,
    };
    for (b, &total) in totals.iter().enumerate() {
        for (l, &unit) in y_unit.iter().enumerate() {
            obs.y[(l, b)] = unit * total;
        }
        for i in 0..n {
            obs.ingress[(i, b)] = total * o[i] * (1.0 - d[i]);
            obs.egress[(i, b)] = total * d[i] * (1.0 - o[i]);
        }
    }

    let ml = MultilevelPipeline::new(
        &topo,
        RoutingScheme::SinglePath,
        partition,
        EstimationConfig::new(),
    )
    .expect("quotient of backbone groups is strongly connected");

    // Flat cross-check, only where the full `links x n²` observation
    // model is tractable. The accuracy assertion runs before any timing.
    let (flat_secs_per_bin, multilevel_rel_err, flat_rel_err) = if n <= flat_max {
        let om =
            ObservationModel::new(&topo, RoutingScheme::SinglePath).expect("strongly connected");
        let flat = EstimationPipeline::new(om).config(EstimationConfig::new().with_solver(policy));
        let mut pws = PipelineWorkspace::new();
        let flat_est = flat
            .estimate_with(&GravityPrior, &obs, &mut pws)
            .expect("flat estimate");
        let mut truth = TmSeries::zeros(n, bins, 300.0).expect("truth dims");
        for (b, &total) in totals.iter().enumerate() {
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        truth
                            .set(i, j, b, total * o[i] * d[j])
                            .expect("truth in bounds");
                    }
                }
            }
        }
        let ml_mat = ml
            .estimate_parallel(&GravityPrior, &obs, &engine)
            .expect("multilevel estimate")
            .materialize()
            .expect("materialize");
        let ml_err = mean_rel_l2(&truth, &ml_mat).expect("series align");
        let flat_err = mean_rel_l2(&truth, &flat_est).expect("series align");
        assert!(
            ml_err <= flat_err + ML_ERR_MARGIN,
            "multilevel error {ml_err:.4} exceeds flat {flat_err:.4} + {ML_ERR_MARGIN} at {n} nodes"
        );
        let secs = time_min(
            || {
                flat.estimate_with(&GravityPrior, &obs, &mut pws)
                    .expect("flat estimate");
            },
            0.5,
            20,
        );
        (Some(secs / bins as f64), Some(ml_err), Some(flat_err))
    } else {
        (None, None, None)
    };

    ml.estimate_parallel(&GravityPrior, &obs, &engine)
        .expect("multilevel warm-up");
    let ml_secs = time_min(
        || {
            ml.estimate_parallel(&GravityPrior, &obs, &engine)
                .expect("multilevel estimate");
        },
        0.5,
        50,
    );
    let multilevel_secs_per_bin = ml_secs / bins as f64;
    MlSizeResult {
        nodes: n,
        links,
        clusters,
        boundary_link_fraction,
        bins,
        multilevel_secs_per_bin,
        flat_secs_per_bin,
        speedup_vs_flat: flat_secs_per_bin.map(|f| f / multilevel_secs_per_bin),
        multilevel_rel_err,
        flat_rel_err,
    }
}

fn bench_size(
    nodes: usize,
    bins: usize,
    dense_max: usize,
    engine: Engine,
    policy: SolverPolicy,
    with_multilevel: bool,
) -> SizeResult {
    // Hierarchical topology: nodes/10 backbones with 9 PoPs each, so the
    // node count lands exactly on the requested size for multiples of 10.
    let cfg = HierarchicalConfig::new((nodes / 10).max(1), 9, 20060419);
    let topo = hierarchical(&cfg).expect("generator config is valid");
    let n = topo.node_count();
    let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).expect("strongly connected");
    let synth = SynthConfig::geant_like(7 + n as u64)
        .with_nodes(n)
        .with_bins(bins);
    let truth = generate_synthetic(&synth)
        .expect("valid synth config")
        .series;
    let obs = om.observe(&truth).expect("observe");
    let prior = GravityPrior.prior_series(&obs).expect("gravity prior");
    let tomo = Tomogravity::new(TomogravityOptions::default().with_solver(policy));

    // Sparse path: series refine through the reusable workspace, with a
    // one-bin warm-up so the timed region measures steady state.
    let a = om.stacked_sparse();
    let at = om.stacked_transpose();
    let mut ws = TomogravityWorkspace::new();
    let xp0 = prior.column(0);
    let b0 = obs.stacked_at(0);
    tomo.refine_bin_sparse_with(a, at, &xp0, &b0, &mut ws)
        .expect("warm-up refine");
    let mut xp = vec![0.0; n * n];
    let mut b = vec![0.0; obs.stacked_len()];
    // Allocation count of one warm pass (measured outside the timing reps
    // so the input fills don't blur it). Solver counters are reset first
    // so the snapshot covers exactly this bin sweep.
    ws.reset_solve_stats();
    let allocs_before = allocations();
    for t in 0..bins {
        for (row, slot) in xp.iter_mut().enumerate() {
            *slot = prior.as_matrix()[(row, t)];
        }
        obs.stacked_at_into(t, &mut b).expect("stacked obs");
        tomo.refine_bin_sparse_with(a, at, &xp, &b, &mut ws)
            .expect("sparse refine");
    }
    let allocs_per_bin_warm = (allocations() - allocs_before) / bins as u64;
    let solve_stats = ws.solve_stats();
    let sparse_last: Vec<f64> = ws.solution().to_vec();

    // Sparse timing: min over repetitions of the whole bin sweep.
    let sparse_secs = time_min(
        || {
            for t in 0..bins {
                for (row, slot) in xp.iter_mut().enumerate() {
                    *slot = prior.as_matrix()[(row, t)];
                }
                obs.stacked_at_into(t, &mut b).expect("stacked obs");
                tomo.refine_bin_sparse_with(a, at, &xp, &b, &mut ws)
                    .expect("sparse refine");
            }
        },
        0.5,
        200,
    );
    let sparse_secs_per_bin = sparse_secs / bins as f64;

    // The same warm sweep with every refine wrapped in a recording span:
    // proves the zero-allocation warm path survives instrumentation.
    let registry = MetricsRegistry::new();
    let refine_hist = registry.histogram("bench.refine.seconds");
    let allocs_before = allocations();
    for t in 0..bins {
        for (row, slot) in xp.iter_mut().enumerate() {
            *slot = prior.as_matrix()[(row, t)];
        }
        obs.stacked_at_into(t, &mut b).expect("stacked obs");
        let span = Span::start(&refine_hist);
        tomo.refine_bin_sparse_with(a, at, &xp, &b, &mut ws)
            .expect("instrumented sparse refine");
        drop(span);
    }
    let instrumented_allocs_per_bin_warm = (allocations() - allocs_before) / bins as u64;
    assert_eq!(refine_hist.count(), bins as u64);

    // Dense reference path, where tractable.
    let (dense_secs_per_bin, max_rel_diff_vs_dense) = if n <= dense_max {
        let a_dense = om.stacked().expect("dense stacked");
        let mut dense_last = Vec::new();
        let dense_secs = time_min(
            || {
                for t in 0..bins {
                    for (row, slot) in xp.iter_mut().enumerate() {
                        *slot = prior.as_matrix()[(row, t)];
                    }
                    obs.stacked_at_into(t, &mut b).expect("stacked obs");
                    dense_last = tomo.refine_bin(&a_dense, &xp, &b).expect("dense refine");
                }
            },
            0.5,
            50,
        );
        // Cross-check: both paths refined the same last bin.
        let scale: f64 = dense_last.iter().fold(1.0_f64, |m, &v| m.max(v.abs()));
        let diff = sparse_last
            .iter()
            .zip(dense_last.iter())
            .fold(0.0_f64, |m, (&s, &d)| m.max((s - d).abs()));
        (Some(dense_secs / bins as f64), Some(diff / scale))
    } else {
        (None, None)
    };

    // Forced-PCG refinement pass. When the policy path already ran pure
    // PCG (no dense solves), its numbers are reused; otherwise a second
    // sweep with a pinned-PCG tomogravity measures the matrix-free
    // solver at this size and is cross-checked against the policy path.
    let (pcg_secs_per_bin, pcg_iterations_per_solve) =
        if solve_stats.dense_solves == 0 && solve_stats.pcg_solves > 0 {
            (
                sparse_secs_per_bin,
                solve_stats.pcg_iterations as f64 / solve_stats.pcg_solves as f64,
            )
        } else {
            let tomo_pcg =
                Tomogravity::new(TomogravityOptions::default().with_solver(SolverPolicy::Pcg));
            let mut ws_pcg = TomogravityWorkspace::new();
            let mut pcg_last = Vec::new();
            let pcg_secs = time_min(
                || {
                    for t in 0..bins {
                        for (row, slot) in xp.iter_mut().enumerate() {
                            *slot = prior.as_matrix()[(row, t)];
                        }
                        obs.stacked_at_into(t, &mut b).expect("stacked obs");
                        tomo_pcg
                            .refine_bin_sparse_with(a, at, &xp, &b, &mut ws_pcg)
                            .expect("pcg refine");
                    }
                    pcg_last.clear();
                    pcg_last.extend_from_slice(ws_pcg.solution());
                },
                0.5,
                200,
            );
            // Cross-check: PCG refined the same last bin as the policy
            // path, within estimation tolerance.
            let scale: f64 = sparse_last.iter().fold(1.0_f64, |m, &v| m.max(v.abs()));
            let diff = sparse_last
                .iter()
                .zip(pcg_last.iter())
                .fold(0.0_f64, |m, (&s, &p)| m.max((s - p).abs()));
            assert!(
                diff <= 1e-6 * scale,
                "forced-PCG refinement disagrees with the policy path at {n} nodes: \
                 rel diff {}",
                diff / scale
            );
            let st = ws_pcg.solve_stats();
            (
                pcg_secs / bins as f64,
                st.pcg_iterations as f64 / st.pcg_solves.max(1) as f64,
            )
        };

    // Full sparse pipeline (prior + tomogravity + IPF) for context.
    let pipeline = EstimationPipeline::new(om).config(EstimationConfig::new().with_solver(policy));
    let mut pws = PipelineWorkspace::new();
    let serial_est = pipeline
        .estimate_with(&GravityPrior, &obs, &mut pws)
        .expect("pipeline warm-up");
    let pipeline_secs = time_min(
        || {
            pipeline
                .estimate_with(&GravityPrior, &obs, &mut pws)
                .expect("pipeline estimate");
        },
        0.5,
        200,
    );
    let pipeline_secs_per_bin = pipeline_secs / bins as f64;

    // The same pipeline with bins sharded across the engine's worker
    // pool. Warm up the per-worker workspaces, prove bit-identity to the
    // serial run, then time the steady state.
    let pool = WorkspacePool::new();
    let parallel_est = pipeline
        .estimate_parallel_pooled(&GravityPrior, &obs, &engine, &pool)
        .expect("parallel warm-up");
    assert_eq!(
        parallel_est, serial_est,
        "parallel estimate must be bit-identical to serial at {n} nodes"
    );
    let parallel_secs = time_min(
        || {
            pipeline
                .estimate_parallel_pooled(&GravityPrior, &obs, &engine, &pool)
                .expect("parallel estimate");
        },
        0.5,
        200,
    );
    let parallel_pipeline_secs_per_bin = parallel_secs / bins as f64;

    // The serial pipeline with stage metrics attached: bit-identical
    // output, and the timing difference vs the bare run is the whole
    // observability overhead.
    let instrumented_pipeline = pipeline.clone().config(
        pipeline
            .estimation_config()
            .clone()
            .with_metrics(PipelineMetrics::register(&registry)),
    );
    let instrumented_est = instrumented_pipeline
        .estimate_with(&GravityPrior, &obs, &mut pws)
        .expect("instrumented warm-up");
    assert_eq!(
        instrumented_est, serial_est,
        "instrumented estimate must be bit-identical to bare at {n} nodes"
    );
    let instrumented_secs = time_min(
        || {
            instrumented_pipeline
                .estimate_with(&GravityPrior, &obs, &mut pws)
                .expect("instrumented estimate");
        },
        0.5,
        200,
    );
    let instrumented_pipeline_secs_per_bin = instrumented_secs / bins as f64;

    // Multilevel solve on the same observations: accuracy vs truth is
    // asserted against the flat pipeline's accuracy before the timing,
    // so a broken decomposition can never post a (meaningless) time.
    let multilevel = if with_multilevel {
        let partition = grouped_partition(&topo, &cfg);
        let clusters = partition.cluster_count();
        let boundary_link_fraction = partition.boundary_link_fraction();
        let ml = MultilevelPipeline::new(
            &topo,
            RoutingScheme::Ecmp,
            partition,
            EstimationConfig::new(),
        )
        .expect("quotient of backbone groups is strongly connected");
        let ml_mat = ml
            .estimate_parallel(&GravityPrior, &obs, &engine)
            .expect("multilevel warm-up")
            .materialize()
            .expect("materialize");
        let rel_err = mean_rel_l2(&truth, &ml_mat).expect("series align");
        let flat_rel_err = mean_rel_l2(&truth, &serial_est).expect("series align");
        assert!(
            rel_err <= flat_rel_err + ML_ERR_MARGIN,
            "multilevel error {rel_err:.4} exceeds flat {flat_rel_err:.4} + {ML_ERR_MARGIN} \
             at {n} nodes"
        );
        let secs = time_min(
            || {
                ml.estimate_parallel(&GravityPrior, &obs, &engine)
                    .expect("multilevel estimate");
            },
            0.5,
            200,
        );
        Some(MlNumbers {
            clusters,
            boundary_link_fraction,
            secs_per_bin: secs / bins as f64,
            rel_err,
            flat_rel_err,
        })
    } else {
        None
    };

    let sparse = pipeline.model().stacked_sparse();
    SizeResult {
        nodes: n,
        links: pipeline.model().links(),
        nnz: sparse.nnz(),
        density: sparse.density(),
        bins,
        sparse_secs_per_bin,
        dense_secs_per_bin,
        speedup_vs_dense: dense_secs_per_bin.map(|d| d / sparse_secs_per_bin),
        pipeline_secs_per_bin,
        parallel_pipeline_secs_per_bin,
        parallel_speedup: pipeline_secs_per_bin / parallel_pipeline_secs_per_bin,
        allocs_per_bin_warm,
        max_rel_diff_vs_dense,
        pcg_secs_per_bin,
        pcg_iterations_per_solve,
        solve_stats,
        instrumented_pipeline_secs_per_bin,
        instrumented_allocs_per_bin_warm,
        multilevel,
    }
}

fn main() {
    let scale = Scale::from_args();
    let sizes = arg_value("--sizes")
        .map(|s| parse_sizes(&s))
        .unwrap_or_else(|| default_sizes(scale));
    let bins: usize = arg_value("--bins")
        .and_then(|s| s.parse().ok())
        .unwrap_or(match scale {
            Scale::Smoke => 4,
            Scale::Full => 3,
        });
    let dense_max: usize = arg_value("--dense-max")
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let threads: usize = arg_value("--threads")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(default_threads);
    // Per-bin shards by default: a tomogravity bin is coarse enough that
    // scheduling overhead is invisible, and it maximizes the usable
    // parallelism of short bin sweeps.
    let shard_bins: usize = arg_value("--shard-bins")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let solver = arg_value("--solver").map_or(SolverPolicy::Auto, |s| parse_solver(&s));
    let mode = arg_value("--mode").map_or(Mode::Both, |s| parse_mode(&s));
    let flat_max: usize = arg_value("--flat-max")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1000);
    let engine = Engine::new()
        .with_threads(threads)
        .with_shard_bins(shard_bins);
    if mode == Mode::Multilevel {
        // The scale sweep has its own default sizes: the whole point is
        // territory beyond the flat defaults.
        let ml_sizes = arg_value("--sizes")
            .map(|s| parse_sizes(&s))
            .unwrap_or_else(|| match scale {
                Scale::Smoke => vec![200, 500],
                Scale::Full => vec![1000, 2000, 5000],
            });
        run_multilevel_sweep(scale, &ml_sizes, bins, flat_max, engine, solver);
        return;
    }
    println!(
        "# estimation_perf ({scale:?}): sizes {sizes:?}, {bins} bins, dense-max {dense_max}, \
         solver {solver:?}, {} threads x {}-bin shards \
         ({} cpus available)",
        engine.threads(),
        engine.shard_bins(),
        default_threads(),
    );
    println!(
        "# nodes\tlinks\tnnz\tdensity\tsparse_s/bin\tdense_s/bin\tspeedup\tpcg_s/bin\tpar_s/bin\tpar_speedup\tallocs/bin"
    );
    let mut results = Vec::new();
    for &size in &sizes {
        let r = bench_size(size, bins, dense_max, engine, solver, mode == Mode::Both);
        println!(
            "{}\t{}\t{}\t{:.5}\t{:.5}\t{}\t{}\t{:.5}\t{:.5}\t{:.2}x\t{}",
            r.nodes,
            r.links,
            r.nnz,
            r.density,
            r.sparse_secs_per_bin,
            r.dense_secs_per_bin
                .map(|v| format!("{v:.5}"))
                .unwrap_or_else(|| "-".to_string()),
            r.speedup_vs_dense
                .map(|v| format!("{v:.1}x"))
                .unwrap_or_else(|| "-".to_string()),
            r.pcg_secs_per_bin,
            r.parallel_pipeline_secs_per_bin,
            r.parallel_speedup,
            r.allocs_per_bin_warm,
        );
        // Satellite of the solver refactor: the once-silent
        // pseudo-inverse fallback (and all PCG work) is logged per size.
        let st = &r.solve_stats;
        println!(
            "#   solver @ {} nodes: {} dense / {} pcg solves, {} pcg iters \
             ({:.1}/solve forced-pcg), {} stalls, {} fallbacks",
            r.nodes,
            st.dense_solves,
            st.pcg_solves,
            st.pcg_iterations,
            r.pcg_iterations_per_solve,
            st.pcg_stalls,
            st.fallbacks,
        );
        // Metrics-overhead gate: stage spans are two clock reads and a
        // few relaxed atomics per bin, so the instrumented pipeline must
        // stay within noise of the bare one. 1.5x is far above any real
        // span cost and still catches an accidentally hot-path allocation
        // or lock.
        println!(
            "#   metrics @ {} nodes: instrumented pipeline {:.5} s/bin vs bare {:.5} \
             ({:+.1}% overhead), {} allocs/bin warm",
            r.nodes,
            r.instrumented_pipeline_secs_per_bin,
            r.pipeline_secs_per_bin,
            (r.instrumented_pipeline_secs_per_bin / r.pipeline_secs_per_bin - 1.0) * 100.0,
            r.instrumented_allocs_per_bin_warm,
        );
        assert!(
            r.instrumented_pipeline_secs_per_bin <= 1.5 * r.pipeline_secs_per_bin,
            "metrics overhead too high at {} nodes: instrumented {:.6} s/bin vs bare {:.6}",
            r.nodes,
            r.instrumented_pipeline_secs_per_bin,
            r.pipeline_secs_per_bin,
        );
        assert_eq!(
            r.instrumented_allocs_per_bin_warm, 0,
            "instrumented warm refine sweep allocated at {} nodes",
            r.nodes
        );
        if let Some(ml) = &r.multilevel {
            println!(
                "#   multilevel @ {} nodes: {} clusters ({:.1}% boundary links), \
                 {:.5} s/bin vs flat {:.5} ({:.2}x), rel err {:.4} vs flat {:.4}",
                r.nodes,
                ml.clusters,
                ml.boundary_link_fraction * 100.0,
                ml.secs_per_bin,
                r.pipeline_secs_per_bin,
                r.pipeline_secs_per_bin / ml.secs_per_bin,
                ml.rel_err,
                ml.flat_rel_err,
            );
        }
        if let Some(diff) = r.max_rel_diff_vs_dense {
            // PCG solves to a 1e-12 relative residual, not to machine
            // epsilon, so when the policy path ran PCG the dense
            // cross-check gets estimation tolerance instead of the
            // bit-level dense-vs-sparse bound.
            let tol = if r.solve_stats.pcg_solves > 0 {
                1e-6
            } else {
                1e-9
            };
            assert!(
                diff < tol,
                "sparse and dense refinements disagree at {} nodes: {diff}",
                r.nodes
            );
        }
        results.push(r);
    }
    let entries: Vec<String> = results
        .iter()
        .map(|r| {
            let ml_json = r.multilevel.as_ref().map_or_else(String::new, |ml| {
                format!(
                    ",\"multilevel_secs_per_bin\":{},\"multilevel_clusters\":{},\
                     \"multilevel_boundary_link_fraction\":{},\
                     \"multilevel_rel_err\":{},\"multilevel_flat_rel_err\":{}",
                    json_f(ml.secs_per_bin),
                    ml.clusters,
                    json_f(ml.boundary_link_fraction),
                    json_f(ml.rel_err),
                    json_f(ml.flat_rel_err),
                )
            });
            format!(
                "{{\"nodes\":{},\"links\":{},\"nnz\":{},\"density\":{},\"bins\":{},\
                 \"sparse_refine_secs_per_bin\":{},\"dense_refine_secs_per_bin\":{},\
                 \"speedup_vs_dense\":{},\"pcg_secs_per_bin\":{},\
                 \"pcg_iterations_per_solve\":{},\"fallbacks\":{},\
                 \"pipeline_secs_per_bin\":{},\
                 \"parallel_pipeline_secs_per_bin\":{},\"parallel_speedup\":{},\
                 \"allocs_per_bin_warm\":{},\
                 \"instrumented_pipeline_secs_per_bin\":{},\
                 \"instrumented_allocs_per_bin_warm\":{}{}}}",
                r.nodes,
                r.links,
                r.nnz,
                json_f(r.density),
                r.bins,
                json_f(r.sparse_secs_per_bin),
                r.dense_secs_per_bin
                    .map(json_f)
                    .unwrap_or_else(|| "null".to_string()),
                r.speedup_vs_dense
                    .map(json_f)
                    .unwrap_or_else(|| "null".to_string()),
                json_f(r.pcg_secs_per_bin),
                json_f(r.pcg_iterations_per_solve),
                r.solve_stats.fallbacks,
                json_f(r.pipeline_secs_per_bin),
                json_f(r.parallel_pipeline_secs_per_bin),
                json_f(r.parallel_speedup),
                r.allocs_per_bin_warm,
                json_f(r.instrumented_pipeline_secs_per_bin),
                r.instrumented_allocs_per_bin_warm,
                ml_json,
            )
        })
        .collect();
    let json = format!(
        "{{\"scale\":\"{scale:?}\",\"bins\":{bins},\"dense_max\":{dense_max},\
         \"solver\":\"{solver:?}\",\
         \"threads\":{},\"shard_bins\":{},\"cpus_available\":{},\"results\":[{}]}}\n",
        engine.threads(),
        engine.shard_bins(),
        default_threads(),
        entries.join(",")
    );
    let path = out_path("BENCH_estimation.json");
    std::fs::write(&path, &json).expect("write BENCH_estimation.json");
    println!("# wrote {path}");
    print!("{json}");
}

/// The `--mode multilevel` scale sweep: sizes the flat observation model
/// cannot reach, timed through the partition-aware decomposition, with a
/// flat cross-check (accuracy asserted before timing) up to `flat_max`
/// nodes. Writes `BENCH_estimation_multilevel.json`.
fn run_multilevel_sweep(
    scale: Scale,
    sizes: &[usize],
    bins: usize,
    flat_max: usize,
    engine: Engine,
    solver: SolverPolicy,
) {
    println!(
        "# estimation_perf ({scale:?}, multilevel): sizes {sizes:?}, {bins} bins, \
         flat-max {flat_max}, solver {solver:?}, {} threads ({} cpus available)",
        engine.threads(),
        default_threads(),
    );
    println!(
        "# nodes\tlinks\tclusters\tboundary%\tml_s/bin\tflat_s/bin\tspeedup\tml_err\tflat_err"
    );
    let mut results = Vec::new();
    for &size in sizes {
        let r = bench_multilevel_size(size, bins, flat_max, engine, solver);
        println!(
            "{}\t{}\t{}\t{:.1}\t{:.5}\t{}\t{}\t{}\t{}",
            r.nodes,
            r.links,
            r.clusters,
            r.boundary_link_fraction * 100.0,
            r.multilevel_secs_per_bin,
            r.flat_secs_per_bin
                .map(|v| format!("{v:.5}"))
                .unwrap_or_else(|| "-".to_string()),
            r.speedup_vs_flat
                .map(|v| format!("{v:.1}x"))
                .unwrap_or_else(|| "-".to_string()),
            r.multilevel_rel_err
                .map(|v| format!("{v:.4}"))
                .unwrap_or_else(|| "-".to_string()),
            r.flat_rel_err
                .map(|v| format!("{v:.4}"))
                .unwrap_or_else(|| "-".to_string()),
        );
        results.push(r);
    }
    let entries: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "{{\"nodes\":{},\"links\":{},\"clusters\":{},\
                 \"boundary_link_fraction\":{},\"bins\":{},\
                 \"multilevel_secs_per_bin\":{},\"flat_pipeline_secs_per_bin\":{},\
                 \"speedup_vs_flat\":{},\"multilevel_rel_err\":{},\"flat_rel_err\":{}}}",
                r.nodes,
                r.links,
                r.clusters,
                json_f(r.boundary_link_fraction),
                r.bins,
                json_f(r.multilevel_secs_per_bin),
                r.flat_secs_per_bin
                    .map(json_f)
                    .unwrap_or_else(|| "null".to_string()),
                r.speedup_vs_flat
                    .map(json_f)
                    .unwrap_or_else(|| "null".to_string()),
                r.multilevel_rel_err
                    .map(json_f)
                    .unwrap_or_else(|| "null".to_string()),
                r.flat_rel_err
                    .map(json_f)
                    .unwrap_or_else(|| "null".to_string()),
            )
        })
        .collect();
    let json = format!(
        "{{\"scale\":\"{scale:?}\",\"mode\":\"multilevel\",\"bins\":{bins},\
         \"flat_max\":{flat_max},\"solver\":\"{solver:?}\",\"threads\":{},\
         \"cpus_available\":{},\"results\":[{}]}}\n",
        engine.threads(),
        default_threads(),
        entries.join(",")
    );
    let path = out_path("BENCH_estimation_multilevel.json");
    std::fs::write(&path, &json).expect("write BENCH_estimation_multilevel.json");
    println!("# wrote {path}");
    print!("{json}");
}
