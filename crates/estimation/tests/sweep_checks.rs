//! Sweep checks of the estimation stack on seeded hierarchical networks:
//! the multilevel pipeline's error against the flat pipeline's, forced
//! PCG against the `Auto` refine with its work counters pinned, and the
//! engine-sharded and instrumented pipelines bit-identical to the serial
//! one.
//!
//! The scenario at `n` nodes: `hierarchical(HierarchicalConfig::new(n/10,
//! 9, 20060419))` under ECMP routing, the synthetic truth of
//! `SynthConfig::geant_like(7 + n)`, and a partition of contiguous
//! backbone groups. The smoke sizes (20 and 50 nodes, 4 bins) run with
//! every `cargo test`. The `#[ignore]`d sweeps take minutes to hours and
//! run nightly in release, one test per sweep:
//!
//! ```sh
//! cargo test --release -q -p ic-estimation --test sweep_checks -- --ignored large_sweep
//! ```
//!
//! A sweep evaluates every size before it fails, so its message names
//! every failing size.

use ic_core::{generate_synthetic, mean_rel_l2, SynthConfig, TmSeries};
use ic_engine::{Engine, WorkspacePool};
use ic_estimation::{
    EstimationConfig, EstimationPipeline, GravityPrior, MultilevelPipeline, ObservationModel,
    Observations, PipelineMetrics, PipelineWorkspace, SolveStats, SolverPolicy, TmPrior,
    Tomogravity, TomogravityOptions, TomogravityWorkspace,
};
use ic_linalg::Matrix;
use ic_obs::MetricsRegistry;
use ic_topology::{hierarchical, HierarchicalConfig, Partition, RoutingScheme, Topology};
use std::collections::BinaryHeap;

/// How much worse (mean relative L2 against the truth) the multilevel
/// estimate may be than the flat one. The coarse level loses
/// intra-versus-inter attribution detail, so a small additive margin is
/// expected; a blow-up means the decomposition is broken.
const ML_ERR_MARGIN: f64 = 0.25;

/// Bins of the smoke sizes every `cargo test` runs.
const SMOKE_BINS: usize = 4;

/// The hierarchical network of about `nodes` nodes: `nodes / 10`
/// backbones with 9 PoPs each, so multiples of 10 land exactly.
fn network(nodes: usize) -> (Topology, HierarchicalConfig) {
    let cfg = HierarchicalConfig::new((nodes / 10).max(1), 9, 20060419);
    (hierarchical(&cfg).unwrap(), cfg)
}

/// Groups the generator's per-backbone clusters (10 nodes each) into
/// contiguous super-clusters, about `sqrt(n) / 2` of them. Per-backbone
/// clusters would make the quotient itself a large ring, with coarse
/// paths of O(k) hops, while sqrt-sized groups balance the coarse solve
/// against the per-cluster ones.
fn grouped_partition(topo: &Topology, cfg: &HierarchicalConfig) -> Partition {
    let backbone_of = cfg.cluster_assignment();
    let target = ((topo.node_count() as f64).sqrt() / 2.0).round().max(2.0) as usize;
    let group = cfg.backbones.div_ceil(target).max(1);
    let assign: Vec<usize> = backbone_of.iter().map(|&k| k / group).collect();
    Partition::from_assignment(topo, &assign).unwrap()
}

/// The ECMP scenario at `nodes` nodes over `bins` bins.
struct Scenario {
    topo: Topology,
    partition: Partition,
    model: ObservationModel,
    truth: TmSeries,
    obs: Observations,
}

fn scenario(nodes: usize, bins: usize) -> Scenario {
    let (topo, cfg) = network(nodes);
    let n = topo.node_count();
    let model = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
    let synth = SynthConfig::geant_like(7 + n as u64)
        .with_nodes(n)
        .with_bins(bins);
    let truth = generate_synthetic(&synth).unwrap().series;
    let obs = model.observe(&truth).unwrap();
    let partition = grouped_partition(&topo, &cfg);
    Scenario {
        topo,
        partition,
        model,
        truth,
        obs,
    }
}

impl Scenario {
    fn flat(&self, policy: SolverPolicy) -> EstimationPipeline {
        EstimationPipeline::new(self.model.clone())
            .config(EstimationConfig::new().with_solver(policy))
    }

    /// The multilevel estimate's mean relative L2 error against the truth.
    fn multilevel_error(&self, engine: &Engine) -> f64 {
        let ml = MultilevelPipeline::new(
            &self.topo,
            RoutingScheme::Ecmp,
            self.partition.clone(),
            EstimationConfig::new(),
        )
        .unwrap();
        let est = ml
            .estimate_parallel(&GravityPrior, &self.obs, engine)
            .unwrap()
            .materialize()
            .unwrap();
        mean_rel_l2(&self.truth, &est).unwrap()
    }

    /// The refined bins of the gravity prior under `policy`, one per bin,
    /// and the solver counters of the sweep.
    fn refine_bins(&self, policy: SolverPolicy) -> (Vec<Vec<f64>>, SolveStats) {
        let prior = GravityPrior.prior_series(&self.obs).unwrap();
        let tomo = Tomogravity::new(TomogravityOptions::default().with_solver(policy));
        let (a, at) = (self.model.stacked_sparse(), self.model.stacked_transpose());
        let mut ws = TomogravityWorkspace::new();
        let bins = (0..self.obs.bins())
            .map(|t| {
                let (xp, b) = (prior.column(t), self.obs.stacked_at(t));
                tomo.refine_bin_sparse_with(a, at, &xp, &b, &mut ws)
                    .unwrap();
                ws.solution().to_vec()
            })
            .collect();
        (bins, ws.solve_stats())
    }
}

/// At the smoke sizes the multilevel error stays within the margin of
/// the flat error, and both stay at most 1e-3 above their measured
/// values. The flat estimate is bit-identical sharded over two workers
/// and with stage metrics attached.
#[test]
fn smoke_sweep_multilevel_tracks_flat() {
    // (nodes, flat error, multilevel error) as measured.
    let measured = [(20, 0.371668, 0.458653), (50, 0.317756, 0.341108)];
    let engine = Engine::new().with_threads(2).with_shard_bins(1);
    for (nodes, flat_pin, ml_pin) in measured {
        let s = scenario(nodes, SMOKE_BINS);
        let flat = s.flat(SolverPolicy::Auto);
        let mut ws = PipelineWorkspace::new();
        let serial = flat.estimate_with(&GravityPrior, &s.obs, &mut ws).unwrap();
        let pool = WorkspacePool::new();
        let parallel = flat
            .estimate_parallel_pooled(&GravityPrior, &s.obs, &engine, &pool)
            .unwrap();
        assert_eq!(parallel, serial, "sharded estimate at {nodes} nodes");
        let registry = MetricsRegistry::new();
        let metrics = PipelineMetrics::register(&registry);
        let instrumented = flat.clone().config(
            flat.estimation_config()
                .clone()
                .with_metrics(metrics.clone()),
        );
        let traced = instrumented
            .estimate_with(&GravityPrior, &s.obs, &mut ws)
            .unwrap();
        assert_eq!(traced, serial, "instrumented estimate at {nodes} nodes");
        assert_eq!(metrics.bins.get(), SMOKE_BINS as u64);

        let flat_err = mean_rel_l2(&s.truth, &serial).unwrap();
        let ml_err = s.multilevel_error(&engine);
        assert!(
            ml_err <= flat_err + ML_ERR_MARGIN,
            "multilevel error {ml_err:.4} exceeds flat {flat_err:.4} + {ML_ERR_MARGIN} \
             at {nodes} nodes"
        );
        assert!(
            flat_err <= flat_pin + 1e-3,
            "flat error {flat_err} at {nodes} nodes, measured {flat_pin}"
        );
        assert!(
            ml_err <= ml_pin + 1e-3,
            "multilevel error {ml_err} at {nodes} nodes, measured {ml_pin}"
        );
    }
}

/// Forced PCG lands within 1e-6 of the `Auto` refine (dense at these
/// sizes) on every bin, and its work is pinned exactly. Every solve uses
/// up its budget of twice the stacked row count (92 rows at 20 nodes,
/// 224 at 50) and stalls: the stall regime of the rank-deficient
/// `[R; H; G]`, which a full-rank operator is to end.
#[test]
fn smoke_sweep_forced_pcg_tracks_auto() {
    // (nodes, PCG iterations per solve) as measured.
    let measured = [(20, 184), (50, 448)];
    for (nodes, iterations) in measured {
        let s = scenario(nodes, SMOKE_BINS);
        let bins = SMOKE_BINS as u64;
        let (auto, auto_stats) = s.refine_bins(SolverPolicy::Auto);
        let (pcg, pcg_stats) = s.refine_bins(SolverPolicy::Pcg);
        for (t, (a, p)) in auto.iter().zip(&pcg).enumerate() {
            let scale = a.iter().fold(1.0_f64, |m, &v| m.max(v.abs()));
            let diff = a
                .iter()
                .zip(p)
                .fold(0.0_f64, |m, (&x, &y)| m.max((x - y).abs()));
            assert!(
                diff <= 1e-6 * scale,
                "forced PCG disagrees with Auto at {nodes} nodes, bin {t}: rel diff {}",
                diff / scale
            );
        }
        assert_eq!(
            auto_stats,
            SolveStats {
                dense_solves: bins,
                ..SolveStats::default()
            },
            "Auto at {nodes} nodes"
        );
        assert_eq!(
            pcg_stats,
            SolveStats {
                pcg_solves: bins,
                pcg_iterations: iterations * bins,
                pcg_stalls: bins,
                ..SolveStats::default()
            },
            "forced PCG at {nodes} nodes"
        );
    }
}

/// One message per size whose multilevel error exceeds the flat error
/// under `policy` by more than the margin; every size is evaluated.
fn margin_failures(sizes: &[usize], bins: usize, policy: SolverPolicy) -> Vec<String> {
    let engine = Engine::new();
    let pool = WorkspacePool::new();
    let mut failures = Vec::new();
    for &nodes in sizes {
        let s = scenario(nodes, bins);
        let flat = s
            .flat(policy)
            .estimate_parallel_pooled(&GravityPrior, &s.obs, &engine, &pool)
            .unwrap();
        let flat_err = mean_rel_l2(&s.truth, &flat).unwrap();
        let ml_err = s.multilevel_error(&engine);
        eprintln!("{nodes} nodes: multilevel error {ml_err:.4}, flat {flat_err:.4}");
        if ml_err > flat_err + ML_ERR_MARGIN {
            failures.push(format!(
                "multilevel error {ml_err:.4} exceeds flat {flat_err:.4} + {ML_ERR_MARGIN} \
                 at {nodes} nodes"
            ));
        }
    }
    failures
}

/// The multilevel margin at 100 to 500 nodes under `Auto`, 2 bins.
#[test]
#[ignore = "nightly sweep: 100 to 500 nodes"]
fn large_sweep_multilevel_tracks_flat() {
    let failures = margin_failures(&[100, 200, 300, 500], 2, SolverPolicy::Auto);
    assert!(failures.is_empty(), "{}", failures.join("; "));
}

/// The multilevel margin at 1,000 to 5,000 nodes with the flat pipeline
/// on forced PCG, 2 bins. The dense normal matrix at 5,000 nodes would
/// be ~49k × 49k; PCG never materializes it.
#[test]
#[ignore = "nightly sweep: 1,000 to 5,000 nodes, hours in release"]
fn pcg_scale_sweep_multilevel_tracks_flat() {
    let failures = margin_failures(&[1000, 2000, 5000], 2, SolverPolicy::Pcg);
    assert!(failures.is_empty(), "{}", failures.join("; "));
}

/// Every multilevel estimate returns at 2,000 to 20,000 nodes, 2 bins,
/// on a gravity truth observed under single-path routing by
/// [`single_path_unit_loads`]: nothing `n²`-sized is built, so these
/// sizes fit where the flat observation model cannot.
#[test]
#[ignore = "nightly sweep: 2,000 to 20,000 nodes"]
fn multilevel_sweep_estimates_every_size() {
    let engine = Engine::new();
    let bins = 2;
    let mut failures = Vec::new();
    for nodes in [2000, 5000, 10_000, 20_000] {
        let (topo, cfg) = network(nodes);
        let n = topo.node_count();
        // Gravity truth `T[i][j](b) = total_b·o_i·d_j`; its marginals are
        // analytic (`Σ_{j≠i} d_j = 1 − d_i`).
        let o = gravity_weights(n, 0xA11C_E5EE_D000 + n as u64);
        let d = gravity_weights(n, 0xB0B5_EED0_0000 + n as u64);
        let y_unit = single_path_unit_loads(&topo, &o, &d);
        let mut obs = Observations {
            y: Matrix::zeros(topo.link_count(), bins),
            ingress: Matrix::zeros(n, bins),
            egress: Matrix::zeros(n, bins),
            bin_seconds: 300.0,
        };
        for b in 0..bins {
            let total = n as f64 * 1e6 * (1.0 + 0.1 * b as f64);
            for (l, &unit) in y_unit.iter().enumerate() {
                obs.y[(l, b)] = unit * total;
            }
            for i in 0..n {
                obs.ingress[(i, b)] = total * o[i] * (1.0 - d[i]);
                obs.egress[(i, b)] = total * d[i] * (1.0 - o[i]);
            }
        }
        let result = MultilevelPipeline::new(
            &topo,
            RoutingScheme::SinglePath,
            grouped_partition(&topo, &cfg),
            EstimationConfig::new(),
        )
        .and_then(|ml| ml.estimate_parallel(&GravityPrior, &obs, &engine).map(drop));
        match result {
            Ok(()) => eprintln!("{n} nodes: estimate returned"),
            Err(e) => failures.push(format!("{n} nodes: {e}")),
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("; "));
}

/// splitmix64: a deterministic weight source with no RNG state.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Normalized gravity weights, in `[0.25, 2.0)` before normalization:
/// enough spread to make the solve non-trivial, no heavy tail that would
/// starve small clusters of traffic.
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

/// Min-heap entry for the generator's Dijkstra: reversed distance order,
/// node-id tie-break for determinism (the rule of `ic-topology`).
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
/// plus a flow-accumulation pass down the forwarding tree, with
/// `RoutingScheme::SinglePath`'s lowest-link-id tie-break. `O(n·(m +
/// n log n))` time and `O(n + m)` working memory, never the `links × n²`
/// routing matrix.
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
            "the generator needs a strongly connected topology"
        );
        // Farthest first: every node's accumulated load is final before
        // it is pushed one hop closer to `t` (positive weights make the
        // next hop strictly closer).
        for &s in order.iter().rev() {
            if s == t {
                continue;
            }
            load[s] += o[s] * d[t];
            let (lid, to, _) = *fwd[s]
                .iter()
                .find(|&&(_, to, w)| (w + dist[to] - dist[s]).abs() < EPS)
                .expect("a shortest-path next hop");
            y[lid] += load[s];
            load[to] += load[s];
            load[s] = 0.0;
        }
        load[t] = 0.0;
    }
    y
}
