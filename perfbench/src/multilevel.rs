//! `multilevel-5k`: partition-aware multilevel estimation on a 5000-node
//! hierarchical network.
//!
//! The truth is IC-structured, `T = f·A⊗P + (1−f)·P⊗A` off the diagonal,
//! with per-node activity `A(b) = α(b)·a₁ + β(b)·a₂` varying per bin. Its
//! single-path link loads are generated by streaming over the forwarding
//! tree of every destination, and its node marginals analytically, so
//! nothing `n²`-sized is ever materialized. The network is cut into the
//! generator's backbone groups of about `2·√n` nodes (≈ 34 clusters), whose
//! per-cluster systems fall below the `SolverPolicy::Auto` row threshold:
//! many small dense solves plus the coarse and reconcile stages.

use crate::layers::{probe_operator, solver_counts};
use crate::report::Outcome;
use crate::stats::{Failures, Samples};
use crate::sysinfo::{peak_rss_mb, triad};
use crate::trace::Tracer;
use crate::{median_of, RunConfig, THREADS};
use ic_core::TmSeries;
use ic_engine::Engine;
use ic_estimation::{
    EstimationConfig, GravityPrior, MultilevelEstimate, MultilevelMetrics, MultilevelPipeline,
    Observations,
};
use ic_linalg::Matrix;
use ic_obs::MetricsRegistry;
use ic_topology::{hierarchical, HierarchicalConfig, Partition, RoutingScheme, Topology};
use std::collections::BinaryHeap;
use std::time::Instant;

pub const NAME: &str = "multilevel-5k";

const BACKBONES: usize = 500;
const POPS_PER_BACKBONE: usize = 9;
/// Bins per estimate call.
const WINDOW_BINS: usize = 8;
/// Distinct windows; every run estimates all of them at least once.
const WINDOWS: usize = 2;
/// Forward ratio of the IC truth (the paper's typical value).
const F: f64 = 0.25;
/// Mean traffic per node and bin.
const VOLUME_PER_NODE: f64 = 1e6;
/// The network is the same for every seed; the seed draws the traffic.
/// Different 5000-node networks differ in work per bin by more than the
/// run-to-run noise, which would hide a change's effect.
const TOPOLOGY_SEED: u64 = 20061025;
/// Accuracy contract: mean relative L2 error against the truth.
pub const REL_ERR_CEILING: f64 = 0.6;
/// The estimate's node marginals must match the observed ones to this
/// relative tolerance.
const MARGINAL_TOLERANCE: f64 = 1e-6;

/// The IC truth in factored form.
struct Truth {
    preference: Vec<f64>,
    /// The two activity bases, each normalized to sum to one.
    bases: [Vec<f64>; 2],
    /// Per-bin weights `(α, β)` of the bases, already scaled by volume.
    mix: Vec<[f64; 2]>,
}

impl Truth {
    fn new(n: usize, bins: usize, seed: u64) -> Self {
        let volume = n as f64 * VOLUME_PER_NODE;
        Truth {
            preference: crate::gen::weights(n, 0.1, 2.0, seed ^ 0x9E1F),
            bases: [
                crate::gen::weights(n, 0.25, 2.0, seed ^ 0xA1),
                crate::gen::weights(n, 0.25, 2.0, seed ^ 0xA2),
            ],
            mix: (0..bins)
                .map(|b| {
                    let phase = std::f64::consts::TAU * b as f64 / bins as f64;
                    [
                        volume * (1.0 + 0.5 * phase.cos()),
                        volume * (0.5 + crate::gen::uniform(seed ^ 0xB1, b as u64)),
                    ]
                })
                .collect(),
        }
    }

    fn activity(&self, i: usize, b: usize) -> f64 {
        self.mix[b][0] * self.bases[0][i] + self.mix[b][1] * self.bases[1][i]
    }

    /// `T[i][j]` at bin `b` (zero on the diagonal).
    fn entry(&self, i: usize, j: usize, b: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        let p = &self.preference;
        F * self.activity(i, b) * p[j] + (1.0 - F) * p[i] * self.activity(j, b)
    }

    /// Link loads of bins `first..first + bins` on `topo` under single-path
    /// routing, plus the analytic node marginals.
    fn observe(&self, unit_loads: &[[f64; 2]], first: usize, bins: usize) -> Observations {
        let n = self.preference.len();
        let mut obs = Observations {
            y: Matrix::zeros(unit_loads.len(), bins),
            ingress: Matrix::zeros(n, bins),
            egress: Matrix::zeros(n, bins),
            bin_seconds: 300.0,
        };
        for k in 0..bins {
            let b = first + k;
            let [alpha, beta] = self.mix[b];
            for (l, u) in unit_loads.iter().enumerate() {
                obs.y[(l, k)] = alpha * u[0] + beta * u[1];
            }
            let total: f64 = alpha + beta;
            for i in 0..n {
                let (a, p) = (self.activity(i, b), self.preference[i]);
                obs.ingress[(i, k)] = F * a * (1.0 - p) + (1.0 - F) * p * (total - a);
                obs.egress[(i, k)] = F * p * (total - a) + (1.0 - F) * a * (1.0 - p);
            }
        }
        obs
    }

    /// The truth restricted to the node subset `nodes`, bins
    /// `first..first + bins`.
    fn block(&self, nodes: &[usize], first: usize, bins: usize) -> Result<TmSeries, String> {
        let mut out = TmSeries::zeros(nodes.len(), bins, 300.0).map_err(|e| e.to_string())?;
        for k in 0..bins {
            for (li, &i) in nodes.iter().enumerate() {
                for (lj, &j) in nodes.iter().enumerate() {
                    out.set(li, lj, k, self.entry(i, j, first + k))
                        .map_err(|e| e.to_string())?;
                }
            }
        }
        Ok(out)
    }
}

/// Min-heap entry for the load generator's Dijkstra (distance order,
/// node-id tie-break).
#[derive(PartialEq)]
struct MinDist {
    dist: f64,
    node: usize,
}

impl Eq for MinDist {}

impl PartialOrd for MinDist {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MinDist {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Single-path link loads of the two unit components of the truth
/// (`f·aₖ⊗P + (1−f)·P⊗aₖ` for both bases `aₖ`): one reverse Dijkstra per
/// destination and a farthest-first pass pushing each node's accumulated
/// demand to its next hop, the lowest-id link on a shortest path, as
/// `RoutingScheme::SinglePath` picks it. `O(n·(m + n log n))` time,
/// `O(n + m)` memory.
fn unit_loads(topo: &Topology, truth: &Truth) -> Result<Vec<[f64; 2]>, String> {
    const EPS: f64 = 1e-9;
    let n = topo.node_count();
    let links = topo.links();
    let mut rev: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    let mut fwd: Vec<Vec<(usize, usize, f64)>> = vec![Vec::new(); n];
    for (lid, l) in links.iter().enumerate() {
        rev[l.to].push((l.from, l.igp_weight));
        fwd[l.from].push((lid, l.to, l.igp_weight));
    }
    let p = &truth.preference;
    let [a0, a1] = &truth.bases;
    let mut y = vec![[0.0; 2]; links.len()];
    let mut dist = vec![f64::INFINITY; n];
    let mut done = vec![false; n];
    let mut load = vec![[0.0; 2]; n];
    let mut order = Vec::with_capacity(n);
    let mut heap = BinaryHeap::new();
    for t in 0..n {
        dist.fill(f64::INFINITY);
        done.fill(false);
        order.clear();
        dist[t] = 0.0;
        heap.push(MinDist { dist: 0.0, node: t });
        while let Some(MinDist { dist: du, node: u }) = heap.pop() {
            if std::mem::replace(&mut done[u], true) {
                continue;
            }
            order.push(u);
            for &(from, w) in &rev[u] {
                if du + w + EPS < dist[from] {
                    dist[from] = du + w;
                    heap.push(MinDist {
                        dist: du + w,
                        node: from,
                    });
                }
            }
        }
        if order.len() != n {
            return Err("load generator needs a strongly connected topology".into());
        }
        for &s in order.iter().rev() {
            if s == t {
                continue;
            }
            load[s][0] += F * a0[s] * p[t] + (1.0 - F) * p[s] * a0[t];
            load[s][1] += F * a1[s] * p[t] + (1.0 - F) * p[s] * a1[t];
            let Some(&(lid, to, _)) = fwd[s]
                .iter()
                .find(|&&(_, to, w)| (w + dist[to] - dist[s]).abs() < EPS)
            else {
                return Err(format!("no shortest-path next hop from node {s}"));
            };
            let carried = std::mem::take(&mut load[s]);
            for k in 0..2 {
                y[lid][k] += carried[k];
                load[to][k] += carried[k];
            }
        }
        load[t] = [0.0; 2];
    }
    Ok(y)
}

/// Groups the generator's per-backbone clusters into contiguous groups of
/// about `2·√n` nodes, balancing the coarse solve against the cluster
/// solves (the grouping `estimation_perf` uses).
fn grouped_assignment(cfg: &HierarchicalConfig, nodes: usize) -> Vec<usize> {
    let target = ((nodes as f64).sqrt() / 2.0).round().max(2.0) as usize;
    let group = cfg.backbones.div_ceil(target).max(1);
    cfg.cluster_assignment()
        .iter()
        .map(|&k| k / group)
        .collect()
}

struct Inputs {
    topo: Topology,
    partition: Partition,
    truth: Truth,
    obs: Vec<Observations>,
    pipeline: Option<MultilevelPipeline>,
}

fn setup(seed: u64, tracer: &mut Tracer) -> Result<Inputs, String> {
    let cfg = HierarchicalConfig::new(BACKBONES, POPS_PER_BACKBONE, TOPOLOGY_SEED);
    let topo = tracer
        .span("topology.generate", |_| hierarchical(&cfg))
        .map_err(|e| format!("topology: {e}"))?;
    let n = topo.node_count();
    let partition = tracer
        .span("topology.partition", |_| {
            Partition::from_assignment(&topo, &grouped_assignment(&cfg, n))
        })
        .map_err(|e| format!("partition: {e}"))?;
    let truth = Truth::new(n, WINDOWS * WINDOW_BINS, seed);
    let loads = unit_loads(&topo, &truth)?;
    let obs = (0..WINDOWS)
        .map(|w| truth.observe(&loads, w * WINDOW_BINS, WINDOW_BINS))
        .collect();
    let pipeline = tracer
        .span("estimation.multilevel.build", |_| {
            MultilevelPipeline::new(
                &topo,
                RoutingScheme::SinglePath,
                partition.clone(),
                EstimationConfig::new(),
            )
        })
        .map_err(|e| format!("multilevel pipeline: {e}"))?;
    Ok(Inputs {
        topo,
        partition,
        truth,
        obs,
        pipeline: Some(pipeline),
    })
}

struct Timed {
    latencies: Samples,
    bins: usize,
    first_cycle: Vec<MultilevelEstimate>,
    failures: Failures,
    /// Per call, from a fresh `multilevel.*` metrics set (traced runs).
    coarse: Samples,
    reconcile: Samples,
    cluster_mean: Samples,
    cluster_max: Samples,
    ipf_fallback_clusters: f64,
}

fn timed(inputs: &mut Inputs, engine: &Engine, seconds: f64, tracer: &mut Tracer) -> Timed {
    let mut out = Timed {
        latencies: Samples::new(),
        bins: 0,
        first_cycle: Vec::new(),
        failures: Failures::default(),
        coarse: Samples::new(),
        reconcile: Samples::new(),
        cluster_mean: Samples::new(),
        cluster_max: Samples::new(),
        ipf_fallback_clusters: 0.0,
    };
    let start = Instant::now();
    let mut k = 0;
    while k < WINDOWS || start.elapsed().as_secs_f64() + out.latencies.max() < seconds {
        let w = k % WINDOWS;
        // A fresh metrics set per call makes the stage histograms' sums
        // and maxima this call's exact values.
        let metrics = tracer
            .enabled()
            .then(|| MultilevelMetrics::register(&MetricsRegistry::new()));
        let mut pipeline = inputs.pipeline.take().expect("pipeline present");
        if let Some(m) = &metrics {
            pipeline = pipeline.with_metrics(m.clone());
        }
        tracer.set_run(k as u64);
        let t0 = Instant::now();
        let result = tracer.span("estimation.multilevel.estimate", |_| {
            pipeline.estimate_parallel(&GravityPrior, &inputs.obs[w], engine)
        });
        out.latencies.push(t0.elapsed().as_secs_f64());
        inputs.pipeline = Some(pipeline);
        if let Some(m) = &metrics {
            out.coarse.push(m.coarse.sum());
            out.reconcile.push(m.reconcile.sum());
            out.cluster_mean.push(m.cluster.mean());
            out.cluster_max.push(m.cluster.max());
            out.ipf_fallback_clusters = m.ipf_fallback_clusters.get();
        }
        out.failures.operation(result.is_ok());
        if let Ok(est) = result {
            let mut values = est.coarse.as_matrix().as_slice().to_vec();
            for c in &est.clusters {
                values.extend_from_slice(c.as_matrix().as_slice());
            }
            values.extend_from_slice(est.out_share.as_slice());
            values.extend_from_slice(est.in_share.as_slice());
            out.failures.output(values);
            out.bins += est.bins();
            if k < WINDOWS {
                out.first_cycle.push(est);
            }
        }
        k += 1;
    }
    out
}

/// Local index of every node within its cluster.
fn local_indices(est: &MultilevelEstimate) -> Vec<usize> {
    let mut local = vec![0; est.nodes()];
    for nodes in &est.cluster_nodes {
        for (li, &i) in nodes.iter().enumerate() {
            local[i] = li;
        }
    }
    local
}

/// Mean over bins of `‖x̂ − x‖₂ / ‖x‖₂`, streamed over every OD pair of
/// the factored estimate.
fn rel_err(est: &MultilevelEstimate, truth: &Truth, first: usize) -> Result<f64, String> {
    let local = local_indices(est);
    let n = est.nodes();
    let mut sum = 0.0;
    for t in 0..est.bins() {
        let (mut num, mut den) = (0.0, 0.0);
        for i in 0..n {
            let ci = est.assignment[i];
            let block = &est.clusters[ci];
            for j in 0..n {
                let cj = est.assignment[j];
                let x_hat = if ci == cj {
                    block
                        .get(local[i], local[j], t)
                        .map_err(|e| e.to_string())?
                } else {
                    est.coarse.get(ci, cj, t).map_err(|e| e.to_string())?
                        * est.out_share[(i, t)]
                        * est.in_share[(j, t)]
                };
                let x = truth.entry(i, j, first + t);
                num += (x_hat - x) * (x_hat - x);
                den += x * x;
            }
        }
        sum += (num / den).sqrt();
    }
    Ok(sum / est.bins() as f64)
}

/// Largest relative gap between the estimate's node marginals and the
/// observed ones, from the factored form (intra-block row and column
/// sums plus the rank-one expansions, whose shares sum to one per
/// cluster).
fn marginal_gap(est: &MultilevelEstimate, obs: &Observations) -> Result<f64, String> {
    let mut worst: f64 = 0.0;
    for t in 0..est.bins() {
        // Inter-cluster totals: the coarse row and column sums off the
        // diagonal.
        let coarse = est.coarse.snapshot(t).map_err(|e| e.to_string())?;
        let (coarse_rows, coarse_cols) = (coarse.row_sums(), coarse.col_sums());
        for (c, nodes) in est.cluster_nodes.iter().enumerate() {
            let out_ext = coarse_rows[c] - coarse[(c, c)];
            let in_ext = coarse_cols[c] - coarse[(c, c)];
            let snap = est.clusters[c].snapshot(t).map_err(|e| e.to_string())?;
            let (rows, cols) = (snap.row_sums(), snap.col_sums());
            for (li, &i) in nodes.iter().enumerate() {
                let ingress = rows[li] + est.out_share[(i, t)] * out_ext;
                let egress = cols[li] + est.in_share[(i, t)] * in_ext;
                for (got, want) in [(ingress, obs.ingress[(i, t)]), (egress, obs.egress[(i, t)])] {
                    worst = worst.max((got - want).abs() / want.abs().max(f64::MIN_POSITIVE));
                }
            }
        }
    }
    Ok(worst)
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut inputs, setup_secs, setup_tracer) = cfg.set_up(
        |tracer| setup(cfg.seed, tracer),
        |old| {
            drop(old);
            Ok(())
        },
    )?;
    let engine = Engine::new().with_threads(THREADS);

    let run = timed(
        &mut inputs,
        &engine,
        cfg.seconds,
        &mut Tracer::new(false, cfg.origin),
    );
    let peak = peak_rss_mb(std::process::id()).unwrap_or(f64::NAN);
    let wall = run.latencies.sum();
    // From the fastest call: other tenants of the machine slow calls down
    // in bursts, and the fastest call is the one least disturbed.
    let bins_per_s = WINDOW_BINS as f64 / run.latencies.min();
    let first = run.first_cycle.first().ok_or("no estimate completed")?;
    let err = rel_err(first, &inputs.truth, 0)?;

    out.e2e("setup_s", median_of(&setup_secs), "s");
    out.e2e("bins_per_s", bins_per_s, "bins/s");
    out.e2e("rel_err", err, "1");
    out.e2e("peak_rss_mb", peak, "MB");
    out.only("window_latency_p50_s", run.latencies.percentile(0.5), "s");
    out.only("window_latency_p90_s", run.latencies.percentile(0.9), "s");
    out.note(run.latencies.describe(
        &format!("window_latency_s (one estimate call of {WINDOW_BINS} bins)"),
        &[0.5, 0.9],
    ));
    out.note(format!(
        "setup_s per repetition: {setup_secs:?}; {} nodes, {} links, {} clusters \
         ({:.1}% boundary links); {} bins in {wall:.3} s",
        inputs.topo.node_count(),
        inputs.topo.link_count(),
        inputs.partition.cluster_count(),
        100.0 * inputs.partition.boundary_link_fraction(),
        run.bins
    ));
    out.failures = run.failures;
    out.only("failed_fraction", run.failures.fraction(), "1");

    // Correctness, outside the timed region.
    let mut gap: f64 = 0.0;
    for (est, obs) in run.first_cycle.iter().zip(&inputs.obs) {
        gap = gap.max(marginal_gap(est, obs)?);
    }
    out.check(
        "multilevel-5k: estimate marginals reproduce the observed ingress and egress",
        gap <= MARGINAL_TOLERANCE,
        format!("largest relative gap {gap:.3e} vs tolerance {MARGINAL_TOLERANCE:.0e}"),
    );
    out.check(
        "multilevel-5k: every estimate call succeeded with finite output",
        run.failures.failed() == 0,
        format!("{:?}", run.failures),
    );
    out.check(
        "multilevel-5k: rel_err within its ceiling",
        err.is_finite() && err <= REL_ERR_CEILING,
        format!("rel_err {err:.6} vs ceiling {REL_ERR_CEILING} (window 0)"),
    );

    if cfg.traced {
        let mut tracer = Tracer::new(true, cfg.origin);
        let traced = timed(&mut inputs, &engine, cfg.seconds, &mut tracer);
        let traced_rate = WINDOW_BINS as f64 / traced.latencies.min();
        out.layer(
            "bench.trace_overhead_fraction",
            bins_per_s / traced_rate - 1.0,
            "1",
        );
        out.note(format!(
            "tracing overhead: bins_per_s {bins_per_s:.6} untraced vs {traced_rate:.6} traced"
        ));
        let t0 = Instant::now();
        inputs
            .pipeline
            .as_ref()
            .expect("pipeline present")
            .estimate(&GravityPrior, &inputs.obs[0])
            .map_err(|e| format!("serial estimate: {e}"))?;
        let serial = t0.elapsed().as_secs_f64();
        out.layer(
            "engine.parallel_efficiency",
            serial / (THREADS as f64 * run.latencies.first()),
            "1",
        );
        out.layer(
            "topology.generate_s",
            setup_tracer.durations("topology.generate").sum(),
            "s",
        );
        // Partition work beyond `from_assignment`: the quotient and every
        // induced cluster, as `MultilevelPipeline::new` builds them.
        tracer.span("topology.partition", |_| {
            let _ = inputs.partition.quotient(&inputs.topo);
            for c in 0..inputs.partition.cluster_count() {
                let _ = inputs.partition.induced(&inputs.topo, c);
            }
        });
        out.only(
            "topology.partition_s",
            setup_tracer.durations("topology.partition").sum()
                + tracer.durations("topology.partition").sum(),
            "s",
        );
        out.only(
            "estimation.multilevel.build_s",
            setup_tracer.durations("estimation.multilevel.build").sum(),
            "s",
        );
        out.only(
            "estimation.multilevel.estimate_s_per_bin",
            traced.latencies.sum() / traced.bins as f64,
            "s",
        );
        out.only(
            "estimation.multilevel.coarse_s",
            traced.coarse.median(),
            "s",
        );
        out.only(
            "estimation.multilevel.reconcile_s",
            traced.reconcile.median(),
            "s",
        );
        out.only(
            "estimation.multilevel.cluster_mean_s",
            traced.cluster_mean.median(),
            "s",
        );
        out.only(
            "estimation.multilevel.cluster_max_s",
            traced.cluster_max.median(),
            "s",
        );
        out.only(
            "estimation.multilevel.ipf_fallback_clusters",
            traced.ipf_fallback_clusters,
            "count",
        );
        out.note(
            traced
                .cluster_max
                .describe("estimation.multilevel.cluster_max_s per call", &[0.5, 0.9]),
        );
        out.note(
            "estimation.multilevel.cluster_mean_s stands in for a cluster p50: per-cluster \
             times are only exported as a power-of-two histogram, whose percentiles are \
             bucket edges"
                .to_string(),
        );
        // The per-layer probe runs on the largest cluster's own network.
        let largest = (0..inputs.partition.cluster_count())
            .max_by_key(|&c| inputs.partition.members(c).len())
            .expect("at least one cluster");
        let induced = inputs
            .partition
            .induced(&inputs.topo, largest)
            .map_err(|e| format!("induced cluster: {e}"))?;
        let block = inputs.truth.block(&induced.nodes, 0, WINDOW_BINS)?;
        let bandwidth = triad();
        let stats = probe_operator(
            &mut tracer,
            &induced.topology,
            RoutingScheme::SinglePath,
            &block,
            &GravityPrior,
            &bandwidth,
            &mut out,
        )?;
        solver_counts(&stats, &mut out);
        out.note(format!(
            "per-layer probe on the largest cluster ({} nodes, {} links): solver counters {stats:?}",
            induced.nodes.len(),
            induced.links.len()
        ));
        out.spans(&tracer);
    }
    Ok(out)
}
