//! Solver-equivalence suite: pins `SolverPolicy::Pcg` across the
//! estimation surface and checks it against the dense Cholesky path on a
//! realistic hierarchical topology. CI runs this file as its own
//! `solver-equivalence` job so a PCG regression fails with a named check
//! rather than somewhere inside the general suite.
//!
//! The 200-node case doubles as the `Auto` contract lock: at that size
//! the stacked system sits below [`SolverPolicy::AUTO_DENSE_MAX_ROWS`],
//! so `Auto` must reproduce the dense path bit-for-bit.

use ic_core::TmSeries;
use ic_engine::{Engine, WorkspacePool};
use ic_estimation::{
    EstimationConfig, EstimationPipeline, GravityPrior, ObservationModel, PipelineWorkspace,
    SolverPolicy,
};
use ic_topology::{hierarchical, HierarchicalConfig, RoutingScheme};

/// A 200-node hierarchical topology (20 backbones × 9 PoPs each) with a
/// deterministic positive traffic series.
fn model_and_series(bins: usize) -> (ObservationModel, TmSeries) {
    let cfg = HierarchicalConfig::new(20, 9, 20060419);
    assert_eq!(cfg.node_count(), 200);
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

#[test]
fn pcg_matches_dense_and_auto_is_bit_identical_at_200_nodes() {
    let (om, tm) = model_and_series(2);
    let obs = om.observe(&tm).unwrap();

    let mut ws_d = PipelineWorkspace::new();
    let mut ws_p = PipelineWorkspace::new();
    let dense = EstimationPipeline::new(om.clone())
        .config(EstimationConfig::new().with_solver(SolverPolicy::Dense))
        .estimate_with(&GravityPrior, &obs, &mut ws_d)
        .unwrap();
    let pcg = EstimationPipeline::new(om.clone())
        .config(EstimationConfig::new().with_solver(SolverPolicy::Pcg))
        .estimate_with(&GravityPrior, &obs, &mut ws_p)
        .unwrap();
    let auto = EstimationPipeline::new(om)
        .estimate(&GravityPrior, &obs)
        .unwrap();

    // 200 nodes stack below the auto row threshold: Auto IS the dense
    // path, bit for bit.
    assert_eq!(auto, dense);

    // The PCG path does PCG work only, and converges (no stalls on this
    // well-conditioned system). The iteration count is deterministic, so
    // it is gated exactly.
    let stats = ws_p.solve_stats();
    assert_eq!(stats.dense_solves, 0);
    assert_eq!(stats.pcg_solves, 2);
    assert_eq!(stats.pcg_iterations, 1803);
    assert_eq!(stats.pcg_stalls, 0);
    assert_eq!(ws_d.solve_stats().pcg_solves, 0);

    // And it agrees with dense within estimation tolerance.
    let (md, mp) = (dense.as_matrix(), pcg.as_matrix());
    let scale = md.max_abs().max(1.0);
    for (a, b) in md.as_slice().iter().zip(mp.as_slice().iter()) {
        assert!((a - b).abs() <= 1e-8 * scale, "dense {a} vs pcg {b}");
    }
}

#[test]
fn pcg_parallel_pooled_is_bit_identical_to_serial_pcg() {
    let (om, tm) = model_and_series(4);
    let obs = om.observe(&tm).unwrap();
    let pipeline =
        EstimationPipeline::new(om).config(EstimationConfig::new().with_solver(SolverPolicy::Pcg));
    let serial = pipeline.estimate(&GravityPrior, &obs).unwrap();
    let engine = Engine::new().with_threads(3).with_shard_bins(1);
    let pool: WorkspacePool<PipelineWorkspace> = WorkspacePool::new();
    let first = pipeline
        .estimate_parallel_pooled(&GravityPrior, &obs, &engine, &pool)
        .unwrap();
    let warm = pipeline
        .estimate_parallel_pooled(&GravityPrior, &obs, &engine, &pool)
        .unwrap();
    assert_eq!(first, serial);
    assert_eq!(warm, serial);
}
