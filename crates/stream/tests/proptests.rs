//! Property tests for the streaming subsystem's core guarantees:
//!
//! * a tumbling-window online estimator on window `k` equals the batch
//!   fit of that window **bit-for-bit** (cold mode),
//! * warm-started refits converge to the same optimum as cold refits
//!   (within tolerance) in no more sweeps,
//! * the lazy synthetic stream is bit-identical to the batch generator,
//! * a replay of the same stream reproduces the same report bit-for-bit,
//! * on one seeded stream, the sweep counts of cold and warm-started
//!   window fits are pinned exactly.

use ic_core::{fit_stable_fp, generate_synthetic, gravity_predict, FitOptions, SynthConfig};
use ic_engine::Engine;
use ic_estimation::{EstimationPipeline, ObservationModel};
use ic_stream::{
    replay_estimation_with, replay_fit, replay_fit_with, LinkLoadStream, OnlineEstimator,
    OnlineGravity, ReplayOptions, ReplayStream, SyntheticStream, WarmStartIcFit, Windower,
};
use ic_topology::{RoutingScheme, Topology};
use proptest::prelude::*;

fn cfg(seed: u64, nodes: usize, bins: usize) -> SynthConfig {
    SynthConfig::geant_like(seed)
        .with_nodes(nodes)
        .with_bins(bins)
}

/// A 6-node stream in eight tumbling 24-bin windows, each window fitted
/// cold (`FitOptions::default()`) and warm-started from the previous
/// window's fit. The sweep counts are deterministic, so their totals over
/// windows 1–7 are pinned exactly: warm starts save about 80% of the
/// sweeps.
#[test]
fn warm_start_sweep_totals_are_pinned() {
    let (window, windows) = (24, 8);
    let mut stream = SyntheticStream::new(cfg(20060419, 6, window * windows)).unwrap();
    let ws = Windower::tumbling(window)
        .unwrap()
        .take_windows(&mut stream, None)
        .unwrap();
    assert_eq!(ws.len(), windows);
    let mut previous = fit_stable_fp(&ws[0].series, FitOptions::default()).unwrap();
    let (mut cold_sweeps, mut warm_sweeps) = (0, 0);
    for w in &ws[1..] {
        let cold = fit_stable_fp(&w.series, FitOptions::default()).unwrap();
        let warm = fit_stable_fp(&w.series, FitOptions::default().with_initial(&previous)).unwrap();
        cold_sweeps += cold.objective_history.len();
        warm_sweeps += warm.objective_history.len();
        previous = warm;
    }
    assert_eq!((cold_sweeps, warm_sweeps), (145, 27));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cold tumbling-window estimators equal the batch computation of
    /// every window bit-for-bit — both the IC fit and the gravity
    /// baseline.
    #[test]
    fn online_equals_batch_per_window(
        seed in 0u64..10_000,
        nodes in 3usize..6,
        window in 3usize..6,
        windows in 2usize..4,
    ) {
        let bins = window * windows;
        let series = generate_synthetic(&cfg(seed, nodes, bins)).unwrap().series;
        let mut stream = ReplayStream::new(series.clone());
        let ws = Windower::tumbling(window).unwrap()
            .take_windows(&mut stream, None)
            .unwrap();
        prop_assert_eq!(ws.len(), windows);
        let mut cold = WarmStartIcFit::cold(FitOptions::default());
        let mut gravity = OnlineGravity::new();
        for (k, w) in ws.iter().enumerate() {
            let batch_window = series.slice_bins(k * window, window).unwrap();
            prop_assert_eq!(&w.series, &batch_window);
            // IC fit: identical optimum, objective trace, and prediction.
            let online = cold.process(w).unwrap();
            let batch = fit_stable_fp(&batch_window, FitOptions::default()).unwrap();
            prop_assert_eq!(online.fitted_f, Some(batch.params.f));
            prop_assert_eq!(
                online.fitted_preference.as_deref(),
                Some(&batch.params.preference[..])
            );
            prop_assert_eq!(online.fit_objective, Some(batch.final_objective()));
            prop_assert_eq!(
                &online.estimate,
                &batch.predict(batch_window.bin_seconds()).unwrap()
            );
            // Gravity baseline: identical to the batch gravity model.
            let g = gravity.process(w).unwrap();
            prop_assert_eq!(&g.estimate, &gravity_predict(&batch_window).unwrap());
        }
    }

    /// Warm-started refits land on the cold optimum (within tolerance)
    /// without spending more sweeps.
    #[test]
    fn warm_start_converges_to_cold_optimum_in_fewer_sweeps(
        seed in 0u64..10_000,
        nodes in 3usize..6,
    ) {
        let window = 6;
        let windows = 4;
        let mut warm_stream = SyntheticStream::new(cfg(seed, nodes, window * windows)).unwrap();
        let ws = Windower::tumbling(window).unwrap()
            .take_windows(&mut warm_stream, None)
            .unwrap();
        let mut warm = WarmStartIcFit::new(FitOptions::default());
        let mut cold = WarmStartIcFit::cold(FitOptions::default());
        let mut warm_sweeps = 0usize;
        let mut cold_sweeps = 0usize;
        for (k, w) in ws.iter().enumerate() {
            let ew = warm.process(w).unwrap();
            let ec = cold.process(w).unwrap();
            prop_assert_eq!(ew.warm, k > 0);
            // One-sided: the warm start may land the descent *below* the
            // cold stopping point (it often does), but never meaningfully
            // above it.
            let (ow, oc) = (ew.fit_objective.unwrap(), ec.fit_objective.unwrap());
            prop_assert!(
                ow <= oc + 1e-4 * oc.max(1e-9) + 1e-6,
                "window {}: warm {} vs cold {}", k, ow, oc
            );
            if k > 0 {
                warm_sweeps += ew.sweeps.unwrap();
                cold_sweeps += ec.sweeps.unwrap();
            }
        }
        prop_assert!(
            warm_sweeps <= cold_sweeps,
            "warm {} sweeps vs cold {}", warm_sweeps, cold_sweeps
        );
    }

    /// The lazy synthetic stream is bit-identical to the batch generator
    /// of the same config, bin by bin.
    #[test]
    fn synthetic_stream_prefix_equals_batch_generator(
        seed in 0u64..10_000,
        nodes in 2usize..7,
        bins in 1usize..30,
    ) {
        let config = cfg(seed, nodes, bins);
        let batch = generate_synthetic(&config).unwrap().series;
        let mut stream = SyntheticStream::new(config).unwrap();
        for t in 0..bins {
            prop_assert_eq!(stream.next_column().unwrap(), batch.column(t), "bin {}", t);
        }
        prop_assert!(stream.next_column().is_none());
    }

    /// Replaying the same stream twice produces bit-identical reports.
    #[test]
    fn replay_is_reproducible(seed in 0u64..10_000, warm in 0u8..2) {
        let opts = ReplayOptions::default()
            .with_window_bins(5)
            .with_warm_start(warm == 1);
        let run = || {
            let mut stream = SyntheticStream::new(cfg(seed, 4, 20)).unwrap();
            replay_fit(&mut stream, &opts).unwrap()
        };
        prop_assert_eq!(run(), run());
    }

    /// Streaming replay through the engine is bit-identical for 1 worker
    /// and N workers — the online ordering contract (warm starts see the
    /// same history) survives candidate/baseline pairing.
    #[test]
    fn replay_fit_one_vs_n_threads_bit_identical(
        seed in 0u64..10_000,
        threads in 2usize..8,
        warm in 0u8..2,
    ) {
        let opts = ReplayOptions::default()
            .with_window_bins(5)
            .with_warm_start(warm == 1);
        let run = |engine: Engine| {
            let mut stream = SyntheticStream::new(cfg(seed, 4, 20)).unwrap();
            replay_fit_with(&mut stream, &opts, &engine).unwrap()
        };
        let one = run(Engine::serial());
        let many = run(Engine::new().with_threads(threads));
        prop_assert_eq!(one, many);
    }

    /// Streaming pipeline estimation through the engine is bit-identical
    /// for 1 worker and N workers and for arbitrary shard sizes: the
    /// rolling IC prior, the per-window bin sharding, and the paired
    /// gravity baseline never leak scheduling into results.
    #[test]
    fn replay_estimation_one_vs_n_threads_bit_identical(
        seed in 0u64..5_000,
        threads in 2usize..6,
        shard_bins in 1usize..5,
    ) {
        let mut topo = Topology::new("ring5");
        let ids: Vec<usize> = (0..5).map(|k| topo.add_node(format!("n{k}")).unwrap()).collect();
        for k in 0..5 {
            topo.add_symmetric_link(ids[k], ids[(k + 1) % 5], 1.0, 1e12).unwrap();
        }
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let opts = ReplayOptions::default().with_window_bins(4);
        let run = |engine: Engine| {
            let mut stream = SyntheticStream::new(cfg(seed, 5, 16)).unwrap();
            replay_estimation_with(
                &mut stream,
                EstimationPipeline::new(om.clone()),
                &opts,
                &engine,
            )
            .unwrap()
        };
        let one = run(Engine::serial().with_shard_bins(shard_bins));
        let many = run(Engine::new().with_threads(threads).with_shard_bins(shard_bins));
        prop_assert_eq!(one, many);
    }
}
