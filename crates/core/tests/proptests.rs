//! Property-based tests for the IC model family and fitting program.

use ic_core::model::StableFpParams;
use ic_core::{
    fit_stable_fp, gravity_from_marginals, rel_l2_temporal, simplified_ic, stable_fp_series,
    FitOptions, TmSeries,
};
use ic_linalg::Matrix;
use proptest::prelude::*;

/// Strategy: a valid parameter triple (f, activity, preference).
fn params_strategy(n: usize) -> impl Strategy<Value = (f64, Vec<f64>, Vec<f64>)> {
    (
        0.05f64..0.95,
        proptest::collection::vec(1.0f64..1000.0, n),
        proptest::collection::vec(0.01f64..1.0, n),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation: Σ_ij X_ij = Σ_i A_i for any valid parameters — every
    /// initiated byte shows up exactly once in the traffic matrix.
    #[test]
    fn ic_model_conserves_activity((f, a, p) in params_strategy(5)) {
        let x = simplified_ic(f, &a, &p).unwrap();
        let total_a: f64 = a.iter().sum();
        prop_assert!((x.sum() - total_a).abs() < 1e-9 * total_a);
    }

    /// The model is invariant under joint rescaling (P → cP): preference
    /// is only defined up to scale.
    #[test]
    fn ic_model_scale_invariant_in_p((f, a, p) in params_strategy(4), c in 0.1f64..10.0) {
        let x1 = simplified_ic(f, &a, &p).unwrap();
        let scaled: Vec<f64> = p.iter().map(|&v| v * c).collect();
        let x2 = simplified_ic(f, &a, &scaled).unwrap();
        prop_assert!(x1.approx_eq(&x2, 1e-9 * (1.0 + x1.max_abs())));
    }

    /// Swapping f for 1−f transposes the traffic matrix: forward and
    /// reverse trade places.
    #[test]
    fn f_complement_transposes((f, a, p) in params_strategy(4)) {
        let x1 = simplified_ic(f, &a, &p).unwrap();
        let x2 = simplified_ic(1.0 - f, &a, &p).unwrap();
        prop_assert!(x2.approx_eq(&x1.transpose(), 1e-9 * (1.0 + x1.max_abs())));
    }

    /// Marginal identities (the basis of Eq. 11–12): ingress_i = f·A_i +
    /// (1−f)·P_i·ΣA and egress_i = f·P_i·ΣA + (1−f)·A_i.
    #[test]
    fn marginal_identities_hold((f, a, p) in params_strategy(5)) {
        let x = simplified_ic(f, &a, &p).unwrap();
        let psum: f64 = p.iter().sum();
        let asum: f64 = a.iter().sum();
        let rows = x.row_sums();
        let cols = x.col_sums();
        for i in 0..a.len() {
            let pn = p[i] / psum;
            let want_in = f * a[i] + (1.0 - f) * pn * asum;
            let want_out = f * pn * asum + (1.0 - f) * a[i];
            prop_assert!((rows[i] - want_in).abs() < 1e-9 * (1.0 + want_in));
            prop_assert!((cols[i] - want_out).abs() < 1e-9 * (1.0 + want_out));
        }
    }

    /// Gravity preserves marginals for arbitrary non-negative inputs.
    #[test]
    fn gravity_preserves_marginals(
        ing in proptest::collection::vec(0.0f64..1e6, 2..8),
    ) {
        // Egress permuted from ingress keeps the totals equal.
        let mut eg = ing.clone();
        eg.rotate_right(1);
        let x = gravity_from_marginals(&ing, &eg).unwrap();
        let rows = x.row_sums();
        let total: f64 = ing.iter().sum();
        for (got, want) in rows.iter().zip(ing.iter()) {
            prop_assert!((got - want).abs() <= 1e-9 * total.max(1.0));
        }
    }

    /// RelL2 is scale-invariant: scaling both series leaves it unchanged.
    #[test]
    fn rel_l2_scale_invariant((f, a, p) in params_strategy(4), c in 0.5f64..5.0) {
        let x = simplified_ic(f, &a, &p).unwrap();
        let mut obs = TmSeries::zeros(4, 1, 300.0).unwrap();
        let mut pred = TmSeries::zeros(4, 1, 300.0).unwrap();
        let mut obs_c = TmSeries::zeros(4, 1, 300.0).unwrap();
        let mut pred_c = TmSeries::zeros(4, 1, 300.0).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let o = x[(i, j)];
                let q = o * 1.1 + 1.0;
                obs.set(i, j, 0, o).unwrap();
                pred.set(i, j, 0, q).unwrap();
                obs_c.set(i, j, 0, c * o).unwrap();
                pred_c.set(i, j, 0, c * q).unwrap();
            }
        }
        let e1 = rel_l2_temporal(&obs, &pred, 0).unwrap();
        let e2 = rel_l2_temporal(&obs_c, &pred_c, 0).unwrap();
        prop_assert!((e1 - e2).abs() < 1e-9);
    }

    /// Fitting exact stable-fP data drives the objective to (near) zero,
    /// whatever the ground-truth parameters.
    #[test]
    fn fit_is_consistent_on_exact_data(
        f in 0.1f64..0.45,
        seed in 0u64..500,
    ) {
        let n = 4;
        let bins = 6;
        // Deterministic pseudo-random parameters from the seed.
        let mix = |k: u64| {
            let mut z = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(k);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            (z >> 11) as f64 / (1u64 << 53) as f64
        };
        let p: Vec<f64> = (0..n).map(|i| 0.1 + mix(i as u64)).collect();
        let mut activity = Matrix::zeros(n, bins);
        for i in 0..n {
            for t in 0..bins {
                activity[(i, t)] = 100.0 + 900.0 * mix((10 + i * bins + t) as u64);
            }
        }
        let psum: f64 = p.iter().sum();
        let truth = StableFpParams {
            f,
            preference: p.iter().map(|v| v / psum).collect(),
            activity,
        };
        let tm = stable_fp_series(&truth, 300.0).unwrap();
        let fit = fit_stable_fp(&tm, FitOptions::default()).unwrap();
        prop_assert!(
            fit.final_objective() < 1e-3,
            "objective {} for f={}, seed={}",
            fit.final_objective(), f, seed
        );
        prop_assert!((fit.params.f - f).abs() < 0.05, "f {} vs {}", fit.params.f, f);
    }

    /// Fitted parameters are always feasible: P on the simplex, A ≥ 0,
    /// f ∈ [0, 1] — even on non-IC random data.
    #[test]
    fn fit_output_always_feasible(seed in 0u64..200) {
        let n = 3;
        let bins = 4;
        let mut tm = TmSeries::zeros(n, bins, 300.0).unwrap();
        let mix = |k: u64| {
            let mut z = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(k);
            z = (z ^ (z >> 29)).wrapping_mul(0xff51afd7ed558ccd);
            (z >> 11) as f64 / (1u64 << 53) as f64
        };
        for t in 0..bins {
            for i in 0..n {
                for j in 0..n {
                    tm.set(i, j, t, 1.0 + 100.0 * mix((t * 9 + i * 3 + j) as u64)).unwrap();
                }
            }
        }
        let fit = fit_stable_fp(&tm, FitOptions::default()).unwrap();
        prop_assert!((0.0..=1.0).contains(&fit.params.f));
        let psum: f64 = fit.params.preference.iter().sum();
        prop_assert!((psum - 1.0).abs() < 1e-6);
        prop_assert!(fit.params.preference.iter().all(|&v| v >= 0.0));
        prop_assert!(fit.params.activity.as_slice().iter().all(|&v| v >= 0.0));
    }
}

/// Uniform in `[0, 1)` from a seed and a stream index (splitmix64).
fn unit(seed: u64, k: u64) -> f64 {
    let mut z = seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) as f64 / (u64::MAX as f64 + 1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `stable_fp_series` fills each OD pair's row across all bins at once;
    /// every bin of it equals `simplified_ic` of that bin bit for bit. `f`
    /// at 0, 1/2, 1 and inside (0, 1), preferences with zero entries, and
    /// bins whose activities are all zero.
    #[test]
    fn stable_fp_series_matches_simplified_ic_bit_for_bit(
        n in 1usize..31,
        bins in 1usize..10,
        f_pick in 0usize..4,
        seed in any::<u64>(),
    ) {
        let f = [0.0, 0.5, 1.0, unit(seed, 0)][f_pick];
        let mut preference: Vec<f64> = (0..n as u64)
            .map(|i| if unit(seed, 1 + i) < 0.2 { 0.0 } else { unit(seed, 100 + i) })
            .collect();
        preference[(seed % n as u64) as usize] += 0.1;
        let mut activity = Matrix::zeros(n, bins);
        for t in 0..bins {
            if unit(seed, 300 + t as u64) < 0.2 {
                continue;
            }
            for i in 0..n {
                activity[(i, t)] = 1e3 * unit(seed, (400 + i * bins + t) as u64);
            }
        }
        let params = StableFpParams { f, preference: preference.clone(), activity };
        let series = stable_fp_series(&params, 300.0).unwrap();
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for t in 0..bins {
            let a: Vec<f64> = (0..n).map(|i| params.activity[(i, t)]).collect();
            let want = simplified_ic(f, &a, &preference).unwrap();
            prop_assert_eq!(bits(&series.snapshot(t).unwrap()), bits(&want), "bin {}", t);
        }
    }
}
