//! Priors for TM estimation (step 1 of the blueprint).
//!
//! Four priors are provided: the gravity baseline and the three IC priors
//! corresponding to the paper's measurement scenarios (Sections 6.1–6.3).
//! All implement [`TmPrior`], producing a full prior series from
//! [`Observations`] alone — which is the point: priors may only consume
//! what the scenario says is measurable.

use crate::observe::Observations;
use crate::{EstimationError, Result};
use ic_core::model::StableFpParams;
use ic_core::{stable_fp_series, TmSeries};
use ic_linalg::Matrix;

/// A prior construction strategy.
///
/// `Send + Sync` so priors can be constructed dynamically (boxed, possibly
/// holding owned data) and shared across the threads of a parallel
/// experiment runner.
pub trait TmPrior: Send + Sync {
    /// Short name used in experiment reports (e.g. `"gravity"`).
    fn name(&self) -> &str;

    /// Builds the prior series from per-bin observations.
    fn prior_series(&self, obs: &Observations) -> Result<TmSeries>;

    /// Builds the prior series into `out`, bit-identical to
    /// [`TmPrior::prior_series`] whatever `out` held before: every entry
    /// is overwritten, and an `out` of another shape or bin length is
    /// replaced. On error `out` is left as it was. A prior that can write
    /// in place overrides this to reuse `out`'s buffer, as
    /// [`GravityPrior`] does; the default replaces `out` with a fresh
    /// series.
    fn prior_series_into(&self, obs: &Observations, out: &mut TmSeries) -> Result<()> {
        *out = self.prior_series(obs)?;
        Ok(())
    }
}

/// The gravity prior: `X̂_ij(t) = X_{i*}(t) · X_{*j}(t) / X_{**}(t)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct GravityPrior;

impl TmPrior for GravityPrior {
    fn name(&self) -> &str {
        "gravity"
    }

    fn prior_series(&self, obs: &Observations) -> Result<TmSeries> {
        let mut out = TmSeries::zeros(obs.nodes(), obs.bins(), obs.bin_seconds)?;
        self.prior_series_into(obs, &mut out)?;
        Ok(out)
    }

    /// Writes the series layout in place, with the arithmetic of
    /// [`ic_core::gravity_from_marginals`] per bin: each bin's total sums
    /// its ingress counts in node order, and an idle bin is all zeros.
    fn prior_series_into(&self, obs: &Observations, out: &mut TmSeries) -> Result<()> {
        obs.check_marginals()?;
        let (n, bins) = (obs.nodes(), obs.bins());
        if (out.nodes(), out.bins()) != (n, bins)
            || out.bin_seconds() != obs.bin_seconds
            || out.node_names().is_some()
        {
            *out = TmSeries::zeros(n, bins, obs.bin_seconds)?;
        }
        let (ingress, egress) = (obs.ingress.as_slice(), obs.egress.as_slice());
        let totals: Vec<f64> = (0..bins)
            .map(|t| (0..n).map(|i| ingress[i * bins + t]).sum())
            .collect();
        // With every bin busy the fill needs no per-entry test; the
        // branch-free loop makes a multilevel-5k call ~10% faster.
        let every_bin_busy = totals.iter().all(|&total| total > 0.0);
        let mut cells = out.as_matrix_mut().as_mut_slice().chunks_exact_mut(bins);
        for a in ingress.chunks_exact(bins) {
            for (e, cell) in egress.chunks_exact(bins).zip(&mut cells) {
                let lanes = cell.iter_mut().zip(a).zip(e).zip(&totals);
                if every_bin_busy {
                    for (((x, &a), &e), &total) in lanes {
                        *x = a * e / total;
                    }
                } else {
                    for (((x, &a), &e), &total) in lanes {
                        *x = if total > 0.0 { a * e / total } else { 0.0 };
                    }
                }
            }
        }
        Ok(())
    }
}

/// Section 6.1: all IC parameters (`f`, `{P_i}`, `{A_i(t)}`) were measured
/// directly; the prior is the stable-fP evaluation of those parameters.
///
/// The parameters typically come from a Section 5.1 fit of a directly
/// measured TM — the paper's "thought experiment ... to understand the
/// bounds of the gain the IC model can achieve".
#[derive(Debug, Clone)]
pub struct MeasuredIcPrior {
    /// The measured parameters.
    pub params: StableFpParams,
}

impl TmPrior for MeasuredIcPrior {
    fn name(&self) -> &str {
        "ic-measured"
    }

    fn prior_series(&self, obs: &Observations) -> Result<TmSeries> {
        if self.params.bins() != obs.bins() {
            return Err(EstimationError::DimensionMismatch {
                context: "MeasuredIcPrior bins",
                expected: obs.bins(),
                actual: self.params.bins(),
            });
        }
        if self.params.nodes() != obs.nodes() {
            return Err(EstimationError::DimensionMismatch {
                context: "MeasuredIcPrior nodes",
                expected: obs.nodes(),
                actual: self.params.nodes(),
            });
        }
        Ok(stable_fp_series(&self.params, obs.bin_seconds)?)
    }
}

/// Section 6.2: `f` and `{P_i}` measured in a previous week; `{A_i(t)}`
/// estimated per bin from ingress/egress counts `u`, `v` (paper Eq. 7–9).
///
/// The paper takes `Ã(t) = (QΦ)⁺ [u; v]`, with `Φ` the stable-fP map from
/// activities to the TM and `Q = [H; G]` its marginals. With `p` the
/// normalized preference, `QΦ = [f·I + (1−f)·p1ᵀ ; (1−f)·I + f·p1ᵀ]` has
/// full column rank for every `f`, and its Gram `c₀·I + β·(p1ᵀ + 1pᵀ) +
/// γ·11ᵀ` (`β = 2f(1−f)`, `c₀ = 1 − β`, `π = ‖p‖²`, `γ = c₀π`) leaves one
/// 2×2 solve per bin, for `s = 1ᵀa` and `q = pᵀa`:
///
/// ```text
/// r = f·u + (1−f)·v + ((1−f)·pᵀu + f·pᵀv)·1
/// [1 + γn, βn; βπ + γ, 1]·(s, q) = (1ᵀr, pᵀr)
/// Ã = max(0, (r − β·(s·p + q·1) − γs·1) / c₀)
/// ```
///
/// Its determinant is `1 + nπ(2f − 1)² ≥ 1`, so no `f` is singular. The
/// clamp keeps a noisy bin's activities physical. The prior is the
/// stable-fP evaluation of `(f, P, Ã)` that [`MeasuredIcPrior`] uses.
#[derive(Debug, Clone)]
pub struct StableFpPrior {
    /// Previously measured forward ratio.
    pub f: f64,
    /// Previously measured preference (normalized internally).
    pub preference: Vec<f64>,
}

impl StableFpPrior {
    /// The prior-from-previous-fit strategy of streaming estimation:
    /// carries `(f, {P_i})` from the most recent fitted window into the
    /// next window's prior, where Eq. 7–9 recover the activities from
    /// that window's own marginals. The paper's Section 6.2 calibration
    /// week, rolled forward continuously.
    pub fn from_fit(fit: &ic_core::FitReport<ic_core::StableFpParams>) -> Self {
        StableFpPrior {
            f: fit.params.f,
            preference: fit.params.preference.clone(),
        }
    }
}

impl TmPrior for StableFpPrior {
    fn name(&self) -> &str {
        "ic-stable-fp"
    }

    fn prior_series(&self, obs: &Observations) -> Result<TmSeries> {
        obs.check_marginals()?;
        let (n, bins) = (obs.nodes(), obs.bins());
        if self.preference.len() != n {
            return Err(EstimationError::DimensionMismatch {
                context: "StableFpPrior preference",
                expected: n,
                actual: self.preference.len(),
            });
        }
        if !(0.0..=1.0).contains(&self.f) {
            return Err(EstimationError::InvalidParameter {
                name: "f",
                constraint: "must lie in [0, 1]",
            });
        }
        let mass: f64 = self.preference.iter().sum();
        if !(mass > 0.0) || self.preference.iter().any(|&v| v < 0.0 || !v.is_finite()) {
            return Err(EstimationError::InvalidParameter {
                name: "preference",
                constraint: "entries must be finite and non-negative, with positive mass",
            });
        }
        // The normalization `stable_fp_series` applies, so `p` has its bits.
        let p: Vec<f64> = self.preference.iter().map(|&v| v / mass).collect();
        let f = self.f;
        let beta = 2.0 * f * (1.0 - f);
        let c0 = 1.0 - beta;
        let pi: f64 = p.iter().map(|&v| v * v).sum();
        let gamma = c0 * pi;
        let (g11, g12, g21) = (1.0 + gamma * n as f64, beta * n as f64, beta * pi + gamma);
        let det = g11 - g12 * g21;

        let dot = |x: &[f64], y: &[f64]| -> f64 { x.iter().zip(y).map(|(x, y)| x * y).sum() };
        let mut activity = Matrix::zeros(n, bins);
        for t in 0..bins {
            let (u, v) = (obs.ingress_at(t), obs.egress_at(t));
            let shift = (1.0 - f) * dot(&p, &u) + f * dot(&p, &v);
            let r: Vec<f64> = u
                .iter()
                .zip(&v)
                .map(|(u, v)| f * u + (1.0 - f) * v + shift)
                .collect();
            let (sum_r, p_r) = (r.iter().sum::<f64>(), dot(&p, &r));
            let s = (sum_r - g12 * p_r) / det;
            let q = (g11 * p_r - g21 * sum_r) / det;
            for (i, (&r, &p)) in r.iter().zip(&p).enumerate() {
                let a = (r - beta * (s * p + q) - gamma * s) / c0;
                // Not `max`: an overflow's NaN must reach the activity check.
                activity[(i, t)] = if a < 0.0 { 0.0 } else { a };
            }
        }
        let params = StableFpParams {
            f,
            preference: self.preference.clone(),
            activity,
        };
        Ok(stable_fp_series(&params, obs.bin_seconds)?)
    }
}

/// Section 6.3: only `f` is known. Per bin, activities and preferences are
/// recovered from the marginal inversion (paper Eq. 11–12):
///
/// ```text
/// Ã_i = (f·X_{i*} − (1−f)·X_{*i}) / (2f − 1)
/// P̃_i ∝ (f·X_{*i} − (1−f)·X_{i*}) / (2f − 1)
/// ```
///
/// and the prior is the stable-f evaluation with those values. `f = 1/2`
/// makes the inversion singular and is rejected.
#[derive(Debug, Clone, Copy)]
pub struct StableFPrior {
    /// The measured forward ratio.
    pub f: f64,
}

impl TmPrior for StableFPrior {
    fn name(&self) -> &str {
        "ic-stable-f"
    }

    fn prior_series(&self, obs: &Observations) -> Result<TmSeries> {
        obs.check_marginals()?;
        if !(0.0..=1.0).contains(&self.f) {
            return Err(EstimationError::InvalidParameter {
                name: "f",
                constraint: "must lie in [0, 1]",
            });
        }
        let denom = 2.0 * self.f - 1.0;
        if denom.abs() < 1e-6 {
            return Err(EstimationError::InvalidParameter {
                name: "f",
                constraint: "Eq. 11-12 inversion requires f != 1/2",
            });
        }
        let n = obs.nodes();
        let f = self.f;
        let mut out = TmSeries::zeros(n, obs.bins(), obs.bin_seconds)?;
        for t in 0..obs.bins() {
            let ing = obs.ingress_at(t);
            let eg = obs.egress_at(t);
            let a: Vec<f64> = (0..n)
                .map(|i| ((f * ing[i] - (1.0 - f) * eg[i]) / denom).max(0.0))
                .collect();
            let p_raw: Vec<f64> = (0..n)
                .map(|i| ((f * eg[i] - (1.0 - f) * ing[i]) / denom).max(0.0))
                .collect();
            let pmass: f64 = p_raw.iter().sum();
            if pmass <= 0.0 {
                // An idle bin: zero prior.
                continue;
            }
            let p: Vec<f64> = p_raw.iter().map(|&v| v / pmass).collect();
            for i in 0..n {
                for j in 0..n {
                    let v = f * a[i] * p[j] + (1.0 - f) * a[j] * p[i];
                    out.set(i, j, t, v)?;
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::ObservationModel;
    use ic_core::{gravity_from_marginals, mean_rel_l2, simplified_ic};
    use ic_topology::{geant22, RoutingScheme, Topology};

    /// A small topology and an exactly-IC series on it.
    fn setup(f: f64) -> (Topology, TmSeries, StableFpParams) {
        let mut topo = Topology::new("t4");
        let a = topo.add_node("a").unwrap();
        let b = topo.add_node("b").unwrap();
        let c = topo.add_node("c").unwrap();
        let d = topo.add_node("d").unwrap();
        topo.add_symmetric_link(a, b, 1.0, 1e12).unwrap();
        topo.add_symmetric_link(b, c, 1.0, 1e12).unwrap();
        topo.add_symmetric_link(c, d, 1.0, 1e12).unwrap();
        topo.add_symmetric_link(d, a, 1.0, 1e12).unwrap();
        let n = 4;
        let bins = 6;
        let p = vec![0.4, 0.3, 0.2, 0.1];
        let mut activity = Matrix::zeros(n, bins);
        for i in 0..n {
            for t in 0..bins {
                activity[(i, t)] =
                    1000.0 * (i + 1) as f64 * (1.0 + 0.2 * ((t + i) as f64).cos().abs());
            }
        }
        let params = StableFpParams {
            f,
            preference: p,
            activity,
        };
        let tm = stable_fp_series(&params, 300.0).unwrap();
        (topo, tm, params)
    }

    #[test]
    fn gravity_prior_matches_direct_computation() {
        let (topo, tm, _) = setup(0.25);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let obs = om.observe(&tm).unwrap();
        let prior = GravityPrior.prior_series(&obs).unwrap();
        assert_eq!(GravityPrior.name(), "gravity");
        let direct = gravity_from_marginals(&tm.ingress(0), &tm.egress(0)).unwrap();
        assert!((prior.get(0, 1, 0).unwrap() - direct[(0, 1)]).abs() < 1e-9);
    }

    #[test]
    fn measured_prior_reproduces_exact_ic_data() {
        let (topo, tm, params) = setup(0.25);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let obs = om.observe(&tm).unwrap();
        let prior = MeasuredIcPrior { params }.prior_series(&obs).unwrap();
        assert!(mean_rel_l2(&tm, &prior).unwrap() < 1e-12);
    }

    #[test]
    fn measured_prior_validates_shape() {
        let (topo, tm, params) = setup(0.25);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let obs = om.observe(&tm).unwrap();
        let bad = StableFpParams {
            activity: Matrix::zeros(4, 3), // wrong bin count
            ..params
        };
        assert!(MeasuredIcPrior { params: bad }.prior_series(&obs).is_err());
    }

    #[test]
    fn stable_fp_prior_recovers_exact_ic_data() {
        // With the true f and P, activities recovered from marginals alone
        // must reproduce the exact IC series: at both ends of `f`, at
        // `f = 1/2` (singular for `StableFPrior`, determinant 1 here), and
        // with a node of zero preference.
        for (f, zero_node) in [
            (0.25, None),
            (0.0, None),
            (0.5, None),
            (1.0, None),
            (0.25, Some(2)),
        ] {
            let (topo, _, mut params) = setup(f);
            if let Some(k) = zero_node {
                params.preference[k] = 0.0;
            }
            let tm = stable_fp_series(&params, 300.0).unwrap();
            let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
            let obs = om.observe(&tm).unwrap();
            let prior = StableFpPrior {
                f: params.f,
                preference: params.preference.clone(),
            }
            .prior_series(&obs)
            .unwrap();
            let err = mean_rel_l2(&tm, &prior).unwrap();
            assert!(err < 1e-9, "f {f}, zero node {zero_node:?}: error {err}");
        }
    }

    #[test]
    fn stable_fp_prior_beats_gravity_with_wrong_but_close_params() {
        // Perturb P a little: the IC prior should still beat gravity on
        // IC-structured data.
        let (topo, tm, params) = setup(0.22);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let obs = om.observe(&tm).unwrap();
        let mut p = params.preference.clone();
        p[0] *= 1.1;
        p[3] *= 0.9;
        let ic = StableFpPrior {
            f: 0.24,
            preference: p,
        }
        .prior_series(&obs)
        .unwrap();
        let grav = GravityPrior.prior_series(&obs).unwrap();
        let e_ic = mean_rel_l2(&tm, &ic).unwrap();
        let e_gr = mean_rel_l2(&tm, &grav).unwrap();
        assert!(e_ic < e_gr, "ic {e_ic} vs gravity {e_gr}");
    }

    #[test]
    fn stable_f_prior_recovers_exact_ic_data() {
        let (topo, tm, params) = setup(0.25);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let obs = om.observe(&tm).unwrap();
        let prior = StableFPrior { f: params.f }.prior_series(&obs).unwrap();
        let err = mean_rel_l2(&tm, &prior).unwrap();
        assert!(err < 1e-9, "stable-f prior error {err}");
    }

    #[test]
    fn stable_f_prior_rejects_half() {
        let (topo, tm, _) = setup(0.25);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let obs = om.observe(&tm).unwrap();
        assert!(StableFPrior { f: 0.5 }.prior_series(&obs).is_err());
        assert!(StableFPrior { f: 1.5 }.prior_series(&obs).is_err());
    }

    #[test]
    fn stable_fp_prior_validates_inputs() {
        let (topo, tm, _) = setup(0.25);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let obs = om.observe(&tm).unwrap();
        assert!(StableFpPrior {
            f: 0.25,
            preference: vec![0.5; 3]
        }
        .prior_series(&obs)
        .is_err());
        assert!(StableFpPrior {
            f: 1.5,
            preference: vec![0.25; 4]
        }
        .prior_series(&obs)
        .is_err());
        assert!(StableFpPrior {
            f: 0.25,
            preference: vec![0.0; 4]
        }
        .prior_series(&obs)
        .is_err());
        // Positive mass, but entries no preference can hold.
        for preference in [
            vec![0.5, -0.1, 0.6, 0.0],
            vec![f64::INFINITY, 1.0, 1.0, 1.0],
        ] {
            let result = StableFpPrior {
                f: 0.25,
                preference,
            }
            .prior_series(&obs);
            assert!(
                matches!(
                    result,
                    Err(EstimationError::InvalidParameter {
                        name: "preference",
                        ..
                    })
                ),
                "{result:?}"
            );
        }
    }

    #[test]
    fn priors_reject_a_non_finite_or_negative_marginal() {
        let (topo, tm, _) = setup(0.25);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let obs = om.observe(&tm).unwrap();
        let priors: [&dyn TmPrior; 3] = [&GravityPrior, &StableFPrior { f: 0.25 }, &stable_fp()];
        for prior in priors {
            for bad in [f64::NAN, f64::INFINITY, -1.0] {
                for egress in [false, true] {
                    let mut obs = obs.clone();
                    let marginal = if egress {
                        &mut obs.egress
                    } else {
                        &mut obs.ingress
                    };
                    marginal[(1, 2)] = bad;
                    assert_eq!(
                        prior.prior_series(&obs).unwrap_err(),
                        EstimationError::BadData(
                            "observation marginals must be finite and non-negative"
                        ),
                        "{} with {bad} in {}",
                        prior.name(),
                        if egress { "egress" } else { "ingress" }
                    );
                }
            }
        }
    }

    /// The exact-IC observations with one field replaced, run through
    /// `prior`: a mis-shaped marginal must be a dimension error, not a
    /// panic or a prior read from the wrong entries.
    fn assert_rejects_mis_shaped(prior: &dyn TmPrior, edit: impl Fn(&mut Observations)) {
        let (topo, tm, _) = setup(0.25);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let mut obs = om.observe(&tm).unwrap();
        edit(&mut obs);
        let result = prior.prior_series(&obs);
        assert!(
            matches!(result, Err(EstimationError::DimensionMismatch { .. })),
            "{}: {result:?}",
            prior.name()
        );
    }

    fn egress_one_bin_short(obs: &mut Observations) {
        obs.egress = Matrix::filled(obs.nodes(), obs.bins() - 1, 1e3);
    }

    fn egress_one_node_short(obs: &mut Observations) {
        obs.egress = Matrix::filled(obs.nodes() - 1, obs.bins(), 1e3);
    }

    fn marginals_longer_than_link_loads(obs: &mut Observations) {
        let (n, bins) = (obs.nodes(), obs.bins() + 2);
        obs.ingress = Matrix::filled(n, bins, 1e3);
        obs.egress = Matrix::filled(n, bins, 1e3);
    }

    fn stable_fp() -> StableFpPrior {
        StableFpPrior {
            f: 0.25,
            preference: vec![0.4, 0.3, 0.2, 0.1],
        }
    }

    #[test]
    fn stable_fp_prior_rejects_egress_one_bin_short() {
        assert_rejects_mis_shaped(&stable_fp(), egress_one_bin_short);
    }

    #[test]
    fn stable_fp_prior_rejects_egress_one_node_short() {
        assert_rejects_mis_shaped(&stable_fp(), egress_one_node_short);
    }

    #[test]
    fn stable_fp_prior_rejects_marginals_longer_than_link_loads() {
        assert_rejects_mis_shaped(&stable_fp(), marginals_longer_than_link_loads);
    }

    #[test]
    fn stable_f_prior_rejects_egress_one_bin_short() {
        assert_rejects_mis_shaped(&StableFPrior { f: 0.25 }, egress_one_bin_short);
    }

    #[test]
    fn stable_f_prior_rejects_egress_one_node_short() {
        assert_rejects_mis_shaped(&StableFPrior { f: 0.25 }, egress_one_node_short);
    }

    #[test]
    fn stable_f_prior_rejects_marginals_longer_than_link_loads() {
        assert_rejects_mis_shaped(&StableFPrior { f: 0.25 }, marginals_longer_than_link_loads);
    }

    fn bits(tm: &TmSeries) -> Vec<u64> {
        tm.as_matrix()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }

    /// `prior_series_into` writes every entry, so whatever the buffer held
    /// it gives `prior_series` bit for bit: a NaN-filled buffer of the
    /// right shape (gravity's in-place path, where only an explicit zero
    /// write clears the idle bin), and buffers of the wrong node count,
    /// bin count or bin length, or carrying node names. On error the
    /// buffer is left as it was.
    #[test]
    fn prior_series_into_matches_prior_series() {
        let (topo, tm, _) = setup(0.25);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let mut obs = om.observe(&tm).unwrap();
        let (n, bins) = (obs.nodes(), obs.bins());
        // An idle bin, a zero ingress and a zero egress.
        for i in 0..n {
            obs.ingress[(i, 2)] = 0.0;
            obs.egress[(i, 2)] = 0.0;
        }
        obs.ingress[(1, 0)] = 0.0;
        obs.egress[(3, 4)] = 0.0;
        let nan = |n: usize, bins: usize, bin_seconds: f64| {
            TmSeries::from_matrix(n, bin_seconds, Matrix::filled(n * n, bins, f64::NAN)).unwrap()
        };
        let priors: [&dyn TmPrior; 3] = [&GravityPrior, &StableFPrior { f: 0.25 }, &stable_fp()];
        for prior in priors {
            let want = prior.prior_series(&obs).unwrap();
            let named = nan(n, bins, 300.0)
                .with_node_names((0..n).map(|i| format!("n{i}")).collect())
                .unwrap();
            let buffers = [
                nan(n, bins, 300.0),
                nan(n + 1, bins, 300.0),
                nan(n, bins - 1, 300.0),
                nan(n, bins, 900.0),
                named,
            ];
            for (k, mut out) in buffers.into_iter().enumerate() {
                prior.prior_series_into(&obs, &mut out).unwrap();
                assert_eq!(bits(&out), bits(&want), "{} buffer {k}", prior.name());
                assert_eq!(out, want, "{} buffer {k}", prior.name());
            }
            let mut bad = obs.clone();
            bad.egress[(0, 1)] = f64::NAN;
            let mut out = want.clone();
            assert!(prior.prior_series_into(&bad, &mut out).is_err());
            assert_eq!(bits(&out), bits(&want), "{}", prior.name());
        }
    }

    #[test]
    fn priors_scale_to_geant() {
        // Shape check on the real 22-node topology.
        let topo = geant22();
        let n = topo.node_count();
        let mut tm = TmSeries::zeros(n, 2, 300.0).unwrap();
        let p: Vec<f64> = (1..=n).map(|k| k as f64).collect();
        let a: Vec<f64> = (1..=n).map(|k| 1e7 * k as f64).collect();
        let x = simplified_ic(0.25, &a, &p).unwrap();
        for t in 0..2 {
            for i in 0..n {
                for j in 0..n {
                    tm.set(i, j, t, x[(i, j)]).unwrap();
                }
            }
        }
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let obs = om.observe(&tm).unwrap();
        for prior in [
            Box::new(GravityPrior) as Box<dyn TmPrior>,
            Box::new(StableFPrior { f: 0.25 }),
            Box::new(StableFpPrior {
                f: 0.25,
                preference: p.clone(),
            }),
        ] {
            let series = prior.prior_series(&obs).unwrap();
            assert_eq!(series.nodes(), n, "{}", prior.name());
            assert_eq!(series.bins(), 2);
            assert!(series.is_physical());
        }
    }
}
