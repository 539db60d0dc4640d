//! Fitting IC model parameters to traffic-matrix data (paper Section 5.1).
//!
//! The paper estimates `f`, `{P_i}`, `{A_i(t)}` with a nonlinear program:
//!
//! ```text
//! minimize   Σ_t RelL2T(t)
//! where      X̂_ij(t) = f·A_i(t)·P_j + (1 − f)·A_j(t)·P_i
//! subject to A_i(t) ≥ 0,  P_i ≥ 0,  Σ_i P_i = 1
//! ```
//!
//! solved numerically with the Matlab Optimization Toolbox. This module
//! replaces the toolbox with **block-coordinate descent** (BCD), exploiting
//! the bilinear structure: with two of the three blocks fixed, each of
//! `A(t)`, `P`, `f` solves a *convex least-squares* problem in closed form.
//!
//! * **Activity step.** For fixed `(f, P)` each bin's normal equations
//!   have the two-term Gram `c1·‖P‖²·I + c2·PPᵀ`, with `c1 = f² + (1−f)²`
//!   and `c2 = 2f(1−f)`: a diagonal plus one rank-one term. Its
//!   non-negative least squares is exact in closed form, with no
//!   factorization and no iteration: `A(t) = max(0, (r − c2·μ·P)/(c1·‖P‖²))`,
//!   where the scalar `μ = PᵀA(t)` is the root of a monotone
//!   piecewise-linear equation found in one pass over its sorted
//!   breakpoints.
//! * **Preference step.** The per-bin Gram has the same two-term form with
//!   `A(t)` in place of `P`. The stable-f and time-varying fits solve it
//!   per bin with the same closed form. The stable-fP fit accumulates it
//!   over bins (with the per-bin objective weights); the sum carries one
//!   rank-one term per bin, so it is solved once per sweep with NNLS.
//!   Either way the result is renormalized to the simplex — the model is
//!   invariant under `(P, A) → (cP, A/c)`, so the normalization is absorbed
//!   by rescaling `A`.
//! * **f step.** `X̂` is affine in `f`; the scalar minimizer is closed-form
//!   and clamped to `[0, 1]`.
//!
//! A stable-fP sweep makes four passes over the series. Three walk it in
//! storage order: one builds both halves of every bin's activity
//! right-hand side, one every bin's preference right-hand side, and one
//! computes the prediction together with the objective, which is never
//! materialized. The `f` step walks it bin by bin, the order of its two
//! running sums. The [`Objective::WeightedSse`] bin weights depend on the
//! data only and are computed once per fit. Every sum adds its terms in
//! the order of the per-bin loops it replaces, so the fit's output is
//! bit-identical to scoring each sweep with `mean_rel_l2` on a
//! `stable_fp_series` prediction, and the sweep loop allocates nothing
//! but the growth of the objective history.
//!
//! The paper's objective `Σ_t RelL2(t)` is a sum of *norms* (non-smooth at
//! zero residual). [`Objective::WeightedSse`] optimizes the smooth surrogate
//! `Σ_t ‖X(t) − X̂(t)‖² / ‖X(t)‖²` (each bin weighted by its squared norm —
//! the Gauss–Newton standard, and exactly the Gaussian MLE the paper
//! appeals to). [`Objective::SumRelL2`] targets the paper's objective
//! literally via iteratively-reweighted least squares. The two give nearly
//! identical parameters on realistic data; both are provided so the choice
//! is explicit and testable.

use crate::error::mean_rel_l2;
use crate::model::{
    stable_f_series, time_varying_series, validate_stable_fp, StableFParams, StableFpParams,
    TimeVaryingParams,
};
use crate::tm::TmSeries;
use crate::{IcError, Result};
use ic_linalg::nnls::{nnls_from_normal_equations_with, NnlsWorkspace};
use ic_linalg::Matrix;

/// Which scalarization of the Section 5.1 objective to optimize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Smooth surrogate `Σ_t ‖X(t) − X̂(t)‖²/‖X(t)‖²` (default; the Gaussian
    /// maximum-likelihood reading of the paper's program).
    #[default]
    WeightedSse,
    /// The paper's literal `Σ_t ‖X(t) − X̂(t)‖/‖X(t)‖` via IRLS.
    SumRelL2,
}

/// A warm-start initial point for the BCD fits, typically carried over
/// from the previous window's fit in streaming/online settings.
///
/// The paper's stability findings (Section 5.2–5.3) are what make this
/// work: `f` and `{P_i}` barely move between adjacent windows, so starting
/// the descent at the previous optimum lands the first sweep next to the
/// new optimum. Activities need no carrying — every fit's first activity
/// step recomputes them in closed form from `(f, P)`.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStart {
    /// Initial forward ratio (clamped to `[0, 1]` at use).
    pub f: f64,
    /// Initial preference vector (renormalized to the simplex at use;
    /// length must match the fitted series' node count).
    pub preference: Vec<f64>,
}

impl WarmStart {
    /// Extracts the warm-start point from a completed stable-fP fit.
    pub fn from_fit(previous: &FitReport<StableFpParams>) -> Self {
        WarmStart {
            f: previous.params.f,
            preference: previous.params.preference.clone(),
        }
    }
}

/// Options controlling the block-coordinate descent.
///
/// Marked `#[non_exhaustive]`: construct via [`FitOptions::default`] and
/// the `with_*` setters so future knobs are not breaking changes.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct FitOptions {
    /// Maximum BCD sweeps (default 40).
    pub max_sweeps: usize,
    /// Relative objective-improvement threshold for convergence
    /// (default 1e-6).
    pub tolerance: f64,
    /// Initial forward ratio (default 0.3, inside the paper's observed
    /// 0.2–0.3 range). Ignored when a warm start is supplied.
    pub initial_f: f64,
    /// Objective scalarization.
    pub objective: Objective,
    /// When true, `f` is held fixed at the initial forward ratio instead
    /// of being optimized (used by estimation scenarios where `f` was
    /// measured).
    pub fix_f: bool,
    /// Optional warm-start point replacing the Eq. 11–12 cold
    /// initialization (default `None`).
    pub initial: Option<WarmStart>,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            max_sweeps: 40,
            tolerance: 1e-6,
            initial_f: 0.3,
            objective: Objective::WeightedSse,
            fix_f: false,
            initial: None,
        }
    }
}

impl FitOptions {
    /// Sets the maximum number of BCD sweeps.
    pub fn with_max_sweeps(mut self, max_sweeps: usize) -> Self {
        self.max_sweeps = max_sweeps;
        self
    }

    /// Sets the relative objective-improvement convergence threshold.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Sets the initial forward ratio.
    pub fn with_initial_f(mut self, initial_f: f64) -> Self {
        self.initial_f = initial_f;
        self
    }

    /// Sets the objective scalarization.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Holds `f` fixed at `initial_f` (or releases it) during the fit.
    pub fn with_fix_f(mut self, fix_f: bool) -> Self {
        self.fix_f = fix_f;
        self
    }

    /// Warm-starts the descent from a previous stable-fP fit: the previous
    /// optimum's `(f, P)` replace the Eq. 11–12 cold initialization. All
    /// three family fits honor the warm start.
    pub fn with_initial(mut self, previous: &FitReport<StableFpParams>) -> Self {
        self.initial = Some(WarmStart::from_fit(previous));
        self
    }

    /// Warm-starts the descent from an explicit `(f, P)` point (e.g. a
    /// forecast of the next window's parameters).
    pub fn with_warm_start(mut self, warm: WarmStart) -> Self {
        self.initial = Some(warm);
        self
    }

    /// Checks the options every fit would otherwise trip over: a
    /// non-finite `initial_f`, and a `tolerance` that is NaN or negative
    /// (a negative one never lets the fit converge). `tolerance = 0` is
    /// valid: the fit then stops as soon as a sweep fails to improve.
    pub fn validate(&self) -> Result<()> {
        if !self.initial_f.is_finite() {
            return Err(IcError::InvalidParameter {
                name: "initial_f",
                constraint: "must be finite",
            });
        }
        if !(self.tolerance >= 0.0) {
            return Err(IcError::InvalidParameter {
                name: "tolerance",
                constraint: "must be non-negative",
            });
        }
        Ok(())
    }
}

/// Result of fitting a family member `M`: the fitted parameterization plus
/// the optimization trace. The uniform report type behind
/// [`crate::ic_model::Fit`] — generic code can fit any variant and consume
/// the result identically. It carries no solver counters: the activity and
/// per-bin preference steps are closed forms, and the stable-fP preference
/// step's NNLS has no fallback to count.
#[derive(Debug, Clone, PartialEq)]
pub struct FitReport<M> {
    /// Fitted parameters.
    pub params: M,
    /// Mean `RelL2T` after each sweep (monotone non-increasing up to
    /// re-weighting effects).
    pub objective_history: Vec<f64>,
    /// Whether the tolerance was reached before the sweep budget.
    pub converged: bool,
}

impl<M: crate::ic_model::IcModel> FitReport<M> {
    /// Evaluates the fitted model as a prediction series.
    pub fn predict(&self, bin_seconds: f64) -> Result<TmSeries> {
        self.params.evaluate(bin_seconds)
    }
}

impl<M> FitReport<M> {
    /// Final objective value (mean RelL2 over bins).
    pub fn final_objective(&self) -> f64 {
        self.objective_history.last().copied().unwrap_or(f64::NAN)
    }
}

/// Exact non-negative least squares of the activity and per-bin preference
/// steps: `min ½aᵀGa − rᵀa` subject to `a ≥ 0`, for the two-term
/// `G = c1·s·I + c2·v·vᵀ` with `c1 = f² + (1−f)²`, `c2 = 2f(1−f)`,
/// `s = ‖v‖²` and `v ≥ 0`, into `out`.
///
/// The KKT point is `a_i = max(0, (r_i − c2·μ·v_i)/(c1·s))` with the scalar
/// `μ = vᵀa`. Entry `i` is positive exactly while `μ` is below its
/// breakpoint `r_i/(c2·v_i)`, so `μ − vᵀa(μ)` is strictly increasing and
/// linear between breakpoints. Sorting the positive breakpoints in
/// descending order (in the reused `order`) and admitting entries one at a
/// time finds the piece that holds its root in one pass. Entries with
/// `v_i = 0` or `r_i ≤ 0` never enter `μ`; `s = 0` gives `a = 0`.
fn two_term_nnls_into(
    f: f64,
    v: &[f64],
    r: &[f64],
    order: &mut Vec<(f64, usize)>,
    out: &mut [f64],
) {
    let c1 = f * f + (1.0 - f) * (1.0 - f);
    let c2 = 2.0 * f * (1.0 - f);
    let c1s = c1 * v.iter().map(|&x| x * x).sum::<f64>();
    if c1s == 0.0 {
        out.fill(0.0);
        return;
    }
    order.clear();
    if c2 > 0.0 {
        order.extend(
            v.iter()
                .zip(r)
                .enumerate()
                .filter(|&(_, (&vi, &ri))| vi > 0.0 && ri > 0.0)
                .map(|(i, (&vi, &ri))| (ri / (c2 * vi), i)),
        );
        // Descending by breakpoint, ties by index: a total order, so the
        // in-place unstable sort gives one answer.
        order.sort_unstable_by(|x, y| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1)));
    }
    let (mut vv, mut vr, mut mu) = (0.0, 0.0, 0.0);
    for (k, &(_, i)) in order.iter().enumerate() {
        vv += v[i] * v[i];
        vr += v[i] * r[i];
        let den = c1s + c2 * vv;
        let next = order.get(k + 1).map_or(0.0, |&(b, _)| b);
        if next * den <= vr {
            mu = vr / den;
            break;
        }
    }
    for ((slot, &vi), &ri) in out.iter_mut().zip(v).zip(r) {
        *slot = ((ri - c2 * mu * vi) / c1s).max(0.0);
    }
}

/// Right-hand side of the activity subproblem at one bin:
/// `rhs_k = f·Σ_j X_kj·P_j + (1−f)·Σ_i X_ik·P_i`, into a reused buffer.
fn activity_rhs_into(x: &TmSeries, bin: usize, f: f64, p: &[f64], rhs: &mut [f64]) {
    let n = x.nodes();
    let m = x.as_matrix();
    for (k, slot) in rhs.iter_mut().enumerate() {
        let mut fwd = 0.0;
        let mut rev = 0.0;
        for idx in 0..n {
            fwd += m[(k * n + idx, bin)] * p[idx]; // X_{k,idx}
            rev += m[(idx * n + k, bin)] * p[idx]; // X_{idx,k}
        }
        *slot = f * fwd + (1.0 - f) * rev;
    }
}

/// Right-hand side of the preference subproblem at one bin:
/// `rhs_l = f·Σ_i A_i·X_il + (1−f)·Σ_j A_j·X_lj`, into a reused buffer.
fn preference_rhs_into(x: &TmSeries, bin: usize, f: f64, a: &[f64], rhs: &mut [f64]) {
    let n = x.nodes();
    let m = x.as_matrix();
    for (l, slot) in rhs.iter_mut().enumerate() {
        let mut into_l = 0.0;
        let mut out_of_l = 0.0;
        for idx in 0..n {
            into_l += a[idx] * m[(idx * n + l, bin)]; // X_{idx,l}
            out_of_l += a[idx] * m[(l * n + idx, bin)]; // X_{l,idx}
        }
        *slot = f * into_l + (1.0 - f) * out_of_l;
    }
}

/// Per-bin objective weights from the per-bin norms `‖X(t)‖`, into a
/// reused buffer.
///
/// * `WeightedSse`: `w_t = 1/‖X(t)‖²` (zero-traffic bins get weight 0).
/// * `SumRelL2` (IRLS): `w_t = 1/(‖X(t)‖·max(‖r(t)‖, ε‖X(t)‖))`.
fn bin_weights_into(
    norms: &[f64],
    objective: Objective,
    residual_norms: Option<&[f64]>,
    weights: &mut [f64],
) {
    let eps = 1e-6;
    for (t, (slot, &norm)) in weights.iter_mut().zip(norms).enumerate() {
        *slot = if norm == 0.0 {
            0.0
        } else {
            match (objective, residual_norms) {
                (Objective::WeightedSse, _) | (Objective::SumRelL2, None) => 1.0 / (norm * norm),
                (Objective::SumRelL2, Some(r)) => 1.0 / (norm * r[t].max(eps * norm)),
            }
        };
    }
}

/// Closed-form `f` step over all bins: `X̂ = f·D + E` with
/// `D_ij = A_i P_j − A_j P_i` and `E_ij = A_j P_i`, so the least-squares
/// minimizer is `Σ w_t <X − E, D> / Σ w_t ‖D‖²`, clamped to `[0, 1]`.
fn solve_f(x: &TmSeries, activity: &Matrix, p: &[f64], weights: &[f64], prev_f: f64) -> f64 {
    let n = x.nodes();
    let m = x.as_matrix();
    let mut num = 0.0;
    let mut den = 0.0;
    for t in 0..x.bins() {
        let w = weights[t];
        if w == 0.0 {
            continue;
        }
        for i in 0..n {
            let ai = activity[(i, t)];
            for j in 0..n {
                let aj = activity[(j, t)];
                let d = ai * p[j] - aj * p[i];
                if d == 0.0 {
                    continue;
                }
                let e = aj * p[i];
                num += w * (m[(i * n + j, t)] - e) * d;
                den += w * d * d;
            }
        }
    }
    if den <= 0.0 {
        prev_f
    } else {
        (num / den).clamp(0.0, 1.0)
    }
}

fn validate_input(x: &TmSeries) -> Result<()> {
    if !x.is_physical() {
        return Err(IcError::BadData(
            "fit input must be finite and non-negative",
        ));
    }
    if (0..x.bins()).all(|t| x.total(t) == 0.0) {
        return Err(IcError::BadData("fit input carries no traffic"));
    }
    Ok(())
}

/// Resolves the initial `(f, P, A)` of a fit: the validated warm start
/// when [`FitOptions::initial`] is set, the Eq. 11–12 cold initialization
/// otherwise. Warm starts carry only `(f, P)` — activities are recomputed
/// by every fit's first activity step, so the activity seed always comes
/// from the marginal inversion at the chosen `f`.
fn initial_point(x: &TmSeries, options: &FitOptions) -> Result<(f64, Vec<f64>, Matrix)> {
    let Some(warm) = &options.initial else {
        let f = options.initial_f.clamp(0.0, 1.0);
        let (p, a) = initialize(x, f);
        return Ok((f, p, a));
    };
    if warm.preference.len() != x.nodes() {
        return Err(IcError::DimensionMismatch {
            context: "warm-start preference",
            expected: x.nodes(),
            actual: warm.preference.len(),
        });
    }
    if !warm.f.is_finite() {
        return Err(IcError::InvalidParameter {
            name: "warm_start.f",
            constraint: "must be finite",
        });
    }
    let mass: f64 = warm.preference.iter().sum();
    if warm
        .preference
        .iter()
        .any(|&v| !(v >= 0.0) || !v.is_finite())
        || !(mass > 0.0)
    {
        return Err(IcError::BadData(
            "warm-start preference must be finite, non-negative, with positive mass",
        ));
    }
    let f = warm.f.clamp(0.0, 1.0);
    let p = warm
        .preference
        .iter()
        .map(|&v| (v / mass).max(1e-12))
        .collect();
    let (_, a) = initialize(x, f);
    Ok((f, p, a))
}

/// Initial parameters from the paper's own marginal inversion (Eq. 11–12).
///
/// The model's marginals satisfy
/// `X_{i*} = f·A_i + (1−f)·P_i·ΣA` and `X_{*i} = f·P_i·ΣA + (1−f)·A_i`,
/// which invert (for `f ≠ 1/2`) to
///
/// ```text
/// A_i     = (f·X_{i*} − (1−f)·X_{*i}) / (2f − 1)        (Eq. 11)
/// P_i·ΣA  = (f·X_{*i} − (1−f)·X_{i*}) / (2f − 1)        (Eq. 12)
/// ```
///
/// Starting BCD from this inversion matters beyond convergence speed: the
/// bilinear model has a *mirror* stationary point `(f, A, P) →
/// (1−f, ~P, ~A)` when activities are nearly separable in node and time,
/// and a marginal-share initializer can land in the wrong basin. The
/// Eq. 11–12 inversion is basin-consistent with the supplied `f0`.
fn initialize(x: &TmSeries, f0: f64) -> (Vec<f64>, Matrix) {
    let n = x.nodes();
    let bins = x.bins();
    let denom = 2.0 * f0 - 1.0;
    let mi = x.mean_ingress();
    let me = x.mean_egress();

    let p_raw: Vec<f64> = if denom.abs() < 1e-3 {
        // f ≈ 1/2 degenerates the inversion; ingress and egress marginals
        // coincide in expectation, so either share works.
        mi.clone()
    } else {
        (0..n)
            .map(|i| ((f0 * me[i] - (1.0 - f0) * mi[i]) / denom).max(0.0))
            .collect()
    };
    let mass: f64 = p_raw.iter().sum();
    let p: Vec<f64> = if mass > 0.0 {
        p_raw.iter().map(|&v| (v / mass).max(1e-12)).collect()
    } else {
        vec![1.0 / n as f64; n]
    };

    let mut a = Matrix::zeros(n, bins);
    for t in 0..bins {
        let ing = x.ingress(t);
        let eg = x.egress(t);
        for i in 0..n {
            let v = if denom.abs() < 1e-3 {
                0.5 * (ing[i] + eg[i])
            } else {
                ((f0 * ing[i] - (1.0 - f0) * eg[i]) / denom).max(0.0)
            };
            a[(i, t)] = v;
        }
    }
    (p, a)
}

/// Fits the **stable-fP** model (Eq. 5) to a traffic-matrix series.
///
/// This is the paper's workhorse: Figures 3, 5, 6, 7, 8 and 9 are all built
/// from stable-fP fits of weekly data.
///
/// # Examples
///
/// ```
/// use ic_core::{fit_stable_fp, stable_fp_series, FitOptions, StableFpParams};
/// use ic_linalg::Matrix;
///
/// // Generate a small ground-truth IC series and re-fit it.
/// let truth = StableFpParams {
///     f: 0.25,
///     preference: vec![0.5, 0.3, 0.2],
///     activity: Matrix::from_rows(&[
///         &[100.0, 120.0],
///         &[50.0, 40.0],
///         &[10.0, 20.0],
///     ]).unwrap(),
/// };
/// let data = stable_fp_series(&truth, 300.0).unwrap();
/// let fit = fit_stable_fp(&data, FitOptions::default()).unwrap();
/// assert!(fit.final_objective() < 1e-3);
/// ```
pub fn fit_stable_fp(x: &TmSeries, options: FitOptions) -> Result<FitReport<StableFpParams>> {
    options.validate()?;
    validate_input(x)?;
    let bins = x.bins();
    let n = x.nodes();
    let (mut f, mut p, mut activity) = initial_point(x, &options)?;
    let mut history = Vec::new();
    let mut converged = false;

    // Per-fit workspace. Everything the sweeps touch is sized here, so the
    // sweep loop allocates nothing but the growth of `history`.
    //
    // `data` row `i·n + j` holds OD pair (i, j) across all bins, as
    // activity row `i` holds `A_i` across all bins; `sums_*` are `n x bins`
    // in the same layout. Each pass over the series walks it in storage
    // order with one accumulator per (node, bin), adding the terms of every
    // sum in the order a per-bin loop over the OD pairs would.
    let data = x.as_matrix().as_slice();
    let mut objective = ObjectivePass::new(data, n, bins);
    let norms: Vec<f64> = objective.sq_norms.iter().map(|s| s.sqrt()).collect();
    let mut weights = vec![0.0; bins];
    bin_weights_into(&norms, options.objective, None, &mut weights);
    let mut sums_a = vec![0.0; n * bins];
    let mut sums_b = vec![0.0; n * bins];
    let mut rhs = vec![0.0; n];
    let mut a_buf = vec![0.0; n];
    let mut order = Vec::with_capacity(n);
    let mut g = Matrix::zeros(n, n);
    let mut h = vec![0.0; n];
    let mut nnls = NnlsWorkspace::new(n);
    let mut residual_norms = vec![0.0; bins];

    for sweep in 0..options.max_sweeps {
        // The WeightedSse weights depend on the data only; the IRLS
        // weights follow the previous sweep's residuals.
        if options.objective == Objective::SumRelL2 && sweep > 0 {
            bin_weights_into(
                &norms,
                options.objective,
                Some(&residual_norms),
                &mut weights,
            );
        }

        // Activity step, per bin in closed form, from the right-hand sides
        // `f·Σ_j X_kj·P_j + (1−f)·Σ_i X_ik·P_i` of every bin.
        let (fwd, rev) = (&mut sums_a, &mut sums_b);
        fwd.fill(0.0);
        rev.fill(0.0);
        for i in 0..n {
            for j in 0..n {
                let row = &data[(i * n + j) * bins..][..bins];
                let fwd_i = &mut fwd[i * bins..][..bins];
                for (acc, &v) in fwd_i.iter_mut().zip(row) {
                    *acc += v * p[j]; // X_{i,j}·P_j into A_i's forward sum
                }
                let rev_j = &mut rev[j * bins..][..bins];
                for (acc, &v) in rev_j.iter_mut().zip(row) {
                    *acc += v * p[i]; // X_{i,j}·P_i into A_j's reverse sum
                }
            }
        }
        for t in 0..bins {
            for (k, slot) in rhs.iter_mut().enumerate() {
                *slot = f * fwd[k * bins + t] + (1.0 - f) * rev[k * bins + t];
            }
            two_term_nnls_into(f, &p, &rhs, &mut order, &mut a_buf);
            for (i, &v) in a_buf.iter().enumerate() {
                activity[(i, t)] = v;
            }
        }

        // Preference step: accumulate weighted normal equations, with the
        // right-hand sides `f·Σ_i A_i·X_il + (1−f)·Σ_j A_j·X_lj` of every
        // bin.
        let (into, out_of) = (&mut sums_a, &mut sums_b);
        into.fill(0.0);
        out_of.fill(0.0);
        for i in 0..n {
            let a_i = activity.row(i);
            for j in 0..n {
                let row = &data[(i * n + j) * bins..][..bins];
                let into_j = &mut into[j * bins..][..bins];
                for ((acc, &v), &ai) in into_j.iter_mut().zip(row).zip(a_i) {
                    *acc += ai * v; // A_i·X_{i,j} into P_j's inbound sum
                }
                let a_j = activity.row(j);
                let out_i = &mut out_of[i * bins..][..bins];
                for ((acc, &v), &aj) in out_i.iter_mut().zip(row).zip(a_j) {
                    *acc += aj * v; // A_j·X_{i,j} into P_i's outbound sum
                }
            }
        }
        let c1 = f * f + (1.0 - f) * (1.0 - f);
        let c2 = 2.0 * f * (1.0 - f);
        g.as_mut_slice().fill(0.0);
        h.fill(0.0);
        for t in 0..bins {
            let w = weights[t];
            if w == 0.0 {
                continue;
            }
            for (i, slot) in a_buf.iter_mut().enumerate() {
                *slot = activity[(i, t)];
            }
            let a_t = &a_buf;
            let s2: f64 = a_t.iter().map(|&v| v * v).sum();
            for k in 0..n {
                let wc2a = w * c2 * a_t[k];
                for (gkl, &al) in g.row_mut(k).iter_mut().zip(a_t) {
                    *gkl += wc2a * al;
                }
                g[(k, k)] += w * c1 * s2;
            }
            for (l, hl) in h.iter_mut().enumerate() {
                let r = f * into[l * bins + t] + (1.0 - f) * out_of[l * bins + t];
                *hl += w * r;
            }
        }
        let p_new = nnls_from_normal_equations_with(&g, &h, &mut nnls).map_err(IcError::from)?;
        let mass: f64 = p_new.iter().sum();
        if mass > 0.0 {
            // Renormalize to the simplex, absorbing the scale into A.
            for (pk, &v) in p.iter_mut().zip(p_new) {
                *pk = v / mass;
            }
            activity.scale_in_place(mass);
        }

        // f step.
        if !options.fix_f {
            f = solve_f(x, &activity, &p, &weights, f);
        }

        // Evaluate the objective together with the prediction.
        let obj = objective.evaluate(data, f, &p, &activity)?;
        if options.objective == Objective::SumRelL2 {
            for (r, &s) in residual_norms.iter_mut().zip(&objective.sq_residuals) {
                *r = s.sqrt();
            }
        }
        let improved = history
            .last()
            .map(|&prev: &f64| (prev - obj) > options.tolerance * prev.max(1e-12))
            .unwrap_or(true);
        history.push(obj);
        if !improved {
            converged = true;
            break;
        }
    }

    Ok(FitReport {
        params: StableFpParams {
            f,
            preference: p,
            activity,
        },
        objective_history: history,
        converged,
    })
}

/// The stable-fP sweep's objective pass and its per-fit buffers.
///
/// [`ObjectivePass::evaluate`] returns `mean_rel_l2(x, stable_fp_series(..))`
/// for the sweep's parameters in one pass over the series, without
/// materializing the prediction. It runs the same parameter checks and
/// adds every sum in the same order as that pair of calls, so it returns
/// the same bits.
struct ObjectivePass {
    /// `‖X(t)‖²` per bin, each a sum over the OD pairs in order.
    sq_norms: Vec<f64>,
    /// `‖X(t) − X̂(t)‖²` per bin, from the last evaluation.
    sq_residuals: Vec<f64>,
    /// The normalized preference the prediction uses.
    p_norm: Vec<f64>,
    /// `RelL2T(t)` per bin.
    rel: Vec<f64>,
}

impl ObjectivePass {
    /// Buffers for a row-major `n² x bins` series `data`.
    fn new(data: &[f64], n: usize, bins: usize) -> Self {
        let mut sq_norms = vec![0.0; bins];
        for row in data.chunks_exact(bins) {
            for (s, &v) in sq_norms.iter_mut().zip(row) {
                *s += v * v;
            }
        }
        ObjectivePass {
            sq_norms,
            sq_residuals: vec![0.0; bins],
            p_norm: vec![0.0; n],
            rel: vec![0.0; bins],
        }
    }

    /// The mean `RelL2T` of the prediction `(f, p, activity)` of `data`.
    fn evaluate(&mut self, data: &[f64], f: f64, p: &[f64], activity: &Matrix) -> Result<f64> {
        let mass = validate_stable_fp(f, p, activity)?;
        for (pn, &v) in self.p_norm.iter_mut().zip(p) {
            *pn = v / mass;
        }
        let (n, bins) = (p.len(), self.rel.len());
        let pn = &self.p_norm;
        self.sq_residuals.fill(0.0);
        for i in 0..n {
            let a_i = activity.row(i);
            for j in 0..n {
                let a_j = activity.row(j);
                let row = &data[(i * n + j) * bins..][..bins];
                let acc = self.sq_residuals.iter_mut().zip(row).zip(a_i).zip(a_j);
                for (((acc, &o), &ai), &aj) in acc {
                    let predicted = f * ai * pn[j] + (1.0 - f) * aj * pn[i];
                    *acc += (o - predicted) * (o - predicted);
                }
            }
        }
        let per_bin = self.sq_residuals.iter().zip(&self.sq_norms);
        for (r, (&num, &den)) in self.rel.iter_mut().zip(per_bin) {
            *r = if den == 0.0 {
                if num == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (num / den).sqrt()
            };
        }
        Ok(self.rel.iter().sum::<f64>() / bins as f64)
    }
}

/// Fits the **stable-f** model (Eq. 4): constant `f`, per-bin activity and
/// preference. Used by the Section 6.3 estimation scenario analyses.
pub fn fit_stable_f(x: &TmSeries, options: FitOptions) -> Result<FitReport<StableFParams>> {
    options.validate()?;
    validate_input(x)?;
    let n = x.nodes();
    let bins = x.bins();
    let (mut f, p_init, mut activity) = initial_point(x, &options)?;
    let mut preference = Matrix::zeros(n, bins);
    for t in 0..bins {
        for i in 0..n {
            preference[(i, t)] = p_init[i];
        }
    }
    let mut history = Vec::new();
    let mut converged = false;

    // Reused per-bin buffers (see fit_stable_fp); the weights depend on
    // the data only.
    let norms: Vec<f64> = (0..bins).map(|t| x.norm(t)).collect();
    let mut weights = vec![0.0; bins];
    bin_weights_into(&norms, Objective::WeightedSse, None, &mut weights);
    let mut p_buf = vec![0.0; n];
    let mut p_new = vec![0.0; n];
    let mut a_buf = vec![0.0; n];
    let mut rhs = vec![0.0; n];
    let mut order = Vec::with_capacity(n);

    for _sweep in 0..options.max_sweeps {
        for t in 0..bins {
            if weights[t] == 0.0 {
                continue;
            }
            // Per-bin activity step.
            for (i, slot) in p_buf.iter_mut().enumerate() {
                *slot = preference[(i, t)];
            }
            activity_rhs_into(x, t, f, &p_buf, &mut rhs);
            two_term_nnls_into(f, &p_buf, &rhs, &mut order, &mut a_buf);
            // Per-bin preference step.
            preference_rhs_into(x, t, f, &a_buf, &mut rhs);
            two_term_nnls_into(f, &a_buf, &rhs, &mut order, &mut p_new);
            let mass: f64 = p_new.iter().sum();
            if mass > 0.0 {
                for (slot, &v) in p_buf.iter_mut().zip(p_new.iter()) {
                    *slot = v / mass;
                }
                for v in a_buf.iter_mut() {
                    *v *= mass;
                }
            }
            for i in 0..n {
                preference[(i, t)] = p_buf[i];
                activity[(i, t)] = a_buf[i];
            }
        }
        // Global f step.
        if !options.fix_f {
            // Reuse solve_f with the per-bin preference by averaging the
            // per-bin closed forms: accumulate num/den per bin.
            f = solve_f_per_bin_preference(x, &activity, &preference, &weights, f);
        }
        let params = StableFParams {
            f,
            preference: preference.clone(),
            activity: activity.clone(),
        };
        let pred = stable_f_series(&params, x.bin_seconds())?;
        let obj = mean_rel_l2(x, &pred)?;
        let improved = history
            .last()
            .map(|&prev: &f64| (prev - obj) > options.tolerance * prev.max(1e-12))
            .unwrap_or(true);
        history.push(obj);
        if !improved {
            converged = true;
            break;
        }
    }

    Ok(FitReport {
        params: StableFParams {
            f,
            preference,
            activity,
        },
        objective_history: history,
        converged,
    })
}

/// f step when preference varies per bin.
fn solve_f_per_bin_preference(
    x: &TmSeries,
    activity: &Matrix,
    preference: &Matrix,
    weights: &[f64],
    prev_f: f64,
) -> f64 {
    let n = x.nodes();
    let m = x.as_matrix();
    let mut num = 0.0;
    let mut den = 0.0;
    for t in 0..x.bins() {
        let w = weights[t];
        if w == 0.0 {
            continue;
        }
        for i in 0..n {
            for j in 0..n {
                let d =
                    activity[(i, t)] * preference[(j, t)] - activity[(j, t)] * preference[(i, t)];
                if d == 0.0 {
                    continue;
                }
                let e = activity[(j, t)] * preference[(i, t)];
                num += w * (m[(i * n + j, t)] - e) * d;
                den += w * d * d;
            }
        }
    }
    if den <= 0.0 {
        prev_f
    } else {
        (num / den).clamp(0.0, 1.0)
    }
}

/// Fits the **time-varying** model (Eq. 3): per-bin `f(t)`, `A(t)`, `P(t)`.
///
/// Each bin is an independent small BCD problem; with `3n` parameters per
/// `n²` observations this is the loosest (best-fitting) family member.
pub fn fit_time_varying(x: &TmSeries, options: FitOptions) -> Result<FitReport<TimeVaryingParams>> {
    options.validate()?;
    validate_input(x)?;
    let n = x.nodes();
    let bins = x.bins();
    let (f0, p_init, mut activity) = initial_point(x, &options)?;
    let mut fs = vec![f0; bins];
    let mut preference = Matrix::zeros(n, bins);
    for t in 0..bins {
        for i in 0..n {
            preference[(i, t)] = p_init[i];
        }
    }
    let mut history = Vec::new();
    let mut converged = false;

    // Reused per-bin buffers (see fit_stable_fp).
    let mut p_buf = vec![0.0; n];
    let mut p_new = vec![0.0; n];
    let mut a_buf = vec![0.0; n];
    let mut rhs = vec![0.0; n];
    let mut order = Vec::with_capacity(n);

    for _sweep in 0..options.max_sweeps {
        for t in 0..bins {
            if x.norm(t) == 0.0 {
                continue;
            }
            for (i, slot) in p_buf.iter_mut().enumerate() {
                *slot = preference[(i, t)];
            }
            let mut f_t = fs[t];
            // Activity.
            activity_rhs_into(x, t, f_t, &p_buf, &mut rhs);
            two_term_nnls_into(f_t, &p_buf, &rhs, &mut order, &mut a_buf);
            // Preference.
            preference_rhs_into(x, t, f_t, &a_buf, &mut rhs);
            two_term_nnls_into(f_t, &a_buf, &rhs, &mut order, &mut p_new);
            let mass: f64 = p_new.iter().sum();
            if mass > 0.0 {
                for (slot, &v) in p_buf.iter_mut().zip(p_new.iter()) {
                    *slot = v / mass;
                }
                a_buf.iter_mut().for_each(|v| *v *= mass);
            }
            // Per-bin f.
            if !options.fix_f {
                let mut num = 0.0;
                let mut den = 0.0;
                let m = x.as_matrix();
                for i in 0..n {
                    for j in 0..n {
                        let d = a_buf[i] * p_buf[j] - a_buf[j] * p_buf[i];
                        if d == 0.0 {
                            continue;
                        }
                        let e = a_buf[j] * p_buf[i];
                        num += (m[(i * n + j, t)] - e) * d;
                        den += d * d;
                    }
                }
                if den > 0.0 {
                    f_t = (num / den).clamp(0.0, 1.0);
                }
            }
            for i in 0..n {
                preference[(i, t)] = p_buf[i];
                activity[(i, t)] = a_buf[i];
            }
            fs[t] = f_t;
        }
        let params = TimeVaryingParams {
            f: fs.clone(),
            preference: preference.clone(),
            activity: activity.clone(),
        };
        let pred = time_varying_series(&params, x.bin_seconds())?;
        let obj = mean_rel_l2(x, &pred)?;
        let improved = history
            .last()
            .map(|&prev: &f64| (prev - obj) > options.tolerance * prev.max(1e-12))
            .unwrap_or(true);
        history.push(obj);
        if !improved {
            converged = true;
            break;
        }
    }

    Ok(FitReport {
        params: TimeVaryingParams {
            f: fs,
            preference,
            activity,
        },
        objective_history: history,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{simplified_ic, stable_fp_series};
    use ic_linalg::nnls::nnls_from_normal_equations;
    use proptest::prelude::*;

    /// Builds an exact stable-fP series from known parameters.
    fn exact_series(f: f64, p: &[f64], activities: &[Vec<f64>]) -> TmSeries {
        let n = p.len();
        let bins = activities.len();
        let mut tm = TmSeries::zeros(n, bins, 300.0).unwrap();
        for (t, a) in activities.iter().enumerate() {
            let x = simplified_ic(f, a, p).unwrap();
            for i in 0..n {
                for j in 0..n {
                    tm.set(i, j, t, x[(i, j)]).unwrap();
                }
            }
        }
        tm
    }

    fn varied_activities(n: usize, bins: usize) -> Vec<Vec<f64>> {
        (0..bins)
            .map(|t| {
                (0..n)
                    .map(|i| 100.0 * (1.0 + i as f64) * (1.0 + 0.4 * ((t + i) as f64).sin().abs()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn recovers_exact_stable_fp_model() {
        let p = [0.5, 0.3, 0.15, 0.05];
        let acts = varied_activities(4, 12);
        let tm = exact_series(0.25, &p, &acts);
        let fit = fit_stable_fp(&tm, FitOptions::default()).unwrap();
        assert!(
            fit.final_objective() < 1e-4,
            "objective {}",
            fit.final_objective()
        );
        assert!((fit.params.f - 0.25).abs() < 0.02, "f = {}", fit.params.f);
        for (got, want) in fit.params.preference.iter().zip(p.iter()) {
            assert!((got - want).abs() < 0.02, "P {got} vs {want}");
        }
    }

    #[test]
    fn objective_history_decreases() {
        let p = [0.4, 0.35, 0.25];
        let acts = varied_activities(3, 8);
        let tm = exact_series(0.22, &p, &acts);
        let fit = fit_stable_fp(&tm, FitOptions::default()).unwrap();
        for w in fit.objective_history.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-9), "{:?}", fit.objective_history);
        }
    }

    #[test]
    fn preference_on_simplex_activity_nonnegative() {
        let p = [0.6, 0.3, 0.1];
        let acts = varied_activities(3, 6);
        let tm = exact_series(0.3, &p, &acts);
        let fit = fit_stable_fp(&tm, FitOptions::default()).unwrap();
        let sum: f64 = fit.params.preference.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(fit.params.preference.iter().all(|&v| v >= 0.0));
        assert!(fit.params.activity.as_slice().iter().all(|&v| v >= 0.0));
        assert!(fit.params.validate().is_ok());
    }

    #[test]
    fn fix_f_is_respected() {
        let p = [0.5, 0.5];
        let acts = varied_activities(2, 5);
        let tm = exact_series(0.2, &p, &acts);
        let opts = FitOptions {
            initial_f: 0.4,
            fix_f: true,
            ..FitOptions::default()
        };
        let fit = fit_stable_fp(&tm, opts).unwrap();
        assert_eq!(fit.params.f, 0.4);
    }

    #[test]
    fn rejects_bad_input() {
        let tm = TmSeries::zeros(2, 2, 300.0).unwrap();
        assert!(fit_stable_fp(&tm, FitOptions::default()).is_err()); // no traffic
        let mut bad = TmSeries::zeros(2, 2, 300.0).unwrap();
        bad.set(0, 1, 0, -5.0).unwrap();
        assert!(fit_stable_fp(&bad, FitOptions::default()).is_err());
    }

    #[test]
    fn noisy_data_still_converges() {
        let p = [0.45, 0.3, 0.25];
        let acts = varied_activities(3, 10);
        let mut tm = exact_series(0.25, &p, &acts);
        // Deterministic multiplicative perturbation.
        for t in 0..tm.bins() {
            for i in 0..3 {
                for j in 0..3 {
                    let v = tm.get(i, j, t).unwrap();
                    let wiggle = 1.0 + 0.1 * (((i * 7 + j * 3 + t) % 5) as f64 - 2.0) / 2.0;
                    tm.set(i, j, t, v * wiggle).unwrap();
                }
            }
        }
        let fit = fit_stable_fp(&tm, FitOptions::default()).unwrap();
        // Residual should be on the order of the injected noise, not above.
        assert!(fit.final_objective() < 0.12, "{}", fit.final_objective());
        assert!((fit.params.f - 0.25).abs() < 0.1);
    }

    #[test]
    fn sum_rel_l2_objective_also_fits() {
        let p = [0.5, 0.3, 0.2];
        let acts = varied_activities(3, 6);
        let tm = exact_series(0.25, &p, &acts);
        let opts = FitOptions {
            objective: Objective::SumRelL2,
            ..FitOptions::default()
        };
        let fit = fit_stable_fp(&tm, opts).unwrap();
        assert!(fit.final_objective() < 1e-3, "{}", fit.final_objective());
    }

    #[test]
    fn stable_f_fit_handles_drifting_preference() {
        // Ground truth with per-bin preference: stable-f should track it
        // while stable-fP cannot.
        let n = 3;
        let bins = 6;
        let mut tm = TmSeries::zeros(n, bins, 300.0).unwrap();
        for t in 0..bins {
            let drift = t as f64 / bins as f64;
            let p = [0.5 - 0.3 * drift, 0.3, 0.2 + 0.3 * drift];
            let a: Vec<f64> = (0..n).map(|i| 100.0 * (1.0 + i as f64)).collect();
            let x = simplified_ic(0.25, &a, &p).unwrap();
            for i in 0..n {
                for j in 0..n {
                    tm.set(i, j, t, x[(i, j)]).unwrap();
                }
            }
        }
        let sf = fit_stable_f(&tm, FitOptions::default()).unwrap();
        let sfp = fit_stable_fp(&tm, FitOptions::default()).unwrap();
        let sf_obj = sf.objective_history.last().unwrap();
        let sfp_obj = sfp.final_objective();
        assert!(
            sf_obj < &(sfp_obj + 1e-12),
            "stable-f {sf_obj} should fit at least as well as stable-fP {sfp_obj}"
        );
        assert!(sf_obj < &1e-3, "stable-f should fit drifting P: {sf_obj}");
        assert!((sf.params.f - 0.25).abs() < 0.05);
    }

    #[test]
    fn time_varying_fits_per_bin_f() {
        let n = 3;
        let bins = 4;
        let mut tm = TmSeries::zeros(n, bins, 300.0).unwrap();
        let p = [0.5, 0.3, 0.2];
        for t in 0..bins {
            let f_t = 0.15 + 0.1 * t as f64; // 0.15, 0.25, 0.35, 0.45
            let a: Vec<f64> = (0..n).map(|i| 100.0 + 50.0 * i as f64).collect();
            let x = simplified_ic(f_t, &a, &p).unwrap();
            for i in 0..n {
                for j in 0..n {
                    tm.set(i, j, t, x[(i, j)]).unwrap();
                }
            }
        }
        let tv = fit_time_varying(&tm, FitOptions::default()).unwrap();
        let obj = tv.objective_history.last().unwrap();
        assert!(obj < &1e-4, "time-varying should fit exactly: {obj}");
        // Recovered f(t) should be increasing like the truth.
        let f = &tv.params.f;
        assert!(f[3] > f[0] + 0.15, "f(t) trend lost: {f:?}");
    }

    #[test]
    fn dof_ordering_implies_fit_ordering() {
        // On data that is NOT exactly IC, more degrees of freedom fit no
        // worse: time-varying <= stable-f <= stable-fP in final objective.
        let n = 3;
        let bins = 5;
        let mut tm = TmSeries::zeros(n, bins, 300.0).unwrap();
        for t in 0..bins {
            for i in 0..n {
                for j in 0..n {
                    // Structured but non-IC data.
                    let v = 10.0
                        + (i as f64 * 17.0 + j as f64 * 29.0 + t as f64 * 7.0)
                        + if i == j { 31.0 } else { 0.0 };
                    tm.set(i, j, t, v).unwrap();
                }
            }
        }
        let o_tv = *fit_time_varying(&tm, FitOptions::default())
            .unwrap()
            .objective_history
            .last()
            .unwrap();
        let o_sf = *fit_stable_f(&tm, FitOptions::default())
            .unwrap()
            .objective_history
            .last()
            .unwrap();
        let o_sfp = fit_stable_fp(&tm, FitOptions::default())
            .unwrap()
            .final_objective();
        assert!(o_tv <= o_sf + 1e-6, "tv {o_tv} vs sf {o_sf}");
        assert!(o_sf <= o_sfp + 1e-6, "sf {o_sf} vs sfp {o_sfp}");
    }

    #[test]
    fn warm_start_reaches_same_optimum_in_fewer_sweeps() {
        let p = [0.5, 0.3, 0.15, 0.05];
        let acts = varied_activities(4, 10);
        let tm = exact_series(0.25, &p, &acts);
        let cold = fit_stable_fp(&tm, FitOptions::default()).unwrap();
        // Warm-start a second fit of (slightly shifted) data from the
        // first optimum: same objective, fewer sweeps.
        let shifted = {
            let mut s = tm.clone();
            for t in 0..s.bins() {
                for i in 0..4 {
                    for j in 0..4 {
                        let v = s.get(i, j, t).unwrap();
                        s.set(i, j, t, v * 1.05).unwrap();
                    }
                }
            }
            s
        };
        let warm = fit_stable_fp(&shifted, FitOptions::default().with_initial(&cold)).unwrap();
        let cold2 = fit_stable_fp(&shifted, FitOptions::default()).unwrap();
        assert!(
            (warm.final_objective() - cold2.final_objective()).abs() < 1e-6,
            "warm {} vs cold {}",
            warm.final_objective(),
            cold2.final_objective()
        );
        assert!(
            warm.objective_history.len() <= cold2.objective_history.len(),
            "warm {} sweeps vs cold {}",
            warm.objective_history.len(),
            cold2.objective_history.len()
        );
        assert!((warm.params.f - cold2.params.f).abs() < 1e-3);
    }

    #[test]
    fn warm_start_honored_by_all_three_fits() {
        let p = [0.5, 0.3, 0.2];
        let acts = varied_activities(3, 6);
        let tm = exact_series(0.25, &p, &acts);
        let warm = WarmStart {
            f: 0.25,
            preference: p.to_vec(),
        };
        let opts = FitOptions::default().with_warm_start(warm);
        // Starting at the exact optimum, every variant must stay there.
        let sfp = fit_stable_fp(&tm, opts.clone()).unwrap();
        assert!(sfp.final_objective() < 1e-6, "{}", sfp.final_objective());
        let sf = fit_stable_f(&tm, opts.clone()).unwrap();
        assert!(sf.final_objective() < 1e-6, "{}", sf.final_objective());
        let tv = fit_time_varying(&tm, opts).unwrap();
        assert!(tv.final_objective() < 1e-6, "{}", tv.final_objective());
    }

    #[test]
    fn warm_start_validates_inputs() {
        let p = [0.6, 0.4];
        let acts = varied_activities(2, 4);
        let tm = exact_series(0.3, &p, &acts);
        // Wrong preference length.
        let bad = FitOptions::default().with_warm_start(WarmStart {
            f: 0.3,
            preference: vec![0.5; 3],
        });
        assert!(fit_stable_fp(&tm, bad).is_err());
        // Non-finite f.
        let bad = FitOptions::default().with_warm_start(WarmStart {
            f: f64::NAN,
            preference: vec![0.5, 0.5],
        });
        assert!(fit_stable_fp(&tm, bad).is_err());
        // Zero-mass preference.
        let bad = FitOptions::default().with_warm_start(WarmStart {
            f: 0.3,
            preference: vec![0.0, 0.0],
        });
        assert!(fit_stable_f(&tm, bad).is_err());
        // Negative preference entries.
        let bad = FitOptions::default().with_warm_start(WarmStart {
            f: 0.3,
            preference: vec![1.0, -0.5],
        });
        assert!(fit_time_varying(&tm, bad).is_err());
    }

    /// A window of `serve-mixed`-style synthetic traffic at forward ratio `f`.
    fn synthetic_window(seed: u64, f: f64) -> TmSeries {
        crate::synth::generate_synthetic(
            &crate::synth::SynthConfig::geant_like(seed)
                .with_nodes(12)
                .with_bins(6)
                .with_f(f)
                .with_preference_sigma(0.6)
                .with_activity_alpha(3.0),
        )
        .unwrap()
        .series
    }

    #[test]
    fn regime_switch_refit_keeps_its_sweeps_and_objective() {
        // A warm start from an f = 0.25 fit onto an f = 0.6 window: the
        // stale (f, P) push activities against their bound, where the
        // closed-form step clamps them exactly. The sweep count and
        // objective were recorded with the Lawson–Hanson NNLS on the
        // materialized Gram that the closed form replaced.
        let prev = fit_stable_fp(&synthetic_window(42, 0.25), FitOptions::default()).unwrap();
        let window = synthetic_window(42 ^ 0xFF, 0.6);
        let fit = fit_stable_fp(&window, FitOptions::default().with_initial(&prev)).unwrap();
        // Finite, non-negative activities and preferences.
        assert!(fit.params.validate().is_ok());
        assert_eq!(fit.objective_history.len(), 11);
        let recorded = 0.1552804489619356;
        assert!(
            (fit.final_objective() - recorded).abs() <= 1e-9 * recorded,
            "objective {}",
            fit.final_objective()
        );
    }

    #[test]
    fn unbounded_sweep_budget_stops_at_convergence() {
        // The sweep budget is a bound, never an allocation size.
        let p = [0.5, 0.3, 0.2];
        let tm = exact_series(0.25, &p, &varied_activities(3, 6));
        let opts = FitOptions::default().with_max_sweeps(usize::MAX);
        let fit = fit_stable_fp(&tm, opts.clone()).unwrap();
        assert!(fit.converged);
        assert!(fit_stable_f(&tm, opts.clone()).unwrap().converged);
        assert!(fit_time_varying(&tm, opts).unwrap().converged);
    }

    #[test]
    fn invalid_options_are_rejected_by_every_fit() {
        let p = [0.6, 0.4];
        let tm = exact_series(0.3, &p, &varied_activities(2, 4));
        let invalid = |r: std::result::Result<(), IcError>| {
            matches!(r, Err(IcError::InvalidParameter { .. }))
        };
        for bad in [
            FitOptions::default().with_initial_f(f64::NAN),
            FitOptions::default().with_initial_f(f64::INFINITY),
            FitOptions::default().with_tolerance(f64::NAN),
            FitOptions::default().with_tolerance(-1.0),
        ] {
            assert!(invalid(bad.validate()), "{bad:?}");
            assert!(invalid(fit_stable_fp(&tm, bad.clone()).map(drop)));
            assert!(invalid(fit_stable_f(&tm, bad.clone()).map(drop)));
            assert!(invalid(fit_time_varying(&tm, bad).map(drop)));
        }
        // A zero tolerance is valid: the fit stops at the first sweep that
        // does not improve.
        let zero = FitOptions::default().with_tolerance(0.0);
        assert!(zero.validate().is_ok());
        assert!(fit_stable_fp(&tm, zero).is_ok());
    }

    #[test]
    fn predictions_round_trip() {
        let p = [0.6, 0.4];
        let acts = varied_activities(2, 4);
        let tm = exact_series(0.3, &p, &acts);
        let fit = fit_stable_fp(&tm, FitOptions::default()).unwrap();
        let pred = fit.predict(300.0).unwrap();
        assert_eq!(pred.bins(), tm.bins());
        assert_eq!(pred.nodes(), tm.nodes());
        let e = mean_rel_l2(&tm, &pred).unwrap();
        assert!((e - fit.final_objective()).abs() < 1e-12);
    }

    /// The stable-fP fit as it was before the single-pass sweep, kept
    /// verbatim as the oracle of [`fit_stable_fp`]: it recomputes the bin
    /// weights every sweep, reads each bin's right-hand sides with strided
    /// per-bin loops, and scores every sweep through a materialized
    /// `stable_fp_series` prediction and `mean_rel_l2`.
    fn oracle_fit_stable_fp(
        x: &TmSeries,
        options: FitOptions,
    ) -> Result<FitReport<StableFpParams>> {
        options.validate()?;
        validate_input(x)?;
        let bins = x.bins();
        let n = x.nodes();
        let (mut f, mut p, mut activity) = initial_point(x, &options)?;
        let mut history = Vec::new();
        let mut converged = false;
        let mut residual_norms: Option<Vec<f64>> = None;

        let mut weights = vec![0.0; bins];
        let mut rhs = vec![0.0; n];
        let mut a_buf = vec![0.0; n];
        let mut order = Vec::with_capacity(n);
        let mut g = Matrix::zeros(n, n);
        let mut h = vec![0.0; n];

        for _sweep in 0..options.max_sweeps {
            oracle_bin_weights_into(
                x,
                options.objective,
                residual_norms.as_deref(),
                &mut weights,
            );

            // Activity step, per bin in closed form.
            for t in 0..bins {
                activity_rhs_into(x, t, f, &p, &mut rhs);
                two_term_nnls_into(f, &p, &rhs, &mut order, &mut a_buf);
                for (i, &v) in a_buf.iter().enumerate() {
                    activity[(i, t)] = v;
                }
            }

            // Preference step: accumulate weighted normal equations.
            let c1 = f * f + (1.0 - f) * (1.0 - f);
            let c2 = 2.0 * f * (1.0 - f);
            g.as_mut_slice().fill(0.0);
            h.fill(0.0);
            for t in 0..bins {
                let w = weights[t];
                if w == 0.0 {
                    continue;
                }
                for (i, slot) in a_buf.iter_mut().enumerate() {
                    *slot = activity[(i, t)];
                }
                let a_t = &a_buf;
                let s2: f64 = a_t.iter().map(|&v| v * v).sum();
                for k in 0..n {
                    for l in 0..n {
                        g[(k, l)] += w * c2 * a_t[k] * a_t[l];
                    }
                    g[(k, k)] += w * c1 * s2;
                }
                preference_rhs_into(x, t, f, a_t, &mut rhs);
                for (hk, &r) in h.iter_mut().zip(rhs.iter()) {
                    *hk += w * r;
                }
            }
            let p_new = nnls_from_normal_equations(&g, &h).map_err(IcError::from)?;
            let mass: f64 = p_new.iter().sum();
            if mass > 0.0 {
                // Renormalize to the simplex, absorbing the scale into A.
                p = p_new.iter().map(|&v| v / mass).collect();
                activity.scale_in_place(mass);
            }

            // f step.
            if !options.fix_f {
                f = solve_f(x, &activity, &p, &weights, f);
            }

            // Evaluate objective.
            let params = StableFpParams {
                f,
                preference: p.clone(),
                activity: activity.clone(),
            };
            let pred = stable_fp_series(&params, x.bin_seconds())?;
            let obj = mean_rel_l2(x, &pred)?;
            if options.objective == Objective::SumRelL2 {
                let r: Vec<f64> = (0..bins)
                    .map(|t| {
                        let n2 = x.nodes() * x.nodes();
                        let mut s = 0.0;
                        for row in 0..n2 {
                            let d = x.as_matrix()[(row, t)] - pred.as_matrix()[(row, t)];
                            s += d * d;
                        }
                        s.sqrt()
                    })
                    .collect();
                residual_norms = Some(r);
            }
            let improved = history
                .last()
                .map(|&prev: &f64| (prev - obj) > options.tolerance * prev.max(1e-12))
                .unwrap_or(true);
            history.push(obj);
            if !improved {
                converged = true;
                break;
            }
        }

        Ok(FitReport {
            params: StableFpParams {
                f,
                preference: p,
                activity,
            },
            objective_history: history,
            converged,
        })
    }

    /// The per-sweep bin weights of [`oracle_fit_stable_fp`], from the
    /// series itself.
    fn oracle_bin_weights_into(
        x: &TmSeries,
        objective: Objective,
        residual_norms: Option<&[f64]>,
        weights: &mut [f64],
    ) {
        let eps = 1e-6;
        for (t, slot) in weights.iter_mut().enumerate() {
            let norm = x.norm(t);
            *slot = if norm == 0.0 {
                0.0
            } else {
                match (objective, residual_norms) {
                    (Objective::WeightedSse, _) | (Objective::SumRelL2, None) => {
                        1.0 / (norm * norm)
                    }
                    (Objective::SumRelL2, Some(r)) => 1.0 / (norm * r[t].max(eps * norm)),
                }
            };
        }
    }

    /// Bits of a slice, for exact comparison (NaN-safe, signed zeros apart).
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Uniform in `[0, 1)` from a seed and a stream index (splitmix64).
    fn unit(seed: u64, k: u64) -> f64 {
        let mut z = seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as f64 / (u64::MAX as f64 + 1.0)
    }

    /// The two-term Gram `c1·‖v‖²·I + c2·v·vᵀ`, materialized.
    fn two_term_gram(f: f64, v: &[f64]) -> Matrix {
        let c1 = f * f + (1.0 - f) * (1.0 - f);
        let c2 = 2.0 * f * (1.0 - f);
        let s: f64 = v.iter().map(|&x| x * x).sum();
        let mut g = Matrix::zeros(v.len(), v.len());
        for k in 0..v.len() {
            for l in 0..v.len() {
                g[(k, l)] = c2 * v[k] * v[l];
            }
            g[(k, k)] += c1 * s;
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The closed-form two-term NNLS against Lawson–Hanson on the
        /// materialized Gram, to 1e-10 of the largest entry, and against its
        /// own KKT conditions: `a ≥ 0`, `Ga − r ≥ 0` and `a_i·(Ga − r)_i = 0`
        /// to rounding. `f` at 0, 1/2, 1 and inside (0, 1); `v` with zero
        /// entries and a 4-decade spread, or all zero; `r` from a target
        /// with negative entries, or independent of `v` with mixed signs,
        /// or all negative.
        #[test]
        fn two_term_nnls_matches_the_gram_nnls_and_meets_kkt(
            n in 1usize..41,
            f_pick in 0usize..4,
            v_pick in 0usize..8,
            r_pick in 0usize..4,
            seed in any::<u64>(),
        ) {
            let f = [0.0, 0.5, 1.0, unit(seed, 0)][f_pick];
            let v: Vec<f64> = (0..n as u64)
                .map(|i| {
                    if v_pick == 0 || unit(seed, 1 + i) < 0.2 {
                        0.0
                    } else {
                        10f64.powf(4.0 * unit(seed, 100 + i))
                    }
                })
                .collect();
            let g = two_term_gram(f, &v);
            let r: Vec<f64> = match r_pick {
                0 => (0..n as u64).map(|i| -1e3 * unit(seed, 200 + i)).collect(),
                1 => (0..n as u64).map(|i| 1e3 * (unit(seed, 200 + i) - 0.3)).collect(),
                _ => {
                    let target: Vec<f64> =
                        (0..n as u64).map(|i| unit(seed, 200 + i) - 0.3).collect();
                    g.matvec(&target).unwrap()
                }
            };
            let mut order = Vec::new();
            let mut a = vec![f64::NAN; n];
            two_term_nnls_into(f, &v, &r, &mut order, &mut a);
            if v.iter().all(|&x| x == 0.0) {
                // With `v = 0` the Gram is zero and the problem has no
                // minimum; the kernel answers 0.
                prop_assert!(a.iter().all(|&x| x == 0.0), "{:?}", a);
            } else {
                let want = nnls_from_normal_equations(&g, &r).unwrap();
                let scale = a.iter().chain(&want).fold(0.0f64, |m, x| m.max(x.abs()));
                let worst = a.iter().zip(&want).fold(0.0f64, |m, (x, y)| m.max((x - y).abs()));
                prop_assert!(worst <= 1e-10 * scale, "n {} f {}: {:e} of {:e}", n, f, worst, scale);
                let grad = g.matvec(&a).unwrap();
                for i in 0..n {
                    let gi = grad[i] - r[i];
                    let tol = 1e-12
                        * ((0..n).map(|j| (g[(i, j)] * a[j]).abs()).sum::<f64>() + r[i].abs());
                    prop_assert!(a[i] >= 0.0, "a[{}] = {:e}", i, a[i]);
                    prop_assert!(gi >= -tol, "gradient[{}] = {:e} below -{:e}", i, gi, tol);
                    prop_assert!(a[i] == 0.0 || gi.abs() <= tol, "slack[{}] = {:e}", i, gi);
                }
            }
        }

        /// The single-pass sweep against the old one, bit for bit: the
        /// objective history, `f`, the preference, the activity and the
        /// convergence flag (or the same error). Series of 2–30 nodes and
        /// 1–8 bins, IC traffic with multiplicative noise, sparse zero
        /// entries and sometimes an all-zero bin; cold starts and warm
        /// starts from a random `(f, P)`; both objectives; `f` free or
        /// fixed; a sweep budget that may end before convergence.
        #[test]
        fn stable_fp_sweep_matches_the_old_sweep_bit_for_bit(
            n in 2usize..31,
            bins in 1usize..9,
            warm in any::<bool>(),
            sum_rel_l2 in any::<bool>(),
            fix_f in any::<bool>(),
            max_sweeps in 1usize..41,
            seed in any::<u64>(),
        ) {
            let u = |k: u64| unit(seed, k);
            let f_true = 0.1 + 0.5 * u(0);
            let p_true: Vec<f64> = (0..n as u64).map(|i| 0.05 + u(10 + i)).collect();
            let acts: Vec<Vec<f64>> = (0..bins as u64)
                .map(|t| (0..n as u64).map(|i| 1e3 * (0.1 + u(1000 + t * 64 + i))).collect())
                .collect();
            let mut tm = exact_series(f_true, &p_true, &acts);
            let zero_bin = bins > 1 && u(1) < 0.25;
            for t in 0..bins {
                for i in 0..n {
                    for j in 0..n {
                        let k = 5000 + ((t * n + i) * n + j) as u64;
                        let v = tm.get(i, j, t).unwrap();
                        let v = if (zero_bin && t == 0) || u(k) < 0.1 {
                            0.0
                        } else {
                            v * (0.7 + 0.6 * u(k + 1))
                        };
                        tm.set(i, j, t, v).unwrap();
                    }
                }
            }
            let mut options = FitOptions::default()
                .with_max_sweeps(max_sweeps)
                .with_initial_f(0.05 + 0.9 * u(2))
                .with_fix_f(fix_f);
            if sum_rel_l2 {
                options = options.with_objective(Objective::SumRelL2);
            }
            if warm {
                options = options.with_warm_start(WarmStart {
                    f: u(3),
                    preference: (0..n as u64).map(|i| u(20 + i)).collect(),
                });
            }
            let got = fit_stable_fp(&tm, options.clone());
            let want = oracle_fit_stable_fp(&tm, options);
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    prop_assert_eq!(bits(&got.objective_history), bits(&want.objective_history));
                    prop_assert_eq!(got.params.f.to_bits(), want.params.f.to_bits());
                    prop_assert_eq!(bits(&got.params.preference), bits(&want.params.preference));
                    prop_assert_eq!(
                        bits(got.params.activity.as_slice()),
                        bits(want.params.activity.as_slice())
                    );
                    prop_assert_eq!(got.converged, want.converged);
                }
                (got, want) => prop_assert_eq!(got.map(drop), want.map(drop)),
            }
        }
    }
}
