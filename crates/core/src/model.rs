//! The independent-connection model family (paper Equations 1–5).
//!
//! All evaluators normalize the preference vector internally (the paper:
//! "We do not assume that the P_i values sum to one, but usually we will
//! use them as probabilities and so will normalize").
//!
//! | function / type          | equation | parameters                              |
//! |--------------------------|----------|------------------------------------------|
//! | [`general_ic`]           | (1)      | per-pair `f_ij`, `A`, `P`                |
//! | [`simplified_ic`]        | (2)      | scalar `f`, `A`, `P` (single bin)        |
//! | [`TimeVaryingParams`]    | (3)      | `f(t)`, `A_i(t)`, `P_i(t)`               |
//! | [`StableFParams`]        | (4)      | `f`, `A_i(t)`, `P_i(t)`                  |
//! | [`StableFpParams`]       | (5)      | `f`, `A_i(t)`, `P_i`                     |

use crate::tm::TmSeries;
use crate::{IcError, Result};
use ic_linalg::Matrix;

/// Validates a forward ratio `f ∈ [0, 1]`.
fn check_f(f: f64) -> Result<()> {
    if !(0.0..=1.0).contains(&f) || !f.is_finite() {
        return Err(IcError::InvalidParameter {
            name: "f",
            constraint: "forward ratio must lie in [0, 1]",
        });
    }
    Ok(())
}

/// Validates a preference vector, returning its total mass.
fn preference_mass(p: &[f64]) -> Result<f64> {
    if p.is_empty() {
        return Err(IcError::BadData("empty preference vector"));
    }
    if p.iter().any(|&v| v < 0.0 || !v.is_finite()) {
        return Err(IcError::InvalidParameter {
            name: "preference",
            constraint: "entries must be finite and non-negative",
        });
    }
    let sum: f64 = p.iter().sum();
    if sum <= 0.0 {
        return Err(IcError::InvalidParameter {
            name: "preference",
            constraint: "must have positive total mass",
        });
    }
    Ok(sum)
}

/// Validates and normalizes a preference vector to unit sum.
fn normalized_preference(p: &[f64]) -> Result<Vec<f64>> {
    let sum = preference_mass(p)?;
    Ok(p.iter().map(|&v| v / sum).collect())
}

/// Validates an activity vector (non-negative, finite).
fn check_activity(a: &[f64], n: usize) -> Result<()> {
    if a.len() != n {
        return Err(IcError::DimensionMismatch {
            context: "activity vector",
            expected: n,
            actual: a.len(),
        });
    }
    if a.iter().any(|&v| v < 0.0 || !v.is_finite()) {
        return Err(IcError::InvalidParameter {
            name: "activity",
            constraint: "entries must be finite and non-negative",
        });
    }
    Ok(())
}

/// Evaluates the **simplified IC model** (Eq. 2) for one time bin:
///
/// ```text
/// X_ij = f · A_i · P_j / ΣP + (1 − f) · A_j · P_i / ΣP
/// ```
///
/// # Examples
///
/// ```
/// use ic_core::simplified_ic;
///
/// // Symmetric two-node network, f = 0.25.
/// let x = simplified_ic(0.25, &[100.0, 100.0], &[0.5, 0.5]).unwrap();
/// // Row sums equal activities: forward + reverse bytes of i's initiations
/// // that enter at i plus responder traffic leaving i... the matrix total
/// // equals total activity.
/// assert!((x.sum() - 200.0).abs() < 1e-9);
/// ```
pub fn simplified_ic(f: f64, activity: &[f64], preference: &[f64]) -> Result<Matrix> {
    check_f(f)?;
    let n = activity.len();
    check_activity(activity, n)?;
    if preference.len() != n {
        return Err(IcError::DimensionMismatch {
            context: "simplified_ic preference",
            expected: n,
            actual: preference.len(),
        });
    }
    let p = normalized_preference(preference)?;
    let mut x = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            x[(i, j)] = f * activity[i] * p[j] + (1.0 - f) * activity[j] * p[i];
        }
    }
    Ok(x)
}

/// Evaluates the **general IC model** (Eq. 1) for one time bin, with a full
/// `n x n` forward-ratio matrix:
///
/// ```text
/// X_ij = f_ij · A_i · P_j / ΣP + (1 − f_ji) · A_j · P_i / ΣP
/// ```
///
/// The general form matters under routing asymmetry (paper Section 5.6,
/// Figure 10), where `f_ij ≠ f_ji`.
pub fn general_ic(f: &Matrix, activity: &[f64], preference: &[f64]) -> Result<Matrix> {
    let n = activity.len();
    if f.shape() != (n, n) {
        return Err(IcError::DimensionMismatch {
            context: "general_ic forward-ratio matrix",
            expected: n * n,
            actual: f.rows() * f.cols(),
        });
    }
    for &v in f.as_slice() {
        check_f(v)?;
    }
    check_activity(activity, n)?;
    let p = normalized_preference(preference)?;
    let mut x = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            x[(i, j)] = f[(i, j)] * activity[i] * p[j] + (1.0 - f[(j, i)]) * activity[j] * p[i];
        }
    }
    Ok(x)
}

/// Parameters of the **stable-fP model** (Eq. 5): constant `f` and `P`,
/// time-varying activity (`n x t` matrix, node per row).
#[derive(Debug, Clone, PartialEq)]
pub struct StableFpParams {
    /// Forward ratio, constant in time and space.
    pub f: f64,
    /// Preference vector (will be normalized on evaluation).
    pub preference: Vec<f64>,
    /// Activity levels: `n x t`, `activity[(i, t)] = A_i(t)`.
    pub activity: Matrix,
}

impl StableFpParams {
    /// Validates dimensions and domains.
    pub fn validate(&self) -> Result<()> {
        validate_stable_fp(self.f, &self.preference, &self.activity).map(drop)
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.preference.len()
    }

    /// Number of time bins.
    pub fn bins(&self) -> usize {
        self.activity.cols()
    }

    /// Degrees of freedom of the model for this size: `nt + n + 1`
    /// (paper Section 5.1).
    pub fn degrees_of_freedom(&self) -> usize {
        self.nodes() * self.bins() + self.nodes() + 1
    }
}

/// [`StableFpParams::validate`] on borrowed parts, returning the
/// preference's total mass (the sum [`stable_fp_series`] normalizes by).
/// Allocation-free, for the stable-fP fit's per-sweep objective.
pub(crate) fn validate_stable_fp(f: f64, preference: &[f64], activity: &Matrix) -> Result<f64> {
    check_f(f)?;
    let n = preference.len();
    let mass = preference_mass(preference)?;
    if activity.rows() != n {
        return Err(IcError::DimensionMismatch {
            context: "StableFpParams activity rows",
            expected: n,
            actual: activity.rows(),
        });
    }
    if activity
        .as_slice()
        .iter()
        .any(|&v| v < 0.0 || !v.is_finite())
    {
        return Err(IcError::InvalidParameter {
            name: "activity",
            constraint: "entries must be finite and non-negative",
        });
    }
    Ok(mass)
}

/// Parameters of the **stable-f model** (Eq. 4): constant `f`,
/// time-varying activity and preference (`n x t` each).
#[derive(Debug, Clone, PartialEq)]
pub struct StableFParams {
    /// Forward ratio, constant in time and space.
    pub f: f64,
    /// Preference per bin: `n x t` (each column normalized on evaluation).
    pub preference: Matrix,
    /// Activity per bin: `n x t`.
    pub activity: Matrix,
}

impl StableFParams {
    /// Validates dimensions and domains.
    pub fn validate(&self) -> Result<()> {
        check_f(self.f)?;
        if self.preference.shape() != self.activity.shape() {
            return Err(IcError::DimensionMismatch {
                context: "StableFParams shapes",
                expected: self.activity.rows() * self.activity.cols(),
                actual: self.preference.rows() * self.preference.cols(),
            });
        }
        Ok(())
    }

    /// Degrees of freedom: `2nt + 1` (paper Section 5.1).
    pub fn degrees_of_freedom(&self) -> usize {
        2 * self.activity.rows() * self.activity.cols() + 1
    }
}

/// Parameters of the **time-varying model** (Eq. 3): everything varies.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeVaryingParams {
    /// Forward ratio per bin (length `t`).
    pub f: Vec<f64>,
    /// Preference per bin: `n x t`.
    pub preference: Matrix,
    /// Activity per bin: `n x t`.
    pub activity: Matrix,
}

impl TimeVaryingParams {
    /// Validates dimensions and domains.
    pub fn validate(&self) -> Result<()> {
        if self.f.len() != self.activity.cols() {
            return Err(IcError::DimensionMismatch {
                context: "TimeVaryingParams f length",
                expected: self.activity.cols(),
                actual: self.f.len(),
            });
        }
        for &v in &self.f {
            check_f(v)?;
        }
        if self.preference.shape() != self.activity.shape() {
            return Err(IcError::DimensionMismatch {
                context: "TimeVaryingParams shapes",
                expected: self.activity.rows() * self.activity.cols(),
                actual: self.preference.rows() * self.preference.cols(),
            });
        }
        Ok(())
    }

    /// Degrees of freedom: `3nt` (paper Section 5.1).
    pub fn degrees_of_freedom(&self) -> usize {
        3 * self.activity.rows() * self.activity.cols()
    }
}

/// Evaluates the stable-fP model (Eq. 5) over all bins, producing a
/// prediction series.
pub fn stable_fp_series(params: &StableFpParams, bin_seconds: f64) -> Result<TmSeries> {
    params.validate()?;
    let n = params.nodes();
    let t_total = params.bins();
    let mut out = TmSeries::zeros(n, t_total, bin_seconds)?;
    let p = normalized_preference(&params.preference)?;
    let f = params.f;
    // Row `i·n + j` of the series holds OD pair (i, j) across all bins,
    // as activity row `i` holds `A_i` across all bins.
    let m = out.as_matrix_mut();
    for i in 0..n {
        let a_i = params.activity.row(i);
        for j in 0..n {
            let a_j = params.activity.row(j);
            for ((x, &ai), &aj) in m.row_mut(i * n + j).iter_mut().zip(a_i).zip(a_j) {
                *x = f * ai * p[j] + (1.0 - f) * aj * p[i];
            }
        }
    }
    Ok(out)
}

/// Evaluates the stable-f model (Eq. 4) over all bins.
pub fn stable_f_series(params: &StableFParams, bin_seconds: f64) -> Result<TmSeries> {
    params.validate()?;
    let n = params.activity.rows();
    let t_total = params.activity.cols();
    let mut out = TmSeries::zeros(n, t_total, bin_seconds)?;
    for t in 0..t_total {
        let a: Vec<f64> = (0..n).map(|i| params.activity[(i, t)]).collect();
        let p_raw: Vec<f64> = (0..n).map(|i| params.preference[(i, t)]).collect();
        let x = simplified_ic(params.f, &a, &p_raw)?;
        for i in 0..n {
            for j in 0..n {
                out.set(i, j, t, x[(i, j)])?;
            }
        }
    }
    Ok(out)
}

/// Evaluates the time-varying model (Eq. 3) over all bins.
pub fn time_varying_series(params: &TimeVaryingParams, bin_seconds: f64) -> Result<TmSeries> {
    params.validate()?;
    let n = params.activity.rows();
    let t_total = params.activity.cols();
    let mut out = TmSeries::zeros(n, t_total, bin_seconds)?;
    for t in 0..t_total {
        let a: Vec<f64> = (0..n).map(|i| params.activity[(i, t)]).collect();
        let p_raw: Vec<f64> = (0..n).map(|i| params.preference[(i, t)]).collect();
        let x = simplified_ic(params.f[t], &a, &p_raw)?;
        for i in 0..n {
            for j in 0..n {
                out.set(i, j, t, x[(i, j)])?;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simplified_ic_total_equals_total_activity() {
        // Σ_ij X_ij = Σ_i A_i: all initiated traffic (forward + reverse)
        // appears exactly once in the TM.
        let x = simplified_ic(0.3, &[10.0, 20.0, 30.0], &[0.2, 0.3, 0.5]).unwrap();
        assert!((x.sum() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn simplified_ic_known_values() {
        // n=2, f=0.25, A=(100, 0), P=(0.5, 0.5).
        let x = simplified_ic(0.25, &[100.0, 0.0], &[1.0, 1.0]).unwrap();
        // X_00 = f*100*0.5 + (1-f)*100*0.5 = 50.
        assert!((x[(0, 0)] - 50.0).abs() < 1e-12);
        // X_01 = f*A_0*P_1 = 12.5 (forward only; node 1 has no activity).
        assert!((x[(0, 1)] - 12.5).abs() < 1e-12);
        // X_10 = (1-f)*A_0*P_1 = 37.5 (reverse traffic of 0's connections).
        assert!((x[(1, 0)] - 37.5).abs() < 1e-12);
        assert_eq!(x[(1, 1)], 0.0);
    }

    #[test]
    fn preference_is_normalized_internally() {
        let x1 = simplified_ic(0.25, &[5.0, 7.0], &[0.4, 0.6]).unwrap();
        let x2 = simplified_ic(0.25, &[5.0, 7.0], &[4.0, 6.0]).unwrap();
        assert!(x1.approx_eq(&x2, 1e-12));
    }

    #[test]
    fn f_half_makes_symmetric_tm() {
        // With f = 0.5 forward and reverse weights agree, so X is symmetric.
        let x = simplified_ic(0.5, &[3.0, 9.0, 1.0], &[0.1, 0.6, 0.3]).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((x[(i, j)] - x[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn asymmetry_direction_follows_f() {
        // f < 0.5: reverse traffic dominates, so for a high-activity node i
        // and quiet j, X_ji > X_ij means... carefully: X_ij gets f*A_i*P_j,
        // X_ji gets (1-f)*A_i*P_j. With f = 0.2, X_ji > X_ij.
        let x = simplified_ic(0.2, &[100.0, 0.0], &[0.5, 0.5]).unwrap();
        assert!(x[(1, 0)] > x[(0, 1)]);
    }

    #[test]
    fn validation_errors() {
        assert!(simplified_ic(-0.1, &[1.0], &[1.0]).is_err());
        assert!(simplified_ic(1.1, &[1.0], &[1.0]).is_err());
        assert!(simplified_ic(0.5, &[-1.0], &[1.0]).is_err());
        assert!(simplified_ic(0.5, &[1.0], &[-1.0]).is_err());
        assert!(simplified_ic(0.5, &[1.0], &[0.0]).is_err());
        assert!(simplified_ic(0.5, &[1.0, 2.0], &[1.0]).is_err());
        assert!(simplified_ic(0.5, &[f64::NAN], &[1.0]).is_err());
    }

    #[test]
    fn general_reduces_to_simplified_for_constant_f() {
        let a = [10.0, 20.0, 5.0];
        let p = [0.3, 0.5, 0.2];
        let fconst = Matrix::filled(3, 3, 0.27);
        let xg = general_ic(&fconst, &a, &p).unwrap();
        let xs = simplified_ic(0.27, &a, &p).unwrap();
        assert!(xg.approx_eq(&xs, 1e-12));
    }

    #[test]
    fn general_ic_uses_fji_for_reverse() {
        // Asymmetric f: f_01 = 1 (all forward), f_10 = 0 (all reverse).
        let mut f = Matrix::filled(2, 2, 0.5);
        f[(0, 1)] = 1.0;
        f[(1, 0)] = 0.0;
        let a = [100.0, 0.0];
        let p = [0.5, 0.5];
        let x = general_ic(&f, &a, &p).unwrap();
        // X_01 = f_01 * A_0 * P_1 + (1 - f_10) * A_1 * P_0 = 50 + 0.
        assert!((x[(0, 1)] - 50.0).abs() < 1e-12);
        // X_10 = f_10 * A_1 * P_0 + (1 - f_01) * A_0 * P_1 = 0 + 0.
        assert!((x[(1, 0)] - 0.0).abs() < 1e-12);
    }

    #[test]
    fn general_validates_shape_and_domain() {
        let a = [1.0, 2.0];
        let p = [0.5, 0.5];
        assert!(general_ic(&Matrix::zeros(3, 3), &a, &p).is_err());
        let mut f = Matrix::filled(2, 2, 0.5);
        f[(0, 1)] = 1.5;
        assert!(general_ic(&f, &a, &p).is_err());
    }

    #[test]
    fn stable_fp_series_evaluates_every_bin() {
        let params = StableFpParams {
            f: 0.25,
            preference: vec![0.2, 0.8],
            activity: Matrix::from_rows(&[&[10.0, 20.0], &[30.0, 40.0]]).unwrap(),
        };
        assert_eq!(params.nodes(), 2);
        assert_eq!(params.bins(), 2);
        assert_eq!(params.degrees_of_freedom(), 2 * 2 + 2 + 1);
        let s = stable_fp_series(&params, 300.0).unwrap();
        assert_eq!(s.bins(), 2);
        // Total per bin = total activity per bin.
        assert!((s.total(0) - 40.0).abs() < 1e-9);
        assert!((s.total(1) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn stable_fp_validation() {
        let bad = StableFpParams {
            f: 0.25,
            preference: vec![0.2, 0.8],
            activity: Matrix::zeros(3, 2),
        };
        assert!(bad.validate().is_err());
        let bad_f = StableFpParams {
            f: 2.0,
            preference: vec![1.0],
            activity: Matrix::zeros(1, 1),
        };
        assert!(bad_f.validate().is_err());
        let neg_a = StableFpParams {
            f: 0.5,
            preference: vec![1.0],
            activity: Matrix::from_rows(&[&[-1.0]]).unwrap(),
        };
        assert!(neg_a.validate().is_err());
    }

    #[test]
    fn stable_f_series_matches_manual() {
        let params = StableFParams {
            f: 0.4,
            preference: Matrix::from_rows(&[&[0.5, 0.1], &[0.5, 0.9]]).unwrap(),
            activity: Matrix::from_rows(&[&[10.0, 10.0], &[10.0, 10.0]]).unwrap(),
        };
        assert_eq!(params.degrees_of_freedom(), 2 * 2 * 2 + 1);
        let s = stable_f_series(&params, 300.0).unwrap();
        // Bin 1 preference is (0.1, 0.9): X_01(1) = 0.4*10*0.9 + 0.6*10*0.1.
        let want = 0.4 * 10.0 * 0.9 + 0.6 * 10.0 * 0.1;
        assert!((s.get(0, 1, 1).unwrap() - want).abs() < 1e-12);
        // Shape mismatch rejected.
        let bad = StableFParams {
            f: 0.4,
            preference: Matrix::zeros(2, 3),
            activity: Matrix::zeros(2, 2),
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn time_varying_series_uses_per_bin_f() {
        let params = TimeVaryingParams {
            f: vec![0.0, 1.0],
            preference: Matrix::from_rows(&[&[0.5, 0.5], &[0.5, 0.5]]).unwrap(),
            activity: Matrix::from_rows(&[&[10.0, 10.0], &[0.0, 0.0]]).unwrap(),
        };
        assert_eq!(params.degrees_of_freedom(), 3 * 2 * 2);
        let s = time_varying_series(&params, 300.0).unwrap();
        // Bin 0 (f=0): X_01 = 0 (no forward), bin 1 (f=1): X_01 = A_0*P_1.
        assert_eq!(s.get(0, 1, 0).unwrap(), 0.0);
        assert!((s.get(0, 1, 1).unwrap() - 5.0).abs() < 1e-12);
        // f length mismatch.
        let bad = TimeVaryingParams {
            f: vec![0.5],
            preference: Matrix::zeros(2, 2),
            activity: Matrix::zeros(2, 2),
        };
        assert!(bad.validate().is_err());
    }
}
