//! Parameter-stability analytics (paper Section 5.2–5.4).
//!
//! The paper's case for the simpler stable-f / stable-fP model variants
//! rests on empirics: fitted `f` values barely move across weeks
//! (Figure 5), fitted `{P_i}` overlay almost perfectly across up to seven
//! weeks (Figure 6), preference is *not* explained by egress volume
//! (Figure 8) nor by activity level (Section 5.4), and activity carries the
//! diurnal/weekend structure (Figure 9). This module computes those
//! analytics from a set of per-week fits.

use crate::fit::{fit_stable_fp, FitOptions, FitReport};
use crate::model::StableFpParams;
use crate::tm::TmSeries;
use crate::{IcError, Result};
use ic_stats::{pearson, spearman};

/// Per-week stable-fP fits plus derived stability measures.
#[derive(Debug, Clone)]
pub struct WeeklyFits {
    /// One fit per week, in chronological order.
    pub fits: Vec<FitReport<StableFpParams>>,
}

impl WeeklyFits {
    /// Fits every week of a series independently.
    ///
    /// `bins_per_week` controls the split (2016 for 5-minute bins, 672 for
    /// 15-minute bins).
    pub fn fit(series: &TmSeries, bins_per_week: usize, options: FitOptions) -> Result<Self> {
        let weeks = series.split_weeks(bins_per_week)?;
        let fits = weeks
            .iter()
            .map(|w| fit_stable_fp(w, options.clone()))
            .collect::<Result<Vec<_>>>()?;
        Ok(WeeklyFits { fits })
    }

    /// Number of weeks fitted.
    pub fn weeks(&self) -> usize {
        self.fits.len()
    }

    /// The per-week optimal `f` values (Figure 5 series).
    pub fn f_series(&self) -> Vec<f64> {
        self.fits.iter().map(|f| f.params.f).collect()
    }

    /// The per-week preference vectors (Figure 6 overlay), one row per
    /// week.
    pub fn preference_series(&self) -> Vec<Vec<f64>> {
        self.fits
            .iter()
            .map(|f| f.params.preference.clone())
            .collect()
    }

    /// Week-over-week stability of `f`: maximum absolute difference between
    /// consecutive weeks.
    pub fn f_max_week_delta(&self) -> f64 {
        self.f_series()
            .windows(2)
            .map(|w| (w[1] - w[0]).abs())
            .fold(0.0, f64::max)
    }

    /// Week-over-week preference stability: the minimum Pearson correlation
    /// between any pair of weekly preference vectors (1 = perfectly
    /// stable).
    pub fn preference_min_correlation(&self) -> Result<f64> {
        let ps = self.preference_series();
        if ps.len() < 2 {
            return Err(IcError::BadData(
                "preference stability needs at least two weeks",
            ));
        }
        let mut min_r = 1.0_f64;
        for a in 0..ps.len() {
            for b in (a + 1)..ps.len() {
                let r = pearson(&ps[a], &ps[b])?;
                min_r = min_r.min(r);
            }
        }
        Ok(min_r)
    }

    /// Mean preference vector across weeks (used as the "previously
    /// measured" `P` of the Section 6.2 estimation scenario).
    pub fn mean_preference(&self) -> Result<Vec<f64>> {
        if self.fits.is_empty() {
            return Err(IcError::BadData("no weekly fits"));
        }
        let n = self.fits[0].params.preference.len();
        let mut acc = vec![0.0; n];
        for f in &self.fits {
            if f.params.preference.len() != n {
                return Err(IcError::DimensionMismatch {
                    context: "mean_preference",
                    expected: n,
                    actual: f.params.preference.len(),
                });
            }
            for (a, &p) in acc.iter_mut().zip(f.params.preference.iter()) {
                *a += p;
            }
        }
        acc.iter_mut().for_each(|a| *a /= self.fits.len() as f64);
        Ok(acc)
    }

    /// Mean `f` across weeks.
    pub fn mean_f(&self) -> Result<f64> {
        if self.fits.is_empty() {
            return Err(IcError::BadData("no weekly fits"));
        }
        Ok(self.f_series().iter().sum::<f64>() / self.fits.len() as f64)
    }
}

/// Figure 8 analysis: compares a fitted preference vector against the
/// normalized mean egress shares `X_{*i}/X_{**}` of the same week.
#[derive(Debug, Clone, PartialEq)]
pub struct PreferenceVsEgress {
    /// Fitted preference values.
    pub preference: Vec<f64>,
    /// Normalized mean egress shares.
    pub egress_share: Vec<f64>,
    /// Pearson correlation over all nodes.
    pub pearson_all: f64,
    /// Spearman rank correlation over all nodes.
    pub spearman_all: f64,
    /// Pearson correlation restricted to the nodes above median egress —
    /// the paper: "among the nodes with greater than a median level of
    /// traffic there seems to be little correlation".
    pub pearson_above_median: f64,
}

/// Computes the Figure 8 comparison for one fitted week.
pub fn preference_vs_egress(
    fit: &FitReport<StableFpParams>,
    week: &TmSeries,
) -> Result<PreferenceVsEgress> {
    let p = fit.params.preference.clone();
    if p.len() != week.nodes() {
        return Err(IcError::DimensionMismatch {
            context: "preference_vs_egress",
            expected: week.nodes(),
            actual: p.len(),
        });
    }
    let me = week.mean_egress();
    let total: f64 = me.iter().sum();
    if total <= 0.0 {
        return Err(IcError::BadData("week carries no traffic"));
    }
    let share: Vec<f64> = me.iter().map(|&v| v / total).collect();
    let pearson_all = pearson(&p, &share)?;
    let spearman_all = spearman(&p, &share)?;
    // Restrict to above-median egress nodes.
    let mut sorted = share.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite shares"));
    let median = sorted[sorted.len() / 2];
    let (hp, hs): (Vec<f64>, Vec<f64>) = p
        .iter()
        .zip(share.iter())
        .filter(|&(_, &s)| s >= median)
        .map(|(&a, &b)| (a, b))
        .unzip();
    let pearson_above_median = if hp.len() >= 2 {
        pearson(&hp, &hs).unwrap_or(0.0)
    } else {
        0.0
    };
    Ok(PreferenceVsEgress {
        preference: p,
        egress_share: share,
        pearson_all,
        spearman_all,
        pearson_above_median,
    })
}

/// Extracts the fitted activity time series of selected nodes (Figure 9):
/// the node with the largest mean activity, an intermediate node, and the
/// smallest. Returns `(node index, mean activity, series)` triples ordered
/// largest → smallest.
pub fn activity_extremes(fit: &FitReport<StableFpParams>) -> Vec<(usize, f64, Vec<f64>)> {
    let a = &fit.params.activity;
    let n = a.rows();
    let bins = a.cols();
    let mut means: Vec<(usize, f64)> = (0..n)
        .map(|i| {
            let mean = (0..bins).map(|t| a[(i, t)]).sum::<f64>() / bins as f64;
            (i, mean)
        })
        .collect();
    means.sort_by(|x, y| y.1.partial_cmp(&x.1).expect("finite means"));
    let picks = [0, means.len() / 2, means.len() - 1];
    picks
        .iter()
        .map(|&rank| {
            let (idx, mean) = means[rank];
            let series: Vec<f64> = (0..bins).map(|t| a[(idx, t)]).collect();
            (idx, mean, series)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{simplified_ic, StableFpParams};
    use ic_linalg::Matrix;

    /// Two "weeks" generated from the same stable-fP parameters with
    /// different activity levels.
    fn two_week_series() -> TmSeries {
        let n = 4;
        let bins_per_week = 6;
        let p = [0.45, 0.3, 0.15, 0.1];
        let mut tm = TmSeries::zeros(n, 2 * bins_per_week, 300.0).unwrap();
        for t in 0..2 * bins_per_week {
            let a: Vec<f64> = (0..n)
                .map(|i| 200.0 * (n - i) as f64 * (1.0 + 0.3 * ((t % 6) as f64 / 6.0)))
                .collect();
            let x = simplified_ic(0.24, &a, &p).unwrap();
            for i in 0..n {
                for j in 0..n {
                    tm.set(i, j, t, x[(i, j)]).unwrap();
                }
            }
        }
        tm
    }

    #[test]
    fn weekly_fits_recover_stable_parameters() {
        let tm = two_week_series();
        let weekly = WeeklyFits::fit(&tm, 6, FitOptions::default()).unwrap();
        assert_eq!(weekly.weeks(), 2);
        // f stable across weeks (both weeks share the truth f = 0.24).
        assert!(weekly.f_max_week_delta() < 0.02, "{:?}", weekly.f_series());
        assert!((weekly.mean_f().unwrap() - 0.24).abs() < 0.05);
        // Preference essentially identical across weeks.
        let min_r = weekly.preference_min_correlation().unwrap();
        assert!(min_r > 0.99, "min corr {min_r}");
        let mp = weekly.mean_preference().unwrap();
        assert!((mp.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn stability_requires_multiple_weeks() {
        let tm = two_week_series();
        let weekly = WeeklyFits::fit(&tm, 12, FitOptions::default()).unwrap();
        assert_eq!(weekly.weeks(), 1);
        assert!(weekly.preference_min_correlation().is_err());
        assert_eq!(weekly.f_max_week_delta(), 0.0);
    }

    #[test]
    fn empty_fits_error() {
        let w = WeeklyFits { fits: vec![] };
        assert!(w.mean_preference().is_err());
        assert!(w.mean_f().is_err());
    }

    #[test]
    fn preference_vs_egress_reports_correlations() {
        let tm = two_week_series();
        let week = tm.slice_bins(0, 6).unwrap();
        let fit = fit_stable_fp(&week, FitOptions::default()).unwrap();
        let cmp = preference_vs_egress(&fit, &week).unwrap();
        assert_eq!(cmp.preference.len(), 4);
        assert!((cmp.egress_share.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(cmp.pearson_all.abs() <= 1.0);
        assert!(cmp.spearman_all.abs() <= 1.0);
    }

    #[test]
    fn preference_vs_egress_validates_sizes() {
        let tm = two_week_series();
        let week = tm.slice_bins(0, 6).unwrap();
        let fit = fit_stable_fp(&week, FitOptions::default()).unwrap();
        let other = TmSeries::zeros(3, 2, 300.0).unwrap();
        assert!(preference_vs_egress(&fit, &other).is_err());
    }

    #[test]
    fn activity_extremes_ordered() {
        let params = StableFpParams {
            f: 0.25,
            preference: vec![0.25; 4],
            activity: Matrix::from_rows(&[
                &[10.0, 12.0],
                &[500.0, 480.0],
                &[50.0, 60.0],
                &[1.0, 2.0],
            ])
            .unwrap(),
        };
        let fit = FitReport {
            params,
            objective_history: vec![0.0],
            converged: true,
        };
        let ex = activity_extremes(&fit);
        assert_eq!(ex.len(), 3);
        assert_eq!(ex[0].0, 1); // largest mean
        assert_eq!(ex[2].0, 3); // smallest mean
        assert!(ex[0].1 > ex[1].1 && ex[1].1 > ex[2].1);
        assert_eq!(ex[0].2.len(), 2);
    }
}
