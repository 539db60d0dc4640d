//! Iterative proportional fitting (step 3 of the blueprint).
//!
//! "Step 3: Run an iterative proportional fitting algorithm to make sure
//! the estimated TM x_est adheres to link capacity constraints ... step 3
//! remains the same across many solutions" (paper Section 6). IPF
//! alternately rescales rows and columns of the estimate until both
//! marginals match the observed ingress/egress counts; on non-negative
//! input with a positive support pattern it converges to the unique
//! minimum-relative-entropy adjustment.
//!
//! # One kernel, bins interleaved
//!
//! The kernel fits a block of `bins` independent `n × m` matrices in
//! place. Cell `(i, j)` of bin `t` sits at `(i·m + j)·bins + t`, which is
//! the [`ic_core::TmSeries`] layout, and the row and column targets are
//! `n × bins` and `m × bins` row-major, the layout of
//! [`crate::Observations`]' marginals. [`ipf_fit_with`] is the width-1
//! case: one matrix is a block of one bin. The multilevel solve fits a
//! whole prior series in place, every bin at once.
//!
//! A sweep is two passes over the block: row scaling accumulates the
//! column sums the column step divides by, and column scaling
//! accumulates the row sums that the convergence test and the next
//! sweep's row scaling read. Bins converge independently; a converged bin
//! is not touched again.
//!
//! The kernel is compiled once for each block width from 1 to 8, where
//! every per-bin loop runs a count known at compile time, and once for
//! any wider block, whose lane loops run `bins` at run time. Width 1 is
//! [`ipf_fit_with`]; the multilevel solve's blocks are as wide as its
//! windows (8 bins on the benchmark's multilevel workload).
//!
//! Bit-identity contract: each bin gets exactly the floating-point
//! operations, in the same order, of the classic per-bin loop (row sums
//! over `j` ascending, column sums over `i` ascending, one multiply per
//! cell per step), so a bin's result depends neither on the block width
//! nor on the other bins. `tests/proptests.rs` keeps that per-bin loop as
//! an oracle and compares [`ipf_fit_with`] with it bit for bit; this
//! module's tests compare every bin of a wide block with
//! [`ipf_fit_with`] bit for bit.

use crate::{EstimationError, Result};
use ic_core::TmSeries;
use ic_linalg::Matrix;

/// Options controlling the IPF iteration.
///
/// Marked `#[non_exhaustive]`: construct via [`IpfOptions::default`] and
/// the `with_*` setters so future knobs are not breaking changes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct IpfOptions {
    /// Maximum row/column sweep pairs.
    pub max_iterations: usize,
    /// Convergence threshold on the relative marginal mismatch.
    pub tolerance: f64,
}

impl Default for IpfOptions {
    fn default() -> Self {
        IpfOptions {
            max_iterations: 100,
            tolerance: 1e-9,
        }
    }
}

impl IpfOptions {
    /// Sets the maximum number of row/column sweep pairs.
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Sets the convergence threshold on the relative marginal mismatch.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }
}

/// Reusable buffers for IPF calls.
///
/// The estimation pipeline runs one IPF per time bin; with a workspace the
/// working matrix and the kernel's per-row, per-column and per-bin
/// scratch are allocated once and reused for every bin of every window,
/// making the inner loop allocation-free after warm-up.
#[derive(Debug, Clone)]
pub struct IpfWorkspace {
    w: Matrix,
    scratch: Scratch,
}

impl Default for IpfWorkspace {
    fn default() -> Self {
        IpfWorkspace::new()
    }
}

impl IpfWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        IpfWorkspace {
            w: Matrix::zeros(0, 0),
            scratch: Scratch::default(),
        }
    }

    /// The fitted matrix produced by the latest [`ipf_fit_with`] call.
    pub fn fitted(&self) -> &Matrix {
        &self.w
    }
}

/// The kernel's scratch for a block of `bins` bins, sized on first use.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Column targets rescaled to the row-target total, `m × bins`.
    col_targets: Vec<f64>,
    /// Row sums of the block, `n × bins`.
    row_sums: Vec<f64>,
    /// Column sums of the block, `m × bins`.
    col_sums: Vec<f64>,
    /// Factors of the current scaling step, `max(n, m) × bins`.
    factors: Vec<f64>,
    /// Row-target total per bin.
    row_total: Vec<f64>,
    /// Lowest seed value per bin, for the input check.
    lowest: Vec<f64>,
    /// Bins still iterating: not idle and not yet converged.
    active: Vec<bool>,
}

/// Fits matrix `x` to the target row and column sums by IPF.
///
/// Requirements: `x` non-negative, targets non-negative, and the two
/// target totals equal (up to rounding; they are renormalized internally).
/// Rows/columns with a zero target are zeroed. Returns the fitted matrix.
///
/// # Examples
///
/// ```
/// use ic_estimation::{ipf_fit, IpfOptions};
/// use ic_linalg::Matrix;
///
/// let x = Matrix::filled(2, 2, 1.0);
/// let fitted = ipf_fit(&x, &[3.0, 1.0], &[2.0, 2.0], IpfOptions::default()).unwrap();
/// let rows = fitted.row_sums();
/// assert!((rows[0] - 3.0).abs() < 1e-6);
/// ```
pub fn ipf_fit(
    x: &Matrix,
    row_targets: &[f64],
    col_targets: &[f64],
    options: IpfOptions,
) -> Result<Matrix> {
    let mut ws = IpfWorkspace::new();
    ipf_fit_with(x, row_targets, col_targets, options, &mut ws)?;
    Ok(core::mem::replace(&mut ws.w, Matrix::zeros(0, 0)))
}

/// Workspace-reusing form of [`ipf_fit`]; the result lands in
/// [`IpfWorkspace::fitted`]. Bit-identical to [`ipf_fit`].
pub fn ipf_fit_with(
    x: &Matrix,
    row_targets: &[f64],
    col_targets: &[f64],
    options: IpfOptions,
    ws: &mut IpfWorkspace,
) -> Result<()> {
    let (n, m) = x.shape();
    if row_targets.len() != n || col_targets.len() != m {
        return Err(EstimationError::DimensionMismatch {
            context: "ipf targets",
            expected: n + m,
            actual: row_targets.len() + col_targets.len(),
        });
    }
    // Size the workspace (allocates only past its largest shape so far).
    ws.w.ensure_shape(n, m);
    ws.w.as_mut_slice().copy_from_slice(x.as_slice());
    fit_block(
        ws.w.as_mut_slice(),
        (n, m, 1),
        row_targets,
        col_targets,
        options,
        &mut ws.scratch,
    )
}

/// Fits every bin of `series` in place onto the `nodes × bins` marginals
/// `ingress` (row targets) and `egress` (column targets). Each bin comes
/// out bit-identical to [`ipf_fit_with`] on that bin's snapshot and
/// marginals.
pub(crate) fn ipf_fit_series(
    series: &mut TmSeries,
    ingress: &Matrix,
    egress: &Matrix,
    options: IpfOptions,
    ws: &mut IpfWorkspace,
) -> Result<()> {
    let (n, bins) = (series.nodes(), series.bins());
    for marginal in [ingress, egress] {
        if marginal.shape() != (n, bins) {
            return Err(EstimationError::DimensionMismatch {
                context: "ipf series targets",
                expected: n * bins,
                actual: marginal.len(),
            });
        }
    }
    fit_block(
        series.as_matrix_mut().as_mut_slice(),
        (n, n, bins),
        ingress.as_slice(),
        egress.as_slice(),
        options,
        &mut ws.scratch,
    )
}

/// Fits the interleaved `n × m × bins` block `w` in place onto the
/// row-major `n × bins` row targets and `m × bins` column targets.
///
/// The kernel is compiled for each width from 1 to 8, where the lane
/// loops run a fixed count (at width 1 they fold away and the row sums
/// run in registers), and once for a runtime width above. On the
/// 5,000-node multilevel network, a fixed width cut the median warm call
/// by 16% at 4 bins and 10% at 6 bins against the runtime width (2-vCPU
/// Xeon, ten alternating pairs each).
fn fit_block(
    w: &mut [f64],
    (n, m, bins): (usize, usize, usize),
    rows: &[f64],
    cols: &[f64],
    options: IpfOptions,
    s: &mut Scratch,
) -> Result<()> {
    debug_assert!(bins > 0 && w.len() == n * m * bins);
    debug_assert!(rows.len() == n * bins && cols.len() == m * bins);
    let shape = (n, m, bins);
    match bins {
        1 => fit::<1>(w, shape, rows, cols, options, s),
        2 => fit::<2>(w, shape, rows, cols, options, s),
        3 => fit::<3>(w, shape, rows, cols, options, s),
        4 => fit::<4>(w, shape, rows, cols, options, s),
        5 => fit::<5>(w, shape, rows, cols, options, s),
        6 => fit::<6>(w, shape, rows, cols, options, s),
        7 => fit::<7>(w, shape, rows, cols, options, s),
        8 => fit::<8>(w, shape, rows, cols, options, s),
        _ => fit::<0>(w, shape, rows, cols, options, s),
    }
}

/// The kernel behind [`fit_block`]: `WIDTH` is the bin count, or 0 for
/// a runtime `bins`.
fn fit<const WIDTH: usize>(
    w: &mut [f64],
    (n, m, bins): (usize, usize, usize),
    rows: &[f64],
    cols: &[f64],
    options: IpfOptions,
    s: &mut Scratch,
) -> Result<()> {
    let b = if WIDTH == 0 { bins } else { WIDTH };
    let Scratch {
        col_targets,
        row_sums: rs,
        col_sums: cs,
        factors,
        row_total,
        lowest,
        active,
    } = s;
    col_targets.resize(m * b, 0.0);
    rs.resize(n * b, 0.0);
    cs.resize(m * b, 0.0);
    factors.resize(n.max(m) * b, 0.0);
    row_total.resize(b, 0.0);
    lowest.resize(b, 0.0);
    active.resize(b, false);

    // One pass takes the block's row and column sums and each bin's
    // lowest value. A sum of non-negative values is zero only when every
    // value is, so the sums double as the zero-support test of the
    // seeding; and a NaN or infinite value leaves its row sum non-finite,
    // so finite sums and non-negative lowest values prove the input valid.
    rs.fill(0.0);
    cs.fill(0.0);
    lowest.fill(f64::INFINITY);
    if WIDTH == 1 && m > 0 {
        // Width 1 keeps the running row sum and lowest value in
        // registers: the lane loop below would round-trip them through
        // memory on every cell, which serializes a row on that latency.
        let mut lo = f64::INFINITY;
        for (w_row, r) in w.chunks_exact(m).zip(rs.iter_mut()) {
            let mut sum = 0.0;
            for (&v, c) in w_row.iter().zip(cs.iter_mut()) {
                sum += v;
                *c += v;
                lo = if v < lo { v } else { lo };
            }
            *r = sum;
        }
        lowest[0] = lo;
    } else if m > 0 {
        for (w_row, r_acc) in w.chunks_exact(m * b).zip(rs.chunks_exact_mut(b)) {
            for (cell, c_acc) in w_row.chunks_exact(b).zip(cs.chunks_exact_mut(b)) {
                let lanes = r_acc
                    .iter_mut()
                    .zip(c_acc.iter_mut())
                    .zip(lowest.iter_mut());
                for (&v, ((r, c), lo)) in cell.iter().zip(lanes) {
                    *r += v;
                    *c += v;
                    // A select rather than `f64::min`, which vectorizes
                    // worse; a NaN shows in the sums instead.
                    *lo = if v < *lo { v } else { *lo };
                }
            }
        }
    }
    let valid = lowest.iter().all(|&lo| lo >= 0.0) && rs.iter().all(|s| s.is_finite());
    // Only when that screen fails, the exact check: valid values can
    // overflow a sum. A bin fails on its input before its targets, and
    // the first failing bin decides, as in a bin-by-bin loop.
    let bad = |v: f64| v < 0.0 || !v.is_finite();
    let first_bad = |values: &[f64]| {
        values
            .iter()
            .enumerate()
            .filter(|&(_, &v)| bad(v))
            .map(|(k, _)| k % b)
            .min()
    };
    let bad_input = if valid { None } else { first_bad(w) };
    let bad_target = first_bad(rows).into_iter().chain(first_bad(cols)).min();
    match (bad_input, bad_target) {
        (Some(t), target) if target.is_none_or(|u| t <= u) => {
            return Err(EstimationError::BadData("ipf requires non-negative input"));
        }
        (_, Some(_)) => {
            return Err(EstimationError::BadData(
                "ipf requires non-negative finite targets",
            ));
        }
        _ => {}
    }

    let fill_row = |w: &mut [f64], i: usize, t: usize, v: f64| {
        for k in (i * m * b + t..(i + 1) * m * b).step_by(b) {
            w[k] = v;
        }
    };
    let fill_col = |w: &mut [f64], j: usize, t: usize, v: f64| {
        for k in (j * b + t..w.len()).step_by(m * b) {
            w[k] = v;
        }
    };
    for t in 0..b {
        let row_sum: f64 = (0..n).map(|i| rows[i * b + t]).sum();
        let col_sum: f64 = (0..m).map(|j| cols[j * b + t]).sum();
        row_total[t] = row_sum;
        active[t] = row_sum != 0.0 && col_sum != 0.0;
        if !active[t] {
            // An idle bin fits to all zeros.
            for k in (t..w.len()).step_by(b) {
                w[k] = 0.0;
            }
            continue;
        }
        // Rescale the column targets so totals agree exactly
        // (measurement noise makes them differ slightly in practice).
        let scale = row_sum / col_sum;
        for j in 0..m {
            col_targets[j * b + t] = cols[j * b + t] * scale;
        }
        // Seed zero rows/columns whose target is positive: IPF cannot
        // create mass where the support is empty, so give such cells a
        // tiny uniform mass (this mirrors the standard practice for
        // structurally missing priors). A seeded row leaves no column
        // empty.
        let mut seeded = false;
        for i in 0..n {
            if rows[i * b + t] > 0.0 && rs[i * b + t] == 0.0 {
                fill_row(w, i, t, 1.0);
                seeded = true;
            }
        }
        if !seeded {
            for j in 0..m {
                if col_targets[j * b + t] > 0.0 && cs[j * b + t] == 0.0 {
                    fill_col(w, j, t, 1.0);
                    seeded = true;
                }
            }
        }
        if seeded {
            for i in 0..n {
                rs[i * b + t] = (0..m).map(|j| w[(i * m + j) * b + t]).sum();
            }
        }
    }
    for _ in 0..options.max_iterations {
        if !active.contains(&true) {
            break;
        }
        // Row scaling, accumulating the column sums of the scaled rows.
        // A converged bin and a row that cannot be scaled keep factor
        // 1; a zero-target row is zeroed first.
        for i in 0..n {
            for t in 0..b {
                let (sum, target) = (rs[i * b + t], rows[i * b + t]);
                factors[i * b + t] = if active[t] && sum > 0.0 {
                    target / sum
                } else {
                    if active[t] && target == 0.0 {
                        fill_row(w, i, t, 0.0);
                    }
                    1.0
                };
            }
        }
        cs.fill(0.0);
        for (w_row, f) in w.chunks_exact_mut(m * b).zip(factors.chunks_exact(b)) {
            for (cell, c_acc) in w_row.chunks_exact_mut(b).zip(cs.chunks_exact_mut(b)) {
                for ((v, c), &f) in cell.iter_mut().zip(c_acc.iter_mut()).zip(f) {
                    *v *= f;
                    *c += *v;
                }
            }
        }
        // Column scaling, accumulating the row sums of the result.
        for j in 0..m {
            for t in 0..b {
                let (sum, target) = (cs[j * b + t], col_targets[j * b + t]);
                factors[j * b + t] = if active[t] && sum > 0.0 {
                    target / sum
                } else {
                    if active[t] && target == 0.0 {
                        fill_col(w, j, t, 0.0);
                    }
                    1.0
                };
            }
        }
        if WIDTH == 1 {
            // As in the first pass, the row sum stays in a register.
            for (w_row, r) in w.chunks_exact_mut(m).zip(rs.iter_mut()) {
                let mut sum = 0.0;
                for (v, &f) in w_row.iter_mut().zip(&factors[..m]) {
                    *v *= f;
                    sum += *v;
                }
                *r = sum;
            }
        } else {
            for (w_row, r_acc) in w.chunks_exact_mut(m * b).zip(rs.chunks_exact_mut(b)) {
                r_acc.fill(0.0);
                for (cell, f) in w_row.chunks_exact_mut(b).zip(factors.chunks_exact(b)) {
                    for ((v, r), &f) in cell.iter_mut().zip(r_acc.iter_mut()).zip(f) {
                        *v *= f;
                        *r += *v;
                    }
                }
            }
        }
        // Convergence per bin: worst relative row mismatch (columns are
        // exact right after column scaling).
        let worst = &mut factors[..b];
        worst.fill(0.0);
        for (i, r_sums) in rs.chunks_exact(b).enumerate() {
            for (t, (slot, &sum)) in worst.iter_mut().zip(r_sums).enumerate() {
                let target = rows[i * b + t];
                *slot = slot.max(if target > 0.0 {
                    (sum - target).abs() / target
                } else {
                    sum.abs() / row_total[t]
                });
            }
        }
        for (flag, &worst) in active.iter_mut().zip(worst.iter()) {
            if worst < options.tolerance {
                *flag = false;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_marginals(w: &Matrix, rows: &[f64], cols: &[f64], tol: f64) {
        let rs = w.row_sums();
        let cs = w.col_sums();
        for (got, want) in rs.iter().zip(rows.iter()) {
            assert!(
                (got - want).abs() <= tol * want.max(1.0),
                "rows {rs:?} vs {rows:?}"
            );
        }
        for (got, want) in cs.iter().zip(cols.iter()) {
            assert!(
                (got - want).abs() <= tol * want.max(1.0),
                "cols {cs:?} vs {cols:?}"
            );
        }
    }

    #[test]
    fn uniform_seed_hits_targets() {
        let x = Matrix::filled(3, 3, 1.0);
        let rows = [6.0, 3.0, 1.0];
        let cols = [2.0, 4.0, 4.0];
        let w = ipf_fit(&x, &rows, &cols, IpfOptions::default()).unwrap();
        assert_marginals(&w, &rows, &cols, 1e-6);
    }

    #[test]
    fn preserves_structure_of_prior() {
        // IPF keeps cross-product ratios of the seed; a diagonal-heavy seed
        // stays diagonal-heavy.
        let mut x = Matrix::filled(2, 2, 1.0);
        x[(0, 0)] = 10.0;
        x[(1, 1)] = 10.0;
        let rows = [10.0, 10.0];
        let cols = [10.0, 10.0];
        let w = ipf_fit(&x, &rows, &cols, IpfOptions::default()).unwrap();
        assert!(w[(0, 0)] > 3.0 * w[(0, 1)]);
        assert_marginals(&w, &rows, &cols, 1e-6);
    }

    #[test]
    fn already_consistent_is_fixed_point() {
        let x = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let w = ipf_fit(&x, &[3.0, 3.0], &[3.0, 3.0], IpfOptions::default()).unwrap();
        assert!(w.approx_eq(&x, 1e-9));
    }

    #[test]
    fn zero_targets_zero_rows() {
        let x = Matrix::filled(2, 2, 1.0);
        let w = ipf_fit(&x, &[0.0, 4.0], &[2.0, 2.0], IpfOptions::default()).unwrap();
        assert_eq!(w.row(0), &[0.0, 0.0]);
        assert_marginals(&w, &[0.0, 4.0], &[2.0, 2.0], 1e-6);
    }

    #[test]
    fn seeds_empty_support_when_needed() {
        // Prior says row 0 is empty but the target demands mass there.
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]).unwrap();
        let w = ipf_fit(&x, &[2.0, 2.0], &[2.0, 2.0], IpfOptions::default()).unwrap();
        assert_marginals(&w, &[2.0, 2.0], &[2.0, 2.0], 1e-6);
    }

    #[test]
    fn mismatched_totals_are_reconciled() {
        // Column targets sum to 12, rows to 6: columns get rescaled.
        let x = Matrix::filled(2, 2, 1.0);
        let w = ipf_fit(&x, &[3.0, 3.0], &[6.0, 6.0], IpfOptions::default()).unwrap();
        let rs = w.row_sums();
        assert!((rs[0] - 3.0).abs() < 1e-6);
        let total: f64 = w.sum();
        assert!((total - 6.0).abs() < 1e-6);
    }

    #[test]
    fn validates_input() {
        let x = Matrix::filled(2, 2, 1.0);
        assert!(ipf_fit(&x, &[1.0], &[1.0, 1.0], IpfOptions::default()).is_err());
        assert!(ipf_fit(&x, &[1.0, 1.0], &[-1.0, 3.0], IpfOptions::default()).is_err());
        let mut bad = Matrix::filled(2, 2, 1.0);
        bad[(0, 0)] = -1.0;
        assert!(ipf_fit(&bad, &[1.0, 1.0], &[1.0, 1.0], IpfOptions::default()).is_err());
        bad[(0, 0)] = f64::NAN;
        assert!(ipf_fit(&bad, &[1.0, 1.0], &[1.0, 1.0], IpfOptions::default()).is_err());
    }

    /// Splitmix64 draw in `[0, 1)` for stream position `k` of `seed`.
    fn unit(seed: u64, k: usize) -> f64 {
        let mut z = seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as f64 / 2f64.powi(64)
    }

    /// `bins` interleaved `n × m` problems drawn from `seed`: zero rows,
    /// columns and cells per bin, targets with zeros and mismatched
    /// totals, and one idle bin (every target zero). Returns the block,
    /// the row targets and the column targets in the kernel's layouts.
    fn block(n: usize, m: usize, bins: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let idle = (seed % bins as u64) as usize;
        let mut w = vec![0.0; n * m * bins];
        let mut rows = vec![0.0; n * bins];
        let mut cols = vec![0.0; m * bins];
        for t in 0..bins {
            let u = |k: usize| unit(seed ^ t as u64, k);
            for i in 0..n {
                for j in 0..m {
                    let k = 1000 + i * m + j;
                    if u(i) >= 0.2 && u(100 + j) >= 0.2 && u(k) >= 0.1 {
                        w[(i * m + j) * bins + t] = 0.01 + 100.0 * u(k + 500);
                    }
                }
            }
            for (targets, len, base) in [(&mut rows, n, 300), (&mut cols, m, 400)] {
                for i in 0..len {
                    if t != idle && u(base + i) >= 0.2 {
                        targets[i * bins + t] = 0.5 + 50.0 * u(base + 50 + i);
                    }
                }
            }
        }
        (w, rows, cols)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Every bin of an interleaved block comes out bit-identical to
        /// `ipf_fit_with` on that bin alone, whatever the other bins do:
        /// zero rows, columns and targets, an idle bin, mismatched totals,
        /// and 1 to 5 sweeps so that bins stop on different sweeps. Block
        /// widths 1 to 12 cover every compile-time width and several
        /// runtime ones. `tests/proptests.rs` pins `ipf_fit_with` to the
        /// per-bin oracle.
        #[test]
        fn interleaved_bins_match_width_one(
            n in 1usize..13,
            m in 1usize..13,
            bins in 1usize..13,
            sweeps in 1usize..6,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let options = IpfOptions::default().with_max_iterations(sweeps);
            let (x, rows, cols) = block(n, m, bins, seed);
            let mut w = x.clone();
            let mut scratch = Scratch::default();
            fit_block(&mut w, (n, m, bins), &rows, &cols, options, &mut scratch).unwrap();
            let mut ws = IpfWorkspace::new();
            for t in 0..bins {
                let pick = |v: &[f64]| v.iter().skip(t).step_by(bins).copied().collect::<Vec<_>>();
                let snapshot = Matrix::from_vec(n, m, pick(&x)).unwrap();
                ipf_fit_with(&snapshot, &pick(&rows), &pick(&cols), options, &mut ws).unwrap();
                let want: Vec<u64> = ws.fitted().as_slice().iter().map(|v| v.to_bits()).collect();
                let got: Vec<u64> = pick(&w).iter().map(|v| v.to_bits()).collect();
                proptest::prop_assert_eq!(got, want, "bin {}", t);
            }
            if n == m {
                // The series entry is the same kernel on a `TmSeries`.
                let data = Matrix::from_vec(n * n, bins, x).unwrap();
                let mut series = TmSeries::from_matrix(n, 300.0, data).unwrap();
                let ingress = Matrix::from_vec(n, bins, rows).unwrap();
                let egress = Matrix::from_vec(n, bins, cols).unwrap();
                ipf_fit_series(&mut series, &ingress, &egress, options, &mut ws).unwrap();
                proptest::prop_assert_eq!(series.as_matrix().as_slice(), &w[..]);
            }
        }
    }

    #[test]
    fn first_failing_bin_decides_the_error() {
        // Bin 0 has a negative target and bin 1 a negative seed cell: a
        // bin-by-bin loop fails on bin 0's targets, and so does the block.
        let (mut w, mut rows, cols) = (vec![1.0; 8], vec![1.0; 4], vec![1.0; 4]);
        rows[0] = -1.0;
        w[1] = -1.0;
        let err = fit_block(
            &mut w,
            (2, 2, 2),
            &rows,
            &cols,
            IpfOptions::default(),
            &mut Scratch::default(),
        );
        assert!(
            matches!(err, Err(EstimationError::BadData(msg)) if msg.contains("targets")),
            "{err:?}"
        );
        // Swapped bins: the seed of bin 0 fails first.
        let (mut w, mut rows) = (vec![1.0; 8], vec![1.0; 4]);
        rows[1] = -1.0;
        w[0] = -1.0;
        let err = fit_block(
            &mut w,
            (2, 2, 2),
            &rows,
            &cols,
            IpfOptions::default(),
            &mut Scratch::default(),
        );
        assert!(
            matches!(err, Err(EstimationError::BadData(msg)) if msg.contains("input")),
            "{err:?}"
        );
        // The series entry rejects marginals of the wrong shape.
        let mut series = TmSeries::zeros(2, 2, 300.0).unwrap();
        let short = Matrix::filled(2, 1, 1.0);
        let good = Matrix::filled(2, 2, 1.0);
        let mut ws = IpfWorkspace::new();
        assert!(
            ipf_fit_series(&mut series, &short, &good, IpfOptions::default(), &mut ws).is_err()
        );
        assert!(
            ipf_fit_series(&mut series, &good, &short, IpfOptions::default(), &mut ws).is_err()
        );
    }

    /// The one-pass screen of the seed passes only input the exact check
    /// passes: an infinity fails, and finite values whose row sum
    /// overflows are still accepted, as the per-bin loop accepts them.
    #[test]
    fn input_screen_falls_back_to_the_exact_check() {
        let opts = IpfOptions::default();
        let inf = Matrix::from_rows(&[&[f64::INFINITY, 1.0], &[1.0, 1.0]]).unwrap();
        assert!(ipf_fit(&inf, &[1.0, 1.0], &[1.0, 1.0], opts).is_err());
        let huge = Matrix::from_rows(&[&[f64::MAX, f64::MAX], &[1.0, 1.0]]).unwrap();
        assert!(ipf_fit(&huge, &[1.0, 1.0], &[1.0, 1.0], opts).is_ok());
    }

    #[test]
    fn all_zero_targets_give_zero_matrix() {
        let x = Matrix::filled(2, 2, 5.0);
        let w = ipf_fit(&x, &[0.0, 0.0], &[0.0, 0.0], IpfOptions::default()).unwrap();
        assert!(w.as_slice().iter().all(|&v| v == 0.0));
    }
}
