//! Property-based tests for the linear-algebra substrate.
//!
//! These check the *defining axioms* of each kernel on randomized inputs:
//! the pseudo-inverse satisfies all four Moore–Penrose conditions, the
//! Gram-native NNLS satisfies KKT and reaches the optimum of an
//! exhaustive-support oracle, and the panelled Cholesky is bit-identical
//! to the dot-product kernel it replaced.

use ic_linalg::matrix::dot;
use ic_linalg::nnls::nnls_from_normal_equations;
use ic_linalg::{
    pseudo_inverse, Cholesky, LinalgError, Matrix, NormalSolverWorkspace, PcgWorkspace, Result,
    SolverPolicy, SparseMatrix, Svd,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn svd_reconstructs(rows in 1usize..7, cols in 1usize..7, seed in any::<u64>()) {
        let a = deterministic_matrix(rows, cols, seed);
        let svd = Svd::factor(&a).unwrap();
        let back = svd.reconstruct().unwrap();
        prop_assert!(back.approx_eq(&a, 1e-7 * (1.0 + a.max_abs())));
    }

    #[test]
    fn svd_values_sorted_nonnegative(rows in 1usize..7, cols in 1usize..7, seed in any::<u64>()) {
        let a = deterministic_matrix(rows, cols, seed);
        let svd = Svd::factor(&a).unwrap();
        let s = svd.singular_values();
        prop_assert!(s.iter().all(|&x| x >= 0.0));
        prop_assert!(s.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }

    #[test]
    fn pinv_satisfies_all_axioms(rows in 1usize..6, cols in 1usize..6, seed in any::<u64>()) {
        let a = deterministic_matrix(rows, cols, seed);
        let p = pseudo_inverse(&a, None).unwrap();
        let scale = 1.0 + a.max_abs().max(p.max_abs());
        prop_assert!(satisfies_moore_penrose(&a, &p, 1e-6 * scale * scale));
    }

    #[test]
    fn nnls_is_feasible_and_kkt(rows in 1usize..7, cols in 1usize..5, seed in any::<u64>()) {
        let a = deterministic_matrix(rows, cols, seed);
        let b: Vec<f64> = deterministic_matrix(rows, 1, seed ^ 0x9e37_79b9).into_vec();
        let atb = a.matvec_transposed(&b).unwrap();
        let x = nnls_from_normal_equations(&a.gram(), &atb).unwrap();
        prop_assert!(x.iter().all(|&v| v >= 0.0));
        let ax = a.matvec(&x).unwrap();
        let r: Vec<f64> = b.iter().zip(ax.iter()).map(|(&bi, &axi)| bi - axi).collect();
        let w = a.matvec_transposed(&r).unwrap();
        let scale = 1.0 + a.max_abs() * (1.0 + b.iter().fold(0.0_f64, |m, &v| m.max(v.abs())));
        for (j, (&xj, &wj)) in x.iter().zip(w.iter()).enumerate() {
            if xj > 1e-8 {
                prop_assert!(wj.abs() <= 1e-5 * scale, "stationarity at {}: {}", j, wj);
            } else {
                prop_assert!(wj <= 1e-5 * scale, "dual feasibility at {}: {}", j, wj);
            }
        }
    }

    #[test]
    fn nnls_normal_equations_matches_exhaustive_oracle(
        cols in 1usize..6,
        extra_rows in 0usize..4,
        seed in any::<u64>(),
    ) {
        // A tall A whose last column duplicates its first: the Gram is
        // singular and the minimizer is not unique, so the Gram-native
        // solve is compared with the oracle by objective, not by x.
        let n = cols + 1;
        let rows = n + extra_rows;
        let mut a = deterministic_matrix(rows, n, seed);
        for i in 0..rows {
            a[(i, cols)] = a[(i, 0)];
        }
        // b = A x_true + noise with x_true₀ ≤ -1 on the duplicated pair, so
        // the unconstrained optimum is negative there and constraints bind.
        let mut x_true = deterministic_matrix(n, 1, seed ^ 0x51f1).into_vec();
        x_true.iter_mut().for_each(|v| *v /= 10.0);
        x_true[0] = -1.0 - x_true[0].abs();
        x_true[cols] = 0.0;
        let noise = deterministic_matrix(rows, 1, seed ^ 0x9e37_79b9).into_vec();
        let b: Vec<f64> = a
            .matvec(&x_true)
            .unwrap()
            .iter()
            .zip(&noise)
            .map(|(&v, &e)| v + 0.1 * e)
            .collect();
        assert_gram_nnls_matches_oracle(&a, &b);
    }

    #[test]
    fn matmul_is_associative(seed in any::<u64>()) {
        let a = deterministic_matrix(3, 4, seed);
        let b = deterministic_matrix(4, 2, seed ^ 1);
        let c = deterministic_matrix(2, 5, seed ^ 2);
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-7 * (1.0 + left.max_abs())));
    }

    #[test]
    fn sparse_round_trips_dense(rows in 1usize..9, cols in 1usize..9, seed in any::<u64>()) {
        let d = deterministic_sparse_dense(rows, cols, seed);
        let s = SparseMatrix::from_dense(&d);
        prop_assert_eq!(s.to_dense(), d.clone());
        prop_assert_eq!(s.transpose().to_dense(), d.transpose());
        prop_assert_eq!(s.transpose().transpose().to_dense(), d);
    }

    #[test]
    fn sparse_matvec_agrees_with_dense(rows in 1usize..9, cols in 1usize..9, seed in any::<u64>()) {
        let d = deterministic_sparse_dense(rows, cols, seed);
        let s = SparseMatrix::from_dense(&d);
        let v: Vec<f64> = deterministic_matrix(cols, 1, seed ^ 0x5151).into_vec();
        let sparse = s.matvec(&v).unwrap();
        let dense = d.matvec(&v).unwrap();
        // Bit-for-bit: both kernels accumulate left-to-right over columns.
        prop_assert_eq!(sparse, dense);
    }

    #[test]
    fn sparse_matvec_transposed_agrees_with_dense(
        rows in 1usize..9, cols in 1usize..9, seed in any::<u64>()
    ) {
        let d = deterministic_sparse_dense(rows, cols, seed);
        let s = SparseMatrix::from_dense(&d);
        let v: Vec<f64> = deterministic_matrix(rows, 1, seed ^ 0xabcd).into_vec();
        // Bit-for-bit: both scatter row-by-row in the same order.
        prop_assert_eq!(s.matvec_transposed(&v).unwrap(), d.matvec_transposed(&v).unwrap());
    }

    #[test]
    fn sparse_awat_agrees_with_dense(rows in 1usize..7, cols in 1usize..9, seed in any::<u64>()) {
        let d = deterministic_sparse_dense(rows, cols, seed);
        let s = SparseMatrix::from_dense(&d);
        let w: Vec<f64> = deterministic_matrix(cols, 1, seed ^ 0x77)
            .into_vec()
            .iter()
            .map(|v| v.abs())
            .collect();
        // Dense reference: (A · diag(w)) · Aᵀ.
        let mut aw = d.clone();
        for i in 0..rows {
            for (j, v) in aw.row_mut(i).iter_mut().enumerate() {
                *v *= w[j];
            }
        }
        let expect = aw.matmul(&d.transpose()).unwrap();
        let got = s.awat(&w).unwrap();
        prop_assert!(
            got.approx_eq(&expect, 1e-12 * (1.0 + expect.max_abs())),
            "awat mismatch: {got} vs {expect}"
        );
    }

    #[test]
    fn sparse_stacking_and_slicing_agree_with_dense(
        rows in 1usize..6, cols in 1usize..6, seed in any::<u64>()
    ) {
        let d = deterministic_sparse_dense(rows, cols, seed);
        let s = SparseMatrix::from_dense(&d);
        prop_assert_eq!(s.vstack(&s).unwrap().to_dense(), d.vstack(&d).unwrap());
    }

    /// Matrix-free PCG agrees with a dense Cholesky solve to ≤1e-8 on
    /// random SPD systems (`BᵀB + boost·I` for random B), applied only
    /// through the matvec closure.
    #[test]
    fn pcg_matches_cholesky_on_random_spd(
        n in 1usize..10,
        boost in 1.0f64..20.0,
        seed in any::<u64>(),
    ) {
        let b_mat = deterministic_matrix(n, n, seed);
        let mut a = b_mat.gram();
        for i in 0..n {
            let v = a[(i, i)] + boost;
            a[(i, i)] = v;
        }
        let rhs: Vec<f64> = deterministic_matrix(n, 1, seed ^ 0x00c0_ffee).into_vec();
        let dense = Cholesky::factor(&a).unwrap().solve(&rhs).unwrap();
        let diag: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
        let mut ws = PcgWorkspace::new();
        let mut x = vec![0.0; n];
        let out = ws
            .solve(&diag, 0.0, &rhs, &mut x, |v, y| {
                y.copy_from_slice(&a.matvec(v).unwrap());
                Ok(())
            })
            .unwrap();
        prop_assert!(out.converged, "stalled after {} iterations", out.iterations);
        let scale = 1.0 + dense.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
        for (got, want) in x.iter().zip(dense.iter()) {
            prop_assert!((got - want).abs() <= 1e-8 * scale, "pcg {got} vs dense {want}");
        }
    }

    /// The normal-equations PCG solver agrees with the exact solution of
    /// `(A·diag(w)·Aᵀ + scale·ridge·I) x = b` built densely, on random
    /// sparse operators with positive weights.
    #[test]
    fn pcg_normal_solver_matches_dense_normal_equations(
        rows in 1usize..6, cols in 1usize..9, seed in any::<u64>()
    ) {
        let d = deterministic_sparse_dense(rows, cols, seed);
        let s = SparseMatrix::from_dense(&d);
        if s.nnz() == 0 {
            // An all-zero operator leaves only the (denormal) ridge —
            // neither path has a meaningful answer there.
            return;
        }
        let at = s.transpose();
        let w: Vec<f64> = deterministic_matrix(cols, 1, seed ^ 0x9a9a)
            .into_vec()
            .iter()
            .map(|v| v.abs() + 0.1)
            .collect();
        let rhs: Vec<f64> = deterministic_matrix(rows, 1, seed ^ 0x55aa).into_vec();
        // Dense reference with the same scale-aware ridge.
        let ridge = 1e-10;
        let mut awat = s.awat(&w).unwrap();
        let scale = awat.max_abs().max(f64::MIN_POSITIVE);
        for i in 0..rows {
            let v = awat[(i, i)] + scale * ridge + scale * 1e-9;
            awat[(i, i)] = v;
        }
        // Rank-deficient beyond the ridge: the dense reference itself has
        // no unique answer — skip such draws.
        let Ok(chol) = Cholesky::factor(&awat) else {
            return;
        };
        let dense = chol.solve(&rhs).unwrap();
        // PCG against the same boosted operator, matrix-free.
        let mut diag = vec![0.0; rows];
        s.awat_diag_into(&w, &mut diag).unwrap();
        let mut ws = PcgWorkspace::new();
        let mut x = vec![0.0; rows];
        let mut scratch = vec![0.0; cols];
        let out = ws
            .solve(&diag, scale * ridge + scale * 1e-9, &rhs, &mut x, |v, y| {
                s.matvec_transposed_into(v, &mut scratch)?;
                for (t, &wi) in scratch.iter_mut().zip(w.iter()) {
                    *t *= wi;
                }
                s.matvec_into(&scratch, y)
            })
            .unwrap();
        prop_assert!(out.converged);
        let norm = 1.0 + dense.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
        for (got, want) in x.iter().zip(dense.iter()) {
            prop_assert!((got - want).abs() <= 1e-8 * norm, "pcg {got} vs dense {want}");
        }
        // The workspace's forced PCG path runs the same math and counts
        // its work.
        let mut solver = NormalSolverWorkspace::with_policy(SolverPolicy::Pcg);
        let mut via_workspace = vec![0.0; rows];
        solver.solve(&s, &at, &w, ridge, &rhs, &mut via_workspace).unwrap();
        prop_assert_eq!(solver.stats().pcg_solves, 1);
        prop_assert!(via_workspace.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn transpose_reverses_matmul(seed in any::<u64>()) {
        let a = deterministic_matrix(3, 4, seed);
        let b = deterministic_matrix(4, 2, seed ^ 7);
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-9 * (1.0 + lhs.max_abs())));
    }
}

/// Fixed inputs of the oracle comparison: a tall system whose optimum
/// clips one coordinate, the classic Lawson–Hanson example, and two
/// identical columns.
#[test]
fn nnls_normal_equations_matches_exhaustive_oracle_on_fixed_inputs() {
    let cases: [(&[&[f64]], &[f64]); 3] = [
        (
            &[&[1.0, 2.0], &[2.0, 0.5], &[0.3, 1.0], &[1.0, 1.0]],
            &[1.0, -2.0, 3.0, 0.5],
        ),
        (
            &[&[1.0, 1.0, 2.0], &[10.0, 11.0, -9.0], &[-1.0, 0.0, 0.0]],
            &[-1.0, 11.0, 0.0],
        ),
        (
            &[&[1.0, 1.0, 0.0], &[1.0, 1.0, 0.0], &[0.0, 0.0, 1.0]],
            &[2.0, 2.0, 5.0],
        ),
    ];
    for (rows, b) in cases {
        assert_gram_nnls_matches_oracle(&Matrix::from_rows(rows).unwrap(), b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Cholesky::factor` + `solve` and `Cholesky::factor_regularized` +
    /// `solve` give the bits of the dot-product kernel, and accept or reject
    /// the same inputs, for every `n mod 4` and input kind. The upper
    /// triangle holds garbage, which both kernels must ignore.
    #[test]
    fn cholesky_is_bit_identical_to_dot_product_oracle(
        n in 1usize..71,
        kind in 0usize..5,
        seed in any::<u64>(),
    ) {
        let at = |k: u64| (seed ^ k) as usize % n;
        // A Gram of `rank` random rows: SPD when `rank >= n`.
        let gram = |rank: usize| deterministic_matrix(rank, n, seed).gram();
        let (mut a, ridge) = match kind {
            // SPD.
            0 => (gram(n + 2), 0.0),
            // Rank-deficient, with and without the library's relative ridge.
            1 => {
                let g = gram(n.div_ceil(2));
                let ridge = 1e-12 * g.max_abs();
                (g, ridge)
            }
            2 => (gram(n.div_ceil(2)), 0.0),
            // Indefinite from a random pivot on.
            3 => {
                let mut g = gram(n + 2);
                let m = at(0x3);
                g[(m, m)] = -g[(m, m)];
                (g, 0.0)
            }
            // NaN or ±∞ at a random lower-triangle entry.
            _ => {
                let mut g = gram(n + 2);
                let (i, j) = (at(0x1), at(0x2));
                let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][seed as usize % 3];
                g[(i.max(j), i.min(j))] = bad;
                (g, 0.0)
            }
        };
        let garbage = deterministic_matrix(n, n, seed ^ 0x6a5b);
        for i in 0..n {
            for j in (i + 1)..n {
                a[(i, j)] = if (i + j) % 7 == 0 { f64::NAN } else { garbage[(i, j)] };
            }
        }
        let b = deterministic_matrix(n, 1, seed ^ 0xb).into_vec();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let mut want = a.clone();
        let want_ok = factor_in_place(&mut want).is_ok();
        let got = Cholesky::factor(&a);
        prop_assert_eq!(got.is_ok(), want_ok, "n {} kind {}", n, kind);
        if let Ok(ch) = got {
            prop_assert_eq!(bits(ch.l().as_slice()), bits(want.as_slice()));
            let mut x = vec![0.0; n];
            solve_with_factor(&want, &b, &mut x).unwrap();
            prop_assert_eq!(bits(&ch.solve(&b).unwrap()), bits(&x));
        }

        let mut want = a.clone();
        for i in 0..n {
            want[(i, i)] += ridge;
        }
        let want_ok = factor_in_place(&mut want).is_ok();
        let one_shot = Cholesky::factor_regularized(&a, ridge);
        prop_assert_eq!(one_shot.is_ok(), want_ok);
        if let Ok(ch) = one_shot {
            let mut x = vec![0.0; n];
            solve_with_factor(&want, &b, &mut x).unwrap();
            prop_assert_eq!(bits(&ch.solve(&b).unwrap()), bits(&x));
            prop_assert_eq!(bits(ch.l().as_slice()), bits(want.as_slice()));
        }
    }
}

/// The Gram-native NNLS on `(A, b)` is feasible, meets KKT on the ridged
/// Gram, and reaches the objective of [`exhaustive_nnls`] to 1e-9 of
/// `1 + ‖b‖²`.
fn assert_gram_nnls_matches_oracle(a: &Matrix, b: &[f64]) {
    let g = a.gram();
    let h = a.matvec_transposed(b).unwrap();
    let ridge = 1e-12 * g.max_abs();
    let x = nnls_from_normal_equations(&g, &h).unwrap();
    assert!(x.iter().all(|&v| v >= 0.0));
    // KKT on the ridged Gram: w = h − (G + ρI)x is zero on the support
    // and non-positive off it.
    let gx = g.matvec(&x).unwrap();
    let max_abs = |v: &[f64]| v.iter().fold(0.0_f64, |m, &e| m.max(e.abs()));
    let scale = 1.0 + g.max_abs() * (1.0 + max_abs(&x)) + max_abs(&h);
    for j in 0..x.len() {
        let wj = h[j] - gx[j] - ridge * x[j];
        if x[j] > 0.0 {
            assert!(wj.abs() <= 1e-9 * scale, "stationarity at {j}: {wj}");
        } else {
            assert!(wj <= 1e-9 * scale, "dual feasibility at {j}: {wj}");
        }
    }
    // ½xᵀGx − hᵀx = ½‖Ax − b‖² − ½‖b‖², so ‖b‖² scales its error.
    let objective = |x: &[f64]| 0.5 * dot(x, &g.matvec(x).unwrap()) - dot(&h, x);
    let (got, want) = (objective(&x), objective(&exhaustive_nnls(a, b)));
    assert!(
        (got - want).abs() <= 1e-9 * (1.0 + dot(b, b)),
        "objective {got} vs oracle {want}"
    );
}

/// Exhaustive-support oracle of `min ‖Ax − b‖₂` subject to `x ≥ 0`. Some
/// optimum has linearly independent support columns, and on them it is
/// the unique least-squares solution. So the best non-negative
/// least-squares solution over every support is optimal; each solve goes
/// through the SVD pseudo-inverse, which is exact on collinear columns.
/// `2^cols` supports, so small `cols` only.
fn exhaustive_nnls(a: &Matrix, b: &[f64]) -> Vec<f64> {
    let (m, n) = a.shape();
    assert!(n <= 6, "{n} columns");
    let sq_residual = |x: &[f64]| {
        let ax = a.matvec(x).unwrap();
        let r: Vec<f64> = ax.iter().zip(b).map(|(&p, &q)| p - q).collect();
        dot(&r, &r)
    };
    let mut best = vec![0.0; n];
    let mut best_residual = sq_residual(&best);
    for support in 1usize..1 << n {
        let idx: Vec<usize> = (0..n).filter(|&j| (support >> j) & 1 == 1).collect();
        let mut sub = Matrix::zeros(m, idx.len());
        for i in 0..m {
            for (c, &j) in idx.iter().enumerate() {
                sub[(i, c)] = a[(i, j)];
            }
        }
        let z = pseudo_inverse(&sub, None).unwrap().matvec(b).unwrap();
        if z.iter().any(|&v| v < 0.0) {
            continue;
        }
        let mut x = vec![0.0; n];
        for (&j, &zj) in idx.iter().zip(&z) {
            x[j] = zj;
        }
        let residual = sq_residual(&x);
        if residual < best_residual {
            best = x;
            best_residual = residual;
        }
    }
    best
}

/// The four Moore–Penrose conditions to tolerance `tol`:
/// `A A⁺ A = A`, `A⁺ A A⁺ = A⁺`, and `A A⁺`, `A⁺ A` symmetric.
fn satisfies_moore_penrose(a: &Matrix, p: &Matrix, tol: f64) -> bool {
    let Ok(ap) = a.matmul(p) else { return false };
    let Ok(pa) = p.matmul(a) else { return false };
    let Ok(apa) = ap.matmul(a) else { return false };
    let Ok(pap) = pa.matmul(p) else { return false };
    apa.approx_eq(a, tol)
        && pap.approx_eq(p, tol)
        && ap.approx_eq(&ap.transpose(), tol)
        && pa.approx_eq(&pa.transpose(), tol)
}

/// Deterministic pseudo-random matrix from a seed (splitmix64), so proptest
/// shrinking stays meaningful.
fn deterministic_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z = z ^ (z >> 31);
        // Map to [-10, 10).
        (z as f64 / u64::MAX as f64) * 20.0 - 10.0
    };
    let data: Vec<f64> = (0..rows * cols).map(|_| next()).collect();
    Matrix::from_vec(rows, cols, data).expect("sized data")
}

/// Like [`deterministic_matrix`] but ~70% of the entries are exact zeros,
/// mimicking routing-matrix sparsity.
fn deterministic_sparse_dense(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut m = deterministic_matrix(rows, cols, seed);
    let gate = deterministic_matrix(rows, cols, seed ^ 0x0f0f_f0f0);
    for (v, g) in m.as_mut_slice().iter_mut().zip(gate.as_slice().iter()) {
        if *g < 4.0 {
            // gate is uniform on [-10, 10): ~70% of entries zeroed.
            *v = 0.0;
        }
    }
    m
}

/// The dot-product Cholesky kernel the library used before its panelled
/// right-looking rewrite, kept verbatim as the bit-identity oracle: one
/// serial accumulator per entry of `L`.
fn factor_in_place(l: &mut Matrix) -> Result<()> {
    let n = l.rows();
    for i in 0..n {
        for j in 0..=i {
            let mut s = l[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if s <= 0.0 || !s.is_finite() {
                    return Err(LinalgError::NotPositiveDefinite);
                }
                l[(i, i)] = s.sqrt();
            } else {
                l[(i, j)] = s / l[(j, j)];
            }
        }
        // Zero the stale upper-triangle entries of this row so `L` is a
        // proper lower-triangular matrix for consumers of [`Cholesky::l`].
        for j in (i + 1)..n {
            l[(i, j)] = 0.0;
        }
    }
    Ok(())
}

/// The library's forward + back substitution, verbatim, run on the
/// oracle's factor.
fn solve_with_factor(l: &Matrix, b: &[f64], x: &mut [f64]) -> Result<()> {
    let n = l.rows();
    if b.len() != n || x.len() != n {
        return Err(LinalgError::ShapeMismatch {
            op: "cholesky_solve",
            lhs: (n, n),
            rhs: (b.len(), 1),
        });
    }
    // Forward: L y = b.
    for i in 0..n {
        let mut s = b[i];
        for j in 0..i {
            s -= l[(i, j)] * x[j];
        }
        x[i] = s / l[(i, i)];
    }
    // Back: Lᵀ x = y.
    for i in (0..n).rev() {
        let mut s = x[i];
        for j in (i + 1)..n {
            s -= l[(j, i)] * x[j];
        }
        x[i] = s / l[(i, i)];
    }
    Ok(())
}
