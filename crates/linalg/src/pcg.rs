//! Matrix-free preconditioned conjugate gradients for SPD systems.
//!
//! The tomogravity normal equations `(A·diag(w)·Aᵀ + λI) x = b` only ever
//! touch the operator through matvecs, so past a few hundred links the
//! dense `rows x rows` gram matrix ([`crate::sparse::SparseMatrix::awat_into`]
//! into [`crate::Cholesky`]) is pure overhead: `O(rows²)` memory and
//! `O(rows³)` factorization for a system whose matrix-vector product costs
//! `O(nnz)`. [`PcgWorkspace`] solves such systems without materializing
//! the matrix at all — the caller supplies the operator as a closure (two
//! CSR matvecs for the tomogravity case) plus its diagonal, and the solver
//! runs Jacobi-preconditioned CG over caller-invisible reusable buffers.
//!
//! Like the dense side of [`crate::NormalSolverWorkspace`], the workspace
//! is allocation-free once warm: buffers are sized on first use and reused
//! across bins. All arithmetic is sequential and deterministic — equal
//! inputs produce bit-identical iterates on any thread.

use crate::{LinalgError, Result};

/// Default relative-residual convergence threshold: iteration stops when
/// `‖r‖ ≤ PCG_REL_TOLERANCE · ‖b‖`. Tight enough that PCG solutions agree
/// with a dense Cholesky solve to well under 1e-8 on the well-conditioned
/// ridged systems the estimation pipelines produce.
pub const PCG_REL_TOLERANCE: f64 = 1e-12;

/// Absolute cap on operator applications per solve, on top of the
/// size-relative `2·n` budget. On well-conditioned ridged systems PCG
/// converges in far fewer iterations; on ill-conditioned ones (heavy-tailed
/// traffic weights drive the gram matrix's spectrum apart) the tolerance can
/// be unreachable in floating point, and without an absolute cap a
/// 5k-node solve would burn `2·n ≈ 20k` iterations of `O(nnz)` work to gain
/// nothing over the iterate it had at one thousand. Capped solves surface as
/// `converged: false` and are counted as stalls by the estimation layers.
pub const PCG_MAX_ITERATIONS: usize = 1000;

/// Outcome of one [`PcgWorkspace::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcgSolve {
    /// Operator applications performed.
    pub iterations: usize,
    /// False when the iteration budget ran out before the residual
    /// threshold was met; the best iterate so far is still written to `x`,
    /// and the caller decides whether "close" is good enough (the
    /// estimation pipelines count such stalls instead of failing).
    pub converged: bool,
}

/// Reusable buffers for Jacobi-preconditioned conjugate gradients.
///
/// # Examples
///
/// ```
/// use ic_linalg::{Matrix, PcgWorkspace};
///
/// // Solve (A + 0·I) x = b for SPD A through its matvec only.
/// let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
/// let diag = [4.0, 3.0];
/// let mut ws = PcgWorkspace::new();
/// let mut x = [0.0; 2];
/// let out = ws
///     .solve(&diag, 0.0, &[1.0, 2.0], &mut x, |v, y| {
///         y.copy_from_slice(&a.matvec(v).unwrap());
///         Ok(())
///     })
///     .unwrap();
/// assert!(out.converged);
/// assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-10);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PcgWorkspace {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
}

impl PcgWorkspace {
    /// An empty workspace; buffers are sized on first solve.
    pub fn new() -> Self {
        PcgWorkspace::default()
    }

    /// Solves `(M + ridge·I) x = b` where `apply` computes `y = M·v` and
    /// `diag` holds the (unridged) diagonal of `M`, used as the Jacobi
    /// preconditioner.
    ///
    /// Starts from `x = 0` and iterates until the residual drops below
    /// [`PCG_REL_TOLERANCE`]`·‖b‖` or the budget of `2·n` applications
    /// (capped at [`PCG_MAX_ITERATIONS`]) is spent, whichever comes
    /// first; the returned [`PcgSolve`] reports which. Non-positive preconditioner entries (an all-zero operator
    /// row with zero ridge) fall back to the identity scaling for that
    /// coordinate.
    pub fn solve(
        &mut self,
        diag: &[f64],
        ridge: f64,
        b: &[f64],
        x: &mut [f64],
        mut apply: impl FnMut(&[f64], &mut [f64]) -> Result<()>,
    ) -> Result<PcgSolve> {
        let n = b.len();
        if n == 0 {
            return Err(LinalgError::InvalidArgument("pcg: empty system"));
        }
        if x.len() != n || diag.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "pcg_solve",
                lhs: (n, 1),
                rhs: (x.len(), diag.len()),
            });
        }
        if !(ridge >= 0.0) {
            return Err(LinalgError::InvalidArgument(
                "pcg: ridge must be non-negative",
            ));
        }
        self.ensure(n);
        let precond = |diag_i: f64| {
            let m = diag_i + ridge;
            if m > 0.0 && m.is_finite() {
                m
            } else {
                1.0
            }
        };

        // x = 0, r = b.
        x.fill(0.0);
        self.r.copy_from_slice(b);
        let b_norm2 = dot(b, b);
        if b_norm2 == 0.0 {
            return Ok(PcgSolve {
                iterations: 0,
                converged: true,
            });
        }
        let tol2 = PCG_REL_TOLERANCE * PCG_REL_TOLERANCE * b_norm2;
        for ((z, &r), &d) in self.z.iter_mut().zip(self.r.iter()).zip(diag.iter()) {
            *z = r / precond(d);
        }
        self.p.copy_from_slice(&self.z);
        let mut rz = dot(&self.r, &self.z);
        let max_iterations = (2 * n).clamp(32, PCG_MAX_ITERATIONS);
        for iteration in 1..=max_iterations {
            apply(&self.p, &mut self.ap)?;
            if ridge > 0.0 {
                for (ap, &p) in self.ap.iter_mut().zip(self.p.iter()) {
                    *ap += ridge * p;
                }
            }
            let pap = dot(&self.p, &self.ap);
            if !(pap > 0.0) || !pap.is_finite() {
                // Loss of positive definiteness in finite arithmetic:
                // stop with the best iterate so far rather than diverge.
                return Ok(PcgSolve {
                    iterations: iteration,
                    converged: false,
                });
            }
            let alpha = rz / pap;
            for (xi, &pi) in x.iter_mut().zip(self.p.iter()) {
                *xi += alpha * pi;
            }
            for (ri, &api) in self.r.iter_mut().zip(self.ap.iter()) {
                *ri -= alpha * api;
            }
            if dot(&self.r, &self.r) <= tol2 {
                return Ok(PcgSolve {
                    iterations: iteration,
                    converged: true,
                });
            }
            for ((z, &r), &d) in self.z.iter_mut().zip(self.r.iter()).zip(diag.iter()) {
                *z = r / precond(d);
            }
            let rz_next = dot(&self.r, &self.z);
            let beta = rz_next / rz;
            rz = rz_next;
            for (p, &z) in self.p.iter_mut().zip(self.z.iter()) {
                *p = z + beta * *p;
            }
        }
        Ok(PcgSolve {
            iterations: max_iterations,
            converged: false,
        })
    }

    fn ensure(&mut self, n: usize) {
        if self.r.len() != n {
            self.r.resize(n, 0.0);
            self.z.resize(n, 0.0);
            self.p.resize(n, 0.0);
            self.ap.resize(n, 0.0);
        }
    }
}

/// Sequential dot product — deterministic accumulation order.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cholesky, Matrix};

    fn spd(n: usize, seed: u64) -> Matrix {
        // Bᵀ B + I for a deterministic pseudo-random B — guaranteed SPD.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let data: Vec<f64> = (0..n * n).map(|_| next()).collect();
        let b = Matrix::from_vec(n, n, data).unwrap();
        let mut a = b.gram();
        for i in 0..n {
            a[(i, i)] += 1.0;
        }
        a
    }

    fn diag_of(a: &Matrix) -> Vec<f64> {
        (0..a.rows()).map(|i| a[(i, i)]).collect()
    }

    #[test]
    fn matches_cholesky_on_spd_systems() {
        for n in [1, 2, 5, 12] {
            let a = spd(n, 42 + n as u64);
            let b: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
            let dense = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
            let mut ws = PcgWorkspace::new();
            let mut x = vec![0.0; n];
            let out = ws
                .solve(&diag_of(&a), 0.0, &b, &mut x, |v, y| {
                    y.copy_from_slice(&a.matvec(v).unwrap());
                    Ok(())
                })
                .unwrap();
            assert!(out.converged, "n={n} stalled after {}", out.iterations);
            for (got, want) in x.iter().zip(dense.iter()) {
                assert!((got - want).abs() < 1e-9, "n={n}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn ridge_shifts_the_operator() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 5.0]]).unwrap();
        let ridge = 3.0;
        let mut ws = PcgWorkspace::new();
        let mut x = [0.0; 2];
        let out = ws
            .solve(&diag_of(&a), ridge, &[10.0, 16.0], &mut x, |v, y| {
                y.copy_from_slice(&a.matvec(v).unwrap());
                Ok(())
            })
            .unwrap();
        assert!(out.converged);
        // (2+3)x0 = 10, (5+3)x1 = 16.
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let mut ws = PcgWorkspace::new();
        let mut x = [7.0; 3];
        let out = ws
            .solve(&[1.0; 3], 0.0, &[0.0; 3], &mut x, |_, _| {
                panic!("operator must not be applied for b = 0")
            })
            .unwrap();
        assert_eq!(out.iterations, 0);
        assert!(out.converged);
        assert_eq!(x, [0.0; 3]);
    }

    #[test]
    fn workspace_reuse_is_bit_identical_and_resizes() {
        let a5 = spd(5, 7);
        let a3 = spd(3, 9);
        let b5: Vec<f64> = (0..5).map(|i| 1.0 + i as f64).collect();
        let b3 = vec![1.0, -2.0, 0.5];
        let mut ws = PcgWorkspace::new();
        let mut x = vec![0.0; 5];
        for (a, b) in [(&a5, &b5), (&a3, &b3), (&a5, &b5)] {
            let n = a.rows();
            x.resize(n, 0.0);
            let apply = |v: &[f64], y: &mut [f64]| {
                y.copy_from_slice(&a.matvec(v).unwrap());
                Ok(())
            };
            ws.solve(&diag_of(a), 1e-9, b, &mut x, apply).unwrap();
            let mut x2 = vec![0.0; n];
            let mut fresh = PcgWorkspace::new();
            fresh.solve(&diag_of(a), 1e-9, b, &mut x2, apply).unwrap();
            assert_eq!(x, x2, "reused workspace must match a fresh one");
        }
    }

    #[test]
    fn rejects_bad_arguments() {
        let mut ws = PcgWorkspace::new();
        let ok = |_: &[f64], _: &mut [f64]| Ok(());
        let mut x = [0.0; 2];
        assert!(ws.solve(&[], 0.0, &[], &mut [], ok).is_err());
        assert!(ws.solve(&[1.0], 0.0, &[1.0, 1.0], &mut x, ok).is_err());
        assert!(ws
            .solve(&[1.0, 1.0], -1.0, &[1.0, 1.0], &mut x, ok)
            .is_err());
        assert!(ws
            .solve(&[1.0, 1.0], f64::NAN, &[1.0, 1.0], &mut x, ok)
            .is_err());
    }

    #[test]
    fn operator_errors_propagate() {
        let mut ws = PcgWorkspace::new();
        let mut x = [0.0; 2];
        let err = ws
            .solve(&[1.0, 1.0], 0.0, &[1.0, 1.0], &mut x, |_, _| {
                Err(LinalgError::InvalidArgument("boom"))
            })
            .unwrap_err();
        assert!(matches!(err, LinalgError::InvalidArgument("boom")));
    }

    #[test]
    fn indefinite_operator_reports_stall_not_divergence() {
        // -I is not PSD: p·Ap < 0 on the first iteration.
        let mut ws = PcgWorkspace::new();
        let mut x = [0.0; 2];
        let out = ws
            .solve(&[-1.0, -1.0], 0.0, &[1.0, 1.0], &mut x, |v, y| {
                for (yi, &vi) in y.iter_mut().zip(v.iter()) {
                    *yi = -vi;
                }
                Ok(())
            })
            .unwrap();
        assert!(!out.converged);
        assert!(x.iter().all(|v| v.is_finite()));
    }
}
