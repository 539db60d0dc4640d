//! # ic-linalg — dense linear algebra substrate
//!
//! Self-contained dense linear algebra over `f64`, written from scratch for
//! the independent-connection traffic-matrix toolkit. The traffic-matrix
//! fitting and estimation pipelines need a small but non-trivial set of
//! numerical kernels:
//!
//! * a row-major dense [`Matrix`] with the usual arithmetic ([`matrix`]),
//! * Cholesky factorization for symmetric positive-definite systems
//!   ([`cholesky`]),
//! * a one-sided Jacobi SVD and the Moore–Penrose pseudo-inverse ([`svd`],
//!   [`pinv`]), which back the normal solver's fallback for a normal
//!   matrix the ridged Cholesky cannot factor,
//! * Lawson–Hanson non-negative least squares on the normal equations, for
//!   the preference sub-problem of the Section 5.1 fitting program
//!   ([`nnls`]).
//!
//! ## Design notes
//!
//! Following the smoltcp design ethos, this crate favours simplicity and
//! robustness over cleverness: no `unsafe`, no SIMD intrinsics, no
//! type-level tricks. All routines are deterministic. Errors are reported
//! through [`LinalgError`]; the library never panics on user input except
//! for internal invariant violations (which are bugs).
//!
//! ## What is implemented / omitted
//!
//! Implemented: everything the traffic-matrix pipelines need (see above),
//! plus a CSR [`SparseMatrix`] ([`sparse`]) — routing matrices of
//! production-scale topologies are overwhelmingly sparse, and the
//! estimation hot path (tomogravity's `A W Aᵀ`, link-count matvecs) runs
//! on the sparse representation.
//! Omitted: complex scalars, QR and LU factorizations (every system we
//! solve is a symmetric normal matrix: Cholesky or PCG, with the SVD as
//! the dense fallback), and eigendecomposition (not needed).

pub mod cholesky;
pub mod matrix;
pub mod nnls;
pub mod pcg;
pub mod pinv;
pub mod solver;
pub mod sparse;
pub mod svd;

pub use cholesky::Cholesky;
pub use matrix::Matrix;
pub use pcg::{PcgSolve, PcgWorkspace, PCG_MAX_ITERATIONS, PCG_REL_TOLERANCE};
pub use pinv::pseudo_inverse;
pub use solver::{NormalSolverWorkspace, SolveStats, SolverKind, SolverPolicy};
pub use sparse::SparseMatrix;
pub use svd::Svd;

// Send/Sync audit for the parallel execution engine: every matrix type
// and reusable workspace crossing `ic-engine` worker boundaries must be
// plain owned data. A non-`Send` field sneaking in (an `Rc`, a raw
// pointer cache, ...) turns this into a compile error here rather than a
// trait-bound error deep inside a downstream crate.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<Matrix>();
    _assert_send_sync::<SparseMatrix>();
    _assert_send_sync::<Cholesky>();
    _assert_send_sync::<Svd>();
    _assert_send_sync::<PcgWorkspace>();
    _assert_send_sync::<NormalSolverWorkspace>();
    _assert_send_sync::<SolverPolicy>();
    _assert_send_sync::<SolveStats>();
    _assert_send_sync::<LinalgError>();
};

/// Errors produced by linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable operation name, e.g. `"matmul"`.
        op: &'static str,
        /// Shape of the left/first operand.
        lhs: (usize, usize),
        /// Shape of the right/second operand.
        rhs: (usize, usize),
    },
    /// The matrix is not positive definite (Cholesky).
    NotPositiveDefinite,
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence {
        /// Routine name.
        routine: &'static str,
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// An argument was out of the routine's domain (e.g. empty matrix).
    InvalidArgument(&'static str),
}

impl core::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotPositiveDefinite => {
                write!(f, "matrix is not positive definite")
            }
            LinalgError::NoConvergence {
                routine,
                iterations,
            } => write!(
                f,
                "{routine} did not converge after {iterations} iterations"
            ),
            LinalgError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience result alias for this crate.
pub type Result<T> = core::result::Result<T, LinalgError>;

/// Machine-epsilon-scaled tolerance used across the crate for rank
/// decisions: `max(m, n) * eps * largest_singular_value`, following LAPACK
/// conventions.
pub(crate) fn rank_tolerance(rows: usize, cols: usize, largest: f64) -> f64 {
    rows.max(cols) as f64 * f64::EPSILON * largest.max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = LinalgError::ShapeMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let s = e.to_string();
        assert!(s.contains("matmul"));
        assert!(s.contains("2x3"));
        assert!(s.contains("4x5"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&LinalgError::NotPositiveDefinite);
    }

    #[test]
    fn error_display_covers_all_variants() {
        assert!(LinalgError::NotPositiveDefinite
            .to_string()
            .contains("positive definite"));
        assert!(LinalgError::NoConvergence {
            routine: "jacobi_svd",
            iterations: 30
        }
        .to_string()
        .contains("jacobi_svd"));
        assert!(LinalgError::InvalidArgument("empty")
            .to_string()
            .contains("empty"));
    }

    #[test]
    fn rank_tolerance_scales_with_dimension() {
        let t1 = rank_tolerance(10, 10, 1.0);
        let t2 = rank_tolerance(100, 10, 1.0);
        assert!(t2 > t1);
    }

    #[test]
    fn rank_tolerance_positive_for_zero_matrix() {
        assert!(rank_tolerance(3, 3, 0.0) > 0.0);
    }
}
