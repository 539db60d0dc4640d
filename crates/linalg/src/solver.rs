//! Pluggable solvers for the weighted normal equations.
//!
//! Every estimator in the workspace bottoms out in the same system: given
//! a sparse operator `A` and positive weights `w`, solve
//!
//! ```text
//! (A·diag(w)·Aᵀ + scale·ridge·I) x = b
//! ```
//!
//! where `scale` is the magnitude of the gram matrix, making the ridge
//! relative. [`NormalSolver`] abstracts *how* that system is solved so
//! upper layers (tomogravity, the BCD fits, the streaming pipeline) pick a
//! strategy per problem size instead of hard-coding one:
//!
//! * [`DenseNormalSolver`] — the original path: materialize `A W Aᵀ` via
//!   [`SparseMatrix::awat_into`] and factor it with
//!   [`crate::CholeskyWorkspace`], falling back to the SVD pseudo-inverse
//!   when the ridge cannot rescue rank deficiency. Exact and fast while
//!   `rows` is small; `O(rows²)` memory, `O(rows³)` time.
//! * [`PcgNormalSolver`] — matrix-free Jacobi-preconditioned conjugate
//!   gradients ([`crate::PcgWorkspace`]): the gram matrix is never formed,
//!   each iteration costs two CSR matvecs, and memory stays `O(rows +
//!   cols)`. This is what lets estimation scale to thousands of nodes.
//!
//! [`SolverPolicy`] selects between them ([`SolverPolicy::Auto`] switches
//! on row count), and [`NormalSolverWorkspace`] bundles both behind the
//! policy with cumulative, observable [`SolveStats`] — replacing the old
//! silent `pseudo_inverse` fallback with counted events.

use crate::matrix::Matrix;
use crate::pcg::PcgWorkspace;
use crate::pinv::pseudo_inverse;
use crate::precond::BlockJacobiPreconditioner;
use crate::sparse::SparseMatrix;
use crate::{CholeskyWorkspace, Result};

/// Which normal-equations solver a consumer should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverPolicy {
    /// Dense Cholesky below [`SolverPolicy::AUTO_DENSE_MAX_ROWS`] rows
    /// (bit-identical to the historical dense path), matrix-free PCG at or
    /// above it. The default.
    #[default]
    Auto,
    /// Always the dense Cholesky path.
    Dense,
    /// Always the matrix-free PCG path.
    Pcg,
}

impl SolverPolicy {
    /// Row-count threshold of [`SolverPolicy::Auto`]: systems with fewer
    /// rows than this are solved densely. A 200-node hierarchical topology
    /// stacks to well under this bound (so small problems keep their exact
    /// historical results); 1k+-node topologies cross it and go
    /// matrix-free.
    pub const AUTO_DENSE_MAX_ROWS: usize = 1024;

    /// Resolves the policy for a concrete system size.
    pub fn resolve(self, rows: usize) -> SolverKind {
        match self {
            SolverPolicy::Dense => SolverKind::Dense,
            SolverPolicy::Pcg => SolverKind::Pcg,
            SolverPolicy::Auto => {
                if rows < Self::AUTO_DENSE_MAX_ROWS {
                    SolverKind::Dense
                } else {
                    SolverKind::Pcg
                }
            }
        }
    }

    /// Stable lower-case name (CLI/report identifier).
    pub fn name(&self) -> &'static str {
        match self {
            SolverPolicy::Auto => "auto",
            SolverPolicy::Dense => "dense",
            SolverPolicy::Pcg => "pcg",
        }
    }
}

/// A concrete solver choice after policy resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Dense Cholesky on the materialized gram matrix.
    Dense,
    /// Matrix-free preconditioned conjugate gradients.
    Pcg,
}

/// Cumulative, observable solve counters.
///
/// Replaces the old silent failure modes: dense rank-deficiency fallbacks
/// to the SVD pseudo-inverse and PCG iteration-budget stalls are counted
/// here instead of disappearing. Aggregated per workspace and surfaced in
/// fit reports and the benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveStats {
    /// Systems solved through the dense Cholesky path.
    pub dense_solves: u64,
    /// Systems solved through the matrix-free PCG path.
    pub pcg_solves: u64,
    /// Total PCG iterations (operator applications) across all solves.
    pub pcg_iterations: u64,
    /// PCG solves that exhausted their iteration budget and accepted the
    /// best iterate instead of meeting the residual threshold.
    pub pcg_stalls: u64,
    /// Dense solves where the ridged Cholesky failed and the SVD
    /// pseudo-inverse answered instead (formerly a silent event).
    pub fallbacks: u64,
}

impl SolveStats {
    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &SolveStats) {
        self.dense_solves += other.dense_solves;
        self.pcg_solves += other.pcg_solves;
        self.pcg_iterations += other.pcg_iterations;
        self.pcg_stalls += other.pcg_stalls;
        self.fallbacks += other.fallbacks;
    }

    /// Total systems solved.
    pub fn solves(&self) -> u64 {
        self.dense_solves + self.pcg_solves
    }

    /// The counters accrued since an `earlier` snapshot of the same
    /// cumulative stats (`self − earlier`, saturating per field) — how
    /// per-window/per-scenario solver health is carved out of the
    /// workspace-cumulative counters.
    pub fn since(&self, earlier: &SolveStats) -> SolveStats {
        SolveStats {
            dense_solves: self.dense_solves.saturating_sub(earlier.dense_solves),
            pcg_solves: self.pcg_solves.saturating_sub(earlier.pcg_solves),
            pcg_iterations: self.pcg_iterations.saturating_sub(earlier.pcg_iterations),
            pcg_stalls: self.pcg_stalls.saturating_sub(earlier.pcg_stalls),
            fallbacks: self.fallbacks.saturating_sub(earlier.fallbacks),
        }
    }
}

/// A solver for the weighted normal equations
/// `(A·diag(w)·Aᵀ + scale·ridge·I) x = b`.
///
/// `ridge` is relative: implementations multiply it by their estimate of
/// the gram matrix's magnitude (its largest absolute entry — which for a
/// PSD matrix lies on the diagonal, so the matrix-free path can compute it
/// without forming the matrix). `transpose` must be the precomputed
/// [`SparseMatrix::transpose`] of `a`, letting per-bin callers amortize
/// it. Implementations reuse internal buffers and are allocation-free
/// once warm at a fixed problem shape.
pub trait NormalSolver {
    /// Solves into `x` (length `a.rows()`), accumulating counters into
    /// `stats`.
    // Seven problem inputs plus the counter sink; bundling them into a
    // struct would force every per-bin caller to rebuild borrows it
    // already holds disjointly.
    #[allow(clippy::too_many_arguments)]
    fn solve_normal(
        &mut self,
        a: &SparseMatrix,
        transpose: &SparseMatrix,
        weights: &[f64],
        ridge: f64,
        b: &[f64],
        x: &mut [f64],
        stats: &mut SolveStats,
    ) -> Result<()>;
}

/// The historical dense path: materialize `A W Aᵀ`, ridge-regularized
/// Cholesky, SVD pseudo-inverse fallback on rank deficiency.
///
/// Numerically byte-for-byte the sequence `ic-estimation`'s tomogravity
/// used before the solver layer existed, so policies that resolve to
/// dense reproduce historical results exactly.
#[derive(Debug, Clone)]
pub struct DenseNormalSolver {
    awat: Matrix,
    chol: CholeskyWorkspace,
}

impl Default for DenseNormalSolver {
    fn default() -> Self {
        DenseNormalSolver::new()
    }
}

impl DenseNormalSolver {
    /// An empty solver; buffers are sized on first solve.
    pub fn new() -> Self {
        DenseNormalSolver {
            awat: Matrix::zeros(0, 0),
            chol: CholeskyWorkspace::new(),
        }
    }
}

impl NormalSolver for DenseNormalSolver {
    fn solve_normal(
        &mut self,
        a: &SparseMatrix,
        transpose: &SparseMatrix,
        weights: &[f64],
        ridge: f64,
        b: &[f64],
        x: &mut [f64],
        stats: &mut SolveStats,
    ) -> Result<()> {
        let rows = a.rows();
        if self.awat.shape() != (rows, rows) {
            self.awat = Matrix::zeros(rows, rows);
        }
        // A W Aᵀ in O(nnz) via the precomputed transpose.
        a.awat_into(weights, transpose, &mut self.awat)?;
        let scale = self.awat.max_abs().max(f64::MIN_POSITIVE);
        match self.chol.factor_regularized(&self.awat, scale * ridge) {
            Ok(()) => self.chol.solve_into(b, x)?,
            Err(_) => {
                // Rank-deficient beyond what the ridge absorbs: SVD route.
                stats.fallbacks += 1;
                let pinv = pseudo_inverse(&self.awat, None)?;
                let l = pinv.matvec(b)?;
                x.copy_from_slice(&l);
            }
        }
        stats.dense_solves += 1;
        Ok(())
    }
}

/// Matrix-free PCG on the weighted normal equations: the operator is
/// applied as `y = A·(w ⊙ (Aᵀv))` through the CSR `_into` kernels, the
/// Jacobi preconditioner comes from [`SparseMatrix::awat_diag_into`], and
/// the `rows×rows` gram matrix is never allocated.
#[derive(Debug, Clone, Default)]
pub struct PcgNormalSolver {
    pcg: PcgWorkspace,
    diag: Vec<f64>,
    scratch: Vec<f64>,
}

impl PcgNormalSolver {
    /// An empty solver; buffers are sized on first solve.
    pub fn new() -> Self {
        PcgNormalSolver::default()
    }
}

impl NormalSolver for PcgNormalSolver {
    fn solve_normal(
        &mut self,
        a: &SparseMatrix,
        transpose: &SparseMatrix,
        weights: &[f64],
        ridge: f64,
        b: &[f64],
        x: &mut [f64],
        stats: &mut SolveStats,
    ) -> Result<()> {
        let (rows, cols) = a.shape();
        if self.diag.len() != rows {
            self.diag.resize(rows, 0.0);
        }
        if self.scratch.len() != cols {
            self.scratch.resize(cols, 0.0);
        }
        a.awat_diag_into(weights, &mut self.diag)?;
        // The gram matrix is PSD, so its largest absolute entry is its
        // largest diagonal entry — the same scale the dense path reads
        // from the materialized matrix, available here in O(rows).
        let scale = self
            .diag
            .iter()
            .fold(0.0_f64, |m, &d| m.max(d))
            .max(f64::MIN_POSITIVE);
        let scratch = &mut self.scratch;
        let out = self.pcg.solve(&self.diag, scale * ridge, b, x, |v, y| {
            // tmp = Aᵀ·v through the precomputed transpose (gather),
            // then y = A·(w ⊙ tmp).
            transpose.matvec_into(v, scratch)?;
            for (s, &w) in scratch.iter_mut().zip(weights.iter()) {
                *s *= w;
            }
            a.matvec_into(scratch, y)
        })?;
        stats.pcg_solves += 1;
        stats.pcg_iterations += out.iterations as u64;
        if !out.converged {
            stats.pcg_stalls += 1;
        }
        Ok(())
    }
}

/// Both solver implementations behind one [`SolverPolicy`], with
/// cumulative [`SolveStats`] — the field the estimation workspaces hold.
///
/// Buffers on the unused side stay empty (both sides size lazily), so an
/// always-dense or always-PCG workload pays nothing for the other path.
#[derive(Debug, Clone, Default)]
pub struct NormalSolverWorkspace {
    policy: SolverPolicy,
    dense: DenseNormalSolver,
    pcg: PcgNormalSolver,
    stats: SolveStats,
    row_blocks: Option<Vec<Vec<usize>>>,
    bj: BlockJacobiPreconditioner,
}

impl NormalSolverWorkspace {
    /// An empty workspace with the default ([`SolverPolicy::Auto`])
    /// policy.
    pub fn new() -> Self {
        NormalSolverWorkspace::default()
    }

    /// An empty workspace with the given policy.
    pub fn with_policy(policy: SolverPolicy) -> Self {
        NormalSolverWorkspace {
            policy,
            ..NormalSolverWorkspace::default()
        }
    }

    /// The active policy.
    pub fn policy(&self) -> SolverPolicy {
        self.policy
    }

    /// Changes the policy (existing buffers are kept).
    pub fn set_policy(&mut self, policy: SolverPolicy) {
        self.policy = policy;
    }

    /// Cumulative counters since construction (or the last
    /// [`reset_stats`](NormalSolverWorkspace::reset_stats)).
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Zeroes the counters.
    pub fn reset_stats(&mut self) {
        self.stats = SolveStats::default();
    }

    /// Installs (or clears) disjoint row blocks for block-Jacobi
    /// preconditioning of the PCG paths.
    ///
    /// With blocks installed, PCG solves precondition with per-block
    /// dense Cholesky inverses of `A·W·Aᵀ + ridge·I`
    /// ([`BlockJacobiPreconditioner`]) instead of the scalar diagonal —
    /// on partitioned operators this captures the intra-cluster coupling
    /// and cuts the iteration count. `None` (the default) keeps the
    /// historical scalar-Jacobi path bit-identical. The dense path
    /// ignores blocks (it factors the full gram matrix exactly).
    pub fn set_row_blocks(&mut self, blocks: Option<Vec<Vec<usize>>>) {
        self.row_blocks = blocks;
    }

    /// The installed block-Jacobi row blocks, if any.
    pub fn row_blocks(&self) -> Option<&[Vec<usize>]> {
        self.row_blocks.as_deref()
    }

    /// Solves the weighted normal equations with the solver the policy
    /// picks for this system's row count (see [`NormalSolver`] for the
    /// contract).
    #[allow(clippy::too_many_arguments)]
    pub fn solve(
        &mut self,
        a: &SparseMatrix,
        transpose: &SparseMatrix,
        weights: &[f64],
        ridge: f64,
        b: &[f64],
        x: &mut [f64],
    ) -> Result<()> {
        match self.policy.resolve(a.rows()) {
            SolverKind::Dense => {
                self.dense
                    .solve_normal(a, transpose, weights, ridge, b, x, &mut self.stats)
            }
            SolverKind::Pcg => {
                if self.row_blocks.is_some() {
                    self.solve_pcg_block(a, transpose, weights, ridge, b, x)
                } else {
                    self.pcg
                        .solve_normal(a, transpose, weights, ridge, b, x, &mut self.stats)
                }
            }
        }
    }

    /// The block-Jacobi PCG path: same operator, scale, and absolute
    /// ridge as [`PcgNormalSolver`], preconditioned with the installed
    /// row blocks instead of the scalar diagonal.
    fn solve_pcg_block(
        &mut self,
        a: &SparseMatrix,
        transpose: &SparseMatrix,
        weights: &[f64],
        ridge: f64,
        b: &[f64],
        x: &mut [f64],
    ) -> Result<()> {
        let NormalSolverWorkspace {
            pcg: solver,
            bj,
            row_blocks,
            stats,
            ..
        } = self;
        let blocks = row_blocks
            .as_deref()
            .expect("solve_pcg_block called without row blocks");
        let (rows, cols) = a.shape();
        if solver.diag.len() != rows {
            solver.diag.resize(rows, 0.0);
        }
        if solver.scratch.len() != cols {
            solver.scratch.resize(cols, 0.0);
        }
        a.awat_diag_into(weights, &mut solver.diag)?;
        let scale = solver
            .diag
            .iter()
            .fold(0.0_f64, |m, &d| m.max(d))
            .max(f64::MIN_POSITIVE);
        let ridge_abs = scale * ridge;
        bj.factor(a, weights, ridge_abs, blocks)?;
        let scratch = &mut solver.scratch;
        let out = solver.pcg.solve_preconditioned(
            ridge_abs,
            b,
            x,
            |v, y| {
                transpose.matvec_into(v, scratch)?;
                for (s, &w) in scratch.iter_mut().zip(weights.iter()) {
                    *s *= w;
                }
                a.matvec_into(scratch, y)
            },
            |r, z| bj.apply(r, z),
        )?;
        stats.pcg_solves += 1;
        stats.pcg_iterations += out.iterations as u64;
        if !out.converged {
            stats.pcg_stalls += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_system() -> (SparseMatrix, SparseMatrix, Vec<f64>, Vec<f64>) {
        // A 3x5 operator with full row rank.
        let d = Matrix::from_rows(&[
            &[1.0, 0.0, 2.0, 0.0, 1.0],
            &[0.0, 3.0, 0.0, 1.0, 0.0],
            &[1.0, 1.0, 0.0, 0.0, 2.0],
        ])
        .unwrap();
        let a = SparseMatrix::from_dense(&d);
        let at = a.transpose();
        let w = vec![0.5, 1.0, 2.0, 0.25, 1.5];
        let b = vec![3.0, -1.0, 2.0];
        (a, at, w, b)
    }

    #[test]
    fn dense_and_pcg_agree() {
        let (a, at, w, b) = sample_system();
        let mut stats = SolveStats::default();
        let mut xd = vec![0.0; 3];
        DenseNormalSolver::new()
            .solve_normal(&a, &at, &w, 1e-10, &b, &mut xd, &mut stats)
            .unwrap();
        let mut xp = vec![0.0; 3];
        PcgNormalSolver::new()
            .solve_normal(&a, &at, &w, 1e-10, &b, &mut xp, &mut stats)
            .unwrap();
        for (d, p) in xd.iter().zip(xp.iter()) {
            assert!((d - p).abs() < 1e-8, "dense {d} vs pcg {p}");
        }
        assert_eq!(stats.dense_solves, 1);
        assert_eq!(stats.pcg_solves, 1);
        assert!(stats.pcg_iterations > 0);
        assert_eq!(stats.fallbacks, 0);
        assert_eq!(stats.solves(), 2);
    }

    #[test]
    fn policy_resolution() {
        assert_eq!(SolverPolicy::Dense.resolve(1 << 20), SolverKind::Dense);
        assert_eq!(SolverPolicy::Pcg.resolve(1), SolverKind::Pcg);
        assert_eq!(SolverPolicy::Auto.resolve(1023), SolverKind::Dense);
        assert_eq!(SolverPolicy::Auto.resolve(1024), SolverKind::Pcg);
        assert_eq!(SolverPolicy::default(), SolverPolicy::Auto);
        assert_eq!(SolverPolicy::Auto.name(), "auto");
        assert_eq!(SolverPolicy::Dense.name(), "dense");
        assert_eq!(SolverPolicy::Pcg.name(), "pcg");
    }

    #[test]
    fn workspace_dispatches_and_counts() {
        let (a, at, w, b) = sample_system();
        let mut ws = NormalSolverWorkspace::with_policy(SolverPolicy::Pcg);
        assert_eq!(ws.policy(), SolverPolicy::Pcg);
        let mut x = vec![0.0; 3];
        ws.solve(&a, &at, &w, 1e-10, &b, &mut x).unwrap();
        assert_eq!(ws.stats().pcg_solves, 1);
        assert_eq!(ws.stats().dense_solves, 0);
        ws.set_policy(SolverPolicy::Auto); // 3 rows < threshold: dense
        ws.solve(&a, &at, &w, 1e-10, &b, &mut x).unwrap();
        assert_eq!(ws.stats().dense_solves, 1);
        ws.reset_stats();
        assert_eq!(ws.stats(), SolveStats::default());
    }

    #[test]
    fn dense_fallback_is_counted() {
        // diag(1, -1) is indefinite: Cholesky must fail deterministically
        // and the pseudo-inverse path must answer and be counted.
        let a = SparseMatrix::from_dense(&Matrix::identity(2));
        let at = a.transpose();
        let w = vec![1.0, -1.0];
        let b = vec![2.0, -3.0];
        let mut stats = SolveStats::default();
        let mut x = vec![0.0; 2];
        DenseNormalSolver::new()
            .solve_normal(&a, &at, &w, 0.0, &b, &mut x, &mut stats)
            .unwrap();
        assert_eq!(stats.fallbacks, 1);
        assert_eq!(stats.dense_solves, 1);
        let back = a.awat(&w).unwrap().matvec(&x).unwrap();
        for (got, want) in back.iter().zip(b.iter()) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    /// A 6x4 operator whose gram splits into two tightly coupled 3-row
    /// blocks with weak cross-coupling — the shape a partitioned topology
    /// produces.
    fn clustered_system() -> (SparseMatrix, SparseMatrix, Vec<f64>, Vec<f64>) {
        let d = Matrix::from_rows(&[
            &[2.0, 1.0, 0.0, 0.0],
            &[1.0, 2.0, 0.0, 0.0],
            &[0.5, 0.5, 0.1, 0.0],
            &[0.0, 0.0, 2.0, 1.0],
            &[0.0, 0.0, 1.0, 2.0],
            &[0.0, 0.1, 0.5, 0.5],
        ])
        .unwrap();
        let a = SparseMatrix::from_dense(&d);
        let at = a.transpose();
        let w = vec![1.0, 0.5, 2.0, 1.5];
        let b = vec![3.0, -1.0, 2.0, 0.5, -2.0, 1.0];
        (a, at, w, b)
    }

    #[test]
    fn row_blocks_cut_iterations_and_match_scalar() {
        let (a, at, w, b) = clustered_system();
        let mut scalar = NormalSolverWorkspace::with_policy(SolverPolicy::Pcg);
        let mut x_scalar = vec![0.0; 6];
        scalar.solve(&a, &at, &w, 1e-10, &b, &mut x_scalar).unwrap();
        let mut block = NormalSolverWorkspace::with_policy(SolverPolicy::Pcg);
        block.set_row_blocks(Some(vec![vec![0, 1, 2], vec![3, 4, 5]]));
        assert_eq!(block.row_blocks().unwrap().len(), 2);
        let mut x_block = vec![0.0; 6];
        block.solve(&a, &at, &w, 1e-10, &b, &mut x_block).unwrap();
        assert_eq!(block.stats().pcg_solves, 1);
        assert_eq!(block.stats().pcg_stalls, 0);
        assert!(
            block.stats().pcg_iterations < scalar.stats().pcg_iterations,
            "block-Jacobi should iterate less: {} vs {}",
            block.stats().pcg_iterations,
            scalar.stats().pcg_iterations
        );
        for (s, bl) in x_scalar.iter().zip(x_block.iter()) {
            assert!((s - bl).abs() <= 1e-10 * (1.0 + s.abs()), "{s} vs {bl}");
        }
        // Clearing the blocks restores the scalar path bit-identically.
        block.set_row_blocks(None);
        block.reset_stats();
        let mut x_again = vec![0.0; 6];
        block.solve(&a, &at, &w, 1e-10, &b, &mut x_again).unwrap();
        assert_eq!(x_again, x_scalar);
        assert_eq!(block.stats(), scalar.stats());
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = SolveStats {
            dense_solves: 1,
            pcg_solves: 2,
            pcg_iterations: 30,
            pcg_stalls: 1,
            fallbacks: 0,
        };
        let b = SolveStats {
            dense_solves: 10,
            pcg_solves: 1,
            pcg_iterations: 5,
            pcg_stalls: 0,
            fallbacks: 3,
        };
        a.merge(&b);
        assert_eq!(a.dense_solves, 11);
        assert_eq!(a.pcg_solves, 3);
        assert_eq!(a.pcg_iterations, 35);
        assert_eq!(a.pcg_stalls, 1);
        assert_eq!(a.fallbacks, 3);
    }
}
