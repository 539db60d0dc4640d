//! The solver for the weighted normal equations.
//!
//! Every estimator in the workspace bottoms out in the same system: given
//! a sparse operator `A` and positive weights `w`, solve
//!
//! ```text
//! (A·diag(w)·Aᵀ + scale·ridge·I) x = b
//! ```
//!
//! where `scale` is the magnitude of the gram matrix, making the ridge
//! relative. [`NormalSolverWorkspace`] solves it one of two ways, so
//! upper layers (tomogravity, the BCD fits, the streaming pipeline) pick a
//! strategy per problem size instead of hard-coding one:
//!
//! * **dense** — the original path: materialize `A W Aᵀ` via
//!   [`SparseMatrix::awat_into`] and factor it with the ridged
//!   [`crate::Cholesky`] kernel in place, in the same buffer, falling back
//!   to the SVD pseudo-inverse when the ridge cannot rescue rank
//!   deficiency. Exact and fast while `rows` is small; one `rows × rows`
//!   matrix of memory, `O(rows³)` time.
//! * **PCG** — matrix-free Jacobi-preconditioned conjugate gradients
//!   ([`crate::PcgWorkspace`]): the gram matrix is never formed, each
//!   iteration costs two CSR matvecs, and memory stays `O(rows + cols)`.
//!   This is what lets estimation scale to thousands of nodes.
//!
//! [`SolverPolicy`] selects between them ([`SolverPolicy::Auto`] switches
//! on row count), and the workspace counts every solve, PCG iteration,
//! stall and pseudo-inverse fallback in observable [`SolveStats`].

use crate::cholesky::{factor_regularized_in_place, solve_with_factor};
use crate::matrix::Matrix;
use crate::pcg::PcgWorkspace;
use crate::pinv::pseudo_inverse;
use crate::sparse::SparseMatrix;
use crate::Result;

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

/// The weighted-normal-equations solver the estimation workspaces hold:
/// the dense and PCG buffers behind one [`SolverPolicy`], with cumulative
/// [`SolveStats`].
///
/// [`NormalSolverWorkspace::solve`] solves
/// `(A·diag(w)·Aᵀ + scale·ridge·I) x = b`. `ridge` is relative: each path
/// multiplies it by the gram matrix's largest absolute entry, which for a
/// PSD matrix lies on the diagonal, so the matrix-free path reads the same
/// scale without forming the matrix. Buffers on the unused side stay
/// empty (both sides size lazily), so an always-dense or always-PCG
/// workload pays nothing for the other path. Either path is
/// allocation-free once warm: the buffers reshape within their
/// allocations, so a workspace that alternates between systems of
/// different sizes stops allocating once it has solved the largest.
#[derive(Debug, Clone)]
pub struct NormalSolverWorkspace {
    policy: SolverPolicy,
    stats: SolveStats,
    // Dense path: the materialized `A W Aᵀ`, factored in place.
    awat: Matrix,
    // PCG path: the CG vectors, the Jacobi diagonal and the `Aᵀv`
    // scratch of the operator.
    pcg: PcgWorkspace,
    diag: Vec<f64>,
    scratch: Vec<f64>,
}

impl Default for NormalSolverWorkspace {
    fn default() -> Self {
        NormalSolverWorkspace::new()
    }
}

impl NormalSolverWorkspace {
    /// An empty workspace with the default ([`SolverPolicy::Auto`])
    /// policy.
    pub fn new() -> Self {
        NormalSolverWorkspace::with_policy(SolverPolicy::default())
    }

    /// An empty workspace with the given policy.
    pub fn with_policy(policy: SolverPolicy) -> Self {
        NormalSolverWorkspace {
            policy,
            stats: SolveStats::default(),
            awat: Matrix::zeros(0, 0),
            pcg: PcgWorkspace::new(),
            diag: Vec::new(),
            scratch: Vec::new(),
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

    /// Solves the weighted normal equations into `x` (length `a.rows()`)
    /// with the solver the policy picks for this system's row count.
    ///
    /// `transpose` must be the precomputed [`SparseMatrix::transpose`] of
    /// `a`, letting per-bin callers amortize it.
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
            SolverKind::Dense => self.solve_dense(a, transpose, weights, ridge, b, x),
            SolverKind::Pcg => self.solve_pcg(a, transpose, weights, ridge, b, x),
        }
    }

    /// The historical dense path: materialize `A W Aᵀ`, ridge-regularized
    /// Cholesky, counted SVD pseudo-inverse fallback on rank deficiency.
    /// Byte for byte the sequence tomogravity used before the solver
    /// layer existed, so policies that resolve to dense reproduce
    /// historical results exactly. The factor overwrites the Gram, so
    /// the fallback assembles the Gram again before the SVD reads it.
    fn solve_dense(
        &mut self,
        a: &SparseMatrix,
        transpose: &SparseMatrix,
        weights: &[f64],
        ridge: f64,
        b: &[f64],
        x: &mut [f64],
    ) -> Result<()> {
        let rows = a.rows();
        self.awat.ensure_shape(rows, rows);
        // A W Aᵀ in O(nnz) via the precomputed transpose.
        a.awat_into(weights, transpose, &mut self.awat)?;
        let scale = self.awat.max_abs().max(f64::MIN_POSITIVE);
        match factor_regularized_in_place(&mut self.awat, scale * ridge) {
            Ok(()) => solve_with_factor(&self.awat, b, x)?,
            Err(_) => {
                // Rank-deficient beyond what the ridge absorbs: SVD route,
                // on the Gram the failed factorization overwrote.
                self.stats.fallbacks += 1;
                a.awat_into(weights, transpose, &mut self.awat)?;
                let pinv = pseudo_inverse(&self.awat, None)?;
                let l = pinv.matvec(b)?;
                x.copy_from_slice(&l);
            }
        }
        self.stats.dense_solves += 1;
        Ok(())
    }

    /// Matrix-free PCG: the operator is applied as `y = A·(w ⊙ (Aᵀv))`
    /// through the CSR `_into` kernels, the Jacobi preconditioner comes
    /// from [`SparseMatrix::awat_diag_into`], and the `rows×rows` gram
    /// matrix is never allocated.
    fn solve_pcg(
        &mut self,
        a: &SparseMatrix,
        transpose: &SparseMatrix,
        weights: &[f64],
        ridge: f64,
        b: &[f64],
        x: &mut [f64],
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
        self.stats.pcg_solves += 1;
        self.stats.pcg_iterations += out.iterations as u64;
        if !out.converged {
            self.stats.pcg_stalls += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cholesky;

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

    /// A `rows × (rows + 3)` operator of full row rank: a diagonal of
    /// ones plus a few deterministic pseudo-random entries per row, with
    /// its transpose, positive weights and a right-hand side.
    fn wide_system(rows: usize, seed: u64) -> (SparseMatrix, SparseMatrix, Vec<f64>, Vec<f64>) {
        let cols = rows + 3;
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut d = Matrix::zeros(rows, cols);
        for r in 0..rows {
            d[(r, r)] = 1.0;
            for _ in 0..3 {
                let c = (next() * cols as f64) as usize % cols;
                d[(r, c)] += next();
            }
        }
        let a = SparseMatrix::from_dense(&d);
        let at = a.transpose();
        let w: Vec<f64> = (0..cols).map(|_| 0.1 + next()).collect();
        let b: Vec<f64> = (0..rows).map(|_| next() - 0.5).collect();
        (a, at, w, b)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The dense solve is the ridged Cholesky of the assembled Gram,
    /// factored in place: the same bits as `Cholesky::factor_regularized`
    /// on a copy of the Gram, then `solve`.
    #[test]
    fn dense_solve_matches_regularized_cholesky_bit_for_bit() {
        for (rows, ridge) in [(1, 0.0), (7, 1e-10), (40, 1e-6)] {
            let (a, at, w, b) = wide_system(rows, 11 + rows as u64);
            let gram = a.awat(&w).unwrap();
            let scale = gram.max_abs().max(f64::MIN_POSITIVE);
            let want = Cholesky::factor_regularized(&gram, scale * ridge)
                .unwrap()
                .solve(&b)
                .unwrap();
            let mut ws = NormalSolverWorkspace::with_policy(SolverPolicy::Dense);
            let mut x = vec![0.0; rows];
            ws.solve(&a, &at, &w, ridge, &b, &mut x).unwrap();
            assert_eq!(bits(&x), bits(&want), "{rows} rows");
            assert_eq!(ws.stats().fallbacks, 0);
        }
    }

    /// One workspace solving a large system, a smaller one, the large one
    /// again and then one that takes the counted fallback gives each the
    /// bits of a fresh workspace: the Gram reshapes within its allocation
    /// and every solve assembles it from scratch.
    #[test]
    fn workspace_reuse_is_bit_identical_and_resizes() {
        let large = wide_system(60, 3);
        let small = wide_system(9, 5);
        // diag(4, -1) is indefinite: the ridged Cholesky fails.
        let eye = SparseMatrix::from_dense(&Matrix::identity(2));
        let fallback = (
            eye.clone(),
            eye.transpose(),
            vec![4.0, -1.0],
            vec![2.0, -3.0],
        );
        let mut ws = NormalSolverWorkspace::with_policy(SolverPolicy::Dense);
        for (k, (a, at, w, b)) in [&large, &small, &large, &fallback].into_iter().enumerate() {
            let ridge = if k == 3 { 0.0 } else { 1e-10 };
            let mut x = vec![0.0; a.rows()];
            ws.solve(a, at, w, ridge, b, &mut x).unwrap();
            let mut fresh = NormalSolverWorkspace::with_policy(SolverPolicy::Dense);
            let mut want = vec![0.0; a.rows()];
            fresh.solve(a, at, w, ridge, b, &mut want).unwrap();
            assert_eq!(bits(&x), bits(&want), "solve {k}");
        }
        let stats = ws.stats();
        assert_eq!(stats.dense_solves, 4);
        assert_eq!(stats.fallbacks, 1);
    }

    #[test]
    fn dense_and_pcg_agree() {
        let (a, at, w, b) = sample_system();
        let mut dense = NormalSolverWorkspace::with_policy(SolverPolicy::Dense);
        let mut xd = vec![0.0; 3];
        dense.solve(&a, &at, &w, 1e-10, &b, &mut xd).unwrap();
        let mut pcg = NormalSolverWorkspace::with_policy(SolverPolicy::Pcg);
        let mut xp = vec![0.0; 3];
        pcg.solve(&a, &at, &w, 1e-10, &b, &mut xp).unwrap();
        for (d, p) in xd.iter().zip(xp.iter()) {
            assert!((d - p).abs() < 1e-8, "dense {d} vs pcg {p}");
        }
        let mut stats = dense.stats();
        stats.merge(&pcg.stats());
        assert_eq!(stats.dense_solves, 1);
        assert_eq!(stats.pcg_solves, 1);
        // Exact: three iterations for three rows, converged.
        assert_eq!(stats.pcg_iterations, 3);
        assert_eq!(stats.pcg_stalls, 0);
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
        // diag(4, -1) is indefinite: Cholesky must fail deterministically
        // and the pseudo-inverse path must answer and be counted. The
        // answer solves the system of a freshly assembled Gram, not of the
        // partial factor `diag(2, -1)` the failed Cholesky left behind.
        let a = SparseMatrix::from_dense(&Matrix::identity(2));
        let at = a.transpose();
        let w = vec![4.0, -1.0];
        let b = vec![2.0, -3.0];
        let mut ws = NormalSolverWorkspace::with_policy(SolverPolicy::Dense);
        let mut x = vec![0.0; 2];
        ws.solve(&a, &at, &w, 0.0, &b, &mut x).unwrap();
        let stats = ws.stats();
        assert_eq!(stats.fallbacks, 1);
        assert_eq!(stats.dense_solves, 1);
        let back = a.awat(&w).unwrap().matvec(&x).unwrap();
        for (got, want) in back.iter().zip(b.iter()) {
            assert!((got - want).abs() < 1e-9);
        }
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
