//! Property-based tests for the estimation pipeline components, including
//! the sparse/dense equivalence of the whole hot path: on random
//! topologies the sparse tomogravity refinement, the workspace-reusing
//! IPF, and the full pipeline agree with their dense / allocating
//! references bit-for-bit (or within 1e-12 where an ordering difference is
//! fundamental). The dense refinement oracle materializes the gram
//! matrix and factors it with a ridged Cholesky. The IPF kernel and the gravity prior also match the
//! per-bin loops they replaced, kept here as oracles, bit for bit, and the
//! closed-form stable-fP prior matches paper Eq. 7–9 taken literally (the
//! SVD pseudo-inverse of `QΦ`) to rounding. A multilevel pipeline that
//! refills a dropped estimate's cluster blocks gives a fresh pipeline's
//! estimate bit for bit.

use ic_core::{gravity_from_marginals, rel_l2_series, TmSeries};
use ic_engine::{Engine, WorkspacePool};
use ic_estimation::{
    compare_priors, compare_priors_with, ipf_fit, ipf_fit_with, EstimationConfig,
    EstimationPipeline, GravityPrior, IpfOptions, IpfWorkspace, MultilevelEstimate,
    MultilevelPipeline, ObservationModel, Observations, PipelineWorkspace, StableFPrior,
    StableFpPrior, TmPrior, Tomogravity, TomogravityOptions, TomogravityWorkspace,
};
use ic_linalg::{pseudo_inverse, Cholesky, Matrix};
use ic_topology::{
    hierarchical, waxman, HierarchicalConfig, Partition, RoutingMatrix, RoutingScheme, Topology,
    WaxmanConfig,
};
use proptest::prelude::*;

/// Dense oracle of the tomogravity bin refinement:
/// `x = max(0, x_p + W Aᵀ (A W Aᵀ)⁺ (b − A x_p))` with `A W Aᵀ`
/// materialized, factored by a Cholesky with the kernel's relative ridge
/// (1e-10 of its largest entry), and the SVD pseudo-inverse when that
/// fails. The weights are the prior floored at 1e-4 of its mean; an
/// all-zero prior is its own answer.
fn dense_refine_bin(a: &Matrix, x_prior: &[f64], b: &[f64]) -> Vec<f64> {
    if x_prior.iter().all(|&v| v == 0.0) {
        return x_prior.to_vec();
    }
    let mean_prior = x_prior.iter().sum::<f64>() / x_prior.len() as f64;
    let floor = (mean_prior * 1e-4).max(f64::MIN_POSITIVE);
    let w: Vec<f64> = x_prior.iter().map(|&v| v.max(floor)).collect();
    let ax = a.matvec(x_prior).unwrap();
    let resid: Vec<f64> = b.iter().zip(&ax).map(|(&bi, &axi)| bi - axi).collect();
    let mut aw = a.clone();
    for r in 0..a.rows() {
        for (v, &wc) in aw.row_mut(r).iter_mut().zip(&w) {
            *v *= wc;
        }
    }
    let awat = aw.matmul(&a.transpose()).unwrap();
    let scale = awat.max_abs().max(f64::MIN_POSITIVE);
    let lambda = match Cholesky::factor_regularized(&awat, scale * 1e-10) {
        Ok(chol) => chol.solve(&resid).unwrap(),
        Err(_) => pseudo_inverse(&awat, None).unwrap().matvec(&resid).unwrap(),
    };
    let at_lambda = a.matvec_transposed(&lambda).unwrap();
    x_prior
        .iter()
        .zip(at_lambda.iter().zip(&w))
        .map(|(&xp, (&atl, &wi))| (xp + wi * atl).max(0.0))
        .collect()
}

fn nonneg_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(0.1f64..100.0, n * n)
        .prop_map(move |v| Matrix::from_vec(n, n, v).unwrap())
}

/// A random small topology (via the seeded Waxman generator) together
/// with a deterministic positive traffic series on it.
fn waxman_and_series() -> impl Strategy<Value = (Topology, TmSeries)> {
    (4usize..9, any::<u64>(), 1usize..4).prop_map(|(n, seed, bins)| {
        let topo = waxman(&WaxmanConfig::new(n, seed)).unwrap();
        let mut tm = TmSeries::zeros(n, bins, 300.0).unwrap();
        for t in 0..bins {
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        let v = 1e5 * (1.0 + ((i * 31 + j * 17 + t * 7) % 13) as f64);
                        tm.set(i, j, t, v).unwrap();
                    }
                }
            }
        }
        (topo, tm)
    })
}

/// [`waxman_and_series`] with the topology's ECMP observation model.
fn topo_and_series() -> impl Strategy<Value = (ObservationModel, TmSeries)> {
    waxman_and_series().prop_map(|(topo, tm)| {
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        (om, tm)
    })
}

/// The dense ingress incidence operator `H` (`n × n²`), entry by entry.
fn ingress_incidence(n: usize) -> Matrix {
    let mut h = Matrix::zeros(n, n * n);
    for i in 0..n {
        for j in 0..n {
            h[(i, i * n + j)] = 1.0;
        }
    }
    h
}

/// The dense egress incidence operator `G` (`n × n²`), entry by entry.
fn egress_incidence(n: usize) -> Matrix {
    let mut g = Matrix::zeros(n, n * n);
    for i in 0..n {
        for j in 0..n {
            g[(j, i * n + j)] = 1.0;
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// IPF always lands on the requested marginals when the seed has full
    /// support and the targets are consistent.
    #[test]
    fn ipf_hits_marginals(
        x in nonneg_matrix(4),
        rows in proptest::collection::vec(1.0f64..50.0, 4),
    ) {
        // Column targets: a permutation of rows keeps totals equal.
        let mut cols = rows.clone();
        cols.rotate_left(1);
        let w = ipf_fit(&x, &rows, &cols, IpfOptions::default()).unwrap();
        let rs = w.row_sums();
        let cs = w.col_sums();
        for (got, want) in rs.iter().zip(rows.iter()) {
            prop_assert!((got - want).abs() < 1e-6 * want, "rows {rs:?} vs {rows:?}");
        }
        for (got, want) in cs.iter().zip(cols.iter()) {
            prop_assert!((got - want).abs() < 1e-6 * want, "cols {cs:?} vs {cols:?}");
        }
    }

    /// IPF preserves non-negativity and never invents mass where both the
    /// seed and the targets are zero.
    #[test]
    fn ipf_preserves_nonnegativity(x in nonneg_matrix(3)) {
        let rows = x.row_sums();
        let cols = x.col_sums();
        let w = ipf_fit(&x, &rows, &cols, IpfOptions::default()).unwrap();
        prop_assert!(w.as_slice().iter().all(|&v| v >= 0.0));
        // Consistent input is a fixed point.
        prop_assert!(w.approx_eq(&x, 1e-6 * (1.0 + x.max_abs())));
    }

    /// The workspace-reusing IPF is bit-identical to the allocating one,
    /// including when one workspace is reused across differently-shaped
    /// problems.
    #[test]
    fn ipf_workspace_matches_allocating_path(
        x3 in nonneg_matrix(3),
        x4 in nonneg_matrix(4),
    ) {
        let mut ws = IpfWorkspace::new();
        for x in [&x4, &x3, &x4] {
            let rows = x.row_sums();
            let mut cols = rows.clone();
            cols.rotate_left(1);
            let plain = ipf_fit(x, &rows, &cols, IpfOptions::default()).unwrap();
            ipf_fit_with(x, &rows, &cols, IpfOptions::default(), &mut ws).unwrap();
            prop_assert_eq!(ws.fitted(), &plain);
        }
    }

    /// On random topologies, the sparse per-bin tomogravity refinement
    /// (CSR `A W Aᵀ`, workspace buffers) agrees with the dense oracle
    /// [`dense_refine_bin`] to 1e-12 relative on every bin, and the sparse
    /// stacked operator is `[R; H; G]` built from the dense pieces.
    #[test]
    fn sparse_tomogravity_matches_dense((topo, tm) in waxman_and_series()) {
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let obs = om.observe(&tm).unwrap();
        let prior = GravityPrior.prior_series(&obs).unwrap();
        let tomo = Tomogravity::new(TomogravityOptions::default());
        let n = tm.nodes();
        let a_dense = RoutingMatrix::build(&topo, RoutingScheme::Ecmp)
            .unwrap()
            .as_sparse()
            .to_dense()
            .vstack(&ingress_incidence(n))
            .and_then(|rh| rh.vstack(&egress_incidence(n)))
            .unwrap();
        let a = om.stacked_sparse();
        let at = om.stacked_transpose();
        prop_assert_eq!(&a.to_dense(), &a_dense);
        let mut ws = TomogravityWorkspace::new();
        for t in 0..tm.bins() {
            let xp = prior.column(t);
            let b = obs.stacked_at(t);
            let dense = dense_refine_bin(&a_dense, &xp, &b);
            tomo.refine_bin_sparse_with(a, at, &xp, &b, &mut ws).unwrap();
            let scale = 1.0 + dense.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
            for (s, d) in ws.solution().iter().zip(dense.iter()) {
                prop_assert!((s - d).abs() <= 1e-12 * scale, "sparse {s} vs dense {d}");
            }
        }
    }

    /// The full pipeline gives bit-identical estimates whether run with a
    /// fresh workspace per call or one reused across calls, and the
    /// estimates respect the observed marginals.
    #[test]
    fn pipeline_workspace_reuse_is_bit_identical((om, tm) in topo_and_series()) {
        let obs = om.observe(&tm).unwrap();
        let pipeline = EstimationPipeline::new(om);
        let fresh = pipeline.estimate(&GravityPrior, &obs).unwrap();
        let mut ws = PipelineWorkspace::new();
        // Run twice through the same workspace: warm-up, then warm.
        let first = pipeline.estimate_with(&GravityPrior, &obs, &mut ws).unwrap();
        let warm = pipeline.estimate_with(&GravityPrior, &obs, &mut ws).unwrap();
        prop_assert_eq!(&first, &fresh);
        prop_assert_eq!(&warm, &fresh);
        for t in 0..tm.bins() {
            let est_in = fresh.ingress(t);
            let true_in = tm.ingress(t);
            for (g, w) in est_in.iter().zip(true_in.iter()) {
                prop_assert!((g - w).abs() <= 1e-6 * w.max(1.0));
            }
        }
    }

    /// End-to-end solver equivalence: the full pipeline under
    /// `SolverPolicy::Pcg` matches `SolverPolicy::Dense` within estimation
    /// tolerance on random topologies, and `Auto` is bit-identical to
    /// `Dense` at these sizes (all far below the auto row threshold).
    #[test]
    fn pipeline_pcg_matches_dense_end_to_end((om, tm) in topo_and_series()) {
        use ic_estimation::SolverPolicy;
        let obs = om.observe(&tm).unwrap();
        let dense_pipe = EstimationPipeline::new(om.clone())
            .config(EstimationConfig::new().with_solver(SolverPolicy::Dense));
        let pcg_pipe = EstimationPipeline::new(om.clone())
            .config(EstimationConfig::new().with_solver(SolverPolicy::Pcg));
        let auto_pipe = EstimationPipeline::new(om);
        let mut ws_d = PipelineWorkspace::new();
        let mut ws_p = PipelineWorkspace::new();
        let dense = dense_pipe.estimate_with(&GravityPrior, &obs, &mut ws_d).unwrap();
        let pcg = pcg_pipe.estimate_with(&GravityPrior, &obs, &mut ws_p).unwrap();
        let auto = auto_pipe.estimate(&GravityPrior, &obs).unwrap();
        prop_assert_eq!(&auto, &dense);
        prop_assert!(ws_d.solve_stats().pcg_solves == 0 && ws_d.solve_stats().dense_solves > 0);
        prop_assert!(ws_p.solve_stats().dense_solves == 0 && ws_p.solve_stats().pcg_solves > 0);
        // Estimation tolerance, not solver tolerance: random topologies
        // can produce ill-conditioned normal equations where the two
        // solvers' (both correct) solutions differ beyond 1e-8, and the
        // IPF step renormalizes whole rows by the difference.
        let (md, mp) = (dense.as_matrix(), pcg.as_matrix());
        let scale = md.max_abs().max(1.0);
        for (a, b) in md.as_slice().iter().zip(mp.as_slice().iter()) {
            prop_assert!((a - b).abs() <= 1e-6 * scale, "dense {a} vs pcg {b}");
        }
    }

    /// IPF preserves zero cells of the seed (it only rescales), keeping
    /// the prior's structural zeros — the property that makes it safe as
    /// step 3 of the pipeline.
    #[test]
    fn ipf_preserves_structural_zeros(
        x in nonneg_matrix(3),
        zero_row in 0usize..3,
        zero_col in 0usize..3,
    ) {
        let mut seeded = x.clone();
        seeded[(zero_row, zero_col)] = 0.0;
        // Keep targets consistent with *some* feasible matrix: use the
        // seeded matrix's own marginals.
        let rows = seeded.row_sums();
        let cols = seeded.col_sums();
        let w = ipf_fit(&seeded, &rows, &cols, IpfOptions::default()).unwrap();
        prop_assert_eq!(w[(zero_row, zero_col)], 0.0);
    }
}

/// Like `topo_and_series` but with enough bins that the engine's shard
/// plan actually splits the run.
fn topo_and_long_series() -> impl Strategy<Value = (ObservationModel, TmSeries)> {
    (4usize..8, any::<u64>(), 4usize..12).prop_map(|(n, seed, bins)| {
        let topo = waxman(&WaxmanConfig::new(n, seed)).unwrap();
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let mut tm = TmSeries::zeros(n, bins, 300.0).unwrap();
        for t in 0..bins {
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        let v = 1e5 * (1.0 + ((i * 31 + j * 17 + t * 7) % 13) as f64);
                        tm.set(i, j, t, v).unwrap();
                    }
                }
            }
        }
        (om, tm)
    })
}

/// A prior that hands back a fixed series: the explicit-prior-series
/// route into every entry point.
struct FixedPrior(TmSeries);

impl TmPrior for FixedPrior {
    fn name(&self) -> &str {
        "fixed"
    }

    fn prior_series(&self, _obs: &Observations) -> ic_estimation::Result<TmSeries> {
        Ok(self.0.clone())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Engine-sharded batch estimation with 1 worker and with N workers is
    /// bit-identical to the serial pipeline, for arbitrary shard sizes,
    /// from both a prior strategy and an explicit prior series.
    #[test]
    fn parallel_estimation_is_bit_identical(
        (om, tm) in topo_and_long_series(),
        threads in 2usize..8,
        shard_bins in 1usize..6,
    ) {
        let obs = om.observe(&tm).unwrap();
        let pipeline = EstimationPipeline::new(om);
        let serial = pipeline.estimate(&GravityPrior, &obs).unwrap();
        let one = Engine::serial().with_shard_bins(shard_bins);
        let many = Engine::new().with_threads(threads).with_shard_bins(shard_bins);
        let pool = WorkspacePool::new();
        let parallel = |prior: &dyn TmPrior, engine: &Engine| {
            pipeline.estimate_parallel_pooled(prior, &obs, engine, &pool).unwrap()
        };
        prop_assert_eq!(&parallel(&GravityPrior, &one), &serial);
        prop_assert_eq!(&parallel(&GravityPrior, &many), &serial);
        let fixed = FixedPrior(GravityPrior.prior_series(&obs).unwrap());
        let mut ws = PipelineWorkspace::new();
        let from_series = pipeline.estimate_with(&fixed, &obs, &mut ws).unwrap();
        prop_assert_eq!(&from_series, &serial);
        prop_assert_eq!(&parallel(&fixed, &many), &from_series);
    }

    /// A warm caller-held pool is invisible in the results: repeated
    /// pooled runs equal the fresh-pool run bit-for-bit.
    #[test]
    fn pooled_parallel_runs_are_bit_identical(
        (om, tm) in topo_and_long_series(),
        threads in 1usize..6,
    ) {
        let obs = om.observe(&tm).unwrap();
        let pipeline = EstimationPipeline::new(om);
        let serial = pipeline.estimate(&GravityPrior, &obs).unwrap();
        let engine = Engine::new().with_threads(threads).with_shard_bins(2);
        let pool: WorkspacePool<PipelineWorkspace> = WorkspacePool::new();
        let first = pipeline.estimate_parallel_pooled(&GravityPrior, &obs, &engine, &pool).unwrap();
        let warm = pipeline.estimate_parallel_pooled(&GravityPrior, &obs, &engine, &pool).unwrap();
        prop_assert_eq!(&first, &serial);
        prop_assert_eq!(&warm, &serial);
    }

    /// The engine-backed multi-prior comparison equals the serial
    /// `compare_priors` exactly — errors, improvements, and means — and
    /// the serial errors are those of the per-bin `estimate` path.
    #[test]
    fn compare_priors_with_matches_serial(
        (om, tm) in topo_and_long_series(),
        threads in 1usize..8,
        shard_bins in 1usize..6,
    ) {
        let obs = om.observe(&tm).unwrap();
        let pipeline = EstimationPipeline::new(om);
        let candidate = StableFPrior { f: 0.25 };
        let serial = compare_priors(&pipeline, &candidate, &tm, &obs).unwrap();
        let per_bin = pipeline.estimate(&candidate, &obs).unwrap();
        prop_assert_eq!(&serial.errors_candidate, &rel_l2_series(&tm, &per_bin).unwrap());
        let per_bin = pipeline.estimate(&GravityPrior, &obs).unwrap();
        prop_assert_eq!(&serial.errors_gravity, &rel_l2_series(&tm, &per_bin).unwrap());
        let engine = Engine::new().with_threads(threads).with_shard_bins(shard_bins);
        let parallel = compare_priors_with(&pipeline, &candidate, &tm, &obs, &engine).unwrap();
        prop_assert_eq!(serial.improvement, parallel.improvement);
        prop_assert_eq!(serial.errors_candidate, parallel.errors_candidate);
        prop_assert_eq!(serial.errors_gravity, parallel.errors_gravity);
        prop_assert_eq!(serial.mean_improvement, parallel.mean_improvement);
    }
}

/// The per-bin IPF loop that the interleaved kernel replaced, kept
/// verbatim as the bit-identity oracle of `ipf_fit_with`. `None` where it
/// rejects the input.
fn oracle_ipf(
    x: &Matrix,
    row_targets: &[f64],
    col_targets: &[f64],
    options: IpfOptions,
) -> Option<Matrix> {
    let (n, m) = x.shape();
    if row_targets.len() != n || col_targets.len() != m {
        return None;
    }
    if x.as_slice().iter().any(|&v| v < 0.0 || !v.is_finite()) {
        return None;
    }
    if row_targets
        .iter()
        .chain(col_targets.iter())
        .any(|&v| v < 0.0 || !v.is_finite())
    {
        return None;
    }
    let mut w = Matrix::zeros(n, m);
    let mut cols = vec![0.0; m];
    let mut col_sums = vec![0.0; m];
    let row_total: f64 = row_targets.iter().sum();
    let col_total: f64 = col_targets.iter().sum();
    if row_total == 0.0 || col_total == 0.0 {
        return Some(w);
    }
    let scale = row_total / col_total;
    for (slot, &v) in cols.iter_mut().zip(col_targets.iter()) {
        *slot = v * scale;
    }
    w.as_mut_slice().copy_from_slice(x.as_slice());
    for i in 0..n {
        if row_targets[i] > 0.0 && w.row(i).iter().all(|&v| v == 0.0) {
            for j in 0..m {
                w[(i, j)] = 1.0;
            }
        }
    }
    for j in 0..m {
        if cols[j] > 0.0 && (0..n).all(|i| w[(i, j)] == 0.0) {
            for i in 0..n {
                w[(i, j)] = 1.0;
            }
        }
    }
    for _ in 0..options.max_iterations {
        for i in 0..n {
            let sum: f64 = w.row(i).iter().sum();
            if sum > 0.0 {
                let s = row_targets[i] / sum;
                for v in w.row_mut(i) {
                    *v *= s;
                }
            } else if row_targets[i] == 0.0 {
                for v in w.row_mut(i) {
                    *v = 0.0;
                }
            }
        }
        col_sums.fill(0.0);
        for i in 0..n {
            for (s, &v) in col_sums.iter_mut().zip(w.row(i).iter()) {
                *s += v;
            }
        }
        for j in 0..m {
            if col_sums[j] > 0.0 {
                let s = cols[j] / col_sums[j];
                for i in 0..n {
                    w[(i, j)] *= s;
                }
            } else if cols[j] == 0.0 {
                for i in 0..n {
                    w[(i, j)] = 0.0;
                }
            }
        }
        let mut worst = 0.0_f64;
        for i in 0..n {
            let sum: f64 = w.row(i).iter().sum();
            let target = row_targets[i];
            if target > 0.0 {
                worst = worst.max((sum - target).abs() / target);
            } else {
                worst = worst.max(sum.abs() / row_total);
            }
        }
        if worst < options.tolerance {
            break;
        }
    }
    Some(w)
}

/// Splitmix64 draw in `[0, 1)` for stream position `k` of `seed`.
fn unit(seed: u64, k: u64) -> f64 {
    let mut z = seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as f64 / 2f64.powi(64)
}

/// An `n × m` IPF problem drawn from `seed`: a seed matrix with zero
/// rows, zero columns and zero cells; targets with zeros and mismatched
/// totals; one draw in eight idle (every target zero).
fn ipf_problem(n: usize, m: usize, seed: u64) -> (Matrix, Vec<f64>, Vec<f64>) {
    let u = |k: usize| unit(seed, k as u64);
    let zero_row: Vec<bool> = (0..n).map(|i| u(i) < 0.2).collect();
    let zero_col: Vec<bool> = (0..m).map(|j| u(100 + j) < 0.2).collect();
    let mut x = Matrix::zeros(n, m);
    for i in 0..n {
        for j in 0..m {
            let k = 1000 + i * m + j;
            if !zero_row[i] && !zero_col[j] && u(k) >= 0.1 {
                x[(i, j)] = 0.01 + 100.0 * u(k + 500);
            }
        }
    }
    let idle = u(200) < 0.125;
    let target = |k: usize| {
        if idle || u(k) < 0.2 {
            0.0
        } else {
            0.5 + 50.0 * u(k + 50)
        }
    };
    let rows = (0..n).map(|i| target(300 + i)).collect();
    let cols = (0..m).map(|j| target(400 + j)).collect();
    (x, rows, cols)
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Paper Eq. 7–9 as written, the oracle of the closed-form
/// `StableFpPrior`: `Φ` (`n² × n`) built entry by entry, `Q = [H; G]` from
/// the incidence matrices, `Ã(t) = (QΦ)⁺[ingress(t); egress(t)]` through
/// the SVD pseudo-inverse with negative activities clamped to zero, and
/// the prior `Φ·Ã(t)`.
fn svd_stable_fp_prior(f: f64, preference: &[f64], obs: &Observations) -> TmSeries {
    let n = preference.len();
    let mass: f64 = preference.iter().sum();
    let p: Vec<f64> = preference.iter().map(|&v| v / mass).collect();
    let mut phi = Matrix::zeros(n * n, n);
    for i in 0..n {
        for j in 0..n {
            phi[(i * n + j, i)] += f * p[j];
            phi[(i * n + j, j)] += (1.0 - f) * p[i];
        }
    }
    let q = ingress_incidence(n).vstack(&egress_incidence(n)).unwrap();
    let pinv = pseudo_inverse(&q.matmul(&phi).unwrap(), None).unwrap();
    let mut out = TmSeries::zeros(n, obs.bins(), obs.bin_seconds).unwrap();
    for t in 0..obs.bins() {
        let mut counts = obs.ingress_at(t);
        counts.extend(obs.egress_at(t));
        let mut a = pinv.matvec(&counts).unwrap();
        for v in &mut a {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        let x = phi.matvec(&a).unwrap();
        for i in 0..n {
            for j in 0..n {
                out.set(i, j, t, x[i * n + j]).unwrap();
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `ipf_fit_with`, the width-1 case of the interleaved kernel, is
    /// bit-identical to the per-bin oracle: zero rows, columns and
    /// targets, idle problems, mismatched totals, and 1 to 5 sweeps or the
    /// default budget, through one workspace reused across shapes.
    #[test]
    fn ipf_fit_with_matches_per_bin_oracle(
        n in 1usize..13,
        m in 1usize..13,
        sweeps in 1usize..7,
        seed in any::<u64>(),
    ) {
        let options = if sweeps == 6 {
            IpfOptions::default()
        } else {
            IpfOptions::default().with_max_iterations(sweeps)
        };
        let mut ws = IpfWorkspace::new();
        for (k, (r, c)) in [(n, m), (m, n), (n, m)].into_iter().enumerate() {
            let (x, rows, cols) = ipf_problem(r, c, seed.wrapping_add(k as u64));
            let want = oracle_ipf(&x, &rows, &cols, options).unwrap();
            ipf_fit_with(&x, &rows, &cols, options, &mut ws).unwrap();
            prop_assert_eq!(bits(ws.fitted()), bits(&want));
        }
    }

    /// The gravity prior writes the series layout directly, bit-identical
    /// to the per-bin `gravity_from_marginals` loop, zero marginals
    /// included. One case in two zeroes a bin; the others mostly have
    /// every bin busy, which takes the fill's loop without the idle test.
    #[test]
    fn gravity_prior_matches_per_bin_gravity(
        n in 1usize..13,
        bins in 1usize..10,
        seed in any::<u64>(),
    ) {
        let idle = if seed % 2 == 0 { (seed / 2 % bins as u64) as usize } else { bins };
        let mut ingress = Matrix::zeros(n, bins);
        let mut egress = Matrix::zeros(n, bins);
        for i in 0..n {
            for t in (0..bins).filter(|&t| t != idle) {
                let k = 2 * (i * bins + t) as u64;
                for (marginal, k) in [(&mut ingress, k), (&mut egress, k + 1)] {
                    if unit(seed, k) >= 0.2 {
                        marginal[(i, t)] = 1e3 * unit(seed, k + 1000);
                    }
                }
            }
        }
        let obs = Observations { y: Matrix::zeros(0, bins), ingress, egress, bin_seconds: 300.0 };
        let prior = GravityPrior.prior_series(&obs).unwrap();
        for t in 0..bins {
            let want = gravity_from_marginals(&obs.ingress_at(t), &obs.egress_at(t)).unwrap();
            prop_assert_eq!(bits(&prior.snapshot(t).unwrap()), bits(&want));
        }
    }

    /// The closed-form `StableFpPrior` agrees with the SVD oracle to 1e-12
    /// of the largest prior entry: `f` at 0, 1/2, 1 and inside (0, 1),
    /// preferences with zero entries, and marginals that are IC counts
    /// with ±50% noise and dropped entries, so the least squares leaves a
    /// residual and some activities clamp.
    #[test]
    fn stable_fp_prior_matches_svd_oracle(
        n in 1usize..41,
        bins in 1usize..4,
        f_pick in 0usize..4,
        seed in any::<u64>(),
    ) {
        let f = [0.0, 0.5, 1.0, unit(seed, 0)][f_pick];
        let mut preference: Vec<f64> = (0..n)
            .map(|i| if unit(seed, 1 + i as u64) < 0.2 { 0.0 } else { unit(seed, 100 + i as u64) })
            .collect();
        preference[(seed % n as u64) as usize] += 0.1;
        let mass: f64 = preference.iter().sum();
        let mut ingress = Matrix::zeros(n, bins);
        let mut egress = Matrix::zeros(n, bins);
        for t in 0..bins {
            let a: Vec<f64> = (0..n).map(|i| 1e3 * unit(seed, (200 + i * bins + t) as u64)).collect();
            let total: f64 = a.iter().sum();
            for i in 0..n {
                let p = preference[i] / mass;
                let k = 4 * (i * bins + t) as u64 + 10_000;
                let noisy = |exact: f64, k: u64| {
                    if unit(seed, k) < 0.1 { 0.0 } else { exact * (0.5 + unit(seed, k + 1)) }
                };
                ingress[(i, t)] = noisy(f * a[i] + (1.0 - f) * p * total, k);
                egress[(i, t)] = noisy(f * p * total + (1.0 - f) * a[i], k + 2);
            }
        }
        let obs = Observations { y: Matrix::zeros(0, bins), ingress, egress, bin_seconds: 300.0 };
        let prior = StableFpPrior { f, preference: preference.clone() }.prior_series(&obs).unwrap();
        let want = svd_stable_fp_prior(f, &preference, &obs);
        let (got, want) = (prior.as_matrix().as_slice(), want.as_matrix().as_slice());
        let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let worst = got.iter().zip(want).fold(0.0f64, |m, (g, w)| m.max((g - w).abs()));
        prop_assert!(worst <= 1e-12 * scale, "n {} f {}: {:e} of {:e}", n, f, worst, scale);
    }
}

/// A 15-node hierarchical network in its 3 clusters of 5 nodes, with
/// its observation model.
fn clustered_network() -> (ic_topology::Topology, Partition, ObservationModel) {
    let cfg = HierarchicalConfig::new(3, 4, 7);
    let topo = hierarchical(&cfg).unwrap();
    let partition = Partition::from_assignment(&topo, &cfg.cluster_assignment()).unwrap();
    let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
    (topo, partition, om)
}

/// A `bins`-bin window drawn from `seed`: positive traffic observed
/// through `om`, then zero marginals (one node's ingress, and the egress
/// of every member of one cluster, so its shares fall back to uniform) and,
/// when `idle` is set, one bin with every count zero.
fn multilevel_window(
    om: &ObservationModel,
    partition: &Partition,
    bins: usize,
    seed: u64,
    idle: bool,
) -> Observations {
    let n = om.nodes();
    let mut tm = TmSeries::zeros(n, bins, 300.0).unwrap();
    for t in 0..bins {
        for i in 0..n {
            for j in (0..n).filter(|&j| j != i) {
                let v = 1e3 * (0.1 + unit(seed, ((i * n + j) * bins + t) as u64));
                tm.set(i, j, t, v).unwrap();
            }
        }
    }
    let mut obs = om.observe(&tm).unwrap();
    let t = (seed % bins as u64) as usize;
    obs.ingress[((seed >> 8) as usize % n, t)] = 0.0;
    let cluster = (seed >> 16) as usize % partition.cluster_count();
    for &i in partition.members(cluster) {
        obs.egress[(i, (t + 1) % bins)] = 0.0;
    }
    if idle {
        let t = (t + 2) % bins;
        for l in 0..obs.y.rows() {
            obs.y[(l, t)] = 0.0;
        }
        for i in 0..n {
            obs.ingress[(i, t)] = 0.0;
            obs.egress[(i, t)] = 0.0;
        }
    }
    obs
}

/// Every value of a multilevel estimate: coarse matrix, cluster blocks
/// and shares.
fn multilevel_bits(est: &MultilevelEstimate) -> Vec<u64> {
    let mut values = bits(est.coarse.as_matrix());
    for block in &est.clusters {
        values.extend(bits(block.as_matrix()));
    }
    values.extend(bits(&est.out_share));
    values.extend(bits(&est.in_share));
    values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Estimating window A, dropping it, then estimating window B on the
    /// same pipeline gives a fresh pipeline's estimate of B bit for bit,
    /// and so does estimating B again after dropping the first B. The
    /// gravity prior refills the handed-back blocks in place, the
    /// stable-f prior through the default `prior_series_into`; serial and
    /// on two threads; windows of 1 to 5 bins (so A's blocks may be of
    /// another shape), with zero marginals and an idle bin.
    #[test]
    fn multilevel_reuse_matches_a_fresh_pipeline(
        bins_a in 1usize..6,
        bins_b in 1usize..6,
        idle in 0usize..4,
        seed in any::<u64>(),
    ) {
        let (topo, partition, om) = clustered_network();
        let a = multilevel_window(&om, &partition, bins_a, seed, idle & 1 == 1);
        let b = multilevel_window(&om, &partition, bins_b, seed ^ 0x5EED, idle & 2 == 2);
        let pipeline = || {
            MultilevelPipeline::new(&topo, RoutingScheme::Ecmp, partition.clone(), EstimationConfig::new())
                .unwrap()
        };
        let priors: [&dyn TmPrior; 2] = [&GravityPrior, &StableFPrior { f: 0.3 }];
        for prior in priors {
            for engine in [Engine::serial(), Engine::new().with_threads(2)] {
                let want = multilevel_bits(&pipeline().estimate_parallel(prior, &b, &engine).unwrap());
                let reused = pipeline();
                drop(reused.estimate_parallel(prior, &a, &engine).unwrap());
                for pass in 0..2 {
                    let got = reused.estimate_parallel(prior, &b, &engine).unwrap();
                    prop_assert_eq!(
                        multilevel_bits(&got),
                        want.clone(),
                        "{} on {} threads, pass {}",
                        prior.name(),
                        engine.threads(),
                        pass
                    );
                }
            }
        }
    }
}
