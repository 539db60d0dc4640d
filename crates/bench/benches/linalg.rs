#![allow(missing_docs)]
//! Criterion benches for the dense linear-algebra kernels at the sizes the
//! traffic-matrix pipelines actually use (n = 22 nodes, n² = 484 OD pairs,
//! ~110 observation rows).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ic_linalg::nnls::nnls_from_normal_equations;
use ic_linalg::{pseudo_inverse, Cholesky, Matrix, Svd};

fn deterministic_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z = z ^ (z >> 31);
        (z as f64 / u64::MAX as f64) * 2.0 - 1.0
    };
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect()).unwrap()
}

fn spd(n: usize, seed: u64) -> Matrix {
    let b = deterministic_matrix(n + 4, n, seed);
    let mut g = b.gram();
    for i in 0..n {
        g[(i, i)] += n as f64;
    }
    g
}

fn bench_matmul(c: &mut Criterion) {
    let a = deterministic_matrix(110, 484, 1);
    let b = deterministic_matrix(484, 110, 2);
    c.bench_function("matmul_110x484_484x110", |bench| {
        bench.iter(|| black_box(a.matmul(&b).unwrap()))
    });
}

fn bench_cholesky(c: &mut Criterion) {
    let a = spd(110, 4);
    c.bench_function("cholesky_factor_110", |bench| {
        bench.iter(|| black_box(Cholesky::factor(&a).unwrap()))
    });
    let chol = Cholesky::factor(&a).unwrap();
    let rhs = vec![1.0; 110];
    c.bench_function("cholesky_solve_110", |bench| {
        bench.iter(|| black_box(chol.solve(&rhs).unwrap()))
    });
    // 224 = the stacked rows of a 50-node tenant's tomogravity solve.
    let a = spd(224, 4);
    c.bench_function("cholesky_factor_224", |bench| {
        bench.iter(|| black_box(Cholesky::factor(&a).unwrap()))
    });
}

fn bench_svd_pinv(c: &mut Criterion) {
    // The normal solver's dense fallback pseudo-inverts a normal matrix the
    // ridged Cholesky cannot factor; this 44x22 operator keeps the size
    // earlier runs measured.
    let a = deterministic_matrix(44, 22, 5);
    c.bench_function("svd_44x22", |bench| {
        bench.iter(|| black_box(Svd::factor(&a).unwrap()))
    });
    c.bench_function("pinv_44x22", |bench| {
        bench.iter(|| black_box(pseudo_inverse(&a, None).unwrap()))
    });
}

fn bench_nnls_normal_equations(c: &mut Criterion) {
    // The stable-fP preference solve at 50 nodes over a 6-bin window: the
    // Gram sums each bin's rank-one `c2·a aᵀ` and its `c1·s2` diagonal.
    let (n, f) = (50, 0.25);
    let (c1, c2) = (f * f + (1.0 - f) * (1.0 - f), 2.0 * f * (1.0 - f));
    let mut g = Matrix::zeros(n, n);
    for t in 0..6 {
        let a = deterministic_matrix(n, 1, 7 + t).map(|v| 1.0 + v.abs());
        let a = a.as_slice();
        let s2: f64 = a.iter().map(|v| v * v).sum();
        for k in 0..n {
            for l in 0..n {
                g[(k, l)] += c2 * a[k] * a[l];
            }
            g[(k, k)] += c1 * s2;
        }
    }
    // Moments of a uniform preference: no constraint binds.
    let h = g.matvec(&vec![1.0 / n as f64; n]).unwrap();
    c.bench_function("nnls_normal_equations_50", |bench| {
        bench.iter(|| black_box(nnls_from_normal_equations(&g, &h).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_matmul,
    bench_cholesky,
    bench_svd_pinv,
    bench_nnls_normal_equations
);
criterion_main!(benches);
