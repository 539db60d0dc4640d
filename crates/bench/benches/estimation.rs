#![allow(missing_docs)]
//! Criterion benches for the estimation pipeline: prior construction, the
//! per-bin tomogravity refinement, the full pipeline and IPF on the Géant
//! topology, a cluster-sized IPF, and one multilevel estimate call on a
//! 500-node hierarchical network. These benches track the PoP-scale
//! kernels; end-to-end and per-layer numbers at scale come from
//! `perfbench` (`python3 perfbench/run.py --workload <name>`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ic_core::{generate_synthetic, SynthConfig};
use ic_estimation::{
    ipf_fit, ipf_fit_with, EstimationConfig, EstimationPipeline, GravityPrior, IpfOptions,
    IpfWorkspace, MultilevelPipeline, ObservationModel, StableFPrior, StableFpPrior, TmPrior,
    Tomogravity, TomogravityOptions, TomogravityWorkspace,
};
use ic_linalg::Matrix;
use ic_topology::{geant22, hierarchical, HierarchicalConfig, Partition, RoutingScheme};

fn setup() -> (ObservationModel, ic_core::TmSeries) {
    let om = ObservationModel::new(&geant22(), RoutingScheme::Ecmp).unwrap();
    let mut cfg = SynthConfig::geant_like(77);
    cfg.bins = 12;
    let tm = generate_synthetic(&cfg).unwrap().series;
    (om, tm)
}

fn bench_observation(c: &mut Criterion) {
    let (om, tm) = setup();
    c.bench_function("observe_geant_12bins", |b| {
        b.iter(|| black_box(om.observe(&tm).unwrap()))
    });
    c.bench_function("routing_matrix_build_geant_ecmp", |b| {
        b.iter(|| {
            black_box(ic_topology::RoutingMatrix::build(&geant22(), RoutingScheme::Ecmp).unwrap())
        })
    });
}

fn bench_priors(c: &mut Criterion) {
    let (om, tm) = setup();
    let obs = om.observe(&tm).unwrap();
    c.bench_function("gravity_prior_12bins", |b| {
        b.iter(|| black_box(GravityPrior.prior_series(&obs).unwrap()))
    });
    let p: Vec<f64> = (1..=22).map(|k| 1.0 / k as f64).collect();
    let fp = StableFpPrior {
        f: 0.25,
        preference: p,
    };
    c.bench_function("stable_fp_prior_12bins", |b| {
        b.iter(|| black_box(fp.prior_series(&obs).unwrap()))
    });
    let f_only = StableFPrior { f: 0.25 };
    c.bench_function("stable_f_prior_12bins", |b| {
        b.iter(|| black_box(f_only.prior_series(&obs).unwrap()))
    });
}

fn bench_refinement(c: &mut Criterion) {
    let (om, tm) = setup();
    let obs = om.observe(&tm).unwrap();
    let prior = GravityPrior.prior_series(&obs).unwrap();
    let tomo = Tomogravity::new(TomogravityOptions::default());
    let xp = prior.column(0);
    let bvec = obs.stacked_at(0);
    let a = om.stacked_sparse();
    let at = om.stacked_transpose();
    let mut ws = TomogravityWorkspace::new();
    c.bench_function("tomogravity_bin_sparse_geant", |b| {
        b.iter(|| {
            tomo.refine_bin_sparse_with(a, at, &xp, &bvec, &mut ws)
                .unwrap();
            black_box(ws.solution()[0])
        })
    });
    let pipeline = EstimationPipeline::new(om);
    c.bench_function("full_pipeline_geant_12bins", |b| {
        b.iter(|| black_box(pipeline.estimate(&GravityPrior, &obs).unwrap()))
    });
}

fn bench_ipf(c: &mut Criterion) {
    let (_, tm) = setup();
    let snap = tm.snapshot(0).unwrap();
    let rows = tm.ingress(0);
    let cols = tm.egress(0);
    c.bench_function("ipf_22x22", |b| {
        b.iter(|| black_box(ipf_fit(&snap, &rows, &cols, IpfOptions::default()).unwrap()))
    });
    let mut ws = IpfWorkspace::new();
    c.bench_function("ipf_22x22_workspace", |b| {
        b.iter(|| {
            ipf_fit_with(&snap, &rows, &cols, IpfOptions::default(), &mut ws).unwrap();
            black_box(ws.fitted()[(0, 0)])
        })
    });
    // A multilevel cluster's size: a structured (not rank-one) seed, so
    // the fit takes several sweeps.
    let n = 150;
    let mut seed = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            seed[(i, j)] = 1.0 + ((i * 31 + j * 17) % 13) as f64;
        }
    }
    let rows: Vec<f64> = (0..n).map(|i| 1e3 * (1 + i % 7) as f64).collect();
    let cols: Vec<f64> = (0..n).map(|j| 1e3 * (1 + (3 * j) % 11) as f64).collect();
    c.bench_function("ipf_150x150_workspace", |b| {
        b.iter(|| {
            ipf_fit_with(&seed, &rows, &cols, IpfOptions::default(), &mut ws).unwrap();
            black_box(ws.fitted()[(0, 0)])
        })
    });
}

fn bench_multilevel(c: &mut Criterion) {
    // 500 nodes in 50 backbone clusters; cluster-local traffic.
    let cfg = HierarchicalConfig::new(50, 9, 20060419);
    let topo = hierarchical(&cfg).unwrap();
    let assignment = cfg.cluster_assignment();
    let partition = Partition::from_assignment(&topo, &assignment).unwrap();
    let n = topo.node_count();
    let bins = 8;
    let mut tm = ic_core::TmSeries::zeros(n, bins, 300.0).unwrap();
    for t in 0..bins {
        for i in 0..n {
            for j in (0..n).filter(|&j| j != i) {
                let base = 1e6 / (1 + (i + 2 * j + t) % 7) as f64;
                let local = if assignment[i] == assignment[j] {
                    1.0
                } else {
                    0.12
                };
                tm.set(i, j, t, local * base).unwrap();
            }
        }
    }
    let obs = ObservationModel::new(&topo, RoutingScheme::SinglePath)
        .unwrap()
        .observe(&tm)
        .unwrap();
    let ml = MultilevelPipeline::new(
        &topo,
        RoutingScheme::SinglePath,
        partition,
        EstimationConfig::new(),
    )
    .unwrap();
    c.bench_function("multilevel_estimate_hier500_8bins", |b| {
        b.iter(|| black_box(ml.estimate(&GravityPrior, &obs).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_observation,
    bench_priors,
    bench_refinement,
    bench_ipf,
    bench_multilevel
);
criterion_main!(benches);
