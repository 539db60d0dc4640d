//! The per-layer probe every traced run makes on its workload's main
//! observation operator: the 300-node network of `flat-300`, the first
//! 50-node tenant of `serve-mixed`, the largest cluster of `multilevel-5k`.
//!
//! Each pipeline stage is timed by calling its public function directly
//! (inside a span), so the per-layer figures of all three workloads mean
//! the same thing and can be compared across them.

use crate::report::Outcome;
use crate::sysinfo::Triad;
use crate::trace::Tracer;
use ic_core::TmSeries;
use ic_estimation::{
    ipf_fit_with, EstimationConfig, IpfWorkspace, ObservationModel, SolveStats, TmPrior,
    Tomogravity, TomogravityWorkspace,
};
use ic_linalg::{Matrix, SparseMatrix};
use ic_topology::{RoutingScheme, Topology};

/// Repetitions of the SpMV pair; the median is reported.
const SPMV_REPS: usize = 21;

/// Times the observation model build and the pipeline's stages — observe,
/// prior, refine, IPF — per bin of `truth` on `topo`, plus the operator's
/// SpMV pair against the triad bandwidth. Returns the solver counters of
/// the refine calls.
pub fn probe_operator(
    tracer: &mut Tracer,
    topo: &Topology,
    scheme: RoutingScheme,
    truth: &TmSeries,
    prior: &dyn TmPrior,
    triad: &Triad,
    out: &mut Outcome,
) -> Result<SolveStats, String> {
    let model = tracer
        .span("estimation.model_build", |_| {
            ObservationModel::new(topo, scheme)
        })
        .map_err(|e| format!("observation model: {e}"))?;
    let bins = truth.bins();
    let obs = tracer
        .span("estimation.observe", |_| model.observe(truth))
        .map_err(|e| format!("observe: {e}"))?;
    let prior_series = tracer
        .span("estimation.prior", |_| prior.prior_series(&obs))
        .map_err(|e| format!("prior: {e}"))?;
    let config = EstimationConfig::new();
    let tomo = Tomogravity::new(config.tomogravity);
    let n = model.nodes();
    let mut tws = TomogravityWorkspace::new();
    let mut iws = IpfWorkspace::new();
    let mut snapshot = Matrix::zeros(n, n);
    for t in 0..bins {
        tracer.set_run(t as u64);
        let x_prior = prior_series.column(t);
        let b = obs.stacked_at(t);
        tracer
            .span("estimation.refine", |_| {
                tomo.refine_bin_sparse_with(
                    model.stacked_sparse(),
                    model.stacked_transpose(),
                    &x_prior,
                    &b,
                    &mut tws,
                )
            })
            .map_err(|e| format!("refine: {e}"))?;
        for i in 0..n {
            for j in 0..n {
                snapshot[(i, j)] = tws.solution()[i * n + j];
            }
        }
        let (ingress, egress) = (obs.ingress_at(t), obs.egress_at(t));
        tracer
            .span("estimation.ipf", |_| {
                ipf_fit_with(&snapshot, &ingress, &egress, config.ipf, &mut iws)
            })
            .map_err(|e| format!("ipf: {e}"))?;
        if iws.fitted().as_slice().iter().any(|v| !v.is_finite()) {
            return Err("probe estimate has non-finite entries".into());
        }
    }
    let stats = tws.solve_stats();
    let per_bin = |name: &str| tracer.durations(name).sum() / bins as f64;
    out.layer(
        "estimation.model_build_s",
        tracer.durations("estimation.model_build").sum(),
        "s",
    );
    out.layer(
        "estimation.observe_s_per_bin",
        per_bin("estimation.observe"),
        "s",
    );
    out.layer(
        "estimation.prior_s_per_bin",
        per_bin("estimation.prior"),
        "s",
    );
    let refine_per_bin = per_bin("estimation.refine");
    out.layer("estimation.refine_s_per_bin", refine_per_bin, "s");
    out.layer("estimation.ipf_s_per_bin", per_bin("estimation.ipf"), "s");
    if stats.pcg_iterations > 0 {
        out.only(
            "linalg.pcg_s_per_iteration",
            refine_per_bin * bins as f64 / stats.pcg_iterations as f64,
            "s",
        );
    }
    spmv(
        tracer,
        model.stacked_sparse(),
        model.stacked_transpose(),
        triad,
        out,
    );
    Ok(stats)
}

/// One PCG iteration's operator work: `Aᵀv` on the stored transpose, then
/// `A·u`, each a gather-form CSR `matvec_into`.
fn spmv(
    tracer: &mut Tracer,
    a: &SparseMatrix,
    at: &SparseMatrix,
    triad: &Triad,
    out: &mut Outcome,
) {
    let (rows, cols) = a.shape();
    let v = vec![1.0; rows];
    let mut u = vec![0.0; cols];
    let mut y = vec![0.0; rows];
    for rep in 0..SPMV_REPS {
        tracer.set_run(rep as u64);
        tracer.span("linalg.spmv", |_| {
            at.matvec_into(std::hint::black_box(&v), &mut u)
                .expect("shapes match");
            a.matvec_into(&u, &mut y).expect("shapes match");
        });
        std::hint::black_box(&y);
    }
    let secs = tracer.durations("linalg.spmv").median();
    let (flops, bytes) = spmv_cost(a.nnz(), rows, cols);
    out.layer("linalg.spmv_s", secs, "s");
    out.layer("linalg.spmv_flops", flops, "flop");
    out.layer("linalg.spmv_bytes_computed", bytes, "B");
    out.layer("linalg.spmv_flops_per_byte", flops / bytes, "flop/B");
    out.layer("linalg.triad_gbytes_per_s", triad.gbytes_per_s, "GB/s");
    out.layer(
        "linalg.spmv_bandwidth_fraction",
        bytes / secs / 1e9 / triad.gbytes_per_s,
        "1",
    );
    out.note(format!(
        "linalg: operator {rows}x{cols}, nnz {}; spmv pair {flops} flop, {bytes} B computed \
         (not measured): CSR values and 8-byte column indices once, row pointers, one \
         read of the input and one write of the output per product",
        a.nnz()
    ));
    out.note(format!(
        "linalg: triad {:.3} GB/s, one thread, arrays of {} B each (last-level cache {} B)",
        triad.gbytes_per_s, triad.array_bytes, triad.llc_bytes
    ));
}

/// Computed flops and bytes of the SpMV pair on an operator with `nnz`
/// stored entries and shape `rows x cols` (both products touch every
/// entry once; `Aᵀv` reads `rows` and writes `cols`, `A·u` the reverse).
pub fn spmv_cost(nnz: usize, rows: usize, cols: usize) -> (f64, f64) {
    let per_product = |out_len: usize, in_len: usize| {
        // value + column index per entry, row pointers, input, output
        16 * nnz + 8 * (out_len + 1) + 8 * in_len + 8 * out_len
    };
    let flops = 2 * 2 * nnz;
    let bytes = per_product(cols, rows) + per_product(rows, cols);
    (flops as f64, bytes as f64)
}

/// Adds the linalg counters of `stats` as per-layer metrics.
pub fn solver_counts(stats: &SolveStats, out: &mut Outcome) {
    out.layer("linalg.dense_solves", stats.dense_solves as f64, "count");
    out.layer("linalg.pcg_solves", stats.pcg_solves as f64, "count");
    out.layer("linalg.pcg_stalls", stats.pcg_stalls as f64, "count");
    out.layer("linalg.fallbacks", stats.fallbacks as f64, "count");
    let per_solve = if stats.pcg_solves == 0 {
        0.0
    } else {
        stats.pcg_iterations as f64 / stats.pcg_solves as f64
    };
    out.layer("linalg.pcg_iterations_per_solve", per_solve, "count");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmv_cost_counts_both_products() {
        // 2x3 operator with 4 entries.
        let (flops, bytes) = spmv_cost(4, 2, 3);
        assert_eq!(flops, 16.0);
        // Aᵀv: 64 + 8·4 + 16 + 24 = 136; A·u: 64 + 8·3 + 24 + 16 = 128.
        assert_eq!(bytes, 264.0);
    }
}
