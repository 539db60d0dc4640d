//! The measurement side of TM estimation.
//!
//! "In networking environments today, Y and R are readily available; the
//! link counts Y can be obtained through standard SNMP measurements and the
//! routing matrix R can be obtained by computing shortest paths using IGP
//! link weights" (paper Section 6). [`ObservationModel`] packages `R`
//! together with the ingress/egress incidence operators `H` and `G` of
//! Section 6.2; [`Observations`] carries the per-bin measurements derived
//! from a (ground-truth or measured) traffic-matrix series.

use crate::{EstimationError, Result};
use ic_core::TmSeries;
use ic_linalg::{Matrix, SparseMatrix};
use ic_topology::{
    egress_incidence_sparse, ingress_incidence_sparse, RoutingMatrix, RoutingScheme, Topology,
};

/// The static observation operators of a network.
///
/// All operators are held **sparse** (the representation the estimation
/// hot path consumes): the stacked `[R; H; G]` and its transpose are
/// precomputed once here so per-bin tomogravity solves touch only `nnz`
/// entries. `R` is not kept apart: it is the stack's first `links` rows.
#[derive(Debug, Clone)]
pub struct ObservationModel {
    stacked_sparse: SparseMatrix,
    stacked_t: SparseMatrix,
    nodes: usize,
    links: usize,
}

impl ObservationModel {
    /// Builds the observation model for a topology under a routing scheme.
    pub fn new(topo: &Topology, scheme: RoutingScheme) -> Result<Self> {
        let routing = RoutingMatrix::build(topo, scheme)?;
        let n = topo.node_count();
        let stacked_sparse = routing
            .as_sparse()
            .vstack(&ingress_incidence_sparse(n))
            .and_then(|rh| rh.vstack(&egress_incidence_sparse(n)))
            .map_err(EstimationError::from)?;
        let stacked_t = stacked_sparse.transpose();
        Ok(ObservationModel {
            stacked_sparse,
            stacked_t,
            nodes: n,
            links: routing.link_count(),
        })
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of backbone links.
    pub fn links(&self) -> usize {
        self.links
    }

    /// The stacked observation operator `[R; H; G]` used by the
    /// least-squares refinement: the routing matrix over the ingress and
    /// egress incidence operators of Section 6.2.
    pub fn stacked_sparse(&self) -> &SparseMatrix {
        &self.stacked_sparse
    }

    /// The precomputed transpose of the stacked operator (amortizes the
    /// per-bin `A W Aᵀ` assembly).
    pub fn stacked_transpose(&self) -> &SparseMatrix {
        &self.stacked_t
    }

    /// Derives per-bin observations from a series (the experiment's stand-in
    /// for SNMP collection).
    pub fn observe(&self, tm: &TmSeries) -> Result<Observations> {
        if tm.nodes() != self.nodes {
            return Err(EstimationError::DimensionMismatch {
                context: "observe",
                expected: self.nodes,
                actual: tm.nodes(),
            });
        }
        let bins = tm.bins();
        let mut y = Matrix::zeros(self.links, bins);
        let mut ingress = Matrix::zeros(self.nodes, bins);
        let mut egress = Matrix::zeros(self.nodes, bins);
        let mut x = vec![0.0; self.nodes * self.nodes];
        for t in 0..bins {
            for (row, slot) in x.iter_mut().enumerate() {
                *slot = tm.as_matrix()[(row, t)];
            }
            // `Y = R x` over the stack's routing rows, accumulated in row
            // order as `SparseMatrix::matvec_into` does.
            for l in 0..self.links {
                let (cols, vals) = self.stacked_sparse.row(l);
                let mut sum = 0.0;
                for (&c, &a) in cols.iter().zip(vals) {
                    sum += a * x[c];
                }
                y[(l, t)] = sum;
            }
            for (i, &v) in tm.ingress(t).iter().enumerate() {
                ingress[(i, t)] = v;
            }
            for (j, &v) in tm.egress(t).iter().enumerate() {
                egress[(j, t)] = v;
            }
        }
        Ok(Observations {
            y,
            ingress,
            egress,
            bin_seconds: tm.bin_seconds(),
        })
    }
}

/// Per-bin measurements: backbone link counts and node marginals.
#[derive(Debug, Clone, PartialEq)]
pub struct Observations {
    /// Link counts, `links x bins`.
    pub y: Matrix,
    /// Ingress counts `X_{i*}`, `nodes x bins`.
    pub ingress: Matrix,
    /// Egress counts `X_{*j}`, `nodes x bins`.
    pub egress: Matrix,
    /// Seconds per bin.
    pub bin_seconds: f64,
}

impl Observations {
    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.y.cols()
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.ingress.rows()
    }

    /// Checks the marginals' shape: `ingress` and `egress` must both be
    /// `nodes × bins`, with `bins = y.cols()`. Kernels read the marginals
    /// as flat `nodes × bins` slices, so a mis-shaped `Observations` must
    /// stop here rather than be read with the wrong stride.
    pub(crate) fn check_shape(&self) -> Result<()> {
        let (n, bins) = (self.nodes(), self.bins());
        for marginal in [&self.ingress, &self.egress] {
            if marginal.rows() != n {
                return Err(EstimationError::DimensionMismatch {
                    context: "observation marginal nodes",
                    expected: n,
                    actual: marginal.rows(),
                });
            }
            if marginal.cols() != bins {
                return Err(EstimationError::DimensionMismatch {
                    context: "observation marginal bins",
                    expected: bins,
                    actual: marginal.cols(),
                });
            }
        }
        Ok(())
    }

    /// [`Self::check_shape`], then one scan of the values: a negative,
    /// infinite or NaN count would reach every entry of a prior built from
    /// it, so every prior that reads the marginals stops here.
    pub(crate) fn check_marginals(&self) -> Result<()> {
        self.check_shape()?;
        let mut values = self.ingress.as_slice().iter().chain(self.egress.as_slice());
        if values.any(|&v| v < 0.0 || !v.is_finite()) {
            return Err(EstimationError::BadData(
                "observation marginals must be finite and non-negative",
            ));
        }
        Ok(())
    }

    /// Ingress counts at one bin.
    pub fn ingress_at(&self, bin: usize) -> Vec<f64> {
        self.ingress.col(bin)
    }

    /// Egress counts at one bin.
    pub fn egress_at(&self, bin: usize) -> Vec<f64> {
        self.egress.col(bin)
    }

    /// Link counts at one bin.
    pub fn y_at(&self, bin: usize) -> Vec<f64> {
        self.y.col(bin)
    }

    /// The stacked observation vector `[Y; ingress; egress]` at one bin.
    pub fn stacked_at(&self, bin: usize) -> Vec<f64> {
        let mut v = self.y.col(bin);
        v.extend(self.ingress.col(bin));
        v.extend(self.egress.col(bin));
        v
    }

    /// Length of the stacked observation vector (`links + 2n`).
    pub fn stacked_len(&self) -> usize {
        self.y.rows() + 2 * self.nodes()
    }

    /// Fills `out` with the stacked observation vector at one bin
    /// (allocation-free counterpart of [`Observations::stacked_at`]).
    pub fn stacked_at_into(&self, bin: usize, out: &mut [f64]) -> Result<()> {
        if out.len() != self.stacked_len() {
            return Err(EstimationError::DimensionMismatch {
                context: "stacked_at_into",
                expected: self.stacked_len(),
                actual: out.len(),
            });
        }
        let links = self.y.rows();
        let n = self.nodes();
        for l in 0..links {
            out[l] = self.y[(l, bin)];
        }
        for i in 0..n {
            out[links + i] = self.ingress[(i, bin)];
            out[links + n + i] = self.egress[(i, bin)];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_topology::geant22;

    fn tiny_tm(n: usize, bins: usize) -> TmSeries {
        let mut tm = TmSeries::zeros(n, bins, 300.0).unwrap();
        for t in 0..bins {
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        tm.set(i, j, t, (10 * (i + 1) + j + t) as f64).unwrap();
                    }
                }
            }
        }
        tm
    }

    #[test]
    fn observation_shapes() {
        let topo = geant22();
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        assert_eq!(om.nodes(), 22);
        assert_eq!(om.links(), topo.link_count());
        let tm = tiny_tm(22, 3);
        let obs = om.observe(&tm).unwrap();
        assert_eq!(obs.bins(), 3);
        assert_eq!(obs.nodes(), 22);
        assert_eq!(obs.y.rows(), topo.link_count());
        assert_eq!(obs.stacked_at(0).len(), topo.link_count() + 44);
    }

    #[test]
    fn marginal_observations_match_series() {
        let topo = geant22();
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let tm = tiny_tm(22, 2);
        let obs = om.observe(&tm).unwrap();
        assert_eq!(obs.ingress_at(1), tm.ingress(1));
        assert_eq!(obs.egress_at(0), tm.egress(0));
    }

    #[test]
    fn stacked_operator_consistent_with_observations() {
        let topo = geant22();
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let tm = tiny_tm(22, 1);
        let obs = om.observe(&tm).unwrap();
        let a = om.stacked_sparse().to_dense();
        let x = tm.column(0);
        let ax = a.matvec(&x).unwrap();
        let want = obs.stacked_at(0);
        for (got, want) in ax.iter().zip(want.iter()) {
            assert!((got - want).abs() < 1e-9);
        }
        // The stack's link rows give `Y = R x` bit for bit.
        let routing = RoutingMatrix::build(&topo, RoutingScheme::Ecmp).unwrap();
        assert_eq!(obs.y_at(0), routing.link_counts(&x).unwrap());
    }

    #[test]
    fn node_count_mismatch_rejected() {
        let topo = geant22();
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let tm = tiny_tm(5, 1);
        assert!(om.observe(&tm).is_err());
    }

    #[test]
    fn link_counts_conserve_traffic() {
        // Total bytes on access links (= total TM) is invariant; backbone
        // counts reflect multi-hop paths.
        let topo = geant22();
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let tm = tiny_tm(22, 1);
        let obs = om.observe(&tm).unwrap();
        let ingress_total: f64 = obs.ingress_at(0).iter().sum();
        assert!((ingress_total - tm.total(0)).abs() < 1e-9);
        let y_total: f64 = obs.y_at(0).iter().sum();
        assert!(y_total >= tm.total(0) * 0.5, "backbone carries traffic");
    }
}
