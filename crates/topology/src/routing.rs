//! Shortest-path routing and the routing matrix `R`.
//!
//! Reproduces the measurement side of the TM estimation problem: "the
//! routing matrix R can be obtained by computing shortest paths using IGP
//! link weights together with the network topology information" (paper
//! Section 6). Two schemes are provided:
//!
//! * [`RoutingScheme::SinglePath`] — destination-based forwarding with a
//!   deterministic tie-break (lowest link id), matching a router FIB with
//!   one next-hop per destination; `R` is 0/1.
//! * [`RoutingScheme::Ecmp`] — exact equal-cost multi-path splitting by
//!   shortest-path counting; `R` has fractional entries, which the paper
//!   notes arise "if traffic splitting is supported".
//!
//! # Cost
//!
//! Both schemes run Dijkstra over per-node adjacency lists kept in link-id
//! order, so relaxations, distances and path counts follow the link order
//! exactly. Single-path routing picks each node's next hop toward a
//! destination once and follows the chain from every source. ECMP tests,
//! for each OD pair `(s, t)`, only the links into the nodes reached by
//! walking back from `t` along links that pass the shortest-path test
//! `|d(s, u) + w(u, v) + d(v, t) − d(s, t)| < 1e-9`: the links into the
//! pair's shortest-path DAG, not every link of the network. A link that
//! passes the test is an entry with the fraction
//! `count_s[u]·count_to_t[v]/count_s[t]`, and its tail is reached in
//! turn. With exact path lengths the head of every passing link reaches
//! `t` along passing links, so the walk finds every link the test
//! accepts whenever rounding in the lengths stays well inside the
//! tolerance, as it does for integer and ordinary fractional weights.
//! Each pair's entries are collected column by column and the CSR
//! is emitted by a counting sort, with no comparison sort. A build costs
//! about `O(n·L·log n + nnz·degree)` for `n` nodes, `L` links and `nnz`
//! stored entries.

use crate::graph::{LinkId, NodeId, Topology};
use crate::{Result, TopologyError};
use ic_linalg::SparseMatrix;
use std::collections::BinaryHeap;

/// Routing scheme used to build the routing matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingScheme {
    /// One deterministic shortest path per OD pair.
    SinglePath,
    /// Equal-cost multi-path with exact fractional splitting.
    Ecmp,
}

/// The routing matrix of a topology: `links x od_pairs`, entry = fraction
/// of the OD pair's traffic crossing the link.
///
/// The matrix is stored **sparse** (CSR): a column holds one entry per hop
/// of one OD pair's path, so density falls like `1/links` and a
/// production-scale `R` is overwhelmingly zero. The sparse view drives the
/// estimation hot path ([`RoutingMatrix::link_counts`], tomogravity's
/// `A W Aᵀ`).
///
/// # Examples
///
/// ```
/// use ic_topology::{geant22, RoutingMatrix, RoutingScheme};
///
/// let topo = geant22();
/// let routing = RoutingMatrix::build(&topo, RoutingScheme::Ecmp).unwrap();
/// // Every off-diagonal OD pair is fully routed: its column sums to at
/// // least 1 link's worth of traffic (more if the path has several hops).
/// let col = routing.od_fractions(0, 1);
/// let total: f64 = col.iter().sum();
/// assert!(total >= 1.0 - 1e-9);
/// // The sparse view is the primary representation.
/// assert!(routing.as_sparse().density() < 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct RoutingMatrix {
    sparse: SparseMatrix,
    node_count: usize,
}

/// Tolerance for comparing path lengths (IGP weights are small integers in
/// practice; this absorbs floating-point noise only).
const EPS: f64 = 1e-9;

/// The columns of `R` in OD order, each OD pair's links in any order:
/// the compressed sparse column arrays [`SparseMatrix::from_csc`] takes.
struct Columns {
    ptr: Vec<usize>,
    links: Vec<LinkId>,
    values: Vec<f64>,
}

impl Columns {
    fn with_capacity(ods: usize) -> Self {
        let mut ptr = Vec::with_capacity(ods + 1);
        ptr.push(0);
        Columns {
            ptr,
            links: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Adds an entry to the open column. Exact zeros are not stored.
    fn push(&mut self, link: LinkId, value: f64) {
        if value != 0.0 {
            self.links.push(link);
            self.values.push(value);
        }
    }

    /// Closes the open column.
    fn close(&mut self) {
        self.ptr.push(self.links.len());
    }
}

impl RoutingMatrix {
    /// Builds the routing matrix for `topo` under `scheme`.
    ///
    /// Fails when the topology is invalid or not strongly connected.
    pub fn build(topo: &Topology, scheme: RoutingScheme) -> Result<Self> {
        topo.validate()?;
        let n = topo.node_count();
        let links = topo.links();
        let out_adj = Adjacency::new(topo, false);
        let in_adj = Adjacency::new(topo, true);
        let disconnected = |s: NodeId, t: NodeId| TopologyError::Disconnected {
            from: topo.node_name(s).to_string(),
            to: topo.node_name(t).to_string(),
        };
        let mut columns = Columns::with_capacity(n * n);
        match scheme {
            RoutingScheme::SinglePath => {
                // Destination-based: for each destination t, the lowest-id
                // outgoing link of every node on a shortest path toward t.
                let mut next_hop = vec![None; n * n];
                for t in 0..n {
                    let (dist_to_t, _) = dijkstra(topo, &in_adj, t, true);
                    let hops = &mut next_hop[t * n..(t + 1) * n];
                    for (u, hop) in hops.iter_mut().enumerate() {
                        *hop = out_adj.of(u).iter().copied().find(|&lid| {
                            let link = &links[lid];
                            (link.igp_weight + dist_to_t[link.to] - dist_to_t[u]).abs() < EPS
                        });
                    }
                    // Every source must reach t within n hops; a missing
                    // hop or a cycle means inconsistent distance labels.
                    for s in (0..n).filter(|&s| s != t) {
                        let mut u = s;
                        for _ in 0..=n {
                            match hops[u] {
                                Some(lid) if u != t => u = links[lid].to,
                                _ => break,
                            }
                        }
                        if u != t {
                            return Err(disconnected(s, t));
                        }
                    }
                }
                for s in 0..n {
                    for t in 0..n {
                        let mut u = s;
                        while u != t {
                            let lid = next_hop[t * n + u].expect("next hops checked above");
                            columns.push(lid, 1.0);
                            u = links[lid].to;
                        }
                        columns.close();
                    }
                }
            }
            RoutingScheme::Ecmp => {
                // Backward pass per destination: distances-to and counts.
                let backward: Vec<(Vec<f64>, Vec<f64>)> =
                    (0..n).map(|t| dijkstra(topo, &in_adj, t, true)).collect();
                // `seen[v] == od` marks v as reached by pair `od`'s walk.
                let mut seen = vec![usize::MAX; n];
                let mut stack = Vec::with_capacity(n);
                for s in 0..n {
                    // Forward pass from s: distances and path counts.
                    let (dist_s, count_s) = dijkstra(topo, &out_adj, s, false);
                    for t in 0..n {
                        if s == t {
                            columns.close();
                            continue;
                        }
                        let (dist_to_t, count_to_t) = &backward[t];
                        let od = topo.od_index(s, t);
                        let total_paths = count_s[t];
                        if total_paths == 0.0 {
                            return Err(disconnected(s, t));
                        }
                        // Walk back from t: a link into a reached node that
                        // lies on a shortest s-t path is an entry of the
                        // pair, and its tail is reached in turn.
                        seen[t] = od;
                        stack.push(t);
                        while let Some(v) = stack.pop() {
                            for &lid in in_adj.of(v) {
                                let link = &links[lid];
                                let on_shortest =
                                    (dist_s[link.from] + link.igp_weight + dist_to_t[link.to]
                                        - dist_s[t])
                                        .abs()
                                        < EPS;
                                if on_shortest {
                                    let through = count_s[link.from] * count_to_t[link.to];
                                    columns.push(lid, through / total_paths);
                                    if seen[link.from] != od {
                                        seen[link.from] = od;
                                        stack.push(link.from);
                                    }
                                }
                            }
                        }
                        columns.close();
                    }
                }
            }
        }
        let sparse = SparseMatrix::from_csc(
            links.len(),
            n * n,
            &columns.ptr,
            &columns.links,
            &columns.values,
        )
        .expect("routing columns are well formed by construction");
        Ok(RoutingMatrix {
            sparse,
            node_count: n,
        })
    }

    /// The `links x n²` matrix in its primary sparse (CSR) representation.
    pub fn as_sparse(&self) -> &SparseMatrix {
        &self.sparse
    }

    /// Number of nodes of the routed topology.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of links (rows).
    pub fn link_count(&self) -> usize {
        self.sparse.rows()
    }

    /// Fractions of OD pair `(s, t)`'s traffic on every link (a column of
    /// `R` reshaped per link).
    pub fn od_fractions(&self, s: NodeId, t: NodeId) -> Vec<f64> {
        let od = s * self.node_count + t;
        self.sparse.col(od)
    }

    /// Computes link counts `Y = R x` for a vectorized traffic matrix
    /// (sparse matvec, `O(nnz)`).
    pub fn link_counts(
        &self,
        tm_vector: &[f64],
    ) -> core::result::Result<Vec<f64>, ic_linalg::LinalgError> {
        self.sparse.matvec(tm_vector)
    }

    /// Computes link counts into a caller-provided buffer
    /// (allocation-free).
    pub fn link_counts_into(
        &self,
        tm_vector: &[f64],
        out: &mut [f64],
    ) -> core::result::Result<(), ic_linalg::LinalgError> {
        self.sparse.matvec_into(tm_vector, out)
    }

    /// Verifies flow conservation for one OD pair: net out-flow of the
    /// origin is 1, net in-flow of the destination is 1, all transit nodes
    /// balance. Used by tests and fault diagnostics.
    pub fn check_conservation(&self, topo: &Topology, s: NodeId, t: NodeId) -> bool {
        if s == t {
            return true;
        }
        let fractions = self.od_fractions(s, t);
        for v in 0..self.node_count {
            let mut net = 0.0;
            for (lid, link) in topo.links().iter().enumerate() {
                if link.from == v {
                    net += fractions[lid];
                }
                if link.to == v {
                    net -= fractions[lid];
                }
            }
            let expected = if v == s {
                1.0
            } else if v == t {
                -1.0
            } else {
                0.0
            };
            if (net - expected).abs() > 1e-6 {
                return false;
            }
        }
        true
    }
}

/// Max-heap entry ordered by negated distance (so the BinaryHeap pops the
/// minimum-distance node first), tie-broken by node id for determinism.
#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // Reverse on distance for min-heap behaviour; forward on node id.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(core::cmp::Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Per-node link lists in ascending link id: the links leaving each node,
/// or with `reverse` the links entering it.
struct Adjacency {
    start: Vec<usize>,
    links: Vec<LinkId>,
}

impl Adjacency {
    fn new(topo: &Topology, reverse: bool) -> Self {
        let key = |lid: LinkId| {
            let link = topo.link(lid);
            if reverse {
                link.to
            } else {
                link.from
            }
        };
        let n = topo.node_count();
        let mut start = vec![0usize; n + 1];
        for lid in 0..topo.link_count() {
            start[key(lid) + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut next = start[..n].to_vec();
        let mut links = vec![0; topo.link_count()];
        for lid in 0..topo.link_count() {
            let v = key(lid);
            links[next[v]] = lid;
            next[v] += 1;
        }
        Adjacency { start, links }
    }

    fn of(&self, v: NodeId) -> &[LinkId] {
        &self.links[self.start[v]..self.start[v + 1]]
    }
}

/// Dijkstra from `root` over `adj`, also counting shortest paths: with
/// `reverse` the links are walked backwards (distances and counts *to*
/// `root`), and `adj` must hold each node's incoming links.
fn dijkstra(topo: &Topology, adj: &Adjacency, root: NodeId, reverse: bool) -> (Vec<f64>, Vec<f64>) {
    let n = topo.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut count = vec![0.0; n];
    let mut done = vec![false; n];
    dist[root] = 0.0;
    count[root] = 1.0;
    let mut heap = BinaryHeap::new();
    heap.push(HeapEntry {
        dist: 0.0,
        node: root,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if done[u] {
            continue;
        }
        done[u] = true;
        for &lid in adj.of(u) {
            let link = topo.link(lid);
            let to = if reverse { link.from } else { link.to };
            let nd = d + link.igp_weight;
            if nd + EPS < dist[to] {
                dist[to] = nd;
                count[to] = count[u];
                heap.push(HeapEntry { dist: nd, node: to });
            } else if (nd - dist[to]).abs() < EPS {
                count[to] += count[u];
            }
        }
    }
    (dist, count)
}

/// The ingress incidence operator `H` (`n x n²`): `H[i][(i,j)] = 1` for all
/// `j`, so `H x` is the vector of ingress counts `X_{i*}` (paper Section
/// 6.2). `n` rows of `n` unit entries each (density `1/n`), stacked into
/// the estimation path's observation operator.
pub fn ingress_incidence_sparse(n: usize) -> SparseMatrix {
    incidence_sparse(n, |od| od / n)
}

/// The egress incidence operator `G` (`n x n²`): `G[j][(i,j)] = 1` for all
/// `i`, so `G x` is the vector of egress counts `X_{*j}`.
pub fn egress_incidence_sparse(n: usize) -> SparseMatrix {
    incidence_sparse(n, |od| od % n)
}

/// An `n x n²` operator with one unit entry per OD column `od = i·n + j`,
/// in row `row(od)`, built column by column through
/// [`SparseMatrix::from_csc`]: a counting sort, where `from_triplets`
/// would sort the `n²` entries by comparison.
fn incidence_sparse(n: usize, row: impl Fn(usize) -> usize) -> SparseMatrix {
    let pairs = n * n;
    let col_ptr: Vec<usize> = (0..=pairs).collect();
    let row_idx: Vec<usize> = (0..pairs).map(row).collect();
    SparseMatrix::from_csc(n, pairs, &col_ptr, &row_idx, &vec![1.0; pairs])
        .expect("one in-bounds entry per column by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{abilene, geant22};
    use ic_linalg::Matrix;

    /// Dense `H`, entry by entry: the oracle of [`ingress_incidence_sparse`].
    fn ingress_incidence(n: usize) -> Matrix {
        let mut h = Matrix::zeros(n, n * n);
        for i in 0..n {
            for j in 0..n {
                h[(i, i * n + j)] = 1.0;
            }
        }
        h
    }

    /// Dense `G`, entry by entry: the oracle of [`egress_incidence_sparse`].
    fn egress_incidence(n: usize) -> Matrix {
        let mut g = Matrix::zeros(n, n * n);
        for i in 0..n {
            for j in 0..n {
                g[(j, i * n + j)] = 1.0;
            }
        }
        g
    }

    fn square_topo() -> Topology {
        // a - b
        // |   |
        // d - c   all weights 1: two equal-cost paths a->c.
        let mut t = Topology::new("square");
        let a = t.add_node("a").unwrap();
        let b = t.add_node("b").unwrap();
        let c = t.add_node("c").unwrap();
        let d = t.add_node("d").unwrap();
        t.add_symmetric_link(a, b, 1.0, 1e9).unwrap();
        t.add_symmetric_link(b, c, 1.0, 1e9).unwrap();
        t.add_symmetric_link(c, d, 1.0, 1e9).unwrap();
        t.add_symmetric_link(d, a, 1.0, 1e9).unwrap();
        t
    }

    #[test]
    fn single_path_routes_every_pair() {
        let topo = square_topo();
        let r = RoutingMatrix::build(&topo, RoutingScheme::SinglePath).unwrap();
        for s in 0..4 {
            for t in 0..4 {
                assert!(r.check_conservation(&topo, s, t), "pair {s}->{t}");
                if s != t {
                    // 0/1 entries under single path.
                    assert!(r.od_fractions(s, t).iter().all(|&f| f == 0.0 || f == 1.0));
                }
            }
        }
    }

    #[test]
    fn ecmp_splits_equal_cost_paths() {
        let topo = square_topo();
        let r = RoutingMatrix::build(&topo, RoutingScheme::Ecmp).unwrap();
        // a -> c has two 2-hop paths: via b and via d, each carrying 1/2.
        let f = r.od_fractions(0, 2);
        let on_half: Vec<f64> = f.iter().copied().filter(|&x| x > 0.0).collect();
        assert_eq!(on_half.len(), 4, "two 2-hop paths use 4 links");
        assert!(on_half.iter().all(|&x| (x - 0.5).abs() < 1e-12));
        assert!(r.check_conservation(&topo, 0, 2));
    }

    #[test]
    fn self_pairs_cross_no_links() {
        let topo = square_topo();
        for scheme in [RoutingScheme::SinglePath, RoutingScheme::Ecmp] {
            let r = RoutingMatrix::build(&topo, scheme).unwrap();
            for v in 0..4 {
                assert!(r.od_fractions(v, v).iter().all(|&f| f == 0.0));
            }
        }
    }

    #[test]
    fn link_counts_match_manual_sum() {
        let topo = square_topo();
        let r = RoutingMatrix::build(&topo, RoutingScheme::SinglePath).unwrap();
        let n = 4;
        let mut x = vec![0.0; n * n];
        x[topo.od_index(0, 1)] = 10.0; // a->b direct
        x[topo.od_index(1, 0)] = 4.0; // b->a direct
        let y = r.link_counts(&x).unwrap();
        let total: f64 = y.iter().sum();
        assert!((total - 14.0).abs() < 1e-12, "one-hop flows: Y sums to X");
    }

    #[test]
    fn conservation_on_real_topologies() {
        for topo in [geant22(), abilene()] {
            let r = RoutingMatrix::build(&topo, RoutingScheme::Ecmp).unwrap();
            let n = topo.node_count();
            for s in 0..n {
                for t in 0..n {
                    assert!(
                        r.check_conservation(&topo, s, t),
                        "{} pair {s}->{t}",
                        topo.name()
                    );
                }
            }
        }
    }

    #[test]
    fn single_path_deterministic() {
        let topo = square_topo();
        let r1 = RoutingMatrix::build(&topo, RoutingScheme::SinglePath).unwrap();
        let r2 = RoutingMatrix::build(&topo, RoutingScheme::SinglePath).unwrap();
        assert_eq!(r1.as_sparse(), r2.as_sparse());
    }

    #[test]
    fn ecmp_fractions_in_unit_interval() {
        let topo = geant22();
        let r = RoutingMatrix::build(&topo, RoutingScheme::Ecmp).unwrap();
        for &v in r.as_sparse().to_dense().as_slice() {
            assert!((0.0..=1.0 + 1e-12).contains(&v));
        }
    }

    #[test]
    fn disconnected_topology_rejected() {
        let mut t = Topology::new("iso");
        t.add_node("a").unwrap();
        t.add_node("b").unwrap();
        assert!(RoutingMatrix::build(&t, RoutingScheme::Ecmp).is_err());
    }

    #[test]
    fn incidence_operators_compute_marginals() {
        let n = 3;
        let h = ingress_incidence_sparse(n);
        let g = egress_incidence_sparse(n);
        // x[i*n+j] = 10*i + j for recognizability.
        let x: Vec<f64> = (0..n * n).map(|k| (10 * (k / n) + k % n) as f64).collect();
        let ingress = h.matvec(&x).unwrap();
        let egress = g.matvec(&x).unwrap();
        for i in 0..n {
            let want_in: f64 = (0..n).map(|j| (10 * i + j) as f64).sum();
            let want_out: f64 = (0..n).map(|k| (10 * k + i) as f64).sum();
            assert!((ingress[i] - want_in).abs() < 1e-12);
            assert!((egress[i] - want_out).abs() < 1e-12);
        }
        // Total ingress equals total egress equals total traffic.
        let ti: f64 = ingress.iter().sum();
        let te: f64 = egress.iter().sum();
        let tx: f64 = x.iter().sum();
        assert!((ti - tx).abs() < 1e-12);
        assert!((te - tx).abs() < 1e-12);
    }

    #[test]
    fn sparse_and_dense_views_agree() {
        for scheme in [RoutingScheme::SinglePath, RoutingScheme::Ecmp] {
            let r = RoutingMatrix::build(&geant22(), scheme).unwrap();
            // Link counts through the sparse path equal the dense matvec.
            let x: Vec<f64> = (0..r.as_sparse().cols()).map(|k| (k % 7) as f64).collect();
            let sparse = r.link_counts(&x).unwrap();
            let dense = r.as_sparse().to_dense().matvec(&x).unwrap();
            assert_eq!(sparse, dense);
            let mut buf = vec![0.0; r.link_count()];
            r.link_counts_into(&x, &mut buf).unwrap();
            assert_eq!(buf, sparse);
        }
    }

    /// The column-by-column build of `H` and `G` equals a `from_triplets`
    /// build of the same entries: shape, row pointers, column order and
    /// value bits.
    #[test]
    fn incidence_by_columns_equals_the_triplet_build() {
        for n in [1, 2, 3, 7, 22, 50] {
            let triplets = |row: fn(usize, usize) -> usize| {
                SparseMatrix::from_triplets(
                    n,
                    n * n,
                    (0..n).flat_map(|i| (0..n).map(move |j| (row(i, j), i * n + j, 1.0))),
                )
                .unwrap()
            };
            let pairs = [
                (ingress_incidence_sparse(n), triplets(|i, _| i)),
                (egress_incidence_sparse(n), triplets(|_, j| j)),
            ];
            for (built, oracle) in pairs {
                assert_eq!(built, oracle, "n = {n}");
                for r in 0..n {
                    let ((bc, bv), (oc, ov)) = (built.row(r), oracle.row(r));
                    assert_eq!(bc, oc, "n = {n}, row {r}");
                    assert!(bv.iter().zip(ov).all(|(a, b)| a.to_bits() == b.to_bits()));
                }
            }
        }
    }

    #[test]
    fn sparse_incidence_matches_dense() {
        for n in [1, 2, 5, 9] {
            assert_eq!(ingress_incidence_sparse(n).to_dense(), ingress_incidence(n));
            assert_eq!(egress_incidence_sparse(n).to_dense(), egress_incidence(n));
            assert_eq!(ingress_incidence_sparse(n).nnz(), n * n);
        }
    }

    #[test]
    fn longer_paths_accumulate_hops() {
        // Line a-b-c: a->c must cross both links.
        let mut t = Topology::new("line");
        let a = t.add_node("a").unwrap();
        let b = t.add_node("b").unwrap();
        let c = t.add_node("c").unwrap();
        t.add_symmetric_link(a, b, 1.0, 1e9).unwrap();
        t.add_symmetric_link(b, c, 1.0, 1e9).unwrap();
        let r = RoutingMatrix::build(&t, RoutingScheme::Ecmp).unwrap();
        let f = r.od_fractions(a, c);
        let hops: f64 = f.iter().sum();
        assert!((hops - 2.0).abs() < 1e-12);
    }

    #[test]
    fn igp_weights_steer_routing() {
        // Square with one cheap diagonal: a->c prefers the 2-hop path only
        // if weights say so.
        let mut t = Topology::new("weighted");
        let a = t.add_node("a").unwrap();
        let b = t.add_node("b").unwrap();
        let c = t.add_node("c").unwrap();
        t.add_symmetric_link(a, b, 1.0, 1e9).unwrap();
        t.add_symmetric_link(b, c, 1.0, 1e9).unwrap();
        t.add_symmetric_link(a, c, 5.0, 1e9).unwrap(); // expensive direct
        let r = RoutingMatrix::build(&t, RoutingScheme::Ecmp).unwrap();
        let f = r.od_fractions(a, c);
        // Direct a->c link (id 4) must carry nothing.
        assert_eq!(f[4], 0.0);
        let hops: f64 = f.iter().sum();
        assert!((hops - 2.0).abs() < 1e-12);
    }
}
