//! `RoutingMatrix::build` against the builder it replaced, bit for bit.
//!
//! The oracle below is the earlier builder verbatim: Dijkstra that scans
//! every link per settled node, every link tested for every OD pair
//! (`O(n²·L)`), single-path walks that rescan each node's links, and the
//! CSR assembled by `SparseMatrix::from_triplets`. On random Waxman,
//! hierarchical and ring topologies, under both schemes, with the
//! generators' weights, small integer weights full of equal-cost ties,
//! and fractional weights, the two builders must agree on the shape, the
//! row pointers, the column order and every value's bits.

use ic_linalg::SparseMatrix;
use ic_topology::{
    hierarchical, waxman, HierarchicalConfig, NodeId, RoutingMatrix, RoutingScheme, Topology,
    TopologyError, WaxmanConfig,
};
use proptest::prelude::*;
use std::collections::BinaryHeap;

const EPS: f64 = 1e-9;

fn oracle_build(topo: &Topology, scheme: RoutingScheme) -> Result<SparseMatrix, TopologyError> {
    topo.validate()?;
    let n = topo.node_count();
    let l = topo.link_count();
    let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
    match scheme {
        RoutingScheme::SinglePath => {
            // Destination-based: for each destination t, compute
            // distances to t, then greedily walk from every source.
            for t in 0..n {
                let (dist_to_t, _) = dijkstra_reverse(topo, t);
                for s in 0..n {
                    if s == t {
                        continue;
                    }
                    let od = topo.od_index(s, t);
                    let mut u = s;
                    let mut hops = 0usize;
                    while u != t {
                        // Pick the lowest-id outgoing link on a shortest
                        // path toward t.
                        let mut chosen: Option<(usize, NodeId)> = None;
                        for (lid, link) in topo.out_links(u) {
                            if (link.igp_weight + dist_to_t[link.to] - dist_to_t[u]).abs() < EPS {
                                chosen = Some((lid, link.to));
                                break; // out_links iterates in id order
                            }
                        }
                        let (lid, v) = chosen.ok_or_else(|| TopologyError::Disconnected {
                            from: topo.node_name(s).to_string(),
                            to: topo.node_name(t).to_string(),
                        })?;
                        triplets.push((lid, od, 1.0));
                        u = v;
                        hops += 1;
                        if hops > n {
                            // A cycle would indicate an internal
                            // inconsistency in the distance labels.
                            return Err(TopologyError::Disconnected {
                                from: topo.node_name(s).to_string(),
                                to: topo.node_name(t).to_string(),
                            });
                        }
                    }
                }
            }
        }
        RoutingScheme::Ecmp => {
            // Forward pass per source: distances and path counts.
            let forward: Vec<(Vec<f64>, Vec<f64>)> =
                (0..n).map(|s| dijkstra_forward(topo, s)).collect();
            // Backward pass per destination: distances-to and counts.
            let backward: Vec<(Vec<f64>, Vec<f64>)> =
                (0..n).map(|t| dijkstra_reverse(topo, t)).collect();
            for s in 0..n {
                let (dist_s, count_s) = &forward[s];
                for t in 0..n {
                    if s == t {
                        continue;
                    }
                    let (dist_to_t, count_to_t) = &backward[t];
                    let od = topo.od_index(s, t);
                    let total_paths = count_s[t];
                    if total_paths == 0.0 {
                        return Err(TopologyError::Disconnected {
                            from: topo.node_name(s).to_string(),
                            to: topo.node_name(t).to_string(),
                        });
                    }
                    for (lid, link) in topo.links().iter().enumerate() {
                        let on_shortest =
                            (dist_s[link.from] + link.igp_weight + dist_to_t[link.to] - dist_s[t])
                                .abs()
                                < EPS;
                        if on_shortest {
                            let through = count_s[link.from] * count_to_t[link.to];
                            triplets.push((lid, od, through / total_paths));
                        }
                    }
                }
            }
        }
    }
    Ok(SparseMatrix::from_triplets(l, n * n, triplets)
        .expect("routing triplets are in bounds by construction"))
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

/// Dijkstra from `source` over forward links, also counting shortest paths.
fn dijkstra_forward(topo: &Topology, source: NodeId) -> (Vec<f64>, Vec<f64>) {
    dijkstra_impl(topo, source, false)
}

/// Dijkstra *to* `target` (over reversed links), counting shortest paths
/// from every node to the target.
fn dijkstra_reverse(topo: &Topology, target: NodeId) -> (Vec<f64>, Vec<f64>) {
    dijkstra_impl(topo, target, true)
}

fn dijkstra_impl(topo: &Topology, root: NodeId, reverse: bool) -> (Vec<f64>, Vec<f64>) {
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
        for link in topo.links() {
            let (from, to) = if reverse {
                (link.to, link.from)
            } else {
                (link.from, link.to)
            };
            if from != u {
                continue;
            }
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

/// Shape, row pointers, column order and value bits, row by row.
fn assert_same_csr(got: &SparseMatrix, want: &SparseMatrix) {
    assert_eq!(got.shape(), want.shape());
    assert_eq!(got.nnz(), want.nnz());
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for i in 0..want.rows() {
        let (got_cols, got_vals) = got.row(i);
        let (want_cols, want_vals) = want.row(i);
        assert_eq!(got_cols, want_cols, "columns of row {i}");
        assert_eq!(bits(got_vals), bits(want_vals), "values of row {i}");
    }
}

/// Uniform in `[0, 1)` from a seed and a stream index (splitmix64).
fn unit(seed: u64, k: u64) -> f64 {
    let mut z = seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) as f64 / (u64::MAX as f64 + 1.0)
}

/// A ring of `n` nodes with `chords` extra symmetric links.
fn ring(n: usize, chords: usize, seed: u64) -> Topology {
    let mut t = Topology::new("ring");
    for k in 0..n {
        t.add_node(format!("r{k}")).unwrap();
    }
    for k in 0..n {
        t.add_symmetric_link(k, (k + 1) % n, 1.0, 1e12).unwrap();
    }
    for c in 0..chords as u64 {
        let a = (unit(seed, 2 * c) * n as f64) as usize;
        let b = (unit(seed, 2 * c + 1) * n as f64) as usize;
        if a != b {
            t.add_symmetric_link(a, b, 1.0, 1e12).unwrap();
        }
    }
    t
}

/// How the links of a generated topology are weighted.
#[derive(Debug, Clone, Copy)]
enum Weights {
    /// As the generator weighted them.
    Generated,
    /// Integers in `1..=3`, drawn per direction: many equal-cost ties.
    SmallIntegers,
    /// Fractional values in `[0.5, 8)`, drawn per direction.
    Fractional,
}

/// `topo` with the same nodes and links, re-weighted per `weights`.
fn reweighted(topo: &Topology, weights: Weights, seed: u64) -> Topology {
    let mut out = Topology::new(topo.name());
    for name in topo.node_names() {
        out.add_node(name.clone()).unwrap();
    }
    for (lid, link) in topo.links().iter().enumerate() {
        let u = unit(seed ^ 0x5EED, lid as u64);
        let w = match weights {
            Weights::Generated => link.igp_weight,
            Weights::SmallIntegers => 1.0 + (3.0 * u).floor(),
            Weights::Fractional => 0.5 + 7.5 * u,
        };
        out.add_link(link.from, link.to, w, link.capacity).unwrap();
    }
    out
}

/// One of the three families, sized by `size` and `extra`.
fn topology(family: usize, size: usize, extra: usize, seed: u64) -> Topology {
    match family {
        0 => waxman(&WaxmanConfig::new(3 + size, seed)).unwrap(),
        1 => hierarchical(&HierarchicalConfig::new(1 + size % 5, 1 + extra % 5, seed)).unwrap(),
        _ => ring(3 + size % 27, extra, seed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both schemes: the CSR equals the old builder's, bit for bit.
    #[test]
    fn routing_build_matches_the_all_links_oracle(
        family in 0usize..3,
        size in 0usize..37,
        extra in 0usize..8,
        weights in 0usize..3,
        seed in any::<u64>(),
    ) {
        let weights = [Weights::Generated, Weights::SmallIntegers, Weights::Fractional][weights];
        let topo = reweighted(&topology(family, size, extra, seed), weights, seed);
        for scheme in [RoutingScheme::SinglePath, RoutingScheme::Ecmp] {
            let want = oracle_build(&topo, scheme).unwrap();
            let got = RoutingMatrix::build(&topo, scheme).unwrap();
            assert_same_csr(got.as_sparse(), &want);
        }
    }
}

#[test]
fn parallel_links_and_a_disconnected_network_match_the_oracle() {
    // Parallel equal-cost links split traffic between them.
    let mut t = Topology::new("parallel");
    for k in 0..3 {
        t.add_node(format!("n{k}")).unwrap();
    }
    t.add_symmetric_link(0, 1, 1.0, 1e9).unwrap();
    t.add_symmetric_link(0, 1, 1.0, 1e9).unwrap();
    t.add_symmetric_link(1, 2, 2.0, 1e9).unwrap();
    t.add_symmetric_link(0, 2, 3.0, 1e9).unwrap();
    for scheme in [RoutingScheme::SinglePath, RoutingScheme::Ecmp] {
        let want = oracle_build(&t, scheme).unwrap();
        let got = RoutingMatrix::build(&t, scheme).unwrap();
        assert_same_csr(got.as_sparse(), &want);
    }
    // Both reject a network that is not strongly connected the same way.
    let mut one_way = Topology::new("one-way");
    one_way.add_node("a").unwrap();
    one_way.add_node("b").unwrap();
    one_way.add_link(0, 1, 1.0, 1e9).unwrap();
    for scheme in [RoutingScheme::SinglePath, RoutingScheme::Ecmp] {
        assert_eq!(
            RoutingMatrix::build(&one_way, scheme).unwrap_err(),
            oracle_build(&one_way, scheme).unwrap_err()
        );
    }
}
