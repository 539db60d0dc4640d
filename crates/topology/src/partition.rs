//! Cluster partitions of a topology: the decomposition substrate of
//! multilevel estimation.
//!
//! A [`Partition`] assigns every node to exactly one cluster and splits
//! the link set into intra-cluster links and the boundary (cut) set. Two
//! topologies derive from it:
//!
//! * [`Partition::induced`] — the intra-cluster sub-topology of one
//!   cluster, with node/link maps back to the parent ids;
//! * [`Partition::quotient`] — the coarse inter-cluster topology that
//!   multilevel estimation routes: one node per cluster, one link per
//!   directed cluster pair aggregating the member boundary links (minimum
//!   IGP weight, summed capacity).
//!
//! Partitions come from two sources: ground truth
//! ([`crate::HierarchicalConfig::cluster_assignment`] for generated
//! hierarchical networks, or any externally known assignment) via
//! [`Partition::from_assignment`], and the seeded deterministic
//! [`label_propagation`] fallback for topologies without known structure
//! (Waxman, measured networks).

use crate::graph::{LinkId, NodeId, Topology};
use crate::{Result, TopologyError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::collections::HashMap;

/// Index of a cluster within a [`Partition`].
pub type ClusterId = usize;

/// A disjoint cluster decomposition of a topology's nodes.
///
/// Invariants (enforced by [`Partition::from_assignment`]): every node
/// belongs to exactly one cluster, cluster ids are dense (`0..k` in order
/// of first appearance), every cluster is non-empty, and
/// [`Partition::boundary_links`] is exactly the set of links whose
/// endpoints lie in different clusters, in link-id order.
///
/// # Examples
///
/// ```
/// use ic_topology::{hierarchical, HierarchicalConfig, Partition};
///
/// let cfg = HierarchicalConfig::new(4, 3, 7);
/// let topo = hierarchical(&cfg).unwrap();
/// let part = Partition::from_assignment(&topo, &cfg.cluster_assignment()).unwrap();
/// assert_eq!(part.cluster_count(), 4);
/// // Every backbone-to-backbone core link crosses clusters.
/// assert!(!part.boundary_links().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    assignment: Vec<ClusterId>,
    members: Vec<Vec<NodeId>>,
    boundary: Vec<LinkId>,
    link_count: usize,
}

impl Partition {
    /// Builds a partition from a per-node cluster assignment.
    ///
    /// `assignment[node]` may use arbitrary labels; they are renumbered
    /// densely in order of first appearance. Fails with
    /// [`TopologyError::InvalidPartition`] when the assignment's length
    /// does not match the node count.
    pub fn from_assignment(topo: &Topology, assignment: &[usize]) -> Result<Partition> {
        if assignment.len() != topo.node_count() {
            return Err(TopologyError::InvalidPartition(
                "assignment length must equal the node count",
            ));
        }
        let mut dense: HashMap<usize, ClusterId> = HashMap::new();
        let mut members: Vec<Vec<NodeId>> = Vec::new();
        let mut renumbered = Vec::with_capacity(assignment.len());
        for (node, &label) in assignment.iter().enumerate() {
            let next = members.len();
            let c = *dense.entry(label).or_insert(next);
            if c == next {
                members.push(Vec::new());
            }
            members[c].push(node);
            renumbered.push(c);
        }
        let boundary = topo
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| renumbered[l.from] != renumbered[l.to])
            .map(|(id, _)| id)
            .collect();
        Ok(Partition {
            assignment: renumbered,
            members,
            boundary,
            link_count: topo.link_count(),
        })
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.members.len()
    }

    /// Cluster of `node`.
    ///
    /// # Panics
    /// Panics when `node` is out of range.
    pub fn cluster_of(&self, node: NodeId) -> ClusterId {
        self.assignment[node]
    }

    /// The dense per-node assignment (`assignment[node] = cluster`).
    pub fn assignment(&self) -> &[ClusterId] {
        &self.assignment
    }

    /// Nodes of cluster `c` in ascending id order.
    ///
    /// # Panics
    /// Panics when `c` is out of range.
    pub fn members(&self, c: ClusterId) -> &[NodeId] {
        &self.members[c]
    }

    /// Links whose endpoints lie in different clusters (the cut set), in
    /// link-id order.
    pub fn boundary_links(&self) -> &[LinkId] {
        &self.boundary
    }

    /// Fraction of links in the cut set (0 for a link-free topology) —
    /// the locality measure multilevel estimation exploits: the smaller
    /// it is, the more of the network each intra-cluster solve explains.
    pub fn boundary_link_fraction(&self) -> f64 {
        if self.link_count == 0 {
            0.0
        } else {
            self.boundary.len() as f64 / self.link_count as f64
        }
    }

    /// The intra-cluster sub-topology of cluster `c`: its member nodes
    /// (original names preserved) and every link with both endpoints in
    /// the cluster.
    ///
    /// The result is *not* validated: an induced cluster may legitimately
    /// be a single node, and strong connectivity is the caller's concern
    /// (symmetric-link topologies induce strongly connected clusters
    /// whenever the cluster is connected at all).
    pub fn induced(&self, topo: &Topology, c: ClusterId) -> Result<InducedCluster> {
        if c >= self.members.len() {
            return Err(TopologyError::InvalidPartition("cluster id out of range"));
        }
        let nodes = self.members[c].clone();
        let mut local = vec![usize::MAX; self.assignment.len()];
        let mut sub = Topology::new(format!("{}/c{c:03}", topo.name()));
        for (i, &node) in nodes.iter().enumerate() {
            local[node] = i;
            sub.add_node(topo.node_name(node))?;
        }
        let mut links = Vec::new();
        for (id, l) in topo.links().iter().enumerate() {
            if self.assignment[l.from] == c && self.assignment[l.to] == c {
                sub.add_link(local[l.from], local[l.to], l.igp_weight, l.capacity)?;
                links.push(id);
            }
        }
        Ok(InducedCluster {
            topology: sub,
            nodes,
            links,
        })
    }

    /// The coarse inter-cluster "quotient" topology: one node per cluster
    /// (`c000`, `c001`, …) and, for every ordered cluster pair connected
    /// by boundary links, one directed link carrying the minimum member
    /// IGP weight and the summed member capacity.
    ///
    /// The quotient is validated: multilevel estimation routes coarse
    /// traffic on it, so a partition whose cluster graph is not strongly
    /// connected is rejected here rather than failing later in routing.
    pub fn quotient(&self, topo: &Topology) -> Result<Quotient> {
        let mut agg: BTreeMap<(ClusterId, ClusterId), (f64, f64, Vec<LinkId>)> = BTreeMap::new();
        for &id in &self.boundary {
            let l = topo.link(id);
            let key = (self.assignment[l.from], self.assignment[l.to]);
            let entry = agg.entry(key).or_insert((f64::INFINITY, 0.0, Vec::new()));
            entry.0 = entry.0.min(l.igp_weight);
            entry.1 += l.capacity;
            entry.2.push(id);
        }
        let mut sub = Topology::new(format!("{}/quotient", topo.name()));
        for c in 0..self.members.len() {
            sub.add_node(format!("c{c:03}"))?;
        }
        let mut link_members = Vec::with_capacity(agg.len());
        for ((from, to), (weight, capacity, ids)) in agg {
            sub.add_link(from, to, weight, capacity)?;
            link_members.push(ids);
        }
        sub.validate().map_err(|e| match e {
            TopologyError::Disconnected { .. } => TopologyError::InvalidPartition(
                "quotient topology is not strongly connected across clusters",
            ),
            other => other,
        })?;
        Ok(Quotient {
            topology: sub,
            link_members,
        })
    }
}

/// One cluster's intra-cluster sub-topology plus maps back to the parent.
#[derive(Debug, Clone, PartialEq)]
pub struct InducedCluster {
    /// The sub-topology over the cluster's members (names preserved).
    pub topology: Topology,
    /// `nodes[i]` is the parent [`NodeId`] of sub-topology node `i`
    /// (ascending).
    pub nodes: Vec<NodeId>,
    /// `links[j]` is the parent [`LinkId`] of sub-topology link `j`.
    pub links: Vec<LinkId>,
}

/// The coarse inter-cluster topology plus the boundary-link aggregation
/// map.
#[derive(Debug, Clone, PartialEq)]
pub struct Quotient {
    /// One node per cluster (`c000`, …), one directed link per connected
    /// cluster pair.
    pub topology: Topology,
    /// `link_members[q]` lists the parent boundary [`LinkId`]s aggregated
    /// into quotient link `q` (quotient link ids follow the topology's
    /// link order).
    pub link_members: Vec<Vec<LinkId>>,
}

/// Seeded deterministic label-propagation clustering — the fallback for
/// topologies without ground-truth structure (Waxman, measured networks).
///
/// Starts from singleton labels and repeatedly (≤ 64 rounds, shuffled
/// node order per round from `seed`) re-labels each node with its
/// neighbors' most frequent label, breaking count ties toward the
/// smallest label so the result is independent of hash-map iteration
/// order. Label regions are then split into connected components (a label
/// can win in two disjoint places) and renumbered densely. Equal seeds on
/// equal topologies give equal partitions.
pub fn label_propagation(topo: &Topology, seed: u64) -> Partition {
    let n = topo.node_count();
    // Undirected neighbor lists (duplicates are harmless for frequency
    // voting: a doubled adjacency is simply a stronger tie).
    let mut neighbors: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for l in topo.links() {
        neighbors[l.from].push(l.to);
        neighbors[l.to].push(l.from);
    }
    let mut labels: Vec<usize> = (0..n).collect();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tally: HashMap<usize, usize> = HashMap::new();
    for _ in 0..64 {
        // Fisher–Yates shuffle (the vendored rand has no `seq` module).
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..i + 1);
            order.swap(i, j);
        }
        let mut changed = false;
        for &v in &order {
            if neighbors[v].is_empty() {
                continue;
            }
            tally.clear();
            for &u in &neighbors[v] {
                *tally.entry(labels[u]).or_insert(0) += 1;
            }
            // (count desc, label asc) is a total order, so the winner is
            // deterministic regardless of the map's iteration order.
            let mut best = (0usize, usize::MAX);
            for (&label, &count) in tally.iter() {
                if count > best.0 || (count == best.0 && label < best.1) {
                    best = (count, label);
                }
            }
            if labels[v] != best.1 {
                labels[v] = best.1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Split label regions into connected components: BFS over same-label
    // neighbors, final cluster = component.
    let mut component = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut queue = Vec::new();
    for start in 0..n {
        if component[start] != usize::MAX {
            continue;
        }
        component[start] = next;
        queue.push(start);
        while let Some(v) = queue.pop() {
            for &u in &neighbors[v] {
                if component[u] == usize::MAX && labels[u] == labels[start] {
                    component[u] = next;
                    queue.push(u);
                }
            }
        }
        next += 1;
    }
    Partition::from_assignment(topo, &component)
        .expect("label propagation assigns every node exactly once")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::geant22;
    use crate::generators::{hierarchical, waxman, HierarchicalConfig, WaxmanConfig};

    fn hier_parts() -> (Topology, Partition) {
        let cfg = HierarchicalConfig::new(5, 4, 99);
        let topo = hierarchical(&cfg).unwrap();
        let part = Partition::from_assignment(&topo, &cfg.cluster_assignment()).unwrap();
        (topo, part)
    }

    #[test]
    fn from_assignment_is_a_true_partition() {
        let (topo, part) = hier_parts();
        assert_eq!(part.cluster_count(), 5);
        let mut seen = vec![0usize; topo.node_count()];
        for c in 0..part.cluster_count() {
            assert!(!part.members(c).is_empty());
            for &v in part.members(c) {
                seen[v] += 1;
                assert_eq!(part.cluster_of(v), c);
            }
            assert!(part.members(c).windows(2).all(|w| w[0] < w[1]));
        }
        assert!(seen.iter().all(|&s| s == 1), "every node in one cluster");
    }

    #[test]
    fn boundary_is_exactly_the_cut_set() {
        let (topo, part) = hier_parts();
        let cut: Vec<usize> = topo
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| part.cluster_of(l.from) != part.cluster_of(l.to))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(part.boundary_links(), cut.as_slice());
        assert!(part.boundary_link_fraction() > 0.0);
        assert!(part.boundary_link_fraction() < 1.0);
    }

    #[test]
    fn rejects_wrong_assignment_length() {
        let (topo, _) = hier_parts();
        assert!(matches!(
            Partition::from_assignment(&topo, &[0, 1]),
            Err(TopologyError::InvalidPartition(_))
        ));
    }

    #[test]
    fn labels_renumber_densely_by_first_appearance() {
        let mut topo = Topology::new("t");
        for k in 0..4 {
            topo.add_node(format!("n{k}")).unwrap();
        }
        topo.add_symmetric_link(0, 1, 1.0, 1.0).unwrap();
        topo.add_symmetric_link(2, 3, 1.0, 1.0).unwrap();
        topo.add_symmetric_link(1, 2, 1.0, 1.0).unwrap();
        let part = Partition::from_assignment(&topo, &[7, 7, 3, 3]).unwrap();
        assert_eq!(part.assignment(), &[0, 0, 1, 1]);
    }

    #[test]
    fn induced_preserves_names_and_intra_links() {
        let (topo, part) = hier_parts();
        let mut total_intra = 0;
        for c in 0..part.cluster_count() {
            let ind = part.induced(&topo, c).unwrap();
            assert_eq!(ind.topology.node_count(), part.members(c).len());
            for (i, &parent) in ind.nodes.iter().enumerate() {
                assert_eq!(ind.topology.node_name(i), topo.node_name(parent));
            }
            for (j, &parent) in ind.links.iter().enumerate() {
                let sub = ind.topology.link(j);
                let orig = topo.link(parent);
                assert_eq!(ind.nodes[sub.from], orig.from);
                assert_eq!(ind.nodes[sub.to], orig.to);
                assert_eq!(sub.igp_weight, orig.igp_weight);
            }
            // Star clusters stay strongly connected.
            assert!(ind.topology.validate().is_ok());
            total_intra += ind.links.len();
        }
        assert_eq!(total_intra + part.boundary_links().len(), topo.link_count());
        assert!(part.induced(&topo, 99).is_err());
    }

    #[test]
    fn quotient_aggregates_boundary_links() {
        let (topo, part) = hier_parts();
        let q = part.quotient(&topo).unwrap();
        assert_eq!(q.topology.node_count(), part.cluster_count());
        assert!(q.topology.validate().is_ok());
        assert_eq!(q.link_members.len(), q.topology.link_count());
        let mut covered = 0;
        for (qid, members) in q.link_members.iter().enumerate() {
            let ql = q.topology.link(qid);
            let mut cap = 0.0;
            let mut min_w = f64::INFINITY;
            for &id in members {
                let l = topo.link(id);
                assert_eq!(part.cluster_of(l.from), ql.from);
                assert_eq!(part.cluster_of(l.to), ql.to);
                cap += l.capacity;
                min_w = min_w.min(l.igp_weight);
            }
            assert_eq!(ql.capacity, cap);
            assert_eq!(ql.igp_weight, min_w);
            covered += members.len();
        }
        assert_eq!(covered, part.boundary_links().len());
    }

    #[test]
    fn single_cluster_quotient_has_no_links() {
        // A strongly connected topology can never produce a disconnected
        // cluster graph, so the degenerate boundary case is the trivial
        // partition: one cluster, an empty cut, a link-free quotient.
        let (topo, _) = hier_parts();
        let all_one = vec![0usize; topo.node_count()];
        let part = Partition::from_assignment(&topo, &all_one).unwrap();
        assert!(part.boundary_links().is_empty());
        assert_eq!(part.boundary_link_fraction(), 0.0);
        let q = part.quotient(&topo).unwrap();
        assert_eq!(q.topology.node_count(), 1);
        assert_eq!(q.topology.link_count(), 0);
    }

    #[test]
    fn label_propagation_is_deterministic_and_valid() {
        for topo in [
            geant22(),
            waxman(&WaxmanConfig::new(80, 5)).unwrap(),
            hierarchical(&HierarchicalConfig::new(6, 5, 3)).unwrap(),
        ] {
            let a = label_propagation(&topo, 42);
            let b = label_propagation(&topo, 42);
            assert_eq!(a, b, "{} not deterministic", topo.name());
            let mut seen = vec![0usize; topo.node_count()];
            for c in 0..a.cluster_count() {
                for &v in a.members(c) {
                    seen[v] += 1;
                }
            }
            assert!(seen.iter().all(|&s| s == 1), "{}", topo.name());
            // Every cluster is internally connected by construction, so
            // induced sub-topologies validate (symmetric links).
            for c in 0..a.cluster_count() {
                let ind = a.induced(&topo, c).unwrap();
                assert!(ind.topology.validate().is_ok());
            }
        }
    }

    #[test]
    fn label_propagation_recovers_hierarchical_locality() {
        let cfg = HierarchicalConfig::new(8, 12, 17).with_dual_homing(0.0);
        let topo = hierarchical(&cfg).unwrap();
        let part = label_propagation(&topo, 1);
        // Without dual homing the access stars are strong communities:
        // propagation should find a non-trivial clustering with a small
        // boundary.
        assert!(part.cluster_count() > 1);
        assert!(part.cluster_count() < topo.node_count());
        assert!(part.boundary_link_fraction() < 0.5);
    }
}
