//! Property-based tests for routing: on random connected topologies, both
//! routing schemes satisfy flow conservation for every OD pair, ECMP
//! fractions form valid splits, the sparse and dense routing views agree,
//! and the scaled topology generators are deterministic in their seed.

use ic_topology::{
    hierarchical, label_propagation, waxman, HierarchicalConfig, Partition, RoutingMatrix,
    RoutingScheme, Topology, WaxmanConfig,
};
use proptest::prelude::*;

/// Strategy: a random strongly connected topology of `n` nodes — a ring
/// (guaranteeing connectivity) plus random chords with random weights.
fn topo_strategy() -> impl Strategy<Value = Topology> {
    (
        3usize..8,
        proptest::collection::vec((0usize..8, 0usize..8, 1u32..20), 0..10),
    )
        .prop_map(|(n, chords)| {
            let mut t = Topology::new("random");
            let ids: Vec<usize> = (0..n)
                .map(|k| t.add_node(format!("n{k}")).unwrap())
                .collect();
            for k in 0..n {
                t.add_symmetric_link(ids[k], ids[(k + 1) % n], 1.0 + (k % 3) as f64, 1e12)
                    .unwrap();
            }
            for (a, b, w) in chords {
                let (a, b) = (a % n, b % n);
                if a != b {
                    // Duplicate links are fine (parallel links exist in
                    // real networks).
                    t.add_symmetric_link(ids[a], ids[b], w as f64, 1e12)
                        .unwrap();
                }
            }
            t
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Conservation holds for every OD pair under both schemes.
    #[test]
    fn conservation_everywhere(topo in topo_strategy()) {
        for scheme in [RoutingScheme::SinglePath, RoutingScheme::Ecmp] {
            let r = RoutingMatrix::build(&topo, scheme).unwrap();
            let n = topo.node_count();
            for s in 0..n {
                for t in 0..n {
                    prop_assert!(
                        r.check_conservation(&topo, s, t),
                        "{scheme:?} violates conservation for {s}->{t}"
                    );
                }
            }
        }
    }

    /// ECMP fractions stay within [0, 1]; single-path entries are 0/1.
    #[test]
    fn fraction_domains(topo in topo_strategy()) {
        let ecmp = RoutingMatrix::build(&topo, RoutingScheme::Ecmp).unwrap();
        prop_assert!(ecmp
            .as_sparse()
            .to_dense()
            .as_slice()
            .iter()
            .all(|&v| (0.0..=1.0 + 1e-9).contains(&v)));
        let single = RoutingMatrix::build(&topo, RoutingScheme::SinglePath).unwrap();
        prop_assert!(single
            .as_sparse()
            .to_dense()
            .as_slice()
            .iter()
            .all(|&v| v == 0.0 || v == 1.0));
    }

    /// Link counts through the sparse routing matrix equal the dense
    /// matvec of the same matrix bit-for-bit.
    #[test]
    fn sparse_and_dense_routing_agree(topo in topo_strategy()) {
        for scheme in [RoutingScheme::SinglePath, RoutingScheme::Ecmp] {
            let r = RoutingMatrix::build(&topo, scheme).unwrap();
            let n2 = topo.od_pair_count();
            let x: Vec<f64> = (0..n2).map(|k| ((k * 13) % 11) as f64).collect();
            prop_assert_eq!(
                r.link_counts(&x).unwrap(),
                r.as_sparse().to_dense().matvec(&x).unwrap()
            );
        }
    }

    /// Same seed ⇒ same graph, for both scaled topology generators; a
    /// different seed changes the Waxman graph (the spanning tree and the
    /// chord set both depend on it).
    #[test]
    fn generators_deterministic_in_seed(
        nodes in 2usize..40,
        backbones in 1usize..8,
        pops in 0usize..5,
        seed in any::<u64>(),
    ) {
        let wax_cfg = WaxmanConfig::new(nodes, seed);
        let a = waxman(&wax_cfg).unwrap();
        prop_assert_eq!(&a, &waxman(&wax_cfg).unwrap());
        let hier_cfg = HierarchicalConfig::new(backbones, pops, seed);
        let h = hierarchical(&hier_cfg).unwrap();
        prop_assert_eq!(&h, &hierarchical(&hier_cfg).unwrap());
        prop_assert_eq!(h.node_count(), hier_cfg.node_count());
        // Generated graphs always validate (strong connectivity).
        prop_assert!(a.validate().is_ok());
        prop_assert!(h.validate().is_ok());
        // Routing them is deterministic too.
        let r1 = RoutingMatrix::build(&a, RoutingScheme::Ecmp).unwrap();
        let r2 = RoutingMatrix::build(&a, RoutingScheme::Ecmp).unwrap();
        prop_assert_eq!(r1.as_sparse(), r2.as_sparse());
    }

    /// A partition built from any assignment is a true partition: every
    /// node lands in exactly one cluster, and the boundary set is exactly
    /// the cut set of the assignment.
    #[test]
    fn partition_invariants_hold(
        topo in topo_strategy(),
        labels in proptest::collection::vec(0usize..5, 8),
        seed in any::<u64>(),
    ) {
        let n = topo.node_count();
        let assignment: Vec<usize> = labels[..n].to_vec();
        let ground = Partition::from_assignment(&topo, &assignment).unwrap();
        let lp = label_propagation(&topo, seed);
        for part in [&ground, &lp] {
            // Exactly one cluster per node, members sorted, ids dense.
            let mut seen = vec![0usize; n];
            for c in 0..part.cluster_count() {
                prop_assert!(!part.members(c).is_empty());
                prop_assert!(part.members(c).windows(2).all(|w| w[0] < w[1]));
                for &v in part.members(c) {
                    seen[v] += 1;
                    prop_assert_eq!(part.cluster_of(v), c);
                }
            }
            prop_assert!(seen.iter().all(|&s| s == 1));
            // Boundary links are exactly the cut set, in link-id order.
            let cut: Vec<usize> = topo
                .links()
                .iter()
                .enumerate()
                .filter(|(_, l)| part.cluster_of(l.from) != part.cluster_of(l.to))
                .map(|(id, _)| id)
                .collect();
            prop_assert_eq!(part.boundary_links(), cut.as_slice());
            // Intra links + boundary links cover the link set exactly.
            let intra: usize = (0..part.cluster_count())
                .map(|c| part.induced(&topo, c).unwrap().links.len())
                .sum();
            prop_assert_eq!(intra + cut.len(), topo.link_count());
        }
        // Label propagation is deterministic in its seed.
        prop_assert_eq!(&lp, &label_propagation(&topo, seed));
    }

    /// Link counts scale linearly with traffic: Y(c·x) = c·Y(x).
    #[test]
    fn link_counts_linear(topo in topo_strategy(), c in 0.1f64..10.0) {
        let r = RoutingMatrix::build(&topo, RoutingScheme::Ecmp).unwrap();
        let n = topo.node_count();
        let x: Vec<f64> = (0..n * n).map(|k| (k % 7) as f64 + 1.0).collect();
        let xc: Vec<f64> = x.iter().map(|&v| v * c).collect();
        let y = r.link_counts(&x).unwrap();
        let yc = r.link_counts(&xc).unwrap();
        for (a, b) in y.iter().zip(yc.iter()) {
            prop_assert!((a * c - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }

    /// Single-path routing never uses more total hop-bytes than ... ECMP
    /// and single-path agree on total traffic entering the network: the
    /// sum of access (ingress) counts is scheme-independent, and both
    /// schemes route along shortest paths, so per-OD hop counts (weighted
    /// path lengths in links) are equal whenever the tie-set has uniform
    /// hop length; in general ECMP's expected hop count can differ, but
    /// every individual OD column must still sum to at least 1 for
    /// distinct endpoints (at least one link crossed).
    #[test]
    fn od_columns_cross_at_least_one_link(topo in topo_strategy()) {
        let r = RoutingMatrix::build(&topo, RoutingScheme::Ecmp).unwrap();
        let n = topo.node_count();
        for s in 0..n {
            for t in 0..n {
                let hops: f64 = r.od_fractions(s, t).iter().sum();
                if s == t {
                    prop_assert_eq!(hops, 0.0);
                } else {
                    prop_assert!(hops >= 1.0 - 1e-9, "{s}->{t} hops {hops}");
                }
            }
        }
    }
}

proptest! {
    // Few cases: each builds graphs of thousands of nodes.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The generators stay deterministic at production scale (2k–5k
    /// nodes, the sizes the matrix-free PCG solver unlocks).
    /// Hierarchical generation is O(nodes), so both graphs of each case
    /// are cheap; Waxman's grid-bucketed sampler is O(nodes + links)
    /// expected RNG work but still materializes every drawn link, so it
    /// gets one modest scaled size per case instead of a sweep, and
    /// routing is deliberately not built here (a 5k-node all-pairs
    /// shortest path would dominate the suite).
    #[test]
    fn generators_deterministic_at_scale(
        backbones in 50usize..100,
        pops in 39usize..50,
        wax_nodes in 500usize..800,
        seed in any::<u64>(),
    ) {
        let cfg = HierarchicalConfig::new(backbones, pops, seed);
        prop_assert!((2000..=5000).contains(&cfg.node_count()));
        let a = hierarchical(&cfg).unwrap();
        prop_assert_eq!(a.node_count(), cfg.node_count());
        prop_assert!(a.validate().is_ok());
        prop_assert_eq!(&a, &hierarchical(&cfg).unwrap());

        let wax_cfg = WaxmanConfig::new(wax_nodes, seed);
        let w = waxman(&wax_cfg).unwrap();
        prop_assert_eq!(w.node_count(), wax_nodes);
        prop_assert!(w.validate().is_ok());
        prop_assert_eq!(&w, &waxman(&wax_cfg).unwrap());
    }
}
