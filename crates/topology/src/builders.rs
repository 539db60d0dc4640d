//! Ready-made topologies mirroring the paper's networks.
//!
//! The paper's datasets come from the Géant research backbone (22 PoPs in
//! the D1 NetFlow data, 23 in the Totem data where the `de` PoP is split
//! into `de1`/`de2`) and from the Abilene backbone (the D3 packet traces
//! were captured at the IPLS router on its links toward CLEV and KSCY).
//!
//! The precise 2004 link-level topologies are no longer distributed with
//! the retired datasets, so these builders reconstruct *plausible*
//! topologies of the right shape: correct PoP counts and names, a
//! European-geography backbone for Géant, and the canonical Abilene map
//! including the IPLS–CLEV and IPLS–KSCY adjacencies that the D3 trace
//! study instruments. The estimation experiments only require that `R`
//! be realistic (sparse, shortest-path, rank-deficient), not that it match
//! the historical wiring link-for-link; DESIGN.md records this
//! substitution.

use crate::graph::Topology;

/// Default link capacity: 10 Gbit/s expressed in bytes per 5-minute bin.
const CAP_10G_5MIN: f64 = 10.0e9 / 8.0 * 300.0;

fn must_add(topo: &mut Topology, names: &[&str]) {
    for name in names {
        topo.add_node(*name).expect("builder names are unique");
    }
}

fn must_link(topo: &mut Topology, a: &str, b: &str, w: f64) {
    let ia = topo
        .node_by_name(a)
        .expect("builder links reference known nodes");
    let ib = topo
        .node_by_name(b)
        .expect("builder links reference known nodes");
    topo.add_symmetric_link(ia, ib, w, CAP_10G_5MIN)
        .expect("builder links are valid");
}

/// The 22-PoP Géant-like topology backing the synthetic D1 dataset.
///
/// PoPs are named by country code, matching the description of the Géant
/// network ("22 PoPs, located in almost all major European capitals").
///
/// # Examples
///
/// ```
/// use ic_topology::geant22;
///
/// let topo = geant22();
/// assert_eq!(topo.node_count(), 22);
/// topo.validate().unwrap();
/// ```
pub fn geant22() -> Topology {
    let mut t = Topology::new("geant22");
    must_add(
        &mut t,
        &[
            "at", "be", "ch", "cz", "de", "es", "fr", "gr", "hr", "hu", "ie", "il", "it", "lu",
            "nl", "no", "pl", "pt", "se", "si", "sk", "uk",
        ],
    );
    add_geant_links(&mut t, "de");
    t.validate().expect("geant22 is strongly connected");
    t
}

/// The 23-PoP Totem variant of the Géant topology backing the synthetic D2
/// dataset: the `de` PoP is split into `de1` and `de2` (the paper: "the PoP
/// 'de' in D1 is split into two PoPs ('de1', 'de2') in D2").
pub fn totem23() -> Topology {
    let mut t = Topology::new("totem23");
    must_add(
        &mut t,
        &[
            "at", "be", "ch", "cz", "de1", "de2", "es", "fr", "gr", "hr", "hu", "ie", "il", "it",
            "lu", "nl", "no", "pl", "pt", "se", "si", "sk", "uk",
        ],
    );
    // de1 takes the western adjacencies, de2 the eastern; they connect to
    // each other with a cheap intra-city link.
    add_geant_links_split_de(&mut t);
    t.validate().expect("totem23 is strongly connected");
    t
}

/// Shared European backbone used by both Géant builders; `de` is a single
/// PoP here.
fn add_geant_links(t: &mut Topology, de: &str) {
    // Western core mesh.
    must_link(t, de, "fr", 10.0);
    must_link(t, de, "nl", 8.0);
    must_link(t, de, "it", 14.0);
    must_link(t, de, "at", 8.0);
    must_link(t, de, "ch", 9.0);
    must_link(t, de, "pl", 10.0);
    must_link(t, de, "se", 12.0);
    must_link(t, de, "lu", 5.0);
    must_link(t, "fr", "uk", 9.0);
    must_link(t, "fr", "ch", 8.0);
    must_link(t, "fr", "es", 11.0);
    must_link(t, "fr", "be", 6.0);
    must_link(t, "fr", "lu", 5.0);
    must_link(t, "uk", "nl", 8.0);
    must_link(t, "uk", "ie", 7.0);
    must_link(t, "uk", "no", 13.0);
    must_link(t, "nl", "be", 5.0);
    must_link(t, "it", "ch", 9.0);
    must_link(t, "it", "gr", 15.0);
    must_link(t, "it", "il", 20.0);
    must_link(t, "it", "si", 7.0);
    must_link(t, "at", "hu", 6.0);
    must_link(t, "at", "si", 5.0);
    must_link(t, "at", "cz", 6.0);
    must_link(t, "at", "hr", 7.0);
    must_link(t, "cz", "sk", 5.0);
    must_link(t, "cz", "pl", 7.0);
    must_link(t, "hu", "sk", 5.0);
    must_link(t, "hu", "hr", 6.0);
    must_link(t, "es", "pt", 7.0);
    must_link(t, "se", "no", 6.0);
    must_link(t, "gr", "at", 14.0);
    must_link(t, "pt", "uk", 14.0);
}

/// Totem variant: the de adjacencies split between `de1` (west) and `de2`
/// (east), with an intra-city pair.
fn add_geant_links_split_de(t: &mut Topology) {
    must_link(t, "de1", "de2", 1.0);
    // de1 keeps the western links.
    must_link(t, "de1", "fr", 10.0);
    must_link(t, "de1", "nl", 8.0);
    must_link(t, "de1", "ch", 9.0);
    must_link(t, "de1", "lu", 5.0);
    must_link(t, "de1", "it", 14.0);
    // de2 keeps the eastern/northern links.
    must_link(t, "de2", "at", 8.0);
    must_link(t, "de2", "pl", 10.0);
    must_link(t, "de2", "se", 12.0);
    // Remaining European mesh, identical to geant22.
    must_link(t, "fr", "uk", 9.0);
    must_link(t, "fr", "ch", 8.0);
    must_link(t, "fr", "es", 11.0);
    must_link(t, "fr", "be", 6.0);
    must_link(t, "fr", "lu", 5.0);
    must_link(t, "uk", "nl", 8.0);
    must_link(t, "uk", "ie", 7.0);
    must_link(t, "uk", "no", 13.0);
    must_link(t, "nl", "be", 5.0);
    must_link(t, "it", "ch", 9.0);
    must_link(t, "it", "gr", 15.0);
    must_link(t, "it", "il", 20.0);
    must_link(t, "it", "si", 7.0);
    must_link(t, "at", "hu", 6.0);
    must_link(t, "at", "si", 5.0);
    must_link(t, "at", "cz", 6.0);
    must_link(t, "at", "hr", 7.0);
    must_link(t, "cz", "sk", 5.0);
    must_link(t, "cz", "pl", 7.0);
    must_link(t, "hu", "sk", 5.0);
    must_link(t, "hu", "hr", 6.0);
    must_link(t, "es", "pt", 7.0);
    must_link(t, "se", "no", 6.0);
    must_link(t, "gr", "at", 14.0);
    must_link(t, "pt", "uk", 14.0);
}

/// The 11-node Abilene backbone, including the IPLS–CLEV and IPLS–KSCY
/// links instrumented by the D3 packet traces.
pub fn abilene() -> Topology {
    let mut t = Topology::new("abilene");
    must_add(
        &mut t,
        &[
            "STTL", "SNVA", "LOSA", "DNVR", "HSTN", "KSCY", "IPLS", "CLEV", "ATLA", "NYCM", "WASH",
        ],
    );
    must_link(&mut t, "STTL", "SNVA", 10.0);
    must_link(&mut t, "STTL", "DNVR", 9.0);
    must_link(&mut t, "SNVA", "LOSA", 6.0);
    must_link(&mut t, "SNVA", "DNVR", 11.0);
    must_link(&mut t, "LOSA", "HSTN", 14.0);
    must_link(&mut t, "DNVR", "KSCY", 7.0);
    must_link(&mut t, "HSTN", "KSCY", 8.0);
    must_link(&mut t, "HSTN", "ATLA", 10.0);
    must_link(&mut t, "KSCY", "IPLS", 6.0);
    must_link(&mut t, "IPLS", "CLEV", 5.0);
    must_link(&mut t, "IPLS", "ATLA", 8.0);
    must_link(&mut t, "CLEV", "NYCM", 6.0);
    must_link(&mut t, "ATLA", "WASH", 8.0);
    must_link(&mut t, "NYCM", "WASH", 4.0);
    t.validate().expect("abilene is strongly connected");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{RoutingMatrix, RoutingScheme};

    #[test]
    fn geant22_shape() {
        let t = geant22();
        assert_eq!(t.node_count(), 22);
        assert!(t.validate().is_ok());
        assert!(t.node_by_name("de").is_some());
        assert!(t.node_by_name("de1").is_none());
        // All names are 2-letter country codes.
        assert!(t.node_names().iter().all(|n| n.len() == 2));
    }

    #[test]
    fn totem23_shape() {
        let t = totem23();
        assert_eq!(t.node_count(), 23);
        assert!(t.validate().is_ok());
        assert!(t.node_by_name("de").is_none());
        assert!(t.node_by_name("de1").is_some());
        assert!(t.node_by_name("de2").is_some());
    }

    #[test]
    fn totem_is_geant_with_de_split() {
        let g = geant22();
        let t = totem23();
        // All geant nodes except de appear in totem.
        for name in g.node_names() {
            if name != "de" {
                assert!(t.node_by_name(name).is_some(), "{name} missing in totem");
            }
        }
        assert_eq!(t.node_count(), g.node_count() + 1);
    }

    #[test]
    fn abilene_shape() {
        let t = abilene();
        assert_eq!(t.node_count(), 11);
        assert!(t.validate().is_ok());
        // The D3 study needs IPLS adjacent to both CLEV and KSCY.
        let ipls = t.node_by_name("IPLS").unwrap();
        let clev = t.node_by_name("CLEV").unwrap();
        let kscy = t.node_by_name("KSCY").unwrap();
        let neighbors: Vec<usize> = t.out_links(ipls).map(|(_, l)| l.to).collect();
        assert!(neighbors.contains(&clev));
        assert!(neighbors.contains(&kscy));
    }

    #[test]
    fn all_builders_route_under_both_schemes() {
        for topo in [geant22(), totem23(), abilene()] {
            for scheme in [RoutingScheme::SinglePath, RoutingScheme::Ecmp] {
                let r = RoutingMatrix::build(&topo, scheme).unwrap();
                assert_eq!(r.link_count(), topo.link_count());
                assert_eq!(r.as_sparse().cols(), topo.od_pair_count());
            }
        }
    }

    #[test]
    fn builders_are_deterministic() {
        assert_eq!(geant22(), geant22());
        assert_eq!(totem23(), totem23());
        assert_eq!(abilene(), abilene());
    }

    #[test]
    fn link_counts_are_even() {
        // All links are added symmetrically.
        assert_eq!(geant22().link_count() % 2, 0);
        assert_eq!(totem23().link_count() % 2, 0);
        assert_eq!(abilene().link_count() % 2, 0);
    }
}
