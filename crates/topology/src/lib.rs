//! # ic-topology — network topology and routing substrate
//!
//! The traffic-matrix estimation problem (paper Section 6) is posed on the
//! linear system `Y = R x`: `Y` the vector of SNMP link counts, `x` the
//! traffic matrix organized as a vector, `R` the routing matrix whose
//! element `R[r][s]` is the fraction of OD pair `s`'s traffic that crosses
//! link `r`. Operators obtain `R` "by computing shortest paths using IGP
//! link weights together with the network topology information"; this crate
//! rebuilds exactly those objects:
//!
//! * [`graph`] — a PoP-level [`graph::Topology`] of nodes and
//!   weighted directed links, with validation,
//! * [`routing`] — Dijkstra shortest paths with either deterministic
//!   single-path routing or exact ECMP fractional splitting, producing a
//!   [`routing::RoutingMatrix`] plus the ingress/egress
//!   incidence operators `H` and `G` of Section 6.2,
//! * [`builders`] — ready-made topologies mirroring the paper's networks:
//!   a 22-PoP Géant, the 23-PoP Totem variant (`de` split into
//!   `de1`/`de2`), and the 11-node Abilene backbone,
//! * [`generators`] — seeded synthetic topology generators for scale
//!   sweeps beyond PoP size: Waxman-style random geometric graphs and
//!   hierarchical backbone/PoP networks from tens to hundreds of nodes,
//! * [`partition`] — cluster partitions of a topology (ground-truth or
//!   seeded label propagation), with boundary-link extraction, induced
//!   intra-cluster sub-topologies, and the coarse inter-cluster quotient
//!   topology that multilevel estimation solves.
//!
//! ## OD-pair vectorization convention
//!
//! Everywhere in this workspace a traffic matrix `X` over `n` nodes is
//! vectorized **row-major**: OD pair `(i, j)` lives at index `i * n + j`,
//! including the self-pairs `(i, i)` (whose traffic stays at the access
//! point and crosses no backbone link).

pub mod builders;
pub mod generators;
pub mod graph;
pub mod partition;
pub mod routing;

pub use builders::{abilene, geant22, totem23};
pub use generators::{hierarchical, waxman, HierarchicalConfig, WaxmanConfig};
pub use graph::{LinkId, NodeId, Topology};
pub use partition::{label_propagation, ClusterId, InducedCluster, Partition, Quotient};
pub use routing::{
    egress_incidence_sparse, ingress_incidence_sparse, RoutingMatrix, RoutingScheme,
};

/// Errors produced by topology and routing routines.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// A node name was added twice.
    DuplicateNode(String),
    /// A link references a node that does not exist.
    UnknownNode(String),
    /// A link weight or capacity is out of domain.
    InvalidLink {
        /// Source node name.
        from: String,
        /// Destination node name.
        to: String,
        /// What was wrong.
        reason: &'static str,
    },
    /// The topology is not strongly connected, so some OD pairs cannot be
    /// routed.
    Disconnected {
        /// A representative unreachable pair.
        from: String,
        /// Destination of the unreachable pair.
        to: String,
    },
    /// The topology has no nodes.
    Empty,
    /// A cluster assignment does not form a valid partition of the
    /// topology (wrong length, unknown cluster, or a quotient that is not
    /// strongly connected).
    InvalidPartition(&'static str),
}

impl core::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TopologyError::DuplicateNode(name) => write!(f, "duplicate node name {name:?}"),
            TopologyError::UnknownNode(name) => write!(f, "unknown node name {name:?}"),
            TopologyError::InvalidLink { from, to, reason } => {
                write!(f, "invalid link {from} -> {to}: {reason}")
            }
            TopologyError::Disconnected { from, to } => {
                write!(
                    f,
                    "topology is not strongly connected: no path {from} -> {to}"
                )
            }
            TopologyError::Empty => write!(f, "topology has no nodes"),
            TopologyError::InvalidPartition(reason) => {
                write!(f, "invalid partition: {reason}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Convenience result alias for this crate.
pub type Result<T> = core::result::Result<T, TopologyError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_all_variants() {
        assert!(TopologyError::DuplicateNode("de".into())
            .to_string()
            .contains("de"));
        assert!(TopologyError::UnknownNode("xx".into())
            .to_string()
            .contains("xx"));
        assert!(TopologyError::InvalidLink {
            from: "a".into(),
            to: "b".into(),
            reason: "negative weight"
        }
        .to_string()
        .contains("negative weight"));
        assert!(TopologyError::Disconnected {
            from: "a".into(),
            to: "b".into()
        }
        .to_string()
        .contains("strongly connected"));
        assert!(TopologyError::Empty.to_string().contains("no nodes"));
        assert!(TopologyError::InvalidPartition("bad length")
            .to_string()
            .contains("bad length"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes(_: &dyn std::error::Error) {}
        takes(&TopologyError::Empty);
    }
}
