//! `ic-serve`: a multi-tenant streaming estimation service.
//!
//! The crate turns the offline streaming stack ([`ic_stream`]) into a
//! long-running service: many independent tenants (each a registered
//! spec, a rolling tomogravity estimator, and the
//! [`ic_stream::WindowTracker`] the offline replay runs) ingest link-load
//! columns, and a batching core executes every ready window across
//! tenants as one shard list on a single shared [`ic_engine::Engine`].
//! Per-tenant results are bit-identical to running that tenant alone
//! through [`ic_stream::replay_estimation`], for any engine worker count.
//!
//! The crate splits into two halves:
//!
//! - a transport-free core — [`Service`] (tenants, batching, polling),
//!   [`TenantSpec`] (registration), [`TenantSnapshot`] (warm-state
//!   persistence), and the journal ([`Service::enable_journal`] /
//!   [`Service::replay_journal`]) — fully testable without sockets;
//! - a thin TCP front-end — [`Server`] (thread-per-connection over
//!   `std::net`), [`Client`], and the length-prefixed binary protocol in
//!   [`wire`].
//!
//! Two serving pillars:
//!
//! 1. **Warm-state snapshots.** [`Service::snapshot_tenant`] persists a
//!    tenant's complete fit/forecast/drift/window state with a versioned
//!    bit-exact codec; [`Service::restore_tenant`] brings it back such
//!    that every subsequent estimate is bit-identical to a service that
//!    never stopped.
//! 2. **Deterministic record/replay.** With the journal enabled, every
//!    registration, ingested column, and restore is recorded;
//!    [`Service::replay_journal`] re-feeds the journal through a fresh
//!    core offline and reproduces each tenant's window reports
//!    bit-identically — post-incident analysis without the service.
//!
//! # Examples
//!
//! ```
//! use ic_serve::{Service, TenantSpec};
//! use ic_topology::{RoutingScheme, Topology};
//!
//! let mut topo = Topology::new("pair");
//! let a = topo.add_node("a").unwrap();
//! let b = topo.add_node("b").unwrap();
//! topo.add_symmetric_link(a, b, 1.0, 1e12).unwrap();
//!
//! let mut service = Service::new();
//! let spec = TenantSpec::new("edge-pop", &topo, RoutingScheme::Ecmp)
//!     .with_window_bins(4);
//! let tenant = service.register(spec).unwrap();
//!
//! // Ingest four bins of a 2-node traffic matrix: one window becomes
//! // ready, and poll() runs it.
//! for t in 0..4 {
//!     let x = 1.0 + t as f64;
//!     service.ingest(tenant, vec![0.0, x, 2.0 * x, 0.0]).unwrap();
//! }
//! let events = service.poll().unwrap();
//! assert_eq!(events.len(), 1);
//! assert!(events[0].report.error_candidate.is_finite());
//! ```

pub mod client;
pub mod codec;
pub mod server;
pub mod service;
pub mod snapshot;
pub mod spec;
pub mod wire;

pub use client::{Client, Subscription};
pub use server::{Server, ServerHandle};
pub use service::{Service, TenantEvent, TenantId};
pub use snapshot::{TenantSnapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use spec::{LinkSpec, TenantSpec};
pub use wire::{EstimateFrame, Request, Response, StatsFormat, MAX_FRAME, PROTOCOL_VERSION};

use ic_estimation::EstimationError;
use ic_stream::StreamError;
use ic_topology::TopologyError;

/// Errors produced by the serving layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// A request was malformed or not executable in the current state.
    BadRequest(String),
    /// Encoded bytes (wire frame, snapshot, journal) failed to decode.
    Codec(String),
    /// The referenced tenant id is not registered.
    UnknownTenant(TenantId),
    /// A tenant with this name already exists.
    NameTaken(String),
    /// A socket or file operation failed.
    Io(std::io::Error),
    /// The server reported an error for a client request.
    Remote(String),
    /// The tenant's topology or routing was rejected.
    Topology(TopologyError),
    /// A per-window estimation failed.
    Estimation(EstimationError),
    /// The streaming layer rejected a configuration or window.
    Stream(StreamError),
}

impl ServeError {
    /// Stable kebab-case error class. Wire [`Response::Error`] payloads
    /// lead with this slug in square brackets (`[unknown-tenant] ...`),
    /// so clients and log greps can match the class without parsing the
    /// prose, which may change between releases. The slugs themselves
    /// never change spelling.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::BadRequest(_) => "bad-request",
            ServeError::Codec(_) => "codec",
            ServeError::UnknownTenant(_) => "unknown-tenant",
            ServeError::NameTaken(_) => "name-taken",
            ServeError::Io(_) => "io",
            ServeError::Remote(_) => "remote",
            ServeError::Topology(_) => "topology",
            ServeError::Estimation(_) => "estimation",
            ServeError::Stream(_) => "stream",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Codec(msg) => write!(f, "codec error: {msg}"),
            ServeError::UnknownTenant(id) => write!(f, "unknown tenant id {id}"),
            ServeError::NameTaken(name) => write!(f, "tenant name already taken: {name}"),
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Remote(msg) => write!(f, "server error: {msg}"),
            ServeError::Topology(e) => write!(f, "topology error: {e}"),
            ServeError::Estimation(e) => write!(f, "estimation error: {e}"),
            ServeError::Stream(e) => write!(f, "stream error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Topology(e) => Some(e),
            ServeError::Estimation(e) => Some(e),
            ServeError::Stream(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<TopologyError> for ServeError {
    fn from(e: TopologyError) -> Self {
        ServeError::Topology(e)
    }
}

impl From<EstimationError> for ServeError {
    fn from(e: EstimationError) -> Self {
        ServeError::Estimation(e)
    }
}

impl From<StreamError> for ServeError {
    fn from(e: StreamError) -> Self {
        ServeError::Stream(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_sources_cover_every_variant() {
        let io = ServeError::from(std::io::Error::other("x"));
        let cases: Vec<(ServeError, &str)> = vec![
            (ServeError::BadRequest("b".into()), "bad request"),
            (ServeError::Codec("c".into()), "codec error"),
            (ServeError::UnknownTenant(3), "unknown tenant"),
            (ServeError::NameTaken("t".into()), "already taken"),
            (io, "io error"),
            (ServeError::Remote("r".into()), "server error"),
            (
                ServeError::from(TopologyError::DuplicateNode("n".into())),
                "topology error",
            ),
            (
                ServeError::from(StreamError::BadConfig("bad")),
                "stream error",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
        }
        // The wire-stable class slugs never change spelling.
        assert_eq!(ServeError::BadRequest("b".into()).kind(), "bad-request");
        assert_eq!(ServeError::Codec("c".into()).kind(), "codec");
        assert_eq!(ServeError::UnknownTenant(3).kind(), "unknown-tenant");
        assert_eq!(ServeError::NameTaken("t".into()).kind(), "name-taken");
        assert_eq!(ServeError::Remote("r".into()).kind(), "remote");
        assert_eq!(
            ServeError::from(StreamError::BadConfig("bad")).kind(),
            "stream"
        );
        use std::error::Error;
        assert!(ServeError::Codec("c".into()).source().is_none());
        assert!(ServeError::from(StreamError::BadConfig("bad"))
            .source()
            .is_some());
    }
}
