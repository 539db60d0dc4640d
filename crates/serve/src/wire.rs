//! The length-prefixed binary wire protocol.
//!
//! Frames are `u32` little-endian payload length + payload; a payload is
//! one opcode byte + body, encoded with [`crate::codec`]. The protocol is
//! strictly request/response per connection, except after
//! [`Request::Subscribe`]: the server then pushes [`Response::Events`]
//! frames as polls complete windows. Everything round-trips bit-exactly
//! (proptest-locked), so the TCP front-end adds no numeric surface — the
//! bytes a client decodes are the bits the [`crate::Service`] computed.

use crate::codec::{Dec, Enc};
use crate::service::{TenantEvent, TenantId};
use crate::spec::TenantSpec;
use crate::{Result, ServeError};
use ic_core::TmSeries;
use ic_linalg::SolveStats;
use ic_stream::{DriftEvent, DriftKind, ParamForecast, WindowEstimate, WindowReport};
use std::io::{Read, Write};

/// Protocol version exchanged in [`Request::Hello`]. Version 2 added
/// solver-health counters to window reports, the [`Request::Stats`]
/// observability endpoint, and the batched-execution pair (a batch-width
/// `usize` and a precision byte) to the tenant spec of
/// [`Request::Register`].
/// Version 3 drops that pair again; the per-bin path is now the only one.
pub const PROTOCOL_VERSION: u32 = 3;

/// Upper bound on a frame payload (corrupt-length guard).
pub const MAX_FRAME: usize = 1 << 28;

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Version/liveness handshake.
    Hello,
    /// Registers a new tenant.
    Register(Box<TenantSpec>),
    /// Ingests one link-load column for a tenant.
    Ingest {
        /// Target tenant.
        tenant: TenantId,
        /// Row-major `nodes²` traffic-matrix column.
        column: Vec<f64>,
    },
    /// Executes every ready window and returns the events.
    Poll,
    /// The tenant's most recent window report.
    Report {
        /// Target tenant.
        tenant: TenantId,
    },
    /// The tenant's most recent window estimate (full series).
    Estimate {
        /// Target tenant.
        tenant: TenantId,
    },
    /// The tenant's next-window parameter forecast.
    Forecast {
        /// Target tenant.
        tenant: TenantId,
    },
    /// Snapshots the tenant's warm state.
    Snapshot {
        /// Target tenant.
        tenant: TenantId,
    },
    /// Restores a tenant from snapshot bytes.
    Restore(Vec<u8>),
    /// Switches this connection to push mode: the server streams
    /// [`Response::Events`] frames as polls complete windows.
    Subscribe,
    /// Stops the server.
    Shutdown,
    /// Renders the server's metrics registry (counters, histograms,
    /// structured events) in the requested text format.
    Stats {
        /// The rendering to return.
        format: StatsFormat,
    },
}

/// Text format for a [`Request::Stats`] reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsFormat {
    /// Prometheus text exposition (scrape-ready).
    Prometheus,
    /// One JSON object (counters, gauges, histograms, events).
    Json,
}

impl StatsFormat {
    /// Stable lowercase name (the CLI flag spelling).
    pub fn as_str(&self) -> &'static str {
        match self {
            StatsFormat::Prometheus => "prometheus",
            StatsFormat::Json => "json",
        }
    }
}

impl std::fmt::Display for StatsFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A window estimate on the wire: the estimated series plus its error.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateFrame {
    /// Window sequence number.
    pub window: u64,
    /// Global stream index of the window's first bin.
    pub start_bin: u64,
    /// Nodes in the tenant's topology.
    pub nodes: u64,
    /// Bins in the window.
    pub bins: u64,
    /// Seconds per bin.
    pub bin_seconds: f64,
    /// The estimated series, row-major `nodes² × bins` (column per bin).
    pub data: Vec<f64>,
    /// Mean relative ℓ² error against the window's own series.
    pub error: f64,
}

impl EstimateFrame {
    /// Builds the frame from a service-side estimate.
    pub fn from_estimate(est: &WindowEstimate) -> Self {
        EstimateFrame {
            window: est.window as u64,
            start_bin: est.start_bin as u64,
            nodes: est.estimate.nodes() as u64,
            bins: est.estimate.bins() as u64,
            bin_seconds: est.estimate.bin_seconds(),
            data: est.estimate.as_matrix().as_slice().to_vec(),
            error: est.error,
        }
    }

    /// Reconstructs the estimated series.
    pub fn to_series(&self) -> Result<TmSeries> {
        let matrix = ic_linalg::Matrix::from_vec(
            (self.nodes * self.nodes) as usize,
            self.bins as usize,
            self.data.clone(),
        )
        .map_err(|e| ServeError::Codec(format!("estimate frame shape: {e}")))?;
        TmSeries::from_matrix(self.nodes as usize, self.bin_seconds, matrix)
            .map_err(|e| ServeError::Codec(format!("estimate frame series: {e}")))
    }
}

/// A server response. [`Response::Error`] carries any request's failure.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request failed service-side.
    Error(String),
    /// Handshake reply.
    HelloOk {
        /// Server protocol version.
        protocol: u32,
        /// Registered tenants.
        tenants: u32,
    },
    /// Tenant registered.
    Registered {
        /// The assigned id.
        tenant: TenantId,
    },
    /// Column ingested.
    Ingested {
        /// The tenant's ready-window count after the push.
        ready: u64,
    },
    /// Completed-window events (poll reply and subscriber push frame).
    Events(Vec<TenantEvent>),
    /// Most recent report, when one exists.
    Report(Option<WindowReport>),
    /// Most recent estimate, when one exists.
    Estimate(Option<Box<EstimateFrame>>),
    /// Next-window forecast, when history exists.
    Forecast(Option<ParamForecast>),
    /// Snapshot bytes.
    Snapshot(Vec<u8>),
    /// Tenant restored from snapshot.
    Restored {
        /// The assigned id.
        tenant: TenantId,
    },
    /// Connection switched to push mode.
    Subscribed,
    /// Server is shutting down.
    ShutdownOk,
    /// Rendered metrics text in the requested [`StatsFormat`].
    Stats(String),
}

// --- request/response opcodes ------------------------------------------

const REQ_HELLO: u8 = 1;
const REQ_REGISTER: u8 = 2;
const REQ_INGEST: u8 = 3;
const REQ_POLL: u8 = 4;
const REQ_REPORT: u8 = 5;
const REQ_ESTIMATE: u8 = 6;
const REQ_FORECAST: u8 = 7;
const REQ_SNAPSHOT: u8 = 8;
const REQ_RESTORE: u8 = 9;
const REQ_SUBSCRIBE: u8 = 10;
const REQ_SHUTDOWN: u8 = 11;
const REQ_STATS: u8 = 12;

const RESP_ERROR: u8 = 0;
const RESP_HELLO: u8 = 1;
const RESP_REGISTERED: u8 = 2;
const RESP_INGESTED: u8 = 3;
const RESP_EVENTS: u8 = 4;
const RESP_REPORT: u8 = 5;
const RESP_ESTIMATE: u8 = 6;
const RESP_FORECAST: u8 = 7;
const RESP_SNAPSHOT: u8 = 8;
const RESP_RESTORED: u8 = 9;
const RESP_SUBSCRIBED: u8 = 10;
const RESP_SHUTDOWN: u8 = 11;
const RESP_STATS: u8 = 12;

const STATS_FORMAT_PROMETHEUS: u8 = 0;
const STATS_FORMAT_JSON: u8 = 1;

impl Request {
    /// Encodes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Request::Hello => e.put_u8(REQ_HELLO),
            Request::Register(spec) => {
                e.put_u8(REQ_REGISTER);
                spec.encode(&mut e);
            }
            Request::Ingest { tenant, column } => {
                e.put_u8(REQ_INGEST);
                e.put_u32(*tenant);
                e.put_f64s(column);
            }
            Request::Poll => e.put_u8(REQ_POLL),
            Request::Report { tenant } => {
                e.put_u8(REQ_REPORT);
                e.put_u32(*tenant);
            }
            Request::Estimate { tenant } => {
                e.put_u8(REQ_ESTIMATE);
                e.put_u32(*tenant);
            }
            Request::Forecast { tenant } => {
                e.put_u8(REQ_FORECAST);
                e.put_u32(*tenant);
            }
            Request::Snapshot { tenant } => {
                e.put_u8(REQ_SNAPSHOT);
                e.put_u32(*tenant);
            }
            Request::Restore(bytes) => {
                e.put_u8(REQ_RESTORE);
                e.put_bytes(bytes);
            }
            Request::Subscribe => e.put_u8(REQ_SUBSCRIBE),
            Request::Shutdown => e.put_u8(REQ_SHUTDOWN),
            Request::Stats { format } => {
                e.put_u8(REQ_STATS);
                e.put_u8(match format {
                    StatsFormat::Prometheus => STATS_FORMAT_PROMETHEUS,
                    StatsFormat::Json => STATS_FORMAT_JSON,
                });
            }
        }
        e.into_bytes()
    }

    /// Decodes a frame payload into a request.
    pub fn decode(payload: &[u8]) -> Result<Self> {
        let mut d = Dec::new(payload);
        let req = match d.take_u8()? {
            REQ_HELLO => Request::Hello,
            REQ_REGISTER => Request::Register(Box::new(TenantSpec::decode(&mut d)?)),
            REQ_INGEST => Request::Ingest {
                tenant: d.take_u32()?,
                column: d.take_f64s()?,
            },
            REQ_POLL => Request::Poll,
            REQ_REPORT => Request::Report {
                tenant: d.take_u32()?,
            },
            REQ_ESTIMATE => Request::Estimate {
                tenant: d.take_u32()?,
            },
            REQ_FORECAST => Request::Forecast {
                tenant: d.take_u32()?,
            },
            REQ_SNAPSHOT => Request::Snapshot {
                tenant: d.take_u32()?,
            },
            REQ_RESTORE => Request::Restore(d.take_bytes()?),
            REQ_SUBSCRIBE => Request::Subscribe,
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_STATS => Request::Stats {
                format: match d.take_u8()? {
                    STATS_FORMAT_PROMETHEUS => StatsFormat::Prometheus,
                    STATS_FORMAT_JSON => StatsFormat::Json,
                    b => {
                        return Err(ServeError::Codec(format!("unknown stats format byte {b}")));
                    }
                },
            },
            op => return Err(ServeError::Codec(format!("unknown request opcode {op}"))),
        };
        d.expect_end()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Response::Error(msg) => {
                e.put_u8(RESP_ERROR);
                e.put_str(msg);
            }
            Response::HelloOk { protocol, tenants } => {
                e.put_u8(RESP_HELLO);
                e.put_u32(*protocol);
                e.put_u32(*tenants);
            }
            Response::Registered { tenant } => {
                e.put_u8(RESP_REGISTERED);
                e.put_u32(*tenant);
            }
            Response::Ingested { ready } => {
                e.put_u8(RESP_INGESTED);
                e.put_u64(*ready);
            }
            Response::Events(events) => {
                e.put_u8(RESP_EVENTS);
                e.put_usize(events.len());
                for ev in events {
                    encode_event(&mut e, ev);
                }
            }
            Response::Report(report) => {
                e.put_u8(RESP_REPORT);
                match report {
                    Some(r) => {
                        e.put_bool(true);
                        encode_window_report(&mut e, r);
                    }
                    None => e.put_bool(false),
                }
            }
            Response::Estimate(frame) => {
                e.put_u8(RESP_ESTIMATE);
                match frame {
                    Some(f) => {
                        e.put_bool(true);
                        e.put_u64(f.window);
                        e.put_u64(f.start_bin);
                        e.put_u64(f.nodes);
                        e.put_u64(f.bins);
                        e.put_f64(f.bin_seconds);
                        e.put_f64s(&f.data);
                        e.put_f64(f.error);
                    }
                    None => e.put_bool(false),
                }
            }
            Response::Forecast(forecast) => {
                e.put_u8(RESP_FORECAST);
                match forecast {
                    Some(fc) => {
                        e.put_bool(true);
                        e.put_f64(fc.f);
                        e.put_f64s(&fc.preference);
                    }
                    None => e.put_bool(false),
                }
            }
            Response::Snapshot(bytes) => {
                e.put_u8(RESP_SNAPSHOT);
                e.put_bytes(bytes);
            }
            Response::Restored { tenant } => {
                e.put_u8(RESP_RESTORED);
                e.put_u32(*tenant);
            }
            Response::Subscribed => e.put_u8(RESP_SUBSCRIBED),
            Response::ShutdownOk => e.put_u8(RESP_SHUTDOWN),
            Response::Stats(text) => {
                e.put_u8(RESP_STATS);
                e.put_str(text);
            }
        }
        e.into_bytes()
    }

    /// Decodes a frame payload into a response.
    pub fn decode(payload: &[u8]) -> Result<Self> {
        let mut d = Dec::new(payload);
        let resp = match d.take_u8()? {
            RESP_ERROR => Response::Error(d.take_str()?),
            RESP_HELLO => Response::HelloOk {
                protocol: d.take_u32()?,
                tenants: d.take_u32()?,
            },
            RESP_REGISTERED => Response::Registered {
                tenant: d.take_u32()?,
            },
            RESP_INGESTED => Response::Ingested {
                ready: d.take_u64()?,
            },
            RESP_EVENTS => {
                let count = d.take_usize()?;
                let mut events = Vec::with_capacity(count.min(1 << 20));
                for _ in 0..count {
                    events.push(decode_event(&mut d)?);
                }
                Response::Events(events)
            }
            RESP_REPORT => Response::Report(if d.take_bool()? {
                Some(decode_window_report(&mut d)?)
            } else {
                None
            }),
            RESP_ESTIMATE => Response::Estimate(if d.take_bool()? {
                Some(Box::new(EstimateFrame {
                    window: d.take_u64()?,
                    start_bin: d.take_u64()?,
                    nodes: d.take_u64()?,
                    bins: d.take_u64()?,
                    bin_seconds: d.take_f64()?,
                    data: d.take_f64s()?,
                    error: d.take_f64()?,
                }))
            } else {
                None
            }),
            RESP_FORECAST => Response::Forecast(if d.take_bool()? {
                Some(ParamForecast {
                    f: d.take_f64()?,
                    preference: d.take_f64s()?,
                })
            } else {
                None
            }),
            RESP_SNAPSHOT => Response::Snapshot(d.take_bytes()?),
            RESP_RESTORED => Response::Restored {
                tenant: d.take_u32()?,
            },
            RESP_SUBSCRIBED => Response::Subscribed,
            RESP_SHUTDOWN => Response::ShutdownOk,
            RESP_STATS => Response::Stats(d.take_str()?),
            op => return Err(ServeError::Codec(format!("unknown response opcode {op}"))),
        };
        d.expect_end()?;
        Ok(resp)
    }
}

fn encode_event(e: &mut Enc, ev: &TenantEvent) {
    e.put_u32(ev.tenant);
    e.put_str(&ev.name);
    encode_window_report(e, &ev.report);
}

fn decode_event(d: &mut Dec<'_>) -> Result<TenantEvent> {
    Ok(TenantEvent {
        tenant: d.take_u32()?,
        name: d.take_str()?,
        report: decode_window_report(d)?,
    })
}

/// Encodes a [`WindowReport`] (shared by events and report replies).
pub fn encode_window_report(e: &mut Enc, r: &WindowReport) {
    e.put_usize(r.window);
    e.put_usize(r.start_bin);
    e.put_usize(r.bins);
    e.put_f64(r.fitted_f);
    e.put_f64(r.fit_objective);
    e.put_usize(r.sweeps);
    e.put_bool(r.warm);
    e.put_f64(r.error_candidate);
    e.put_f64(r.error_gravity);
    e.put_f64(r.improvement);
    e.put_opt_f64(r.forecast_f_error);
    e.put_usize(r.drift_events.len());
    for ev in &r.drift_events {
        e.put_u8(match ev.kind {
            DriftKind::ForwardRatioTrend => 0,
            DriftKind::ForwardRatioJump => 1,
            DriftKind::PreferenceDecorrelation => 2,
        });
        e.put_usize(ev.window);
        e.put_f64(ev.statistic);
    }
    e.put_u64(r.solve_stats.dense_solves);
    e.put_u64(r.solve_stats.pcg_solves);
    e.put_u64(r.solve_stats.pcg_iterations);
    e.put_u64(r.solve_stats.pcg_stalls);
    e.put_u64(r.solve_stats.fallbacks);
}

/// Decodes a [`WindowReport`].
pub fn decode_window_report(d: &mut Dec<'_>) -> Result<WindowReport> {
    let window = d.take_usize()?;
    let start_bin = d.take_usize()?;
    let bins = d.take_usize()?;
    let fitted_f = d.take_f64()?;
    let fit_objective = d.take_f64()?;
    let sweeps = d.take_usize()?;
    let warm = d.take_bool()?;
    let error_candidate = d.take_f64()?;
    let error_gravity = d.take_f64()?;
    let improvement = d.take_f64()?;
    let forecast_f_error = d.take_opt_f64()?;
    let count = d.take_usize()?;
    let mut drift_events = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let kind = match d.take_u8()? {
            0 => DriftKind::ForwardRatioTrend,
            1 => DriftKind::ForwardRatioJump,
            2 => DriftKind::PreferenceDecorrelation,
            b => return Err(ServeError::Codec(format!("unknown drift kind byte {b}"))),
        };
        drift_events.push(DriftEvent {
            kind,
            window: d.take_usize()?,
            statistic: d.take_f64()?,
        });
    }
    let solve_stats = SolveStats {
        dense_solves: d.take_u64()?,
        pcg_solves: d.take_u64()?,
        pcg_iterations: d.take_u64()?,
        pcg_stalls: d.take_u64()?,
        fallbacks: d.take_u64()?,
    };
    Ok(WindowReport {
        window,
        start_bin,
        bins,
        fitted_f,
        fit_objective,
        sweeps,
        warm,
        error_candidate,
        error_gravity,
        improvement,
        forecast_f_error,
        drift_events,
        solve_stats,
    })
}

// --- frame I/O ----------------------------------------------------------

/// Largest capacity a frame body buffer starts with. It grows only as body
/// bytes arrive, so a header alone cannot make the reader allocate
/// `MAX_FRAME`.
const FIRST_BODY_CAPACITY: usize = 64 << 10;

/// Writes one length-prefixed frame as a single `write_all` of prefix plus
/// payload. A frame split into two writes would hold its payload back until
/// the peer's delayed ACK of the prefix arrived.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(ServeError::BadRequest(format!(
            "frame of {} bytes exceeds MAX_FRAME",
            payload.len()
        )));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame. Returns `None` on clean EOF (the
/// peer closed between frames); a mid-frame EOF is an error. The body
/// buffer starts at no more than 64 KiB and grows only as bytes arrive.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut header[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(ServeError::Codec("EOF inside frame header".into()));
            }
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(ServeError::Codec(format!(
            "frame length {len} exceeds MAX_FRAME"
        )));
    }
    let mut payload = Vec::with_capacity(len.min(FIRST_BODY_CAPACITY));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(ServeError::Codec(format!(
            "EOF inside frame body after {} of {len} bytes",
            payload.len()
        )));
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_topology::{RoutingScheme, Topology};
    use proptest::prelude::*;

    fn spec() -> TenantSpec {
        let mut t = Topology::new("pair");
        let a = t.add_node("a").unwrap();
        let b = t.add_node("b").unwrap();
        t.add_symmetric_link(a, b, 1.0, 1e12).unwrap();
        TenantSpec::new("t0", &t, RoutingScheme::Ecmp).with_window_bins(4)
    }

    fn report(drift: bool) -> WindowReport {
        WindowReport {
            window: 3,
            start_bin: 12,
            bins: 4,
            fitted_f: 0.27,
            fit_objective: 0.004,
            sweeps: 5,
            warm: true,
            error_candidate: 0.11,
            error_gravity: 0.4,
            improvement: 72.5,
            forecast_f_error: Some(0.002),
            drift_events: if drift {
                vec![
                    DriftEvent {
                        window: 3,
                        kind: DriftKind::ForwardRatioJump,
                        statistic: 0.09,
                    },
                    DriftEvent {
                        window: 3,
                        kind: DriftKind::PreferenceDecorrelation,
                        statistic: 0.8,
                    },
                ]
            } else {
                Vec::new()
            },
            solve_stats: SolveStats {
                dense_solves: 1,
                pcg_solves: 8,
                pcg_iterations: 95,
                pcg_stalls: 1,
                fallbacks: 0,
            },
        }
    }

    #[test]
    fn every_request_round_trips() {
        let requests = vec![
            Request::Hello,
            Request::Register(Box::new(spec())),
            Request::Ingest {
                tenant: 2,
                column: vec![1.0, 2.0, 3.0, 4.0],
            },
            Request::Poll,
            Request::Report { tenant: 1 },
            Request::Estimate { tenant: 0 },
            Request::Forecast { tenant: 7 },
            Request::Snapshot { tenant: 3 },
            Request::Restore(vec![9, 9, 9]),
            Request::Subscribe,
            Request::Shutdown,
            Request::Stats {
                format: StatsFormat::Prometheus,
            },
            Request::Stats {
                format: StatsFormat::Json,
            },
        ];
        for req in requests {
            let payload = req.encode();
            assert_eq!(Request::decode(&payload).unwrap(), req);
        }
        assert!(Request::decode(&[200]).is_err());
        assert!(Request::decode(&[]).is_err());
        // Trailing bytes rejected.
        let mut payload = Request::Poll.encode();
        payload.push(0);
        assert!(Request::decode(&payload).is_err());
    }

    /// A version-2 peer appends the batched-execution pair (a `usize`
    /// batch width and a precision byte) to every tenant spec. Its
    /// `Register` payload and its snapshots must fail with a typed codec
    /// error, never a panic or a silently truncated spec. So must a
    /// version-3 snapshot, whose rolling fit still carries five solver
    /// counters.
    #[test]
    fn v2_register_and_snapshot_fail_with_codec_errors() {
        use crate::snapshot::{TenantSnapshot, SNAPSHOT_MAGIC};
        use ic_core::{FitReport, StableFpParams};
        use ic_linalg::Matrix;
        use ic_stream::StreamingTomogravityState;

        let spec = spec();
        let mut e = Enc::new();
        spec.encode(&mut e);
        let spec_bytes = e.into_bytes();
        let v2_pair = |e: &mut Enc| {
            e.put_usize(4);
            e.put_u8(1);
        };

        let mut e = Enc::new();
        e.put_u8(REQ_REGISTER);
        e.put_raw(&spec_bytes);
        v2_pair(&mut e);
        let register = e.into_bytes();
        assert!(
            matches!(Request::decode(&register), Err(ServeError::Codec(_))),
            "v2 Register must be a codec error"
        );

        let snap = TenantSnapshot {
            spec,
            windower: Default::default(),
            estimator: StreamingTomogravityState { previous: None },
            forecaster: Default::default(),
            detector: Default::default(),
        };
        let current = snap.to_bytes();
        let header = SNAPSHOT_MAGIC.len() + 4;
        let body = &current[header..];
        assert_eq!(&body[..spec_bytes.len()], &spec_bytes[..]);
        let mut e = Enc::new();
        e.put_raw(&SNAPSHOT_MAGIC);
        e.put_u32(2);
        e.put_raw(&spec_bytes);
        v2_pair(&mut e);
        e.put_raw(&body[spec_bytes.len()..]);
        assert!(
            matches!(
                TenantSnapshot::from_bytes(&e.into_bytes()),
                Err(ServeError::Codec(_))
            ),
            "v2 snapshot must be a codec error"
        );

        // Version 3 wrote five `u64` solver counters after the rolling
        // fit's `converged` flag. The carried-fit snapshot shares every
        // byte with the cold one up to the fit's presence flag, and the
        // forecaster and detector bytes after the fit.
        let carried = TenantSnapshot {
            estimator: StreamingTomogravityState {
                previous: Some(FitReport {
                    params: StableFpParams {
                        f: 0.27,
                        preference: vec![0.6, 0.4],
                        activity: Matrix::from_vec(2, 1, vec![3.0, 5.0]).unwrap(),
                    },
                    objective_history: vec![0.5, 0.1],
                    converged: true,
                }),
            },
            ..snap
        }
        .to_bytes();
        let fit_at = current
            .iter()
            .zip(&carried)
            .position(|(a, b)| a != b)
            .unwrap();
        let tail = current.len() - fit_at - 1;
        let mut e = Enc::new();
        e.put_raw(&SNAPSHOT_MAGIC);
        e.put_u32(3);
        e.put_raw(&carried[header..carried.len() - tail]);
        for counter in [12, 3, 77, 1, 0] {
            e.put_u64(counter);
        }
        e.put_raw(&carried[carried.len() - tail..]);
        let v3 = e.into_bytes();
        assert!(
            matches!(TenantSnapshot::from_bytes(&v3), Err(ServeError::Codec(_))),
            "v3 snapshot must be a codec error"
        );
        // Read as the current version, the counters would not parse
        // either: the version bump is what names the cause.
        let mut relabeled = v3;
        relabeled[SNAPSHOT_MAGIC.len()..header]
            .copy_from_slice(&current[SNAPSHOT_MAGIC.len()..header]);
        assert!(
            matches!(
                TenantSnapshot::from_bytes(&relabeled),
                Err(ServeError::Codec(_))
            ),
            "the v3 fit must not parse as v4"
        );
    }

    #[test]
    fn every_response_round_trips() {
        let responses = vec![
            Response::Error("boom".into()),
            Response::HelloOk {
                protocol: PROTOCOL_VERSION,
                tenants: 2,
            },
            Response::Registered { tenant: 4 },
            Response::Ingested { ready: 1 },
            Response::Events(vec![
                TenantEvent {
                    tenant: 0,
                    name: "a".into(),
                    report: report(true),
                },
                TenantEvent {
                    tenant: 1,
                    name: "b".into(),
                    report: report(false),
                },
            ]),
            Response::Report(Some(report(true))),
            Response::Report(None),
            Response::Estimate(Some(Box::new(EstimateFrame {
                window: 2,
                start_bin: 8,
                nodes: 2,
                bins: 4,
                bin_seconds: 300.0,
                data: (0..16).map(f64::from).collect(),
                error: 0.2,
            }))),
            Response::Estimate(None),
            Response::Forecast(Some(ParamForecast {
                f: 0.25,
                preference: vec![0.6, 0.4],
            })),
            Response::Forecast(None),
            Response::Snapshot(vec![1, 2, 3]),
            Response::Restored { tenant: 0 },
            Response::Subscribed,
            Response::ShutdownOk,
            Response::Stats("# TYPE serve_polls_total counter\n".into()),
        ];
        for resp in responses {
            let payload = resp.encode();
            assert_eq!(Response::decode(&payload).unwrap(), resp);
        }
        assert!(Response::decode(&[201]).is_err());
    }

    #[test]
    fn estimate_frame_reconstructs_the_series() {
        let mut series = TmSeries::zeros(2, 3, 300.0).unwrap();
        series.set(0, 1, 2, 7.5).unwrap();
        let est = WindowEstimate {
            window: 1,
            start_bin: 3,
            estimate: series.clone(),
            error: 0.1,
            fitted_f: None,
            fitted_preference: None,
            fit_objective: None,
            sweeps: None,
            warm: false,
            solve_stats: SolveStats::default(),
        };
        let frame = EstimateFrame::from_estimate(&est);
        assert_eq!(frame.to_series().unwrap(), series);
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
        // Mid-header and mid-payload EOFs error instead of hanging.
        let mut r = &buf[..2];
        assert!(read_frame(&mut r).is_err());
        let mut r = &buf[..6];
        assert!(read_frame(&mut r).is_err());
        // Absurd lengths are rejected before allocation.
        let huge = (u32::MAX).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
    }

    /// Counts the `write` calls a frame takes.
    struct CountingWriter(usize);

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0 += 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write() {
        let mut w = CountingWriter(0);
        let ingest = Request::Ingest {
            tenant: 0,
            column: vec![1.5; 2500],
        }
        .encode();
        let frames: [&[u8]; 3] = [b"", b"hello", &ingest];
        for (k, payload) in frames.into_iter().enumerate() {
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.0, k + 1, "frame {k} of {} bytes", payload.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Window reports with arbitrary contents round-trip bit-exactly
        /// through the wire encoding.
        #[test]
        fn window_report_round_trip(
            window in 0usize..1000,
            f_bits in any::<u64>(),
            err in 0.0f64..10.0,
            warm in any::<bool>(),
            fe_present in any::<bool>(),
            fe_value in 0.0f64..1.0,
            kinds in proptest::collection::vec(0u8..3, 0..4),
            pcg_iterations in 0u64..10_000,
            pcg_stalls in 0u64..4,
        ) {
            let fe = if fe_present { Some(fe_value) } else { None };
            let r = WindowReport {
                window,
                start_bin: window * 4,
                bins: 4,
                fitted_f: f64::from_bits(f_bits),
                fit_objective: err / 2.0,
                sweeps: 3,
                warm,
                error_candidate: err,
                error_gravity: err * 2.0,
                improvement: 50.0,
                forecast_f_error: fe,
                drift_events: kinds
                    .iter()
                    .map(|&k| DriftEvent {
                        window,
                        kind: match k {
                            0 => DriftKind::ForwardRatioTrend,
                            1 => DriftKind::ForwardRatioJump,
                            _ => DriftKind::PreferenceDecorrelation,
                        },
                        statistic: err,
                    })
                    .collect(),
                solve_stats: SolveStats {
                    dense_solves: window as u64,
                    pcg_solves: window as u64 / 2,
                    pcg_iterations,
                    pcg_stalls,
                    fallbacks: pcg_stalls / 2,
                },
            };
            let mut e = Enc::new();
            encode_window_report(&mut e, &r);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            let back = decode_window_report(&mut d).unwrap();
            d.expect_end().unwrap();
            prop_assert_eq!(back.fitted_f.to_bits(), r.fitted_f.to_bits());
            let (mut a, mut b) = (back, r);
            // NaN-safe equality: compare the f bit patterns separately,
            // then the rest structurally.
            a.fitted_f = 0.0;
            b.fitted_f = 0.0;
            prop_assert_eq!(a, b);
        }
    }
}
