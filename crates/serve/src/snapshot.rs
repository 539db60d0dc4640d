//! Versioned warm-state snapshots.
//!
//! A [`TenantSnapshot`] persists one tenant completely: the full
//! [`TenantSpec`] (so restore needs no re-registration) plus every piece
//! of runtime state the next window depends on — the rolling fit, the
//! forecaster's EWMA/seasonal history, the drift detector's CUSUM
//! statistics, and the windower's position *including partially buffered
//! bins*. Because every float is persisted bit-exactly
//! ([`crate::codec`]), a service restored from a snapshot continues
//! bit-identically to one that never stopped — the restart-cheap serving
//! story the warm-start bench numbers (warm fits ~5.5x faster than cold)
//! make worthwhile.

use crate::codec::{Dec, Enc};
use crate::spec::TenantSpec;
use crate::{Result, ServeError};
use ic_core::{FitReport, StableFpParams};
use ic_linalg::Matrix;
use ic_stream::{
    DriftDetectorState, ParamForecasterState, StreamingTomogravityState, WindowerState,
};

/// Magic bytes opening every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"ICSV";
/// Current snapshot format version. Version 4 drops the five solver
/// counters (`u64` words) that version 3 wrote after the rolling fit: the
/// fit solves in closed form and counts nothing. Version 3 had dropped the
/// batched-execution pair (a batch-width `usize` and a precision byte)
/// that version 2 added to every embedded tenant spec.
pub const SNAPSHOT_VERSION: u32 = 4;

/// One tenant's complete persisted state.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSnapshot {
    /// The tenant's full configuration.
    pub spec: TenantSpec,
    /// Window position, including partially buffered bins.
    pub windower: WindowerState,
    /// The rolling fit.
    pub estimator: StreamingTomogravityState,
    /// Forecaster EWMA levels and seasonal ring.
    pub forecaster: ParamForecasterState,
    /// Drift-detector baseline and CUSUM accumulators.
    pub detector: DriftDetectorState,
}

impl TenantSnapshot {
    /// Serializes the snapshot (magic + version + payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.put_raw(&SNAPSHOT_MAGIC);
        e.put_u32(SNAPSHOT_VERSION);
        self.spec.encode(&mut e);
        encode_windower(&mut e, &self.windower);
        encode_fit(&mut e, self.estimator.previous.as_ref());
        encode_forecaster(&mut e, &self.forecaster);
        encode_detector(&mut e, &self.detector);
        e.into_bytes()
    }

    /// Deserializes a snapshot, rejecting wrong magic/version and
    /// trailing garbage.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut d = Dec::new(bytes);
        let magic = d.take_raw(4)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(ServeError::Codec(format!(
                "bad snapshot magic {magic:?} (want {SNAPSHOT_MAGIC:?})"
            )));
        }
        let version = d.take_u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(ServeError::Codec(format!(
                "unsupported snapshot version {version} (this build reads {SNAPSHOT_VERSION})"
            )));
        }
        let spec = TenantSpec::decode(&mut d)?;
        let windower = decode_windower(&mut d)?;
        let estimator = StreamingTomogravityState {
            previous: decode_fit(&mut d)?,
        };
        let forecaster = decode_forecaster(&mut d)?;
        let detector = decode_detector(&mut d)?;
        d.expect_end()?;
        Ok(TenantSnapshot {
            spec,
            windower,
            estimator,
            forecaster,
            detector,
        })
    }
}

fn encode_windower(e: &mut Enc, w: &WindowerState) {
    e.put_usize(w.buffer.len());
    for col in &w.buffer {
        e.put_f64s(col);
    }
    e.put_usize(w.pending_skip);
    e.put_usize(w.next_start);
    e.put_usize(w.produced);
}

fn decode_windower(d: &mut Dec<'_>) -> Result<WindowerState> {
    let buffered = d.take_usize()?;
    let mut buffer = Vec::with_capacity(buffered.min(1 << 20));
    for _ in 0..buffered {
        buffer.push(d.take_f64s()?);
    }
    Ok(WindowerState {
        buffer,
        pending_skip: d.take_usize()?,
        next_start: d.take_usize()?,
        produced: d.take_usize()?,
    })
}

fn encode_fit(e: &mut Enc, fit: Option<&FitReport<StableFpParams>>) {
    let Some(fit) = fit else {
        e.put_bool(false);
        return;
    };
    e.put_bool(true);
    e.put_f64(fit.params.f);
    e.put_f64s(&fit.params.preference);
    e.put_usize(fit.params.activity.rows());
    e.put_usize(fit.params.activity.cols());
    e.put_f64s(fit.params.activity.as_slice());
    e.put_f64s(&fit.objective_history);
    e.put_bool(fit.converged);
}

fn decode_fit(d: &mut Dec<'_>) -> Result<Option<FitReport<StableFpParams>>> {
    if !d.take_bool()? {
        return Ok(None);
    }
    let f = d.take_f64()?;
    let preference = d.take_f64s()?;
    let rows = d.take_usize()?;
    let cols = d.take_usize()?;
    let activity = Matrix::from_vec(rows, cols, d.take_f64s()?)
        .map_err(|e| ServeError::Codec(format!("snapshot activity matrix: {e}")))?;
    let objective_history = d.take_f64s()?;
    let converged = d.take_bool()?;
    Ok(Some(FitReport {
        params: StableFpParams {
            f,
            preference,
            activity,
        },
        objective_history,
        converged,
    }))
}

fn encode_forecaster(e: &mut Enc, s: &ParamForecasterState) {
    e.put_usize(s.season_ring.len());
    for (f, p) in &s.season_ring {
        e.put_f64(*f);
        e.put_f64s(p);
    }
    e.put_usize(s.observed);
    e.put_opt_f64(s.ewma_f);
    match &s.ewma_p {
        Some(p) => {
            e.put_bool(true);
            e.put_f64s(p);
        }
        None => e.put_bool(false),
    }
}

fn decode_forecaster(d: &mut Dec<'_>) -> Result<ParamForecasterState> {
    let ring_len = d.take_usize()?;
    let mut season_ring = Vec::with_capacity(ring_len.min(1 << 20));
    for _ in 0..ring_len {
        let f = d.take_f64()?;
        let p = d.take_f64s()?;
        season_ring.push((f, p));
    }
    let observed = d.take_usize()?;
    let ewma_f = d.take_opt_f64()?;
    let ewma_p = if d.take_bool()? {
        Some(d.take_f64s()?)
    } else {
        None
    };
    Ok(ParamForecasterState {
        season_ring,
        observed,
        ewma_f,
        ewma_p,
    })
}

fn encode_detector(e: &mut Enc, s: &DriftDetectorState) {
    match &s.previous {
        Some((f, p)) => {
            e.put_bool(true);
            e.put_f64(*f);
            e.put_f64s(p);
        }
        None => e.put_bool(false),
    }
    e.put_f64(s.cusum_up);
    e.put_f64(s.cusum_down);
}

fn decode_detector(d: &mut Dec<'_>) -> Result<DriftDetectorState> {
    let previous = if d.take_bool()? {
        let f = d.take_f64()?;
        let p = d.take_f64s()?;
        Some((f, p))
    } else {
        None
    };
    Ok(DriftDetectorState {
        previous,
        cusum_up: d.take_f64()?,
        cusum_down: d.take_f64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_topology::{RoutingScheme, Topology};

    fn sample_snapshot() -> TenantSnapshot {
        let mut topo = Topology::new("pair");
        let a = topo.add_node("a").unwrap();
        let b = topo.add_node("b").unwrap();
        topo.add_symmetric_link(a, b, 1.0, 1e12).unwrap();
        TenantSnapshot {
            spec: TenantSpec::new("t0", &topo, RoutingScheme::Ecmp)
                .with_bin_seconds(300.0)
                .with_window_bins(4),
            windower: WindowerState {
                buffer: vec![vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.0]],
                pending_skip: 0,
                next_start: 8,
                produced: 2,
            },
            estimator: StreamingTomogravityState {
                previous: Some(FitReport {
                    params: StableFpParams {
                        f: 0.27,
                        preference: vec![0.6, 0.4],
                        activity: Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
                            .unwrap(),
                    },
                    objective_history: vec![0.5, 0.1, 0.05],
                    converged: true,
                }),
            },
            forecaster: ParamForecasterState {
                season_ring: vec![(0.25, vec![0.5, 0.5]), (0.26, vec![0.55, 0.45])],
                observed: 9,
                ewma_f: Some(0.255),
                ewma_p: Some(vec![0.52, 0.48]),
            },
            detector: DriftDetectorState {
                previous: Some((0.26, vec![0.55, 0.45])),
                cusum_up: 0.013,
                cusum_down: 0.0,
            },
        }
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes();
        let back = TenantSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        // Cold-start (all-empty) state round-trips too.
        let cold = TenantSnapshot {
            spec: snap.spec.clone(),
            windower: WindowerState::default(),
            estimator: StreamingTomogravityState { previous: None },
            forecaster: ParamForecasterState::default(),
            detector: DriftDetectorState::default(),
        };
        assert_eq!(TenantSnapshot::from_bytes(&cold.to_bytes()).unwrap(), cold);
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes();
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(TenantSnapshot::from_bytes(&wrong_magic).is_err());
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert!(TenantSnapshot::from_bytes(&wrong_version).is_err());
        assert!(TenantSnapshot::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(TenantSnapshot::from_bytes(&trailing).is_err());
        assert!(TenantSnapshot::from_bytes(b"IC").is_err());
    }
}
