//! Pre-registered metric handles for the streaming layer.
//!
//! [`StreamMetrics`] bundles every instrument the streaming estimators
//! touch, resolved once against a [`MetricsRegistry`] (registration takes
//! the registry lock; recording is lock-free atomics). Attach to a
//! [`StreamingTomogravity`](crate::StreamingTomogravity) via
//! `set_metrics`; absent metrics cost one branch per window.

use ic_obs::{Counter, Histogram, MetricsRegistry};
use std::sync::Arc;

/// Handles for the streaming layer's metrics, pre-registered so the
/// per-window hot path never takes the registry lock.
#[derive(Debug, Clone)]
pub struct StreamMetrics {
    /// `stream.window.seconds` — wall time to process one window end to
    /// end (observe, estimate, rolling refit).
    pub window: Arc<Histogram>,
    /// `stream.windows_total` — windows processed.
    pub windows: Arc<Counter>,
    /// `stream.forecasts_total` — parameter forecasts issued (recorded by
    /// the layer driving a forecaster, e.g. the serve loop).
    pub forecasts: Arc<Counter>,
    /// `stream.drift_events_total` — change-detection events fired.
    pub drift_events: Arc<Counter>,
}

impl StreamMetrics {
    /// Registers (or re-resolves — registration is idempotent) the
    /// streaming metric family on `registry`.
    pub fn register(registry: &MetricsRegistry) -> Arc<StreamMetrics> {
        Arc::new(StreamMetrics {
            window: registry.histogram("stream.window.seconds"),
            windows: registry.counter("stream.windows_total"),
            forecasts: registry.counter("stream.forecasts_total"),
            drift_events: registry.counter("stream.drift_events_total"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let registry = MetricsRegistry::new();
        let a = StreamMetrics::register(&registry);
        let b = StreamMetrics::register(&registry);
        a.windows.inc();
        assert_eq!(b.windows.get(), 1);
        a.window.record(0.25);
        assert_eq!(b.window.count(), 1);
        let text = registry.render_prometheus();
        assert!(text.contains("stream_windows_total 1"));
        assert!(text.contains("stream_window_seconds_count 1"));
    }
}
