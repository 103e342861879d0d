//! FMS-side instrumentation: the counter bundle the engine threads through
//! the detection / operator / false-alarm hot paths.
//!
//! The paper's FMS is itself a telemetry system; this module gives our
//! simulated FMS the same visibility. Handles come from a
//! [`dcf_obs::MetricsRegistry`], so they are free when the registry is
//! disabled, and worker threads can either increment them directly
//! (atomics) or batch per-thread tallies and [`dcf_obs::Counter::add`]
//! once per chunk — the engine does the latter to keep hot loops clean.

use dcf_obs::{Counter, MetricsRegistry};

/// Counter handles for every FMS-owned metric.
///
/// All counters are deterministic in the simulation seed (they count
/// simulation events and never consume RNG draws).
#[derive(Debug, Clone, Default)]
pub struct FmsMetrics {
    /// `fms.detect.latent_resolved`: latent background faults assigned a
    /// detection time through a syslog/polling/manual channel.
    pub latent_resolved: Counter,
    /// `fms.operator.responses`: operator responses sampled (tickets with
    /// a response attached — `D_fixing` and `D_falsealarm`).
    pub responses_sampled: Counter,
    /// `fms.operator.decommissioned`: servers decommissioned after an
    /// out-of-warranty fatal failure.
    pub decommissioned: Counter,
    /// `fms.tickets.issued`: tickets the engine's merge stamped.
    pub tickets_issued: Counter,
    /// `fms.monitoring.unmonitored_dropped`: hardware failures that went
    /// unrecorded because the server had no FMS agent yet (§VIII).
    pub unmonitored_dropped: Counter,
}

impl FmsMetrics {
    /// Binds all FMS counters in `registry` (no-op handles when disabled).
    pub fn from_registry(registry: &MetricsRegistry) -> Self {
        Self {
            latent_resolved: registry.counter("fms.detect.latent_resolved"),
            responses_sampled: registry.counter("fms.operator.responses"),
            decommissioned: registry.counter("fms.operator.decommissioned"),
            tickets_issued: registry.counter("fms.tickets.issued"),
            unmonitored_dropped: registry.counter("fms.monitoring.unmonitored_dropped"),
        }
    }

    /// A bundle of no-op handles.
    pub fn disabled() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_under_fms_names() {
        let registry = MetricsRegistry::new();
        let metrics = FmsMetrics::from_registry(&registry);
        metrics.latent_resolved.add(3);
        metrics.tickets_issued.inc();
        assert_eq!(
            registry.counter_value("fms.detect.latent_resolved"),
            Some(3)
        );
        assert_eq!(registry.counter_value("fms.tickets.issued"), Some(1));
        assert_eq!(registry.counter_value("fms.operator.responses"), Some(0));
    }

    #[test]
    fn disabled_bundle_is_inert() {
        let metrics = FmsMetrics::disabled();
        metrics.responses_sampled.add(10);
        assert_eq!(metrics.responses_sampled.get(), 0);
    }
}
