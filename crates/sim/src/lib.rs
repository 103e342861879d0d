//! # dcf-sim
//!
//! The discrete-event simulation engine of the `dcfail` reproduction:
//! drives the fleet, failure, detection and operator models to emit a
//! calibrated FOT trace with the statistical structure of the DSN'17
//! dataset (~290k tickets at full scale).
//!
//! Runs are pure functions of `(SimConfig, seed)`; per-server RNG streams
//! make the parallel per-server phase independent of thread count.
//!
//! ```
//! use dcf_sim::{RunOptions, Scenario};
//!
//! let a = Scenario::small().seed(5).simulate(&RunOptions::default()).unwrap();
//! let b = Scenario::small().seed(5).simulate(&RunOptions::default()).unwrap();
//! assert_eq!(a.fots(), b.fots()); // bit-for-bit deterministic
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod engine;
mod error;
mod options;
mod scenario;
mod shard;

pub use config::SimConfig;
pub use engine::expected_background_failures;
pub use error::SimError;
pub use options::RunOptions;
pub use scenario::Scenario;
pub use shard::{
    simulate, simulate_on_fleet, simulate_sharded, simulate_sharded_on_fleet, ShardPlan, ShardedRun,
};

#[cfg(test)]
mod tests {
    use super::*;
    use dcf_trace::{ComponentClass, FotCategory};

    fn small_trace() -> dcf_trace::Trace {
        Scenario::small()
            .seed(42)
            .simulate(&RunOptions::default())
            .unwrap()
    }

    #[test]
    fn small_run_produces_plausible_volume() {
        let trace = small_trace();
        // 2k servers over a 360-day window: expect hundreds to thousands of
        // tickets once batches and repeats are included.
        assert!(trace.len() > 200, "got {}", trace.len());
        assert!(trace.len() < 200_000, "got {}", trace.len());
    }

    #[test]
    fn every_ticket_is_inside_the_window() {
        let trace = small_trace();
        let start = trace.info().start;
        let end = trace.end_time();
        for fot in trace.fots() {
            assert!(fot.error_time >= start && fot.error_time < end);
        }
    }

    #[test]
    fn hdd_dominates_and_all_major_classes_appear() {
        let trace = small_trace();
        let hdd = trace.failures_of(ComponentClass::Hdd).count();
        let total = trace.failures().count();
        let share = hdd as f64 / total as f64;
        assert!(share > 0.6, "HDD share {share}");
        assert!(trace.failures_of(ComponentClass::Miscellaneous).count() > 0);
        assert!(trace.failures_of(ComponentClass::Memory).count() > 0);
    }

    #[test]
    fn categories_are_all_present() {
        let trace = small_trace();
        let [fixing, error, fa] = trace.category_counts();
        assert!(fixing > 0 && error > 0 && fa > 0);
        // False alarms are rare.
        assert!((fa as f64) < 0.05 * trace.len() as f64);
    }

    #[test]
    fn runs_are_deterministic_across_invocations() {
        let options = RunOptions::default();
        let a = Scenario::small().seed(7).simulate(&options).unwrap();
        let b = Scenario::small().seed(7).simulate(&options).unwrap();
        assert_eq!(a.fots(), b.fots());
        let c = Scenario::small().seed(8).simulate(&options).unwrap();
        assert_ne!(a.fots(), c.fots());
    }

    #[test]
    fn background_volume_matches_analytic_expectation() {
        // Disable every non-background channel and every detection-window
        // censoring effect we can, then compare the sampled count with the
        // analytic expectation.
        let mut config =
            crate::SimConfig::with_fleet(dcf_fleet::FleetConfig::small(), "expectation-check");
        config.batch = dcf_failmodel::BatchModel::disabled();
        config.repeat = dcf_failmodel::RepeatModel::disabled();
        config.escalation = dcf_failmodel::EscalationModel::disabled();
        config.correlation = dcf_failmodel::CorrelationModel::disabled();
        config.sync_repeat = dcf_failmodel::SyncRepeatModel {
            groups_per_trace: 0.0,
            ..dcf_failmodel::SyncRepeatModel::default()
        };
        config.false_alarm = dcf_fms::FalseAlarmModel::disabled();
        config.rates = config.rates.scaled(5.0); // enough volume for a tight CLT band
        let fleet = dcf_fleet::FleetBuilder::new(config.fleet.clone())
            .seed(config.seed)
            .build()
            .unwrap();
        let expected = crate::expected_background_failures(&config, &fleet);
        let trace = crate::simulate_on_fleet(&config, &fleet, &RunOptions::default()).unwrap();
        let got = trace.failures().count() as f64;
        // Detection delays push a small share of late faults past the
        // window end, so the sample sits slightly below the expectation.
        assert!(
            got <= expected * 1.03 && got >= expected * 0.85,
            "got {got}, expected {expected}"
        );
    }

    #[test]
    fn no_batch_ablation_reduces_daily_spikes() {
        let base = Scenario::small()
            .seed(3)
            .simulate(&RunOptions::default())
            .unwrap();
        let ablated = Scenario::small()
            .without_batches()
            .seed(3)
            .simulate(&RunOptions::default())
            .unwrap();
        let max_daily = |t: &dcf_trace::Trace| {
            let mut per_day = std::collections::HashMap::new();
            for f in t.failures() {
                *per_day.entry(f.error_time.day_index()).or_insert(0usize) += 1;
            }
            per_day.values().copied().max().unwrap_or(0)
        };
        assert!(max_daily(&base) >= max_daily(&ablated));
    }

    #[test]
    fn metrics_do_not_perturb_the_trace_and_match_its_shape() {
        let scenario = Scenario::small().seed(42);
        let plain = scenario.simulate(&RunOptions::default()).unwrap();
        let registry = dcf_obs::MetricsRegistry::new();
        let instrumented = scenario
            .simulate(&RunOptions::new().metrics(&registry))
            .unwrap();
        // Instrumentation must be RNG-free: identical trace either way.
        assert_eq!(plain.fots(), instrumented.fots());
        let count = |name: &str| registry.counter_value(name).unwrap();
        let by_category = count("sim.tickets.fixing")
            + count("sim.tickets.error")
            + count("sim.tickets.false_alarm");
        assert_eq!(by_category, instrumented.len() as u64);
        assert_eq!(count("sim.tickets.total"), instrumented.len() as u64);
        assert_eq!(count("fms.tickets.issued"), instrumented.len() as u64);
        assert!(count("sim.occurrences.background") > 0);
        let report = registry.report("sim-test");
        for phase in [
            "engine.fleet_build",
            "engine.global",
            "engine.per_server",
            "engine.assembly",
        ] {
            assert!(report.phase_ms(phase).is_some(), "missing span {phase}");
        }
        // A one-shard run merges in memory: no shard phase runs.
        let shard_spans: Vec<_> = report
            .phases
            .iter()
            .filter(|p| p.name.starts_with("engine.shard."))
            .map(|p| p.name.clone())
            .collect();
        assert!(
            shard_spans.is_empty(),
            "one-shard run recorded {shard_spans:?}"
        );
    }

    #[test]
    fn error_tickets_come_from_out_of_warranty_servers() {
        let trace = small_trace();
        for fot in trace.in_category(FotCategory::Error) {
            let server = trace.server(fot.server);
            assert!(server.out_of_warranty_at(fot.error_time));
            assert!(fot.response.is_none());
        }
        for fot in trace.in_category(FotCategory::Fixing) {
            assert!(fot.response.is_some());
        }
    }
}
