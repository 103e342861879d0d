//! Scenario presets: the paper reproduction, scaled-down variants for tests
//! and benches, and the ablations called out in DESIGN.md.

use dcf_failmodel::{BatchModel, DetectionModel, RepeatModel, SyncRepeatModel};
use dcf_fleet::FleetConfig;
use dcf_trace::Trace;

use crate::config::SimConfig;
use crate::error::SimError;
use crate::options::RunOptions;

/// A built-in preset: its name and its constructor.
type Preset = (&'static str, fn() -> Scenario);

/// The built-in presets, in descending scale.
const PRESETS: [Preset; 3] = [
    ("paper", Scenario::paper),
    ("medium", Scenario::medium),
    ("small", Scenario::small),
];

/// A named, runnable simulation scenario.
///
/// # Examples
///
/// ```
/// use dcf_sim::{RunOptions, Scenario};
///
/// let trace = Scenario::small().seed(3).simulate(&RunOptions::default()).unwrap();
/// assert!(!trace.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (recorded in the trace description).
    pub name: &'static str,
    /// The full configuration.
    pub config: SimConfig,
}

impl Scenario {
    fn new(name: &'static str, fleet: FleetConfig) -> Self {
        let mut config = SimConfig::with_fleet(fleet, name);
        config.description = name.to_string();
        Self { name, config }
    }

    /// The full paper reproduction: 24 DCs, 160k servers, 1,411-day window,
    /// all failure channels on, calibrated rates (~290k FOTs).
    pub fn paper() -> Self {
        Self::new("paper", FleetConfig::paper())
    }

    /// Medium scale (~20k servers) — realistic shape at bench-friendly cost.
    pub fn medium() -> Self {
        Self::new("medium", FleetConfig::medium())
    }

    /// Small scale (2k servers, 360-day window) — unit/integration tests.
    pub fn small() -> Self {
        Self::new("small", FleetConfig::small())
    }

    /// The built-in preset called `name`, one of [`Scenario::names`].
    pub fn by_name(name: &str) -> Option<Self> {
        PRESETS
            .iter()
            .find(|(preset, _)| *preset == name)
            .map(|(_, build)| build())
    }

    /// The built-in presets' names: `paper`, `medium`, `small`.
    pub fn names() -> impl Iterator<Item = &'static str> {
        PRESETS.iter().map(|(name, _)| *name)
    }

    /// Ablation: batch failures disabled. Under this counterfactual the
    /// paper predicts TBF becomes close to a smooth heavy-tailed family
    /// (it blames the batches for the Hypothesis 3/4 rejections).
    pub fn without_batches(mut self) -> Self {
        self.config.batch = BatchModel::disabled();
        self.name = "no-batch";
        self.config.description = "no-batch".into();
        self
    }

    /// Ablation: workload-independent "active probing" detection (§III-A's
    /// proposed fix). Figures 3–4's diurnal structure should flatten.
    pub fn with_active_probing(mut self) -> Self {
        self.config.detection = DetectionModel::active_probing();
        self.name = "active-probing";
        self.config.description = "active-probing".into();
        self
    }

    /// Ablation: fully effective repairs (no repeating or synchronous
    /// failures) — the §V-C recommendation.
    pub fn with_effective_repairs(mut self) -> Self {
        self.config.repeat = RepeatModel::disabled();
        self.config.sync_repeat = SyncRepeatModel {
            groups_per_trace: 0.0,
            ..SyncRepeatModel::default()
        };
        self.name = "effective-repairs";
        self.config.description = "effective-repairs".into();
        self
    }

    /// Ablation: every data center built with modern cooling — Hypothesis 5
    /// should stop rejecting everywhere (§IV).
    pub fn with_modern_cooling(mut self) -> Self {
        self.config.fleet.modern_cooling_fraction = 1.0;
        self.name = "modern-cooling";
        self.config.description = "modern-cooling".into();
        self
    }

    /// Ablation: the §VIII measurement artifact — FMS agents rolled out
    /// incrementally, so early-window failures are under-recorded.
    pub fn with_partial_monitoring(mut self) -> Self {
        self.config.monitoring = dcf_fms::MonitoringModel::paper_rollout();
        self.name = "partial-monitoring";
        self.config.description = "partial-monitoring".into();
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Runs the scenario under `options` (metrics sink, thread count,
    /// sharding — see [`RunOptions`]). The trace is a pure function of the scenario
    /// config and seed: options never perturb it.
    ///
    /// # Errors
    ///
    /// Propagates configuration and assembly errors from the engine.
    pub fn simulate(&self, options: &RunOptions) -> Result<Trace, SimError> {
        crate::simulate(&self.config, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_distinct_fleets() {
        assert!(Scenario::paper().config.fleet.servers > Scenario::medium().config.fleet.servers);
        assert!(Scenario::medium().config.fleet.servers > Scenario::small().config.fleet.servers);
    }

    #[test]
    fn ablations_change_the_config() {
        let base = Scenario::small();
        assert_ne!(base.config, base.clone().without_batches().config);
        assert_ne!(base.config, base.clone().with_active_probing().config);
        assert_ne!(base.config, base.clone().with_effective_repairs().config);
        assert_ne!(base.config, base.clone().with_modern_cooling().config);
        assert_ne!(base.config, base.clone().with_partial_monitoring().config);
    }

    #[test]
    fn presets_resolve_by_their_own_name() {
        for name in Scenario::names() {
            assert_eq!(Scenario::by_name(name).map(|s| s.name), Some(name));
        }
        assert_eq!(Scenario::by_name("no-batch"), None);
    }

    #[test]
    fn seed_is_recorded() {
        let s = Scenario::small().seed(99);
        assert_eq!(s.config.seed, 99);
    }
}
