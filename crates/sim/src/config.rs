//! Simulation configuration: fleet + all failure/FMS models + seed.

use dcf_failmodel::{
    BatchModel, CorrelationModel, DetectionModel, EscalationModel, FailureRates, RepeatModel,
    SyncRepeatModel,
};
use dcf_fleet::FleetConfig;
use dcf_fms::{FalseAlarmModel, MonitoringModel};

/// Everything a simulation run depends on. A run is a pure function of this
/// struct (including its `seed`).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Fleet topology and deployment.
    pub fleet: FleetConfig,
    /// Background per-class failure rates.
    pub rates: FailureRates,
    /// Fault-to-FOT detection model.
    pub detection: DetectionModel,
    /// Batch failure events.
    pub batch: BatchModel,
    /// Repeating-failure behavior.
    pub repeat: RepeatModel,
    /// Synchronously repeating server groups.
    pub sync_repeat: SyncRepeatModel,
    /// Correlated component failures.
    pub correlation: CorrelationModel,
    /// Warning→fatal escalation on unrepaired components.
    pub escalation: EscalationModel,
    /// False-alarm stream.
    pub false_alarm: FalseAlarmModel,
    /// FMS agent coverage over the window (full for calibrated runs).
    pub monitoring: MonitoringModel,
    /// Master RNG seed.
    pub seed: u64,
    /// Free-text description recorded into the trace.
    pub description: String,
}

impl SimConfig {
    /// A config with all models at their calibrated defaults over `fleet`.
    pub fn with_fleet(fleet: FleetConfig, description: impl Into<String>) -> Self {
        Self {
            fleet,
            rates: FailureRates::calibrated(),
            detection: DetectionModel::default(),
            batch: BatchModel::default(),
            repeat: RepeatModel::default(),
            sync_repeat: SyncRepeatModel::default(),
            correlation: CorrelationModel::default(),
            escalation: EscalationModel::default(),
            false_alarm: FalseAlarmModel::default(),
            monitoring: MonitoringModel::full(),
            seed: 0,
            description: description.into(),
        }
    }
}
