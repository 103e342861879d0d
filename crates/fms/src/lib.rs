//! # dcf-fms
//!
//! The failure management system (FMS) of the DSN'17 study: the
//! human-operator behavior model that closes failure operation tickets,
//! and the models of what reaches the ticket pool. The engine (`dcf-sim`)
//! stamps the tickets themselves as it merges its records.
//!
//! * [`OperatorModel`] — per-product-line response-time profiles, warranty
//!   handling, decommission decisions (§VI).
//! * [`FalseAlarmModel`] — the 1.7% false-alarm stream (Table I).
//! * [`MonitoringModel`] — the §VIII FMS roll-out artifact (agent coverage
//!   growing over the window).
//! * [`FmsMetrics`] — `dcf-obs` counter handles for the detection /
//!   operator / false-alarm paths, threaded through the engine's hot
//!   loops.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod false_alarm;
mod monitoring;
mod operator;
mod telemetry;

pub use false_alarm::FalseAlarmModel;
pub use monitoring::MonitoringModel;
pub use operator::{class_rt_multiplier, OperatorModel, ResponseProfile, DEPLOYMENT_PHASE_DAYS};
pub use telemetry::FmsMetrics;
