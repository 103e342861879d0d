//! # dcf-trace
//!
//! The failure operation ticket (FOT) data model for the `dcfail`
//! reproduction of *"What Can We Learn from Four Years of Data Center
//! Hardware Failures?"* (DSN 2017).
//!
//! The paper's entire study consumes one table: ~290k FOTs with
//! `id, host_id, hostname, host_idc, error_device, error_type, error_time,
//! error_position, error_detail` plus operator-response fields (§II). This
//! crate defines that schema ([`Fot`]), the component/failure-type
//! taxonomies (Tables II–III), the simulated time model (1,411-day window,
//! day-of-week / hour-of-day decompositions for Figures 3–4), the fleet
//! snapshot records the analyses need, the validated [`Trace`] container,
//! and JSON/CSV IO.
//!
//! ```
//! use dcf_trace::{ComponentClass, FailureType, Severity};
//!
//! // Table III: SMARTFail is an HDD warning, DIMMUE a fatal memory error.
//! assert_eq!(FailureType::SmartFail.class(), ComponentClass::Hdd);
//! assert_eq!(FailureType::SmartFail.severity(), Severity::Warning);
//! assert_eq!(FailureType::DimmUe.severity(), Severity::Fatal);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod columns;
mod component;
mod error;
mod failure_type;
mod fot;
mod ids;
mod index;
pub mod io;
mod meta;
mod store;
mod streams;
mod time;

pub use columns::{ColumnsBuilder, FotColumns, FotRows};
pub use component::ComponentClass;
pub use error::TraceError;
pub use failure_type::{FailureType, Severity};
pub use fot::{
    device_path_for, write_device_path, Fot, FotCategory, OperatorAction, OperatorResponse,
};
pub use ids::{DataCenterId, FotId, OperatorId, ProductLineId, RackId, RackPosition, ServerId};
pub use index::{FotIter, TraceIndex};
pub use meta::{DataCenterMeta, FaultTolerance, ProductLineMeta, ServerMeta, WorkloadKind};
pub use store::{Trace, TraceInfo};
pub use streams::{Stream, StreamIndex};
pub use time::{
    SimDuration, SimTime, Weekday, ORIGIN_WEEKDAY, SECS_PER_DAY, SECS_PER_HOUR, SECS_PER_MINUTE,
    SECS_PER_MONTH, TRACE_DAYS,
};
