//! # dcf-report
//!
//! Rendering for the `dcfail` study: aligned text tables, ASCII bar/CDF
//! charts, one renderer per paper table/figure, and the `RunReport`
//! markdown view. The `reproduce` binary drives them.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chart;
pub mod experiments;
mod runreport;
mod table;

pub use chart::{bar_chart, cdf_plot};
pub use runreport::run_report_markdown;
pub use table::{days, pct, TextTable};
