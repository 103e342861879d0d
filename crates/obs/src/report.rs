//! [`RunReport`]: a serializable snapshot of one instrumented run.

use std::fmt;

use crate::json::{self, Value};
use crate::timer::{FoldedPhase, PhaseSpan};

/// Everything a [`crate::MetricsRegistry`] recorded over one run: the
/// hierarchical phase log with the folded totals of spans past
/// [`crate::SPAN_CAP`], all counters and all gauges.
///
/// Serializes to JSON with [`RunReport::to_json`] and back with
/// [`RunReport::from_json`]; `dcf-report::run_report_markdown` renders the
/// human-readable summary. Counter values are deterministic in the
/// simulation seed; phase durations are wall-clock and vary run to run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Free-text label for the run (scenario, seed, invocation).
    pub label: String,
    /// Phase spans in opening (pre-)order: the first
    /// [`crate::SPAN_CAP`] opened.
    pub phases: Vec<PhaseSpan>,
    /// Per-name totals of the spans opened after those, sorted by name
    /// (empty for runs that stayed under the cap).
    pub folded: Vec<FoldedPhase>,
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
}

/// Error from [`RunReport::from_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportError {
    message: String,
}

impl ReportError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid run report: {}", self.message)
    }
}

impl std::error::Error for ReportError {}

impl RunReport {
    /// Value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Total duration of all phases named `name`, kept and folded, in
    /// milliseconds, or `None` if no span carries the name.
    ///
    /// Repeated names arise from per-shard execution (one
    /// `engine.shard.simulate` span per shard) and from a server's
    /// per-request spans; summing reports the phase's aggregate
    /// wall-clock.
    pub fn phase_ms(&self, name: &str) -> Option<f64> {
        let mut total_us = 0u64;
        let mut seen = false;
        for p in self.phases.iter().filter(|p| p.name == name) {
            total_us = total_us.saturating_add(p.duration_us);
            seen = true;
        }
        if let Some(f) = self.folded.iter().find(|f| f.name == name) {
            total_us = total_us.saturating_add(f.total_us);
            seen = true;
        }
        seen.then_some(total_us as f64 / 1e3)
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"label\": ");
        json::write_string(&mut out, &self.label);
        out.push_str(",\n  \"phases\": [");
        for (i, phase) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": ");
            json::write_string(&mut out, &phase.name);
            out.push_str(&format!(
                ", \"depth\": {}, \"start_us\": {}, \"duration_us\": {}}}",
                phase.depth, phase.start_us, phase.duration_us
            ));
        }
        if !self.phases.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"folded\": [");
        for (i, f) in self.folded.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": ");
            json::write_string(&mut out, &f.name);
            out.push_str(&format!(
                ", \"count\": {}, \"total_us\": {}, \"max_us\": {}}}",
                f.count, f.total_us, f.max_us
            ));
        }
        if !self.folded.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json::write_string(&mut out, name);
            out.push_str(&format!(": {value}"));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json::write_string(&mut out, name);
            out.push_str(": ");
            json::write_f64(&mut out, *value);
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parses a report previously written by [`RunReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`ReportError`] for malformed JSON or a JSON value that
    /// does not have the report's shape.
    pub fn from_json(input: &str) -> Result<Self, ReportError> {
        let value = json::parse(input)
            .map_err(|e| ReportError::new(format!("{} at byte {}", e.message, e.offset)))?;
        let label = value
            .get("label")
            .and_then(Value::as_str)
            .ok_or_else(|| ReportError::new("missing string field 'label'"))?
            .to_string();

        let mut phases = Vec::new();
        let phase_items = value
            .get("phases")
            .and_then(Value::as_array)
            .ok_or_else(|| ReportError::new("missing array field 'phases'"))?;
        for item in phase_items {
            let name = item
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| ReportError::new("phase missing 'name'"))?
                .to_string();
            let depth = item
                .get("depth")
                .and_then(Value::as_u64)
                .ok_or_else(|| ReportError::new("phase missing 'depth'"))?
                as u32;
            let start_us = item
                .get("start_us")
                .and_then(Value::as_u64)
                .ok_or_else(|| ReportError::new("phase missing 'start_us'"))?;
            let duration_us = item
                .get("duration_us")
                .and_then(Value::as_u64)
                .ok_or_else(|| ReportError::new("phase missing 'duration_us'"))?;
            phases.push(PhaseSpan {
                name,
                depth,
                start_us,
                duration_us,
            });
        }

        // Reports written before the span log was bounded have no
        // `folded` field.
        let mut folded = Vec::new();
        if let Some(items) = value.get("folded") {
            let items = items
                .as_array()
                .ok_or_else(|| ReportError::new("field 'folded' is not an array"))?;
            for item in items {
                let field = |key: &str| {
                    item.get(key)
                        .and_then(Value::as_u64)
                        .ok_or_else(|| ReportError::new(format!("folded phase missing '{key}'")))
                };
                folded.push(FoldedPhase {
                    name: item
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or_else(|| ReportError::new("folded phase missing 'name'"))?
                        .to_string(),
                    count: field("count")?,
                    total_us: field("total_us")?,
                    max_us: field("max_us")?,
                });
            }
        }

        let mut counters = Vec::new();
        for (name, v) in value
            .get("counters")
            .and_then(Value::entries)
            .ok_or_else(|| ReportError::new("missing object field 'counters'"))?
        {
            let v = v
                .as_u64()
                .ok_or_else(|| ReportError::new(format!("counter {name:?} is not a u64")))?;
            counters.push((name.clone(), v));
        }

        let mut gauges = Vec::new();
        for (name, v) in value
            .get("gauges")
            .and_then(Value::entries)
            .ok_or_else(|| ReportError::new("missing object field 'gauges'"))?
        {
            let v = v
                .as_f64()
                .ok_or_else(|| ReportError::new(format!("gauge {name:?} is not a number")))?;
            gauges.push((name.clone(), v));
        }

        Ok(Self {
            label,
            phases,
            folded,
            counters,
            gauges,
        })
    }
}
