//! Error type for simulation runs.

use dcf_fleet::FleetError;
use dcf_trace::TraceError;

/// Errors from running a simulation.
#[derive(Debug)]
#[non_exhaustive]
pub enum SimError {
    /// The fleet configuration failed validation.
    Fleet(FleetError),
    /// A spill file could not be written or read back, or trace assembly
    /// rejected the generated tickets (an engine bug, surfaced instead of
    /// panicking).
    Trace(TraceError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Fleet(e) => write!(f, "invalid fleet config: {e}"),
            SimError::Trace(e) => write!(f, "spill I/O or trace assembly failed: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Fleet(e) => Some(e),
            SimError::Trace(e) => Some(e),
        }
    }
}

impl From<FleetError> for SimError {
    fn from(e: FleetError) -> Self {
        SimError::Fleet(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e: SimError = FleetError::EmptyWindow.into();
        assert!(e.to_string().contains("window_days"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
