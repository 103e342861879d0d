//! Error type for trace construction and IO.

use crate::{FotId, ServerId};

/// Errors produced when constructing, reading or writing traces.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// An FOT references a server id not present in the fleet snapshot.
    UnknownServer {
        /// The offending ticket.
        fot: FotId,
        /// The dangling server reference.
        server: ServerId,
    },
    /// An FOT's category and response presence disagree
    /// (`D_fixing`/`D_falsealarm` require a response; `D_error` forbids one).
    ResponseMismatch {
        /// The offending ticket.
        fot: FotId,
    },
    /// An FOT was closed before it was opened (`op_time < error_time`).
    NegativeResponseTime {
        /// The offending ticket.
        fot: FotId,
    },
    /// Duplicate FOT id within one trace.
    DuplicateFotId {
        /// The repeated id.
        fot: FotId,
    },
    /// Server metadata ids are not dense (`servers[i].id.index() != i`).
    NonDenseServerIds,
    /// A ticket column holds a value outside its domain: an id past the
    /// fleet snapshot or the detail dictionary, an unknown tag, a
    /// second-of-day of a day or more, or a response field set on a
    /// ticket without a response.
    InvalidColumn {
        /// Row of the offending ticket.
        row: usize,
        /// Name of the column.
        column: &'static str,
        /// The value found.
        value: u64,
    },
    /// A snapshot's stored hostname differs from the one its server's
    /// placement derives ([`crate::ServerMeta::hostname`]).
    HostnameMismatch {
        /// The server whose stored hostname disagrees.
        server: ServerId,
    },
    /// Ticket rows are not in `(error_time, id)` order.
    UnsortedFots {
        /// The first ticket that sorts before its predecessor.
        fot: FotId,
    },
    /// An underlying IO failure.
    Io(std::io::Error),
    /// A malformed CSV line.
    Csv {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A malformed, truncated, or corrupted binary snapshot
    /// (bad magic/version, digest mismatch, out-of-range dictionary or
    /// taxonomy id, …). See [`crate::io::snapshot`].
    Snapshot {
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::UnknownServer { fot, server } => {
                write!(f, "{fot} references unknown server {server}")
            }
            TraceError::ResponseMismatch { fot } => {
                write!(f, "{fot} category and operator-response presence disagree")
            }
            TraceError::NegativeResponseTime { fot } => {
                write!(f, "{fot} was closed before it was opened")
            }
            TraceError::DuplicateFotId { fot } => write!(f, "duplicate ticket id {fot}"),
            TraceError::NonDenseServerIds => {
                write!(f, "server metadata ids must be dense (servers[i].id == i)")
            }
            TraceError::InvalidColumn { row, column, value } => {
                write!(f, "ticket row {row}: invalid {column} {value}")
            }
            TraceError::HostnameMismatch { server } => {
                write!(f, "{server} hostname does not match its placement")
            }
            TraceError::UnsortedFots { fot } => {
                write!(f, "{fot} is out of (error_time, id) order")
            }
            TraceError::Io(e) => write!(f, "io error: {e}"),
            TraceError::Csv { line, message } => write!(f, "csv line {line}: {message}"),
            TraceError::Snapshot { message } => write!(f, "snapshot: {message}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let e = TraceError::UnknownServer {
            fot: FotId::new(3),
            server: ServerId::new(9),
        };
        let s = e.to_string();
        assert!(s.contains("fot-3") && s.contains("host-9"));
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let e: TraceError = std::io::Error::new(std::io::ErrorKind::NotFound, "nope").into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
