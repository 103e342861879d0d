//! Wall-clock timing: [`Stopwatch`] for flat measurements and
//! [`PhaseSpan`]/[`PhaseGuard`] for the hierarchical phase log kept by a
//! [`crate::MetricsRegistry`].
//!
//! The log is bounded: the first [`SPAN_CAP`] spans are kept one by one,
//! and every later span folds into its name's [`FoldedPhase`] totals, so
//! a long-running server's registry stops growing with requests served.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::metrics::Inner;

/// A simple wall-clock stopwatch.
///
/// ```
/// use dcf_obs::Stopwatch;
///
/// let sw = Stopwatch::start();
/// let elapsed = sw.elapsed_ms();
/// assert!(elapsed >= 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts a stopwatch now.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed milliseconds since start, fractional.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e3
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

/// One recorded phase: a named wall-clock span with its nesting depth.
///
/// Spans appear in the log in *opening* order (pre-order of the phase
/// tree); `depth` says how many enclosing phases were open when this one
/// started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Phase name, e.g. `engine.per_server`.
    pub name: String,
    /// Nesting depth (0 = top level).
    pub depth: u32,
    /// Start offset from registry creation, in microseconds.
    pub start_us: u64,
    /// Wall-clock duration in microseconds (0 while the phase is open).
    pub duration_us: u64,
}

impl PhaseSpan {
    /// Duration in fractional milliseconds.
    pub fn duration_ms(&self) -> f64 {
        self.duration_us as f64 / 1e3
    }
}

/// Spans a registry keeps one by one; later spans fold into per-name
/// [`FoldedPhase`] totals. Offline runs open a few hundred spans and stay
/// under it; a server passes it after a few thousand requests.
pub const SPAN_CAP: usize = 4096;

/// Totals of the spans of one name opened after the log held
/// [`SPAN_CAP`] spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldedPhase {
    /// Phase name, e.g. `serve.request`.
    pub name: String,
    /// Spans folded.
    pub count: u64,
    /// Sum of their durations, in microseconds.
    pub total_us: u64,
    /// Longest of them, in microseconds.
    pub max_us: u64,
}

impl FoldedPhase {
    fn add(&mut self, duration_us: u64) {
        self.count += 1;
        self.total_us = self.total_us.saturating_add(duration_us);
        self.max_us = self.max_us.max(duration_us);
    }
}

/// The phase log: the first [`SPAN_CAP`] spans in opening order, the
/// folded totals of the rest, and the current nesting depth.
#[derive(Debug, Default)]
pub(crate) struct SpanLog {
    pub(crate) spans: Vec<PhaseSpan>,
    /// In first-fold order; a name is allocated once, on its first fold.
    pub(crate) folded: Vec<FoldedPhase>,
    pub(crate) depth: usize,
}

impl SpanLog {
    /// Where a span opened now records: a new kept entry while the log
    /// has room, else its name's totals (looked up by `&str`, so a name
    /// seen before allocates nothing).
    fn open(&mut self, name: &str, depth: u32, start_us: u64) -> Slot {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(PhaseSpan {
                name: name.to_string(),
                depth,
                start_us,
                duration_us: 0,
            });
            return Slot::Kept(self.spans.len() - 1);
        }
        let index = match self.folded.iter().position(|f| f.name == name) {
            Some(index) => index,
            None => {
                self.folded.push(FoldedPhase {
                    name: name.to_string(),
                    count: 0,
                    total_us: 0,
                    max_us: 0,
                });
                self.folded.len() - 1
            }
        };
        Slot::Folded(index)
    }

    fn close(&mut self, slot: Slot, duration_us: u64) {
        match slot {
            Slot::Kept(index) => self.spans[index].duration_us = duration_us,
            Slot::Folded(index) => self.folded[index].add(duration_us),
        }
    }
}

/// Where an open span records when it closes.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Its entry in the kept spans.
    Kept(usize),
    /// Its name's entry in the folded totals.
    Folded(usize),
}

/// Guard returned by [`crate::MetricsRegistry::phase`] and
/// [`crate::MetricsRegistry::worker_phase`]; records the span's duration
/// into the registry when dropped.
///
/// Open and close *stacked* phases ([`crate::MetricsRegistry::phase`])
/// from one coordinating thread — the nesting depth is tracked as a
/// single stack. *Detached* phases
/// ([`crate::MetricsRegistry::worker_phase`]) record at the current depth
/// without touching the stack and are safe to open and close from any
/// number of worker threads concurrently.
#[must_use = "a phase span is recorded when the guard is dropped"]
#[derive(Debug)]
pub struct PhaseGuard {
    /// `None` for a disabled registry (pure no-op).
    state: Option<OpenSpan>,
}

/// Bookkeeping for one open (not yet recorded) span.
#[derive(Debug)]
struct OpenSpan {
    inner: Arc<Inner>,
    slot: Slot,
    started: Instant,
    /// Detached spans leave the depth stack alone on drop.
    detached: bool,
}

impl PhaseGuard {
    pub(crate) fn noop() -> Self {
        Self { state: None }
    }

    pub(crate) fn open(inner: Arc<Inner>, name: &str) -> Self {
        Self::open_impl(inner, name, false)
    }

    /// Opens a span at the current depth without pushing onto the depth
    /// stack; see [`crate::MetricsRegistry::worker_phase`].
    pub(crate) fn open_detached(inner: Arc<Inner>, name: &str) -> Self {
        Self::open_impl(inner, name, true)
    }

    fn open_impl(inner: Arc<Inner>, name: &str, detached: bool) -> Self {
        let started = Instant::now();
        let start_us = started.duration_since(inner.epoch).as_micros() as u64;
        let slot = {
            let mut log = inner.spans.lock().expect("span log poisoned");
            let depth = log.depth as u32;
            if !detached {
                log.depth += 1;
            }
            log.open(name, depth, start_us)
        };
        Self {
            state: Some(OpenSpan {
                inner,
                slot,
                started,
                detached,
            }),
        }
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some(open) = self.state.take() {
            let duration_us = open.started.elapsed().as_micros() as u64;
            let mut log = open.inner.spans.lock().expect("span log poisoned");
            if !open.detached {
                log.depth = log.depth.saturating_sub(1);
            }
            log.close(open.slot, duration_us);
        }
    }
}
