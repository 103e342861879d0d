//! Named atomic counters and gauges, grouped in a [`MetricsRegistry`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::report::RunReport;
use crate::timer::{PhaseGuard, SpanLog};

/// A handle to one named monotonic counter.
///
/// Handles are cheap to clone and safe to increment from any thread;
/// increments use relaxed atomics and never touch RNG state, so
/// instrumented simulations stay bit-for-bit deterministic. A handle from
/// a disabled registry (or [`Counter::noop`]) ignores increments.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A detached no-op counter (what a disabled registry hands out).
    pub fn noop() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// A handle to one named gauge (a last-write-wins `f64`).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    /// `f64` bits, so the cell can be a plain atomic.
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// A detached no-op gauge.
    pub fn noop() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        if let Some(cell) = &self.cell {
            cell.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 for a no-op handle).
    pub fn get(&self) -> f64 {
        self.cell
            .as_ref()
            .map(|c| f64::from_bits(c.load(Ordering::Relaxed)))
            .unwrap_or(0.0)
    }
}

/// Shared state behind an enabled registry.
#[derive(Debug)]
pub(crate) struct Inner {
    /// Time origin for span start offsets.
    pub(crate) epoch: Instant,
    pub(crate) counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    pub(crate) gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    pub(crate) spans: Mutex<SpanLog>,
}

/// The cell registered under `name` in `map`, registering one holding
/// `initial` on first use. The name is looked up by `&str` first, so
/// only a first registration allocates.
fn registered(
    map: &Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    name: &str,
    initial: u64,
) -> Arc<AtomicU64> {
    let mut map = map.lock().expect("metric map poisoned");
    if let Some(cell) = map.get(name) {
        return Arc::clone(cell);
    }
    let cell = Arc::new(AtomicU64::new(initial));
    map.insert(name.to_string(), Arc::clone(&cell));
    cell
}

/// A registry of named counters, gauges and phase spans.
///
/// Cloning is cheap (an `Arc`); all clones observe the same metrics. The
/// [`MetricsRegistry::disabled`] variant (also the `Default`) carries no
/// state at all, and every operation on it is a no-op behind a single
/// branch — cheap enough to thread through hot paths unconditionally.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<Inner>>,
}

impl MetricsRegistry {
    /// An enabled registry.
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                spans: Mutex::new(SpanLog::default()),
            })),
        }
    }

    /// The no-op registry: hands out no-op handles, records nothing.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Returns (registering on first use) the counter handle for `name`.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self
                .inner
                .as_ref()
                .map(|inner| registered(&inner.counters, name, 0)),
        }
    }

    /// Adds `n` to counter `name` (registering it on first use).
    pub fn add(&self, name: &str, n: u64) {
        if self.inner.is_some() {
            self.counter(name).add(n);
        }
    }

    /// Returns (registering on first use) the gauge handle for `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            cell: self
                .inner
                .as_ref()
                .map(|inner| registered(&inner.gauges, name, 0.0f64.to_bits())),
        }
    }

    /// Sets gauge `name` (registering it on first use).
    pub fn set_gauge(&self, name: &str, value: f64) {
        if self.inner.is_some() {
            self.gauge(name).set(value);
        }
    }

    /// Current value of counter `name`, if it was ever registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        let counters = inner.counters.lock().expect("counter map poisoned");
        counters.get(name).map(|c| c.load(Ordering::Relaxed))
    }

    /// Current value of gauge `name`, if it was ever registered.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        let inner = self.inner.as_ref()?;
        let gauges = inner.gauges.lock().expect("gauge map poisoned");
        gauges
            .get(name)
            .map(|c| f64::from_bits(c.load(Ordering::Relaxed)))
    }

    /// Opens a named phase span; the span is recorded when the returned
    /// guard drops. Open/close phases from one coordinating thread.
    pub fn phase(&self, name: &str) -> PhaseGuard {
        match &self.inner {
            None => PhaseGuard::noop(),
            Some(inner) => PhaseGuard::open(inner.clone(), name),
        }
    }

    /// Opens a *detached* phase span: recorded at the current nesting
    /// depth, but without pushing onto the depth stack.
    ///
    /// Unlike [`MetricsRegistry::phase`], detached spans may be opened and
    /// closed concurrently from worker threads — the parallel study
    /// scheduler uses one per section so per-section wall time stays
    /// visible when sections overlap. Spans appear in the log in opening
    /// order, which for concurrent workers is the lock-acquisition order;
    /// look spans up by name rather than position.
    pub fn worker_phase(&self, name: &str) -> PhaseGuard {
        match &self.inner {
            None => PhaseGuard::noop(),
            Some(inner) => PhaseGuard::open_detached(inner.clone(), name),
        }
    }

    /// Snapshots all spans, folded span totals (sorted by name), counters
    /// and gauges into a [`RunReport`].
    ///
    /// For a disabled registry the report is empty (but valid). Call after
    /// all phase guards have dropped; still-open spans report duration 0
    /// and still-open folded spans are not yet counted.
    pub fn report(&self, label: &str) -> RunReport {
        let Some(inner) = &self.inner else {
            return RunReport {
                label: label.to_string(),
                phases: Vec::new(),
                folded: Vec::new(),
                counters: Vec::new(),
                gauges: Vec::new(),
            };
        };
        let (phases, mut folded) = {
            let log = inner.spans.lock().expect("span log poisoned");
            (log.spans.clone(), log.folded.clone())
        };
        folded.sort_by(|a, b| a.name.cmp(&b.name));
        let counters = inner
            .counters
            .lock()
            .expect("counter map poisoned")
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let gauges = inner
            .gauges
            .lock()
            .expect("gauge map poisoned")
            .iter()
            .map(|(name, cell)| (name.clone(), f64::from_bits(cell.load(Ordering::Relaxed))))
            .collect();
        RunReport {
            label: label.to_string(),
            phases,
            folded,
            counters,
            gauges,
        }
    }
}
