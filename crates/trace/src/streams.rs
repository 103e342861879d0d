//! The [`StreamIndex`]: every component's failures in time order, the
//! event streams of the paper's §VII-A warning→failure predictor.
//!
//! Both the offline predictor evaluation and the replay's online
//! predictor walk these streams, so [`crate::Trace::streams`] builds the
//! index once, lazily, and shares it like [`crate::Trace::index`] and
//! [`crate::Trace::columns`].

use crate::{ComponentClass, FailureType, ServerId, Severity, Trace};

/// Failure tickets of every component, grouped per component and in
/// time order within each group.
///
/// A component is a `(server, class, slot)` triple, packed as
/// `server << 16 | class << 8 | slot`. Miscellaneous (manual) tickets have
/// no component and are left out. The layout is compressed sparse rows:
/// stream `c` is entries `offsets[c]..offsets[c + 1]` of the flat columns.
/// Components are in ascending key order, and each stream's entries are in
/// trace-row order, which is `(error_time, id)` order.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamIndex {
    /// Packed component key per stream, ascending.
    keys: Vec<u64>,
    /// `keys.len() + 1` cumulative entry counts (`offsets[0] == 0`).
    offsets: Vec<u32>,
    /// Trace row of each entry.
    rows: Vec<u32>,
    /// Error time of each entry, seconds since origin.
    times: Vec<u64>,
    /// Whether each entry is a warning (otherwise it is fatal).
    warnings: Vec<bool>,
}

/// One component's stream: entry times and warning flags, in time order.
#[derive(Debug, Clone, Copy)]
pub struct Stream<'a> {
    /// Error time of each event, seconds since origin.
    times: &'a [u64],
    /// Whether each event is a warning (otherwise it is fatal).
    warnings: &'a [bool],
}

impl StreamIndex {
    /// Builds the index from the trace's per-server ticket buckets and
    /// columns.
    ///
    /// Servers are visited in id order, and each server's failures are
    /// ordered by `(class, slot, row)`: one small sort per server yields
    /// the global `(key, row)` order without sorting every failure at once.
    pub fn build(trace: &Trace) -> Self {
        let cols = trace.columns();
        let index = trace.index();
        let (classes, slots, types) = (cols.classes(), cols.device_slots(), cols.failure_types());
        let misc = ComponentClass::Miscellaneous.index() as u8;
        let is_warning: Vec<bool> = FailureType::ALL
            .iter()
            .map(|t| t.severity() == Severity::Warning)
            .collect();
        let n = index.failure_count();
        let mut streams = StreamIndex {
            keys: Vec::new(),
            offsets: Vec::new(),
            rows: Vec::with_capacity(n),
            times: Vec::with_capacity(n),
            warnings: Vec::with_capacity(n),
        };
        // One server's failures as `(class << 8 | slot, row)`.
        let mut server_rows: Vec<(u16, u32)> = Vec::new();
        for server in 0..trace.servers().len() as u32 {
            server_rows.clear();
            server_rows.extend(
                index
                    .server_ids(ServerId::new(server))
                    .iter()
                    .map(|&row| (row, row as usize))
                    .filter(|&(_, i)| cols.is_failure(i) && classes[i] != misc)
                    .map(|(row, i)| ((classes[i] as u16) << 8 | slots[i] as u16, row)),
            );
            server_rows.sort_unstable();
            for &(component, row) in &server_rows {
                let key = (server as u64) << 16 | component as u64;
                if streams.keys.last() != Some(&key) {
                    streams.keys.push(key);
                    streams.offsets.push(streams.rows.len() as u32);
                }
                let i = row as usize;
                streams.rows.push(row);
                streams.times.push(cols.error_secs(i));
                streams.warnings.push(is_warning[types[i] as usize]);
            }
        }
        streams.offsets.push(streams.rows.len() as u32);
        streams
    }

    /// Number of component streams.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the trace has no component failures.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Component `c` as `(server, class index, slot)`.
    pub fn component(&self, c: usize) -> (u32, u8, u8) {
        let key = self.keys[c];
        ((key >> 16) as u32, (key >> 8) as u8, key as u8)
    }

    /// The event stream of component `c`.
    pub fn stream(&self, c: usize) -> Stream<'_> {
        let range = self.offsets[c] as usize..self.offsets[c + 1] as usize;
        Stream {
            times: &self.times[range.clone()],
            warnings: &self.warnings[range],
        }
    }

    /// Trace rows of component `c`'s events, in time order.
    pub fn rows(&self, c: usize) -> &[u32] {
        &self.rows[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }
}

impl<'a> Stream<'a> {
    /// Error time of each event, seconds since origin.
    pub fn times(&self) -> &'a [u64] {
        self.times
    }

    /// Whether each event is a warning (otherwise it is fatal).
    pub fn warnings(&self) -> &'a [bool] {
        self.warnings
    }
}
