//! The [`TraceIndex`]: precomputed ticket partitions shared by every
//! analysis section.
//!
//! Every §II–§VI analysis consumes the same handful of FOT populations —
//! "all failures", "failures of one component class", "tickets of one
//! category", "failures inside one data center / product line", "tickets
//! of one server", "tickets with an operator response". Before this index
//! existed each section re-derived its population with a full linear scan
//! of the ticket vector; at the paper's scale (~290k FOTs) those repeated
//! scans dominated the cost of a reproduction run.
//!
//! [`TraceIndex::build`] walks the ticket columns **once** per partition
//! and buckets row positions by every partition key.
//! [`crate::Trace::index`] builds it lazily (first access pays, later
//! accesses are free) and keeps it for the life of the trace, whose
//! tickets never change.
//!
//! # Invariants
//!
//! * Every bucket holds **row positions into the trace's
//!   [`FotColumns`]** (`u32`, enough for any trace the schema's dense
//!   `FotId`s allow), in ascending position order. Rows are in
//!   `(error_time, id)` order, so every bucket is time-sorted.
//! * The index is a pure function of the ticket columns and the fleet
//!   snapshot sizes: two equal traces build equal indices, independent of
//!   thread count, build order, or whether the index was built lazily or
//!   eagerly.
//! * Iterating a bucket yields exactly the tickets a linear scan with the
//!   corresponding filter would yield, in the same order.
//!   `tests/study_oracle.rs` holds those reference filters and asserts
//!   this bit-for-bit.

use crate::columns::{category_tag, FotColumns};
use crate::{ComponentClass, DataCenterId, Fot, FotCategory, ProductLineId, ServerId};

/// Number of component classes ([`ComponentClass::ALL`]).
const N_CLASSES: usize = 11;
/// Number of ticket categories ([`FotCategory::ALL`]).
const N_CATEGORIES: usize = 3;

/// One keyed partition in compressed-sparse-row layout: a single flat
/// position vector plus per-key offset ranges, so an index with thousands
/// of keys (servers, product lines) costs two allocations instead of one
/// `Vec` per key. `slice(k)` is `positions[offsets[k]..offsets[k + 1]]`.
#[derive(Debug, Clone, Default, PartialEq)]
struct CsrTable {
    /// `n_keys + 1` cumulative counts (`offsets[0] == 0`).
    offsets: Vec<u32>,
    /// Ticket positions, grouped by key, ascending within each key.
    positions: Vec<u32>,
}

impl CsrTable {
    /// Builds a table over rows `0..n_rows` by counting sort: one pass to
    /// count per-key populations, a prefix sum, and one pass to place
    /// positions. Rows are visited in ascending order, so every key's
    /// range stays ascending (= time-sorted).
    fn build<F: Fn(usize) -> Option<usize>>(n_keys: usize, n_rows: usize, key: F) -> Self {
        let mut counts = vec![0u32; n_keys];
        for i in 0..n_rows {
            if let Some(k) = key(i) {
                counts[k] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(n_keys + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n_keys].to_vec();
        let mut positions = vec![0u32; acc as usize];
        for i in 0..n_rows {
            if let Some(k) = key(i) {
                positions[cursor[k] as usize] = i as u32;
                cursor[k] += 1;
            }
        }
        CsrTable { offsets, positions }
    }

    /// The position range of `key`; empty for out-of-range keys (and for
    /// every key of a default-constructed table).
    fn slice(&self, key: usize) -> &[u32] {
        match (self.offsets.get(key), self.offsets.get(key + 1)) {
            (Some(&s), Some(&e)) => &self.positions[s as usize..e as usize],
            _ => &[],
        }
    }

    /// Number of positions under `key`.
    fn count(&self, key: usize) -> usize {
        self.slice(key).len()
    }
}

/// Precomputed partitions of one trace's ticket vector.
///
/// Built once per trace (lazily, on first access through
/// [`crate::Trace::index`]) and shared by every analysis section; see the
/// module docs for the invariants. Each keyed partition is stored as
/// offset ranges into one flat position vector (CSR) rather than per-key
/// `Vec` buckets, which keeps the whole index in a handful of dense
/// allocations; the public accessors still hand out plain `&[u32]` slices.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceIndex {
    /// Positions of failures (`D_fixing` + `D_error`), time-sorted.
    failures: Vec<u32>,
    /// Positions of tickets carrying an operator response.
    responded: Vec<u32>,
    /// Positions of all tickets, per category ([`FotCategory::ALL`] order).
    by_category: CsrTable,
    /// Positions of failures, per component class
    /// ([`ComponentClass::ALL`] order).
    failures_by_class: CsrTable,
    /// Positions of failures, per data center id.
    failures_by_dc: CsrTable,
    /// Positions of failures, per product line id.
    failures_by_line: CsrTable,
    /// Positions of all tickets, per server id.
    by_server: CsrTable,
}

impl TraceIndex {
    /// Builds the index with counting-sort passes over the columns of a
    /// validated trace: every server, data center and product line id is
    /// below `n_servers`, `n_dcs` and `n_lines`.
    pub(crate) fn build(n_servers: usize, n_dcs: usize, n_lines: usize, cols: &FotColumns) -> Self {
        let n = cols.len();
        let (categories, classes) = (cols.categories(), cols.classes());
        let (dcs, lines, servers) = (cols.data_centers(), cols.product_lines(), cols.servers());
        let failure = |i: usize| cols.is_failure(i);
        TraceIndex {
            failures: (0..n as u32).filter(|&i| failure(i as usize)).collect(),
            responded: (0..n as u32)
                .filter(|&i| cols.op_secs(i as usize).is_some())
                .collect(),
            by_category: CsrTable::build(N_CATEGORIES, n, |i| Some(categories[i] as usize)),
            failures_by_class: CsrTable::build(N_CLASSES, n, |i| {
                failure(i).then(|| classes[i] as usize)
            }),
            failures_by_dc: CsrTable::build(n_dcs, n, |i| failure(i).then(|| dcs[i] as usize)),
            failures_by_line: CsrTable::build(n_lines, n, |i| {
                failure(i).then(|| lines[i] as usize)
            }),
            by_server: CsrTable::build(n_servers, n, |i| Some(servers[i] as usize)),
        }
    }

    /// Positions of all failures (`D_fixing` + `D_error`), time-sorted.
    pub fn failure_ids(&self) -> &[u32] {
        &self.failures
    }

    /// Positions of all tickets carrying an operator response.
    pub fn responded_ids(&self) -> &[u32] {
        &self.responded
    }

    /// Positions of all tickets in `category`.
    pub fn category_ids(&self, category: FotCategory) -> &[u32] {
        self.by_category.slice(category_tag(category) as usize)
    }

    /// Positions of failures of component `class`.
    pub fn class_failure_ids(&self, class: ComponentClass) -> &[u32] {
        self.failures_by_class.slice(class.index())
    }

    /// Positions of failures inside data center `dc` (empty for an id the
    /// trace never references).
    pub fn dc_failure_ids(&self, dc: DataCenterId) -> &[u32] {
        self.failures_by_dc.slice(dc.index())
    }

    /// Positions of failures owned by product line `line` (empty for an id
    /// the trace never references).
    pub fn line_failure_ids(&self, line: ProductLineId) -> &[u32] {
        self.failures_by_line.slice(line.index())
    }

    /// Positions of all tickets of server `server` (empty for an unknown
    /// id), time-sorted.
    pub fn server_ids(&self, server: ServerId) -> &[u32] {
        self.by_server.slice(server.index())
    }

    /// Number of failures (length of [`TraceIndex::failure_ids`]).
    pub fn failure_count(&self) -> usize {
        self.failures.len()
    }

    /// Ticket counts per category, in [`FotCategory::ALL`] order.
    pub fn category_counts(&self) -> [usize; N_CATEGORIES] {
        [
            self.by_category.count(0),
            self.by_category.count(1),
            self.by_category.count(2),
        ]
    }
}

/// Iterator over one ticket population of a [`crate::Trace`], as
/// [`Fot`] views.
///
/// Returned by the population accessors ([`crate::Trace::failures`],
/// [`crate::Trace::failures_of`], [`crate::Trace::in_category`], …) and
/// backed by one index bucket, so it yields the population's tickets in
/// time order.
#[derive(Debug, Clone)]
pub struct FotIter<'a> {
    cols: &'a FotColumns,
    ids: std::slice::Iter<'a, u32>,
}

impl<'a> FotIter<'a> {
    /// An iterator over the rows at `ids` (an index bucket).
    pub(crate) fn from_ids(cols: &'a FotColumns, ids: &'a [u32]) -> Self {
        Self {
            cols,
            ids: ids.iter(),
        }
    }
}

impl<'a> Iterator for FotIter<'a> {
    type Item = Fot<'a>;

    #[inline]
    fn next(&mut self) -> Option<Fot<'a>> {
        self.ids.next().map(|&i| self.cols.fot(i as usize))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }

    // Population sizes are counted often; counting decodes no rows.
    fn count(self) -> usize {
        self.ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::{fot, tiny_fleet};
    use crate::{SimTime, Trace, TraceInfo};

    fn info() -> TraceInfo {
        TraceInfo {
            start: SimTime::ORIGIN,
            days: 100,
            seed: 1,
            description: "index test".into(),
        }
    }

    fn mixed_trace() -> Trace {
        let (s, d, p) = tiny_fleet();
        let fots = vec![
            fot(0, 0, 50, FotCategory::Fixing),
            fot(1, 1, 10, FotCategory::Error),
            fot(2, 2, 30, FotCategory::FalseAlarm),
            fot(3, 1, 20, FotCategory::Fixing),
        ];
        Trace::new(info(), s, d, p, fots).unwrap()
    }

    #[test]
    fn buckets_partition_the_tickets() {
        let trace = mixed_trace();
        let ix = trace.index();
        assert_eq!(ix.category_counts(), [2, 1, 1]);
        assert_eq!(ix.failure_count(), 3); // false alarm excluded
        assert_eq!(ix.responded_ids().len(), 3); // Fixing ×2 + FalseAlarm
        let per_server: usize = (0..3).map(|i| ix.server_ids(ServerId::new(i)).len()).sum();
        assert_eq!(per_server, trace.len());
    }

    #[test]
    fn buckets_are_time_sorted() {
        let trace = mixed_trace();
        let ix = trace.index();
        let days: Vec<u64> = ix
            .server_ids(ServerId::new(1))
            .iter()
            .map(|&i| trace.fot(i as usize).error_time.day_index())
            .collect();
        assert_eq!(days, vec![10, 20]);
        let failure_days: Vec<u64> = ix
            .failure_ids()
            .iter()
            .map(|&i| trace.fot(i as usize).error_time.day_index())
            .collect();
        assert_eq!(failure_days, vec![10, 20, 50]);
    }

    #[test]
    fn unknown_ids_yield_empty_buckets() {
        let trace = mixed_trace();
        let ix = trace.index();
        assert!(ix.dc_failure_ids(DataCenterId::new(99)).is_empty());
        assert!(ix.line_failure_ids(ProductLineId::new(99)).is_empty());
        assert!(ix.server_ids(ServerId::new(99)).is_empty());
    }

    #[test]
    fn indexed_accessors_match_reference_scans() {
        let trace = mixed_trace();
        let ids = |it: FotIter<'_>| it.map(|f| f.id).collect::<Vec<_>>();
        let scan = |keep: &dyn Fn(&Fot) -> bool| {
            trace
                .fots()
                .iter()
                .filter(|f| keep(f))
                .map(|f| f.id)
                .collect::<Vec<_>>()
        };

        assert_eq!(ids(trace.failures()), scan(&|f| f.is_failure()));
        assert_eq!(ids(trace.responded()), scan(&|f| f.response.is_some()));
        for class in ComponentClass::ALL {
            assert_eq!(
                ids(trace.failures_of(class)),
                scan(&|f| f.is_failure() && f.device == class)
            );
        }
        for category in FotCategory::ALL {
            assert_eq!(
                ids(trace.in_category(category)),
                scan(&|f| f.category == category)
            );
        }
        let dc = DataCenterId::new(0);
        assert_eq!(
            ids(trace.failures_in_dc(dc)),
            scan(&|f| f.is_failure() && f.data_center == dc)
        );
        let line = ProductLineId::new(0);
        assert_eq!(
            ids(trace.failures_in_line(line)),
            scan(&|f| f.is_failure() && f.product_line == line)
        );
        for i in 0..3 {
            let server = ServerId::new(i);
            assert_eq!(
                ids(trace.fots_of_server(server)),
                scan(&|f| f.server == server)
            );
        }
    }
}
