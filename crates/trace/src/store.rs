//! The [`Trace`] container: a validated, time-sorted FOT dataset plus the
//! fleet snapshot the analyses need.
//!
//! The tickets live in one [`FotColumns`] store and nowhere else: the
//! engine, the snapshot decoder and [`Trace::new`] all fill columns, and
//! [`Trace::fots`] / [`Trace::fot`] decode rows into [`Fot`] views on
//! demand.

use std::sync::OnceLock;

use crate::columns::{ColumnsBuilder, FotColumns};
use crate::index::{FotIter, TraceIndex};
use crate::streams::StreamIndex;
use crate::{
    ComponentClass, DataCenterId, DataCenterMeta, Fot, FotCategory, ProductLineId, ProductLineMeta,
    ServerId, ServerMeta, SimTime, TraceError,
};

/// Descriptive information about a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceInfo {
    /// Start of the observation window. Servers may deploy *before* this
    /// (the paper's fleet predates its four-year window), so the window
    /// does not necessarily begin at the simulation origin.
    pub start: SimTime,
    /// Length of the observation window in days (the paper's is 1,411).
    pub days: u64,
    /// RNG seed the trace was generated with (0 for imported data).
    pub seed: u64,
    /// Free-text description of the generating scenario.
    pub description: String,
}

impl TraceInfo {
    /// End of the observation window (`start + days`).
    pub fn end(&self) -> SimTime {
        self.start + crate::SimDuration::from_days(self.days)
    }
}

/// A complete failure dataset: tickets sorted by `error_time`, plus
/// server / data center / product line snapshots.
///
/// Construction validates referential integrity, every column's domain,
/// the category/response invariants and the row order (see
/// [`Trace::from_columns`]). The population accessors ([`Trace::failures`],
/// [`Trace::in_category`], [`Trace::fots_of_server`], …) are backed by a
/// shared [`TraceIndex`], built lazily on first use and shared by every
/// analysis section; see [`Trace::index`] for the caching contract.
/// `tests/study_oracle.rs` checks every accessor against the same filter
/// applied to [`Trace::fots`].
///
/// # Examples
///
/// ```
/// use dcf_trace::{
///     ComponentClass, DataCenterId, DataCenterMeta, FailureType, FaultTolerance, Fot,
///     FotCategory, FotId, ProductLineId, ProductLineMeta, RackId, RackPosition, ServerId,
///     ServerMeta, SimDuration, SimTime, Trace, TraceInfo, WorkloadKind,
/// };
///
/// let info = TraceInfo {
///     start: SimTime::ORIGIN,
///     days: 100,
///     seed: 1,
///     description: "doctest".into(),
/// };
/// let server = ServerMeta {
///     id: ServerId::new(0),
///     data_center: DataCenterId::new(0),
///     product_line: ProductLineId::new(0),
///     rack: RackId::new(0),
///     position: RackPosition::new(1),
///     generation: 0,
///     deploy_time: SimTime::ORIGIN,
///     warranty: SimDuration::from_days(30), // out of warranty by day 40
///     hdd_count: 12,
///     ssd_count: 0,
///     cpu_count: 2,
///     dimm_count: 8,
///     fan_count: 4,
///     psu_count: 2,
///     has_raid_card: true,
///     has_flash_card: false,
/// };
/// let dc = DataCenterMeta {
///     id: DataCenterId::new(0),
///     name: "DC-00".into(),
///     built_year: 2014,
///     modern_cooling: true,
///     rack_positions: 40,
/// };
/// let line = ProductLineMeta {
///     id: ProductLineId::new(0),
///     name: "search".into(),
///     workload: WorkloadKind::OnlineService,
///     fault_tolerance: FaultTolerance::Medium,
/// };
/// let fot = Fot {
///     id: FotId::new(0),
///     server: ServerId::new(0),
///     data_center: DataCenterId::new(0),
///     product_line: ProductLineId::new(0),
///     device: ComponentClass::Hdd,
///     device_slot: 3,
///     failure_type: FailureType::NotReady,
///     error_time: SimTime::from_days(40),
///     rack_position: RackPosition::new(1),
///     detail: "",
///     category: FotCategory::Error, // out of warranty: no response
///     response: None,
/// };
/// let trace = Trace::new(info, vec![server], vec![dc], vec![line], vec![fot]).unwrap();
/// assert_eq!(trace.len(), 1);
/// assert_eq!(trace.fot(0), fot);
/// assert_eq!(trace.failures().count(), 1);
/// assert_eq!(trace.fots_of_server(ServerId::new(0)).count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Trace {
    info: TraceInfo,
    servers: Vec<ServerMeta>,
    data_centers: Vec<DataCenterMeta>,
    product_lines: Vec<ProductLineMeta>,
    /// The tickets, one column per field (see [`FotColumns`]).
    fots: FotColumns,
    /// Lazily-built partition index (see [`TraceIndex`]).
    index: OnceLock<TraceIndex>,
    /// Lazily-built per-component failure streams (see [`StreamIndex`]).
    streams: OnceLock<StreamIndex>,
}

/// Equality compares the trace *data* (info, fleet snapshot, tickets).
/// The lazily-built index and stream caches are excluded: two traces with
/// equal data are equal whether or not either has built them yet.
impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.info == other.info
            && self.servers == other.servers
            && self.data_centers == other.data_centers
            && self.product_lines == other.product_lines
            && self.fots == other.fots
    }
}

impl Trace {
    /// Builds a trace from ticket rows in any order: sorts them by
    /// `(error_time, id)`, stores them as columns, and validates them as
    /// [`Trace::from_columns`] does.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`TraceError`].
    pub fn new(
        info: TraceInfo,
        servers: Vec<ServerMeta>,
        data_centers: Vec<DataCenterMeta>,
        product_lines: Vec<ProductLineMeta>,
        mut fots: Vec<Fot<'_>>,
    ) -> Result<Self, TraceError> {
        fots.sort_by_key(|f| (f.error_time, f.id));
        let mut builder = ColumnsBuilder::with_capacity(fots.len());
        for f in &fots {
            builder.push(f);
        }
        Self::from_columns(info, servers, data_centers, product_lines, builder.finish())
    }

    /// Builds a trace that owns `fots`, validating:
    ///
    /// * server ids are dense and every ticket references a known server,
    ///   data center and product line;
    /// * every tag and dictionary id is in range;
    /// * `D_fixing`/`D_falsealarm` tickets have a response, `D_error` do not;
    /// * no response predates its ticket;
    /// * rows ascend strictly in `(error_time, id)` and ticket ids are
    ///   unique. Unsorted columns are rejected, not sorted.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`TraceError`].
    pub fn from_columns(
        info: TraceInfo,
        servers: Vec<ServerMeta>,
        data_centers: Vec<DataCenterMeta>,
        product_lines: Vec<ProductLineMeta>,
        fots: FotColumns,
    ) -> Result<Self, TraceError> {
        for (i, s) in servers.iter().enumerate() {
            if s.id.index() != i {
                return Err(TraceError::NonDenseServerIds);
            }
        }
        fots.validate(servers.len(), data_centers.len(), product_lines.len())?;
        Ok(Self {
            info,
            servers,
            data_centers,
            product_lines,
            fots,
            index: OnceLock::new(),
            streams: OnceLock::new(),
        })
    }

    /// The shared partition index, built lazily on first access.
    ///
    /// The first call pays one pass over the ticket columns; every later
    /// call returns the cached index for free. The index is a pure
    /// function of the trace data (deterministic across runs, build
    /// orders, and thread counts), and a trace's data never changes.
    /// Concurrent first calls are safe: `OnceLock` guarantees exactly one
    /// winner and everyone sees the same index.
    pub fn index(&self) -> &TraceIndex {
        self.index.get_or_init(|| {
            TraceIndex::build(
                self.servers.len(),
                self.data_centers.len(),
                self.product_lines.len(),
                &self.fots,
            )
        })
    }

    /// The ticket columns: row `i` of every column is ticket
    /// [`Trace::fot`]`(i)`, so index positions are row indices. Every
    /// analysis section runs its kernel over these columns.
    pub fn columns(&self) -> &FotColumns {
        &self.fots
    }

    /// The shared per-component failure streams (§VII-A), built lazily on
    /// first access from the index and columns. The predictor evaluation
    /// and the replay's online predictor both walk this one copy.
    pub fn streams(&self) -> &StreamIndex {
        self.streams.get_or_init(|| StreamIndex::build(self))
    }

    /// Trace description.
    pub fn info(&self) -> &TraceInfo {
        &self.info
    }

    /// End of the observation window.
    pub fn end_time(&self) -> SimTime {
        self.info.end()
    }

    /// All tickets, sorted by `(error_time, id)`: the column store, which
    /// iterates as [`Fot`] views (`for f in trace.fots()`), compares by
    /// value, and reports its `len()`. The same store as
    /// [`Trace::columns`].
    pub fn fots(&self) -> &FotColumns {
        &self.fots
    }

    /// Ticket `i` in `(error_time, id)` order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn fot(&self, i: usize) -> Fot<'_> {
        self.fots.fot(i)
    }

    /// Tickets that count as failures (`D_fixing` + `D_error`), the
    /// population every temporal/spatial analysis runs on. Time-sorted.
    pub fn failures(&self) -> FotIter<'_> {
        FotIter::from_ids(&self.fots, self.index().failure_ids())
    }

    /// Failures of one component class, time-sorted.
    pub fn failures_of(&self, class: ComponentClass) -> FotIter<'_> {
        FotIter::from_ids(&self.fots, self.index().class_failure_ids(class))
    }

    /// Tickets in one category, time-sorted.
    pub fn in_category(&self, category: FotCategory) -> FotIter<'_> {
        FotIter::from_ids(&self.fots, self.index().category_ids(category))
    }

    /// Tickets carrying an operator response (`D_fixing` +
    /// `D_falsealarm`), the population the response-time analyses run on.
    /// Time-sorted.
    pub fn responded(&self) -> FotIter<'_> {
        FotIter::from_ids(&self.fots, self.index().responded_ids())
    }

    /// Failures inside one data center, time-sorted. An id the trace
    /// never references yields an empty iterator.
    pub fn failures_in_dc(&self, dc: DataCenterId) -> FotIter<'_> {
        FotIter::from_ids(&self.fots, self.index().dc_failure_ids(dc))
    }

    /// Failures owned by one product line, time-sorted. An id the trace
    /// never references yields an empty iterator.
    pub fn failures_in_line(&self, line: ProductLineId) -> FotIter<'_> {
        FotIter::from_ids(&self.fots, self.index().line_failure_ids(line))
    }

    /// All server snapshots, indexed by `ServerId`.
    pub fn servers(&self) -> &[ServerMeta] {
        &self.servers
    }

    /// One server's snapshot.
    ///
    /// # Panics
    ///
    /// Panics on an id not in this trace (construction guarantees tickets
    /// only reference known servers).
    pub fn server(&self, id: ServerId) -> &ServerMeta {
        &self.servers[id.index()]
    }

    /// All data center snapshots.
    pub fn data_centers(&self) -> &[DataCenterMeta] {
        &self.data_centers
    }

    /// All product line snapshots.
    pub fn product_lines(&self) -> &[ProductLineMeta] {
        &self.product_lines
    }

    /// Tickets of one server, time-sorted. An unknown id yields an empty
    /// iterator.
    pub fn fots_of_server(&self, id: ServerId) -> FotIter<'_> {
        FotIter::from_ids(&self.fots, self.index().server_ids(id))
    }

    /// Number of tickets.
    pub fn len(&self) -> usize {
        self.fots.len()
    }

    /// Whether the trace has no tickets.
    pub fn is_empty(&self) -> bool {
        self.fots.is_empty()
    }

    /// Restricts the trace to tickets whose `error_time` falls in
    /// `[from, to)` (clamped to the original window). The fleet snapshot is
    /// kept whole — populations and exposure still need it.
    ///
    /// Used for windowed analyses like the paper's Figure 11, which looks
    /// at one 12-month slice of the four-year trace.
    ///
    /// # Errors
    ///
    /// Never fails for a trace that was valid to begin with; the `Result`
    /// mirrors [`Trace::new`].
    pub fn restrict(&self, from: SimTime, to: SimTime) -> Result<Trace, TraceError> {
        let from = from.max(self.info.start);
        let to = to.min(self.end_time());
        let window = from.as_secs()..to.as_secs();
        let fots = self
            .fots
            .select(|i| window.contains(&self.fots.error_secs(i)));
        let days = to.since(from).as_secs() / crate::SECS_PER_DAY;
        let info = TraceInfo {
            start: from,
            days,
            seed: self.info.seed,
            description: format!(
                "{} [restricted d{}..d{}]",
                self.info.description,
                from.day_index(),
                to.day_index()
            ),
        };
        self.with_fots(info, fots)
    }

    /// Restricts the trace to one data center's tickets (fleet snapshot
    /// kept whole, as in [`Trace::restrict`]).
    ///
    /// # Errors
    ///
    /// Never fails for a valid source trace.
    pub fn restrict_dc(&self, dc: crate::DataCenterId) -> Result<Trace, TraceError> {
        let dcs = self.fots.data_centers();
        let fots = self.fots.select(|i| dcs[i] == dc.raw());
        let mut info = self.info.clone();
        info.description = format!("{} [{dc}]", self.info.description);
        self.with_fots(info, fots)
    }

    /// A trace with this fleet snapshot, `info` and `fots`.
    fn with_fots(&self, info: TraceInfo, fots: FotColumns) -> Result<Trace, TraceError> {
        Trace::from_columns(
            info,
            self.servers.clone(),
            self.data_centers.clone(),
            self.product_lines.clone(),
            fots,
        )
    }

    /// Count of tickets per category, in [`FotCategory::ALL`] order.
    pub fn category_counts(&self) -> [usize; 3] {
        self.index().category_counts()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{
        DataCenterId, FailureType, FotId, OperatorAction, OperatorId, OperatorResponse,
        ProductLineId, RackId, RackPosition, SimDuration,
    };

    pub(crate) fn tiny_fleet() -> (Vec<ServerMeta>, Vec<DataCenterMeta>, Vec<ProductLineMeta>) {
        let servers = (0..3)
            .map(|i| ServerMeta {
                id: ServerId::new(i),
                data_center: DataCenterId::new(0),
                product_line: ProductLineId::new(0),
                rack: RackId::new(0),
                position: RackPosition::new(i as u8 + 1),
                generation: 1,
                deploy_time: SimTime::ORIGIN,
                warranty: SimDuration::from_days(1095),
                hdd_count: 12,
                ssd_count: 0,
                cpu_count: 2,
                dimm_count: 8,
                fan_count: 4,
                psu_count: 2,
                has_raid_card: true,
                has_flash_card: false,
            })
            .collect();
        let dcs = vec![DataCenterMeta {
            id: DataCenterId::new(0),
            name: "DC-00".into(),
            built_year: 2013,
            modern_cooling: false,
            rack_positions: 40,
        }];
        let pls = vec![ProductLineMeta {
            id: ProductLineId::new(0),
            name: "pl-test".into(),
            workload: crate::WorkloadKind::BatchProcessing,
            fault_tolerance: crate::FaultTolerance::High,
        }];
        (servers, dcs, pls)
    }

    pub(crate) fn fot(id: u64, server: u32, day: u64, category: FotCategory) -> Fot<'static> {
        let response = category.has_response().then_some(OperatorResponse {
            operator: OperatorId::new(0),
            op_time: SimTime::from_days(day + 2),
            action: if category == FotCategory::FalseAlarm {
                OperatorAction::MarkFalseAlarm
            } else {
                OperatorAction::IssueRepairOrder
            },
        });
        Fot {
            id: FotId::new(id),
            server: ServerId::new(server),
            data_center: DataCenterId::new(0),
            product_line: ProductLineId::new(0),
            device: ComponentClass::Hdd,
            device_slot: 0,
            failure_type: FailureType::SmartFail,
            error_time: SimTime::from_days(day),
            rack_position: RackPosition::new(server as u8 + 1),
            detail: "",
            category,
            response,
        }
    }

    fn info() -> TraceInfo {
        TraceInfo {
            start: SimTime::ORIGIN,
            days: 100,
            seed: 1,
            description: "test".into(),
        }
    }

    #[test]
    fn construction_sorts_by_time() {
        let (s, d, p) = tiny_fleet();
        let fots = vec![
            fot(0, 0, 50, FotCategory::Fixing),
            fot(1, 1, 10, FotCategory::Error),
            fot(2, 2, 30, FotCategory::FalseAlarm),
        ];
        let trace = Trace::new(info(), s, d, p, fots).unwrap();
        let days: Vec<u64> = trace
            .fots()
            .iter()
            .map(|f| f.error_time.day_index())
            .collect();
        assert_eq!(days, vec![10, 30, 50]);
    }

    #[test]
    fn rejects_unknown_server() {
        let (s, d, p) = tiny_fleet();
        let fots = vec![fot(0, 99, 1, FotCategory::Fixing)];
        assert!(matches!(
            Trace::new(info(), s, d, p, fots),
            Err(TraceError::UnknownServer { .. })
        ));
    }

    #[test]
    fn rejects_tickets_outside_the_fleet_snapshot() {
        let (s, d, p) = tiny_fleet();
        let mut bad = fot(0, 0, 1, FotCategory::Fixing);
        bad.data_center = DataCenterId::new(1); // tiny_fleet has one DC
        assert!(matches!(
            Trace::new(info(), s, d, p, vec![bad]),
            Err(TraceError::InvalidColumn {
                column: "data_center",
                ..
            })
        ));
    }

    #[test]
    fn rejects_duplicate_ids() {
        let (s, d, p) = tiny_fleet();
        let fots = vec![
            fot(0, 0, 1, FotCategory::Fixing),
            fot(0, 1, 2, FotCategory::Fixing),
        ];
        assert!(matches!(
            Trace::new(info(), s, d, p, fots),
            Err(TraceError::DuplicateFotId { .. })
        ));
    }

    #[test]
    fn rejects_response_mismatch() {
        let (s, d, p) = tiny_fleet();
        let mut bad = fot(0, 0, 1, FotCategory::Fixing);
        bad.response = None; // Fixing requires a response
        assert!(matches!(
            Trace::new(info(), s.clone(), d.clone(), p.clone(), vec![bad]),
            Err(TraceError::ResponseMismatch { .. })
        ));
        let mut bad2 = fot(1, 0, 1, FotCategory::Error);
        bad2.response = Some(OperatorResponse {
            operator: OperatorId::new(0),
            op_time: SimTime::from_days(2),
            action: OperatorAction::IssueRepairOrder,
        });
        assert!(matches!(
            Trace::new(info(), s, d, p, vec![bad2]),
            Err(TraceError::ResponseMismatch { .. })
        ));
    }

    #[test]
    fn rejects_negative_response_time() {
        let (s, d, p) = tiny_fleet();
        let mut bad = fot(0, 0, 10, FotCategory::Fixing);
        bad.response.as_mut().unwrap().op_time = SimTime::from_days(5);
        assert!(matches!(
            Trace::new(info(), s, d, p, vec![bad]),
            Err(TraceError::NegativeResponseTime { .. })
        ));
    }

    #[test]
    fn failures_exclude_false_alarms() {
        let (s, d, p) = tiny_fleet();
        let fots = vec![
            fot(0, 0, 1, FotCategory::Fixing),
            fot(1, 1, 2, FotCategory::Error),
            fot(2, 2, 3, FotCategory::FalseAlarm),
        ];
        let trace = Trace::new(info(), s, d, p, fots).unwrap();
        assert_eq!(trace.failures().count(), 2);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.category_counts(), [1, 1, 1]);
    }

    #[test]
    fn restrict_keeps_only_window_tickets() {
        let (s, d, p) = tiny_fleet();
        let fots = vec![
            fot(0, 0, 10, FotCategory::Fixing),
            fot(1, 1, 50, FotCategory::Fixing),
            fot(2, 2, 90, FotCategory::Fixing),
        ];
        let trace = Trace::new(info(), s, d, p, fots).unwrap();
        let sliced = trace
            .restrict(SimTime::from_days(20), SimTime::from_days(80))
            .unwrap();
        assert_eq!(sliced.len(), 1);
        assert_eq!(sliced.fot(0).error_time.day_index(), 50);
        assert_eq!(sliced.info().days, 60);
        assert_eq!(sliced.servers().len(), trace.servers().len());
        // Clamping to the original window.
        let clamped = trace
            .restrict(SimTime::ORIGIN, SimTime::from_days(10_000))
            .unwrap();
        assert_eq!(clamped.len(), trace.len());
    }

    #[test]
    fn restrict_dc_filters_tickets() {
        let (s, d, p) = tiny_fleet();
        let fots = vec![fot(0, 0, 10, FotCategory::Fixing)];
        let trace = Trace::new(info(), s, d, p, fots).unwrap();
        let same_dc = trace.restrict_dc(DataCenterId::new(0)).unwrap();
        assert_eq!(same_dc.len(), 1);
        let other_dc = trace.restrict_dc(DataCenterId::new(9)).unwrap();
        assert!(other_dc.is_empty());
    }

    #[test]
    fn per_server_index_works() {
        let (s, d, p) = tiny_fleet();
        let fots = vec![
            fot(0, 1, 5, FotCategory::Fixing),
            fot(1, 1, 2, FotCategory::Fixing),
            fot(2, 0, 3, FotCategory::Fixing),
        ];
        let trace = Trace::new(info(), s, d, p, fots).unwrap();
        let of_1: Vec<u64> = trace
            .fots_of_server(ServerId::new(1))
            .map(|f| f.error_time.day_index())
            .collect();
        assert_eq!(of_1, vec![2, 5]); // time-sorted
        assert_eq!(trace.fots_of_server(ServerId::new(2)).count(), 0);
    }
}
