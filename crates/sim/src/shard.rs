//! The engine driver: every run is a [`ShardPlan`].
//!
//! A run builds the fleet (unless the caller passes one), runs the global
//! phase once over the whole fleet, runs the per-server phase over each
//! shard of the plan (one shard unless [`RunOptions::shards`] asks for
//! more), and k-way merges the sorted records with [`merge_cursors`] into
//! one sink: the trace's ticket columns for [`simulate`], or the streamed
//! digest of [`simulate_sharded`]. Ticket ids are assigned in merge order.
//!
//! One shard has nothing to merge across shards: its per-thread chunks
//! merge in memory, with no spill file, under the `engine.per_server` and
//! `engine.assembly` spans. The trace sink splits that merge into
//! error-time ranges ([`split_by_time`]), one per engine thread, and
//! merges each on its own thread into its own column builder. Two or
//! more shards bound memory: a pool of up to
//! [`RunOptions::shard_workers`] threads simulates shards and spills
//! each one's merged records to a [`dcf_trace::io::spill`] file, which the
//! coordinating thread opens and prefetches the moment its shard lands,
//! overlapping the shards still simulating; the spills then merge into the
//! sink, and every spill the run wrote is removed, on error paths too.
//! The digest sink's merge runs as a two-stage pipeline at two or more
//! engine threads: the calling thread decodes and merges records into
//! batches, and a second thread stamps and digests them. SCALING.md lists
//! the `engine.shard.*` and `engine.merge.*` spans, counters and gauges of
//! such a run.
//!
//! Per-server RNG streams are seeded from `(seed, server id)` alone and
//! the global phase runs once, so the merged stream is **byte-identical**
//! at any shard, worker, and thread count; `tests/engine_identity.rs`
//! gates it.

use std::ops::{ControlFlow, Range};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use dcf_failmodel::types::detail_str;
use dcf_fleet::{Fleet, FleetBuilder};
use dcf_fms::FmsMetrics;
use dcf_obs::MetricsRegistry;
use dcf_trace::io::spill::{
    merge_cursors, split_by_time, try_merge_cursors, ShardSpillReader, ShardSpillWriter,
    SpillCursor, SpillRecord,
};
use dcf_trace::io::FotsDigester;
use dcf_trace::{
    columns::category_tag, ColumnsBuilder, DataCenterId, DataCenterMeta, FailureType, Fot,
    FotColumns, FotId, ProductLineId, ProductLineMeta, RackPosition, ServerMeta, Trace, TraceError,
    TraceInfo,
};

use crate::config::SimConfig;
use crate::engine::{
    per_server_records, publish_server_counts, resolve_threads, run_global_phase, GlobalPhase,
    ServerCounts,
};
use crate::error::SimError;
use crate::options::RunOptions;

/// A partition of `n_servers` contiguous server ids into `shards`
/// near-equal half-open ranges. The first `n_servers % shards` ranges get
/// one extra server, so sizes differ by at most one.
///
/// The plan keys shards by server-id range (not by hash) so each shard's
/// direct-occurrence lookups and fleet metadata accesses stay contiguous,
/// and so spill files carry a self-describing `server_lo..server_hi`.
///
/// # Examples
///
/// ```
/// use dcf_sim::ShardPlan;
///
/// let plan = ShardPlan::new(10, 3);
/// assert_eq!(plan.shards(), 3);
/// let ranges: Vec<_> = plan.ranges().collect();
/// assert_eq!(ranges, vec![0..4, 4..7, 7..10]);
///
/// // Degenerate plans clamp: never more shards than servers, never zero.
/// assert_eq!(ShardPlan::new(2, 8).shards(), 2);
/// assert_eq!(ShardPlan::new(5, 0).shards(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    n_servers: u32,
    shards: u32,
}

impl ShardPlan {
    /// Plans `shards` ranges over `n_servers` servers. `shards` is clamped
    /// to `[1, max(1, n_servers)]`.
    pub fn new(n_servers: u32, shards: u32) -> Self {
        Self {
            n_servers,
            shards: shards.clamp(1, n_servers.max(1)),
        }
    }

    /// Number of shards in the plan.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Total servers covered.
    pub fn servers(&self) -> u32 {
        self.n_servers
    }

    /// The half-open server-id range of shard `shard` (< [`Self::shards`]).
    pub fn range(&self, shard: u32) -> Range<u32> {
        assert!(shard < self.shards, "shard {shard} out of {}", self.shards);
        let base = self.n_servers / self.shards;
        let extra = self.n_servers % self.shards;
        // Shards [0, extra) are (base + 1) wide, the rest are base wide.
        let lo = shard * base + shard.min(extra);
        let width = base + u32::from(shard < extra);
        lo..lo + width
    }

    /// All ranges, in shard order; adjacent ranges abut and the union is
    /// `0..n_servers`.
    pub fn ranges(&self) -> impl Iterator<Item = Range<u32>> + '_ {
        (0..self.shards).map(|s| self.range(s))
    }
}

/// What [`simulate_sharded`] produces: streamed aggregates, never a
/// materialized trace (for an assembled, byte-identical trace run
/// [`simulate`] with the same options).
#[derive(Debug)]
#[non_exhaustive]
pub struct ShardedRun {
    /// [`dcf_trace::io::fots_digest`] of the merged ticket stream —
    /// byte-identical to the trace [`simulate`] assembles for the same
    /// `(config, seed)`.
    pub digest: u64,
    /// Total tickets issued.
    pub tickets: u64,
    /// Tickets per category, in `[fixing, error, false_alarm]` order
    /// (matches [`Trace::category_counts`]).
    pub category_counts: [u64; 3],
    /// Shards actually run (after clamping to the fleet size).
    pub shards: u32,
    /// Bytes written across all spill files (`0` for a one-shard run,
    /// which writes none).
    pub bytes_spilled: u64,
}

/// Runs the simulation and assembles its [`Trace`], with every execution
/// knob (metrics registry, thread count, sharding) in [`RunOptions`].
///
/// Instrumentation is observational only: counters tally events the engine
/// already produces and never consume RNG draws; the thread count and the
/// shard knobs are purely execution strategies — so the returned trace is
/// a byte-identical pure function of `(config, config.seed)` for every
/// [`RunOptions`] value.
///
/// # Examples
///
/// ```
/// use dcf_sim::{simulate, RunOptions, Scenario};
///
/// let scenario = Scenario::small().seed(11);
/// let trace = simulate(&scenario.config, &RunOptions::default()).unwrap();
/// assert!(!trace.is_empty());
/// assert_eq!(trace.info().seed, 11);
/// ```
///
/// # Errors
///
/// [`SimError::Fleet`] for invalid fleet configurations, [`SimError::Trace`]
/// for spill I/O failures and for assembly invariants that fail (a bug,
/// not a user error — surfaced rather than panicking).
pub fn simulate(config: &SimConfig, options: &RunOptions) -> Result<Trace, SimError> {
    run::<FotSink>(config, None, options)
}

/// [`simulate`] on an already-built fleet (lets callers reuse one fleet
/// across scenario variants). Records no `engine.total` or
/// `engine.fleet_build` span, since the caller built the fleet.
///
/// # Errors
///
/// Same contract as [`simulate`].
pub fn simulate_on_fleet(
    config: &SimConfig,
    fleet: &Fleet,
    options: &RunOptions,
) -> Result<Trace, SimError> {
    run::<FotSink>(config, Some(fleet), options)
}

/// Runs the simulation and **streams** the merged ticket sequence straight
/// into the digest and tallies, without ever materializing a trace —
/// with [`RunOptions::shards`] ≥ 2, how multi-million-server fleets fit in
/// bounded memory.
///
/// # Examples
///
/// ```
/// use dcf_sim::{simulate, simulate_sharded, RunOptions, Scenario};
/// use dcf_trace::io::fots_digest;
///
/// let scenario = Scenario::small().seed(9);
/// let trace = simulate(&scenario.config, &RunOptions::default()).unwrap();
/// let sharded = simulate_sharded(&scenario.config, &RunOptions::new().shards(4)).unwrap();
/// assert_eq!(sharded.digest, fots_digest(trace.fots()));
/// assert_eq!(sharded.tickets, trace.len() as u64);
/// ```
///
/// # Errors
///
/// [`SimError::Fleet`] for invalid fleet configurations, [`SimError::Trace`]
/// for spill I/O failures.
pub fn simulate_sharded(config: &SimConfig, options: &RunOptions) -> Result<ShardedRun, SimError> {
    run::<DigestSink>(config, None, options)
}

/// [`simulate_sharded`] on an already-built fleet.
///
/// # Errors
///
/// Same contract as [`simulate_sharded`].
pub fn simulate_sharded_on_fleet(
    config: &SimConfig,
    fleet: &Fleet,
    options: &RunOptions,
) -> Result<ShardedRun, SimError> {
    run::<DigestSink>(config, Some(fleet), options)
}

/// What the merge produced, for a sink's [`Sink::finish`].
struct Merged {
    tickets: u64,
    shards: u32,
    bytes_spilled: u64,
}

/// One error-time range of a run's globally ordered record stream:
/// sorted cursors whose k-way merge is the range's stretch of that
/// order.
struct MergeRange<'a> {
    /// The records the cursors hold. In-memory stretches count them
    /// exactly, and a range numbers its tickets from the earlier ranges'
    /// counts; a spilled run is one range, for which this only sizes the
    /// columns.
    rows: usize,
    cursors: Vec<SpillCursor<'a>>,
}

/// The consumer of a run's globally ordered ticket records.
trait Sink: Sized {
    type Output;
    /// Merges `ranges`, consecutive stretches of the global order, into
    /// a sink over `fleet` on up to `threads` threads; ticket ids follow
    /// merge order. Returns the sink and the number of records merged.
    fn merge(
        fleet: &Fleet,
        ranges: Vec<MergeRange<'_>>,
        threads: usize,
        metrics: &MetricsRegistry,
    ) -> Result<(Self, u64), TraceError>;
    /// The run's result.
    fn finish(self, info: TraceInfo, merged: Merged) -> Result<Self::Output, SimError>;
}

/// The ticket of each merged record: ids are consecutive in merge order,
/// and the fleet-derived fields come from a packed side table. Merge
/// order is time order, so server lookups are random across the fleet; 6
/// bytes per server keep each lookup to one warm cache line instead of a
/// ~40-byte `ServerMeta`. The detail is the failure type's static
/// string, so a ticket is a view on the stack. Both sinks stamp their
/// tickets here, so the digest stream and the assembled trace see the
/// same tickets (`tests/engine_identity.rs` pins the two).
struct Tickets {
    /// `(data center, product line, rack position)` per server.
    packed: Vec<(u16, u16, u8)>,
}

impl Tickets {
    fn new(fleet: &Fleet) -> Self {
        Self {
            packed: fleet
                .servers()
                .iter()
                .map(|s| (s.data_center.raw(), s.product_line.raw(), s.position.raw()))
                .collect(),
        }
    }

    /// Ticket `id`, stamped from `r`.
    fn stamp(&self, id: u64, r: SpillRecord) -> Fot<'static> {
        let (dc, line, pos) = self.packed[r.server.raw() as usize];
        Fot {
            id: FotId::new(id),
            server: r.server,
            data_center: DataCenterId::new(dc),
            product_line: ProductLineId::new(line),
            device: r.class,
            device_slot: r.slot,
            failure_type: r.ftype,
            error_time: r.error_time,
            rack_position: RackPosition::new(pos),
            detail: detail_str(r.ftype),
            category: r.category,
            response: r.response,
        }
    }
}

/// The trace's ticket columns and fleet snapshot. Each merge range
/// fills its own [`ColumnsBuilder`] on its own thread (the first on the
/// calling thread, into a builder sized for every range), numbering
/// tickets from the count of the ranges before it; the later ranges are
/// then appended in order, which keeps the dictionary in one-builder
/// first-appearance order. Each detail (one static string per failure
/// type) is interned once per type and range, so no ticket allocates.
struct FotSink {
    columns: FotColumns,
    snapshot: (Vec<ServerMeta>, Vec<DataCenterMeta>, Vec<ProductLineMeta>),
}

impl Sink for FotSink {
    type Output = Trace;

    fn merge(
        fleet: &Fleet,
        ranges: Vec<MergeRange<'_>>,
        _: usize,
        _: &MetricsRegistry,
    ) -> Result<(Self, u64), TraceError> {
        let tickets = &Tickets::new(fleet);
        let total: usize = ranges.iter().map(|r| r.rows).sum();
        let mut first_id = 0u64;
        let mut jobs = ranges.into_iter().map(|range| {
            let id = first_id;
            first_id += range.rows as u64;
            (range, id)
        });
        let (columns, snapshot) = std::thread::scope(|scope| {
            let here = jobs.next();
            let spawned: Vec<_> = jobs
                .map(|(range, id)| {
                    let builder = ColumnsBuilder::with_capacity(range.rows);
                    scope.spawn(move || fill_range(tickets, builder, range, id))
                })
                .collect();
            let mut columns = ColumnsBuilder::with_capacity(total);
            if let Some((range, id)) = here {
                columns = fill_range(tickets, columns, range, id)?;
            }
            // Copying the snapshot is mostly page faults; take it while
            // the spawned ranges finish.
            let snapshot = fleet.snapshot();
            for handle in spawned {
                let part = handle.join().expect("assembly worker panicked")?;
                columns.append(part.finish());
            }
            Ok::<_, TraceError>((columns.finish(), snapshot))
        })?;
        let merged = columns.len() as u64;
        Ok((FotSink { columns, snapshot }, merged))
    }

    fn finish(self, info: TraceInfo, _: Merged) -> Result<Trace, SimError> {
        let (servers, dcs, lines) = self.snapshot;
        Trace::from_columns(info, servers, dcs, lines, self.columns).map_err(SimError::Trace)
    }
}

/// Merges `range` onto `columns`, numbering its tickets from `first_id`.
fn fill_range(
    tickets: &Tickets,
    mut columns: ColumnsBuilder,
    range: MergeRange<'_>,
    first_id: u64,
) -> Result<ColumnsBuilder, TraceError> {
    // Dictionary id of each failure type's detail; `u32::MAX` until the
    // type first appears.
    let mut detail_ids = [u32::MAX; FailureType::ALL.len()];
    let mut id = first_id;
    merge_cursors(range.cursors, |r| {
        let fot = tickets.stamp(id, r);
        id += 1;
        let detail = &mut detail_ids[r.ftype.index()];
        if *detail == u32::MAX {
            *detail = columns.intern(fot.detail);
        }
        columns.push_interned(&fot, *detail);
    })?;
    Ok(columns)
}

/// Records per batch that the merge hands the digest: enough that a
/// hand-off costs little per record, few enough that the batch pool
/// stays in cache.
const DIGEST_BATCH: usize = 4096;

/// Batches in a pipelined digest's pool: one filling, one digesting and
/// two queued. The pool bounds the records in flight.
const DIGEST_BATCHES: usize = 4;

/// Streams the digest and category tallies without assembling a trace.
/// `ChunkedFnv` is sequential, so the ranges merge one after another, in
/// order, into batches of records ([`merge_batches`]). At two or more
/// engine threads a scoped digesting thread consumes the batches while
/// the calling thread decodes and merges the next ones
/// ([`digest_beside`]); at one thread the calling thread consumes each
/// batch itself. Either way [`DigestSink::consume`] sees the same records
/// in the same order.
struct DigestSink {
    digester: FotsDigester,
    category_counts: [u64; 3],
}

impl DigestSink {
    /// Stamps, digests and tallies `batch` in order, numbering tickets
    /// from the count digested so far, and leaves `batch` empty.
    fn consume(&mut self, tickets: &Tickets, batch: &mut Vec<SpillRecord>) {
        for r in batch.drain(..) {
            self.digester.push(&tickets.stamp(self.digester.count(), r));
            self.category_counts[category_tag(r.category) as usize] += 1;
        }
    }
}

impl Sink for DigestSink {
    type Output = ShardedRun;

    fn merge(
        fleet: &Fleet,
        ranges: Vec<MergeRange<'_>>,
        threads: usize,
        metrics: &MetricsRegistry,
    ) -> Result<(Self, u64), TraceError> {
        let tickets = &Tickets::new(fleet);
        let mut sink = DigestSink {
            digester: FotsDigester::new(),
            category_counts: [0; 3],
        };
        if threads > 1 {
            sink = digest_beside(sink, tickets, ranges, metrics)?;
        } else {
            merge_batches(ranges, |batch| {
                sink.consume(tickets, batch);
                true
            })?;
        }
        let merged = sink.digester.count();
        Ok((sink, merged))
    }

    fn finish(self, _: TraceInfo, merged: Merged) -> Result<ShardedRun, SimError> {
        Ok(ShardedRun {
            digest: self.digester.digest(),
            tickets: merged.tickets,
            category_counts: self.category_counts,
            shards: merged.shards,
            bytes_spilled: merged.bytes_spilled,
        })
    }
}

/// Merges `ranges` in order into batches of up to [`DIGEST_BATCH`]
/// records and hands each full batch, then the last one, to `hand_off`,
/// which leaves an empty batch behind. A hand-off that returns `false`
/// (nothing will consume later batches) stops the merge there, with the
/// rest of the records unread.
fn merge_batches(
    ranges: Vec<MergeRange<'_>>,
    mut hand_off: impl FnMut(&mut Vec<SpillRecord>) -> bool,
) -> Result<(), TraceError> {
    let mut batch = Vec::with_capacity(DIGEST_BATCH);
    let mut open = true;
    for range in ranges {
        try_merge_cursors(range.cursors, |r| {
            batch.push(r);
            if batch.len() == DIGEST_BATCH && !hand_off(&mut batch) {
                open = false;
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        })?;
        if !open {
            return Ok(());
        }
    }
    if !batch.is_empty() {
        hand_off(&mut batch);
    }
    Ok(())
}

/// Runs [`merge_batches`] on the calling thread and `sink`'s
/// [`DigestSink::consume`] on a scoped digesting thread. A fixed pool of
/// [`DIGEST_BATCHES`] batches circulates between the two over bounded
/// channels, so the digesting thread allocates nothing: its span and
/// idle counter are registered here, and a bounded channel sends without
/// allocating. The thread's `engine.merge.digest` span covers its life
/// and `engine.merge.digest_idle_us` counts the time it waited for a
/// batch, so an idle count near zero means digesting bounds the merge.
fn digest_beside(
    mut sink: DigestSink,
    tickets: &Tickets,
    ranges: Vec<MergeRange<'_>>,
    metrics: &MetricsRegistry,
) -> Result<DigestSink, TraceError> {
    let (full_tx, full_rx) = mpsc::sync_channel::<Vec<SpillRecord>>(DIGEST_BATCHES);
    let (empty_tx, empty_rx) = mpsc::sync_channel::<Vec<SpillRecord>>(DIGEST_BATCHES);
    for _ in 1..DIGEST_BATCHES {
        empty_tx
            .send(Vec::with_capacity(DIGEST_BATCH))
            .expect("the pool fits its channel");
    }
    let span = metrics.worker_phase("engine.merge.digest");
    let idle = metrics.counter("engine.merge.digest_idle_us");
    std::thread::scope(|scope| {
        let digesting = scope.spawn(move || {
            let _span = span;
            loop {
                let waited = Instant::now();
                let Ok(mut batch) = full_rx.recv() else { break };
                idle.add(waited.elapsed().as_micros() as u64);
                sink.consume(tickets, &mut batch);
                // The receiver outlives this thread and the channel holds
                // the whole pool, so this neither fails nor blocks.
                empty_tx.send(batch).expect("the pool fits its channel");
            }
            sink
        });
        let merged = merge_batches(ranges, |batch| {
            // Either end closes only if the digesting thread panicked:
            // stop merging, and its join below reports the panic.
            full_tx.send(std::mem::take(batch)).is_ok()
                && empty_rx.recv().map(|empty| *batch = empty).is_ok()
        });
        drop(full_tx);
        let sink = digesting.join().expect("digest worker panicked");
        merged.map(|()| sink)
    })
}

/// The engine driver behind all four entry points: builds the fleet when
/// `fleet` is `None`, runs the global phase once, then the per-server
/// phase over each shard of the plan, merging every record into `S`.
fn run<S: Sink>(
    config: &SimConfig,
    fleet: Option<&Fleet>,
    options: &RunOptions,
) -> Result<S::Output, SimError> {
    let metrics = &options.metrics;
    // Wall clock for the whole run, fleet build included: with concurrent
    // shard workers the per-phase spans overlap and their sum exceeds
    // elapsed time, so benchmarks read this span for throughput.
    let _total_span = fleet.is_none().then(|| metrics.phase("engine.total"));
    let built;
    let fleet = match fleet {
        Some(fleet) => fleet,
        None => {
            let _span = metrics.phase("engine.fleet_build");
            built = FleetBuilder::new(config.fleet.clone())
                .seed(config.seed)
                .metrics(metrics.clone())
                .build()?;
            &built
        }
    };
    let fms = FmsMetrics::from_registry(metrics);
    let n_threads = resolve_threads(options.threads);
    metrics.set_gauge("engine.threads", n_threads as f64);
    let plan = ShardPlan::new(fleet.servers().len() as u32, options.shards);

    // The global phase runs ONCE over the full fleet: batch/sync
    // scheduling consumes one RNG stream whose draws must not depend on
    // the shard count.
    let global = run_global_phase(config, fleet, metrics);
    let info = TraceInfo {
        start: global.start,
        days: config.fleet.window_days,
        seed: config.seed,
        description: config.description.clone(),
    };

    if plan.shards() == 1 {
        let span = metrics.phase("engine.per_server");
        let (chunks, counts) =
            per_server_records(config, fleet, &global, fleet.servers(), n_threads);
        drop(span);
        publish_server_counts(metrics, &fms, &counts);
        let _span = metrics.phase("engine.assembly");
        let (sink, tickets) = merge_into::<S>(
            fleet,
            time_ranges(&chunks, n_threads),
            n_threads,
            metrics,
            &fms,
        )?;
        let merged = Merged {
            tickets,
            shards: 1,
            bytes_spilled: 0,
        };
        return sink.finish(info, merged);
    }

    let workers = resolve_shard_workers(options.shard_workers, plan.shards());
    // Split the engine's thread budget across concurrent workers so the
    // total stays near n_threads whatever the worker count.
    let threads_per_worker = (n_threads / workers as usize).max(1);
    metrics.set_gauge("engine.shards", plan.shards() as f64);
    metrics.set_gauge("engine.shard_workers", workers as f64);

    let dir = options.spill_dir.clone().unwrap_or_else(default_spill_dir);
    std::fs::create_dir_all(&dir).map_err(|e| SimError::Trace(TraceError::from(e)))?;
    let mut files = SpillFiles {
        owns_dir: options.spill_dir.is_none(),
        dir,
        paths: Vec::with_capacity(plan.shards() as usize),
    };

    // -------- Pipelined per-shard simulate + spill --------
    //
    // Workers drain a shared shard counter; the coordinating thread
    // receives completions in whatever order they land and immediately
    // opens + prefetches each spill, overlapping its header check and
    // first chunk's decode with the shards still simulating. Tally
    // merging is commutative, and the k-way merge re-orders by key, so
    // completion order never reaches the output.
    let next_shard = AtomicU32::new(0);
    let abort = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<Result<ShardDone, SimError>>();
    let pooled: Result<(Vec<SpillCursor<'static>>, ServerCounts, u64), SimError> =
        std::thread::scope(|scope| {
            let (next_shard, abort) = (&next_shard, &abort);
            for _ in 0..workers {
                let tx = tx.clone();
                let (global, plan, spill_dir) = (&global, &plan, &files.dir);
                scope.spawn(move || loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let shard = next_shard.fetch_add(1, Ordering::Relaxed);
                    if shard >= plan.shards() {
                        break;
                    }
                    let res = run_one_shard(
                        config,
                        fleet,
                        global,
                        plan,
                        shard,
                        spill_dir,
                        threads_per_worker,
                        metrics,
                    );
                    let failed = res.is_err();
                    if tx.send(res).is_err() || failed {
                        break;
                    }
                });
            }
            drop(tx);

            let mut cursors = Vec::with_capacity(plan.shards() as usize);
            let mut counts = ServerCounts::default();
            let mut bytes_spilled = 0u64;
            let mut first_err: Option<SimError> = None;
            for msg in rx {
                match msg {
                    // Record every spill written, even after a failure,
                    // so that `files` removes it.
                    Ok(done) if first_err.is_some() => files.paths.push(done.path),
                    Ok(done) => {
                        counts.merge(&done.counts);
                        bytes_spilled += done.bytes;
                        let open_span = metrics.worker_phase("engine.shard.open");
                        let opened = ShardSpillReader::open(&done.path)
                            .map(SpillCursor::new)
                            .and_then(|mut c| c.prefetch().map(|()| c));
                        drop(open_span);
                        files.paths.push(done.path);
                        match opened {
                            Ok(c) => cursors.push(c),
                            Err(e) => {
                                abort.store(true, Ordering::Relaxed);
                                first_err = Some(SimError::Trace(e));
                            }
                        }
                    }
                    Err(e) => {
                        abort.store(true, Ordering::Relaxed);
                        first_err.get_or_insert(e);
                    }
                }
            }
            match first_err {
                Some(e) => Err(e),
                None => Ok((cursors, counts, bytes_spilled)),
            }
        });
    let (cursors, counts, bytes_spilled) = pooled?;
    publish_server_counts(metrics, &fms, &counts);
    metrics.add("shard.bytes_spilled", bytes_spilled);

    // -------- Streaming merge --------
    let merge_span = metrics.phase("engine.shard.merge");
    let ranges = vec![MergeRange {
        rows: counts.tickets() as usize,
        cursors,
    }];
    let (sink, tickets) = merge_into::<S>(fleet, ranges, n_threads, metrics, &fms)?;
    drop(merge_span);
    drop(files);
    if let Some(peak) = dcf_obs::peak_rss_bytes() {
        metrics.set_gauge("mem.peak_rss_bytes", peak as f64);
    }
    let merged = Merged {
        tickets,
        shards: plan.shards(),
        bytes_spilled,
    };
    sink.finish(info, merged)
}

/// Wraps sorted per-thread chunks (or stretches of them) as merge
/// cursors in chunk order, so ties go to the lowest chunk: the order a
/// stable sort of the concatenation would give.
fn sorted_cursors<'a>(chunks: impl IntoIterator<Item = &'a [SpillRecord]>) -> Vec<SpillCursor<'a>> {
    (0..)
        .zip(chunks)
        .map(|(i, chunk)| SpillCursor::from_sorted(i, chunk))
        .collect()
}

/// A one-shard run's sorted chunks as up to `parts` merge ranges, one
/// per engine thread ([`split_by_time`]).
fn time_ranges(chunks: &[Vec<SpillRecord>], parts: usize) -> Vec<MergeRange<'_>> {
    let runs: Vec<&[SpillRecord]> = chunks.iter().map(Vec::as_slice).collect();
    split_by_time(&runs, parts)
        .into_iter()
        .map(|stretches| MergeRange {
            rows: stretches.iter().map(|s| s.len()).sum(),
            cursors: sorted_cursors(stretches),
        })
        .collect()
}

/// Merges `ranges` into a new `S` on up to `threads` threads and records
/// the ticket totals.
fn merge_into<S: Sink>(
    fleet: &Fleet,
    ranges: Vec<MergeRange<'_>>,
    threads: usize,
    metrics: &MetricsRegistry,
    fms: &FmsMetrics,
) -> Result<(S, u64), SimError> {
    let (sink, tickets) = S::merge(fleet, ranges, threads, metrics).map_err(SimError::Trace)?;
    metrics.add("sim.tickets.total", tickets);
    fms.tickets_issued.add(tickets);
    Ok((sink, tickets))
}

/// How many shard workers a request resolves to: `0` asks for the
/// machine's available parallelism (capped at 16, like engine threads);
/// everything is clamped to the shard count so idle workers never spawn.
fn resolve_shard_workers(requested: u32, shards: u32) -> u32 {
    let cap = shards.max(1);
    if requested == 0 {
        let auto = std::thread::available_parallelism().map_or(1, |n| n.get() as u32);
        auto.clamp(1, cap.min(16))
    } else {
        requested.clamp(1, cap)
    }
}

/// What one worker hands back per finished shard.
struct ShardDone {
    path: PathBuf,
    counts: ServerCounts,
    bytes: u64,
}

/// The spill files one run has written, removed when the run ends: after
/// the merge, and on every early error return too.
struct SpillFiles {
    dir: PathBuf,
    /// Whether `dir` is the run's own default directory, removed with it.
    owns_dir: bool,
    paths: Vec<PathBuf>,
}

impl Drop for SpillFiles {
    fn drop(&mut self) {
        for path in &self.paths {
            std::fs::remove_file(path).ok();
        }
        if self.owns_dir {
            std::fs::remove_dir(&self.dir).ok();
        }
    }
}

/// A spill directory under the system temp dir that no other run shares:
/// the pid separates processes, and a process-wide sequence separates
/// concurrent runs inside one process, which would otherwise overwrite
/// and delete each other's shard files.
fn default_spill_dir() -> PathBuf {
    static RUN_SEQ: AtomicU64 = AtomicU64::new(0);
    let run = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dcf-spill-{}-{run}", std::process::id()))
}

/// Simulates one shard and spills it: the unit of work a pool worker
/// loops over. Spans are detached so any number of workers can record
/// them concurrently.
#[allow(clippy::too_many_arguments)]
fn run_one_shard(
    config: &SimConfig,
    fleet: &Fleet,
    global: &GlobalPhase,
    plan: &ShardPlan,
    shard: u32,
    spill_dir: &Path,
    threads: usize,
    metrics: &MetricsRegistry,
) -> Result<ShardDone, SimError> {
    let range = plan.range(shard);
    let sim_span = metrics.worker_phase("engine.shard.simulate");
    let servers = &fleet.servers()[range.start as usize..range.end as usize];
    let (chunks, counts) = per_server_records(config, fleet, global, servers, threads);
    drop(sim_span);

    let spill_span = metrics.worker_phase("engine.shard.spill");
    let path = spill_dir.join(format!("shard-{shard:04}.dcfspill"));
    let mut writer = ShardSpillWriter::new(&path, shard, plan.shards(), range.start, range.end);
    // The spill file holds this shard's records in final global order.
    merge_cursors(sorted_cursors(chunks.iter().map(Vec::as_slice)), |r| {
        writer.push(&r)
    })
    .map_err(SimError::Trace)?;
    let bytes = writer.finish().map_err(SimError::Trace)?;
    drop(spill_span);
    Ok(ShardDone {
        path,
        counts,
        bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;
    use dcf_trace::io::fots_digest;

    #[test]
    fn plan_partitions_without_gaps_or_overlap() {
        for (n, k) in [(0u32, 3u32), (1, 1), (7, 3), (100, 7), (16, 16), (5, 9)] {
            let plan = ShardPlan::new(n, k);
            let mut next = 0u32;
            let mut sizes = Vec::new();
            for r in plan.ranges() {
                assert_eq!(r.start, next, "ranges must abut ({n}, {k})");
                // Clamping guarantees non-empty shards on non-empty fleets.
                assert!(n == 0 || r.end > r.start, "empty shard range ({n}, {k})");
                sizes.push(r.end - r.start);
                next = r.end;
            }
            assert_eq!(next, n, "union must cover all servers");
            let (min, max) = (sizes.iter().min(), sizes.iter().max());
            if let (Some(min), Some(max)) = (min, max) {
                assert!(max - min <= 1, "sizes differ by more than one: {sizes:?}");
            }
        }
    }

    #[test]
    fn sharded_digest_matches_unsharded_trace() {
        let scenario = Scenario::small().seed(21);
        let unsharded = simulate(&scenario.config, &RunOptions::default()).unwrap();
        let expect = fots_digest(unsharded.fots());
        for shards in [1u32, 3] {
            let run =
                simulate_sharded(&scenario.config, &RunOptions::new().shards(shards)).unwrap();
            assert_eq!(run.digest, expect, "{shards} shards");
            assert_eq!(run.tickets, unsharded.len() as u64);
            assert_eq!(
                run.category_counts,
                unsharded.category_counts().map(|c| c as u64)
            );
            // A one-shard run merges in memory and spills nothing.
            assert_eq!(run.bytes_spilled > 0, shards > 1, "{shards} shards");
        }
    }

    #[test]
    fn sharded_simulate_is_byte_identical() {
        let scenario = Scenario::small().seed(5);
        let unsharded = simulate(&scenario.config, &RunOptions::default()).unwrap();
        let trace = simulate(&scenario.config, &RunOptions::new().shards(4)).unwrap();
        assert_eq!(trace.fots(), unsharded.fots());
        assert_eq!(trace.info(), unsharded.info());
    }

    #[test]
    fn sharded_run_records_shard_metrics() {
        let registry = dcf_obs::MetricsRegistry::new();
        let scenario = Scenario::small().seed(2);
        let run = simulate_sharded(
            &scenario.config,
            &RunOptions::new().metrics(&registry).shards(2),
        )
        .unwrap();
        let report = registry.report("shard-test");
        assert_eq!(report.gauge("engine.shards"), Some(2.0));
        assert_eq!(
            report.counter("shard.bytes_spilled"),
            Some(run.bytes_spilled)
        );
        assert_eq!(report.counter("sim.tickets.total"), Some(run.tickets));
        for phase in [
            "engine.fleet_build",
            "engine.global",
            "engine.shard.simulate",
            "engine.shard.spill",
            "engine.shard.merge",
        ] {
            assert!(report.phase_ms(phase).is_some(), "missing span {phase}");
        }
        // One simulate span per shard.
        let simulate_spans = report
            .phases
            .iter()
            .filter(|p| p.name == "engine.shard.simulate")
            .count();
        assert_eq!(simulate_spans, 2);
        #[cfg(target_os = "linux")]
        assert!(report.gauge("mem.peak_rss_bytes").unwrap_or(0.0) > 0.0);
    }

    /// A spill cut off inside a block fails the digest merge with a typed
    /// error, inline and pipelined, after full batches have already gone
    /// to the digest: no panic, and no digesting thread left waiting.
    #[test]
    fn truncated_spill_fails_the_digest_merge() {
        use dcf_trace::io::spill::{DELTA_BLOCK_ROWS, MERGE_CHUNK_ROWS};
        use dcf_trace::{ComponentClass, FotCategory, ServerId, SimTime};

        let fleet = FleetBuilder::new(Scenario::small().config.fleet)
            .seed(1)
            .build()
            .unwrap();
        let servers = fleet.servers().len() as u32;
        let path = std::env::temp_dir().join(format!(
            "dcf-truncated-digest-{}.dcfspill",
            std::process::id()
        ));
        let rows = 4 * DELTA_BLOCK_ROWS;
        let mut writer = ShardSpillWriter::new(&path, 0, 1, 0, servers);
        for i in 0..rows {
            writer.push(&SpillRecord {
                server: ServerId::new(i % servers),
                class: ComponentClass::Hdd,
                slot: 0,
                ftype: FailureType::SmartFail,
                error_time: SimTime::from_secs(u64::from(i) * 60),
                category: FotCategory::Error,
                response: None,
            });
        }
        writer.finish().unwrap();
        // Five eighths of four equal blocks ends inside the third, so
        // the first merge chunk (two blocks, two digest batches) decodes
        // before the error.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() * 5 / 8]).unwrap();
        let mut reader = ShardSpillReader::open(&path).unwrap();
        assert_eq!(
            reader.read_chunk(MERGE_CHUNK_ROWS).unwrap().len(),
            2 * DIGEST_BATCH
        );
        assert!(reader.read_chunk(MERGE_CHUNK_ROWS).is_err());

        let fleet = std::sync::Arc::new(fleet);
        for threads in [1, 2] {
            let cursor = SpillCursor::new(ShardSpillReader::open(&path).unwrap());
            let fleet = std::sync::Arc::clone(&fleet);
            let (done_tx, done_rx) = mpsc::channel();
            // Not scoped, so that a hung merge fails the test rather
            // than hanging it.
            std::thread::spawn(move || {
                let ranges = vec![MergeRange {
                    rows: rows as usize,
                    cursors: vec![cursor],
                }];
                let merged = DigestSink::merge(&fleet, ranges, threads, &MetricsRegistry::new());
                done_tx.send(merged.map(|(_, n)| n)).ok();
            });
            let merged = match done_rx.recv_timeout(std::time::Duration::from_secs(30)) {
                Ok(merged) => merged,
                Err(mpsc::RecvTimeoutError::Timeout) => panic!("{threads} threads: merge hung"),
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    panic!("{threads} threads: merge panicked")
                }
            };
            assert!(
                matches!(merged, Err(TraceError::Snapshot { .. })),
                "{threads} threads: {merged:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_closed_hand_off_stops_the_merge() {
        use dcf_trace::{ComponentClass, FotCategory, ServerId, SimTime};

        let records: Vec<SpillRecord> = (0..3 * DIGEST_BATCH as u64)
            .map(|i| SpillRecord {
                server: ServerId::new(0),
                class: ComponentClass::Hdd,
                slot: 0,
                ftype: FailureType::SmartFail,
                error_time: SimTime::from_secs(i * 60),
                category: FotCategory::Error,
                response: None,
            })
            .collect();
        let range = |records| MergeRange {
            rows: DIGEST_BATCH,
            cursors: vec![SpillCursor::from_sorted(0, records)],
        };
        // The consumer goes away after the first batch: the merge hands
        // off nothing more, though two ranges with more records remain.
        let (first, rest) = records.split_at(DIGEST_BATCH + 1);
        let mut hand_offs = 0;
        merge_batches(vec![range(first), range(rest)], |batch| {
            hand_offs += 1;
            batch.clear();
            false
        })
        .unwrap();
        assert_eq!(hand_offs, 1);
    }

    #[test]
    fn default_spill_dirs_differ_per_run() {
        assert_ne!(default_spill_dir(), default_spill_dir());
    }

    #[test]
    fn failed_runs_remove_the_spills_they_wrote() {
        let dir = std::env::temp_dir().join(format!("dcf-shard-fail-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        // A directory where shard 1's spill belongs makes that shard fail
        // after shard 0 has spilled (one worker runs them in order).
        let blocker = dir.join("shard-0001.dcfspill");
        std::fs::create_dir_all(&blocker).unwrap();
        let options = RunOptions::new().shards(2).shard_workers(1).spill_dir(&dir);
        let err = simulate_sharded(&Scenario::small().config, &options).unwrap_err();
        assert!(matches!(err, SimError::Trace(TraceError::Io(_))), "{err}");
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(left, vec![blocker.file_name().unwrap().to_owned()]);
    }
}
