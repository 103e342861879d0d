//! The sharded, bounded-memory, pipelined engine driver.
//!
//! [`simulate_sharded`] partitions the fleet into contiguous server-id
//! ranges (a [`ShardPlan`]) and hands them to a pool of up to
//! [`RunOptions::shard_workers`] worker threads — each reusing the
//! unsharded engine's per-server workers verbatim — which stream every
//! shard's sorted ticket records into a [`dcf_trace::io::spill`] file
//! instead of holding a global ticket vector. The coordinating thread
//! opens and prefetches each spill *the moment its shard completes*, so
//! its header check and first-chunk decode overlap the shards still
//! simulating; once the last shard lands, a k-way merge replays the
//! spills in global order, assigns ticket ids, and computes the trace
//! digest as a stream. Peak memory is bounded by `fleet metadata +
//! in-flight shards' tickets + one merge chunk per shard` regardless of
//! fleet size.
//!
//! Because per-server RNG streams are seeded from `(seed, server id)`
//! alone and the global phase runs once over the full fleet, the merged
//! stream is **byte-identical** to an unsharded run at any shard count,
//! worker count, and thread count — shards are simulated in whatever
//! order workers pick them up, but the merge re-serializes them by key.
//! `SCALING.md` documents the argument, and `tests/engine_identity.rs`
//! gates it in CI.
//!
//! Phases recorded on the run's registry: one `engine.total` wall-clock
//! span (from fleet build to merge end), one `engine.shard.simulate` and
//! `engine.shard.spill` span per shard (detached, recorded from worker
//! threads), one `engine.shard.open` span per spill, one
//! `engine.shard.merge` span, plus the `engine.shards` and
//! `engine.shard_workers` gauges, the `shard.bytes_spilled` counter, and
//! the `mem.peak_rss_bytes` gauge, all in the run's
//! [`dcf_obs::RunReport`].

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc;

use dcf_failmodel::types::detail_str;
use dcf_fleet::{Fleet, FleetBuilder};
use dcf_fms::{FmsMetrics, TicketFactory};
use dcf_obs::MetricsRegistry;
use dcf_trace::io::spill::{
    merge_cursors, ShardSpillReader, ShardSpillWriter, SpillCursor, SpillRecord,
};
use dcf_trace::io::{DigestRow, FotsDigester};
use dcf_trace::{columns::category_tag, Fot, Trace, TraceError};

use crate::config::SimConfig;
use crate::engine::{
    make_fot_from_spec, merge_sorted_specs, per_server_specs, publish_server_counts,
    resolve_engine_threads, run_global_phase, trace_info, ServerCounts,
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

/// What a sharded run produces: streamed aggregates, never a materialized
/// trace (for an assembled, byte-identical trace run [`crate::simulate`]
/// with [`RunOptions::shards`] ≥ 2).
#[derive(Debug)]
#[non_exhaustive]
pub struct ShardedRun {
    /// [`dcf_trace::io::fots_digest`] of the merged ticket stream —
    /// byte-identical to an unsharded run of the same `(config, seed)`.
    pub digest: u64,
    /// Total tickets issued.
    pub tickets: u64,
    /// Tickets per category, in `[fixing, error, false_alarm]` order
    /// (matches [`Trace::category_counts`]).
    pub category_counts: [u64; 3],
    /// Shards actually run (after clamping to the fleet size).
    pub shards: u32,
    /// Bytes written across all spill files.
    pub bytes_spilled: u64,
}

/// Runs the simulation sharded and **streams** the merged ticket sequence
/// straight into the digest and tallies, without ever materializing a
/// ticket vector — how multi-million-server fleets fit in bounded memory.
/// The shard knobs ([`RunOptions::shards`], [`RunOptions::shard_workers`],
/// spill dir) all come from `options`; `shards` ≤ 1 still runs the
/// sharded driver with a single shard.
///
/// For a materialized trace use [`crate::simulate`], which routes through
/// this same driver when `options.shards` ≥ 2 and assembles the merge —
/// the sharded driver is a pure execution strategy, never a different
/// simulation.
///
/// # Examples
///
/// ```
/// use dcf_sim::{simulate, simulate_sharded, RunOptions, Scenario};
/// use dcf_trace::io::fots_digest;
///
/// let scenario = Scenario::small().seed(9);
/// let unsharded = simulate(&scenario.config, &RunOptions::default()).unwrap();
/// let sharded = simulate_sharded(&scenario.config, &RunOptions::new().shards(4)).unwrap();
/// assert_eq!(sharded.digest, fots_digest(unsharded.fots()));
/// assert_eq!(sharded.tickets, unsharded.len() as u64);
/// ```
///
/// # Errors
///
/// [`SimError::Fleet`] for invalid fleet configurations, [`SimError::Trace`]
/// for spill IO failures.
pub fn simulate_sharded(config: &SimConfig, options: &RunOptions) -> Result<ShardedRun, SimError> {
    sharded_run(config, options, false).map(|(run, _)| run)
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
    sharded_run_on_fleet(config, fleet, options, false).map(|(run, _)| run)
}

/// The sharded driver proper: builds the fleet, then
/// [`sharded_run_on_fleet`]. `materialize` asks for an assembled [`Trace`]
/// alongside the streamed aggregates.
pub(crate) fn sharded_run(
    config: &SimConfig,
    options: &RunOptions,
    materialize: bool,
) -> Result<(ShardedRun, Option<Trace>), SimError> {
    let metrics = &options.metrics;
    // Wall-clock for the whole run: with concurrent shard workers the
    // per-phase spans overlap and their sum exceeds elapsed time, so
    // benchmarks read this span for throughput.
    let total_span = metrics.phase("engine.total");
    let span = metrics.phase("engine.fleet_build");
    let fleet = FleetBuilder::new(config.fleet.clone())
        .seed(config.seed)
        .metrics(metrics.clone())
        .build()?;
    drop(span);
    let run = sharded_run_on_fleet(config, &fleet, options, materialize);
    drop(total_span);
    run
}

/// [`sharded_run`] on an already-built fleet.
pub(crate) fn sharded_run_on_fleet(
    config: &SimConfig,
    fleet: &Fleet,
    options: &RunOptions,
    materialize: bool,
) -> Result<(ShardedRun, Option<Trace>), SimError> {
    match options.threads {
        Some(threads) if threads != config.engine_threads => {
            let mut config = config.clone();
            config.engine_threads = threads;
            sharded_engine(&config, fleet, options, materialize)
        }
        _ => sharded_engine(config, fleet, options, materialize),
    }
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
    global: &crate::engine::GlobalPhase,
    plan: &ShardPlan,
    shard: u32,
    spill_dir: &Path,
    threads: usize,
    metrics: &MetricsRegistry,
) -> Result<ShardDone, SimError> {
    let range = plan.range(shard);
    let sim_span = metrics.worker_phase("engine.shard.simulate");
    let servers = &fleet.servers()[range.start as usize..range.end as usize];
    let (spec_chunks, counts) = per_server_specs(config, fleet, global, servers, threads);
    drop(sim_span);

    let spill_span = metrics.worker_phase("engine.shard.spill");
    let path = spill_dir.join(format!("shard-{shard:04}.dcfspill"));
    let mut writer = ShardSpillWriter::new(&path, shard, plan.shards(), range.start, range.end);
    // Same merge discipline as unsharded assembly: the spill file holds
    // this shard's records in final global order.
    merge_sorted_specs(spec_chunks, |s| {
        writer.push(&SpillRecord {
            server: s.server,
            class: s.class,
            slot: s.slot,
            ftype: s.ftype,
            error_time: s.error_time,
            category: s.category,
            response: s.response,
        });
    });
    let bytes = writer.finish().map_err(SimError::Trace)?;
    drop(spill_span);
    Ok(ShardDone {
        path,
        counts,
        bytes,
    })
}

fn sharded_engine(
    config: &SimConfig,
    fleet: &Fleet,
    options: &RunOptions,
    materialize: bool,
) -> Result<(ShardedRun, Option<Trace>), SimError> {
    let metrics = &options.metrics;
    let fms = FmsMetrics::from_registry(metrics);
    let n_threads = resolve_engine_threads(config.engine_threads);
    let plan = ShardPlan::new(fleet.servers().len() as u32, options.shards);
    let workers = resolve_shard_workers(options.shard_workers, plan.shards());
    // Split the engine's thread budget across concurrent workers so the
    // total stays near n_threads whatever the worker count.
    let threads_per_worker = (n_threads / workers as usize).max(1);
    metrics.set_gauge("engine.threads", n_threads as f64);
    metrics.set_gauge("engine.shards", plan.shards() as f64);
    metrics.set_gauge("engine.shard_workers", workers as f64);

    // Global phase runs ONCE over the full fleet, exactly as unsharded:
    // batch/sync scheduling consumes one RNG stream whose draws must not
    // depend on the shard count.
    let global = run_global_phase(config, fleet, metrics);

    let spill_dir = match &options.spill_dir {
        Some(dir) => dir.clone(),
        None => default_spill_dir(),
    };
    std::fs::create_dir_all(&spill_dir).map_err(|e| SimError::Trace(TraceError::from(e)))?;

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
    let pooled: Result<(Vec<SpillCursor>, ServerCounts, u64, Vec<PathBuf>), SimError> =
        std::thread::scope(|scope| {
            let (next_shard, abort) = (&next_shard, &abort);
            for _ in 0..workers {
                let tx = tx.clone();
                let (global, plan, spill_dir) = (&global, &plan, &spill_dir);
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
            let mut paths = Vec::with_capacity(plan.shards() as usize);
            let mut first_err: Option<SimError> = None;
            for msg in rx {
                match msg {
                    Ok(done) => {
                        counts.merge(&done.counts);
                        bytes_spilled += done.bytes;
                        let open_span = metrics.worker_phase("engine.shard.open");
                        let opened = ShardSpillReader::open(&done.path)
                            .map(SpillCursor::new)
                            .and_then(|mut c| c.prefetch().map(|()| c));
                        drop(open_span);
                        paths.push(done.path);
                        match opened {
                            Ok(c) => cursors.push(c),
                            Err(e) => {
                                abort.store(true, Ordering::Relaxed);
                                first_err.get_or_insert(SimError::Trace(e));
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
                None => Ok((cursors, counts, bytes_spilled, paths)),
            }
        });
    let (cursors, counts, bytes_spilled, paths) = pooled?;
    publish_server_counts(metrics, &fms, &counts);
    metrics.add("shard.bytes_spilled", bytes_spilled);

    // -------- Streaming merge --------
    let merge_span = metrics.phase("engine.shard.merge");
    let mut factory = TicketFactory::new();
    let mut digester = FotsDigester::new();
    let mut category_counts = [0u64; 3];
    let mut fots: Option<Vec<Fot>> = materialize.then(Vec::new);
    let total = if let Some(v) = {
        // Split borrows: the closure captures `v` while `factory` and
        // `digester` stay separately borrowed.
        fots.as_mut()
    } {
        merge_cursors(cursors, |r| {
            let spec = crate::engine::TicketSpec {
                server: r.server,
                class: r.class,
                slot: r.slot,
                ftype: r.ftype,
                error_time: r.error_time,
                category: r.category,
                response: r.response,
            };
            let fot = make_fot_from_spec(&mut factory, fleet, &spec);
            digester.push(&fot);
            category_counts[category_tag(fot.category) as usize] += 1;
            v.push(fot);
        })
        .map_err(SimError::Trace)?
    } else {
        // Digest-only fast path: ids are consecutive and every
        // fleet-derived field comes straight from server metadata, so the
        // digest row is built without assembling a `Fot` (no detail
        // `String` per ticket). `digest_only_path_matches_fot_path`
        // pins the equivalence.
        //
        // Merge order is time order, so server lookups are random across
        // the fleet; a 6-byte-per-server side table keeps each lookup to
        // one warm cache line instead of a ~100-byte `ServerMeta`.
        let packed: Vec<(u16, u16, u8)> = fleet
            .servers()
            .iter()
            .map(|s| (s.data_center.raw(), s.product_line.raw(), s.position.raw()))
            .collect();
        let mut next_id = 0u64;
        merge_cursors(cursors, |r| {
            let (dc, line, pos) = packed[r.server.raw() as usize];
            digester.push_row(&DigestRow {
                id: next_id,
                server: r.server.raw(),
                data_center: dc,
                product_line: line,
                device: r.class,
                device_slot: r.slot,
                failure_type: r.ftype,
                error_secs: r.error_time.as_secs(),
                rack_position: pos,
                category: r.category,
                response: r
                    .response
                    .map(|resp| (resp.op_time.as_secs(), resp.operator.raw(), resp.action)),
                detail: detail_str(r.ftype),
            });
            next_id += 1;
            category_counts[category_tag(r.category) as usize] += 1;
        })
        .map_err(SimError::Trace)?
    };
    metrics.add("sim.tickets.total", total);
    fms.tickets_issued.add(total);
    drop(merge_span);

    if !options.keep_spills {
        for p in &paths {
            std::fs::remove_file(p).ok();
        }
        if options.spill_dir.is_none() {
            std::fs::remove_dir(&spill_dir).ok();
        }
    }
    if let Some(peak) = dcf_obs::peak_rss_bytes() {
        metrics.set_gauge("mem.peak_rss_bytes", peak as f64);
    }

    let trace = match fots {
        Some(fots) => {
            let (servers, dcs, lines) = fleet.snapshot();
            Some(
                Trace::new(trace_info(config, global.start), servers, dcs, lines, fots)
                    .map_err(SimError::Trace)?,
            )
        }
        None => None,
    };
    Ok((
        ShardedRun {
            digest: digester.digest(),
            tickets: total,
            category_counts,
            shards: plan.shards(),
            bytes_spilled,
        },
        trace,
    ))
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
        let unsharded = crate::simulate(&scenario.config, &RunOptions::default()).unwrap();
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
            assert!(run.bytes_spilled > 0);
        }
    }

    #[test]
    fn sharded_simulate_is_byte_identical() {
        let scenario = Scenario::small().seed(5);
        let unsharded = crate::simulate(&scenario.config, &RunOptions::default()).unwrap();
        let trace = crate::simulate(&scenario.config, &RunOptions::new().shards(4)).unwrap();
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

    #[test]
    fn default_spill_dirs_differ_per_run() {
        assert_ne!(default_spill_dir(), default_spill_dir());
    }

    #[test]
    fn keep_spills_leaves_verifiable_files() {
        let dir = std::env::temp_dir().join(format!("dcf-shard-keep-{}", std::process::id()));
        let scenario = Scenario::small().seed(13);
        let run = simulate_sharded(
            &scenario.config,
            &RunOptions::new()
                .shards(2)
                .spill_dir(&dir)
                .keep_spills(true),
        )
        .unwrap();
        let mut rows = 0;
        for shard in 0..2 {
            let reader = dcf_trace::io::spill::ShardSpillReader::open(
                dir.join(format!("shard-{shard:04}.dcfspill")),
            )
            .unwrap();
            assert_eq!(reader.shard_count(), 2);
            rows += reader.rows();
        }
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(rows, run.tickets);
    }
}
