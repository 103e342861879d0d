//! The simulation model: the global phase and the per-server phase that
//! turn a [`SimConfig`] and a fleet into sorted pre-id ticket records.
//!
//! # Pipeline
//!
//! 1. **Global phase** (one RNG stream, [`run_global_phase`]): generate
//!    batch events and assign affected servers and report times; schedule
//!    synchronous-repeat groups. The resulting direct occurrences are
//!    packed into a CSR-style [`DirectOccurrences`] (flat buffer +
//!    per-server offsets).
//! 2. **Per-server phase** (one RNG stream per server, so the result is
//!    independent of thread count, [`per_server_records`]): sample
//!    background faults from the lifecycle hazards, expand repeats, run
//!    detection, roll correlated companions/causal propagations and false
//!    alarms, apply warranty categorization and decommissioning, and sample
//!    operator responses. Each worker reuses one [`ServerScratch`] across
//!    all servers in its chunk and sorts its [`SpillRecord`]s by
//!    [`SpillRecord::key`] before handing them back.
//!
//! The driver in `shard.rs` merges the sorted chunks and assigns ticket
//! ids. The per-server phase runs on `std::thread::scope` workers, as many
//! as [`crate::RunOptions::threads`] asks for (`0` = auto).

use dcf_stats::rng::{Rng, StdRng};

use dcf_failmodel::{sample_type, BatchEvent, HazardTable};
use dcf_fleet::{Fleet, UtilizationProfile};
use dcf_fms::{FmsMetrics, OperatorModel};
use dcf_obs::MetricsRegistry;
use dcf_trace::io::spill::SpillRecord;
use dcf_trace::{
    ComponentClass, FailureType, FotCategory, ProductLineId, ServerId, ServerMeta, Severity,
    SimDuration, SimTime,
};

use crate::config::SimConfig;

/// Samples a fatal-severity failure type of `class` (None if the class has
/// no fatal types, which does not happen for hardware classes).
fn fatal_type_for(rng: &mut StdRng, class: ComponentClass) -> Option<FailureType> {
    let fatal = FailureType::fatal_types_of(class);
    if fatal.is_empty() {
        None
    } else {
        Some(fatal[rng.random_range(0..fatal.len())])
    }
}

/// SplitMix64 — used to derive independent per-server RNG seeds from the
/// master seed so the per-server phase parallelizes deterministically.
fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Effective rate multiplier for `count` components of `class` under the
/// server's spatial factor. Temperature/spatial effects apply to hardware,
/// not to the manual miscellaneous stream.
fn class_rate_multiplier(class: ComponentClass, count: u32, spatial: f64) -> f64 {
    if class == ComponentClass::Miscellaneous {
        count as f64
    } else {
        count as f64 * spatial
    }
}

/// Packs [`SpillRecord::key`] into one `u64` so the per-chunk sort
/// compares a single integer instead of a four-field tuple.
///
/// Bit layout, most-significant first: `time | server | class(4) |
/// slot(8)`. The server field is sized to the run's highest server id
/// and the time field takes the remainder, so the packing is injective
/// over every in-range key and `u64` order equals tuple order exactly.
/// `new` returns `None` when the run's bounds don't fit (callers keep
/// the tuple sort), which at a 2M-server fleet still leaves 31 time
/// bits ≈ 68 years of seconds — far past any scenario window.
pub(crate) struct SpecKeyPacker {
    server_bits: u32,
}

impl SpecKeyPacker {
    /// Builds a packer for keys bounded by `max_server` (inclusive) and
    /// `max_time_secs` (inclusive), or `None` if 64 bits can't hold them.
    pub(crate) fn new(max_server: u32, max_time_secs: u64) -> Option<Self> {
        const _: () = assert!(
            dcf_trace::ComponentClass::ALL.len() <= 16,
            "class field is 4 bits"
        );
        let server_bits = (32 - max_server.leading_zeros()).max(1);
        let time_bits = 64 - 8 - 4 - server_bits;
        if time_bits >= 64 || max_time_secs >> time_bits != 0 {
            return None;
        }
        Some(Self { server_bits })
    }

    /// The packed key for `s`; caller guarantees `s` is within the
    /// bounds `new` was given.
    pub(crate) fn pack(&self, s: &SpillRecord) -> u64 {
        debug_assert_eq!(s.server.raw() >> self.server_bits, 0);
        (s.error_time.as_secs() << (self.server_bits + 12))
            | (u64::from(s.server.raw()) << 12)
            | ((s.class.index() as u64) << 8)
            | u64::from(s.slot)
    }
}

/// A failure occurrence on one server, before categorization.
#[derive(Debug, Clone, Copy)]
struct Occurrence {
    class: ComponentClass,
    slot: u8,
    ftype: FailureType,
    /// Ticket `error_time`; for latent faults this is filled by detection.
    error_time: SimTime,
    /// Whether repeats may be expanded from this occurrence.
    expand_repeats: bool,
}

/// Direct (globally scheduled) occurrences in CSR layout: one flat buffer
/// plus per-server offsets, replacing the former `Vec<Vec<Occurrence>>`
/// that allocated a (mostly empty) vector per fleet server.
pub(crate) struct DirectOccurrences {
    occurrences: Vec<Occurrence>,
    /// `offsets[s]..offsets[s + 1]` bounds server `s`'s slice.
    offsets: Vec<u32>,
}

impl DirectOccurrences {
    /// Packs `(server index, occurrence)` pairs via a stable counting sort,
    /// preserving each server's insertion order (batch events first, then
    /// sync groups — exactly as the old per-server vectors received them).
    fn build(n_servers: usize, staged: &[(u32, Occurrence)]) -> Self {
        let mut offsets = vec![0u32; n_servers + 1];
        for &(s, _) in staged {
            offsets[s as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut occurrences = Vec::new();
        if let Some(&(_, first)) = staged.first() {
            occurrences.resize(staged.len(), first);
            let mut cursor = offsets.clone();
            for &(s, occ) in staged {
                let c = &mut cursor[s as usize];
                occurrences[*c as usize] = occ;
                *c += 1;
            }
        }
        Self {
            occurrences,
            offsets,
        }
    }

    /// The direct occurrences scheduled for `sid`, in insertion order.
    fn of(&self, sid: ServerId) -> &[Occurrence] {
        let i = sid.index();
        &self.occurrences[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Per-worker scratch buffers reused across every server in a chunk, so
/// the steady state of [`simulate_server`] allocates nothing: each buffer
/// grows to the chunk's high-water mark and stays there.
#[derive(Default)]
struct ServerScratch {
    occurrences: Vec<Occurrence>,
    escalations: Vec<Occurrence>,
    repeats: Vec<Occurrence>,
    extra: Vec<Occurrence>,
    arrivals: Vec<f64>,
    repeat_times: Vec<SimTime>,
    causal: Vec<(ComponentClass, SimDuration)>,
}

/// Per-thread event tallies for the per-server phase.
///
/// Worker threads count into plain integers and the main thread merges the
/// chunks and publishes each total with one [`dcf_obs::Counter::add`], so
/// the hot loops stay atomic-free and the totals are independent of thread
/// count and chunk boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ServerCounts {
    background: u64,
    latent_resolved: u64,
    escalated: u64,
    repeats: u64,
    correlated: u64,
    dropped_unmonitored: u64,
    dropped_outside_window: u64,
    skipped_decommissioned: u64,
    decommissioned: u64,
    responses: u64,
    tickets_fixing: u64,
    tickets_error: u64,
    tickets_false_alarm: u64,
}

impl ServerCounts {
    pub(crate) fn merge(&mut self, other: &ServerCounts) {
        self.background += other.background;
        self.latent_resolved += other.latent_resolved;
        self.escalated += other.escalated;
        self.repeats += other.repeats;
        self.correlated += other.correlated;
        self.dropped_unmonitored += other.dropped_unmonitored;
        self.dropped_outside_window += other.dropped_outside_window;
        self.skipped_decommissioned += other.skipped_decommissioned;
        self.decommissioned += other.decommissioned;
        self.responses += other.responses;
        self.tickets_fixing += other.tickets_fixing;
        self.tickets_error += other.tickets_error;
        self.tickets_false_alarm += other.tickets_false_alarm;
    }

    /// Tickets issued, all categories.
    pub(crate) fn tickets(&self) -> u64 {
        self.tickets_fixing + self.tickets_error + self.tickets_false_alarm
    }
}

/// Resolves the engine worker count: `0` means auto (the machine's
/// available parallelism); any value is clamped to `[1, 16]`.
pub(crate) fn resolve_threads(requested: usize) -> usize {
    let n = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        requested
    };
    n.clamp(1, 16)
}

/// Everything the global phase produces that the per-server phase needs:
/// the direct (globally scheduled) occurrences, the shared models, and the
/// observation window. Building it consumes the single global RNG stream
/// exactly once, so per-server work — whether over the whole fleet or one
/// shard's range — sees identical inputs.
pub(crate) struct GlobalPhase {
    pub(crate) start: SimTime,
    pub(crate) end: SimTime,
    pub(crate) direct: DirectOccurrences,
    pub(crate) operator: OperatorModel,
    pub(crate) hazards: HazardTable,
}

/// Runs the global phase: batch events, synchronous-repeat groups, shared
/// models. Records the `engine.global` span and the `sim.batch.*` /
/// `sim.occurrences.{batch,sync_repeat}` counters.
pub(crate) fn run_global_phase(
    config: &SimConfig,
    fleet: &Fleet,
    metrics: &MetricsRegistry,
) -> GlobalPhase {
    let start = SimTime::from_days(config.fleet.pre_window_days);
    let end = start + SimDuration::from_days(config.fleet.window_days);
    let global_span = metrics.phase("engine.global");
    let mut global_rng = StdRng::seed_from_u64(mix_seed(config.seed, 0x61_0b_a1));
    let mut staged: Vec<(u32, Occurrence)> = Vec::new();

    let (batch_events, batch_occurrences) =
        apply_batch_events(config, fleet, start, end, &mut global_rng, &mut staged);
    let sync_occurrences =
        apply_sync_groups(config, fleet, start, end, &mut global_rng, &mut staged);
    let direct = DirectOccurrences::build(fleet.servers().len(), &staged);
    drop(staged);
    metrics.add("sim.batch.events", batch_events);
    metrics.add("sim.occurrences.batch", batch_occurrences);
    metrics.add("sim.occurrences.sync_repeat", sync_occurrences);

    // Only the line metas feed the operator model — `fleet.snapshot()`
    // would copy every ServerMeta to get at them.
    let line_metas: Vec<_> = fleet
        .product_lines()
        .iter()
        .map(|p| p.meta.clone())
        .collect();
    let operator = OperatorModel::new(config.seed, &line_metas);
    // The eleven class hazards are constant across servers: build them once
    // instead of once per server per class inside the hot loop.
    let hazards = config.rates.hazard_table();
    drop(global_span);
    GlobalPhase {
        start,
        end,
        direct,
        operator,
        hazards,
    }
}

/// Runs the per-server phase over `servers` (the whole fleet, or one
/// shard's contiguous range) across `n_threads` workers. Returns the
/// per-thread record chunks, in fleet order and each sorted by
/// [`SpillRecord::key`], and the merged event tallies.
///
/// Each server's RNG stream is seeded from `(config.seed, server id)`
/// alone, so the records are independent of both the thread count and
/// how `servers` slices the fleet.
pub(crate) fn per_server_records(
    config: &SimConfig,
    fleet: &Fleet,
    global: &GlobalPhase,
    servers: &[ServerMeta],
    n_threads: usize,
) -> (Vec<Vec<SpillRecord>>, ServerCounts) {
    let chunk = servers.len().div_ceil(n_threads).max(1);
    let direct_ref = &global.direct;
    let operator_ref = &global.operator;
    let hazards_ref = &global.hazards;
    let (start, end) = (global.start, global.end);
    // Windowing guarantees every record's `error_time` is below `end`
    // (see the retain in `simulate_server`), so the packed key covers
    // every record this run can produce; the tuple sort stays as the
    // out-of-range fallback.
    let max_server = servers.iter().map(|s| s.id.raw()).max().unwrap_or(0);
    let packer = SpecKeyPacker::new(max_server, end.as_secs());
    let packer_ref = packer.as_ref();
    let mut chunks: Vec<Vec<SpillRecord>> = Vec::new();
    let mut counts = ServerCounts::default();

    std::thread::scope(|scope| {
        let handles: Vec<_> = servers
            .chunks(chunk)
            .map(|servers| {
                scope.spawn(move || {
                    let mut records = Vec::new();
                    let mut scratch = ServerScratch::default();
                    let mut counts = ServerCounts::default();
                    for server in servers {
                        simulate_server(
                            config,
                            fleet,
                            operator_ref,
                            hazards_ref,
                            server.id,
                            direct_ref.of(server.id),
                            start,
                            end,
                            &mut scratch,
                            &mut records,
                            &mut counts,
                        );
                    }
                    // Sort this chunk in parallel; the driver then only
                    // has to merge. The packed key is injective over the
                    // tuple key, so the unstable sort cannot reorder
                    // distinct keys — and equal keys denote tickets the
                    // merge tie-break already treats as interchangeable.
                    match packer_ref {
                        Some(p) => records.sort_unstable_by_key(|r| p.pack(r)),
                        None => records.sort_by_key(SpillRecord::key),
                    }
                    (records, counts)
                })
            })
            .collect();
        for h in handles {
            let (records, chunk_counts) = h.join().expect("simulation worker panicked");
            chunks.push(records);
            counts.merge(&chunk_counts);
        }
    });
    (chunks, counts)
}

/// Publishes the per-server phase's event tallies to the registry — once
/// per run, after every server (all shards included) has been simulated.
pub(crate) fn publish_server_counts(
    metrics: &MetricsRegistry,
    fms: &FmsMetrics,
    counts: &ServerCounts,
) {
    metrics.add("sim.occurrences.background", counts.background);
    metrics.add("sim.occurrences.escalated", counts.escalated);
    metrics.add("sim.repeats.expanded", counts.repeats);
    metrics.add("sim.occurrences.correlated", counts.correlated);
    metrics.add(
        "sim.occurrences.dropped_window",
        counts.dropped_outside_window,
    );
    metrics.add(
        "sim.occurrences.dropped_decommissioned",
        counts.skipped_decommissioned,
    );
    metrics.add("sim.servers.decommissioned", counts.decommissioned);
    metrics.add("sim.tickets.fixing", counts.tickets_fixing);
    metrics.add("sim.tickets.error", counts.tickets_error);
    metrics.add("sim.tickets.false_alarm", counts.tickets_false_alarm);
    fms.latent_resolved.add(counts.latent_resolved);
    fms.unmonitored_dropped.add(counts.dropped_unmonitored);
    fms.decommissioned.add(counts.decommissioned);
    fms.responses_sampled.add(counts.responses);
}

/// Expected number of *background* failures (lifecycle hazards only — no
/// batches, repeats, escalations or correlations) for a fleet over the
/// observation window. A calibration aid: compare with a run where those
/// channels are disabled.
pub fn expected_background_failures(config: &SimConfig, fleet: &Fleet) -> f64 {
    let start = SimTime::from_days(config.fleet.pre_window_days);
    let end = start + SimDuration::from_days(config.fleet.window_days);
    let hazards = config.rates.hazard_table();
    let mut total = 0.0;
    for server in fleet.servers() {
        let age_from = start.since(server.deploy_time).as_days_f64();
        let age_to = end.since(server.deploy_time).as_days_f64();
        if age_to <= 0.0 {
            continue;
        }
        let spatial = fleet.spatial_multiplier(server.id);
        for class in ComponentClass::ALL {
            let count = server.component_count(class);
            if count == 0 {
                continue;
            }
            let mult = class_rate_multiplier(class, count, spatial);
            total += hazards
                .hazard(class)
                .expected_count(age_from.max(0.0), age_to, mult);
        }
    }
    total
}

/// A maximal stretch of consecutive server ids in one (product line, DC)
/// bucket whose servers agree on every field a line-scoped batch event
/// filters on: generation, deploy time and the component counts.
#[derive(Clone)]
struct ServerRun {
    first: u32,
    len: u32,
    deploy_time: SimTime,
    generation: u8,
    /// `component_count` per class, indexed by [`ComponentClass::index`].
    counts: [u8; ComponentClass::ALL.len()],
}

/// Line-scoped batch-event candidates as runs: `buckets[line * n_dcs +
/// dc]` lists that bucket's [`ServerRun`]s in server-id order, so an
/// event tests one entry per run instead of one `ServerMeta` per server.
/// The fleet builder places whole racks of identical servers, which
/// collapses a 640k-server fleet to under 18k runs; a fleet whose
/// neighbours differ only gets shorter runs, never different candidates.
struct RunTable {
    n_dcs: usize,
    buckets: Vec<Vec<ServerRun>>,
}

impl RunTable {
    /// Builds the table in one pass over `servers`, which must be in
    /// id order (as [`Fleet::servers`] is).
    fn build(servers: &[ServerMeta], n_lines: usize, n_dcs: usize) -> Self {
        let mut buckets: Vec<Vec<ServerRun>> = vec![Vec::new(); n_lines * n_dcs];
        for s in servers {
            let run = ServerRun {
                first: s.id.raw(),
                len: 1,
                deploy_time: s.deploy_time,
                generation: s.generation,
                counts: ComponentClass::ALL.map(|c| s.component_count(c) as u8),
            };
            let bucket = &mut buckets[s.product_line.index() * n_dcs + s.data_center.index()];
            match bucket.last_mut() {
                Some(last)
                    if last.first + last.len == run.first
                        && last.deploy_time == run.deploy_time
                        && last.generation == run.generation
                        && last.counts == run.counts =>
                {
                    last.len += 1
                }
                _ => bucket.push(run),
            }
        }
        Self { n_dcs, buckets }
    }

    /// Appends the candidates of a line-scoped `event` on `line` to
    /// `pool` as `(server, slot count of the event's class)`, in
    /// server-id order: exactly the servers of the (line, DC) bucket that
    /// match the event's generation, are old enough and carry the class.
    fn extend_candidates(
        &self,
        event: &BatchEvent,
        line: ProductLineId,
        pool: &mut Vec<(ServerId, u8)>,
    ) {
        let class = event.class.index();
        let min_age = SimDuration::from_days(event.min_age_days);
        for run in &self.buckets[line.index() * self.n_dcs + event.dc.index()] {
            let slots = run.counts[class];
            if event.generation.is_none_or(|g| run.generation == g)
                && run.deploy_time + min_age <= event.start
                && slots > 0
            {
                pool.extend((run.first..run.first + run.len).map(|id| (ServerId::new(id), slots)));
            }
        }
    }
}

/// Replaces `pool` with the candidates of `event`, in the order the
/// Fisher–Yates draw in [`apply_batch_events`] consumes them: server-id
/// order for line-scoped events, rack order for PDU events.
fn event_candidates(
    fleet: &Fleet,
    runs: &RunTable,
    event: &BatchEvent,
    pool: &mut Vec<(ServerId, u8)>,
) {
    pool.clear();
    match (event.line, event.pdu) {
        (Some(line), _) => runs.extend_candidates(event, line, pool),
        (None, Some(pdu)) => {
            let min_age = SimDuration::from_days(event.min_age_days);
            pool.extend(
                fleet
                    .servers_of_pdu(event.dc, pdu)
                    .flatten()
                    .filter_map(|&sid| {
                        let s = fleet.server(sid);
                        let slots = s.component_count(event.class);
                        (s.deploy_time + min_age <= event.start && slots > 0)
                            .then_some((sid, slots as u8))
                    }),
            );
        }
        (None, None) => {}
    }
}

/// Expands batch events into per-server direct occurrences, staged as
/// `(server index, occurrence)` pairs for [`DirectOccurrences::build`].
/// Returns `(events generated, occurrences scheduled)`.
fn apply_batch_events(
    config: &SimConfig,
    fleet: &Fleet,
    start: SimTime,
    end: SimTime,
    rng: &mut StdRng,
    staged: &mut Vec<(u32, Occurrence)>,
) -> (u64, u64) {
    let mut scheduled: u64 = 0;
    let events = config.batch.generate(fleet, start, end, config.seed);
    let runs = RunTable::build(
        fleet.servers(),
        fleet.product_lines().len(),
        fleet.data_centers().len(),
    );
    // One candidate buffer for every event; each entry carries its slot
    // count, so the draw below never looks a server up.
    let mut pool: Vec<(ServerId, u8)> = Vec::new();
    for event in &events {
        event_candidates(fleet, &runs, event, &mut pool);
        if pool.is_empty() {
            continue;
        }
        let target = match event.cluster_fraction {
            Some(f) => ((pool.len() as f64 * f) as usize).max(1),
            None => event.target_size,
        };
        // Partial Fisher–Yates to sample `target` servers without replacement.
        let target = target.min(pool.len());
        for i in 0..target {
            let j = rng.random_range(i..pool.len());
            pool.swap(i, j);
            let (sid, slots) = pool[i];
            let offset = SimDuration::from_secs(
                (rng.random::<f64>() * event.window.as_secs() as f64) as u64,
            );
            let t = event.start + offset;
            if t >= end {
                continue;
            }
            staged.push((
                sid.raw(),
                Occurrence {
                    class: event.class,
                    slot: rng.random_range(0..slots),
                    ftype: event.failure_type,
                    error_time: t,
                    expand_repeats: false,
                },
            ));
            scheduled += 1;
        }
    }
    (events.len() as u64, scheduled)
}

/// Schedules synchronous-repeat groups (§V-C / Table VIII): pairs of
/// same-rack servers whose disks report the same failure type within
/// seconds, repeatedly. Returns the number of occurrences scheduled.
fn apply_sync_groups(
    config: &SimConfig,
    fleet: &Fleet,
    start: SimTime,
    end: SimTime,
    rng: &mut StdRng,
    staged: &mut Vec<(u32, Occurrence)>,
) -> u64 {
    let mut scheduled: u64 = 0;
    let scale = (fleet.servers().len() as f64 / 160_000.0).max(1.0 / 160.0);
    let groups = (config.sync_repeat.groups_per_trace * scale).round() as usize;
    let groups = if config.sync_repeat.groups_per_trace > 0.0 {
        groups.max(1)
    } else {
        0
    };
    if groups == 0 {
        return 0;
    }
    // Eligibility is a pure function of the fleet: precompute it per rack
    // once instead of re-filtering inside the rejection-sampling loop
    // below (consumes no RNG draws, so the trace is unchanged).
    //
    // Prefer servers whose warranty outlives the window: the paper's
    // Table VIII servers kept being "fixed" (D_fixing) each time, so
    // they must not be decommissioned mid-episode.
    //
    // Eligibility still does not check deploy_time (filtering here would
    // shift member selection and consume different RNG draws); instead the
    // emission loop below drops any occurrence that would land before the
    // member's deploy date, so late-deployed servers can join an episode
    // but never receive pre-deploy tickets.
    //
    // One flat id buffer: rack `k` (DCs in order, racks in order within
    // each) owns `eligible[rack_offsets[k]..rack_offsets[k + 1]]`, in the
    // rack's own server order, and DC `d`'s first rack is `dc_racks[d]`.
    let mut eligible: Vec<ServerId> = Vec::new();
    let mut rack_offsets: Vec<usize> = vec![0];
    let mut dc_racks: Vec<usize> = Vec::with_capacity(fleet.racks().len());
    for dc in fleet.racks() {
        dc_racks.push(rack_offsets.len() - 1);
        for rack in dc {
            eligible.extend(rack.iter().copied().filter(|&sid| {
                let s = fleet.server(sid);
                s.hdd_count > 0 && s.warranty_end() > end
            }));
            rack_offsets.push(eligible.len());
        }
    }
    let window_days = end.since(start).as_days_f64() as u64;
    for _ in 0..groups {
        // Find a rack with at least group_size HDD-bearing servers.
        let mut found: Option<&[ServerId]> = None;
        for _ in 0..200 {
            let dc_idx = rng.random_range(0..fleet.racks().len());
            if fleet.racks()[dc_idx].is_empty() {
                continue;
            }
            let rack_idx = rng.random_range(0..fleet.racks()[dc_idx].len());
            let k = dc_racks[dc_idx] + rack_idx;
            let rack = &eligible[rack_offsets[k]..rack_offsets[k + 1]];
            if rack.len() >= config.sync_repeat.group_size as usize {
                found = Some(rack);
                break;
            }
        }
        let Some(rack) = found else { continue };
        let members = &rack[..config.sync_repeat.group_size as usize];
        let first = start
            + SimDuration::from_days(rng.random_range(0..window_days.saturating_sub(60).max(1)));
        let (times, offsets) = config.sync_repeat.sample_group_schedule(rng, first, end);
        for (member_idx, &sid) in members.iter().enumerate() {
            let server = fleet.server(sid);
            let slot = rng.random_range(0..server.hdd_count.max(1));
            for &t in &times {
                let jittered = t + SimDuration::from_secs(offsets[member_idx]);
                if jittered >= end || jittered < server.deploy_time {
                    continue;
                }
                staged.push((
                    sid.raw(),
                    Occurrence {
                        class: ComponentClass::Hdd,
                        slot,
                        ftype: FailureType::SixthFixing,
                        error_time: jittered,
                        expand_repeats: false,
                    },
                ));
                scheduled += 1;
            }
        }
    }
    scheduled
}

/// Simulates one server end to end. Deterministic in
/// `(config.seed, server id)`. Event tallies go into `counts`; they never
/// touch `rng`, so instrumentation cannot perturb the trace. All working
/// buffers live in `scratch` and are reused across calls.
#[allow(clippy::too_many_arguments)]
fn simulate_server(
    config: &SimConfig,
    fleet: &Fleet,
    operator: &OperatorModel,
    hazards: &HazardTable,
    sid: ServerId,
    direct: &[Occurrence],
    start: SimTime,
    end: SimTime,
    scratch: &mut ServerScratch,
    out: &mut Vec<SpillRecord>,
    counts: &mut ServerCounts,
) {
    let ServerScratch {
        occurrences,
        escalations,
        repeats,
        extra,
        arrivals,
        repeat_times,
        causal,
    } = scratch;
    occurrences.clear();

    let mut rng = StdRng::seed_from_u64(mix_seed(config.seed, sid.raw() as u64 + 1));
    let server = fleet.server(sid);
    let profile: &UtilizationProfile = &fleet.product_line(server.product_line).utilization;
    let spatial = fleet.spatial_multiplier(sid);
    // FMS agent coverage (§VIII): before `monitored_from`, only manual
    // (miscellaneous) tickets exist for this server; `None` = never covered.
    let monitored_from = config
        .monitoring
        .sample_monitored_from(&mut rng, start, end);

    // --- background faults from the lifecycle hazards ---
    let deploy = server.deploy_time;
    let age_from = start.since(deploy).as_days_f64();
    let age_to = end.since(deploy).as_days_f64();
    if age_to > 0.0 {
        for class in ComponentClass::ALL {
            let count = server.component_count(class);
            if count == 0 {
                continue;
            }
            let mult = class_rate_multiplier(class, count, spatial);
            arrivals.clear();
            hazards.hazard(class).sample_arrivals(
                &mut rng,
                age_from.max(0.0),
                age_to,
                mult,
                arrivals,
            );
            for &age_days in arrivals.iter() {
                let latent = deploy + SimDuration::from_secs((age_days * 86_400.0) as u64);
                let slots = count as u8;
                occurrences.push(Occurrence {
                    class,
                    slot: rng.random_range(0..slots),
                    ftype: sample_type(&mut rng, class),
                    error_time: latent, // detection applied below
                    expand_repeats: true,
                });
            }
        }
    }

    counts.background += occurrences.len() as u64;

    // --- detection for background faults ---
    for occ in occurrences.iter_mut() {
        let channel = config.detection.sample_channel(&mut rng, occ.class);
        occ.error_time =
            config
                .detection
                .detection_time(&mut rng, channel, occ.error_time, profile);
        counts.latent_resolved += 1;
    }

    // --- warning → fatal escalation on the same component (§VII-A) ---
    escalations.clear();
    for occ in occurrences.iter() {
        if occ.ftype.severity() != Severity::Warning || occ.class == ComponentClass::Miscellaneous {
            continue;
        }
        if let Some(at) = config.escalation.roll(&mut rng, occ.error_time, end) {
            // The escalated failure is a fatal type of the same class,
            // on the same physical component.
            let fatal = fatal_type_for(&mut rng, occ.class).unwrap_or(occ.ftype);
            escalations.push(Occurrence {
                ftype: fatal,
                error_time: at,
                expand_repeats: false,
                ..*occ
            });
        }
    }
    counts.escalated += escalations.len() as u64;
    occurrences.extend_from_slice(escalations);

    // --- repeats: the same component failing again after a "fix" ---
    repeats.clear();
    for occ in occurrences.iter() {
        if !occ.expand_repeats {
            continue;
        }
        repeat_times.clear();
        config
            .repeat
            .sample_repeats_into(&mut rng, occ.error_time, end, repeat_times);
        for &t in repeat_times.iter() {
            repeats.push(Occurrence {
                error_time: t,
                expand_repeats: false,
                ..*occ
            });
        }
    }
    counts.repeats += repeats.len() as u64;
    occurrences.extend_from_slice(repeats);
    occurrences.extend_from_slice(direct);

    // --- correlated companions and causal propagation (§V-B) ---
    extra.clear();
    for occ in occurrences.iter() {
        if occ.class == ComponentClass::Miscellaneous {
            continue;
        }
        if let Some(delay) = config.correlation.roll_misc_companion(&mut rng, occ.class) {
            extra.push(Occurrence {
                class: ComponentClass::Miscellaneous,
                slot: 0,
                ftype: sample_type(&mut rng, ComponentClass::Miscellaneous),
                error_time: occ.error_time + delay,
                expand_repeats: false,
            });
        }
        causal.clear();
        config
            .correlation
            .roll_causal_into(&mut rng, occ.class, causal);
        for &(secondary, delay) in causal.iter() {
            if server.component_count(secondary) == 0 {
                continue;
            }
            let slots = server.component_count(secondary) as u8;
            extra.push(Occurrence {
                class: secondary,
                slot: rng.random_range(0..slots),
                ftype: sample_type(&mut rng, secondary),
                error_time: occ.error_time + delay,
                expand_repeats: false,
            });
        }
    }
    counts.correlated += extra.len() as u64;
    occurrences.extend_from_slice(extra);

    // --- categorize in time order, applying decommissioning ---
    occurrences.retain(|o| {
        if o.class != ComponentClass::Miscellaneous {
            match monitored_from {
                Some(from) if o.error_time >= from => {}
                _ => {
                    // no agent yet: failure goes unrecorded
                    counts.dropped_unmonitored += 1;
                    return false;
                }
            }
        }
        if o.error_time >= start && o.error_time < end {
            true
        } else {
            counts.dropped_outside_window += 1;
            false
        }
    });
    occurrences.sort_by_key(|o| o.error_time);
    let mut decommissioned_at: Option<SimTime> = None;
    for occ in occurrences.iter() {
        if let Some(d) = decommissioned_at {
            if occ.error_time >= d {
                counts.skipped_decommissioned += 1;
                continue;
            }
        }
        let category = if server.out_of_warranty_at(occ.error_time) {
            FotCategory::Error
        } else {
            FotCategory::Fixing
        };
        match category {
            FotCategory::Error => counts.tickets_error += 1,
            _ => counts.tickets_fixing += 1,
        }
        let response = operator.sample_response(
            &mut rng,
            server.product_line,
            occ.class,
            category,
            occ.error_time,
            occ.error_time.since(server.deploy_time),
        );
        if response.is_some() {
            counts.responses += 1;
        }
        out.push(SpillRecord {
            server: sid,
            class: occ.class,
            slot: occ.slot,
            ftype: occ.ftype,
            error_time: occ.error_time,
            category,
            response,
        });

        if category == FotCategory::Error
            && occ.ftype.severity() == Severity::Fatal
            && operator.roll_decommission(&mut rng, true)
        {
            decommissioned_at = Some(occ.error_time);
            counts.decommissioned += 1;
        }

        // --- false alarms (Table I: 1.7% of tickets) ---
        if config.false_alarm.roll(&mut rng) {
            let fa_time = occ.error_time + SimDuration::from_secs(rng.random_range(0..30 * 86_400));
            if fa_time < end {
                let fa_class = occ.class;
                let slots = server.component_count(fa_class).max(1) as u8;
                let fa_response = operator.sample_response(
                    &mut rng,
                    server.product_line,
                    fa_class,
                    FotCategory::FalseAlarm,
                    fa_time,
                    fa_time.since(server.deploy_time),
                );
                counts.tickets_false_alarm += 1;
                if fa_response.is_some() {
                    counts.responses += 1;
                }
                out.push(SpillRecord {
                    server: sid,
                    class: fa_class,
                    slot: rng.random_range(0..slots),
                    ftype: sample_type(&mut rng, fa_class),
                    error_time: fa_time,
                    category: FotCategory::FalseAlarm,
                    response: fa_response,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;
    use dcf_fleet::FleetBuilder;

    /// The per-`ServerMeta` filter the run table replaces: every server of
    /// the event's (line, DC) — or of its PDU's racks — that matches the
    /// event, with its slot count.
    fn naive_candidates(
        fleet: &Fleet,
        servers: &[ServerMeta],
        event: &BatchEvent,
    ) -> Vec<(ServerId, u8)> {
        let eligible = |s: &ServerMeta| {
            s.deploy_time + SimDuration::from_days(event.min_age_days) <= event.start
                && s.component_count(event.class) > 0
        };
        let slots = |s: &ServerMeta| (s.id, s.component_count(event.class).max(1) as u8);
        match (event.line, event.pdu) {
            (Some(line), _) => servers
                .iter()
                .filter(|s| {
                    s.product_line == line
                        && s.data_center == event.dc
                        && event.generation.is_none_or(|g| s.generation == g)
                        && eligible(s)
                })
                .map(slots)
                .collect(),
            (None, Some(pdu)) => {
                let dc = fleet.data_center(event.dc);
                servers
                    .iter()
                    .filter(|s| s.data_center == event.dc && dc.pdu_of_rack(s.rack) == pdu)
                    .filter(|s| eligible(s))
                    .map(slots)
                    .collect()
            }
            (None, None) => Vec::new(),
        }
    }

    fn fleet_and_events(scenario: &Scenario) -> (Fleet, Vec<BatchEvent>) {
        let config = &scenario.config;
        let fleet = FleetBuilder::new(config.fleet.clone())
            .seed(config.seed)
            .build()
            .unwrap();
        let start = SimTime::from_days(config.fleet.pre_window_days);
        let end = start + SimDuration::from_days(config.fleet.window_days);
        let events = config.batch.generate(&fleet, start, end, config.seed);
        (fleet, events)
    }

    fn run_count(runs: &RunTable) -> usize {
        runs.buckets.iter().map(Vec::len).sum()
    }

    #[test]
    fn run_table_candidates_match_the_per_server_filter() {
        let (mut line_events, mut pdu_events) = (0, 0);
        for scenario in [Scenario::small(), Scenario::medium()] {
            for seed in [1, 7] {
                let (fleet, events) = fleet_and_events(&scenario.clone().seed(seed));
                let (n_lines, n_dcs) = (fleet.product_lines().len(), fleet.data_centers().len());
                let runs = RunTable::build(fleet.servers(), n_lines, n_dcs);
                assert!(
                    run_count(&runs) < fleet.servers().len() / 4,
                    "{} seed {seed}: whole racks should share a run",
                    scenario.name
                );
                line_events += events.iter().filter(|e| e.line.is_some()).count();
                pdu_events += events.iter().filter(|e| e.pdu.is_some()).count();
                let mut pool = Vec::new();
                for (i, event) in events.iter().enumerate() {
                    event_candidates(&fleet, &runs, event, &mut pool);
                    assert_eq!(
                        pool,
                        naive_candidates(&fleet, fleet.servers(), event),
                        "{} seed {seed}: event {i}",
                        scenario.name
                    );
                }

                // Break every bucket into short runs: every other server
                // differs from its neighbours in deploy day, generation,
                // one component count, or its line (which leaves id gaps
                // between otherwise identical servers).
                let perturbations: [fn(&mut ServerMeta, usize); 4] = [
                    |s, _| s.deploy_time += SimDuration::from_days(1),
                    |s, _| s.generation ^= 1,
                    |s, _| s.hdd_count = if s.hdd_count == 0 { 3 } else { s.hdd_count - 1 },
                    |s, n_lines| {
                        let next = (s.product_line.index() + 1) % n_lines;
                        s.product_line = ProductLineId::new(next as _);
                    },
                ];
                for (p, perturb) in perturbations.iter().enumerate() {
                    let mut servers = fleet.servers().to_vec();
                    for s in servers.iter_mut().skip(1).step_by(2) {
                        perturb(s, n_lines);
                    }
                    let short = RunTable::build(&servers, n_lines, n_dcs);
                    assert!(run_count(&short) > servers.len() / 2);
                    for (i, event) in events.iter().enumerate() {
                        let Some(line) = event.line else { continue };
                        pool.clear();
                        short.extend_candidates(event, line, &mut pool);
                        assert_eq!(
                            pool,
                            naive_candidates(&fleet, &servers, event),
                            "{} seed {seed}: perturbation {p}, event {i}",
                            scenario.name
                        );
                    }
                }
            }
        }
        assert!(
            line_events > 0 && pdu_events > 0,
            "{line_events} / {pdu_events}"
        );
    }
}
