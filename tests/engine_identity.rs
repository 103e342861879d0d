//! Byte-identity of the engine across worker-thread counts and shard
//! counts.
//!
//! The contract under test: `RunOptions::threads` and `RunOptions::shards`
//! are purely execution knobs. Workers own disjoint server chunks, every
//! server draws from its own RNG stream, and the one k-way merge — over a
//! one-shard run's in-memory chunks or over a multi-shard run's spills —
//! reproduces the sequential stable sort exactly, so the trace (every
//! ticket field, in order) must not change by a single byte at any thread
//! or shard count. The CSV digest is the same fingerprint CI diffs between
//! `reproduce --threads 1` and auto, and between `--shards 1` and
//! `--shards 4`.

use dcfail::obs::MetricsRegistry;
use dcfail::sim::{simulate, simulate_sharded, RunOptions, Scenario};
use dcfail::trace::io::spill::{merge_cursors, split_by_time, SpillCursor, SpillRecord};
use dcfail::trace::{io, ComponentClass, FailureType, FotCategory, ServerId, SimTime, Trace};

const SEEDS: [u64; 3] = [1, 7, 42];
/// Engine thread counts; 3 splits the assembly merge unevenly, and 0 asks
/// for the machine's parallelism.
const THREADS: [usize; 6] = [1, 2, 3, 4, 8, 0];

fn small_trace(seed: u64, threads: usize) -> Trace {
    Scenario::small()
        .seed(seed)
        .simulate(&RunOptions::new().threads(threads))
        .expect("simulation runs")
}

#[test]
fn traces_are_byte_identical_across_thread_counts() {
    for seed in SEEDS {
        let reference = small_trace(seed, 1);
        let reference_digest = io::fots_digest(reference.fots());
        for threads in &THREADS[1..] {
            let trace = small_trace(seed, *threads);
            // Column equality covers the detail dictionary: each thread's
            // merge range interns its own, and the join must restore the
            // one-builder first-appearance order.
            assert_eq!(
                trace.columns(),
                reference.columns(),
                "seed {seed}: trace diverged at {threads} engine threads"
            );
            assert_eq!(trace.columns().dict(), reference.columns().dict());
            assert_eq!(
                io::fots_digest(trace.fots()),
                reference_digest,
                "seed {seed}: digest diverged at {threads} engine threads"
            );
        }
    }
}

/// The sharded engine matrix: shards × threads × seeds. Every combination
/// must stream to the same digest a one-shard run computes from its
/// in-memory trace — sharding is invisible in the output.
#[test]
fn sharded_digests_match_the_unsharded_trace() {
    for seed in SEEDS {
        let reference = small_trace(seed, 1);
        let reference_digest = io::fots_digest(reference.fots());
        for shards in [1u32, 2, 8] {
            for threads in [1usize, 4] {
                let scenario = Scenario::small().seed(seed);
                let options = RunOptions::new().threads(threads).shards(shards);
                let run =
                    simulate_sharded(&scenario.config, &options).expect("sharded simulation runs");
                assert_eq!(
                    run.digest, reference_digest,
                    "seed {seed}: digest diverged at {shards} shards, {threads} threads"
                );
                assert_eq!(
                    run.tickets,
                    reference.len() as u64,
                    "seed {seed}: ticket count diverged at {shards} shards, {threads} threads"
                );
            }
        }
    }
}

/// The medium scenario (30,209 tickets at seed 1) spans several of the
/// digest sink's record batches, which the small scenario's 750 tickets
/// never fill: recycled batches, the last partial batch and the
/// digesting thread's hand-offs all reach the digest, the ticket count
/// and the category tallies, which must equal the materialized trace's
/// at every shard count, inline (one thread) and pipelined (two).
#[test]
fn medium_sharded_digests_cross_batch_boundaries() {
    let scenario = Scenario::medium().seed(1);
    let trace = simulate(&scenario.config, &RunOptions::new().threads(2)).expect("simulation runs");
    let reference_digest = io::fots_digest(trace.fots());
    let reference_counts = trace.category_counts().map(|c| c as u64);
    for shards in [1u32, 3, 8] {
        for threads in [1usize, 2] {
            let options = RunOptions::new().threads(threads).shards(shards);
            let run =
                simulate_sharded(&scenario.config, &options).expect("sharded simulation runs");
            let context = format!("{shards} shards, {threads} threads");
            assert_eq!(run.digest, reference_digest, "{context}");
            assert_eq!(run.tickets, trace.len() as u64, "{context}");
            assert_eq!(run.category_counts, reference_counts, "{context}");
        }
    }
}

/// The pipelined-execution matrix: `shard_workers` (how many shards are in
/// flight at once) crossed with shard count and seed. The worker pool
/// changes only the order shards are *simulated* in — the merge still
/// consumes them in shard order — so every combination must land on the
/// sequential one-shard digest.
#[test]
fn parallel_shard_workers_preserve_the_digest() {
    for seed in SEEDS {
        let reference = small_trace(seed, 1);
        let reference_digest = io::fots_digest(reference.fots());
        for shards in [1u32, 2, 8] {
            for workers in [1u32, 2, 4] {
                let scenario = Scenario::small().seed(seed);
                let run = simulate_sharded(
                    &scenario.config,
                    &RunOptions::new()
                        .threads(1)
                        .shards(shards)
                        .shard_workers(workers),
                )
                .expect("pipelined sharded simulation runs");
                assert_eq!(
                    run.digest, reference_digest,
                    "seed {seed}: digest diverged at {shards} shards, \
                     {workers} shard workers"
                );
                assert_eq!(
                    run.tickets,
                    reference.len() as u64,
                    "seed {seed}: ticket count diverged at {shards} shards, \
                     {workers} shard workers"
                );
            }
        }
    }
}

/// Sharded runs that leave `spill_dir` unset each get their own default
/// spill directory, so two of them running at once in one process never
/// read or delete each other's shard files.
#[test]
fn concurrent_default_dir_sharded_runs_match_the_unsharded_digest() {
    let reference_digest = io::fots_digest(small_trace(42, 1).fots());
    let scenario = Scenario::small().seed(42);
    // Both runs start together so their spill phases overlap.
    let start = std::sync::Barrier::new(2);
    let digests: Vec<u64> = std::thread::scope(|scope| {
        let runs: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    simulate_sharded(&scenario.config, &RunOptions::new().threads(1).shards(8))
                        .expect("concurrent sharded simulation runs")
                        .digest
                })
            })
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("run thread completes"))
            .collect()
    });
    assert_eq!(digests, vec![reference_digest; 2]);
}

/// A materialized sharded trace must be byte-identical to the one-shard
/// one, not merely digest-equal.
#[test]
fn materialized_sharded_trace_matches_unsharded_fots() {
    let reference = small_trace(7, 2);
    let scenario = Scenario::small().seed(7);
    let trace = simulate(&scenario.config, &RunOptions::new().threads(2).shards(3))
        .expect("sharded simulation runs");
    assert_eq!(trace.fots(), reference.fots());
}

/// The one driver materializes the same trace at every shard count: the
/// one-shard run merges in memory, the others through spills.
#[test]
fn simulate_is_identical_at_one_two_and_eight_shards() {
    for seed in SEEDS {
        for threads in [1usize, 4] {
            let scenario = Scenario::small().seed(seed);
            let run = |shards: u32| {
                let options = RunOptions::new().threads(threads).shards(shards);
                simulate(&scenario.config, &options).expect("simulation runs")
            };
            let one = run(1);
            for shards in [2u32, 8] {
                let trace = run(shards);
                assert_eq!(
                    trace.fots(),
                    one.fots(),
                    "seed {seed}, {threads} threads: tickets diverged at {shards} shards"
                );
                assert_eq!(
                    trace.info(),
                    one.info(),
                    "seed {seed}, {threads} threads: header diverged at {shards} shards"
                );
            }
        }
    }
}

/// A one-shard `simulate_sharded` streams the in-memory merge into the
/// digest sink: the digest and category counts of the materialized trace,
/// with no spill written.
#[test]
fn one_shard_digest_sink_matches_the_trace_and_spills_nothing() {
    let dir = std::env::temp_dir().join(format!("dcf-one-shard-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    for seed in SEEDS {
        for threads in [1usize, 4] {
            let trace = small_trace(seed, threads);
            let options = RunOptions::new().threads(threads).shards(1).spill_dir(&dir);
            let run = simulate_sharded(&Scenario::small().seed(seed).config, &options)
                .expect("one-shard run streams");
            let context = format!("seed {seed}, {threads} threads");
            assert_eq!(run.digest, io::fots_digest(trace.fots()), "{context}");
            assert_eq!(run.tickets, trace.len() as u64, "{context}");
            assert_eq!(
                run.category_counts,
                trace.category_counts().map(|c| c as u64),
                "{context}"
            );
            assert_eq!(run.shards, 1, "{context}");
            assert_eq!(run.bytes_spilled, 0, "{context}");
            assert!(
                !dir.exists(),
                "{context}: a one-shard run touched its spill dir"
            );
        }
    }
}

#[test]
fn auto_thread_count_matches_explicit_one() {
    // 0 = auto-detect; whatever the machine resolves it to, the trace must
    // match the single-threaded run.
    for seed in SEEDS {
        assert_eq!(
            small_trace(seed, 0).fots(),
            small_trace(seed, 1).fots(),
            "seed {seed}: auto thread count changed the trace"
        );
    }
}

#[test]
fn digest_is_a_trace_fingerprint() {
    // Different seeds produce different tickets, so the digest must move;
    // the same trace serialized twice must not.
    let a = small_trace(SEEDS[0], 2);
    let b = small_trace(SEEDS[1], 2);
    assert_eq!(io::fots_digest(a.fots()), io::fots_digest(a.fots()));
    assert_ne!(
        io::fots_digest(a.fots()),
        io::fots_digest(b.fots()),
        "digest failed to distinguish traces from different seeds"
    );
}

/// Counter/trace consistency: the engine's ticket counters must agree with
/// the assembled trace at every thread count, auto included.
#[test]
fn ticket_counters_match_the_trace() {
    for seed in SEEDS {
        for threads in [1usize, 2, 0] {
            let registry = MetricsRegistry::new();
            let trace = Scenario::small()
                .seed(seed)
                .simulate(&RunOptions::new().metrics(&registry).threads(threads))
                .expect("simulation runs");
            let report = registry.report("engine_identity");
            let counter = |name: &str| {
                report
                    .counter(name)
                    .unwrap_or_else(|| panic!("seed {seed}, threads {threads}: missing {name}"))
            };
            let total = counter("sim.tickets.total");
            assert_eq!(
                total,
                counter("sim.tickets.fixing")
                    + counter("sim.tickets.error")
                    + counter("sim.tickets.false_alarm"),
                "seed {seed}, threads {threads}: category counters do not sum to the total"
            );
            assert_eq!(
                trace.len() as u64,
                total,
                "seed {seed}, threads {threads}: trace length disagrees with sim.tickets.total"
            );
            let [fixing, error, false_alarm] = trace.category_counts();
            assert_eq!(
                (fixing + error + false_alarm) as u64,
                total,
                "seed {seed}, threads {threads}: trace category counts disagree with the counter"
            );
        }
    }
}

/// Merges `runs` as the engine does: one cursor per run, in run order.
fn merged(runs: &[&[SpillRecord]]) -> Vec<SpillRecord> {
    let cursors = (0..)
        .zip(runs)
        .map(|(i, run)| SpillCursor::from_sorted(i, run))
        .collect();
    let mut out = Vec::new();
    merge_cursors(cursors, |r| out.push(r)).expect("in-memory merge");
    out
}

/// The assembly merge splits its sorted chunks into error-time ranges,
/// one per engine thread. Here every split boundary falls on an error
/// time that several chunks share, including records whose full merge
/// keys tie across chunks: each such time must land whole in one range,
/// and the ranges merged one after another must give the whole merge.
#[test]
fn time_split_keeps_shared_error_times_in_one_range() {
    let rec = |server: u32, secs: u64| SpillRecord {
        server: ServerId::new(server),
        class: ComponentClass::Hdd,
        slot: 0,
        ftype: FailureType::SmartFail,
        error_time: SimTime::from_secs(secs),
        category: FotCategory::Error,
        response: None,
    };
    // Chunk 0 is the longest, so its records at 1/3 and 2/3 of its length
    // (times 20 and 30) are the boundaries at three parts; both times
    // also occur in chunks 1 and 2, and (5, 20) occurs in two chunks.
    let chunks = [
        vec![
            rec(0, 10),
            rec(0, 20),
            rec(1, 20),
            rec(2, 20),
            rec(0, 30),
            rec(1, 30),
        ],
        vec![rec(5, 20), rec(5, 30), rec(6, 30)],
        vec![rec(5, 20), rec(9, 25), rec(9, 30), rec(8, 40)],
    ];
    for chunk in &chunks {
        let mut sorted = chunk.clone();
        sorted.sort_by_key(SpillRecord::key);
        assert_eq!(&sorted, chunk, "test chunks must be sorted by key");
    }
    let runs: Vec<&[SpillRecord]> = chunks.iter().map(Vec::as_slice).collect();
    let whole = merged(&runs);
    for parts in 1..=8 {
        let ranges = split_by_time(&runs, parts);
        assert!(!ranges.is_empty() && ranges.len() <= parts);
        let pieces: Vec<Vec<SpillRecord>> = ranges.iter().map(|r| merged(r)).collect();
        assert_eq!(pieces.concat(), whole, "{parts} parts");
        // No error time spans two ranges.
        for pair in pieces.windows(2) {
            if let (Some(last), Some(next)) = (pair[0].last(), pair[1].first()) {
                assert!(last.error_time < next.error_time, "{parts} parts");
            }
        }
    }
    // At three parts the boundaries are the shared times 20 and 30.
    let times = |range: &Vec<&[SpillRecord]>| -> Vec<u64> {
        let mut t: Vec<u64> = merged(range)
            .iter()
            .map(|r| r.error_time.as_secs())
            .collect();
        t.dedup();
        t
    };
    let three = split_by_time(&runs, 3);
    assert_eq!(
        three.iter().map(times).collect::<Vec<_>>(),
        vec![vec![10], vec![20, 25], vec![30, 40]]
    );
}
