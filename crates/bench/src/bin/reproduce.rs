//! Regenerates every table and figure of the paper from a simulated trace.
//!
//! ```text
//! reproduce [--scenario paper|medium|small] [--seed N]
//!           [--experiment ID | --markdown | --score] [--metrics PATH]
//!           [--threads N] [--servers N] [--shards K] [--shard-workers W]
//!           [--spill-dir PATH] [--digest PATH]
//! reproduce snapshot --out PATH [simulation flags]
//! reproduce snapshot --in PATH [analysis flags]
//! reproduce export [--out PATH] [--from-day D] [--to-day D] [--dc IDX]
//!                  [simulation flags]
//! reproduce serve [--addr HOST:PORT] [--workers N] [--loops N]
//!                 [--cache-entries N] [--catalog DIR] [--max-conns N]
//!                 [--idle-timeout-ms N]
//! reproduce replay [--scenario paper|medium|small] [--seed N] [--threads N]
//!                  [--snapshot-in PATH] [--speed DAYS_PER_SEC] [--quiet]
//!                  [--digest PATH] [--metrics PATH]
//! ```
//!
//! `reproduce serve` runs the `dcf-serve` HTTP query service instead of a
//! one-shot reproduction: simulate + study results are computed on demand
//! per `(scenario, seed, threads)` and cached, and connections are
//! multiplexed on a non-blocking readiness event loop with HTTP/1.1
//! keep-alive (SERVING.md). SIGINT (Ctrl-C) drains in-flight requests and
//! prints the final metrics report before exiting. `--catalog DIR` serves
//! every `*.dcfsnap` in `DIR` under its file stem (a one-file catalog
//! holding `snapshot.dcfsnap` serves it as scenario `snapshot`), and
//! SIGHUP (or `POST /catalog/reload`) rescans the directory without a
//! restart. `--max-conns` and `--idle-timeout-ms` tune the event loop
//! (defaults: 12000 connections, 10000 ms); the readiness backend is the
//! platform's one poller (epoll on Linux). `--loops N` runs N event loops
//! (`0` = one per core); loop 0 accepts on the one listener and hands
//! connections round-robin to the others.
//!
//! `reproduce replay` streams a trace back as a live virtual-time ticket
//! feed on stdout (NDJSON, one FOT per line) with three *online* detectors
//! attached — a sliding-window σ-outlier rate detector per (class, DC), a
//! causal batch-burst detector, and an incremental prior-failure predictor
//! — each emitting detection events inline and a final summary line scoring
//! them against the offline study (precision/recall/F1; EXPERIMENTS.md).
//! `--speed N` paces playback at N simulated days per wall second (`0`,
//! the default, streams with no sleeps); the event sequence and its digest
//! are byte-identical at every speed. `--quiet` suppresses the event lines
//! (summary only), `--digest PATH` writes the 16-hex event-stream digest,
//! and `--metrics PATH` writes the run's `RunReport` (with the
//! `replay.build` / `replay.stream` spans). The same feed is served over
//! chunked HTTP by `reproduce serve` at `GET /v1/replay/{scenario}?speed=N`.
//!
//! `reproduce snapshot --out PATH` simulates once and persists the trace as
//! a versioned binary snapshot (`dcf-trace::io::snapshot`); it prints no
//! report, so it rejects `--experiment`, `--markdown` and `--score`.
//! `--in PATH` loads such a snapshot instead of simulating and runs the
//! regular analysis flags against it. The write and load are timed under
//! the `trace.snapshot_write` / `trace.snapshot_load` phases.
//!
//! `reproduce export` simulates once and writes the ticket table as CSV
//! (reloadable with `dcf_trace::io::read_fots_csv`, losslessly) to `--out
//! PATH`, or to stdout without it. `--from-day D` / `--to-day D` keep the
//! tickets whose error time falls in `[D_from, D_to)` and `--dc IDX` those
//! of one data center. It takes every simulation flag, including
//! `--digest` (of the exported rows), and like `snapshot --out` it rejects
//! `--experiment`, `--markdown` and `--score`.
//!
//! `ID` is one of: `table1 table2 table3 table4 table5 table6 table7 table8
//! fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 prediction backlog all`
//! (default `all`), or `none` to skip the study entirely — engine-only
//! digest runs.
//! `--markdown` prints the headline paper-vs-measured table and `--score`
//! a verdict per headline metric plus the share that agrees. Both format
//! the one `StudyReport` the run analyzes, under its `--threads` and
//! `--metrics`. `--experiment`, `--markdown` and `--score` each pick the
//! run's one output, so at most one of them may be given.
//! `--metrics PATH` enables the `dcf-obs` instrumentation layer: the run's
//! phase timings and event counters are written to `PATH` as a JSON
//! `RunReport` and summarized on stderr. Counter values are deterministic
//! in the seed.
//! `--threads N` sets both the engine worker-thread count and the study
//! section pool size (`0`, the default, means auto-detect from the
//! machine). Traces and reports are byte-identical across thread counts.
//! `--servers N` overrides the scenario's fleet size (the rest of the
//! layout — DCs, racks, product lines — rescales around it).
//! `--shards K` (default 1) splits the fleet into K contiguous server
//! ranges (SCALING.md). One shard merges the engine's per-thread chunks
//! in memory and writes no spill file; with K ≥ 2 each shard is simulated
//! and spilled to disk independently, then k-way merged, which bounds
//! memory. The trace and digest are byte-identical at any K. A simulated
//! `--experiment none` run never materializes the trace — it streams
//! straight to the digest, which is how multi-million-server fleets fit
//! in bounded memory.
//! `--shard-workers W` caps the pipelined shard worker pool: up to `W`
//! shards simulate and spill concurrently while completed spills merge
//! (`0`, the default, auto-detects from the machine). Traces and digests
//! are byte-identical at any worker count.
//! `--spill-dir PATH` puts the per-shard spill files under `PATH`
//! (default: a process-unique temp directory); the run removes every
//! spill it wrote when it ends.
//! `--digest PATH` writes the 16-hex-digit FNV-1a digest of the trace's
//! ticket CSV — the byte-identity fingerprint CI diffs across engine
//! thread counts and shard counts.

use std::process::ExitCode;

use dcf_core::{paper, FailureStudy, StudyOptions, StudyReport};
use dcf_obs::MetricsRegistry;
use dcf_report::{experiments, pct, TextTable};
use dcf_sim::{RunOptions, Scenario};
use dcf_trace::{io, DataCenterId, SimTime, Trace};

/// Which run `reproduce` makes with the shared flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The default: one report (an experiment, `--markdown` or `--score`).
    Report,
    /// `reproduce snapshot`: write (`--out`) or analyze (`--in`) a snapshot.
    Snapshot,
    /// `reproduce export`: the ticket table as CSV.
    Export,
}

struct Args {
    mode: Mode,
    scenario: String,
    seed: u64,
    /// `None` unless `--experiment` was given (the default output is `all`).
    experiment: Option<String>,
    markdown: bool,
    score: bool,
    metrics: Option<String>,
    threads: usize,
    servers: Option<usize>,
    shards: u32,
    shard_workers: u32,
    spill_dir: Option<String>,
    digest: Option<String>,
    /// `snapshot --out` file, or the `export` CSV (stdout when absent).
    out: Option<String>,
    snapshot_in: Option<String>,
    from_day: Option<u64>,
    to_day: Option<u64>,
    dc: Option<u16>,
}

fn parse_args(mode: Mode) -> Result<Args, String> {
    let mut args = Args {
        mode,
        scenario: "paper".into(),
        seed: 1,
        experiment: None,
        markdown: false,
        score: false,
        metrics: None,
        threads: 0,
        servers: None,
        shards: 1,
        shard_workers: 0,
        spill_dir: None,
        digest: None,
        out: None,
        snapshot_in: None,
        from_day: None,
        to_day: None,
        dc: None,
    };
    let mut it = std::env::args().skip(if mode == Mode::Report { 1 } else { 2 });
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scenario" => {
                args.scenario = it.next().ok_or("--scenario needs a value")?;
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--experiment" => {
                args.experiment = Some(it.next().ok_or("--experiment needs a value")?);
            }
            "--markdown" => args.markdown = true,
            "--score" => args.score = true,
            "--metrics" => {
                args.metrics = Some(it.next().ok_or("--metrics needs a value")?);
            }
            "--threads" => {
                args.threads = it
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("bad thread count: {e}"))?;
            }
            "--servers" => {
                let n: usize = it
                    .next()
                    .ok_or("--servers needs a value")?
                    .parse()
                    .map_err(|e| format!("bad server count: {e}"))?;
                if n == 0 {
                    return Err("--servers must be at least 1".into());
                }
                args.servers = Some(n);
            }
            "--shards" => {
                let k: u32 = it
                    .next()
                    .ok_or("--shards needs a value")?
                    .parse()
                    .map_err(|e| format!("bad shard count: {e}"))?;
                if k == 0 {
                    return Err("--shards must be at least 1".into());
                }
                args.shards = k;
            }
            "--shard-workers" => {
                args.shard_workers = it
                    .next()
                    .ok_or("--shard-workers needs a value")?
                    .parse()
                    .map_err(|e| format!("bad shard worker count: {e}"))?;
            }
            "--spill-dir" => {
                args.spill_dir = Some(it.next().ok_or("--spill-dir needs a value")?);
            }
            "--digest" => {
                args.digest = Some(it.next().ok_or("--digest needs a value")?);
            }
            "--out" if mode != Mode::Report => {
                args.out = Some(it.next().ok_or("--out needs a value")?);
            }
            "--in" if mode == Mode::Snapshot => {
                args.snapshot_in = Some(it.next().ok_or("--in needs a value")?);
            }
            "--from-day" if mode == Mode::Export => {
                args.from_day = Some(parse_value(it.next(), "--from-day")?);
            }
            "--to-day" if mode == Mode::Export => {
                args.to_day = Some(parse_value(it.next(), "--to-day")?);
            }
            "--dc" if mode == Mode::Export => {
                args.dc = Some(parse_value(it.next(), "--dc")?);
            }
            "--help" | "-h" => {
                return Err(match mode {
                    Mode::Snapshot => "usage: reproduce snapshot (--out PATH | --in PATH) [reproduce flags]".into(),
                    Mode::Export => "usage: reproduce export [--out PATH] [--from-day D] [--to-day D] [--dc IDX] [simulation flags]".into(),
                    Mode::Report => "usage: reproduce [--scenario paper|medium|small] [--seed N] [--experiment ID|none | --markdown | --score] [--metrics PATH] [--threads N] [--servers N] [--shards K] [--shard-workers W] [--spill-dir PATH] [--digest PATH]".into(),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if mode == Mode::Snapshot && args.out.is_none() && args.snapshot_in.is_none() {
        return Err("reproduce snapshot needs --out PATH or --in PATH".into());
    }
    if args.out.is_some() && args.snapshot_in.is_some() {
        return Err("--out and --in are mutually exclusive".into());
    }
    let outputs = [args.experiment.is_some(), args.markdown, args.score]
        .into_iter()
        .filter(|&given| given)
        .count();
    if outputs > 1 {
        return Err("--experiment, --markdown and --score are mutually exclusive".into());
    }
    if outputs > 0 && (mode == Mode::Export || args.out.is_some()) {
        let run = if mode == Mode::Export {
            "export"
        } else {
            "snapshot --out"
        };
        return Err(format!(
            "reproduce {run} prints no report; drop --experiment, --markdown and --score"
        ));
    }
    Ok(args)
}

/// Parses the value of `flag` (`None` when the command line ended).
fn parse_value<T: std::str::FromStr>(value: Option<String>, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value
        .ok_or(format!("{flag} needs a value"))?
        .parse()
        .map_err(|e| format!("bad {flag} value: {e}"))
}

/// Writes the JSON `RunReport` to `args.metrics` (no-op when the flag is
/// absent) and echoes the markdown rendering to stderr.
fn write_metrics(args: &Args, registry: &MetricsRegistry) -> Result<(), String> {
    let Some(path) = &args.metrics else {
        return Ok(());
    };
    let label = format!(
        "reproduce --scenario {} --seed {}",
        args.scenario, args.seed
    );
    let report = registry.report(&label);
    std::fs::write(path, report.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("{}", dcf_report::run_report_markdown(&report));
    eprintln!("metrics written to {path}");
    Ok(())
}

/// Writes the trace's ticket-CSV digest to `args.digest` (no-op when the
/// flag is absent) — the byte-identity fingerprint CI compares across
/// engine thread counts and shard counts.
fn write_digest(args: &Args, trace: &Trace) -> Result<(), String> {
    let Some(path) = &args.digest else {
        return Ok(());
    };
    write_digest_value(path, io::fots_digest(trace.fots()))
}

/// Writes an already-computed ticket-CSV digest to `path` — the
/// digest-only path streams the merge into the digest without ever holding
/// a trace.
fn write_digest_value(path: &str, digest: u64) -> Result<(), String> {
    let line = format!("{digest:016x}\n");
    std::fs::write(path, &line).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("trace digest {} written to {path}", line.trim());
    Ok(())
}

/// Builds the [`RunOptions`] of a run from the CLI flags (`--threads`,
/// `--shards`, `--shard-workers`, `--spill-dir`).
fn run_options(args: &Args, registry: &MetricsRegistry) -> RunOptions {
    let mut options = RunOptions::new()
        .metrics(registry)
        .threads(args.threads)
        .shards(args.shards)
        .shard_workers(args.shard_workers);
    if let Some(dir) = &args.spill_dir {
        options = options.spill_dir(dir);
    }
    options
}

/// Parses and runs the `serve` subcommand: a long-lived `dcf-serve`
/// instance that drains gracefully on SIGINT.
fn serve_main(mut it: impl Iterator<Item = String>) -> ExitCode {
    let mut addr = "127.0.0.1:8620".to_string();
    let mut workers = 4usize;
    let mut cache_entries = 8usize;
    let mut catalog: Option<String> = None;
    let mut max_conns: Option<usize> = None;
    let mut idle_timeout_ms: Option<u64> = None;
    let mut loops = 1usize;
    while let Some(flag) = it.next() {
        let parsed = match flag.as_str() {
            "--addr" => it.next().map(|v| {
                addr = v;
                Ok(())
            }),
            "--catalog" => it.next().map(|v| {
                catalog = Some(v);
                Ok(())
            }),
            "--workers" => it
                .next()
                .map(|v| v.parse().map(|n| workers = n).map_err(|_| flag.clone())),
            "--cache-entries" => it.next().map(|v| {
                v.parse()
                    .map(|n| cache_entries = n)
                    .map_err(|_| flag.clone())
            }),
            "--max-conns" => it.next().map(|v| {
                v.parse()
                    .map(|n| max_conns = Some(n))
                    .map_err(|_| flag.clone())
            }),
            "--idle-timeout-ms" => it.next().map(|v| {
                v.parse()
                    .map(|n| idle_timeout_ms = Some(n))
                    .map_err(|_| flag.clone())
            }),
            "--loops" => it
                .next()
                .map(|v| v.parse().map(|n| loops = n).map_err(|_| flag.clone())),
            "--help" | "-h" => {
                eprintln!(
                    "usage: reproduce serve [--addr HOST:PORT] [--workers N] [--loops N (0 = one per core)] [--cache-entries N] [--catalog DIR] [--max-conns N] [--idle-timeout-ms N]"
                );
                return ExitCode::FAILURE;
            }
            other => {
                eprintln!("unknown serve flag {other}");
                return ExitCode::FAILURE;
            }
        };
        match parsed {
            None => {
                eprintln!("{flag} needs a value");
                return ExitCode::FAILURE;
            }
            Some(Err(which)) => {
                eprintln!("{which} needs an unsigned integer value");
                return ExitCode::FAILURE;
            }
            Some(Ok(())) => {}
        }
    }
    // Block SIGINT/SIGHUP *before* the server spawns its threads so every
    // thread inherits the mask and the signals can only be consumed by
    // the wait loop below.
    let signals_ready = dcf_serve::signal::block_signals();
    if !signals_ready {
        eprintln!("note: signal handling is unsupported on this platform; stop the service by killing the process");
    }

    let metrics = MetricsRegistry::new();
    let mut config = dcf_serve::ServeConfig::default()
        .addr(&addr)
        .workers(workers)
        .cache_entries(cache_entries)
        .metrics(&metrics);
    if let Some(dir) = &catalog {
        config = config.catalog(dir);
        eprintln!("serving snapshot catalog {dir}");
    }
    if let Some(n) = max_conns {
        config = config.max_connections(n);
    }
    if let Some(ms) = idle_timeout_ms {
        config = config.idle_timeout(std::time::Duration::from_millis(ms));
    }
    config = config.loops(loops);
    let effective_loops = match loops {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    let server = match dcf_serve::Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start service on {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "dcf-serve listening on http://{} ({} event loop{}, {} workers, {}-entry cache, {} readiness backend)",
        server.local_addr(),
        effective_loops,
        if effective_loops == 1 { "" } else { "s" },
        workers.max(1),
        cache_entries.max(1),
        server.poller_backend(),
    );
    if signals_ready {
        eprintln!("press Ctrl-C to drain in-flight requests and exit; SIGHUP rescans the catalog");
        loop {
            match dcf_serve::signal::wait_signal(200) {
                None => {}
                Some(dcf_serve::signal::Signal::Hangup) => match server.reload_catalog() {
                    Ok(summary) => eprintln!(
                        "catalog reloaded: {} added, {} removed, {} total",
                        summary.added, summary.removed, summary.total
                    ),
                    Err(e) => eprintln!("catalog reload failed: {e}"),
                },
                Some(dcf_serve::signal::Signal::Interrupt) => break,
            }
        }
        eprintln!("SIGINT received; draining…");
    } else {
        // No signal support: serve until the process is killed.
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    let report = server.shutdown();
    println!("{}", report.to_json());
    eprintln!(
        "drained; served {} requests ({} cache hits, {} rejected)",
        report.counter("serve.requests").unwrap_or(0),
        report.counter("serve.cache.hits").unwrap_or(0),
        report.counter("serve.rejected").unwrap_or(0),
    );
    ExitCode::SUCCESS
}

/// Parses and runs the `replay` subcommand: replays a trace (simulated,
/// or loaded from a `.dcfsnap` snapshot) as a virtual-time ticket feed
/// on stdout, with the three online detectors attached and a final
/// detection-summary line scored against the offline study.
fn replay_main(mut it: impl Iterator<Item = String>) -> ExitCode {
    let mut scenario = "medium".to_string();
    let mut seed = 0u64;
    let mut threads = 0usize;
    let mut speed = 0.0f64;
    let mut snapshot_in: Option<String> = None;
    let mut digest_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut quiet = false;
    while let Some(flag) = it.next() {
        let parsed = match flag.as_str() {
            "--scenario" => it.next().map(|v| {
                scenario = v;
                Ok(())
            }),
            "--snapshot-in" => it.next().map(|v| {
                snapshot_in = Some(v);
                Ok(())
            }),
            "--digest" => it.next().map(|v| {
                digest_path = Some(v);
                Ok(())
            }),
            "--metrics" => it.next().map(|v| {
                metrics_path = Some(v);
                Ok(())
            }),
            "--seed" => it
                .next()
                .map(|v| v.parse().map(|n| seed = n).map_err(|_| flag.clone())),
            "--threads" => it
                .next()
                .map(|v| v.parse().map(|n| threads = n).map_err(|_| flag.clone())),
            "--speed" => it.next().map(|v| match v.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => {
                    speed = s;
                    Ok(())
                }
                _ => Err(flag.clone()),
            }),
            "--quiet" => {
                quiet = true;
                Some(Ok(()))
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: reproduce replay [--scenario paper|medium|small] [--seed N] [--threads N] [--snapshot-in PATH] [--speed DAYS_PER_SEC] [--quiet] [--digest PATH] [--metrics PATH]"
                );
                return ExitCode::FAILURE;
            }
            other => {
                eprintln!("unknown replay flag {other}");
                return ExitCode::FAILURE;
            }
        };
        match parsed {
            None => {
                eprintln!("{flag} needs a value");
                return ExitCode::FAILURE;
            }
            Some(Err(which)) => {
                eprintln!("{which} needs a valid value");
                return ExitCode::FAILURE;
            }
            Some(Ok(())) => {}
        }
    }

    let registry = if metrics_path.is_some() {
        MetricsRegistry::new()
    } else {
        MetricsRegistry::disabled()
    };
    let trace = if let Some(path) = &snapshot_in {
        scenario = "snapshot".into();
        let span = registry.phase("trace.snapshot_load");
        let trace = match io::snapshot::read_snapshot(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot load snapshot {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        drop(span);
        eprintln!("loaded {} FOTs from snapshot {path}", trace.len());
        trace
    } else {
        let sc = match scenario.as_str() {
            "paper" => Scenario::paper(),
            "medium" => Scenario::medium(),
            "small" => Scenario::small(),
            other => {
                eprintln!("unknown scenario {other} (expected paper|medium|small)");
                return ExitCode::FAILURE;
            }
        };
        match sc
            .seed(seed)
            .simulate(&RunOptions::new().metrics(&registry).threads(threads))
        {
            Ok(t) => t,
            Err(e) => {
                eprintln!("simulation failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let build_t0 = std::time::Instant::now();
    let outcome = {
        let _span = registry.phase("replay.build");
        dcf_core::replay::replay(&trace, &dcf_core::replay::ReplayConfig::default())
    };
    eprintln!(
        "replay feed built in {:?}: {} tickets, {} detection events; streaming at speed {speed} (simulated days per wall second; 0 = no pacing)…",
        build_t0.elapsed(),
        outcome.summary.tickets,
        outcome.summary.detections,
    );

    use std::io::Write as _;
    let stream_t0 = std::time::Instant::now();
    {
        let _span = registry.phase("replay.stream");
        let stdout = std::io::stdout();
        let mut out = std::io::BufWriter::new(stdout.lock());
        let streamed = outcome.for_each_line(&trace, |event, line| {
            if speed > 0.0 {
                let due = std::time::Duration::from_secs_f64(
                    event.offset_secs as f64 / (speed * dcf_trace::SECS_PER_DAY as f64),
                );
                let elapsed = stream_t0.elapsed();
                if due > elapsed {
                    let _ = out.flush();
                    std::thread::sleep(due - elapsed);
                }
            }
            if quiet {
                Ok(())
            } else {
                writeln!(out, "{line}")
            }
        });
        if streamed.is_err() {
            eprintln!("stdout closed mid-stream");
            return ExitCode::FAILURE;
        }
        if writeln!(out, "{}", outcome.summary_line).is_err() || out.flush().is_err() {
            eprintln!("stdout closed mid-stream");
            return ExitCode::FAILURE;
        }
    }
    let stream_elapsed = stream_t0.elapsed();

    let s = &outcome.summary;
    if let Some(path) = &digest_path {
        if let Err(msg) = write_digest_value(path, s.event_digest) {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "\nreplayed {} tickets + {} detections in {:?} (event digest {:016x})",
        s.tickets, s.detections, stream_elapsed, s.event_digest
    );
    eprintln!(
        "  sigma-outlier : {} flagged / {} offline, P {:.4} R {:.4} F1 {:.4}",
        s.sigma.detections,
        s.sigma.truth,
        s.sigma.precision,
        s.sigma.recall,
        s.sigma.f1()
    );
    eprintln!(
        "  batch-burst   : {} flagged / {} offline, P {:.4} R {:.4} F1 {:.4}",
        s.burst.detections,
        s.burst.truth,
        s.burst.precision,
        s.burst.recall,
        s.burst.f1()
    );
    eprintln!(
        "  predictor     : {} flagged / {} offline, P {:.4} R {:.4} F1 {:.4} (offline eval: P {:.4} R {:.4} F1 {:.4})",
        s.predictor.detections,
        s.predictor.truth,
        s.predictor.precision,
        s.predictor.recall,
        s.predictor.f1(),
        s.predictor_eval.precision,
        s.predictor_eval.recall,
        s.predictor_eval.f1()
    );

    if let Some(path) = &metrics_path {
        let report = registry.report(&format!(
            "reproduce replay --scenario {scenario} --seed {seed}"
        ));
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("metrics written to {path}");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mode = {
        let mut raw = std::env::args().skip(1);
        match raw.next().as_deref() {
            Some("serve") => return serve_main(raw),
            Some("replay") => return replay_main(raw),
            Some("snapshot") => Mode::Snapshot,
            Some("export") => Mode::Export,
            _ => Mode::Report,
        }
    };
    let mut args = match parse_args(mode) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.snapshot_in.is_some() {
        args.scenario = "snapshot".into();
    }

    let registry = if args.metrics.is_some() {
        MetricsRegistry::new()
    } else {
        MetricsRegistry::disabled()
    };

    let trace = if let Some(path) = &args.snapshot_in {
        let t0 = std::time::Instant::now();
        let span = registry.phase("trace.snapshot_load");
        let trace = match io::snapshot::read_snapshot(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot load snapshot {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        drop(span);
        eprintln!(
            "loaded {} FOTs from snapshot {path} in {:?}; running analyses…\n",
            trace.len(),
            t0.elapsed()
        );
        trace
    } else {
        let mut scenario = match args.scenario.as_str() {
            "paper" => Scenario::paper(),
            "medium" => Scenario::medium(),
            "small" => Scenario::small(),
            other => {
                eprintln!("unknown scenario {other} (expected paper|medium|small)");
                return ExitCode::FAILURE;
            }
        };
        if let Some(n) = args.servers {
            scenario.config.fleet.servers = n;
        }
        eprintln!(
            "running scenario '{}' (seed {}) — {} servers, {}-day window…",
            scenario.name,
            args.seed,
            scenario.config.fleet.servers,
            scenario.config.fleet.window_days
        );
        let config = scenario.seed(args.seed).config;
        let t0 = std::time::Instant::now();
        let options = run_options(&args, &registry);
        // `--experiment none` needs nothing but the digest, so the merged
        // tickets stream into it without materializing a trace.
        if args.experiment.as_deref() == Some("none") {
            let run = match dcf_sim::simulate_sharded(&config, &options) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("simulation failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!(
                "streamed {} tickets from {} shard(s) in {:?} ({} spill bytes, digest {:016x})",
                run.tickets,
                run.shards,
                t0.elapsed(),
                run.bytes_spilled,
                run.digest,
            );
            if let Some(path) = &args.digest {
                if let Err(msg) = write_digest_value(path, run.digest) {
                    eprintln!("{msg}");
                    return ExitCode::FAILURE;
                }
            }
            registry.set_gauge("trace.fots", run.tickets as f64);
            return finish(&args, &registry);
        }
        let trace = match dcf_sim::simulate(&config, &options) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("simulation failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let next = if args.mode == Mode::Export {
            "exporting"
        } else {
            "running analyses…\n"
        };
        eprintln!(
            "generated {} FOTs in {:?}; {next}",
            trace.len(),
            t0.elapsed()
        );
        trace
    };
    if args.mode == Mode::Export {
        return match export(&args, trace) {
            Ok(()) => finish(&args, &registry),
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::FAILURE
            }
        };
    }
    if let Err(msg) = write_digest(&args, &trace) {
        eprintln!("{msg}");
        return ExitCode::FAILURE;
    }
    if let Some(path) = &args.out {
        let span = registry.phase("trace.snapshot_write");
        if let Err(e) = io::snapshot::write_snapshot(&trace, path) {
            eprintln!("cannot write snapshot {path}: {e}");
            return ExitCode::FAILURE;
        }
        drop(span);
        let size = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        eprintln!(
            "snapshot written to {path} ({size} bytes, {} FOTs, digest {:016x})",
            trace.len(),
            io::fots_digest(trace.fots())
        );
        return finish(&args, &registry);
    }
    registry.set_gauge("trace.fots", trace.len() as f64);
    let experiment = args.experiment.as_deref().unwrap_or("all");
    if experiment == "none" {
        // Engine-only run: skip the study entirely (digest runs).
        return finish(&args, &registry);
    }
    let study = FailureStudy::new(&trace);
    let analysis_span = registry.phase("analysis");
    let report = (args.markdown || args.score).then(|| {
        // 0 = auto: one worker per core, capped by the section count inside
        // `FailureStudy::analyze`.
        let threads = if args.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            args.threads
        };
        study.analyze(&StudyOptions::with_threads(threads).metrics(&registry))
    });

    let render_span = registry.phase("report.render");
    let text = if let Some(report) = &report {
        if args.score {
            score_text(report, &trace)
        } else {
            markdown_summary(report)
        }
    } else {
        match experiment {
            "all" => experiments::render_all(&study),
            "table1" => experiments::render_table1(&study),
            "table2" => experiments::render_table2(&study),
            "table3" => experiments::render_table3(),
            "table4" | "fig8" => experiments::render_table4_fig8(&study),
            "table5" => experiments::render_table5(&study),
            "table6" => experiments::render_table6(&study),
            "table7" => experiments::render_table7(&study),
            "table8" => experiments::render_table8(&study),
            "fig2" => experiments::render_fig2(&study),
            "fig3" => experiments::render_fig3(&study),
            "fig4" => experiments::render_fig4(&study),
            "fig5" => experiments::render_fig5(&study),
            "fig6" => experiments::render_fig6(&study),
            "fig7" => experiments::render_fig7(&study),
            "fig9" => experiments::render_fig9(&study),
            "fig10" => experiments::render_fig10(&study),
            "fig11" => experiments::render_fig11(&study),
            "prediction" => experiments::render_prediction(&study),
            "backlog" => experiments::render_backlog(&study),
            other => {
                eprintln!("unknown experiment {other}");
                return ExitCode::FAILURE;
            }
        }
    };
    drop(render_span);
    println!("{text}");
    drop(analysis_span);
    finish(&args, &registry)
}

/// The `export` run: restricts `trace` to `--from-day`/`--to-day` and
/// `--dc`, writes the digest of what is left (under `--digest`), and
/// writes its ticket CSV to `--out` or stdout.
fn export(args: &Args, mut trace: Trace) -> Result<(), String> {
    use std::io::Write as _;
    if args.from_day.is_some() || args.to_day.is_some() {
        let from = SimTime::from_days(args.from_day.unwrap_or(0));
        let to = SimTime::from_days(args.to_day.unwrap_or(u64::MAX / dcf_trace::SECS_PER_DAY));
        let info = trace.info();
        let (first, last) = (
            info.start.day_index(),
            info.start.day_index() + info.days.max(1) - 1,
        );
        trace = trace.restrict(from, to).map_err(|e| e.to_string())?;
        if trace.is_empty() {
            eprintln!(
                "warning: --from-day/--to-day kept no tickets; days count from the \
                 simulation origin, and this run's observation window is days {first} to {last}"
            );
        }
    }
    if let Some(dc) = args.dc {
        trace = trace
            .restrict_dc(DataCenterId::new(dc))
            .map_err(|e| e.to_string())?;
    }
    write_digest(args, &trace)?;
    let sink: Box<dyn std::io::Write> = match &args.out {
        Some(path) => {
            Box::new(std::fs::File::create(path).map_err(|e| format!("cannot write {path}: {e}"))?)
        }
        None => Box::new(std::io::stdout().lock()),
    };
    let mut sink = std::io::BufWriter::new(sink);
    io::write_fots_csv(trace.fots(), &mut sink).map_err(|e| e.to_string())?;
    sink.flush().map_err(|e| e.to_string())?;
    if let Some(path) = &args.out {
        eprintln!("wrote {} tickets to {path}", trace.len());
    }
    Ok(())
}

/// The `--score` report: every headline metric of the run's `report`
/// (and Table V's batch frequencies of `trace`) against the paper, and
/// the share that agrees.
fn score_text(report: &StudyReport, trace: &Trace) -> String {
    use dcf_core::comparison;
    let mut rows = comparison::compare_to_paper(report);
    rows.extend(comparison::compare_batch_frequencies(trace));
    let mut t = TextTable::new(vec!["Experiment", "Metric", "Paper", "Measured", "Verdict"]);
    for r in &rows {
        t.row(vec![
            r.experiment.into(),
            r.metric.into(),
            format!("{:.4}", r.paper),
            format!("{:.4}", r.measured),
            format!("{:?}", r.agreement),
        ]);
    }
    format!(
        "{}\nreproduction agreement: {:.0} % of {} metrics match or are close",
        t.render(),
        100.0 * comparison::agreement_score(&rows),
        rows.len()
    )
}

/// Flushes the optional metrics file; a failure to write it is fatal so
/// scripted runs notice.
fn finish(args: &Args, registry: &MetricsRegistry) -> ExitCode {
    // Snapshot the high-water mark once everything has run; a multi-shard
    // engine run also records it, but one-shard runs only get it here.
    if let Some(rss) = dcf_obs::peak_rss_bytes() {
        registry.set_gauge("mem.peak_rss_bytes", rss as f64);
    }
    match write_metrics(args, registry) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// The EXPERIMENTS.md-style paper-vs-measured summary.
fn markdown_summary(report: &StudyReport) -> String {
    let mut out = String::new();
    out.push_str("## Headline paper-vs-measured summary\n\n");
    let mut t = TextTable::new(vec!["Experiment", "Metric", "Paper", "Measured"]);
    t.row(vec![
        "overall".into(),
        "total FOTs".into(),
        format!("~{}", paper::TOTAL_FOTS),
        report.total_fots.to_string(),
    ]);
    for ((name, paper_share), measured) in paper::CATEGORY_SHARES.iter().zip([
        report.fixing_share,
        report.error_share,
        report.false_alarm_share,
    ]) {
        t.row(vec![
            "Table I".into(),
            format!("{name} share"),
            pct(*paper_share),
            pct(measured),
        ]);
    }
    for (class, share) in &report.component_shares {
        t.row(vec![
            "Table II".into(),
            format!("{} share", class.name()),
            pct(paper::component_share(*class)),
            pct(*share),
        ]);
    }
    if let Some(m) = report.mtbf_minutes {
        t.row(vec![
            "Fig. 5".into(),
            "fleet MTBF (min)".into(),
            format!("{:.1}", paper::MTBF_MINUTES),
            format!("{m:.1}"),
        ]);
    }
    t.row(vec![
        "Fig. 5".into(),
        "all 4 TBF families rejected @0.05".into(),
        "yes".into(),
        report
            .tbf_all_families_rejected
            .map(|b| if b { "yes" } else { "no" })
            .unwrap_or("n/a")
            .into(),
    ]);
    t.row(vec![
        "Fig. 3".into(),
        "H1 rejected @0.01".into(),
        "yes".into(),
        report
            .day_of_week_rejected_001
            .map(|b| if b { "yes" } else { "no" })
            .unwrap_or("n/a")
            .into(),
    ]);
    t.row(vec![
        "Fig. 4".into(),
        "H2 rejected @0.01".into(),
        "yes".into(),
        report
            .hour_of_day_rejected_001
            .map(|b| if b { "yes" } else { "no" })
            .unwrap_or("n/a")
            .into(),
    ]);
    t.row(vec![
        "Fig. 7".into(),
        "never-repeat share of fixed comps".into(),
        format!("> {}", pct(paper::repeats::NEVER_REPEAT_SHARE)),
        pct(report.never_repeat_share),
    ]);
    t.row(vec![
        "Fig. 7".into(),
        "repeat share of ever-failed servers".into(),
        pct(paper::repeats::REPEAT_SERVER_SHARE),
        pct(report.repeat_server_share),
    ]);
    t.row(vec![
        "Fig. 7".into(),
        "max FOTs on one server".into(),
        format!("> {}", paper::repeats::MAX_FOTS_ONE_SERVER),
        report.max_fots_one_server.to_string(),
    ]);
    t.row(vec![
        "Table IV".into(),
        "DCs p<0.01 / 0.01..0.05 / >=0.05".into(),
        format!(
            "{}/{}/{}",
            paper::table_iv::REJECTED_001,
            paper::table_iv::BORDERLINE,
            paper::table_iv::ACCEPTED
        ),
        format!(
            "{}/{}/{} (+{} skipped)",
            report.table_iv.rejected_001,
            report.table_iv.borderline,
            report.table_iv.accepted,
            report.table_iv.skipped
        ),
    ]);
    t.row(vec![
        "Table VI".into(),
        "servers with correlated pairs".into(),
        pct(paper::correlation::PAIR_SERVER_SHARE),
        pct(report.pair_server_share),
    ]);
    t.row(vec![
        "Table VI".into(),
        "incidents involving misc".into(),
        pct(paper::correlation::MISC_INVOLVED_SHARE),
        pct(report.misc_involved_share),
    ]);
    if let Some(rt) = &report.rt_fixing {
        t.row(vec![
            "Fig. 9".into(),
            "D_fixing MTTR / median (days)".into(),
            format!(
                "{:.1} / {:.1}",
                paper::response::FIXING_MEAN_DAYS,
                paper::response::FIXING_MEDIAN_DAYS
            ),
            format!("{:.1} / {:.1}", rt.mean_days, rt.median_days),
        ]);
        t.row(vec![
            "Fig. 9".into(),
            "RT > 140 d / > 200 d".into(),
            format!(
                "{} / {}",
                pct(paper::response::OVER_140_DAYS),
                pct(paper::response::OVER_200_DAYS)
            ),
            format!("{} / {}", pct(rt.over_140d), pct(rt.over_200d)),
        ]);
    }
    if let Some(rt) = &report.rt_false_alarm {
        t.row(vec![
            "Fig. 9".into(),
            "D_falsealarm MTTR / median (days)".into(),
            format!(
                "{:.1} / {:.1}",
                paper::response::FALSE_ALARM_MEAN_DAYS,
                paper::response::FALSE_ALARM_MEDIAN_DAYS
            ),
            format!("{:.1} / {:.1}", rt.mean_days, rt.median_days),
        ]);
    }
    out.push_str(&t.render_markdown());
    out
}
