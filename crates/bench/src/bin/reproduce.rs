//! Regenerates every table and figure of the paper from a simulated trace.
//!
//! ```text
//! reproduce [--experiment ID|all|none | --markdown | --score] [trace flags]
//! reproduce snapshot (--out PATH | --in PATH) [trace flags]
//! reproduce export [--out PATH] [--from-day D] [--to-day D] [--dc IDX]
//!                  [trace flags]
//! reproduce replay [--in PATH] [--speed DAYS_PER_SEC] [--quiet] [trace flags]
//! reproduce serve [--addr HOST:PORT] [--workers N] [--loops N]
//!                 [--cache-entries N] [--catalog DIR] [--max-conns N]
//!                 [--idle-timeout-ms N]
//!
//! trace flags: [--scenario paper|medium|small] [--seed N] [--threads N]
//!              [--servers N] [--shards K] [--shard-workers W]
//!              [--spill-dir PATH] [--digest PATH] [--metrics PATH]
//! ```
//!
//! Every run but `serve` takes the trace flags and gets its trace one
//! way: `--in PATH` loads a `.dcfsnap` snapshot (`snapshot` and `replay`
//! only; timed under `trace.snapshot_load`), and otherwise the scenario is
//! simulated. The scenario defaults to `paper` at seed 1, except for
//! `replay`, which defaults to `medium` at seed 0.
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
//! — each emitting detection events inline, and a final summary line
//! scoring the σ and burst detectors against the offline study and
//! reporting the predictor's evaluation (EXPERIMENTS.md). `--speed N`
//! paces playback at N simulated days per wall second (`0`, the default,
//! streams with no sleeps); the event sequence and its digest are
//! byte-identical at every speed. `--quiet` suppresses the event lines
//! (summary only), `--digest PATH` writes the 16-hex event-stream digest,
//! and `--metrics PATH` writes the run's `RunReport` (with the
//! `replay.build` / `replay.stream` spans). The same feed is served over
//! chunked HTTP by `reproduce serve` at `GET /v1/replay/{scenario}?speed=N`.
//!
//! `reproduce snapshot --out PATH` simulates once and persists the trace as
//! a versioned binary snapshot (`dcf-trace::io::snapshot`), timed under
//! `trace.snapshot_write`. `--in PATH` loads such a snapshot instead of
//! simulating and runs the regular report flags against it.
//!
//! `reproduce export` writes the ticket table as CSV (reloadable with
//! `dcf_trace::io::read_fots_csv`, losslessly) to `--out PATH`, or to
//! stdout without it. `--from-day D` / `--to-day D` keep the tickets whose
//! error time falls in `[D_from, D_to)` and `--dc IDX` those of one data
//! center; `--digest` is the digest of the exported rows.
//!
//! `--experiment ID` renders one paper artifact; `reproduce --help` lists
//! the IDs (`dcf_report::experiments::EXPERIMENTS`). `all`, the default,
//! renders every one (after analyzing the study under `--threads`, so the
//! renderers run on as many workers), and `none` skips the study
//! entirely — engine-only digest runs.
//! `--markdown` prints the headline paper-vs-measured table and `--score`
//! a verdict per headline metric plus the share that agrees. Both format
//! the one `StudyReport` the run analyzes, under its `--threads` and
//! `--metrics`. `--experiment`, `--markdown` and `--score` each pick the
//! run's one output, so at most one of them may be given, and `snapshot
//! --out`, `export` and `replay`, which print no report, take none of them.
//! `--metrics PATH` enables the `dcf-obs` instrumentation layer: the run's
//! phase timings and event counters are written to `PATH` as a JSON
//! `RunReport` and summarized on stderr. Counter values are deterministic
//! in the seed.
//! `--threads N` sets the engine worker-thread count, the study section
//! pool size and the full report's render workers (`0`, the default,
//! means auto-detect from the machine). Traces and reports are byte-identical across thread counts.
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
//! thread counts and shard counts (for `replay`, of its event lines).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use dcf_core::{paper, FailureStudy, StudyOptions, StudyReport};
use dcf_obs::MetricsRegistry;
use dcf_report::{experiments, pct, TextTable};
use dcf_sim::{RunOptions, Scenario, SimConfig};
use dcf_trace::{io, DataCenterId, SimTime, Trace};

/// Which run `reproduce` makes with the trace flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The default: one report (an experiment, `--markdown` or `--score`).
    Report,
    /// `reproduce snapshot`: write (`--out`) or analyze (`--in`) a snapshot.
    Snapshot,
    /// `reproduce export`: the ticket table as CSV.
    Export,
    /// `reproduce replay`: the trace as a virtual-time feed with online
    /// detectors.
    Replay,
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
    /// The `--in` snapshot that replaces the simulation.
    snapshot_in: Option<String>,
    from_day: Option<u64>,
    to_day: Option<u64>,
    dc: Option<u16>,
    /// `replay --speed`: simulated days per wall second (`0` = no pacing).
    speed: f64,
    /// `replay --quiet`: print the summary line only.
    quiet: bool,
}

fn parse_args(mode: Mode, mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let replay = mode == Mode::Replay;
    let mut args = Args {
        mode,
        scenario: if replay { "medium" } else { "paper" }.into(),
        seed: u64::from(!replay),
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
        speed: 0.0,
        quiet: false,
    };
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        match flag {
            "--scenario" => args.scenario = parse_value(it.next(), flag)?,
            "--seed" => args.seed = parse_value(it.next(), flag)?,
            "--experiment" => args.experiment = Some(parse_value(it.next(), flag)?),
            "--markdown" => args.markdown = true,
            "--score" => args.score = true,
            "--metrics" => args.metrics = Some(parse_value(it.next(), flag)?),
            "--threads" => args.threads = parse_value(it.next(), flag)?,
            "--servers" => args.servers = Some(parse_value(it.next(), flag)?),
            "--shards" => args.shards = parse_value(it.next(), flag)?,
            "--shard-workers" => args.shard_workers = parse_value(it.next(), flag)?,
            "--spill-dir" => args.spill_dir = Some(parse_value(it.next(), flag)?),
            "--digest" => args.digest = Some(parse_value(it.next(), flag)?),
            "--out" if matches!(mode, Mode::Snapshot | Mode::Export) => {
                args.out = Some(parse_value(it.next(), flag)?);
            }
            "--in" if matches!(mode, Mode::Snapshot | Mode::Replay) => {
                args.snapshot_in = Some(parse_value(it.next(), flag)?);
            }
            "--from-day" if mode == Mode::Export => {
                args.from_day = Some(parse_value(it.next(), flag)?);
            }
            "--to-day" if mode == Mode::Export => args.to_day = Some(parse_value(it.next(), flag)?),
            "--dc" if mode == Mode::Export => args.dc = Some(parse_value(it.next(), flag)?),
            "--speed" if replay => args.speed = parse_value(it.next(), flag)?,
            "--quiet" if replay => args.quiet = true,
            "--help" | "-h" => return Err(usage(mode)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.servers == Some(0) || args.shards == 0 {
        return Err("--servers and --shards must be at least 1".into());
    }
    if !(args.speed.is_finite() && args.speed >= 0.0) {
        return Err("--speed must be a finite, non-negative number".into());
    }
    if let Some(id) = args.experiment.as_deref() {
        if !matches!(id, "all" | "none") && experiments::by_id(id).is_none() {
            return Err(format!("unknown experiment {id}\n{}", usage(mode)));
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
    let reportless = match mode {
        Mode::Export => Some("export"),
        Mode::Replay => Some("replay"),
        _ => args.out.as_ref().map(|_| "snapshot --out"),
    };
    if let Some(run) = reportless.filter(|_| outputs > 0) {
        return Err(format!(
            "reproduce {run} prints no report; drop --experiment, --markdown and --score"
        ));
    }
    if args.snapshot_in.is_some() {
        args.scenario = "snapshot".into();
    }
    Ok(args)
}

/// The usage line of `mode`, listing the experiment IDs and scenarios.
fn usage(mode: Mode) -> String {
    let own = match mode {
        Mode::Report => {
            let ids: Vec<&str> = experiments::EXPERIMENTS
                .iter()
                .flat_map(|e| e.ids.iter().copied())
                .collect();
            format!(
                "[--experiment {}|all|none | --markdown | --score]",
                ids.join("|")
            )
        }
        Mode::Snapshot => "snapshot (--out PATH | --in PATH)".into(),
        Mode::Export => "export [--out PATH] [--from-day D] [--to-day D] [--dc IDX]".into(),
        Mode::Replay => "replay [--in PATH] [--speed DAYS_PER_SEC] [--quiet]".into(),
    };
    let scenarios: Vec<&str> = Scenario::names().collect();
    format!(
        "usage: reproduce {own} [--scenario {}] [--seed N] [--threads N] [--servers N] \
         [--shards K] [--shard-workers W] [--spill-dir PATH] [--digest PATH] [--metrics PATH]",
        scenarios.join("|")
    )
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

/// Writes an already-computed digest to `path` — the digest-only path
/// streams the merge into the digest without ever holding a trace, and
/// the replay digests its event lines.
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

/// The config `--scenario`, `--servers` and `--seed` name.
fn sim_config(args: &Args) -> Result<SimConfig, String> {
    let mut scenario = Scenario::by_name(&args.scenario).ok_or_else(|| {
        let names: Vec<&str> = Scenario::names().collect();
        format!(
            "unknown scenario {} (expected {})",
            args.scenario,
            names.join("|")
        )
    })?;
    if let Some(n) = args.servers {
        scenario.config.fleet.servers = n;
    }
    eprintln!(
        "running scenario '{}' (seed {}) — {} servers, {}-day window…",
        scenario.name, args.seed, scenario.config.fleet.servers, scenario.config.fleet.window_days
    );
    Ok(scenario.seed(args.seed).config)
}

/// The run's one trace source: the `--in` snapshot, or the scenario
/// simulated under the trace flags.
fn load_trace(args: &Args, registry: &MetricsRegistry) -> Result<Trace, String> {
    let t0 = Instant::now();
    let trace = if let Some(path) = &args.snapshot_in {
        let _span = registry.phase("trace.snapshot_load");
        io::snapshot::read_snapshot(path)
            .map_err(|e| format!("cannot load snapshot {path}: {e}"))?
    } else {
        dcf_sim::simulate(&sim_config(args)?, &run_options(args, registry))
            .map_err(|e| format!("simulation failed: {e}"))?
    };
    eprintln!("{} FOTs ready in {:?}", trace.len(), t0.elapsed());
    registry.set_gauge("trace.fots", trace.len() as f64);
    Ok(trace)
}

/// Parses and runs the `serve` subcommand: a long-lived `dcf-serve`
/// instance that drains gracefully on SIGINT.
fn serve(mut it: impl Iterator<Item = String>) -> Result<(), String> {
    let metrics = MetricsRegistry::new();
    let mut config = dcf_serve::ServeConfig::default().metrics(&metrics);
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        config = match flag {
            "--addr" => config.addr(&parse_value::<String>(it.next(), flag)?),
            "--workers" => config.workers(parse_value(it.next(), flag)?),
            "--loops" => config.loops(parse_value(it.next(), flag)?),
            "--cache-entries" => config.cache_entries(parse_value(it.next(), flag)?),
            "--catalog" => config.catalog(&parse_value::<String>(it.next(), flag)?),
            "--max-conns" => config.max_connections(parse_value(it.next(), flag)?),
            "--idle-timeout-ms" => {
                config.idle_timeout(Duration::from_millis(parse_value(it.next(), flag)?))
            }
            "--help" | "-h" => {
                return Err("usage: reproduce serve [--addr HOST:PORT] [--workers N] [--loops N (0 = one per core)] [--cache-entries N] [--catalog DIR] [--max-conns N] [--idle-timeout-ms N]".into());
            }
            other => return Err(format!("unknown serve flag {other}")),
        };
    }
    // Block SIGINT/SIGHUP *before* the server spawns its threads so every
    // thread inherits the mask and the signals can only be consumed by
    // the wait loop below.
    let signals_ready = dcf_serve::signal::block_signals();
    if !signals_ready {
        eprintln!("note: signal handling is unsupported on this platform; stop the service by killing the process");
    }
    if let Some(dir) = &config.catalog {
        eprintln!("serving snapshot catalog {dir}");
    }
    let loops = match config.loops {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    let (workers, cache_entries) = (config.workers, config.cache_entries);
    let addr = config.addr.clone();
    let server = dcf_serve::Server::start(config)
        .map_err(|e| format!("cannot start service on {addr}: {e}"))?;
    eprintln!(
        "dcf-serve listening on http://{} ({loops} event loop{}, {workers} workers, {cache_entries}-entry cache, {} readiness backend)",
        server.local_addr(),
        if loops == 1 { "" } else { "s" },
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
            std::thread::sleep(Duration::from_secs(3600));
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
    Ok(())
}

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1).peekable();
    let mode = match raw.peek().map(String::as_str) {
        Some("serve") => None,
        Some("snapshot") => Some(Mode::Snapshot),
        Some("export") => Some(Mode::Export),
        Some("replay") => Some(Mode::Replay),
        _ => Some(Mode::Report),
    };
    if mode != Some(Mode::Report) {
        raw.next();
    }
    let result = match mode {
        None => serve(raw),
        Some(mode) => parse_args(mode, raw).and_then(|args| run(&args)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one parsed command line, then writes its metrics.
fn run(args: &Args) -> Result<(), String> {
    let registry = if args.metrics.is_some() {
        MetricsRegistry::new()
    } else {
        MetricsRegistry::disabled()
    };
    if args.experiment.as_deref() == Some("none") && args.snapshot_in.is_none() {
        stream_digest(args, &registry)?;
    } else {
        let trace = load_trace(args, &registry)?;
        match args.mode {
            Mode::Export => export(args, trace)?,
            Mode::Replay => replay(args, &trace, &registry)?,
            Mode::Report | Mode::Snapshot => {
                write_digest(args, &trace)?;
                match &args.out {
                    Some(path) => write_snapshot(path, &trace, &registry)?,
                    None => report(args, &trace, &registry),
                }
            }
        }
    }
    // Snapshot the high-water mark once everything has run; a multi-shard
    // engine run also records it, but one-shard runs only get it here.
    if let Some(rss) = dcf_obs::peak_rss_bytes() {
        registry.set_gauge("mem.peak_rss_bytes", rss as f64);
    }
    write_metrics(args, &registry)
}

/// The simulated `--experiment none` run: it needs nothing but the
/// digest, so the merged tickets stream into it without materializing a
/// trace.
fn stream_digest(args: &Args, registry: &MetricsRegistry) -> Result<(), String> {
    let config = sim_config(args)?;
    let t0 = Instant::now();
    let run = dcf_sim::simulate_sharded(&config, &run_options(args, registry))
        .map_err(|e| format!("simulation failed: {e}"))?;
    eprintln!(
        "streamed {} tickets from {} shard(s) in {:?} ({} spill bytes, digest {:016x})",
        run.tickets,
        run.shards,
        t0.elapsed(),
        run.bytes_spilled,
        run.digest,
    );
    registry.set_gauge("trace.fots", run.tickets as f64);
    match &args.digest {
        Some(path) => write_digest_value(path, run.digest),
        None => Ok(()),
    }
}

/// The `snapshot --out` run: persists the trace to `path`.
fn write_snapshot(path: &str, trace: &Trace, registry: &MetricsRegistry) -> Result<(), String> {
    {
        let _span = registry.phase("trace.snapshot_write");
        io::snapshot::write_snapshot(trace, path)
            .map_err(|e| format!("cannot write snapshot {path}: {e}"))?;
    }
    let size = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    eprintln!(
        "snapshot written to {path} ({size} bytes, {} FOTs, digest {:016x})",
        trace.len(),
        io::fots_digest(trace.fots())
    );
    Ok(())
}

/// The report run: the `--experiment` (default `all`; `none` prints
/// nothing), or the `--markdown` / `--score` formatting of one analysis.
fn report(args: &Args, trace: &Trace, registry: &MetricsRegistry) {
    let experiment = args.experiment.as_deref().unwrap_or("all");
    if experiment == "none" {
        return; // engine-only run: skip the study entirely
    }
    let study = FailureStudy::new(trace);
    let _analysis = registry.phase("analysis");
    // One analysis under `--threads` feeds the markdown and score
    // summaries; the full report reads its sections and renders on as
    // many workers.
    let report = (args.markdown || args.score || experiment == "all").then(|| {
        // 0 = auto: one worker per core, capped by the section count inside
        // `FailureStudy::analyze`.
        let threads = if args.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            args.threads
        };
        study.analyze(&StudyOptions::with_threads(threads).metrics(registry))
    });
    let text = {
        let _render = registry.phase("report.render");
        match (&report, experiments::by_id(experiment)) {
            (Some(report), _) if args.score => score_text(report, trace),
            (Some(report), _) if args.markdown => markdown_summary(report),
            (_, Some(e)) => (e.render)(&study),
            (_, None) => experiments::render_all(&study),
        }
    };
    println!("{text}");
}

/// The `replay` run: the trace as a virtual-time ticket feed on stdout,
/// detection events inline, then the summary line; `--digest` gets the
/// event-stream digest.
fn replay(args: &Args, trace: &Trace, registry: &MetricsRegistry) -> Result<(), String> {
    use std::io::Write as _;
    let build_t0 = Instant::now();
    let outcome = {
        let _span = registry.phase("replay.build");
        dcf_core::replay::replay(trace, &dcf_core::replay::ReplayConfig::default())
    };
    eprintln!(
        "replay feed built in {:?}: {} tickets, {} detection events; streaming at speed {} (simulated days per wall second; 0 = no pacing)…",
        build_t0.elapsed(),
        outcome.summary.tickets,
        outcome.summary.detections,
        args.speed,
    );
    let stream_t0 = Instant::now();
    {
        let _span = registry.phase("replay.stream");
        let closed = |_: std::io::Error| "stdout closed mid-stream".to_string();
        let mut out = std::io::BufWriter::new(std::io::stdout().lock());
        outcome
            .for_each_line(trace, |event, line| {
                if args.speed > 0.0 {
                    let due = Duration::from_secs_f64(
                        event.offset_secs as f64 / (args.speed * dcf_trace::SECS_PER_DAY as f64),
                    );
                    let elapsed = stream_t0.elapsed();
                    if due > elapsed {
                        let _ = out.flush();
                        std::thread::sleep(due - elapsed);
                    }
                }
                if args.quiet {
                    Ok(())
                } else {
                    out.write_all(line).and_then(|()| out.write_all(b"\n"))
                }
            })
            .map_err(closed)?;
        writeln!(out, "{}", outcome.summary_line)
            .and_then(|()| out.flush())
            .map_err(closed)?;
    }
    let s = &outcome.summary;
    if let Some(path) = &args.digest {
        write_digest_value(path, s.event_digest)?;
    }
    eprintln!(
        "\nreplayed {} tickets + {} detections in {:?} (event digest {:016x})",
        s.tickets,
        s.detections,
        stream_t0.elapsed(),
        s.event_digest
    );
    for (name, score) in [("sigma-outlier", &s.sigma), ("batch-burst  ", &s.burst)] {
        eprintln!(
            "  {name} : {} flagged / {} offline, P {:.4} R {:.4} F1 {:.4}",
            score.detections,
            score.truth,
            score.precision,
            score.recall,
            score.f1()
        );
    }
    let e = &s.predictor_eval;
    eprintln!(
        "  predictor     : {} predicted / {} fatals, P {:.4} R {:.4} F1 {:.4}",
        e.predicted_fatals,
        e.fatals,
        e.precision,
        e.recall,
        e.f1()
    );
    Ok(())
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
