//! Drives the `reproduce` binary: output-mode flag conflicts, the
//! thread-count byte-identity of `--score` and of the sharded digest, the
//! experiment table, the `export` CSV, the `replay` feed from either
//! trace source, and a service that runs out of file descriptors.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce runs")
}

/// A per-process temp path ending in `name`.
fn temp_path(name: &str) -> String {
    let path = std::env::temp_dir().join(format!("dcf-cli-{}-{name}", std::process::id()));
    path.to_str().expect("utf-8 temp path").to_string()
}

#[test]
fn conflicting_output_flags_exit_non_zero() {
    let snapshot = std::env::temp_dir().join(format!("dcf-cli-{}.dcfsnap", std::process::id()));
    let snapshot = snapshot.to_str().expect("utf-8 temp path");
    let conflicts: [&[&str]; 9] = [
        &["--markdown", "--score"],
        &["--experiment", "none", "--markdown"],
        &["--experiment", "table1", "--score"],
        &["snapshot", "--out", snapshot, "--markdown"],
        &["snapshot", "--out", snapshot, "--score"],
        &["snapshot", "--out", snapshot, "--experiment", "none"],
        &["export", "--markdown"],
        &["export", "--score"],
        &["export", "--experiment", "table1"],
    ];
    for flags in conflicts {
        let mut args = flags.to_vec();
        args.extend(["--scenario", "small"]);
        let out = reproduce(&args);
        assert!(!out.status.success(), "{flags:?} was accepted");
        assert!(out.stdout.is_empty(), "{flags:?} printed a report");
    }
    assert!(
        !std::path::Path::new(snapshot).exists(),
        "a rejected snapshot run wrote its file"
    );
}

/// Replay takes the trace flags and `--in`, but no report flag and not
/// the retired `--snapshot-in`; serve takes only its own flags.
#[test]
fn retired_and_foreign_flags_exit_non_zero() {
    let rejected: [&[&str]; 6] = [
        &["replay", "--snapshot-in", "trace.dcfsnap"],
        &["replay", "--score"],
        &["replay", "--experiment", "table1"],
        &["replay", "--speed", "-1"],
        &["serve", "--scenario", "small"],
        &["serve", "--workers", "many"],
    ];
    for flags in rejected {
        let out = reproduce(flags);
        assert!(!out.status.success(), "{flags:?} was accepted");
        assert!(out.stdout.is_empty(), "{flags:?} printed output");
    }
}

#[test]
fn every_experiment_id_renders_and_fig8_is_table4() {
    let render = |id: &str| {
        let out = reproduce(&["--scenario", "small", "--seed", "3", "--experiment", id]);
        assert!(out.status.success(), "--experiment {id} failed");
        assert!(!out.stdout.is_empty(), "--experiment {id} printed nothing");
        out.stdout
    };
    for e in dcf_report::experiments::EXPERIMENTS {
        for id in e.ids {
            render(id);
        }
    }
    assert_eq!(render("fig8"), render("table4"));
    let unknown = reproduce(&["--scenario", "small", "--experiment", "fig12"]);
    assert!(!unknown.status.success() && unknown.stdout.is_empty());
}

/// `replay --digest` writes the event digest of the library replay of
/// the same trace, and its last line is the library's summary line.
#[test]
fn replay_digest_matches_the_library_replay() {
    let digest = temp_path("replay-digest.txt");
    let out = reproduce(&[
        "replay",
        "--scenario",
        "small",
        "--seed",
        "42",
        "--quiet",
        "--digest",
        &digest,
    ]);
    assert!(out.status.success(), "replay failed");
    let written = std::fs::read_to_string(&digest).expect("digest written");
    let _ = std::fs::remove_file(&digest);
    let trace = dcf_sim::Scenario::small()
        .seed(42)
        .simulate(&dcf_sim::RunOptions::default())
        .expect("small runs");
    let outcome = dcf_core::replay::replay(&trace, &dcf_core::replay::ReplayConfig::default());
    assert_eq!(
        written.trim(),
        format!("{:016x}", outcome.summary.event_digest)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert_eq!(
        stdout,
        format!("{}\n", outcome.summary_line),
        "--quiet prints the summary only"
    );
}

/// A replay of a snapshot prints the bytes a replay of the simulation
/// it holds prints, and writes the same digest.
#[test]
fn replay_of_a_snapshot_equals_the_simulated_replay() {
    let (snapshot, from_snapshot, simulated) = (
        temp_path("replay.dcfsnap"),
        temp_path("replay-in.txt"),
        temp_path("replay-sim.txt"),
    );
    let trace = ["--scenario", "small", "--seed", "42"];
    let written = reproduce(&[&["snapshot", "--out", &snapshot][..], &trace].concat());
    assert!(written.status.success(), "snapshot --out failed");
    let loaded = reproduce(&["replay", "--in", &snapshot, "--digest", &from_snapshot]);
    let direct = reproduce(&[&["replay", "--digest", &simulated][..], &trace].concat());
    let digests = [&from_snapshot, &simulated].map(std::fs::read_to_string);
    for path in [&snapshot, &from_snapshot, &simulated] {
        let _ = std::fs::remove_file(path);
    }
    assert!(loaded.status.success() && direct.status.success());
    assert!(loaded.stdout.len() > 1000, "the feed has events");
    assert_eq!(loaded.stdout, direct.stdout);
    let [a, b] = digests.map(|d| d.expect("digest written"));
    assert_eq!(a, b);
}

#[test]
fn score_is_byte_identical_across_thread_counts() {
    let serial = reproduce(&["--scenario", "small", "--score", "--threads", "1"]);
    let parallel = reproduce(&["--scenario", "small", "--score", "--threads", "2"]);
    assert!(serial.status.success() && parallel.status.success());
    let text = String::from_utf8(serial.stdout).expect("utf-8 stdout");
    assert!(text.contains("reproduction agreement"), "{text}");
    assert_eq!(text.as_bytes(), parallel.stdout.as_slice());
}

/// The `--digest` a medium seed-1 run writes with `flags` added.
fn medium_digest(name: &str, flags: &[&str]) -> String {
    let path = temp_path(name);
    let mut args = vec![
        "--scenario",
        "medium",
        "--experiment",
        "none",
        "--digest",
        &path,
    ];
    args.extend_from_slice(flags);
    let out = reproduce(&args);
    assert!(out.status.success(), "{flags:?} failed");
    let digest = std::fs::read_to_string(&path).expect("digest written");
    let _ = std::fs::remove_file(&path);
    digest
}

/// CI's inline-vs-pipelined merge gate: a 4-shard medium run digests on
/// the merging thread at `--threads 1` and on a second thread at
/// `--threads 2`, and both equal the unsharded engine's digest.
#[test]
fn sharded_digest_is_byte_identical_inline_and_pipelined() {
    let inline = medium_digest("s4-t1", &["--shards", "4", "--threads", "1"]);
    let pipelined = medium_digest("s4-t2", &["--shards", "4", "--threads", "2"]);
    let unsharded = medium_digest("s1-t1", &["--threads", "1"]);
    assert_eq!(inline, pipelined);
    assert_eq!(inline, unsharded);
}

#[test]
fn export_reads_back_to_the_run_digest() {
    let out = reproduce(&["export", "--scenario", "small", "--seed", "42"]);
    assert!(out.status.success(), "export failed");
    let columns = dcf_trace::io::read_fots_csv(out.stdout.as_slice()).expect("the CSV reads back");
    assert!(!columns.is_empty(), "small seed 42 has tickets");
    let exported = format!("{:016x}", dcf_trace::io::fots_digest(&columns));
    let path = std::env::temp_dir().join(format!("dcf-cli-digest-{}.txt", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path");
    let run = reproduce(&[
        "--scenario",
        "small",
        "--seed",
        "42",
        "--experiment",
        "none",
        "--digest",
        path,
    ]);
    assert!(run.status.success(), "the digest run failed");
    let run = std::fs::read_to_string(path).expect("digest written");
    let _ = std::fs::remove_file(path);
    assert_eq!(exported, run.trim());
}

#[test]
fn export_keeps_only_the_window_and_data_center() {
    let (from, to) = (400, 500);
    let out = reproduce(&[
        "export",
        "--scenario",
        "small",
        "--seed",
        "42",
        "--dc",
        "0",
        "--from-day",
        "400",
        "--to-day",
        "500",
    ]);
    assert!(out.status.success(), "export failed");
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("warning"),
        "a window with tickets warns"
    );
    let columns = dcf_trace::io::read_fots_csv(out.stdout.as_slice()).expect("the CSV reads back");
    assert!(!columns.is_empty(), "the window holds tickets");
    let window = from * dcf_trace::SECS_PER_DAY..to * dcf_trace::SECS_PER_DAY;
    for i in 0..columns.len() {
        assert_eq!(columns.data_centers()[i], 0, "row {i} is outside DC 0");
        assert!(
            window.contains(&columns.error_secs(i)),
            "row {i} at {}s is outside days {from}..{to}",
            columns.error_secs(i)
        );
    }
}

/// Days before the observation window keep no tickets: the export still
/// succeeds with a header-only CSV, and warns on stderr that days count
/// from the simulation origin, naming the window (medium: days 730 to
/// 2140).
#[test]
fn export_of_an_empty_day_window_warns() {
    let out = reproduce(&[
        "export",
        "--scenario",
        "medium",
        "--seed",
        "1",
        "--from-day",
        "400",
        "--to-day",
        "500",
    ]);
    assert!(out.status.success(), "an empty window is not an error");
    let columns = dcf_trace::io::read_fots_csv(out.stdout.as_slice()).expect("the CSV reads back");
    assert!(columns.is_empty(), "days 400..500 precede the window");
    assert_eq!(
        out.stdout.iter().filter(|&&b| b == b'\n').count(),
        1,
        "header only"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("warning: --from-day/--to-day kept no tickets")
            && stderr.contains("simulation origin")
            && stderr.contains("days 730 to 2140"),
        "missing or vague warning: {stderr}"
    );
}

/// A service limited to 64 descriptors and holding 100 connections runs
/// out of descriptors with connections still pending. The failed accept
/// must not poll ready again at once: over a second the loop may retry a
/// few times per sweep, never spin.
#[cfg(target_os = "linux")]
#[test]
fn serve_out_of_descriptors_does_not_spin() {
    use std::io::BufRead;
    use std::net::TcpStream;
    use std::process::Stdio;

    let mut child = Command::new("bash")
        .args([
            "-c",
            "ulimit -n 64; exec \"$0\" serve --addr 127.0.0.1:0 --workers 2",
            env!("CARGO_BIN_EXE_reproduce"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut stderr = std::io::BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let n = stderr.read_line(&mut line).expect("read stderr");
        assert!(n > 0, "serve exited before it listened");
        if let Some(rest) = line.split("listening on http://").nth(1) {
            break rest.split_whitespace().next().expect("address").to_string();
        }
    };
    let conns: Vec<TcpStream> = (0..100)
        .map(|i| TcpStream::connect(&addr).unwrap_or_else(|e| panic!("connect {i}: {e}")))
        .collect();
    std::thread::sleep(std::time::Duration::from_secs(1));
    let killed = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(killed.success());
    let out = child.wait_with_output().expect("serve exits");
    drop(conns);
    assert!(out.status.success(), "serve did not drain cleanly");
    let report = dcf_obs::RunReport::from_json(
        std::str::from_utf8(&out.stdout)
            .expect("utf-8 report")
            .trim(),
    )
    .expect("final report parses");
    let errors = report.counter("serve.io_errors").unwrap_or(0);
    assert!(errors > 0, "the descriptor limit was never reached");
    assert!(errors < 1000, "accept spun: {errors} I/O errors");
}
