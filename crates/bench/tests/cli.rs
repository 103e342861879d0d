//! Drives the `reproduce` binary: output-mode flag conflicts, the
//! thread-count byte-identity of `--score`, the `export` CSV, and a
//! service that runs out of file descriptors.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce runs")
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

#[test]
fn score_is_byte_identical_across_thread_counts() {
    let serial = reproduce(&["--scenario", "small", "--score", "--threads", "1"]);
    let parallel = reproduce(&["--scenario", "small", "--score", "--threads", "2"]);
    assert!(serial.status.success() && parallel.status.success());
    let text = String::from_utf8(serial.stdout).expect("utf-8 stdout");
    assert!(text.contains("reproduction agreement"), "{text}");
    assert_eq!(text.as_bytes(), parallel.stdout.as_slice());
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
