//! Drives the `reproduce` binary: output-mode flag conflicts and the
//! thread-count byte-identity of `--score`.

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
    let conflicts: [&[&str]; 6] = [
        &["--markdown", "--score"],
        &["--experiment", "none", "--markdown"],
        &["--experiment", "table1", "--score"],
        &["snapshot", "--out", snapshot, "--markdown"],
        &["snapshot", "--out", snapshot, "--score"],
        &["snapshot", "--out", snapshot, "--experiment", "none"],
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
