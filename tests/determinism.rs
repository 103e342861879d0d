//! Determinism and serialization integrity across the whole pipeline.

mod common;

use dcfail::core::replay::{replay, ReplayConfig};
use dcfail::core::{FailureStudy, StudyOptions};
use dcfail::report::experiments::render_all;
use dcfail::sim::{RunOptions, Scenario};
use dcfail::trace::io;

#[test]
fn identical_seeds_give_identical_traces() {
    let a = Scenario::small()
        .seed(5)
        .simulate(&RunOptions::default())
        .unwrap();
    let b = Scenario::small()
        .seed(5)
        .simulate(&RunOptions::default())
        .unwrap();
    assert_eq!(a.fots(), b.fots());
    assert_eq!(a.servers(), b.servers());
    assert_eq!(a.data_centers(), b.data_centers());
}

#[test]
fn different_seeds_differ() {
    let a = Scenario::small()
        .seed(5)
        .simulate(&RunOptions::default())
        .unwrap();
    let b = Scenario::small()
        .seed(6)
        .simulate(&RunOptions::default())
        .unwrap();
    assert_ne!(a.fots(), b.fots());
}

#[test]
fn study_report_is_deterministic() {
    let a = FailureStudy::new(common::small()).analyze(&StudyOptions::default());
    let b = FailureStudy::new(common::small()).analyze(&StudyOptions::default());
    assert_eq!(a, b);
}

/// The `reproduce --digest` values at seed 1. Every calibrated figure is
/// a function of the simulator's streams; a change to the generator, the
/// engine, or the digest encoding moves these.
#[test]
fn golden_digests_at_seed_1() {
    for (scenario, expected) in [
        (Scenario::small(), "5506d52edbd8708b"),
        (Scenario::medium(), "0effc135deaf12f4"),
        (Scenario::paper(), "051fa8f4f54e7f4a"),
    ] {
        let trace = scenario.seed(1).simulate(&RunOptions::default()).unwrap();
        assert_eq!(format!("{:016x}", io::fots_digest(trace.fots())), expected);
    }
}

/// The report and replay bytes at seed 1: the FNV-1a of `render_all`
/// (the `reproduce` default output) and the replay event digest. They
/// move only together with the trace digests above. Small and medium
/// fire few batch-burst days; the paper row (328,149 replay events)
/// pins the online detectors at the scale where they fire often.
#[test]
fn golden_report_and_replay_digests_at_seed_1() {
    for (scenario, report_fnv, replay_digest) in [
        (Scenario::small(), "7c941b7a9239f4ac", "ab7211e1dc58f2b8"),
        (Scenario::medium(), "cfa1d206f4251bbc", "15fd2c8638e6ec50"),
        (Scenario::paper(), "894bc9148a7a04d9", "f9f33f4c351e2bfb"),
    ] {
        let name = scenario.name;
        let trace = scenario.seed(1).simulate(&RunOptions::default()).unwrap();
        let text = render_all(&FailureStudy::new(&trace));
        assert_eq!(
            format!("{:016x}", io::fnv1a(io::FNV_OFFSET, text.as_bytes())),
            report_fnv,
            "{name} report"
        );
        let outcome = replay(&trace, &ReplayConfig::default());
        assert_eq!(
            format!("{:016x}", outcome.summary.event_digest),
            replay_digest,
            "{name} replay"
        );
    }
}

#[test]
fn csv_round_trip_preserves_every_ticket() {
    let trace = common::small();
    let mut buf = Vec::new();
    io::write_fots_csv(trace.fots(), &mut buf).unwrap();
    let back = io::read_fots_csv(&buf[..]).unwrap();
    assert_eq!(&back, trace.fots());
}

/// CSV is the one ticket interchange format, so its reader must take any
/// bytes: a small-scenario export cut at every offset, or with one byte
/// flipped at every offset, loads or fails with a typed `Csv`/`Io` error.
/// It never panics, and a cut at a row boundary loads exactly the rows
/// before it.
#[test]
fn csv_reader_types_every_truncation_and_flip() {
    use dcfail::trace::{FotCategory, TraceError};

    // The first 30 tickets plus the first false alarm, the first error and
    // the first quoted detail, so every row shape is in the export.
    let trace = Scenario::small()
        .seed(1)
        .simulate(&RunOptions::default())
        .unwrap();
    let fots: Vec<_> = trace.fots().iter().collect();
    let mut picked: Vec<_> = fots[..30].to_vec();
    for shape in [
        fots.iter().find(|f| f.category == FotCategory::FalseAlarm),
        fots.iter().find(|f| f.category == FotCategory::Error),
        fots.iter().find(|f| f.detail.contains(',')),
    ] {
        let f = shape.expect("the small scenario has every row shape");
        if !picked.contains(f) {
            picked.push(*f);
        }
    }
    let mut good = Vec::new();
    io::write_fots_csv(picked.iter().copied(), &mut good).unwrap();
    assert!(io::read_fots_csv(&good[..])
        .unwrap()
        .iter()
        .eq(picked.iter().copied()));

    let typed = |bytes: &[u8], what: &str| match io::read_fots_csv(bytes) {
        Ok(_) | Err(TraceError::Csv { .. } | TraceError::Io(_)) => {}
        Err(e) => panic!("{what}: untyped error {e}"),
    };
    let mut rows = 0;
    for len in 0..=good.len() {
        let cut = &good[..len];
        if len > 0 && good[len - 1] == b'\n' {
            let loaded = io::read_fots_csv(cut).expect("a cut at a row boundary loads");
            assert!(
                loaded.iter().eq(picked[..rows].iter().copied()),
                "cut after {rows} rows"
            );
            rows += 1;
        } else {
            typed(cut, &format!("cut at {len}"));
        }
    }
    for at in 0..good.len() {
        for mask in [0x01, 0x80] {
            let mut bytes = good.clone();
            bytes[at] ^= mask;
            typed(&bytes, &format!("byte {at} ^ {mask:#04x}"));
        }
    }
}

/// Rows the columns cannot hold, or that break a ticket's own
/// invariants, are `Csv` errors on their line: an integer too wide for
/// its column, a day past the `u32` day column, response fields that do
/// not match the category, and an operator response before the error.
#[test]
fn csv_reader_rejects_rows_its_columns_cannot_hold() {
    use dcfail::trace::{FailureType, TraceError};

    let row = |fields: [&str; 14]| format!("{}\n{}\n", io::CSV_HEADER, fields.join(","));
    let good = [
        "0",
        "4",
        "1",
        "2",
        "0",
        "3",
        FailureType::SmartFail.name(),
        "432000",
        "22",
        "D_fixing",
        "777600",
        "7",
        "RO",
        "x",
    ];
    let loaded = io::read_fots_csv(row(good).as_bytes()).expect("the base row loads");
    assert_eq!(loaded.len(), 1);

    // 4294967296 days, the first past `u32::MAX`, in seconds.
    let past_last_day = ((u64::from(u32::MAX) + 1) * 86_400).to_string();
    let last_day = (u64::from(u32::MAX) * 86_400).to_string();
    let cases: Vec<(&str, usize, String)> = vec![
        ("host_id 2^32 + 1", 1, "4294967297".into()),
        ("host_idc 2^16 + 1", 2, "65537".into()),
        ("product_line 2^16", 3, "65536".into()),
        ("device_slot 300", 5, "300".into()),
        ("error_time past the day column", 7, past_last_day.clone()),
        ("error_position 256", 8, "256".into()),
        ("operator 2^16", 11, "65536".into()),
        // The op-time day column keeps `u32::MAX` for "no response".
        ("op_time on the sentinel day", 10, last_day),
        ("op_time past the day column", 10, past_last_day),
        ("op_time before error_time", 10, "431999".into()),
        ("D_fixing without a response", 10, String::new()),
    ];
    let rejected = |what: &str, bytes: String| match io::read_fots_csv(bytes.as_bytes()) {
        Err(TraceError::Csv { line: 2, message }) => message,
        other => panic!("{what}: expected a Csv error on line 2, got {other:?}"),
    };
    for (what, field, value) in cases {
        let mut fields = good;
        fields[field] = &value;
        rejected(what, row(fields));
    }
    let mut fields = good;
    fields[9] = "D_error";
    let message = rejected("D_error with a response", row(fields));
    assert!(message.contains("no operator response"), "{message}");
    fields[10..13].copy_from_slice(&["", "7", ""]);
    rejected("D_error with an operator only", row(fields));
    fields[10..13].copy_from_slice(&["", "", ""]);
    assert!(
        io::read_fots_csv(row(fields).as_bytes()).is_ok(),
        "D_error without a response"
    );
}

#[test]
fn fots_are_time_sorted_with_dense_unique_ids() {
    let trace = common::medium();
    let mut seen = std::collections::HashSet::new();
    let mut prev = None;
    for fot in trace.fots() {
        assert!(seen.insert(fot.id), "duplicate {}", fot.id);
        if let Some(p) = prev {
            assert!(fot.error_time >= p, "unsorted at {}", fot.id);
        }
        prev = Some(fot.error_time);
    }
    assert_eq!(seen.len(), trace.len());
}

/// The on-disk and export bytes at seed 1: the FNV-1a of the `.dcfsnap`
/// image and of the CSV export. Both writers read the trace's columns;
/// these pin their output byte for byte.
#[test]
fn golden_snapshot_and_csv_bytes_at_seed_1() {
    for (scenario, snapshot_fnv, csv_fnv) in [
        (Scenario::small(), "4c22a3858f45ac28", "ab5903be4f1d7c7a"),
        (Scenario::medium(), "0a8dd97a3ca2b0b2", "a5dbc262eb1d2df8"),
    ] {
        let name = scenario.name;
        let trace = scenario.seed(1).simulate(&RunOptions::default()).unwrap();
        let image = io::snapshot::snapshot_to_bytes(&trace);
        let mut csv = Vec::new();
        io::write_fots_csv(trace.fots(), &mut csv).unwrap();
        assert_eq!(
            format!("{:016x}", io::fnv1a(io::FNV_OFFSET, &image)),
            snapshot_fnv,
            "{name} snapshot"
        );
        assert_eq!(
            format!("{:016x}", io::fnv1a(io::FNV_OFFSET, &csv)),
            csv_fnv,
            "{name} csv"
        );
    }
}
