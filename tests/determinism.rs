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
/// move only together with the trace digests above.
#[test]
fn golden_report_and_replay_digests_at_seed_1() {
    for (scenario, report_fnv, replay_digest) in [
        (Scenario::small(), "7c941b7a9239f4ac", "ab7211e1dc58f2b8"),
        (Scenario::medium(), "cfa1d206f4251bbc", "15fd2c8638e6ec50"),
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
