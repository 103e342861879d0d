//! The ticket columns are a trace's only ticket store, so every way into
//! them must agree and every bad way in must fail typed:
//!
//! * rows given to `Trace::new` in any order read back sorted and
//!   field-equal through `trace.fots()`;
//! * a snapshot round trip hands back a trace with the same digest that
//!   analyzes to the same `StudyReport` bytes at every thread count;
//! * a `.dcfsnap` image whose digest is valid but whose columns break a
//!   trace invariant loads as a `TraceError`, never a panic.
//!
//! The section kernels themselves are checked against plain ticket scans
//! in `tests/study_oracle.rs`.

use dcfail::core::{FailureStudy, StudyOptions};
use dcfail::sim::{RunOptions, Scenario};
use dcfail::stats::rng::{Rng, StdRng};
use dcfail::trace::io::{fnv1a, fots_digest, snapshot, FNV_OFFSET};
use dcfail::trace::{Fot, FotCategory, Trace, TraceError};

fn trace_for(seed: u64) -> Trace {
    Scenario::small()
        .seed(seed)
        .simulate(&RunOptions::default())
        .expect("small scenario runs")
}

fn report_debug(trace: &Trace, threads: usize) -> String {
    let report = FailureStudy::new(trace).analyze(&StudyOptions::with_threads(threads));
    format!("{report:?}")
}

#[test]
fn shuffled_rows_read_back_sorted_and_field_equal() {
    for seed in [1, 7, 42] {
        let trace = trace_for(seed);
        let rows: Vec<Fot> = trace.fots().iter().collect();
        let mut shuffled = rows.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.random_range(0..=i));
        }
        assert_ne!(shuffled, rows, "seed {seed}: the shuffle moved rows");
        let rebuilt = Trace::new(
            trace.info().clone(),
            trace.servers().to_vec(),
            trace.data_centers().to_vec(),
            trace.product_lines().to_vec(),
            shuffled,
        )
        .expect("the same rows are valid in any order");
        assert!(
            rebuilt.fots().iter().eq(rows.iter().copied()),
            "seed {seed}"
        );
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(rebuilt.fot(i), *row, "seed {seed} row {i}");
        }
        // Same rows, same dictionary order: the stores are equal too.
        assert_eq!(rebuilt.fots(), trace.fots(), "seed {seed}");
        assert_eq!(fots_digest(rebuilt.fots()), fots_digest(trace.fots()));
    }
}

#[test]
fn snapshot_round_trip_reproduces_digest_and_report() {
    let trace = trace_for(42);
    let bytes = snapshot::snapshot_to_bytes(&trace);
    let loaded = snapshot::snapshot_from_bytes(&bytes).expect("snapshot loads");
    assert_eq!(fots_digest(loaded.fots()), fots_digest(trace.fots()));
    assert_eq!(report_debug(&loaded, 1), report_debug(&trace, 1));
    assert_eq!(report_debug(&loaded, 4), report_debug(&trace, 4));
}

/// The ticket columns of a `.dcfsnap` image in schema order, with their
/// byte widths. The column section ends the body, just before the 8-byte
/// digest footer.
const COLUMNS: [(&str, usize); 16] = [
    ("id", 8),
    ("server", 4),
    ("data_center", 2),
    ("product_line", 2),
    ("class", 1),
    ("device_slot", 1),
    ("failure_type", 1),
    ("error_day", 4),
    ("error_sod", 4),
    ("rack_position", 1),
    ("category", 1),
    ("op_day", 4),
    ("op_sod", 4),
    ("operator", 2),
    ("action", 1),
    ("detail", 4),
];

/// Reads `column` of `row` from a snapshot image of `n` tickets.
fn get(image: &[u8], n: usize, column: &str, row: usize) -> u64 {
    let (at, width) = locate(image, n, column, row);
    let mut le = [0u8; 8];
    le[..width].copy_from_slice(&image[at..at + width]);
    u64::from_le_bytes(le)
}

/// `image` with `column` of `row` set to `value`, digest re-sealed so the
/// footer check passes and the column check must catch the change.
fn with(image: &[u8], n: usize, column: &str, row: usize, value: u64) -> Vec<u8> {
    let (at, width) = locate(image, n, column, row);
    let mut bytes = image.to_vec();
    bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
    let body = bytes.len() - 8;
    let digest = fnv1a(FNV_OFFSET, &bytes[..body]).to_le_bytes();
    bytes[body..].copy_from_slice(&digest);
    bytes
}

fn locate(image: &[u8], n: usize, column: &str, row: usize) -> (usize, usize) {
    let row_bytes: usize = COLUMNS.iter().map(|c| c.1).sum();
    let mut at = image.len() - 8 - row_bytes * n;
    for (name, width) in COLUMNS {
        if name == column {
            return (at + row * width, width);
        }
        at += n * width;
    }
    panic!("no column {column}")
}

/// Whether an error reports an invalid value in `column`.
fn invalid(column: &'static str) -> impl Fn(&TraceError) -> bool {
    move |e| matches!(e, TraceError::InvalidColumn { column: c, .. } if *c == column)
}

#[test]
fn hostile_snapshot_columns_are_typed_errors() {
    let trace = trace_for(1);
    let image = snapshot::snapshot_to_bytes(&trace);
    let n = trace.len();
    let load = |bytes: &[u8]| snapshot::snapshot_from_bytes(bytes).err();
    assert!(load(&image).is_none(), "the untouched image loads");
    assert_eq!(get(&image, n, "id", 1), trace.fot(1).id.raw());

    let row_of = |category: FotCategory| {
        (0..n)
            .find(|&i| trace.fot(i).category == category && i + 1 < n)
            .expect("the small trace has every category")
    };
    let fixing = row_of(FotCategory::Fixing);
    let error = row_of(FotCategory::Error);

    type Check = Box<dyn Fn(&TraceError) -> bool>;
    let cases: Vec<(&str, Vec<u8>, Check)> = vec![
        (
            "server id past the fleet",
            with(&image, n, "server", 0, trace.servers().len() as u64),
            Box::new(|e| matches!(e, TraceError::UnknownServer { .. })),
        ),
        (
            "data center out of range",
            with(
                &image,
                n,
                "data_center",
                0,
                trace.data_centers().len() as u64,
            ),
            Box::new(invalid("data_center")),
        ),
        (
            "product line out of range",
            with(
                &image,
                n,
                "product_line",
                0,
                trace.product_lines().len() as u64,
            ),
            Box::new(invalid("product_line")),
        ),
        (
            "detail id past the dictionary",
            with(&image, n, "detail", 0, u64::from(u32::MAX)),
            Box::new(
                |e| matches!(e, TraceError::Snapshot { message } if message.contains("detail")),
            ),
        ),
        (
            "bad class tag",
            with(&image, n, "class", 0, 11),
            Box::new(invalid("class")),
        ),
        (
            "bad failure-type tag",
            with(&image, n, "failure_type", 0, 200),
            Box::new(invalid("failure_type")),
        ),
        (
            "bad category tag",
            with(&image, n, "category", 0, 3),
            Box::new(invalid("category")),
        ),
        (
            "bad action tag",
            with(&image, n, "action", fixing, 7),
            Box::new(invalid("action")),
        ),
        (
            "action on a ticket without a response",
            with(&image, n, "action", error, 0),
            Box::new(invalid("action")),
        ),
        (
            "fixing ticket with the no-response sentinel",
            with(&image, n, "op_day", fixing, u64::from(u32::MAX)),
            Box::new(|e| matches!(e, TraceError::ResponseMismatch { .. })),
        ),
        (
            "response before the ticket",
            with(
                &image,
                n,
                "op_day",
                fixing,
                get(&image, n, "error_day", fixing) - 1,
            ),
            Box::new(|e| matches!(e, TraceError::NegativeResponseTime { .. })),
        ),
        (
            "duplicate ticket id",
            with(&image, n, "id", 1, get(&image, n, "id", 0)),
            Box::new(|e| matches!(e, TraceError::DuplicateFotId { .. })),
        ),
        (
            "rows out of (error_time, id) order",
            with(
                &image,
                n,
                "error_day",
                error,
                get(&image, n, "error_day", error + 1) + 1,
            ),
            Box::new(|e| matches!(e, TraceError::UnsortedFots { .. })),
        ),
    ];
    for (what, bytes, expected) in cases {
        assert_ne!(bytes, image, "{what}: the image changed");
        match load(&bytes) {
            Some(e) => assert!(expected(&e), "{what}: unexpected error {e}"),
            None => panic!("{what}: the image loaded"),
        }
    }
}
