//! Property-based tests over the whole stack: arbitrary small fleet
//! configurations and seeds must always yield schema-valid traces, and the
//! statistics substrate must uphold its invariants on arbitrary inputs.
//! Inputs come from the seeded case runner in `tests/cases`.

mod cases;

use dcfail::core::{FailureStudy, StudyOptions};
use dcfail::fleet::FleetConfig;
use dcfail::obs::MetricsRegistry;
use dcfail::sim::{simulate, RunOptions, SimConfig};
use dcfail::stats::rng::{Rng, RngCore, StdRng};
use dcfail::stats::{fit, ContinuousDistribution, Ecdf};
use dcfail::trace::io;

/// A small-but-varied fleet configuration.
fn small_config(rng: &mut StdRng) -> FleetConfig {
    let window_days = rng.random_range(60u64..240);
    FleetConfig {
        data_centers: rng.random_range(2..5),
        servers: rng.random_range(300..900),
        product_lines: rng.random_range(4..16),
        rack_positions: 40,
        servers_per_rack: 36,
        pre_window_days: 120,
        window_days,
        deploy_until_day: window_days / 2,
        warranty_days: 200,
        generations: rng.random_range(1..4),
        modern_cooling_fraction: rng.random_range(0.0..1.0),
        racks_per_pdu: 4,
    }
}

#[test]
fn any_small_config_yields_a_valid_trace() {
    cases::check("any_small_config_yields_a_valid_trace", 12, |rng| {
        let mut sim = SimConfig::with_fleet(small_config(rng), "prop");
        sim.seed = rng.random_range(0..1_000);
        // Trace::new re-validates every schema invariant; simulate() must succeed.
        let trace = simulate(&sim, &RunOptions::default()).expect("valid config simulates");
        let start = trace.info().start;
        let end = trace.end_time();
        for fot in trace.fots() {
            assert!(fot.error_time >= start && fot.error_time < end);
            assert_eq!(fot.category.has_response(), fot.response.is_some());
        }
        // The report never panics, whatever the volume.
        let report = FailureStudy::new(&trace).analyze(&StudyOptions::default());
        assert_eq!(report.total_fots, trace.len());
        assert!(report.fixing_share >= 0.0 && report.fixing_share <= 1.0);
    });
}

/// The engine's ticket counters agree with the assembled trace whatever
/// the fleet shape and worker-thread count: `sim.tickets.total` equals
/// both the sum of the per-category counters and the trace length, at
/// 1, 2, and auto engine threads.
#[test]
fn ticket_counters_are_consistent_at_any_thread_count() {
    cases::check(
        "ticket_counters_are_consistent_at_any_thread_count",
        9,
        |rng| {
            let cfg = small_config(rng);
            let seed = rng.random_range(0..1_000);
            for threads in [1usize, 2, 0] {
                let mut sim = SimConfig::with_fleet(cfg.clone(), "prop");
                sim.seed = seed;
                let registry = MetricsRegistry::new();
                let options = RunOptions::new().metrics(&registry).threads(threads);
                let trace = simulate(&sim, &options).expect("valid config simulates");
                let report = registry.report("properties");
                let counter = |name: &str| report.counter(name).unwrap_or(0);
                let total = counter("sim.tickets.total");
                assert_eq!(
                    total,
                    counter("sim.tickets.fixing")
                        + counter("sim.tickets.error")
                        + counter("sim.tickets.false_alarm"),
                    "threads {threads}: category counters do not sum to the total"
                );
                assert_eq!(
                    trace.len() as u64,
                    total,
                    "threads {threads}: trace length disagrees with sim.tickets.total"
                );
            }
        },
    );
}

#[test]
fn ecdf_is_a_cdf() {
    cases::check("ecdf_is_a_cdf", 64, |rng| {
        let mut xs = cases::vec_of(rng, 1..200, |r| r.random_range(-1e6..1e6));
        let e = Ecdf::new(xs.clone()).unwrap();
        // Bounds.
        assert!(e.eval(f64::MIN) >= 0.0);
        assert!((e.eval(e.max()) - 1.0).abs() < 1e-12);
        // Monotonicity on sample points.
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for &x in &xs {
            let v = e.eval(x);
            assert!(v >= prev - 1e-12);
            prev = v;
        }
        // Quantile inverts eval within a rank.
        for &p in &[0.1, 0.5, 0.9] {
            let q = e.quantile(p);
            assert!(e.eval(q) + 1e-12 >= p);
        }
    });
}

#[test]
fn exponential_fit_matches_sample_mean() {
    cases::check("exponential_fit_matches_sample_mean", 64, |rng| {
        let rate = rng.random_range(0.01..100.0);
        let n = rng.random_range(50usize..500);
        let d = dcfail::stats::Exponential::new(rate).unwrap();
        let mut sample_rng = StdRng::seed_from_u64(rng.random_range(0..1000));
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut sample_rng)).collect();
        let fitted = fit::fit_exponential(&xs).unwrap();
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!((fitted.rate() - 1.0 / mean).abs() < 1e-9 * fitted.rate());
    });
}

#[test]
fn weibull_cdf_quantile_inverse() {
    cases::check("weibull_cdf_quantile_inverse", 64, |rng| {
        let shape = rng.random_range(0.2..5.0);
        let scale = rng.random_range(0.01..1e4);
        let p = rng.random_range(0.001..0.999);
        let d = dcfail::stats::Weibull::new(shape, scale).unwrap();
        let x = d.quantile(p);
        assert!(
            (d.cdf(x) - p).abs() < 1e-9,
            "shape {shape} scale {scale} p {p}"
        );
    });
}

#[test]
fn gamma_cdf_is_monotone() {
    cases::check("gamma_cdf_is_monotone", 64, |rng| {
        let shape = rng.random_range(0.2..10.0);
        let scale = rng.random_range(0.1..100.0);
        let a = rng.random_range(0.0..50.0);
        let b = rng.random_range(0.0..50.0);
        let d = dcfail::stats::Gamma::new(shape, scale).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(d.cdf(lo * scale) <= d.cdf(hi * scale) + 1e-12);
    });
}

#[test]
fn chi_square_uniformity_accepts_its_own_expectation() {
    cases::check(
        "chi_square_uniformity_accepts_its_own_expectation",
        64,
        |rng| {
            let k = rng.random_range(3usize..20);
            let n = rng.random_range(200usize..5_000);
            // Exactly uniform counts must never reject.
            let counts = vec![(n / k) as f64; k];
            let out = dcfail::stats::chi_square::uniformity(&counts).unwrap();
            assert!(out.statistic.abs() < 1e-9);
            assert!(!out.rejects_at(0.05));
        },
    );
}

#[test]
fn hazard_sampling_stays_in_window() {
    cases::check("hazard_sampling_stays_in_window", 16, |rng| {
        let rates = cases::vec_of(rng, 1..48, |r| r.random_range(0.0..0.5));
        let from = rng.random_range(0.0..500.0);
        let span = rng.random_range(1.0..500.0);
        let h = dcfail::failmodel::PiecewiseHazard::new(rates).unwrap();
        let mut sample_rng = StdRng::seed_from_u64(rng.random_range(0..100));
        let mut out = Vec::new();
        h.sample_arrivals(&mut sample_rng, from, from + span, 1.0, &mut out);
        for &a in &out {
            assert!(a >= from && a < from + span);
        }
        // Sorted by construction.
        for w in out.windows(2) {
            assert!(w[0] <= w[1]);
        }
    });
}

/// The CSV reader must reject (never panic on) arbitrarily corrupted
/// input — single-character mutations of a valid export either still
/// parse or produce a structured `TraceError::Csv`.
#[test]
fn csv_reader_survives_corruption() {
    let trace = dcfail::sim::Scenario::small()
        .seed(9)
        .simulate(&RunOptions::default())
        .unwrap();
    let mut csv = Vec::new();
    io::write_fots_csv(trace.fots().iter().take(50), &mut csv).unwrap();
    cases::check("csv_reader_survives_corruption", 48, |rng| {
        let mut mutated = csv.clone();
        let idx = rng.random_range(0..5_000) % mutated.len();
        mutated[idx] = rng.random_range(0u8..=255);
        // Must return, not panic; both Ok and Err are acceptable outcomes.
        let _ = io::read_fots_csv(&mutated[..]);
    });
}

/// Restricting a trace to any window keeps every schema invariant.
#[test]
fn restrict_preserves_invariants() {
    use dcfail::trace::SimTime;
    let trace = dcfail::sim::Scenario::small()
        .seed(10)
        .simulate(&RunOptions::default())
        .unwrap();
    cases::check("restrict_preserves_invariants", 48, |rng| {
        let from = rng.random_range(0u64..500);
        let span = rng.random_range(1u64..500);
        let a = SimTime::from_days(from);
        let b = SimTime::from_days(from + span);
        let sliced = trace.restrict(a, b).expect("restriction is always valid");
        for fot in sliced.fots() {
            assert!(fot.error_time >= sliced.info().start);
            assert!(fot.error_time < sliced.end_time());
        }
        assert!(sliced.len() <= trace.len());
        // Slicing twice with the same window is idempotent.
        let again = sliced.restrict(a, b).unwrap();
        assert_eq!(again.fots(), sliced.fots());
    });
}

/// The binary snapshot round-trips to an identical trace for arbitrary
/// seeds, and any single-byte change to the payload fails with a typed
/// `TraceError::Snapshot` — never a panic. Flipping a payload byte
/// without fixing the footer must always be rejected.
#[test]
fn snapshot_round_trips_and_rejects_corruption() {
    let trace = dcfail::sim::Scenario::small()
        .seed(11)
        .simulate(&RunOptions::default())
        .unwrap();
    let bytes = io::snapshot::snapshot_to_bytes(&trace);
    cases::check("snapshot_round_trips_and_rejects_corruption", 48, |rng| {
        // Round trip at an arbitrary seed: identical trace, identical digest.
        let fresh = dcfail::sim::Scenario::small()
            .seed(rng.random_range(0..200))
            .simulate(&RunOptions::default())
            .unwrap();
        let loaded = io::snapshot::snapshot_from_bytes(&io::snapshot::snapshot_to_bytes(&fresh))
            .expect("round trip loads");
        assert_eq!(&loaded, &fresh);
        assert_eq!(
            io::fots_digest(loaded.fots()),
            io::fots_digest(fresh.fots())
        );
        // Corruption: change one payload byte (leaving the 8-byte footer
        // intact so the digest cannot be patched to match).
        let mut mutated = bytes.clone();
        let idx = rng.random_range(0..100_000) % (mutated.len() - 8);
        let byte = rng.random_range(0u8..=255);
        if mutated[idx] != byte {
            mutated[idx] = byte;
            match io::snapshot::snapshot_from_bytes(&mutated) {
                Ok(_) => panic!("corrupted snapshot loaded"),
                Err(e) => {
                    let msg = e.to_string();
                    assert!(msg.starts_with("snapshot:"), "unexpected error {msg}");
                }
            }
        }
    });
}

/// Poisson CDF/SF are complementary and monotone for arbitrary means.
#[test]
fn poisson_cdf_properties() {
    cases::check("poisson_cdf_properties", 48, |rng| {
        let mean = rng.random_range(0.01..200.0);
        let k = rng.random_range(0u64..400);
        let d = dcfail::stats::Poisson::new(mean).unwrap();
        let c = d.cdf(k);
        assert!((0.0..=1.0 + 1e-12).contains(&c));
        assert!((c + d.sf(k) - 1.0).abs() < 1e-9);
        assert!(d.cdf(k + 1) + 1e-12 >= c);
    });
}

/// Spill records over servers `0..200`, as the spill properties draw them.
fn spill_records(
    rng: &mut StdRng,
    len: std::ops::Range<usize>,
) -> Vec<dcfail::trace::io::spill::SpillRecord> {
    use dcfail::trace::io::spill::SpillRecord;
    use dcfail::trace::{
        ComponentClass, FailureType, FotCategory, OperatorAction, OperatorId, OperatorResponse,
        ServerId, SimTime,
    };
    cases::vec_of(rng, len, |r| {
        let server = r.random_range(0u32..200);
        let class = ComponentClass::ALL[r.random_range(0..11)];
        let slot = r.random_range(0u8..4);
        let ftype = FailureType::ALL[r.random_range(0..34)];
        let secs = r.random_range(0u64..10_000_000);
        let category = FotCategory::ALL[r.random_range(0..3)];
        let op_delta = r.random_range(0u64..500_000);
        let operator = OperatorId::new(r.random_range(0u16..50));
        let response = category.has_response().then(|| OperatorResponse {
            operator,
            op_time: SimTime::from_secs(secs + op_delta),
            action: if category == FotCategory::FalseAlarm {
                OperatorAction::MarkFalseAlarm
            } else {
                OperatorAction::IssueRepairOrder
            },
        });
        SpillRecord {
            server: ServerId::new(server),
            class,
            slot,
            ftype,
            error_time: SimTime::from_secs(secs),
            category,
            response,
        }
    })
}

/// A fresh, empty scratch directory for one spill case.
fn spill_dir(prefix: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "{prefix}-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Spill-merge round-trip: however the server space is split into
/// contiguous shards, writing each shard's sorted records and k-way
/// merging the files reproduces the stable global `(error_time,
/// server, class, slot)` order — duplicate cut points produce empty
/// shards, which must merge cleanly too. Each shard file is also
/// decoded back on its own, pinning the per-file round-trip.
#[test]
fn spill_merge_of_random_shard_splits_round_trips() {
    use dcfail::trace::io::spill::{merge_spills, ShardSpillReader, ShardSpillWriter, SpillRecord};

    cases::check(
        "spill_merge_of_random_shard_splits_round_trips",
        24,
        |rng| {
            let records = spill_records(rng, 0..300);

            // Random contiguous split of the server space 0..200.
            let mut bounds = cases::vec_of(rng, 0..5, |r| r.random_range(0u32..=200));
            bounds.push(0);
            bounds.push(200);
            bounds.sort_unstable();
            let ranges: Vec<(u32, u32)> = bounds.windows(2).map(|w| (w[0], w[1])).collect();
            let shards: Vec<Vec<SpillRecord>> = ranges
                .iter()
                .map(|&(lo, hi)| {
                    let mut recs: Vec<SpillRecord> = records
                        .iter()
                        .filter(|r| (lo..hi).contains(&r.server.raw()))
                        .copied()
                        .collect();
                    recs.sort_by_key(|r| r.key());
                    recs
                })
                .collect();

            let dir = spill_dir("dcf-prop-spill");
            let k = ranges.len() as u32;
            let mut readers = Vec::with_capacity(ranges.len());
            for (i, (&(lo, hi), recs)) in ranges.iter().zip(&shards).enumerate() {
                let path = dir.join(format!("shard-{i}.dcfspill"));
                let mut writer = ShardSpillWriter::new(&path, i as u32, k, lo, hi);
                for r in recs {
                    writer.push(r);
                }
                writer.finish().expect("spill writes");
                let mut reader = ShardSpillReader::open(&path).expect("spill opens");
                let mut back = Vec::with_capacity(recs.len());
                loop {
                    let chunk = reader.read_chunk(61).expect("spill chunk");
                    if chunk.is_empty() {
                        break;
                    }
                    back.extend(chunk);
                }
                assert_eq!(&back, recs);
                readers.push(ShardSpillReader::open(&path).expect("spill verifies"));
            }
            let mut merged = Vec::with_capacity(records.len());
            merge_spills(readers, |r| merged.push(r)).expect("merge runs");
            std::fs::remove_dir_all(&dir).ok();

            // Reference: concatenation in shard order, stably sorted by the
            // merge key — exactly the lowest-shard-wins tie discipline.
            let mut expected: Vec<SpillRecord> = shards.concat();
            expected.sort_by_key(|r| r.key());
            assert_eq!(merged, expected);
        },
    );
}

/// Flipping any single bit of a `DCFSPIL1` file — header, frame,
/// payload, or footer — surfaces a typed error by the time the file
/// is drained: either a decode failure inside the damaged frame or
/// the incremental footer digest check. Never a silent wrong record
/// stream that claims success.
#[test]
fn delta_spills_reject_corrupt_frames() {
    use dcfail::trace::io::spill::{ShardSpillReader, ShardSpillWriter, SpillRecord};

    cases::check("delta_spills_reject_corrupt_frames", 24, |rng| {
        let mut records = spill_records(rng, 1..200);
        records.sort_by_key(|r| r.key());

        let dir = spill_dir("dcf-prop-corrupt");
        let path = dir.join("shard.dcfspill");
        let mut writer = ShardSpillWriter::new(&path, 0, 1, 0, 200);
        for r in &records {
            writer.push(r);
        }
        writer.finish().expect("spill writes");

        let mut bytes = std::fs::read(&path).expect("spill readable");
        let flip_at = rng.next_u64() as usize % bytes.len();
        bytes[flip_at] ^= 1 << rng.random_range(0u8..8);
        std::fs::write(&path, &bytes).expect("corrupted spill written");

        let drained: Result<Vec<SpillRecord>, _> =
            ShardSpillReader::open(&path).and_then(|mut r| {
                let mut out = Vec::new();
                loop {
                    let chunk = r.read_chunk(64)?;
                    if chunk.is_empty() {
                        return Ok(out);
                    }
                    out.extend(chunk);
                }
            });
        std::fs::remove_dir_all(&dir).ok();
        assert!(drained.is_err(), "single-byte corruption went undetected");
    });
}

/// Arbitrary bytes — mostly incompressible, exercising the stored-
/// block fallback — must round-trip through the serve gzip encoder
/// and its in-crate inflater, and the container framing (magic,
/// CRC32, ISIZE) must be self-consistent.
#[test]
fn gzip_roundtrips_arbitrary_bytes() {
    use dcf_serve::gzip::{crc32, gunzip, gzip};
    cases::check("gzip_roundtrips_arbitrary_bytes", 64, |rng| {
        let data = cases::vec_of(rng, 0..4096, |r| r.random_range(0u8..=255));
        let compressed = gzip(&data);
        assert_eq!(
            &compressed[..3],
            &[0x1f, 0x8b, 0x08][..],
            "gzip magic + deflate method"
        );
        let n = compressed.len();
        let trailer_crc = u32::from_le_bytes(compressed[n - 8..n - 4].try_into().unwrap());
        let trailer_len = u32::from_le_bytes(compressed[n - 4..].try_into().unwrap());
        assert_eq!(trailer_crc, crc32(&data));
        assert_eq!(trailer_len, data.len() as u32);
        let inflated = gunzip(&compressed).expect("own output inflates");
        assert_eq!(&inflated, &data);
        // The encoder is deterministic: cached section bytes are identical
        // across event loops because re-encoding cannot diverge.
        assert_eq!(gzip(&data), compressed);
    });
}

/// Repetitive payloads — the shape of rendered report sections —
/// must take the fixed-Huffman match path and actually shrink, while
/// still round-tripping exactly.
#[test]
fn gzip_compresses_repetitive_payloads() {
    use dcf_serve::gzip::{gunzip, gzip};
    cases::check("gzip_compresses_repetitive_payloads", 64, |rng| {
        let pattern = cases::vec_of(rng, 1..24, |r| r.random_range(0u8..=255));
        let repeats = rng.random_range(64usize..512);
        let data: Vec<u8> = pattern
            .iter()
            .copied()
            .cycle()
            .take(pattern.len() * repeats)
            .collect();
        let compressed = gzip(&data);
        assert!(
            compressed.len() < data.len() / 2,
            "repetitive {} bytes only reached {}",
            data.len(),
            compressed.len()
        );
        assert_eq!(gunzip(&compressed).expect("inflates"), data);
    });
}

/// The fields of one decoded request the service acts on: method, path,
/// query pairs, body, keep-alive and gzip acceptance.
type Decoded = (String, String, Vec<(String, String)>, Vec<u8>, bool, bool);

/// A seeded pipelined request stream mixing GETs with a query, POSTs with
/// a `content-length` body, `Connection: close`, HTTP/1.0 and
/// `Accept-Encoding` lists (some refusing gzip with `q=0`), plus the
/// decoding each request must produce.
fn request_stream(rng: &mut StdRng) -> (Vec<u8>, Vec<Decoded>) {
    const ENCODINGS: [(&str, bool); 6] = [
        ("gzip", true),
        ("gzip;q=0", false),
        ("br, gzip;q=0.5", true),
        ("*;q=0", false),
        ("identity", false),
        ("GZIP; Q=0, *", true),
    ];
    let mut stream = Vec::new();
    let mut expected = Vec::new();
    for _ in 0..rng.random_range(1usize..6) {
        let http_10 = rng.random_bool(0.25);
        let close = rng.random_bool(0.25);
        let eol = if rng.random_bool(0.2) { "\n" } else { "\r\n" };
        let (method, path, query, body) = if rng.random_bool(0.5) {
            let seed = rng.random_range(0u64..1000).to_string();
            let query = vec![
                ("scenario".to_string(), "small".to_string()),
                ("seed".to_string(), seed),
            ];
            ("GET", "/v1/report/overview", query, Vec::new())
        } else {
            let body = format!(
                r#"{{"scenario":"small","seed":{}}}"#,
                rng.random_range(0u64..1000)
            );
            ("POST", "/v1/simulate", Vec::new(), body.into_bytes())
        };
        let target = match query.as_slice() {
            [] => path.to_string(),
            pairs => {
                let joined: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!("{path}?{}", joined.join("&"))
            }
        };
        let version = if http_10 { "HTTP/1.0" } else { "HTTP/1.1" };
        let mut head = format!("{method} {target} {version}{eol}Host: t{eol}");
        if close {
            head.push_str(&format!("Connection: close{eol}"));
        }
        let mut accept_gzip = false;
        if rng.random_bool(0.6) {
            let (list, gzip) = ENCODINGS[rng.random_range(0..ENCODINGS.len())];
            head.push_str(&format!("Accept-Encoding: {list}{eol}"));
            accept_gzip = gzip;
        }
        if !body.is_empty() {
            head.push_str(&format!("Content-Length: {}{eol}", body.len()));
        }
        head.push_str(eol);
        stream.extend_from_slice(head.as_bytes());
        stream.extend_from_slice(&body);
        let keep_alive = !http_10 && !close;
        expected.push((
            method.into(),
            path.into(),
            query,
            body,
            keep_alive,
            accept_gzip,
        ));
    }
    (stream, expected)
}

/// Feeds `pieces` to `parse_request` the way the event loop does: append
/// each piece to the connection buffer, then parse and drain `consumed`
/// until the parser wants more bytes. Returns the decoded requests, and
/// whether the parser rejected the buffer (which ends the connection).
fn decode_pieces(pieces: &[&[u8]]) -> (Vec<Decoded>, bool) {
    use dcf_serve::http::parse_request;
    let mut buf = Vec::new();
    let mut decoded = Vec::new();
    for piece in pieces {
        buf.extend_from_slice(piece);
        loop {
            match parse_request(&buf) {
                Ok(Some(parsed)) => {
                    assert!(parsed.consumed > 0, "a parsed request must consume bytes");
                    buf.drain(..parsed.consumed);
                    let r = parsed.request;
                    decoded.push((
                        r.method,
                        r.path,
                        r.query,
                        r.body,
                        parsed.keep_alive,
                        r.accept_gzip,
                    ));
                }
                Ok(None) => break,
                Err(_) => return (decoded, true),
            }
        }
    }
    (decoded, false)
}

/// A pipelined request stream decodes the same whether it arrives whole
/// or in two pieces cut at any byte offset, and a stream with any one
/// byte flipped returns `Ok` or `Err` without panicking, every parsed
/// request consuming at least one byte.
#[test]
fn http_stream_parses_the_same_split_at_every_offset() {
    cases::check(
        "http_stream_parses_the_same_split_at_every_offset",
        64,
        |rng| {
            let (stream, expected) = request_stream(rng);
            let (whole, rejected) = decode_pieces(&[&stream]);
            assert!(!rejected, "a well-formed stream was rejected");
            assert_eq!(whole, expected, "unsplit decode");
            for cut in 0..=stream.len() {
                let (head, tail) = stream.split_at(cut);
                assert_eq!(
                    decode_pieces(&[head, tail]),
                    (whole.clone(), false),
                    "cut at {cut}"
                );
            }
            for at in 0..stream.len() {
                let mut flipped = stream.clone();
                flipped[at] ^= rng.random_range(1u8..=255);
                decode_pieces(&[&flipped]);
            }
        },
    );
}

/// A seeded `POST /v1/simulate` body: the scenario, seed and threads
/// fields in random order and spacing, a string with escapes, and a
/// nested extra field holding numbers of every JSON shape.
fn scenario_body(rng: &mut StdRng) -> String {
    use dcfail::obs::json::write_string;
    const SCENARIOS: [&str; 4] = ["small", "medium", "paper", "caf\u{e9} \"snap\"\n"];
    const NUMBERS: [&str; 6] = ["0", "-0", "17", "-2.5", "6.02e23", "1E-7"];
    let space = |rng: &mut StdRng| " \n\t".repeat(rng.random_range(0..2));
    let mut scenario = String::new();
    write_string(
        &mut scenario,
        SCENARIOS[rng.random_range(0..SCENARIOS.len())],
    );
    let numbers: Vec<&str> = cases::vec_of(rng, 0..4, |r| NUMBERS[r.random_range(0..6)]);
    let mut fields = vec![
        format!("\"scenario\":{}{scenario}", space(rng)),
        format!("\"seed\":{}", rng.next_u64()),
        format!("\"threads\":{}", rng.random_range(0u32..16)),
        format!("\"extra\":[{{\"n\":[{}]}}, true, null]", numbers.join(",")),
    ];
    for i in (1..fields.len()).rev() {
        fields.swap(i, rng.random_range(0..=i));
    }
    fields.truncate(rng.random_range(1..=fields.len()));
    format!(
        "{{{}{}}}",
        space(rng),
        fields.join(&format!(",{}", space(rng)))
    )
}

/// The scenario JSON decoder of `POST /v1/simulate` returns `Ok` or `Err`
/// and never panics on a valid body cut at any offset or with any one byte
/// replaced, and rejects nesting far past its depth bound on a thread with
/// a 2 MiB stack instead of overflowing it.
#[test]
fn scenario_json_survives_truncation_flips_and_deep_nesting() {
    use dcfail::obs::json::parse;
    cases::check(
        "scenario_json_survives_truncation_flips_and_deep_nesting",
        48,
        |rng| {
            let body = scenario_body(rng);
            let value = parse(&body).unwrap_or_else(|e| panic!("{body:?}: {e}"));
            assert!(value.entries().is_some(), "{body:?}");
            if let Some(seed) = value.get("seed") {
                assert!(seed.as_u64().is_some(), "{body:?}");
            }
            for cut in 0..body.len() {
                if body.is_char_boundary(cut) {
                    let _ = parse(&body[..cut]);
                }
            }
            for at in 0..body.len() {
                let mut bytes = body.clone().into_bytes();
                bytes[at] = rng.random_range(0u8..=255);
                if let Ok(text) = std::str::from_utf8(&bytes) {
                    let _ = parse(text);
                }
            }
        },
    );
    let deep = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let arrays = "[".repeat(100_000);
            let objects = "{\"a\":".repeat(100_000);
            (parse(&arrays).is_err(), parse(&objects).is_err())
        })
        .expect("spawn a 2 MiB thread")
        .join()
        .expect("deep nesting must not overflow the stack");
    assert_eq!(deep, (true, true));
}
