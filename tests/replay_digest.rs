//! The replay event digest is byte-wise FNV-1a over every event line and
//! its newline. The replay folds ticket lines with `FnvJump` tables
//! instead of writing them, and writes σ lines' z-scores without
//! `std::fmt`; these tests hold both to the plain definitions.

use dcfail::core::replay::{push_fixed4, replay, ReplayConfig};
use dcfail::sim::{RunOptions, Scenario};
use dcfail::stats::anomaly::last_point_z;
use dcfail::trace::io::{fnv1a, FnvJump, FNV_OFFSET};
use dcfail::trace::{ComponentClass, FailureType, FotCategory, Severity, Trace};

mod common;

/// A SplitMix64 stream for the randomized cases.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The constant stretches of a replay ticket line, spelled out: the head
/// and keys, each class with its slot key, each failure type with its
/// severity and category key, and each category closing the line.
fn ticket_fragments() -> Vec<String> {
    let mut fragments: Vec<String> = [
        "{\"t\":\"fot\",\"off\":",
        ",\"id\":",
        ",\"day\":",
        ",\"server\":",
        ",\"dc\":",
    ]
    .map(String::from)
    .to_vec();
    for class in ComponentClass::ALL {
        fragments.push(format!(",\"class\":\"{}\",\"slot\":", class.name()));
    }
    for failure_type in FailureType::ALL {
        let sev = match failure_type.severity() {
            Severity::Warning => "warning",
            Severity::Fatal => "fatal",
        };
        fragments.push(format!(
            ",\"type\":\"{}\",\"sev\":\"{sev}\",\"cat\":",
            failure_type.name()
        ));
    }
    for category in FotCategory::ALL {
        fragments.push(format!("\"{}\"}}\n", category.name()));
    }
    fragments
}

#[test]
fn fnv_jumps_equal_fnv1a_over_fragments_and_random_strings() {
    let mut state = 0xF0F0_u64;
    let mut strings: Vec<Vec<u8>> = ticket_fragments()
        .into_iter()
        .map(String::into_bytes)
        .collect();
    assert_eq!(strings.len(), 5 + 11 + FailureType::ALL.len() + 3);
    for len in 0..=64 {
        for _ in 0..4 {
            strings.push((0..len).map(|_| splitmix(&mut state) as u8).collect());
        }
    }
    for s in &strings {
        let jump = FnvJump::new(s);
        // Random states, every low byte among them, and the offset basis.
        let mut states: Vec<u64> = (0..=255u64)
            .map(|low| splitmix(&mut state) & !0xFF | low)
            .collect();
        states.extend((0..64).map(|_| splitmix(&mut state)));
        states.extend([FNV_OFFSET, 0, u64::MAX]);
        for h in states {
            assert_eq!(jump.apply(h), fnv1a(h, s), "{:?} from {h:#x}", s);
        }
    }
}

/// Every event line, written as the CLI and `/v1/replay` write it, rehashes
/// to the digest the replay folded: the ticket lines of every row of the
/// small and medium traces (written by the one line writer) against
/// their jump-folded digest.
#[test]
fn folded_digest_equals_fnv1a_of_the_written_lines() {
    for trace in [common::small(), common::medium()] {
        let outcome = replay(trace, &ReplayConfig::default());
        let (mut digest, mut tickets) = (FNV_OFFSET, 0usize);
        outcome
            .for_each_line(trace, |event, line| {
                tickets += usize::from(!event.is_detection());
                digest = fnv1a(fnv1a(digest, line), b"\n");
                Ok::<_, ()>(())
            })
            .expect("hashing cannot fail");
        assert_eq!(tickets, trace.len());
        assert!(outcome.summary.detections > 0);
        assert_eq!(digest, outcome.summary.event_digest);
    }
}

/// The field `"key":value` of a JSON event line.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let rest = &line[line.find(&format!("\"{key}\":")).expect(key) + key.len() + 3..];
    rest[..rest.find([',', '}']).expect("a field ends")].trim_matches('"')
}

/// The z-score of every σ line of `trace`'s replay, recomputed from the
/// daily counts with the detector's own test, with the text of its z.
fn sigma_z_values(trace: &Trace) -> Vec<(f64, String)> {
    let config = ReplayConfig::default();
    let (start_day, days) = (trace.info().start.day_index(), trace.info().days as usize);
    let cols = trace.columns();
    let mut daily: std::collections::HashMap<(u8, u16), Vec<usize>> = Default::default();
    for row in 0..trace.len() {
        let day = u64::from(cols.error_days()[row]).checked_sub(start_day);
        if let Some(d) = day.filter(|&d| cols.is_failure(row) && d < days as u64) {
            let series = (cols.classes()[row], cols.data_centers()[row]);
            daily.entry(series).or_insert_with(|| vec![0; days])[d as usize] += 1;
        }
    }
    let mut values = Vec::new();
    replay(trace, &config)
        .for_each_line(trace, |_, line| {
            let line = std::str::from_utf8(line).expect("event lines are UTF-8");
            if !line.starts_with("{\"t\":\"sigma\"") {
                return Ok::<_, ()>(());
            }
            let class = ComponentClass::ALL
                .iter()
                .position(|c| c.name() == field(line, "class"))
                .expect("a known class") as u8;
            let dc: u16 = field(line, "dc").parse().expect("a dc");
            let d = (field(line, "day").parse::<u64>().expect("a day") - start_day) as usize;
            let counts = &daily[&(class, dc)];
            let window = &counts[d + 1 - config.sigma_window_days..=d];
            let z = last_point_z(window.iter().map(|&c| c as f64), config.sigma_k)
                .expect("a fit")
                .expect("the line's day is an outlier");
            values.push((z, field(line, "z").to_string()));
            Ok(())
        })
        .expect("collecting cannot fail");
    values
}

#[test]
fn sigma_z_text_equals_std_formatting() {
    let fixed4 = |v: f64| {
        let mut out = Vec::new();
        push_fixed4(&mut out, v);
        String::from_utf8(out).expect("ASCII")
    };
    let mut checked = 0;
    for seed in [1, 7] {
        let trace = Scenario::paper()
            .seed(seed)
            .simulate(&RunOptions::default())
            .expect("paper scenario runs");
        for (z, text) in sigma_z_values(&trace) {
            assert_eq!(format!("{z:.4}"), text, "seed {seed}");
            assert_eq!(fixed4(z), text, "seed {seed}: {z:?}");
            checked += 1;
        }
    }
    assert!(checked > 20_000, "{checked} σ lines");
    // Ties and near-ties at every fourth decimal, large and tiny values,
    // negative zero and non-finite values.
    let mut values = vec![
        0.0,
        -0.0,
        1e-5,
        -1e-5,
        0.00005,
        0.00015,
        2.5e-5,
        123.456_75,
        -2.000_05,
        4_294_967_295.999_95,
        4.3e5,
        1e300,
        f64::MAX,
        f64::MIN_POSITIVE,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    for n in 0..20_000u64 {
        let tie = (n as f64 + 0.5) / 10_000.0;
        values.extend([
            tie,
            -tie,
            f64::from_bits(tie.to_bits() + 1),
            f64::from_bits(tie.to_bits() - 1),
        ]);
    }
    let mut state = 0x2_u64;
    for _ in 0..100_000 {
        let scale = [1.0, 10.0, 1e4, 1e6, 1e9][(splitmix(&mut state) % 5) as usize];
        let v = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64 * scale;
        values.extend([v, -v]);
    }
    for v in values {
        assert_eq!(fixed4(v), format!("{v:.4}"), "{v:?}");
    }
}
