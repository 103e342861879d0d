//! Live replay with online detection (§VII tools, streamed).
//!
//! The paper's §VII tools — the warning→failure predictor and the FOT
//! context miner — are evaluated offline over a finished trace. This
//! module replays a trace as a **virtual-time ticket feed** and runs
//! *causal* versions of those analyses over the stream, the way an FMS
//! operator console would consume them live:
//!
//! * [`ReplayConfig::sigma_window_days`] — a sliding-window μ ± kσ rate
//!   detector per `(class, data center)`, built on
//!   [`dcf_stats::anomaly::sigma_outliers`] (the §IV anomaly test).
//! * A batch-burst detector mirroring [`crate::mining::FotMiner`]'s
//!   `BatchDay` flag with a causal, trend-extrapolated estimate of the
//!   full-window daily median (fleet intake ramps over the window, so a
//!   plain running median lags the miner's threshold and over-fires).
//! * An incremental form of [`crate::prediction::Prediction::evaluate`]
//!   that resolves warnings as their confirming fatals arrive: one
//!   `StreamCursor` per component, over the same per-component stream
//!   index the offline evaluation walks, fed as each ticket arrives.
//!
//! Every event — ticket or detection — is rendered as one canonical JSON
//! line with a virtual-time offset, and the whole stream is digested with
//! FNV-1a, so a replay is byte-identical at any playback speed. Ticket
//! events keep only their trace row: [`replay`] formats each ticket line
//! into one reused buffer to hash it, and writers format it again from
//! the trace as they send it ([`ReplayOutcome::for_each_line`]), so a
//! finished replay holds no ticket text. The final
//! [`ReplaySummary`] scores each online detector against the offline
//! study (precision/recall/F1 over the flagged `(class, dc, day)` /
//! `(class, day)` / predicted-fatal sets).

use dcf_trace::columns::category_from_tag;
use dcf_trace::io::{fnv1a, FNV_OFFSET};
use dcf_trace::{
    ComponentClass, FailureType, FotColumns, Severity, StreamIndex, Trace, SECS_PER_DAY,
};

use crate::prediction::{Horizon, Prediction, PredictorEval, PredictorTally, StreamCursor};

/// Number of component classes (Table II).
const CLASSES: usize = 11;

/// Tuning knobs for the online detectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig {
    /// Trailing window (days, including the day under test) for the
    /// sliding σ-outlier rate detector.
    pub sigma_window_days: usize,
    /// The paper's `k` in μ ± kσ (§IV uses 2).
    pub sigma_k: f64,
    /// Days of history before the burst detector starts firing — a trend
    /// fit over very few days is meaningless.
    pub burst_warmup_days: usize,
    /// Horizon for the incremental warning→fatal predictor.
    pub predictor_horizon_days: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            sigma_window_days: 30,
            sigma_k: 2.0,
            burst_warmup_days: 14,
            predictor_horizon_days: 30,
        }
    }
}

/// One event of the replay stream: a ticket or an online detection, with
/// its virtual-time offset from the window start.
///
/// Each event renders as one canonical single-line JSON object (stable
/// field order, fixed float precision), the unit the stream digest is
/// computed over; [`ReplayEvent::write_line`] produces it.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayEvent {
    /// Seconds of virtual time since the observation-window start.
    pub offset_secs: u64,
    /// What the event is.
    pub kind: EventKind,
}

/// A replay event's payload.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A replayed ticket, by its row in [`Trace::fots`]; its line is
    /// formatted from the trace when written.
    Ticket(u32),
    /// A detector event with its JSON line (newline not included).
    Detection(Box<str>),
}

impl ReplayEvent {
    /// `true` for detector events, `false` for replayed tickets.
    pub fn is_detection(&self) -> bool {
        matches!(self.kind, EventKind::Detection(_))
    }

    /// Appends the event's JSON line (newline not included) to `out`.
    /// `trace` must be the trace the event was replayed from.
    pub fn write_line(&self, trace: &Trace, out: &mut String) {
        match &self.kind {
            EventKind::Ticket(row) => {
                write_ticket_line(out, trace.columns(), *row as usize, self.offset_secs)
            }
            EventKind::Detection(line) => out.push_str(line),
        }
    }
}

/// Precision/recall of one online detector against the offline study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorScore {
    /// Events the online detector emitted.
    pub detections: usize,
    /// Items the offline analysis flags (the ground truth).
    pub truth: usize,
    /// Online detections also flagged offline.
    pub true_positives: usize,
    /// `true_positives / detections`.
    pub precision: f64,
    /// `true_positives / truth`.
    pub recall: f64,
}

impl DetectorScore {
    fn from_sets<T: Ord>(online: &[T], truth: &[T]) -> Self {
        debug_assert!(online.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
        debug_assert!(truth.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
        let tp = online
            .iter()
            .filter(|item| truth.binary_search(item).is_ok())
            .count();
        Self {
            detections: online.len(),
            truth: truth.len(),
            true_positives: tp,
            precision: tp as f64 / online.len().max(1) as f64,
            recall: tp as f64 / truth.len().max(1) as f64,
        }
    }

    /// Harmonic mean of precision and recall (0, never NaN, when empty).
    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision, self.recall);
        let sum = p + r;
        if sum.is_nan() || sum <= 0.0 {
            0.0
        } else {
            2.0 * p * r / sum
        }
    }
}

/// End-of-stream scorecard: per-detector precision/recall against the
/// offline study, plus the stream digest for byte-identity checks.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySummary {
    /// Tickets replayed (all categories — the feed carries false alarms
    /// too, exactly as the FMS would).
    pub tickets: usize,
    /// Detection events emitted across all three detectors.
    pub detections: usize,
    /// FNV-1a digest over every event line (tickets + detections), in
    /// stream order, before this summary.
    pub event_digest: u64,
    /// Sliding-window σ-outlier detector vs offline
    /// [`dcf_stats::anomaly::sigma_outliers`] over each full
    /// `(class, dc)` daily series.
    pub sigma: DetectorScore,
    /// Causal batch-burst detector vs [`crate::mining::FotMiner`]'s
    /// full-window `BatchDay` criterion.
    pub burst: DetectorScore,
    /// Incremental predictor's predicted-fatal events vs the offline
    /// §VII-A evaluation (exact replication: expect precision = recall = 1).
    pub predictor: DetectorScore,
    /// The predictor's own quality, computed online; byte-identical to
    /// [`Prediction::evaluate`] at the same horizon.
    pub predictor_eval: PredictorEval,
}

/// A finished replay: the full event stream plus its scorecard.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Tickets and detections in virtual-time order.
    pub events: Vec<ReplayEvent>,
    /// The end-of-stream scorecard.
    pub summary: ReplaySummary,
    /// The scorecard rendered as the stream's final JSON line (it embeds
    /// the event digest, so it is *not* part of the digest itself).
    pub summary_line: String,
}

impl ReplayOutcome {
    /// Calls `f` with every event and its JSON line (newline not
    /// included), in stream order, formatting ticket lines from `trace`
    /// into one reused buffer. Stops at the first error `f` returns.
    /// `trace` must be the trace the outcome was replayed from.
    ///
    /// # Errors
    ///
    /// Returns the first error `f` returns.
    pub fn for_each_line<E>(
        &self,
        trace: &Trace,
        mut f: impl FnMut(&ReplayEvent, &str) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut line = String::with_capacity(256);
        for event in &self.events {
            line.clear();
            event.write_line(trace, &mut line);
            f(event, &line)?;
        }
        Ok(())
    }
}

/// Stream tag of a row in no component stream (false alarms, misc).
const NO_STREAM: u32 = u32::MAX;

/// Floor of the batch-burst threshold: a day fires only above
/// `max(5 × median, BURST_FLOOR)` failures, as in the miner's `BatchDay`.
const BURST_FLOOR: usize = 10;

/// Appends one canonical JSON event line to a `String`:
/// `json_line!(out, "type", "key" => writer(value), …)`, where each
/// writer appends one value. Every key with its punctuation is one
/// literal.
macro_rules! json_line {
    ($out:expr, $t:literal $(, $key:literal => $write:ident($value:expr))* $(,)?) => {{
        let out: &mut String = $out;
        out.push_str(concat!("{\"t\":\"", $t, "\""));
        $(
            out.push_str(concat!(",\"", $key, "\":"));
            $write(out, $value);
        )*
        out.push('}');
    }};
}

/// Appends the decimal digits of `v`.
fn push_uint(out: &mut String, v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let mut v = v;
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

/// Appends `v` with four decimals.
fn push_fixed4(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    write!(out, "{v:.4}").expect("writing to a String cannot fail");
}

/// Appends `s` to `out` as a JSON string literal. Class and failure type
/// names are plain ASCII and are copied as they are; the escapes only
/// guard the general case.
fn push_json_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    if s.bytes().all(|b| b != b'"' && b != b'\\' && b >= b' ') {
        out.push_str(s);
    } else {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if c < ' ' => {
                    out.push_str("\\u00");
                    out.push(HEX[c as usize >> 4] as char);
                    out.push(HEX[c as usize & 0xf] as char);
                }
                c => out.push(c),
            }
        }
    }
    out.push('"');
}

/// Median (upper middle for even lengths) of `values`, selected in `buf`.
fn median_in(buf: &mut Vec<usize>, values: &[usize]) -> usize {
    buf.clear();
    buf.extend_from_slice(values);
    select_median(buf)
}

fn select_median(v: &mut [usize]) -> usize {
    let mid = v.len() / 2;
    *v.select_nth_unstable(mid).1
}

/// The causal batch-burst threshold for day `d` of `counts`, one class's
/// daily failure counts over the whole window (days after `d` are not
/// read).
///
/// It estimates the *full-window* daily median. Fleet intake ramps over
/// the window, so the plain running median lags the miner's full-window
/// median and over-fires early. Instead, fit a spike-robust trend (slope
/// between the medians of the two observed halves — burst days barely
/// move a median, unlike a least-squares fit), extend the observed series
/// to the announced window length along that trend, and take the median
/// of observed + extrapolated. Once past the window midpoint this
/// converges on the true full-window median for any ~monotone rate curve.
fn burst_threshold(counts: &[usize], d: usize, buf: &mut Vec<usize>) -> usize {
    let half = d.div_ceil(2);
    let m1 = median_in(buf, &counts[..half.max(1)]) as f64;
    let m2 = median_in(buf, &counts[half..=d]) as f64;
    // Each half's median sits at the half's center day.
    let c1 = (half.max(1) as f64 - 1.0) / 2.0;
    let c2 = half as f64 + (d - half) as f64 / 2.0;
    let slope = if c2 > c1 { (m2 - m1) / (c2 - c1) } else { 0.0 };
    buf.clear();
    buf.extend_from_slice(&counts[..=d]);
    buf.extend(
        ((d + 1)..counts.len()).map(|x| (m2 + slope * (x as f64 - c2)).max(0.0).round() as usize),
    );
    (select_median(buf) * 5).max(BURST_FLOOR)
}

/// The z-score of the last point of `window` when
/// [`dcf_stats::anomaly::sigma_outliers`] flags it, computed in `buf`.
///
/// Most windows are settled in exact integer arithmetic first, without
/// the test. With `n` points, sum `s` and sum of squares `q`,
/// `n·q − s²` is `n²` times the variance and `(n·x − s)²` is `n²` times
/// the last point's squared deviation, so their ratio is its exact `z²`:
///
/// * a flat window (all counts equal, all-zero included) has zero
///   variance, which the test rejects as degenerate;
/// * an exact `z²` below `0.99·k²` leaves the last point well inside
///   `μ ± kσ`, far beyond the test's floating-point rounding.
///
/// Every other window runs the test itself, so flagged z-scores are its
/// own, to the bit.
fn sigma_last_point(window: &[usize], k: f64, buf: &mut Vec<f64>) -> Option<f64> {
    let (n, last) = (window.len() as i128, *window.last()? as i128);
    let (s, q) = window.iter().fold((0i128, 0i128), |(s, q), &c| {
        let c = c as i128;
        (s + c, q + c * c)
    });
    let spread = n * q - s * s;
    if spread == 0 {
        return None;
    }
    let deviation = n * last - s;
    if k >= 0.0 && ((deviation * deviation) as f64) < 0.99 * k * k * spread as f64 {
        return None;
    }
    buf.clear();
    buf.extend(window.iter().map(|&c| c as f64));
    let hits = dcf_stats::anomaly::sigma_outliers(buf, k).ok()?;
    let last = window.len() - 1;
    hits.iter().find(|a| a.index == last).map(|a| a.z_score)
}

/// The event stream under construction, with its running digest.
struct Feed {
    events: Vec<ReplayEvent>,
    digest: u64,
    detections: usize,
}

impl Feed {
    /// Folds one event line into the digest.
    fn hash(&mut self, line: &str) {
        self.digest = fnv1a(fnv1a(self.digest, line.as_bytes()), b"\n");
    }

    /// Appends the ticket at `row`, whose JSON line is `line`.
    fn ticket(&mut self, offset_secs: u64, row: u32, line: &str) {
        self.hash(line);
        self.events.push(ReplayEvent {
            offset_secs,
            kind: EventKind::Ticket(row),
        });
    }

    /// Appends a detection event with its JSON line.
    fn detect(&mut self, offset_secs: u64, line: String) {
        self.hash(&line);
        self.detections += 1;
        self.events.push(ReplayEvent {
            offset_secs,
            kind: EventKind::Detection(line.into_boxed_str()),
        });
    }
}

/// The day-granular detectors: daily failure counts per class and per
/// `(class, data center)`, and the detections they fired.
struct DayDetectors {
    days: usize,
    /// Start of the window and its day index.
    start_secs: u64,
    start_day: u64,
    /// Daily failure counts per class, full window, zeros included. The
    /// burst detector reads days up to the one it closes; once the stream
    /// ends the same counts are the offline truth's input.
    daily: Vec<Vec<usize>>,
    /// Data-center ids span `0..n_dc`.
    n_dc: usize,
    /// Daily failure counts per `(class, dc)` series, series
    /// `class * n_dc + dc` at `[series * days..][..days]`. Ascending
    /// series order is `(class, dc)` order, the order detections come out
    /// in at each day close.
    dc_daily: Vec<usize>,
    /// Online detections, `(class, day)` and `(class, dc, day)`.
    burst: Vec<(usize, usize)>,
    sigma: Vec<(usize, u16, usize)>,
    counts_buf: Vec<usize>,
    window_buf: Vec<f64>,
}

impl DayDetectors {
    fn count(&mut self, class_idx: usize, dc: u16, d: usize) {
        self.daily[class_idx][d] += 1;
        self.dc_daily[(class_idx * self.n_dc + dc as usize) * self.days + d] += 1;
    }

    /// Closes day `d`: runs the day-granular detectors over everything
    /// seen up to and including `d`, emitting events at the day boundary.
    fn close_day(&mut self, d: usize, config: &ReplayConfig, feed: &mut Feed) {
        let off = ((self.start_day + d as u64 + 1) * SECS_PER_DAY).saturating_sub(self.start_secs);
        let day = self.start_day + d as u64;
        if d + 1 >= config.burst_warmup_days {
            for (class_idx, counts) in self.daily.iter().enumerate() {
                let count = counts[d];
                // The threshold is at least the floor: skip computing it
                // for days that cannot exceed it.
                if count <= BURST_FLOOR {
                    continue;
                }
                let threshold = burst_threshold(counts, d, &mut self.counts_buf);
                if count > threshold {
                    self.burst.push((class_idx, d));
                    let mut line = String::with_capacity(128);
                    json_line!(
                        &mut line,
                        "burst",
                        "off" => push_uint(off),
                        "day" => push_uint(day),
                        "class" => push_json_str(ComponentClass::ALL[class_idx].name()),
                        "count" => push_uint(count as u64),
                        "threshold" => push_uint(threshold as u64),
                    );
                    feed.detect(off, line);
                }
            }
        }
        // Sliding-window σ-outlier per (class, dc).
        let w = config.sigma_window_days;
        if d + 1 >= w && w >= 3 {
            for (series, counts) in self.dc_daily.chunks_exact(self.days).enumerate() {
                let window = &counts[d + 1 - w..=d];
                let Some(z) = sigma_last_point(window, config.sigma_k, &mut self.window_buf) else {
                    continue;
                };
                let (class_idx, dc) = (series / self.n_dc, (series % self.n_dc) as u16);
                self.sigma.push((class_idx, dc, d));
                let mut line = String::with_capacity(128);
                json_line!(
                    &mut line,
                    "sigma",
                    "off" => push_uint(off),
                    "day" => push_uint(day),
                    "class" => push_json_str(ComponentClass::ALL[class_idx].name()),
                    "dc" => push_uint(dc as u64),
                    "count" => push_uint(counts[d] as u64),
                    "z" => push_fixed4(z),
                );
                feed.detect(off, line);
            }
        }
    }
}

/// Replays `trace` as a virtual-time ticket feed with the three online
/// detectors attached, and scores them against the offline study.
///
/// The result is a pure function of `(trace, config)` — playback speed is
/// a delivery concern layered on top by the CLI and the HTTP streamer.
///
/// Tickets outside the observation window still stream, count in
/// [`ReplaySummary::tickets`] and feed the predictor, but feed no daily
/// count; days close exactly for the window's `0..days`.
pub fn replay(trace: &Trace, config: &ReplayConfig) -> ReplayOutcome {
    let info = trace.info();
    let start = info.start;
    let start_day = start.day_index();
    let days = info.days as usize;
    let cols = trace.columns();
    let dcs = cols.data_centers();
    let n_dc = trace
        .index()
        .failure_ids()
        .iter()
        .map(|&row| dcs[row as usize] as usize + 1)
        .max()
        .unwrap_or(0);

    let mut feed = Feed {
        events: Vec::with_capacity(trace.fots().len() + 1024),
        digest: FNV_OFFSET,
        detections: 0,
    };
    let mut detectors = DayDetectors {
        days,
        start_secs: start.as_secs(),
        start_day,
        daily: vec![vec![0usize; days]; CLASSES],
        n_dc,
        dc_daily: vec![0usize; CLASSES * n_dc * days],
        burst: Vec::new(),
        sigma: Vec::new(),
        counts_buf: Vec::with_capacity(days),
        window_buf: Vec::with_capacity(config.sigma_window_days),
    };

    // Incremental predictor: one cursor per component stream, looked up
    // through each failure row's stream id. The ticket itself carries the
    // event's time and severity, so only a fatal that resolves earlier
    // warnings reads its stream.
    let horizon = Horizon::new(trace, config.predictor_horizon_days);
    let streams = trace.streams();
    let mut stream_of_row = vec![NO_STREAM; trace.len()];
    for c in 0..streams.len() {
        for &row in streams.rows(c) {
            stream_of_row[row as usize] = c as u32;
        }
    }
    let mut cursors = vec![StreamCursor::default(); streams.len()];
    let mut tally = PredictorTally::default();
    let mut online_predicted: Vec<((u32, u8, u8), usize)> = Vec::new(); // (component, seq)

    let mut cur_day = 0usize;
    let mut line = String::with_capacity(256);
    let (classes, types, days_of) = (cols.classes(), cols.failure_types(), cols.error_days());
    for row in 0..trace.len() {
        let t = cols.error_secs(row);
        // Day within the window; `None` before it, `>= days` after it.
        let day = u64::from(days_of[row])
            .checked_sub(start_day)
            .map(|d| d as usize);
        while cur_day < day.map_or(0, |d| d.min(days)) {
            detectors.close_day(cur_day, config, &mut feed);
            cur_day += 1;
        }
        let off = t.saturating_sub(start.as_secs());
        line.clear();
        write_ticket_line(&mut line, cols, row, off);
        feed.ticket(off, row as u32, &line);
        if !cols.is_failure(row) {
            continue; // false alarms ride the feed but feed no detector
        }
        let class_idx = classes[row] as usize;
        if let Some(d) = day.filter(|&d| d < days) {
            detectors.count(class_idx, dcs[row], d);
        }
        let c = match stream_of_row[row] {
            NO_STREAM => continue, // manual tickets have no component to predict
            c => c as usize,
        };
        let warning = FailureType::ALL[types[row] as usize].severity() == Severity::Warning;
        if let Some(seq) = cursors[c].advance(streams, c, (t, warning), horizon, &mut tally) {
            online_predicted.push((streams.component(c), seq));
            let mut line = String::with_capacity(128);
            json_line!(
                &mut line,
                "predict",
                "off" => push_uint(off),
                "day" => push_uint(days_of[row].into()),
                "server" => push_uint(cols.servers()[row].into()),
                "class" => push_json_str(ComponentClass::ALL[class_idx].name()),
                "slot" => push_uint(cols.device_slots()[row].into()),
            );
            feed.detect(off, line);
        }
    }
    while cur_day < days {
        detectors.close_day(cur_day, config, &mut feed);
        cur_day += 1;
    }
    let predictor_eval = tally.eval(config.predictor_horizon_days);

    // ---- Offline ground truths ----
    // Burst: FotMiner's BatchDay criterion with the full-window median.
    let mut truth_burst: Vec<(usize, usize)> = Vec::new();
    for (class_idx, counts) in detectors.daily.iter().enumerate() {
        if counts.is_empty() {
            continue; // a zero-day window has no days to flag
        }
        let threshold = (median_in(&mut detectors.counts_buf, counts) * 5).max(BURST_FLOOR);
        for (d, &count) in counts.iter().enumerate() {
            if count > threshold {
                truth_burst.push((class_idx, d));
            }
        }
    }
    truth_burst.sort_unstable();
    // Sigma: the §IV test over each full (class, dc) daily series.
    let mut truth_sigma: Vec<(usize, u16, usize)> = Vec::new();
    for (series, counts) in detectors.dc_daily.chunks_exact(days.max(1)).enumerate() {
        let values: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        if let Ok(hits) = dcf_stats::anomaly::sigma_outliers(&values, config.sigma_k) {
            let (class_idx, dc) = (series / n_dc, (series % n_dc) as u16);
            truth_sigma.extend(hits.iter().map(|hit| (class_idx, dc, hit.index)));
        }
    }
    truth_sigma.sort_unstable();
    // Predictor: the offline §VII-A scan, collecting the predicted-fatal
    // set (the same scan `Prediction::evaluate` counts over).
    let truth_predicted = offline_predicted_set(streams, horizon);

    let mut online_burst = detectors.burst;
    let mut online_sigma = detectors.sigma;
    online_burst.sort_unstable();
    online_sigma.sort_unstable();
    online_predicted.sort_unstable();

    let summary = ReplaySummary {
        tickets: trace.len(),
        detections: feed.detections,
        event_digest: feed.digest,
        sigma: DetectorScore::from_sets(&online_sigma, &truth_sigma),
        burst: DetectorScore::from_sets(&online_burst, &truth_burst),
        predictor: DetectorScore::from_sets(&online_predicted, &truth_predicted),
        predictor_eval,
    };
    let summary_line = summary_line(&summary);
    ReplayOutcome {
        events: feed.events,
        summary,
        summary_line,
    }
}

/// Appends the JSON line of ticket row `row` at offset `off`, read
/// straight from the columns.
fn write_ticket_line(out: &mut String, cols: &FotColumns, row: usize, off: u64) {
    let failure_type = FailureType::ALL[cols.failure_types()[row] as usize];
    let sev = match failure_type.severity() {
        Severity::Warning => "warning",
        Severity::Fatal => "fatal",
    };
    let class = ComponentClass::ALL[cols.classes()[row] as usize];
    json_line!(
        out,
        "fot",
        "off" => push_uint(off),
        "id" => push_uint(cols.ids()[row]),
        "day" => push_uint(cols.error_days()[row].into()),
        "server" => push_uint(cols.servers()[row].into()),
        "dc" => push_uint(cols.data_centers()[row].into()),
        "class" => push_json_str(class.name()),
        "slot" => push_uint(cols.device_slots()[row].into()),
        "type" => push_json_str(failure_type.name()),
        "sev" => push_json_str(sev),
        "cat" => push_json_str(category_from_tag(cols.categories()[row]).name()),
    );
}

fn score_json(score: &DetectorScore) -> String {
    format!(
        "{{\"detections\":{},\"truth\":{},\"tp\":{},\"precision\":{:.4},\"recall\":{:.4},\"f1\":{:.4}}}",
        score.detections,
        score.truth,
        score.true_positives,
        score.precision,
        score.recall,
        score.f1(),
    )
}

fn summary_line(s: &ReplaySummary) -> String {
    let e = &s.predictor_eval;
    format!(
        "{{\"t\":\"summary\",\"tickets\":{tickets},\"detections\":{detections},\"digest\":\"{digest:016x}\",\"sigma\":{sigma},\"burst\":{burst},\"predictor\":{predictor},\"predictor_eval\":{{\"horizon_days\":{h},\"warnings\":{w},\"confirmed\":{c},\"fatals\":{f},\"predicted\":{p},\"precision\":{prec:.4},\"recall\":{rec:.4},\"f1\":{f1:.4}}}}}",
        tickets = s.tickets,
        detections = s.detections,
        digest = s.event_digest,
        sigma = score_json(&s.sigma),
        burst = score_json(&s.burst),
        predictor = score_json(&s.predictor),
        h = e.horizon_days,
        w = e.warnings,
        c = e.confirmed_warnings,
        f = e.fatals,
        p = e.predicted_fatals,
        prec = e.precision,
        rec = e.recall,
        f1 = e.f1(),
    )
}

/// The offline predicted-fatal set: component key plus the fatal's index
/// in its per-component event stream — the identity
/// [`Prediction::evaluate`] counts as `predicted_fatals`. Streams are in
/// component order and positions ascend, so the set comes out sorted.
fn offline_predicted_set(streams: &StreamIndex, horizon: Horizon) -> Vec<((u32, u8, u8), usize)> {
    let mut tally = PredictorTally::default();
    let mut out = Vec::new();
    for c in 0..streams.len() {
        let stream = streams.stream(c);
        let mut cursor = StreamCursor::default();
        for event in stream
            .times()
            .iter()
            .copied()
            .zip(stream.warnings().iter().copied())
        {
            if let Some(seq) = cursor.advance(streams, c, event, horizon, &mut tally) {
                out.push((streams.component(c), seq));
            }
        }
    }
    out
}

/// Convenience: the offline [`Prediction::evaluate`] at the replay
/// horizon — what [`ReplaySummary::predictor_eval`] must equal.
pub fn offline_eval(trace: &Trace, config: &ReplayConfig) -> PredictorEval {
    Prediction::new(trace).evaluate(config.predictor_horizon_days, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{medium_trace, synthetic_trace};
    use dcf_trace::{SimDuration, TraceInfo};

    /// Every event's JSON line, in stream order.
    fn lines(out: &ReplayOutcome, trace: &Trace) -> Vec<String> {
        let mut lines = Vec::with_capacity(out.events.len());
        out.for_each_line(trace, |_, line| {
            lines.push(line.to_owned());
            Ok::<_, ()>(())
        })
        .expect("collecting cannot fail");
        lines
    }

    #[test]
    fn replay_is_deterministic_and_digest_matches_lines() {
        let trace = medium_trace();
        let config = ReplayConfig::default();
        let a = replay(&trace, &config);
        let b = replay(&trace, &config);
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.events.len(), b.events.len());
        assert_eq!(a.summary_line, b.summary_line);
        // Recompute the digest from the lines.
        let mut h = FNV_OFFSET;
        for line in lines(&a, &trace) {
            h = fnv1a(fnv1a(h, line.as_bytes()), b"\n");
        }
        assert_eq!(h, a.summary.event_digest);
    }

    #[test]
    fn ticket_events_hold_their_row_not_their_line() {
        let trace = synthetic_trace();
        let out = replay(&trace, &ReplayConfig::default());
        let rows = out.events.iter().filter_map(|e| match e.kind {
            EventKind::Ticket(row) => Some(row as usize),
            EventKind::Detection(_) => None,
        });
        assert!(rows.eq(0..trace.len()), "every row once, in order");
        // An offset plus a row or a boxed detection line: 24 bytes per event.
        assert!(std::mem::size_of::<ReplayEvent>() <= 24);
    }

    #[test]
    fn offsets_are_monotone_and_events_well_formed() {
        let trace = medium_trace();
        let out = replay(&trace, &ReplayConfig::default());
        assert!(out
            .events
            .windows(2)
            .all(|w| w[0].offset_secs <= w[1].offset_secs));
        for line in lines(&out, &trace) {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(!line.contains('\n'));
        }
        let tickets = out.events.iter().filter(|e| !e.is_detection()).count();
        assert_eq!(tickets, trace.len());
        assert_eq!(out.summary.tickets, trace.len());
    }

    #[test]
    fn online_predictor_matches_offline_exactly() {
        let trace = medium_trace();
        let config = ReplayConfig::default();
        let out = replay(&trace, &config);
        let offline = offline_eval(&trace, &config);
        assert_eq!(out.summary.predictor_eval, offline);
        // Exact replication: the predicted-fatal sets are identical.
        assert_eq!(out.summary.predictor.precision, 1.0);
        assert_eq!(out.summary.predictor.recall, 1.0);
        assert!(out.summary.predictor.truth > 0, "fixture has repeats");
    }

    #[test]
    fn burst_detector_tracks_the_offline_miner_closely() {
        let trace = medium_trace();
        let out = replay(&trace, &ReplayConfig::default());
        let burst = out.summary.burst;
        assert!(burst.truth > 0, "medium fixture has batch days: {burst:?}");
        assert!(
            burst.f1() >= 0.8,
            "causal burst detector should closely track the miner: {burst:?}"
        );
    }

    #[test]
    fn sigma_detector_fires_and_scores_sanely() {
        let trace = medium_trace();
        let out = replay(&trace, &ReplayConfig::default());
        let sigma = out.summary.sigma;
        assert!(sigma.detections > 0, "{sigma:?}");
        assert!((0.0..=1.0).contains(&sigma.precision));
        assert!((0.0..=1.0).contains(&sigma.recall));
    }

    #[test]
    fn detection_counts_are_consistent() {
        let trace = medium_trace();
        let out = replay(&trace, &ReplayConfig::default());
        let detection_events = out.events.iter().filter(|e| e.is_detection()).count();
        assert_eq!(detection_events, out.summary.detections);
        assert_eq!(
            out.summary.detections,
            out.summary.sigma.detections
                + out.summary.burst.detections
                + out.summary.predictor.detections
        );
    }

    /// The acceptance seeds: at every seed, the replayed event sequence
    /// is a pure function of the trace (so byte-identical no matter how
    /// or how fast it is later streamed), and the incremental predictor
    /// reproduces the offline `Prediction::evaluate` exactly.
    #[test]
    fn replay_matches_offline_scoring_across_seeds() {
        for seed in [1u64, 7, 42] {
            let trace = dcf_sim::Scenario::small()
                .seed(seed)
                .simulate(&dcf_sim::RunOptions::default())
                .expect("small scenario runs");
            let config = ReplayConfig::default();
            let a = replay(&trace, &config);
            let b = replay(&trace, &config);
            assert_eq!(
                lines(&a, &trace),
                lines(&b, &trace),
                "seed {seed}: event sequence not reproducible"
            );
            assert_eq!(a.summary_line, b.summary_line, "seed {seed}");
            assert_eq!(
                a.summary.predictor_eval,
                offline_eval(&trace, &config),
                "seed {seed}: online predictor diverged from offline evaluate"
            );
            assert_eq!(a.summary.predictor.precision, 1.0, "seed {seed}");
            assert_eq!(a.summary.predictor.recall, 1.0, "seed {seed}");
        }
    }

    #[test]
    fn json_escape_handles_specials() {
        let escaped = |s: &str| {
            let mut out = String::new();
            push_json_str(&mut out, s);
            out
        };
        assert_eq!(escaped("HDD"), "\"HDD\"");
        assert_eq!(escaped("a\"b"), "\"a\\\"b\"");
        assert_eq!(escaped("a\\b"), "\"a\\\\b\"");
        assert_eq!(escaped("a\nb"), "\"a\\u000ab\"");
    }

    /// Tickets before the window start and after its end stream and feed
    /// the predictor, but count on no day and close no extra day.
    #[test]
    fn tickets_outside_the_window_stream_without_daily_counts() {
        let full = synthetic_trace();
        let info = full.info();
        // Narrow the window by 5 days at each end of the simulated span.
        let narrowed = TraceInfo {
            start: info.start + SimDuration::from_days(5),
            days: info.days - 10,
            ..info.clone()
        };
        let trace = Trace::new(
            narrowed,
            full.servers().to_vec(),
            full.data_centers().to_vec(),
            full.product_lines().to_vec(),
            full.fots().iter().collect(),
        )
        .expect("same tickets, narrower window");
        let (start, end) = (trace.info().start, trace.end_time());
        assert!(trace.fots().iter().any(|f| f.error_time < start));
        assert!(trace
            .fots()
            .iter()
            .any(|f| f.error_time >= end + SimDuration::from_days(3)));

        let config = ReplayConfig::default();
        let out = replay(&trace, &config);
        assert_eq!(out.summary.tickets, trace.len());
        let tickets = out.events.iter().filter(|e| !e.is_detection()).count();
        assert_eq!(tickets, trace.len());
        assert!(out
            .events
            .windows(2)
            .all(|w| w[0].offset_secs <= w[1].offset_secs));
        assert_eq!(out.summary.predictor_eval, offline_eval(&trace, &config));
        assert_eq!(out.summary.predictor.precision, 1.0);
        assert_eq!(out.summary.predictor.recall, 1.0);
        // Day-close detections all fall on window days.
        let window_days = start.day_index()..end.day_index();
        out.for_each_line(&trace, |e, line| {
            if !line.starts_with("{\"t\":\"burst\"") && !line.starts_with("{\"t\":\"sigma\"") {
                return Ok::<_, ()>(());
            }
            let day: u64 = line
                .split("\"day\":")
                .nth(1)
                .and_then(|rest| rest.split(',').next().and_then(|d| d.parse().ok()))
                .expect("detection lines carry a day");
            assert!(window_days.contains(&day), "{line}");
            assert!(e.offset_secs <= end.since(start).as_secs(), "{line}");
            Ok(())
        })
        .expect("checks panic instead of failing");
    }

    /// A small seeded generator for the exactness tests (SplitMix64).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The burst threshold as first written: full sorts of fresh copies.
    fn burst_threshold_by_sorting(counts: &[usize], d: usize) -> usize {
        let days = counts.len();
        let half = d.div_ceil(2);
        let median_of = |mut v: Vec<usize>| -> usize {
            v.sort_unstable();
            v[v.len() / 2]
        };
        let m1 = median_of(counts[..half.max(1)].to_vec()) as f64;
        let m2 = median_of(counts[half..=d].to_vec()) as f64;
        let c1 = (half.max(1) as f64 - 1.0) / 2.0;
        let c2 = half as f64 + (d - half) as f64 / 2.0;
        let slope = if c2 > c1 { (m2 - m1) / (c2 - c1) } else { 0.0 };
        let mut padded: Vec<usize> = counts[..=d].to_vec();
        for x in (d + 1)..days {
            padded.push((m2 + slope * (x as f64 - c2)).max(0.0).round() as usize);
        }
        (median_of(padded) * 5).max(10)
    }

    #[test]
    fn burst_threshold_matches_the_sorting_formula() {
        let mut state = 0xB057_u64;
        let mut buf = Vec::new();
        for case in 0..200 {
            let days = 1 + (splitmix(&mut state) % 400) as usize;
            // Ramping, flat and spiky series, all with small counts.
            let ramp = splitmix(&mut state) % 3;
            let counts: Vec<usize> = (0..days)
                .map(|x| {
                    let base = (splitmix(&mut state) % 8) as usize + x * ramp as usize / 40;
                    if splitmix(&mut state).is_multiple_of(50) {
                        base * 20
                    } else {
                        base
                    }
                })
                .collect();
            for d in 0..days {
                assert_eq!(
                    burst_threshold(&counts, d, &mut buf),
                    burst_threshold_by_sorting(&counts, d),
                    "case {case} day {d} of {days}"
                );
            }
        }
    }

    /// The σ check as first written: the full test on every window.
    fn sigma_last_point_by_test(window: &[usize], k: f64) -> Option<f64> {
        let values: Vec<f64> = window.iter().map(|&c| c as f64).collect();
        let hits = dcf_stats::anomaly::sigma_outliers(&values, k).ok()?;
        hits.iter()
            .find(|a| a.index == window.len() - 1)
            .map(|a| a.z_score)
    }

    #[test]
    fn sigma_last_point_matches_the_full_test() {
        let mut windows: Vec<Vec<usize>> = vec![
            vec![0; 30],
            vec![7; 30],
            [vec![0; 29], vec![1]].concat(),
            [vec![2; 29], vec![40]].concat(),
            [vec![40], vec![2; 29]].concat(),
            [vec![5; 29], vec![0]].concat(),
            vec![1, 2, 3],
            vec![0, 0, 9],
        ];
        let mut state = 0x0005_163A_u64;
        for _ in 0..5_000 {
            let len = 3 + (splitmix(&mut state) % 40) as usize;
            let scale = 1 + splitmix(&mut state) % 12;
            let mut w: Vec<usize> = (0..len)
                .map(|_| (splitmix(&mut state) % scale) as usize)
                .collect();
            if splitmix(&mut state).is_multiple_of(4) {
                *w.last_mut().expect("non-empty") += (splitmix(&mut state) % 30) as usize;
            }
            windows.push(w);
        }
        let mut buf = Vec::new();
        for k in [0.0, 1.0, 2.0, 2.5, 3.0] {
            for w in &windows {
                let fast = sigma_last_point(w, k, &mut buf);
                let full = sigma_last_point_by_test(w, k);
                assert_eq!(
                    fast.map(f64::to_bits),
                    full.map(f64::to_bits),
                    "k {k} window {w:?}"
                );
            }
        }
    }
}
