//! Live replay with online detection (§VII tools, streamed).
//!
//! The paper's §VII tools — the warning→failure predictor and the FOT
//! context miner — are evaluated offline over a finished trace. This
//! module replays a trace as a **virtual-time ticket feed** and runs
//! *causal* versions of those analyses over the stream, the way an FMS
//! operator console would consume them live:
//!
//! * [`ReplayConfig::sigma_window_days`] — a sliding-window μ ± kσ rate
//!   detector per `(class, data center)`, the §IV anomaly test of
//!   [`dcf_stats::anomaly`]. Daily counts are stored day-major, and each
//!   series keeps a running sum and sum of squares over its window, so a
//!   day close reads one contiguous row. Most windows are settled in
//!   exact integer arithmetic; the rest run
//!   [`dcf_stats::anomaly::last_point_z`], the same fit and z-score
//!   [`dcf_stats::anomaly::sigma_outliers`] uses, to the bit.
//! * A batch-burst detector mirroring [`crate::mining::FotMiner`]'s
//!   `BatchDay` flag with a causal, trend-extrapolated estimate of the
//!   full-window daily median (fleet intake ramps over the window, so a
//!   plain running median lags the miner's threshold and over-fires).
//!   Each class keeps sorted views of its observed days and of their two
//!   halves in step with the closing day; the half medians are read by
//!   index, and the full-window median is a binary search over the
//!   observed days merged with the monotone extrapolated ramp.
//! * An incremental form of [`crate::prediction::Prediction::evaluate`]
//!   that resolves warnings as their confirming fatals arrive: one
//!   `StreamCursor` per component, over the same per-component stream
//!   index the offline evaluation walks, fed as each ticket arrives.
//!
//! Every event — ticket or detection — is rendered as one canonical JSON
//! line with a virtual-time offset, and the whole stream is digested with
//! byte-wise FNV-1a, so a replay is byte-identical at any playback speed.
//! Ticket events keep only their trace row, so a finished replay holds no
//! ticket text: one writer formats a ticket line from the columns as it
//! is sent ([`ReplayOutcome::for_each_line`]), with its constant
//! stretches (class, type and severity, category) escaped once into a
//! table and its integers written two digits at a time.
//!
//! The digest never writes a ticket line. FNV-1a over a fixed string `s`
//! is exactly `fnv1a(h, s) = h·P^|s| + A_s[h & 0xFF]` (mod 2^64) for a
//! 256-entry table `A_s` ([`dcf_trace::io::FnvJump`]), so each constant
//! stretch of a line is one jump and only the integers' digits are
//! hashed byte by byte. The digest is still one serial chain through the
//! stream's bytes, so a second thread folds it while the detectors run:
//! every trace row streams as a ticket, in row order, and the feed sends
//! that thread the detection lines with the number of tickets before
//! each. The final [`ReplaySummary`] scores the σ and burst
//! detectors against the offline study (precision/recall/F1 over the
//! flagged `(class, dc, day)` / `(class, day)` sets) and carries the
//! predictor's own evaluation. The online predictor's predicted-fatal set
//! equals the offline one by construction (the same cursor walks the same
//! streams), so no score is computed for it; the tests check the two
//! sets against each other instead.

use std::sync::{mpsc, OnceLock};

use dcf_trace::io::{fnv1a, FnvJump, FNV_OFFSET};
use dcf_trace::{
    ComponentClass, FailureType, FotCategory, FotColumns, Severity, Trace, SECS_PER_DAY,
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
    pub fn write_line(&self, trace: &Trace, out: &mut Vec<u8>) {
        match &self.kind {
            EventKind::Ticket(row) => {
                write_ticket_line(out, trace.columns(), *row as usize, self.offset_secs);
            }
            EventKind::Detection(line) => out.extend_from_slice(line.as_bytes()),
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
        mut f: impl FnMut(&ReplayEvent, &[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut line = Vec::with_capacity(256);
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

/// Appends one canonical JSON event line to a byte buffer:
/// `json_line!(out, "type", "key" => writer(value), …)`, where each
/// writer appends one value. Every key with its punctuation is one
/// literal.
macro_rules! json_line {
    ($out:expr, $t:literal $(, $key:literal => $write:ident($value:expr))* $(,)?) => {{
        let out: &mut Vec<u8> = $out;
        out.extend_from_slice(concat!("{\"t\":\"", $t, "\"").as_bytes());
        $(
            out.extend_from_slice(concat!(",\"", $key, "\":").as_bytes());
            $write(out, $value);
        )*
        out.push(b'}');
    }};
}

/// Two-digit decimal table: bytes `2n..2n + 2` spell `n`, for `n < 100`.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// The decimal digits of `v`, written two at a time into the tail of
/// `digits`.
fn uint_digits(digits: &mut [u8; 20], v: u64) -> &[u8] {
    let mut i = digits.len();
    let mut v = v;
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        digits[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        i -= 2;
        digits[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        digits[i] = b'0' + v as u8;
    }
    &digits[i..]
}

/// Appends the decimal digits of `v`.
fn push_uint(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(uint_digits(&mut [0; 20], v));
}

/// `fnv1a(hash, digits of v)`, as if [`push_uint`] had written them.
fn fnv_uint(hash: u64, v: u64) -> u64 {
    fnv1a(hash, uint_digits(&mut [0; 20], v))
}

/// Appends `v` with four decimals, byte-identical to `{v:.4}`: the z
/// field of a σ line.
///
/// `{:.4}` rounds the exact binary value of `v` to four decimals.
/// `x = |v|·10⁴` in `f64` is within half an ulp of the exact product,
/// so wherever `x` sits clear of a rounding boundary (a half-integer) by
/// more than that, `x.round()` is the exact product rounded; below 2³²
/// an ulp of `x` is at most 2⁻²⁰, and the margin kept is 2⁻¹⁶. Then the
/// integer is written as `int.frac`. Anything else (near a tie, huge,
/// non-finite) goes through `std::fmt`.
pub fn push_fixed4(out: &mut Vec<u8>, v: f64) {
    const MARGIN: f64 = 1.0 / 65_536.0;
    let x = v.abs() * 10_000.0;
    if x < 4_294_967_296.0 && ((x - x.floor()) - 0.5).abs() > MARGIN {
        if v.is_sign_negative() {
            out.push(b'-');
        }
        let n = x.round() as u64;
        push_uint(out, n / 10_000);
        out.push(b'.');
        let frac = (n % 10_000) as usize;
        out.extend_from_slice(&DIGIT_PAIRS[frac / 100 * 2..][..2]);
        out.extend_from_slice(&DIGIT_PAIRS[frac % 100 * 2..][..2]);
    } else {
        use std::io::Write as _;
        write!(out, "{v:.4}").expect("writing to a Vec cannot fail");
    }
}

/// Appends `s` to `out` as a JSON string literal. Class and failure type
/// names are plain ASCII and are copied as they are; the escapes only
/// guard the general case.
fn push_json_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b if b < b' ' => {
                out.extend_from_slice(b"\\u00");
                out.push(HEX[usize::from(b >> 4)]);
                out.push(HEX[usize::from(b & 0xf)]);
            }
            b => out.push(b),
        }
    }
    out.push(b'"');
}

/// The keys ahead of a ticket line's integer fields, in line order.
const TICKET_HEAD: &[u8] = b"{\"t\":\"fot\",\"off\":";
const KEY_ID: &[u8] = b",\"id\":";
const KEY_DAY: &[u8] = b",\"day\":";
const KEY_SERVER: &[u8] = b",\"server\":";
const KEY_DC: &[u8] = b",\"dc\":";

/// The constant stretches of a ticket line, each escaped once: per class
/// `,"class":"HDD","slot":`, per failure type
/// `,"type":"SMARTFail","sev":"warning","cat":`, and per category
/// `"D_fixing"}`. Indexed by the columns' tags. Each stretch also has its
/// [`FnvJump`], so the digest skips it in one step.
struct TicketPieces {
    class_slot: Vec<Vec<u8>>,
    type_sev: Vec<Vec<u8>>,
    category: Vec<Vec<u8>>,
    jumps: TicketJumps,
}

/// The jumps over a ticket line's constant stretches: the four keys, the
/// head, and the pieces (the category piece with the line's `\n`).
struct TicketJumps {
    head: FnvJump,
    id: FnvJump,
    day: FnvJump,
    server: FnvJump,
    dc: FnvJump,
    class_slot: Vec<FnvJump>,
    type_sev: Vec<FnvJump>,
    category_newline: Vec<FnvJump>,
}

impl TicketPieces {
    /// The one table, built on first use.
    fn get() -> &'static Self {
        static PIECES: OnceLock<TicketPieces> = OnceLock::new();
        PIECES.get_or_init(|| {
            // `before`, `s` as a JSON string, then `after`.
            let piece = |before: &str, s: &str, after: &str| {
                let mut out = before.as_bytes().to_vec();
                push_json_str(&mut out, s);
                out.extend_from_slice(after.as_bytes());
                out
            };
            let class_slot: Vec<Vec<u8>> = ComponentClass::ALL
                .iter()
                .map(|class| piece(",\"class\":", class.name(), ",\"slot\":"))
                .collect();
            let type_sev: Vec<Vec<u8>> = FailureType::ALL
                .iter()
                .map(|failure_type| {
                    let sev = match failure_type.severity() {
                        Severity::Warning => "warning",
                        Severity::Fatal => "fatal",
                    };
                    [
                        piece(",\"type\":", failure_type.name(), ""),
                        piece(",\"sev\":", sev, ",\"cat\":"),
                    ]
                    .concat()
                })
                .collect();
            let category: Vec<Vec<u8>> = FotCategory::ALL
                .iter()
                .map(|category| piece("", category.name(), "}"))
                .collect();
            let jumps = |pieces: &[Vec<u8>]| pieces.iter().map(|p| FnvJump::new(p)).collect();
            let category_newline: Vec<Vec<u8>> =
                category.iter().map(|p| [&p[..], b"\n"].concat()).collect();
            TicketPieces {
                jumps: TicketJumps {
                    head: FnvJump::new(TICKET_HEAD),
                    id: FnvJump::new(KEY_ID),
                    day: FnvJump::new(KEY_DAY),
                    server: FnvJump::new(KEY_SERVER),
                    dc: FnvJump::new(KEY_DC),
                    class_slot: jumps(&class_slot),
                    type_sev: jumps(&type_sev),
                    category_newline: jumps(&category_newline),
                },
                class_slot,
                type_sev,
                category,
            }
        })
    }
}

/// Appends the JSON line of ticket row `row` at offset `off`, read
/// straight from the columns: the one ticket line writer, behind
/// [`ReplayEvent::write_line`]. [`fold_ticket_line`] digests the same
/// bytes.
fn write_ticket_line(out: &mut Vec<u8>, cols: &FotColumns, row: usize, off: u64) {
    let pieces = TicketPieces::get();
    out.extend_from_slice(TICKET_HEAD);
    push_uint(out, off);
    out.extend_from_slice(KEY_ID);
    push_uint(out, cols.ids()[row]);
    out.extend_from_slice(KEY_DAY);
    push_uint(out, cols.error_days()[row].into());
    out.extend_from_slice(KEY_SERVER);
    push_uint(out, cols.servers()[row].into());
    out.extend_from_slice(KEY_DC);
    push_uint(out, cols.data_centers()[row].into());
    out.extend_from_slice(&pieces.class_slot[usize::from(cols.classes()[row])]);
    push_uint(out, cols.device_slots()[row].into());
    out.extend_from_slice(&pieces.type_sev[usize::from(cols.failure_types()[row])]);
    out.extend_from_slice(&pieces.category[usize::from(cols.categories()[row])]);
}

/// `fnv1a(hash, line + "\n")` for the line [`write_ticket_line`] writes,
/// without writing it: the integers are hashed digit by digit and every
/// constant stretch is one [`FnvJump`].
fn fold_ticket_line(hash: u64, cols: &FotColumns, row: usize, off: u64) -> u64 {
    let jumps = &TicketPieces::get().jumps;
    let mut h = fnv_uint(jumps.head.apply(hash), off);
    h = fnv_uint(jumps.id.apply(h), cols.ids()[row]);
    h = fnv_uint(jumps.day.apply(h), cols.error_days()[row].into());
    h = fnv_uint(jumps.server.apply(h), cols.servers()[row].into());
    h = fnv_uint(jumps.dc.apply(h), cols.data_centers()[row].into());
    h = jumps.class_slot[usize::from(cols.classes()[row])].apply(h);
    h = fnv_uint(h, cols.device_slots()[row].into());
    h = jumps.type_sev[usize::from(cols.failure_types()[row])].apply(h);
    jumps.category_newline[usize::from(cols.categories()[row])].apply(h)
}

/// Inserts `value` into the ascending `sorted`.
fn insert_sorted(sorted: &mut Vec<u32>, value: u32) {
    let at = sorted.partition_point(|&x| x <= value);
    sorted.insert(at, value);
}

/// Removes one copy of `value`, which `sorted` holds, from it.
fn remove_sorted(sorted: &mut Vec<u32>, value: u32) {
    let at = sorted.partition_point(|&x| x < value);
    debug_assert_eq!(sorted.get(at), Some(&value));
    sorted.remove(at);
}

/// The element of rank `k` (0-based) in the merge of the ascending `a`
/// and the ascending sequence `b(0), …, b(b_len - 1)`, found by binary
/// search over how many of the `k + 1` smallest come from `a`. Requires
/// `k < a.len() + b_len`.
fn rank_in_merge(a: &[u32], b_len: usize, b: impl Fn(usize) -> usize, k: usize) -> usize {
    let take = k + 1;
    let at = |i: usize| a[i] as usize;
    let (mut lo, mut hi) = (take.saturating_sub(b_len), take.min(a.len()));
    loop {
        let i = lo + (hi - lo) / 2;
        let j = take - i;
        if i > 0 && j < b_len && at(i - 1) > b(j) {
            hi = i - 1;
        } else if j > 0 && i < a.len() && b(j - 1) > at(i) {
            lo = i + 1;
        } else {
            return match (i, j) {
                (0, _) => b(j - 1),
                (_, 0) => at(i - 1),
                _ => at(i - 1).max(b(j - 1)),
            };
        }
    }
}

/// The causal batch-burst threshold of one class, kept in step with the
/// closing day.
///
/// It estimates the *full-window* daily median. Fleet intake ramps over
/// the window, so the plain running median lags the miner's full-window
/// median and over-fires early. Instead, fit a spike-robust trend (slope
/// between the medians of the two observed halves — burst days barely
/// move a median, unlike a least-squares fit), extend the observed series
/// to the announced window length along that trend, and take the median
/// of observed + extrapolated. Once past the window midpoint this
/// converges on the true full-window median for any ~monotone rate curve.
///
/// Each day adds one count to sorted views of the observed prefix and of
/// its two halves (and moves at most one count between the halves), so
/// the half medians are read by index. The extrapolated ramp is monotone,
/// so the full-window median is a binary search over two sorted
/// sequences.
#[derive(Debug)]
struct BurstState {
    /// Daily counts closed so far, in day order.
    counts: Vec<u32>,
    /// `counts`, sorted.
    sorted: Vec<u32>,
    /// The first half `counts[..half.max(1)]`, sorted.
    first: Vec<u32>,
    /// The second half `counts[half..]`, sorted.
    second: Vec<u32>,
    /// `half = ceil(d / 2)` for the last closed day `d`.
    half: usize,
}

impl BurstState {
    /// An empty state with room for a window of `days` days.
    fn with_capacity(days: usize) -> Self {
        let half = days / 2 + 1;
        Self {
            counts: Vec::with_capacity(days),
            sorted: Vec::with_capacity(days),
            first: Vec::with_capacity(half),
            second: Vec::with_capacity(half),
            half: 0,
        }
    }

    /// Closes the next day with `count` failures.
    fn push(&mut self, count: u32) {
        let d = self.counts.len();
        self.counts.push(count);
        insert_sorted(&mut self.sorted, count);
        insert_sorted(&mut self.second, count);
        let half = d.div_ceil(2);
        while self.first.len() < half.max(1) {
            let next = self.counts[self.first.len()];
            insert_sorted(&mut self.first, next);
        }
        while self.half < half {
            remove_sorted(&mut self.second, self.counts[self.half]);
            self.half += 1;
        }
    }

    /// The threshold for the last closed day of a window of `days` days.
    fn threshold(&self, days: usize) -> usize {
        let d = self.counts.len() - 1;
        let half = self.half;
        let m1 = f64::from(self.first[self.first.len() / 2]);
        let m2 = f64::from(self.second[self.second.len() / 2]);
        // Each half's median sits at the half's center day.
        let c1 = (half.max(1) as f64 - 1.0) / 2.0;
        let c2 = half as f64 + (d - half) as f64 / 2.0;
        let slope = if c2 > c1 { (m2 - m1) / (c2 - c1) } else { 0.0 };
        let ramp = |x: usize| (m2 + slope * (x as f64 - c2)).max(0.0).round() as usize;
        // The ramp over days `d + 1..days`, ascending.
        let ramp_len = days - d - 1;
        let ascending = |i: usize| {
            if slope >= 0.0 {
                ramp(d + 1 + i)
            } else {
                ramp(days - 1 - i)
            }
        };
        let median = rank_in_merge(&self.sorted, ramp_len, ascending, days / 2);
        (median * 5).max(BURST_FLOOR)
    }

    /// The full-window threshold, the miner's `BatchDay` criterion, once
    /// every day of the window has closed.
    fn full_window_threshold(&self) -> Option<usize> {
        let median = *self.sorted.get(self.sorted.len() / 2)?;
        Some((median as usize * 5).max(BURST_FLOOR))
    }
}

/// Running window sums of every `(class, dc)` daily series, in step with
/// the closing day: the sliding σ-outlier detector.
///
/// Most windows are settled in exact integer arithmetic, without the
/// test. With `n` points, sum `s` and sum of squares `q`, `n·q − s²` is
/// `n²` times the variance and `(n·x − s)²` is `n²` times the last point's
/// squared deviation, so their ratio is its exact `z²`:
///
/// * a flat window (all counts equal, all-zero included) has zero
///   variance, which the test rejects as degenerate;
/// * an exact `z²` below `0.99·k²` leaves the last point well inside
///   `μ ± kσ`, far beyond the test's floating-point rounding.
///
/// Every other window runs [`dcf_stats::anomaly::last_point_z`], so
/// flagged z-scores are the test's own, to the bit.
#[derive(Debug)]
struct SigmaWindows {
    /// Window length in days.
    window: usize,
    /// Per series, the sum and the sum of squares of its window's counts.
    sums: Vec<(i128, i128)>,
}

impl SigmaWindows {
    fn new(window: usize, series: usize) -> Self {
        Self {
            window,
            sums: vec![(0, 0); series],
        }
    }

    /// Slides every window to end at day `d` of `daily`, the day-major
    /// counts (`daily[day * series + s]`) of days `0..=d` at least.
    fn advance(&mut self, daily: &[usize], d: usize) {
        let series = self.sums.len();
        let row = &daily[d * series..][..series];
        for ((s, q), &c) in self.sums.iter_mut().zip(row) {
            let c = c as i128;
            *s += c;
            *q += c * c;
        }
        if d >= self.window {
            let row = &daily[(d - self.window) * series..][..series];
            for ((s, q), &c) in self.sums.iter_mut().zip(row) {
                let c = c as i128;
                *s -= c;
                *q -= c * c;
            }
        }
    }

    /// The z-score of series `s`'s count on day `d` when the μ ± kσ test
    /// over its window (days `d + 1 - window..=d`) flags it. The windows
    /// must have been advanced to `d`, with `d + 1 >= window`.
    fn last_point(&self, daily: &[usize], d: usize, s: usize, k: f64) -> Option<f64> {
        let series = self.sums.len();
        let last = daily[d * series + s] as i128;
        let (n, (sum, sum_sq)) = (self.window as i128, self.sums[s]);
        let spread = n * sum_sq - sum * sum;
        if spread == 0 {
            return None;
        }
        let deviation = n * last - sum;
        if k >= 0.0 && ((deviation * deviation) as f64) < 0.99 * k * k * spread as f64 {
            return None;
        }
        let first = (d + 1 - self.window) * series + s;
        let window = daily[first..=d * series + s]
            .iter()
            .step_by(series)
            .map(|&c| c as f64);
        dcf_stats::anomaly::last_point_z(window, k).ok().flatten()
    }
}

/// Detection lines on their way to the digest thread, with where each
/// falls among the tickets.
#[derive(Debug, Default)]
struct DigestBatch {
    /// Per detection line: the tickets streamed before it, and the end of
    /// its bytes (newline included) in `lines`.
    marks: Vec<(usize, usize)>,
    lines: Vec<u8>,
}

/// A batch goes to the digest thread once its lines reach this size.
const BATCH_BYTES: usize = 1 << 16;

/// The event stream under construction. Its digest is folded on another
/// thread ([`fold_stream`]); the feed sends it the detection lines.
struct Feed {
    events: Vec<ReplayEvent>,
    /// Tickets streamed so far.
    tickets: usize,
    detections: usize,
    /// The next event's JSON line, one buffer reused for every event.
    line: Vec<u8>,
    batch: DigestBatch,
    digest: mpsc::Sender<DigestBatch>,
}

impl Feed {
    /// The line buffer, emptied for the next event.
    fn line(&mut self) -> &mut Vec<u8> {
        self.line.clear();
        &mut self.line
    }

    /// Appends the ticket at `row`, the next row of the trace.
    fn ticket(&mut self, offset_secs: u64, row: u32) {
        debug_assert_eq!(row as usize, self.tickets, "tickets stream in row order");
        self.tickets += 1;
        self.events.push(ReplayEvent {
            offset_secs,
            kind: EventKind::Ticket(row),
        });
    }

    /// Appends a detection event, whose JSON line is in the buffer.
    fn detect(&mut self, offset_secs: u64) {
        self.detections += 1;
        let batch = &mut self.batch;
        batch.lines.extend_from_slice(&self.line);
        batch.lines.push(b'\n');
        batch.marks.push((self.tickets, batch.lines.len()));
        if batch.lines.len() >= BATCH_BYTES {
            self.send();
        }
        let line = std::str::from_utf8(&self.line).expect("event lines are UTF-8");
        self.events.push(ReplayEvent {
            offset_secs,
            kind: EventKind::Detection(line.into()),
        });
    }

    /// Sends the pending detection lines to the digest thread.
    fn send(&mut self) {
        let batch = std::mem::take(&mut self.batch);
        // The receiver lives until every batch is in: the digest thread
        // stops only once this sender is dropped.
        self.digest
            .send(batch)
            .expect("the digest thread outlives the feed");
    }
}

/// The replay event digest: `fnv1a` over every event line and its
/// newline, in stream order. Every trace row streams as a ticket, in row
/// order, so the ticket lines are folded straight from the columns
/// ([`fold_ticket_line`]); the detection lines arrive in `batches`, each
/// marked with the number of tickets streamed before it.
fn fold_stream(
    cols: &FotColumns,
    start_secs: u64,
    tickets: usize,
    batches: mpsc::Receiver<DigestBatch>,
) -> u64 {
    let fold_tickets = |hash: u64, rows: std::ops::Range<usize>| {
        rows.fold(hash, |h, row| {
            let off = cols.error_secs(row).saturating_sub(start_secs);
            fold_ticket_line(h, cols, row, off)
        })
    };
    let (mut hash, mut row) = (FNV_OFFSET, 0);
    for batch in batches {
        let mut at = 0;
        for (before, end) in batch.marks {
            hash = fnv1a(fold_tickets(hash, row..before), &batch.lines[at..end]);
            (row, at) = (before, end);
        }
    }
    fold_tickets(hash, row..tickets)
}

/// The day-granular detectors: daily failure counts per `(class, data
/// center)` series, the per-class burst states and σ windows over them,
/// and the detections they fired.
struct DayDetectors {
    days: usize,
    /// Start of the window and its day index.
    start_secs: u64,
    start_day: u64,
    /// Data-center ids span `0..n_dc`.
    n_dc: usize,
    /// Daily failure counts per `(class, dc)` series, day-major: series
    /// `class * n_dc + dc` of day `d` at `[d * CLASSES * n_dc + series]`.
    /// Ascending series order is `(class, dc)` order, the order
    /// detections come out in at each day close. (`u32` counts would
    /// halve this table, but at paper scale the smaller free left glibc
    /// trimming the heap at the end of each paper_offline pass, and the
    /// next pass's engine assembly took ~7k more page faults.)
    dc_daily: Vec<usize>,
    /// One burst state per class, over the class's daily totals; once the
    /// stream ends it holds the offline truth's input.
    burst_states: Vec<BurstState>,
    sigma_windows: SigmaWindows,
    /// Online detections, `(class, day)` and `(class, dc, day)`.
    burst: Vec<(usize, usize)>,
    sigma: Vec<(usize, u16, usize)>,
}

impl DayDetectors {
    fn count(&mut self, class_idx: usize, dc: u16, d: usize) {
        self.dc_daily[(d * CLASSES + class_idx) * self.n_dc + dc as usize] += 1;
    }

    /// Closes day `d`: runs the day-granular detectors over everything
    /// seen up to and including `d`, emitting events at the day boundary.
    fn close_day(&mut self, d: usize, config: &ReplayConfig, feed: &mut Feed) {
        let off = ((self.start_day + d as u64 + 1) * SECS_PER_DAY).saturating_sub(self.start_secs);
        let day = self.start_day + d as u64;
        let series = CLASSES * self.n_dc;
        let row = &self.dc_daily[d * series..][..series];
        for (class_idx, state) in self.burst_states.iter_mut().enumerate() {
            let count: usize = row[class_idx * self.n_dc..][..self.n_dc].iter().sum();
            state.push(u32::try_from(count).expect("a day's count fits a row index"));
            // The threshold is at least the floor: skip computing it for
            // days that cannot exceed it.
            if d + 1 < config.burst_warmup_days || count <= BURST_FLOOR {
                continue;
            }
            let threshold = state.threshold(self.days);
            if count > threshold {
                self.burst.push((class_idx, d));
                json_line!(
                    feed.line(),
                    "burst",
                    "off" => push_uint(off),
                    "day" => push_uint(day),
                    "class" => push_json_str(ComponentClass::ALL[class_idx].name()),
                    "count" => push_uint(count as u64),
                    "threshold" => push_uint(threshold as u64),
                );
                feed.detect(off);
            }
        }
        // Sliding-window σ-outlier per (class, dc).
        self.sigma_windows.advance(&self.dc_daily, d);
        let w = config.sigma_window_days;
        if d + 1 >= w && w >= 3 {
            for s in 0..series {
                let Some(z) = self
                    .sigma_windows
                    .last_point(&self.dc_daily, d, s, config.sigma_k)
                else {
                    continue;
                };
                let (class_idx, dc) = (s / self.n_dc, (s % self.n_dc) as u16);
                self.sigma.push((class_idx, dc, d));
                json_line!(
                    feed.line(),
                    "sigma",
                    "off" => push_uint(off),
                    "day" => push_uint(day),
                    "class" => push_json_str(ComponentClass::ALL[class_idx].name()),
                    "dc" => push_uint(dc as u64),
                    "count" => push_uint(self.dc_daily[d * series + s] as u64),
                    "z" => push_fixed4(z),
                );
                feed.detect(off);
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
    let (cols, start_secs) = (trace.columns(), trace.info().start.as_secs());
    let (sender, batches) = mpsc::channel();
    std::thread::scope(|scope| {
        // The digest is serial in the stream's bytes, so it follows the
        // stream on its own thread while the detectors run on this one.
        let digest = scope.spawn(move || fold_stream(cols, start_secs, trace.len(), batches));
        let feed = Feed {
            // Room for detections up to an eighth of the tickets (a paper
            // replay has 9%), so the event list is not moved to grow.
            events: Vec::with_capacity(trace.len() + trace.len() / 8 + 1024),
            tickets: 0,
            detections: 0,
            line: Vec::with_capacity(256),
            batch: DigestBatch::default(),
            digest: sender,
        };
        let streamed = stream(trace, config, feed);
        let (sigma, burst) = score_detectors(streamed.detectors, config);
        let summary = ReplaySummary {
            tickets: trace.len(),
            detections: streamed.detections,
            event_digest: digest.join().expect("folding the digest does not panic"),
            sigma,
            burst,
            predictor_eval: streamed.predictor_eval,
        };
        let summary_line = summary_line(&summary);
        ReplayOutcome {
            events: streamed.events,
            summary,
            summary_line,
        }
    })
}

/// What [`stream`] leaves for scoring.
struct Streamed {
    events: Vec<ReplayEvent>,
    detections: usize,
    detectors: DayDetectors,
    predictor_eval: PredictorEval,
}

/// Streams every ticket of `trace` through the detectors into `feed`,
/// closing each window day as the stream passes it, and sends the last
/// detection lines to the digest thread.
fn stream(trace: &Trace, config: &ReplayConfig, mut feed: Feed) -> Streamed {
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

    let mut detectors = DayDetectors {
        days,
        start_secs: start.as_secs(),
        start_day,
        n_dc,
        dc_daily: vec![0; days * CLASSES * n_dc],
        burst_states: (0..CLASSES)
            .map(|_| BurstState::with_capacity(days))
            .collect(),
        sigma_windows: SigmaWindows::new(config.sigma_window_days, CLASSES * n_dc),
        burst: Vec::new(),
        sigma: Vec::new(),
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

    let mut cur_day = 0usize;
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
        feed.ticket(off, row as u32);
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
        if cursors[c]
            .advance(streams, c, (t, warning), horizon, &mut tally)
            .is_some()
        {
            json_line!(
                feed.line(),
                "predict",
                "off" => push_uint(off),
                "day" => push_uint(days_of[row].into()),
                "server" => push_uint(cols.servers()[row].into()),
                "class" => push_json_str(ComponentClass::ALL[class_idx].name()),
                "slot" => push_uint(cols.device_slots()[row].into()),
            );
            feed.detect(off);
        }
    }
    while cur_day < days {
        detectors.close_day(cur_day, config, &mut feed);
        cur_day += 1;
    }
    feed.send();
    Streamed {
        events: feed.events,
        detections: feed.detections,
        detectors,
        predictor_eval: tally.eval(config.predictor_horizon_days),
    }
}

/// Scores the σ and burst detections against the offline truths over the
/// finished daily counts: `(sigma, burst)`.
fn score_detectors(
    detectors: DayDetectors,
    config: &ReplayConfig,
) -> (DetectorScore, DetectorScore) {
    let (days, n_dc) = (detectors.days, detectors.n_dc);
    // Burst: FotMiner's BatchDay criterion with the full-window median.
    let mut truth_burst: Vec<(usize, usize)> = Vec::new();
    for (class_idx, state) in detectors.burst_states.iter().enumerate() {
        // A zero-day window has no days to flag.
        let Some(threshold) = state.full_window_threshold() else {
            continue;
        };
        for (d, &count) in state.counts.iter().enumerate() {
            if count as usize > threshold {
                truth_burst.push((class_idx, d));
            }
        }
    }
    truth_burst.sort_unstable();
    // Sigma: the §IV test over each full (class, dc) daily series.
    let mut truth_sigma: Vec<(usize, u16, usize)> = Vec::new();
    let series = CLASSES * n_dc;
    let mut values = Vec::with_capacity(days);
    for s in 0..series {
        values.clear();
        values.extend(
            detectors.dc_daily[s..]
                .iter()
                .step_by(series)
                .map(|&c| c as f64),
        );
        if let Ok(hits) = dcf_stats::anomaly::sigma_outliers(&values, config.sigma_k) {
            let (class_idx, dc) = (s / n_dc, (s % n_dc) as u16);
            truth_sigma.extend(hits.iter().map(|hit| (class_idx, dc, hit.index)));
        }
    }
    truth_sigma.sort_unstable();

    let mut online_burst = detectors.burst;
    let mut online_sigma = detectors.sigma;
    online_burst.sort_unstable();
    online_sigma.sort_unstable();
    (
        DetectorScore::from_sets(&online_sigma, &truth_sigma),
        DetectorScore::from_sets(&online_burst, &truth_burst),
    )
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
        "{{\"t\":\"summary\",\"tickets\":{tickets},\"detections\":{detections},\"digest\":\"{digest:016x}\",\"sigma\":{sigma},\"burst\":{burst},\"predictor_eval\":{{\"horizon_days\":{h},\"warnings\":{w},\"confirmed\":{c},\"fatals\":{f},\"predicted\":{p},\"precision\":{prec:.4},\"recall\":{rec:.4},\"f1\":{f1:.4}}}}}",
        tickets = s.tickets,
        detections = s.detections,
        digest = s.event_digest,
        sigma = score_json(&s.sigma),
        burst = score_json(&s.burst),
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
            lines.push(String::from_utf8(line.to_vec()).expect("event lines are UTF-8"));
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

    /// The rows the stream predicts: each `predict` event directly
    /// follows the fatal ticket it predicts.
    fn online_predicted_rows(out: &ReplayOutcome) -> Vec<u32> {
        let mut last_ticket = None;
        let mut rows = Vec::new();
        for event in &out.events {
            match &event.kind {
                EventKind::Ticket(row) => last_ticket = Some(*row),
                EventKind::Detection(line) if line.starts_with("{\"t\":\"predict\"") => {
                    rows.push(last_ticket.expect("a prediction follows its ticket"));
                }
                EventKind::Detection(_) => {}
            }
        }
        rows.sort_unstable();
        rows
    }

    /// The offline predicted-fatal rows: every component stream walked
    /// on its own by a fresh cursor, as `Prediction::evaluate` counts.
    fn offline_predicted_rows(trace: &Trace, config: &ReplayConfig) -> Vec<u32> {
        let horizon = Horizon::new(trace, config.predictor_horizon_days);
        let streams = trace.streams();
        let mut tally = PredictorTally::default();
        let mut rows = Vec::new();
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
                    rows.push(streams.rows(c)[seq]);
                }
            }
        }
        rows.sort_unstable();
        rows
    }

    #[test]
    fn online_predictor_matches_offline_exactly() {
        let trace = medium_trace();
        let config = ReplayConfig::default();
        let out = replay(&trace, &config);
        let offline = offline_eval(&trace, &config);
        assert_eq!(out.summary.predictor_eval, offline);
        // Exact replication: the predicted-fatal sets are identical.
        let predicted = online_predicted_rows(&out);
        assert!(!predicted.is_empty(), "fixture has repeats");
        assert_eq!(predicted.len(), offline.predicted_fatals);
        assert_eq!(predicted, offline_predicted_rows(&trace, &config));
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
                + online_predicted_rows(&out).len()
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
            assert_eq!(
                online_predicted_rows(&a),
                offline_predicted_rows(&trace, &config),
                "seed {seed}: predicted-fatal sets differ"
            );
        }
    }

    #[test]
    fn json_escape_handles_specials() {
        let escaped = |s: &str| {
            let mut out = Vec::new();
            push_json_str(&mut out, s);
            String::from_utf8(out).expect("escaping keeps UTF-8")
        };
        assert_eq!(escaped("HDD"), "\"HDD\"");
        assert_eq!(escaped("a\"b"), "\"a\\\"b\"");
        assert_eq!(escaped("a\\b"), "\"a\\\\b\"");
        assert_eq!(escaped("a\nb"), "\"a\\u000ab\"");
        assert_eq!(escaped("né"), "\"né\"");
    }

    #[test]
    fn table_written_integers_match_display() {
        let mut values = vec![0, u64::MAX, u64::MAX - 1];
        for p in 0..20 {
            let ten = 10u64.pow(p);
            values.extend([
                ten - 1,
                ten,
                ten + 1,
                ten.saturating_mul(7).saturating_add(3),
            ]);
        }
        let mut state = 0x0D16_u64;
        values.extend((0..1_000).map(|_| splitmix(&mut state) >> (splitmix(&mut state) % 64)));
        for v in values {
            let mut out = Vec::new();
            push_uint(&mut out, v);
            assert_eq!(out, v.to_string().into_bytes(), "{v}");
        }
    }

    /// Ticket lines built from the escaped-once pieces, against the line
    /// spelled out field by field with `format!`.
    #[test]
    fn ticket_lines_match_a_format_reference() {
        let trace = medium_trace();
        let cols = trace.columns();
        let mut types_seen = [false; FailureType::ALL.len()];
        let mut line = Vec::new();
        for (row, f) in trace.fots().iter().enumerate() {
            types_seen[f.failure_type.index()] = true;
            let off = f.error_time.as_secs() * 3 + row as u64;
            let sev = match f.failure_type.severity() {
                Severity::Warning => "warning",
                Severity::Fatal => "fatal",
            };
            let reference = format!(
                "{{\"t\":\"fot\",\"off\":{off},\"id\":{},\"day\":{},\"server\":{},\"dc\":{},\"class\":\"{}\",\"slot\":{},\"type\":\"{}\",\"sev\":\"{sev}\",\"cat\":\"{}\"}}",
                f.id.raw(),
                f.error_time.day_index(),
                f.server.raw(),
                f.data_center.raw(),
                f.device.name(),
                f.device_slot,
                f.failure_type.name(),
                f.category.name(),
            );
            let mut bytes = Vec::new();
            write_ticket_line(&mut bytes, cols, row, off);
            assert_eq!(String::from_utf8(bytes).expect("ASCII"), reference);
            // The public writer appends the same line.
            line.clear();
            line.extend_from_slice(b"prefix ");
            ReplayEvent {
                offset_secs: off,
                kind: EventKind::Ticket(row as u32),
            }
            .write_line(&trace, &mut line);
            assert_eq!(line, format!("prefix {reference}").into_bytes());
        }
        assert!(
            types_seen.iter().filter(|&&seen| seen).count() > 20,
            "the fixture covers most failure types"
        );
    }

    /// Each ticket line folded by jumps hashes as the written line and
    /// its newline, from random states.
    #[test]
    fn folded_ticket_lines_hash_as_written() {
        let trace = medium_trace();
        let cols = trace.columns();
        let mut state = 0xF01D_u64;
        let mut line = Vec::new();
        for row in 0..trace.len() {
            let (h, off) = (splitmix(&mut state), splitmix(&mut state) >> (row % 64));
            line.clear();
            write_ticket_line(&mut line, cols, row, off);
            line.push(b'\n');
            assert_eq!(
                fold_ticket_line(h, cols, row, off),
                fnv1a(h, &line),
                "row {row}"
            );
        }
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
        assert_eq!(
            online_predicted_rows(&out),
            offline_predicted_rows(&trace, &config)
        );
        // Day-close detections all fall on window days.
        let window_days = start.day_index()..end.day_index();
        out.for_each_line(&trace, |e, line| {
            let line = std::str::from_utf8(line).expect("event lines are UTF-8");
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

    /// The burst threshold as first written: for day `d` of `counts`,
    /// one class's daily counts over the whole window, full sorts of fresh
    /// copies of the observed halves and of observed + extrapolated.
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

    /// The incremental burst state, closed day by day, gives the sorting
    /// formula's threshold on every day, and its full-window threshold is
    /// the miner's.
    #[test]
    fn burst_state_matches_the_sorting_formula() {
        let mut state = 0xB057_u64;
        let mut series: Vec<Vec<usize>> = (0..200)
            .map(|_| {
                let days = 1 + (splitmix(&mut state) % 400) as usize;
                // Ramping, flat and spiky series, all with small counts.
                let ramp = splitmix(&mut state) % 3;
                (0..days)
                    .map(|x| {
                        let base = (splitmix(&mut state) % 8) as usize + x * ramp as usize / 40;
                        if splitmix(&mut state).is_multiple_of(50) {
                            base * 20
                        } else {
                            base
                        }
                    })
                    .collect()
            })
            .collect();
        // A ramp down (negative slope, extrapolated to the zero floor), a
        // flat series and a one-day series.
        series.push(
            (0..300)
                .map(|x| 60usize.saturating_sub(x / 4) + (x % 7 == 3) as usize * 90)
                .collect(),
        );
        series.push(vec![4; 120]);
        series.push(vec![37]);
        for (case, counts) in series.iter().enumerate() {
            let days = counts.len();
            let mut burst = BurstState::with_capacity(days);
            for (d, &count) in counts.iter().enumerate() {
                burst.push(count as u32);
                assert_eq!(
                    burst.threshold(days),
                    burst_threshold_by_sorting(counts, d),
                    "case {case} day {d} of {days}"
                );
            }
            let mut sorted = counts.clone();
            sorted.sort_unstable();
            assert_eq!(
                burst.full_window_threshold(),
                Some((sorted[days / 2] * 5).max(BURST_FLOOR)),
                "case {case}"
            );
        }
        assert_eq!(BurstState::with_capacity(0).full_window_threshold(), None);
    }

    /// The σ check as first written: the full test on one window.
    fn sigma_last_point_by_test(window: &[usize], k: f64) -> Option<f64> {
        let values: Vec<f64> = window.iter().map(|&c| c as f64).collect();
        let hits = dcf_stats::anomaly::sigma_outliers(&values, k).ok()?;
        hits.iter()
            .find(|a| a.index == window.len() - 1)
            .map(|a| a.z_score)
    }

    /// The sliding σ state, advanced day by day over whole series stored
    /// day-major, flags the last point of every window exactly when the
    /// full test does, with its z-score to the bit.
    #[test]
    fn sigma_windows_match_the_full_test() {
        let fixed: Vec<Vec<usize>> = vec![
            vec![0; 40],
            vec![7; 40],
            [vec![0; 29], vec![1], vec![0; 5]].concat(),
            [vec![2; 29], vec![40], vec![2; 29]].concat(),
            [vec![40], vec![2; 29]].concat(),
            [vec![5; 29], vec![0], vec![5; 3]].concat(),
            vec![1, 2, 3],
            vec![0, 0, 9],
        ];
        let mut cases: Vec<(usize, Vec<Vec<usize>>)> = vec![(30, fixed.clone()), (3, fixed)];
        let mut state = 0x0005_163A_u64;
        for _ in 0..200 {
            let window = 3 + (splitmix(&mut state) % 40) as usize;
            let days = window + (splitmix(&mut state) % 80) as usize;
            let series = (1..=4)
                .map(|_| {
                    let scale = 1 + splitmix(&mut state) % 12;
                    (0..days)
                        .map(|_| {
                            let base = (splitmix(&mut state) % scale) as usize;
                            if splitmix(&mut state).is_multiple_of(8) {
                                base + (splitmix(&mut state) % 30) as usize
                            } else {
                                base
                            }
                        })
                        .collect()
                })
                .collect();
            cases.push((window, series));
        }
        let mut flagged = 0;
        for k in [0.0, 1.0, 2.0, 2.5, 3.0] {
            for (window, series) in &cases {
                // Day-major rows over the series; shorter series pad with
                // zeros and are checked only over their own days.
                let days = series.iter().map(Vec::len).max().expect("series");
                let n = series.len();
                let mut daily = vec![0usize; days * n];
                for (s, counts) in series.iter().enumerate() {
                    for (d, &c) in counts.iter().enumerate() {
                        daily[d * n + s] = c;
                    }
                }
                let mut sigma = SigmaWindows::new(*window, n);
                for d in 0..days {
                    sigma.advance(&daily, d);
                    if d + 1 < *window {
                        continue;
                    }
                    for (s, counts) in series.iter().enumerate() {
                        if d >= counts.len() {
                            continue;
                        }
                        let fast = sigma.last_point(&daily, d, s, k);
                        let full = sigma_last_point_by_test(&counts[d + 1 - window..=d], k);
                        assert_eq!(
                            fast.map(f64::to_bits),
                            full.map(f64::to_bits),
                            "k {k} window {window} series {s} day {d}"
                        );
                        flagged += usize::from(full.is_some());
                    }
                }
            }
        }
        assert!(flagged > 1_000, "the cases flag often: {flagged}");
    }
}
