//! Trace (de)serialization: a CSV export/import of the ticket table (the
//! form failure datasets are usually shared in), and a versioned binary
//! snapshot of a whole trace ([`snapshot`]).

pub mod snapshot;
pub mod spill;

use std::io::{BufRead, BufReader, Read, Write};

use crate::columns::{ColumnsBuilder, FotColumns, NO_RESPONSE_DAY};
use crate::{
    ComponentClass, DataCenterId, FailureType, Fot, FotCategory, FotId, OperatorAction, OperatorId,
    OperatorResponse, ProductLineId, RackPosition, ServerId, SimTime, TraceError, SECS_PER_DAY,
};

/// The CSV header for the ticket table, mirroring the paper's field list.
pub const CSV_HEADER: &str = "id,host_id,host_idc,product_line,error_device,device_slot,error_type,error_time,error_position,category,op_time,operator,action,error_detail";

#[cfg(test)]
fn csv_escape(s: &str) -> String {
    let mut buf = Vec::new();
    push_csv_escaped(&mut buf, s);
    String::from_utf8(buf).expect("escaping preserves UTF-8")
}

/// Appends a decimal rendering of `v`, byte-identical to `{v}` formatting.
fn push_u64(buf: &mut Vec<u8>, mut v: u64) {
    let mut tmp = [0u8; 20];
    let mut i = tmp.len();
    loop {
        i -= 1;
        tmp[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&tmp[i..]);
}

/// Appends `s` with CSV double-quote escaping when it contains a comma,
/// quote, or newline. Byte-level scanning is safe: the escaped characters
/// are single-byte ASCII and UTF-8 continuation bytes never collide.
fn push_csv_escaped(buf: &mut Vec<u8>, s: &str) {
    if s.bytes().any(|b| matches!(b, b',' | b'"' | b'\n')) {
        buf.push(b'"');
        for b in s.bytes() {
            if b == b'"' {
                buf.push(b'"');
            }
            buf.push(b);
        }
        buf.push(b'"');
    } else {
        buf.extend_from_slice(s.as_bytes());
    }
}

/// Appends one ticket as a CSV record (no header, trailing newline) — the
/// row form shared by [`write_fots_csv`] and [`FotsDigester`].
///
/// Hand-rolled byte appends instead of `writeln!` because this sits on the
/// digest hot path of the sharded merge: formatting machinery and the
/// per-field `to_string` calls dominated `engine.shard.merge` before this.
/// The bytes produced are pinned by the digests in SCALING.md.
fn append_fot_csv_row(f: &Fot<'_>, buf: &mut Vec<u8>) {
    push_u64(buf, f.id.raw());
    buf.push(b',');
    push_u64(buf, u64::from(f.server.raw()));
    buf.push(b',');
    push_u64(buf, u64::from(f.data_center.raw()));
    buf.push(b',');
    push_u64(buf, u64::from(f.product_line.raw()));
    buf.push(b',');
    push_u64(buf, f.device.index() as u64);
    buf.push(b',');
    push_u64(buf, u64::from(f.device_slot));
    buf.push(b',');
    buf.extend_from_slice(f.failure_type.name().as_bytes());
    buf.push(b',');
    push_u64(buf, f.error_time.as_secs());
    buf.push(b',');
    push_u64(buf, u64::from(f.rack_position.raw()));
    buf.push(b',');
    buf.extend_from_slice(f.category.name().as_bytes());
    buf.push(b',');
    match f.response {
        Some(r) => {
            push_u64(buf, r.op_time.as_secs());
            buf.push(b',');
            push_u64(buf, u64::from(r.operator.raw()));
            buf.push(b',');
            buf.extend_from_slice(match r.action {
                OperatorAction::IssueRepairOrder => b"RO",
                OperatorAction::MarkFalseAlarm => b"FA",
            });
        }
        None => buf.extend_from_slice(b",,"),
    }
    buf.push(b',');
    push_csv_escaped(buf, f.detail);
    buf.push(b'\n');
}

/// Writes the ticket table as CSV (with header): `trace.fots()`, or any
/// other sequence of ticket views.
///
/// # Errors
///
/// Propagates IO failures.
pub fn write_fots_csv<'a, W: Write>(
    fots: impl IntoIterator<Item = Fot<'a>>,
    mut writer: W,
) -> Result<(), TraceError> {
    writeln!(writer, "{CSV_HEADER}")?;
    let mut buf = Vec::with_capacity(128);
    for f in fots {
        buf.clear();
        append_fot_csv_row(&f, &mut buf);
        writer.write_all(&buf)?;
    }
    Ok(())
}

/// FNV-1a 64 offset basis: the starting state of every [`fnv1a`] digest.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Byte-wise FNV-1a 64 of `bytes`, continuing from state `hash` — pass
/// [`FNV_OFFSET`] to start a digest, or a previous result to extend it.
/// The snapshot footer, the serve cache's scenario hash and the replay
/// event digest are all this function.
#[inline]
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// [`fnv1a`] over one fixed byte string, as a jump: applying it to a
/// state gives exactly `fnv1a(state, s)` for one multiply, one table
/// lookup and one add, whatever the length of `s`.
///
/// The identity behind it: a FNV-1a round `h ← (h ^ b)·P` only touches
/// the low byte with the xor, and the high part `h − (h & 0xFF)` is a
/// multiple of 256 that the multiply keeps one. So over `s` the high
/// part just picks up `P^|s|`, and the rest is a function of the low
/// byte alone:
/// `fnv1a(h, s) = h·P^|s| + (fnv1a(l, s) − l·P^|s|)` with `l = h & 0xFF`
/// (mod 2^64). The table holds the bracket for all 256 low bytes.
#[derive(Clone)]
pub struct FnvJump {
    mul: u64,
    add: [u64; 256],
}

impl FnvJump {
    /// The jump over `s` (a 2 KB table; build it once and reuse it).
    pub fn new(s: &[u8]) -> Self {
        let mul = s.iter().fold(1u64, |m, _| m.wrapping_mul(FNV_PRIME));
        let mut add = [0u64; 256];
        for (low, slot) in (0u64..).zip(add.iter_mut()) {
            *slot = fnv1a(low, s).wrapping_sub(low.wrapping_mul(mul));
        }
        Self { mul, add }
    }

    /// `fnv1a(hash, s)` for the `s` this jump was built over.
    #[inline]
    pub fn apply(&self, hash: u64) -> u64 {
        hash.wrapping_mul(self.mul)
            .wrapping_add(self.add[(hash & 0xFF) as usize])
    }
}

impl std::fmt::Debug for FnvJump {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnvJump")
            .field("mul", &self.mul)
            .finish_non_exhaustive()
    }
}

/// Word-chunked FNV-1a 64: absorbs the stream eight bytes at a time
/// (little-endian), carrying a partial word across calls, and folds the
/// total length in at the end so streams that differ only in a trailing
/// zero-pad still digest apart.
///
/// Byte-at-a-time FNV-1a is a strictly serial dependency chain (one
/// xor+multiply per byte, ~700 MB/s on one core); chunking runs the same
/// chain once per word, which is what lets the digest keep up with the
/// sharded merge.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChunkedFnv {
    h: u64,
    pending: u64,
    pending_len: u32,
    total: u64,
}

impl ChunkedFnv {
    pub(crate) fn new() -> Self {
        Self {
            h: FNV_OFFSET,
            pending: 0,
            pending_len: 0,
            total: 0,
        }
    }

    #[inline]
    fn round(h: u64, word: u64) -> u64 {
        (h ^ word).wrapping_mul(FNV_PRIME)
    }

    pub(crate) fn absorb(&mut self, bytes: &[u8]) {
        self.total = self.total.wrapping_add(bytes.len() as u64);
        let mut bytes = bytes;
        while self.pending_len > 0 && self.pending_len < 8 {
            match bytes.split_first() {
                Some((&b, rest)) => {
                    self.pending |= u64::from(b) << (8 * self.pending_len);
                    self.pending_len += 1;
                    bytes = rest;
                }
                None => return,
            }
        }
        if self.pending_len == 8 {
            self.h = Self::round(self.h, self.pending);
            self.pending = 0;
            self.pending_len = 0;
        }
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.h = Self::round(self.h, u64::from_le_bytes(c.try_into().unwrap()));
        }
        for (i, &b) in chunks.remainder().iter().enumerate() {
            self.pending |= u64::from(b) << (8 * i as u32);
        }
        self.pending_len = chunks.remainder().len() as u32;
    }

    pub(crate) fn finish(mut self) -> u64 {
        if self.pending_len > 0 {
            self.h = Self::round(self.h, self.pending);
        }
        Self::round(self.h, self.total)
    }
}

/// Appends the canonical binary encoding of `f` that [`FotsDigester`]
/// hashes: fixed-width little-endian scalars in field order, names and
/// detail length-prefixed, responses tagged — self-delimiting, so
/// concatenated rows stay injective.
fn append_canonical(f: &Fot<'_>, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&f.id.raw().to_le_bytes());
    buf.extend_from_slice(&f.server.raw().to_le_bytes());
    buf.extend_from_slice(&f.data_center.raw().to_le_bytes());
    buf.extend_from_slice(&f.product_line.raw().to_le_bytes());
    buf.push(f.device.index() as u8);
    buf.push(f.device_slot);
    let ft = f.failure_type.name().as_bytes();
    buf.push(ft.len() as u8);
    buf.extend_from_slice(ft);
    buf.extend_from_slice(&f.error_time.as_secs().to_le_bytes());
    buf.push(f.rack_position.raw());
    buf.push(crate::columns::category_tag(f.category));
    match f.response {
        Some(r) => {
            buf.push(1);
            buf.extend_from_slice(&r.op_time.as_secs().to_le_bytes());
            buf.extend_from_slice(&r.operator.raw().to_le_bytes());
            buf.push(match r.action {
                OperatorAction::IssueRepairOrder => b'R',
                OperatorAction::MarkFalseAlarm => b'F',
            });
        }
        None => buf.push(0),
    }
    buf.extend_from_slice(&(f.detail.len() as u32).to_le_bytes());
    buf.extend_from_slice(f.detail.as_bytes());
}

/// A 64-bit fingerprint of the ticket table.
///
/// Two traces digest equal iff their tickets are field-for-field equal —
/// equivalently, iff [`write_fots_csv`] produces the same bytes for both
/// (both encodings are injective in the ticket fields). Digest v2 hashes a
/// canonical binary row encoding with a word-chunked FNV-1a instead of
/// hashing the rendered CSV byte-at-a-time: the fingerprint means the same
/// thing but costs ~10× less, which matters because the sharded merge
/// digests every ticket it streams. Determinism gates (thread-count and
/// shard-count diffs in CI) compare digests produced
/// by one build, so the v1→v2 value change only shows up in SCALING.md's
/// refreshed table.
pub fn fots_digest<'a>(fots: impl IntoIterator<Item = Fot<'a>>) -> u64 {
    let mut digester = FotsDigester::new();
    for f in fots {
        digester.push(&f);
    }
    digester.digest()
}

/// Streaming form of [`fots_digest`]: feed tickets one at a time and get
/// the same digest `fots_digest` would report for the whole sequence,
/// without ever materializing it.
///
/// This is what lets the sharded engine digest a multi-million-server run
/// while holding only one merge chunk in memory.
///
/// # Examples
///
/// ```
/// use dcf_trace::io::{fots_digest, FotsDigester};
///
/// let fots: Vec<dcf_trace::Fot> = Vec::new();
/// let mut digester = FotsDigester::new();
/// for fot in &fots {
///     digester.push(fot);
/// }
/// assert_eq!(digester.digest(), fots_digest(fots));
/// ```
#[derive(Debug, Clone)]
pub struct FotsDigester {
    hash: ChunkedFnv,
    /// Tickets pushed so far.
    count: u64,
    /// Reusable row buffer so pushing a ticket allocates nothing.
    row: Vec<u8>,
}

impl Default for FotsDigester {
    fn default() -> Self {
        Self::new()
    }
}

impl FotsDigester {
    /// Starts an empty digest (equal to `fots_digest([])`).
    pub fn new() -> Self {
        Self {
            hash: ChunkedFnv::new(),
            count: 0,
            row: Vec::with_capacity(128),
        }
    }

    /// Absorbs one ticket. The sharded merge pushes views it stamps
    /// straight from engine records, so digesting allocates nothing.
    pub fn push(&mut self, fot: &Fot<'_>) {
        self.row.clear();
        append_canonical(fot, &mut self.row);
        self.hash.absorb(&self.row);
        self.count += 1;
    }

    /// Number of tickets absorbed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The digest of everything pushed so far.
    pub fn digest(&self) -> u64 {
        self.hash.finish()
    }
}

/// Splits one CSV record, honoring double-quote escaping.
fn split_csv_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut cur));
            }
            other => cur.push(other),
        }
    }
    fields.push(cur);
    fields
}

/// Parses one unsigned integer field as `T`, rejecting values `T` cannot
/// hold instead of narrowing them.
fn parse_field<T>(s: &str, what: &str) -> Result<T, String>
where
    T: std::str::FromStr<Err = std::num::ParseIntError>,
{
    s.parse::<T>().map_err(|e| format!("bad {what} {s:?}: {e}"))
}

/// Parses a time field whose day must be at most `last_day`, the last
/// day the `u32` day columns store.
fn parse_time(s: &str, what: &str, last_day: u32) -> Result<SimTime, String> {
    let secs: u64 = parse_field(s, what)?;
    if secs / SECS_PER_DAY > u64::from(last_day) {
        return Err(format!(
            "{what} {secs} falls after day {last_day}, the last the day column stores"
        ));
    }
    Ok(SimTime::from_secs(secs))
}

/// Reads a ticket table from CSV written by [`write_fots_csv`], as
/// columns in file order with details interned in first-appearance order
/// (so reading back `trace.fots()`'s export gives a store equal to it).
///
/// Each row is checked on its own: every integer must fit its column, an
/// operator response is present exactly when the category has one
/// ([`FotCategory::has_response`]), and it does not precede the error.
/// Row order and id uniqueness are a whole-trace property, checked when a
/// [`crate::Trace`] is built from the columns.
///
/// # Errors
///
/// Returns [`TraceError::Csv`] with the offending line number on any
/// malformed field or row.
pub fn read_fots_csv<R: Read>(reader: R) -> Result<FotColumns, TraceError> {
    let mut out = ColumnsBuilder::default();
    for (lineno, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        if lineno == 0 {
            if line != CSV_HEADER {
                return Err(TraceError::Csv {
                    line: 1,
                    message: format!("unexpected header: {line}"),
                });
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        push_csv_row(&mut out, &line).map_err(|message| TraceError::Csv {
            line: lineno + 1,
            message,
        })?;
    }
    Ok(out.finish())
}

/// Parses and checks one CSV record, and appends it to `out`.
fn push_csv_row(out: &mut ColumnsBuilder, line: &str) -> Result<(), String> {
    let fields = split_csv_line(line);
    if fields.len() != 14 {
        return Err(format!("expected 14 fields, found {}", fields.len()));
    }
    let device_idx: usize = parse_field(&fields[4], "error_device")?;
    let device = *ComponentClass::ALL
        .get(device_idx)
        .ok_or_else(|| format!("bad component index {device_idx}"))?;
    let failure_type = FailureType::ALL
        .iter()
        .copied()
        .find(|t| t.name() == fields[6])
        .ok_or_else(|| format!("unknown error_type {:?}", fields[6]))?;
    let category = match fields[9].as_str() {
        "D_fixing" => FotCategory::Fixing,
        "D_error" => FotCategory::Error,
        "D_falsealarm" => FotCategory::FalseAlarm,
        other => return Err(format!("unknown category {other:?}")),
    };
    let error_time = parse_time(&fields[7], "error_time", u32::MAX)?;
    let response_fields = &fields[10..13];
    let response = if category.has_response() {
        if response_fields.iter().any(String::is_empty) {
            return Err(format!(
                "{} needs op_time, operator and action",
                category.name()
            ));
        }
        let action = match fields[12].as_str() {
            "RO" => OperatorAction::IssueRepairOrder,
            "FA" => OperatorAction::MarkFalseAlarm,
            other => return Err(format!("unknown action {other:?}")),
        };
        let op_time = parse_time(&fields[10], "op_time", NO_RESPONSE_DAY - 1)?;
        if op_time < error_time {
            return Err(format!(
                "op_time {} precedes error_time {}",
                op_time.as_secs(),
                error_time.as_secs()
            ));
        }
        Some(OperatorResponse {
            op_time,
            operator: OperatorId::new(parse_field(&fields[11], "operator")?),
            action,
        })
    } else {
        if response_fields.iter().any(|f| !f.is_empty()) {
            return Err(format!("{} has no operator response", category.name()));
        }
        None
    };
    out.push(&Fot {
        id: FotId::new(parse_field(&fields[0], "id")?),
        server: ServerId::new(parse_field(&fields[1], "host_id")?),
        data_center: DataCenterId::new(parse_field(&fields[2], "host_idc")?),
        product_line: ProductLineId::new(parse_field(&fields[3], "product_line")?),
        device,
        device_slot: parse_field(&fields[5], "device_slot")?,
        failure_type,
        error_time,
        rack_position: RackPosition::new(parse_field(&fields[8], "error_position")?),
        category,
        response,
        detail: &fields[13],
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_fots() -> Vec<Fot<'static>> {
        vec![
            Fot {
                id: FotId::new(0),
                server: ServerId::new(4),
                data_center: DataCenterId::new(1),
                product_line: ProductLineId::new(2),
                device: ComponentClass::Hdd,
                device_slot: 3,
                failure_type: FailureType::SmartFail,
                error_time: SimTime::from_days(5),
                rack_position: RackPosition::new(22),
                detail: "smart, with a comma and \"quotes\"",
                category: FotCategory::Fixing,
                response: Some(OperatorResponse {
                    operator: OperatorId::new(7),
                    op_time: SimTime::from_days(9),
                    action: OperatorAction::IssueRepairOrder,
                }),
            },
            Fot {
                id: FotId::new(1),
                server: ServerId::new(5),
                data_center: DataCenterId::new(1),
                product_line: ProductLineId::new(2),
                device: ComponentClass::Memory,
                device_slot: 1,
                failure_type: FailureType::DimmUe,
                error_time: SimTime::from_days(6),
                rack_position: RackPosition::new(10),
                detail: "",
                category: FotCategory::Error,
                response: None,
            },
        ]
    }

    #[test]
    fn csv_round_trip_preserves_everything() {
        let fots = sample_fots();
        let mut buf = Vec::new();
        write_fots_csv(fots.iter().copied(), &mut buf).unwrap();
        let back = read_fots_csv(&buf[..]).unwrap();
        assert!(back.iter().eq(fots));
    }

    #[test]
    fn csv_rejects_bad_header_and_fields() {
        let bad = "nope\n";
        assert!(matches!(
            read_fots_csv(bad.as_bytes()),
            Err(TraceError::Csv { line: 1, .. })
        ));
        let bad2 = format!("{CSV_HEADER}\n1,2,3\n");
        assert!(matches!(
            read_fots_csv(bad2.as_bytes()),
            Err(TraceError::Csv { line: 2, .. })
        ));
        let bad3 = format!("{CSV_HEADER}\n0,4,1,2,0,3,NotAType,432000,22,D_fixing,777600,7,RO,x\n");
        let e = read_fots_csv(bad3.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("NotAType"));
    }

    #[test]
    fn csv_escaping_handles_embedded_quotes() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        let parsed = split_csv_line("\"say \"\"hi\"\"\",2");
        assert_eq!(parsed, vec!["say \"hi\"".to_string(), "2".to_string()]);
    }

    #[test]
    fn hand_rolled_rows_match_format_machinery() {
        for f in sample_fots() {
            let (op_time, operator, action) = match f.response {
                Some(r) => (
                    r.op_time.as_secs().to_string(),
                    r.operator.raw().to_string(),
                    match r.action {
                        OperatorAction::IssueRepairOrder => "RO",
                        OperatorAction::MarkFalseAlarm => "FA",
                    }
                    .to_string(),
                ),
                None => (String::new(), String::new(), String::new()),
            };
            let reference = format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                f.id.raw(),
                f.server.raw(),
                f.data_center.raw(),
                f.product_line.raw(),
                f.device.index(),
                f.device_slot,
                f.failure_type.name(),
                f.error_time.as_secs(),
                f.rack_position.raw(),
                f.category.name(),
                op_time,
                operator,
                action,
                csv_escape(f.detail),
            );
            let mut buf = Vec::new();
            append_fot_csv_row(&f, &mut buf);
            assert_eq!(buf, reference.into_bytes());
        }
    }

    #[test]
    fn digest_tracks_ticket_fields() {
        use crate::store::tests::fot;
        let a = [fot(0, 0, 1, FotCategory::Fixing)];
        let b = [fot(0, 0, 2, FotCategory::Fixing)];
        assert_eq!(fots_digest(a), fots_digest(a), "deterministic");
        assert_ne!(fots_digest(a), fots_digest(b), "different fots differ");
        assert_ne!(fots_digest(a), fots_digest([]), "empty differs");
        // Pinned empty-stream value per the v2 definition (offset-basis
        // mixed with the zero length), so the digest is stable across
        // platforms and releases.
        #[allow(clippy::identity_op)] // the `^ 0` spells out "xor the length"
        let expect = (0xcbf2_9ce4_8422_2325u64 ^ 0).wrapping_mul(0x100_0000_01b3);
        assert_eq!(fots_digest([]), expect);
    }

    #[test]
    fn fnv1a_matches_reference_vectors_and_extends() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }

    #[test]
    fn chunked_fnv_is_split_invariant_and_length_mixed() {
        let data: Vec<u8> = (0..37u8).collect();
        let mut whole = ChunkedFnv::new();
        whole.absorb(&data);
        for cut in [0usize, 1, 3, 8, 11, 16, 36, 37] {
            let mut split = ChunkedFnv::new();
            split.absorb(&data[..cut]);
            split.absorb(&data[cut..]);
            assert_eq!(split.finish(), whole.finish(), "cut at {cut}");
        }
        // A trailing zero byte must change the digest even though the
        // partial word pads with zeros.
        let mut padded = ChunkedFnv::new();
        padded.absorb(&data);
        padded.absorb(&[0]);
        assert_ne!(padded.finish(), whole.finish());
    }

    #[test]
    fn streaming_digester_matches_batch_digest() {
        let fots = sample_fots();
        let mut digester = FotsDigester::new();
        assert_eq!(digester.digest(), fots_digest([]), "header-only state");
        for f in &fots {
            digester.push(f);
        }
        assert_eq!(digester.count(), fots.len() as u64);
        assert_eq!(digester.digest(), fots_digest(fots));
    }
}
