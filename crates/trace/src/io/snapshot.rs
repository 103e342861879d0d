//! Versioned little-endian binary trace snapshots.
//!
//! A snapshot persists a simulated trace once so it can be re-analyzed or
//! served without re-simulation. The layout is columnar end to end — the
//! ticket section is the trace's [`FotColumns`] blobs written verbatim —
//! and every string (scenario description, DC / product-line names,
//! hostnames, ticket details) lives in one interned dictionary:
//!
//! ```text
//! magic "DCFSNAP0" | version u32
//! dictionary: count u32, then per string: len u32 + UTF-8 bytes
//! trace info: start u64, days u64, seed u64, description dict-id u32
//! data centers / product lines / servers: fixed-width records
//! columns: row count u32, then 16 column blobs in schema order
//! footer: FNV-1a 64 digest over all preceding bytes
//! ```
//!
//! All integers are little-endian. Loading verifies the magic, version and
//! digest, keeps the decoded column blobs as the trace's ticket store, and
//! validates them through [`Trace::from_columns`]; any corruption surfaces
//! as a [`TraceError`] rather than a panic. A write → load round trip
//! reproduces a trace equal to the original (same report bytes, same
//! [`crate::io::fots_digest`]).

use std::collections::HashMap;
use std::path::Path;

use super::{fnv1a, FNV_OFFSET};
use crate::columns::{ColumnsBuilder, FotColumns};
use crate::{
    DataCenterId, DataCenterMeta, FaultTolerance, ProductLineId, ProductLineMeta, RackId,
    RackPosition, ServerId, ServerMeta, SimDuration, SimTime, Trace, TraceError, TraceInfo,
    WorkloadKind,
};

/// Magic bytes opening every snapshot.
pub const MAGIC: &[u8; 8] = b"DCFSNAP0";
/// Current format version.
pub const VERSION: u32 = 1;

fn err(message: impl Into<String>) -> TraceError {
    TraceError::Snapshot {
        message: message.into(),
    }
}

// ---------------------------------------------------------------- writing

/// Little-endian append helpers over the output buffer.
trait PutLe {
    fn put_u8(&mut self, v: u8);
    fn put_u16(&mut self, v: u16);
    fn put_u32(&mut self, v: u32);
    fn put_u64(&mut self, v: u64);
}

impl PutLe for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
}

#[derive(Default)]
struct DictWriter {
    /// The interned strings' bytes, back to back, and where each ends:
    /// one allocation per string (the map's key), not two.
    bytes: Vec<u8>,
    ends: Vec<usize>,
    ids: HashMap<String, u32>,
}

impl DictWriter {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.ends.len() as u32;
        self.bytes.extend_from_slice(s.as_bytes());
        self.ends.push(self.bytes.len());
        self.ids.insert(s.to_owned(), id);
        id
    }
}

fn workload_tag(w: WorkloadKind) -> u8 {
    match w {
        WorkloadKind::BatchProcessing => 0,
        WorkloadKind::OnlineService => 1,
        WorkloadKind::Storage => 2,
        WorkloadKind::Mixed => 3,
    }
}

fn workload_from_tag(tag: u8) -> Result<WorkloadKind, TraceError> {
    Ok(match tag {
        0 => WorkloadKind::BatchProcessing,
        1 => WorkloadKind::OnlineService,
        2 => WorkloadKind::Storage,
        3 => WorkloadKind::Mixed,
        _ => return Err(err(format!("invalid workload tag {tag}"))),
    })
}

fn tolerance_tag(t: FaultTolerance) -> u8 {
    match t {
        FaultTolerance::Low => 0,
        FaultTolerance::Medium => 1,
        FaultTolerance::High => 2,
    }
}

fn tolerance_from_tag(tag: u8) -> Result<FaultTolerance, TraceError> {
    Ok(match tag {
        0 => FaultTolerance::Low,
        1 => FaultTolerance::Medium,
        2 => FaultTolerance::High,
        _ => return Err(err(format!("invalid fault-tolerance tag {tag}"))),
    })
}

/// Serializes `trace` into an in-memory snapshot image.
pub fn snapshot_to_bytes(trace: &Trace) -> Vec<u8> {
    let cols = trace.columns();

    // Intern every string first so the dictionary can precede its users:
    // description, DC names, line names, hostnames, then ticket details in
    // column-dictionary order.
    let mut dict = DictWriter::default();
    let desc_id = dict.intern(&trace.info().description);
    let dc_names: Vec<u32> = trace
        .data_centers()
        .iter()
        .map(|d| dict.intern(&d.name))
        .collect();
    let line_names: Vec<u32> = trace
        .product_lines()
        .iter()
        .map(|p| dict.intern(&p.name))
        .collect();
    let mut name = Vec::with_capacity(22);
    let hostnames: Vec<u32> = trace
        .servers()
        .iter()
        .map(|s| {
            name.clear();
            s.write_hostname(&mut name);
            dict.intern(std::str::from_utf8(&name).expect("hostnames are ASCII"))
        })
        .collect();
    // The column dictionary is in first-appearance order, so interning it
    // in id order interns the details in row order.
    let detail_ids: Vec<u32> = cols.dict().iter().map(|d| dict.intern(d)).collect();

    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.put_u32(VERSION);

    out.put_u32(dict.ends.len() as u32);
    let mut start = 0;
    for &end in &dict.ends {
        out.put_u32((end - start) as u32);
        out.extend_from_slice(&dict.bytes[start..end]);
        start = end;
    }

    let info = trace.info();
    out.put_u64(info.start.as_secs());
    out.put_u64(info.days);
    out.put_u64(info.seed);
    out.put_u32(desc_id);

    out.put_u32(trace.data_centers().len() as u32);
    for (d, &name) in trace.data_centers().iter().zip(&dc_names) {
        out.put_u16(d.id.raw());
        out.put_u32(name);
        out.put_u16(d.built_year);
        out.put_u8(d.modern_cooling as u8);
        out.put_u8(d.rack_positions);
    }

    out.put_u32(trace.product_lines().len() as u32);
    for (p, &name) in trace.product_lines().iter().zip(&line_names) {
        out.put_u16(p.id.raw());
        out.put_u32(name);
        out.put_u8(workload_tag(p.workload));
        out.put_u8(tolerance_tag(p.fault_tolerance));
    }

    out.put_u32(trace.servers().len() as u32);
    for (s, &name) in trace.servers().iter().zip(&hostnames) {
        out.put_u32(s.id.raw());
        out.put_u32(name);
        out.put_u16(s.data_center.raw());
        out.put_u16(s.product_line.raw());
        out.put_u32(s.rack.raw());
        out.put_u8(s.position.raw());
        out.put_u8(s.generation);
        out.put_u64(s.deploy_time.as_secs());
        out.put_u64(s.warranty.as_secs());
        out.put_u8(s.hdd_count);
        out.put_u8(s.ssd_count);
        out.put_u8(s.cpu_count);
        out.put_u8(s.dimm_count);
        out.put_u8(s.fan_count);
        out.put_u8(s.psu_count);
        out.put_u8(s.has_raid_card as u8);
        out.put_u8(s.has_flash_card as u8);
    }

    let n = cols.len();
    out.put_u32(n as u32);
    for &v in cols.ids() {
        out.put_u64(v);
    }
    for &v in cols.servers() {
        out.put_u32(v);
    }
    for &v in cols.data_centers() {
        out.put_u16(v);
    }
    for &v in cols.product_lines() {
        out.put_u16(v);
    }
    out.extend_from_slice(cols.classes());
    out.extend_from_slice(cols.device_slots());
    out.extend_from_slice(cols.failure_types());
    for &v in cols.error_days() {
        out.put_u32(v);
    }
    for &v in cols.error_sods() {
        out.put_u32(v);
    }
    out.extend_from_slice(cols.rack_positions());
    out.extend_from_slice(cols.categories());
    for &v in cols.op_days() {
        out.put_u32(v);
    }
    for &v in cols.op_sods() {
        out.put_u32(v);
    }
    for &v in cols.operators() {
        out.put_u16(v);
    }
    out.extend_from_slice(cols.actions());
    for &d in cols.details() {
        out.put_u32(detail_ids[d as usize]);
    }

    let digest = fnv1a(FNV_OFFSET, &out);
    out.put_u64(digest);
    out
}

/// Writes `trace` as a binary snapshot file at `path`.
///
/// # Errors
///
/// Propagates filesystem errors as [`TraceError::Io`].
pub fn write_snapshot<P: AsRef<Path>>(trace: &Trace, path: P) -> Result<(), TraceError> {
    std::fs::write(path, snapshot_to_bytes(trace))?;
    Ok(())
}

// ---------------------------------------------------------------- reading

/// Bounds-checked little-endian cursor over the snapshot image.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| err("unexpected end of snapshot"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, TraceError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, TraceError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u16_vec(&mut self, n: usize) -> Result<Vec<u16>, TraceError> {
        self.take(n * 2).map(|b| {
            b.chunks_exact(2)
                .map(|c| u16::from_le_bytes(c.try_into().unwrap()))
                .collect()
        })
    }

    fn u32_vec(&mut self, n: usize) -> Result<Vec<u32>, TraceError> {
        self.take(n * 4).map(|b| {
            b.chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect()
        })
    }

    fn u64_vec(&mut self, n: usize) -> Result<Vec<u64>, TraceError> {
        self.take(n * 8).map(|b| {
            b.chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect()
        })
    }
}

struct Dict(Vec<String>);

impl Dict {
    fn get(&self, id: u32) -> Result<&str, TraceError> {
        self.0.get(id as usize).map(String::as_str).ok_or_else(|| {
            err(format!(
                "dictionary id {id} out of range ({})",
                self.0.len()
            ))
        })
    }
}

/// Reconstructs a trace from an in-memory snapshot image.
///
/// # Errors
///
/// Returns [`TraceError::Snapshot`] for a bad magic, unsupported version,
/// truncated image, digest mismatch, or out-of-range dictionary id — and
/// whatever [`Trace::from_columns`] reports if the decoded columns
/// violate trace invariants (an out-of-range id or tag, a response
/// mismatch, a duplicate id, rows out of order).
pub fn snapshot_from_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(err("snapshot too short"));
    }
    let (body, footer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(footer.try_into().unwrap());
    let computed = fnv1a(FNV_OFFSET, body);
    if stored != computed {
        return Err(err(format!(
            "digest mismatch: stored {stored:016x}, computed {computed:016x}"
        )));
    }

    let mut r = Reader {
        bytes: body,
        pos: 0,
    };
    if r.take(MAGIC.len())? != MAGIC {
        return Err(err("bad magic"));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(err(format!(
            "unsupported snapshot version {version} (expected {VERSION})"
        )));
    }

    let n_strings = r.u32()? as usize;
    let mut strings = Vec::with_capacity(n_strings.min(1 << 20));
    for _ in 0..n_strings {
        let len = r.u32()? as usize;
        let s = std::str::from_utf8(r.take(len)?)
            .map_err(|e| err(format!("invalid UTF-8 in dictionary: {e}")))?;
        strings.push(s.to_owned());
    }
    let dict = Dict(strings);

    let start = SimTime::from_secs(r.u64()?);
    let days = r.u64()?;
    let seed = r.u64()?;
    let description = dict.get(r.u32()?)?.to_owned();
    let info = TraceInfo {
        start,
        days,
        seed,
        description,
    };

    let n_dcs = r.u32()? as usize;
    let mut data_centers = Vec::with_capacity(n_dcs.min(1 << 16));
    for _ in 0..n_dcs {
        let id = DataCenterId::new(r.u16()?);
        let name = dict.get(r.u32()?)?.to_owned();
        let built_year = r.u16()?;
        let modern_cooling = r.u8()? != 0;
        let rack_positions = r.u8()?;
        data_centers.push(DataCenterMeta {
            id,
            name,
            built_year,
            modern_cooling,
            rack_positions,
        });
    }

    let n_lines = r.u32()? as usize;
    let mut product_lines = Vec::with_capacity(n_lines.min(1 << 16));
    for _ in 0..n_lines {
        let id = ProductLineId::new(r.u16()?);
        let name = dict.get(r.u32()?)?.to_owned();
        let workload = workload_from_tag(r.u8()?)?;
        let fault_tolerance = tolerance_from_tag(r.u8()?)?;
        product_lines.push(ProductLineMeta {
            id,
            name,
            workload,
            fault_tolerance,
        });
    }

    let n_servers = r.u32()? as usize;
    let mut servers = Vec::with_capacity(n_servers.min(1 << 22));
    let mut derived = Vec::with_capacity(22);
    for _ in 0..n_servers {
        let id = ServerId::new(r.u32()?);
        let hostname = dict.get(r.u32()?)?;
        let data_center = DataCenterId::new(r.u16()?);
        let product_line = ProductLineId::new(r.u16()?);
        let rack = RackId::new(r.u32()?);
        let position = RackPosition::new(r.u8()?);
        let generation = r.u8()?;
        let deploy_time = SimTime::from_secs(r.u64()?);
        let warranty = SimDuration::from_secs(r.u64()?);
        let server = ServerMeta {
            id,
            data_center,
            product_line,
            rack,
            position,
            generation,
            deploy_time,
            warranty,
            hdd_count: r.u8()?,
            ssd_count: r.u8()?,
            cpu_count: r.u8()?,
            dimm_count: r.u8()?,
            fan_count: r.u8()?,
            psu_count: r.u8()?,
            has_raid_card: r.u8()? != 0,
            has_flash_card: r.u8()? != 0,
        };
        // Hostnames are derived from the placement, so a stored name is
        // only a check on it.
        derived.clear();
        server.write_hostname(&mut derived);
        if hostname.as_bytes() != derived {
            return Err(TraceError::HostnameMismatch { server: id });
        }
        servers.push(server);
    }

    let n = r.u32()? as usize;
    let mut cols = FotColumns {
        id: r.u64_vec(n)?,
        server: r.u32_vec(n)?,
        data_center: r.u16_vec(n)?,
        product_line: r.u16_vec(n)?,
        class: r.take(n)?.to_vec(),
        device_slot: r.take(n)?.to_vec(),
        failure_type: r.take(n)?.to_vec(),
        error_day: r.u32_vec(n)?,
        error_sod: r.u32_vec(n)?,
        rack_position: r.take(n)?.to_vec(),
        category: r.take(n)?.to_vec(),
        op_day: r.u32_vec(n)?,
        op_sod: r.u32_vec(n)?,
        operator: r.u16_vec(n)?,
        action: r.take(n)?.to_vec(),
        detail: r.u32_vec(n)?,
        ..FotColumns::default()
    };
    if r.pos != body.len() {
        return Err(err(format!(
            "{} trailing bytes after the column section",
            body.len() - r.pos
        )));
    }

    // Details index the whole snapshot dictionary; the trace's own
    // dictionary holds only details, interned in first-appearance order.
    let mut details = ColumnsBuilder::default();
    let mut remap = vec![u32::MAX; dict.0.len()];
    for d in &mut cols.detail {
        let local = remap
            .get_mut(*d as usize)
            .ok_or_else(|| err(format!("detail id {d} out of range ({})", dict.0.len())))?;
        if *local == u32::MAX {
            *local = details.intern(&dict.0[*d as usize]);
        }
        *d = *local;
    }
    cols.dict = details.finish().dict;

    Trace::from_columns(info, servers, data_centers, product_lines, cols)
}

/// Reads a binary snapshot file written by [`write_snapshot`].
///
/// # Errors
///
/// Propagates filesystem errors as [`TraceError::Io`] and corruption as
/// [`TraceError::Snapshot`].
pub fn read_snapshot<P: AsRef<Path>>(path: P) -> Result<Trace, TraceError> {
    let bytes = std::fs::read(path)?;
    snapshot_from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::fots_digest;
    use crate::store::tests::{fot, tiny_fleet};
    use crate::FotCategory;

    fn sample_trace() -> Trace {
        let (servers, dcs, lines) = tiny_fleet();
        let info = TraceInfo {
            start: SimTime::ORIGIN,
            days: 100,
            seed: 7,
            description: "snapshot-test".into(),
        };
        let fots = vec![
            fot(1, 0, 1, FotCategory::Fixing),
            fot(2, 1, 2, FotCategory::Error),
            fot(3, 0, 3, FotCategory::FalseAlarm),
            fot(4, 2, 5, FotCategory::Fixing),
        ];
        Trace::new(info, servers, dcs, lines, fots).unwrap()
    }

    #[test]
    fn round_trip_is_equal_and_digest_stable() {
        let trace = sample_trace();
        let bytes = snapshot_to_bytes(&trace);
        let back = snapshot_from_bytes(&bytes).unwrap();
        assert_eq!(back, trace);
        assert_eq!(fots_digest(back.fots()), fots_digest(trace.fots()));
        // Serialization is deterministic.
        assert_eq!(snapshot_to_bytes(&back), bytes);
    }

    #[test]
    fn bad_magic_is_a_typed_error() {
        let mut bytes = snapshot_to_bytes(&sample_trace());
        bytes[0] ^= 0xff;
        // Flipping a header byte breaks the digest first; then fix the
        // digest and the magic check itself must fire.
        assert!(matches!(
            snapshot_from_bytes(&bytes),
            Err(TraceError::Snapshot { .. })
        ));
        let body_len = bytes.len() - 8;
        let digest = fnv1a(FNV_OFFSET, &bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&digest);
        let e = snapshot_from_bytes(&bytes).unwrap_err();
        assert!(e.to_string().contains("magic"), "{e}");
    }

    #[test]
    fn corrupted_payload_fails_the_digest() {
        let mut bytes = snapshot_to_bytes(&sample_trace());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let e = snapshot_from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(e, TraceError::Snapshot { ref message } if message.contains("digest")),
            "{e}"
        );
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let bytes = snapshot_to_bytes(&sample_trace());
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    snapshot_from_bytes(&bytes[..cut]),
                    Err(TraceError::Snapshot { .. })
                ),
                "cut at {cut} of {}",
                bytes.len()
            );
        }
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut bytes = snapshot_to_bytes(&sample_trace());
        bytes[MAGIC.len()] = 0xee; // version field
        let body_len = bytes.len() - 8;
        let digest = fnv1a(FNV_OFFSET, &bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&digest);
        let e = snapshot_from_bytes(&bytes).unwrap_err();
        assert!(e.to_string().contains("version"), "{e}");
    }

    #[test]
    fn file_round_trip() {
        let trace = sample_trace();
        let dir = std::env::temp_dir().join("dcf-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("t-{}.dcfsnap", std::process::id()));
        write_snapshot(&trace, &path).unwrap();
        let back = read_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, trace);
    }
}
