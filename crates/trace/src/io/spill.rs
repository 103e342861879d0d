//! Per-shard ticket spill files and their k-way merge.
//!
//! The sharded engine simulates disjoint server ranges and must not hold
//! every shard's tickets in memory at once. Each shard instead *spills*
//! its (already sorted) pre-id ticket records into a compact container,
//! and a streaming k-way merge replays all shards in global order so
//! ticket ids — and therefore the trace bytes — come out identical to a
//! one-shard run.
//!
//! A spill file is a 36-byte header (magic 8 · version u32 · shard_index
//! u32 · shard_count u32 · server_lo u32 · server_hi u32 · rows u64, all
//! little-endian), delta varint blocks, and an 8-byte footer:
//!
//! ```text
//! magic "DCFSPIL1"
//!   blocks of up to 4096 rows: row_count u32 · payload_len u32 · payload
//!   each row, in push order:
//!     varint(server − server_lo) ·
//!     u8 (class | category·16) · slot u8 · ftype u8 ·
//!     varint zigzag(error_secs − previous row's error_secs) ·
//!     u8 response tag (0 = none, else 1 + action tag) ·
//!     if present: varint zigzag(op_secs − error_secs) · varint operator
//!   footer is the word-chunked FNV used by trace digests, verified
//!   incrementally while reading — no up-front whole-file pass.
//! ```
//!
//! The encoding leans on what the merge key already guarantees:
//! `error_secs` is non-decreasing, server ids sit inside the shard's
//! range, and operator responses trail their error by a short delay.
//! Records shrink to roughly 10–13 bytes, and readers never rewind:
//! [`ShardSpillReader::read_chunk`] decodes the next rows in order.
//!
//! [`ShardSpillWriter`] encodes one shard's records into in-memory blocks
//! and streams them to disk on [`ShardSpillWriter::finish`];
//! [`merge_spills`] (or [`merge_cursors`] over eagerly opened
//! [`SpillCursor`]s) holds one chunk per shard and emits records in
//! `(error_time, server, class, slot)` order with ties going to the
//! lowest shard index. A [`SpillCursor`] can also borrow an already
//! sorted in-memory chunk ([`SpillCursor::from_sorted`]), which is how the
//! engine merges its per-thread chunks, one [`split_by_time`] range per
//! thread: [`merge_cursors`] is the one k-way merge, and the one owner of
//! its tie-break rule.

use std::borrow::Cow;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

use crate::columns::{action_from_tag, action_tag, category_tag};
use crate::io::ChunkedFnv;
use crate::{
    ComponentClass, FailureType, FotCategory, OperatorId, OperatorResponse, ServerId, SimTime,
    TraceError,
};

/// Magic bytes opening a spill file.
pub const MAGIC: &[u8; 8] = b"DCFSPIL1";
/// Current spill format version.
pub const VERSION: u32 = 1;

/// Rows per delta block; bounds how far a corrupt frame can reach.
pub const DELTA_BLOCK_ROWS: u32 = 4096;

const HEADER_LEN: u64 = 8 + 4 + 4 * 4 + 8;

/// Largest sane block payload; a frame declaring more is corrupt.
const MAX_BLOCK_PAYLOAD: u32 = 1 << 26;

fn err(message: impl Into<String>) -> TraceError {
    TraceError::Snapshot {
        message: message.into(),
    }
}

fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = buf
            .get(*pos)
            .ok_or_else(|| err("spill block truncated inside varint"))?;
        *pos += 1;
        if shift == 63 && b & !0x01 != 0 {
            return Err(err("varint overflow in spill block"));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(err("varint too long in spill block"));
        }
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn read_u8(buf: &[u8], pos: &mut usize) -> Result<u8, TraceError> {
    let &b = buf.get(*pos).ok_or_else(|| err("spill block truncated"))?;
    *pos += 1;
    Ok(b)
}

/// One pre-id ticket, as produced by a shard's per-server phase: everything
/// a [`Fot`](crate::Fot) needs except the id (assigned in merge order) and
/// the fleet-derived fields (DC, product line, rack position, detail),
/// which the merge consumer joins back from server metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillRecord {
    /// The server the ticket is on.
    pub server: ServerId,
    /// Failed component class.
    pub class: ComponentClass,
    /// Component slot within its class.
    pub slot: u8,
    /// Concrete failure type.
    pub ftype: FailureType,
    /// Detection timestamp.
    pub error_time: SimTime,
    /// Assigned category.
    pub category: FotCategory,
    /// Sampled operator response, if any.
    pub response: Option<OperatorResponse>,
}

impl SpillRecord {
    /// The global merge ordering key (matches the engine's assembly key).
    pub fn key(&self) -> (SimTime, u32, usize, u8) {
        (
            self.error_time,
            self.server.raw(),
            self.class.index(),
            self.slot,
        )
    }
}

/// Streams one shard's sorted ticket records into a spill file.
///
/// Records must be pushed in [`SpillRecord::key`] order (debug-asserted).
/// Each record is encoded into its block as it arrives, so the buffer
/// holds the *compressed* bytes — memory is bounded by one shard's
/// ticket count — and the file is only created by [`finish`].
///
/// [`finish`]: ShardSpillWriter::finish
#[derive(Debug)]
pub struct ShardSpillWriter {
    path: PathBuf,
    shard_index: u32,
    shard_count: u32,
    server_lo: u32,
    server_hi: u32,
    rows: u64,
    last_key: Option<(SimTime, u32, usize, u8)>,
    // Finished frames, the open block, and the running error-time
    // predictor.
    frames: Vec<u8>,
    block: Vec<u8>,
    block_rows: u32,
    prev_error_secs: u64,
}

impl ShardSpillWriter {
    /// Creates a writer for shard `shard_index` of `shard_count`, covering
    /// the half-open server-id range `server_lo..server_hi`. The file is
    /// only created by [`ShardSpillWriter::finish`].
    pub fn new<P: AsRef<Path>>(
        path: P,
        shard_index: u32,
        shard_count: u32,
        server_lo: u32,
        server_hi: u32,
    ) -> Self {
        Self {
            path: path.as_ref().to_path_buf(),
            shard_index,
            shard_count,
            server_lo,
            server_hi,
            rows: 0,
            last_key: None,
            frames: Vec::new(),
            block: Vec::new(),
            block_rows: 0,
            prev_error_secs: 0,
        }
    }

    /// Rows buffered so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Appends one record. Records must arrive sorted by
    /// [`SpillRecord::key`] and inside the shard's server range.
    pub fn push(&mut self, rec: &SpillRecord) {
        debug_assert!(
            (self.server_lo..self.server_hi).contains(&rec.server.raw()),
            "server {} outside shard range {}..{}",
            rec.server.raw(),
            self.server_lo,
            self.server_hi,
        );
        debug_assert!(
            self.last_key.is_none_or(|prev| prev <= rec.key()),
            "spill records must be pushed in key order"
        );
        self.last_key = Some(rec.key());
        self.rows += 1;
        let class = rec.class.index() as u8;
        let cat = category_tag(rec.category);
        debug_assert!(class < 16 && cat < 16, "class/category tags must pack");
        let error_secs = rec.error_time.as_secs();
        push_varint(
            &mut self.block,
            u64::from(rec.server.raw().wrapping_sub(self.server_lo)),
        );
        self.block.push(class | (cat << 4));
        self.block.push(rec.slot);
        self.block.push(rec.ftype.index() as u8);
        push_varint(
            &mut self.block,
            zigzag(error_secs.wrapping_sub(self.prev_error_secs) as i64),
        );
        self.prev_error_secs = error_secs;
        match rec.response {
            Some(r) => {
                self.block.push(1 + action_tag(r.action));
                push_varint(
                    &mut self.block,
                    zigzag(r.op_time.as_secs().wrapping_sub(error_secs) as i64),
                );
                push_varint(&mut self.block, u64::from(r.operator.raw()));
            }
            None => self.block.push(0),
        }
        self.block_rows += 1;
        if self.block_rows == DELTA_BLOCK_ROWS {
            self.flush_block();
        }
    }

    fn flush_block(&mut self) {
        if self.block_rows == 0 {
            return;
        }
        self.frames
            .extend_from_slice(&self.block_rows.to_le_bytes());
        self.frames
            .extend_from_slice(&(self.block.len() as u32).to_le_bytes());
        self.frames.extend_from_slice(&self.block);
        self.block.clear();
        self.block_rows = 0;
    }

    /// Writes the spill file and returns the bytes written (header +
    /// record section + footer). A write that fails after the file was
    /// created removes the partial file, so an error leaves nothing behind.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors as [`TraceError::Io`].
    pub fn finish(mut self) -> Result<u64, TraceError> {
        self.flush_block();
        let mut header = [0u8; HEADER_LEN as usize];
        header[..8].copy_from_slice(MAGIC);
        header[8..12].copy_from_slice(&VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&self.shard_index.to_le_bytes());
        header[16..20].copy_from_slice(&self.shard_count.to_le_bytes());
        header[20..24].copy_from_slice(&self.server_lo.to_le_bytes());
        header[24..28].copy_from_slice(&self.server_hi.to_le_bytes());
        header[28..36].copy_from_slice(&self.rows.to_le_bytes());
        let mut hash = ChunkedFnv::new();
        hash.absorb(&header);
        hash.absorb(&self.frames);
        let mut w = BufWriter::new(File::create(&self.path)?);
        let written = w
            .write_all(&header)
            .and_then(|()| w.write_all(&self.frames))
            .and_then(|()| w.write_all(&hash.finish().to_le_bytes()))
            .and_then(|()| w.flush());
        if let Err(e) = written {
            drop(w);
            std::fs::remove_file(&self.path).ok();
            return Err(e.into());
        }
        Ok(HEADER_LEN + self.frames.len() as u64 + 8)
    }
}

/// Reads a spill file in bounded, sequential row chunks.
///
/// [`open`] only parses the header; the footer hash accumulates *while*
/// chunks decode and is checked the moment the last row is read, so
/// verification costs no extra pass over the file.
///
/// [`open`]: ShardSpillReader::open
#[derive(Debug)]
pub struct ShardSpillReader {
    shard_index: u32,
    shard_count: u32,
    server_lo: u32,
    server_hi: u32,
    rows: u64,
    file: BufReader<File>,
    file_len: u64,
    hash: ChunkedFnv,
    next_row: u64,
    prev_error_secs: u64,
    payload: Vec<u8>,
    pos: usize,
    block_rows_left: u32,
    verified: bool,
}

impl ShardSpillReader {
    /// Opens a spill file written by [`ShardSpillWriter`]. The footer
    /// digest is verified incrementally as [`read_chunk`] drains the file
    /// (an empty file is verified immediately).
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] for filesystem failures, [`TraceError::Snapshot`]
    /// for a bad magic (including the retired fixed-width format's), an
    /// unsupported version, or a file too short to hold header and footer.
    ///
    /// [`read_chunk`]: ShardSpillReader::read_chunk
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, TraceError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_LEN + 8 {
            return Err(err("spill file too short"));
        }
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact(&mut header)?;
        if &header[..8] != MAGIC {
            return Err(err("bad spill magic"));
        }
        let u32_at = |o: usize| u32::from_le_bytes(header[o..o + 4].try_into().unwrap());
        let version = u32_at(8);
        if version != VERSION {
            return Err(err(format!(
                "unsupported spill version {version} (expected {VERSION})"
            )));
        }
        let mut hash = ChunkedFnv::new();
        hash.absorb(&header);
        let mut reader = Self {
            shard_index: u32_at(12),
            shard_count: u32_at(16),
            server_lo: u32_at(20),
            server_hi: u32_at(24),
            rows: u64::from_le_bytes(header[28..36].try_into().unwrap()),
            file: BufReader::with_capacity(1 << 16, file),
            file_len,
            hash,
            next_row: 0,
            prev_error_secs: 0,
            payload: Vec::new(),
            pos: 0,
            block_rows_left: 0,
            verified: false,
        };
        if reader.rows == 0 {
            reader.finish_verify()?;
        }
        Ok(reader)
    }

    /// Which shard wrote this file.
    pub fn shard_index(&self) -> u32 {
        self.shard_index
    }

    /// How many shards the run was split into.
    pub fn shard_count(&self) -> u32 {
        self.shard_count
    }

    /// First server id of the shard's half-open range.
    pub fn server_lo(&self) -> u32 {
        self.server_lo
    }

    /// One past the last server id of the shard's range.
    pub fn server_hi(&self) -> u32 {
        self.server_hi
    }

    /// Total records in the file.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Decodes the next `max_rows` records (fewer at the end of the file,
    /// none once it is drained), in stored order. Draining the last row
    /// triggers the footer digest check.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on read failures, [`TraceError::Snapshot`] on a
    /// truncated file, a corrupt frame, an out-of-range tag, trailing
    /// bytes, or a digest mismatch.
    pub fn read_chunk(&mut self, max_rows: usize) -> Result<Vec<SpillRecord>, TraceError> {
        let n = (self.rows - self.next_row).min(max_rows as u64) as usize;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            if self.block_rows_left == 0 {
                self.load_block()?;
            }
            out.push(self.decode_row()?);
            self.block_rows_left -= 1;
            self.next_row += 1;
        }
        if self.next_row == self.rows {
            self.finish_verify()?;
        }
        Ok(out)
    }

    fn decode_row(&mut self) -> Result<SpillRecord, TraceError> {
        let p = &self.payload;
        let pos = &mut self.pos;
        let server = self.server_lo.wrapping_add(
            u32::try_from(read_varint(p, pos)?).map_err(|_| err("server delta out of range"))?,
        );
        let packed = read_u8(p, pos)?;
        let class = *ComponentClass::ALL
            .get((packed & 0x0f) as usize)
            .ok_or_else(|| err(format!("invalid class tag {}", packed & 0x0f)))?;
        let category = *FotCategory::ALL
            .get((packed >> 4) as usize)
            .ok_or_else(|| err(format!("invalid category tag {}", packed >> 4)))?;
        let slot = read_u8(p, pos)?;
        let ftype_tag = read_u8(p, pos)?;
        let ftype = *FailureType::ALL
            .get(ftype_tag as usize)
            .ok_or_else(|| err(format!("invalid failure-type tag {ftype_tag}")))?;
        let error_secs = self
            .prev_error_secs
            .wrapping_add(unzigzag(read_varint(p, pos)?) as u64);
        self.prev_error_secs = error_secs;
        let response_tag = read_u8(p, pos)?;
        let response = if response_tag == 0 {
            None
        } else {
            let action = action_from_tag(response_tag - 1)
                .ok_or_else(|| err(format!("invalid action tag {}", response_tag - 1)))?;
            let op_secs = error_secs.wrapping_add(unzigzag(read_varint(p, pos)?) as u64);
            let operator =
                u16::try_from(read_varint(p, pos)?).map_err(|_| err("operator id out of range"))?;
            Some(OperatorResponse {
                operator: OperatorId::new(operator),
                op_time: SimTime::from_secs(op_secs),
                action,
            })
        };
        Ok(SpillRecord {
            server: ServerId::new(server),
            class,
            slot,
            ftype,
            error_time: SimTime::from_secs(error_secs),
            category,
            response,
        })
    }

    fn read_hashed(&mut self, buf: &mut [u8]) -> Result<(), TraceError> {
        read_exact_typed(&mut self.file, buf)?;
        self.hash.absorb(buf);
        Ok(())
    }

    fn load_block(&mut self) -> Result<(), TraceError> {
        if self.pos != self.payload.len() {
            return Err(err("spill block has trailing bytes"));
        }
        let rows_remaining = self.rows - self.next_row;
        let mut frame = [0u8; 8];
        self.read_hashed(&mut frame)?;
        let row_count = u32::from_le_bytes(frame[..4].try_into().unwrap());
        let payload_len = u32::from_le_bytes(frame[4..].try_into().unwrap());
        if row_count == 0 || u64::from(row_count) > rows_remaining {
            return Err(err(format!(
                "spill block declares {row_count} rows with {rows_remaining} remaining"
            )));
        }
        if payload_len == 0 || payload_len > MAX_BLOCK_PAYLOAD {
            return Err(err(format!(
                "spill block payload length {payload_len} is absurd"
            )));
        }
        let mut payload = std::mem::take(&mut self.payload);
        payload.resize(payload_len as usize, 0);
        let res = self.read_hashed(&mut payload);
        self.payload = payload;
        res?;
        self.pos = 0;
        self.block_rows_left = row_count;
        Ok(())
    }

    fn finish_verify(&mut self) -> Result<(), TraceError> {
        if self.verified {
            return Ok(());
        }
        if self.pos != self.payload.len() {
            return Err(err("spill block has trailing bytes"));
        }
        let hashed = self.hash.total;
        if hashed + 8 != self.file_len {
            return Err(err(format!(
                "spill size mismatch: rows end at byte {hashed}, file has {} (footer is 8)",
                self.file_len
            )));
        }
        let mut footer = [0u8; 8];
        read_exact_typed(&mut self.file, &mut footer)?;
        let stored = u64::from_le_bytes(footer);
        let computed = self.hash.finish();
        if stored != computed {
            return Err(err(format!(
                "spill digest mismatch: stored {stored:016x}, computed {computed:016x}"
            )));
        }
        self.verified = true;
        Ok(())
    }
}

/// `read_exact` that reports a short file as a typed truncation error.
fn read_exact_typed(file: &mut BufReader<File>, buf: &mut [u8]) -> Result<(), TraceError> {
    file.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            err("spill file truncated")
        } else {
            TraceError::Io(e)
        }
    })
}

/// Rows each merge cursor holds in memory at a time; the merge's peak
/// memory is one such chunk per shard, independent of total rows.
pub const MERGE_CHUNK_ROWS: usize = 8 * 1024;

/// A sorted record source taking part in [`merge_cursors`]: a spill
/// reader plus its buffered head chunk, or an in-memory chunk that is
/// already sorted.
///
/// The pipelined sharded engine opens a cursor the moment a shard's
/// spill lands and calls [`prefetch`](SpillCursor::prefetch) so the
/// first chunk's decode overlaps the shards still simulating.
#[derive(Debug)]
pub struct SpillCursor<'a> {
    shard_index: u32,
    reader: Option<ShardSpillReader>,
    /// The reader's current chunk, or the borrowed in-memory records.
    buf: Cow<'a, [SpillRecord]>,
    pos: usize,
}

impl SpillCursor<'static> {
    /// Wraps an opened reader with an empty head buffer.
    pub fn new(reader: ShardSpillReader) -> Self {
        Self {
            shard_index: reader.shard_index(),
            reader: Some(reader),
            buf: Cow::Owned(Vec::new()),
            pos: 0,
        }
    }
}

impl<'a> SpillCursor<'a> {
    /// Wraps `records`, already sorted by [`SpillRecord::key`], as the
    /// source with merge index `index` (ties go to the lowest index, as
    /// with shard indices). The records are borrowed, so any sub-slice of
    /// a sorted chunk merges without a copy.
    pub fn from_sorted(index: u32, records: &'a [SpillRecord]) -> Self {
        debug_assert!(
            records.windows(2).all(|w| w[0].key() <= w[1].key()),
            "in-memory merge chunks must be sorted by key"
        );
        Self {
            shard_index: index,
            reader: None,
            buf: Cow::Borrowed(records),
            pos: 0,
        }
    }

    /// The merge index: the shard index for a spill, or the index given
    /// to [`SpillCursor::from_sorted`].
    pub fn shard_index(&self) -> u32 {
        self.shard_index
    }

    /// Loads the first chunk if nothing is buffered yet, so the merge's
    /// opening comparisons hit memory.
    ///
    /// # Errors
    ///
    /// Propagates reader errors.
    pub fn prefetch(&mut self) -> Result<(), TraceError> {
        self.head().map(|_| ())
    }

    fn head(&mut self) -> Result<Option<&SpillRecord>, TraceError> {
        if self.pos == self.buf.len() {
            if let Some(reader) = &mut self.reader {
                self.buf = Cow::Owned(reader.read_chunk(MERGE_CHUNK_ROWS)?);
                self.pos = 0;
            }
        }
        Ok(self.buf.get(self.pos))
    }
}

/// K-way merges spill files into one globally ordered record stream.
///
/// Readers are processed in ascending `shard_index`; records come out
/// sorted by [`SpillRecord::key`] with ties going to the lowest shard
/// index, so feeding the stream through a ticket-id factory reproduces a
/// one-shard run byte for byte. Peak memory is one [`MERGE_CHUNK_ROWS`]
/// chunk per shard, independent of total rows.
///
/// Returns the number of records emitted.
///
/// # Errors
///
/// Propagates reader errors ([`TraceError::Io`] / [`TraceError::Snapshot`]).
///
/// # Examples
///
/// ```
/// use dcf_trace::io::spill::{
///     merge_spills, ShardSpillReader, ShardSpillWriter, SpillRecord,
/// };
/// use dcf_trace::{ComponentClass, FailureType, FotCategory, ServerId, SimTime};
///
/// let rec = |server: u32, day: u64| SpillRecord {
///     server: ServerId::new(server),
///     class: ComponentClass::Hdd,
///     slot: 0,
///     ftype: FailureType::SmartFail,
///     error_time: SimTime::from_days(day),
///     category: FotCategory::Fixing,
///     response: None,
/// };
/// let dir = std::env::temp_dir().join(format!("dcf-spill-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir).unwrap();
///
/// // Shard 0 owns servers 0..2, shard 1 owns 2..4; both are sorted.
/// let mut w0 = ShardSpillWriter::new(dir.join("s0.dcfspill"), 0, 2, 0, 2);
/// w0.push(&rec(0, 3));
/// w0.push(&rec(1, 9));
/// w0.finish().unwrap();
/// let mut w1 = ShardSpillWriter::new(dir.join("s1.dcfspill"), 1, 2, 2, 4);
/// w1.push(&rec(3, 1));
/// w1.push(&rec(2, 5));
/// w1.push(&rec(2, 9));
/// w1.finish().unwrap();
///
/// let readers = vec![
///     ShardSpillReader::open(dir.join("s0.dcfspill")).unwrap(),
///     ShardSpillReader::open(dir.join("s1.dcfspill")).unwrap(),
/// ];
/// let mut merged = Vec::new();
/// let n = merge_spills(readers, |r| merged.push((r.error_time.day_index(), r.server.raw())))
///     .unwrap();
/// std::fs::remove_dir_all(&dir).ok();
/// assert_eq!(n, 5);
/// // Global (error_time, server) order across both shards:
/// assert_eq!(merged, vec![(1, 3), (3, 0), (5, 2), (9, 1), (9, 2)]);
/// ```
pub fn merge_spills(
    readers: Vec<ShardSpillReader>,
    emit: impl FnMut(SpillRecord),
) -> Result<u64, TraceError> {
    merge_cursors(readers.into_iter().map(SpillCursor::new).collect(), emit)
}

/// [`merge_spills`] over cursors that may already hold prefetched chunks
/// or wrap sorted in-memory chunks — the entry point for the engine,
/// which merges its per-thread chunks this way and opens and prefetches
/// each spill as soon as its shard finishes.
///
/// # Errors
///
/// Propagates reader errors ([`TraceError::Io`] / [`TraceError::Snapshot`]).
pub fn merge_cursors(
    cursors: Vec<SpillCursor<'_>>,
    mut emit: impl FnMut(SpillRecord),
) -> Result<u64, TraceError> {
    try_merge_cursors(cursors, |r| {
        emit(r);
        ControlFlow::Continue(())
    })
}

/// [`merge_cursors`] that stops as soon as `emit` breaks, leaving the
/// rest of the cursors unread, and returns the records emitted (the one
/// that broke included). A consumer that can fail part-way stops the
/// merge this way instead of decoding records nobody will read.
///
/// # Errors
///
/// Propagates reader errors met before `emit` breaks.
pub fn try_merge_cursors(
    mut cursors: Vec<SpillCursor<'_>>,
    mut emit: impl FnMut(SpillRecord) -> ControlFlow<()>,
) -> Result<u64, TraceError> {
    cursors.sort_by_key(SpillCursor::shard_index);

    // Only the cursor that just emitted can change between iterations;
    // caching each head's sort key keeps the per-record scan to plain
    // tuple comparisons instead of k buffered-reader round-trips.
    let mut heads: Vec<Option<(SimTime, u32, usize, u8)>> = Vec::with_capacity(cursors.len());
    for cursor in cursors.iter_mut() {
        heads.push(cursor.head()?.map(SpillRecord::key));
    }
    let mut emitted = 0u64;
    loop {
        let mut best: Option<(usize, (SimTime, u32, usize, u8))> = None;
        for (i, key) in heads.iter().enumerate() {
            if let Some(k) = *key {
                // Strict `<` keeps the lowest shard index on ties.
                if best.is_none_or(|(_, bk)| k < bk) {
                    best = Some((i, k));
                }
            }
        }
        let Some((i, _)) = best else { break };
        let cursor = &mut cursors[i];
        let rec = cursor.buf[cursor.pos];
        cursor.pos += 1;
        heads[i] = cursor.head()?.map(SpillRecord::key);
        emitted += 1;
        if emit(rec).is_break() {
            break;
        }
    }
    Ok(emitted)
}

/// Splits sorted record runs into up to `parts` consecutive error-time
/// ranges of about equal size, so that several threads can merge one
/// range each. Range `k` holds each run's stretch of it, in run order.
///
/// The boundaries are error times at even steps through the longest
/// run, and every run splits at its first record at or after each
/// boundary (`partition_point`). So records with equal error times
/// always share a range, every record of a range sorts before every
/// record of the next, and merging each range's stretches with
/// [`merge_cursors`] (as [`SpillCursor::from_sorted`] in run order) and
/// concatenating the ranges reproduces the merge of the whole runs.
pub fn split_by_time<'a>(runs: &[&'a [SpillRecord]], parts: usize) -> Vec<Vec<&'a [SpillRecord]>> {
    let longest = runs.iter().copied().max_by_key(|r| r.len()).unwrap_or(&[]);
    let parts = parts.clamp(1, longest.len().max(1));
    let mut starts = vec![0; runs.len()];
    (1..=parts)
        .map(|k| {
            let ends: Vec<usize> = if k == parts {
                runs.iter().map(|r| r.len()).collect()
            } else {
                let t = longest[k * longest.len() / parts].error_time;
                runs.iter()
                    .map(|r| r.partition_point(|rec| rec.error_time < t))
                    .collect()
            };
            let range = runs
                .iter()
                .zip(&starts)
                .zip(&ends)
                .map(|((r, &s), &e)| &r[s..e])
                .collect();
            starts = ends;
            range
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OperatorAction;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dcf-spill-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.dcfspill", std::process::id()))
    }

    fn rec(server: u32, secs: u64, slot: u8, with_response: bool) -> SpillRecord {
        SpillRecord {
            server: ServerId::new(server),
            class: ComponentClass::Hdd,
            slot,
            ftype: FailureType::SmartFail,
            error_time: SimTime::from_secs(secs),
            category: if with_response {
                FotCategory::Fixing
            } else {
                FotCategory::Error
            },
            response: with_response.then(|| OperatorResponse {
                operator: OperatorId::new(3),
                op_time: SimTime::from_secs(secs + 7200),
                action: OperatorAction::IssueRepairOrder,
            }),
        }
    }

    /// Reads a spill file to the end in 64-row chunks.
    fn drain(path: &Path) -> Result<u64, TraceError> {
        let mut reader = ShardSpillReader::open(path)?;
        let mut rows = 0;
        loop {
            let n = reader.read_chunk(64)?.len() as u64;
            if n == 0 {
                return Ok(rows);
            }
            rows += n;
        }
    }

    #[test]
    fn round_trip_preserves_records_and_header() {
        // Bytes per record in a fixed-width columnar layout of the same
        // fields; the delta encoding must beat it.
        const FIXED_WIDTH_ROW_BYTES: u64 = 27;
        let path = temp_path("round-trip");
        let records: Vec<SpillRecord> = (0..10_000)
            .map(|i| rec(i / 7, 3_000 * i as u64 / 2, (i % 3) as u8, i % 5 != 0))
            .collect();
        let mut w = ShardSpillWriter::new(&path, 1, 4, 0, 2000);
        for r in &records {
            w.push(r);
        }
        let bytes = w.finish().unwrap();
        assert_eq!(
            bytes,
            std::fs::metadata(&path).unwrap().len(),
            "finish must report the real file size"
        );
        assert!(
            bytes < 10_000 * FIXED_WIDTH_ROW_BYTES,
            "delta spill of {bytes} bytes is no smaller than fixed-width rows"
        );

        let mut reader = ShardSpillReader::open(&path).unwrap();
        assert_eq!(reader.shard_index(), 1);
        assert_eq!(reader.shard_count(), 4);
        assert_eq!(reader.server_lo(), 0);
        assert_eq!(reader.server_hi(), 2000);
        assert_eq!(reader.rows(), 10_000);
        // Odd-sized chunks cross block seams.
        let mut back = Vec::new();
        loop {
            let chunk = reader.read_chunk(1013).unwrap();
            if chunk.is_empty() {
                break;
            }
            back.extend(chunk);
        }
        std::fs::remove_file(&path).ok();
        assert_eq!(back, records);
    }

    #[test]
    fn delta_corruption_and_truncation_are_typed_errors() {
        let path = temp_path("delta-corrupt");
        let mut w = ShardSpillWriter::new(&path, 0, 1, 0, 10);
        for i in 0..200 {
            w.push(&rec(i % 10, 500 * i as u64, 0, i % 4 == 0));
        }
        w.finish().unwrap();
        let good = std::fs::read(&path).unwrap();
        assert_eq!(drain(&path).unwrap(), 200);

        let rejects = |bytes: &[u8], what: &str| {
            std::fs::write(&path, bytes).unwrap();
            assert!(
                matches!(drain(&path), Err(TraceError::Snapshot { .. })),
                "{what} was accepted"
            );
        };
        // Truncation at every length, including an empty file.
        for len in 0..good.len() {
            rejects(&good[..len], &format!("truncation to {len} bytes"));
        }
        // A flipped bit anywhere surfaces as a header, decode or digest
        // error by the time the file is drained — never silently.
        for at in 0..good.len() {
            let mut bytes = good.clone();
            bytes[at] ^= 0x01;
            rejects(&bytes, &format!("bit flip at byte {at}"));
        }
        // Trailing garbage after the footer.
        let mut padded = good.clone();
        padded.extend_from_slice(b"xx");
        rejects(&padded, "trailing garbage");
        // The retired fixed-width format's magic differs only in its
        // last byte (`0` for `1`).
        let mut retired = good.clone();
        retired[7] = b'0';
        std::fs::write(&path, &retired).unwrap();
        let e = drain(&path).unwrap_err();
        assert!(e.to_string().contains("bad spill magic"), "{e}");

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_interleaves_shards_in_key_order() {
        let pa = temp_path("merge-a");
        let pb = temp_path("merge-b");
        let mut wa = ShardSpillWriter::new(&pa, 0, 2, 0, 5);
        let mut wb = ShardSpillWriter::new(&pb, 1, 2, 5, 10);
        // Identical timestamps across shards: the lower server id (which
        // lives in the lower shard) must win the tie.
        for i in 0..50u64 {
            wa.push(&rec((i / 10) as u32, i * 100, 0, false));
            wb.push(&rec(5 + (i / 10) as u32, i * 100, 0, false));
        }
        wa.finish().unwrap();
        wb.finish().unwrap();

        // Open out of order: merge sorts by shard index.
        let readers = vec![
            ShardSpillReader::open(&pb).unwrap(),
            ShardSpillReader::open(&pa).unwrap(),
        ];
        let mut merged = Vec::new();
        let n = merge_spills(readers, |r| merged.push(r)).unwrap();
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
        assert_eq!(n, 100);
        for pair in merged.windows(2) {
            assert!(pair[0].key() <= pair[1].key(), "merge output out of order");
        }
        // Every equal-time pair has the low-shard server first.
        for pair in merged.chunks(2) {
            assert_eq!(pair[0].error_time, pair[1].error_time);
            assert!(pair[0].server.raw() < pair[1].server.raw());
        }
    }

    #[test]
    fn in_memory_chunks_merge_with_spills_lowest_index_first() {
        let path = temp_path("mixed");
        let mut w = ShardSpillWriter::new(&path, 1, 3, 0, 10);
        w.push(&rec(4, 100, 0, false));
        w.push(&rec(5, 300, 0, true));
        w.finish().unwrap();
        // Equal keys in cursors 0 and 1: the lower index comes out first.
        let tie = rec(4, 100, 0, true);
        let (low, high) = ([tie, rec(9, 300, 0, false)], [rec(1, 200, 0, false)]);
        let cursors = vec![
            SpillCursor::from_sorted(2, &high),
            SpillCursor::new(ShardSpillReader::open(&path).unwrap()),
            SpillCursor::from_sorted(0, &low),
        ];
        let mut merged = Vec::new();
        let n = merge_cursors(cursors, |r| merged.push(r)).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(n, 5);
        assert_eq!(
            merged,
            vec![
                tie,
                rec(4, 100, 0, false),
                rec(1, 200, 0, false),
                rec(5, 300, 0, true),
                rec(9, 300, 0, false),
            ]
        );
    }

    #[test]
    fn empty_shard_merges_with_a_full_one() {
        let pa = temp_path("empty-a");
        let pb = temp_path("empty-b");
        ShardSpillWriter::new(&pa, 0, 2, 0, 5).finish().unwrap();
        let mut wb = ShardSpillWriter::new(&pb, 1, 2, 5, 10);
        wb.push(&rec(7, 123, 1, true));
        wb.finish().unwrap();
        let mut cursors = vec![
            SpillCursor::new(ShardSpillReader::open(&pa).unwrap()),
            SpillCursor::new(ShardSpillReader::open(&pb).unwrap()),
        ];
        for c in &mut cursors {
            c.prefetch().unwrap();
        }
        let mut merged = Vec::new();
        merge_cursors(cursors, |r| merged.push(r)).unwrap();
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
        assert_eq!(merged, vec![rec(7, 123, 1, true)]);
    }
}
