//! Zero-dependency gzip: an RFC 1951 DEFLATE encoder (fixed-Huffman +
//! stored blocks, lazy hash-chain LZ77) wrapped in RFC 1952 framing,
//! plus a minimal inflate checker for the same two block types.
//!
//! The encoder exists to shrink the multi-MB paper-scale section bodies
//! on the wire (`Accept-Encoding: gzip` on `/v1/report/*` and
//! `/v1/trace/{digest}/fots`), so it optimizes for the service's actual
//! payloads — repetitive JSON and markdown — where LZ77 back-references
//! dominate and the fixed Huffman table costs little versus dynamic
//! codes. Output is fully deterministic (no timestamps: MTIME is zero,
//! OS byte 255), which is what lets compressed section bodies be cached
//! per run entry and stay byte-identical across event loops.
//!
//! The parse is part of that contract: a position's match is the longest
//! among the first 64 hash-chain candidates (nearest first, ties to the
//! nearest), and the lazy step defers only to a strictly longer
//! match. The match finder's shortcuts never change that choice: it
//! skips a candidate that differs from the current position at the best
//! length so far (it cannot beat it), compares eight bytes at a time,
//! and reuses the lazy step's lookup as the next position's. Tier-1
//! `tests/serve_bytes.rs` pins the output bytes.
//!
//! The decoder ([`gunzip`]) handles exactly what the encoder emits —
//! stored and fixed-Huffman blocks, FLG=0 headers — and verifies both
//! the CRC32 and ISIZE trailers. It exists so tests (including the
//! round-trip property suite) can check the encoder against an
//! independent in-crate implementation, and so CI can decode gzip'd
//! bodies without external tooling.

/// Window size a DEFLATE back-reference may span.
const WINDOW: usize = 32 * 1024;
/// Shortest encodable match.
const MIN_MATCH: usize = 3;
/// Longest encodable match.
const MAX_MATCH: usize = 258;
/// Hash-table bits for the 3-byte match heads.
const HASH_BITS: u32 = 15;
/// Longest hash chain walked per position; bounds worst-case encode time
/// on highly repetitive input at a negligible ratio cost.
const MAX_CHAIN: usize = 64;
/// Largest payload of one stored (BTYPE=00) block.
const STORED_MAX: usize = 65_535;

/// `(base length, extra bits)` for length codes 257..=285 (RFC 1951 §3.2.5).
const LENGTH_TABLE: [(u16, u8); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// `(base distance, extra bits)` for distance codes 0..=29.
const DIST_TABLE: [(u16, u8); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

/// Slicing-by-8 tables for the IEEE CRC32 (polynomial `0xEDB88320`),
/// built at compile time so the crate stays free of lazy-init
/// machinery. Row 0 is the classic byte-at-a-time table; row `k` carries
/// a byte's contribution across `k` further bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][n] = c;
        n += 1;
    }
    let mut n = 0;
    while n < 256 {
        let mut k = 1;
        while k < 8 {
            let c = tables[k - 1][n];
            tables[k][n] = tables[0][(c & 0xFF) as usize] ^ (c >> 8);
            k += 1;
        }
        n += 1;
    }
    tables
};

/// IEEE CRC32 over `bytes` — the checksum gzip trailers carry. Eight
/// bytes per step (slicing-by-8); the value is the bytewise CRC's.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// LSB-first bit accumulator (DEFLATE's bit order).
struct BitWriter {
    out: Vec<u8>,
    bit_buf: u64,
    bit_count: u32,
}

impl BitWriter {
    fn with_capacity(bytes: usize) -> Self {
        Self {
            out: Vec::with_capacity(bytes),
            bit_buf: 0,
            bit_count: 0,
        }
    }

    /// Writes the low `count` (at most 32) bits of `value`, LSB first;
    /// `value` has no bits above them.
    fn write_bits(&mut self, value: u32, count: u32) {
        self.bit_buf |= u64::from(value) << self.bit_count;
        self.bit_count += count;
        if self.bit_count >= 32 {
            self.out
                .extend_from_slice(&(self.bit_buf as u32).to_le_bytes());
            self.bit_buf >>= 32;
            self.bit_count -= 32;
        }
    }

    /// Flushes every buffered bit, padding to the next byte boundary
    /// with zero bits.
    fn align(&mut self) {
        while self.bit_count > 0 {
            self.out.push(self.bit_buf as u8);
            self.bit_buf >>= 8;
            self.bit_count = self.bit_count.saturating_sub(8);
        }
    }

    fn finish(mut self) -> Vec<u8> {
        self.align();
        self.out
    }
}

/// `code`'s low `len` bits in reverse order. Huffman codes are defined
/// MSB-first, so the LSB-first writer emits them reversed.
const fn reverse_bits(code: u32, len: u32) -> u32 {
    let mut rev = 0;
    let mut i = 0;
    while i < len {
        rev |= ((code >> i) & 1) << (len - 1 - i);
        i += 1;
    }
    rev
}

/// Fixed-Huffman `(reversed code, length)` per literal/length symbol
/// (RFC 1951 §3.2.6).
const FIXED_LITLEN: [(u16, u8); 288] = {
    let mut table = [(0u16, 0u8); 288];
    let mut sym = 0;
    while sym < 288 {
        let (code, len) = match sym {
            0..=143 => (0b0011_0000 + sym, 8),
            144..=255 => (0b1_1001_0000 + sym - 144, 9),
            256..=279 => (sym - 256, 7),
            _ => (0b1100_0000 + sym - 280, 8),
        };
        table[sym] = (reverse_bits(code as u32, len) as u16, len as u8);
        sym += 1;
    }
    table
};

/// Reversed 5-bit fixed code per distance code.
const FIXED_DIST: [u8; 30] = {
    let mut table = [0u8; 30];
    let mut code = 0;
    while code < 30 {
        table[code] = reverse_bits(code as u32, 5) as u8;
        code += 1;
    }
    table
};

/// Length code (index into [`LENGTH_TABLE`]) per match length: the last
/// code whose base does not exceed the length.
const LENGTH_CODE: [u8; MAX_MATCH + 1] = {
    let mut table = [0u8; MAX_MATCH + 1];
    let mut code = 0;
    let mut len = MIN_MATCH;
    while len <= MAX_MATCH {
        while code + 1 < LENGTH_TABLE.len() && LENGTH_TABLE[code + 1].0 as usize <= len {
            code += 1;
        }
        table[len] = code as u8;
        len += 1;
    }
    table
};

/// The last distance code whose base does not exceed `dist`.
const fn dist_code_of(dist: usize) -> u8 {
    let mut code = 0;
    while code + 1 < DIST_TABLE.len() && DIST_TABLE[code + 1].0 as usize <= dist {
        code += 1;
    }
    code as u8
}

/// Distance codes by `dist - 1`: entries `0..256` for distances up to
/// 256, entries `256 + ((dist - 1) >> 7)` beyond, where every code's
/// base minus one is a multiple of 128 (zlib's `dist_code` layout).
const DIST_CODE: [u8; 512] = {
    let mut table = [0u8; 512];
    let mut d = 0;
    while d < 256 {
        table[d] = dist_code_of(d + 1);
        d += 1;
    }
    let mut hi = 2;
    while hi < 256 {
        table[256 + hi] = dist_code_of((hi << 7) + 1);
        hi += 1;
    }
    table
};

/// Emits literal byte `byte` with the fixed table.
fn write_literal(bw: &mut BitWriter, byte: u8) {
    let (code, bits) = FIXED_LITLEN[usize::from(byte)];
    bw.write_bits(u32::from(code), u32::from(bits));
}

/// Emits a length/distance pair with the fixed tables, each code with
/// its extra bits in one write.
fn write_match(bw: &mut BitWriter, len: usize, dist: usize) {
    let lcode = usize::from(LENGTH_CODE[len]);
    let (lbase, lextra) = LENGTH_TABLE[lcode];
    let (code, bits) = FIXED_LITLEN[257 + lcode];
    bw.write_bits(
        u32::from(code) | ((len - usize::from(lbase)) as u32) << bits,
        u32::from(bits) + u32::from(lextra),
    );
    let d = dist - 1;
    let dcode = usize::from(if d < 256 {
        DIST_CODE[d]
    } else {
        DIST_CODE[256 + (d >> 7)]
    });
    let (dbase, dextra) = DIST_TABLE[dcode];
    bw.write_bits(
        u32::from(FIXED_DIST[dcode]) | ((dist - usize::from(dbase)) as u32) << 5,
        5 + u32::from(dextra),
    );
}

fn hash3(data: &[u8], i: usize) -> usize {
    let h = (u32::from(data[i]) << 16) | (u32::from(data[i + 1]) << 8) | u32::from(data[i + 2]);
    (h.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped at
/// `limit`; `b + limit` must not pass the end. Compares eight bytes at a
/// time: the first differing byte is the lowest set byte of the XOR.
fn match_len(data: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let word = |at: usize| u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"));
    let mut l = 0;
    while l + 8 <= limit {
        let diff = word(a + l) ^ word(b + l);
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < limit && data[a + l] == data[b + l] {
        l += 1;
    }
    l
}

/// Empty slot in the hash-chain tables.
const NIL: u32 = u32::MAX;

/// Hash-chain LZ77 state over one input buffer.
struct Matcher<'a> {
    data: &'a [u8],
    /// Latest indexed position per 3-byte hash.
    head: Vec<u32>,
    /// Per position, the next older indexed position with its hash.
    prev: Vec<u32>,
}

impl<'a> Matcher<'a> {
    fn new(data: &'a [u8]) -> Self {
        assert!(data.len() < NIL as usize, "gzip input must be under 4 GiB");
        Self {
            data,
            head: vec![NIL; 1 << HASH_BITS],
            prev: vec![NIL; data.len()],
        }
    }

    /// Longest `(len, dist)` match for position `i` among the first
    /// [`MAX_CHAIN`] chained earlier occurrences of its 3-byte head,
    /// the nearest winning ties; `(0, 0)` when none reaches
    /// [`MIN_MATCH`]. Does not index `i` — see [`Self::insert`].
    fn find(&self, i: usize) -> (usize, usize) {
        let data = self.data;
        if i + MIN_MATCH > data.len() {
            return (0, 0);
        }
        let limit = (data.len() - i).min(MAX_MATCH);
        let floor = i.saturating_sub(WINDOW);
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut cand = self.head[hash3(data, i)];
        let mut chain = 0;
        while cand != NIL && cand as usize >= floor && chain < MAX_CHAIN {
            let c = cand as usize;
            // A candidate that differs at `best_len` cannot beat it.
            if data[c + best_len] == data[i + best_len] {
                let l = match_len(data, c, i, limit);
                if l > best_len {
                    best_len = l;
                    best_dist = i - c;
                    if l == limit {
                        // Nothing further down the chain can be longer.
                        break;
                    }
                }
            }
            cand = self.prev[c];
            chain += 1;
        }
        if best_len >= MIN_MATCH {
            (best_len, best_dist)
        } else {
            (0, 0)
        }
    }

    /// Indexes position `i` as a future match candidate.
    fn insert(&mut self, i: usize) {
        if i + MIN_MATCH <= self.data.len() {
            let h = hash3(self.data, i);
            self.prev[i] = self.head[h];
            self.head[h] = i as u32;
        }
    }
}

/// One final fixed-Huffman block encoding all of `data`, with zlib-style
/// lazy matching: before committing to a match at `i`, peek at `i + 1`
/// — if the next position matches longer, emit `data[i]` as a literal
/// and let the longer match win. On the service's JSON bodies this
/// recovers most of the ratio a greedy parse leaves behind.
fn deflate_fixed(data: &[u8]) -> Vec<u8> {
    let mut bw = BitWriter::with_capacity(data.len() / 4 + 16);
    bw.write_bits(1, 1); // BFINAL
    bw.write_bits(1, 2); // BTYPE = 01 (fixed Huffman)
    let mut m = Matcher::new(data);
    let mut i = 0;
    // `find(i)`, when the previous step already computed it.
    let mut lookahead = None;
    while i < data.len() {
        let (len, dist) = lookahead.take().unwrap_or_else(|| m.find(i));
        m.insert(i);
        if len == 0 {
            write_literal(&mut bw, data[i]);
            i += 1;
            continue;
        }
        if len < MAX_MATCH && i + 1 + MIN_MATCH <= data.len() {
            let next = m.find(i + 1);
            if next.0 > len {
                // Defer: the literal costs ~8 bits but the longer match
                // at i + 1 more than pays for it. Nothing is indexed
                // before the next step's lookup, so `next` is its answer.
                write_literal(&mut bw, data[i]);
                i += 1;
                lookahead = Some(next);
                continue;
            }
        }
        write_match(&mut bw, len, dist);
        for j in i + 1..i + len {
            m.insert(j);
        }
        i += len;
    }
    let (code, bits) = FIXED_LITLEN[256]; // end of block
    bw.write_bits(u32::from(code), u32::from(bits));
    bw.finish()
}

/// `data` as a run of stored (BTYPE=00) blocks — the incompressible-input
/// fallback, and the trivial encoding the checker must also accept.
fn deflate_stored(data: &[u8]) -> Vec<u8> {
    let mut bw = BitWriter::with_capacity(data.len() + 5 * data.len().div_ceil(STORED_MAX) + 5);
    let mut chunks = data.chunks(STORED_MAX).peekable();
    loop {
        let chunk: &[u8] = chunks.next().unwrap_or(b"");
        let last = chunks.peek().is_none();
        bw.write_bits(u32::from(last), 1);
        bw.write_bits(0, 2); // BTYPE = 00 (stored)
        bw.align();
        let len = chunk.len() as u16;
        bw.out.extend_from_slice(&len.to_le_bytes());
        bw.out.extend_from_slice(&(!len).to_le_bytes());
        bw.out.extend_from_slice(chunk);
        if last {
            break;
        }
    }
    bw.finish()
}

/// Compresses `data` into a complete gzip member (RFC 1952). Picks the
/// fixed-Huffman encoding unless stored blocks come out smaller
/// (incompressible input). Deterministic: MTIME is zero.
pub fn gzip(data: &[u8]) -> Vec<u8> {
    let deflated = deflate_fixed(data);
    let deflated = if deflated.len() > data.len() + 5 * data.len().div_ceil(STORED_MAX).max(1) {
        deflate_stored(data)
    } else {
        deflated
    };
    let mut out = Vec::with_capacity(deflated.len() + 18);
    out.extend_from_slice(&[0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 255]);
    out.extend_from_slice(&deflated);
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}

/// LSB-first bit reader over a DEFLATE stream.
struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    bit_buf: u64,
    bit_count: u32,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            bit_buf: 0,
            bit_count: 0,
        }
    }

    fn read_bits(&mut self, count: u32) -> Result<u32, String> {
        while self.bit_count < count {
            let byte = *self
                .data
                .get(self.pos)
                .ok_or_else(|| "deflate stream truncated".to_string())?;
            self.bit_buf |= u64::from(byte) << self.bit_count;
            self.bit_count += 8;
            self.pos += 1;
        }
        let v = (self.bit_buf & ((1u64 << count) - 1)) as u32;
        self.bit_buf >>= count;
        self.bit_count -= count;
        Ok(v)
    }

    /// Reads one Huffman-coded symbol bit by bit, MSB-accumulating.
    fn read_code_bit(&mut self, code: &mut u32) -> Result<(), String> {
        *code = (*code << 1) | self.read_bits(1)?;
        Ok(())
    }

    fn align(&mut self) {
        self.bit_buf = 0;
        self.bit_count = 0;
    }
}

/// Decodes one fixed-Huffman literal/length symbol.
fn read_fixed_litlen(br: &mut BitReader) -> Result<u16, String> {
    let mut code = 0u32;
    for _ in 0..7 {
        br.read_code_bit(&mut code)?;
    }
    if code <= 0b001_0111 {
        return Ok(256 + code as u16); // 7-bit codes: 256..=279
    }
    br.read_code_bit(&mut code)?;
    if (0b0011_0000..=0b1011_1111).contains(&code) {
        return Ok((code - 0b0011_0000) as u16); // 8-bit: 0..=143
    }
    if (0b1100_0000..=0b1100_0111).contains(&code) {
        return Ok(280 + (code - 0b1100_0000) as u16); // 8-bit: 280..=287
    }
    br.read_code_bit(&mut code)?;
    if (0b1_1001_0000..=0b1_1111_1111).contains(&code) {
        return Ok(144 + (code - 0b1_1001_0000) as u16); // 9-bit: 144..=255
    }
    Err(format!("invalid fixed-Huffman code {code:#b}"))
}

/// Inflates a DEFLATE stream of stored and/or fixed-Huffman blocks.
fn inflate(br: &mut BitReader) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    loop {
        let bfinal = br.read_bits(1)?;
        match br.read_bits(2)? {
            0 => {
                br.align();
                if br.pos + 4 > br.data.len() {
                    return Err("stored block header truncated".into());
                }
                let len = u16::from_le_bytes([br.data[br.pos], br.data[br.pos + 1]]);
                let nlen = u16::from_le_bytes([br.data[br.pos + 2], br.data[br.pos + 3]]);
                if len != !nlen {
                    return Err("stored block LEN/NLEN mismatch".into());
                }
                br.pos += 4;
                let end = br.pos + usize::from(len);
                if end > br.data.len() {
                    return Err("stored block body truncated".into());
                }
                out.extend_from_slice(&br.data[br.pos..end]);
                br.pos = end;
            }
            1 => loop {
                let sym = read_fixed_litlen(br)?;
                match sym {
                    0..=255 => out.push(sym as u8),
                    256 => break,
                    257..=285 => {
                        let (base, extra) = LENGTH_TABLE[usize::from(sym - 257)];
                        let len = usize::from(base) + br.read_bits(u32::from(extra))? as usize;
                        let mut dcode = 0u32;
                        for _ in 0..5 {
                            br.read_code_bit(&mut dcode)?;
                        }
                        let (dbase, dextra) = *DIST_TABLE
                            .get(dcode as usize)
                            .ok_or_else(|| format!("invalid distance code {dcode}"))?;
                        let dist = usize::from(dbase) + br.read_bits(u32::from(dextra))? as usize;
                        if dist == 0 || dist > out.len() {
                            return Err(format!("distance {dist} outside window"));
                        }
                        for _ in 0..len {
                            out.push(out[out.len() - dist]);
                        }
                    }
                    _ => return Err(format!("invalid literal/length symbol {sym}")),
                }
            },
            btype => return Err(format!("unsupported deflate block type {btype}")),
        }
        if bfinal == 1 {
            return Ok(out);
        }
    }
}

/// Decompresses a gzip member produced by [`gzip`] (FLG=0; stored and
/// fixed-Huffman blocks), verifying the CRC32 and ISIZE trailers.
///
/// # Errors
///
/// Any framing, Huffman, window, or checksum violation returns a
/// description of the first problem found.
pub fn gunzip(bytes: &[u8]) -> Result<Vec<u8>, String> {
    if bytes.len() < 18 {
        return Err("gzip member shorter than header + trailer".into());
    }
    if bytes[0] != 0x1F || bytes[1] != 0x8B {
        return Err("bad gzip magic".into());
    }
    if bytes[2] != 8 {
        return Err(format!("unsupported compression method {}", bytes[2]));
    }
    if bytes[3] != 0 {
        return Err(format!("unsupported gzip flags {:#04x}", bytes[3]));
    }
    let body = &bytes[10..bytes.len() - 8];
    let mut br = BitReader::new(body);
    let out = inflate(&mut br)?;
    let trailer = &bytes[bytes.len() - 8..];
    let want_crc = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let want_len = u32::from_le_bytes([trailer[4], trailer[5], trailer[6], trailer[7]]);
    if crc32(&out) != want_crc {
        return Err("gzip CRC32 mismatch".into());
    }
    if out.len() as u32 != want_len {
        return Err("gzip ISIZE mismatch".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> Vec<u8> {
        gunzip(&gzip(data)).expect("round trip")
    }

    #[test]
    fn empty_input_round_trips() {
        assert_eq!(round_trip(b""), b"");
    }

    #[test]
    fn short_literals_round_trip() {
        assert_eq!(round_trip(b"a"), b"a");
        assert_eq!(round_trip(b"abc"), b"abc");
        assert_eq!(
            round_trip(&[0, 128, 255, 144, 200]),
            [0, 128, 255, 144, 200]
        );
    }

    #[test]
    fn repetitive_input_compresses_and_round_trips() {
        let data: Vec<u8> = b"{\"class\":\"hdd\",\"count\":81}\n".repeat(4096);
        let z = gzip(&data);
        assert!(
            z.len() * 10 < data.len(),
            "repetitive JSON should compress >10x, got {} -> {}",
            data.len(),
            z.len()
        );
        assert_eq!(gunzip(&z).expect("round trip"), data);
    }

    #[test]
    fn incompressible_input_falls_back_near_stored_size() {
        // A pseudo-random byte soup: xorshift so no external RNG is needed.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect();
        let z = gzip(&data);
        assert!(
            z.len() < data.len() + 64,
            "incompressible input must not blow up: {} -> {}",
            data.len(),
            z.len()
        );
        assert_eq!(gunzip(&z).expect("round trip"), data);
    }

    #[test]
    fn max_length_matches_round_trip() {
        // A single byte repeated far beyond MAX_MATCH exercises the
        // length-258 (code 285) path and overlapping copies.
        let data = vec![b'x'; 10_000];
        assert_eq!(round_trip(&data), data);
    }

    #[test]
    fn boundary_literal_values_round_trip() {
        // 143/144 and 255 straddle the 8-bit/9-bit fixed-code boundary.
        let data: Vec<u8> = (0..=255u8).cycle().take(2048).collect();
        assert_eq!(round_trip(&data), data);
    }

    #[test]
    fn stored_encoding_is_decodable() {
        let data = b"stored block payload".repeat(10);
        let mut framed = Vec::new();
        framed.extend_from_slice(&[0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 255]);
        framed.extend_from_slice(&deflate_stored(&data));
        framed.extend_from_slice(&crc32(&data).to_le_bytes());
        framed.extend_from_slice(&(data.len() as u32).to_le_bytes());
        assert_eq!(gunzip(&framed).expect("stored decode"), data);
    }

    #[test]
    fn corrupt_member_is_rejected() {
        let mut z = gzip(b"hello hello hello hello");
        for cut in 0..z.len() {
            assert!(gunzip(&z[..cut]).is_err(), "truncation at {cut} must fail");
        }
        let last = z.len() - 1;
        z[last] ^= 0x01; // ISIZE corruption
        assert!(gunzip(&z).is_err(), "trailer corruption must fail");
        z[last] ^= 0x01;
        z[0] = 0x00;
        assert!(gunzip(&z).is_err(), "magic corruption must fail");
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn output_is_deterministic() {
        let data = b"determinism across loops".repeat(100);
        assert_eq!(gzip(&data), gzip(&data));
    }
}
