//! Binary persistence for materialized allocations.
//!
//! A parallel database computes an allocation once (possibly via the
//! advisor) and must reload it identically at every restart — the whole
//! premise of static declustering is that the bucket→disk map never
//! changes behind the system's back. This module gives [`AllocationMap`]
//! a versioned, self-describing binary format:
//!
//! ```text
//! "DCLA" | version u16 | k u16 | dims[k] u32 | M u32 |
//! name_len u8 | name bytes | disk table (u8 per bucket if M ≤ 256, else u32) |
//! crc32 u32        (version ≥ 2: IEEE CRC-32 of every preceding byte)
//! ```
//!
//! All integers little-endian. Round-trips exactly; unknown method names
//! load as `"TABLE"` (the map itself is what matters). Version 1 images
//! (no checksum trailer) still load; version 2 images are rejected with
//! [`MethodError::CorruptImage`] when any byte has been disturbed.
//!
//! # Persist v3: compiled-kernel images
//!
//! Version 3 extends persistence past the allocation to the *compiled*
//! [`DiskCounts`] kernel, so a restarted server skips the build phase
//! entirely (see [`KernelCache`]). A kernel image file is its own
//! container with a distinct magic:
//!
//! ```text
//! "DCLK" | version u16 = 3 | entry_count u32 |
//! per entry:
//!   name_len u8 | name bytes | identity u32 |
//!   k u16 | dims[k] u32 | strides[k] u64 | M u32 |
//!   lane u8 (16 | 32) | table cells (prod(dims) · M lanes, LE) |
//! crc32 u32       (IEEE CRC-32 of every preceding byte)
//! ```
//!
//! `identity` is a CRC-32 fingerprint of the source allocation (dims,
//! disk count, disk table), checked at [`KernelCache::lookup`] time
//! against the *live* allocation: a stale image — same method name,
//! different grid or table — misses and the caller recompiles, it never
//! misreads. The strides are stored and revalidated against
//! recomputation from the dims, and the lane tag keeps the image
//! width-aware, so a loaded kernel answers exactly as a rebuilt one.
//! A kernel is written at the width it was built with — 16-bit lanes
//! whenever no disk holds more than 65,535 buckets — and either width
//! loads: a 32-bit image of a grid that now builds 16-bit lanes (every
//! grid past 65,535 buckets was written that way before the lane rule
//! looked at disk loads) keeps its width and re-serializes byte for
//! byte. The table is decoded straight into the kernel's shared slice,
//! so [`KernelCache::lookup`] hands out the table without copying it.
//! AllocationMap images remain at version 2 and load unchanged.
//!
//! Every image is checksummed with the module's slicing-by-16 CRC-32,
//! which folds long inputs in four interleaved streams and joins them
//! exactly.

use crate::prefix::CountLane;
use crate::{AllocationMap, DeclusteringMethod, DiskCounts, MethodError, MethodKind, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use decluster_grid::GridSpace;

const MAGIC: &[u8; 4] = b"DCLA";
/// First format version: no integrity trailer.
const V1: u16 = 1;
/// Current format version: CRC-32 trailer over the whole image.
const VERSION: u16 = 2;
/// Magic of a kernel image container (persist v3).
const KERNEL_MAGIC: &[u8; 4] = b"DCLK";
/// Kernel-image format version.
const KERNEL_VERSION: u16 = 3;

/// The IEEE CRC-32 polynomial (zip/zlib/Ethernet), bit-reflected.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 tables: `TABLES[t][b]` is byte `b` followed by `t`
/// zero bytes through the CRC register.
static TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut j = 0;
        while j < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            j += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// `a · b mod P` over GF(2), in the reflected bit order of the CRC
/// register (bit 31 holds `x^0`).
const fn gf2_mul(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    let mut bit = 0;
    while bit < 32 {
        if a & (0x8000_0000 >> bit) != 0 {
            p ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        bit += 1;
    }
    p
}

/// `X2N[n] = x^(2^n) mod P`: the squaring ladder behind [`zero_shift`].
static X2N: [u32; 64] = {
    let mut table = [0u32; 64];
    let mut p = 0x4000_0000; // x^1
    let mut n = 0;
    while n < 64 {
        table[n] = p;
        p = gf2_mul(p, p);
        n += 1;
    }
    table
};

/// `x^(8 · bytes) mod P`: multiplying a CRC register by it runs the
/// register over `bytes` zero bytes (zlib's `crc32_combine` method).
/// `bytes` is one stream's length, below `2^61`, so the ladder index
/// stays below 64.
fn zero_shift(bytes: usize) -> u32 {
    let mut p = 0x8000_0000; // x^0
    let mut n = bytes as u64;
    let mut k = 3; // x^(8n) = x^(n · 2^3)
    while n != 0 {
        if n & 1 != 0 {
            p = gf2_mul(X2N[k], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// Four slicing-by-16 lookups folding one little-endian word, its
/// lowest byte the furthest from the block's end.
#[inline(always)]
fn fold4(word: u32, base: usize) -> u32 {
    TABLES[base + 3][(word & 0xFF) as usize]
        ^ TABLES[base + 2][((word >> 8) & 0xFF) as usize]
        ^ TABLES[base + 1][((word >> 16) & 0xFF) as usize]
        ^ TABLES[base][(word >> 24) as usize]
}

/// Runs the CRC register over one 16-byte block.
#[inline(always)]
fn fold_block(reg: u32, b: &[u8]) -> u32 {
    let word = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
    fold4(reg ^ word(0), 12) ^ fold4(word(4), 8) ^ fold4(word(8), 4) ^ fold4(word(12), 0)
}

/// Interleaved streams of a long input.
const STREAMS: usize = 4;
/// Bytes each stream needs before splitting beats folding serially:
/// joining the streams costs a few dozen GF(2) products.
const STREAM_MIN: usize = 256;

/// Runs the (inverted) CRC register over `data`. A long input is cut
/// into four equal runs of whole 16-byte blocks, folded in one
/// interleaved loop as independent registers — the first starting from
/// `reg`, the others from zero — then joined by shifting each partial
/// result over the runs after it; the bytes left over fold serially.
fn crc_update(mut reg: u32, data: &[u8]) -> u32 {
    let stream = data.len() / (16 * STREAMS) * 16;
    let mut rest = data;
    if stream >= STREAM_MIN {
        let (s0, tail) = data.split_at(stream);
        let (s1, tail) = tail.split_at(stream);
        let (s2, tail) = tail.split_at(stream);
        let (s3, tail) = tail.split_at(stream);
        let mut r = [reg, 0, 0, 0];
        for (((b0, b1), b2), b3) in s0
            .chunks_exact(16)
            .zip(s1.chunks_exact(16))
            .zip(s2.chunks_exact(16))
            .zip(s3.chunks_exact(16))
        {
            r[0] = fold_block(r[0], b0);
            r[1] = fold_block(r[1], b1);
            r[2] = fold_block(r[2], b2);
            r[3] = fold_block(r[3], b3);
        }
        let shift = zero_shift(stream);
        reg = r[1..]
            .iter()
            .fold(r[0], |acc, &next| gf2_mul(shift, acc) ^ next);
        rest = tail;
    }
    let mut blocks = rest.chunks_exact(16);
    for b in &mut blocks {
        reg = fold_block(reg, b);
    }
    blocks.remainder().iter().fold(reg, |reg, &b| {
        TABLES[0][((reg ^ u32::from(b)) & 0xFF) as usize] ^ (reg >> 8)
    })
}

/// IEEE CRC-32 of `data`: slicing-by-16 (sixteen bytes folded per step),
/// in four interleaved streams once the input is long enough, so the
/// lookups of one stream overlap the others' instead of waiting on a
/// single register. The value is the plain CRC-32 — pinned by the
/// known-vector test, a bytewise reference at every short length and
/// across every stream boundary, and every persisted-image test.
/// Implemented here so persistence stays dependency-free.
fn crc32(data: &[u8]) -> u32 {
    !crc_update(!0, data)
}

impl AllocationMap {
    /// Serializes the allocation to its binary format (current version,
    /// with CRC-32 trailer).
    pub fn to_bytes(&self) -> Bytes {
        let space = self.space();
        let table = self.table();
        let m = self.num_disks();
        let name = crate::DeclusteringMethod::name(self);
        let mut buf = BytesMut::with_capacity(
            4 + 2 + 2 + 4 * space.k() + 4 + 1 + name.len() + table.len() * 4 + 4,
        );
        buf.put_slice(MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u16_le(space.k() as u16);
        for &d in space.dims() {
            buf.put_u32_le(d);
        }
        buf.put_u32_le(m);
        let name_bytes = &name.as_bytes()[..name.len().min(255)];
        buf.put_u8(name_bytes.len() as u8);
        buf.put_slice(name_bytes);
        // One cell per byte while every disk id fits one, else four
        // little-endian bytes; staged whole and appended in one call.
        let cells: Vec<u8> = if m <= 256 {
            table.iter().map(|&d| d as u8).collect()
        } else {
            table.iter().flat_map(|d| d.to_le_bytes()).collect()
        };
        buf.put_slice(&cells);
        let crc = crc32(&buf);
        buf.put_u32_le(crc);
        buf.freeze()
    }

    /// Deserializes an allocation written by [`AllocationMap::to_bytes`].
    /// Loads both the current checksummed format and legacy version-1
    /// images (written before the trailer existed).
    ///
    /// # Errors
    /// [`MethodError::CorruptImage`] with a descriptive reason for any
    /// malformed input: bad magic, truncation, oversized input, shape
    /// mismatch, out-of-range disks, or a failing checksum. Never panics
    /// on arbitrary bytes.
    pub fn from_bytes(data: &[u8]) -> Result<AllocationMap> {
        let corrupt = |reason: &str| MethodError::CorruptImage {
            reason: reason.to_owned(),
        };
        if data.len() < 8 {
            return Err(corrupt("truncated header"));
        }
        if &data[..4] != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = u16::from_le_bytes([data[4], data[5]]);
        let body: &[u8] = match version {
            V1 => &data[6..],
            VERSION => {
                if data.len() < 6 + 4 {
                    return Err(corrupt("truncated checksum trailer"));
                }
                let (payload, trailer) = data.split_at(data.len() - 4);
                let stored = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
                if crc32(payload) != stored {
                    return Err(corrupt("checksum mismatch"));
                }
                &payload[6..]
            }
            _ => return Err(corrupt("unsupported version")),
        };
        let mut buf = body;
        if buf.remaining() < 2 {
            return Err(corrupt("truncated dimensions"));
        }
        let k = buf.get_u16_le() as usize;
        if k == 0 || buf.remaining() < 4 * k + 4 + 1 {
            return Err(corrupt("truncated dimensions"));
        }
        let dims: Vec<u32> = (0..k).map(|_| buf.get_u32_le()).collect();
        let m = buf.get_u32_le();
        let name_len = buf.get_u8() as usize;
        if buf.remaining() < name_len {
            return Err(corrupt("truncated name"));
        }
        let name = String::from_utf8(buf.copy_to_bytes(name_len).to_vec())
            .map_err(|_| corrupt("name not UTF-8"))?;
        let space = GridSpace::new(dims).map_err(|_| corrupt("impossible grid shape"))?;
        let total = usize::try_from(space.num_buckets()).map_err(|_| corrupt("grid too large"))?;
        let cell = if m <= 256 { 1 } else { 4 };
        let expected = total
            .checked_mul(cell)
            .ok_or_else(|| corrupt("grid too large"))?;
        if buf.remaining() != expected {
            return Err(corrupt(if buf.remaining() > expected {
                "oversized table"
            } else {
                "truncated table"
            }));
        }
        // Bulk-decode the table straight off the input slice (exactly
        // `expected` bytes remain) instead of a `Buf` call per cell.
        let table: Vec<u32> = if m <= 256 {
            buf.iter().map(|&d| u32::from(d)).collect()
        } else {
            buf.chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect()
        };
        let map = AllocationMap::from_table(&space, m, table)
            .map_err(|_| corrupt("disk out of range"))?;
        // Restore the stable method name when it is one we know.
        Ok(match MethodKind::parse(&name) {
            Ok(kind) => map.renamed(kind.name()),
            Err(_) => map,
        })
    }
}

/// CRC-32 fingerprint of an allocation's identity — dims, disk count,
/// and the full disk table — used to revalidate a persisted kernel
/// image against the live grid before adopting it.
///
/// The fingerprint is the CRC-32 of `k u16 | dims[k] u32 | M u32 |
/// table u32 per bucket`, all little-endian. Identity runs on every
/// warm-start lookup and insert, so the table is encoded and checksummed
/// a stack buffer at a time rather than staged whole.
fn alloc_identity(map: &AllocationMap) -> u32 {
    const CELLS: usize = 1024;
    let space = map.space();
    let mut reg = crc_update(!0, &(space.k() as u16).to_le_bytes());
    for &d in space.dims() {
        reg = crc_update(reg, &d.to_le_bytes());
    }
    reg = crc_update(reg, &map.num_disks().to_le_bytes());
    let mut buf = [0u8; 4 * CELLS];
    for cells in map.table().chunks(CELLS) {
        let bytes = &mut buf[..4 * cells.len()];
        for (dst, &d) in bytes.chunks_exact_mut(4).zip(cells) {
            dst.copy_from_slice(&d.to_le_bytes());
        }
        reg = crc_update(reg, bytes);
    }
    !reg
}

/// Row strides implied by `dims` (row-major, innermost stride 1) — the
/// same derivation as the kernel build, recomputed at load time to
/// revalidate the persisted stride metadata.
fn derive_strides(dims: &[u32]) -> Vec<usize> {
    let k = dims.len();
    let mut strides = vec![1usize; k];
    for i in (0..k.saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * dims[i + 1] as usize;
    }
    strides
}

/// One persisted kernel: the method name it was compiled for, the
/// source allocation's identity fingerprint, and the compiled table.
#[derive(Clone, Debug)]
struct KernelEntry {
    name: String,
    identity: u32,
    kernel: DiskCounts,
}

/// A persistable set of compiled [`DiskCounts`] kernels, keyed by
/// method name — the warm-start artifact (persist v3).
///
/// A cold process builds its kernels, [`insert`](KernelCache::insert)s
/// them, and writes [`to_bytes`](KernelCache::to_bytes) to disk; a
/// restarted process loads the file and resolves each method through
/// [`lookup`](KernelCache::lookup), reaching its first scored query
/// with zero build-phase work. Lookups revalidate the stored identity
/// fingerprint against the live allocation, so an image that no longer
/// matches the grid (changed dims, disk count, or table) simply misses
/// and the caller recompiles — stale state can never be misread.
///
/// Serialization is canonical: entries are written sorted by name, so
/// two caches holding the same kernels produce byte-identical files
/// regardless of insertion order.
#[derive(Clone, Debug, Default)]
pub struct KernelCache {
    entries: Vec<KernelEntry>,
}

impl KernelCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Kernels held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no kernels.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the cache holds a kernel under `name` (regardless of
    /// whether it would revalidate against any particular allocation).
    pub fn contains(&self, name: &str) -> bool {
        self.entries.iter().any(|e| e.name == name)
    }

    /// Stores `kernel` under `name` (the caller's stable method key —
    /// engine allocations all materialize as `"TABLE"`, so the key is
    /// explicit), replacing any previous entry with that name. The
    /// allocation's identity fingerprint is captured alongside, so
    /// later lookups only match the exact same grid and table.
    pub fn insert(&mut self, name: &str, map: &AllocationMap, kernel: &DiskCounts) {
        let entry = KernelEntry {
            identity: alloc_identity(map),
            kernel: kernel.clone(),
            name: name.to_owned(),
        };
        match self.entries.iter_mut().find(|e| e.name == entry.name) {
            Some(slot) => *slot = entry,
            None => self.entries.push(entry),
        }
    }

    /// The kernel stored under `name`, if it revalidates against
    /// `map`'s live identity (same dims, disk count, and disk table). A
    /// stale or absent image returns `None` — the caller rebuilds, it
    /// never misreads.
    pub fn lookup(&self, name: &str, map: &AllocationMap) -> Option<DiskCounts> {
        let entry = self.entries.iter().find(|e| e.name == name)?;
        if entry.kernel.dims() != map.space().dims()
            || entry.kernel.num_disks() != map.num_disks()
            || entry.identity != alloc_identity(map)
        {
            return None;
        }
        Some(entry.kernel.clone())
    }

    /// Serializes the cache to the v3 container format (canonical
    /// name-sorted entry order, CRC-32 trailer).
    pub fn to_bytes(&self) -> Bytes {
        let mut order: Vec<&KernelEntry> = self.entries.iter().collect();
        order.sort_by(|a, b| a.name.cmp(&b.name));
        let cap = 14
            + self
                .entries
                .iter()
                .map(|e| {
                    1 + e.name.len()
                        + 4
                        + 2
                        + 12 * e.kernel.dims().len()
                        + 5
                        + e.kernel.table_bytes()
                })
                .sum::<usize>();
        let mut buf = BytesMut::with_capacity(cap);
        buf.put_slice(KERNEL_MAGIC);
        buf.put_u16_le(KERNEL_VERSION);
        buf.put_u32_le(order.len() as u32);
        for entry in order {
            let name_bytes = &entry.name.as_bytes()[..entry.name.len().min(255)];
            buf.put_u8(name_bytes.len() as u8);
            buf.put_slice(name_bytes);
            buf.put_u32_le(entry.identity);
            let kernel = &entry.kernel;
            buf.put_u16_le(kernel.dims().len() as u16);
            for &d in kernel.dims() {
                buf.put_u32_le(d);
            }
            for &s in kernel.strides() {
                buf.put_u64_le(s as u64);
            }
            buf.put_u32_le(kernel.num_disks());
            // Bulk-encode the table lane: staging through a byte vector
            // and appending once is far cheaper than a put call per cell
            // for the multi-hundred-KiB tables a serving grid produces.
            match kernel.lane() {
                CountLane::U16(t) => {
                    buf.put_u8(16);
                    let mut raw = vec![0u8; t.len() * 2];
                    for (dst, &v) in raw.chunks_exact_mut(2).zip(t.iter()) {
                        dst.copy_from_slice(&v.to_le_bytes());
                    }
                    buf.put_slice(&raw);
                }
                CountLane::U32(t) => {
                    buf.put_u8(32);
                    let mut raw = vec![0u8; t.len() * 4];
                    for (dst, &v) in raw.chunks_exact_mut(4).zip(t.iter()) {
                        dst.copy_from_slice(&v.to_le_bytes());
                    }
                    buf.put_slice(&raw);
                }
            }
        }
        let crc = crc32(&buf);
        buf.put_u32_le(crc);
        buf.freeze()
    }

    /// Deserializes a cache written by [`KernelCache::to_bytes`].
    ///
    /// # Errors
    /// [`MethodError::CorruptImage`] with a descriptive reason for any
    /// malformed input: bad magic, unsupported version, truncation,
    /// trailing garbage, a failing checksum, inconsistent stride
    /// metadata, or an impossible shape. Never panics on arbitrary
    /// bytes.
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        let corrupt = |reason: &str| MethodError::CorruptImage {
            reason: reason.to_owned(),
        };
        if data.len() < 4 + 2 + 4 + 4 {
            return Err(corrupt("truncated kernel image header"));
        }
        if &data[..4] != KERNEL_MAGIC {
            return Err(corrupt("bad kernel image magic"));
        }
        let version = u16::from_le_bytes([data[4], data[5]]);
        if version != KERNEL_VERSION {
            return Err(corrupt("unsupported kernel image version"));
        }
        let (payload, trailer) = data.split_at(data.len() - 4);
        let stored = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
        if crc32(payload) != stored {
            return Err(corrupt("kernel image checksum mismatch"));
        }
        let mut buf = &payload[6..];
        let count = buf.get_u32_le() as usize;
        let mut entries: Vec<KernelEntry> = Vec::with_capacity(count.min(64));
        for _ in 0..count {
            if buf.remaining() < 1 {
                return Err(corrupt("truncated entry name"));
            }
            let name_len = buf.get_u8() as usize;
            if buf.remaining() < name_len + 4 + 2 {
                return Err(corrupt("truncated entry header"));
            }
            let name = String::from_utf8(buf.copy_to_bytes(name_len).to_vec())
                .map_err(|_| corrupt("entry name not UTF-8"))?;
            if entries.iter().any(|e| e.name == name) {
                return Err(corrupt("duplicate entry name"));
            }
            let identity = buf.get_u32_le();
            let k = buf.get_u16_le() as usize;
            if k == 0 || k > 24 {
                return Err(corrupt("impossible dimension count"));
            }
            if buf.remaining() < 4 * k + 8 * k + 4 + 1 {
                return Err(corrupt("truncated entry shape"));
            }
            let dims: Vec<u32> = (0..k).map(|_| buf.get_u32_le()).collect();
            let strides: Vec<u64> = (0..k).map(|_| buf.get_u64_le()).collect();
            let m = buf.get_u32_le();
            let lane = buf.get_u8();
            if m == 0 {
                return Err(corrupt("zero disks"));
            }
            let total = dims
                .iter()
                .try_fold(1u64, |acc, &d| {
                    if d == 0 {
                        None
                    } else {
                        acc.checked_mul(u64::from(d))
                    }
                })
                .filter(|&t| t <= u64::from(u32::MAX))
                .ok_or_else(|| corrupt("impossible grid shape"))?;
            let expect_strides = derive_strides(&dims);
            if strides
                .iter()
                .zip(&expect_strides)
                .any(|(&got, &want)| got != want as u64)
            {
                return Err(corrupt("stride metadata inconsistent with dims"));
            }
            let cells = usize::try_from(total)
                .ok()
                .and_then(|t| t.checked_mul(m as usize))
                .ok_or_else(|| corrupt("table too large"))?;
            let lane_bytes = match lane {
                16 => 2usize,
                32 => 4usize,
                _ => return Err(corrupt("unknown lane width")),
            };
            let need = cells
                .checked_mul(lane_bytes)
                .ok_or_else(|| corrupt("table too large"))?;
            if buf.remaining() < need {
                return Err(corrupt("truncated kernel table"));
            }
            // Bulk-decode the table lane straight off the input slice
            // into the shared table the kernel keeps: one allocation, one
            // pass, no Buf call per cell.
            let (raw, rest) = buf.split_at(need);
            buf = rest;
            let table = if lane == 16 {
                CountLane::U16(
                    raw.chunks_exact(2)
                        .map(|c| u16::from_le_bytes([c[0], c[1]]))
                        .collect(),
                )
            } else {
                CountLane::U32(
                    raw.chunks_exact(4)
                        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                        .collect(),
                )
            };
            entries.push(KernelEntry {
                name,
                identity,
                kernel: DiskCounts::from_parts(m, dims, expect_strides, table),
            });
        }
        if buf.remaining() > 0 {
            return Err(corrupt("oversized kernel image"));
        }
        Ok(KernelCache { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeclusteringMethod, DiskModulo, Hcam, MethodRegistry};

    fn sample_map() -> AllocationMap {
        let space = GridSpace::new_2d(8, 8).unwrap();
        let hcam = Hcam::new(&space, 5).unwrap();
        AllocationMap::from_method(&space, &hcam).unwrap()
    }

    /// The same image downgraded to the legacy v1 layout: version field
    /// patched and the checksum trailer stripped.
    fn as_v1(v2: &[u8]) -> Vec<u8> {
        let mut v1 = v2[..v2.len() - 4].to_vec();
        v1[4..6].copy_from_slice(&V1.to_le_bytes());
        v1
    }

    #[test]
    fn crc32_known_vector() {
        // The standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Runs an IEEE CRC-32 register over `data` a byte at a time,
    /// through a 256-entry table built here bit by bit: a reference that
    /// shares nothing with the code under test.
    fn reference_register(mut reg: u32, data: &[u8]) -> u32 {
        let table: Vec<u32> = (0..256u32)
            .map(|i| {
                (0..8).fold(i, |c, _| {
                    if c & 1 != 0 {
                        (c >> 1) ^ 0xEDB8_8320
                    } else {
                        c >> 1
                    }
                })
            })
            .collect();
        for &b in data {
            reg = table[((reg ^ u32::from(b)) & 0xFF) as usize] ^ (reg >> 8);
        }
        reg
    }

    fn reference_crc32(data: &[u8]) -> u32 {
        !reference_register(!0, data)
    }

    /// Deterministic pseudo-random bytes (a 64-bit LCG's high bytes).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_the_reference_at_every_short_length() {
        let data = noise(1_100, 1);
        for len in 0..=data.len() {
            assert_eq!(
                crc32(&data[..len]),
                reference_crc32(&data[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn crc32_matches_the_reference_across_stream_boundaries() {
        // A 1 MiB input splits into four streams of 256 KiB; disturbing
        // any byte near a stream's start or end must move the checksum
        // exactly as the reference moves.
        let mut data = noise(1 << 20, 2);
        let stream = data.len() / STREAMS;
        assert_eq!(crc32(&data), reference_crc32(&data));
        for boundary in (0..=STREAMS).map(|s| s * stream) {
            let lo = boundary.saturating_sub(17);
            let head = reference_register(!0, &data[..lo]);
            for at in lo..(boundary + 18).min(data.len()) {
                data[at] ^= 0x5A;
                let expect = !reference_register(head, &data[lo..]);
                assert_eq!(crc32(&data), expect, "byte {at}");
                data[at] ^= 0x5A;
            }
        }
    }

    #[test]
    fn alloc_identity_is_pinned() {
        // Identities are stored in kernel images: the values are those
        // of the encoding `k u16 | dims u32 | M u32 | table u32`, staged
        // as bytes and checksummed whole.
        let staged = |map: &AllocationMap| {
            let mut bytes = (map.space().k() as u16).to_le_bytes().to_vec();
            for &d in map.space().dims() {
                bytes.extend_from_slice(&d.to_le_bytes());
            }
            bytes.extend_from_slice(&map.num_disks().to_le_bytes());
            for &d in map.table() {
                bytes.extend_from_slice(&d.to_le_bytes());
            }
            reference_crc32(&bytes)
        };
        // The three tables end on a partial chunk of the identity
        // buffer, on a whole one, and past a whole one.
        let small = sample_map();
        let space = GridSpace::new(vec![16, 16, 16]).unwrap();
        let table = (0..4096u32).map(|i| (i * 7 + 5) % 64).collect();
        let whole = AllocationMap::from_table(&space, 64, table).unwrap();
        let space = GridSpace::new(vec![16, 16, 17]).unwrap();
        let table = (0..4352u32).map(|i| (i * 13 + 1) % 64).collect();
        let past = AllocationMap::from_table(&space, 64, table).unwrap();
        for (map, pinned) in [
            (&small, 0x5C0A_2815),
            (&whole, 0xD97D_03AE),
            (&past, 0x10F5_CD39),
        ] {
            assert_eq!(alloc_identity(map), pinned);
            assert_eq!(alloc_identity(map), staged(map));
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let map = sample_map();
        let bytes = map.to_bytes();
        let loaded = AllocationMap::from_bytes(&bytes).unwrap();
        assert_eq!(loaded, map);
        assert_eq!(loaded.name(), "HCAM");
        assert_eq!(loaded.num_disks(), 5);
        assert_eq!(loaded.space().dims(), &[8, 8]);
    }

    #[test]
    fn roundtrip_every_registry_method() {
        let space = GridSpace::new_2d(16, 16).unwrap();
        let registry = MethodRegistry::default();
        for method in registry.with_baselines(&space, 8) {
            let map = AllocationMap::from_method(&space, method.as_ref()).unwrap();
            let loaded = AllocationMap::from_bytes(&map.to_bytes()).unwrap();
            assert_eq!(loaded, map, "{}", method.name());
            assert_eq!(loaded.name(), map.name());
        }
    }

    #[test]
    fn wide_disk_counts_use_u32_cells() {
        let space = GridSpace::new_2d(32, 32).unwrap();
        let dm = DiskModulo::new(&space, 300).unwrap();
        let map = AllocationMap::from_method(&space, &dm).unwrap();
        let bytes = map.to_bytes();
        let loaded = AllocationMap::from_bytes(&bytes).unwrap();
        assert_eq!(loaded, map);
    }

    #[test]
    fn three_dimensional_roundtrip() {
        let space = GridSpace::new_cube(3, 8).unwrap();
        let dm = DiskModulo::new(&space, 7).unwrap();
        let map = AllocationMap::from_method(&space, &dm).unwrap();
        assert_eq!(AllocationMap::from_bytes(&map.to_bytes()).unwrap(), map);
    }

    #[test]
    fn trailer_is_crc32_of_the_payload() {
        let bytes = sample_map().to_bytes();
        let (payload, trailer) = bytes.split_at(bytes.len() - 4);
        assert_eq!(
            u32::from_le_bytes(trailer.try_into().unwrap()),
            crc32(payload)
        );
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), VERSION);
    }

    #[test]
    fn legacy_v1_images_still_load() {
        let map = sample_map();
        let v1 = as_v1(&map.to_bytes());
        let loaded = AllocationMap::from_bytes(&v1).unwrap();
        assert_eq!(loaded, map);
        assert_eq!(loaded.name(), "HCAM");
    }

    #[test]
    fn checksum_mismatch_is_reported_as_such() {
        let map = sample_map();
        let mut bad = map.to_bytes().to_vec();
        // Flip one bit deep in the disk table: only the checksum notices.
        let mid = bad.len() - 10;
        bad[mid] ^= 0x01;
        match AllocationMap::from_bytes(&bad).unwrap_err() {
            MethodError::CorruptImage { reason } => {
                assert!(reason.contains("checksum"), "reason: {reason}")
            }
            other => panic!("expected CorruptImage, got {other:?}"),
        }
    }

    #[test]
    fn rejects_corruption() {
        let map = sample_map();
        let good = map.to_bytes();

        // Bad magic.
        let mut bad = good.to_vec();
        bad[0] = b'X';
        assert!(matches!(
            AllocationMap::from_bytes(&bad).unwrap_err(),
            MethodError::CorruptImage { .. }
        ));

        // Unsupported version (patch + strip trailer so the checksum
        // cannot mask the version check).
        let mut bad = as_v1(&good);
        bad[4] = 0xFF;
        assert!(AllocationMap::from_bytes(&bad).is_err());

        // Truncated table.
        let bad = &good[..good.len() - 3];
        assert!(AllocationMap::from_bytes(bad).is_err());
        let bad = &as_v1(&good)[..good.len() - 7];
        assert!(AllocationMap::from_bytes(bad).is_err());

        // Oversized input: trailing garbage after a valid v1 image.
        let mut bad = as_v1(&good);
        bad.extend_from_slice(&[0, 0, 0]);
        match AllocationMap::from_bytes(&bad).unwrap_err() {
            MethodError::CorruptImage { reason } => {
                assert!(reason.contains("oversized"), "reason: {reason}")
            }
            other => panic!("expected CorruptImage, got {other:?}"),
        }

        // Empty input.
        assert!(AllocationMap::from_bytes(&[]).is_err());

        // Out-of-range disk in the table (v1, so no checksum to trip
        // first — exercises the semantic validation).
        let mut bad = as_v1(&good);
        let last = bad.len() - 1;
        bad[last] = 200; // m = 5
        assert!(AllocationMap::from_bytes(&bad).is_err());
    }

    #[test]
    fn unknown_method_names_load_as_table() {
        let space = GridSpace::new_2d(2, 2).unwrap();
        let map = AllocationMap::from_table(&space, 2, vec![0, 1, 1, 0]).unwrap();
        let loaded = AllocationMap::from_bytes(&map.to_bytes()).unwrap();
        assert_eq!(loaded.name(), "TABLE");
        assert_eq!(loaded, map);
    }

    /// Pins the v2 allocation image byte for byte, at both cell widths
    /// (and its v1 downgrade), so the kernel-image work cannot drift the
    /// legacy formats: any image written before persist v3 must keep
    /// loading unchanged.
    #[test]
    fn v1_and_v2_allocation_layouts_are_pinned() {
        let space = GridSpace::new_2d(2, 2).unwrap();
        let map = AllocationMap::from_table(&space, 2, vec![0, 1, 1, 0]).unwrap();
        let mut expected = Vec::new();
        expected.extend_from_slice(b"DCLA");
        expected.extend_from_slice(&2u16.to_le_bytes()); // version
        expected.extend_from_slice(&2u16.to_le_bytes()); // k
        expected.extend_from_slice(&2u32.to_le_bytes()); // dims[0]
        expected.extend_from_slice(&2u32.to_le_bytes()); // dims[1]
        expected.extend_from_slice(&2u32.to_le_bytes()); // m
        expected.push(5);
        expected.extend_from_slice(b"TABLE");
        expected.extend_from_slice(&[0, 1, 1, 0]); // u8 cells (m <= 256)
        expected.extend_from_slice(&crc32(&expected).to_le_bytes());
        assert_eq!(map.to_bytes().as_ref(), expected.as_slice());
        assert_eq!(AllocationMap::from_bytes(&expected).unwrap(), map);
        assert_eq!(AllocationMap::from_bytes(&as_v1(&expected)).unwrap(), map);

        // Past 256 disks a cell takes four little-endian bytes.
        let map = AllocationMap::from_table(&space, 300, vec![0, 299, 256, 1]).unwrap();
        let mut expected = Vec::new();
        expected.extend_from_slice(b"DCLA");
        expected.extend_from_slice(&2u16.to_le_bytes()); // version
        expected.extend_from_slice(&2u16.to_le_bytes()); // k
        expected.extend_from_slice(&2u32.to_le_bytes()); // dims[0]
        expected.extend_from_slice(&2u32.to_le_bytes()); // dims[1]
        expected.extend_from_slice(&300u32.to_le_bytes()); // m
        expected.push(5);
        expected.extend_from_slice(b"TABLE");
        expected.extend_from_slice(&[0, 0, 0, 0, 43, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0]);
        expected.extend_from_slice(&crc32(&expected).to_le_bytes());
        assert_eq!(map.to_bytes().as_ref(), expected.as_slice());
        assert_eq!(AllocationMap::from_bytes(&expected).unwrap(), map);
    }

    fn table_map(space: &GridSpace, m: u32, salt: u32) -> AllocationMap {
        let total = space.num_buckets() as usize;
        let table = (0..total as u32).map(|i| (i + salt) % m).collect();
        AllocationMap::from_table(space, m, table).unwrap()
    }

    #[test]
    fn kernel_cache_roundtrips_and_revalidates() {
        let map = sample_map();
        let kernel = map.disk_counts().unwrap();
        let mut cache = KernelCache::new();
        assert!(cache.is_empty());
        cache.insert("HCAM", &map, &kernel);
        assert_eq!(cache.len(), 1);
        assert!(cache.contains("HCAM"));

        let loaded = KernelCache::from_bytes(&cache.to_bytes()).unwrap();
        let warm = loaded.lookup("HCAM", &map).expect("identity matches");
        assert_eq!(warm.lane_bits(), kernel.lane_bits());
        assert_eq!(warm.num_disks(), kernel.num_disks());
        // The loaded kernel answers queries identically to the built one.
        let space = map.space();
        for (lo, hi) in [([0u32, 0u32], [7u32, 7u32]), ([1, 2], [5, 6])] {
            let r = decluster_grid::BucketRegion::new(space, lo.into(), hi.into()).unwrap();
            assert_eq!(warm.access_histogram(&r), kernel.access_histogram(&r));
        }
    }

    #[test]
    fn kernel_cache_is_lane_width_aware() {
        let map = sample_map();
        let narrow = map.disk_counts().unwrap();
        let wide = DiskCounts::build_wide(&map).unwrap();
        assert_eq!(narrow.lane_bits(), 16);
        assert_eq!(wide.lane_bits(), 32);
        for kernel in [&narrow, &wide] {
            let mut cache = KernelCache::new();
            cache.insert("HCAM", &map, kernel);
            let warm = KernelCache::from_bytes(&cache.to_bytes())
                .unwrap()
                .lookup("HCAM", &map)
                .unwrap();
            assert_eq!(warm.lane_bits(), kernel.lane_bits());
        }
    }

    #[test]
    fn wide_images_of_narrow_grids_still_load() {
        // 256x256 DM over 4 disks: 65_536 buckets, 16_384 per disk. The
        // kernel builds with 16-bit lanes; images written with 32-bit
        // ones (every image of a grid past 65_535 buckets used them)
        // keep loading at their own width and answer alike.
        let space = GridSpace::new_2d(256, 256).unwrap();
        let map = AllocationMap::from_method(&space, &DiskModulo::new(&space, 4).unwrap()).unwrap();
        let narrow = map.disk_counts().unwrap();
        assert_eq!(narrow.lane_bits(), 16);
        let mut cache = KernelCache::new();
        cache.insert("DM", &map, &DiskCounts::build_wide(&map).unwrap());
        let image = cache.to_bytes();
        let loaded = KernelCache::from_bytes(&image).unwrap();
        assert_eq!(loaded.to_bytes(), image, "re-serializes byte for byte");
        let warm = loaded.lookup("DM", &map).expect("identity revalidates");
        assert_eq!(warm.lane_bits(), 32);
        let mut scratch = crate::Scratch::new();
        for (lo, hi) in [
            ([0u32, 0u32], [255u32, 255u32]),
            ([3, 200], [250, 255]),
            ([9, 9], [9, 12]),
        ] {
            let r = decluster_grid::BucketRegion::new(&space, lo.into(), hi.into()).unwrap();
            assert_eq!(warm.access_histogram(&r), narrow.access_histogram(&r));
            assert_eq!(
                warm.response_time_with(&r, &mut scratch),
                narrow.response_time(&r)
            );
        }
    }

    #[test]
    fn stale_images_miss_instead_of_misreading() {
        let space = GridSpace::new_2d(8, 8).unwrap();
        let map = table_map(&space, 4, 0);
        let mut cache = KernelCache::new();
        cache.insert("TABLE", &map, &map.disk_counts().unwrap());

        // Same name ("TABLE"), different disk table: identity mismatch.
        let retabled = table_map(&space, 4, 1);
        assert!(cache.lookup("TABLE", &retabled).is_none());
        // Same name, different grid: shape mismatch.
        let regridded = table_map(&GridSpace::new_2d(4, 16).unwrap(), 4, 0);
        assert!(cache.lookup("TABLE", &regridded).is_none());
        // Same name, different disk count.
        let redisked = table_map(&space, 8, 0);
        assert!(cache.lookup("TABLE", &redisked).is_none());
        // The exact allocation still hits.
        assert!(cache.lookup("TABLE", &map).is_some());
        // A method name never inserted misses.
        let hcam = sample_map();
        assert!(cache.lookup("HCAM", &hcam).is_none());
    }

    #[test]
    fn cache_bytes_are_canonical_regardless_of_insertion_order() {
        let space = GridSpace::new_2d(8, 8).unwrap();
        let hcam = sample_map();
        let dm_map = {
            let dm = DiskModulo::new(&space, 5).unwrap();
            AllocationMap::from_method(&space, &dm).unwrap()
        };
        let (hk, dk) = (hcam.disk_counts().unwrap(), dm_map.disk_counts().unwrap());
        let mut a = KernelCache::new();
        a.insert("HCAM", &hcam, &hk);
        a.insert("DM", &dm_map, &dk);
        let mut b = KernelCache::new();
        b.insert("DM", &dm_map, &dk);
        b.insert("HCAM", &hcam, &hk);
        assert_eq!(a.to_bytes(), b.to_bytes());
        // Re-inserting under the same name replaces, not duplicates.
        a.insert("HCAM", &hcam, &hk);
        assert_eq!(a.len(), 2);
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn empty_cache_roundtrips() {
        let cache = KernelCache::new();
        let loaded = KernelCache::from_bytes(&cache.to_bytes()).unwrap();
        assert!(loaded.is_empty());
    }

    #[test]
    fn kernel_cache_rejects_structural_corruption() {
        let map = sample_map();
        let mut cache = KernelCache::new();
        cache.insert("TABLE", &map, &map.disk_counts().unwrap());
        let good = cache.to_bytes();

        // Bad magic (an allocation image is not a kernel cache).
        assert!(matches!(
            KernelCache::from_bytes(&map.to_bytes()).unwrap_err(),
            MethodError::CorruptImage { .. }
        ));
        // Trailing garbage.
        let mut bad = good.to_vec();
        bad.extend_from_slice(&[0; 3]);
        assert!(KernelCache::from_bytes(&bad).is_err());
        // Empty input.
        assert!(KernelCache::from_bytes(&[]).is_err());
    }

    fn assert_corrupt<T: std::fmt::Debug>(result: Result<T>, what: &str) {
        match result {
            Err(MethodError::CorruptImage { .. }) => {}
            other => panic!("{what}: expected CorruptImage, got {other:?}"),
        }
    }

    /// Every truncation and every single-bit flip of `image` is a typed
    /// `CorruptImage` (a panic fails the test outright).
    fn every_disturbance_is_corrupt<T: std::fmt::Debug>(
        image: &[u8],
        parse: fn(&[u8]) -> Result<T>,
    ) {
        for cut in 0..image.len() {
            assert_corrupt(parse(&image[..cut]), &format!("cut at {cut}"));
        }
        let mut bad = image.to_vec();
        for at in 0..bad.len() {
            for bit in 0..8 {
                bad[at] ^= 1 << bit;
                assert_corrupt(parse(&bad), &format!("bit {bit} of byte {at}"));
                bad[at] ^= 1 << bit;
            }
        }
    }

    /// The persist fuzz corpus: a two-entry kernel image (one 16-bit and
    /// one 32-bit kernel, long enough that all four checksum streams
    /// carry data) and an allocation image with `u32` cells (`M > 256`).
    #[test]
    fn fuzz_corpus_images_reject_every_truncation_and_bit_flip() {
        let narrow_map = table_map(&GridSpace::new_2d(8, 8).unwrap(), 5, 0);
        let wide_map = table_map(&GridSpace::new_2d(6, 6).unwrap(), 7, 3);
        let mut cache = KernelCache::new();
        cache.insert("NARROW", &narrow_map, &narrow_map.disk_counts().unwrap());
        cache.insert(
            "WIDE",
            &wide_map,
            &DiskCounts::build_wide(&wide_map).unwrap(),
        );
        let kernels = cache.to_bytes();
        assert!(kernels.len() - 4 >= STREAMS * STREAM_MIN);
        let loaded = KernelCache::from_bytes(&kernels).unwrap();
        assert_eq!(
            loaded.lookup("NARROW", &narrow_map).unwrap().lane_bits(),
            16
        );
        assert_eq!(loaded.lookup("WIDE", &wide_map).unwrap().lane_bits(), 32);
        every_disturbance_is_corrupt(&kernels, KernelCache::from_bytes);

        let space = GridSpace::new_2d(16, 16).unwrap();
        let alloc = table_map(&space, 300, 11).to_bytes();
        assert!(alloc.len() - 4 >= STREAMS * STREAM_MIN);
        assert_eq!(AllocationMap::from_bytes(&alloc).unwrap().num_disks(), 300);
        every_disturbance_is_corrupt(&alloc, AllocationMap::from_bytes);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any well-formed table round-trips bit-exactly.
        #[test]
        fn arbitrary_tables_roundtrip(
            d0 in 1u32..8, d1 in 1u32..8, m in 1u32..300, seed in any::<u64>()
        ) {
            let space = GridSpace::new_2d(d0, d1).unwrap();
            let total = (d0 * d1) as usize;
            // Deterministic pseudo-random table from the seed.
            let table: Vec<u32> = (0..total)
                .map(|i| ((seed.wrapping_mul(i as u64 + 1) >> 7) % u64::from(m)) as u32)
                .collect();
            let map = AllocationMap::from_table(&space, m, table).unwrap();
            let loaded = AllocationMap::from_bytes(&map.to_bytes()).unwrap();
            prop_assert_eq!(loaded, map);
        }

        /// Random byte strings never panic the parser (they error instead).
        #[test]
        fn fuzzed_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..200)) {
            let _ = AllocationMap::from_bytes(&data);
        }

        /// Flipping any single byte of a valid checksummed image is
        /// always rejected: CRC-32 detects every single-byte error, and
        /// the only checksum-free escape hatch (patching the version
        /// field down to 1) leaves the trailer as 4 surplus bytes that
        /// trip the length check.
        #[test]
        fn single_byte_corruption_is_rejected(flip in 0usize..200, xor in 1u8..255) {
            let space = GridSpace::new_2d(4, 4).unwrap();
            let map = AllocationMap::from_table(
                &space, 3, (0..16).map(|i| i % 3).collect()
            ).unwrap();
            let mut bytes = map.to_bytes().to_vec();
            let idx = flip % bytes.len();
            bytes[idx] ^= xor;
            prop_assert!(AllocationMap::from_bytes(&bytes).is_err());
        }

        /// Truncating a checksummed image at any point is rejected.
        #[test]
        fn any_truncation_is_rejected(cut in 0usize..200) {
            let space = GridSpace::new_2d(4, 4).unwrap();
            let map = AllocationMap::from_table(
                &space, 3, (0..16).map(|i| i % 3).collect()
            ).unwrap();
            let bytes = map.to_bytes();
            let cut = cut % bytes.len();
            prop_assert!(AllocationMap::from_bytes(&bytes[..cut]).is_err());
        }

        /// Persist v3 round-trip: any kernel image survives
        /// serialize → deserialize with its lookup revalidating and the
        /// re-serialized bytes identical (a canonical fixpoint).
        #[test]
        fn kernel_images_roundtrip(
            d0 in 1u32..8, d1 in 1u32..8, m in 1u32..12, seed in any::<u64>()
        ) {
            let space = GridSpace::new_2d(d0, d1).unwrap();
            let total = (d0 * d1) as usize;
            let table: Vec<u32> = (0..total)
                .map(|i| ((seed.wrapping_mul(i as u64 + 1) >> 7) % u64::from(m)) as u32)
                .collect();
            let map = AllocationMap::from_table(&space, m, table).unwrap();
            let kernel = map.disk_counts().unwrap();
            let mut cache = KernelCache::new();
            cache.insert("HCAM", &map, &kernel);
            let bytes = cache.to_bytes();
            let loaded = KernelCache::from_bytes(&bytes).unwrap();
            prop_assert_eq!(loaded.to_bytes(), bytes);
            let warm = loaded.lookup("HCAM", &map).expect("identity must revalidate");
            prop_assert_eq!(warm.lane_bits(), kernel.lane_bits());
            // Full-grid histogram equality pins the whole table.
            let r = decluster_grid::BucketRegion::new(
                &space, [0, 0].into(), [d0 - 1, d1 - 1].into()
            ).unwrap();
            prop_assert_eq!(warm.access_histogram(&r), kernel.access_histogram(&r));
        }

        /// Flipping any single byte of a kernel image is always a
        /// typed `CorruptImage` error — the v2 methodology applied to v3:
        /// CRC-32 detects every single-byte error, and v3 has no
        /// checksum-free legacy escape hatch at all.
        #[test]
        fn kernel_image_single_byte_corruption_is_rejected(
            flip in 0usize..1000, xor in 1u8..255
        ) {
            let space = GridSpace::new_2d(4, 4).unwrap();
            let map = AllocationMap::from_table(
                &space, 3, (0..16).map(|i| i % 3).collect()
            ).unwrap();
            let mut cache = KernelCache::new();
            cache.insert("TABLE", &map, &map.disk_counts().unwrap());
            let mut bytes = cache.to_bytes().to_vec();
            let idx = flip % bytes.len();
            bytes[idx] ^= xor;
            prop_assert!(matches!(
                KernelCache::from_bytes(&bytes).unwrap_err(),
                MethodError::CorruptImage { .. }
            ));
        }

        /// Truncating a kernel image at any point is rejected.
        #[test]
        fn kernel_image_truncation_is_rejected(cut in 0usize..1000) {
            let space = GridSpace::new_2d(4, 4).unwrap();
            let map = AllocationMap::from_table(
                &space, 3, (0..16).map(|i| i % 3).collect()
            ).unwrap();
            let mut cache = KernelCache::new();
            cache.insert("TABLE", &map, &map.disk_counts().unwrap());
            let bytes = cache.to_bytes();
            let cut = cut % bytes.len();
            prop_assert!(KernelCache::from_bytes(&bytes[..cut]).is_err());
        }

        /// Random byte strings never panic the kernel image parser.
        #[test]
        fn fuzzed_kernel_cache_bytes_never_panic(
            data in proptest::collection::vec(any::<u8>(), 0..300)
        ) {
            let _ = KernelCache::from_bytes(&data);
        }
    }
}
