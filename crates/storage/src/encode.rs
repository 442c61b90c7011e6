//! Physical encodings for key/code columns.
//!
//! Dimension keys and dictionary codes are small non-negative integers
//! drawn from a known domain, so storing them as plain `Vec<i64>` (or even
//! `Vec<u32>`) wastes most of every word. A [`CodeStore`] holds such a
//! column in one of two physical layouts:
//!
//! * **Bit-packed** — every code occupies exactly `width` bits, where the
//!   width is chosen from the domain cardinality (`ceil(log2(domain))`).
//!   A 25-member nation column packs 5 bits per row: 12.8× smaller than
//!   `i64` storage and friendlier to cache and memory bandwidth.
//! * **Run-length** — sorted or clustered columns (dimension attributes
//!   generated in key order, date columns of time-ordered facts) collapse
//!   into `(start_row, value)` runs with O(log runs) random access.
//!
//! The choice between the two is made per column by [`CodeStore::from_codes`]
//! from the actual byte sizes — run-length wins exactly when its footprint
//! is smaller than the bit-packed one, so pathological alternating columns
//! can never regress below the packed baseline.
//!
//! Encodings are an *in-memory layout choice only*: the logical content is
//! the code sequence, and every consumer above the chunk layer sees decoded
//! flat `u32` lanes (see `DataChunk::key_lane`), so scan kernels never
//! branch on the encoding.

/// The number of bits needed to store any code of a domain with
/// `domain` members (codes `0 .. domain`). At least 1.
pub fn bit_width(domain: u32) -> u32 {
    (32 - domain.saturating_sub(1).leading_zeros()).max(1)
}

/// Trailing zero bytes kept after the packed payload so the decoder can
/// read one whole little-endian word at any code's byte offset without
/// running off the end of the buffer.
const PACK_PAD: usize = 8;

/// Exact buffer size (payload + pad) for `len` codes of `width` bits.
fn packed_len(len: usize, width: u32) -> usize {
    (len * width as usize).div_ceil(8) + PACK_PAD
}

/// An encoded sequence of `u32` codes.
#[derive(Debug, Clone, PartialEq)]
pub enum CodeStore {
    /// Fixed-width bit packing: code `i` lives at bit offset `i * width`
    /// of the little-endian `bytes` buffer (bit `b` is bit `b % 8` of
    /// byte `b >> 3`). Byte addressing keeps every code inside one
    /// unaligned word load — the decoder never reassembles a value from
    /// two words, which is what makes the unpack competitive with a
    /// plain integer cast. The buffer always carries [`PACK_PAD`]
    /// trailing zero bytes ([`packed_len`] is the invariant).
    BitPacked { width: u32, len: usize, bytes: Vec<u8> },
    /// Run-length runs: run `r` covers rows `starts[r] .. starts[r + 1]`
    /// (the last run ends at `len`) and holds `values[r]`. Starts are
    /// strictly increasing; adjacent runs hold distinct values.
    Rle { starts: Vec<u32>, values: Vec<u32>, len: usize },
}

impl CodeStore {
    /// Encodes `codes`, choosing run-length when its footprint beats
    /// bit-packing at `width = bit_width(domain)` and bit-packing
    /// otherwise. `domain` must cover every code (`code < domain`); the
    /// width is taken from the domain cardinality, not the observed
    /// maximum, so appends of so-far-unseen members never force a repack.
    pub fn from_codes(codes: &[u32], domain: u32) -> CodeStore {
        debug_assert!(codes.iter().all(|&c| c < domain.max(1)));
        let width = bit_width(domain);
        let mut runs = 0usize;
        let mut prev = u32::MAX;
        for &c in codes {
            runs += (c != prev) as usize;
            prev = c;
        }
        let packed_bytes = packed_len(codes.len(), width);
        let rle_bytes = runs * 8;
        if !codes.is_empty() && codes.len() <= u32::MAX as usize && rle_bytes < packed_bytes {
            let mut starts = Vec::with_capacity(runs);
            let mut values = Vec::with_capacity(runs);
            let mut prev = u32::MAX;
            for (i, &c) in codes.iter().enumerate() {
                if c != prev {
                    starts.push(i as u32);
                    values.push(c);
                    prev = c;
                }
            }
            CodeStore::Rle { starts, values, len: codes.len() }
        } else {
            CodeStore::BitPacked { width, len: codes.len(), bytes: pack(codes, width) }
        }
    }

    /// An empty bit-packed store sized for `domain`.
    pub fn empty(domain: u32) -> CodeStore {
        CodeStore::BitPacked { width: bit_width(domain), len: 0, bytes: vec![0; PACK_PAD] }
    }

    pub fn len(&self) -> usize {
        match self {
            CodeStore::BitPacked { len, .. } | CodeStore::Rle { len, .. } => *len,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current code width in bits (the packing width, or the width the
    /// run-length store would pack at — used for stats only).
    pub fn width(&self) -> u32 {
        match self {
            CodeStore::BitPacked { width, .. } => *width,
            CodeStore::Rle { values, .. } => {
                bit_width(values.iter().copied().max().map_or(1, |m| m + 1))
            }
        }
    }

    /// Physical layout name, for storage statistics.
    pub fn encoding_name(&self) -> &'static str {
        match self {
            CodeStore::BitPacked { .. } => "bitpack",
            CodeStore::Rle { .. } => "rle",
        }
    }

    /// Random access to the code at `row`.
    #[inline]
    pub fn get(&self, row: usize) -> u32 {
        match self {
            CodeStore::BitPacked { width, len, bytes } => {
                debug_assert!(row < *len);
                let bit = row * *width as usize;
                let v = load_word(bytes, bit >> 3) >> (bit & 7);
                (v & mask(*width)) as u32
            }
            CodeStore::Rle { starts, values, len } => {
                debug_assert!(row < *len);
                let run = starts.partition_point(|&s| s as usize <= row) - 1;
                values[run]
            }
        }
    }

    /// Appends the decoded codes of rows `lo .. hi` onto `out`.
    ///
    /// This is the morsel pipeline's hot decode: every encoded lane of
    /// every chunk goes through here, so the bit-packed arm writes into a
    /// pre-sized slice (no per-element growth checks) and decodes each
    /// code with a single unaligned little-endian load, shift, and mask
    /// — byte addressing plus the buffer's trailing pad guarantee the
    /// whole code sits inside the loaded word, so there is no straddle
    /// branch and no two-word reassembly anywhere in the loop.
    pub fn decode_range(&self, lo: usize, hi: usize, out: &mut Vec<u32>) {
        debug_assert!(lo <= hi && hi <= self.len());
        match self {
            CodeStore::BitPacked { width, bytes, .. } => {
                let w = *width as usize;
                let base = out.len();
                out.resize(base + (hi - lo), 0);
                let dst = &mut out[base..];
                let scalar = |rows: core::ops::Range<usize>, dst: &mut [u32]| {
                    let m = mask(*width);
                    let mut bit = rows.start * w;
                    for slot in dst {
                        *slot = ((load_word(bytes, bit >> 3) >> (bit & 7)) & m) as u32;
                        bit += w;
                    }
                };
                // 64 codes of width `w` span exactly `8·w` bytes starting
                // on a byte boundary, so rows `[64k, 64k+64)` decode via
                // `unpack_block` with every byte offset, shift, and mask
                // a compile-time constant after monomorphization. The
                // unaligned head and tail fall back to the scalar gather;
                // morsel bounds are multiples of 64, so almost all rows
                // land in blocks.
                let head_end = hi.min(lo.next_multiple_of(64));
                scalar(lo..head_end, &mut dst[..head_end - lo]);
                let mut row = head_end;
                while row + 64 <= hi {
                    let dst64: &mut [u32; 64] = (&mut dst[row - lo..row - lo + 64])
                        .try_into()
                        .expect("block slice is exactly 64 rows");
                    unpack_block_width(w, &bytes[(row / 64) * (8 * w)..], dst64);
                    row += 64;
                }
                scalar(row..hi, &mut dst[row - lo..]);
            }
            CodeStore::Rle { starts, values, len } => {
                if lo == hi {
                    return;
                }
                let base = out.len();
                out.resize(base + (hi - lo), 0);
                let out = &mut out[base..];
                let mut run = starts.partition_point(|&s| (s as usize) <= lo) - 1;
                let mut row = lo;
                while row < hi {
                    let run_end = starts.get(run + 1).map_or(*len, |&s| s as usize).min(hi);
                    out[row - lo..run_end - lo].fill(values[run]);
                    row = run_end;
                    run += 1;
                }
            }
        }
    }

    /// Conservative pre-filter for masked scans: could any row of
    /// `lo .. hi` carry a code satisfying `pred`? Run-length stores answer
    /// exactly, touching one entry per overlapping run — on a clustered
    /// column this lets a scan prove a whole morsel has no matching row
    /// and skip its decode and kernels entirely. Bit-packed stores answer
    /// `true`: finding out would cost exactly the decode the caller is
    /// trying to avoid.
    pub fn may_match(&self, lo: usize, hi: usize, pred: impl Fn(u32) -> bool) -> bool {
        debug_assert!(lo <= hi && hi <= self.len());
        match self {
            CodeStore::BitPacked { .. } => lo < hi,
            CodeStore::Rle { starts, values, .. } => {
                if lo >= hi {
                    return false;
                }
                let first = starts.partition_point(|&s| (s as usize) <= lo) - 1;
                values
                    .iter()
                    .enumerate()
                    .skip(first)
                    .take_while(|&(run, _)| run == first || (starts[run] as usize) < hi)
                    .any(|(_, &v)| pred(v))
            }
        }
    }

    /// The whole store decoded to plain codes.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        self.decode_range(0, self.len(), &mut out);
        out
    }

    /// Appends one code, growing the packing width when `code` does not
    /// fit the current one (append of a previously-unseen wide member).
    pub fn push(&mut self, code: u32) {
        match self {
            CodeStore::BitPacked { width, len, bytes } => {
                if code >= 1u32.checked_shl(*width).unwrap_or(u32::MAX).max(1) && *width < 32 {
                    // Repack at the width the new code needs.
                    let grown = bit_width(code.saturating_add(1));
                    let codes = self.to_vec();
                    *self = CodeStore::BitPacked {
                        width: grown,
                        len: codes.len(),
                        bytes: pack(&codes, grown),
                    };
                    self.push(code);
                    return;
                }
                let bit = *len * *width as usize;
                bytes.resize(packed_len(*len + 1, *width), 0);
                // The pad keeps the full word in bounds; `off + width`
                // is at most 7 + 32 bits, so one word holds the code.
                store_word(bytes, bit >> 3, (code as u64) << (bit & 7));
                *len += 1;
            }
            CodeStore::Rle { starts, values, len } => {
                debug_assert!(*len < u32::MAX as usize, "RLE stores cap at u32 rows");
                if values.last() != Some(&code) {
                    starts.push(*len as u32);
                    values.push(code);
                }
                *len += 1;
            }
        }
    }

    /// Heap footprint in bytes.
    pub fn byte_size(&self) -> usize {
        match self {
            CodeStore::BitPacked { bytes, .. } => bytes.len(),
            CodeStore::Rle { starts, values, .. } => (starts.len() + values.len()) * 4,
        }
    }
}

#[inline]
fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// One unaligned little-endian u64 load at byte offset `p`. The buffer's
/// [`PACK_PAD`] trailing zeros keep the read in bounds for any in-range
/// code offset.
#[inline]
fn load_word(bytes: &[u8], p: usize) -> u64 {
    u64::from_le_bytes(bytes[p..p + 8].try_into().expect("packed buffer carries PACK_PAD"))
}

/// ORs `v` into the word at byte offset `p` (read-modify-write of eight
/// bytes; callers only ever set bits that are currently zero).
#[inline]
fn store_word(bytes: &mut [u8], p: usize, v: u64) {
    let merged = load_word(bytes, p) | v;
    bytes[p..p + 8].copy_from_slice(&merged.to_le_bytes());
}

/// Unpacks one byte-aligned block of 64 codes of width `W` from the
/// `8·W`-byte run starting at `src[0]`. With the width a const
/// parameter, every byte offset, shift amount, and mask below is a
/// compile-time constant after monomorphization, and each code costs one
/// unaligned load + shift + mask — which is what makes bit-packed lanes
/// competitive with a plain `i64 → u32` cast in the morsel decode path.
#[inline]
fn unpack_block<const W: usize>(src: &[u8], dst: &mut [u32; 64]) {
    // Re-slice to the exact block span (plus pad) so the optimizer sees
    // every load below as in-bounds by construction.
    let src = &src[..8 * W + PACK_PAD];
    let m = mask(W as u32);
    for (i, slot) in dst.iter_mut().enumerate() {
        let bit = i * W;
        let p = bit >> 3;
        let off = bit & 7;
        // Widths up to 25 always fit byte-offset + code in 32 bits, so
        // the narrow load suffices; wider codes take the u64 load. `W` is
        // const, so each monomorphization keeps exactly one branch arm.
        let v = if W <= 25 {
            u32::from_le_bytes(src[p..p + 4].try_into().expect("block span is in bounds")) as u64
        } else {
            u64::from_le_bytes(src[p..p + 8].try_into().expect("block span is in bounds"))
        };
        *slot = ((v >> off) & m) as u32;
    }
}

/// Width-dispatch for [`unpack_block`]: one monomorphized kernel per
/// legal packing width (1..=32).
fn unpack_block_width(width: usize, src: &[u8], dst: &mut [u32; 64]) {
    macro_rules! dispatch {
        ($($w:literal)*) => {
            match width {
                $($w => unpack_block::<$w>(src, dst),)*
                _ => unreachable!("packing width is 1..=32"),
            }
        };
    }
    dispatch!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32)
}

fn pack(codes: &[u32], width: u32) -> Vec<u8> {
    let w = width as usize;
    let mut bytes = vec![0u8; packed_len(codes.len(), width)];
    let mut bit = 0usize;
    for &c in codes {
        store_word(&mut bytes, bit >> 3, (c as u64) << (bit & 7));
        bit += w;
    }
    bytes
}

/// An encoded key column: codes drawn from `0 .. domain`, stored packed.
/// This is the physical shape of fact foreign-key columns ("dims as narrow
/// codes") after `Table::encode_keys`. Every row holds a member: a key
/// column has no nulls.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyColumn {
    pub codes: CodeStore,
    /// Domain cardinality: every code is `< domain`. Grows on appends of
    /// new members.
    pub domain: u32,
}

impl KeyColumn {
    /// Encodes plain codes with a domain-derived width. Any code at or
    /// beyond `domain` widens the recorded domain (the caller's domain is
    /// a floor, not a hard bound).
    pub fn new(codes: &[u32], domain: u32) -> KeyColumn {
        let domain = domain.max(codes.iter().copied().max().map_or(1, |m| m + 1)).max(1);
        KeyColumn { codes: CodeStore::from_codes(codes, domain), domain }
    }

    pub fn len(&self) -> usize {
        self.codes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The code at `row`.
    #[inline]
    pub fn get(&self, row: usize) -> u32 {
        self.codes.get(row)
    }

    /// Appends one code, growing the domain (and packing width) as needed.
    pub fn push(&mut self, code: u32) {
        self.codes.push(code);
        self.domain = self.domain.max(code.saturating_add(1));
    }

    pub fn byte_size(&self) -> usize {
        self.codes.byte_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_width_is_ceil_log2() {
        assert_eq!(bit_width(0), 1);
        assert_eq!(bit_width(1), 1);
        assert_eq!(bit_width(2), 1);
        assert_eq!(bit_width(3), 2);
        assert_eq!(bit_width(25), 5);
        assert_eq!(bit_width(2557), 12);
        assert_eq!(bit_width(u32::MAX), 32);
    }

    #[test]
    fn bitpack_round_trips_across_word_boundaries() {
        // Width 5 over 200 values straddles many u64 boundaries.
        let codes: Vec<u32> = (0..200).map(|i| (i * 7) % 25).collect();
        let store = CodeStore::from_codes(&codes, 25);
        assert_eq!(store.encoding_name(), "bitpack");
        assert_eq!(store.width(), 5);
        assert_eq!(store.len(), codes.len());
        assert_eq!(store.to_vec(), codes);
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(store.get(i), c);
        }
        let mut out = Vec::new();
        store.decode_range(13, 77, &mut out);
        assert_eq!(out, &codes[13..77]);
        assert!(store.byte_size() < codes.len() * 4, "packed beats u32 storage");
    }

    #[test]
    fn clustered_columns_choose_rle() {
        let codes: Vec<u32> = (0..5).flat_map(|v| std::iter::repeat_n(v, 1000)).collect();
        let store = CodeStore::from_codes(&codes, 5);
        assert_eq!(store.encoding_name(), "rle");
        assert_eq!(store.to_vec(), codes);
        assert_eq!(store.get(0), 0);
        assert_eq!(store.get(999), 0);
        assert_eq!(store.get(1000), 1);
        assert_eq!(store.get(4999), 4);
        let mut out = Vec::new();
        store.decode_range(990, 1010, &mut out);
        assert_eq!(out, &codes[990..1010]);
        assert!(store.byte_size() <= 40, "5 runs = 40 bytes");
    }

    #[test]
    fn alternating_columns_never_regress_below_bitpack() {
        let codes: Vec<u32> = (0..1000).map(|i| i % 2).collect();
        let store = CodeStore::from_codes(&codes, 2);
        assert_eq!(store.encoding_name(), "bitpack", "RLE would be 8 bytes/row here");
        // 1 bit per row plus the decoder's trailing pad.
        assert_eq!(store.byte_size(), 1000usize.div_ceil(8) + 8);
    }

    #[test]
    fn may_match_answers_runs_exactly_and_bitpack_conservatively() {
        let clustered: Vec<u32> = (0..5).flat_map(|v| std::iter::repeat_n(v, 1000)).collect();
        let rle = CodeStore::from_codes(&clustered, 5);
        assert_eq!(rle.encoding_name(), "rle");
        assert!(rle.may_match(0, 1000, |c| c == 0));
        assert!(!rle.may_match(1000, 5000, |c| c == 0), "code 0 ends at row 1000");
        assert!(rle.may_match(999, 1001, |c| c == 1), "boundary row sees the next run");
        assert!(rle.may_match(4999, 5000, |c| c == 4));
        assert!(!rle.may_match(2000, 2000, |_| true), "empty range never matches");
        let packed = CodeStore::from_codes(&[3, 1, 2], 4);
        assert_eq!(packed.encoding_name(), "bitpack");
        assert!(packed.may_match(0, 3, |_| false), "bit-packed stores answer maybe");
        assert!(!packed.may_match(1, 1, |_| true));
    }

    #[test]
    fn push_appends_to_both_layouts() {
        let mut packed = CodeStore::from_codes(&[1, 2, 3], 4);
        packed.push(0);
        packed.push(3);
        assert_eq!(packed.to_vec(), vec![1, 2, 3, 0, 3]);

        let mut rle = CodeStore::from_codes(&vec![7; 100], 8);
        assert_eq!(rle.encoding_name(), "rle");
        rle.push(7);
        rle.push(2);
        rle.push(2);
        assert_eq!(rle.len(), 103);
        assert_eq!(rle.get(100), 7);
        assert_eq!(rle.get(102), 2);
    }

    #[test]
    fn push_grows_the_packing_width() {
        let mut store = CodeStore::from_codes(&[0, 1, 1, 0], 2);
        assert_eq!(store.width(), 1);
        store.push(9); // needs 4 bits: forces a repack
        assert_eq!(store.width(), 4);
        assert_eq!(store.to_vec(), vec![0, 1, 1, 0, 9]);
        store.push(2);
        assert_eq!(store.to_vec(), vec![0, 1, 1, 0, 9, 2]);
    }

    #[test]
    fn empty_store_accepts_pushes() {
        let mut store = CodeStore::empty(25);
        assert!(store.is_empty());
        for c in [3u32, 3, 24, 0] {
            store.push(c);
        }
        assert_eq!(store.to_vec(), vec![3, 3, 24, 0]);
    }

    #[test]
    fn key_columns_track_domain_growth() {
        let mut k = KeyColumn::new(&[0, 1, 2, 1], 3);
        assert_eq!(k.domain, 3);
        k.push(6);
        assert_eq!(k.domain, 7);
        assert_eq!(k.get(4), 6);
        k.push(0);
        assert_eq!((k.len(), k.domain, k.get(5)), (6, 7, 0));
        assert!(k.byte_size() > 0);
    }
}

#[cfg(test)]
mod decode_speed {
    use super::*;
    use std::time::Instant;

    fn bench<F: FnMut()>(mut f: F, reps: usize) -> f64 {
        for _ in 0..3 {
            f();
        }
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        t0.elapsed().as_secs_f64() / reps as f64
    }

    /// Manual probe comparing the bit-packed lane decode against the
    /// plain `i64 -> u32` cast it competes with in the morsel pipeline.
    /// Run with `cargo test --release -p olap-storage -- --ignored
    /// --nocapture lane_decode_timing`.
    #[test]
    #[ignore = "manual timing probe"]
    fn lane_decode_timing() {
        let n = 600_000usize;
        let codes: Vec<u32> = (0..n as u32).map(|i| (i.wrapping_mul(2654435761)) % 3000).collect();
        let store = CodeStore::from_codes(&codes, 3000);
        assert_eq!(store.encoding_name(), "bitpack");
        let plain: Vec<i64> = codes.iter().map(|&c| c as i64).collect();
        let mut out: Vec<u32> = Vec::with_capacity(n);
        let reps = 200;
        let unpack = bench(
            || {
                out.clear();
                store.decode_range(0, n, &mut out);
            },
            reps,
        );
        assert_eq!(out[12345], codes[12345]);
        let cast = bench(
            || {
                out.clear();
                out.extend(plain.iter().map(|&x| x as u32));
            },
            reps,
        );
        eprintln!(
            "unpack {:.2} ns/code   cast {:.2} ns/code",
            unpack / n as f64 * 1e9,
            cast / n as f64 * 1e9
        );
    }
}
