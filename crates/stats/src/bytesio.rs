//! Minimal little-endian byte codec backing the model-snapshot hooks.
//!
//! The workspace has no serde (the build environment is offline), so every
//! crate that round-trips state to bytes — `genclus-stats` for `Θ`,
//! `genclus-hin` for the network, `genclus-core` for the fitted model — uses
//! this one convention:
//!
//! * all integers are unsigned 64/32/16-bit **little-endian**;
//! * `f64` values are written as their IEEE-754 bit patterns (LE), so a
//!   write → read → write cycle is byte-identical — no text formatting, no
//!   rounding;
//! * variable-length data is length-prefixed with a `u64` count;
//! * packed `u16`/`u32` arrays and strings are padded with zero bytes to the
//!   next multiple of 8, so a writer that starts 8-aligned stays 8-aligned
//!   after every composite item (this is what lets the serve crate expose the
//!   `Θ` payload as an aligned zero-copy `&[f64]`).
//!
//! Readers are *non-panicking*: every accessor returns `Option` and a
//! malformed or truncated buffer surfaces as `None`, never as an
//! out-of-bounds panic — snapshot files are operator-supplied input.

/// Appends a `u64` (LE).
#[inline]
pub fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern (LE).
#[inline]
pub fn put_f64(out: &mut Vec<u8>, x: f64) {
    out.extend_from_slice(&x.to_bits().to_le_bytes());
}

/// Pads with zero bytes to the next multiple of 8.
#[inline]
pub fn pad8(out: &mut Vec<u8>) {
    while !out.len().is_multiple_of(8) {
        out.push(0);
    }
}

/// Appends a length-prefixed UTF-8 string, padded to 8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
    pad8(out);
}

/// Appends a length-prefixed packed `u16` array, padded to 8 bytes. Takes
/// an exact-size iterator, so a field projected out of a struct array is
/// written without collecting it first (likewise the other `_iter`
/// writers).
pub fn put_u16_iter(out: &mut Vec<u8>, xs: impl ExactSizeIterator<Item = u16>) {
    put_packed(out, xs, u16::to_le_bytes);
}

/// Appends a length-prefixed packed `u32` array, padded to 8 bytes.
pub fn put_u32_slice(out: &mut Vec<u8>, xs: &[u32]) {
    put_u32_iter(out, xs.iter().copied());
}

/// [`put_u32_slice`] over the items of an exact-size iterator.
pub fn put_u32_iter(out: &mut Vec<u8>, xs: impl ExactSizeIterator<Item = u32>) {
    put_packed(out, xs, u32::to_le_bytes);
}

/// Appends a length-prefixed raw byte blob, padded to 8 bytes. The reader
/// side ([`ByteReader::byte_blob`]) hands the blob back **borrowed**, so
/// bulk payloads (e.g. a name arena) round-trip without a per-element walk.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
    pad8(out);
}

/// Appends a length-prefixed `u64` array.
pub fn put_u64_iter(out: &mut Vec<u8>, xs: impl ExactSizeIterator<Item = u64>) {
    put_packed(out, xs, u64::to_le_bytes);
}

/// Appends a length-prefixed `f64` array (bit patterns, LE).
pub fn put_f64_slice(out: &mut Vec<u8>, xs: &[f64]) {
    put_f64_iter(out, xs.iter().copied());
}

/// [`put_f64_slice`] over the items of an exact-size iterator.
pub fn put_f64_iter(out: &mut Vec<u8>, xs: impl ExactSizeIterator<Item = f64>) {
    put_packed(out, xs, |x| x.to_bits().to_le_bytes());
}

/// The shared array writer: a `u64` count, each item's `W` little-endian
/// bytes, then — for items narrower than 8 bytes — zero padding of the
/// buffer to the next multiple of 8. The region is sized once and filled
/// in place: one store per item, no per-item capacity check.
fn put_packed<T, const W: usize>(
    out: &mut Vec<u8>,
    xs: impl ExactSizeIterator<Item = T>,
    le_bytes: impl Fn(T) -> [u8; W],
) {
    put_u64(out, xs.len() as u64);
    let start = out.len();
    let end = start + xs.len() * W;
    out.resize(if W < 8 { end.next_multiple_of(8) } else { end }, 0);
    for (dst, x) in out[start..end].chunks_exact_mut(W).zip(xs) {
        dst.copy_from_slice(&le_bytes(x));
    }
}

/// A bounds-checked cursor over an immutable byte buffer.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current cursor position.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    /// Reads a `u64` (LE).
    pub fn u64(&mut self) -> Option<u64> {
        let b = self.bytes(8)?;
        Some(u64::from_le_bytes(b.try_into().ok()?))
    }

    /// Reads a `u64` and converts it to `usize`, requiring it to be a
    /// plausible element count: at most `remaining / min_elem_size`. This is
    /// the guard that keeps corrupt length prefixes from triggering huge
    /// allocations.
    pub fn count(&mut self, min_elem_size: usize) -> Option<usize> {
        let n = self.u64()?;
        let n: usize = n.try_into().ok()?;
        if n.checked_mul(min_elem_size.max(1))? > self.remaining() {
            return None;
        }
        Some(n)
    }

    /// Reads an `f64` bit pattern (LE).
    pub fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    /// Skips padding up to the next multiple of 8.
    pub fn align8(&mut self) -> Option<()> {
        while !self.pos.is_multiple_of(8) {
            self.bytes(1)?;
        }
        Some(())
    }

    /// Reads a length-prefixed string (as written by [`put_str`]).
    pub fn str(&mut self) -> Option<String> {
        let n = self.count(1)?;
        let s = std::str::from_utf8(self.bytes(n)?).ok()?.to_string();
        self.align8()?;
        Some(s)
    }

    /// Reads a packed `u16` array (as written by [`put_u16_iter`]).
    pub fn u16_slice(&mut self) -> Option<Vec<u16>> {
        let n = self.count(2)?;
        let raw = self.bytes(n * 2)?;
        let out = raw
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect();
        self.align8()?;
        Some(out)
    }

    /// Reads a packed `u32` array (as written by [`put_u32_slice`]).
    pub fn u32_slice(&mut self) -> Option<Vec<u32>> {
        let n = self.count(4)?;
        let raw = self.bytes(n * 4)?;
        let out = raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        self.align8()?;
        Some(out)
    }

    /// Reads a `u64` array (as written by [`put_u64_iter`]).
    ///
    /// Bounds-checks the whole array up front and allocates the output
    /// exactly once — the element count must never influence the number of
    /// heap allocations (the serve crate's zero-copy load test counts them).
    pub fn u64_slice(&mut self) -> Option<Vec<u64>> {
        let n = self.count(8)?;
        let raw = self.bytes(n * 8)?;
        let mut out = Vec::with_capacity(n);
        out.extend(
            raw.chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)"))),
        );
        Some(out)
    }

    /// Reads an `f64` array (as written by [`put_f64_slice`]); same
    /// single-allocation contract as [`Self::u64_slice`].
    pub fn f64_slice(&mut self) -> Option<Vec<f64>> {
        let n = self.count(8)?;
        let raw = self.bytes(n * 8)?;
        let mut out = Vec::with_capacity(n);
        out.extend(
            raw.chunks_exact(8).map(|c| {
                f64::from_bits(u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
            }),
        );
        Some(out)
    }

    /// Reads a length-prefixed byte blob (as written by [`put_bytes`]),
    /// **borrowed** from the underlying buffer — no copy, no allocation.
    pub fn byte_blob(&mut self) -> Option<&'a [u8]> {
        let n = self.count(1)?;
        let b = self.bytes(n)?;
        self.align8()?;
        Some(b)
    }
}

/// FNV-1a 64-bit hash — the snapshot payload checksum. Not cryptographic;
/// it detects truncation and bit rot, which is all a local model file needs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut out = Vec::new();
        put_u64(&mut out, 42);
        put_f64(&mut out, -1.5e300);
        put_f64(&mut out, f64::MIN_POSITIVE);
        let mut r = ByteReader::new(&out);
        assert_eq!(r.u64(), Some(42));
        assert_eq!(r.f64(), Some(-1.5e300));
        assert_eq!(r.f64(), Some(f64::MIN_POSITIVE));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u64(), None, "reads past the end are None, not panics");
    }

    #[test]
    fn composite_items_keep_eight_alignment() {
        let mut out = Vec::new();
        put_str(&mut out, "abc"); // 3 bytes + 5 pad
        assert_eq!(out.len() % 8, 0);
        put_u16_iter(&mut out, [1, 2, 3].into_iter());
        assert_eq!(out.len() % 8, 0);
        put_u32_slice(&mut out, &[7; 5]);
        assert_eq!(out.len() % 8, 0);
        let mut r = ByteReader::new(&out);
        assert_eq!(r.str().as_deref(), Some("abc"));
        assert_eq!(r.u16_slice(), Some(vec![1, 2, 3]));
        assert_eq!(r.u32_slice(), Some(vec![7; 5]));
    }

    #[test]
    fn slices_round_trip() {
        let mut out = Vec::new();
        put_u64_iter(&mut out, [u64::MAX, 0].into_iter());
        put_f64_slice(&mut out, &[0.1, -0.0, f64::INFINITY]);
        let mut r = ByteReader::new(&out);
        assert_eq!(r.u64_slice(), Some(vec![u64::MAX, 0]));
        let f = r.f64_slice().unwrap();
        assert_eq!(f[0], 0.1);
        assert_eq!(
            f[1].to_bits(),
            (-0.0f64).to_bits(),
            "bit-exact, not value-exact"
        );
        assert_eq!(f[2], f64::INFINITY);
    }

    #[test]
    fn packed_writers_match_the_element_by_element_layout() {
        // The reference layout: count, each element's LE bytes, then, for
        // `u16`/`u32`, zero padding to the next multiple of 8 of the whole
        // buffer — also when the buffer did not start aligned.
        fn reference(out: &mut Vec<u8>, n: usize, elems: &[u8], narrow: bool) {
            put_u64(out, n as u64);
            out.extend_from_slice(elems);
            if narrow {
                pad8(out);
            }
        }
        for prefix in [0usize, 3, 8] {
            let (mut got, mut want) = (vec![0xaa; prefix], vec![0xaa; prefix]);
            let u16s = [1u16, 0xbeef, 7];
            put_u16_iter(&mut got, u16s.into_iter());
            let le: Vec<u8> = u16s.iter().flat_map(|x| x.to_le_bytes()).collect();
            reference(&mut want, 3, &le, true);
            let u32s = [0xdead_beefu32, 2, 3, 4, 5];
            put_u32_iter(&mut got, u32s.iter().copied());
            let le: Vec<u8> = u32s.iter().flat_map(|x| x.to_le_bytes()).collect();
            reference(&mut want, 5, &le, true);
            let u64s = [u64::MAX, 9];
            put_u64_iter(&mut got, u64s.iter().copied());
            let le: Vec<u8> = u64s.iter().flat_map(|x| x.to_le_bytes()).collect();
            reference(&mut want, 2, &le, false);
            let f64s = [-0.0f64, 1.5, f64::NAN];
            put_f64_slice(&mut got, &f64s);
            let le: Vec<u8> = f64s
                .iter()
                .flat_map(|x| x.to_bits().to_le_bytes())
                .collect();
            reference(&mut want, 3, &le, false);
            put_u32_slice(&mut got, &[]);
            reference(&mut want, 0, &[], true);
            assert_eq!(got, want, "prefix {prefix}");
        }
    }

    #[test]
    fn byte_blob_round_trips_borrowed_and_aligned() {
        let mut out = Vec::new();
        put_bytes(&mut out, b"hello");
        assert_eq!(out.len() % 8, 0);
        put_u64(&mut out, 7);
        let mut r = ByteReader::new(&out);
        assert_eq!(r.byte_blob(), Some(&b"hello"[..]));
        assert_eq!(r.u64(), Some(7));
        // Empty blob is fine; truncated blob is rejected.
        let mut out = Vec::new();
        put_bytes(&mut out, b"");
        let mut r = ByteReader::new(&out);
        assert_eq!(r.byte_blob(), Some(&b""[..]));
        let mut out = Vec::new();
        put_u64(&mut out, 99); // claims 99 bytes, provides none
        assert_eq!(ByteReader::new(&out).byte_blob(), None);
    }

    #[test]
    fn corrupt_length_prefix_is_rejected_cheaply() {
        let mut out = Vec::new();
        put_u64(&mut out, u64::MAX); // absurd count
        let mut r = ByteReader::new(&out);
        assert_eq!(r.f64_slice(), None);
        let mut r = ByteReader::new(&out);
        assert_eq!(r.str(), None);
    }

    #[test]
    fn fnv_matches_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
