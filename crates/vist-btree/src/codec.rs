//! Order-preserving key encodings.
//!
//! B+Tree keys compare as raw byte strings, so multi-field keys must be
//! encoded such that byte order equals logical order. Fixed-width big-endian
//! integers have this property; [`KeyWriter`] concatenates them. For a
//! trailing variable-length field (ViST's path prefixes), plain concatenation
//! is order-preserving as long as it is the *last* field — which is how every
//! key in this workspace is laid out (and the D-Ancestor key additionally
//! stores the prefix *length* before the content, matching the paper's
//! ordering: "first by the Symbol, then by the length of the Prefix, and
//! lastly by the content of the Prefix").
//!
//! Packed segments (format v2) spend bytes on the magnitude of a value, not
//! on its type: key components are [`put_ordered_uint`]s (variable length, still
//! order-preserving and prefix-free, so they concatenate like the fixed-width
//! fields do), values and lengths are LEB128 [`put_varint`]s.

/// Incrementally builds a composite key.
#[derive(Default, Debug, Clone)]
pub struct KeyWriter {
    buf: Vec<u8>,
}

impl KeyWriter {
    /// New empty key.
    #[must_use]
    pub fn new() -> Self {
        KeyWriter { buf: Vec::new() }
    }

    /// New empty key with reserved capacity.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        KeyWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a big-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Append a big-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Append a big-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Append a big-endian `u128` (ViST scope labels).
    pub fn u128(&mut self, v: u128) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Append raw bytes (only order-preserving as the final field).
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Finish, returning the encoded key.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the bytes encoded so far.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Longest [`put_ordered_uint`]: the length byte and sixteen value bytes.
pub const ORDERED_UINT_MAX: usize = 17;

/// Write `v` at the front of `out` as an order-preserving variable-length
/// unsigned integer — one length byte (0 for zero, up to 16), then that many
/// significant bytes, big-endian — and return how many bytes that is. What
/// `out` holds past them is unspecified.
///
/// A larger value has a larger length byte or, at equal length, larger
/// big-endian bytes, so encodings compare like the values; the length byte
/// fixes where an encoding ends, so none is a prefix of another and a
/// concatenation of them compares like the tuple.
#[inline]
pub fn put_ordered_uint(out: &mut [u8; ORDERED_UINT_MAX], v: u128) -> usize {
    if let Ok(v) = u64::try_from(v) {
        // Labels and ids of a segment fit 64 bits. Length byte and value
        // bytes are put together in registers and leave in one store: a
        // probe key is compared right after it is built, and a load that
        // has to be pieced together from several small stores stalls.
        let n = (64 - v.leading_zeros() as usize).div_ceil(8);
        let front = if n == 0 { 0 } else { v << (8 * (8 - n)) };
        let packed = (u128::from(front.swap_bytes()) << 8) | n as u128;
        out[..16].copy_from_slice(&packed.to_le_bytes());
        n + 1
    } else {
        let n = (128 - v.leading_zeros() as usize).div_ceil(8);
        out[0] = n as u8;
        out[1..].copy_from_slice(&(v << (8 * (16 - n))).to_be_bytes());
        n + 1
    }
}

/// Read one [`put_ordered_uint`] off the front of `buf`, advancing it. `None`
/// when the bytes are not what the encoder writes: a length byte above 16,
/// fewer bytes than it announces, or a leading zero byte (a second, shorter
/// encoding of the same value would break the order).
#[inline]
pub fn take_ordered_uint(buf: &mut &[u8]) -> Option<u128> {
    let (&n, rest) = buf.split_first()?;
    let n = usize::from(n);
    if n > 16 || rest.len() < n || (n > 0 && rest[0] == 0) {
        return None;
    }
    let (bytes, rest) = rest.split_at(n);
    *buf = rest;
    Some(if n <= 8 {
        bytes
            .iter()
            .fold(0u64, |v, &b| (v << 8) | u64::from(b))
            .into()
    } else {
        bytes.iter().fold(0, |v, &b| (v << 8) | u128::from(b))
    })
}

/// Append `v` as a LEB128 varint: seven bits a byte, least significant
/// first, the high bit set on every byte but the last. One byte below 128.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u128) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Bytes [`put_varint`] writes for `v`.
#[must_use]
pub fn varint_len(v: u128) -> usize {
    (128 - v.leading_zeros() as usize).div_ceil(7).max(1)
}

/// Read one [`put_varint`] off the front of `buf`, advancing it. `None` when
/// `buf` ends inside it, when it does not fit 128 bits, or when it is longer
/// than the encoder would have made it (a trailing zero group).
#[inline]
pub fn take_varint(buf: &mut &[u8]) -> Option<u128> {
    let (&first, mut rest) = buf.split_first()?;
    let mut v = u128::from(first & 0x7F);
    let mut last = first;
    let mut shift = 7u32;
    while last & 0x80 != 0 {
        let (&b, tail) = rest.split_first()?;
        let bits = u128::from(b & 0x7F);
        if shift > 126 || (shift == 126 && bits > 3) || b == 0 {
            return None;
        }
        v |= bits << shift;
        shift += 7;
        last = b;
        rest = tail;
    }
    *buf = rest;
    Some(v)
}

/// The smallest key strictly greater than every key starting with `prefix`
/// (i.e. the exclusive upper bound of the prefix range), or `None` when
/// `prefix` is all `0xFF` and no such key exists.
#[must_use]
pub fn prefix_upper_bound(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut out = prefix.to_vec();
    while let Some(last) = out.pop() {
        if last < 0xFF {
            out.push(last + 1);
            return Some(out);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_roundtrip() {
        let mut w = KeyWriter::new();
        w.u8(3)
            .u16(777)
            .u32(1 << 30)
            .u64(u64::MAX - 5)
            .u128(1 << 100);
        let key = w.finish();
        assert_eq!(key.len(), 1 + 2 + 4 + 8 + 16);
        assert_eq!(key[0], 3);
        assert_eq!(u16::from_be_bytes(key[1..3].try_into().unwrap()), 777);
        assert_eq!(u32::from_be_bytes(key[3..7].try_into().unwrap()), 1 << 30);
        assert_eq!(
            u64::from_be_bytes(key[7..15].try_into().unwrap()),
            u64::MAX - 5
        );
        assert_eq!(u128::from_be_bytes(key[15..].try_into().unwrap()), 1 << 100);
    }

    #[test]
    fn big_endian_preserves_order() {
        let enc = |v: u64| {
            let mut w = KeyWriter::new();
            w.u64(v);
            w.finish()
        };
        let mut values = [0u64, 1, 255, 256, 65535, 1 << 32, u64::MAX];
        values.sort_unstable();
        for pair in values.windows(2) {
            assert!(enc(pair[0]) < enc(pair[1]), "{} vs {}", pair[0], pair[1]);
        }
    }

    #[test]
    fn composite_order_major_to_minor() {
        let enc = |a: u32, b: u32| {
            let mut w = KeyWriter::new();
            w.u32(a).u32(b);
            w.finish()
        };
        assert!(enc(1, 999) < enc(2, 0));
        assert!(enc(2, 0) < enc(2, 1));
    }

    #[test]
    fn prefix_upper_bound_basics() {
        assert_eq!(prefix_upper_bound(b"abc"), Some(b"abd".to_vec()));
        assert_eq!(prefix_upper_bound(&[1, 0xFF]), Some(vec![2]));
        assert_eq!(prefix_upper_bound(&[0xFF, 0xFF]), None);
        // Everything with the prefix sorts below the bound; the bound itself
        // does not have the prefix.
        let ub = prefix_upper_bound(b"ab").unwrap();
        assert!(b"ab".as_slice() < ub.as_slice());
        assert!(b"ab\xff\xff\xff".as_slice() < ub.as_slice());
        assert!(!ub.starts_with(b"ab"));
    }

    /// Every value next to a length boundary of either codec, the named
    /// landmarks, and seeded values of every magnitude.
    fn interesting_values() -> Vec<u128> {
        let mut vs = vec![
            0,
            1,
            u128::from(u64::MAX),
            u128::from(u64::MAX) + 1,
            u128::MAX,
        ];
        for bits in (7..128).step_by(7).chain((8..128).step_by(8)) {
            let edge = 1u128 << bits;
            vs.extend([edge - 2, edge - 1, edge, edge + 1]);
        }
        vs.extend([u128::MAX - 1, (1 << 127) - 1, 1 << 127]);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..2_000u32 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let wide = (u128::from(x) << 64) | u128::from(x.rotate_left(17));
            vs.push(wide >> (i % 128));
        }
        vs.sort_unstable();
        vs.dedup();
        vs
    }

    fn ordered(v: u128) -> Vec<u8> {
        let mut buf = [0xEE; ORDERED_UINT_MAX];
        let len = put_ordered_uint(&mut buf, v);
        buf[..len].to_vec()
    }

    #[test]
    fn ordered_uint_round_trips_and_orders_like_the_values() {
        let vs = interesting_values();
        for (i, &v) in vs.iter().enumerate() {
            let enc = ordered(v);
            assert!(enc.len() <= ORDERED_UINT_MAX);
            assert_eq!(
                enc.len(),
                1 + (128 - v.leading_zeros() as usize).div_ceil(8)
            );
            let mut rest = enc.as_slice();
            assert_eq!(take_ordered_uint(&mut rest), Some(v), "{v}");
            assert!(rest.is_empty());
            // `vs` is strictly ascending: so must the encodings be, and an
            // order-preserving injection gives the converse for free.
            if let Some(&next) = vs.get(i + 1) {
                assert!(enc < ordered(next), "{v} vs {next}");
                // Prefix-free: no encoding starts another.
                assert!(!ordered(next).starts_with(&enc), "{v} vs {next}");
            }
        }
    }

    #[test]
    fn concatenated_ordered_uints_compare_like_tuples() {
        let vs = interesting_values();
        // Neighbours in each component with everything in the other: enough
        // to cross every length boundary on both sides of the seam.
        let picks: Vec<u128> = vs.iter().copied().step_by(17).collect();
        let pair = |a: u128, b: u128| [ordered(a), ordered(b)].concat();
        for w in vs.windows(2) {
            for &o in &picks {
                assert!(pair(w[0], o) < pair(w[1], o), "major {w:?}, {o}");
                assert!(pair(o, w[0]) < pair(o, w[1]), "minor {w:?}, {o}");
                // The major component decides whatever the minor ones are.
                assert!(pair(w[0], u128::MAX) < pair(w[1], 0), "{w:?}");
            }
            let enc = pair(w[0], w[1]);
            let mut rest = enc.as_slice();
            assert_eq!(take_ordered_uint(&mut rest), Some(w[0]));
            assert_eq!(take_ordered_uint(&mut rest), Some(w[1]));
            assert!(rest.is_empty());
        }
    }

    #[test]
    fn ordered_uint_rejects_what_the_encoder_never_writes() {
        for bad in [
            &[][..],
            &[
                17, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
            ],
            &[2, 1],    // announces two bytes, has one
            &[2, 0, 1], // a leading zero byte: 1 is `[1, 1]`
            &[1, 0],    // zero is `[0]`
            &[0xFF],
        ] {
            let mut rest = bad;
            assert_eq!(take_ordered_uint(&mut rest), None, "{bad:?}");
            assert_eq!(rest, bad, "a failed read consumes nothing");
        }
    }

    #[test]
    fn varint_round_trips_and_rejects_over_long_forms() {
        for v in interesting_values() {
            let mut enc = Vec::new();
            put_varint(&mut enc, v);
            assert_eq!(enc.len(), varint_len(v), "{v}");
            enc.push(0xAA); // something after it
            let mut rest = enc.as_slice();
            assert_eq!(take_varint(&mut rest), Some(v), "{v}");
            assert_eq!(rest, [0xAA]);
        }
        assert_eq!(varint_len(0), 1);
        assert_eq!(varint_len(127), 1);
        assert_eq!(varint_len(128), 2);
        assert_eq!(varint_len(u128::MAX), 19);
        let mut max = Vec::new();
        put_varint(&mut max, u128::MAX);
        let mut too_wide = max.clone();
        *too_wide.last_mut().unwrap() = 0x04; // bit 128
        let mut too_long = vec![0x80; 19];
        too_long.push(0x01);
        for bad in [
            &[][..],
            &[0x80],       // ends inside
            &[0x81, 0x00], // 1 with a trailing zero group
            &[0x80, 0x80, 0x00],
            &too_wide,
            &too_long,
        ] {
            let mut rest = bad;
            assert_eq!(take_varint(&mut rest), None, "{bad:?}");
            assert_eq!(rest, bad);
        }
    }

    #[test]
    fn rest_returns_trailing_bytes() {
        let mut w = KeyWriter::new();
        w.u32(9).bytes(b"tail");
        let k = w.finish();
        assert_eq!(u32::from_be_bytes(k[..4].try_into().unwrap()), 9);
        assert_eq!(&k[4..], b"tail");
    }
}
