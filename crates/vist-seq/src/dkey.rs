//! D-Ancestor B+Tree key encoding.
//!
//! The paper orders the D-Ancestor tree "first by the Symbol, then by the
//! length of the Prefix, and lastly by the content of the Prefix", so that a
//! `*` prefix (fixed length, unknown content) and a `//` prefix (unknown
//! length) both become contiguous *range queries*. The byte layout here
//! realizes exactly that ordering:
//!
//! ```text
//! [symbol bytes][prefix_len: u16 BE][prefix symbols: u32 BE each]
//! ```

use vist_btree::codec;

use crate::prefix::{PathSym, Prefix};
use crate::symbols::{Sym, Symbol};

/// Encode a concrete `(symbol, prefix)` pair as a D-Ancestor key.
#[must_use]
pub fn encode(sym: Sym, prefix: &[Symbol]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(sym, prefix, &mut out);
    out
}

/// [`encode`] into a caller-owned buffer (cleared first), for loops that
/// build one key per iteration.
pub fn encode_into(sym: Sym, prefix: &[Symbol], out: &mut Vec<u8>) {
    out.clear();
    sym.encode_into(out);
    out.extend_from_slice(&(prefix.len() as u16).to_be_bytes());
    for s in prefix {
        out.extend_from_slice(&s.0.to_be_bytes());
    }
}

/// Decode a D-Ancestor key back into its `(symbol, prefix)` pair.
#[must_use]
pub fn decode(key: &[u8]) -> (Sym, Vec<Symbol>) {
    let mut prefix = Vec::new();
    let sym = decode_into(key, &mut prefix);
    (sym, prefix)
}

/// [`decode`] with the prefix written into a caller-owned buffer (cleared
/// first); returns the symbol.
pub fn decode_into(key: &[u8], prefix: &mut Vec<Symbol>) -> Sym {
    let (sym, used) = Sym::decode(key);
    let len = u16::from_be_bytes(key[used..used + 2].try_into().unwrap()) as usize;
    prefix.clear();
    prefix.extend(
        key[used + 2..used + 2 + 4 * len]
            .chunks_exact(4)
            .map(|c| Symbol(u32::from_be_bytes(c.try_into().unwrap()))),
    );
    sym
}

/// How to find the D-Ancestor entries matching a query element.
#[derive(Debug, Clone)]
pub enum DKeyQuery {
    /// Concrete prefix: a single exact key.
    Exact(Vec<u8>),
    /// Wildcarded prefix: scan `[lo, hi)` and keep keys whose decoded prefix
    /// matches `pattern`.
    Range {
        /// Inclusive lower bound.
        lo: Vec<u8>,
        /// Exclusive upper bound.
        hi: Vec<u8>,
        /// The wildcard pattern to filter decoded prefixes with.
        pattern: Prefix,
    },
}

/// Build the D-Ancestor lookup for a query element `(sym, prefix)`.
///
/// * no wildcards → [`DKeyQuery::Exact`];
/// * only `*` → the prefix length is fixed, so the range covers exactly one
///   `(symbol, length)` group;
/// * any `//` → the range covers all lengths ≥ the number of non-`//` steps
///   for this symbol.
#[must_use]
pub fn query_for(sym: Sym, prefix: &Prefix) -> DKeyQuery {
    let (mut lo, mut hi) = (Vec::new(), Vec::new());
    if query_into(sym, &prefix.0, &mut lo, &mut hi) {
        DKeyQuery::Exact(lo)
    } else {
        DKeyQuery::Range {
            lo,
            hi,
            pattern: prefix.clone(),
        }
    }
}

/// [`query_for`] into caller-owned buffers (cleared first). Returns `true`
/// for a concrete prefix, with the exact key in `lo`; `false` for a
/// wildcarded one, with the scan range in `[lo, hi)` — the caller filters
/// decoded prefixes against `prefix` itself.
pub fn query_into(sym: Sym, prefix: &[PathSym], lo: &mut Vec<u8>, hi: &mut Vec<u8>) -> bool {
    lo.clear();
    hi.clear();
    sym.encode_into(lo);
    let double_slash = prefix.iter().any(|s| matches!(s, PathSym::DoubleSlash));
    if double_slash {
        let min_len = prefix
            .iter()
            .filter(|s| !matches!(s, PathSym::DoubleSlash))
            .count() as u16;
        hi.extend_from_slice(
            &codec::prefix_upper_bound(lo).expect("symbol encoding never ends in all-0xFF"),
        );
        lo.extend_from_slice(&min_len.to_be_bytes());
        return false;
    }
    let len = prefix.len() as u16;
    if prefix.iter().any(|s| matches!(s, PathSym::Star)) {
        // Only '*': fixed length.
        hi.extend_from_slice(lo);
        hi.extend_from_slice(&(len + 1).to_be_bytes());
        lo.extend_from_slice(&len.to_be_bytes());
        return false;
    }
    lo.extend_from_slice(&len.to_be_bytes());
    for s in prefix {
        if let PathSym::Tag(t) = s {
            lo.extend_from_slice(&t.0.to_be_bytes());
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::hash_value;

    fn syms(ids: &[u32]) -> Vec<Symbol> {
        ids.iter().map(|&i| Symbol(i)).collect()
    }

    #[test]
    fn encode_decode_roundtrip() {
        for (sym, prefix) in [
            (Sym::Tag(Symbol(3)), syms(&[])),
            (Sym::Tag(Symbol(0)), syms(&[1, 2, 3])),
            (Sym::Value(hash_value("boston")), syms(&[9, 8])),
        ] {
            let key = encode(sym, &prefix);
            assert_eq!(decode(&key), (sym, prefix));
        }
    }

    #[test]
    fn ordering_symbol_then_length_then_content() {
        // Same symbol: shorter prefixes sort first regardless of content.
        let short_big = encode(Sym::Tag(Symbol(1)), &syms(&[99]));
        let long_small = encode(Sym::Tag(Symbol(1)), &syms(&[0, 0]));
        assert!(short_big < long_small);
        // Same symbol + length: content order.
        let a = encode(Sym::Tag(Symbol(1)), &syms(&[2, 5]));
        let b = encode(Sym::Tag(Symbol(1)), &syms(&[2, 6]));
        assert!(a < b);
        // Different symbols dominate.
        let s1_long = encode(Sym::Tag(Symbol(1)), &syms(&[1, 2, 3, 4]));
        let s2_short = encode(Sym::Tag(Symbol(2)), &syms(&[]));
        assert!(s1_long < s2_short);
    }

    #[test]
    fn exact_query_for_concrete_prefix() {
        let p = Prefix(vec![PathSym::Tag(Symbol(1)), PathSym::Tag(Symbol(2))]);
        match query_for(Sym::Tag(Symbol(7)), &p) {
            DKeyQuery::Exact(k) => {
                assert_eq!(k, encode(Sym::Tag(Symbol(7)), &syms(&[1, 2])));
            }
            other => panic!("expected exact, got {other:?}"),
        }
    }

    #[test]
    fn star_query_covers_exactly_its_length_group() {
        // (L, P*): symbol L, prefix length 2.
        let l = Sym::Tag(Symbol(10));
        let p = Prefix(vec![PathSym::Tag(Symbol(1)), PathSym::Star]);
        let DKeyQuery::Range { lo, hi, pattern } = query_for(l, &p) else {
            panic!("expected range");
        };
        // Keys of length 2 with symbol L are inside.
        for content in [&[1u32, 0][..], &[1, 99], &[5, 5]] {
            let k = encode(l, &syms(content));
            assert!(k.as_slice() >= lo.as_slice() && k.as_slice() < hi.as_slice());
        }
        // Length 1 and 3 are outside.
        assert!(encode(l, &syms(&[1])).as_slice() < lo.as_slice());
        assert!(encode(l, &syms(&[1, 2, 3])).as_slice() >= hi.as_slice());
        // Another symbol is outside.
        assert!(encode(Sym::Tag(Symbol(11)), &syms(&[1, 2])).as_slice() >= hi.as_slice());
        // Filtering distinguishes matching content.
        assert!(pattern.matches(&syms(&[1, 7])));
        assert!(!pattern.matches(&syms(&[2, 7])));
    }

    #[test]
    fn double_slash_query_covers_all_longer_lengths() {
        // (I, P//): min length 1 (just P), any depth below.
        let i = Sym::Tag(Symbol(20));
        let p = Prefix(vec![PathSym::Tag(Symbol(1)), PathSym::DoubleSlash]);
        let DKeyQuery::Range { lo, hi, pattern } = query_for(i, &p) else {
            panic!("expected range");
        };
        for content in [&[1u32][..], &[1, 2], &[1, 2, 3, 4, 5]] {
            let k = encode(i, &syms(content));
            assert!(
                k.as_slice() >= lo.as_slice() && k.as_slice() < hi.as_slice(),
                "{content:?}"
            );
        }
        // Zero-length prefix (root) is below the range: '//' after P requires
        // at least P itself.
        assert!(encode(i, &[]).as_slice() < lo.as_slice());
        // Other symbols excluded.
        assert!(encode(Sym::Tag(Symbol(21)), &syms(&[1])).as_slice() >= hi.as_slice());
        assert!(pattern.matches(&syms(&[1, 9, 9])));
        assert!(!pattern.matches(&syms(&[2])));
    }

    #[test]
    fn value_symbol_keys_work_too() {
        let v = Sym::Value(hash_value("12/15/1999"));
        let p = Prefix(vec![PathSym::Tag(Symbol(1)), PathSym::Star]);
        assert!(matches!(query_for(v, &p), DKeyQuery::Range { .. }));
        let key = encode(v, &syms(&[1, 2]));
        let (sym, pre) = decode(&key);
        assert_eq!(sym, v);
        assert_eq!(pre, syms(&[1, 2]));
    }
}
