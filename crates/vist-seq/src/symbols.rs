//! Symbol interning and value hashing.

use std::collections::HashMap;
use std::fmt;

/// An interned element/attribute name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

/// A symbol occurring in a structure-encoded sequence.
///
/// Data sequences contain only `Tag` and `Value`; query sequences may also
/// contain the wildcard placeholders (after translation the wildcards live
/// in *prefixes*, but the variants are shared).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sym {
    /// An element or attribute name.
    Tag(Symbol),
    /// A hashed attribute value or text value (`h(text)`, as in the paper).
    Value(u64),
}

impl Sym {
    /// Byte encoding used inside B+Tree keys. `Tag` sorts before `Value`;
    /// within a kind, order follows the id / hash.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(9);
        self.encode_into(&mut v);
        v
    }

    /// Append the [`Sym::encode`] bytes to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Sym::Tag(Symbol(id)) => {
                out.push(0x01);
                out.extend_from_slice(&id.to_be_bytes());
            }
            Sym::Value(h) => {
                out.push(0x02);
                out.extend_from_slice(&h.to_be_bytes());
            }
        }
    }

    /// Decode from the front of `buf`, returning the symbol and the number of
    /// bytes consumed. Panics on bytes no [`Sym::encode`] wrote; a decoder of
    /// stored bytes uses [`Sym::try_decode`].
    #[must_use]
    pub fn decode(buf: &[u8]) -> (Sym, usize) {
        Self::try_decode(buf).expect("corrupt symbol encoding")
    }

    /// [`Sym::decode`], `None` for an unknown tag byte or a short buffer.
    #[must_use]
    pub fn try_decode(buf: &[u8]) -> Option<(Sym, usize)> {
        match *buf.first()? {
            0x01 => Some((
                Sym::Tag(Symbol(u32::from_be_bytes(buf.get(1..5)?.try_into().ok()?))),
                5,
            )),
            0x02 => Some((
                Sym::Value(u64::from_be_bytes(buf.get(1..9)?.try_into().ok()?)),
                9,
            )),
            _ => None,
        }
    }
}

/// Hash a text value into the value-symbol space (the paper's `h()`).
///
/// FNV-1a over the trimmed text. Deterministic across runs and platforms.
/// Collisions map distinct texts to one symbol — a (rare) source of false
/// positives the paper's design accepts; the exact-verification mode in
/// `vist-query` removes them.
#[must_use]
pub fn hash_value(text: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in text.trim().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Bidirectional map between names and [`Symbol`]s.
///
/// One table is shared by an index and every query against it; symbol ids are
/// dense and allocation order is insertion order.
#[derive(Debug, Default, Clone)]
pub struct SymbolTable {
    names: Vec<String>,
    map: HashMap<String, Symbol>,
}

impl SymbolTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Intern `name`, returning its symbol (allocating one if new).
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&s) = self.map.get(name) {
            return s;
        }
        let s = Symbol(u32::try_from(self.names.len()).expect("symbol space exhausted"));
        self.names.push(name.to_string());
        self.map.insert(name.to_string(), s);
        s
    }

    /// Look up an existing symbol without allocating.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.map.get(name).copied()
    }

    /// The name behind a symbol.
    #[must_use]
    pub fn name(&self, sym: Symbol) -> &str {
        &self.names[sym.0 as usize]
    }

    /// Number of interned names.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when no names are interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Anything that can intern a name into a [`Symbol`].
///
/// Document encoding only needs `intern`, so making the conversion generic
/// over this trait lets a batch-ingest worker encode against a
/// [`TableOverlay`] (a read-only snapshot of the shared table plus private
/// scratch ids) instead of holding the shared table's write lock.
pub trait Interner {
    /// Intern `name`, returning its symbol (allocating one if new).
    fn intern(&mut self, name: &str) -> Symbol;
}

impl Interner for SymbolTable {
    fn intern(&mut self, name: &str) -> Symbol {
        SymbolTable::intern(self, name)
    }
}

impl Interner for TableOverlay<'_> {
    fn intern(&mut self, name: &str) -> Symbol {
        TableOverlay::intern(self, name)
    }
}

/// An ephemeral overlay on a borrowed [`SymbolTable`].
///
/// Query translation needs to *intern* names so it can render and compare
/// them, but query-only names must never leak into the shared data table —
/// and cloning the whole table per query is wasteful. The overlay resolves
/// against the base table first and allocates any unknown name an id past
/// the base's range, so overlay symbols can never collide with (or match)
/// a data symbol. Dropped when the query is done.
#[derive(Debug)]
pub struct TableOverlay<'a> {
    base: &'a SymbolTable,
    names: Vec<String>,
    map: HashMap<String, Symbol>,
}

impl<'a> TableOverlay<'a> {
    /// An empty overlay over `base`.
    #[must_use]
    pub fn new(base: &'a SymbolTable) -> Self {
        TableOverlay {
            base,
            names: Vec::new(),
            map: HashMap::new(),
        }
    }

    /// The symbol for `name`: the base table's if present, else an overlay
    /// symbol (allocating one if new).
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(s) = self.base.lookup(name) {
            return s;
        }
        if let Some(&s) = self.map.get(name) {
            return s;
        }
        let id = self.base.len() + self.names.len();
        let s = Symbol(u32::try_from(id).expect("symbol space exhausted"));
        self.names.push(name.to_string());
        self.map.insert(name.to_string(), s);
        s
    }

    /// The name behind a symbol, whether it lives in the base table or the
    /// overlay.
    #[must_use]
    pub fn name(&self, sym: Symbol) -> &str {
        let i = sym.0 as usize;
        if i < self.base.len() {
            self.base.name(sym)
        } else {
            &self.names[i - self.base.len()]
        }
    }

    /// `true` when `sym` was allocated by this overlay (i.e. the name is
    /// unknown to the data).
    #[must_use]
    pub fn is_overlay(&self, sym: Symbol) -> bool {
        (sym.0 as usize) >= self.base.len()
    }

    /// Number of overlay-only names.
    #[must_use]
    pub fn overlay_len(&self) -> usize {
        self.names.len()
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sym::Tag(Symbol(id)) => write!(f, "t{id}"),
            Sym::Value(h) => write!(f, "v{:x}", h & 0xFFFF),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("purchase");
        let b = t.intern("seller");
        assert_ne!(a, b);
        assert_eq!(t.intern("purchase"), a);
        assert_eq!(t.name(a), "purchase");
        assert_eq!(t.lookup("seller"), Some(b));
        assert_eq!(t.lookup("buyer"), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn sym_encode_decode_roundtrip() {
        for sym in [
            Sym::Tag(Symbol(0)),
            Sym::Tag(Symbol(u32::MAX)),
            Sym::Value(0),
            Sym::Value(hash_value("dell")),
        ] {
            let enc = sym.encode();
            let (dec, used) = Sym::decode(&enc);
            assert_eq!(dec, sym);
            assert_eq!(used, enc.len());
            assert_eq!(Sym::try_decode(&enc[..used - 1]), None, "{sym:?} cut short");
        }
        assert_eq!(Sym::try_decode(&[0x03, 0, 0, 0, 0]), None, "unknown tag");
        assert_eq!(Sym::try_decode(&[]), None);
    }

    #[test]
    fn tags_sort_before_values_and_by_id() {
        assert!(Sym::Tag(Symbol(5)).encode() < Sym::Value(0).encode());
        assert!(Sym::Tag(Symbol(1)).encode() < Sym::Tag(Symbol(2)).encode());
        assert!(Sym::Value(10).encode() < Sym::Value(11).encode());
    }

    #[test]
    fn hash_value_trims_and_is_stable() {
        assert_eq!(hash_value("dell"), hash_value("  dell \n"));
        assert_ne!(hash_value("dell"), hash_value("ibm"));
        // Pinned value: the on-disk format depends on this function.
        assert_eq!(hash_value(""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn overlay_resolves_base_first_and_never_mutates_it() {
        let mut base = SymbolTable::new();
        let a = base.intern("a");
        let b = base.intern("b");
        let before = base.len();
        let mut ov = TableOverlay::new(&base);
        assert_eq!(ov.intern("a"), a);
        assert!(!ov.is_overlay(a));
        let q = ov.intern("query_only");
        assert!(ov.is_overlay(q));
        assert_eq!(q.0 as usize, before, "overlay ids start past the base");
        assert_eq!(ov.intern("query_only"), q, "overlay interning idempotent");
        assert_eq!(ov.name(q), "query_only");
        assert_eq!(ov.name(b), "b");
        assert_eq!(ov.overlay_len(), 1);
        assert_eq!(base.len(), before, "base untouched");
        assert_eq!(base.lookup("query_only"), None);
    }
}
