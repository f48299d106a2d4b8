//! Disk-based B+Tree with variable-length byte-string keys and values.
//!
//! The ViST paper implements its three index trees (D-Ancestor, S-Ancestor,
//! DocId) "using the B+ Tree API provided by the Berkeley DB library". This
//! crate is the from-scratch replacement: a paged B+Tree over
//! [`vist_storage::BufferPool`] with
//!
//! * variable-length keys and values in slotted pages,
//! * ordered range scans through a singly-linked leaf chain,
//! * insert-or-replace and exact lookup; no record is removed on its own —
//!   [`BTree::clear`] swaps in an empty root; no page is ever freed (the
//!   tiered index resets its delta's whole pager after each compaction),
//! * many trees sharing one pager/pool, as ViST needs ("the combined
//!   D-Ancestor and S-Ancestor B+ Trees" plus the DocId tree live in one
//!   store), and
//! * order-preserving key codecs ([`codec`]) so composite integer keys
//!   compare correctly as raw bytes.
//!
//! Keys are compared lexicographically as byte strings; encode multi-field
//! keys with [`codec::KeyWriter`].
//!
//! Two tree types share the read code: [`BTree`] can change and descends
//! page by page; [`PackedTree`], a tree of an immutable packed segment, has
//! no mutating method and descends through an in-memory array instead.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use vist_storage::{BufferPool, MemPager};
//! use vist_btree::BTree;
//!
//! let pool = Arc::new(BufferPool::with_capacity(MemPager::new(4096), 64));
//! let mut tree = BTree::create(Arc::clone(&pool)).unwrap();
//! tree.insert(b"purchase", b"1").unwrap();
//! tree.insert(b"seller", b"2").unwrap();
//! assert_eq!(tree.get(b"seller").unwrap().as_deref(), Some(&b"2"[..]));
//! let all: Vec<_> = tree.scan(..).unwrap().collect::<Result<_, _>>().unwrap();
//! assert_eq!(all.len(), 2);
//! ```

#![forbid(unsafe_code)]

mod bulk;
pub mod codec;
mod cursor;
mod fence;
mod leaf;
mod node;
mod segment;
mod stats;
mod tree;
#[doc(hidden)]
pub mod verify;

pub use cursor::Scan;
pub use segment::{SegmentReader, SegmentWriter};
pub use stats::TreeStats;
pub use tree::{BTree, PackedTree};
pub use vist_storage::{Error, Result};

/// Register this crate's observability metrics with the global
/// `vist-obs` registry so they appear in expositions even before the
/// code paths that record them have run. Idempotent; called by
/// [`BTree::create`] and [`BTree::open`].
pub fn register_metrics() {
    let _ = vist_obs::counter!("vist_btree_get_total");
    let _ = vist_obs::counter!("vist_btree_insert_total");
    let _ = vist_obs::counter!("vist_btree_leaf_chase_total");
    let _ = vist_obs::gauge!("vist_btree_depth");
    let _ = vist_obs::histogram!("vist_btree_probe_depth");
    let _ = vist_obs::histogram!("vist_btree_scan_len");
}
