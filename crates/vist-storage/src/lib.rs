//! Paged storage substrate for the ViST index family.
//!
//! The SIGMOD 2003 ViST paper implements its B+Trees on top of the Berkeley
//! DB library. This crate is the from-scratch replacement for that substrate:
//! a page-oriented storage layer with
//!
//! * a [`Pager`] abstraction over fixed-size pages, implemented in memory
//!   ([`MemPager`]), by a file written once and sealed ([`FrameFile`], a
//!   packed segment's) and by a durable file ([`FilePager`], a
//!   [`FrameFile`] plus its log); no page is freed on its own, a
//!   [`Pager::reset`] forgets them all at once,
//! * a [`BufferPool`] that caches pages with CLOCK eviction, pin counting and
//!   dirty-page write-back,
//! * a [`SlottedPage`] layout for variable-length records, used by
//!   `vist-btree` for its node format, and
//! * a crash-safety layer: [`FilePager`] routes every write through a
//!   checksummed write-ahead log, [`Pager::sync`] is an atomic commit
//!   (checkpointed into the data file once the log reaches its size),
//!   [`FilePager::open`] replays committed log records left by a crash, and
//!   every page carries a CRC32C trailer verified on read. A crash at *any*
//!   instruction leaves the store equal to its last completed commit — a
//!   property exercised exhaustively by the [`FaultVfs`] fault-injection
//!   harness (see `docs/DURABILITY.md`).
//!
//! The layer is deliberately small but complete: everything the B+Tree needs
//! (allocation, ordered growth, reset, durable checkpoints, recovery, I/O
//! statistics) is here, and nothing else.
//!
//! # Example
//!
//! ```
//! use vist_storage::{BufferPool, MemPager, PageId};
//!
//! let pool = BufferPool::with_capacity(MemPager::new(4096), 64);
//! let pid = pool.allocate().unwrap();
//! {
//!     let mut page = pool.fetch_mut(pid).unwrap();
//!     page.data_mut()[0..4].copy_from_slice(&42u32.to_le_bytes());
//! }
//! let page = pool.fetch(pid).unwrap();
//! assert_eq!(u32::from_le_bytes(page.data()[0..4].try_into().unwrap()), 42);
//! ```

// The crate's whole unsafe surface: the owned-guard lifetime extension in
// `sync` and the one SSE4.2 intrinsic call in `crc`.
#![deny(unsafe_code)]

mod buffer;
#[allow(unsafe_code)]
mod crc;
mod error;
mod fault;
mod file;
mod mem;
mod pager;
mod slotted;
mod stats;
#[allow(unsafe_code)]
pub mod sync;
#[doc(hidden)]
pub mod testutil;
mod vfs;
mod wal;

pub use buffer::{BufferPool, PageRef, PageRefMut, PoolStats, ShardStats};
pub use crc::{crc32c, Crc32c};
pub use error::{Error, Result};
pub use fault::{is_injected, FaultHandle, FaultMode, FaultVfs};
pub use file::{FilePager, FrameFile, PAGE_TRAILER};
pub use mem::MemPager;
pub use pager::{PageId, Pager, INVALID_PAGE};
pub use slotted::{SlotId, SlottedPage, SlottedPageMut};
pub use stats::IoStats;
pub use vfs::{OpenMode, RealVfs, VFile, Vfs};

/// Register this crate's observability metrics with the global
/// `vist-obs` registry so they appear in expositions even before the
/// code paths that record them have run. Idempotent; called by
/// [`BufferPool::with_capacity`] and the [`FilePager`] constructors.
pub fn register_metrics() {
    let _ = vist_obs::counter!("vist_storage_pool_hit_total");
    let _ = vist_obs::counter!("vist_storage_pool_miss_total");
    let _ = vist_obs::counter!("vist_storage_write_back_total");
    let _ = vist_obs::counter!("vist_storage_wal_append_total");
    let _ = vist_obs::counter!("vist_storage_wal_commit_total");
    let _ = vist_obs::counter!("vist_storage_checkpoint_total");
    let _ = vist_obs::counter!("vist_storage_recovered_pages_total");
    let _ = vist_obs::gauge!("vist_storage_store_bytes");
    let _ = vist_obs::gauge!("vist_storage_wal_bytes");
    let _ = vist_obs::histogram!("vist_storage_page_read_nanos");
    let _ = vist_obs::histogram!("vist_storage_page_write_nanos");
    let _ = vist_obs::histogram!("vist_storage_wal_append_nanos");
    let _ = vist_obs::histogram!("vist_storage_checkpoint_nanos");
    let _ = vist_obs::histogram!("vist_storage_recovery_nanos");
}

/// Default page size, in bytes. The paper uses 2 KiB Berkeley DB pages; we
/// default to 4 KiB (a modern filesystem block) and expose the size as a
/// constructor parameter everywhere so the paper's setting is reproducible
/// (see the `ablation_pagesize` bench).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Smallest page size the slotted layout supports.
pub const MIN_PAGE_SIZE: usize = 128;

/// Largest supported page size (fits slot offsets in `u16`).
pub const MAX_PAGE_SIZE: usize = 1 << 16;
