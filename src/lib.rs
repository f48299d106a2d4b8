//! # ViST — a dynamic index for querying XML data by tree structures
//!
//! A from-scratch Rust reproduction of Wang, Park, Fan & Yu,
//! *"ViST: A Dynamic Index Method for Querying XML Data by Tree
//! Structures"* (SIGMOD 2003), including every substrate the paper builds
//! on and every system it compares against.
//!
//! This crate is the facade: it re-exports the public API of the workspace
//! crates. See the repository `README.md` for an architecture overview and
//! `DESIGN.md` / `EXPERIMENTS.md` for the reproduction details.
//!
//! ## Quick start
//!
//! ```
//! use vist::{IndexOptions, QueryOptions, VistIndex};
//!
//! let mut index = VistIndex::in_memory(IndexOptions::default()).unwrap();
//! index.insert_xml("<book><author>David</author><year>1988</year></book>").unwrap();
//! index.insert_xml("<book><author>Mary</author><year>1999</year></book>").unwrap();
//!
//! let hits = index.query("/book/author[text='David']", &QueryOptions::default()).unwrap();
//! assert_eq!(hits.doc_ids.len(), 1);
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | root | `vist-core` | [`VistIndex`] (ViST, and RIST as its packed segments), [`NaiveIndex`], options, stats |
//! | [`xml`] | `vist-xml` | XML parser, DOM, builder, serializer |
//! | [`seq`] | `vist-seq` | structure-encoded sequences, symbols, scopes |
//! | [`query`] | `vist-query` | query language, translation, exact matcher |
//! | [`baselines`] | `vist-baselines` | Index-Fabric-style and XISS-style indexes |
//! | [`datagen`] | `vist-datagen` | DBLP / XMARK / synthetic generators |
//! | [`storage`] | `vist-storage` | pagers, buffer pool, slotted pages |
//! | [`btree`] | `vist-btree` | the disk B+Tree substrate |
//! | [`obs`] | `vist-obs` | metrics registry, span tracing, request records |
//! | [`serve`] | `vist-serve` | network front-end: binary protocol + HTTP shim, admission control, drain |

pub use vist_core::{
    search_sequences, AllocatorKind, DocId, Error, IndexOptions, IndexStats, NaiveIndex,
    QueryOptions, QueryResult, QueryStats, Result, SearchMode, SearchOutcome, StageTimings,
    StatsModel, VistIndex,
};

/// The `vist` command-line tool's implementation (parse + execute).
pub mod cli;

/// XML toolchain (`vist-xml`).
pub mod xml {
    pub use vist_xml::*;
}

/// Structure-encoded sequences (`vist-seq`).
pub mod seq {
    pub use vist_seq::*;
}

/// Query language and matching (`vist-query`).
pub mod query {
    pub use vist_query::*;
}

/// The paper's comparison systems (`vist-baselines`).
pub mod baselines {
    pub use vist_baselines::*;
}

/// Dataset generators (`vist-datagen`).
pub mod datagen {
    pub use vist_datagen::*;
}

/// Paged storage (`vist-storage`).
pub mod storage {
    pub use vist_storage::*;
}

/// B+Tree substrate (`vist-btree`).
pub mod btree {
    pub use vist_btree::*;
}

/// Zero-dependency observability: metrics registry, span tracing,
/// request records (`vist-obs`). See `docs/OBSERVABILITY.md`.
pub mod obs {
    pub use vist_obs::*;
}

/// Network front-end (`vist-serve`): `vist serve` / `vist traces`,
/// deadlines, admission control, graceful drain. See `docs/SERVING.md`.
pub mod serve {
    pub use vist_serve::*;
}
