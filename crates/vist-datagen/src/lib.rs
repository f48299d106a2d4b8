//! Dataset generators for the ViST reproduction.
//!
//! The paper evaluates on DBLP (289,627 bibliographic records, depth ≤ 6,
//! average sequence length ≈ 31), on XMARK (one huge record, broken into
//! item / person / open_auction / closed_auction sub-structures), and on a
//! synthetic workload ("a tree of height k where each node has j sub nodes;
//! we generate a subtree of L nodes"). The original datasets and the
//! `xmlgen` binary are not available offline, so this crate generates
//! structurally equivalent substitutes:
//!
//! * [`dblp`] — bibliographic records matching DBLP's element vocabulary,
//!   record shapes, depth, and average sequence length; selective sentinel
//!   values (author `David`, key `books/bc/MaierW88`) are planted so the
//!   paper's Table 3 queries run *verbatim*;
//! * [`xmark`] — the four XMARK sub-structures with the attribute/element
//!   shapes that queries Q6–Q8 touch (`item/@location`, `mail/date`,
//!   `person//city`, `closed_auction` annotations), including the paper's
//!   literal values (`US`, `12/15/1999`, `Pocatello`, `person1`);
//! * [`imdb`] — IMDB-like movie records (the paper's other archetype of a
//!   homogeneous record database);
//! * [`treebank`] — deep recursive parse-tree records (the classic `//`
//!   stress workload, used by the depth ablation);
//! * [`synthetic`] — the §4 generator, verbatim: random connected
//!   L-node subtrees of a conceptual height-k, fan-out-j tree, with random
//!   query generation "in the same way".
//!
//! All generators are fully deterministic given a seed.

pub mod dblp;
pub mod imdb;
pub mod rng;
pub mod synthetic;
pub mod treebank;
mod words;
pub mod xmark;
