//! vist-serve: the network front-end for a [`vist_core::VistIndex`].
//!
//! ViST (SIGMOD 2003) is a *dynamic* index — it answers structural
//! queries while documents are inserted underneath. This crate is the
//! layer that makes that dynamism usable over a socket, with the
//! robustness concerns handled deliberately:
//!
//! - [`proto`] — a length-prefixed binary protocol with a hard frame
//!   cap and a total, panic-free decoder;
//! - [`http`] — a minimal HTTP/JSON shim (`/query`, `/metrics`,
//!   `/healthz`) for curl and Prometheus;
//! - [`admission`] — a bounded admission queue over a fixed pool of
//!   query slots: overload is shed with retry hints, never queued
//!   unboundedly;
//! - [`server`] — the accept/drain loop: per-query deadlines capped by
//!   the server, SIGTERM → stop accepting → drain in-flight → flush →
//!   exit 0;
//! - [`signal`] — std-only SIGTERM/SIGINT handling.
//!
//! Everything is std-only: no external dependencies, matching the rest
//! of the workspace.

pub mod admission;
pub mod http;
pub mod proto;
pub mod server;
pub mod signal;

pub use admission::{Admission, Gate};
pub use proto::{ProtoError, Request, Response, Status, MAX_FRAME_BYTES, PROTO_VERSION};
pub use server::{DrainReport, ServeConfig, Server, ServerHandle, StatsSnapshot};
