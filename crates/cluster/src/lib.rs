//! Multi-node cluster layer over the RiF serving stack.
//!
//! One `rif-server` process simulates one device. This crate scales the
//! service out to several such nodes behind a shared LBA space:
//!
//! - [`map`] — the versioned [`ShardMap`](map::ShardMap): consistent
//!   (rendezvous) hashing of LBA ranges onto nodes, a monotonic epoch,
//!   and a strict canonical text codec;
//! - [`directory`] — the std-only directory service that owns the map,
//!   orchestrates live shard handoffs, and fans STATS out to the fleet;
//! - [`router`] — the cluster-aware closed-loop client, a routing
//!   policy over `rif_server::client`'s connection engine: routes by
//!   offset, chases `WRONG_SHARD(epoch)` with map refreshes, and keeps
//!   the single-node client's contract because it is the same ledger;
//! - [`stats`] — parsing and merging per-node STATS texts into one
//!   cluster report (counters add, gauges max, histograms merge);
//! - [`cli`] — the `--flag value` command line of the `rif-cluster` and
//!   `rif-chaos` binaries.
//!
//! The wire protocol is `rif-server`'s, cluster messages included:
//! nodes learn their ownership via `MAP_PUSH`, refuse foreign ranges
//! with `WRONG_SHARD(epoch)`, seal mid-handoff ranges with
//! `BUSY(moving)`, and hand their ThresholdLearner snapshot over `MIGRATE_OUT` /
//! `MIGRATE_IN` so read-threshold learning survives the move.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod directory;
pub mod map;
pub mod router;
pub mod stats;

pub use directory::{load_map, Directory, MapLoadError};
pub use map::{NodeInfo, ShardMap, ShardMapError};
pub use router::{run_routed, RouterConfig};
pub use stats::{cluster_report, NodeStats};
