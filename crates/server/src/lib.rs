//! Online storage-service layer over the RiF SSD simulator.
//!
//! The offline crates answer "what does this trace cost?"; this crate
//! answers "what does the simulated device feel like to a live client?".
//! It exposes the incremental stepper API of [`rif_ssd::Simulator`]
//! (`submit` / `advance_until` / `drain_completions`) as a loopback TCP
//! service:
//!
//! - [`protocol`] — the length-prefixed binary wire format: opcodes, the
//!   encoders and the one request decoder, [`protocol::decode_request`];
//! - [`bucket`] — per-tenant token-bucket rate limiting;
//! - [`pacing`] — the virtual-time ↔ wall-clock bridge;
//! - [`poller`] — vendored epoll shim with a portable `poll(2)` fallback;
//! - [`ring`] — framing: the one receive buffer ([`FrameBuffer`]), whose
//!   frames are borrowed slices, and vectored write queues;
//! - [`shard`] — one simulator per LBA range, a plain value the event
//!   loop steps;
//! - [`server`] — start/stop, metrics, and the one admission gate: READ,
//!   WRITE and BATCH are one group path, and REPLICATE puts its own
//!   ownership check ahead of the same room-and-submit tail;
//! - [`event_loop`] — the node's one thread: accept, framing, the one
//!   request dispatch, the stepping of every shard and, in cluster mode,
//!   replication shipping;
//! - [`client`] — the load generator: one readiness-driven connection
//!   engine (transport and request ledger) under the closed loop, replay,
//!   the many-connection grouping and the cluster router, plus
//!   [`Conn::call`](client::Conn::call), the blocking one-at-a-time RPC of
//!   the admin one-shots and the directory;
//! - [`mux`] — the import path of that grouping's entry point;
//! - `recorder` — live trace capture of every admitted request, a
//!   journal the event loop owns and [`Server::capture`] renders;
//! - [`replay`] — driving a captured trace back through a live server;
//! - [`cli`] — the one flag parser of the serving binaries (`rif-server`,
//!   `rif-client`, `rif-cluster`, `rif-chaos`).
//!
//! Everything is plain `std` (threads, sockets, `extern "C"` syscalls):
//! the service layer adds no dependencies beyond the simulator itself.
//!
//! # Example
//!
//! ```no_run
//! use rif_server::client::{run_load, LoadConfig};
//! use rif_server::server::{Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default(), 0).unwrap();
//! let report = run_load(&LoadConfig {
//!     addr: server.local_addr().to_string(),
//!     requests: 1000,
//!     ..LoadConfig::default()
//! })
//! .unwrap();
//! println!("{}", report.to_json());
//! server.stop();
//! ```

#![warn(missing_docs)]

pub mod bucket;
pub mod cli;
pub mod client;
pub mod event_loop;
pub mod mux;
pub mod pacing;
pub mod poller;
pub mod protocol;
pub(crate) mod recorder;
pub mod replay;
pub(crate) mod replicate;
pub mod ring;
pub mod server;
pub mod shard;

pub use client::{
    run_load, run_load_journaled, run_plans, Conn, Journal, LoadConfig, LoadReport, Outcome,
    PlannedIo, ReconnectBackoff, TagRecord,
};
pub use protocol::{
    BatchEntry, FrameBuffer, Request, Response, WireError, MAX_BATCH_ENTRIES, MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};
pub use replay::{run_replay_journaled, ReplayConfig, ReplayDiff};
pub use server::{Server, ServerConfig};
