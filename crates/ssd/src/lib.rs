//! Discrete-event SSD simulator with read-retry schemes — the equivalent
//! of the paper's extended MQSim-E (§III-B1, §VI-A).
//!
//! The simulator models the full read path of the target SSD of Fig. 5 /
//! Table I: host interface (8 GB/s), 8 flash channels (1.2 GB/s each) with
//! one channel-level LDPC engine per channel (finite input buffer), 4 dies
//! per channel with 4 planes each, multi-plane senses, per-page DMA
//! transfers, RBER-dependent ECC decode latency, and per-scheme read-retry
//! behaviour:
//!
//! | Config | Scheme |
//! |--------|--------|
//! | `SSDzero` | hypothetical, no retries (upper bound) |
//! | `SSDone`  | ideal reactive retry, N_RR = 1 |
//! | `SENC`    | Sentinel (MICRO'20): extra sentinel-cell read for CSB/MSB pages |
//! | `SWR`     | Swift-Read (ISSCC'22): 2×tR in-die retry command |
//! | `SWR+`    | SWR plus proactive V_REF tracking |
//! | `RPSSD`   | RP at the controller: early-terminates hopeless decodes |
//! | `RiFSSD`  | the proposed scheme: on-die RP + RVS |
//!
//! What a scheme does differently is one row of the table in [`retry`];
//! the engine asks the row and never names a scheme.
//!
//! ```no_run
//! use rif_ssd::{RetryKind, Simulator, SsdConfig};
//! use rif_workloads::WorkloadProfile;
//!
//! let trace = WorkloadProfile::by_name("Ali124").unwrap().generate(5_000, 1);
//! let report = Simulator::new(SsdConfig::paper(RetryKind::Rif, 1000)).run(&trace);
//! println!("{:.0} MB/s", report.io_bandwidth_mbps());
//! ```
//!
//! Modules: [`config`] (Table I parameters), [`ftl`] (the one
//! slot-granular page mapping: write allocation, greedy GC and an
//! optional SLC cache region), [`hybrid`] (cell modes, RBER amplification
//! and the background-scheduler knobs that region is driven by),
//! [`retention`] (per-slot data ages driving retry frequency), [`retry`]
//! (the schemes, one table row each), [`report`]
//! (bandwidth/latency/channel-usage results), [`simulator`] (the event
//! engine, a module per resource: dies, channels, ECC engines, the host
//! side, plus the read path and the background scheduler), and
//! [`timeline`] (the 256-KiB worked example of Figs. 7/8).

#![forbid(unsafe_code)]

pub mod config;
pub mod ftl;
pub mod hybrid;
pub mod report;
pub mod retention;
pub mod retry;
pub mod simulator;
mod table;
pub mod timeline;
pub mod tracecheck;

pub use config::{LearningMode, SsdConfig};
pub use hybrid::{BgConfig, BgKind, CellMode, HybridConfig};
pub use report::{ChannelUsage, HybridSummary, LearnerSummary, SimReport};
pub use retry::RetryKind;
pub use rif_flash::learn::{DriftClock, LearnerConfig, LearnerState, LearnerStateError};
pub use simulator::{Completion, Simulator};
pub use tracecheck::{TraceChecker, Violation};
