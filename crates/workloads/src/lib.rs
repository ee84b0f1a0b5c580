//! Block I/O workloads for the SSD simulator.
//!
//! The paper evaluates on eight cloud block-storage traces (Table II):
//! six AliCloud traces and two Systor traces, selected by read ratio, with
//! cold-read ratios between 0.50 and 0.83. Those trace files are not
//! redistributable, so this crate provides
//!
//! * [`trace`] — the trace data model ([`IoRequest`], [`Trace`]);
//! * [`synth`] — a synthetic generator that reproduces the two
//!   characteristics the evaluation depends on (read ratio and cold-read
//!   ratio) plus Zipfian hot-spot locality and Poisson arrivals;
//! * [`profiles`] — the eight named workloads of Table II as generator
//!   presets;
//! * [`capture`] — the one trace file format: `rif-server` journals
//!   served requests in it, and [`Capture::parse_csv`] +
//!   [`Capture::to_trace`] is how any trace file enters the simulator;
//! * [`stats`] — trace statistics (regenerates Table II from any trace).

#![forbid(unsafe_code)]

pub mod capture;
pub mod profiles;
pub mod stats;
pub mod synth;
pub mod trace;

pub use capture::{Capture, CaptureOutcome, CapturedRequest, ParseCaptureError};
pub use profiles::WorkloadProfile;
pub use stats::TraceStats;
pub use synth::SynthConfig;
pub use trace::{IoOp, IoRequest, Trace};
