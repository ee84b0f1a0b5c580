//! Discrete-event simulation kernel shared by every crate of the RiF
//! reproduction.
//!
//! The paper evaluates RiF with an extended MQSim-E, a discrete-event SSD
//! simulator. This crate provides the equivalent substrate: a nanosecond
//! [`SimTime`] clock, a deterministic [`EventQueue`], seedable random-number
//! helpers ([`rng`]), and measurement utilities ([`stats`]) such as
//! latency histograms and time-weighted utilization trackers.
//!
//! # Example
//!
//! ```
//! use rif_events::{EventQueue, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::from_us(40), "sense-done");
//! q.schedule(SimTime::from_us(13), "dma-done");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "dma-done");
//! assert_eq!(t, SimTime::from_us(13));
//! ```

#![forbid(unsafe_code)]

pub mod event;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use event::{EventKey, EventQueue};
pub use pool::parallel_trials;
pub use rng::{SimRng, ZipfTable};
pub use stats::{LatencyHistogram, UtilizationTracker};
pub use time::{SimDuration, SimTime};
pub use trace::{JsonlSink, MetricsRegistry, SharedBuf, TraceRecord, TraceSink, Tracer};
