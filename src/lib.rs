//! # RiF — Retry-in-Flash, reproduced in Rust
//!
//! A from-scratch reproduction of *"RiF: Improving Read Performance of
//! Modern SSDs Using an On-Die Early-Retry Engine"* (HPCA 2024): an
//! on-die early-retry (ODEAR) engine that predicts, **before any data
//! leaves the flash die**, whether a sensed page would fail its off-chip
//! LDPC decode — and if so, re-reads it in place at near-optimal read
//! voltages. The result: uncorrectable pages never waste flash-channel
//! bandwidth or ECC-engine time.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`ldpc`] — the 4-KiB QC-LDPC code, min-sum decoding, syndrome
//!   machinery and the behavioural ECC model;
//! * [`flash`] — the 3D TLC NAND substrate: V_TH physics, RBER models,
//!   V_REF selection, Swift-Read, chip timing and the synthetic
//!   characterization campaign;
//! * [`odear`] — the paper's contribution: the RP predictor, RVS voltage
//!   selector, the die-level engine, and the PPA/energy model;
//! * [`ssd`] — the discrete-event SSD simulator with all seven retry
//!   configurations of the evaluation;
//! * [`workloads`] — the eight Table II workloads as synthetic traces,
//!   plus the capture format any trace file is read in;
//! * [`events`] — the simulation kernel.
//!
//! # Quickstart
//!
//! ```no_run
//! use rif::prelude::*;
//!
//! // Generate the paper's most read-intensive workload...
//! let trace = WorkloadProfile::by_name("Ali124").unwrap().generate(10_000, 1);
//! // ...and run it through a RiF-enabled SSD at 1K P/E cycles.
//! let report = Simulator::new(SsdConfig::paper(RetryKind::Rif, 1000)).run(&trace);
//! println!("RiFSSD: {:.0} MB/s", report.io_bandwidth_mbps());
//! ```

#![forbid(unsafe_code)]

pub use rif_events as events;
pub use rif_flash as flash;
pub use rif_ldpc as ldpc;
pub use rif_odear as odear;
pub use rif_ssd as ssd;
pub use rif_workloads as workloads;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use rif_events::{SimDuration, SimRng, SimTime};
    pub use rif_flash::{
        BlockProfile, ErrorModel, FlashGeometry, FlashTiming, OperatingPoint, PageKind,
        ReadVoltages, TlcModel,
    };
    pub use rif_ldpc::{Bsc, EccModel, QcLdpcCode};
    pub use rif_odear::{
        OdearEngine, PpaModel, ReadRetryPredictor, ReadVoltageSelector, RpBehavior,
    };
    pub use rif_ssd::{RetryKind, SimReport, Simulator, SsdConfig};
    pub use rif_workloads::{SynthConfig, Trace, TraceStats, WorkloadProfile};
}
