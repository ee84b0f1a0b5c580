//! 3D TLC NAND flash substrate: geometry, threshold-voltage physics,
//! error-rate models, read-reference-voltage machinery and chip timing.
//!
//! The paper grounds its evaluation in a real-device characterization of
//! 160 3D TLC NAND chips (§III-A); the extended MQSim-E then replays those
//! results through per-block RBER lookup tables (§VI-A). We do not have the
//! chips, so this crate builds the closest synthetic equivalent:
//!
//! * [`geometry`] — channels / dies / planes / blocks / pages and the
//!   page size (Table I: 8 × 4 × 4 × 1888 × 576 × 16 KiB ≈ 2 TiB), and the
//!   LSB/CSB/MSB page kinds;
//! * [`vth`] — an 8-state Gaussian threshold-voltage model with Gray-coded
//!   LSB/CSB/MSB pages, P/E-cycling wear, retention loss and read disturb;
//!   RBER is obtained by integrating distribution overlap at the active
//!   read-reference voltages;
//! * [`rber`] — [`rber::ErrorModel`]: calibrated constants (Fig. 4 anchors)
//!   and log-normal per-block process variation. The simulator evaluates
//!   the V_TH model once per read group rather than interpolating a table;
//!   the MQSim-E-style [`rber::BlockErrorTable`] serves only its look-up
//!   micro-benchmark;
//! * [`vref`] — read-reference voltage sets and numerically optimal V_REF
//!   via distribution-intersection search;
//! * [`swift_read`] — the ones-count V_REF estimation of Swift-Read
//!   (ISSCC'22), which the RVS module of a RiF die reuses (§IV-C);
//! * [`learn`] — online per-block threshold learning from decode feedback
//!   (pass/fail, retry counts, syndrome weight, re-calibration
//!   observations) and the lifetime drift clock for long serving runs;
//! * [`chip`] — every die-time rule: a sense (tR, plus tPRED on a die that
//!   predicts), a copyback, a garbage collection and a page-buffer chunk
//!   readout, shared by the ODEAR engine and the SSD simulator;
//! * [`characterize`] — the synthetic "160-chip campaign" regenerating
//!   Fig. 4 (retention-to-failure distributions) and Fig. 12 (chunk RBER
//!   similarity).

#![forbid(unsafe_code)]

pub mod characterize;
pub mod chip;
pub mod geometry;
pub mod learn;
pub mod mlc;
pub mod rber;
pub mod soft;
pub mod swift_read;
pub mod vref;
pub mod vth;

pub use chip::FlashTiming;
pub use geometry::{FlashGeometry, PageKind};
pub use learn::{DriftClock, LearnerConfig, ReadOutcome, ThresholdLearner};
pub use rber::{BlockProfile, ErrorModel};
pub use vref::ReadVoltages;
pub use vth::OperatingPoint;
pub use vth::TlcModel;
