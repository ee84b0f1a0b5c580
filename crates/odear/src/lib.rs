//! The ODEAR engine: the paper's primary contribution.
//!
//! A RiF-enabled flash die carries an **On-Die EArly-Retry** engine
//! (paper §IV) with two modules:
//!
//! * [`rp::ReadRetryPredictor`] — after a page is sensed into the page
//!   buffer, RP computes the approximate syndrome weight of one 4-KiB chunk
//!   (chunk-based prediction + syndrome pruning + rearranged codeword
//!   layout, §V) and compares it against the correctability threshold ρs.
//!   Above ρs the page is predicted *uncorrectable by the off-chip LDPC
//!   engine* and is never transferred;
//! * [`rvs::ReadVoltageSelector`] — on a predicted failure, RVS picks
//!   near-optimal read-reference voltages from the sensed data's
//!   ones-count (the Swift-Read mechanism, §IV-C) and the die re-reads the
//!   page before raising the ready flag.
//!
//! [`engine::OdearEngine`] wires the two into the die-level read flow of
//! Fig. 9; [`accuracy`] provides both the Monte-Carlo accuracy measurement
//! (Figs. 11 and 14, paired on one decode per page) and the closed-form
//! probability model the event-level SSD simulator consumes; [`ppa`] reproduces the §VI-C power/area/energy
//! arithmetic.
//!
//! # Example
//!
//! ```
//! use rif_ldpc::QcLdpcCode;
//! use rif_odear::rp::ReadRetryPredictor;
//! use rif_ldpc::bits::BitVec;
//! use rif_events::SimRng;
//!
//! let code = QcLdpcCode::small_test();
//! let rp = ReadRetryPredictor::for_capability(&code, 0.0085);
//! let mut rng = SimRng::seed_from(1);
//! // A clean page predicts "correctable".
//! let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
//! let sensed = code.rearrange(&cw);
//! assert!(!rp.predict(&sensed).retry_needed);
//! ```

#![forbid(unsafe_code)]

pub mod accuracy;
pub mod engine;
pub mod ppa;
pub mod rp;
pub mod rvs;

pub use accuracy::{AccuracyPoint, RpBehavior};
pub use engine::{OdearEngine, OdearReadResult};
pub use ppa::PpaModel;
pub use rp::{Prediction, ReadRetryPredictor};
pub use rvs::ReadVoltageSelector;
