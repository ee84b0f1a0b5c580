//! Quasi-cyclic LDPC codes: the ECC substrate of the RiF reproduction.
//!
//! Modern SSDs protect every 4-KiB chunk of user data with a QC-LDPC code
//! decoded by a channel-level engine (paper §II-B). The paper's code is a
//! 4 × 36 block parity-check matrix of 1024 × 1024 circulants — a 36 864-bit
//! codeword carrying 4 KiB of data. This crate implements that code for real:
//!
//! * [`QcMatrix`] / [`QcLdpcCode`] — matrix construction (random data part +
//!   dual-diagonal encodable parity part) and systematic encoding;
//! * [`decoder::MinSumDecoder`] — normalized min-sum decoding with iteration
//!   counts and early termination (backs Fig. 3);
//! * [`syndrome`] — syndrome vectors, syndrome weight, the *pruned* weight
//!   over the first block row (paper §V-A2), and chunk selection;
//! * [`rearrange`] — the codeword rearrangement of §V-B that turns the first
//!   block row into identity circulants so on-die syndrome computation is a
//!   plain XOR-and-popcount across segments;
//! * [`model::EccModel`] — the calibrated behavioural model (decoding-failure
//!   probability, iteration count, tECC) that the event-level SSD simulator
//!   consumes, exactly as the paper's extended MQSim-E does;
//! * [`analysis`] — the one Monte-Carlo page loop (Figs. 3, 10, 11, 14).
//!
//! # Example
//!
//! ```
//! use rif_ldpc::{QcLdpcCode, decoder::MinSumDecoder, channel::Bsc};
//! use rif_events::SimRng;
//!
//! let code = QcLdpcCode::small_test(); // 4 x 36 blocks of 64 x 64 circulants
//! let mut rng = SimRng::seed_from(1);
//! let data = rif_ldpc::bits::BitVec::random(code.data_bits(), &mut rng);
//! let cw = code.encode(&data);
//! assert!(code.check(&cw));
//!
//! let noisy = Bsc::new(0.002).corrupt(&cw, &mut rng);
//! let decoder = MinSumDecoder::new(&code);
//! let out = decoder.decode(&noisy);
//! assert!(out.success);
//! ```

pub mod analysis;
pub mod bits;
pub mod channel;
mod circulant;
pub mod code;
pub mod decoder;
mod lanes;
pub mod matrix;
pub mod model;
pub mod rearrange;
pub mod syndrome;

pub use bits::BitVec;
pub use channel::{Bsc, SoftChannel};
pub use code::{QcLdpcCode, PAPER_CIRCULANT_SIZE, PAPER_CORRECTION_CAPABILITY, PAPER_ROW_WEIGHT};
pub use matrix::QcMatrix;
pub use model::EccModel;
