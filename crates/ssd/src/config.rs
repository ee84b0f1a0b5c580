//! Simulated-SSD configuration (Table I).

use rif_events::SimDuration;
use rif_flash::chip::FlashTiming;
use rif_flash::geometry::FlashGeometry;
use rif_flash::learn::{DriftClock, LearnerConfig};
use rif_ldpc::EccModel;
use rif_odear::RpBehavior;

use crate::hybrid::HybridConfig;
use crate::retry::RetryKind;

/// How the simulated controller obtains per-block read thresholds.
#[derive(Debug, Clone)]
pub enum LearningMode {
    /// Device-characterization tables (§VI-A): every read starts from the
    /// exact per-block RBER the extended MQSim-E would look up. This is
    /// the pre-learning behaviour and stays byte-identical to it.
    Oracle,
    /// Online per-block threshold learning: initial reads use the
    /// [`rif_flash::ThresholdLearner`]'s V_REF estimates and every decode
    /// outcome (plus ones-count re-calibrations on retries) feeds back
    /// into them. The oracle tables remain available for A/B comparison
    /// as the ground truth the learner is scored against.
    Learned(LearnerConfig),
}

impl LearningMode {
    /// The learner configuration, when learning is enabled.
    pub fn learner_config(&self) -> Option<&LearnerConfig> {
        match self {
            LearningMode::Oracle => None,
            LearningMode::Learned(cfg) => Some(cfg),
        }
    }
}

/// Full configuration of a simulated SSD run.
///
/// # Example
///
/// ```
/// use rif_ssd::{SsdConfig, RetryKind};
///
/// let cfg = SsdConfig::paper(RetryKind::Rif, 1000);
/// assert_eq!(cfg.geometry.channels, 8);
/// assert_eq!(cfg.pe_cycles, 1000);
/// assert_eq!(cfg.host_bw_bytes_per_sec, 8_000_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct SsdConfig {
    /// Flash array geometry (Table I).
    pub geometry: FlashGeometry,
    /// Flash and channel timing (Table I).
    pub timing: FlashTiming,
    /// Host interface bandwidth (PCIe 4.0 ×4: 8 GB/s).
    pub host_bw_bytes_per_sec: u64,
    /// The read-retry scheme under test.
    pub retry: RetryKind,
    /// P/E-cycle count of every block (the experiment's wear stage).
    pub pe_cycles: u32,
    /// Behavioural ECC model (failure probability, tECC).
    pub ecc: EccModel,
    /// RP behaviour model (for `RPSSD` / `RiFSSD`).
    pub rp: RpBehavior,
    /// Channel-level ECC engine input buffer, in 16-KiB pages. When full,
    /// the channel cannot start further read transfers (the ECCWAIT
    /// mechanism of §III-B3).
    pub ecc_buffer_pages: usize,
    /// Maximum host requests in flight (NVMe queue depth).
    pub queue_depth: usize,
    /// The refresh interval (§IV-B footnote 3: blocks refreshed monthly).
    /// Never-written data carries a uniform random age in
    /// `[0, refresh_days)`, the steady state a working refresh keeps; on
    /// a hybrid device the background scan rewrites a slot once its age
    /// reaches it.
    pub refresh_days: f64,
    /// RNG seed for all stochastic draws of the run.
    pub seed: u64,
    /// Threshold source: oracle characterization tables (default, the
    /// paper's configuration) or online per-block learning.
    pub learning: LearningMode,
    /// Lifetime drift clock: advances retention age and P/E wear with
    /// simulated time during long runs. Disabled by default, in which
    /// case it contributes exactly nothing to any operating point.
    pub drift: DriftClock,
    /// Program/erase suspend-resume: when enabled, an arriving read
    /// preempts an in-flight program or erase on its die (the remainder
    /// resumes afterwards plus a fixed 20-µs resume overhead). An
    /// enterprise-SSD latency feature of MQSim-class simulators; off by
    /// default to match the paper's configuration.
    pub read_suspend: bool,
    /// Test hook: when set, decode failures are not sampled — the first
    /// decode of slot `s` fails iff `s` is in this list, and retried reads
    /// always succeed. Used by the Fig. 7/8 timeline and unit tests.
    pub forced_failure_slots: Option<Vec<u64>>,
    /// Hybrid SLC/QLC subsystem (DESIGN §14): cell-mode regions, SLC→QLC
    /// migration, and background GC/refresh traffic. `None` (the default)
    /// is the pure-TLC device: the same FTL with no cache region, no
    /// RBER amplification and no background scheduler.
    pub hybrid: Option<HybridConfig>,
}

impl SsdConfig {
    /// The Table I configuration for the given scheme and wear stage.
    pub fn paper(retry: RetryKind, pe_cycles: u32) -> Self {
        SsdConfig {
            geometry: FlashGeometry::paper(),
            timing: FlashTiming::paper(),
            host_bw_bytes_per_sec: 8_000_000_000,
            retry,
            pe_cycles,
            ecc: EccModel::paper_default(),
            rp: RpBehavior::paper_default(),
            ecc_buffer_pages: 2,
            queue_depth: 64,
            refresh_days: 30.0,
            seed: 0x5EED,
            learning: LearningMode::Oracle,
            drift: DriftClock::disabled(),
            read_suspend: false,
            forced_failure_slots: None,
            hybrid: None,
        }
    }

    /// A scaled-down configuration for fast unit tests (same topology,
    /// fewer blocks).
    pub fn small(retry: RetryKind, pe_cycles: u32) -> Self {
        SsdConfig {
            geometry: FlashGeometry::small(),
            ..Self::paper(retry, pe_cycles)
        }
    }

    /// Host-link transfer time for `bytes`.
    pub fn host_transfer(&self, bytes: u64) -> SimDuration {
        SimDuration::from_transfer(bytes, self.host_bw_bytes_per_sec)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics when the configuration cannot drive a simulation (zero
    /// queue depth, zero ECC buffer, or a host link slower than a single
    /// channel would make the channel model meaningless) or a drift rate
    /// is negative or not finite.
    pub fn validate(&self) {
        assert!(self.queue_depth > 0, "queue depth must be positive");
        assert!(
            self.ecc_buffer_pages > 0,
            "ECC buffer must hold at least one page"
        );
        assert!(self.refresh_days > 0.0, "refresh horizon must be positive");
        assert!(
            self.host_bw_bytes_per_sec > 0,
            "host bandwidth must be positive"
        );
        assert!(
            self.drift.days_per_sec.is_finite() && self.drift.days_per_sec >= 0.0,
            "days_per_sec must be finite and non-negative"
        );
        assert!(
            self.drift.pe_per_sec.is_finite() && self.drift.pe_per_sec >= 0.0,
            "pe_per_sec must be finite and non-negative"
        );
        if let Some(h) = &self.hybrid {
            h.validate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table1() {
        let c = SsdConfig::paper(RetryKind::Zero, 0);
        assert_eq!(c.geometry.dies_per_channel, 4);
        assert_eq!(c.geometry.planes_per_die, 4);
        assert_eq!(c.geometry.blocks_per_plane, 1888);
        assert_eq!(c.geometry.pages_per_block, 576);
        assert_eq!(c.timing.t_r.as_us(), 40.0);
        assert_eq!(c.timing.t_dma_page.as_us(), 13.0);
        assert!((c.ecc.correction_capability() - 0.0085).abs() < 1e-9);
        c.validate();
    }

    #[test]
    fn host_transfer_scales() {
        let c = SsdConfig::paper(RetryKind::Zero, 0);
        let t64k = c.host_transfer(64 * 1024);
        // 64 KiB at 8 GB/s = 8.192 µs.
        assert!((t64k.as_us() - 8.192).abs() < 0.01, "{}", t64k.as_us());
    }

    #[test]
    #[should_panic(expected = "queue depth")]
    fn validate_rejects_zero_qd() {
        let mut c = SsdConfig::small(RetryKind::Zero, 0);
        c.queue_depth = 0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "refresh horizon must be positive")]
    fn validate_rejects_a_zero_refresh_interval() {
        let mut c = SsdConfig::small(RetryKind::Rif, 1000);
        c.refresh_days = 0.0;
        c.validate();
    }

    #[test]
    fn default_learning_is_oracle_with_drift_off() {
        let c = SsdConfig::paper(RetryKind::Rif, 1000);
        assert!(c.learning.learner_config().is_none());
        assert!(!c.drift.enabled());
        c.validate();
    }

    #[test]
    fn learned_mode_validates_its_config() {
        let mut c = SsdConfig::small(RetryKind::Rif, 2000);
        c.learning = LearningMode::Learned(LearnerConfig::default_paper());
        c.drift = DriftClock {
            days_per_sec: 100.0,
            pe_per_sec: 5.0,
        };
        assert!(c.learning.learner_config().is_some());
        c.validate();
    }

    #[test]
    #[should_panic]
    fn validate_rejects_negative_drift() {
        let mut c = SsdConfig::small(RetryKind::Zero, 0);
        c.drift = DriftClock {
            days_per_sec: -1.0,
            pe_per_sec: 0.0,
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "days_per_sec")]
    fn validate_rejects_nan_drift() {
        let mut c = SsdConfig::small(RetryKind::Zero, 0);
        c.drift = DriftClock {
            days_per_sec: f64::NAN,
            pe_per_sec: 0.0,
        };
        c.validate();
    }
}
