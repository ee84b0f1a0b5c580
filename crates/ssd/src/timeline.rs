//! The 256-KiB worked example of Figs. 7 and 8(c).
//!
//! The paper's root-cause analysis walks one 256-KiB sequential host read
//! through a 2-die flash channel: four 64-KiB multi-plane commands A–D,
//! where A and B require read-retry. SSDzero finishes in 252 µs, SSDone in
//! 418 µs (the two failed commands waste transfers and long decodes), and
//! a RiF-enabled die in 292 µs (the retries never leave the dies).
//!
//! [`example_256k`] reproduces the scenario through the real simulator:
//! one channel, two dies, forced failures on commands A and B.

use rif_events::SimDuration;
use rif_flash::geometry::FlashGeometry;
use rif_workloads::{IoOp, IoRequest, Trace};

use crate::config::SsdConfig;
use crate::report::SimReport;
use crate::retry::RetryKind;
use crate::simulator::Simulator;

/// Result of the worked example for one scheme.
#[derive(Debug, Clone)]
pub struct TimelineResult {
    /// The scheme simulated.
    pub scheme: RetryKind,
    /// Time from issue until the last page is decoded and delivered to
    /// the controller (excluding the host-link hop, as the paper draws).
    pub total: SimDuration,
    /// The full report for further inspection.
    pub report: SimReport,
}

/// The Fig. 7/8 scenario itself: configuration and host trace, for
/// callers that want to attach their own tracer or metrics to the run.
///
/// The geometry is the figure's: one channel with two 4-plane dies. The
/// 256-KiB read becomes commands A–D (two per die); slots 0 and 1 (A and
/// B) are forced to require a retry.
pub fn example_256k_setup(scheme: RetryKind) -> (SsdConfig, Trace) {
    let mut cfg = SsdConfig::paper(scheme, 0);
    cfg.geometry = FlashGeometry {
        channels: 1,
        dies_per_channel: 2,
        blocks_per_plane: 64,
        pages_per_block: 64,
        ..FlashGeometry::paper()
    };
    // The figure tracks the flash channel only; make the host hop
    // negligible so `makespan` ends at the last decode.
    cfg.host_bw_bytes_per_sec = u64::MAX / 2;
    // The figure's ECC holds a full multi-plane command while the next
    // one streams in.
    cfg.ecc_buffer_pages = 8;
    cfg.forced_failure_slots = Some(vec![0, 1]);
    cfg.queue_depth = 1;
    let trace = Trace::new(vec![IoRequest {
        arrival: rif_events::SimTime::ZERO,
        op: IoOp::Read,
        offset: 0,
        bytes: 256 * 1024,
    }]);
    (cfg, trace)
}

/// Runs the Fig. 7/8 scenario for `scheme` and returns its completion
/// time (see [`example_256k_setup`]).
pub fn example_256k(scheme: RetryKind) -> TimelineResult {
    let (cfg, trace) = example_256k_setup(scheme);
    let report = Simulator::new(cfg).run(&trace);
    TimelineResult {
        scheme,
        total: report.makespan,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssdzero_completes_in_about_252us() {
        let r = example_256k(RetryKind::Zero);
        let us = r.total.as_us();
        // Paper: 252 µs (sense 40 + 16 page transfers x 13.25 + tail ECC).
        assert!((240.0..275.0).contains(&us), "SSDzero took {us}");
    }

    #[test]
    fn ssdone_pays_the_reactive_retry_penalty() {
        let zero = example_256k(RetryKind::Zero).total.as_us();
        let one = example_256k(RetryKind::IdealOne).total.as_us();
        // Paper: 418 µs vs 252 µs (+166). Accept the same +40–80 % band.
        assert!(one > zero * 1.4, "SSDone {one} vs SSDzero {zero}");
        assert!(one < zero * 1.9, "SSDone {one} suspiciously slow");
    }

    #[test]
    fn rif_lands_between_zero_and_one() {
        let zero = example_256k(RetryKind::Zero).total.as_us();
        let one = example_256k(RetryKind::IdealOne).total.as_us();
        let rif = example_256k(RetryKind::Rif).total.as_us();
        // Paper: 292 µs — two in-die retries cost one extra tR each plus
        // the prediction latency, far less than SSDone's wasted rounds.
        assert!(
            rif > zero,
            "RiF {rif} cannot beat the no-retry bound {zero}"
        );
        assert!(rif < one * 0.85, "RiF {rif} vs SSDone {one}");
        assert!((275.0..330.0).contains(&rif), "RiF took {rif}");
    }

    #[test]
    fn rif_example_has_no_wasted_transfers() {
        let r = example_256k(RetryKind::Rif);
        assert_eq!(r.report.uncor_page_transfers, 0);
        assert_eq!(r.report.in_die_retries, 2); // A and B
        assert_eq!(r.report.decode_failures, 0);
    }

    #[test]
    fn ssdone_example_wastes_eight_transfers() {
        let r = example_256k(RetryKind::IdealOne);
        // A and B: 4 pages each transferred uncorrectable.
        assert_eq!(r.report.uncor_page_transfers, 8);
        assert_eq!(r.report.decode_failures, 8);
    }
}
