//! Die timing (Table I): every die time — a sense, a copyback, a garbage
//! collection, a page-buffer readout — is computed here.

use rif_events::SimDuration;

use crate::geometry::FlashGeometry;

/// The timing parameters of the simulated NAND flash chips and channel
/// (Table I plus §V's page-buffer readout figure), and the rules that
/// turn them into die times.
///
/// # Example
///
/// ```
/// use rif_flash::FlashTiming;
///
/// let t = FlashTiming::paper();
/// assert_eq!(t.t_r.as_us(), 40.0);
/// assert_eq!(t.t_dma_page.as_us(), 13.0);
/// assert_eq!(t.t_pred.as_us(), 2.5);
/// // A RiF read that retries in the die: two senses plus tPRED.
/// assert_eq!(t.sense(2, true).as_us(), 82.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashTiming {
    /// Page sense latency tR.
    pub t_r: SimDuration,
    /// Page program latency tPROG.
    pub t_prog: SimDuration,
    /// Block erase latency tBERS.
    pub t_bers: SimDuration,
    /// Channel transfer time for one 16-KiB page (tDMA).
    pub t_dma_page: SimDuration,
    /// RP-module prediction latency tPRED (4-KiB chunk, §V).
    pub t_pred: SimDuration,
    /// Page-buffer readout time for a full page (§V: 10 µs), from which
    /// [`FlashTiming::chunk_readout`] derives tPRED.
    pub t_buffer_readout_page: SimDuration,
}

impl FlashTiming {
    /// Table I values: tR = 40 µs, tPROG = 400 µs, tBERS = 3.5 ms,
    /// tDMA = 13 µs; tPRED is the readout of a 4-KiB chunk, 2.5 µs.
    pub fn paper() -> Self {
        let mut t = FlashTiming {
            t_r: SimDuration::from_us(40),
            t_prog: SimDuration::from_us(400),
            t_bers: SimDuration::from_us(3500),
            t_dma_page: SimDuration::from_us(13),
            t_pred: SimDuration::ZERO,
            t_buffer_readout_page: SimDuration::from_us(10),
        };
        t.t_pred = t.chunk_readout(4 * 1024 * 8);
        t
    }

    /// Die time of one sense command of `senses` page senses; a die that
    /// carries the RP module (`on_die_rp`) adds tPRED before raising its
    /// ready flag.
    pub fn sense(&self, senses: u64, on_die_rp: bool) -> SimDuration {
        self.t_r * senses + self.t_pred * u64::from(on_die_rp)
    }

    /// Die time of one copyback: a page sense and a program.
    pub fn copyback(&self) -> SimDuration {
        self.t_r + self.t_prog
    }

    /// Die time of a garbage collection: one copyback per relocated page
    /// plus the block erase.
    pub fn gc(&self, relocated: u64) -> SimDuration {
        self.copyback() * relocated + self.t_bers
    }

    /// Page-buffer readout time of a `chunk_bits` chunk: the RP pipeline
    /// is fetch-bound (§V), so this is also its prediction latency.
    pub fn chunk_readout(&self, chunk_bits: usize) -> SimDuration {
        let page_bits = FlashGeometry::paper().page_bytes as u64 * 8;
        SimDuration::from_ns(self.t_buffer_readout_page.as_ns() * chunk_bits as u64 / page_bits)
    }
}

impl Default for FlashTiming {
    fn default() -> Self {
        FlashTiming::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_timing_values() {
        let t = FlashTiming::paper();
        assert_eq!(t.t_prog.as_us(), 400.0);
        assert_eq!(t.t_bers.as_us(), 3500.0);
        assert_eq!(t.t_buffer_readout_page.as_us(), 10.0);
    }

    #[test]
    fn tpred_is_quarter_page_readout() {
        // §V: reading a 16-KiB page from the page buffer takes 10 µs, so a
        // 4-KiB chunk takes 2.5 µs — the pipeline is fetch-bound.
        let t = FlashTiming::paper();
        assert_eq!(t.t_pred.as_ns() * 4, t.t_buffer_readout_page.as_ns());
    }

    #[test]
    fn command_occupancies_ordered() {
        let t = FlashTiming::paper();
        let read = t.sense(1, false);
        let rif_ok = t.sense(1, true);
        let rif_retry = t.sense(2, true);
        let swift = t.sense(2, false);
        assert!(read < rif_ok);
        assert!(rif_ok < rif_retry);
        assert_eq!(swift.as_us(), 80.0);
        assert_eq!(rif_retry.as_us(), 82.5);
        assert_eq!(t.gc(0).as_us(), 3500.0);
    }

    #[test]
    fn die_times_follow_table1() {
        let t = FlashTiming::paper();
        // One and two senses, without and with the on-die predictor.
        assert_eq!(t.sense(1, false).as_ns(), 40_000);
        assert_eq!(t.sense(2, false).as_ns(), 80_000);
        assert_eq!(t.sense(1, true).as_ns(), 42_500);
        assert_eq!(t.sense(2, true).as_ns(), 82_500);
        assert_eq!(t.copyback().as_ns(), 440_000);
        assert_eq!(t.gc(0).as_ns(), 3_500_000);
        assert_eq!(t.gc(3).as_ns(), 4_820_000);
        // §V: a 16-KiB page leaves the page buffer in 10 µs, so a chunk
        // takes its share of that.
        for (kib, ns) in [(1, 625), (2, 1_250), (4, 2_500), (16, 10_000)] {
            assert_eq!(t.chunk_readout(kib * 1024 * 8).as_ns(), ns, "{kib} KiB");
        }
        assert_eq!(t.t_pred, t.chunk_readout(4 * 1024 * 8));
    }
}
