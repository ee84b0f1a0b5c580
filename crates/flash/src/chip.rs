//! Flash chip command set and timing model (Table I).

use rif_events::SimDuration;

/// The timing parameters of the simulated NAND flash chips and channel
/// (Table I plus §V's page-buffer readout figure).
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
    /// Page-buffer readout time for a full 16-KiB page (§V: 10 µs), from
    /// which tPRED's 2.5 µs for a 4-KiB chunk is derived.
    pub t_buffer_readout_page: SimDuration,
}

impl FlashTiming {
    /// Table I values: tR = 40 µs, tPROG = 400 µs, tBERS = 3.5 ms,
    /// tDMA = 13 µs, tPRED = 2.5 µs.
    pub fn paper() -> Self {
        FlashTiming {
            t_r: SimDuration::from_us(40),
            t_prog: SimDuration::from_us(400),
            t_bers: SimDuration::from_us(3500),
            t_dma_page: SimDuration::from_us(13),
            t_pred: SimDuration::from_us_f64(2.5),
            t_buffer_readout_page: SimDuration::from_us(10),
        }
    }
}

impl Default for FlashTiming {
    fn default() -> Self {
        FlashTiming::paper()
    }
}

/// Commands a flash die accepts, with their die-busy occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlashCommand {
    /// Sense one page (or all planes of a die for a multi-plane read — the
    /// planes operate simultaneously, so occupancy is a single tR).
    ReadPage,
    /// The Swift-Read retry command: two senses inside the die
    /// (§III-B: "two reads to the target page").
    SwiftReadRetry,
    /// A RiF read that the RP module predicts correctable:
    /// sense + on-die prediction.
    RifReadPredicted,
    /// A RiF read that triggers an in-die retry:
    /// sense + prediction + re-sense at the RVS-selected references.
    RifReadRetried,
    /// Program one page (all planes for multi-plane program).
    Program,
    /// Erase one block.
    Erase,
}

impl FlashCommand {
    /// How long the die is busy executing this command.
    pub fn die_occupancy(self, t: &FlashTiming) -> SimDuration {
        match self {
            FlashCommand::ReadPage => t.t_r,
            FlashCommand::SwiftReadRetry => t.t_r * 2,
            FlashCommand::RifReadPredicted => t.t_r + t.t_pred,
            FlashCommand::RifReadRetried => t.t_r + t.t_pred + t.t_r,
            FlashCommand::Program => t.t_prog,
            FlashCommand::Erase => t.t_bers,
        }
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
        let read = FlashCommand::ReadPage.die_occupancy(&t);
        let rif_ok = FlashCommand::RifReadPredicted.die_occupancy(&t);
        let rif_retry = FlashCommand::RifReadRetried.die_occupancy(&t);
        let swift = FlashCommand::SwiftReadRetry.die_occupancy(&t);
        assert!(read < rif_ok);
        assert!(rif_ok < rif_retry);
        assert_eq!(swift.as_us(), 80.0);
        assert_eq!(rif_retry.as_us(), 82.5);
        assert_eq!(FlashCommand::Erase.die_occupancy(&t).as_us(), 3500.0);
    }
}
