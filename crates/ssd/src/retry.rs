//! The evaluated read-retry schemes (§III-B, §VI-A).
//!
//! What a scheme does differently from the others is one row of
//! `ROWS`; the simulator engine asks the row *whether* and *how long*
//! and never names a scheme.

use std::fmt;

use rif_events::SimDuration;
use rif_flash::chip::FlashTiming;
use rif_flash::geometry::PageKind;

/// Which read-retry solution the simulated SSD employs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetryKind {
    /// `SSDzero`: a hypothetical SSD whose ECC always succeeds — the
    /// performance upper bound.
    Zero,
    /// `SSDone`: an idealized reactive solution with N_RR = 1 — one failed
    /// decode, then a perfect re-read.
    IdealOne,
    /// `SENC` (Sentinel, MICRO'20): reactive; reading the sentinel cells
    /// of a failed CSB/MSB page requires an extra off-chip read before the
    /// corrective re-read.
    Sentinel,
    /// `SWR` (Swift-Read, ISSCC'22): reactive; the retry is a single flash
    /// command doing two senses in-die, then one transfer.
    SwiftRead,
    /// `SWR+`: SWR with proactive V_REF tracking that cancels part of the
    /// drift, lowering the initial failure probability.
    SwiftReadPlus,
    /// `RPSSD`: the RP predictor placed in the *controller* — failed pages
    /// still cross the channel, but their hopeless 20-µs decodes are cut
    /// short by a 2.5-µs syndrome check.
    RpSsd,
    /// `RiFSSD`: the proposed scheme — on-die RP + RVS; uncorrectable
    /// senses never leave the die.
    Rif,
}

/// Where a scheme's read-retry predictor (RP) sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Predictor {
    None,
    /// In the controller: failed pages still cross the channel, but a
    /// tPRED syndrome check cuts their hopeless decode short.
    Controller,
    /// In the die (ODEAR): every sense pays tPRED, and a predicted
    /// failure is re-sensed before anything is transferred.
    OnDie,
}

/// Everything the engine needs to know about one scheme.
struct Row {
    label: &'static str,
    /// Share of the excess RBER (in log space) that proactive V_REF
    /// tracking cancels before the first read; 0 reads at the defaults.
    tracking: f64,
    predictor: Predictor,
    /// A failed non-LSB page needs its sentinel cells read out over the
    /// channel before the corrective re-read.
    sentinel: bool,
    /// Senses one corrective-read command performs in the die.
    retry_senses: u64,
    /// The hypothetical device whose decodes always succeed.
    never_fails: bool,
}

/// One row per scheme, in declaration order (`kind as usize` indexes it).
///
/// `SWR+` tracks V_REF per block, but tracking is periodic and
/// block-granular, so it lags the actual drift of any individual page:
/// it cancels only a modest share of the excess RBER (weight 0.15),
/// leaving most stale cold pages still in need of a retry — consistent
/// with Fig. 17, where SWR+ improves on SWR by far less than RiF does.
#[rustfmt::skip]
const ROWS: [Row; RetryKind::ALL.len()] = [
    Row { label: "SSDzero", tracking: 0.0,  predictor: Predictor::None,       sentinel: false, retry_senses: 1, never_fails: true  },
    Row { label: "SSDone",  tracking: 0.0,  predictor: Predictor::None,       sentinel: false, retry_senses: 1, never_fails: false },
    Row { label: "SENC",    tracking: 0.0,  predictor: Predictor::None,       sentinel: true,  retry_senses: 1, never_fails: false },
    Row { label: "SWR",     tracking: 0.0,  predictor: Predictor::None,       sentinel: false, retry_senses: 2, never_fails: false },
    Row { label: "SWR+",    tracking: 0.15, predictor: Predictor::None,       sentinel: false, retry_senses: 2, never_fails: false },
    Row { label: "RPSSD",   tracking: 0.0,  predictor: Predictor::Controller, sentinel: false, retry_senses: 1, never_fails: false },
    Row { label: "RiFSSD",  tracking: 0.0,  predictor: Predictor::OnDie,      sentinel: false, retry_senses: 1, never_fails: false },
];

impl RetryKind {
    /// Every scheme, in the presentation order of Fig. 17.
    pub const ALL: [RetryKind; 7] = [
        RetryKind::Sentinel,
        RetryKind::SwiftRead,
        RetryKind::SwiftReadPlus,
        RetryKind::RpSsd,
        RetryKind::Rif,
        RetryKind::IdealOne,
        RetryKind::Zero,
    ];

    fn row(&self) -> &'static Row {
        &ROWS[*self as usize]
    }

    /// The paper's label for this configuration.
    pub fn label(&self) -> &'static str {
        self.row().label
    }

    /// Looks a scheme up by its paper label.
    pub fn by_label(label: &str) -> Option<RetryKind> {
        RetryKind::ALL.into_iter().find(|k| k.label() == label)
    }

    /// True when a failed decode of a page of `kind` needs an extra
    /// off-chip sentinel-cell read before the corrective re-read
    /// (§III-B: sentinel cells of some page types use different V_REF
    /// values than the failed page itself; only the LSB read shares its
    /// references in our TLC mapping).
    pub fn sentinel_extra_read(&self, kind: PageKind) -> bool {
        self.row().sentinel && kind != PageKind::Lsb
    }

    /// The initial-read RBER for this scheme, given the page's RBER at
    /// default references and the price of its RBER at near-optimal
    /// references: the defaults, moved toward the optimum by the scheme's
    /// V_REF-tracking weight. A row that tracks nothing never prices the
    /// optimum.
    pub fn initial_rber(&self, rber_default: f64, rber_optimal: impl FnOnce() -> f64) -> f64 {
        let w = self.row().tracking;
        if w > 0.0 {
            rber_default * (rber_optimal() / rber_default).powf(w)
        } else {
            rber_default
        }
    }

    /// True for schemes carrying an RP module (controller- or die-side).
    pub fn has_predictor(&self) -> bool {
        self.predictor() != Predictor::None
    }

    pub(crate) fn predictor(&self) -> Predictor {
        self.row().predictor
    }

    pub(crate) fn never_fails(&self) -> bool {
        self.row().never_fails
    }

    /// Only schemes with syndrome-weight visibility (a predictor, or
    /// V_REF-tracking hardware) feed the weight signal to the learner.
    pub(crate) fn sees_syndrome_weight(&self) -> bool {
        self.has_predictor() || self.row().tracking > 0.0
    }

    /// Die time of a read's first sense command; an in-die retry
    /// re-senses before the ready flag rises. A die that carries the
    /// predictor pays tPRED on every sense.
    pub(crate) fn initial_sense(&self, t: &FlashTiming, in_die_retry: bool) -> SimDuration {
        t.sense(
            1 + u64::from(in_die_retry),
            self.predictor() == Predictor::OnDie,
        )
    }

    /// Die time of one corrective-read command.
    pub(crate) fn retry_sense(&self, t: &FlashTiming) -> SimDuration {
        t.sense(
            self.row().retry_senses,
            self.predictor() == Predictor::OnDie,
        )
    }
}

impl fmt::Display for RetryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for k in RetryKind::ALL {
            assert_eq!(RetryKind::by_label(k.label()), Some(k));
        }
        assert_eq!(RetryKind::by_label("nope"), None);
    }

    #[test]
    fn sentinel_extra_read_only_for_senc_nonlsb() {
        assert!(RetryKind::Sentinel.sentinel_extra_read(PageKind::Csb));
        assert!(RetryKind::Sentinel.sentinel_extra_read(PageKind::Msb));
        assert!(!RetryKind::Sentinel.sentinel_extra_read(PageKind::Lsb));
        assert!(!RetryKind::SwiftRead.sentinel_extra_read(PageKind::Csb));
        assert!(!RetryKind::Rif.sentinel_extra_read(PageKind::Msb));
    }

    #[test]
    fn swr_plus_initial_rber_between_default_and_optimal() {
        let d = 0.01;
        let o = 0.0004;
        let r = RetryKind::SwiftReadPlus.initial_rber(d, || o);
        assert!(r < d && r > o, "got {r}");
        assert_eq!(RetryKind::SwiftRead.initial_rber(d, || o), d);
        assert_eq!(RetryKind::Rif.initial_rber(d, || o), d);
    }

    #[test]
    fn predictor_flag() {
        assert!(RetryKind::Rif.has_predictor());
        assert!(RetryKind::RpSsd.has_predictor());
        assert!(!RetryKind::Sentinel.has_predictor());
        assert!(!RetryKind::Zero.has_predictor());
    }

    /// DESIGN §1, column by column, at the Table I timing: the values
    /// the engine's own `match` arms produced before the table existed.
    #[test]
    fn rows_say_what_the_paper_says() {
        use Predictor::{Controller, None as NoRp, OnDie};
        use RetryKind::*;
        // (scheme, label, predictor, sentinel read-out, first sense µs,
        //  corrective read µs)
        let want = [
            (Zero, "SSDzero", NoRp, false, 40.0, 40.0),
            (IdealOne, "SSDone", NoRp, false, 40.0, 40.0),
            (Sentinel, "SENC", NoRp, true, 40.0, 40.0),
            (SwiftRead, "SWR", NoRp, false, 40.0, 80.0),
            (SwiftReadPlus, "SWR+", NoRp, false, 40.0, 80.0),
            (RpSsd, "RPSSD", Controller, false, 40.0, 40.0),
            (Rif, "RiFSSD", OnDie, false, 42.5, 42.5),
        ];
        assert_eq!(want.len(), RetryKind::ALL.len());
        let t = FlashTiming::paper();
        for (k, label, predictor, sentinel, first, retry) in want {
            assert_eq!(k.label(), label);
            assert_eq!(k.predictor(), predictor, "{label}");
            assert_eq!(k.sentinel_extra_read(PageKind::Csb), sentinel, "{label}");
            assert_eq!(k.initial_sense(&t, false).as_us(), first, "{label}");
            assert_eq!(k.retry_sense(&t).as_us(), retry, "{label}");
            assert_eq!(k.never_fails(), k == Zero, "{label}");
            let tracks = k == SwiftReadPlus;
            assert_eq!(k.initial_rber(0.01, || 0.0004) < 0.01, tracks, "{label}");
            assert_eq!(k.sees_syndrome_weight(), k.has_predictor() || tracks);
        }
        // Sense, predict, re-sense: the ODEAR in-die retry of Fig. 8.
        assert_eq!(Rif.initial_sense(&t, true).as_us(), 82.5);
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(format!("{}", RetryKind::Rif), "RiFSSD");
        assert_eq!(format!("{}", RetryKind::SwiftReadPlus), "SWR+");
    }
}
