//! Hybrid SLC/QLC flash subsystem: cell-mode regions, the SLC cache
//! drain, and the background-traffic work model (DESIGN §14).
//!
//! Modern high-density SSDs run part of the array as an SLC-mode write
//! cache in front of QLC capacity blocks. Writes land in SLC (huge V_TH
//! margin, effectively error-free); above a high watermark the background
//! scheduler drains the cache to QLC via on-die copyback, oldest-written
//! slots first. All of that traffic — SLC→QLC migration, garbage
//! collection, and periodic refresh rewrites — becomes real die work that
//! contends with foreground reads, which is exactly the regime where
//! early retry (RiF) pays most: retries are costlier (QLC's 15 read
//! levels, higher RBER) and the dies are busier.
//!
//! The slot mapping and region bookkeeping are the one FTL's
//! ([`crate::ftl::Ftl`], built with a cache region); this module holds
//! what the [`crate::SsdConfig::hybrid`] option selects on top of it.
//! [`AmpTable`] converts the calibrated TLC error model to other cell
//! modes via precomputed RBER amplification ratios (the ratios Fig. 4's
//! per-mode table prints); the background scheduler half lives in the
//! simulator, driven by [`BgConfig`].

use rif_flash::mlc::MlcModel;
use rif_flash::vth::{OperatingPoint, TlcModel};

/// Cell mode of a flash region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellMode {
    /// 1 bit/cell cache mode (SLC-programmed TLC/QLC blocks).
    Slc,
    /// 3 bits/cell — the paper's baseline device.
    Tlc,
    /// 4 bits/cell, 15 read levels.
    Qlc,
}

impl CellMode {
    /// Short label for tables and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            CellMode::Slc => "slc",
            CellMode::Tlc => "tlc",
            CellMode::Qlc => "qlc",
        }
    }
}

/// Kind of a background die operation (trace span name / metric label).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BgKind {
    /// Garbage-collection relocation + erase.
    Gc,
    /// SLC→QLC cache drain (on-die copyback).
    Migrate,
    /// Retention refresh rewrite.
    Refresh,
}

impl BgKind {
    /// The trace span name emitted while a die executes this work.
    pub fn span_name(&self) -> &'static str {
        match self {
            BgKind::Gc => "gc",
            BgKind::Migrate => "migrate",
            BgKind::Refresh => "refresh",
        }
    }
}

/// Background-traffic scheduler knobs. On a hybrid device an arriving
/// read sense always jumps ahead of queued background die commands (never
/// ahead of other reads or host programs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BgConfig {
    /// Cache occupancy above which the background drain migrates the
    /// oldest-written slots to capacity blocks.
    pub high_watermark: f64,
    /// Occupancy at which a running drain stops.
    pub low_watermark: f64,
    /// Slots whose age is examined per tick by the refresh scan, which
    /// rewrites those due under [`crate::SsdConfig::refresh_days`].
    pub refresh_scan_batch: usize,
}

impl Default for BgConfig {
    fn default() -> Self {
        BgConfig {
            high_watermark: 0.5,
            low_watermark: 0.3,
            refresh_scan_batch: 64,
        }
    }
}

/// Full hybrid-subsystem configuration, carried by
/// [`crate::SsdConfig::hybrid`]. It selects cell modes, the SLC cache
/// size and the background scheduler — never which FTL code runs; `None`
/// there is the paper's TLC SSD with no cache and no scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridConfig {
    /// Fraction of each die's write region run in SLC mode (0 disables
    /// the cache: writes land directly in capacity blocks).
    pub cache_fraction: f64,
    /// Cell mode of the capacity (non-cache) blocks.
    pub capacity_mode: CellMode,
    /// Background scheduler knobs.
    pub bg: BgConfig,
}

impl HybridConfig {
    /// A pure QLC device: no SLC cache, every block 4 bits/cell.
    pub fn qlc() -> Self {
        HybridConfig {
            cache_fraction: 0.0,
            capacity_mode: CellMode::Qlc,
            bg: BgConfig::default(),
        }
    }

    /// The default hybrid device: a quarter of the write region as SLC
    /// cache in front of QLC capacity, drained oldest-first once it is
    /// more than half full.
    pub fn slc_qlc() -> Self {
        HybridConfig {
            cache_fraction: 0.25,
            capacity_mode: CellMode::Qlc,
            bg: BgConfig::default(),
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range fractions, an SLC capacity mode, inverted
    /// watermarks or an empty refresh scan.
    pub fn validate(&self) {
        assert!(
            (0.0..=0.9).contains(&self.cache_fraction),
            "cache fraction {} outside [0, 0.9]",
            self.cache_fraction
        );
        assert!(
            self.capacity_mode != CellMode::Slc,
            "capacity region cannot run in SLC mode"
        );
        assert!(
            (0.0..=1.0).contains(&self.high_watermark())
                && (0.0..=1.0).contains(&self.bg.low_watermark)
                && self.bg.low_watermark <= self.high_watermark(),
            "watermarks must satisfy 0 <= low <= high <= 1"
        );
        assert!(
            self.bg.refresh_scan_batch > 0,
            "refresh scan batch must be positive"
        );
    }

    fn high_watermark(&self) -> f64 {
        self.bg.high_watermark
    }
}

/// Precomputed RBER amplification of non-TLC cell modes relative to the
/// calibrated TLC error model, tabulated over retention age at a fixed
/// wear stage. The simulator multiplies every TLC-model RBER by the
/// mode's factor — the QLC/TLC ratio Fig. 4's per-mode table reports,
/// made cheap and deterministic with a day-granular table. Each ratio
/// divides by [`TlcModel`]'s own page-averaged RBER at its default
/// references.
#[derive(Debug, Clone)]
pub struct AmpTable {
    /// `qlc[d]` = QLC/TLC page-averaged RBER ratio at `d` retention days.
    qlc: Vec<f64>,
    /// `slc[d]` = SLC/TLC ratio at `d` days.
    slc: Vec<f64>,
}

impl AmpTable {
    /// Builds the table for `pe_cycles`, covering ages up to
    /// `horizon_days` (clamped lookups beyond).
    pub fn build(pe_cycles: u32, horizon_days: f64) -> Self {
        let days = (horizon_days.max(1.0).ceil() as usize).max(8) + 1;
        let tlc = TlcModel::calibrated();
        let tlc_refs = tlc.default_refs();
        let qlc_m = MlcModel::qlc();
        let slc_m = MlcModel::slc_like();
        let mut qlc = Vec::with_capacity(days);
        let mut slc = Vec::with_capacity(days);
        for d in 0..days {
            let op = OperatingPoint::new(pe_cycles, d as f64);
            let t = tlc.rber_avg(op, 1.0, &tlc_refs).max(1e-12);
            qlc.push(qlc_m.rber_avg(op, 1.0) / t);
            slc.push(slc_m.rber_avg(op, 1.0) / t);
        }
        AmpTable { qlc, slc }
    }

    /// The amplification factor of `mode` at `age_days` (linear
    /// interpolation, clamped to the tabulated range). TLC is exactly 1.
    pub fn factor(&self, mode: CellMode, age_days: f64) -> f64 {
        let table = match mode {
            CellMode::Tlc => return 1.0,
            CellMode::Qlc => &self.qlc,
            CellMode::Slc => &self.slc,
        };
        let a = age_days.max(0.0);
        let i = a.floor() as usize;
        if i + 1 >= table.len() {
            return table[table.len() - 1];
        }
        let frac = a - i as f64;
        table[i] * (1.0 - frac) + table[i + 1] * frac
    }
}

/// Hard ceiling applied to amplified RBERs: past this the decode model's
/// behaviour is saturated anyway, and capping keeps every downstream
/// probability well-defined.
pub const AMPLIFIED_RBER_CAP: f64 = 0.4;

/// Floor applied to amplified RBERs. The SLC V_TH model's state margin is
/// wide enough that its raw RBER underflows to exactly 0, and a zero RBER
/// poisons ratio-based scheme math downstream (`0 * (0/0)^w` is NaN in
/// SWR+'s V_REF tracking). One error per 10¹² bits is "error-free" to
/// every consumer while keeping the arithmetic finite.
pub const AMPLIFIED_RBER_FLOOR: f64 = 1e-12;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_presets_validate() {
        HybridConfig::qlc().validate();
        HybridConfig::slc_qlc().validate();
    }

    #[test]
    #[should_panic(expected = "cache fraction")]
    fn config_rejects_oversized_cache() {
        let mut c = HybridConfig::slc_qlc();
        c.cache_fraction = 0.95;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "SLC mode")]
    fn config_rejects_slc_capacity() {
        let mut c = HybridConfig::qlc();
        c.capacity_mode = CellMode::Slc;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "watermarks")]
    fn config_rejects_inverted_watermarks() {
        let mut c = HybridConfig::slc_qlc();
        c.bg.low_watermark = 0.8;
        c.bg.high_watermark = 0.5;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "refresh scan batch")]
    fn config_rejects_an_empty_refresh_scan() {
        let mut c = HybridConfig::qlc();
        c.bg.refresh_scan_batch = 0;
        c.validate();
    }

    #[test]
    fn amp_table_orders_modes_correctly() {
        let t = AmpTable::build(1000, 30.0);
        for age in [0.0, 5.0, 14.5, 29.0, 60.0] {
            let slc = t.factor(CellMode::Slc, age);
            let tlc = t.factor(CellMode::Tlc, age);
            let qlc = t.factor(CellMode::Qlc, age);
            assert_eq!(tlc, 1.0);
            assert!(slc < 0.01, "age {age}: SLC factor {slc} not tiny");
            assert!(qlc > 3.0, "age {age}: QLC factor {qlc} not > 3");
        }
    }

    #[test]
    fn amp_table_factors_match_their_pinned_values() {
        // Factors taken while the TLC denominator was the generic model's
        // b = 3 instance. Dividing by `TlcModel` itself reorders the page
        // sum: over P/E 0–4000 and ages 0–60 days that moved 155 of 1037
        // QLC factors by at most 3 ulps (4.4e-16 relative).
        #[rustfmt::skip]
        let pins = [
            (0, [(0.0, 1.050793746575738e1), (5.0, 1.912217793257282e1), (30.0, 8.61503434186673e0)]),
            (1000, [(0.0, 8.460573983074468e0), (5.0, 1.3291261282155823e1), (30.0, 4.328146314864816e0)]),
        ];
        for (pe, factors) in pins {
            let t = AmpTable::build(pe, 30.0);
            for (age, want) in factors {
                let got = t.factor(CellMode::Qlc, age);
                let moved = (got - want).abs() / want;
                assert!(moved <= 1e-15, "pe={pe} age {age}: QLC {got:e} vs {want:e}");
                // SLC's raw RBER underflows to 0 at every one of them.
                assert_eq!(t.factor(CellMode::Slc, age), 0.0, "pe={pe} age {age}");
            }
        }
    }

    #[test]
    fn amp_table_interpolates_between_days() {
        let t = AmpTable::build(500, 10.0);
        let a = t.factor(CellMode::Qlc, 3.0);
        let b = t.factor(CellMode::Qlc, 4.0);
        let mid = t.factor(CellMode::Qlc, 3.5);
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        assert!(
            (lo..=hi).contains(&mid),
            "midpoint {mid} outside [{lo}, {hi}]"
        );
    }

    #[test]
    fn bg_kind_span_names() {
        assert_eq!(BgKind::Gc.span_name(), "gc");
        assert_eq!(BgKind::Migrate.span_name(), "migrate");
        assert_eq!(BgKind::Refresh.span_name(), "refresh");
    }
}
