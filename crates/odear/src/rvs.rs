//! The read-voltage selector (RVS) module.
//!
//! When RP predicts a sensed page uncorrectable, RVS chooses better
//! read-reference voltages *without controller assistance* by reusing the
//! Swift-Read mechanism (paper §IV-C): the ones-count of the data already
//! sitting in the page buffer reveals the V_TH drift, from which
//! near-optimal references follow. The die then re-reads the page with
//! those references and raises the ready flag; the re-read page bypasses
//! RP (footnote 4).

use rif_events::SimRng;
use rif_flash::geometry::{FlashGeometry, PageKind};
use rif_flash::swift_read::SwiftRead;
use rif_flash::vref::ReadVoltages;
use rif_flash::vth::{OperatingPoint, TlcModel};

/// The RVS module of a RiF-enabled die.
///
/// # Example
///
/// ```
/// use rif_odear::ReadVoltageSelector;
/// use rif_flash::{TlcModel, PageKind, OperatingPoint};
/// use rif_events::SimRng;
///
/// let rvs = ReadVoltageSelector::new(TlcModel::calibrated());
/// let mut rng = SimRng::seed_from(4);
/// let op = OperatingPoint::new(2000, 12.0);
/// let refs = rvs.select(op, 1.0, PageKind::Lsb, &mut rng);
/// let m = TlcModel::calibrated();
/// // Selected references decode where the defaults cannot.
/// assert!(m.rber(op, 1.0, refs.as_array(), PageKind::Lsb) < 0.0085);
/// ```
#[derive(Debug, Clone)]
pub struct ReadVoltageSelector {
    swift: SwiftRead,
}

impl ReadVoltageSelector {
    /// Builds an RVS over the given V_TH model.
    pub fn new(model: TlcModel) -> Self {
        ReadVoltageSelector {
            swift: SwiftRead::new(model),
        }
    }

    /// Selects near-optimal references for a page under the (true) stress
    /// `op` and block `process_factor`: simulates the ones-count
    /// measurement of the sensed data and inverts it.
    pub fn select(
        &self,
        op: OperatingPoint,
        process_factor: f64,
        kind: PageKind,
        rng: &mut SimRng,
    ) -> ReadVoltages {
        // Every cell of the page contributes to the ones-count.
        let page_cells = FlashGeometry::paper().page_bytes * 8;
        self.swift
            .select_refs(op, process_factor, kind, page_cells, rng)
    }

    /// Deterministic variant used by property tests: selects from an
    /// already-observed ones-fraction.
    pub fn select_from_observation(
        &self,
        pe_cycles: u32,
        kind: PageKind,
        observed_ones: f64,
    ) -> ReadVoltages {
        self.swift
            .refs_from_observation(pe_cycles, kind, observed_ones)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selected_refs_recover_all_kinds_under_heavy_stress() {
        let model = TlcModel::calibrated();
        let rvs = ReadVoltageSelector::new(model.clone());
        let mut rng = SimRng::seed_from(9);
        for &(pe, days) in &[(1000u32, 20.0), (2000, 14.0)] {
            let op = OperatingPoint::new(pe, days);
            for kind in PageKind::ALL {
                let refs = rvs.select(op, 1.0, kind, &mut rng);
                let rber = model.rber(op, 1.0, refs.as_array(), kind);
                assert!(rber < 0.0085, "pe={pe} d={days} {kind}: RBER {rber}");
            }
        }
    }

    #[test]
    fn rvs_beats_default_refs_when_page_needs_retry() {
        let model = TlcModel::calibrated();
        let rvs = ReadVoltageSelector::new(model.clone());
        let mut rng = SimRng::seed_from(10);
        let op = OperatingPoint::new(1000, 22.0);
        let default = model.default_refs();
        for kind in PageKind::ALL {
            let selected = rvs.select(op, 1.2, kind, &mut rng);
            let before = model.rber(op, 1.2, &default, kind);
            let after = model.rber(op, 1.2, selected.as_array(), kind);
            assert!(after < before * 0.5, "{kind}: {before} -> {after}");
        }
    }

    #[test]
    fn observation_variant_is_deterministic() {
        let rvs = ReadVoltageSelector::new(TlcModel::calibrated());
        let a = rvs.select_from_observation(500, PageKind::Csb, 0.51);
        let b = rvs.select_from_observation(500, PageKind::Csb, 0.51);
        assert_eq!(a, b);
    }
}
