//! Swift-Read V_REF estimation (Cho et al., ISSCC'22; paper §III-B, §IV-C).
//!
//! Swift-Read exploits data randomization: the expected ones-density of a
//! page is known in advance, so the *difference* between the measured
//! ones-count of a sense and the expectation reveals how far the V_TH
//! distributions have drifted. The flash die can therefore pick
//! near-optimal references with a single extra sense and no controller
//! involvement — which is exactly the mechanism the RVS module of a
//! RiF-enabled die reuses.

use rif_events::SimRng;

use crate::geometry::PageKind;
use crate::vref::ReadVoltages;
use crate::vth::{OperatingPoint, TlcModel};

/// The Swift-Read estimator.
///
/// # Example
///
/// ```
/// use rif_flash::swift_read::SwiftRead;
/// use rif_flash::{TlcModel, PageKind, OperatingPoint};
/// use rif_events::SimRng;
///
/// let sr = SwiftRead::new(TlcModel::calibrated());
/// let mut rng = SimRng::seed_from(5);
/// let op = OperatingPoint::new(1000, 20.0);
/// let refs = sr.select_refs(op, 1.1, PageKind::Csb, 131_072, &mut rng);
/// // The selected references decode far better than the defaults.
/// let m = TlcModel::calibrated();
/// let selected = m.rber(op, 1.1, refs.as_array(), PageKind::Csb);
/// let default = m.rber(op, 1.1, &m.default_refs(), PageKind::Csb);
/// assert!(selected < default);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SwiftRead {
    model: TlcModel,
    default_refs: [f64; 7],
    /// `model.state_scaling()`: one inversion evaluates 42 ages.
    state_scaling: [f64; 8],
}

impl SwiftRead {
    /// Builds an estimator over the given V_TH model.
    pub fn new(model: TlcModel) -> Self {
        let default_refs = model.default_refs();
        let state_scaling = model.state_scaling();
        SwiftRead {
            model,
            default_refs,
            state_scaling,
        }
    }

    /// Simulates the measurement step: senses a page of `n_cells` bits at
    /// the default references and returns the observed ones-fraction
    /// (expected fraction plus binomial sampling noise).
    pub fn observe_ones(
        &self,
        op: OperatingPoint,
        process_factor: f64,
        kind: PageKind,
        n_cells: usize,
        rng: &mut SimRng,
    ) -> f64 {
        assert!(n_cells > 0, "page must have at least one cell");
        let params = self
            .model
            .state_params_scaled(&self.state_scaling, op, process_factor);
        let f = self.model.ones_fraction(&params, &self.default_refs, kind);
        let noise_sigma = (f * (1.0 - f) / n_cells as f64).sqrt();
        (f + rng.gaussian_with(0.0, noise_sigma)).clamp(0.0, 1.0)
    }

    /// Inverts an observed ones-fraction into an effective retention age
    /// and returns the optimal references for that age.
    ///
    /// The die knows its own P/E count but not the page's true retention
    /// age or the block's process corner; the ones-count collapses both
    /// into a single drift magnitude, which is searched by bisection over
    /// the retention axis (monotone in drift).
    pub fn refs_from_observation(
        &self,
        pe_cycles: u32,
        kind: PageKind,
        observed_ones: f64,
    ) -> ReadVoltages {
        // Ones-fraction at default refs as a function of hypothetical age.
        let params_at = |days: f64| {
            self.model.state_params_scaled(
                &self.state_scaling,
                OperatingPoint::new(pe_cycles, days),
                1.0,
            )
        };
        let f_of = |days: f64| {
            self.model
                .ones_fraction(&params_at(days), &self.default_refs, kind)
        };
        let (mut lo, mut hi) = (0.0_f64, 60.0_f64);
        let (f_lo, f_hi) = (f_of(lo), f_of(hi));
        let increasing = f_hi > f_lo;
        // Clamp observations outside the representable drift range.
        let target = if increasing {
            observed_ones.clamp(f_lo, f_hi)
        } else {
            observed_ones.clamp(f_hi, f_lo)
        };
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            let fm = f_of(mid);
            if (fm < target) == increasing {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let est_days = 0.5 * (lo + hi);
        ReadVoltages::new(self.model.optimal_refs(params_at(est_days)))
    }

    /// Full Swift-Read flow: sense at default references, count ones,
    /// select references. The two senses cost `2·tR` on the die
    /// (paper §III-B: "two reads to the target page inside the chip").
    pub fn select_refs(
        &self,
        op: OperatingPoint,
        process_factor: f64,
        kind: PageKind,
        n_cells: usize,
        rng: &mut SimRng,
    ) -> ReadVoltages {
        let observed = self.observe_ones(op, process_factor, kind, n_cells, rng);
        self.refs_from_observation(op.pe_cycles, kind, observed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_gap(
        model: &TlcModel,
        op: OperatingPoint,
        factor: f64,
        refs: &ReadVoltages,
        kind: PageKind,
    ) -> (f64, f64) {
        let params = model.state_params(op, factor);
        let optimal = model.optimal_refs(params);
        let got = model.rber_with_params(&params, refs.as_array(), kind);
        let best = model.rber_with_params(&params, &optimal, kind);
        (got, best)
    }

    #[test]
    fn selected_refs_are_near_optimal() {
        let model = TlcModel::calibrated();
        let sr = SwiftRead::new(model.clone());
        let mut rng = SimRng::seed_from(11);
        for &(pe, days) in &[(0u32, 25.0), (1000, 15.0), (2000, 10.0)] {
            let op = OperatingPoint::new(pe, days);
            for kind in PageKind::ALL {
                let refs = sr.select_refs(op, 1.0, kind, 131_072, &mut rng);
                let (got, best) = rel_gap(&model, op, 1.0, &refs, kind);
                assert!(
                    got < best * 4.0 + 1e-5,
                    "pe={pe} d={days} {kind}: swift {got} vs optimal {best}"
                );
                // And always below the correction capability.
                assert!(got < 0.0085, "pe={pe} d={days} {kind}: swift RBER {got}");
            }
        }
    }

    #[test]
    fn estimation_tracks_process_variation() {
        // A weak block (factor 1.5) drifts faster than its age suggests;
        // the ones-count sees the *actual* drift, so the selected refs must
        // still beat the defaults by a wide margin.
        let model = TlcModel::calibrated();
        let sr = SwiftRead::new(model.clone());
        let mut rng = SimRng::seed_from(13);
        let op = OperatingPoint::new(1000, 18.0);
        let refs = sr.select_refs(op, 1.5, PageKind::Csb, 131_072, &mut rng);
        let params = model.state_params(op, 1.5);
        let swift = model.rber_with_params(&params, refs.as_array(), PageKind::Csb);
        let default = model.rber_with_params(&params, &model.default_refs(), PageKind::Csb);
        assert!(swift < default * 0.3, "swift {swift} vs default {default}");
    }

    #[test]
    fn observation_noise_shrinks_with_page_size() {
        let sr = SwiftRead::new(TlcModel::calibrated());
        let op = OperatingPoint::new(0, 10.0);
        let spread = |n: usize, seed: u64| {
            let mut rng = SimRng::seed_from(seed);
            let obs: Vec<f64> = (0..200)
                .map(|_| sr.observe_ones(op, 1.0, PageKind::Lsb, n, &mut rng))
                .collect();
            let mean = obs.iter().sum::<f64>() / obs.len() as f64;
            (obs.iter().map(|o| (o - mean) * (o - mean)).sum::<f64>() / obs.len() as f64).sqrt()
        };
        let small = spread(1024, 3);
        let large = spread(131_072, 3);
        assert!(large < small, "noise did not shrink: {small} vs {large}");
    }

    #[test]
    fn refs_from_observation_is_deterministic() {
        let sr = SwiftRead::new(TlcModel::calibrated());
        let a = sr.refs_from_observation(500, PageKind::Msb, 0.52);
        let b = sr.refs_from_observation(500, PageKind::Msb, 0.52);
        assert_eq!(a, b);
    }

    #[test]
    fn clamps_out_of_range_observations() {
        let sr = SwiftRead::new(TlcModel::calibrated());
        // Impossible observations (all ones / all zeros) still yield valid,
        // ordered references.
        let lo = sr.refs_from_observation(1000, PageKind::Csb, 0.0);
        let hi = sr.refs_from_observation(1000, PageKind::Csb, 1.0);
        for r in 1..=6 {
            assert!(lo.get(r) < lo.get(r + 1));
            assert!(hi.get(r) < hi.get(r + 1));
        }
    }
}
