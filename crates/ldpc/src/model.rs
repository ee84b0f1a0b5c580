//! Behavioural ECC model for the event-level SSD simulator.
//!
//! The paper's extended MQSim-E does not decode real codewords; it "mimics
//! the latency for decoding the target page and invokes a read-retry
//! procedure when the page's RBER exceeds the ECC correction capability"
//! (§III-B1, §VI-A). [`EccModel`] is that abstraction: given a page RBER it
//! answers *does decoding fail?* and *how long does decoding take?* with a
//! smooth probit (normal-CDF) transition calibrated either to the paper's
//! anchors or to Monte-Carlo runs of the real decoder in this crate.

use rif_events::{SimDuration, SimRng};

use crate::analysis::CapabilityPoint;
use crate::code::PAPER_CORRECTION_CAPABILITY;
use crate::decoder::PAPER_MAX_ITERATIONS;

/// `|x/√2|` from which [`erf`] is exactly ±1: its correction term
/// `poly(t)·t·e^{-z²}` is below `0.1·e^{-36} ≈ 2.3e-17 < 2^-54` there, so
/// `1.0 - term` already rounds to `1.0`.
const ERF_SATURATES_AT: f64 = 6.0;

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (absolute error < 1.5e-7 — far below Monte-Carlo noise).
///
/// Beyond the saturation point the tails return the `1.0` / `0.0` the
/// expression rounds to anyway, without evaluating `exp`: the result is
/// bit-identical to the full expression for every input (tested against
/// it), and most of a V_TH model's per-state look-ups land out there.
pub fn normal_cdf(x: f64) -> f64 {
    let z = x / std::f64::consts::SQRT_2;
    if z >= ERF_SATURATES_AT {
        1.0
    } else if z <= -ERF_SATURATES_AT {
        0.0
    } else {
        0.5 * (1.0 + erf(z))
    }
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Calibrated decoding-failure / latency model of a channel-level QC-LDPC
/// engine.
///
/// # Example
///
/// ```
/// use rif_ldpc::EccModel;
///
/// let ecc = EccModel::paper_default();
/// // At the paper's correction capability the failure probability is 0.1.
/// let p = ecc.failure_probability(0.0085);
/// assert!((p - 0.1).abs() < 0.01);
/// // Well below it, decoding virtually never fails and is fast.
/// assert!(ecc.failure_probability(0.004) < 1e-6);
/// assert!(ecc.t_ecc(0.004).as_us() < 2.0);
/// // Well above it, decoding fails and burns the full 20 µs.
/// assert!(ecc.failure_probability(0.012) > 0.99);
/// assert!(ecc.t_ecc(0.012).as_us() > 19.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EccModel {
    rber50: f64,
    sigma: f64,
    iter50: f64,
    iter_sigma: f64,
    max_iterations: u32,
    t_iter_us: f64,
}

impl EccModel {
    /// The paper's model: correction capability 0.0085 (failure probability
    /// 10⁻¹ there), iterations saturating at 20, tECC spanning 1–20 µs.
    pub fn paper_default() -> Self {
        // Probit slope chosen so the 10 %→90 % failure transition spans
        // ≈0.0013 RBER, matching the sharp waterfall of Fig. 3(a).
        let sigma = 0.000_5;
        let rber50 = PAPER_CORRECTION_CAPABILITY + 1.281_552 * sigma;
        EccModel {
            rber50,
            sigma,
            // Iteration count is already near max at the capability
            // (Fig. 3(b): 20 iterations at RBER 0.0085).
            iter50: 0.007_0,
            iter_sigma: 0.000_8,
            max_iterations: PAPER_MAX_ITERATIONS,
            t_iter_us: 1.0,
        }
    }

    /// Builds a model with explicit probit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `sigma`, `iter_sigma` or `t_iter_us` are not positive, or
    /// `max_iterations` is zero.
    pub fn with_parameters(
        rber50: f64,
        sigma: f64,
        iter50: f64,
        iter_sigma: f64,
        max_iterations: u32,
        t_iter_us: f64,
    ) -> Self {
        assert!(sigma > 0.0 && iter_sigma > 0.0, "slopes must be positive");
        assert!(t_iter_us > 0.0, "per-iteration latency must be positive");
        assert!(max_iterations > 0, "need at least one iteration");
        EccModel {
            rber50,
            sigma,
            iter50,
            iter_sigma,
            max_iterations,
            t_iter_us,
        }
    }

    /// Fits probit parameters to measured capability points.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    pub fn fit(points: &[CapabilityPoint]) -> Self {
        assert!(!points.is_empty(), "cannot fit an empty sweep");
        // Least-squares in probit space over points with informative
        // failure probabilities.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for p in points {
            if p.failure_probability > 0.005 && p.failure_probability < 0.995 {
                xs.push(p.rber);
                ys.push(probit(p.failure_probability));
            }
        }
        let (rber50, sigma) = if xs.len() >= 2 {
            let n = xs.len() as f64;
            let mx = xs.iter().sum::<f64>() / n;
            let my = ys.iter().sum::<f64>() / n;
            let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
            let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
            let slope = sxy / sxx.max(1e-18);
            let sigma = (1.0 / slope).max(1e-6);
            (mx - my * sigma, sigma)
        } else {
            // Degenerate sweep: fall back to the transition midpoint.
            let mid = points
                .iter()
                .find(|p| p.failure_probability >= 0.5)
                .or(points.last())
                .expect("non-empty");
            (mid.rber, 0.000_5)
        };
        // Anchor the iteration ramp so iterations saturate at the fitted
        // capability, mirroring Fig. 3(b)'s alignment with Fig. 3(a).
        let cap = rber50 - 1.281_552 * sigma;
        EccModel {
            rber50,
            sigma,
            iter50: cap * 0.82,
            iter_sigma: sigma * 1.6,
            max_iterations: PAPER_MAX_ITERATIONS,
            t_iter_us: 1.0,
        }
    }

    /// The RBER at which decoding fails with probability 10⁻¹ — the
    /// "correction capability" in the paper's terminology.
    pub fn correction_capability(&self) -> f64 {
        self.rber50 - 1.281_552 * self.sigma
    }

    /// Probability that decoding a page with the given RBER fails.
    pub fn failure_probability(&self, rber: f64) -> f64 {
        normal_cdf((rber - self.rber50) / self.sigma)
    }

    /// Expected number of decoder iterations at the given RBER, ramping
    /// from 1 to [`EccModel::max_iterations`].
    pub fn avg_iterations(&self, rber: f64) -> f64 {
        1.0 + (self.max_iterations as f64 - 1.0)
            * normal_cdf((rber - self.iter50) / self.iter_sigma)
    }

    /// The decoder's iteration cap.
    pub fn max_iterations(&self) -> u32 {
        self.max_iterations
    }

    /// Expected decoding latency at the given RBER: one
    /// `t_iter_us`-microsecond pass per iteration (Table I: 1–20 µs).
    pub fn t_ecc(&self, rber: f64) -> SimDuration {
        SimDuration::from_us_f64(self.avg_iterations(rber) * self.t_iter_us)
    }

    /// Decoding latency of a *failed* decode: the engine always burns the
    /// full iteration budget before declaring failure.
    pub fn t_ecc_failure(&self) -> SimDuration {
        SimDuration::from_us_f64(self.max_iterations as f64 * self.t_iter_us)
    }

    /// Samples whether a decode of a page with the given RBER fails.
    pub fn sample_failure(&self, rber: f64, rng: &mut SimRng) -> bool {
        rng.chance(self.failure_probability(rber))
    }
}

/// Inverse normal CDF (Acklam's rational approximation, |ε| < 1.15e-9).
///
/// # Panics
///
/// Panics unless `0 < p < 1`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile argument {p} out of (0,1)");
    probit(p)
}

fn probit(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_690e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    let p_low = 0.024_25;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`normal_cdf`] without the tail shortcut: the expression every
    /// checked-in result was produced with.
    fn normal_cdf_unshortened(x: f64) -> f64 {
        0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
    }

    #[test]
    fn normal_cdf_tail_shortcut_is_bit_exact() {
        let same = |x: f64| {
            let (got, want) = (normal_cdf(x), normal_cdf_unshortened(x));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "x = {x:e} ({:#x}): {got:e} vs {want:e}",
                x.to_bits()
            );
        };
        let sqrt2 = std::f64::consts::SQRT_2;
        // Every representable x for 100k steps on either side of the two
        // cut points x/√2 = ±6.
        let cut = ERF_SATURATES_AT * sqrt2;
        for i in 0..100_000u64 {
            for bits in [cut.to_bits() + i, cut.to_bits() - i] {
                same(f64::from_bits(bits));
                same(-f64::from_bits(bits));
            }
        }
        // A dense grid over x/√2 in ±[5, 7].
        let steps = 400_000;
        for i in 0..=steps {
            let z = 5.0 + 2.0 * i as f64 / steps as f64;
            same(z * sqrt2);
            same(-z * sqrt2);
        }
        // Seeded random points over ±12 (x/√2 to ±8.5: both sides of
        // both cuts), then the edge values.
        let mut rng = SimRng::seed_from(0xCDF);
        for _ in 0..1_000_000 {
            same(rng.uniform_range(-12.0, 12.0));
        }
        for x in [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            12.0 * sqrt2,
            -12.0 * sqrt2,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            same(x);
        }
        assert_eq!(normal_cdf(f64::NEG_INFINITY).to_bits(), 0.0f64.to_bits());
        assert!(normal_cdf(f64::NAN).is_nan());
    }

    #[test]
    fn normal_cdf_sanity() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.281_552) - 0.9).abs() < 1e-5);
        assert!(normal_cdf(-6.0) < 1e-8);
        assert!(normal_cdf(6.0) > 1.0 - 1e-8);
    }

    #[test]
    fn probit_inverts_cdf() {
        for &p in &[0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999] {
            let x = probit(p);
            assert!((normal_cdf(x) - p).abs() < 1e-6, "p={p}");
        }
    }

    #[test]
    fn paper_default_anchors() {
        let ecc = EccModel::paper_default();
        assert!((ecc.correction_capability() - 0.0085).abs() < 1e-9);
        assert!((ecc.failure_probability(0.0085) - 0.1).abs() < 0.005);
        // Fig. 3(b): iterations reach the 20 cap at the capability.
        assert!(ecc.avg_iterations(0.0085) > 18.0);
        assert!(ecc.avg_iterations(0.004) < 1.5);
        // tECC spans 1..=20 µs.
        assert!(ecc.t_ecc(0.001).as_us() >= 1.0);
        assert!(ecc.t_ecc(0.02).as_us() <= 20.001);
        assert_eq!(ecc.t_ecc_failure().as_us(), 20.0);
    }

    #[test]
    fn failure_probability_is_monotone() {
        let ecc = EccModel::paper_default();
        let mut last = 0.0;
        for i in 0..40 {
            let p = ecc.failure_probability(i as f64 * 0.0005);
            assert!(p >= last);
            last = p;
        }
    }

    #[test]
    fn sample_failure_tracks_probability() {
        let ecc = EccModel::paper_default();
        let mut rng = SimRng::seed_from(77);
        let trials = 20_000;
        let rate = (0..trials)
            .filter(|_| ecc.sample_failure(0.0085, &mut rng))
            .count() as f64
            / trials as f64;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn fit_recovers_probit_parameters() {
        // Generate clean points from a known model, refit, compare.
        let truth = EccModel::paper_default();
        let points: Vec<CapabilityPoint> = (2..=13)
            .map(|i| {
                let rber = i as f64 * 0.001;
                CapabilityPoint {
                    rber,
                    failure_probability: truth.failure_probability(rber),
                    avg_iterations: truth.avg_iterations(rber),
                    trials: 100_000,
                }
            })
            .collect();
        let fitted = EccModel::fit(&points);
        assert!(
            (fitted.correction_capability() - truth.correction_capability()).abs() < 3e-4,
            "fitted cap {}",
            fitted.correction_capability()
        );
    }

    #[test]
    fn with_parameters_validates() {
        let m = EccModel::with_parameters(0.009, 0.0005, 0.007, 0.0008, 20, 1.0);
        assert_eq!(m.max_iterations(), 20);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_sigma() {
        let _ = EccModel::with_parameters(0.009, 0.0, 0.007, 0.0008, 20, 1.0);
    }
}
