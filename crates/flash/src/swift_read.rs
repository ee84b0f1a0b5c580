//! Swift-Read V_REF estimation (Cho et al., ISSCC'22; paper §III-B, §IV-C).
//!
//! Swift-Read exploits data randomization: the expected ones-density of a
//! page is known in advance, so the *difference* between the measured
//! ones-count of a sense and the expectation reveals how far the V_TH
//! distributions have drifted. The flash die can therefore pick
//! near-optimal references with a single extra sense and no controller
//! involvement — which is exactly the mechanism the RVS module of a
//! RiF-enabled die reuses.

use std::cell::Cell;
use std::fmt;
use std::sync::Mutex;

use rif_events::SimRng;

use crate::geometry::PageKind;
use crate::vref::ReadVoltages;
use crate::vth::{bisect, Aging, OperatingPoint, StateParam, TlcModel};

/// Retention ages the inversion searches: `[0, SEARCH_DAYS]` days.
const SEARCH_DAYS: f64 = 60.0;
/// Bisection steps of the inversion.
const STEPS: u32 = 40;
/// Steps answered from the memo. Their midpoints are the ages
/// `SEARCH_DAYS · j / 2⁸`, every one exactly representable and produced
/// bit for bit by `0.5 * (lo + hi)`.
const MEMO_LEVELS: u32 = 8;
/// Ages per memoized curve: `j = 0..=256`.
const NODES: usize = (1 << MEMO_LEVELS) + 1;
/// Days between adjacent memo ages (60/256, exact).
const NODE_DAYS: f64 = SEARCH_DAYS / (NODES - 1) as f64;
/// (P/E, kind) curves the memo holds; the oldest is replaced beyond. A
/// curve is 257 `f64`s, so the memo never exceeds 16 × 2 056 B ≈ 33 KiB.
const MEMO_CURVES: usize = 16;
/// Bound on the rounding error of one computed ones-fraction `f`: its
/// distance from the same formulas in exact arithmetic. At most six of
/// its CDF look-ups sit near a state's peak (two states beside each of
/// ≤ 3 references); each carries ≤ 3.8e-15 (mean/σ rounding times the
/// density, plus `erf`'s own), weighted 1/8, and the 16 additions add
/// ≤ 8.9e-16: ≈ 4.1e-15 in all. The bound is 2.4× that tally and 12×
/// the largest deviation measured from a fitted line over 1e-10-day
/// grids (7.9e-16).
const F_ROUNDING: f64 = 1e-14;
/// Safety factor of the replay's window Δ over the smallest one rounding
/// allows. With slope floor s, Δ = 2 · `MARGIN` · ε/s for ε =
/// `F_ROUNDING`, and a step farther than Δ from x̂ must be decided by
/// its side. Two terms eat into Δ. x̂ comes from computed values, so
/// it sits up to ε/s from the exact crossing x*, plus what the settle
/// test leaves, under Δ/16. A midpoint more than ε/s beyond x* then
/// computes on its side of the target. Their sum, 2ε/s + Δ/16, is
/// 0.56 Δ at a factor of 2; ε itself is 2.4× the tally, and s is half
/// the bracket's slope.
const MARGIN: f64 = 2.0;
/// Probes before the replay gives up and bisects.
const MAX_PROBES: u32 = 6;
/// Bisection steps the replay answers after the memo's.
const REPLAYED: u32 = STEPS - MEMO_LEVELS;

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
    /// `model.state_scaling()`, fixed with the model.
    state_scaling: [f64; 8],
    memo: Memo,
}

/// f at the memo ages for one (P/E, kind); NaN marks an age not yet
/// evaluated.
struct Curve {
    pe_cycles: u32,
    kind: PageKind,
    f: [f64; NODES],
}

#[derive(Default)]
struct Curves {
    curves: Vec<Curve>,
    /// The curve replaced next once all `MEMO_CURVES` are in use.
    next: usize,
}

impl Curves {
    fn get(&mut self, pe_cycles: u32, kind: PageKind) -> &mut [f64; NODES] {
        let found = self
            .curves
            .iter()
            .position(|c| c.pe_cycles == pe_cycles && c.kind == kind);
        let i = found.unwrap_or_else(|| {
            let fresh = Curve {
                pe_cycles,
                kind,
                f: [f64::NAN; NODES],
            };
            if self.curves.len() < MEMO_CURVES {
                self.curves.push(fresh);
                self.curves.len() - 1
            } else {
                let i = self.next;
                self.curves[i] = fresh;
                self.next = (i + 1) % MEMO_CURVES;
                i
            }
        });
        &mut self.curves[i].f
    }
}

/// The bounded, lazily filled memo of f at the first `MEMO_LEVELS`
/// bisection levels. A cache of a pure function: a clone starts empty and
/// equality ignores it. The lock keeps [`SwiftRead`] `Send + Sync`; an
/// inversion that finds it held evaluates f itself.
#[derive(Default)]
struct Memo(Mutex<Curves>);

impl Clone for Memo {
    fn clone(&self) -> Self {
        Memo::default()
    }
}

impl PartialEq for Memo {
    fn eq(&self, _: &Memo) -> bool {
        true
    }
}

impl fmt::Debug for Memo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Memo")
    }
}

/// How one inversion ran (the tests read how).
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(test), allow(dead_code))]
struct Inversion {
    days: f64,
    /// Evaluations of f, memo fills included.
    evals: u32,
    /// Whether the replay's checks failed and plain bisection finished.
    fell_back: bool,
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
            memo: Memo::default(),
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
        let params = self
            .model
            .state_params_scaled(&self.state_scaling, op, process_factor);
        self.observe_ones_with(&params, kind, n_cells, rng)
    }

    /// [`SwiftRead::observe_ones`] from precomputed state distributions
    /// (`ErrorModel::state_params` of the same model).
    pub fn observe_ones_with(
        &self,
        params: &[StateParam; 8],
        kind: PageKind,
        n_cells: usize,
        rng: &mut SimRng,
    ) -> f64 {
        assert!(n_cells > 0, "page must have at least one cell");
        let f = self.model.ones_fraction(params, &self.default_refs, kind);
        let noise_sigma = (f * (1.0 - f) / n_cells as f64).sqrt();
        (f + rng.gaussian_with(0.0, noise_sigma)).clamp(0.0, 1.0)
    }

    /// Inverts an observed ones-fraction into an effective retention age
    /// and returns the optimal references for that age.
    ///
    /// The die knows its own P/E count but not the page's true retention
    /// age or the block's process corner; the ones-count collapses both
    /// into a single drift magnitude. The age is the end of a 40-step
    /// bisection over `[0, 60]` days on f, the ones-fraction at the
    /// default references, with the observation clamped to f's range
    /// there. f is strictly monotone in retention for every kind up to
    /// ≈ 4.5K P/E (tested on a 0.01-day grid to 4 500). Beyond, LSB
    /// turns over (near 55 days at 5K, 27 at 10K) and the bisection
    /// settles on one of the crossings.
    ///
    /// The result is bit-identical to that bisection, at under 5 of its 42
    /// evaluations of f once the memo is warm (DESIGN §12.2): the first
    /// eight steps read a memo, and the other 32 are replayed against a
    /// located crossing, evaluating f only where rounding could decide
    /// the step.
    pub fn refs_from_observation(
        &self,
        pe_cycles: u32,
        kind: PageKind,
        observed_ones: f64,
    ) -> ReadVoltages {
        let aging = self.model.aging(pe_cycles, 0, 1.0);
        let days = self.invert(&aging, pe_cycles, kind, observed_ones).days;
        ReadVoltages::new(self.model.optimal_refs(aging.at(&self.state_scaling, days)))
    }

    fn invert(
        &self,
        aging: &Aging,
        pe_cycles: u32,
        kind: PageKind,
        observed_ones: f64,
    ) -> Inversion {
        let evals = Cell::new(0);
        let f = |days: f64| {
            evals.set(evals.get() + 1);
            let params = aging.at(&self.state_scaling, days);
            self.model.ones_fraction(&params, &self.default_refs, kind)
        };
        let mut guard = self.memo.0.try_lock().ok();
        let mut unshared;
        let nodes = match guard.as_deref_mut() {
            Some(curves) => curves.get(pe_cycles, kind),
            None => {
                unshared = [f64::NAN; NODES];
                &mut unshared
            }
        };
        let mut node = |days: f64| {
            let j = (days / NODE_DAYS) as usize;
            if nodes[j].is_nan() {
                nodes[j] = f(days);
            }
            nodes[j]
        };

        let (f_lo, f_hi) = (node(0.0), node(SEARCH_DAYS));
        let increasing = f_hi > f_lo;
        // Clamp observations outside the representable drift range.
        let target = if increasing {
            observed_ones.clamp(f_lo, f_hi)
        } else {
            observed_ones.clamp(f_hi, f_lo)
        };
        let search = Search { increasing, target };

        // Steps 1–8 from the memo, checking that every midpoint's f lies
        // strictly between its bracket's ends. Each end is `(days, f)`;
        // `outer` is the end the last step dropped, so it and the level-8
        // ends are the level-7 bracket's ends and midpoint.
        let (mut lo, mut hi) = ((0.0, f_lo), (SEARCH_DAYS, f_hi));
        let (mut outer, mut ordered) = (lo, true);
        bisect(lo.0, hi.0, MEMO_LEVELS, |mid| {
            let m = (mid, node(mid));
            ordered &= search.beyond(lo.1, m.1) && search.beyond(m.1, hi.1);
            if search.left(m.1) {
                outer = std::mem::replace(&mut lo, m);
                true
            } else {
                outer = std::mem::replace(&mut hi, m);
                false
            }
        });
        drop(guard);

        let plan = if ordered {
            crossing(search, outer, lo, hi, f)
        } else {
            None
        };
        let (lo, hi) = match plan {
            Some((x, delta)) => bisect(lo.0, hi.0, REPLAYED, |mid| {
                if mid < x - delta {
                    true
                } else if mid > x + delta {
                    false
                } else {
                    search.left(f(mid))
                }
            }),
            None => bisect(lo.0, hi.0, REPLAYED, |mid| search.left(f(mid))),
        };
        Inversion {
            days: 0.5 * (lo + hi),
            evals: evals.get(),
            fell_back: plan.is_none(),
        }
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

/// Which way f runs over the search, and the value the bisection seeks.
#[derive(Clone, Copy)]
struct Search {
    increasing: bool,
    target: f64,
}

impl Search {
    /// The bisection's step rule: whether an age where f = `fm` lies
    /// below the crossing.
    fn left(self, fm: f64) -> bool {
        (fm < self.target) == self.increasing
    }

    /// Whether `b` lies strictly beyond `a` in f's direction.
    fn beyond(self, a: f64, b: f64) -> bool {
        if self.increasing {
            a < b
        } else {
            a > b
        }
    }
}

/// Where the parabola `x(y)` through three `(x, y)` points meets y = 0
/// (inverse quadratic interpolation).
fn inverse_quadratic([(x0, y0), (x1, y1), (x2, y2)]: [(f64, f64); 3]) -> f64 {
    x0 * y1 * y2 / ((y0 - y1) * (y0 - y2))
        + x1 * y0 * y2 / ((y1 - y0) * (y1 - y2))
        + x2 * y0 * y1 / ((y2 - y0) * (y2 - y1))
}

/// Locates the crossing inside the level-8 bracket `lo`–`hi`, whose
/// level-7 parent's other end is `outer` (each `(days, f)`), and the
/// window `Δ` around it outside which a step is decided by its side.
/// `None` when a check fails: the caller bisects.
///
/// Every probe must find f strictly between the ends' values and the
/// secant slope to each end at least `floor`, half the bracket's: an
/// extremum inside the bracket fails that (for a quadratic f, always).
/// Δ is `MARGIN` times the distance over which slope `floor` moves f by
/// `2 · F_ROUNDING`, the most rounding can separate two computed values,
/// so a step further than Δ from the crossing compares f with the target
/// the same way whatever the rounding.
fn crossing(
    search: Search,
    outer: (f64, f64),
    (lo, fl): (f64, f64),
    (hi, fh): (f64, f64),
    f: impl Fn(f64) -> f64,
) -> Option<(f64, f64)> {
    let floor = 0.5 * (fh - fl).abs() / (hi - lo);
    let delta = MARGIN * 2.0 * F_ROUNDING / floor;
    // Slope floor: a window this wide saves nothing over bisecting.
    if delta >= (hi - lo) / 8.0 {
        return None;
    }
    let sound = |x: f64, fx: f64| {
        search.beyond(fl, fx)
            && search.beyond(fx, fh)
            && (fx - fl).abs() >= floor * (x - lo)
            && (fh - fx).abs() >= floor * (hi - x)
    };
    // The crossing at or beyond an end (a clamped or tied target): one
    // probe in the middle.
    let target = search.target;
    let end = if fl == target || !search.left(fl) {
        Some(lo)
    } else if fh == target || search.left(fh) {
        Some(hi)
    } else {
        None
    };
    if let Some(x) = end {
        let mid = 0.5 * (lo + hi);
        return sound(mid, f(mid)).then_some((x, delta));
    }
    // Inverse quadratic interpolation in days through the last three
    // points: first the level-7 bracket's ends and midpoint, which the
    // memo holds, then each probe in place of the oldest; until a step
    // moves the estimate by less than Δ/16.
    let mut points = [outer, (lo, fl), (hi, fh)].map(|(x, fx)| (x, fx - target));
    let mut last = f64::INFINITY;
    for _ in 0..MAX_PROBES {
        let x = inverse_quadratic(points);
        if (x - last).abs() <= delta / 16.0 {
            return Some((x, delta));
        }
        if !(lo < x && x < hi) {
            return None;
        }
        let fx = f(x);
        if !sound(x, fx) {
            return None;
        }
        points = [points[1], points[2], (x, fx - target)];
        last = x;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

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

    /// f at `days`, as the inversion has always computed it.
    fn f_at(sr: &SwiftRead, pe_cycles: u32, kind: PageKind, days: f64) -> f64 {
        let params = sr.model.state_params_scaled(
            &sr.state_scaling,
            OperatingPoint::new(pe_cycles, days),
            1.0,
        );
        sr.model.ones_fraction(&params, &sr.default_refs, kind)
    }

    /// The reference: the plain 40-step bisection, f evaluated at every
    /// step — what `refs_from_observation` computed before the memo and
    /// the replay.
    fn reference_days(sr: &SwiftRead, pe_cycles: u32, kind: PageKind, observed: f64) -> f64 {
        let f = |days: f64| f_at(sr, pe_cycles, kind, days);
        let (f_lo, f_hi) = (f(0.0), f(SEARCH_DAYS));
        let increasing = f_hi > f_lo;
        let target = if increasing {
            observed.clamp(f_lo, f_hi)
        } else {
            observed.clamp(f_hi, f_lo)
        };
        let (lo, hi) = bisect(0.0, SEARCH_DAYS, STEPS, |mid| {
            (f(mid) < target) == increasing
        });
        0.5 * (lo + hi)
    }

    fn invert(sr: &SwiftRead, pe_cycles: u32, kind: PageKind, observed: f64) -> Inversion {
        let aging = sr.model.aging(pe_cycles, 0, 1.0);
        sr.invert(&aging, pe_cycles, kind, observed)
    }

    /// Asserts the inversion equals the reference bit for bit, and the
    /// references it returns equal the reference's.
    fn same_as_reference(sr: &SwiftRead, pe: u32, kind: PageKind, observed: f64) -> Inversion {
        let got = invert(sr, pe, kind, observed);
        let want = reference_days(sr, pe, kind, observed);
        assert_eq!(
            got.days.to_bits(),
            want.to_bits(),
            "pe={pe} {kind} observed={observed:e}: {} vs reference {want} ({got:?})",
            got.days
        );
        let params =
            sr.model
                .state_params_scaled(&sr.state_scaling, OperatingPoint::new(pe, want), 1.0);
        assert_eq!(
            sr.refs_from_observation(pe, kind, observed),
            ReadVoltages::new(sr.model.optimal_refs(params))
        );
        got
    }

    /// A model whose drift is faster and whose erased state is disturbed
    /// harder than the calibrated one's.
    fn altered() -> TlcModel {
        TlcModel {
            retention_a: 0.13,
            read_disturb: 0.05,
            ..TlcModel::calibrated()
        }
    }

    /// One estimator per model, shared by every case (and test thread),
    /// so the memo is exercised warm as well as cold.
    fn shared() -> &'static [SwiftRead; 2] {
        static SHARED: OnceLock<[SwiftRead; 2]> = OnceLock::new();
        SHARED.get_or_init(|| {
            [
                SwiftRead::new(TlcModel::calibrated()),
                SwiftRead::new(altered()),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fast_inversion_equals_the_bisection(
            pe_any in 0u32..12_001,
            pe_warm in 0u32..5,
            warm in any::<bool>(),
            kind in 0usize..3,
            observed in -0.05f64..1.05,
            level in 1u32..41,
            node in any::<u64>(),
        ) {
            let pe = if warm { pe_warm * 1000 } else { pe_any };
            let kind = PageKind::ALL[kind];
            // An age the bisection visits at `level`: its f is a tie.
            let tie_days = SEARCH_DAYS * ((node >> (64 - level)) | 1) as f64
                / (1u64 << level) as f64;
            for sr in shared() {
                let (f0, f60) = (f_at(sr, pe, kind, 0.0), f_at(sr, pe, kind, SEARCH_DAYS));
                for obs in [
                    observed,
                    f_at(sr, pe, kind, tie_days),
                    f0,
                    f60,
                    f0.min(f60) - 1e-3,
                    f0.max(f60) + 1e-3,
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                ] {
                    same_as_reference(sr, pe, kind, obs);
                }
            }
        }
    }

    #[test]
    #[ignore = "1 M cases, ~20 s in release; run by scripts/ci.sh"]
    fn fast_inversion_equals_the_bisection_on_a_million_cases() {
        // Realistic observations (the ones-count of a page of some age on
        // some block) and uniform ones, P/E 0–4000, every kind, on one
        // warm estimator per model.
        let mut rng = SimRng::seed_from(0x5817);
        let (mut evals, mut fallbacks) = (0u64, 0u64);
        let n = 1_000_000;
        for i in 0..n {
            let sr = &shared()[i % 2];
            let pe = if i % 4 < 2 {
                1000 * rng.index(5) as u32
            } else {
                rng.index(4001) as u32
            };
            let kind = PageKind::ALL[rng.index(3)];
            let observed = if i % 3 == 0 {
                rng.uniform_range(-0.05, 1.05)
            } else {
                let op = OperatingPoint::new(pe, rng.uniform_range(0.0, 60.0));
                let factor = rng.uniform_range(0.55, 2.2);
                sr.observe_ones(op, factor, kind, 131_072, &mut rng)
            };
            let got = same_as_reference(sr, pe, kind, observed);
            evals += u64::from(got.evals);
            fallbacks += u64::from(got.fell_back);
        }
        let mean = evals as f64 / n as f64;
        eprintln!("{n} cases: {mean:.2} evaluations of f per inversion, {fallbacks} fallbacks");
        // Seeded, so exact: 16.26. The bound leaves 3 %.
        assert!(mean <= 16.75, "{mean} evaluations per inversion");
    }

    #[test]
    fn ones_fraction_is_strictly_monotone_in_retention_to_4500_pe() {
        let sr = SwiftRead::new(TlcModel::calibrated());
        for pe in (0..=4500).step_by(500) {
            for kind in PageKind::ALL {
                let f = |i: u32| f_at(&sr, pe, kind, f64::from(i) * 0.01);
                let increasing = f(6000) > f(0);
                let mut prev = f(0);
                for i in 1..=6000 {
                    let next = f(i);
                    assert!(
                        if increasing { next > prev } else { next < prev },
                        "pe={pe} {kind}: f not strictly monotone at {} days",
                        f64::from(i) * 0.01
                    );
                    prev = next;
                }
            }
        }
    }

    #[test]
    fn lsb_turns_over_beyond_4500_pe_and_the_inversion_falls_back() {
        let sr = SwiftRead::new(TlcModel::calibrated());
        for pe in [5000, 10_000] {
            let f = |days: f64| f_at(&sr, pe, PageKind::Lsb, days);
            let grid: Vec<f64> = (0..=6000).map(|i| f(f64::from(i) * 0.01)).collect();
            let falls = grid.windows(2).any(|w| w[1] < w[0]);
            let rises = grid.windows(2).any(|w| w[1] > w[0]);
            assert!(falls && rises, "pe={pe}: LSB f is monotone");
            // The all-zeros clamp targets f(60 days), whose crossings
            // straddle the turnover: the walk sees it and falls back. At
            // 10K the first midpoint (30 days) is already past it, so
            // every inversion does.
            let got = same_as_reference(&sr, pe, PageKind::Lsb, 0.0);
            assert!(got.fell_back, "pe={pe}: {got:?}");
            let (f0, f60) = (f(0.0), f(SEARCH_DAYS));
            for i in 0..=200 {
                let observed = f60 + (f0 - f60) * f64::from(i) / 200.0;
                let got = same_as_reference(&sr, pe, PageKind::Lsb, observed);
                assert!(got.fell_back || pe < 10_000, "observed={observed}: {got:?}");
            }
        }
    }

    #[test]
    fn warm_inversions_evaluate_f_at_most_five_times() {
        // A P/E seen once costs no more than the bisection's 42
        // evaluations. A first pass of 600 realistic observations at
        // P/E 2000 warms the memo (and pays for its nodes); the next 600
        // measure the warm cost.
        let mut rng = SimRng::seed_from(42);
        let sr = SwiftRead::new(TlcModel::calibrated());
        let mut observe = |kind| {
            let op = OperatingPoint::new(2000, rng.uniform_range(0.0, 30.0));
            let factor = rng.uniform_range(0.6, 2.0);
            sr.observe_ones(op, factor, kind, 131_072, &mut rng)
        };
        let mut passes = [0u32; 2];
        for (i, kind) in (0..1200).map(|i| (i, PageKind::ALL[i % 3])) {
            let obs = observe(kind);
            let cold = invert(&SwiftRead::new(TlcModel::calibrated()), 2000, kind, obs);
            assert!(cold.evals <= 42, "{cold:?}");
            passes[i / 600] += same_as_reference(&sr, 2000, kind, obs).evals;
        }
        // Seeded, so exact: 5.61 while filling and 4.84 warm. The bounds
        // leave 3 %.
        let [filling, warm] = passes.map(|e| f64::from(e) / 600.0);
        assert!(
            filling <= 5.8,
            "{filling} evaluations per filling inversion"
        );
        assert!(warm <= 5.0, "{warm} evaluations per warm inversion");
    }

    #[test]
    fn the_memo_is_bounded_and_shared_across_threads() {
        let sr = SwiftRead::new(TlcModel::calibrated());
        std::thread::scope(|s| {
            for t in 0..2u32 {
                let sr = &sr;
                s.spawn(move || {
                    for pe in (0..40).map(|i| 100 * i + t) {
                        for kind in PageKind::ALL {
                            same_as_reference(sr, pe, kind, 0.49);
                        }
                    }
                });
            }
        });
        assert_eq!(sr.memo.0.lock().unwrap().curves.len(), MEMO_CURVES);
        fn send_sync<T: Send + Sync>() {}
        send_sync::<SwiftRead>();
        send_sync::<crate::ErrorModel>();
    }

    #[test]
    fn memo_ages_are_the_bisection_midpoints() {
        // Every midpoint of the first eight levels is a node of the memo,
        // and the node index recovers it exactly.
        let mut seen = 0;
        for path in 0u32..(1 << MEMO_LEVELS) {
            let mut step = 0;
            bisect(0.0, SEARCH_DAYS, MEMO_LEVELS, |mid| {
                let j = (mid / NODE_DAYS) as usize;
                assert_eq!(j as f64 * NODE_DAYS, mid);
                step += 1;
                seen += 1;
                path >> (MEMO_LEVELS - step) & 1 == 1
            });
        }
        assert_eq!(seen, MEMO_LEVELS << MEMO_LEVELS);
    }
}
