//! Deterministic random-number utilities.
//!
//! Every stochastic component of the reproduction (error injection, process
//! variation, trace generation, prediction-accuracy sampling) draws from a
//! [`SimRng`] seeded explicitly, so that any experiment can be re-run
//! bit-identically.
//!
//! The generator is a vendored **xoshiro256++** (Blackman & Vigna) seeded
//! through a **SplitMix64** expansion of a 64-bit seed — the same
//! construction `rand`'s `SmallRng` uses on 64-bit targets, carried in-tree
//! so the workspace builds with zero registry dependencies (the evaluation
//! environment is fully offline). SplitMix64 also drives
//! [`SimRng::stream`], which derives statistically independent per-trial
//! streams for the parallel Monte-Carlo harness: trial `i` gets the same
//! stream no matter which worker thread runs it, so multi-threaded sweeps
//! are bit-identical to single-threaded ones.

/// Golden-ratio increment of the SplitMix64 sequence.
const SPLITMIX_PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step: advances `state` and returns the mixed output.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX_PHI);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seedable RNG with the convenience draws the simulator needs.
///
/// Wraps a vendored xoshiro256++ core and adds Gaussian,
/// Poisson-interarrival and Zipf sampling.
///
/// # Example
///
/// ```
/// use rif_events::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    /// xoshiro256++ state; never all-zero.
    s: [u64; 4],
    /// Cached second Gaussian variate from Box–Muller.
    gauss_spare: Option<f64>,
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed (SplitMix64 state expansion).
    pub fn seed_from(seed: u64) -> Self {
        let mut state = seed;
        let s = [
            splitmix64(&mut state),
            splitmix64(&mut state),
            splitmix64(&mut state),
            splitmix64(&mut state),
        ];
        SimRng {
            s,
            gauss_spare: None,
        }
    }

    /// Derives the RNG for trial `index` of a seeded experiment: an
    /// independent stream reachable without generating the preceding
    /// trials' draws. The parallel Monte-Carlo harness gives trial `i`
    /// `SimRng::stream(seed, i)` on whichever worker picks it up, which is
    /// what makes `--threads N` output independent of `N`.
    pub fn stream(seed: u64, index: u64) -> SimRng {
        // SplitMix64 split: jump the stream to a per-index state, then mix
        // once so that consecutive indices land on unrelated seeds.
        let mut state = seed ^ index.wrapping_add(1).wrapping_mul(SPLITMIX_PHI);
        let derived = splitmix64(&mut state);
        SimRng::seed_from(derived)
    }

    /// Next raw 64-bit value (xoshiro256++ output function).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)`: the top 53 bits of a draw scaled by 2⁻⁵³.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        self.bounded(n as u64) as usize
    }

    /// Uniform integer in `[lo, hi)`.
    #[inline]
    pub fn int_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.bounded(hi - lo)
    }

    /// Unbiased uniform draw in `[0, range)` via Lemire's widening-multiply
    /// rejection method.
    #[inline]
    fn bounded(&mut self, range: u64) -> u64 {
        debug_assert!(range > 0);
        // Accept v when the low half of v * range falls in the zone that
        // maps uniformly onto [0, range).
        let zone = (range << range.leading_zeros()).wrapping_sub(1);
        loop {
            let v = self.next_u64();
            let wide = (v as u128) * (range as u128);
            if (wide as u64) <= zone {
                return (wide >> 64) as u64;
            }
        }
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Standard normal variate via Box–Muller.
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Box–Muller: draw u in (0,1] to avoid ln(0).
        let u = 1.0 - self.uniform();
        let v = self.uniform();
        let r = (-2.0 * u.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * v;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal variate with the given mean and standard deviation.
    pub fn gaussian_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }

    /// Log-normal variate: `exp(N(mu, sigma))`.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.gaussian_with(mu, sigma).exp()
    }

    /// Exponential interarrival time with the given rate (events per unit
    /// time); the building block of Poisson arrival processes.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    #[inline]
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "rate must be positive, got {rate}");
        -(1.0 - self.uniform()).ln() / rate
    }

    /// Samples `k` in `[0, n)` from a Zipf distribution with exponent `s`
    /// using a precomputed [`ZipfTable`].
    #[inline]
    pub fn zipf(&mut self, table: &ZipfTable) -> usize {
        table.sample(self.uniform())
    }
}

/// Precomputed CDF for Zipf-distributed sampling over `n` ranks.
///
/// Trace generators use this to model hot/cold page popularity: rank 0 is
/// the hottest LBA region.
///
/// [`sample`](Self::sample) finds its rank in O(1) expected time through a
/// guide table built with the CDF, and returns exactly what a binary
/// search of the CDF returns for every `u` (DESIGN §"Workload synthesis").
#[derive(Debug, Clone)]
pub struct ZipfTable {
    cdf: Vec<f64>,
    /// `G` buckets, `G` a power of two: bucket `j` holds the first rank
    /// whose CDF reaches `j / G`. A power of two makes `u · G` and `j / G`
    /// exact, so a draw's bucket never rounds past the rank it needs.
    guide: Vec<u32>,
}

impl ZipfTable {
    /// Builds the CDF for `n` ranks with exponent `s` (s = 0 is uniform;
    /// larger s concentrates probability on low ranks).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n` exceeds `u32::MAX`, or `s` is negative.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf table needs at least one rank");
        assert!(u32::try_from(n).is_ok(), "Zipf table has too many ranks");
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // `total / total` is exactly 1, above every `u` in [0, 1): the
        // guide build and `sample`'s scan both stop at the last rank.
        debug_assert_eq!(cdf[n - 1], 1.0);
        let buckets = n.next_power_of_two();
        let mut guide = Vec::with_capacity(buckets);
        let mut rank = 0;
        for j in 0..buckets {
            let edge = j as f64 / buckets as f64;
            while cdf[rank] < edge {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        ZipfTable { cdf, guide }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the table has no ranks (never: `new` rejects `n == 0`).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Maps a uniform `u in [0,1)` to a rank: the first rank whose CDF
    /// exceeds `u`, clamped to the last rank.
    ///
    /// The guide bucket of `u` gives a rank at or below the first whose
    /// CDF reaches `u`, and a short scan finds that one. When its CDF
    /// equals `u` (a tie, which plateaus of a steep CDF make possible),
    /// or `u` lies outside [0, 1), the rank comes from a binary search of
    /// the CDF instead, so every `u` gets the binary search's answer.
    #[inline]
    pub fn sample(&self, u: f64) -> usize {
        if !(0.0..1.0).contains(&u) {
            return self.search(u);
        }
        let mut rank = self.guide[(u * self.guide.len() as f64) as usize] as usize;
        while self.cdf[rank] < u {
            rank += 1;
        }
        if self.cdf[rank] == u {
            return self.search(u);
        }
        rank
    }

    /// The binary-search mapping of `u` to a rank: the tie path of
    /// [`sample`](Self::sample) and the reference it is tested against.
    /// Among equal CDF entries the result depends on which one `std`'s
    /// search lands on.
    fn search(&self, u: f64) -> usize {
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("CDF is finite"))
        {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn stream_is_deterministic_and_independent_of_order() {
        let mut a3 = SimRng::stream(99, 3);
        let mut b3 = SimRng::stream(99, 3);
        for _ in 0..32 {
            assert_eq!(a3.next_u64(), b3.next_u64());
        }
        // Different indices and different seeds give different streams.
        let mut c = SimRng::stream(99, 4);
        let mut d = SimRng::stream(100, 3);
        let mut a = SimRng::stream(99, 3);
        let c_same = (0..32).all(|_| a.next_u64() == c.next_u64());
        let mut a = SimRng::stream(99, 3);
        let d_same = (0..32).all(|_| a.next_u64() == d.next_u64());
        assert!(!c_same && !d_same);
    }

    #[test]
    fn stream_indices_are_uncorrelated_statistically() {
        // Adjacent trial indices must not produce correlated uniforms.
        let n = 10_000;
        let mut acc = 0.0;
        for i in 0..64u64 {
            let mut x = SimRng::stream(5, i);
            let mut y = SimRng::stream(5, i + 1);
            let mut dot = 0.0;
            for _ in 0..n {
                dot += (x.uniform() - 0.5) * (y.uniform() - 0.5);
            }
            acc += dot / n as f64;
        }
        assert!((acc / 64.0).abs() < 0.005, "correlation {acc}");
    }

    #[test]
    fn uniform_bounds() {
        let mut r = SimRng::seed_from(3);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
            let v = r.uniform_range(-3.0, 4.0);
            assert!((-3.0..4.0).contains(&v));
        }
    }

    #[test]
    fn index_is_unbiased_over_small_range() {
        let mut r = SimRng::seed_from(41);
        let mut counts = [0usize; 6];
        let trials = 120_000;
        for _ in 0..trials {
            counts[r.index(6)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let frac = c as f64 / trials as f64;
            assert!((frac - 1.0 / 6.0).abs() < 0.01, "face {i}: {frac}");
        }
    }

    #[test]
    fn int_range_respects_bounds() {
        let mut r = SimRng::seed_from(43);
        for _ in 0..10_000 {
            let v = r.int_range(17, 23);
            assert!((17..23).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn gaussian_moments() {
        let mut r = SimRng::seed_from(11);
        let n = 200_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let z = r.gaussian();
            sum += z;
            sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut r = SimRng::seed_from(13);
        let rate = 4.0;
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let table = ZipfTable::new(100, 1.0);
        let mut r = SimRng::seed_from(17);
        let mut counts = [0usize; 100];
        for _ in 0..50_000 {
            counts[r.zipf(&table)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let table = ZipfTable::new(10, 0.0);
        let mut r = SimRng::seed_from(19);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[r.zipf(&table)] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / 100_000.0;
            assert!((frac - 0.1).abs() < 0.01, "frac {frac}");
        }
    }

    #[test]
    fn zipf_sample_edges() {
        let table = ZipfTable::new(4, 1.2);
        assert_eq!(table.sample(0.0), 0);
        assert_eq!(table.sample(0.999_999_9), 3);
        assert_eq!(table.len(), 4);
        assert!(!table.is_empty());
    }

    /// Every (ranks, exponent) pair the exactness tests cover. At s = 4 the
    /// sum stops growing near rank 9 750, so the 65 536-rank table ends in
    /// a long plateau of CDF values equal to 1.
    fn exactness_tables() -> &'static [ZipfTable] {
        static TABLES: std::sync::OnceLock<Vec<ZipfTable>> = std::sync::OnceLock::new();
        TABLES.get_or_init(|| {
            let mut tables = Vec::new();
            for n in [1, 2, 3, 8192, 65_536] {
                for s in [0.0, 0.5, 0.9, 1.5, 4.0] {
                    tables.push(ZipfTable::new(n, s));
                }
            }
            tables
        })
    }

    /// Each CDF value is a tie (`sample` takes the search path there),
    /// and its neighbours mostly are not; each bucket edge `j / G` and its
    /// neighbours probe the guide lookup where a bucket starts and ends.
    #[test]
    fn guided_sample_matches_the_binary_search_everywhere() {
        for table in exactness_tables() {
            let buckets = table.guide.len();
            let edges = (0..buckets).map(|j| j as f64 / buckets as f64);
            let near = (table.cdf.iter().copied().chain(edges))
                .flat_map(|point| [point.next_down(), point, point.next_up()]);
            // 0, the largest u below 1, and u outside [0, 1).
            let fixed = [0.0, 1.0f64.next_down(), -1.0, 1.0, 2.0, f64::INFINITY];
            let n = table.len();
            for u in near.chain(fixed) {
                assert_eq!(table.sample(u), table.search(u), "n {n} u {u:e}");
            }
        }
        let plateau = exactness_tables()
            .iter()
            .any(|t| t.cdf.windows(2).any(|w| w[0] == w[1]));
        assert!(plateau, "no table has a CDF plateau");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]
        #[test]
        fn guided_sample_matches_the_binary_search_on_uniform_draws(
            seed in proptest::prelude::any::<u64>(),
            which in 0usize..25,
        ) {
            let table = &exactness_tables()[which];
            let mut rng = SimRng::seed_from(seed);
            for _ in 0..4096 {
                let u = rng.uniform();
                proptest::prop_assert_eq!(table.sample(u), table.search(u), "u {:e}", u);
            }
        }
    }

    #[test]
    fn log_normal_is_positive() {
        let mut r = SimRng::seed_from(23);
        for _ in 0..1000 {
            assert!(r.log_normal(0.0, 0.5) > 0.0);
        }
    }
}
