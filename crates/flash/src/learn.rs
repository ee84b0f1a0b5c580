//! Online read-threshold learning over device lifetime.
//!
//! The paper's evaluation hands every retry scheme an oracle: per-block
//! RBER/V_REF lookup tables baked from the characterization campaign
//! ([`crate::rber::BlockErrorTable`], [`crate::vref::optimal_voltages`]).
//! A real controller has no such oracle — it only sees decode outcomes.
//! Following the playbook of Peleato et al. ("Adaptive Read Thresholds
//! for NAND Flash") and Cai et al.'s retention-error characterization,
//! this module learns per-block read thresholds *online* from exactly
//! that feedback:
//!
//! * a **pass/fail** verdict per page group;
//! * the **retry count** a group needed before decoding;
//! * the **syndrome weight** of the first decode attempt (how close the
//!   page sat to the correction capability), normalized by ρs;
//! * when a corrective re-read ran, the V_REF offset the on-die
//!   ones-count estimation settled on (the Swift-Read / RVS mechanism of
//!   [`crate::swift_read::SwiftRead`]) — a noisy, unbiased observation
//!   of the true drift.
//!
//! [`ThresholdLearner`] folds these into a per-block scalar V_REF offset
//! (retention loss shifts all seven references down together, which is
//! also how vendor retry sequences step) via a *bounded-step feedback
//! controller*: every update moves the estimate by a bounded step and
//! clamps it into the model's valid offset window
//! ([`LearnerConfig::offset_window`]), so a burst of noisy observations
//! can never fling the references outside the physically meaningful
//! range. The tuning is fixed ([`LearnerConfig::default_paper`]).
//!
//! [`DriftClock`] complements the learner for long serving runs: it
//! converts simulated wall-clock time into additional retention age and
//! P/E wear, so a device visibly *drifts while serving* and the learner
//! has something to chase.
//!
//! Everything here is a pure function of its inputs — no RNG, no
//! ambient time — which is what lets the determinism suite pin
//! byte-identical learner state across thread counts.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;

use crate::vref::ReadVoltages;

/// Tuning of the bounded-step feedback controller. It is fixed:
/// [`LearnerConfig::default_paper`] is the only tuning there is.
///
/// # Example
///
/// ```
/// use rif_flash::learn::LearnerConfig;
///
/// let window = LearnerConfig::default_paper().offset_window();
/// assert!(window.contains(&0.0)); // the default references
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnerConfig {
    /// Proportional gain toward a re-calibration target (0 < gain ≤ 1).
    gain: f64,
    /// Hard bound on the estimate change per update, in volts.
    max_step: f64,
    /// Downward nudge per failed decode that produced no re-calibration
    /// observation (scaled by the retry count).
    fail_step: f64,
    /// Syndrome-weight watermark, as a fraction of ρs: a *passing* read
    /// whose first-attempt weight exceeds this nudges the estimate down
    /// proactively (the learned replacement for SWR+'s oracle tracking).
    warn_frac: f64,
    /// Downward nudge applied on a warn-level pass.
    warn_step: f64,
    /// Tiny upward relaxation on a clean pass: lets the estimate track
    /// *backwards* drift (a block rewritten fresh needs less offset).
    relax_step: f64,
    /// Lower bound of the valid V_REF offset window, in volts.
    min_offset: f64,
    /// Upper bound of the valid V_REF offset window, in volts.
    max_offset: f64,
}

impl LearnerConfig {
    /// Defaults calibrated against the [`crate::vth::TlcModel`] drift
    /// range: a month of retention at 2K P/E shifts the optimal uniform
    /// offset by roughly −0.3 V, well inside the window.
    pub fn default_paper() -> Self {
        LearnerConfig {
            gain: 0.35,
            max_step: 0.05,
            fail_step: 0.012,
            warn_frac: 0.75,
            warn_step: 0.004,
            relax_step: 0.0008,
            min_offset: -0.6,
            max_offset: 0.1,
        }
    }

    /// The valid V_REF offset window, in volts: every estimate stays
    /// inside it.
    pub fn offset_window(&self) -> RangeInclusive<f64> {
        self.min_offset..=self.max_offset
    }
}

/// What the controller observed about one completed page-group read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadOutcome {
    /// Whether the first decode attempt (at the learned references)
    /// failed and the group needed corrective action.
    pub failed: bool,
    /// Corrective rounds the group consumed (in-die and off-chip).
    pub retries: u32,
    /// First-attempt syndrome weight as a fraction of ρs (0 when the
    /// scheme exposes no weight signal to the controller).
    pub syndrome_frac: f64,
    /// Uniform V_REF offset a successful re-calibration settled on
    /// (ones-count inversion), when one ran.
    pub recalibrated_offset: Option<f64>,
}

impl ReadOutcome {
    /// A clean first-attempt pass with no weight signal.
    pub fn clean_pass() -> Self {
        ReadOutcome {
            failed: false,
            retries: 0,
            syndrome_frac: 0.0,
            recalibrated_offset: None,
        }
    }
}

/// Counters describing the learner's activity so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LearnerStats {
    /// Total [`ThresholdLearner::observe`] calls applied.
    pub updates: u64,
    /// Updates that consumed a re-calibration observation.
    pub recalibrations: u64,
    /// Updates whose step was cut short by the valid offset window.
    pub clamps: u64,
}

/// The per-block online threshold estimator.
///
/// # Example
///
/// ```
/// use rif_flash::learn::{LearnerConfig, ReadOutcome, ThresholdLearner};
///
/// let mut l = ThresholdLearner::new(LearnerConfig::default_paper());
/// assert_eq!(l.offset(7), 0.0); // untouched blocks read at the defaults
/// l.observe(
///     7,
///     &ReadOutcome {
///         failed: true,
///         retries: 1,
///         syndrome_frac: 1.4,
///         recalibrated_offset: Some(-0.2),
///     },
/// );
/// assert!(l.offset(7) < 0.0);
/// assert_eq!(l.stats().updates, 1);
/// ```
#[derive(Debug, Clone)]
pub struct ThresholdLearner {
    cfg: LearnerConfig,
    /// Per-block estimated uniform V_REF offset. BTreeMap so iteration
    /// (and therefore every aggregate derived from it) is deterministic.
    est: BTreeMap<u64, f64>,
    stats: LearnerStats,
}

impl ThresholdLearner {
    /// Builds a learner.
    pub fn new(cfg: LearnerConfig) -> Self {
        ThresholdLearner {
            cfg,
            est: BTreeMap::new(),
            stats: LearnerStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &LearnerConfig {
        &self.cfg
    }

    /// Current offset estimate for a block (0 until first observed:
    /// an unknown block reads at the manufacturer defaults).
    pub fn offset(&self, block: u64) -> f64 {
        self.est.get(&block).copied().unwrap_or(0.0)
    }

    /// The references this block should be read at, derived from `base`
    /// (normally the model's default references). A uniform offset
    /// preserves strict ordering, and the window clamp keeps it in the
    /// model's valid range, so this can never panic.
    pub fn refs_for(&self, block: u64, base: ReadVoltages) -> ReadVoltages {
        base.offset_all(self.offset(block))
    }

    /// Folds one read outcome into the block's estimate.
    ///
    /// The controller is deliberately simple and bounded:
    ///
    /// * a re-calibration observation pulls the estimate toward it by a
    ///   fixed gain (an EMA over unbiased noisy targets — this is the
    ///   main convergence mechanism);
    /// * a failure without an observation nudges downward (retention
    ///   drift is downward) proportionally to the retry count;
    /// * a high-syndrome-weight pass nudges downward proactively;
    /// * a clean pass relaxes slightly upward, tracking rewrites.
    ///
    /// Every update is clamped to a maximum step and into the valid
    /// offset window. Pure: no randomness, no ambient state.
    pub fn observe(&mut self, block: u64, outcome: &ReadOutcome) {
        let est = self.offset(block);
        let c = &self.cfg;
        let raw = match outcome.recalibrated_offset {
            Some(target) if target.is_finite() => c.gain * (target - est),
            _ if outcome.failed => -c.fail_step * (1 + outcome.retries) as f64,
            _ if outcome.syndrome_frac > c.warn_frac => -c.warn_step,
            _ => c.relax_step,
        };
        let step = raw.clamp(-c.max_step, c.max_step);
        let next = est + step;
        let clamped = next.clamp(c.min_offset, c.max_offset);
        if clamped != next {
            self.stats.clamps += 1;
        }
        self.est.insert(block, clamped);
        self.stats.updates += 1;
        if outcome.recalibrated_offset.is_some() {
            self.stats.recalibrations += 1;
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> LearnerStats {
        self.stats
    }

    /// Number of blocks with a learned estimate.
    pub fn blocks_tracked(&self) -> usize {
        self.est.len()
    }

    /// Iterates `(block, offset)` estimates in block order.
    pub fn estimates(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.est.iter().map(|(&b, &o)| (b, o))
    }

    /// Mean absolute estimate error against a per-block ground truth
    /// (the oracle's optimal offset), over all tracked blocks. Returns 0
    /// when nothing is tracked.
    pub fn mean_abs_error(&self, oracle: impl Fn(u64) -> f64) -> f64 {
        if self.est.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.est.iter().map(|(&b, &o)| (o - oracle(b)).abs()).sum();
        sum / self.est.len() as f64
    }

    /// Snapshots the learner's estimates and counters for transfer (the
    /// cluster layer ships this across nodes during shard handoff).
    pub fn export_state(&self) -> LearnerState {
        LearnerState {
            estimates: self.est.iter().map(|(&b, &o)| (b, o)).collect(),
            stats: self.stats,
        }
    }

    /// Rebuilds a learner from a snapshot. Offsets are clamped into the
    /// valid window (the snapshot arrives off the wire, so nothing
    /// vouches for it), and the counters resume where the source left
    /// off — the continuity the cluster handoff test pins.
    pub fn restore(cfg: LearnerConfig, state: &LearnerState) -> Self {
        ThresholdLearner {
            est: state
                .estimates
                .iter()
                .map(|&(b, o)| (b, o.clamp(cfg.min_offset, cfg.max_offset)))
                .collect(),
            stats: state.stats,
            cfg,
        }
    }
}

/// Why a learner-state text failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LearnerStateError {
    /// The first line is not the expected `# rif-learner v1 ...` header.
    BadHeader,
    /// A line is not `block <id> <offset>` (1-based line number).
    BadLine(usize),
    /// A block offset is not a finite number (1-based line number).
    BadOffset(usize),
    /// A block id repeats (1-based line number of the repeat).
    DuplicateBlock(usize),
}

impl std::fmt::Display for LearnerStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LearnerStateError::BadHeader => write!(f, "missing or malformed rif-learner header"),
            LearnerStateError::BadLine(n) => write!(f, "line {n}: expected `block <id> <offset>`"),
            LearnerStateError::BadOffset(n) => write!(f, "line {n}: offset is not a finite number"),
            LearnerStateError::DuplicateBlock(n) => write!(f, "line {n}: duplicate block id"),
        }
    }
}

impl std::error::Error for LearnerStateError {}

/// A portable snapshot of a [`ThresholdLearner`]: per-block estimates
/// plus the activity counters, with a strict line-oriented text codec
/// for the wire.
///
/// # Example
///
/// ```
/// use rif_flash::learn::{LearnerConfig, LearnerState, ReadOutcome, ThresholdLearner};
///
/// let mut l = ThresholdLearner::new(LearnerConfig::default_paper());
/// l.observe(7, &ReadOutcome { failed: true, retries: 1, syndrome_frac: 0.0, recalibrated_offset: None });
/// let text = l.export_state().to_text();
/// let restored = ThresholdLearner::restore(
///     LearnerConfig::default_paper(),
///     &LearnerState::parse_text(&text).unwrap(),
/// );
/// assert_eq!(restored.offset(7), l.offset(7));
/// assert_eq!(restored.stats(), l.stats());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LearnerState {
    /// `(block, offset)` estimates in strictly increasing block order.
    pub estimates: Vec<(u64, f64)>,
    /// Activity counters carried across the handoff.
    pub stats: LearnerStats,
}

impl LearnerState {
    /// Canonical text serialization: one header line with the counters,
    /// then one `block <id> <offset>` line per estimate in block order.
    /// Offsets print in shortest-roundtrip form, so
    /// `parse_text(to_text())` is exact.
    pub fn to_text(&self) -> String {
        self.to_text_capped(usize::MAX)
    }

    /// As [`to_text`](Self::to_text), but stops adding block lines once
    /// the next line would push the text past `max_bytes`. The learner
    /// state is a performance hint, so a transfer bounded by the wire's
    /// frame cap simply carries the lowest-numbered blocks that fit.
    pub fn to_text_capped(&self, max_bytes: usize) -> String {
        let s = &self.stats;
        let mut out = format!(
            "# rif-learner v1 updates={} recalibrations={} clamps={}\n",
            s.updates, s.recalibrations, s.clamps
        );
        for &(b, o) in &self.estimates {
            let line = format!("block {b} {o:?}\n");
            if out.len() + line.len() > max_bytes {
                break;
            }
            out.push_str(&line);
        }
        out
    }

    /// Strict parse of the text form. Blank lines are rejected — the
    /// codec is canonical, not forgiving.
    pub fn parse_text(text: &str) -> Result<LearnerState, LearnerStateError> {
        let mut lines = text.lines();
        let header = lines.next().ok_or(LearnerStateError::BadHeader)?;
        let rest = header
            .strip_prefix("# rif-learner v1 ")
            .ok_or(LearnerStateError::BadHeader)?;
        let mut stats = LearnerStats::default();
        let mut fields = rest.split(' ');
        for (name, slot) in [
            ("updates", &mut stats.updates as &mut u64),
            ("recalibrations", &mut stats.recalibrations),
            ("clamps", &mut stats.clamps),
        ] {
            let kv = fields.next().ok_or(LearnerStateError::BadHeader)?;
            let v = kv
                .strip_prefix(name)
                .and_then(|s| s.strip_prefix('='))
                .ok_or(LearnerStateError::BadHeader)?;
            *slot = v.parse().map_err(|_| LearnerStateError::BadHeader)?;
        }
        if fields.next().is_some() {
            return Err(LearnerStateError::BadHeader);
        }

        let mut estimates: Vec<(u64, f64)> = Vec::new();
        for (i, line) in lines.enumerate() {
            let lineno = i + 2;
            let mut parts = line.split(' ');
            if parts.next() != Some("block") {
                return Err(LearnerStateError::BadLine(lineno));
            }
            let (Some(id), Some(off), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(LearnerStateError::BadLine(lineno));
            };
            let id: u64 = id.parse().map_err(|_| LearnerStateError::BadLine(lineno))?;
            let off: f64 = off
                .parse()
                .map_err(|_| LearnerStateError::BadOffset(lineno))?;
            if !off.is_finite() {
                return Err(LearnerStateError::BadOffset(lineno));
            }
            if let Some(&(last, _)) = estimates.last() {
                if id <= last {
                    return Err(LearnerStateError::DuplicateBlock(lineno));
                }
            }
            estimates.push((id, off));
        }
        Ok(LearnerState { estimates, stats })
    }
}

/// Advances retention age and P/E wear during long runs.
///
/// Simulated I/O time is microseconds while drift acts over days, so
/// the clock applies a time-acceleration factor: `days_per_sec` extra
/// retention days and `pe_per_sec` extra program/erase cycles per
/// simulated second. Disabled (all zero) it contributes exactly nothing
/// — the oracle-mode golden outputs depend on that.
///
/// # Example
///
/// ```
/// use rif_flash::learn::DriftClock;
///
/// let d = DriftClock { days_per_sec: 400.0, pe_per_sec: 0.0 };
/// assert!(d.enabled());
/// assert!((d.extra_days(0.01) - 4.0).abs() < 1e-12);
/// assert_eq!(DriftClock::disabled().extra_pe(10.0), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftClock {
    /// Extra retention days per simulated second.
    pub days_per_sec: f64,
    /// Extra P/E cycles per simulated second.
    pub pe_per_sec: f64,
}

impl DriftClock {
    /// The no-drift clock (the paper's static operating points).
    pub fn disabled() -> Self {
        DriftClock {
            days_per_sec: 0.0,
            pe_per_sec: 0.0,
        }
    }

    /// True when the clock advances anything.
    pub fn enabled(&self) -> bool {
        self.days_per_sec > 0.0 || self.pe_per_sec > 0.0
    }

    /// Retention days accrued after `elapsed_secs` of simulated time.
    pub fn extra_days(&self, elapsed_secs: f64) -> f64 {
        self.days_per_sec * elapsed_secs.max(0.0)
    }

    /// P/E cycles accrued after `elapsed_secs` of simulated time.
    pub fn extra_pe(&self, elapsed_secs: f64) -> u32 {
        let x = self.pe_per_sec * elapsed_secs.max(0.0);
        if x >= u32::MAX as f64 {
            u32::MAX
        } else {
            x as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vth::TlcModel;

    fn learner() -> ThresholdLearner {
        ThresholdLearner::new(LearnerConfig::default_paper())
    }

    #[test]
    fn untouched_blocks_read_at_defaults() {
        let l = learner();
        assert_eq!(l.offset(0), 0.0);
        assert_eq!(l.blocks_tracked(), 0);
        let model = TlcModel::calibrated();
        let base = ReadVoltages::new(model.default_refs());
        assert_eq!(l.refs_for(42, base), base);
    }

    #[test]
    fn recalibration_pulls_toward_target() {
        let mut l = learner();
        let target = -0.2;
        for _ in 0..60 {
            l.observe(
                3,
                &ReadOutcome {
                    failed: true,
                    retries: 1,
                    syndrome_frac: 1.2,
                    recalibrated_offset: Some(target),
                },
            );
        }
        assert!((l.offset(3) - target).abs() < 0.01, "est {}", l.offset(3));
        assert_eq!(l.stats().recalibrations, 60);
    }

    #[test]
    fn steps_are_bounded() {
        let mut l = learner();
        l.observe(
            1,
            &ReadOutcome {
                failed: true,
                retries: 4,
                syndrome_frac: 3.0,
                recalibrated_offset: Some(-10.0),
            },
        );
        let max = l.config().max_step;
        assert!(l.offset(1) >= -max - 1e-12, "first step {}", l.offset(1));
    }

    #[test]
    fn estimates_never_leave_window() {
        let mut l = learner();
        for i in 0..500u64 {
            // 250 pulls toward -100, then 250 toward +100: both walks
            // must run into the window and stop there.
            let target = if i < 250 { -100.0 } else { 100.0 };
            l.observe(
                0,
                &ReadOutcome {
                    failed: true,
                    retries: 3,
                    syndrome_frac: 5.0,
                    recalibrated_offset: Some(target),
                },
            );
            let o = l.offset(0);
            assert!(
                l.config().offset_window().contains(&o),
                "offset {o} escaped"
            );
        }
        assert!(l.stats().clamps > 0, "window never engaged");
    }

    #[test]
    fn fail_without_recal_steps_down_and_pass_relaxes_up() {
        let mut l = learner();
        l.observe(
            9,
            &ReadOutcome {
                failed: true,
                retries: 2,
                syndrome_frac: 0.0,
                recalibrated_offset: None,
            },
        );
        let after_fail = l.offset(9);
        assert!(after_fail < 0.0);
        l.observe(9, &ReadOutcome::clean_pass());
        assert!(l.offset(9) > after_fail);
    }

    #[test]
    fn warn_weight_nudges_down_proactively() {
        let mut l = learner();
        l.observe(
            5,
            &ReadOutcome {
                failed: false,
                retries: 0,
                syndrome_frac: 0.9,
                recalibrated_offset: None,
            },
        );
        assert!(l.offset(5) < 0.0, "warn pass did not step down");
    }

    #[test]
    fn observe_is_pure_and_deterministic() {
        let outcomes: Vec<ReadOutcome> = (0..200)
            .map(|i| ReadOutcome {
                failed: i % 3 == 0,
                retries: (i % 4) as u32,
                syndrome_frac: (i % 7) as f64 / 5.0,
                recalibrated_offset: if i % 5 == 0 {
                    Some(-0.01 * (i % 30) as f64)
                } else {
                    None
                },
            })
            .collect();
        let run = || {
            let mut l = learner();
            for (i, o) in outcomes.iter().enumerate() {
                l.observe((i % 8) as u64, o);
            }
            l.estimates()
                .map(|(b, o)| (b, o.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "same stream, different estimates");
    }

    #[test]
    fn mean_abs_error_tracks_oracle() {
        let mut l = learner();
        for _ in 0..80 {
            l.observe(
                1,
                &ReadOutcome {
                    failed: true,
                    retries: 1,
                    syndrome_frac: 1.0,
                    recalibrated_offset: Some(-0.25),
                },
            );
        }
        let err = l.mean_abs_error(|_| -0.25);
        assert!(err < 0.01, "error {err}");
        assert_eq!(learner().mean_abs_error(|_| 1.0), 0.0);
    }

    #[test]
    fn drift_clock_accrues_linearly() {
        let d = DriftClock {
            days_per_sec: 100.0,
            pe_per_sec: 50_000.0,
        };
        assert!((d.extra_days(0.5) - 50.0).abs() < 1e-12);
        assert_eq!(d.extra_pe(0.5), 25_000);
        assert_eq!(d.extra_days(-1.0), 0.0);
        assert!(!DriftClock::disabled().enabled());
    }

    #[test]
    fn state_roundtrips_through_text_exactly() {
        let mut l = learner();
        for i in 0..40u64 {
            l.observe(
                i * 7,
                &ReadOutcome {
                    failed: i % 3 == 0,
                    retries: (i % 4) as u32,
                    syndrome_frac: 0.9,
                    recalibrated_offset: if i % 5 == 0 { Some(-0.31) } else { None },
                },
            );
        }
        let state = l.export_state();
        let parsed = LearnerState::parse_text(&state.to_text()).unwrap();
        assert_eq!(parsed, state);
        let restored = ThresholdLearner::restore(LearnerConfig::default_paper(), &parsed);
        assert_eq!(restored.stats(), l.stats());
        for i in 0..40u64 {
            assert_eq!(restored.offset(i * 7), l.offset(i * 7));
        }
    }

    #[test]
    fn state_parse_rejects_malformed_text() {
        use LearnerStateError as E;
        let cases = [
            ("", E::BadHeader),
            (
                "# rif-learner v2 updates=0 recalibrations=0 clamps=0\n",
                E::BadHeader,
            ),
            (
                "# rif-learner v1 updates=x recalibrations=0 clamps=0\n",
                E::BadHeader,
            ),
            ("# rif-learner v1 updates=0 recalibrations=0\n", E::BadHeader),
            (
                "# rif-learner v1 updates=0 recalibrations=0 clamps=0 extra=1\n",
                E::BadHeader,
            ),
            (
                "# rif-learner v1 updates=0 recalibrations=0 clamps=0\nblk 1 0.0\n",
                E::BadLine(2),
            ),
            (
                "# rif-learner v1 updates=0 recalibrations=0 clamps=0\nblock 1\n",
                E::BadLine(2),
            ),
            (
                "# rif-learner v1 updates=0 recalibrations=0 clamps=0\nblock 1 0.0 9\n",
                E::BadLine(2),
            ),
            (
                "# rif-learner v1 updates=0 recalibrations=0 clamps=0\nblock 1 NaN\n",
                E::BadOffset(2),
            ),
            (
                "# rif-learner v1 updates=0 recalibrations=0 clamps=0\nblock 2 0.0\nblock 1 0.0\n",
                E::DuplicateBlock(3),
            ),
            (
                "# rif-learner v1 updates=0 recalibrations=0 clamps=0\nblock 1 0.0\n\nblock 2 0.0\n",
                E::BadLine(3),
            ),
        ];
        for (text, want) in cases {
            assert_eq!(LearnerState::parse_text(text), Err(want), "text {text:?}");
        }
    }

    #[test]
    fn restore_clamps_into_the_new_window() {
        let state = LearnerState {
            estimates: vec![(1, -5.0), (2, 5.0)],
            stats: LearnerStats::default(),
        };
        let window = LearnerConfig::default_paper().offset_window();
        let l = ThresholdLearner::restore(LearnerConfig::default_paper(), &state);
        assert_eq!(l.offset(1), *window.start());
        assert_eq!(l.offset(2), *window.end());
    }

    #[test]
    fn capped_export_keeps_header_and_prefix() {
        let state = LearnerState {
            estimates: (0..100).map(|i| (i, -0.01)).collect(),
            stats: LearnerStats::default(),
        };
        let full = state.to_text();
        let capped = state.to_text_capped(120);
        assert!(capped.len() <= 120);
        assert!(full.starts_with(&capped));
        let parsed = LearnerState::parse_text(&capped).unwrap();
        assert!(parsed.estimates.len() < 100);
        assert!(!parsed.estimates.is_empty());
    }
}
