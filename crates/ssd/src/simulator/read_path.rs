//! The read path of an admitted request: slot groups, what the scheme's
//! row says happens to each (sample the predictor, sample the decode,
//! terminate early), retries, and the threshold learner fed by the
//! outcome.

use super::*;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum GroupPhase {
    /// First sense + transfer + decode.
    Initial,
    /// SENC only: transferring sentinel cells before the corrective read.
    SentinelRead,
    /// Corrective re-read after a decode failure.
    Retry,
}

#[derive(Debug)]
pub(super) struct ReadGroup {
    /// Slot of the owning request in the request table.
    pub(super) req: usize,
    slot: u64,
    pub(super) loc: SlotLocation,
    pub(super) n_pages: usize,
    /// P/E count the group is read at (drift-adjusted when the drift
    /// clock runs): what a re-calibrating die knows of its wear.
    pe_cycles: u32,
    /// V_TH distributions of the slot's block at the group's operating
    /// point, evaluated once: every reference set, ones-count and
    /// learner score of the group is priced from them.
    params: [StateParam; 8],
    /// RBER at the oracle's optimal references, what an oracle retry
    /// senses at: priced where it is first read (the initial sense of a
    /// V_REF-tracking row, else the first corrective read), then kept.
    /// Always `None` in learned mode, whose retries re-calibrate.
    rber_optimal: Option<f64>,
    /// RBER of the currently sensed data.
    cur_rber: f64,
    /// RBER the first decode attempt saw (the syndrome-weight signal the
    /// learned controller observes).
    first_rber: f64,
    /// Uniform V_REF offset the latest ones-count re-calibration settled
    /// on (learned mode only).
    recal_offset: Option<f64>,
    /// Whether every page of the current phase fails its decode.
    pub(super) decode_fails: bool,
    /// Per-page latency the ECC engine spends in the current phase.
    pub(super) decode_duration: SimDuration,
    /// Pages still owed a decode (or sentinel transfer) in the current
    /// phase.
    pub(super) pages_remaining: usize,
    pub(super) phase: GroupPhase,
    attempt: u32,
    /// Whether the on-die engine retried before the transfer.
    retried_in_die: bool,
    /// RBER amplification of the cell mode holding the slot (1 for TLC;
    /// set from the [`AmpTable`] in hybrid mode).
    amp: f64,
    /// Trace span covering the group's life (0 when tracing is off).
    pub(super) span: u64,
}

/// The TLC-calibrated `rber` as a cell mode of amplification `amp` sees it.
fn amplified(amp: f64, rber: f64) -> f64 {
    (rber * amp).clamp(AMPLIFIED_RBER_FLOOR, AMPLIFIED_RBER_CAP)
}

impl Simulator {
    pub(super) fn admit_read(&mut self, now: SimTime, req: usize) {
        let slots = self.slots_of(req);
        self.requests[req].remaining = slots.len();
        for (slot, pages) in slots {
            let gid = self.new_read_group(now, req, slot, pages);
            let retried = self.groups[gid].retried_in_die;
            let duration = self.cfg.retry.initial_sense(&self.cfg.timing, retried);
            self.enqueue_read_sense(now, gid, duration);
        }
    }

    fn new_read_group(&mut self, now: SimTime, req: usize, slot: u64, n_pages: usize) -> usize {
        let loc = self.ftl.locate_read(slot);
        let reads = self.ftl.note_read(loc);
        let (drift_days, drift_pe) = self.drift_at(now);
        let op = OperatingPoint {
            pe_cycles: self.cfg.pe_cycles.saturating_add(drift_pe),
            retention_days: self.retention.age_days(slot, now) + drift_days,
            reads,
        };
        let block = self.block_profile(loc);
        let block_id = loc.global_block(&self.cfg.geometry);
        let kind = loc.kind();
        // Hybrid mode reads the TLC-calibrated error model through the
        // cell mode's amplification factor: SLC-cache reads are
        // effectively error-free, QLC capacity reads far noisier.
        let amp = match self.hybrid.as_ref() {
            Some(h) => h.amp.factor(
                self.ftl.mode_of(loc, h.conf.capacity_mode),
                op.retention_days,
            ),
            None => 1.0,
        };
        let amplify = |rber: f64| amplified(amp, rber);
        // One evaluation of the block's V_TH distributions prices every
        // reference set this read is tried at.
        let model = &self.error_model;
        let params = model.state_params(block, op);
        let (initial, rber_optimal) = match &self.learner {
            // Learned mode: every scheme starts from the controller's
            // current per-block V_REF estimate, not the oracle tables.
            Some(l) => {
                let refs = l.refs_for(block_id, model.default_refs());
                (amplify(model.rber_at_with(&params, refs, kind)), None)
            }
            None => {
                let rber_default = amplify(model.rber_default_with(&params, kind));
                let mut optimal = None;
                let initial = self.cfg.retry.initial_rber(rber_default, || {
                    *optimal.insert(amplify(model.rber_optimal_with(&params, kind)))
                });
                (initial, optimal)
            }
        };
        let group = ReadGroup {
            req,
            slot,
            loc,
            n_pages,
            pe_cycles: op.pe_cycles,
            params,
            rber_optimal,
            cur_rber: initial,
            first_rber: initial,
            recal_offset: None,
            decode_fails: false,
            decode_duration: SimDuration::ZERO,
            pages_remaining: 0,
            phase: GroupPhase::Initial,
            attempt: 0,
            retried_in_die: false,
            amp,
            span: 0,
        };
        let gid = self.groups.insert(group);
        self.setup_initial_phase(gid);
        let r = &self.requests[req];
        self.groups[gid].span =
            self.tracer
                .span_begin(now, "group", Some(r.span), None, Some(r.id), None);
        if self.groups[gid].retried_in_die {
            self.tally(now, |s| &mut s.in_die_retries, "retries.in_die", 1);
            if self.groups[gid].recal_offset.is_some() {
                self.emit_recal_marker(now, gid);
            }
        }
        gid
    }

    /// Extra retention days and P/E cycles the drift clock has put on the
    /// flash by `now`: long serving runs age while serving. Nothing while
    /// the clock is off.
    #[inline]
    pub(super) fn drift_at(&self, now: SimTime) -> (f64, u32) {
        let drift = &self.cfg.drift;
        if !drift.enabled() {
            return (0.0, 0);
        }
        let secs = now.since(SimTime::ZERO).as_ns() as f64 / 1e9;
        (drift.extra_days(secs), drift.extra_pe(secs))
    }

    /// Deterministic per-block process variation: drawn from the
    /// block's own seed on its first read, kept for the later ones.
    fn block_profile(&mut self, loc: SlotLocation) -> BlockProfile {
        let id = loc.global_block(&self.cfg.geometry);
        if self.block_factors.is_empty() {
            self.block_factors = vec![0.0; self.dies.len() * self.cfg.geometry.blocks_per_plane];
        }
        let factor = &mut self.block_factors[id as usize];
        if *factor == 0.0 {
            let mut rng = SimRng::seed_from(id.wrapping_mul(0x517C_C1B7_2722_0A95) ^ self.cfg.seed);
            *factor = BlockProfile::sample(&mut rng).factor;
        }
        BlockProfile { factor: *factor }
    }

    fn forced_fail(&self, slot: u64) -> Option<bool> {
        self.cfg
            .forced_failure_slots
            .as_ref()
            .map(|f| f.contains(&slot))
    }

    /// Decides the first sense's outcome. A row with a predictor draws
    /// RP's verdict first (the plant's, in a planted run); a retry
    /// verdict re-senses in the die (RiF) or cuts the decode to the tPRED
    /// check and retries (RPSSD), and every other sense decodes as-is.
    fn setup_initial_phase(&mut self, gid: usize) {
        let initial = self.groups[gid].cur_rber;
        let forced = self.forced_fail(self.groups[gid].slot);
        let predictor = self.cfg.retry.predictor();
        let rp_says_retry = predictor != Predictor::None
            && forced.unwrap_or_else(|| self.cfg.rp.sample_retry(initial, &mut self.rng));
        let (cur, recal, (dur, fails)) = match (rp_says_retry, predictor) {
            (true, Predictor::OnDie) => {
                // Re-sensed before any transfer; a planted re-sense passes.
                let (rber, recal) = self.corrective_rber(gid);
                (rber, recal, self.decode(rber, forced.map(|_| false)))
            }
            // The page retries whether or not it would have decoded (a
            // false positive), so no outcome is drawn.
            (true, _) => (initial, None, (self.cfg.timing.t_pred, true)),
            // A missed prediction still fails at the off-chip decoder.
            (false, _) => (initial, None, self.decode(initial, forced)),
        };
        let g = &mut self.groups[gid];
        g.cur_rber = cur;
        g.first_rber = cur;
        g.recal_offset = recal;
        g.decode_fails = fails;
        g.decode_duration = dur;
        g.attempt = 1;
        g.retried_in_die = rp_says_retry && predictor == Predictor::OnDie;
    }

    /// RBER of a corrective re-sense. The oracle senses at near-optimal
    /// references. Learned mode runs the ones-count re-calibration (the
    /// Swift-Read / RVS flow) for the group's block: the RBER at the
    /// references it selects, and the uniform offset they apply relative
    /// to the defaults — the noisy drift observation the learner consumes.
    fn corrective_rber(&mut self, gid: usize) -> (f64, Option<f64>) {
        let Some(sw) = &self.swift else {
            let g = &mut self.groups[gid];
            let model = &self.error_model;
            let rber = *g.rber_optimal.get_or_insert_with(|| {
                amplified(g.amp, model.rber_optimal_with(&g.params, g.loc.kind()))
            });
            return (rber, None);
        };
        let g = &self.groups[gid];
        let kind = g.loc.kind();
        let n_cells = self.cfg.geometry.page_bytes * 8;
        let observed = sw.observe_ones_with(&g.params, kind, n_cells, &mut self.rng);
        let refs = sw.refs_from_observation(g.pe_cycles, kind, observed);
        let defaults = self.error_model.default_refs();
        let offset = refs
            .as_array()
            .iter()
            .zip(defaults.as_array())
            .map(|(r, d)| r - d)
            .sum::<f64>()
            / 7.0;
        let rber = self.error_model.rber_at_with(&g.params, refs, kind);
        (amplified(g.amp, rber), Some(offset))
    }

    /// Marks a learned re-calibration in the trace: a zero-length `retry`
    /// span with a nested zero-length `recal` child under the group span
    /// (the invariant the trace checker's learner rule pins).
    fn emit_recal_marker(&mut self, now: SimTime, gid: usize) {
        let parent = self.groups[gid].span;
        let req = Some(self.requests[self.groups[gid].req].id);
        let retry = self
            .tracer
            .span_begin(now, "retry", Some(parent), None, req, None);
        let recal = self
            .tracer
            .span_begin(now, "recal", Some(retry), None, req, None);
        self.tracer.span_end(now, recal);
        self.tracer.span_end(now, retry);
    }

    /// Per-page ECC-engine occupancy and outcome of a decode at `rber`:
    /// the `planted` outcome when there is one, else a drawn one. A
    /// failure burns the whole iteration budget.
    fn decode(&mut self, rber: f64, planted: Option<bool>) -> (SimDuration, bool) {
        if self.cfg.retry.never_fails() {
            return (self.cfg.ecc.t_ecc(rber.min(0.004)), false);
        }
        if planted.unwrap_or_else(|| self.cfg.ecc.sample_failure(rber, &mut self.rng)) {
            (self.cfg.ecc.t_ecc_failure(), true)
        } else {
            (self.cfg.ecc.t_ecc(rber), false)
        }
    }

    pub(super) fn begin_retry(&mut self, now: SimTime, gid: usize) {
        let kind = self.groups[gid].loc.kind();
        if self.groups[gid].phase == GroupPhase::Initial && self.cfg.retry.sentinel_extra_read(kind)
        {
            // SENC: read and transfer the sentinel cells before the
            // corrective re-read.
            self.groups[gid].phase = GroupPhase::SentinelRead;
            self.count(now, "retry.sentinel_reads", 1);
            self.enqueue_read_sense(now, gid, self.cfg.timing.t_r);
        } else {
            self.schedule_retry_sense(now, gid);
        }
    }

    pub(super) fn schedule_retry_sense(&mut self, now: SimTime, gid: usize) {
        self.count(now, "retry.rounds", 1);
        let duration = self.cfg.retry.retry_sense(&self.cfg.timing);
        let attempt = self.groups[gid].attempt + 1;
        let (retry_rber, recal) = self.corrective_rber(gid);
        if recal.is_some() {
            self.emit_recal_marker(now, gid);
        }
        // A planted run's retry passes. After four attempts assume the
        // vendor sequence exhausted and plant success, counted under
        // `retry.forced_success`: TLC reads at the paper's wear stages
        // never get here, but QLC reads and late learned-mode reads
        // sometimes do.
        let planted = if self.forced_fail(self.groups[gid].slot).is_some() {
            Some(false)
        } else if attempt > 4 {
            self.count(now, "retry.forced_success", 1);
            Some(false)
        } else {
            None
        };
        let (dur, fails) = self.decode(retry_rber, planted);
        let g = &mut self.groups[gid];
        g.phase = GroupPhase::Retry;
        g.attempt = attempt;
        g.cur_rber = retry_rber;
        g.recal_offset = recal; // stays `None` in oracle mode
        g.decode_fails = fails;
        g.decode_duration = dur;
        self.enqueue_read_sense(now, gid, duration);
    }

    pub(super) fn group_done(&mut self, now: SimTime, gid: usize) {
        if self.learner.is_some() {
            self.learner_update(now, gid);
        }
        let req = self.groups[gid].req;
        self.tracer.span_end(now, self.groups[gid].span);
        // Every page of the group has been transferred and decoded:
        // nothing queued names it any more.
        self.groups.release(gid);
        self.requests[req].remaining -= 1;
        if self.requests[req].remaining == 0 {
            self.host_enqueue(now, HostJob::ReadCompletion { req });
        }
    }

    /// Folds a finished group's outcome into the threshold learner and
    /// scores the updated estimate against the oracle's optimal offset.
    fn learner_update(&mut self, now: SimTime, gid: usize) {
        let g = &self.groups[gid];
        let block_id = g.loc.global_block(&self.cfg.geometry);
        let outcome = ReadOutcome {
            failed: g.attempt > 1 || g.retried_in_die,
            retries: g.attempt.saturating_sub(1) + u32::from(g.retried_in_die),
            syndrome_frac: if self.cfg.retry.sees_syndrome_weight() {
                self.cfg.rp.expected_weight_fraction(g.first_rber)
            } else {
                0.0
            },
            recalibrated_offset: g.recal_offset,
        };
        let learner = self.learner.as_mut().expect("learner checked by caller");
        learner.observe(block_id, &outcome);
        let est = learner.offset(block_id);
        let truth = self.error_model.optimal_offset_with(&g.params);
        let err = (est - truth).abs();
        self.learn_err_sum += err;
        self.learn_err_samples += 1;
        self.count(now, "learner.updates", 1);
        if outcome.recalibrated_offset.is_some() {
            self.count(now, "learner.recalibrations", 1);
        }
        self.tracer.gauge(now, "learner.estimate_error", err);
    }

    /// Snapshot of the threshold learner's state (`None` in oracle mode).
    /// Live during a stepper-driven run, so a serving layer can export
    /// the learner's progress while requests are still in flight.
    pub fn learner_summary(&self) -> Option<LearnerSummary> {
        self.learner.as_ref().map(|l| {
            let s = l.stats();
            LearnerSummary {
                updates: s.updates,
                recalibrations: s.recalibrations,
                clamps: s.clamps,
                blocks_tracked: l.blocks_tracked() as u64,
                mean_abs_error: if self.learn_err_samples == 0 {
                    0.0
                } else {
                    self.learn_err_sum / self.learn_err_samples as f64
                },
            }
        })
    }

    /// Exports the threshold learner's full transferable state (`None`
    /// in oracle mode). The cluster layer serializes this to hand a
    /// migrating shard's learned offsets to the target node.
    pub fn learner_state(&self) -> Option<rif_flash::learn::LearnerState> {
        self.learner.as_ref().map(|l| l.export_state())
    }

    /// Preseeds the threshold learner from a transferred snapshot,
    /// replacing any estimates and counters accumulated so far. A no-op
    /// in oracle mode (there is no learner to seed).
    pub fn preseed_learner(&mut self, state: &rif_flash::learn::LearnerState) {
        if let Some(cfg) = self.cfg.learning.learner_config() {
            self.learner = Some(ThresholdLearner::restore(*cfg, state));
        }
    }
}
