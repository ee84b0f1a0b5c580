//! The hybrid device's background scheduler (DESIGN §14): the periodic
//! tick that drains the SLC cache and refreshes aged slots, and the books
//! of the background work it and the write path put on the dies.

use super::*;
use crate::retention::AgeBound;

/// The background scheduler's period.
const BG_TICK: SimDuration = SimDuration::from_us(200);

/// Most slots one tick migrates out of the SLC cache.
const MIGRATE_BATCH: usize = 32;

/// Positions of the touched-slot list per refresh-scan bound.
const SCAN_BLOCK: usize = 64;

/// Live state of the hybrid subsystem: the precomputed cell-mode RBER
/// amplification table and the background scheduler's bookkeeping. The
/// mapping itself is always `Simulator::ftl`.
pub(super) struct HybridState {
    pub(super) amp: AmpTable,
    pub(super) conf: HybridConfig,
    /// Whether a `BgTick` event is pending in the queue.
    tick_armed: bool,
    /// Next position in the FTL's touched-slot list the refresh scan
    /// examines (wraps).
    refresh_cursor: usize,
    /// The refresh scan's due slots, kept to reuse its allocation.
    due: Vec<u64>,
    /// Per `SCAN_BLOCK` positions of the touched-slot list, a bound on
    /// their slots' ages: the scan skips a block whose bound is short of
    /// the deadline.
    bounds: Vec<AgeBound>,
    /// Positions of the touched-slot list folded into `bounds`.
    folded: usize,
    /// Blocks the scan examined slot by slot this tick, re-tightened
    /// after its rewrites.
    examined: Vec<usize>,
    /// The summary so far; its cache occupancy is read off the FTL when
    /// a snapshot is taken.
    books: HybridSummary,
}

impl HybridState {
    pub(super) fn new(cfg: &SsdConfig) -> Option<Self> {
        cfg.hybrid.clone().map(|conf| HybridState {
            // The table covers ages up to twice the refresh horizon;
            // clamped lookups handle deeper drift.
            amp: AmpTable::build(cfg.pe_cycles, cfg.refresh_days * 2.0),
            conf,
            tick_armed: false,
            refresh_cursor: 0,
            due: Vec::new(),
            bounds: Vec::new(),
            folded: 0,
            examined: Vec::new(),
            books: HybridSummary {
                cache_occupancy: 0.0,
                migrated_slots: 0,
                forced_evictions: 0,
                refreshed_slots: 0,
                bg_ops: 0,
            },
        })
    }
}

impl Simulator {
    /// Snapshot of the hybrid subsystem's background-traffic state
    /// (`None` on a pure-TLC device). Live during a stepper-driven run,
    /// so the serving layer can export `bg.*` gauges while requests are
    /// in flight.
    pub fn bg_summary(&self) -> Option<HybridSummary> {
        self.hybrid.as_ref().map(|h| HybridSummary {
            cache_occupancy: self.ftl.cache_occupancy(),
            ..h.books
        })
    }

    /// Books background work put on the dies, in the hybrid summary and
    /// in the trace at once: `forced` of the `migrated` slots were
    /// cache-overflow evictions on the write path; `gc` counts
    /// collections queued ahead of a program. A no-op on the plain
    /// device, which keeps no such books.
    pub(super) fn note_bg(
        &mut self,
        now: SimTime,
        forced: u64,
        migrated: u64,
        refreshed: u64,
        gc: u64,
    ) {
        let Some(h) = self.hybrid.as_mut() else {
            return;
        };
        let ops = migrated + refreshed + gc;
        h.books.forced_evictions += forced;
        h.books.migrated_slots += migrated;
        h.books.refreshed_slots += refreshed;
        h.books.bg_ops += ops;
        let booked = [
            ("bg.forced_evictions", forced),
            ("bg.migrated_slots", migrated),
            ("bg.refreshed_slots", refreshed),
            ("bg.ops", ops),
        ];
        for (key, n) in booked {
            if n > 0 {
                self.count(now, key, n);
            }
        }
    }

    /// Puts one SLC→QLC migration on its die: the copyback physically
    /// reprograms the slot, so its retention age restarts, and the die
    /// pays the copyback plus any collection its new location triggered.
    pub(super) fn push_migration(&mut self, now: SimTime, w: &MigrationWork) {
        self.retention.record_write(w.slot, now);
        let t = self.cfg.timing;
        let dur = t.copyback() + gc_duration(&t, &w.gc);
        self.push_bg(now, w.die_linear, BgKind::Migrate, dur);
    }

    /// Schedules the next background-scheduler tick if hybrid mode is on
    /// and none is pending.
    pub(super) fn arm_bg_tick(&mut self) {
        if let Some(h) = self.hybrid.as_mut().filter(|h| !h.tick_armed) {
            h.tick_armed = true;
            let at = self.events.now() + BG_TICK;
            self.events.schedule(at, Ev::BgTick);
        }
    }

    /// One background-scheduler tick: drains the SLC cache oldest-first
    /// toward the low watermark, turns due refresh rewrites into die work,
    /// and re-arms itself while foreground requests remain.
    pub(super) fn on_bg_tick(&mut self, now: SimTime, stream: &Stream) {
        let Some(mut h) = self.hybrid.take() else {
            return;
        };
        h.tick_armed = false;
        let t = self.cfg.timing;
        let (drift_days, _) = self.drift_at(now);

        // --- SLC→QLC cache drain ---------------------------------------
        let mut migrated = 0u64;
        if self.ftl.cache_occupancy() > h.conf.bg.high_watermark {
            for slot in self.ftl.migration_candidates(MIGRATE_BATCH) {
                if self.ftl.cache_occupancy() <= h.conf.bg.low_watermark {
                    break;
                }
                let Some(w) = self.ftl.migrate(slot) else {
                    continue;
                };
                self.push_migration(now, &w);
                migrated += 1;
            }
        }

        // --- retention refresh ------------------------------------------
        let mut refreshed = 0u64;
        if !self.ftl.touched().is_empty() {
            let touched = self.ftl.touched();
            let n = touched.len();
            // Slots appended since the last tick join their blocks'
            // bounds; any later write is recorded at or after `now`.
            for (pos, &slot) in touched.iter().enumerate().skip(h.folded) {
                if pos % SCAN_BLOCK == 0 {
                    h.bounds.push(AgeBound::new(now));
                }
                self.retention.fold(slot, &mut h.bounds[pos / SCAN_BLOCK]);
            }
            h.folded = n;
            let batch = h.conf.bg.refresh_scan_batch.min(n);
            // The window is `batch` slots from the cursor, wrapping at
            // most once: the cursor's tail, then the list's head.
            let tail = h.refresh_cursor..n.min(h.refresh_cursor + batch);
            let head = 0..batch - tail.len();
            h.refresh_cursor = (h.refresh_cursor + batch) % n;
            // A slot is due once its age reaches the refresh interval;
            // the window's order is kept, so the scan stays deterministic.
            // No slot of a block whose bound plus drift is short of the
            // deadline can be due, so the scan skips it.
            let deadline = self.cfg.refresh_days;
            h.due.clear();
            h.examined.clear();
            for window in [tail, head] {
                let mut pos = window.start;
                while pos < window.end {
                    let block = pos / SCAN_BLOCK;
                    let end = window.end.min((block + 1) * SCAN_BLOCK);
                    if h.bounds[block].days(now) + drift_days >= deadline {
                        h.due
                            .extend(touched[pos..end].iter().copied().filter(|&slot| {
                                self.retention.age_days(slot, now) + drift_days >= deadline
                            }));
                        h.examined.push(block);
                    }
                    pos = end;
                }
            }
            for &slot in &h.due {
                // The rewrite resets the slot's age in place; the die
                // pays a copyback.
                self.retention.record_write(slot, now);
                let loc = self.ftl.locate_read(slot);
                self.push_bg(now, loc.die_linear, BgKind::Refresh, t.copyback());
                refreshed += 1;
            }
            // An examined block's bound is rebuilt from its slots as the
            // rewrites left them, so a refreshed slot stops holding it up.
            let touched = self.ftl.touched();
            for &block in &h.examined {
                let mut bound = AgeBound::new(now);
                for &slot in &touched[block * SCAN_BLOCK..n.min((block + 1) * SCAN_BLOCK)] {
                    self.retention.fold(slot, &mut bound);
                }
                h.bounds[block] = bound;
            }
        }

        // Re-arm only while foreground work remains, so `run()`'s
        // advance-to-MAX still terminates. An idle tick (nothing moved)
        // fast-forwards to the next pending event rather than grinding
        // through dead time one period at a time: a submission landing
        // after a long virtual-time idle gap would otherwise make the
        // scheduler replay every elapsed period before serving it.
        if self.unfinished_requests() > 0 {
            h.tick_armed = true;
            let mut at = now + BG_TICK;
            if migrated + refreshed == 0 {
                if let Some(next) = self.next_instant(stream) {
                    at = at.max(next);
                }
            }
            self.events.schedule(at, Ev::BgTick);
        }
        self.hybrid = Some(h);
        self.note_bg(now, 0, migrated, refreshed, 0);
    }
}
