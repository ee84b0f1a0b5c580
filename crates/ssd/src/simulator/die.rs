//! Dies: one sense, program or background command at a time. A read
//! sense may suspend a program or background command in flight, and
//! jumps queued background work when foreground has priority.

use super::*;

/// Extra die time to resume a suspended program or erase.
const SUSPEND_OVERHEAD: SimDuration = SimDuration::from_us(20);

/// What a die command does when it completes.
#[derive(Debug, Clone, Copy)]
pub(super) enum DieWork {
    Sense {
        group: usize,
    },
    Program {
        req: usize,
    },
    /// Background work occupying the die: GC relocation+erase, SLC→QLC
    /// migration copyback, or a refresh rewrite.
    Bg(BgKind),
}

#[derive(Debug)]
pub(super) struct DieCmd {
    work: DieWork,
    duration: SimDuration,
    /// Times a read sense has already cut this command short.
    suspensions: u8,
}

impl DieCmd {
    pub(super) fn new(work: DieWork, duration: SimDuration) -> Self {
        DieCmd {
            work,
            duration,
            suspensions: 0,
        }
    }
}

#[derive(Debug)]
pub(super) struct Die {
    pub(super) station: Station<DieCmd>,
    /// Invalidates in-flight DieDone events after a suspension.
    epoch: u32,
    /// When the current command will finish (valid while busy).
    busy_until: SimTime,
}

impl Die {
    pub(super) fn new(index: usize) -> Self {
        Die {
            station: Station::new(format!("die:{index}")),
            epoch: 0,
            busy_until: SimTime::ZERO,
        }
    }
}

/// Die time of the garbage collection an allocation triggered, if any.
pub(super) fn gc_duration(t: &FlashTiming, work: &Option<GcWork>) -> SimDuration {
    work.as_ref()
        .map_or(SimDuration::ZERO, |w| t.gc(w.relocated as u64))
}

impl Simulator {
    /// Records a die's queue depth after it changed.
    #[inline]
    pub(super) fn note_die_queue(&mut self, now: SimTime, die: usize) {
        if !self.observing() {
            return;
        }
        let depth = self.dies[die].station.queue.len();
        if self.tracer.enabled() {
            self.tracer
                .gauge(now, &format!("die.{die}.qdepth"), depth as f64);
        }
        if let Some(m) = &mut self.metrics {
            m.max_gauge("die.max_qdepth", depth as f64);
        }
    }

    pub(super) fn die_try_start(&mut self, now: SimTime, die: usize) {
        if !self.dies[die].station.idle() {
            return;
        }
        let Some(cmd) = self.dies[die].station.queue.pop_front() else {
            return;
        };
        let span = self.tracer.enabled().then(|| match cmd.work {
            DieWork::Sense { group } => {
                let g = &self.groups[group];
                ("sense", g.span, Some(self.requests[g.req].id), None)
            }
            DieWork::Program { req } => {
                let r = &self.requests[req];
                ("program", r.span, Some(r.id), None)
            }
            // Background work gets root spans (no owning request) on
            // the die resource, so the trace checker's exclusivity
            // rule covers them automatically.
            DieWork::Bg(kind) => (kind.span_name(), 0, None, None),
        });
        let d = &mut self.dies[die];
        d.busy_until = now + cmd.duration;
        self.events
            .schedule(d.busy_until, Ev::DieDone(die, d.epoch));
        d.station.begin(now, &mut self.tracer, cmd, span);
    }

    /// Queues background work on `die` and starts it if the die is idle.
    pub(super) fn push_bg(&mut self, now: SimTime, die: usize, kind: BgKind, dur: SimDuration) {
        let cmd = DieCmd::new(DieWork::Bg(kind), dur);
        self.dies[die].station.queue.push_back(cmd);
        self.note_die_queue(now, die);
        self.die_try_start(now, die);
    }

    /// Queues the sense of `group`, preempting an in-flight program or
    /// background command when read suspend-resume is enabled: the
    /// remainder of the suspended command (plus the resume overhead)
    /// re-queues behind the read.
    pub(super) fn enqueue_read_sense(&mut self, now: SimTime, group: usize, duration: SimDuration) {
        let die = self.groups[group].loc.die_linear;
        let cmd = DieCmd::new(DieWork::Sense { group }, duration);
        let d = &mut self.dies[die];
        let can_suspend = self.cfg.read_suspend
            && d.station.current.as_ref().is_some_and(|(c, _)| {
                !matches!(c.work, DieWork::Sense { .. }) && c.suspensions < 2
            })
            && d.busy_until.saturating_since(now) > SimDuration::from_us(5);
        if can_suspend {
            // The suspended command's span ends here; its resumed
            // remainder opens a fresh span when it restarts.
            let mut resumed = d.station.finish(now, &mut self.tracer);
            resumed.duration = d.busy_until.since(now) + SUSPEND_OVERHEAD;
            resumed.suspensions += 1;
            d.epoch += 1; // invalidate the scheduled completion
            d.station.queue.push_front(resumed);
            d.station.queue.push_front(cmd);
            self.count(now, "die.suspensions", 1);
        } else if self.hybrid.is_some() {
            // On a hybrid device the read sense jumps ahead of queued
            // background work (never ahead of other foreground commands,
            // preserving read/program ordering).
            let q = &mut d.station.queue;
            let at = q
                .iter()
                .position(|c| matches!(c.work, DieWork::Bg(_)))
                .unwrap_or(q.len());
            q.insert(at, cmd);
        } else {
            d.station.queue.push_back(cmd);
        }
        self.note_die_queue(now, die);
        self.die_try_start(now, die);
    }

    pub(super) fn on_die_done(
        &mut self,
        now: SimTime,
        die: usize,
        epoch: u32,
        stream: &mut Stream,
    ) {
        if epoch != self.dies[die].epoch {
            return; // completion of a command that was suspended
        }
        let cmd = self.dies[die].station.finish(now, &mut self.tracer);
        match cmd.work {
            DieWork::Sense { group } => {
                let pages = self.groups[group].n_pages as u64;
                self.tally(now, |s| &mut s.page_senses, "pages.sensed", pages);
                self.enqueue_group_transfers(now, group);
            }
            DieWork::Program { req } => {
                self.requests[req].remaining -= 1;
                if self.requests[req].remaining == 0 {
                    self.complete_request(now, req, stream);
                }
            }
            DieWork::Bg(_) => {}
        }
        self.die_try_start(now, die);
    }
}
