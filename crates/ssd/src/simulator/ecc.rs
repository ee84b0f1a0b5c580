//! Channel-level ECC engines: pages decode one at a time, in arrival
//! order, each holding its slot of the input buffer until decoded.

use super::*;

#[derive(Debug)]
pub(super) struct EccEngine {
    /// Decodes, by group id.
    station: Station<usize>,
    /// Pages occupying the input buffer (reserved at transfer start).
    pub(super) pending: usize,
    /// Start of the in-flight decode (valid while busy).
    busy_since: SimTime,
    /// Accumulated decoding time, for the utilization metric.
    pub(super) busy_total: SimDuration,
}

impl EccEngine {
    pub(super) fn new(index: usize) -> Self {
        EccEngine {
            station: Station::new(format!("ecc:{index}")),
            pending: 0,
            busy_since: SimTime::ZERO,
            busy_total: SimDuration::ZERO,
        }
    }
}

impl Simulator {
    /// A page of `group` has crossed channel `ch` into the buffer.
    #[inline]
    pub(super) fn ecc_enqueue(&mut self, now: SimTime, ch: usize, group: usize) {
        self.ecc[ch].station.queue.push_back(group);
        self.ecc_try_start(now, ch);
    }

    fn ecc_try_start(&mut self, now: SimTime, ch: usize) {
        if !self.ecc[ch].station.idle() {
            return;
        }
        let Some(group) = self.ecc[ch].station.queue.pop_front() else {
            return;
        };
        let g = &self.groups[group];
        let span = self
            .observing()
            .then(|| ("decode", g.span, Some(self.requests[g.req].id), None));
        self.events
            .schedule(now + g.decode_duration, Ev::EccDone(ch));
        let e = &mut self.ecc[ch];
        e.station.begin(now, &mut self.tracer, group, span);
        e.busy_since = now;
    }

    pub(super) fn on_ecc_done(&mut self, now: SimTime, ch: usize) {
        let e = &mut self.ecc[ch];
        let group = e.station.finish(now, &mut self.tracer);
        e.pending -= 1;
        e.busy_total += now.since(e.busy_since);
        let g = &mut self.groups[group];
        g.pages_remaining -= 1;
        if g.pages_remaining == 0 {
            if g.decode_fails {
                let pages = g.n_pages as u64;
                self.tally(now, |s| &mut s.decode_failures, "decode.failures", pages);
                self.begin_retry(now, group);
            } else {
                self.group_done(now, group);
            }
        }
        self.ecc_try_start(now, ch);
        // A freed buffer slot may unblock a waiting transfer.
        self.chan_try_start(now, ch);
    }
}
