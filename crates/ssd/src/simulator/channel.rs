//! Channels: one page transfer at a time. The next transfer is the first
//! queued one that may start: a read page needs room in the channel's ECC
//! buffer, and while none has any the channel sits in ECCWAIT.
//!
//! The pick is O(1) in the common cases: with buffer room it is the
//! queue's front, and with none and only read pages queued (a count of
//! the others is kept) it is nothing. Only a write or sentinel page
//! queued behind blocked reads is looked for.

use super::*;

const ST_IDLE: usize = 0;
const ST_COR: usize = 1;
const ST_UNCOR: usize = 2;
const ST_ECCWAIT: usize = 3;

/// Trace names for the four channel states, indexed by `ST_*`.
const ST_NAMES: [&str; 4] = ["IDLE", "COR", "UNCOR", "ECCWAIT"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum XferKind {
    /// Read page headed for the ECC engine.
    ReadPage { group: usize },
    /// SENC sentinel-cell read (overhead; bypasses the ECC buffer).
    Sentinel { group: usize },
    /// Write data headed for a die program.
    WritePage { job: usize },
}

#[derive(Debug, Clone, Copy)]
pub(super) struct Transfer {
    pub(super) kind: XferKind,
    pub(super) uncor: bool,
}

impl Transfer {
    /// Whether the page needs a slot in the ECC buffer to start.
    fn is_read(&self) -> bool {
        matches!(self.kind, XferKind::ReadPage { .. })
    }
}

#[derive(Debug)]
pub(super) struct Channel {
    station: Station<Transfer>,
    /// Queued transfers that are not read pages (write and sentinel
    /// pages): the ones that may start while the ECC buffer is full.
    non_reads: usize,
    pub(super) tracker: UtilizationTracker,
}

impl Channel {
    pub(super) fn new(index: usize) -> Self {
        Channel {
            station: Station::new(format!("chan:{index}")),
            non_reads: 0,
            tracker: UtilizationTracker::new(4),
        }
    }

    /// Queues `n` pages of transfer `t`.
    pub(super) fn enqueue(&mut self, t: Transfer, n: usize) {
        if !t.is_read() {
            self.non_reads += n;
        }
        self.station.queue.extend(std::iter::repeat_n(t, n));
    }

    /// Takes the first queued transfer that may start: the front when
    /// the ECC buffer has room, else the first that is not a read page.
    fn pick(&mut self, has_room: bool) -> Option<Transfer> {
        let queue = &mut self.station.queue;
        let t = if has_room {
            queue.pop_front()?
        } else if self.non_reads == 0 {
            return None;
        } else {
            let i = queue.iter().position(|t| !t.is_read())?;
            queue.remove(i)?
        };
        if !t.is_read() {
            self.non_reads -= 1;
        }
        Some(t)
    }
}

impl Simulator {
    /// Switches a channel's utilization state, mirroring real state
    /// changes into the trace.
    fn switch_chan(&mut self, now: SimTime, ch: usize, state: usize) {
        let c = &mut self.channels[ch];
        if c.tracker.state() != state {
            self.tracer.state(now, &c.station.label, ST_NAMES[state]);
        }
        c.tracker.switch(now, state);
    }

    /// Queues one transfer per page of the group's finished sense.
    pub(super) fn enqueue_group_transfers(&mut self, now: SimTime, gid: usize) {
        let g = &mut self.groups[gid];
        let ch = g.loc.channel(&self.cfg.geometry);
        // Sentinel-cell data is pure retry overhead.
        let (kind, uncor) = if g.phase == GroupPhase::SentinelRead {
            (XferKind::Sentinel { group: gid }, true)
        } else {
            (XferKind::ReadPage { group: gid }, g.decode_fails)
        };
        g.pages_remaining = g.n_pages;
        self.channels[ch].enqueue(Transfer { kind, uncor }, g.n_pages);
        self.chan_try_start(now, ch);
    }

    pub(super) fn chan_try_start(&mut self, now: SimTime, ch: usize) {
        if !self.channels[ch].station.idle() {
            return;
        }
        // First startable transfer: read pages need ECC buffer space.
        let has_room = self.ecc[ch].pending < self.cfg.ecc_buffer_pages;
        let Some(t) = self.channels[ch].pick(has_room) else {
            let state = if self.channels[ch].station.queue.is_empty() {
                ST_IDLE
            } else {
                ST_ECCWAIT
            };
            self.switch_chan(now, ch, state);
            return;
        };
        if t.is_read() {
            self.ecc[ch].pending += 1;
        }
        self.switch_chan(now, ch, if t.uncor { ST_UNCOR } else { ST_COR });
        let span = self.observing().then(|| {
            let page = Some(self.cfg.geometry.page_bytes as u64);
            let (name, parent, req) = match t.kind {
                XferKind::ReadPage { group } => (
                    if t.uncor { "xfer_uncor" } else { "xfer" },
                    self.groups[group].span,
                    self.groups[group].req,
                ),
                XferKind::Sentinel { group } => (
                    "xfer_sentinel",
                    self.groups[group].span,
                    self.groups[group].req,
                ),
                XferKind::WritePage { job } => {
                    let req = self.write_jobs[job].req;
                    ("xfer_write", self.requests[req].span, req)
                }
            };
            (name, parent, Some(self.requests[req].id), page)
        });
        self.channels[ch]
            .station
            .begin(now, &mut self.tracer, t, span);
        self.count(now, "pages.transferred", 1);
        if t.uncor {
            self.tally(
                now,
                |s| &mut s.uncor_page_transfers,
                "pages.transferred_uncor",
                1,
            );
        }
        self.events
            .schedule(now + self.cfg.timing.t_dma_page, Ev::ChanDone(ch));
    }

    pub(super) fn on_chan_done(&mut self, now: SimTime, ch: usize) {
        let t = self.channels[ch].station.finish(now, &mut self.tracer);
        match t.kind {
            XferKind::ReadPage { group } => self.ecc_enqueue(now, ch, group),
            XferKind::Sentinel { group } => {
                self.groups[group].pages_remaining -= 1;
                if self.groups[group].pages_remaining == 0 {
                    // Sentinel data delivered: launch the corrective read.
                    self.schedule_retry_sense(now, group);
                }
            }
            XferKind::WritePage { job } => self.on_write_page_landed(now, job),
        }
        self.chan_try_start(now, ch);
    }
}
