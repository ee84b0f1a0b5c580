//! The host side: requests waiting in arrival order outside the engine,
//! admitted up to the queue depth and completed under the id they were
//! submitted with; the host link between —
//! completed read data out, write data in, one request at a time in
//! arrival order — and the write launch behind it: mapping, channel
//! transfers, then the die program.

use super::*;

/// A request submitted and not yet admitted: the id it completes under,
/// the sequence number that orders its arrival among the event queue's
/// events (as if its arrival were one), and the request, its arrival
/// clamped to the clock it was submitted at.
#[derive(Debug, Clone, Copy)]
pub(super) struct Waiting {
    pub(super) id: u64,
    pub(super) seq: u64,
    pub(super) req: IoRequest,
}

impl Waiting {
    #[inline]
    pub(super) fn key(&self) -> EventKey {
        EventKey::new(self.req.arrival, self.seq)
    }
}

/// [`Simulator::run`]'s trace, read in place: request `i` waits as if it
/// had been submitted with id `id0 + i` and sequence number `seq0 + i` at
/// clock `floor`. Those before `admitted` have been admitted, those
/// before `arrived` have arrived.
pub(super) struct Stream<'t> {
    reqs: &'t [IoRequest],
    id0: u64,
    seq0: u64,
    floor: SimTime,
    admitted: usize,
    pub(super) arrived: usize,
}

impl<'t> Stream<'t> {
    pub(super) fn new(reqs: &'t [IoRequest], id0: u64, seq0: u64, floor: SimTime) -> Self {
        Stream {
            reqs,
            id0,
            seq0,
            floor,
            admitted: 0,
            arrived: 0,
        }
    }

    /// The stepper's: nothing to read.
    pub(super) fn none() -> Stream<'static> {
        Stream::new(&[], 0, 0, SimTime::ZERO)
    }

    #[inline]
    fn get(&self, i: usize) -> Option<Waiting> {
        self.reqs.get(i).map(|r| Waiting {
            id: self.id0 + i as u64,
            seq: self.seq0 + i as u64,
            req: IoRequest {
                arrival: r.arrival.max(self.floor),
                ..*r
            },
        })
    }
}

/// The earlier by key of a submitted and a streamed request, and whether
/// it is the streamed one.
#[inline]
fn first_by_key(queued: Option<Waiting>, streamed: Option<Waiting>) -> Option<(Waiting, bool)> {
    match (queued, streamed) {
        (Some(q), Some(s)) if s.key() < q.key() => Some((s, true)),
        (Some(q), _) => Some((q, false)),
        (None, s) => s.map(|s| (s, true)),
    }
}

#[derive(Debug, Clone, Copy)]
pub(super) struct Request {
    /// Position in submission order: what [`Simulator::submit`] returned,
    /// what the [`Completion`] and every trace record carry. The slot in
    /// the table is reused; the id never is.
    pub(super) id: u64,
    pub(super) arrival: SimTime,
    pub(super) op: IoOp,
    pub(super) offset: u64,
    pub(super) bytes: u32,
    pub(super) remaining: usize,
    /// Trace span from admission to completion (0 when tracing is off).
    pub(super) span: u64,
}

/// A finished host request, as surfaced by
/// [`Simulator::drain_completions`].
///
/// The service layer built on the stepper API uses these to answer the
/// wire requests it injected with [`Simulator::submit`]; batch callers
/// can ignore them (the [`SimReport`] aggregates the same data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The id returned by the [`Simulator::submit`] call that started
    /// this request (its position in submission order).
    pub id: u64,
    /// Read or write.
    pub op: IoOp,
    /// Starting logical byte address.
    pub offset: u64,
    /// Request length in bytes.
    pub bytes: u32,
    /// When the request arrived (after any clamping to the clock).
    pub arrival: SimTime,
    /// When the last byte reached the host (reads) or the program
    /// finished (writes).
    pub finished: SimTime,
}

impl Completion {
    /// End-to-end latency on the simulation clock.
    pub fn latency(&self) -> SimDuration {
        self.finished.since(self.arrival)
    }
}

#[derive(Debug, Clone, Copy)]
pub(super) enum HostJob {
    ReadCompletion { req: usize },
    WriteIngress { req: usize },
}

/// One slot's worth of a write between its mapping and its program.
#[derive(Debug)]
pub(super) struct WriteJob {
    pub(super) req: usize,
    die_linear: usize,
    remaining_transfers: usize,
    gc_duration: SimDuration,
}

impl Simulator {
    /// The next request to arrive, submitted or `stream`'s, and whether
    /// it is `stream`'s.
    #[inline]
    pub(super) fn next_arrival(&self, stream: &Stream) -> Option<(Waiting, bool)> {
        let queued = self.waiting.get(self.arrived).copied();
        first_by_key(queued, stream.get(stream.arrived))
    }

    /// The instant of the next event or arrival, `stream`'s included.
    pub(super) fn next_instant(&self, stream: &Stream) -> Option<SimTime> {
        let arrival = self.next_arrival(stream).map(|(w, _)| w.key());
        arrival
            .into_iter()
            .chain(self.events.peek_key())
            .min()
            .map(EventKey::at)
    }

    /// The one admission: if the queue depth allows, the oldest request
    /// that has arrived, submitted or `stream`'s, takes a slot in the
    /// request table and starts.
    pub(super) fn admit_arrived(&mut self, now: SimTime, stream: &mut Stream) {
        if self.outstanding >= self.cfg.queue_depth {
            return;
        }
        let queued = self.waiting.front().filter(|_| self.arrived > 0).copied();
        let streamed = stream
            .get(stream.admitted)
            .filter(|_| stream.admitted < stream.arrived);
        let Some((w, streamed)) = first_by_key(queued, streamed) else {
            return;
        };
        if streamed {
            stream.admitted += 1;
        } else {
            self.waiting.pop_front();
            self.arrived -= 1;
        }
        self.admit(now, w);
    }

    fn admit(&mut self, now: SimTime, w: Waiting) {
        self.outstanding += 1;
        let r = w.req;
        let req = self.requests.insert(Request {
            id: w.id,
            arrival: r.arrival,
            op: r.op,
            offset: r.offset,
            bytes: r.bytes,
            remaining: 0,
            span: 0,
        });
        if self.observing() {
            let name = match r.op {
                IoOp::Read => "request_read",
                IoOp::Write => "request_write",
            };
            let (id, bytes) = (Some(w.id), Some(r.bytes as u64));
            self.requests[req].span = self.tracer.span_begin(now, name, None, None, id, bytes);
            self.count(now, "requests.admitted", 1);
            if let Some(m) = &mut self.metrics {
                m.observe("queueing.admission_wait", now.since(r.arrival));
            }
        }
        match r.op {
            IoOp::Read => self.admit_read(now, req),
            // Write data first crosses the host link into the controller.
            IoOp::Write => self.host_enqueue(now, HostJob::WriteIngress { req }),
        }
    }

    /// Slot ranges `(slot, pages_in_slot)` covered by a request, in slot
    /// order. The iterator owns what it needs, so the caller may mutate
    /// the simulator while walking it.
    #[inline]
    pub(super) fn slots_of(&self, req: usize) -> impl ExactSizeIterator<Item = (u64, usize)> {
        let r = &self.requests[req];
        let pb = self.cfg.geometry.page_bytes as u64;
        // A slot is one multi-plane page group.
        let sb = pb * self.cfg.geometry.planes_per_die as u64;
        let (offset, end) = (r.offset, r.offset + r.bytes as u64);
        let (first, last) = (offset / sb, (end - 1) / sb);
        (0..(last - first + 1) as usize).map(move |i| {
            let slot = first + i as u64;
            let lo = offset.max(slot * sb);
            let hi = end.min((slot + 1) * sb);
            let pages = ((hi - lo).div_ceil(pb)) as usize;
            (slot, pages.max(1))
        })
    }

    #[inline]
    pub(super) fn host_enqueue(&mut self, now: SimTime, job: HostJob) {
        self.host.queue.push_back(job);
        self.host_try_start(now);
    }

    fn host_try_start(&mut self, now: SimTime) {
        if !self.host.idle() {
            return;
        }
        let Some(job) = self.host.queue.pop_front() else {
            return;
        };
        let (name, req) = match job {
            HostJob::ReadCompletion { req } => ("host_read", req),
            HostJob::WriteIngress { req } => ("host_write_ingress", req),
        };
        let req = &self.requests[req];
        let bytes = req.bytes as u64;
        let span = self
            .observing()
            .then_some((name, req.span, Some(req.id), Some(bytes)));
        self.host.begin(now, &mut self.tracer, job, span);
        self.events
            .schedule(now + self.cfg.host_transfer(bytes), Ev::HostDone);
    }

    pub(super) fn on_host_done(&mut self, now: SimTime, stream: &mut Stream) {
        match self.host.finish(now, &mut self.tracer) {
            HostJob::ReadCompletion { req } => self.complete_request(now, req, stream),
            HostJob::WriteIngress { req } => self.launch_write(now, req),
        }
        self.host_try_start(now);
    }

    fn launch_write(&mut self, now: SimTime, req: usize) {
        let slots = self.slots_of(req);
        self.requests[req].remaining = slots.len();
        for (slot, pages) in slots {
            self.retention.record_write(slot, now);
            let out = self.ftl.write(slot);
            // Cache-overflow evictions (none on a device without a cache)
            // become immediate migrate work on their dies, ahead of this
            // write's program.
            let forced = out.evicted.len() as u64;
            for w in &out.evicted {
                self.push_migration(now, w);
            }
            if forced > 0 {
                self.note_bg(now, forced, forced, 0, 0);
            }
            let job = self.write_jobs.insert(WriteJob {
                req,
                die_linear: out.loc.die_linear,
                remaining_transfers: pages,
                gc_duration: gc_duration(&self.cfg.timing, &out.gc),
            });
            let ch = out.loc.channel(&self.cfg.geometry);
            let kind = XferKind::WritePage { job };
            self.channels[ch].enqueue(Transfer { kind, uncor: false }, pages);
            self.chan_try_start(now, ch);
        }
    }

    /// One page of a write job has crossed its channel; the last one
    /// queues the job's die work (the GC its allocation triggered, then
    /// the program) and frees the job.
    pub(super) fn on_write_page_landed(&mut self, now: SimTime, job: usize) {
        let j = &mut self.write_jobs[job];
        j.remaining_transfers -= 1;
        if j.remaining_transfers > 0 {
            return;
        }
        let (req, die, gc) = (j.req, j.die_linear, j.gc_duration);
        self.write_jobs.release(job);
        if !gc.is_zero() {
            let cmd = DieCmd::new(DieWork::Bg(BgKind::Gc), gc);
            self.dies[die].station.queue.push_back(cmd);
            self.note_bg(now, 0, 0, 0, 1);
        }
        let cmd = DieCmd::new(DieWork::Program { req }, self.cfg.timing.t_prog);
        self.dies[die].station.queue.push_back(cmd);
        self.note_die_queue(now, die);
        self.die_try_start(now, die);
    }

    /// Closes a request's books and its span, surfaces the completion
    /// under the request's id, frees its slot and admits the oldest
    /// request that has arrived.
    pub(super) fn complete_request(&mut self, now: SimTime, req: usize, stream: &mut Stream) {
        let r = self.requests[req];
        // Admitted, every group or program done: nothing names the slot.
        self.requests.release(req);
        if r.op == IoOp::Read {
            self.read_bytes += r.bytes as u64;
            self.read_latency.record(now.since(r.arrival));
            if let Some(m) = &mut self.metrics {
                m.observe("latency.read", now.since(r.arrival));
            }
        }
        self.tracer.span_end(now, r.span);
        self.tally(now, |s| &mut s.completed_requests, "requests.completed", 1);
        let bytes = r.bytes as u64;
        self.tally(now, |s| &mut s.completed_bytes, "bytes.completed", bytes);
        self.last_completion = now;
        if self.keep_completions {
            self.completions.push(Completion {
                id: r.id,
                op: r.op,
                offset: r.offset,
                bytes: r.bytes,
                arrival: r.arrival,
                finished: now,
            });
        }
        self.outstanding -= 1;
        self.admit_arrived(now, stream);
    }
}
