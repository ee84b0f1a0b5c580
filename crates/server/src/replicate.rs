//! Primary-side replication shipper (DESIGN §15.2).
//!
//! In cluster mode the event loop offers every admitted client write on
//! an owned range with followers to its [`Shipper`], which ships it as a
//! version-stamped `REPLICATE` frame to each follower over a [`Wire`] on
//! the loop's own poller. One shipment is in flight per node, in offer
//! order, and each range's sequence number is assigned **at ship time**,
//! so the follower applies writes in the order the primary shipped them.
//!
//! The per-range **watermark** is the highest sequence number through
//! which every shipment so far was acked by all followers: the
//! contiguous replicated prefix of the range's write stream. A refused,
//! timed-out or skipped shipment stalls it for the rest of the epoch, so
//! the gap stays observable. A new epoch (the directory re-pushing after
//! promotion or migration) resets sequences and watermarks, because the
//! follower set changed, and skips the old epoch's queued jobs.
//!
//! Nothing here blocks the loop but a bounded loopback connect. A link's
//! HELLO goes out ahead of its first `REPLICATE` and is never waited
//! for; a `BUSY` answer is re-sent [`BUSY_PAUSE`] later, and a follower
//! silent for [`SHIP_TIMEOUT`] fails: both are due-times of the loop's
//! wait ([`Shipper::next_due`]). A failed link is skipped for its wire's
//! reconnect back-off, so a dead follower costs one failure per back-off
//! window, not one per write. Once the loop exits nothing more ships
//! ([`Shipper::abandon`]).

use std::collections::VecDeque;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use rif_events::trace::MetricsRegistry;
use rif_events::SimRng;

use crate::client::{Wire, HELLO_TAG};
use crate::poller::{PollEvent, Poller};
use crate::protocol::{decode_response, FrameBuffer, Request, Response, PROTOCOL_VERSION};

/// Poller token of follower link 0; link `i` is `TOK_LINK0 + i`. The
/// loop's own tokens (listener, waker, connections) stay below it.
pub(crate) const TOK_LINK0: usize = usize::MAX / 2;

/// Bound on opening a follower link: a loopback connect completes or is
/// refused at once, so this only caps a full accept backlog.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(50);

/// A follower that does not answer a shipment within this has failed.
const SHIP_TIMEOUT: Duration = Duration::from_millis(1000);

/// Re-sends of a shipment a follower answers `BUSY` (its shard queue is
/// momentarily full), each [`BUSY_PAUSE`] after the refusal.
const BUSY_RETRIES: u32 = 3;
const BUSY_PAUSE: Duration = Duration::from_millis(2);

/// Reconnect back-off base of a follower link: a failing follower is
/// skipped for 250 ms, doubling to the wire's 500-ms cap, plus up to
/// 250 ms of jitter.
const DOWN_BACKOFF: Duration = Duration::from_millis(250);

/// One write queued for shipment; its followers are looked up when it
/// ships.
struct Job {
    range: u32,
    tenant: u32,
    /// Wrapped global offset (the follower rebases it itself).
    offset: u64,
    bytes: u32,
}

/// The job being shipped, one follower after another.
struct InFlight {
    job: Job,
    epoch: u64,
    seq: u64,
    /// Position of the follower being shipped to in the range's list.
    next: usize,
    all_acked: bool,
    /// The link whose answer to `tag` is awaited, until `due`; with none,
    /// the pause after a `BUSY`, until `due`.
    link: Option<usize>,
    tag: u64,
    busy: u32,
    due: Instant,
}

/// One range, this epoch: its followers' links, the last sequence
/// number assigned, and its watermark (0 = nothing yet), which has
/// stopped for the epoch once `stalled`.
#[derive(Default)]
struct Range {
    followers: Vec<usize>,
    seq: u64,
    stalled: bool,
    watermark: u64,
}

/// The event loop's replication state: targets, job queue, follower
/// links, and the counters and watermarks STATS shows.
#[derive(Default)]
pub(crate) struct Shipper {
    epoch: u64,
    ranges: Vec<Range>,
    /// One wire per follower address ever targeted.
    links: Vec<Wire>,
    queue: VecDeque<Job>,
    current: Option<InFlight>,
    last_tag: u64,
    /// Seeds each link's back-off jitter.
    seed: u64,
    /// Jobs shipped (one per admitted write on a replicated range).
    shipped: u64,
    /// Follower acks received.
    acked: u64,
    /// Shipments skipped: the follower was backed off, the job's epoch
    /// was stale, or the loop exited first.
    skipped: u64,
    /// Shipments refused or lost (connect, send or ack failure).
    failed: u64,
}

impl Shipper {
    /// Tracks `ranges` ranges, with no target yet.
    pub(crate) fn new(ranges: usize, seed: u64) -> Shipper {
        let ranges = (0..ranges).map(|_| Range::default()).collect();
        Shipper {
            ranges,
            seed,
            ..Shipper::default()
        }
    }

    /// Installs a new epoch's shipping targets (called under the
    /// MAP_PUSH epoch gate). The follower set changed, so sequences and
    /// watermarks restart and the old epoch's queued jobs are skipped; a
    /// job in flight ends with its call.
    pub(crate) fn update_targets(&mut self, epoch: u64, replicas: &[(u32, String)]) {
        self.ranges.iter_mut().for_each(|r| *r = Range::default());
        for (range, addr) in replicas {
            let known = self.links.iter().position(|w| w.addr() == addr);
            let link = known.unwrap_or(self.links.len());
            if known.is_none() {
                let jitter = SimRng::stream(self.seed, link as u64);
                let wire = Wire::new(addr.clone(), TOK_LINK0 + link, DOWN_BACKOFF, jitter);
                self.links.push(wire);
            }
            self.ranges[*range as usize].followers.push(link);
        }
        self.skipped += self.queue.len() as u64;
        self.queue.clear();
        self.epoch = epoch;
    }

    /// Offers an admitted client write for shipment; a range with no
    /// followers costs one look-up.
    pub(crate) fn offer(&mut self, range: u32, tenant: u32, offset: u64, bytes: u32) {
        if !self.ranges[range as usize].followers.is_empty() {
            let job = Job {
                range,
                tenant,
                offset,
                bytes,
            };
            self.queue.push_back(job);
        }
    }

    /// Jobs offered and not yet shipped or skipped.
    fn queued(&self) -> usize {
        self.queue.len() + usize::from(self.current.is_some())
    }

    /// When the loop must come back even if no link stirs: an ack
    /// deadline, or the end of a `BUSY` pause.
    pub(crate) fn next_due(&self) -> Option<Instant> {
        self.current.as_ref().map(|s| s.due)
    }

    /// One turn of everything time-driven: fail a follower silent past
    /// its deadline, and ship what is queued or paused.
    pub(crate) fn service(&mut self, poller: &mut dyn Poller, now: Instant) {
        let late = self.current.as_ref().filter(|s| now >= s.due);
        if let Some(link) = late.and_then(|s| s.link) {
            self.links[link].fail(poller);
            self.settle(None, now);
        }
        self.advance(poller, now);
    }

    /// One poller event on a follower link: books the answer to the call
    /// awaited on it and resumes a stuck write. A lost socket, a refused
    /// HELLO or a frame that answers no call fails the link; a HELLO_ACK
    /// is ignored.
    pub(crate) fn on_event(&mut self, poller: &mut dyn Poller, ev: &PollEvent, now: Instant) {
        let link = ev.token - TOK_LINK0;
        let Some(wire) = self.links.get_mut(link) else {
            return;
        };
        let current = self.current.as_ref();
        let awaited = current.filter(|s| s.link == Some(link)).map(|s| s.tag);
        let (mut answer, mut stray, mut read) = (None, false, Ok(()));
        if ev.readable || ev.error {
            read = wire.recv_frames(|payload| match decode_response(payload) {
                Ok(Response::HelloAck { .. }) => {}
                Ok(resp) if answer.is_none() && Some(resp.tag()) == awaited => answer = Some(resp),
                _ => stray = true,
            });
        }
        let lost = read.is_err() || stray || (ev.writable && wire.flush(poller, true).is_err());
        if lost {
            wire.fail(poller);
        }
        if awaited.is_some() && (lost || answer.is_some()) {
            self.settle(answer, now);
            self.advance(poller, now);
        }
    }

    /// Books the answer to the call in flight, `None` if its link failed
    /// first: a `BUSY` with re-sends left pauses the follower, anything
    /// else moves on to the next.
    fn settle(&mut self, answer: Option<Response>, now: Instant) {
        let Some(s) = self.current.as_mut() else {
            return;
        };
        s.link = None;
        match answer {
            Some(Response::Busy { .. }) if s.busy < BUSY_RETRIES => {
                s.busy += 1;
                s.due = now + BUSY_PAUSE;
                return;
            }
            Some(Response::ReplAck { .. }) => self.acked += 1,
            _ => {
                self.failed += 1;
                s.all_acked = false;
            }
        }
        (s.next, s.busy, s.due) = (s.next + 1, 0, now);
    }

    /// Ships until a call is in flight, a follower is paused, or nothing
    /// is queued: the job in flight goes to its next follower, a finished
    /// one settles its range's watermark, and the next job takes its
    /// sequence number.
    fn advance(&mut self, poller: &mut dyn Poller, now: Instant) {
        loop {
            let Some(s) = self.current.as_mut() else {
                let Some(job) = self.queue.pop_front() else {
                    return;
                };
                let range = &mut self.ranges[job.range as usize];
                range.seq += 1;
                self.current = Some(InFlight {
                    job,
                    epoch: self.epoch,
                    seq: range.seq,
                    next: 0,
                    all_acked: true,
                    link: None,
                    tag: 0,
                    busy: 0,
                    due: now,
                });
                continue;
            };
            if s.link.is_some() || now < s.due {
                return;
            }
            let range = &mut self.ranges[s.job.range as usize];
            let stale = s.epoch != self.epoch;
            let Some(&link) = range.followers.get(s.next).filter(|_| !stale) else {
                // Every follower has answered, or the epoch moved on.
                self.shipped += 1;
                if !stale && s.all_acked && !range.stalled {
                    range.watermark = s.seq;
                } else if !stale {
                    range.stalled = true;
                }
                self.current = None;
                continue;
            };
            let wire = &mut self.links[link];
            if wire.backing_off(now) {
                self.skipped += 1;
                (s.next, s.all_acked) = (s.next + 1, false);
                continue;
            }
            self.last_tag += 1;
            let req = Request::Replicate {
                tag: self.last_tag,
                range: s.job.range,
                epoch: s.epoch,
                seq: s.seq,
                tenant: s.job.tenant,
                offset: s.job.offset,
                bytes: s.job.bytes,
            };
            let sent = (wire.is_up() || open(wire, poller).is_ok()) && {
                wire.enqueue(&req);
                wire.flush(poller, false).is_ok()
            };
            if sent {
                (s.link, s.tag, s.due) = (Some(link), self.last_tag, now + SHIP_TIMEOUT);
                return;
            }
            wire.fail(poller);
            self.failed += 1;
            (s.next, s.all_acked) = (s.next + 1, false);
        }
    }

    /// The loop is exiting and nothing more ships: every job still queued
    /// or in flight counts as skipped.
    pub(crate) fn abandon(&mut self) {
        self.skipped += self.queued() as u64;
        self.queue.clear();
        self.current = None;
    }

    /// Folds the counters, the queue length and the watermarks into `m`.
    pub(crate) fn fold_into(&self, m: &mut MetricsRegistry) {
        m.inc("server.repl.shipped", self.shipped);
        m.inc("server.repl.acked", self.acked);
        m.inc("server.repl.skipped", self.skipped);
        m.inc("server.repl.failed", self.failed);
        m.set_gauge("server.repl.queued", self.queued() as f64);
        for (r, range) in self.ranges.iter().enumerate() {
            let key = format!("server.repl.watermark.range{r}");
            m.set_gauge(&key, range.watermark as f64);
        }
    }
}

/// Opens `wire`'s socket with a bounded connect and queues the HELLO
/// ahead of the first `REPLICATE`; its ack is never waited for.
fn open(wire: &mut Wire, poller: &mut dyn Poller) -> io::Result<()> {
    let addr = (wire.addr().to_socket_addrs()?.next())
        .ok_or_else(|| io::Error::from(io::ErrorKind::AddrNotAvailable))?;
    let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
    stream.set_nodelay(true).ok();
    wire.adopt(stream, FrameBuffer::new(), poller)?;
    let hello = Request::Hello {
        tag: HELLO_TAG,
        version: PROTOCOL_VERSION,
    };
    wire.enqueue(&hello);
    Ok(())
}
