//! The benchmark-owned load generator: one thread, a few connections,
//! open or closed loop, and a ledger that resolves every tag exactly
//! once.
//!
//! In the open loop a request is timed from when it was *due*, not from
//! when it was sent: a stall in the generator or the server delays every
//! request scheduled behind it, and that wait is part of what a user
//! would have felt. The clock and the wire are traits so the accounting
//! is tested against a fake of each.

use std::io;

use rif_workloads::IoOp;

use crate::span::Spans;

/// Monotonic nanoseconds, and what to do when there is nothing to do.
pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Called when no request is due and no response arrived;
    /// `next_due_ns` is the next scheduled send, if any.
    fn idle(&self, next_due_ns: Option<u64>);
}

/// One response off the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Receipt {
    Done {
        tag: u64,
        virtual_ns: u64,
    },
    /// BUSY, ERROR or WRONG_SHARD: answered, but not served.
    Refused {
        tag: u64,
    },
    /// The answer to a [`Wire::nudge`]; resolves nothing.
    Nudged,
    /// A frame that did not decode, or a response kind no request asks for.
    Garbage,
}

/// One connection, as the generator sees it.
pub trait Wire {
    fn send(&mut self, tag: u64, op: &PlannedOp) -> io::Result<()>;
    /// Appends the responses that have arrived, without blocking.
    fn poll(&mut self, out: &mut Vec<Receipt>) -> io::Result<()>;
    /// Sends a frame that asks for nothing but makes the peer look at
    /// this connection. See [`NUDGE_AFTER_NS`].
    fn nudge(&mut self) -> io::Result<()>;
}

/// With requests in flight and nothing sent or received for this long,
/// the generator nudges the server. `rif-server`'s event loop can lose a
/// completion wake-up (`Waker::drain` clears its flag before it empties
/// the pipe, so a wake landing in between leaves the flag set and the
/// pipe empty, and every later wake is swallowed); finished responses
/// then sit in the loop's queue until *any* frame arrives on a socket.
/// Mid-run the next request does that. At the tail of a phase, or with a
/// closed loop's whole window stuck, nothing would — the run would hang
/// until its stall timeout and count the tail as lost. Nudges are
/// counted, so the bug stays visible as `gen.tail_nudges`.
pub const NUDGE_AFTER_NS: u64 = 1_000_000;

/// One request before it goes on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedOp {
    pub op: IoOp,
    pub offset: u64,
    pub bytes: u32,
}

/// When requests are sent.
#[derive(Debug, Clone)]
pub enum Pacing {
    /// On a schedule, whatever the server does: request `i` is due at
    /// `due_ns[i]` (ascending, relative to the phase start).
    Open { due_ns: Vec<u64> },
    /// Each connection keeps `depth` requests outstanding and sends the
    /// next only when one completes.
    Closed { depth: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    Unsent,
    InFlight,
    Done,
    Refused,
    /// No answer before the generator gave up, or the connection failed.
    Lost,
}

/// One request's life. Times are nanoseconds on the generator's clock.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    /// When the request should have been sent (open loop) or became
    /// eligible (closed loop, equal to `sent_ns`).
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    /// The server's simulated service latency, from DONE.
    pub virtual_ns: u64,
    pub state: SlotState,
}

/// Every tag of one phase, plus what arrived that belongs to none.
#[derive(Debug)]
pub struct Ledger {
    pub slots: Vec<Slot>,
    /// Decodable receipts for tags this phase never sent.
    pub unknown: u64,
    /// Receipts for a tag already resolved.
    pub duplicates: u64,
    /// Undecodable or unsolicited frames.
    pub garbage: u64,
    /// Times the generator had to nudge a silent server.
    pub nudges: u64,
    pub started_ns: u64,
    pub ended_ns: u64,
}

impl Ledger {
    pub fn count(&self, state: SlotState) -> u64 {
        self.slots.iter().filter(|s| s.state == state).count() as u64
    }

    /// Requests not served correctly, whatever the reason.
    pub fn failed(&self) -> u64 {
        self.slots.len() as u64 - self.count(SlotState::Done)
    }

    /// How late the generator ran at worst: send time past due time.
    pub fn max_late_ns(&self) -> u64 {
        self.slots
            .iter()
            .filter(|s| s.state != SlotState::Unsent)
            .map(|s| s.sent_ns - s.due_ns)
            .max()
            .unwrap_or(0)
    }

    /// The ledger's own consistency: every tag resolved exactly once and
    /// nothing arrived that was not asked for.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let open = self.count(SlotState::Unsent) + self.count(SlotState::InFlight);
        if open > 0 {
            v.push(format!("{open} tags never resolved"));
        }
        if self.unknown + self.duplicates + self.garbage > 0 {
            v.push(format!(
                "{} unknown, {} duplicate and {} undecodable receipts",
                self.unknown, self.duplicates, self.garbage
            ));
        }
        v
    }
}

/// Sends `ops` over `wires` as `pacing` says and resolves every tag.
/// Tags are `tag_base + index`. Gives up — marking what is still open
/// `Lost` — when nothing was sent or received for `stall_ns`.
pub fn drive<C: Clock, W: Wire>(
    clock: &C,
    wires: &mut [W],
    ops: &[PlannedOp],
    pacing: &Pacing,
    tag_base: u64,
    stall_ns: u64,
    spans: &mut Spans,
) -> Ledger {
    assert!(!wires.is_empty(), "the generator needs a connection");
    let n = ops.len();
    let started_ns = clock.now_ns();
    let mut slots = vec![
        Slot {
            due_ns: 0,
            sent_ns: 0,
            done_ns: 0,
            virtual_ns: 0,
            state: SlotState::Unsent,
        };
        n
    ];
    let (mut unknown, mut duplicates, mut garbage) = (0u64, 0u64, 0u64);
    let mut inflight = vec![0usize; wires.len()];
    let mut wire_of = vec![0u8; n];
    let mut dead = vec![false; wires.len()];
    let mut next = 0usize;
    let mut open = n;
    let mut receipts = Vec::new();
    let mut last_progress = started_ns;
    let mut last_activity = started_ns;
    let mut nudges = 0u64;
    let phase_span = spans.current();

    while open > 0 {
        let mut progressed = false;

        // Send what is due.
        loop {
            if next == n {
                break;
            }
            let now = clock.now_ns();
            let (w, due) = match pacing {
                Pacing::Open { due_ns } => {
                    let due = started_ns + due_ns[next];
                    if due > now {
                        break;
                    }
                    (next % wires.len(), due)
                }
                Pacing::Closed { depth } => {
                    match (0..wires.len()).find(|&w| !dead[w] && inflight[w] < *depth) {
                        Some(w) => (w, now),
                        None => break,
                    }
                }
            };
            let slot = &mut slots[next];
            slot.due_ns = due;
            slot.sent_ns = now;
            let span = spans.begin("gen.send", tag_base + next as u64);
            let sent = !dead[w] && wires[w].send(tag_base + next as u64, &ops[next]).is_ok();
            spans.end(span);
            if sent {
                slot.state = SlotState::InFlight;
                inflight[w] += 1;
                wire_of[next] = w as u8;
            } else {
                slot.state = SlotState::Lost;
                dead[w] = true;
                open -= 1;
            }
            next += 1;
            progressed = true;
        }

        // Take what has arrived.
        for (w, wire) in wires.iter_mut().enumerate() {
            if dead[w] {
                continue;
            }
            receipts.clear();
            let poll_start = clock.now_ns();
            let alive = wire.poll(&mut receipts).is_ok();
            let now = clock.now_ns();
            // An idle generator polls millions of times; only polls that
            // brought something are worth a span.
            if !receipts.is_empty() {
                spans.record("gen.poll", poll_start, now, phase_span, w as u64);
            }
            for receipt in &receipts {
                let (tag, virtual_ns, state) = match *receipt {
                    Receipt::Done { tag, virtual_ns } => (tag, virtual_ns, SlotState::Done),
                    Receipt::Refused { tag } => (tag, 0, SlotState::Refused),
                    Receipt::Nudged => continue,
                    Receipt::Garbage => {
                        garbage += 1;
                        continue;
                    }
                };
                let index = tag.wrapping_sub(tag_base) as usize;
                match slots.get_mut(index) {
                    Some(slot) if slot.state == SlotState::InFlight => {
                        slot.state = state;
                        slot.done_ns = now;
                        slot.virtual_ns = virtual_ns;
                        inflight[wire_of[index] as usize] -= 1;
                        open -= 1;
                        progressed = true;
                        spans.record("gen.request", slot.due_ns, now, phase_span, tag);
                    }
                    Some(slot) if slot.state != SlotState::Unsent => duplicates += 1,
                    _ => unknown += 1,
                }
            }
            if !alive {
                dead[w] = true;
            }
        }

        let now = clock.now_ns();
        if progressed {
            last_progress = now;
            last_activity = now;
            continue;
        }
        let next_due = match pacing {
            Pacing::Open { due_ns } if next < n => Some(started_ns + due_ns[next]),
            _ => None,
        };
        // Waiting for a scheduled send is not a stall.
        let waiting_since = next_due.map_or(last_progress, |d| last_progress.max(d.min(now)));
        if now - waiting_since > stall_ns || dead.iter().all(|&d| d) {
            for slot in &mut slots {
                if matches!(slot.state, SlotState::Unsent | SlotState::InFlight) {
                    slot.state = SlotState::Lost;
                }
            }
            break;
        }
        let send_is_near = next_due.is_some_and(|d| d < now + NUDGE_AFTER_NS);
        if now - last_activity > NUDGE_AFTER_NS && !send_is_near {
            for (w, wire) in wires.iter_mut().enumerate() {
                if inflight[w] > 0 && !dead[w] && wire.nudge().is_err() {
                    dead[w] = true;
                }
            }
            nudges += 1;
            last_activity = now;
        }
        clock.idle(next_due);
    }

    Ledger {
        slots,
        unknown,
        duplicates,
        garbage,
        nudges,
        started_ns,
        ended_ns: clock.now_ns(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    /// A clock that only moves when told to.
    #[derive(Clone, Default)]
    struct FakeClock(Rc<Cell<u64>>);

    impl FakeClock {
        fn advance(&self, ns: u64) {
            self.0.set(self.0.get() + ns);
        }
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn idle(&self, _next_due_ns: Option<u64>) {
            self.advance(1_000);
        }
    }

    /// A server answering every request `service_ns` after it was sent.
    /// Sending tag `stall_tag` blocks the generator for `stall_ns`.
    struct FakeWire {
        clock: FakeClock,
        service_ns: u64,
        stall_tag: Option<u64>,
        stall_ns: u64,
        pending: VecDeque<(u64, u64)>,
        sent: Vec<u64>,
        extra: Vec<Receipt>,
        /// Responses are withheld until the next nudge, as a server
        /// that lost its wake-up would.
        stuck: bool,
        nudged: u64,
    }

    impl FakeWire {
        fn new(clock: &FakeClock, service_ns: u64) -> FakeWire {
            FakeWire {
                clock: clock.clone(),
                service_ns,
                stall_tag: None,
                stall_ns: 0,
                pending: VecDeque::new(),
                sent: Vec::new(),
                extra: Vec::new(),
                stuck: false,
                nudged: 0,
            }
        }
    }

    impl Wire for FakeWire {
        fn send(&mut self, tag: u64, _op: &PlannedOp) -> io::Result<()> {
            if self.stall_tag == Some(tag) {
                self.clock.advance(self.stall_ns);
            }
            self.sent.push(tag);
            self.pending
                .push_back((self.clock.now_ns() + self.service_ns, tag));
            Ok(())
        }

        fn nudge(&mut self) -> io::Result<()> {
            self.stuck = false;
            self.nudged += 1;
            self.extra.push(Receipt::Nudged);
            Ok(())
        }

        fn poll(&mut self, out: &mut Vec<Receipt>) -> io::Result<()> {
            out.append(&mut self.extra);
            while !self.stuck
                && self
                    .pending
                    .front()
                    .is_some_and(|&(at, _)| at <= self.clock.now_ns())
            {
                let (_, tag) = self.pending.pop_front().expect("peeked");
                out.push(Receipt::Done {
                    tag,
                    virtual_ns: 90_000,
                });
            }
            Ok(())
        }
    }

    fn reads(n: usize) -> Vec<PlannedOp> {
        (0..n)
            .map(|i| PlannedOp {
                op: IoOp::Read,
                offset: i as u64 * 16_384,
                bytes: 16_384,
            })
            .collect()
    }

    #[test]
    fn open_loop_times_requests_from_their_due_time() {
        let clock = FakeClock::default();
        clock.advance(5_000_000);
        let mut wires = [FakeWire::new(&clock, 100_000)];
        // Twenty requests 1 ms apart; sending the third stalls for 10 ms.
        wires[0].stall_tag = Some(1002);
        wires[0].stall_ns = 10_000_000;
        let due: Vec<u64> = (0..20).map(|i| i * 1_000_000).collect();
        let ledger = drive(
            &clock,
            &mut wires,
            &reads(20),
            &Pacing::Open { due_ns: due },
            1000,
            1_000_000_000,
            &mut Spans::new(false),
        );
        assert!(ledger.violations().is_empty(), "{:?}", ledger.violations());
        assert_eq!(ledger.failed(), 0);
        let latency: Vec<u64> = ledger.slots.iter().map(|s| s.done_ns - s.due_ns).collect();
        // Before the stall: the service time, within the fake clock's
        // 1-µs idle step.
        assert!(
            latency[0] <= 102_000 && latency[1] <= 102_000,
            "{latency:?}"
        );
        // The stalled send itself was on time; its answer is late by the
        // stall because the fake server only saw it afterwards.
        assert_eq!(ledger.slots[2].sent_ns - ledger.slots[2].due_ns, 0);
        // Requests due during the stall were sent late, and that wait is
        // in their measured latency: due at 3 ms, sent at 12 ms.
        let late3 = ledger.slots[3].sent_ns - ledger.slots[3].due_ns;
        assert!((8_900_000..=9_100_000).contains(&late3), "{late3}");
        assert!(latency[3] >= late3 + 100_000, "{latency:?}");
        assert!(
            latency[4] >= 8_000_000 && latency[5] >= 7_000_000,
            "{latency:?}"
        );
        // Once the backlog is flushed the tail is back to service time.
        assert!(latency[19] <= 102_000, "{latency:?}");
        assert_eq!(ledger.max_late_ns(), late3);
        // Timing from the send instead would have hidden the stall.
        let from_send = ledger.slots[3].done_ns - ledger.slots[3].sent_ns;
        assert!(from_send <= 102_000, "{from_send}");
    }

    #[test]
    fn closed_loop_keeps_depth_outstanding_per_connection() {
        let clock = FakeClock::default();
        let mut wires = [FakeWire::new(&clock, 50_000), FakeWire::new(&clock, 50_000)];
        let ledger = drive(
            &clock,
            &mut wires,
            &reads(40),
            &Pacing::Closed { depth: 4 },
            1,
            1_000_000_000,
            &mut Spans::new(false),
        );
        assert!(ledger.violations().is_empty());
        assert_eq!(ledger.count(SlotState::Done), 40);
        // 8 outstanding, 50 µs each: 40 requests take five rounds.
        let wall = ledger.ended_ns - ledger.started_ns;
        assert!((250_000..=260_000).contains(&wall), "{wall}");
        assert_eq!(wires[0].sent.len() + wires[1].sent.len(), 40);
        assert_eq!(ledger.max_late_ns(), 0);
    }

    #[test]
    fn a_server_that_lost_its_wakeup_is_nudged_not_abandoned() {
        let clock = FakeClock::default();
        let mut wires = [FakeWire::new(&clock, 50_000)];
        wires[0].stuck = true;
        let ledger = drive(
            &clock,
            &mut wires,
            &reads(4),
            &Pacing::Closed { depth: 4 },
            1,
            1_000_000_000,
            &mut Spans::new(false),
        );
        assert_eq!(ledger.count(SlotState::Done), 4);
        assert_eq!((ledger.nudges, wires[0].nudged), (1, 1));
        assert!(ledger.violations().is_empty());
        // The wait for the nudge is in the measured latency.
        let slot = ledger.slots[0];
        assert!(slot.done_ns - slot.due_ns > NUDGE_AFTER_NS);

        // A healthy server is never nudged.
        let clock = FakeClock::default();
        let mut wires = [FakeWire::new(&clock, 50_000)];
        let ledger = drive(
            &clock,
            &mut wires,
            &reads(40),
            &Pacing::Closed { depth: 4 },
            1,
            1_000_000_000,
            &mut Spans::new(false),
        );
        assert_eq!((ledger.nudges, ledger.failed()), (0, 0));
    }

    #[test]
    fn strays_duplicates_and_silence_are_all_accounted() {
        let clock = FakeClock::default();
        let mut wires = [FakeWire::new(&clock, 10_000)];
        wires[0].extra = vec![
            Receipt::Done {
                tag: 999,
                virtual_ns: 1,
            },
            Receipt::Garbage,
        ];
        let ledger = drive(
            &clock,
            &mut wires,
            &reads(3),
            &Pacing::Closed { depth: 8 },
            100,
            1_000_000,
            &mut Spans::new(false),
        );
        assert_eq!((ledger.unknown, ledger.garbage), (1, 1));
        assert_eq!(ledger.violations().len(), 1);

        // A refusal resolves its tag but is a failure; a duplicate of a
        // resolved tag is counted, not applied twice.
        let clock = FakeClock::default();
        let mut wires = [FakeWire::new(&clock, 10_000)];
        wires[0].extra = vec![Receipt::Refused { tag: 100 }];
        let ledger = drive(
            &clock,
            &mut wires,
            &reads(2),
            &Pacing::Closed { depth: 8 },
            100,
            1_000_000,
            &mut Spans::new(false),
        );
        assert_eq!(ledger.count(SlotState::Refused), 1);
        assert_eq!(ledger.count(SlotState::Done), 1);
        assert_eq!(ledger.failed(), 1);
        assert_eq!(ledger.duplicates, 1);

        // A server that never answers: the generator gives up and the
        // open tags are lost, not left dangling.
        let clock = FakeClock::default();
        let mut wires = [FakeWire::new(&clock, u64::MAX / 2)];
        let ledger = drive(
            &clock,
            &mut wires,
            &reads(3),
            &Pacing::Closed { depth: 2 },
            1,
            500_000,
            &mut Spans::new(false),
        );
        assert_eq!(ledger.count(SlotState::Lost), 3);
        assert_eq!(ledger.failed(), 3);
        assert!(ledger.violations().is_empty());
    }
}
