//! Property test of [`EventQueue`]'s two lanes against the plain model
//! they replace: one binary heap ordered by `(at, seq)`.
//!
//! Random interleavings of `schedule` and `pop` — ties at one instant,
//! long monotone bursts, schedule-at-`now`, a far-future event parked at
//! the sorted run's back, arrivals out of order — must pop the same
//! events in the same order as the model, and agree with it on
//! `peek_key`, `peek_time`, `len`, `is_empty` and `now` after every
//! single step. Items kept outside the queue (sequence numbers from
//! `take_seqs`, handled through `advance_to` when their key comes up, as
//! the simulator keeps its not-yet-arrived requests) are mixed in and
//! must order against the events exactly as scheduled events would.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use rif_events::{EventKey, EventQueue, SimDuration, SimTime};

/// The reference: a min-heap of `(at, seq)`, `seq` counting `schedule`
/// calls. The payload under test is `seq` itself.
#[derive(Default)]
struct Model {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    next_seq: u64,
    now: SimTime,
}

impl Model {
    fn schedule(&mut self, at: SimTime) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq)));
        seq
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let Reverse((at, seq)) = self.heap.pop()?;
        self.now = at;
        Some((at, seq))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _))| *at)
    }
}

/// Queue and model side by side; every mutation goes through here and
/// ends with the agreement check.
#[derive(Default)]
struct Pair {
    queue: EventQueue<u64>,
    model: Model,
}

impl Pair {
    fn schedule_in(&mut self, ns_from_now: u64) {
        let at = self.model.now + SimDuration::from_ns(ns_from_now);
        let seq = self.model.schedule(at);
        self.queue.schedule(at, seq);
        self.agree();
    }

    fn pop(&mut self) {
        assert_eq!(self.queue.pop(), self.model.pop());
        self.agree();
    }

    /// An item `ns_from_now` ahead kept outside the queue: it takes the
    /// next sequence number as a scheduled event would, every event whose
    /// key is below it pops first, then the clock moves to it.
    fn outside(&mut self, ns_from_now: u64) {
        let at = self.model.now + SimDuration::from_ns(ns_from_now);
        let seq = self.model.next_seq;
        self.model.next_seq += 1;
        assert_eq!(self.queue.take_seqs(1), seq);
        let key = EventKey::new(at, seq);
        while self.queue.peek_key().is_some_and(|k| k < key) {
            self.pop();
        }
        self.model.now = at;
        self.queue.advance_to(at);
        self.agree();
    }

    fn agree(&self) {
        let model_key = self
            .model
            .heap
            .peek()
            .map(|r| EventKey::new(r.0 .0, r.0 .1));
        assert_eq!(self.queue.peek_key(), model_key);
        assert_eq!(self.queue.peek_time(), self.model.peek_time());
        assert_eq!(self.queue.len(), self.model.heap.len());
        assert_eq!(self.queue.is_empty(), self.model.heap.is_empty());
        assert_eq!(self.queue.now(), self.model.now);
    }

    fn drain(&mut self) {
        while !self.model.heap.is_empty() {
            self.pop();
        }
        assert_eq!(self.queue.pop(), None);
    }
}

/// One step of the random workload, decoded from a raw `(kind, a, b)`
/// draw. Distances are nanoseconds from the clock.
fn step(pair: &mut Pair, (kind, a, b): (u64, u64, u64)) {
    match kind {
        // An event a short, random way ahead: lands on either lane.
        0..=2 => pair.schedule_in(a % 5_000),
        // At the clock itself.
        3 => pair.schedule_in(0),
        // Several at one instant: must pop in scheduling order.
        4 => {
            for _ in 0..1 + b % 6 {
                pair.schedule_in(a % 2_000);
            }
        }
        // A monotone burst, as a trace of arrivals submitted up front.
        5 => {
            let mut at = a % 1_000;
            for i in 0..8 + b % 120 {
                pair.schedule_in(at);
                at += (a >> (i % 32)) % 300;
            }
        }
        // Far future: parks at the run's back, so everything scheduled
        // after it goes to the out-of-order lane until it pops.
        6 => pair.schedule_in(1_000_000_000 + a % 1_000),
        // Arrivals out of order: descending instants.
        7 => {
            for i in (0..2 + b % 10).rev() {
                pair.schedule_in(i * (1 + a % 400));
            }
        }
        // An item outside the queue, ordered against it by its key.
        8 => pair.outside(a % 5_000),
        // Pop a few.
        9..=11 => {
            for _ in 0..1 + b % 8 {
                pair.pop();
            }
        }
        // Pop until nothing is pending.
        _ => pair.drain(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary interleavings agree with the single-heap model at every
    /// step and drain to the same tail.
    #[test]
    fn two_lanes_pop_like_one_heap(
        ops in prop::collection::vec((0u64..13, any::<u64>(), any::<u64>()), 1..250),
    ) {
        let mut pair = Pair::default();
        for op in ops {
            step(&mut pair, op);
        }
        pair.drain();
    }

    /// The out-of-order lane's worst case: a far-future event parked at
    /// the run's back sends every later `schedule` to the lane, hundreds
    /// of them at random distances (ties included), interleaved with
    /// pops and items kept outside, until the parked event itself pops.
    #[test]
    fn parked_run_back_sends_hundreds_out_of_order(
        draws in prop::collection::vec((any::<u64>(), 0u64..8), 200..600),
    ) {
        let mut pair = Pair::default();
        pair.schedule_in(10_000_000);
        for (a, kind) in draws {
            match kind {
                0 => pair.pop(),
                1 => pair.outside(a % 64),
                2 => pair.schedule_in(a % 16),
                _ => pair.schedule_in(a % 1_000_000),
            }
        }
        pair.drain();
    }

    /// A long sorted run of arrivals scheduled up front, device events
    /// scheduled a short way ahead of each pop.
    #[test]
    fn presubmitted_arrivals_interleave_with_device_events(
        gaps in prop::collection::vec(0u64..4_000, 50..400),
        service in prop::collection::vec(1u64..90_000, 4usize),
    ) {
        let mut pair = Pair::default();
        let mut at = 0;
        for gap in &gaps {
            at += gap;
            pair.schedule_in(at);
        }
        let arrivals = gaps.len() as u64;
        let mut popped = 0u64;
        while let Some((_, seq)) = pair.model.heap.peek().map(|r| r.0) {
            pair.pop();
            // Every arrival, and every other device event, starts one
            // more device event: bounded, so the loop ends.
            if seq < arrivals || popped.is_multiple_of(2) {
                pair.schedule_in(service[(popped % 4) as usize]);
            }
            popped += 1;
            if popped > 4 * arrivals {
                break;
            }
        }
        pair.drain();
    }
}
