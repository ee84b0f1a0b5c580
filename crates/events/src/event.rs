//! A deterministic discrete-event queue.
//!
//! Events scheduled at the same instant are delivered in FIFO scheduling
//! order (a monotonically increasing sequence number breaks ties), which
//! keeps simulations reproducible regardless of heap internals.
//!
//! The queue has two lanes behind one `schedule`/`pop`. An event whose
//! instant is not earlier than the last one appended to the *run* is
//! appended to it in O(1); any other event goes to a binary heap. A
//! simulator that submits a whole trace of arrivals up front, or a
//! stepper chunk of them, fills the run, and the heap holds only the
//! few in-flight device events.
//!
//! The delivery order is the one a single heap gives, by construction:
//! every entry carries `(at, seq)` with `seq` unique, so "smallest
//! `(at, seq)` first" is a total order with no ties; `seq` only grows,
//! so appending when `at >= run.back().at` keeps the run sorted by
//! `(at, seq)` and its front is its minimum; the heap's top is the
//! heap's minimum; and `pop` takes the smaller of the two.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    /// The delivery order: earliest instant, then first scheduled.
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then
        // first-scheduled) entry is popped first.
        other.key().cmp(&self.key())
    }
}

/// A time-ordered event queue driving a discrete-event simulation.
///
/// # Example
///
/// ```
/// use rif_events::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_us(2), "b");
/// q.schedule(SimTime::from_us(1), "a");
/// q.schedule(SimTime::from_us(2), "c"); // same instant as "b", FIFO after it
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
pub struct EventQueue<E> {
    /// Entries scheduled in non-decreasing time order, earliest first.
    run: VecDeque<Entry<E>>,
    /// Every entry scheduled earlier than the run's back at the time.
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            run: VecDeque::new(),
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The instant of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` for delivery at instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock — scheduling into the
    /// past indicates a causality bug.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry { at, seq, payload };
        match self.run.back() {
            Some(last) if at < last.at => self.heap.push(entry),
            _ => self.run.push_back(entry),
        }
    }

    /// Whether the next event in delivery order sits at the run's front
    /// (`false`: on the heap's top). `None` when the queue is empty.
    fn next_in_run(&self) -> Option<bool> {
        match (self.run.front(), self.heap.peek()) {
            (Some(r), Some(h)) => Some(r.key() < h.key()),
            (Some(_), None) => Some(true),
            (None, Some(_)) => Some(false),
            (None, None) => None,
        }
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = if self.next_in_run()? {
            self.run.pop_front()
        } else {
            self.heap.pop()
        }
        .expect("the lane just peeked is non-empty");
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        Some((entry.at, entry.payload))
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.next_in_run()? {
            self.run.front().map(|e| e.at)
        } else {
            self.heap.peek().map(|e| e.at)
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(30), 3);
        q.schedule(SimTime::from_us(10), 1);
        q.schedule(SimTime::from_us(20), 2);
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(got, [1, 2, 3]);
    }

    #[test]
    fn ties_resolve_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_us(7), i);
        }
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        let want: Vec<_> = (0..100).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(5), ());
        q.schedule(SimTime::from_us(5), ());
        q.schedule(SimTime::from_us(9), ());
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            assert_eq!(q.now(), t);
            last = t;
        }
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(10), ());
        q.pop();
        q.schedule(SimTime::from_us(5), ());
    }

    #[test]
    fn len_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_us(4), ());
        q.schedule(SimTime::from_us(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_us(2)));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(1), "a");
        let (t, _) = q.pop().unwrap();
        q.schedule(t + crate::SimDuration::from_us(1), "b");
        q.schedule(t + crate::SimDuration::from_us(3), "d");
        q.schedule(t + crate::SimDuration::from_us(2), "c");
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(got, ["b", "c", "d"]);
    }
}
