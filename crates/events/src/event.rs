//! A deterministic discrete-event queue.
//!
//! Events scheduled at the same instant are delivered in FIFO scheduling
//! order (a monotonically increasing sequence number breaks ties), which
//! keeps simulations reproducible regardless of the lanes' layout.
//!
//! Every entry carries one [`EventKey`], `at_ns << 64 | seq` packed in a
//! `u128`, with `seq` unique and only growing, so "smallest key first" is
//! the total order "earliest instant, then first scheduled" and comparing
//! two entries is one integer compare. A caller may order items it keeps
//! outside the queue against the queue's events by the same key: it takes
//! their sequence numbers with [`EventQueue::take_seqs`], compares its
//! oldest item's key with [`EventQueue::peek_key`], and moves the clock
//! with [`EventQueue::advance_to`] when it handles that item. The
//! simulator keeps its not-yet-arrived requests that way.
//!
//! The queue has two lanes behind one `schedule`/`pop`:
//!
//! * the *run*, a deque in ascending key order: an event whose instant is
//!   not earlier than the run's back (or any event while the run is
//!   empty) is appended to it in O(1). In the simulator, whose arrivals
//!   stay outside the queue, it takes a few percent of the events: the
//!   device completions landing after every other one the run holds;
//! * the *out-of-order lane*, a flat vector in descending key order:
//!   every other event is inserted at the place a binary search finds, and
//!   the earliest sits at the back, where `pop` takes it. In the simulator
//!   this lane holds only in-flight device completions (at most one per
//!   die, channel, ECC engine and host link, plus a suspended die
//!   command's stale one), a few dozen entries: a shift of that many
//!   16-byte-keyed entries is cheaper than a heap's sift, and `pop` is a
//!   plain `Vec::pop`. A caller that keeps thousands of events pending out
//!   of order pays O(n) per `schedule` instead of O(log n).
//!
//! The delivery order is the one a single priority queue gives, by
//! construction: appending when `at >= run.back().at` keeps the run
//! sorted (the new `seq` is the largest yet), so its front is its
//! minimum; the lane's back is the lane's minimum; and `pop` takes the
//! smaller of the two.

use std::collections::VecDeque;

use crate::time::SimTime;

/// A place in delivery order: an instant, then the sequence number that
/// breaks ties at it, first taken first. Packed as `at_ns << 64 | seq`, so
/// comparing two keys is one integer compare.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventKey(u128);

impl EventKey {
    /// The key of an item at `at` holding sequence number `seq`.
    #[inline]
    pub fn new(at: SimTime, seq: u64) -> Self {
        EventKey((at.as_ns() as u128) << 64 | seq as u128)
    }

    /// The instant this key delivers at.
    #[inline]
    pub fn at(self) -> SimTime {
        SimTime::from_ns((self.0 >> 64) as u64)
    }
}

struct Entry<E> {
    key: EventKey,
    payload: E,
}

impl<E> Entry<E> {
    fn at(&self) -> SimTime {
        self.key.at()
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
    /// Every entry scheduled earlier than the run's back at the time, in
    /// descending key order: the earliest is last.
    lane: Vec<Entry<E>>,
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
            lane: Vec::new(),
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
        let key = EventKey::new(at, self.take_seqs(1));
        let entry = Entry { key, payload };
        match self.run.back() {
            Some(last) if key < last.key => {
                let i = self.lane.partition_point(|e| e.key > key);
                self.lane.insert(i, entry);
            }
            _ => self.run.push_back(entry),
        }
    }

    /// Takes `n` consecutive sequence numbers and returns the first, for
    /// items the caller keeps outside the queue and orders against its
    /// events by [`EventKey::new`]: an event scheduled afterwards at the
    /// same instant delivers after them.
    #[inline]
    pub fn take_seqs(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }

    /// Moves the clock to `at`, where the caller handles an item it keeps
    /// outside the queue, one whose key is below [`EventQueue::peek_key`].
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock.
    #[inline]
    pub fn advance_to(&mut self, at: SimTime) {
        assert!(
            at >= self.now,
            "clock moved back: at={at:?} now={:?}",
            self.now
        );
        debug_assert!(self.peek_time().is_none_or(|t| t >= at));
        self.now = at;
    }

    /// Whether the next event in delivery order sits at the run's front
    /// (`false`: at the lane's back). `None` when the queue is empty.
    fn next_in_run(&self) -> Option<bool> {
        match (self.run.front(), self.lane.last()) {
            (Some(r), Some(l)) => Some(r.key < l.key),
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
            self.lane.pop()
        }
        .expect("the lane just peeked is non-empty");
        let at = entry.at();
        debug_assert!(at >= self.now);
        self.now = at;
        Some((at, entry.payload))
    }

    /// Key of the next event without removing it.
    #[inline]
    pub fn peek_key(&self) -> Option<EventKey> {
        if self.next_in_run()? {
            self.run.front().map(|e| e.key)
        } else {
            self.lane.last().map(|e| e.key)
        }
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(EventKey::at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.run.len() + self.lane.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.lane.is_empty()
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
    fn instants_survive_the_packed_key() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, "last");
        q.schedule(SimTime::from_ns(u64::MAX - 1), "max-1");
        q.schedule(SimTime::ZERO, "zero");
        assert_eq!(q.pop(), Some((SimTime::ZERO, "zero")));
        assert_eq!(q.pop(), Some((SimTime::from_ns(u64::MAX - 1), "max-1")));
        assert_eq!(q.pop(), Some((SimTime::MAX, "last")));
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
