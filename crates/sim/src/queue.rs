//! The event queue: a time-ordered priority queue with stable FIFO
//! tie-breaking for events scheduled at the same instant.
//!
//! Stability matters for reproducibility: two events at the same timestamp
//! must always be delivered in the order they were scheduled, regardless of
//! heap internals. Each entry carries its schedule sequence number, and the
//! heap orders by `(at, seq)`.
//!
//! There is no cancellation. A caller whose event may go stale checks it
//! when it pops (the browser engine compares a retry's attempt, a
//! connection's epoch and the link's tick time), so every scheduled event
//! is delivered exactly once.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        // BinaryHeap is a max-heap; invert so the earliest (and, within a
        // timestamp, the first-scheduled) entry is popped first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of events of type `E`.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Reset to empty while keeping the heap's allocation — the
    /// scratch-reuse hook for callers that run many simulations
    /// back-to-back. A recycled queue is observationally identical to a
    /// fresh one: sequence numbers restart at zero and nothing is pending.
    pub fn recycle(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
    }

    /// Schedule `event` for delivery at `at`. Scheduling in the past is
    /// allowed (the caller's engine decides whether that is an error);
    /// delivery order is still by time.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.heap.push(Entry {
            at,
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
    }

    /// Pop the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Total events scheduled since construction or the last `recycle` —
    /// a diagnostic for event-volume accounting in engine benchmarks.
    pub fn total_scheduled(&self) -> u64 {
        self.next_seq
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn len_tracks_schedules_and_pops() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }
}
