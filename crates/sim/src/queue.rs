//! The event queue: a time-ordered priority queue with stable FIFO
//! tie-breaking for events scheduled at the same instant.
//!
//! Stability matters for reproducibility: two events at the same timestamp
//! must always be delivered in the order they were scheduled, regardless of
//! heap internals.
//!
//! Cancellation is lazy: `cancel` only removes the id from the pending
//! liveness set (O(log n)); the heap entry is dropped when it surfaces.
//! Nothing ever scans the heap.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Handle to a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

struct Entry<E> {
    at: SimTime,
    // Doubles as the event's id: `EventId`s are exactly the sequence
    // numbers, so storing both would waste 8 bytes per heap slot.
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

/// Liveness bitmap over the queue's sequential event ids: bit `i` is set
/// iff event id `i` was scheduled and neither popped nor cancelled. Ids are
/// dense (one per `schedule` call), so a flat word vector beats an ordered
/// set: every membership operation is one index plus one mask, no node
/// traffic.
#[derive(Default)]
struct IdBitSet {
    words: Vec<u64>,
    live: usize,
}

impl IdBitSet {
    fn insert(&mut self, id: u64) {
        let (word, bit) = ((id / 64) as usize, id % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        let Some(w) = self.words.get_mut(word) else {
            return; // unreachable: resized above
        };
        if *w & mask == 0 {
            *w |= mask;
            self.live += 1;
        }
    }

    fn remove(&mut self, id: u64) -> bool {
        let (word, bit) = ((id / 64) as usize, id % 64);
        let Some(w) = self.words.get_mut(word) else {
            return false;
        };
        let mask = 1u64 << bit;
        let was = *w & mask != 0;
        if was {
            *w &= !mask;
            self.live -= 1;
        }
        was
    }

    fn contains(&self, id: u64) -> bool {
        let (word, bit) = ((id / 64) as usize, id % 64);
        self.words.get(word).is_some_and(|w| w & (1u64 << bit) != 0)
    }

    fn clear(&mut self) {
        self.words.clear();
        self.live = 0;
    }
}

/// A time-ordered queue of events of type `E`.
///
/// The `pending` set is the single source of truth for liveness: an id is
/// in it iff its event was scheduled and neither popped nor cancelled. The
/// heap may additionally hold stale entries for cancelled ids, which are
/// discarded when they reach the head.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    pending: IdBitSet,
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
            pending: IdBitSet::default(),
        }
    }

    /// Reset to empty while keeping the heap's and bitmap's allocations —
    /// the scratch-reuse hook for callers that run many simulations
    /// back-to-back. A recycled queue is observationally identical to a
    /// fresh one: ids restart at zero and nothing is pending.
    pub fn recycle(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
        self.pending.clear();
    }

    /// Schedule `event` for delivery at `at`. Returns a handle that can
    /// cancel it. Scheduling in the past is allowed (the caller's engine
    /// decides whether that is an error); delivery order is still by time.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        let id = EventId(self.next_seq);
        self.heap.push(Entry {
            at,
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
        self.pending.insert(id.0);
        id
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending. O(1): one liveness-bitmap clear, no heap scan; the
    /// heap entry is lazily dropped when it reaches the head.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.pending.remove(id.0)
    }

    /// Pop the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.skip_cancelled();
        self.heap.pop().map(|e| {
            self.pending.remove(e.seq);
            (e.at, e.event)
        })
    }

    fn skip_cancelled(&mut self) {
        while let Some(head) = self.heap.peek() {
            if self.pending.contains(head.seq) {
                break;
            }
            self.heap.pop();
        }
    }

    /// Total events scheduled since construction or the last `recycle` —
    /// a diagnostic for event-volume accounting in engine benchmarks.
    pub fn total_scheduled(&self) -> u64 {
        self.next_seq
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.pending.live
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.live == 0
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
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert!(q.is_empty());
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

    #[test]
    fn cancelling_a_popped_id_is_a_no_op() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert!(!q.cancel(a), "already delivered");
        assert_eq!(q.len(), 1);
    }

    /// Regression for the old O(n) `contains_live` heap scan: cancel 10k of
    /// 20k timers and assert the survivors pop in exactly the order and at
    /// exactly the times an uncancelled schedule would deliver them.
    #[test]
    fn mass_cancellation_preserves_pop_order() {
        let n = 20_000u64;
        let mut q = EventQueue::new();
        let mut ids = Vec::with_capacity(n as usize);
        for i in 0..n {
            // Deliberately colliding timestamps to exercise FIFO ties.
            ids.push(q.schedule(t(i / 4), i));
        }
        // Cancel every odd-indexed timer (10k cancellations).
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 1 {
                assert!(q.cancel(*id));
            }
        }
        assert_eq!(q.len(), (n / 2) as usize);
        let mut popped = Vec::new();
        while let Some((at, ev)) = q.pop() {
            assert_eq!(at, t(ev / 4), "delivery time unchanged by cancellation");
            popped.push(ev);
        }
        let expected: Vec<u64> = (0..n).filter(|i| i % 2 == 0).collect();
        assert_eq!(popped, expected, "pop order unchanged by cancellation");
        assert!(q.is_empty());
    }
}
