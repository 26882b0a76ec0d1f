//! The kernel's software timer queue (Figure 1: "Timers / Clock
//! services"): a binary min-heap keyed on `(expiry, arm sequence)`.
//! Timers pop in the original delta queue's order, FIFO among equal
//! expiries. Callers charge the virtual cost (a flat `timer_program`),
//! so the host-side structure cannot move virtual time (DESIGN.md §12).

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use emeralds_sim::Time;

/// A pending timer entry, ordered on `(at, seq)` alone and reversed so
/// that the heap's maximum is the earliest expiry.
#[derive(Clone, Debug)]
struct Entry<E> {
    at: Time,
    seq: u64,
    payload: E,
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<E> Eq for Entry<E> {}

/// A timer queue: O(log n) arm and pop, O(1) head inspection.
#[derive(Clone, Debug)]
pub struct TimerQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Timers armed; also the next arm's sequence number.
    pub inserts: u64,
    /// Sum of the heap's height after each push: the upper bound on
    /// the comparisons the pushes made.
    pub insert_walks: u64,
    /// Timers popped.
    pub expirations: u64,
}

impl<E> Default for TimerQueue<E> {
    fn default() -> Self {
        TimerQueue {
            heap: BinaryHeap::new(),
            inserts: 0,
            insert_walks: 0,
            expirations: 0,
        }
    }
}

impl<E> TimerQueue<E> {
    /// Arms a timer at `at`.
    pub fn arm(&mut self, at: Time, payload: E) {
        let seq = self.inserts;
        self.heap.push(Entry { at, seq, payload });
        self.inserts += 1;
        self.insert_walks += u64::from(self.heap.len().ilog2());
    }

    /// The head expiry: when the next timer is due.
    pub fn next_expiry(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pops the head if due at or before `now`.
    pub fn pop_due(&mut self, now: Time) -> Option<(Time, E)> {
        let head = self.heap.peek_mut().filter(|e| e.at <= now)?;
        let e = PeekMut::pop(head);
        self.expirations += 1;
        Some((e.at, e.payload))
    }

    /// Number of armed timers.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if nothing is armed.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_fifo_on_ties() {
        let mut q = TimerQueue::default();
        q.arm(Time::from_us(5), 'b');
        q.arm(Time::from_us(1), 'a');
        q.arm(Time::from_us(5), 'c');
        assert_eq!(q.next_expiry(), Some(Time::from_us(1)));
        let order: Vec<char> =
            std::iter::from_fn(|| q.pop_due(Time::from_us(10)).map(|(_, v)| v)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
        assert_eq!(q.expirations, 3);
        // A burst of equal expiries, deep enough that a heap without
        // the arm-sequence tie-break would reorder it.
        let mut q = TimerQueue::default();
        for i in 0..16 {
            q.arm(Time::from_us(20), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop_due(Time::MAX).map(|(_, v)| v)).collect();
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = TimerQueue::default();
        q.arm(Time::from_us(10), 1);
        assert_eq!(q.pop_due(Time::from_us(9)), None);
        assert_eq!(q.pop_due(Time::from_us(10)), Some((Time::from_us(10), 1)));
    }

    #[test]
    fn order_holds_across_buckets_and_window_inserts() {
        // Entries spread over many milliseconds, armed out of order,
        // with ties, plus a late arm behind an already-popped head:
        // pops must come back in exact (time, arm-order) order.
        let mut q = TimerQueue::default();
        let times_ms = [7u64, 1, 40, 7, 3, 100, 1, 40];
        for (i, &ms) in times_ms.iter().enumerate() {
            q.arm(Time::from_ms(ms), i);
        }
        assert_eq!(q.len(), times_ms.len());
        assert_eq!(q.pop_due(Time::from_ms(1)), Some((Time::from_ms(1), 1)));
        q.arm(Time::from_us(1500), 99);
        let mut order = Vec::new();
        while let Some((at, v)) = q.pop_due(Time::from_ms(200)) {
            order.push((at, v));
        }
        let expect = vec![
            (Time::from_ms(1), 6),
            (Time::from_us(1500), 99),
            (Time::from_ms(3), 4),
            (Time::from_ms(7), 0),
            (Time::from_ms(7), 3),
            (Time::from_ms(40), 2),
            (Time::from_ms(40), 7),
            (Time::from_ms(100), 5),
        ];
        assert_eq!(order, expect);
        assert!(q.is_empty());
        assert_eq!(q.inserts, 9);
    }

    /// Pinned boundary case from the calendar queue this heap
    /// replaced: arms on either side of and exactly at a 2^16 ns
    /// boundary, one of them behind entries already armed, must pop in
    /// exact time order.
    #[test]
    fn arm_exactly_on_dispensing_boundary_orders_correctly() {
        const BOUNDARY_NS: u64 = 1 << 16;
        let mut q = TimerQueue::default();
        q.arm(Time::from_ns(10), 0u64);
        q.arm(Time::from_ns(BOUNDARY_NS - 1), 1);
        q.arm(Time::from_ns(BOUNDARY_NS), 2);
        q.arm(Time::from_ns(20), 3);
        let order: Vec<(Time, u64)> = std::iter::from_fn(|| q.pop_due(Time::MAX)).collect();
        assert_eq!(
            order,
            vec![
                (Time::from_ns(10), 0),
                (Time::from_ns(20), 3),
                (Time::from_ns(BOUNDARY_NS - 1), 1),
                (Time::from_ns(BOUNDARY_NS), 2),
            ]
        );
        // Heights after each push: 0, 1, 1, 2.
        assert_eq!(q.insert_walks, 4);
    }
}
