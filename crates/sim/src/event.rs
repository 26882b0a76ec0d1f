//! Deterministic pending-event set.
//!
//! The kernel's timers and the board's device events are scheduled
//! future occurrences. [`EventQueue`] orders them by time and, within
//! one instant, by insertion order, so simulations are fully
//! deterministic regardless of the heap's internal layout.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::time::Time;

/// A pending-event set ordered by `(time, insertion sequence)`.
///
/// # Examples
///
/// ```
/// use emeralds_sim::{EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_us(5), "b");
/// q.push(Time::from_us(1), "a");
/// q.push(Time::from_us(5), "c");
/// assert_eq!(q.pop_due(Time::from_us(4)), Some((Time::from_us(1), "a")));
/// assert_eq!(q.pop_due(Time::from_us(4)), None); // not due yet
/// assert_eq!(q.pop_due(Time::MAX), Some((Time::from_us(5), "b"))); // FIFO within an instant
/// assert_eq!(q.pop_due(Time::MAX), Some((Time::from_us(5), "c")));
/// assert_eq!(q.pop_due(Time::MAX), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

/// One pending event under its ordering key: the time in the high 64
/// bits and the insertion sequence in the low ones, so one `u128`
/// comparison orders by `(time, sequence)`.
#[derive(Debug)]
struct Entry<E> {
    key: u128,
    payload: E,
}

impl<E> Entry<E> {
    fn new(at: Time, seq: u64, payload: E) -> Entry<E> {
        Entry {
            key: (at.as_ns() as u128) << 64 | seq as u128,
            payload,
        }
    }

    fn at(&self) -> Time {
        Time::from_ns((self.key >> 64) as u64)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
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
        // BinaryHeap is a max-heap; invert so the earliest (time, seq)
        // pops first.
        other.key.cmp(&self.key)
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` to occur at `at`.
    pub fn push(&mut self, at: Time, payload: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry::new(at, seq, payload));
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(Entry::at)
    }

    /// The earliest event, if it occurs at or before `now`.
    pub fn peek_due(&self, now: Time) -> Option<&E> {
        self.heap
            .peek()
            .filter(|e| e.at() <= now)
            .map(|e| &e.payload)
    }

    /// Removes and returns the earliest event if it occurs at or before
    /// `now`.
    pub fn pop_due(&mut self, now: Time) -> Option<(Time, E)> {
        let head = self.heap.peek_mut().filter(|e| e.at() <= now)?;
        let e = PeekMut::pop(head);
        Some((e.at(), e.payload))
    }

    /// Replaces the earliest event with `payload` at `at` and returns
    /// the one it replaced: the same queue as a `pop_due` followed by a
    /// `push`, sequence number included, in one sift instead of two.
    /// Returns `None`, pushing nothing, on an empty queue.
    pub fn replace_head(&mut self, at: Time, payload: E) -> Option<(Time, E)> {
        let seq = self.seq;
        let mut head = self.heap.peek_mut()?;
        self.seq += 1;
        let old = std::mem::replace(&mut *head, Entry::new(at, seq, payload));
        drop(head);
        Some((old.at(), old.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    /// Pops everything, due or not, in queue order.
    fn drain<E>(q: &mut EventQueue<E>) -> Vec<(Time, E)> {
        std::iter::from_fn(|| q.pop_due(Time::MAX)).collect()
    }

    #[test]
    fn orders_by_time_then_insertion() {
        let mut q = EventQueue::new();
        for (t, v) in [(3u64, 'x'), (1, 'a'), (1, 'b'), (2, 'm')] {
            q.push(Time::from_us(t), v);
        }
        let order: Vec<char> = drain(&mut q).into_iter().map(|(_, v)| v).collect();
        assert_eq!(order, vec!['a', 'b', 'm', 'x']);
        // A burst of equal times, deep enough that a heap without the
        // insertion-sequence tie-break would reorder it.
        let mut q = EventQueue::new();
        for i in 0..16 {
            q.push(Time::from_us(20), i);
        }
        let order: Vec<i32> = drain(&mut q).into_iter().map(|(_, v)| v).collect();
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn late_push_behind_a_popped_head_keeps_order() {
        // Times spread over many milliseconds, pushed out of order,
        // with ties, plus a late push behind an already-popped head:
        // pops must come back in exact (time, insertion) order.
        let mut q = EventQueue::new();
        let times_ms = [7u64, 1, 40, 7, 3, 100, 1, 40];
        for (i, &ms) in times_ms.iter().enumerate() {
            q.push(Time::from_ms(ms), i);
        }
        assert_eq!(q.len(), times_ms.len());
        assert_eq!(q.pop_due(Time::from_ms(1)), Some((Time::from_ms(1), 1)));
        q.push(Time::from_us(1500), 99);
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
        assert_eq!(drain(&mut q), expect);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(Time::from_us(10), 1);
        q.push(Time::from_us(20), 2);
        assert_eq!(q.pop_due(Time::from_us(5)), None);
        assert_eq!(q.pop_due(Time::from_us(10)), Some((Time::from_us(10), 1)));
        assert_eq!(q.pop_due(Time::from_us(15)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop_due(Time::MAX), None);
        assert_eq!(q.peek_due(Time::MAX), None);
        assert_eq!(q.replace_head(Time::ZERO, ()), None);
        assert!(q.is_empty(), "a replace on an empty queue pushes nothing");
    }

    #[test]
    fn fifo_survives_interleaved_pops() {
        let mut q = EventQueue::new();
        q.push(Time::from_us(1), 'a');
        assert_eq!(q.pop_due(Time::MAX).unwrap().1, 'a');
        q.push(Time::from_us(1), 'b');
        q.push(Time::from_us(1), 'c');
        assert_eq!(q.pop_due(Time::MAX).unwrap().1, 'b');
        assert_eq!(q.pop_due(Time::MAX).unwrap().1, 'c');
    }

    /// The reference model: a list sorted by time, each push inserted
    /// after every entry due at or before it, so ties keep insertion
    /// order. This is the kernel's original delta timer queue.
    struct SortedVec<E> {
        entries: Vec<(Time, E)>,
    }

    impl<E> SortedVec<E> {
        fn push(&mut self, at: Time, payload: E) {
            let pos = self.entries.partition_point(|e| e.0 <= at);
            self.entries.insert(pos, (at, payload));
        }

        fn pop_due(&mut self, now: Time) -> Option<(Time, E)> {
            if self.entries.first().is_some_and(|e| e.0 <= now) {
                Some(self.entries.remove(0))
            } else {
                None
            }
        }

        fn peek_time(&self) -> Option<Time> {
            self.entries.first().map(|e| e.0)
        }

        fn replace_head(&mut self, at: Time, payload: E) -> Option<(Time, E)> {
            if self.entries.is_empty() {
                return None;
            }
            let old = self.entries.remove(0);
            self.push(at, payload);
            Some(old)
        }
    }

    /// Property test: the queue is observationally identical to the
    /// sorted-list reference on randomized push/pop/replace workloads —
    /// including pushes landing *exactly* on a 2^16 ns boundary (the
    /// bucket width of the calendar queue the kernel once used) and one
    /// tick either side, overdue pushes, far-future pushes up against
    /// `u64::MAX`, and FIFO ties. Checked after every operation: head
    /// time and length; on every pop: the exact `(time, payload)` pair.
    #[test]
    fn heap_matches_delta_queue_on_randomized_workloads() {
        const BUCKET_NS: u64 = 1 << 16;
        let mut rng = SimRng::seeded(0x71AE5);
        for case in 0..24u64 {
            let mut rng = rng.derive(case);
            let mut q = EventQueue::new();
            let mut m = SortedVec {
                entries: Vec::new(),
            };
            let mut now = Time::ZERO;
            let mut next_payload = 0u64;
            for op in 0..400u32 {
                let ctx = |now: Time| format!("case {case} op {op} now {}", now.as_ns());
                let draw = rng.int_in(0, 99);
                if draw < 65 {
                    // Push — or, one time in six, replace the head —
                    // drawing the time from an edge-heavy mix.
                    let at = match rng.int_in(0, 9) {
                        0..=2 => {
                            Time::from_ns(now.as_ns().saturating_add(rng.int_in(0, 2 * BUCKET_NS)))
                        }
                        3..=4 => {
                            // Exactly on a bucket boundary at or after
                            // `now`.
                            let k = now.as_ns() / BUCKET_NS + rng.int_in(0, 3);
                            Time::from_ns(k.saturating_mul(BUCKET_NS))
                        }
                        5 => {
                            // One tick either side of a boundary.
                            let k = (now.as_ns() / BUCKET_NS + rng.int_in(1, 3))
                                .saturating_mul(BUCKET_NS);
                            Time::from_ns(if rng.chance(0.5) {
                                k - 1
                            } else {
                                k.saturating_add(1)
                            })
                        }
                        6 => {
                            // Behind `now` (overdue).
                            Time::from_ns(now.as_ns().saturating_sub(rng.int_in(0, BUCKET_NS)))
                        }
                        7..=8 => Time::from_ns(
                            now.as_ns()
                                .saturating_add(rng.int_in(2 * BUCKET_NS, 60 * BUCKET_NS)),
                        ),
                        _ => {
                            // Far-future overflow zone.
                            Time::from_ns(u64::MAX - rng.int_in(0, 3 * BUCKET_NS))
                        }
                    };
                    let p = next_payload;
                    next_payload += 1;
                    if draw < 11 {
                        // The kernel re-arms a periodic release in the
                        // place of the expired one: often at a due head.
                        let got = q.replace_head(at, p);
                        let want = m.replace_head(at, p);
                        assert_eq!(got, want, "replace diverged ({})", ctx(now));
                    } else {
                        q.push(at, p);
                        m.push(at, p);
                    }
                    // FIFO ties are common: push the same instant again.
                    if rng.chance(0.25) {
                        let p = next_payload;
                        next_payload += 1;
                        q.push(at, p);
                        m.push(at, p);
                    }
                } else {
                    // Advance time — sometimes exactly onto the next
                    // head or a bucket boundary — and drain.
                    now = match rng.int_in(0, 3) {
                        0 => Time::from_ns(
                            (now.as_ns() / BUCKET_NS + rng.int_in(1, 4)).saturating_mul(BUCKET_NS),
                        ),
                        1 => m.peek_time().unwrap_or(now).max(now),
                        _ => {
                            Time::from_ns(now.as_ns().saturating_add(rng.int_in(1, 8 * BUCKET_NS)))
                        }
                    };
                    loop {
                        assert_eq!(
                            q.peek_due(now),
                            m.entries.first().filter(|e| e.0 <= now).map(|e| &e.1),
                            "due head diverged ({})",
                            ctx(now)
                        );
                        let got = q.pop_due(now);
                        let want = m.pop_due(now);
                        assert_eq!(got, want, "pop diverged ({})", ctx(now));
                        if got.is_none() {
                            break;
                        }
                    }
                }
                assert_eq!(q.peek_time(), m.peek_time(), "head diverged ({})", ctx(now));
                assert_eq!(q.len(), m.entries.len(), "length diverged ({})", ctx(now));
                assert_eq!(q.is_empty(), m.entries.is_empty());
            }
            // Final drain at the end of time: every pushed entry —
            // including the `u64::MAX`-adjacent ones — pops, in exact
            // reference order.
            loop {
                let got = q.pop_due(Time::MAX);
                let want = m.pop_due(Time::MAX);
                assert_eq!(got, want, "final drain diverged (case {case})");
                if got.is_none() {
                    break;
                }
            }
            assert!(q.is_empty());
        }
    }
}
