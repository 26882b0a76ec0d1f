//! The kernel's software timer queue (Figure 1: "Timers / Clock
//! services").
//!
//! A small-memory kernel keeps pending timeouts in a *delta queue*: a
//! list ordered by expiry where each node stores the time delta to its
//! predecessor, so the head's delta is the only value the tick handler
//! decrements and reprogramming the one-shot hardware timer needs only
//! the head. The original structure here was exactly that — O(n)
//! insert walk, O(1) pop. Profiling the cluster executive showed the
//! insert walk dominating timer cost once dozens of periodic tasks
//! re-arm one period ahead (each insert walks essentially the whole
//! queue), so the queue now carries a **bucketed wheel front-end**:
//!
//! - `current` — a sorted dispensing window holding every entry below
//!   the dispensed-bucket boundary. Head pops, `next_expiry`, and
//!   `head_delta` stay O(1), exactly as the delta queue's head did.
//! - `far` — a calendar of fixed-width time buckets (width
//!   [`BUCKET_NS`]); arming a far timer appends to its bucket
//!   *unsorted* in O(log #buckets). When the window drains, the next
//!   nonempty bucket is sorted once and becomes the window
//!   (sort-on-dispense, amortized O(log k) per entry).
//!
//! Expiry order is untouched: entries pop in (time, insertion seq)
//! order — FIFO among equal expiries — matching the determinism
//! guarantees of the rest of the simulator, and the per-op *virtual*
//! cost model is charged by the callers (a flat `timer_program`), so
//! restructuring the host-side work cannot move virtual time. The
//! `insert_walks` counter now reports the ordering work actually
//! performed (binary-search probes, bucket appends, dispense-sort
//! comparisons) so the hot-path benchmark can state the before/after
//! honestly.

use std::collections::VecDeque;

use emeralds_sim::Time;

/// Calendar bucket width: 2^16 ns ≈ 65.5 µs, a handful of bus-frame
/// times. Task periods (hundreds of µs to tens of ms) land several
/// buckets out, so same-period re-arms never pile into the dispensing
/// window.
const BUCKET_SHIFT: u32 = 16;

/// Bucket width in nanoseconds.
pub const BUCKET_NS: u64 = 1 << BUCKET_SHIFT;

/// A pending timer entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry<E> {
    at: Time,
    seq: u64,
    payload: E,
}

/// A timer queue with a sorted dispensing window and a bucketed
/// calendar for far timers. O(log) insert, O(1) expiry pop and head
/// inspection. Pops in (expiry, arm-order) order — stable FIFO among
/// equal expiries.
#[derive(Clone, Debug)]
pub struct TimerQueue<E> {
    /// Sorted dispensing window: every entry with bucket index below
    /// `dispensed_until`. Nonempty whenever the queue is nonempty.
    current: VecDeque<Entry<E>>,
    /// Calendar buckets `(index, entries)` sorted by index
    /// (index = expiry ns >> BUCKET_SHIFT), holding unsorted far
    /// entries, all with bucket >= `dispensed_until`. A flat sorted
    /// deque instead of a `BTreeMap`: periodic re-arms in steady state
    /// then recycle capacity instead of churning tree nodes — the
    /// kernel hot loop stays allocation-free once warmed up.
    far: VecDeque<(u64, Vec<Entry<E>>)>,
    far_len: usize,
    /// Emptied bucket vectors kept for reuse (capacity, not contents).
    spare: Vec<Vec<Entry<E>>>,
    /// Exclusive bucket bound of the dispensing window.
    dispensed_until: u64,
    seq: u64,
    /// Lifetime statistics: ordering work performed by inserts
    /// (binary-search probes + bucket appends + dispense-sort
    /// comparisons), for the overhead ledger, tests, and the hot-path
    /// benchmark.
    pub insert_walks: u64,
    pub inserts: u64,
    pub expirations: u64,
}

impl<E> TimerQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        TimerQueue {
            current: VecDeque::new(),
            far: VecDeque::new(),
            far_len: 0,
            spare: Vec::new(),
            dispensed_until: 0,
            seq: 0,
            insert_walks: 0,
            inserts: 0,
            expirations: 0,
        }
    }

    /// Bound on pooled bucket vectors — enough for every in-flight
    /// bucket of a busy workload without letting a burst pin memory.
    const SPARE_CAP: usize = 64;

    /// Returns an emptied bucket vector to the reuse pool.
    fn recycle(&mut self, v: Vec<Entry<E>>) {
        debug_assert!(v.is_empty());
        if self.spare.len() < Self::SPARE_CAP {
            self.spare.push(v);
        }
    }

    /// Pulls the earliest far bucket into the (empty) dispensing
    /// window, sorting it once.
    fn cascade(&mut self) {
        debug_assert!(self.current.is_empty());
        if let Some((bucket, mut v)) = self.far.pop_front() {
            self.far_len -= v.len();
            let mut cmps = 0u64;
            v.sort_by(|a, b| {
                cmps += 1;
                (a.at, a.seq).cmp(&(b.at, b.seq))
            });
            self.insert_walks += cmps;
            self.current.extend(v.drain(..));
            self.recycle(v);
            self.dispensed_until = bucket + 1;
        }
    }

    /// Arms a timer at `at`. Returns the ordering work performed (the
    /// cost driver the old delta queue paid as a full insert walk).
    pub fn arm(&mut self, at: Time, payload: E) -> usize {
        let seq = self.seq;
        self.seq += 1;
        self.inserts += 1;
        let bucket = at.as_ns() >> BUCKET_SHIFT;
        let work = if bucket < self.dispensed_until {
            // Already-dispensed range: binary-search the sorted
            // window; FIFO among equal expiries.
            let pos = self.current.partition_point(|e| e.at <= at);
            self.current.insert(pos, Entry { at, seq, payload });
            usize::BITS as usize - self.current.len().leading_zeros() as usize
        } else {
            // Sorted-by-bucket deque: find the bucket's slot (steady
            // periodic re-arms land at or near the back).
            let pos = self.far.partition_point(|(b, _)| *b < bucket);
            match self.far.get_mut(pos) {
                Some((b, v)) if *b == bucket => v.push(Entry { at, seq, payload }),
                _ => {
                    let mut v = self.spare.pop().unwrap_or_default();
                    v.push(Entry { at, seq, payload });
                    self.far.insert(pos, (bucket, v));
                }
            }
            self.far_len += 1;
            if self.current.is_empty() {
                self.cascade();
            }
            1
        };
        self.insert_walks += work as u64;
        work
    }

    /// The head expiry — what the hardware one-shot gets programmed
    /// to.
    pub fn next_expiry(&self) -> Option<Time> {
        self.current.front().map(|e| e.at)
    }

    /// Pops the head if due at or before `now` — O(1) on the deque.
    pub fn pop_due(&mut self, now: Time) -> Option<(Time, E)> {
        if self.current.front().is_some_and(|e| e.at <= now) {
            let e = self.current.pop_front().expect("front checked above");
            self.expirations += 1;
            if self.current.is_empty() {
                self.cascade();
            }
            Some((e.at, e.payload))
        } else {
            None
        }
    }

    /// Delta of the head relative to `now` (what a tick decrements),
    /// zero when already due.
    pub fn head_delta(&self, now: Time) -> Option<emeralds_sim::Duration> {
        self.current.front().map(|e| e.at.saturating_since(now))
    }

    /// Cancels all entries matching `pred`; returns how many.
    pub fn cancel(&mut self, mut pred: impl FnMut(&E) -> bool) -> usize {
        let before = self.len();
        self.current.retain(|e| !pred(&e.payload));
        for (_, v) in &mut self.far {
            v.retain(|e| !pred(&e.payload));
        }
        let mut i = 0;
        while i < self.far.len() {
            if self.far[i].1.is_empty() {
                let (_, v) = self.far.remove(i).expect("index checked above");
                self.recycle(v);
            } else {
                i += 1;
            }
        }
        self.far_len = self.far.iter().map(|(_, v)| v.len()).sum();
        if self.current.is_empty() {
            self.cascade();
        }
        before - self.len()
    }

    /// Number of armed timers.
    pub fn len(&self) -> usize {
        self.current.len() + self.far_len
    }

    /// True if nothing is armed.
    pub fn is_empty(&self) -> bool {
        self.current.is_empty() && self.far_len == 0
    }
}

impl<E> Default for TimerQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emeralds_sim::Duration;

    #[test]
    fn pops_in_time_order_fifo_on_ties() {
        let mut q = TimerQueue::new();
        q.arm(Time::from_us(5), 'b');
        q.arm(Time::from_us(1), 'a');
        q.arm(Time::from_us(5), 'c');
        assert_eq!(q.next_expiry(), Some(Time::from_us(1)));
        let order: Vec<char> =
            std::iter::from_fn(|| q.pop_due(Time::from_us(10)).map(|(_, v)| v)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
        assert_eq!(q.expirations, 3);
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = TimerQueue::new();
        q.arm(Time::from_us(10), 1);
        assert_eq!(q.pop_due(Time::from_us(9)), None);
        assert_eq!(q.pop_due(Time::from_us(10)), Some((Time::from_us(10), 1)));
    }

    #[test]
    fn order_holds_across_buckets_and_window_inserts() {
        // Entries spanning many calendar buckets, armed out of order,
        // with ties, plus a late insert into the already-dispensed
        // window: pops must come back in exact (time, arm-order)
        // order.
        let mut q = TimerQueue::new();
        let times_ms = [7u64, 1, 40, 7, 3, 100, 1, 40];
        for (i, &ms) in times_ms.iter().enumerate() {
            q.arm(Time::from_ms(ms), i);
        }
        assert_eq!(q.len(), times_ms.len());
        // Pop the first bucket's entry to open the window…
        assert_eq!(q.pop_due(Time::from_ms(1)), Some((Time::from_ms(1), 1)));
        // …then arm *behind* the dispensing boundary.
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
    }

    #[test]
    fn far_inserts_do_not_walk() {
        // The delta queue's pathology: N periodic re-arms each walked
        // the whole queue (Θ(N²) total). Calendar appends are O(1)
        // each plus a one-time sort at dispense.
        let mut q = TimerQueue::new();
        for i in 0..64u64 {
            // 64 distinct far buckets, in-order arms (worst case for
            // the old walk).
            assert_eq!(q.arm(Time::from_ms(1 + i), i), 1);
        }
        assert_eq!(q.inserts, 64);
        // 63 appends at cost 1 each + 1 append that also cascaded.
        assert!(q.insert_walks < 64 * 8, "walks {}", q.insert_walks);
    }

    #[test]
    fn head_delta_and_cancel() {
        let mut q = TimerQueue::new();
        q.arm(Time::from_us(100), 7);
        q.arm(Time::from_us(200), 8);
        assert_eq!(q.head_delta(Time::from_us(40)), Some(Duration::from_us(60)));
        assert_eq!(q.cancel(|&v| v == 7), 1);
        assert_eq!(q.next_expiry(), Some(Time::from_us(200)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn cancel_across_buckets_keeps_head_exact() {
        let mut q = TimerQueue::new();
        for i in 0..10u64 {
            q.arm(Time::from_ms(1 + 2 * i), i);
        }
        // Cancel the entire first few buckets' worth.
        assert_eq!(q.cancel(|&v| v < 3), 3);
        assert_eq!(q.next_expiry(), Some(Time::from_ms(7)));
        assert_eq!(q.len(), 7);
    }

    #[test]
    fn overdue_head_has_zero_delta() {
        let mut q = TimerQueue::new();
        q.arm(Time::from_us(10), 0);
        assert_eq!(q.head_delta(Time::from_us(50)), Some(Duration::ZERO));
    }

    /// Pinned boundary case: an arm landing exactly on the
    /// `dispensed_until` bucket boundary must file as a far entry (its
    /// bucket has not been dispensed) yet still pop before any
    /// larger-time window entry and after every smaller one.
    #[test]
    fn arm_exactly_on_dispensing_boundary_orders_correctly() {
        let mut q = TimerQueue::new();
        // Two entries in bucket 0 open a window with
        // `dispensed_until` = 1 after the cascade on first arm.
        q.arm(Time::from_ns(10), 0u64);
        q.arm(Time::from_ns(BUCKET_NS - 1), 1);
        // Exactly at the boundary: bucket 1, one past the window.
        q.arm(Time::from_ns(BUCKET_NS), 2);
        // And behind the boundary, into the dispensed window.
        q.arm(Time::from_ns(20), 3);
        let order: Vec<(Time, u64)> = std::iter::from_fn(|| q.pop_due(Time::MAX)).collect();
        assert_eq!(
            order,
            vec![
                (Time::from_ns(10), 0),
                (Time::from_ns(20), 3),
                (Time::from_ns(BUCKET_NS - 1), 1),
                (Time::from_ns(BUCKET_NS), 2),
            ]
        );
    }
}
