//! State-message IPC (§7, reconstructed — see DESIGN.md).
//!
//! A state message is a single-writer, multi-reader shared variable
//! with *state semantics*: a new value overwrites the old one, reading
//! does not consume, and neither side ever blocks. The implementation
//! is an N-deep circular buffer in shared memory:
//!
//! - the writer bumps a sequence number and copies the new value into
//!   slot `seq mod N`;
//! - a reader snapshots the sequence number, copies slot
//!   `seq mod N`, and re-checks the sequence number; if the writer has
//!   advanced by `N − 1` or more in the meantime the slot may have
//!   been overwritten mid-copy and the reader retries.
//!
//! With `N` sized from the timing bounds — the writer cannot wrap a
//! whole buffer within any reader's worst-case preempted read — the
//! retry never fires and reads/writes are wait-free with *no kernel
//! involvement after setup*. That is the entire point: a mailbox
//! transfer costs two syscalls plus two kernel copies; a state-message
//! access is one user-space copy loop.
//!
//! [`required_depth`] gives the sizing rule, and the `protocol` module
//! exposes a step-wise simulator of the read/write races used by the
//! property tests to show (a) the depth bound is sufficient and (b) a
//! 1-deep buffer is genuinely torn by preemption.

use std::cell::Cell;

use emeralds_sim::{Duration, DurationHistogram, RegionId, StateId, ThreadId, Time};

/// The §7 minimum buffer depth: one slot being read, one being
/// written, and one complete spare, so the writer can never overwrite
/// the slot under an un-preempted reader.
pub const MIN_DEPTH: usize = 3;

/// Sentinel writer id for variables fed by a device (NIC DMA) rather
/// than a local task — the replica end of a networked state message.
pub const EXTERNAL_WRITER: ThreadId = ThreadId(u32::MAX);

/// A state-message variable.
#[derive(Clone, Debug)]
pub struct StateMsgVar {
    pub id: StateId,
    /// Payload size in bytes (drives the copy-cost model).
    pub size: usize,
    /// Buffer depth N.
    pub depth: usize,
    /// The only thread allowed to write ([`EXTERNAL_WRITER`] for a
    /// replica fed over the fieldbus).
    pub writer: ThreadId,
    /// Shared-memory region backing the buffer.
    pub region: RegionId,
    /// Sequence number of the freshest complete value (0 = never
    /// written).
    pub seq: u64,
    /// The slot values (abstract payload words).
    slots: Vec<u32>,
    /// Per-slot virtual-time stamps: when the version in the slot was
    /// produced *at its original writer* (stamps travel with networked
    /// replicas, so a consumer's data age is end-to-end).
    stamps: Vec<Time>,
    /// Data age observed at each consistent read: read instant minus
    /// the stamp of the version returned. Empty until the first read
    /// of a written variable.
    age_hist: DurationHistogram,
    /// Lifetime read count (`seq` counts the writes). Kept in `Cell`s
    /// so the wait-free read path can take `&self`, matching the
    /// single-writer/multi-reader semantics of §7 (a read mutates
    /// nothing an observer can race on).
    reads: Cell<u64>,
    /// Reads that observed the writer advance past a full buffer wrap
    /// mid-copy and restarted. With the buffer sized by
    /// [`required_depth`] this stays zero — the wait-free guarantee the
    /// metrics snapshot reports.
    retries: Cell<u64>,
}

impl StateMsgVar {
    /// Creates a variable with the given buffer depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or `size` is zero.
    pub fn new(
        id: StateId,
        writer: ThreadId,
        region: RegionId,
        size: usize,
        depth: usize,
    ) -> StateMsgVar {
        assert!(depth >= 1, "state message needs at least one slot");
        assert!(size >= 1, "empty state message");
        StateMsgVar {
            id,
            size,
            depth,
            writer,
            region,
            seq: 0,
            slots: vec![0; depth],
            stamps: vec![Time::ZERO; depth],
            age_hist: DurationHistogram::new(),
            reads: Cell::new(0),
            retries: Cell::new(0),
        }
    }

    /// Writer-side update (single writer enforced). `at` is the
    /// production instant stamped onto the new version.
    ///
    /// # Panics
    ///
    /// Panics if called by a thread other than the registered writer.
    pub fn write(&mut self, tid: ThreadId, value: u32, at: Time) {
        assert_eq!(tid, self.writer, "{}: write by non-writer {tid}", self.id);
        self.publish(value, at);
    }

    /// Device-side update: the NIC DMAs a networked state-message
    /// frame into the replica buffer, carrying the *original* writer's
    /// stamp so data age stays end-to-end.
    pub fn write_external(&mut self, value: u32, stamp: Time) {
        self.publish(value, stamp);
    }

    fn publish(&mut self, value: u32, at: Time) {
        let next = self.seq + 1;
        let slot = (next % self.depth as u64) as usize;
        self.slots[slot] = value;
        self.stamps[slot] = at;
        self.seq = next;
    }

    /// Has the writer wrapped the whole buffer since `start_seq` was
    /// snapshotted? (The §7 re-check; on a 1-deep buffer *any* advance
    /// may have overwritten the slot mid-copy.)
    fn wrapped_since(&self, start_seq: u64) -> bool {
        self.seq.saturating_sub(start_seq) >= (self.depth as u64 - 1).max(1)
    }

    /// Reader-side access: the freshest complete value (0 before the
    /// first write, matching a zero-initialized shared buffer).
    /// Takes `&self` — a state-message read is wait-free and never
    /// perturbs the variable (§7); only the lifetime `reads` counter
    /// advances, through a `Cell`.
    pub fn read(&self) -> u32 {
        self.read_stamped().0
    }

    /// Like [`StateMsgVar::read`], also returning the stamp of the
    /// version read. The §7 reader protocol: snapshot `seq`, copy the
    /// slot, re-check `seq`; a wrapped buffer means the copy may be
    /// torn, so the loop re-snapshots and re-copies until consistent.
    /// A kernel-sim read is atomic in virtual time, so in-kernel the
    /// loop exits first pass; the retry path is exercised by the
    /// preemption instrument below and the protocol tests.
    pub fn read_stamped(&self) -> (u32, Time) {
        self.reads.set(self.reads.get() + 1);
        loop {
            let start_seq = self.seq;
            let slot = (start_seq % self.depth as u64) as usize;
            let value = self.slots[slot];
            let stamp = self.stamps[slot];
            if self.wrapped_since(start_seq) {
                self.retries.set(self.retries.get() + 1);
                continue;
            }
            return (value, stamp);
        }
    }

    /// Non-counting peek at `(value, stamp, seq)` of the freshest
    /// version — for the fieldbus NIC sampling the writer's variable
    /// at harvest time without perturbing the consumer-facing read
    /// statistics.
    pub fn peek(&self) -> (u32, Time, u64) {
        let slot = (self.seq % self.depth as u64) as usize;
        (self.slots[slot], self.stamps[slot], self.seq)
    }

    /// Read instrument modeling a preempting writer: `preemption` runs
    /// between the sequence snapshot and the slot copy of the first
    /// pass, exactly where a real reader can be descheduled. If the
    /// preemption wraps the buffer, the re-check catches it and the
    /// retry loop returns the *fresh* value, never the overwritten
    /// slot.
    pub fn read_preempted_by(&mut self, preemption: impl FnOnce(&mut StateMsgVar)) -> (u32, Time) {
        self.reads.set(self.reads.get() + 1);
        let start_seq = self.seq;
        preemption(self);
        let slot = (start_seq % self.depth as u64) as usize;
        let value = self.slots[slot];
        let stamp = self.stamps[slot];
        if !self.wrapped_since(start_seq) {
            return (value, stamp);
        }
        self.retries.set(self.retries.get() + 1);
        loop {
            let start_seq = self.seq;
            let slot = (start_seq % self.depth as u64) as usize;
            let value = self.slots[slot];
            let stamp = self.stamps[slot];
            if self.wrapped_since(start_seq) {
                self.retries.set(self.retries.get() + 1);
                continue;
            }
            return (value, stamp);
        }
    }

    /// Records one observed data age (read instant minus version
    /// stamp). Called by the kernel's read path for written variables.
    pub fn record_age(&mut self, age: Duration) {
        self.age_hist.record(age);
    }

    /// Data-age distribution observed at this variable's reads.
    pub fn age_hist(&self) -> &DurationHistogram {
        &self.age_hist
    }

    /// Lifetime read count.
    pub fn reads(&self) -> u64 {
        self.reads.get()
    }

    /// Lifetime read-retry count (zero when the buffer depth honours
    /// the [`required_depth`] bound).
    pub fn retries(&self) -> u64 {
        self.retries.get()
    }
}

/// The §7 buffer-depth sizing rule: the writer must not be able to
/// wrap the whole buffer during one worst-case read.
///
/// A reader's copy can be preempted for at most `max_read_span` (its
/// own copy time plus the worst-case preemption it can suffer). During
/// that span the writer produces at most
/// `ceil(max_read_span / writer_period)` new versions; the buffer
/// needs room for those plus the slot being read and the slot being
/// written. The result never goes below [`MIN_DEPTH`]: a 1- or 2-deep
/// buffer is exactly the tear-prone configuration §7 exists to rule
/// out.
pub fn required_depth(writer_period: Duration, max_read_span: Duration) -> usize {
    assert!(!writer_period.is_zero(), "writer period must be positive");
    let span = max_read_span.as_ns();
    let period = writer_period.as_ns();
    let new_versions = span.div_ceil(period);
    ((new_versions + 2) as usize).max(MIN_DEPTH)
}

/// A step-wise model of the lock-free read/write protocol, used to
/// *demonstrate* the consistency argument the paper makes informally.
/// Each byte-copy is an individual step, so a test can interleave a
/// writer and readers arbitrarily and check for torn reads.
pub mod protocol {
    /// One version-stamped buffer of `size` abstract bytes. A write of
    /// version `v` fills the slot with the value `v`; a consistent
    /// read must observe a single version across all bytes.
    #[derive(Clone, Debug)]
    pub struct Buffer {
        pub depth: usize,
        pub size: usize,
        /// `bytes[slot][i]` = version that wrote byte `i` of `slot`.
        bytes: Vec<Vec<u64>>,
        /// Published sequence number.
        pub seq: u64,
    }

    impl Buffer {
        /// Creates a zeroed buffer.
        pub fn new(depth: usize, size: usize) -> Buffer {
            Buffer {
                depth,
                size,
                bytes: vec![vec![0; size]; depth],
                seq: 0,
            }
        }
    }

    /// An in-progress write: copies one byte per step, then publishes.
    #[derive(Clone, Copy, Debug)]
    pub struct Writer {
        version: u64,
        slot: usize,
        next_byte: usize,
    }

    impl Writer {
        /// Starts writing version `buf.seq + 1`.
        pub fn start(buf: &Buffer) -> Writer {
            let version = buf.seq + 1;
            Writer {
                version,
                slot: (version % buf.depth as u64) as usize,
                next_byte: 0,
            }
        }

        /// Copies one byte; returns true when the write has been
        /// published.
        pub fn step(&mut self, buf: &mut Buffer) -> bool {
            if self.next_byte < buf.size {
                buf.bytes[self.slot][self.next_byte] = self.version;
                self.next_byte += 1;
                false
            } else {
                buf.seq = self.version;
                true
            }
        }
    }

    /// An in-progress read: snapshots the sequence, copies one byte
    /// per step, re-checks, and reports the observed bytes.
    #[derive(Clone, Debug)]
    pub struct Reader {
        snapshot: u64,
        slot: usize,
        got: Vec<u64>,
    }

    /// Outcome of a completed read.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum ReadResult {
        /// All bytes carried one version.
        Consistent(u64),
        /// The re-check detected a possible overwrite → retry needed.
        Retry,
        /// The bytes actually disagreed (torn read) — must never
        /// happen when the re-check is honest, but a 1-deep buffer
        /// *without* the check produces it.
        Torn,
    }

    impl Reader {
        /// Starts a read of the freshest slot.
        pub fn start(buf: &Buffer) -> Reader {
            Reader {
                snapshot: buf.seq,
                slot: (buf.seq % buf.depth as u64) as usize,
                got: Vec::with_capacity(buf.size),
            }
        }

        /// Copies one byte; `Some(result)` when finished.
        pub fn step(&mut self, buf: &Buffer) -> Option<ReadResult> {
            if self.got.len() < buf.size {
                self.got.push(buf.bytes[self.slot][self.got.len()]);
                None
            } else {
                Some(self.finish(buf, true))
            }
        }

        /// Finishes the read. `with_check` applies the sequence
        /// re-check; disabling it models a naive single-buffer reader.
        pub fn finish(&self, buf: &Buffer, with_check: bool) -> ReadResult {
            if with_check && buf.seq.saturating_sub(self.snapshot) >= buf.depth as u64 - 1 {
                return ReadResult::Retry;
            }
            let first = self.got[0];
            if self.got.iter().all(|&v| v == first) {
                ReadResult::Consistent(first)
            } else {
                ReadResult::Torn
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::protocol::{Buffer, ReadResult, Reader, Writer};
    use super::*;

    #[test]
    fn write_then_read_returns_latest() {
        let mut v = StateMsgVar::new(StateId(0), ThreadId(1), RegionId(0), 16, 3);
        assert_eq!(v.read(), 0, "unwritten variable reads as zero");
        v.write(ThreadId(1), 42, Time::from_us(10));
        v.write(ThreadId(1), 43, Time::from_us(20));
        assert_eq!(v.read_stamped(), (43, Time::from_us(20)));
        assert_eq!(v.seq, 2);
        assert_eq!(v.reads(), 2);
    }

    #[test]
    #[should_panic(expected = "non-writer")]
    fn single_writer_enforced() {
        let mut v = StateMsgVar::new(StateId(0), ThreadId(1), RegionId(0), 16, 3);
        v.write(ThreadId(2), 1, Time::ZERO);
    }

    #[test]
    fn external_write_bypasses_writer_check_and_keeps_stamp() {
        let mut v = StateMsgVar::new(StateId(0), EXTERNAL_WRITER, RegionId(0), 8, 3);
        v.write_external(9, Time::from_ms(4));
        assert_eq!(v.read_stamped(), (9, Time::from_ms(4)));
        assert_eq!(v.peek(), (9, Time::from_ms(4), 1));
    }

    #[test]
    fn reads_do_not_consume() {
        let mut v = StateMsgVar::new(StateId(0), ThreadId(0), RegionId(0), 4, 2);
        v.write(ThreadId(0), 7, Time::ZERO);
        assert_eq!(v.read(), 7);
        assert_eq!(v.read(), 7);
        assert_eq!(v.read(), 7);
    }

    /// The phantom-retry bug: a wrapped buffer must make the reader
    /// loop and return the *fresh* value, not count a retry while
    /// handing back the overwritten slot.
    #[test]
    fn wrapped_read_retries_and_returns_fresh_value() {
        let mut v = StateMsgVar::new(StateId(0), ThreadId(0), RegionId(0), 8, 3);
        v.write(ThreadId(0), 1, Time::from_us(1));
        // The preemption wraps the whole depth-3 buffer (3 writes),
        // landing version 4 in the very slot the reader snapshotted.
        let (value, stamp) = v.read_preempted_by(|var| {
            for (i, at) in [(2u32, 2u64), (3, 3), (4, 4)] {
                var.write(ThreadId(0), i, Time::from_us(at));
            }
        });
        assert_eq!(
            (value, stamp),
            (4, Time::from_us(4)),
            "stale value returned"
        );
        assert_eq!(v.retries(), 1);
        assert_eq!(v.reads(), 1);
    }

    /// Depth 1 is the most tear-prone configuration: *any* write during
    /// the read may overwrite the single slot, so the re-check must
    /// fire (the old `depth > 1` guard silently skipped it).
    #[test]
    fn depth_one_read_detects_any_overwrite() {
        let mut v = StateMsgVar::new(StateId(0), ThreadId(0), RegionId(0), 8, 1);
        v.write(ThreadId(0), 1, Time::from_us(1));
        let (value, _) = v.read_preempted_by(|var| {
            var.write(ThreadId(0), 2, Time::from_us(2));
        });
        assert_eq!(value, 2);
        assert_eq!(v.retries(), 1);
    }

    /// An undisturbed read never retries, at any depth.
    #[test]
    fn undisturbed_read_never_retries() {
        for depth in [1, 2, 3, 5] {
            let mut v = StateMsgVar::new(StateId(0), ThreadId(0), RegionId(0), 8, depth);
            v.write(ThreadId(0), 5, Time::from_us(7));
            assert_eq!(v.read(), 5);
            assert_eq!(v.retries(), 0, "depth {depth}");
        }
    }

    #[test]
    fn age_histogram_records_read_ages() {
        let mut v = StateMsgVar::new(StateId(0), ThreadId(0), RegionId(0), 8, 3);
        v.write(ThreadId(0), 1, Time::from_us(100));
        v.record_age(Duration::from_us(40));
        v.record_age(Duration::from_us(90));
        assert_eq!(v.age_hist().count(), 2);
        assert_eq!(v.age_hist().max(), Duration::from_us(90));
    }

    #[test]
    fn depth_rule_examples() {
        // Reader can be stalled 25 ms; writer runs every 10 ms →
        // ceil(25/10) = 3 new versions + 2 = depth 5.
        assert_eq!(
            required_depth(Duration::from_ms(10), Duration::from_ms(25)),
            5
        );
        // Fast reader (no preemption beyond its own copy): depth 3.
        assert_eq!(
            required_depth(Duration::from_ms(10), Duration::from_ms(1)),
            3
        );
        // The §7 floor: even a zero-span read needs MIN_DEPTH slots.
        assert_eq!(required_depth(Duration::from_ms(10), Duration::ZERO), 3);
    }

    /// The protocol model: an uninterrupted write then read is
    /// consistent.
    #[test]
    fn protocol_sequential_is_consistent() {
        let mut buf = Buffer::new(3, 8);
        let mut w = Writer::start(&buf);
        while !w.step(&mut buf) {}
        let mut r = Reader::start(&buf);
        loop {
            if let Some(res) = r.step(&buf) {
                assert_eq!(res, ReadResult::Consistent(1));
                break;
            }
        }
    }

    /// A 1-deep buffer with the check disabled IS torn by a write that
    /// preempts the read — the failure mode the N-deep design exists
    /// to prevent.
    #[test]
    fn single_slot_without_check_tears() {
        let mut buf = Buffer::new(1, 8);
        // Complete version 1.
        let mut w = Writer::start(&buf);
        while !w.step(&mut buf) {}
        // Reader copies half, then the writer overwrites in place.
        let mut r = Reader::start(&buf);
        for _ in 0..4 {
            assert!(r.step(&buf).is_none());
        }
        let mut w2 = Writer::start(&buf);
        while !w2.step(&mut buf) {}
        for _ in 0..4 {
            r.step(&buf);
        }
        assert_eq!(r.finish(&buf, false), ReadResult::Torn);
        // The sequence re-check would have caught it.
        assert_eq!(r.finish(&buf, true), ReadResult::Retry);
    }

    /// With a properly sized buffer, a reader interleaved with several
    /// writes still reads consistently: the writer never reuses the
    /// slot under the reader.
    #[test]
    fn deep_buffer_tolerates_interleaved_writes() {
        let mut buf = Buffer::new(4, 8);
        let mut w = Writer::start(&buf);
        while !w.step(&mut buf) {}
        let mut r = Reader::start(&buf);
        for _ in 0..4 {
            assert!(r.step(&buf).is_none());
        }
        // Two full writes land while the read is paused — within the
        // depth-4 budget (seq advances by 2 < depth−1 = 3).
        for _ in 0..2 {
            let mut w = Writer::start(&buf);
            while !w.step(&mut buf) {}
        }
        let res = loop {
            if let Some(res) = r.step(&buf) {
                break res;
            }
        };
        assert_eq!(res, ReadResult::Consistent(1));
    }
}
