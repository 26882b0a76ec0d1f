//! Execution trace recording.
//!
//! The paper's semaphore argument (Figures 6–10) is made in terms of
//! *event sequences*: which context switches happen, in which order,
//! around a contended `acquire_sem()`. The trace recorder captures those
//! sequences so tests can assert them literally, and so the experiment
//! harness can redraw Figure 2's RM schedule.

use crate::ids::{CvId, EventId, IrqLine, MboxId, SemId, StateId, ThreadId};
use crate::time::Time;

/// One recorded kernel-level occurrence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// The dispatcher switched execution contexts. `None` means idle.
    ContextSwitch {
        from: Option<ThreadId>,
        to: Option<ThreadId>,
    },
    /// A periodic/sporadic job was released.
    JobRelease {
        tid: ThreadId,
        job: u64,
        deadline: Time,
    },
    /// A job finished its work for the period.
    JobComplete { tid: ThreadId, job: u64 },
    /// A job was still incomplete at its absolute deadline.
    DeadlineMiss {
        tid: ThreadId,
        job: u64,
        deadline: Time,
    },
    /// A thread blocked in the kernel (any reason).
    Blocked { tid: ThreadId },
    /// A thread became ready.
    Unblocked { tid: ThreadId },
    /// A semaphore was acquired without contention (or handed over).
    SemAcquired { tid: ThreadId, sem: SemId },
    /// A thread found the semaphore held and blocked on it.
    SemBlocked {
        tid: ThreadId,
        sem: SemId,
        holder: ThreadId,
    },
    /// A semaphore was released.
    SemReleased { tid: ThreadId, sem: SemId },
    /// Priority inheritance: `holder` inherited `donor`'s priority.
    PriorityInherit { holder: ThreadId, donor: ThreadId },
    /// `holder` returned to its base priority.
    PriorityRestore { holder: ThreadId },
    /// EMERALDS scheme: inheritance performed *early*, at the blocking
    /// call preceding `acquire_sem()` (§6.2), keeping `waiter` blocked.
    EarlyInherit {
        waiter: ThreadId,
        holder: ThreadId,
        sem: SemId,
    },
    /// EMERALDS scheme: a thread joined the pre-lock queue of a free
    /// semaphore (§6.3.1 modification).
    PreLockAdmit { tid: ThreadId, sem: SemId },
    /// EMERALDS scheme: pre-lock queue members were blocked because one
    /// of them took the lock.
    PreLockBlock { tid: ThreadId, sem: SemId },
    /// SRP: an acquire pushed `sem` onto the system-ceiling stack;
    /// `ceiling` is the resource's static preemption-level ceiling
    /// (lower value = higher level).
    CeilingPush {
        tid: ThreadId,
        sem: SemId,
        ceiling: u32,
    },
    /// SRP: a release popped `sem` from the system-ceiling stack.
    CeilingPop {
        tid: ThreadId,
        sem: SemId,
        ceiling: u32,
    },
    /// SRP: a waking task's preemption level did not beat the system
    /// ceiling; its start is deferred until the ceiling drops.
    CeilingDefer { tid: ThreadId, ceiling: u32 },
    /// SRP: a previously deferred task was admitted after a ceiling
    /// pop.
    CeilingAdmit { tid: ThreadId },
    /// A message was copied into a mailbox.
    MboxSend {
        tid: ThreadId,
        mbox: MboxId,
        bytes: usize,
    },
    /// A message was copied out of a mailbox.
    MboxRecv {
        tid: ThreadId,
        mbox: MboxId,
        bytes: usize,
    },
    /// A state-message variable was updated in place (no kernel call).
    StateWrite {
        tid: ThreadId,
        var: StateId,
        seq: u64,
    },
    /// A state-message variable was read (no kernel call).
    StateRead {
        tid: ThreadId,
        var: StateId,
        seq: u64,
    },
    /// A condition variable wait began.
    CvWait { tid: ThreadId, cv: CvId },
    /// A condition variable was signalled.
    CvSignal { tid: ThreadId, cv: CvId },
    /// A software event was signalled.
    EventSignal { tid: ThreadId, event: EventId },
    /// An interrupt's first-level action signalled a software event.
    IrqEventSignal { line: IrqLine, event: EventId },
    /// A hardware interrupt was raised by a device.
    IrqRaised { line: IrqLine },
    /// The kernel finished first-level handling of an interrupt.
    IrqHandled { line: IrqLine },
    /// A system call was entered.
    Syscall { tid: ThreadId, name: &'static str },
    /// A memory-protection fault was detected by the MPU.
    ProtectionFault { tid: ThreadId, addr: u64 },
    /// Free-form annotation from examples/tests.
    Note(String),
}

impl TraceEvent {
    /// One-line human-readable description, used by [`Trace::render`]
    /// and the deadline-miss forensic reports.
    pub fn describe(&self) -> String {
        describe(self)
    }
}

/// A timestamped trace of kernel events.
///
/// Recording can be disabled (`Trace::disabled()`) for long experiment
/// runs where only the [`crate::Accounting`] totals matter; all `push`
/// calls then become no-ops while counters stay live. For long runs
/// that still need forensics, `Trace::ring(cap)` keeps only the most
/// recent `cap` events in bounded memory.
#[derive(Debug)]
pub struct Trace {
    /// Stored events. In full mode this is append-only and
    /// chronological; in ring mode it is a circular buffer whose
    /// oldest entry sits at `ring_start` once full.
    events: Vec<(Time, TraceEvent)>,
    recording: bool,
    /// `Some(cap)` bounds storage to the `cap` most recent events.
    ring_capacity: Option<usize>,
    /// Ring mode: index of the oldest stored event.
    ring_start: usize,
    context_switches: u64,
    /// Events offered for storage (recorded + evicted + discarded).
    total_seen: u64,
}

impl Trace {
    /// Creates a recording trace.
    pub fn new() -> Self {
        Trace {
            events: Vec::new(),
            recording: true,
            ring_capacity: None,
            ring_start: 0,
            context_switches: 0,
            total_seen: 0,
        }
    }

    /// Creates a trace that keeps counters but stores no events.
    pub fn disabled() -> Self {
        Trace {
            recording: false,
            ..Trace::new()
        }
    }

    /// Creates a bounded trace that keeps only the `capacity` most
    /// recent events (counters stay exact). Memory use is
    /// `capacity × sizeof(event)` regardless of run length, allocated
    /// here, so recording never allocates.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn ring(capacity: usize) -> Self {
        assert!(capacity >= 1, "ring trace needs capacity >= 1");
        Trace {
            events: Vec::with_capacity(capacity),
            ring_capacity: Some(capacity),
            ..Trace::new()
        }
    }

    /// The ring capacity, if bounded.
    pub fn ring_capacity(&self) -> Option<usize> {
        self.ring_capacity
    }

    /// Records `event` at `at`. Counters observe every event; storage
    /// sits behind one branch-predictable `recording` check so a
    /// non-recording kernel pays counter arithmetic and nothing else.
    #[inline]
    pub fn push(&mut self, at: Time, event: TraceEvent) {
        if let TraceEvent::ContextSwitch { .. } = event {
            self.context_switches += 1;
        }
        self.total_seen += 1;
        if self.recording {
            self.store(at, event);
        }
    }

    /// Out-of-line storage path: append, or overwrite in ring mode.
    /// `#[cold]` keeps the non-recording fast path of [`Trace::push`]
    /// small enough to inline at every kernel record site.
    #[cold]
    #[inline(never)]
    fn store(&mut self, at: Time, event: TraceEvent) {
        match self.ring_capacity {
            Some(cap) if self.events.len() == cap => {
                // Overwrite the oldest slot and advance the start.
                self.events[self.ring_start] = (at, event);
                self.ring_start = (self.ring_start + 1) % cap;
            }
            _ => {
                debug_assert!(
                    self.events.last().is_none_or(|&(t, _)| t <= at),
                    "trace timestamps must be monotone"
                );
                self.events.push((at, event));
            }
        }
    }

    /// All stored events in order. In ring mode the storage wraps, so
    /// use [`Trace::iter`] or [`Trace::recent`] instead; this returns
    /// the raw (possibly rotated) slice.
    pub fn events(&self) -> &[(Time, TraceEvent)] {
        &self.events
    }

    /// Stored events in chronological order, in either mode.
    pub fn iter(&self) -> impl Iterator<Item = &(Time, TraceEvent)> {
        let (tail, head) = self.events.split_at(self.ring_start.min(self.events.len()));
        head.iter().chain(tail.iter())
    }

    /// The last `k` stored events in chronological order (all of them
    /// when fewer are stored). This is the forensic window used by
    /// deadline-miss reports.
    pub fn recent(&self, k: usize) -> Vec<(Time, TraceEvent)> {
        let stored = self.events.len();
        let take = k.min(stored);
        self.iter().skip(stored - take).cloned().collect()
    }

    /// Events seen but no longer stored (ring eviction or disabled
    /// recording).
    pub fn dropped(&self) -> u64 {
        self.total_seen - self.events.len() as u64
    }

    /// Total context switches (counted even when not recording).
    pub fn context_switch_count(&self) -> u64 {
        self.context_switches
    }

    /// Stored deadline-miss events.
    pub fn deadline_misses(&self) -> Vec<(Time, ThreadId)> {
        self.iter()
            .filter_map(|(t, e)| match e {
                TraceEvent::DeadlineMiss { tid, .. } => Some((*t, *tid)),
                _ => None,
            })
            .collect()
    }

    /// Stored events matching `pred`, with timestamps, in
    /// chronological order.
    pub fn filter<'a>(
        &'a self,
        mut pred: impl FnMut(&TraceEvent) -> bool + 'a,
    ) -> impl Iterator<Item = &'a (Time, TraceEvent)> + 'a {
        self.iter().filter(move |(_, e)| pred(e))
    }

    /// The sequence of `(from, to)` context switches, for scenario
    /// assertions like "context switch C2 is eliminated" (Figure 8).
    pub fn context_switch_sequence(&self) -> Vec<(Option<ThreadId>, Option<ThreadId>)> {
        self.iter()
            .filter_map(|(_, e)| match e {
                TraceEvent::ContextSwitch { from, to } => Some((*from, *to)),
                _ => None,
            })
            .collect()
    }

    /// Builds the per-thread execution timeline: intervals during which
    /// each thread occupied the CPU, derived from context switches.
    /// `end` closes the final open interval.
    pub fn execution_intervals(&self, end: Time) -> Vec<(ThreadId, Time, Time)> {
        let mut out = Vec::new();
        let mut current: Option<(ThreadId, Time)> = None;
        for (t, e) in self.iter() {
            if let TraceEvent::ContextSwitch { to, .. } = e {
                if let Some((tid, start)) = current.take() {
                    if *t > start {
                        out.push((tid, start, *t));
                    }
                }
                if let Some(to) = to {
                    current = Some((*to, *t));
                }
            }
        }
        if let Some((tid, start)) = current {
            if end > start {
                out.push((tid, start, end));
            }
        }
        out
    }

    /// Renders the trace as one line per event, for debugging and for
    /// the quickstart example.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (t, e) in self.iter() {
            s.push_str(&format!("[{:>12}] {}\n", t.to_string(), describe(e)));
        }
        s
    }

    /// Serializes the stored events as JSON Lines: one object per
    /// event, chronological, each with a `t_ns` timestamp and a
    /// `kind` discriminant. The format is hand-rolled (no external
    /// dependencies) and stable for tooling.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for (t, e) in self.iter() {
            event_to_json(&mut s, *t, e);
            s.push('\n');
        }
        s
    }

    /// Streams [`Trace::to_jsonl`] into `w`.
    pub fn write_jsonl<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        w.write_all(self.to_jsonl().as_bytes())
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events are stored.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

fn describe(e: &TraceEvent) -> String {
    use TraceEvent::*;
    match e {
        ContextSwitch { from, to } => format!(
            "ctxsw {} -> {}",
            from.map_or("idle".into(), |t| t.to_string()),
            to.map_or("idle".into(), |t| t.to_string())
        ),
        JobRelease { tid, job, deadline } => {
            format!("{tid} job {job} released (deadline {deadline})")
        }
        JobComplete { tid, job } => format!("{tid} job {job} complete"),
        DeadlineMiss { tid, job, deadline } => {
            format!("{tid} job {job} MISSED deadline {deadline}")
        }
        Blocked { tid } => format!("{tid} blocked"),
        Unblocked { tid } => format!("{tid} unblocked"),
        SemAcquired { tid, sem } => format!("{tid} acquired {sem}"),
        SemBlocked { tid, sem, holder } => format!("{tid} blocked on {sem} (held by {holder})"),
        SemReleased { tid, sem } => format!("{tid} released {sem}"),
        PriorityInherit { holder, donor } => format!("{holder} inherits priority of {donor}"),
        PriorityRestore { holder } => format!("{holder} priority restored"),
        EarlyInherit {
            waiter,
            holder,
            sem,
        } => {
            format!("early PI: {waiter} -> {holder} for {sem}")
        }
        PreLockAdmit { tid, sem } => format!("{tid} admitted to pre-lock queue of {sem}"),
        PreLockBlock { tid, sem } => format!("{tid} re-blocked by pre-lock queue of {sem}"),
        CeilingPush { tid, sem, ceiling } => {
            format!("{tid} pushed {sem} on ceiling stack (ceiling {ceiling})")
        }
        CeilingPop { tid, sem, ceiling } => {
            format!("{tid} popped {sem} off ceiling stack (ceiling {ceiling})")
        }
        CeilingDefer { tid, ceiling } => {
            format!("{tid} deferred by system ceiling {ceiling}")
        }
        CeilingAdmit { tid } => format!("{tid} admitted past the system ceiling"),
        MboxSend { tid, mbox, bytes } => format!("{tid} sent {bytes}B to {mbox}"),
        MboxRecv { tid, mbox, bytes } => format!("{tid} received {bytes}B from {mbox}"),
        StateWrite { tid, var, seq } => format!("{tid} wrote {var} (seq {seq})"),
        StateRead { tid, var, seq } => format!("{tid} read {var} (seq {seq})"),
        CvWait { tid, cv } => format!("{tid} waits on {cv}"),
        CvSignal { tid, cv } => format!("{tid} signals {cv}"),
        EventSignal { tid, event } => format!("{tid} signals {event}"),
        IrqEventSignal { line, event } => format!("{line} signals {event}"),
        IrqRaised { line } => format!("{line} raised"),
        IrqHandled { line } => format!("{line} handled"),
        Syscall { tid, name } => format!("{tid} syscall {name}"),
        ProtectionFault { tid, addr } => format!("{tid} PROTECTION FAULT at {addr:#x}"),
        Note(s) => s.clone(),
    }
}

fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn push_opt_tid(out: &mut String, key: &str, tid: Option<ThreadId>) {
    match tid {
        Some(t) => out.push_str(&format!(",\"{key}\":{}", t.0)),
        None => out.push_str(&format!(",\"{key}\":null")),
    }
}

/// Writes one event as a single-line JSON object into `out`.
fn event_to_json(out: &mut String, at: Time, e: &TraceEvent) {
    use TraceEvent::*;
    out.push_str(&format!("{{\"t_ns\":{}", at.as_ns()));
    let kind = |out: &mut String, k: &str| out.push_str(&format!(",\"kind\":\"{k}\""));
    match e {
        ContextSwitch { from, to } => {
            kind(out, "context_switch");
            push_opt_tid(out, "from", *from);
            push_opt_tid(out, "to", *to);
        }
        JobRelease { tid, job, deadline } => {
            kind(out, "job_release");
            out.push_str(&format!(
                ",\"tid\":{},\"job\":{job},\"deadline_ns\":{}",
                tid.0,
                deadline.as_ns()
            ));
        }
        JobComplete { tid, job } => {
            kind(out, "job_complete");
            out.push_str(&format!(",\"tid\":{},\"job\":{job}", tid.0));
        }
        DeadlineMiss { tid, job, deadline } => {
            kind(out, "deadline_miss");
            out.push_str(&format!(
                ",\"tid\":{},\"job\":{job},\"deadline_ns\":{}",
                tid.0,
                deadline.as_ns()
            ));
        }
        Blocked { tid } => {
            kind(out, "blocked");
            out.push_str(&format!(",\"tid\":{}", tid.0));
        }
        Unblocked { tid } => {
            kind(out, "unblocked");
            out.push_str(&format!(",\"tid\":{}", tid.0));
        }
        SemAcquired { tid, sem } => {
            kind(out, "sem_acquired");
            out.push_str(&format!(",\"tid\":{},\"sem\":{}", tid.0, sem.0));
        }
        SemBlocked { tid, sem, holder } => {
            kind(out, "sem_blocked");
            out.push_str(&format!(
                ",\"tid\":{},\"sem\":{},\"holder\":{}",
                tid.0, sem.0, holder.0
            ));
        }
        SemReleased { tid, sem } => {
            kind(out, "sem_released");
            out.push_str(&format!(",\"tid\":{},\"sem\":{}", tid.0, sem.0));
        }
        PriorityInherit { holder, donor } => {
            kind(out, "priority_inherit");
            out.push_str(&format!(",\"holder\":{},\"donor\":{}", holder.0, donor.0));
        }
        PriorityRestore { holder } => {
            kind(out, "priority_restore");
            out.push_str(&format!(",\"holder\":{}", holder.0));
        }
        EarlyInherit {
            waiter,
            holder,
            sem,
        } => {
            kind(out, "early_inherit");
            out.push_str(&format!(
                ",\"waiter\":{},\"holder\":{},\"sem\":{}",
                waiter.0, holder.0, sem.0
            ));
        }
        PreLockAdmit { tid, sem } => {
            kind(out, "prelock_admit");
            out.push_str(&format!(",\"tid\":{},\"sem\":{}", tid.0, sem.0));
        }
        PreLockBlock { tid, sem } => {
            kind(out, "prelock_block");
            out.push_str(&format!(",\"tid\":{},\"sem\":{}", tid.0, sem.0));
        }
        CeilingPush { tid, sem, ceiling } => {
            kind(out, "ceiling_push");
            out.push_str(&format!(
                ",\"tid\":{},\"sem\":{},\"ceiling\":{ceiling}",
                tid.0, sem.0
            ));
        }
        CeilingPop { tid, sem, ceiling } => {
            kind(out, "ceiling_pop");
            out.push_str(&format!(
                ",\"tid\":{},\"sem\":{},\"ceiling\":{ceiling}",
                tid.0, sem.0
            ));
        }
        CeilingDefer { tid, ceiling } => {
            kind(out, "ceiling_defer");
            out.push_str(&format!(",\"tid\":{},\"ceiling\":{ceiling}", tid.0));
        }
        CeilingAdmit { tid } => {
            kind(out, "ceiling_admit");
            out.push_str(&format!(",\"tid\":{}", tid.0));
        }
        MboxSend { tid, mbox, bytes } => {
            kind(out, "mbox_send");
            out.push_str(&format!(
                ",\"tid\":{},\"mbox\":{},\"bytes\":{bytes}",
                tid.0, mbox.0
            ));
        }
        MboxRecv { tid, mbox, bytes } => {
            kind(out, "mbox_recv");
            out.push_str(&format!(
                ",\"tid\":{},\"mbox\":{},\"bytes\":{bytes}",
                tid.0, mbox.0
            ));
        }
        StateWrite { tid, var, seq } => {
            kind(out, "state_write");
            out.push_str(&format!(
                ",\"tid\":{},\"var\":{},\"seq\":{seq}",
                tid.0, var.0
            ));
        }
        StateRead { tid, var, seq } => {
            kind(out, "state_read");
            out.push_str(&format!(
                ",\"tid\":{},\"var\":{},\"seq\":{seq}",
                tid.0, var.0
            ));
        }
        CvWait { tid, cv } => {
            kind(out, "cv_wait");
            out.push_str(&format!(",\"tid\":{},\"cv\":{}", tid.0, cv.0));
        }
        CvSignal { tid, cv } => {
            kind(out, "cv_signal");
            out.push_str(&format!(",\"tid\":{},\"cv\":{}", tid.0, cv.0));
        }
        EventSignal { tid, event } => {
            kind(out, "event_signal");
            out.push_str(&format!(",\"tid\":{},\"event\":{}", tid.0, event.0));
        }
        IrqEventSignal { line, event } => {
            kind(out, "irq_event_signal");
            out.push_str(&format!(",\"line\":{},\"event\":{}", line.0, event.0));
        }
        IrqRaised { line } => {
            kind(out, "irq_raised");
            out.push_str(&format!(",\"line\":{}", line.0));
        }
        IrqHandled { line } => {
            kind(out, "irq_handled");
            out.push_str(&format!(",\"line\":{}", line.0));
        }
        Syscall { tid, name } => {
            kind(out, "syscall");
            out.push_str(&format!(",\"tid\":{},\"name\":\"{name}\"", tid.0));
        }
        ProtectionFault { tid, addr } => {
            kind(out, "protection_fault");
            out.push_str(&format!(",\"tid\":{},\"addr\":{addr}", tid.0));
        }
        Note(s) => {
            kind(out, "note");
            out.push_str(",\"text\":\"");
            json_escape(s, out);
            out.push('"');
        }
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn switch(from: Option<u32>, to: Option<u32>) -> TraceEvent {
        TraceEvent::ContextSwitch {
            from: from.map(ThreadId),
            to: to.map(ThreadId),
        }
    }

    #[test]
    fn counts_switches_and_misses() {
        let mut tr = Trace::new();
        tr.push(Time::ZERO, switch(None, Some(1)));
        tr.push(
            Time::from_us(5),
            TraceEvent::DeadlineMiss {
                tid: ThreadId(1),
                job: 0,
                deadline: Time::from_us(5),
            },
        );
        assert_eq!(tr.context_switch_count(), 1);
        assert_eq!(tr.deadline_misses(), vec![(Time::from_us(5), ThreadId(1))]);
    }

    #[test]
    fn disabled_trace_counts_but_stores_nothing() {
        let mut tr = Trace::disabled();
        tr.push(Time::ZERO, switch(None, Some(1)));
        assert_eq!(tr.context_switch_count(), 1);
        assert!(tr.is_empty());
    }

    #[test]
    fn context_switch_sequence_extraction() {
        let mut tr = Trace::new();
        tr.push(Time::ZERO, switch(None, Some(1)));
        tr.push(Time::from_us(1), TraceEvent::Note("x".into()));
        tr.push(Time::from_us(2), switch(Some(1), Some(2)));
        assert_eq!(
            tr.context_switch_sequence(),
            vec![
                (None, Some(ThreadId(1))),
                (Some(ThreadId(1)), Some(ThreadId(2)))
            ]
        );
    }

    #[test]
    fn execution_intervals_from_switches() {
        let mut tr = Trace::new();
        tr.push(Time::ZERO, switch(None, Some(1)));
        tr.push(Time::from_us(4), switch(Some(1), Some(2)));
        tr.push(Time::from_us(6), switch(Some(2), None));
        tr.push(Time::from_us(9), switch(None, Some(1)));
        let iv = tr.execution_intervals(Time::from_us(10));
        assert_eq!(
            iv,
            vec![
                (ThreadId(1), Time::ZERO, Time::from_us(4)),
                (ThreadId(2), Time::from_us(4), Time::from_us(6)),
                (ThreadId(1), Time::from_us(9), Time::from_us(10)),
            ]
        );
    }

    #[test]
    fn render_is_one_line_per_event() {
        let mut tr = Trace::new();
        tr.push(Time::ZERO, switch(None, Some(3)));
        tr.push(Time::from_us(1), TraceEvent::Note("hello".into()));
        let s = tr.render();
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("ctxsw idle -> T3"));
        assert!(s.contains("hello"));
    }

    #[test]
    fn ring_trace_keeps_only_most_recent() {
        let mut tr = Trace::ring(3);
        for i in 0..7u64 {
            tr.push(Time::from_us(i), TraceEvent::Note(format!("e{i}")));
        }
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.dropped(), 4);
        let kept: Vec<String> = tr
            .iter()
            .map(|(_, e)| match e {
                TraceEvent::Note(s) => s.clone(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec!["e4", "e5", "e6"]);
        // Counters stay exact across eviction.
        tr.push(Time::from_us(7), switch(None, Some(1)));
        assert_eq!(tr.context_switch_count(), 1);
        assert_eq!(tr.ring_capacity(), Some(3));
    }

    #[test]
    fn recent_returns_chronological_window() {
        let mut full = Trace::new();
        let mut ring = Trace::ring(4);
        for i in 0..9u64 {
            let e = TraceEvent::Note(format!("n{i}"));
            full.push(Time::from_us(i), e.clone());
            ring.push(Time::from_us(i), e);
        }
        // Both modes agree on the last-2 window.
        assert_eq!(full.recent(2), ring.recent(2));
        assert_eq!(
            full.recent(2)
                .iter()
                .map(|(t, _)| t.as_us())
                .collect::<Vec<_>>(),
            vec![7, 8]
        );
        // Asking for more than stored returns everything stored.
        assert_eq!(ring.recent(100).len(), 4);
    }

    #[test]
    fn ring_filter_and_switch_sequence_are_chronological() {
        let mut tr = Trace::ring(2);
        tr.push(Time::ZERO, switch(None, Some(1)));
        tr.push(Time::from_us(1), switch(Some(1), Some(2)));
        tr.push(Time::from_us(2), switch(Some(2), None));
        assert_eq!(
            tr.context_switch_sequence(),
            vec![
                (Some(ThreadId(1)), Some(ThreadId(2))),
                (Some(ThreadId(2)), None)
            ]
        );
        assert_eq!(tr.context_switch_count(), 3);
    }

    #[test]
    fn jsonl_one_object_per_line() {
        let mut tr = Trace::new();
        tr.push(Time::ZERO, switch(None, Some(1)));
        tr.push(
            Time::from_us(3),
            TraceEvent::SemBlocked {
                tid: ThreadId(2),
                sem: SemId(0),
                holder: ThreadId(1),
            },
        );
        tr.push(
            Time::from_us(4),
            TraceEvent::Note("quote \" and \\ back\nslash".into()),
        );
        let out = tr.to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"t_ns\":0,\"kind\":\"context_switch\",\"from\":null,\"to\":1}"
        );
        assert_eq!(
            lines[1],
            "{\"t_ns\":3000,\"kind\":\"sem_blocked\",\"tid\":2,\"sem\":0,\"holder\":1}"
        );
        // Note strings are escaped so each event stays one valid line.
        assert!(lines[2].contains("quote \\\" and \\\\ back\\nslash"));
        let mut buf = Vec::new();
        tr.write_jsonl(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), out);
    }
}
