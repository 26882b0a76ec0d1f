//! Task control blocks.
//!
//! EMERALDS blocks and unblocks tasks "by changing one entry in the
//! task control block" (§5.1) — state transitions are O(1) TCB writes,
//! and the scheduler queues hold *all* tasks (ready and blocked), which
//! is the property the semaphore placeholder optimization relies on
//! (§6.2: "these optimizations ... were possible because our scheduler
//! implementation keeps both ready and blocked tasks in the same
//! queue").

use std::sync::Arc;

use emeralds_sim::{
    CvId, Duration, DurationHistogram, EventId, IrqLine, MboxId, ProcId, SemId, ThreadId, Time,
};

use crate::script::{Action, Script};

/// Why a thread is blocked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockReason {
    /// Completed its job; waiting for the next periodic release.
    EndOfJob,
    /// Waiting to acquire a semaphore.
    Sem(SemId),
    /// Waiting on a condition variable.
    Cv(CvId),
    /// Waiting for mailbox space (sender side).
    MboxSend(MboxId),
    /// Waiting for a mailbox message (receiver side).
    MboxRecv(MboxId),
    /// Waiting for a software event.
    Event(EventId),
    /// Waiting for an interrupt.
    Irq(IrqLine),
    /// Sleeping until a wakeup time.
    Sleep,
    /// EMERALDS §6.3.1: past its pre-acquire blocking call but parked
    /// because another thread holds (or just took) the semaphore.
    PreLock(SemId),
}

/// Thread execution state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadState {
    /// Runnable (possibly currently running).
    Ready,
    /// Blocked in the kernel.
    Blocked(BlockReason),
}

/// Which scheduler queue a task is assigned to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueAssign {
    /// Dynamic-priority (EDF) queue `j` (0 = DP1).
    Dp(u32),
    /// The fixed-priority (RM) queue.
    Fp,
}

/// Temporal behaviour of a task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Timing {
    /// Released every `period`, relative deadline `deadline`, first
    /// release at `phase`.
    Periodic {
        period: Duration,
        deadline: Duration,
        phase: Duration,
    },
    /// Event/interrupt driven. `rank` is the assumed minimum
    /// inter-arrival time: it positions the task in the RM priority
    /// order and, under EDF, sets its deadline to `unblock + rank`
    /// (the standard sporadic-deadline assignment).
    EventDriven { rank: Duration },
}

/// A task control block: the state the dispatch, blocking and
/// release paths read. Statistics a task accumulates live apart, in
/// its [`TaskStats`], so a wake touches fewer cache lines.
#[derive(Clone, Debug)]
pub struct Tcb {
    pub id: ThreadId,
    pub proc: ProcId,
    /// Decides at the end of `steps` whether the script ends the job
    /// (periodic) or loops (event-driven).
    pub timing: Timing,
    /// The script's actions, each beside its next-semaphore hint.
    pub steps: Box<[Step]>,
    /// [`crate::parser::end_of_job_hint`] of the script, precomputed —
    /// the release path consults it once per job.
    pub eoj_hint: Option<SemId>,

    // --- Execution state ---
    pub state: ThreadState,
    /// Program counter into the script.
    pub pc: u32,
    /// Remaining time of the in-progress `Compute` action.
    pub compute_left: Duration,
    /// Set while blocked inside a system call whose exit cost must be
    /// charged on resume.
    pub in_syscall: bool,
    /// Semaphore handed over to this thread while it was blocked
    /// (lock-passing on release, and the EMERALDS early-grant path).
    pub granted_sem: Option<SemId>,
    /// True while blocked *inside* `acquire_sem()`/`cond_wait()` (as
    /// opposed to the EMERALDS early block at the preceding call).
    pub blocked_in_acquire: bool,
    /// The task's accumulator: last value read from a device, mailbox,
    /// or state message.
    pub last_read: u32,

    // --- Job bookkeeping (periodic tasks) ---
    pub job: u64,
    pub job_release: Time,
    pub abs_deadline: Time,
    pub next_release: Time,
    /// True when the current job's work is done and the task waits for
    /// its next release.
    pub job_done: bool,

    // --- Scheduling keys ---
    /// Index in RM (shortest-period-first) order; lower = higher
    /// priority.
    pub rm_prio: u32,
    /// Queue this task lives in.
    pub queue: QueueAssign,
    /// Current slot in the FP queue (maintained by the scheduler).
    pub fp_slot: u32,
    /// Deadline inherited through priority inheritance (EDF tasks);
    /// effective deadline is the minimum of this and `abs_deadline`.
    pub inherited_deadline: Option<Time>,

    // --- Held resources ---
    pub held_sems: Vec<SemId>,

    /// True once the current job has been counted as a miss (avoids
    /// double counting between the deadline-check event and the next
    /// release).
    pub missed_current: bool,

    /// CPU time consumed (every `Compute` slice adds to it).
    pub cpu_time: Duration,
    /// True once the current job has been dispatched (guards the
    /// latency sample; starts true so boot-time state records nothing).
    pub dispatched: bool,
}

/// One action of a task's script beside its §6.2.1 next-semaphore
/// hint (see [`crate::parser`]): for a blocking call, the semaphore the
/// task acquires right after the call returns. Side by side, a wake
/// reads the hint from the cache line its next action sits on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    pub action: Action,
    pub hint: Option<SemId>,
}

/// What a task accumulates for reports: touched only at job
/// completion, a periodic job's first dispatch, a deadline miss, and
/// in [`crate::kernel::Kernel::metrics`]. The kernel keeps one per task
/// in a table indexed by [`ThreadId`], beside the TCB table.
#[derive(Clone, Debug)]
pub struct TaskStats {
    /// Shared so metrics snapshots bump a refcount instead of copying
    /// the string.
    pub name: Arc<str>,
    pub jobs_completed: u64,
    pub deadline_misses: u64,
    /// Worst observed response time (release → completion).
    pub max_response: Duration,
    /// Distribution of response times across completed jobs.
    pub response_hist: DurationHistogram,
    /// Distribution of release→first-dispatch latencies (periodic
    /// tasks only; event-driven tasks have no release instant).
    pub dispatch_hist: DurationHistogram,
}

impl TaskStats {
    /// Empty statistics for the task called `name`.
    pub fn new(name: impl Into<Arc<str>>) -> TaskStats {
        TaskStats {
            name: name.into(),
            jobs_completed: 0,
            deadline_misses: 0,
            max_response: Duration::ZERO,
            response_hist: DurationHistogram::new(),
            dispatch_hist: DurationHistogram::new(),
        }
    }
}

impl Tcb {
    /// Creates a TCB in the blocked-until-first-release state for
    /// periodic tasks, or ready for event-driven tasks. Each step
    /// carries the hint the §6.2.1 parser computes for it.
    pub fn new(
        id: ThreadId,
        proc: ProcId,
        timing: Timing,
        script: Script,
        rm_prio: u32,
        queue: QueueAssign,
    ) -> Tcb {
        let state = match timing {
            Timing::Periodic { .. } => ThreadState::Blocked(BlockReason::EndOfJob),
            Timing::EventDriven { .. } => ThreadState::Ready,
        };
        let hints = crate::parser::compute_hints(&script);
        let eoj_hint = crate::parser::end_of_job_hint(&script);
        let steps = script
            .actions
            .into_iter()
            .zip(hints)
            .map(|(action, hint)| Step { action, hint })
            .collect();
        Tcb {
            id,
            proc,
            timing,
            steps,
            eoj_hint,
            state,
            pc: 0,
            compute_left: Duration::ZERO,
            in_syscall: false,
            granted_sem: None,
            blocked_in_acquire: false,
            last_read: 0,
            job: 0,
            job_release: Time::ZERO,
            abs_deadline: Time::MAX,
            next_release: Time::ZERO,
            job_done: true,
            rm_prio,
            queue,
            fp_slot: u32::MAX,
            inherited_deadline: None,
            held_sems: Vec::new(),
            missed_current: false,
            cpu_time: Duration::ZERO,
            dispatched: true,
        }
    }

    /// True if the thread can be picked by the scheduler.
    pub fn is_ready(&self) -> bool {
        self.state == ThreadState::Ready
    }

    /// The EDF key: inherited deadline if earlier, else the job
    /// deadline.
    pub fn effective_deadline(&self) -> Time {
        match self.inherited_deadline {
            Some(d) if d < self.abs_deadline => d,
            _ => self.abs_deadline,
        }
    }

    /// The task's period, if periodic.
    pub fn period(&self) -> Option<Duration> {
        match self.timing {
            Timing::Periodic { period, .. } => Some(period),
            Timing::EventDriven { .. } => None,
        }
    }
}

/// The TCB table: dense storage indexed by [`ThreadId`].
#[derive(Clone, Debug, Default)]
pub struct TcbTable {
    tcbs: Vec<Tcb>,
}

impl TcbTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        TcbTable::default()
    }

    /// Creates an empty table with room for exactly `n` TCBs: a kernel
    /// builds its table once, at its final length.
    pub fn with_capacity(n: usize) -> Self {
        TcbTable {
            tcbs: Vec::with_capacity(n),
        }
    }

    /// Inserts a TCB; its id must equal its index.
    ///
    /// # Panics
    ///
    /// Panics if the id does not match the next slot.
    pub fn insert(&mut self, tcb: Tcb) {
        assert_eq!(
            tcb.id.index(),
            self.tcbs.len(),
            "TCB ids must be dense and in creation order"
        );
        self.tcbs.push(tcb);
    }

    /// Immutable TCB access.
    pub fn get(&self, id: ThreadId) -> &Tcb {
        &self.tcbs[id.index()]
    }

    /// Mutable TCB access.
    pub fn get_mut(&mut self, id: ThreadId) -> &mut Tcb {
        &mut self.tcbs[id.index()]
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tcbs.len()
    }

    /// True if no tasks exist.
    pub fn is_empty(&self) -> bool {
        self.tcbs.is_empty()
    }

    /// Iterates over all TCBs.
    pub fn iter(&self) -> impl Iterator<Item = &Tcb> {
        self.tcbs.iter()
    }

    /// A thread's priority key for wait-queue ordering: lower is more
    /// urgent. Bands (DP queues before FP) dominate; within a DP band
    /// the effective deadline decides, within FP the base RM priority.
    /// The low bits hold the thread id, so no two threads tie.
    pub(crate) fn prio_key(&self, tid: ThreadId) -> u128 {
        let t = self.get(tid);
        match t.queue {
            QueueAssign::Dp(j) => {
                ((j as u128) << 96)
                    | ((t.effective_deadline().as_ns() as u128) << 32)
                    | t.id.0 as u128
            }
            QueueAssign::Fp => {
                (u64::MAX as u128) << 96 | ((t.rm_prio as u128) << 32) | t.id.0 as u128
            }
        }
    }

    /// Parks `tid` in the wait queue `queue`, which every blocking
    /// object keeps in ascending [`TcbTable::prio_key`] order: before
    /// the first waiter with a larger key. The waiters' keys are read
    /// in place, so a park allocates only when the queue outgrows its
    /// capacity.
    pub(crate) fn enqueue_by_prio(&self, queue: &mut Vec<ThreadId>, tid: ThreadId) {
        let key = self.prio_key(tid);
        let pos = queue
            .iter()
            .position(|&w| self.prio_key(w) > key)
            .unwrap_or(queue.len());
        queue.insert(pos, tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::Action;

    fn tcb(id: u32) -> Tcb {
        Tcb::new(
            ThreadId(id),
            ProcId(0),
            Timing::Periodic {
                period: Duration::from_ms(10),
                deadline: Duration::from_ms(10),
                phase: Duration::ZERO,
            },
            Script::compute_only(Duration::from_ms(1)),
            id,
            QueueAssign::Fp,
        )
    }

    #[test]
    fn periodic_tasks_start_blocked_until_release() {
        let t = tcb(0);
        assert_eq!(t.state, ThreadState::Blocked(BlockReason::EndOfJob));
        assert!(!t.is_ready());
        assert!(t.job_done);
    }

    #[test]
    fn event_driven_tasks_start_ready() {
        let t = Tcb::new(
            ThreadId(0),
            ProcId(0),
            Timing::EventDriven {
                rank: Duration::from_ms(5),
            },
            Script::looping(vec![Action::WaitIrq(IrqLine(1))]),
            0,
            QueueAssign::Fp,
        );
        assert!(t.is_ready());
    }

    #[test]
    fn effective_deadline_prefers_earlier_inherited() {
        let mut t = tcb(0);
        t.abs_deadline = Time::from_ms(20);
        assert_eq!(t.effective_deadline(), Time::from_ms(20));
        t.inherited_deadline = Some(Time::from_ms(5));
        assert_eq!(t.effective_deadline(), Time::from_ms(5));
        t.inherited_deadline = Some(Time::from_ms(30));
        assert_eq!(t.effective_deadline(), Time::from_ms(20));
    }

    #[test]
    fn waiters_park_in_prio_key_order() {
        // 0, 1: FP at RM ranks 3 and 1. 2, 3: DP1 with deadlines 20
        // and 9 ms. 4: DP1 at 30 ms, inheriting 5 ms. 5: DP2 at 1 ms.
        let mut tab = TcbTable::new();
        for id in 0..6 {
            tab.insert(tcb(id));
        }
        tab.get_mut(ThreadId(0)).rm_prio = 3;
        for (id, band, deadline) in [(2, 0, 20), (3, 0, 9), (4, 0, 30), (5, 1, 1)] {
            let t = tab.get_mut(ThreadId(id));
            t.queue = QueueAssign::Dp(band);
            t.abs_deadline = Time::from_ms(deadline);
        }
        tab.get_mut(ThreadId(4)).inherited_deadline = Some(Time::from_ms(5));
        let mut queue = Vec::new();
        for id in 0..6 {
            tab.enqueue_by_prio(&mut queue, ThreadId(id));
        }
        assert_eq!(queue, [4, 3, 2, 5, 1, 0].map(ThreadId));
    }

    #[test]
    fn table_is_dense_and_indexed() {
        let mut tab = TcbTable::new();
        tab.insert(tcb(0));
        tab.insert(tcb(1));
        assert_eq!(tab.len(), 2);
        assert_eq!(tab.get(ThreadId(1)).rm_prio, 1);
        tab.get_mut(ThreadId(0)).job = 3;
        assert_eq!(tab.get(ThreadId(0)).job, 3);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn table_rejects_sparse_ids() {
        let mut tab = TcbTable::new();
        tab.insert(tcb(5));
    }
}
