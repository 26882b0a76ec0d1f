//! The Stack Resource Policy (Baker '91) as a ceiling-based rival to
//! the EMERALDS PI semaphores.
//!
//! Offline, every mutex gets a *resource ceiling*: the best (numerically
//! smallest) preemption level among the tasks that acquire it, where a
//! task's preemption level is its RM/DM rank (`rm_prio`; lower = more
//! urgent). At run time the kernel keeps a stack of the ceilings of all
//! currently-held mutexes; the *system ceiling* is the best ceiling on
//! the stack.
//!
//! The whole protocol is an **admission test at wake-up**: a task whose
//! blocking call completes is allowed to become ready only when the
//! ceiling stack is empty or its preemption level is strictly better
//! than the system ceiling. Otherwise the wake is *deferred* — the task
//! stays blocked, parked on a pending list, and is re-examined whenever
//! a ceiling is popped. The classic SRP results follow: once a task
//! starts, every lock it may touch is free (so `acquire_sem()` never
//! blocks and needs no inheritance), each job is delayed at most once,
//! by at most one outer critical section of a worse-level task, and
//! deadlock is impossible. `tests/lock_policy.rs` pins these bounds.
//!
//! Infeasible graphs (lock-order cycles, blocking inside a critical
//! section, counting semaphores, condition variables) are rejected at
//! configuration time — see [`crate::kernel::ConfigError`] — so the
//! contended-acquire fallback below is defensive: it counts into
//! [`SrpStats::unexpected_blocks`], which the test suite asserts stays
//! zero, and then waits and is handed the permit exactly as under PI.

use emeralds_sim::{OverheadKind, SemId, ThreadId, TraceEvent};

use crate::kernel::Kernel;

/// Runtime counters of the SRP machinery (deterministic; virtual-time
/// driven). Deferred wakes are counted by
/// [`crate::kernel::ServiceCounters::ceiling_defers`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SrpStats {
    /// Deepest the system-ceiling stack ever got.
    pub max_stack_depth: usize,
    /// Contended `acquire_sem()` calls — impossible under a validated
    /// graph; counted (and a plain blocking wait taken) rather than
    /// trusted away.
    pub unexpected_blocks: u64,
}

/// SRP's run-time state: only kernels built under
/// [`crate::sync::SemScheme::Srp`] hold one.
#[derive(Debug)]
pub(crate) struct SrpState {
    /// Per-semaphore resource ceilings (`None` = no script acquires the
    /// semaphore, so it never constrains admission).
    ceilings: Box<[Option<u32>]>,
    /// Ceilings of currently-held mutexes, in acquisition order.
    stack: Vec<(SemId, u32)>,
    /// Tasks whose wake-up the admission test deferred, still blocked.
    pending: Vec<ThreadId>,
    pub(crate) stats: SrpStats,
}

impl SrpState {
    /// State over the given offline ceiling table (from
    /// `emeralds_sched::srp_ceilings`).
    pub(crate) fn new(ceilings: Vec<Option<u32>>) -> SrpState {
        SrpState {
            ceilings: ceilings.into_boxed_slice(),
            stack: Vec::new(),
            pending: Vec::new(),
            stats: SrpStats::default(),
        }
    }

    /// The system ceiling: best (minimum) ceiling among held mutexes.
    fn system_ceiling(&self) -> Option<u32> {
        self.stack.iter().map(|&(_, c)| c).min()
    }

    /// The admission test: with the stack empty everyone runs; else a
    /// task needs a strictly better preemption level than the system
    /// ceiling.
    fn admits(&self, level: u32) -> bool {
        self.system_ceiling().is_none_or(|c| level < c)
    }
}

impl Kernel {
    fn srp(&mut self) -> &mut SrpState {
        self.srp
            .as_deref_mut()
            .expect("an Srp kernel holds SRP state")
    }

    fn srp_admits(&self, tid: ThreadId) -> bool {
        let srp = self.srp.as_deref().expect("an Srp kernel holds SRP state");
        srp.admits(self.tcbs.get(tid).rm_prio)
    }

    fn srp_push_ceiling(&mut self, tid: ThreadId, s: SemId) {
        let srp = self.srp();
        let c = srp.ceilings[s.index()].expect("validated graph: acquired sem has a ceiling");
        srp.stack.push((s, c));
        srp.stats.max_stack_depth = srp.stats.max_stack_depth.max(srp.stack.len());
        self.charge(OverheadKind::Semaphore, self.cfg.cost.srp_ceiling_push);
        self.record(TraceEvent::CeilingPush {
            tid,
            sem: s,
            ceiling: c,
        });
    }

    fn srp_pop_ceiling(&mut self, tid: ThreadId, s: SemId) {
        let srp = self.srp();
        let idx = srp
            .stack
            .iter()
            .rposition(|&(sem, _)| sem == s)
            .expect("released sem is on the ceiling stack");
        let (_, c) = srp.stack.remove(idx);
        self.charge(OverheadKind::Semaphore, self.cfg.cost.srp_ceiling_pop);
        self.record(TraceEvent::CeilingPop {
            tid,
            sem: s,
            ceiling: c,
        });
    }

    /// Re-examines the pending list after a ceiling pop. Each
    /// examination is one admission test (charged); admitted tasks wake
    /// in priority order. Returns true when anyone woke.
    fn srp_admit_pending(&mut self) -> bool {
        let mut pending = std::mem::take(&mut self.srp().pending);
        // Deterministic order: best priority key first (ties by id are
        // impossible — keys embed the id).
        pending.sort_by_key(|&t| self.tcbs.prio_key(t));
        let mut woke = false;
        pending.retain(|&tid| {
            self.charge(OverheadKind::Semaphore, self.cfg.cost.srp_admission);
            if !self.srp_admits(tid) {
                return true;
            }
            self.record(TraceEvent::CeilingAdmit { tid });
            self.make_ready(tid);
            woke = true;
            false
        });
        self.srp().pending = pending;
        woke
    }

    /// `acquire_sem()` body under SRP (envelope already charged).
    #[inline(never)]
    pub(crate) fn srp_acquire(&mut self, tid: ThreadId, s: SemId) {
        debug_assert!(
            self.sems[s.index()].is_mutex(),
            "SRP configs reject counting-semaphore acquires"
        );
        if self.sems[s.index()].available() {
            self.take_permit(tid, s);
            self.srp_push_ceiling(tid, s);
            self.tcbs.get_mut(tid).pc += 1;
            self.charge(OverheadKind::Syscall, self.cfg.cost.syscall_exit);
        } else {
            // Admission should have made this impossible; fall back to
            // a plain priority-ordered blocking wait (no inheritance —
            // SRP has none) and count the anomaly.
            self.srp().stats.unexpected_blocks += 1;
            self.wait_for_permit(tid, s);
        }
    }

    /// `release_sem()` body under SRP. Returns true when some thread
    /// became ready.
    #[inline(never)]
    pub(crate) fn srp_release(&mut self, tid: ThreadId, s: SemId) -> bool {
        self.drop_hold(tid, s);
        self.srp_pop_ceiling(tid, s);
        // Defensive hand-over for the unexpected-contention fallback.
        let handed_over = if let Some(w) = self.sems[s.index()].pop_waiter() {
            self.sems[s.index()].holder = Some(w);
            self.tcbs.get_mut(w).held_sems.push(s);
            self.grant_sem(s, w);
            self.srp_push_ceiling(w, s);
            self.make_ready(w);
            true
        } else {
            self.sems[s.index()].put();
            false
        };
        // A popped ceiling can unblock deferred wake-ups.
        let admitted = self.srp_admit_pending();
        handed_over || admitted
    }

    /// The SRP wake decision for a completing blocking call: the
    /// admission test (wake, or defer until a ceiling pop). SRP ignores
    /// §6.2 hints; the admission test plays their role.
    #[inline(never)]
    pub(crate) fn srp_wake(&mut self, tid: ThreadId) {
        // The test itself is the charged operation — one comparison
        // against the system-ceiling register.
        self.charge(OverheadKind::Semaphore, self.cfg.cost.srp_admission);
        if self.srp_admits(tid) {
            // Record an admit only when a non-empty stack made this a
            // real decision; plain wakes stay plain.
            if !self.srp().stack.is_empty() {
                self.record(TraceEvent::CeilingAdmit { tid });
            }
            self.make_ready(tid);
            self.reschedule();
        } else {
            let srp = self.srp();
            debug_assert!(!srp.pending.contains(&tid), "double deferral of {tid}");
            let ceiling = srp
                .system_ceiling()
                .expect("non-admission implies a ceiling");
            srp.pending.push(tid);
            self.record(TraceEvent::CeilingDefer { tid, ceiling });
            // The task stays blocked: nothing in scheduler state
            // changed, so no reschedule.
        }
    }
}
