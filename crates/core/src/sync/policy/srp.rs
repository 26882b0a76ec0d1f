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
//! zero.

use emeralds_sim::{OverheadKind, SemId, ThreadId, TraceEvent};

use crate::kernel::Kernel;
use crate::sync::policy::LockPolicy;
use crate::tcb::BlockReason;

/// Runtime counters of the SRP machinery (deterministic; virtual-time
/// driven).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SrpStats {
    /// Deepest the system-ceiling stack ever got.
    pub max_stack_depth: usize,
    /// Wake-ups deferred by the admission test.
    pub deferrals: u64,
    /// Contended `acquire_sem()` calls — impossible under a validated
    /// graph; counted (and a plain blocking wait taken) rather than
    /// trusted away.
    pub unexpected_blocks: u64,
}

/// Stack Resource Policy: static ceilings, a system-ceiling stack, and
/// preemption-level admission at dispatch.
#[derive(Clone, Debug)]
pub struct SrpPolicy {
    /// Per-semaphore resource ceilings (`None` = no script acquires the
    /// semaphore, so it never constrains admission).
    ceilings: Vec<Option<u32>>,
    /// Ceilings of currently-held mutexes, in acquisition order.
    stack: Vec<(SemId, u32)>,
    /// Tasks whose wake-up the admission test deferred, still blocked.
    pending: Vec<ThreadId>,
    stats: SrpStats,
}

impl SrpPolicy {
    /// A policy over the given offline ceiling table (from
    /// `emeralds_sched::srp_ceilings`).
    pub fn new(ceilings: Vec<Option<u32>>) -> SrpPolicy {
        SrpPolicy {
            ceilings,
            stack: Vec::new(),
            pending: Vec::new(),
            stats: SrpStats::default(),
        }
    }

    /// The system ceiling: best (minimum) ceiling among held mutexes.
    fn system_ceiling(&self) -> Option<u32> {
        self.stack.iter().map(|&(_, c)| c).min()
    }

    /// The admission test: with the stack empty everyone runs; else the
    /// waker needs a strictly better preemption level than the system
    /// ceiling.
    fn admits(&self, k: &Kernel, tid: ThreadId) -> bool {
        match self.system_ceiling() {
            None => true,
            Some(c) => k.tcbs.get(tid).rm_prio < c,
        }
    }

    fn push_ceiling(&mut self, k: &mut Kernel, tid: ThreadId, s: SemId) {
        let c = self.ceilings[s.index()].expect("validated graph: acquired sem has a ceiling");
        self.stack.push((s, c));
        self.stats.max_stack_depth = self.stats.max_stack_depth.max(self.stack.len());
        k.charge(OverheadKind::Semaphore, k.cfg.cost.srp_ceiling_push);
        k.record(TraceEvent::CeilingPush {
            tid,
            sem: s,
            ceiling: c,
        });
    }

    fn pop_ceiling(&mut self, k: &mut Kernel, tid: ThreadId, s: SemId) {
        let idx = self
            .stack
            .iter()
            .rposition(|&(sem, _)| sem == s)
            .expect("released sem is on the ceiling stack");
        let (_, c) = self.stack.remove(idx);
        k.charge(OverheadKind::Semaphore, k.cfg.cost.srp_ceiling_pop);
        k.record(TraceEvent::CeilingPop {
            tid,
            sem: s,
            ceiling: c,
        });
    }

    /// Re-examines the pending list after a ceiling pop. Each
    /// examination is one admission test (charged); admitted tasks wake
    /// in priority order. Returns true when anyone woke.
    fn admit_pending(&mut self, k: &mut Kernel) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        // Deterministic order: best priority key first (ties by id are
        // impossible — keys embed the id).
        self.pending.sort_by_key(|&t| k.tcbs.prio_key(t));
        let mut woke = false;
        let mut still_pending = Vec::new();
        for tid in std::mem::take(&mut self.pending) {
            k.charge(OverheadKind::Semaphore, k.cfg.cost.srp_admission);
            if self.admits(k, tid) {
                k.record(TraceEvent::CeilingAdmit { tid });
                k.make_ready(tid);
                woke = true;
            } else {
                still_pending.push(tid);
            }
        }
        self.pending = still_pending;
        woke
    }
}

impl LockPolicy for SrpPolicy {
    fn acquire(&mut self, k: &mut Kernel, tid: ThreadId, s: SemId) {
        debug_assert!(
            k.sems[s.index()].is_mutex(),
            "SRP configs reject counting-semaphore acquires"
        );
        if k.sems[s.index()].available() {
            k.sems[s.index()].take(tid);
            k.tcbs.get_mut(tid).held_sems.push(s);
            k.record(TraceEvent::SemAcquired { tid, sem: s });
            self.push_ceiling(k, tid, s);
            k.tcbs.get_mut(tid).pc += 1;
            k.charge(OverheadKind::Syscall, k.cfg.cost.syscall_exit);
        } else {
            // Admission should have made this impossible; fall back to
            // a plain priority-ordered blocking wait (no inheritance —
            // SRP has none) and count the anomaly.
            self.stats.unexpected_blocks += 1;
            let holder = k.sems[s.index()].holder.expect("locked mutex has holder");
            k.enqueue_sem_waiter(s, tid);
            {
                let t = k.tcbs.get_mut(tid);
                t.in_syscall = true;
                t.blocked_in_acquire = true;
            }
            k.block_thread(tid, BlockReason::Sem(s));
            k.record(TraceEvent::SemBlocked {
                tid,
                sem: s,
                holder,
            });
            k.reschedule();
        }
    }

    fn release(&mut self, k: &mut Kernel, tid: ThreadId, s: SemId) -> bool {
        assert_eq!(
            k.sems[s.index()].holder,
            Some(tid),
            "{s} released by non-holder {tid}"
        );
        k.tcbs.get_mut(tid).held_sems.retain(|&h| h != s);
        k.record(TraceEvent::SemReleased { tid, sem: s });
        self.pop_ceiling(k, tid, s);
        let mut woke = false;
        // Defensive hand-over for the unexpected-contention fallback.
        if let Some(w) = k.sems[s.index()].pop_waiter() {
            k.sems[s.index()].holder = Some(w);
            k.tcbs.get_mut(w).held_sems.push(s);
            k.counters.sem_handed_over += 1;
            k.record(TraceEvent::SemAcquired { tid: w, sem: s });
            {
                let t = k.tcbs.get_mut(w);
                t.blocked_in_acquire = false;
                t.pc += 1;
            }
            self.push_ceiling(k, w, s);
            k.make_ready(w);
            woke = true;
        } else {
            k.sems[s.index()].put();
        }
        // A popped ceiling can unblock deferred wake-ups.
        woke |= self.admit_pending(k);
        woke
    }

    fn unblock_with_hint(&mut self, k: &mut Kernel, tid: ThreadId, _hint: Option<SemId>) {
        // SRP ignores §6.2 hints: the admission test plays their role.
        // The test itself is the charged operation — one comparison
        // against the system-ceiling register.
        k.charge(OverheadKind::Semaphore, k.cfg.cost.srp_admission);
        if self.admits(k, tid) {
            // Record an admit only when a non-empty stack made this a
            // real decision; plain wakes stay plain.
            if !self.stack.is_empty() {
                k.record(TraceEvent::CeilingAdmit { tid });
            }
            k.make_ready(tid);
            k.reschedule();
        } else {
            debug_assert!(!self.pending.contains(&tid), "double deferral of {tid}");
            let ceiling = self
                .system_ceiling()
                .expect("non-admission implies a ceiling");
            self.stats.deferrals += 1;
            self.pending.push(tid);
            k.record(TraceEvent::CeilingDefer { tid, ceiling });
            // The task stays blocked: nothing in scheduler state
            // changed, so no reschedule.
        }
    }

    fn srp_stats(&self) -> Option<SrpStats> {
        Some(self.stats)
    }
}
