//! Semaphore and condition-variable system-call envelopes.
//!
//! The semaphore syscalls share one envelope — entry charge, `Syscall`
//! trace record, semaphore-logic charge — and one release tail; the
//! policy-specific bodies (who gets the lock, who blocks, what happens
//! to priorities) live behind [`crate::sync::LockPolicy`]:
//!
//! - [`crate::sync::PiPolicy`] — the paper's §6.1–§6.3 priority
//!   inheritance with early inheritance and the pre-lock queue.
//! - [`crate::sync::SrpPolicy`] — SRP/ceiling scheduling: static
//!   ceilings, a system-ceiling stack, admission at dispatch.
//!
//! Condition variables remain PI-flavoured (they release and re-acquire
//! their guard with inheritance); SRP configurations reject them at
//! build time, so the cond ops never run under a ceiling policy.

use emeralds_sim::{CvId, OverheadKind, SemId, ThreadId, TraceEvent};

use crate::kernel::Kernel;
use crate::tcb::{BlockReason, ThreadState};

impl Kernel {
    /// `acquire_sem()` system call.
    pub(crate) fn sys_acquire_sem(&mut self, tid: ThreadId, s: SemId) {
        self.charge(OverheadKind::Syscall, self.cfg.cost.syscall_entry);
        self.record(TraceEvent::Syscall {
            tid,
            name: "acquire_sem",
        });
        self.charge(OverheadKind::Semaphore, self.cfg.cost.sem_logic);
        self.with_policy(|p, k| p.acquire(k, tid, s));
    }

    /// `release_sem()` system call.
    ///
    /// # Panics
    ///
    /// Panics if a mutex is released by a non-holder (a program bug on
    /// the real system too).
    pub(crate) fn sys_release_sem(&mut self, tid: ThreadId, s: SemId) {
        self.charge(OverheadKind::Syscall, self.cfg.cost.syscall_entry);
        self.record(TraceEvent::Syscall {
            tid,
            name: "release_sem",
        });
        self.charge(OverheadKind::Semaphore, self.cfg.cost.sem_logic);
        let woke_someone = self.with_policy(|p, k| p.release(k, tid, s));
        self.tcbs.get_mut(tid).pc += 1;
        self.charge(OverheadKind::Syscall, self.cfg.cost.syscall_exit);
        if woke_someone {
            // Only a release that changed the ready set needs a
            // scheduling decision; a free-semaphore release returns
            // straight to the caller.
            self.reschedule();
        }
    }

    /// `cond_wait(cv, mutex)`: atomically release the guard and wait.
    pub(crate) fn sys_cond_wait(&mut self, tid: ThreadId, cv: CvId, guard: SemId) {
        self.charge(OverheadKind::Syscall, self.cfg.cost.syscall_entry);
        self.record(TraceEvent::Syscall {
            tid,
            name: "cond_wait",
        });
        self.charge(OverheadKind::Semaphore, self.cfg.cost.sem_logic);
        self.record(TraceEvent::CvWait { tid, cv });
        // Release the guard (may hand it to a waiter); the blocking
        // below triggers the scheduling decision either way.
        let _ = self.release_sem_inner(tid, guard);
        // Park on the condition.
        let pos = self
            .tcbs
            .enqueue_by_prio(&mut self.cvs[cv.index()].waiters, tid);
        self.cvs[cv.index()].guard_of.insert(pos, guard);
        self.tcbs.get_mut(tid).in_syscall = true;
        self.block_thread(tid, BlockReason::Cv(cv));
        self.reschedule();
    }

    /// `cond_signal(cv)`: wake one waiter; it re-acquires its guard
    /// mutex (with inheritance if contended) before returning.
    pub(crate) fn sys_cond_signal(&mut self, tid: ThreadId, cv: CvId) {
        self.charge(OverheadKind::Syscall, self.cfg.cost.syscall_entry);
        self.record(TraceEvent::Syscall {
            tid,
            name: "cond_signal",
        });
        self.charge(OverheadKind::Semaphore, self.cfg.cost.sem_logic);
        self.record(TraceEvent::CvSignal { tid, cv });
        let mut woke = false;
        if let Some((w, guard)) = self.cvs[cv.index()].pop() {
            if self.sems[guard.index()].available() {
                self.sems[guard.index()].take(w);
                self.tcbs.get_mut(w).held_sems.push(guard);
                // cond_wait returns: advance past the CondWait action.
                self.tcbs.get_mut(w).pc += 1;
                self.make_ready(w);
                woke = true;
            } else {
                // Move the waiter onto the guard's wait queue with PI.
                self.do_priority_inheritance(guard, w);
                self.enqueue_sem_waiter(guard, w);
                self.tcbs.get_mut(w).blocked_in_acquire = true;
                self.tcbs.get_mut(w).state = ThreadState::Blocked(BlockReason::Sem(guard));
            }
        }
        self.tcbs.get_mut(tid).pc += 1;
        self.charge(OverheadKind::Syscall, self.cfg.cost.syscall_exit);
        if woke {
            self.reschedule();
        }
    }
}
