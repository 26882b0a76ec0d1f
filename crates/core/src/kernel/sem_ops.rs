//! Semaphore and condition-variable system-call envelopes.
//!
//! The semaphore syscalls share one envelope — entry charge, `Syscall`
//! trace record, semaphore-logic charge — and one release tail. In
//! between, each branches once on [`SemScheme`] to the protocol's body
//! (who gets the lock, who blocks, what happens to priorities; see
//! [`crate::sync::policy`]): the paper's §6.1–§6.3 priority
//! inheritance for `Standard` and `Emeralds`, SRP's ceiling stack for
//! `Srp`.
//!
//! Condition variables remain PI-flavoured (they release and re-acquire
//! their guard with inheritance); SRP configurations reject them at
//! build time, so the cond ops never run under the ceiling protocol.

use emeralds_sim::{CvId, OverheadKind, SemId, SyscallKind, ThreadId, TraceEvent};

use crate::kernel::Kernel;
use crate::script::Action;
use crate::sync::SemScheme;
use crate::tcb::{BlockReason, ThreadState};

impl Kernel {
    /// `acquire_sem()` system call.
    pub(crate) fn sys_acquire_sem(&mut self, tid: ThreadId, s: SemId) {
        self.charge(OverheadKind::Syscall, self.cfg.cost.syscall_entry);
        self.record(TraceEvent::Syscall {
            tid,
            name: SyscallKind::AcquireSem,
        });
        self.charge(OverheadKind::Semaphore, self.cfg.cost.sem_logic);
        match self.cfg.sem_scheme {
            SemScheme::Standard | SemScheme::Emeralds => self.pi_acquire(tid, s),
            SemScheme::Srp => self.srp_acquire(tid, s),
        }
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
            name: SyscallKind::ReleaseSem,
        });
        self.charge(OverheadKind::Semaphore, self.cfg.cost.sem_logic);
        let woke_someone = match self.cfg.sem_scheme {
            SemScheme::Standard | SemScheme::Emeralds => self.pi_release(tid, s),
            SemScheme::Srp => self.srp_release(tid, s),
        };
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
            name: SyscallKind::CondWait,
        });
        self.charge(OverheadKind::Semaphore, self.cfg.cost.sem_logic);
        self.record(TraceEvent::CvWait { tid, cv });
        // Release the guard (may hand it to a waiter); the blocking
        // below triggers the scheduling decision either way.
        let _ = self.pi_release(tid, guard);
        // Park on the condition, at the `CondWait` that names the guard.
        self.tcbs
            .enqueue_by_prio(&mut self.cvs[cv.index()].waiters, tid);
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
            name: SyscallKind::CondSignal,
        });
        self.charge(OverheadKind::Semaphore, self.cfg.cost.sem_logic);
        self.record(TraceEvent::CvSignal { tid, cv });
        let mut woke = false;
        if let Some(w) = self.cvs[cv.index()].pop() {
            // The waiter is still at its `CondWait`, which names the
            // guard; only this wake moves it past.
            let t = self.tcbs.get(w);
            let Action::CondWait(_, guard) = t.steps[t.pc as usize].action else {
                unreachable!("condition waiter {w} is not at a cond_wait");
            };
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
