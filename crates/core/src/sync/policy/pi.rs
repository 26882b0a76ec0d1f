//! The EMERALDS priority-inheritance semaphore protocol (§6.2–§6.3).
//!
//! Inheritance happens early (at the preceding blocking call, driven
//! by the §6.2.1 parser hints), FP repositioning is the O(1)
//! placeholder swap, and the §6.3.1 pre-lock queue turns "case B" into
//! "case A". It serves both priority-inheritance values of
//! [`SemScheme`]: `Emeralds` as above, and the `Standard` ablation
//! (inheritance inside `acquire`, full queue walks). All protocol
//! state (placeholders, pre-lock queues, the `inherited` flag) lives
//! on the semaphores themselves.
//!
//! The plain wait for a permit, the release bookkeeping and the
//! hand-over of a permit to a waiter (`grant_sem`) are shared with the
//! SRP protocol and with an interrupt's `ReleaseSem` action.

use emeralds_sim::{OverheadKind, SemId, ThreadId, TraceEvent};

use crate::kernel::Kernel;
use crate::sync::SemScheme;
use crate::tcb::{BlockReason, QueueAssign, ThreadState};

impl Kernel {
    /// `acquire_sem()` body under PI (envelope already charged).
    #[inline(never)]
    pub(crate) fn pi_acquire(&mut self, tid: ThreadId, s: SemId) {
        // Uncontended fast path: no early grant pending on this
        // semaphore, the permit is free, nobody waits, and the
        // pre-lock queue holds at most the caller itself (§6.2.1 puts
        // the *next* acquirer there at its preceding blocking call, so
        // a solo user of a lock meets its own entry every time). This
        // is the case the paper's semaphore redesign optimizes for
        // (§6.2 "case A"), and the dominant one in practice — take the
        // permit with no queue scans, no inheritance checks, and no
        // peer-parking loop. Charges and trace are identical to what
        // the general path emits under these conditions, so results
        // are bit-for-bit unchanged; only host-side work is skipped.
        {
            let sem = &self.sems[s.index()];
            if sem.available()
                && sem.waiters.is_empty()
                && sem.prelock.iter().all(|&(t, blocked)| t == tid && !blocked)
                && self.tcbs.get(tid).granted_sem != Some(s)
            {
                self.sem_fast_acquires += 1;
                self.sems[s.index()].prelock_remove(tid);
                self.take_permit(tid, s);
                self.tcbs.get_mut(tid).pc += 1;
                self.charge(OverheadKind::Syscall, self.cfg.cost.syscall_exit);
                return;
            }
        }

        // EMERALDS early grant: the lock was handed to us while we
        // were still blocked (§6.2); `grant_sem` already recorded the
        // acquisition.
        if self.tcbs.get(tid).granted_sem == Some(s) {
            self.tcbs.get_mut(tid).granted_sem = None;
            self.tcbs.get_mut(tid).pc += 1;
            self.charge(OverheadKind::Syscall, self.cfg.cost.syscall_exit);
            return;
        }
        if self.sems[s.index()].in_prelock(tid) {
            self.sems[s.index()].prelock_remove(tid);
        }
        if self.sems[s.index()].available() {
            self.take_permit(tid, s);
            // A release that deferred to a parked pre-lock member
            // leaves its waiters queued, so a free lock can still
            // have waiters: the new holder inherits from the top one.
            if let Some(&next) = self.sems[s.index()].waiters.first() {
                self.do_priority_inheritance(s, next);
            }
            // §6.3.1: every other pre-lock member is blocked until we
            // release. Walked by index, which allocates nothing: the
            // loop flags members but never adds or removes one.
            if self.cfg.sem_scheme == SemScheme::Emeralds {
                for i in 0..self.sems[s.index()].prelock.len() {
                    let (m, blocked) = self.sems[s.index()].prelock[i];
                    if m == tid || blocked {
                        continue;
                    }
                    self.sems[s.index()].prelock[i].1 = true;
                    self.charge(OverheadKind::Semaphore, self.cfg.cost.sem_logic);
                    self.block_thread(m, BlockReason::PreLock(s));
                    self.record(TraceEvent::PreLockBlock { tid: m, sem: s });
                    // Inversion safety: inherit from the blocked
                    // member if it outranks us.
                    self.do_priority_inheritance(s, m);
                }
            }
            self.tcbs.get_mut(tid).pc += 1;
            self.charge(OverheadKind::Syscall, self.cfg.cost.syscall_exit);
        } else {
            // Contended: a mutex's holder inherits from the caller (a
            // counting semaphore has no holder to boost), then the
            // caller waits.
            self.do_priority_inheritance(s, tid);
            self.wait_for_permit(tid, s);
        }
    }

    /// Takes a free permit of `s` for `tid` and records the
    /// acquisition; a mutex joins the caller's held list.
    pub(crate) fn take_permit(&mut self, tid: ThreadId, s: SemId) {
        self.sems[s.index()].take(tid);
        if self.sems[s.index()].is_mutex() {
            self.tcbs.get_mut(tid).held_sems.push(s);
        }
        self.record(TraceEvent::SemAcquired { tid, sem: s });
    }

    /// Parks `tid` in its `acquire_sem()` call on the wait queue of
    /// `s`, which has no free permit, and reschedules. A mutex's waiter
    /// records the holder it waits for; a counting semaphore has none.
    pub(crate) fn wait_for_permit(&mut self, tid: ThreadId, s: SemId) {
        self.enqueue_sem_waiter(s, tid);
        {
            let t = self.tcbs.get_mut(tid);
            t.in_syscall = true;
            t.blocked_in_acquire = true;
        }
        self.block_thread(tid, BlockReason::Sem(s));
        if let Some(holder) = self.sems[s.index()].holder {
            self.record(TraceEvent::SemBlocked {
                tid,
                sem: s,
                holder,
            });
        }
        self.reschedule();
    }

    /// Gives up `tid`'s hold on `s` and records the release. A mutex
    /// must be released by its holder, which drops any priority it
    /// inherited through `s` (SRP never inherits, so for it the undo
    /// is a no-op).
    ///
    /// # Panics
    ///
    /// Panics if a mutex is released by a non-holder.
    pub(crate) fn drop_hold(&mut self, tid: ThreadId, s: SemId) {
        if self.sems[s.index()].is_mutex() {
            assert_eq!(
                self.sems[s.index()].holder,
                Some(tid),
                "{s} released by non-holder {tid}"
            );
            self.undo_priority_inheritance(tid, s);
            self.tcbs.get_mut(tid).held_sems.retain(|&h| h != s);
        }
        self.record(TraceEvent::SemReleased { tid, sem: s });
    }

    /// `release_sem()` body under PI, also the guard release of
    /// `cond_wait`. Returns true when some thread became ready.
    #[inline(never)]
    pub(crate) fn pi_release(&mut self, tid: ThreadId, s: SemId) -> bool {
        self.drop_hold(tid, s);
        // A parked pre-lock member (§6.3.1) is a contender for the
        // lock just like a queued waiter: handing the permit past a
        // higher-priority parked member would invert priorities (and
        // a steady stream of waiters could starve it, since parked
        // members are otherwise only woken by an uncontended
        // release). Hand over only when the top waiter outranks
        // every parked member; otherwise free the lock and wake the
        // parked members to contend — the waiters stay queued.
        let best_parked = self.sems[s.index()]
            .prelock
            .iter()
            .filter(|&&(_, blocked)| blocked)
            .map(|&(t, _)| self.tcbs.prio_key(t))
            .min();
        let hand_over = match (self.sems[s.index()].waiters.first(), best_parked) {
            (Some(&w), Some(parked)) => self.tcbs.prio_key(w) < parked,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if hand_over {
            let w = self.sems[s.index()].pop_waiter().expect("checked above");
            // Hand the permit straight over.
            if self.sems[s.index()].is_mutex() {
                self.sems[s.index()].holder = Some(w);
                self.tcbs.get_mut(w).held_sems.push(s);
                // The new holder may need to inherit from the waiters
                // still queued behind it.
                let next = self.sems[s.index()].waiters.first().copied();
                if let Some(next) = next {
                    self.do_priority_inheritance(s, next);
                }
            }
            self.grant_sem(s, w);
            self.make_ready(w);
            true
        } else {
            self.sems[s.index()].put();
            // §6.3.1: the lock is free again — wake every pre-lock
            // member we parked, walking by index as the acquire does.
            // Preemption check instead of an unconditional scheduler
            // pass: a member was parked while ready, so it ranked
            // below the then-running acquirer, and priority keys are
            // fixed for the life of a job — waking it cannot displace
            // the releaser unless it outranks it now.
            let releaser_key = self.tcbs.prio_key(tid);
            let mut preempts = false;
            for i in 0..self.sems[s.index()].prelock.len() {
                let (p, parked) = self.sems[s.index()].prelock[i];
                if !parked {
                    continue;
                }
                self.sems[s.index()].prelock[i].1 = false;
                self.charge(OverheadKind::Semaphore, self.cfg.cost.sem_logic);
                self.make_ready(p);
                preempts |= self.tcbs.prio_key(p) < releaser_key;
            }
            preempts
        }
    }

    /// Hands a permit of `s` to `w`, a waiter just popped from its
    /// queue (a mutex's caller has already made `w` the holder):
    /// counts and records the acquisition and fixes `w`'s resume
    /// point. The caller then wakes `w` and reschedules. Shared by the
    /// PI and SRP releases and an interrupt's `ReleaseSem` action.
    pub(crate) fn grant_sem(&mut self, s: SemId, w: ThreadId) {
        debug_assert_eq!(
            self.tcbs.get(w).state,
            ThreadState::Blocked(BlockReason::Sem(s))
        );
        self.counters.sem_handed_over += 1;
        self.record(TraceEvent::SemAcquired { tid: w, sem: s });
        let t = self.tcbs.get_mut(w);
        if t.blocked_in_acquire {
            // It blocked inside acquire_sem()/cond_wait(): the call
            // returns now.
            t.blocked_in_acquire = false;
            t.pc += 1;
            // in_syscall already true → exit charged on resume.
        } else {
            // EMERALDS early-PI waiter: its acquire_sem() call is
            // still ahead; mark the grant for it to discover.
            t.granted_sem = Some(s);
        }
    }

    /// Priority inheritance from `donor` (blocked or about to block on
    /// `s`) to the current holder of `s`, transitively through chains
    /// of held semaphores (bounded depth). Returns true when at least
    /// one holder was actually boosted (so scheduler state changed).
    pub(crate) fn do_priority_inheritance(&mut self, s: SemId, donor: ThreadId) -> bool {
        let mut sem = s;
        let mut donor = donor;
        let mut applied = false;
        for _ in 0..8 {
            if !self.sems[sem.index()].is_mutex() {
                return applied;
            }
            let Some(holder) = self.sems[sem.index()].holder else {
                return applied;
            };
            if self.tcbs.prio_key(donor) >= self.tcbs.prio_key(holder) {
                return applied;
            }
            self.apply_inheritance(sem, holder, donor);
            applied = true;
            // Transitive case: the holder itself waits on another
            // semaphore.
            match self.tcbs.get(holder).state {
                ThreadState::Blocked(BlockReason::Sem(s2)) => {
                    sem = s2;
                    donor = holder;
                }
                _ => return applied,
            }
        }
        applied
    }

    /// One inheritance step on one semaphore.
    fn apply_inheritance(&mut self, s: SemId, holder: ThreadId, donor: ThreadId) {
        let holder_q = self.tcbs.get(holder).queue;
        let donor_q = self.tcbs.get(donor).queue;
        match (holder_q, donor_q) {
            (QueueAssign::Fp, QueueAssign::Fp) => {
                if self.cfg.sem_scheme == SemScheme::Emeralds {
                    // §6.2: if a previous donor placeholds for us,
                    // restore it first (the "T3" extra step), then
                    // swap with the new donor.
                    if let Some(old) = self.sems[s.index()].placeholder {
                        if old == donor {
                            return; // already placeholding
                        }
                        let c = self
                            .sched
                            .pi_swap(holder, old, &mut self.tcbs, &self.cfg.cost);
                        self.charge(OverheadKind::PriorityInheritance, c);
                    }
                    let c = self
                        .sched
                        .pi_swap(holder, donor, &mut self.tcbs, &self.cfg.cost);
                    self.charge(OverheadKind::PriorityInheritance, c);
                    self.sems[s.index()].placeholder = Some(donor);
                } else {
                    let c =
                        self.sched
                            .pi_raise_standard(holder, donor, &mut self.tcbs, &self.cfg.cost);
                    self.charge(OverheadKind::PriorityInheritance, c);
                }
            }
            // Deadline inheritance: O(1) on the unsorted DP queue.
            (QueueAssign::Dp(_), _) => {
                let donor_dl = self.tcbs.get(donor).effective_deadline();
                let t = self.tcbs.get_mut(holder);
                if t.effective_deadline() > donor_dl {
                    t.inherited_deadline = Some(donor_dl);
                }
                self.charge(OverheadKind::PriorityInheritance, self.cfg.cost.pi_dp_fixed);
            }
            // An FP holder blocking a DP donor: boost the holder to
            // the head of the FP band (documented approximation — the
            // paper never mixes bands on one lock).
            (QueueAssign::Fp, QueueAssign::Dp(_)) => {
                let front = {
                    let order = match &mut self.sched {
                        crate::sched::SchedulerImpl::Rm(q) => q.order().first().copied(),
                        crate::sched::SchedulerImpl::Csd(c) => c.fp_mut().order().first().copied(),
                        _ => None,
                    };
                    order
                };
                if let Some(front) = front {
                    if front != holder {
                        let c = self.sched.pi_raise_standard(
                            holder,
                            front,
                            &mut self.tcbs,
                            &self.cfg.cost,
                        );
                        self.charge(OverheadKind::PriorityInheritance, c);
                    }
                }
            }
        }
        self.sems[s.index()].inherited = true;
        self.record(TraceEvent::PriorityInherit { holder, donor });
    }

    /// Undoes the inheritance a holder received through `s`.
    pub(crate) fn undo_priority_inheritance(&mut self, holder: ThreadId, s: SemId) {
        if !self.sems[s.index()].inherited {
            return;
        }
        self.sems[s.index()].inherited = false;
        match self.tcbs.get(holder).queue {
            QueueAssign::Fp => {
                if let Some(ph) = self.sems[s.index()].placeholder.take() {
                    let c = self
                        .sched
                        .pi_swap(holder, ph, &mut self.tcbs, &self.cfg.cost);
                    self.charge(OverheadKind::PriorityInheritance, c);
                } else {
                    let c = self
                        .sched
                        .pi_restore_standard(holder, &mut self.tcbs, &self.cfg.cost);
                    self.charge(OverheadKind::PriorityInheritance, c);
                }
            }
            QueueAssign::Dp(_) => {
                // Recompute the inherited deadline from the waiters of
                // the other semaphores still held.
                let inherited = self
                    .tcbs
                    .get(holder)
                    .held_sems
                    .iter()
                    .filter(|&&h| h != s)
                    .flat_map(|h| &self.sems[h.index()].waiters)
                    .map(|&w| self.tcbs.get(w).effective_deadline())
                    .min();
                self.tcbs.get_mut(holder).inherited_deadline = inherited;
                self.charge(OverheadKind::PriorityInheritance, self.cfg.cost.pi_dp_fixed);
            }
        }
        self.record(TraceEvent::PriorityRestore { holder });
    }

    /// Priority-ordered insertion into a semaphore wait queue.
    pub(crate) fn enqueue_sem_waiter(&mut self, s: SemId, tid: ThreadId) {
        self.tcbs
            .enqueue_by_prio(&mut self.sems[s.index()].waiters, tid);
    }

    /// The §6.2 wake decision for a completing blocking call: wake
    /// the thread, or — when its next lock target is already held —
    /// inherit early and keep it blocked; when the target is free,
    /// admit it to the pre-lock queue (§6.3.1).
    #[inline(never)]
    pub(crate) fn pi_wake(&mut self, tid: ThreadId, hint: Option<SemId>) {
        if self.cfg.sem_scheme == SemScheme::Emeralds {
            if let Some(s) = hint {
                if self.sems[s.index()].is_mutex() {
                    // The hint check itself is semaphore bookkeeping.
                    self.charge(OverheadKind::Semaphore, self.cfg.cost.sem_logic);
                    if !self.sems[s.index()].available() {
                        let holder = self.sems[s.index()]
                            .holder
                            .expect("locked mutex has holder");
                        let boosted = self.do_priority_inheritance(s, tid);
                        self.enqueue_sem_waiter(s, tid);
                        self.tcbs.get_mut(tid).state = ThreadState::Blocked(BlockReason::Sem(s));
                        self.record(TraceEvent::EarlyInherit {
                            waiter: tid,
                            holder,
                            sem: s,
                        });
                        // The thread stays blocked, so the only way
                        // scheduler state changed is a holder boost:
                        // invoke the scheduler only then.
                        if boosted {
                            self.reschedule();
                        }
                        return;
                    }
                    self.sems[s.index()].prelock_add(tid);
                    self.record(TraceEvent::PreLockAdmit { tid, sem: s });
                }
            }
        }
        self.make_ready(tid);
        self.reschedule();
    }
}
