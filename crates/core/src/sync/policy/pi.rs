//! The EMERALDS priority-inheritance locking policy (§6.2–§6.3).
//!
//! This is the kernel's original semaphore machinery moved behind
//! [`LockPolicy`], unchanged: inheritance happens early (at the
//! preceding blocking call, driven by the §6.2.1 parser hints), FP
//! repositioning is the O(1) placeholder swap, and the §6.3.1 pre-lock
//! queue turns "case B" into "case A". It serves both
//! priority-inheritance values of [`SemScheme`]: `Emeralds` as above,
//! and the `Standard` ablation (inheritance inside `acquire`, full
//! queue walks).
//!
//! Every charge, trace record, and scheduler invocation is exactly
//! where it was before the policy split, so a PI kernel's virtual-time
//! behaviour is bit-identical to the pre-refactor kernel — the
//! determinism and scenario suites pin this.

use emeralds_sim::{OverheadKind, SemId, ThreadId, TraceEvent};

use crate::kernel::Kernel;
use crate::sync::policy::LockPolicy;
use crate::sync::SemScheme;
use crate::tcb::{BlockReason, QueueAssign, ThreadState};

/// Priority-inheritance policy: stateless — all protocol state
/// (placeholders, pre-lock queues, the `inherited` flag) lives on the
/// semaphores themselves, as it did before the policy split.
#[derive(Clone, Copy, Debug, Default)]
pub struct PiPolicy;

impl LockPolicy for PiPolicy {
    fn acquire(&mut self, k: &mut Kernel, tid: ThreadId, s: SemId) {
        k.pi_acquire_body(tid, s);
    }

    fn release(&mut self, k: &mut Kernel, tid: ThreadId, s: SemId) -> bool {
        k.release_sem_inner(tid, s)
    }

    fn unblock_with_hint(&mut self, k: &mut Kernel, tid: ThreadId, hint: Option<SemId>) {
        k.pi_unblock_with_hint(tid, hint);
    }
}

impl Kernel {
    /// `acquire_sem()` body under PI (envelope already charged).
    pub(crate) fn pi_acquire_body(&mut self, tid: ThreadId, s: SemId) {
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
                self.sems[s.index()].take(tid);
                if self.sems[s.index()].is_mutex() {
                    self.tcbs.get_mut(tid).held_sems.push(s);
                }
                self.record(TraceEvent::SemAcquired { tid, sem: s });
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
            self.sems[s.index()].take(tid);
            if self.sems[s.index()].is_mutex() {
                self.tcbs.get_mut(tid).held_sems.push(s);
            }
            self.record(TraceEvent::SemAcquired { tid, sem: s });
            // A release that deferred to a parked pre-lock member
            // leaves its waiters queued, so a free lock can still
            // have waiters: the new holder inherits from the top one.
            if let Some(&next) = self.sems[s.index()].waiters.first() {
                self.do_priority_inheritance(s, next);
            }
            // §6.3.1: every other pre-lock member is blocked until we
            // release.
            if self.cfg.sem_scheme == SemScheme::Emeralds {
                let members: Vec<ThreadId> = self.sems[s.index()]
                    .prelock
                    .iter()
                    .filter(|&&(t, blocked)| t != tid && !blocked)
                    .map(|&(t, _)| t)
                    .collect();
                for m in members {
                    for entry in &mut self.sems[s.index()].prelock {
                        if entry.0 == m {
                            entry.1 = true;
                        }
                    }
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
        } else if self.sems[s.index()].is_mutex() {
            // Contended mutex: inherit and wait.
            let holder = self.sems[s.index()]
                .holder
                .expect("locked mutex has holder");
            self.do_priority_inheritance(s, tid);
            self.enqueue_sem_waiter(s, tid);
            {
                let t = self.tcbs.get_mut(tid);
                t.in_syscall = true;
                t.blocked_in_acquire = true;
            }
            self.block_thread(tid, BlockReason::Sem(s));
            self.record(TraceEvent::SemBlocked {
                tid,
                sem: s,
                holder,
            });
            self.reschedule();
        } else {
            // Counting semaphore with no permits: plain wait, no PI.
            self.enqueue_sem_waiter(s, tid);
            {
                let t = self.tcbs.get_mut(tid);
                t.in_syscall = true;
                t.blocked_in_acquire = true;
            }
            self.block_thread(tid, BlockReason::Sem(s));
            self.reschedule();
        }
    }

    /// The release path shared by `release_sem` and `cond_wait`.
    /// Returns true when some thread became ready.
    pub(crate) fn release_sem_inner(&mut self, tid: ThreadId, s: SemId) -> bool {
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
            .map(|&(t, _)| self.prio_key(t))
            .min();
        let hand_over = match (self.sems[s.index()].waiters.first(), best_parked) {
            (Some(&w), Some(parked)) => self.prio_key(w) < parked,
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
            true
        } else {
            self.sems[s.index()].put();
            // §6.3.1: the lock is free again — wake every pre-lock
            // member we parked.
            let parked: Vec<ThreadId> = self.sems[s.index()]
                .prelock
                .iter()
                .filter(|&&(_, blocked)| blocked)
                .map(|&(t, _)| t)
                .collect();
            // Preemption check instead of an unconditional scheduler
            // pass: a member was parked while ready, so it ranked
            // below the then-running acquirer, and priority keys are
            // fixed for the life of a job — waking it cannot displace
            // the releaser unless it outranks it now.
            let releaser_key = self.prio_key(tid);
            let mut preempts = false;
            for p in parked {
                for entry in &mut self.sems[s.index()].prelock {
                    if entry.0 == p {
                        entry.1 = false;
                    }
                }
                self.charge(OverheadKind::Semaphore, self.cfg.cost.sem_logic);
                self.make_ready(p);
                preempts |= self.prio_key(p) < releaser_key;
            }
            preempts
        }
    }

    /// Completes a waiter's pending acquire: wake it (the lock is
    /// already assigned) and fix its resume point.
    fn grant_sem(&mut self, s: SemId, w: ThreadId) {
        debug_assert_eq!(
            self.tcbs.get(w).state,
            ThreadState::Blocked(BlockReason::Sem(s))
        );
        self.counters.sem_handed_over += 1;
        self.record(TraceEvent::SemAcquired { tid: w, sem: s });
        if self.tcbs.get(w).blocked_in_acquire {
            // It blocked inside acquire_sem()/cond_wait(): the call
            // returns now.
            let t = self.tcbs.get_mut(w);
            t.blocked_in_acquire = false;
            t.pc += 1;
            // in_syscall already true → exit charged on resume.
        } else {
            // EMERALDS early-PI waiter: its acquire_sem() call is
            // still ahead; mark the grant for it to discover.
            self.tcbs.get_mut(w).granted_sem = Some(s);
        }
        // The caller (release path) reschedules once after the grant.
        self.make_ready(w);
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
            if self.prio_key(donor) >= self.prio_key(holder) {
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
                let mut inherited: Option<emeralds_sim::Time> = None;
                let held = self.tcbs.get(holder).held_sems.clone();
                for h in held {
                    if h == s {
                        continue;
                    }
                    for &w in &self.sems[h.index()].waiters {
                        let d = self.tcbs.get(w).effective_deadline();
                        inherited = Some(inherited.map_or(d, |x: emeralds_sim::Time| x.min(d)));
                    }
                }
                self.tcbs.get_mut(holder).inherited_deadline = inherited;
                self.charge(OverheadKind::PriorityInheritance, self.cfg.cost.pi_dp_fixed);
            }
        }
        self.record(TraceEvent::PriorityRestore { holder });
    }

    /// Priority-ordered insertion into a semaphore wait queue.
    pub(crate) fn enqueue_sem_waiter(&mut self, s: SemId, tid: ThreadId) {
        let key = self.prio_key(tid);
        let keys: Vec<u128> = self.sems[s.index()]
            .waiters
            .iter()
            .map(|&w| self.prio_key(w))
            .collect();
        let pos = keys.iter().position(|&k| k > key).unwrap_or(keys.len());
        self.sems[s.index()].waiters.insert(pos, tid);
    }

    /// The §6.2 decision point: wake the thread, or — when its next
    /// lock target is already held — inherit early and keep it
    /// blocked; when the target is free, admit it to the pre-lock
    /// queue (§6.3.1).
    pub(crate) fn pi_unblock_with_hint(&mut self, tid: ThreadId, hint: Option<SemId>) {
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
                        let key = self.prio_key(tid);
                        let keys: Vec<u128> = self.sems[s.index()]
                            .waiters
                            .iter()
                            .map(|&w| self.prio_key(w))
                            .collect();
                        let waiters = &mut self.sems[s.index()];
                        let pos = keys.iter().position(|&k| k > key).unwrap_or(keys.len());
                        waiters.waiters.insert(pos, tid);
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
