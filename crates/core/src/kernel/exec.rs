//! The kernel execution loop.
//!
//! Deterministic discrete-event interpretation: the running thread's
//! current action executes (splitting computation at the next external
//! occurrence), kernel calls charge their calibrated costs, and every
//! block/unblock invokes the scheduler exactly as §5.1 models it
//! (`t_b`, `t_u`, and a selection per transition).

use emeralds_sim::{OverheadKind, ThreadId, Time, TraceEvent};

use crate::kernel::{Kernel, TimerEvent};
use crate::script::{Action, Operand};
use crate::sync::SemScheme;
use crate::tcb::{BlockReason, Step, ThreadState, Timing};

impl Kernel {
    /// Runs until virtual time reaches `horizon` (or nothing remains
    /// to do).
    pub fn run_until(&mut self, horizon: Time) {
        while self.step(horizon) {}
    }

    /// Cluster-executive entry point: advances this kernel to the
    /// epoch boundary `horizon` exactly as [`Kernel::run_until`]
    /// would, landing the clock at the boundary (idle time is
    /// accounted) so independent nodes stay clock-aligned at barriers.
    ///
    /// Splitting a run into epochs is observably identical to one
    /// `run_until` over the whole span: occurrences due *exactly at* a
    /// boundary are processed at the top of the next epoch, at the
    /// same virtual instant — which is also when a single long run
    /// would process them. The N=1 parity test in
    /// `tests/cluster_determinism.rs` pins this equivalence.
    pub fn advance_to(&mut self, horizon: Time) {
        self.run_until(horizon);
    }

    /// Moves an idle kernel's clock to `to`, adding the span to idle
    /// time: exactly what [`Kernel::advance_to`] does when no thread is
    /// current and no timer or device event falls before `to`. A no-op
    /// when the clock is already at or past `to`. Cluster executives
    /// that already hold that idleness proof use this instead of paying
    /// for `advance_to` to re-derive it. Debug builds assert the
    /// precondition.
    pub fn idle_to(&mut self, to: Time) {
        debug_assert!(
            self.current.is_none() && self.next_external_time().is_none_or(|t| t >= to),
            "idle_to({to:?}) on a kernel with work before it"
        );
        let now = self.clock.now();
        if to > now {
            self.acct.idle += to.since(now);
            self.clock.advance_to(to);
        }
    }

    /// Runs until `horizon` or the first deadline miss; returns true
    /// if a miss occurred.
    pub fn run_until_miss(&mut self, horizon: Time) -> bool {
        while self.total_deadline_misses() == 0 && self.step(horizon) {}
        self.total_deadline_misses() > 0
    }

    /// The earliest pending external occurrence (kernel timer or board
    /// device event). An idle kernel only wakes on a timer or device
    /// event, so with no current thread the pre-state stays inert until
    /// then; [`Kernel::next_action_time`] extends that proof to a
    /// kernel in the middle of a `Compute`.
    pub fn next_external_time(&self) -> Option<Time> {
        match (self.timers.peek_time(), self.board.next_event_time()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The earliest instant at which this kernel can do anything other
    /// than continue its running thread's `Compute`, or `None` when it
    /// never will on its own.
    ///
    /// - With a `Compute` in progress or next at the thread's pc: the
    ///   end of that compute (`now + compute_left`, or the action's
    ///   whole duration if it has not started) or the next timer or
    ///   device event, whichever comes first. A pending syscall-exit
    ///   charge only delays the compute's end, so the value may be
    ///   early, never late.
    /// - With no current thread: [`Kernel::next_external_time`].
    /// - When the thread's next step is any other action, or the end of
    ///   its script: now.
    ///
    /// Until that instant, running the kernel to any horizon only
    /// continues the compute or idles, and a compute split at horizons
    /// resumes from `compute_left` and adds the same app time, so
    /// cluster executives may skip the kernel until then.
    pub fn next_action_time(&self) -> Option<Time> {
        let Some(tid) = self.current else {
            return self.next_external_time();
        };
        let now = self.clock.now();
        let t = self.tcbs.get(tid);
        let Some(&Step {
            action: Action::Compute(d),
            ..
        }) = t.steps.get(t.pc as usize)
        else {
            return Some(now);
        };
        // A compute that has not started has all of `d` left.
        let left = if t.compute_left.is_zero() {
            d
        } else {
            t.compute_left
        };
        let end = now + left;
        Some(self.next_external_time().map_or(end, |e| e.min(end)))
    }

    /// Executes one scheduling quantum. Returns false when the horizon
    /// is reached or no future work exists.
    pub fn step(&mut self, horizon: Time) -> bool {
        if self.clock.now() >= horizon {
            return false;
        }
        self.process_due_external();
        if self.clock.now() >= horizon {
            return false;
        }
        match self.current {
            Some(tid) => {
                self.exec_slice(tid, horizon);
                true
            }
            None => match self.next_external_time() {
                Some(t) if t < horizon => {
                    let now = self.clock.now();
                    let t = t.max(now);
                    self.acct.idle += t.since(now);
                    self.clock.advance_to(t);
                    true // events processed at the top of the next step
                }
                _ => {
                    let now = self.clock.now();
                    self.acct.idle += horizon.since(now);
                    self.clock.advance_to(horizon);
                    false
                }
            },
        }
    }

    /// Delivers every timer/device occurrence due at the current
    /// instant.
    pub(crate) fn process_due_external(&mut self) {
        loop {
            let now = self.clock.now();
            match self.next_external_time() {
                Some(t) if t <= now => {}
                _ => break,
            }
            if self.board.next_event_time().is_some_and(|t| t <= now) {
                // Device events first: they latch interrupts. The
                // raised lines land in a kernel-owned scratch buffer
                // so the steady state allocates nothing. Iterations
                // where only a kernel timer is due (the common case)
                // skip the board entirely: an undue board can raise no
                // line, and every external raise (bus delivery, test
                // harness) services its interrupt at the raise site.
                let mut raised = std::mem::take(&mut self.irq_scratch);
                self.board.advance_to(now, &mut raised);
                for &line in &raised {
                    self.record(TraceEvent::IrqRaised { line });
                }
                raised.clear();
                self.irq_scratch = raised;
                self.service_pending_irqs();
            }
            // Kernel timer expiries: every pop due at this instant is
            // drained in one batch; the external-occurrence minimum is
            // only re-derived once the batch is empty.
            while let Some((_, ev)) = self.timers.pop_due(self.clock.now()) {
                self.timer_expirations += 1;
                self.charge(OverheadKind::Timer, self.cfg.cost.timer_expiry);
                match ev {
                    TimerEvent::Release(tid) => self.release_job(tid),
                    TimerEvent::Wake(tid) => self.complete_blocking_call(tid),
                    TimerEvent::DeadlineCheck(tid, job) => self.check_deadline(tid, job),
                }
            }
        }
    }

    /// Executes (part of) the current thread's next action.
    fn exec_slice(&mut self, tid: ThreadId, horizon: Time) {
        debug_assert!(
            self.tcbs.get(tid).is_ready(),
            "running thread {tid} is not ready"
        );
        // Charge a deferred syscall exit from a blocking call that
        // completed while the thread was switched out.
        if self.tcbs.get(tid).in_syscall {
            self.tcbs.get_mut(tid).in_syscall = false;
            self.charge(OverheadKind::Syscall, self.cfg.cost.syscall_exit);
            return;
        }
        let t = self.tcbs.get(tid);
        let pc = t.pc as usize;
        let Some(&Step { action, .. }) = t.steps.get(pc) else {
            // The builder gives periodic tasks job scripts and
            // event-driven tasks looping ones.
            match t.timing {
                Timing::Periodic { .. } => self.complete_job(tid),
                Timing::EventDriven { .. } => self.tcbs.get_mut(tid).pc = 0,
            }
            return;
        };
        match action {
            Action::Compute(d) => {
                {
                    let t = self.tcbs.get_mut(tid);
                    if t.compute_left.is_zero() {
                        t.compute_left = d;
                    }
                }
                let now = self.clock.now();
                let mut limit = horizon;
                if let Some(t) = self.next_external_time() {
                    limit = limit.min(t.max(now));
                }
                let budget = limit.since(now);
                let left = self.tcbs.get(tid).compute_left;
                let run = left.min(budget);
                if run.is_zero() && left > budget {
                    // An external event is due right now; the loop top
                    // of the next step handles it.
                    self.process_due_external();
                    self.reschedule();
                    return;
                }
                self.clock.advance(run);
                self.acct.app += run;
                {
                    let t = self.tcbs.get_mut(tid);
                    t.cpu_time += run;
                    t.compute_left -= run;
                    if t.compute_left.is_zero() {
                        t.pc += 1;
                    }
                }
                // If we ran up to an event boundary, deliver and maybe
                // preempt.
                if self
                    .next_external_time()
                    .is_some_and(|t| t <= self.clock.now())
                {
                    self.process_due_external();
                }
            }
            Action::AcquireSem(s) => self.sys_acquire_sem(tid, s),
            Action::ReleaseSem(s) => self.sys_release_sem(tid, s),
            Action::CondWait(cv, m) => self.sys_cond_wait(tid, cv, m),
            Action::CondSignal(cv) => self.sys_cond_signal(tid, cv),
            Action::SendMbox { mbox, bytes, tag } => self.sys_mbox_send(tid, mbox, bytes, tag),
            Action::RecvMbox(mb) => self.sys_mbox_recv(tid, mb),
            Action::StateWrite { var, value } => {
                let v = match value {
                    Operand::Const(c) => c,
                    Operand::FromLastRead => self.tcbs.get(tid).last_read,
                };
                self.state_write(tid, var, v);
            }
            Action::StateRead(var) => self.state_read(tid, var),
            Action::SignalEvent(e) => self.sys_event_signal(tid, e),
            Action::WaitEvent(e) => self.sys_event_wait(tid, e),
            Action::WaitIrq(line) => self.sys_wait_irq(tid, line),
            Action::SleepFor(d) => self.sys_sleep(tid, d),
            Action::DevRead(dev) => {
                let v = self.board.device_mut(dev).read_register();
                self.tcbs.get_mut(tid).last_read = v;
                self.tcbs.get_mut(tid).pc += 1;
            }
            Action::DevWrite(dev, op) => {
                let v = match op {
                    Operand::Const(c) => c,
                    Operand::FromLastRead => self.tcbs.get(tid).last_read,
                };
                let now = self.clock.now();
                self.board.device_mut(dev).write_register(now, v);
                self.tcbs.get_mut(tid).pc += 1;
            }
            Action::ReadClock => {
                self.charge(OverheadKind::Syscall, self.cfg.cost.clock_read);
                self.tcbs.get_mut(tid).pc += 1;
            }
        }
    }

    /// Fires at a constrained deadline (D < P): the job must be done.
    pub(crate) fn check_deadline(&mut self, tid: ThreadId, job: u64) {
        let t = self.tcbs.get(tid);
        if t.job == job && !t.job_done && !t.missed_current {
            let dl = t.abs_deadline;
            self.tcbs.get_mut(tid).missed_current = true;
            self.stats[tid.index()].deadline_misses += 1;
            self.note_deadline_miss(tid, job, dl);
        }
    }

    /// End of a periodic pass: record completion and block until the
    /// next release.
    fn complete_job(&mut self, tid: ThreadId) {
        let now = self.clock.now();
        let t = self.tcbs.get_mut(tid);
        t.job_done = true;
        let (job, resp) = (t.job, now.saturating_since(t.job_release));
        let s = &mut self.stats[tid.index()];
        s.jobs_completed += 1;
        s.max_response = s.max_response.max(resp);
        s.response_hist.record(resp);
        self.record(TraceEvent::JobComplete { tid, job });
        self.block_thread(tid, BlockReason::EndOfJob);
        self.reschedule();
    }

    /// A periodic release fires.
    pub(crate) fn release_job(&mut self, tid: ThreadId) {
        let Timing::Periodic {
            period, deadline, ..
        } = self.tcbs.get(tid).timing
        else {
            return;
        };
        // Program the next release.
        {
            let t = self.tcbs.get_mut(tid);
            t.next_release += period;
        }
        let next = self.tcbs.get(tid).next_release;
        self.arm_timer(next, TimerEvent::Release(tid));

        if !self.tcbs.get(tid).job_done {
            // Previous job still incomplete at this release. For
            // D = P this *is* the deadline; for D < P the deadline
            // check already counted it. Either way the late job keeps
            // running and this release is skipped.
            if !self.tcbs.get(tid).missed_current {
                let (job, dl) = {
                    let t = self.tcbs.get_mut(tid);
                    t.missed_current = true;
                    (t.job, t.abs_deadline)
                };
                self.stats[tid.index()].deadline_misses += 1;
                self.note_deadline_miss(tid, job, dl);
            }
            return;
        }
        let now = self.clock.now();
        let job = {
            let t = self.tcbs.get_mut(tid);
            t.job += 1;
            t.job_release = now;
            t.abs_deadline = now + deadline;
            t.job_done = false;
            t.missed_current = false;
            t.dispatched = false;
            t.pc = 0;
            t.compute_left = emeralds_sim::Duration::ZERO;
            t.job
        };
        let dl = self.tcbs.get(tid).abs_deadline;
        if deadline < period {
            // Constrained deadline: schedule an explicit check.
            self.arm_timer(dl, TimerEvent::DeadlineCheck(tid, job));
        }
        self.record(TraceEvent::JobRelease {
            tid,
            job,
            deadline: dl,
        });
        self.complete_blocking_call(tid);
    }

    /// Marks a thread blocked and accounts the scheduler's `t_b`.
    pub(crate) fn block_thread(&mut self, tid: ThreadId, reason: BlockReason) {
        debug_assert!(self.tcbs.get(tid).is_ready(), "double block of {tid}");
        self.tcbs.get_mut(tid).state = ThreadState::Blocked(reason);
        let c = self.sched.on_block(tid, &mut self.tcbs, &self.cfg.cost);
        self.charge(OverheadKind::SchedBlock, c);
        self.record(TraceEvent::Blocked { tid });
    }

    /// Marks a thread ready and accounts the scheduler's `t_u`.
    pub(crate) fn make_ready(&mut self, tid: ThreadId) {
        debug_assert!(!self.tcbs.get(tid).is_ready(), "double unblock of {tid}");
        // Sporadic tasks take an EDF deadline of one inter-arrival
        // time from the waking event.
        if let Timing::EventDriven { rank } = self.tcbs.get(tid).timing {
            let dl = self.clock.now() + rank;
            self.tcbs.get_mut(tid).abs_deadline = dl;
        }
        self.tcbs.get_mut(tid).state = ThreadState::Ready;
        let c = self.sched.on_unblock(tid, &mut self.tcbs, &self.cfg.cost);
        self.charge(OverheadKind::SchedUnblock, c);
        self.record(TraceEvent::Unblocked { tid });
    }

    /// Invokes the scheduler (`t_s`) and dispatches, charging a
    /// context switch when the pick changes.
    pub(crate) fn reschedule(&mut self) {
        let (next, c) = self.sched.select(&self.tcbs, &self.cfg.cost);
        self.charge(OverheadKind::SchedSelect, c);
        if next != self.current {
            self.charge(OverheadKind::ContextSwitch, self.cfg.cost.context_switch);
            self.record(TraceEvent::ContextSwitch {
                from: self.current,
                to: next,
            });
            self.current = next;
            // First dispatch of a job: record its release→run latency.
            if let Some(n) = next {
                let now = self.clock.now();
                let t = self.tcbs.get_mut(n);
                if !t.dispatched {
                    t.dispatched = true;
                    let latency = now.saturating_since(t.job_release);
                    self.stats[n.index()].dispatch_hist.record(latency);
                }
            }
        }
    }

    /// Completes the blocking call a thread was parked in: advances
    /// past the blocking action, then lets the locking protocol decide
    /// whether the thread actually wakes — under PI the §6.2
    /// early-inheritance check on its next-semaphore hint (wake,
    /// inherit early and stay blocked, or join the pre-lock queue),
    /// under SRP the ceiling admission test (wake, or defer until a
    /// ceiling pop).
    pub(crate) fn complete_blocking_call(&mut self, tid: ThreadId) {
        let state = self.tcbs.get(tid).state;
        let hint = match state {
            ThreadState::Ready => return, // spurious wake
            ThreadState::Blocked(BlockReason::EndOfJob) => {
                // Job released: the implicit end-of-job blocking call
                // completes; the hint looks into the new job
                // (precomputed — the script never changes).
                self.tcbs.get(tid).eoj_hint
            }
            ThreadState::Blocked(BlockReason::PreLock(_)) => {
                // Re-released by the semaphore holder; just wake.
                self.make_ready(tid);
                self.reschedule();
                return;
            }
            ThreadState::Blocked(BlockReason::Sem(_)) => {
                // Semaphore grants go through `grant_sem`, never here.
                unreachable!("sem wait completes via grant");
            }
            ThreadState::Blocked(_) => {
                let t = self.tcbs.get_mut(tid);
                let hint = t.steps.get(t.pc as usize).and_then(|s| s.hint);
                t.pc += 1;
                hint
            }
        };
        match self.cfg.sem_scheme {
            SemScheme::Standard | SemScheme::Emeralds => self.pi_wake(tid, hint),
            SemScheme::Srp => self.srp_wake(tid),
        }
    }

    /// Services all deliverable interrupts.
    pub(crate) fn service_pending_irqs(&mut self) {
        while let Some(line) = self.board.intc.pending_highest() {
            self.board.intc.ack(line);
            self.charge(OverheadKind::Interrupt, self.cfg.cost.irq_entry);
            self.handle_irq_line(line);
            self.charge(OverheadKind::Interrupt, self.cfg.cost.irq_exit);
            self.record(TraceEvent::IrqHandled { line });
        }
    }
}
