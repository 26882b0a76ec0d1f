//! Typed configuration validation for [`KernelBuilder`].
//!
//! Everything here runs at *configuration time*, before a kernel
//! exists: a rejected build costs a [`ConfigError`], never a
//! half-constructed kernel. [`KernelBuilder::try_build`] surfaces the
//! error; [`KernelBuilder::build`] panics with its rendering for
//! callers that treat misconfiguration as a program bug.
//!
//! The same pass sizes what the kernel reserves: its IRQ tables end at
//! the highest line the board wires, and every kernel pool must hold
//! the objects the configuration draws from it.
//!
//! Under [`SemScheme::Srp`] the checks extend to the task/resource
//! graph: resource ceilings only exist for graphs where critical
//! sections are properly nested, never span a blocking call or a job
//! boundary, and the lock order is acyclic. The graph analysis itself
//! lives offline in `emeralds_sched` ([`srp_ceilings`]); this module
//! maps scripts into [`SrpTaskProfile`]s and the analysis verdict into
//! [`ConfigError::SrpGraph`].

use emeralds_hal::irq::MAX_IRQ_LINES;
use emeralds_sched::{srp_ceilings, SrpEvent, SrpGraphError, SrpTaskProfile};
use emeralds_sim::{CvId, DevId, EventId, IrqLine, MboxId, ProcId, SemId, StateId, ThreadId};

use crate::alloc::PoolSet;
use crate::kernel::{IrqAction, KernelBuilder, TaskSpec};
use crate::parser;
use crate::script::Action;
use crate::sync::SemScheme;

/// A configuration the builder refuses to turn into a kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A CSD partition boundary points past the last task.
    CsdBoundary {
        /// The offending boundary (a task-count prefix length).
        boundary: usize,
        /// How many tasks the configuration actually has.
        tasks: usize,
    },
    /// A counting semaphore was added with no permits: it could never
    /// be taken, and releasing it would exceed its maximum.
    ZeroPermits { sem: SemId },
    /// A mailbox was added with no capacity: it would be full and
    /// empty at once, which the blocking protocol rules out.
    ZeroCapacity { mbox: MboxId },
    /// A task, a state-message reader list or a replica owner names a
    /// process that was never added.
    UnknownProcess { proc: ProcId },
    /// A script action references a semaphore that was never added.
    UnknownSemaphore {
        task: ThreadId,
        /// Index of the offending action in the task's script.
        action: usize,
        sem: SemId,
    },
    /// A script action references a condition variable that was never
    /// added.
    UnknownCondVar {
        task: ThreadId,
        action: usize,
        cv: CvId,
    },
    /// A script action references a mailbox that was never added.
    UnknownMailbox {
        task: ThreadId,
        action: usize,
        mbox: MboxId,
    },
    /// A script action references a state message that was never
    /// added.
    UnknownStateMsg {
        task: ThreadId,
        action: usize,
        var: StateId,
    },
    /// A script action references a software event that was never
    /// added.
    UnknownEvent {
        task: ThreadId,
        action: usize,
        event: EventId,
    },
    /// A script action references a device the board does not have.
    UnknownDevice {
        task: ThreadId,
        action: usize,
        dev: DevId,
    },
    /// A hint override targets a missing action, or one that is not a
    /// hint-carrying blocking call.
    InvalidHintTarget { task: ThreadId, action: usize },
    /// A `next_sem` hint override names a semaphore the task does not
    /// acquire next after that call — on a real system such a hint
    /// would early-inherit (and pre-lock-queue) a lock the task is not
    /// about to take.
    InvalidHint {
        task: ThreadId,
        action: usize,
        /// What the override claimed.
        hinted: SemId,
        /// What the §6.2.1 parser computes for that call (`None`: the
        /// next blocking call is not an `acquire_sem`).
        expected: Option<SemId>,
    },
    /// SRP admits only mutexes: a counting semaphore has no single
    /// holder, so no resource ceiling is sound for it.
    SrpCountingSem {
        task: ThreadId,
        action: usize,
        sem: SemId,
    },
    /// SRP forbids condition variables: `cond_wait` blocks while
    /// holding the guard, which breaks the no-blocking-inside-a-
    /// critical-section premise of the ceiling analysis.
    SrpCondVar { task: ThreadId, action: usize },
    /// A device, an `on_irq` registration or a `WaitIrq` action names
    /// a line the interrupt controller does not have.
    IrqLineOutOfRange { line: IrqLine },
    /// An `on_irq` action releases a semaphore that was never added.
    UnknownIrqSemaphore { line: IrqLine, sem: SemId },
    /// An `on_irq` action releases a mutex: only its holder may, and
    /// an interrupt holds nothing.
    IrqReleasesMutex { line: IrqLine, sem: SemId },
    /// An `on_irq` action signals a software event that was never
    /// added.
    UnknownIrqEvent { line: IrqLine, event: EventId },
    /// The configuration draws more objects from a kernel pool than
    /// the pool holds.
    PoolExhausted {
        pool: &'static str,
        capacity: usize,
        needed: usize,
    },
    /// The task/resource graph itself is infeasible under SRP
    /// (lock-order cycle, non-LIFO nesting, blocking while holding,
    /// section left open at job end, ...).
    SrpGraph(SrpGraphError),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::CsdBoundary { boundary, tasks } => write!(
                f,
                "CSD boundary beyond task count: boundary {boundary} with {tasks} task(s)"
            ),
            ConfigError::ZeroPermits { sem } => {
                write!(f, "counting semaphore {sem} has no permits")
            }
            ConfigError::ZeroCapacity { mbox } => write!(f, "mailbox {mbox} has no capacity"),
            ConfigError::UnknownProcess { proc } => write!(f, "unknown process {proc}"),
            ConfigError::UnknownSemaphore { task, action, sem } => write!(
                f,
                "task {task} action {action} references unknown semaphore {sem}"
            ),
            ConfigError::UnknownCondVar { task, action, cv } => write!(
                f,
                "task {task} action {action} references unknown condition variable {cv}"
            ),
            ConfigError::UnknownMailbox { task, action, mbox } => write!(
                f,
                "task {task} action {action} references unknown mailbox {mbox}"
            ),
            ConfigError::UnknownStateMsg { task, action, var } => write!(
                f,
                "task {task} action {action} references unknown state message {var}"
            ),
            ConfigError::UnknownEvent {
                task,
                action,
                event,
            } => write!(
                f,
                "task {task} action {action} references unknown event {event}"
            ),
            ConfigError::UnknownDevice { task, action, dev } => write!(
                f,
                "task {task} action {action} references unknown device {dev}"
            ),
            ConfigError::InvalidHintTarget { task, action } => write!(
                f,
                "hint override targets task {task} action {action}, which is not a \
                 hint-carrying blocking call"
            ),
            ConfigError::InvalidHint {
                task,
                action,
                hinted,
                expected,
            } => {
                write!(
                    f,
                    "task {task} action {action}: next_sem hint names {hinted}, but "
                )?;
                match expected {
                    Some(e) => write!(f, "the task's next acquire after that call is {e}"),
                    None => write!(
                        f,
                        "the task never acquires a semaphore before its next blocking call"
                    ),
                }
            }
            ConfigError::SrpCountingSem { task, action, sem } => write!(
                f,
                "SRP: task {task} action {action} uses counting semaphore {sem}; \
                 ceilings are only defined for mutexes"
            ),
            ConfigError::SrpCondVar { task, action } => write!(
                f,
                "SRP: task {task} action {action} uses a condition variable, which \
                 blocks while holding its guard"
            ),
            ConfigError::IrqLineOutOfRange { line } => write!(
                f,
                "IRQ line {line} is beyond the interrupt controller's {MAX_IRQ_LINES} lines"
            ),
            ConfigError::UnknownIrqSemaphore { line, sem } => {
                write!(f, "the {line} action releases unknown semaphore {sem}")
            }
            ConfigError::IrqReleasesMutex { line, sem } => write!(
                f,
                "the {line} action releases mutex {sem}; interrupts may release only \
                 counting semaphores"
            ),
            ConfigError::UnknownIrqEvent { line, event } => {
                write!(f, "the {line} action signals unknown event {event}")
            }
            ConfigError::PoolExhausted {
                pool,
                capacity,
                needed,
            } => write!(
                f,
                "kernel pool '{pool}' exhausted: {needed} blocks needed, {capacity} held"
            ),
            ConfigError::SrpGraph(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<SrpGraphError> for ConfigError {
    fn from(e: SrpGraphError) -> ConfigError {
        ConfigError::SrpGraph(e)
    }
}

impl KernelBuilder {
    /// Checks that every task runs in, every state message is read
    /// from, and every replica is owned by a process that was added.
    pub(super) fn validate_procs(&self) -> Result<(), ConfigError> {
        let named = self
            .tasks
            .iter()
            .map(|t| t.proc)
            .chain(self.statemsg_specs.iter().filter_map(|s| s.owner))
            .chain(self.statemsg_readers.iter().flatten().copied());
        for proc in named {
            if proc.0 >= self.procs {
                return Err(ConfigError::UnknownProcess { proc });
            }
        }
        Ok(())
    }

    /// Checks every script action against the kernel objects and board
    /// devices that were actually added, and — under SRP — against the
    /// primitives the ceiling analysis can model.
    pub(super) fn validate_scripts(&self) -> Result<(), ConfigError> {
        let srp = self.cfg.sem_scheme == SemScheme::Srp;
        for (i, spec) in self.tasks.iter().enumerate() {
            let task = ThreadId(i as u32);
            for (action, a) in spec.script.actions.iter().enumerate() {
                match a {
                    Action::AcquireSem(s) | Action::ReleaseSem(s) => {
                        self.check_sem(task, action, *s, srp)?;
                    }
                    Action::CondWait(cv, guard) => {
                        self.check_sem(task, action, *guard, false)?;
                        self.check_cv(task, action, *cv)?;
                        if srp {
                            return Err(ConfigError::SrpCondVar { task, action });
                        }
                    }
                    Action::CondSignal(cv) => {
                        self.check_cv(task, action, *cv)?;
                        if srp {
                            return Err(ConfigError::SrpCondVar { task, action });
                        }
                    }
                    &Action::SendMbox { mbox, .. } | &Action::RecvMbox(mbox)
                        if mbox.index() >= self.mbox_caps.len() =>
                    {
                        return Err(ConfigError::UnknownMailbox { task, action, mbox });
                    }
                    &Action::StateWrite { var, .. } | &Action::StateRead(var)
                        if var.index() >= self.statemsg_specs.len() =>
                    {
                        return Err(ConfigError::UnknownStateMsg { task, action, var });
                    }
                    &Action::SignalEvent(event) | &Action::WaitEvent(event)
                        if event.index() >= self.event_count =>
                    {
                        return Err(ConfigError::UnknownEvent {
                            task,
                            action,
                            event,
                        });
                    }
                    &Action::DevRead(dev) | &Action::DevWrite(dev, _)
                        if dev.index() >= self.board.device_count() =>
                    {
                        return Err(ConfigError::UnknownDevice { task, action, dev });
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    fn check_sem(
        &self,
        task: ThreadId,
        action: usize,
        sem: SemId,
        srp: bool,
    ) -> Result<(), ConfigError> {
        let Some(s) = self.sems.get(sem.index()) else {
            return Err(ConfigError::UnknownSemaphore { task, action, sem });
        };
        if srp && !s.is_mutex() {
            return Err(ConfigError::SrpCountingSem { task, action, sem });
        }
        Ok(())
    }

    fn check_cv(&self, task: ThreadId, action: usize, cv: CvId) -> Result<(), ConfigError> {
        if cv.index() >= self.cvs.len() {
            return Err(ConfigError::UnknownCondVar { task, action, cv });
        }
        Ok(())
    }

    /// Checks explicit `next_sem` hint overrides against the §6.2.1
    /// parser: an override must target a hint-carrying blocking call
    /// and either disable the hint (`None`) or agree with the
    /// semaphore the task acquires next. Anything else is the
    /// configuration bug the parser exists to prevent.
    pub(super) fn validate_hint_overrides(&self) -> Result<(), ConfigError> {
        for &(ti, action, hint) in &self.hint_overrides {
            let task = ThreadId(ti as u32);
            let Some(spec) = self.tasks.get(ti) else {
                return Err(ConfigError::InvalidHintTarget { task, action });
            };
            let target_ok = spec
                .script
                .actions
                .get(action)
                .is_some_and(|a| a.is_hintable_block());
            if !target_ok {
                return Err(ConfigError::InvalidHintTarget { task, action });
            }
            if let Some(hinted) = hint {
                if hinted.index() >= self.sems.len() {
                    return Err(ConfigError::UnknownSemaphore {
                        task,
                        action,
                        sem: hinted,
                    });
                }
                let expected = parser::compute_hints(&spec.script)[action];
                if expected != Some(hinted) {
                    return Err(ConfigError::InvalidHint {
                        task,
                        action,
                        hinted,
                        expected,
                    });
                }
            }
        }
        Ok(())
    }

    /// Checks every `on_irq` action against the semaphores and events
    /// that were actually added, so none indexes past its table at the
    /// line's first interrupt, and admits only counting semaphores to
    /// an interrupt's release.
    pub(super) fn validate_irq_actions(&self) -> Result<(), ConfigError> {
        for &(line, action) in &self.irq_actions {
            match action {
                IrqAction::ReleaseSem(sem) => match self.sems.get(sem.index()) {
                    None => return Err(ConfigError::UnknownIrqSemaphore { line, sem }),
                    Some(s) if s.is_mutex() => {
                        return Err(ConfigError::IrqReleasesMutex { line, sem });
                    }
                    Some(_) => {}
                },
                IrqAction::SignalEvent(event) if event.index() >= self.event_count => {
                    return Err(ConfigError::UnknownIrqEvent { line, event });
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The length of the kernel's IRQ tables: one entry per line up to
    /// the highest line the board wires — its devices, its `on_irq`
    /// registrations and its scripts' `WaitIrq` actions. A line beyond
    /// the interrupt controller is rejected before it can index a
    /// table or latch a pending bit.
    pub(super) fn irq_table_len(&self) -> Result<usize, ConfigError> {
        let registered = self.irq_actions.iter().map(|&(line, _)| line);
        let awaited = self
            .tasks
            .iter()
            .flat_map(|t| &t.script.actions)
            .filter_map(|a| match a {
                Action::WaitIrq(line) => Some(*line),
                _ => None,
            });
        let mut len = 0;
        for line in self.board.irq_lines().chain(registered).chain(awaited) {
            if line.index() >= MAX_IRQ_LINES {
                return Err(ConfigError::IrqLineOutOfRange { line });
            }
            len = len.max(line.index() + 1);
        }
        Ok(len)
    }

    /// Checks that every kernel pool holds the objects the
    /// configuration draws from it.
    pub(super) fn check_pools(&self) -> Result<(), ConfigError> {
        let timer_blocks = self.tasks.iter().map(TaskSpec::timer_blocks).sum();
        let statemsgs = self.statemsg_specs.len();
        let pools = PoolSet::small_memory([
            self.tasks.len(),
            self.sems.len(),
            self.cvs.len(),
            self.mbox_caps.len(),
            statemsgs,
            statemsgs,
            timer_blocks,
        ]);
        match pools.overdrawn() {
            Some(p) => Err(ConfigError::PoolExhausted {
                pool: p.name,
                capacity: p.capacity,
                needed: p.high_water(),
            }),
            None => Ok(()),
        }
    }

    /// Maps the scripts into per-task SRP profiles (preemption level =
    /// RM/DM rank; acquire/release/block event streams) and runs the
    /// offline ceiling analysis.
    pub(super) fn srp_ceiling_table(
        &self,
        rm_prio: &[u32],
    ) -> Result<Vec<Option<u32>>, ConfigError> {
        let profiles: Vec<SrpTaskProfile> = self
            .tasks
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let events = spec
                    .script
                    .actions
                    .iter()
                    .filter_map(|a| match a {
                        Action::AcquireSem(s) => Some(SrpEvent::Acquire(s.index())),
                        Action::ReleaseSem(s) => Some(SrpEvent::Release(s.index())),
                        a if a.can_block() => Some(SrpEvent::Block),
                        _ => None,
                    })
                    .collect();
                SrpTaskProfile {
                    level: rm_prio[i],
                    events,
                }
            })
            .collect();
        Ok(srp_ceilings(self.sems.len(), &profiles)?)
    }
}
