//! The kernel: configuration, construction, and state.
//!
//! A [`Kernel`] owns the simulated board, the TCB table, one scheduler
//! (EDF / RM / RM-heap / CSD-x), all kernel objects, and the virtual
//! clock. It executes task [`Script`]s deterministically: application
//! computation advances the clock by its stated duration; every kernel
//! operation advances it by the calibrated cost of the queue
//! manipulations the code actually performs. The execution loop lives
//! in `exec`, semaphores and priority inheritance in `sem_ops`, and
//! IPC/interrupts/timers in `ipc_ops`.

mod exec;
mod ipc_ops;
mod metrics;
mod sem_ops;
#[cfg(test)]
mod tests;
mod validate;

pub use metrics::{
    ClusterMetrics, KernelMetrics, MissCause, MissReport, NodeFaultSummary, NodeMetrics,
    ServiceCounters, TaskMetrics, TaskSnapshot, MAX_MISS_REPORTS, MISS_WINDOW,
};
pub use validate::ConfigError;

use std::sync::{Arc, LazyLock};

use emeralds_hal::{Board, Clock, CostModel, Nic, Perms};
use emeralds_sim::{
    Accounting, CvId, Duration, EventId, EventQueue, IrqLine, MboxId, OverheadKind, ProcId, SemId,
    StateId, ThreadId, Time, Trace, TraceEvent,
};

use crate::alloc::PoolSet;
use crate::ipc::{Mailbox, StateMsgVar};
use crate::sched::{SchedPolicy, SchedulerImpl};
use crate::script::{Action, Script, ScriptKind};
use crate::sync::policy::SrpState;
use crate::sync::{CondVar, SemScheme, Semaphore, SrpStats};
use crate::tcb::{TaskStats, Tcb, TcbTable, Timing};

/// Kernel-wide configuration.
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// Scheduler selection (§5).
    pub policy: SchedPolicy,
    /// Locking protocol (§6) — the central ablation switch: the two
    /// priority-inheritance schemes, or SRP/ceiling scheduling as the
    /// classic rival. Under SRP the builder computes static resource
    /// ceilings offline and rejects infeasible graphs (see
    /// [`ConfigError`]).
    pub sem_scheme: SemScheme,
    /// Per-primitive virtual-time prices. Shared: every kernel built
    /// from [`KernelConfig::default`] holds a handle to one process-wide
    /// price list, so thousands of boards read one copy that stays in
    /// cache. A kernel with its own prices takes `model.into()`.
    pub cost: Arc<CostModel>,
    /// Record the full event trace (disable for long experiment runs).
    pub record_trace: bool,
    /// When recording, bound trace storage to the most recent N events
    /// (`None` = unbounded). Counters and deadline-miss forensics stay
    /// exact either way.
    pub trace_ring: Option<usize>,
}

/// The calibrated MC68040 price list every default-configured kernel
/// shares.
static MC68040: LazyLock<Arc<CostModel>> = LazyLock::new(|| Arc::new(CostModel::mc68040_25mhz()));

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            policy: SchedPolicy::Csd {
                boundaries: vec![0],
            },
            sem_scheme: SemScheme::Emeralds,
            cost: Arc::clone(&MC68040),
            record_trace: true,
            trace_ring: None,
        }
    }
}

/// First-level interrupt behaviour registered for a line. Waiters
/// blocked in `WaitIrq` are always woken; the action adds kernel-side
/// signalling for user-level drivers (§3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IrqAction {
    /// Nothing beyond waking `WaitIrq` waiters.
    None,
    /// V a counting semaphore (data-available pattern). A mutex has a
    /// holder an interrupt cannot be, so naming one fails the build.
    ReleaseSem(SemId),
    /// Signal a software event object.
    SignalEvent(EventId),
}

/// One interrupt line's kernel state: the drivers parked on it in
/// `WaitIrq` and its first-level action, side by side because every
/// interrupt on the line reads both.
#[derive(Clone, Debug)]
pub(crate) struct IrqSlot {
    pub(crate) waiters: Vec<ThreadId>,
    pub(crate) action: IrqAction,
}

/// A software event object (binary latch with waiters).
#[derive(Clone, Debug, Default)]
pub struct EventObj {
    pub latched: bool,
    pub waiters: Vec<ThreadId>,
}

/// Kernel-internal timed occurrences.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerEvent {
    /// Periodic job release.
    Release(ThreadId),
    /// `SleepFor` wakeup.
    Wake(ThreadId),
    /// Constrained-deadline check: fires at the absolute deadline of
    /// `job` when the relative deadline is shorter than the period.
    DeadlineCheck(ThreadId, u64),
}

/// The EMERALDS kernel instance.
///
/// Its object tables never grow after build, so each holds exactly the
/// objects the configuration added. The IRQ table holds one slot per
/// line up to the highest line the board wires.
///
/// `repr(C)` keeps the declared order: the fields a frame reception, a
/// wake and a dispatch read come first and share as few cache lines as
/// they can; the tables and bookkeeping those paths never read follow.
#[derive(Debug)]
#[repr(C)]
pub struct Kernel {
    // --- Read on every reception, wake and dispatch ---
    pub(crate) clock: Clock,
    pub(crate) current: Option<ThreadId>,
    pub(crate) cfg: KernelConfig,
    pub(crate) tcbs: TcbTable,
    pub(crate) mboxes: Box<[Mailbox]>,
    pub(crate) sched: SchedulerImpl,
    /// SRP's ceilings, ceiling stack and deferred wakes: `Some` only
    /// under [`SemScheme::Srp`], so a PI kernel pays one pointer.
    pub(crate) srp: Option<Box<SrpState>>,
    pub(crate) irqs: Box<[IrqSlot]>,
    /// The software timer queue (Figure 1: "Timers / Clock services").
    /// `arm_timer` charges a flat `timer_program` per arm, so the
    /// host-side structure cannot move virtual time (DESIGN.md §12).
    pub(crate) timers: EventQueue<TimerEvent>,
    pub(crate) board: Board,
    pub(crate) trace: Trace,
    pub(crate) acct: Accounting,
    pub(crate) counters: ServiceCounters,
    /// The tasks that can touch the bus: bit `i % 64` is set when task
    /// `i`'s script posts to the NIC's TX mailbox, sends into its RX
    /// mailbox (so it can wake a task waiting there) or writes a state
    /// message. Tasks that share a bit are all treated as bus tasks,
    /// which only makes [`Kernel::next_bus_time`] earlier.
    pub(crate) bus_tasks: u64,

    // --- Timer counts, object tables and forensics ---
    /// Timers armed, build-time releases included.
    pub(crate) timer_arms: u64,
    /// Sum of the timer heap's height after each arm: the upper bound
    /// on the comparisons the pushes made.
    pub(crate) timer_heights: u64,
    /// Timers expired.
    pub(crate) timer_expirations: u64,
    /// Per-task statistics, indexed like `tcbs`: kept out of the TCBs
    /// so the dispatch and wake paths do not pull them into cache.
    pub(crate) stats: Box<[TaskStats]>,
    pub(crate) sems: Box<[Semaphore]>,
    pub(crate) cvs: Box<[CondVar]>,
    pub(crate) statemsgs: Box<[StateMsgVar]>,
    pub(crate) events: Box<[EventObj]>,
    /// Reused buffer for the IRQ lines `Board::advance_to` raises —
    /// the steady-state execution loop must not allocate.
    pub(crate) irq_scratch: Vec<IrqLine>,
    pub(crate) miss_reports: Vec<MissReport>,
    /// While set and `now <= until`, deadline misses are classified as
    /// `(cause, until)` instead of by CPU state. Installed by fault
    /// executives around outages.
    pub(crate) miss_cause_hint: Option<(MissCause, Time)>,
    /// `sem_acquire` calls that took the uncontended fast path (free
    /// permit, no waiters, no pre-lock members, no early grant).
    pub(crate) sem_fast_acquires: u64,
}

impl Kernel {
    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.clock.now()
    }

    /// The execution trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The overhead ledger.
    pub fn accounting(&self) -> &Accounting {
        &self.acct
    }

    /// The currently running thread.
    pub fn current(&self) -> Option<ThreadId> {
        self.current
    }

    /// `(scheduler invocations, full queue evaluations)`. Every
    /// invocation evaluates the queues, so both numbers are the
    /// `reschedule` count: each charges one `SchedSelect`. The pair
    /// keeps the shape the repository benchmark reads.
    pub fn dispatch_cache_stats(&self) -> (u64, u64) {
        let selects = self.acct.ops(OverheadKind::SchedSelect);
        (selects, selects)
    }

    /// `sem_acquire` calls that skipped the general-path queue scans
    /// because the semaphore was free and uncontended. Deterministic;
    /// host-side accounting only (virtual charges are identical on
    /// both paths).
    pub fn sem_fast_acquires(&self) -> u64 {
        self.sem_fast_acquires
    }

    /// Timer-queue work counters: `(arms, sum of the heap's height
    /// after each arm, expirations)`. The height sum bounds the
    /// comparisons the arms made.
    pub fn timer_stats(&self) -> (u64, u64, u64) {
        (self.timer_arms, self.timer_heights, self.timer_expirations)
    }

    /// SRP runtime statistics (`None` under the two PI schemes).
    pub fn srp_stats(&self) -> Option<SrpStats> {
        self.srp.as_ref().map(|srp| srp.stats)
    }

    /// TCB inspection (read-only).
    pub fn tcb(&self, tid: ThreadId) -> &Tcb {
        self.tcbs.get(tid)
    }

    /// A task's accumulated statistics: its name, completed jobs,
    /// deadline misses and response/dispatch distributions.
    pub fn task_stats(&self, tid: ThreadId) -> &TaskStats {
        &self.stats[tid.index()]
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.tcbs.len()
    }

    /// Semaphore inspection (read-only).
    pub fn sem(&self, id: SemId) -> &Semaphore {
        &self.sems[id.index()]
    }

    /// Mailbox inspection (read-only).
    pub fn mailbox(&self, id: MboxId) -> &Mailbox {
        &self.mboxes[id.index()]
    }

    /// State-message inspection (read-only).
    pub fn statemsg(&self, id: StateId) -> &StateMsgVar {
        &self.statemsgs[id.index()]
    }

    /// Board inspection (devices, interrupt controller, MPU).
    pub fn board(&self) -> &Board {
        &self.board
    }

    /// Mutable board access (for the fieldbus and test harnesses).
    pub fn board_mut(&mut self) -> &mut Board {
        &mut self.board
    }

    /// Kernel object pools (footprint reporting). Every block is drawn
    /// at build, so each pool holds the length of the table it backs,
    /// the region pool one MPU region per state message, and the timer
    /// pool the blocks reserved for the tasks' timers.
    pub fn pools(&self) -> PoolSet {
        let statemsgs = self.statemsgs.len();
        PoolSet::small_memory([
            self.tcbs.len(),
            self.sems.len(),
            self.cvs.len(),
            self.mboxes.len(),
            statemsgs,
            statemsgs,
            self.tcbs
                .iter()
                .map(|t| timer_blocks(t.timing, t.steps.iter().map(|s| &s.action)))
                .sum(),
        ])
    }

    /// Total deadline misses across all tasks: the misses of every
    /// cause.
    pub fn total_deadline_misses(&self) -> u64 {
        let c = &self.counters;
        c.misses_fault + c.misses_overload + c.misses_unknown
    }

    /// Classifies deadline misses detected at or before `until` as
    /// `cause`. Fault executives install this around injected outages
    /// so the post-recovery miss storm is attributed to the fault, not
    /// to scheduling.
    pub fn set_miss_cause_hint(&mut self, cause: MissCause, until: Time) {
        self.miss_cause_hint = Some((cause, until));
    }

    /// Fail-stop outage: the node executes nothing until `until`. The
    /// lost interval is charged to idle and the clock jumps forward;
    /// the timer backlog then fires late on the next normal step, so
    /// every deadline the outage broke is detected (and tagged
    /// [`MissCause::Fault`] for twice the outage length — long enough
    /// to cover the catch-up storm).
    ///
    /// No-op if `until` is not in the future.
    pub fn stall_for_fault(&mut self, until: Time) {
        let now = self.clock.now();
        if until <= now {
            return;
        }
        let outage = until.since(now);
        self.acct.idle += outage;
        self.clock.advance_to(until);
        self.set_miss_cause_hint(MissCause::Fault, until + outage * 2);
    }

    /// Charges `d` of overhead to `kind`, advancing virtual time.
    pub(crate) fn charge(&mut self, kind: OverheadKind, d: Duration) {
        self.acct.charge(kind, d);
        self.clock.advance(d);
    }

    /// Records a trace event at the current instant. The live service
    /// counters observe every event, even when the trace stores none.
    pub(crate) fn record(&mut self, ev: TraceEvent) {
        self.counters.observe(&ev);
        self.trace.push(self.clock.now(), ev);
    }
}

/// Specification of one task, collected by the builder.
#[derive(Clone, Debug)]
struct TaskSpec {
    proc: ProcId,
    name: String,
    timing: Timing,
    script: Script,
    /// Ordering key for RM priority assignment: the period for
    /// periodic tasks, an explicit rank period for drivers/servers.
    sort_period: Duration,
    /// Ordering key under deadline-monotonic assignment.
    sort_deadline: Duration,
}

/// Timer-pool blocks a task reserves: one per event it can have
/// pending at once — its release, a constrained-deadline check, a
/// `SleepFor` wake.
fn timer_blocks<'a>(timing: Timing, mut actions: impl Iterator<Item = &'a Action>) -> usize {
    let sleeps = actions.any(|a| matches!(a, Action::SleepFor(_)));
    let timed = match timing {
        Timing::Periodic {
            deadline, period, ..
        } => 1 + usize::from(deadline < period),
        Timing::EventDriven { .. } => 0,
    };
    usize::from(sleeps) + timed
}

/// The kernel's bus-task mask ([`Kernel::bus_tasks`]): the tasks whose
/// scripts send into the NIC's mailboxes or write a state message.
fn bus_task_mask(tcbs: &TcbTable, nic: Option<Nic>) -> u64 {
    let mut mask = 0;
    for (i, t) in tcbs.iter().enumerate() {
        let touches = t.steps.iter().any(|s| match s.action {
            Action::SendMbox { mbox, .. } => nic.is_some_and(|n| mbox == n.tx || mbox == n.rx),
            Action::StateWrite { .. } => true,
            _ => false,
        });
        mask |= u64::from(touches) << (i % 64);
    }
    mask
}

impl TaskSpec {
    /// The timer-pool blocks the task reserves.
    fn timer_blocks(&self) -> usize {
        timer_blocks(self.timing, self.script.actions.iter())
    }
}

/// Specification of one state-message variable, collected by the
/// builder: written by a local task, or a networked *replica* owned by
/// a process and fed by the NIC ([`crate::ipc::EXTERNAL_WRITER`]).
#[derive(Clone, Copy, Debug)]
struct StateMsgSpec {
    /// Local writer task index; `None` for a NIC-fed replica.
    writer_idx: Option<usize>,
    /// Owning process for a replica (a local variable lives in its
    /// writer's process, resolved at build time).
    owner: Option<ProcId>,
    size: usize,
    depth: usize,
}

/// Builds a [`Kernel`]: processes, tasks, kernel objects, devices.
#[derive(Debug)]
pub struct KernelBuilder {
    cfg: KernelConfig,
    board: Board,
    /// Processes added: `ProcId`s count up from 0.
    procs: u32,
    tasks: Vec<TaskSpec>,
    sems: Vec<Semaphore>,
    cvs: Vec<CondVar>,
    mbox_caps: Vec<usize>,
    statemsg_specs: Vec<StateMsgSpec>,
    statemsg_readers: Vec<Vec<ProcId>>,
    event_count: usize,
    /// `on_irq` registrations in call order (a later one for the same
    /// line wins).
    irq_actions: Vec<(IrqLine, IrqAction)>,
    next_region_base: u64,
    /// Explicit `next_sem` hint overrides: `(task index, action index,
    /// hint)`. Validated against the parser at build time.
    hint_overrides: Vec<(usize, usize, Option<SemId>)>,
}

impl KernelBuilder {
    /// Starts a build with the given configuration.
    pub fn new(cfg: KernelConfig) -> KernelBuilder {
        KernelBuilder {
            cfg,
            board: Board::new(),
            procs: 0,
            tasks: Vec::new(),
            sems: Vec::new(),
            cvs: Vec::new(),
            mbox_caps: Vec::new(),
            statemsg_specs: Vec::new(),
            statemsg_readers: Vec::new(),
            event_count: 0,
            irq_actions: Vec::new(),
            next_region_base: 0x1_0000,
            hint_overrides: Vec::new(),
        }
    }

    /// Overrides the §6.2.1 parser-computed `next_sem` hint for one
    /// blocking action of `task`. `None` disables early inheritance at
    /// that call; `Some(s)` must name the semaphore the task actually
    /// acquires next (the build rejects anything else — a wrong hint
    /// would corrupt the pre-lock protocol on a real system too).
    pub fn override_hint(&mut self, task: ThreadId, action: usize, hint: Option<SemId>) {
        self.hint_overrides.push((task.index(), action, hint));
    }

    /// Adds a protected process: an MPU domain that tasks run in and
    /// state messages are mapped into. The name documents the caller;
    /// the kernel keeps nothing of it.
    pub fn add_process(&mut self, _name: impl Into<String>) -> ProcId {
        let id = ProcId(self.procs);
        self.procs += 1;
        id
    }

    /// Adds a periodic task (deadline = period, phase 0 unless set via
    /// [`KernelBuilder::add_periodic_task_phased`]).
    pub fn add_periodic_task(
        &mut self,
        proc: ProcId,
        name: impl Into<String>,
        period: Duration,
        script: Script,
    ) -> ThreadId {
        self.add_periodic_task_phased(proc, name, period, period, Duration::ZERO, script)
    }

    /// Adds a periodic task with explicit relative deadline and phase.
    ///
    /// # Panics
    ///
    /// Panics on a zero period, a deadline exceeding the period, or a
    /// non-periodic script kind.
    pub fn add_periodic_task_phased(
        &mut self,
        proc: ProcId,
        name: impl Into<String>,
        period: Duration,
        deadline: Duration,
        phase: Duration,
        script: Script,
    ) -> ThreadId {
        assert!(!period.is_zero(), "zero period");
        assert!(deadline <= period, "deadline beyond period");
        assert_eq!(
            script.kind,
            ScriptKind::PeriodicJob,
            "periodic task needs a job script"
        );
        let id = ThreadId(self.tasks.len() as u32);
        self.tasks.push(TaskSpec {
            proc,
            name: name.into(),
            timing: Timing::Periodic {
                period,
                deadline,
                phase,
            },
            script,
            sort_period: period,
            sort_deadline: deadline,
        });
        id
    }

    /// Adds an event-driven (looping) task — a user-level device
    /// driver or server. `rank_period` positions it in the RM priority
    /// order (treat it like a task of that period).
    pub fn add_driver_task(
        &mut self,
        proc: ProcId,
        name: impl Into<String>,
        rank_period: Duration,
        script: Script,
    ) -> ThreadId {
        assert_eq!(
            script.kind,
            ScriptKind::Looping,
            "driver task needs a looping script"
        );
        let id = ThreadId(self.tasks.len() as u32);
        self.tasks.push(TaskSpec {
            proc,
            name: name.into(),
            timing: Timing::EventDriven { rank: rank_period },
            script,
            sort_period: rank_period,
            sort_deadline: rank_period,
        });
        id
    }

    /// Adds a mutex (binary semaphore with priority inheritance).
    pub fn add_mutex(&mut self) -> SemId {
        let id = SemId(self.sems.len() as u32);
        self.sems.push(Semaphore::mutex(id));
        id
    }

    /// Adds a counting semaphore with `permits` permits, at most that
    /// many available at once. Zero permits fails the build.
    pub fn add_counting_sem(&mut self, permits: u32) -> SemId {
        let id = SemId(self.sems.len() as u32);
        self.sems.push(Semaphore::counting(id, permits));
        id
    }

    /// Adds a condition variable.
    pub fn add_condvar(&mut self) -> CvId {
        let id = CvId(self.cvs.len() as u32);
        self.cvs.push(CondVar::new(id));
        id
    }

    /// Adds a mailbox with the given capacity. Zero fails the build.
    pub fn add_mailbox(&mut self, capacity: usize) -> MboxId {
        let id = MboxId(self.mbox_caps.len() as u32);
        self.mbox_caps.push(capacity);
        id
    }

    /// Wires the board's NIC (§3): a TX mailbox (application → NIC),
    /// then an RX mailbox (NIC → application), then the NIC device on
    /// `irq`, which records both. A bus reads this wiring when the node
    /// joins it; a line beyond the interrupt controller fails the build.
    ///
    /// # Panics
    ///
    /// Panics if the board already has a NIC.
    pub fn add_nic(&mut self, irq: IrqLine, tx_capacity: usize, rx_capacity: usize) -> Nic {
        let nic = Nic {
            tx: self.add_mailbox(tx_capacity),
            rx: self.add_mailbox(rx_capacity),
            irq,
        };
        self.board.add_nic(nic);
        nic
    }

    /// Adds a state-message variable written by `writer`, readable by
    /// the listed processes (the writer's process is always mapped).
    ///
    /// # Panics
    ///
    /// Panics if the writer does not exist or `depth` is below the §7
    /// minimum of [`crate::ipc::MIN_DEPTH`] — shallower buffers are
    /// exactly the tear-prone configuration state messages rule out.
    pub fn add_state_msg(
        &mut self,
        writer: ThreadId,
        size: usize,
        depth: usize,
        reader_procs: &[ProcId],
    ) -> StateId {
        assert!(
            writer.index() < self.tasks.len(),
            "state message writer does not exist"
        );
        self.push_statemsg_spec(Some(writer.index()), None, size, depth, reader_procs)
    }

    /// Adds a *replica* state-message variable owned by `owner` and
    /// written by the NIC (frames arriving over the fieldbus land here
    /// via [`Kernel::external_state_write`], carrying the original
    /// writer's stamp). Local tasks only read it.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is below [`crate::ipc::MIN_DEPTH`].
    pub fn add_state_replica(
        &mut self,
        owner: ProcId,
        size: usize,
        depth: usize,
        reader_procs: &[ProcId],
    ) -> StateId {
        self.push_statemsg_spec(None, Some(owner), size, depth, reader_procs)
    }

    fn push_statemsg_spec(
        &mut self,
        writer_idx: Option<usize>,
        owner: Option<ProcId>,
        size: usize,
        depth: usize,
        reader_procs: &[ProcId],
    ) -> StateId {
        assert!(
            depth >= crate::ipc::MIN_DEPTH,
            "state message depth {depth} below the §7 minimum {}",
            crate::ipc::MIN_DEPTH
        );
        let id = StateId(self.statemsg_specs.len() as u32);
        self.statemsg_specs.push(StateMsgSpec {
            writer_idx,
            owner,
            size,
            depth,
        });
        self.statemsg_readers.push(reader_procs.to_vec());
        id
    }

    /// Adds a software event object.
    pub fn add_event(&mut self) -> EventId {
        let id = EventId(self.event_count as u32);
        self.event_count += 1;
        id
    }

    /// Registers the first-level action for an interrupt line. A line
    /// beyond the interrupt controller, an action naming a semaphore or
    /// event that was never added, or one releasing a mutex, is
    /// rejected at build.
    pub fn on_irq(&mut self, line: IrqLine, action: IrqAction) {
        self.irq_actions.push((line, action));
    }

    /// Mutable board access (to add devices and schedules).
    pub fn board_mut(&mut self) -> &mut Board {
        &mut self.board
    }

    /// Number of tasks added so far.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// The fixed-priority order the configured policy induces:
    /// shortest period first (RM) or shortest relative deadline first
    /// (DM). This is the order a CSD boundary list refers to.
    pub fn rm_order(&self) -> Vec<ThreadId> {
        let by_deadline = matches!(self.cfg.policy, SchedPolicy::DmQueue);
        let mut idx: Vec<usize> = (0..self.tasks.len()).collect();
        idx.sort_by_key(|&i| {
            let s = &self.tasks[i];
            (
                if by_deadline {
                    s.sort_deadline
                } else {
                    s.sort_period
                },
                i,
            )
        });
        idx.into_iter().map(|i| ThreadId(i as u32)).collect()
    }

    /// Finalizes the kernel.
    ///
    /// # Panics
    ///
    /// Panics on any configuration [`try_build`](Self::try_build)
    /// rejects (the panic message is the [`ConfigError`] rendering).
    pub fn build(self) -> Kernel {
        match self.try_build() {
            Ok(k) => k,
            Err(e) => panic!("{e}"),
        }
    }

    /// Finalizes the kernel, returning a typed [`ConfigError`] instead
    /// of panicking on an invalid configuration: CSD boundaries beyond
    /// the task count, counting semaphores without permits, mailboxes
    /// without capacity, tasks, readers or replica owners in unknown
    /// processes, scripts or `on_irq` actions referencing unknown
    /// kernel objects or devices, interrupts releasing a mutex, invalid
    /// `next_sem` hint overrides, interrupt lines beyond the
    /// controller, more objects than a kernel pool holds, and — under
    /// [`SemScheme::Srp`] — infeasible or deadlock-prone resource
    /// graphs.
    pub fn try_build(mut self) -> Result<Kernel, ConfigError> {
        let n = self.tasks.len();
        if let SchedPolicy::Csd { boundaries } = &self.cfg.policy {
            if let Some(&b) = boundaries.iter().find(|&&b| b > n) {
                return Err(ConfigError::CsdBoundary {
                    boundary: b,
                    tasks: n,
                });
            }
        }
        if let Some(s) = self.sems.iter().find(|s| s.max_count == 0) {
            return Err(ConfigError::ZeroPermits { sem: s.id });
        }
        if let Some(i) = self.mbox_caps.iter().position(|&c| c == 0) {
            return Err(ConfigError::ZeroCapacity {
                mbox: MboxId(i as u32),
            });
        }
        self.validate_procs()?;
        self.validate_scripts()?;
        self.validate_hint_overrides()?;
        self.validate_irq_actions()?;
        let irq_lines = self.irq_table_len()?;
        self.check_pools()?;

        // RM priority = rank by sort_period.
        let order = self.rm_order();
        let mut rm_prio = vec![0u32; n];
        for (rank, tid) in order.iter().enumerate() {
            rm_prio[tid.index()] = rank as u32;
        }

        // SRP: static resource ceilings from the task/resource graph,
        // with build-time rejection of infeasible shapes.
        let srp = match self.cfg.sem_scheme {
            SemScheme::Standard | SemScheme::Emeralds => None,
            SemScheme::Srp => Some(Box::new(SrpState::new(self.srp_ceiling_table(&rm_prio)?))),
        };

        let mut tcbs = TcbTable::with_capacity(n);
        let mut stats = Vec::with_capacity(n);
        let mut sched = SchedulerImpl::new(&self.cfg.policy);
        let mut timers = EventQueue::new();
        let mut timer_heights = 0;
        let trace = match (self.cfg.record_trace, self.cfg.trace_ring) {
            (false, _) => Trace::disabled(),
            (true, Some(cap)) => Trace::ring(cap),
            (true, None) => Trace::new(),
        };

        // Specs are consumed, not cloned: hints are computed before
        // the script moves into its TCB.
        for (i, spec) in std::mem::take(&mut self.tasks).into_iter().enumerate() {
            let tid = ThreadId(i as u32);
            let prio = rm_prio[i];
            let queue = self.cfg.policy.queue_of(prio);
            let proc = spec.proc;
            let timing = spec.timing;
            stats.push(TaskStats::new(spec.name));
            let mut tcb = Tcb::new(tid, proc, timing, spec.script, prio, queue);
            for &(ti, ai, h) in &self.hint_overrides {
                if ti == i {
                    tcb.steps[ai].hint = h;
                }
            }
            match timing {
                Timing::Periodic { phase, .. } => {
                    tcb.next_release = Time::ZERO + phase;
                    // Boot-time programming: counted, not charged.
                    timers.push(tcb.next_release, TimerEvent::Release(tid));
                    timer_heights += u64::from(timers.len().ilog2());
                }
                Timing::EventDriven { rank } => {
                    // First sporadic activation: one inter-arrival
                    // time from boot.
                    tcb.abs_deadline = Time::ZERO + rank;
                }
            }
            tcbs.insert(tcb);
        }
        // Register with the scheduler in RM order (the FP queue builds
        // sorted).
        for tid in &order {
            sched.add_task(*tid, &mut tcbs);
        }

        let mboxes = self
            .mbox_caps
            .iter()
            .enumerate()
            .map(|(i, &cap)| Mailbox::new(MboxId(i as u32), cap))
            .collect();

        // State messages get MPU-backed shared regions.
        let mut statemsgs = Vec::with_capacity(self.statemsg_specs.len());
        for (i, &spec) in self.statemsg_specs.iter().enumerate() {
            let StateMsgSpec {
                writer_idx,
                owner,
                size,
                depth,
            } = spec;
            let writer = match writer_idx {
                Some(idx) => ThreadId(idx as u32),
                None => crate::ipc::EXTERNAL_WRITER,
            };
            let writer_proc = match writer_idx {
                Some(idx) => tcbs.get(ThreadId(idx as u32)).proc,
                None => owner.expect("replica spec carries its owner"),
            };
            let bytes = (size * depth + 16) as u64;
            let base = self.next_region_base;
            self.next_region_base = base + bytes.next_multiple_of(0x100);
            let rid = self
                .board
                .mpu
                .add_region(writer_proc, base, bytes, Perms::RW);
            for &p in &self.statemsg_readers[i] {
                self.board.mpu.share(rid, p);
            }
            statemsgs.push(StateMsgVar::new(
                StateId(i as u32),
                writer,
                rid,
                size,
                depth,
            ));
        }

        let idle_line = IrqSlot {
            waiters: Vec::new(),
            action: IrqAction::None,
        };
        let bus_tasks = bus_task_mask(&tcbs, self.board.nic());
        let mut irqs = vec![idle_line; irq_lines];
        for &(line, action) in &self.irq_actions {
            irqs[line.index()].action = action;
        }
        let mut kernel = Kernel {
            cfg: self.cfg,
            clock: Clock::new(),
            board: self.board,
            tcbs,
            stats: stats.into_boxed_slice(),
            sched,
            sems: self.sems.into_boxed_slice(),
            cvs: self.cvs.into_boxed_slice(),
            mboxes,
            statemsgs: statemsgs.into_boxed_slice(),
            events: (0..self.event_count).map(|_| EventObj::default()).collect(),
            irqs: irqs.into_boxed_slice(),
            timer_arms: timers.len() as u64,
            timers,
            timer_heights,
            timer_expirations: 0,
            irq_scratch: Vec::new(),
            current: None,
            trace,
            acct: Accounting::new(),
            counters: ServiceCounters::default(),
            bus_tasks,
            miss_reports: Vec::new(),
            miss_cause_hint: None,
            sem_fast_acquires: 0,
            srp,
        };
        // Event-driven tasks are ready at boot: dispatch one.
        kernel.reschedule();
        Ok(kernel)
    }
}
