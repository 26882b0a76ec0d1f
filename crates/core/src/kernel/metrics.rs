//! Kernel observability: per-service counters, metrics snapshots, and
//! deadline-miss forensics.
//!
//! The paper evaluates EMERALDS by counting what the kernel *does* —
//! context switches avoided (Figures 6–10), semaphore-path operations
//! (Figure 11), state-message copies (§7) — so the reproduction keeps
//! those counts as first-class kernel state. [`ServiceCounters`] is
//! updated on every recorded [`TraceEvent`] (even when trace storage is
//! disabled or bounded), [`Kernel::metrics`] snapshots them together
//! with per-task timing histograms, and a [`MissReport`] captures the
//! last-K event window plus the ready-queue state whenever a deadline
//! is missed, so a failing test prints *why*.

use std::sync::Arc;

use emeralds_sim::{Duration, DurationHistogram, SyscallKind, ThreadId, Time, TraceEvent};

use crate::kernel::Kernel;
use crate::tcb::{ThreadState, Timing};

/// Bound on retained [`MissReport`]s: forensics must not turn into an
/// unbounded log on a pathological workload.
pub const MAX_MISS_REPORTS: usize = 8;

/// Trailing trace events a [`MissReport`] captures, the miss included.
pub const MISS_WINDOW: usize = 32;

/// Why a deadline was missed, as far as the kernel can tell. Fault
/// injection (fail-stop outages, bus-off windows) is tagged by the
/// executive via [`Kernel::set_miss_cause_hint`]; absent a hint the
/// kernel classifies from its own state at detection time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MissCause {
    /// An injected or external fault (node outage, lost bus) — the
    /// executive vouched for this via the hint window.
    Fault,
    /// The CPU was busy running work at detection: a scheduling
    /// overrun, not a fault.
    Overload,
    /// The CPU was idle at detection (the task was blocked on
    /// something that never arrived) and no fault was hinted.
    Unknown,
}

impl MissCause {
    /// Stable lowercase label for reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            MissCause::Fault => "fault",
            MissCause::Overload => "overload",
            MissCause::Unknown => "unknown",
        }
    }
}

/// Live event counters, one per kernel service. Updated by the
/// kernel's `record` on every event, independent of whether the trace
/// stores it, so they are exact for arbitrarily long runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    // --- System calls by kind ---
    pub sys_acquire_sem: u64,
    pub sys_release_sem: u64,
    pub sys_cond_wait: u64,
    pub sys_cond_signal: u64,
    pub sys_mbox_send: u64,
    pub sys_mbox_recv: u64,
    pub sys_event_signal: u64,
    pub sys_event_wait: u64,
    pub sys_wait_irq: u64,
    pub sys_sleep: u64,

    // --- Semaphore path ---
    /// Successful acquisitions (uncontended + handed over).
    pub sem_acquired: u64,
    /// Acquires that found the semaphore held and blocked.
    pub sem_contended: u64,
    /// Grants made directly to a blocked waiter (lock passing); bumped
    /// explicitly by the grant paths, not derived from the trace.
    pub sem_handed_over: u64,
    pub sem_released: u64,
    /// §6.2 early inheritance performed at the preceding blocking call.
    pub early_inherits: u64,
    /// §6.3.1 pre-lock queue admissions.
    pub prelock_admits: u64,
    /// §6.3.1 pre-lock members parked because a peer took the lock.
    pub prelock_blocks: u64,
    pub priority_inherits: u64,
    pub priority_restores: u64,
    /// SRP policy: entries pushed on the system-ceiling stack.
    pub ceiling_pushes: u64,
    /// SRP policy: entries popped off the system-ceiling stack.
    pub ceiling_pops: u64,
    /// SRP policy: job starts deferred by the system ceiling — the
    /// protocol's entire blocking, concentrated before the job runs.
    pub ceiling_defers: u64,
    /// SRP policy: deferred tasks admitted after a ceiling pop.
    pub ceiling_admits: u64,

    // --- IPC ---
    pub mbox_sends: u64,
    pub mbox_recvs: u64,
    pub statemsg_writes: u64,
    pub statemsg_reads: u64,
    /// Reader restarts due to a writer wrapping the buffer mid-read.
    /// Structurally zero in-kernel: buffers are sized by
    /// [`crate::ipc::required_depth`], which is the §7 guarantee this
    /// counter exists to check.
    pub statemsg_retries: u64,

    // --- Interrupts / protection ---
    pub irq_raised: u64,
    pub irq_dispatched: u64,
    /// Software events an interrupt's first-level action signalled.
    /// Not system calls: `event_signals` adds them to the
    /// `event_signal` calls.
    pub irq_event_signals: u64,
    pub protection_faults: u64,

    // --- Deadline misses by cause ---
    /// Misses inside an executive-hinted fault window.
    pub misses_fault: u64,
    /// Misses with the CPU busy at detection (scheduling overrun).
    pub misses_overload: u64,
    /// Misses with no hint and an idle CPU.
    pub misses_unknown: u64,
}

impl ServiceCounters {
    /// Folds one recorded event into the counters.
    pub fn observe(&mut self, e: &TraceEvent) {
        match e {
            TraceEvent::Syscall { name, .. } => match name {
                SyscallKind::AcquireSem => self.sys_acquire_sem += 1,
                SyscallKind::ReleaseSem => self.sys_release_sem += 1,
                SyscallKind::CondWait => self.sys_cond_wait += 1,
                SyscallKind::CondSignal => self.sys_cond_signal += 1,
                SyscallKind::MboxSend => self.sys_mbox_send += 1,
                SyscallKind::MboxRecv => self.sys_mbox_recv += 1,
                SyscallKind::EventSignal => self.sys_event_signal += 1,
                SyscallKind::EventWait => self.sys_event_wait += 1,
                SyscallKind::WaitIrq => self.sys_wait_irq += 1,
                SyscallKind::Sleep => self.sys_sleep += 1,
            },
            TraceEvent::SemAcquired { .. } => self.sem_acquired += 1,
            TraceEvent::SemBlocked { .. } => self.sem_contended += 1,
            TraceEvent::SemReleased { .. } => self.sem_released += 1,
            TraceEvent::EarlyInherit { .. } => self.early_inherits += 1,
            TraceEvent::PreLockAdmit { .. } => self.prelock_admits += 1,
            TraceEvent::PreLockBlock { .. } => self.prelock_blocks += 1,
            TraceEvent::PriorityInherit { .. } => self.priority_inherits += 1,
            TraceEvent::PriorityRestore { .. } => self.priority_restores += 1,
            TraceEvent::CeilingPush { .. } => self.ceiling_pushes += 1,
            TraceEvent::CeilingPop { .. } => self.ceiling_pops += 1,
            TraceEvent::CeilingDefer { .. } => self.ceiling_defers += 1,
            TraceEvent::CeilingAdmit { .. } => self.ceiling_admits += 1,
            TraceEvent::MboxSend { .. } => self.mbox_sends += 1,
            TraceEvent::MboxRecv { .. } => self.mbox_recvs += 1,
            TraceEvent::StateWrite { .. } => self.statemsg_writes += 1,
            TraceEvent::StateRead { .. } => self.statemsg_reads += 1,
            TraceEvent::IrqRaised { .. } => self.irq_raised += 1,
            TraceEvent::IrqHandled { .. } => self.irq_dispatched += 1,
            TraceEvent::IrqEventSignal { .. } => self.irq_event_signals += 1,
            TraceEvent::ProtectionFault { .. } => self.protection_faults += 1,
            _ => {}
        }
    }

    /// Total system calls across all kinds.
    pub fn syscall_total(&self) -> u64 {
        self.sys_acquire_sem
            + self.sys_release_sem
            + self.sys_cond_wait
            + self.sys_cond_signal
            + self.sys_mbox_send
            + self.sys_mbox_recv
            + self.sys_event_signal
            + self.sys_event_wait
            + self.sys_wait_irq
            + self.sys_sleep
    }

    /// Acquisitions that succeeded without a prior grant: total
    /// acquired minus the hand-overs.
    pub fn sem_uncontended(&self) -> u64 {
        self.sem_acquired - self.sem_handed_over
    }

    /// Named `(label, value)` pairs, in a stable order, for rendering
    /// and serialization. Each condition wait and condition signal is
    /// one system call, so `cv_waits` and `cv_signals` print those
    /// syscall counts; `event_signals` adds the events interrupts
    /// signalled to the `event_signal` calls. Every recorded syscall
    /// has one of the ten kinds, so `sys_other` always prints 0.
    pub fn entries(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("sys_acquire_sem", self.sys_acquire_sem),
            ("sys_release_sem", self.sys_release_sem),
            ("sys_cond_wait", self.sys_cond_wait),
            ("sys_cond_signal", self.sys_cond_signal),
            ("sys_mbox_send", self.sys_mbox_send),
            ("sys_mbox_recv", self.sys_mbox_recv),
            ("sys_event_signal", self.sys_event_signal),
            ("sys_event_wait", self.sys_event_wait),
            ("sys_wait_irq", self.sys_wait_irq),
            ("sys_sleep", self.sys_sleep),
            ("sys_other", 0),
            ("sem_acquired", self.sem_acquired),
            ("sem_uncontended", self.sem_uncontended()),
            ("sem_contended", self.sem_contended),
            ("sem_handed_over", self.sem_handed_over),
            ("sem_released", self.sem_released),
            ("early_inherits", self.early_inherits),
            ("prelock_admits", self.prelock_admits),
            ("prelock_blocks", self.prelock_blocks),
            ("priority_inherits", self.priority_inherits),
            ("priority_restores", self.priority_restores),
            ("ceiling_pushes", self.ceiling_pushes),
            ("ceiling_pops", self.ceiling_pops),
            ("ceiling_defers", self.ceiling_defers),
            ("ceiling_admits", self.ceiling_admits),
            ("mbox_sends", self.mbox_sends),
            ("mbox_recvs", self.mbox_recvs),
            ("statemsg_writes", self.statemsg_writes),
            ("statemsg_reads", self.statemsg_reads),
            ("statemsg_retries", self.statemsg_retries),
            ("cv_waits", self.sys_cond_wait),
            ("cv_signals", self.sys_cond_signal),
            (
                "event_signals",
                self.sys_event_signal + self.irq_event_signals,
            ),
            ("irq_raised", self.irq_raised),
            ("irq_dispatched", self.irq_dispatched),
            ("protection_faults", self.protection_faults),
            ("misses_fault", self.misses_fault),
            ("misses_overload", self.misses_overload),
            ("misses_unknown", self.misses_unknown),
        ]
    }
}

/// Per-task slice of a metrics snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskMetrics {
    pub tid: ThreadId,
    pub name: Arc<str>,
    pub jobs_completed: u64,
    pub deadline_misses: u64,
    pub cpu_time: Duration,
    /// Worst release→completion response.
    pub max_response: Duration,
    pub mean_response: Duration,
    /// Upper bound on the 99th-percentile response.
    pub p99_response: Duration,
    /// Worst release→first-dispatch latency.
    pub max_dispatch_latency: Duration,
    pub mean_dispatch_latency: Duration,
}

/// A point-in-time snapshot of everything the kernel counts.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelMetrics {
    pub now: Time,
    pub context_switches: u64,
    pub deadline_misses: u64,
    /// CPU time spent in application computation.
    pub app_time: Duration,
    /// CPU time spent idle.
    pub idle_time: Duration,
    /// CPU time spent in kernel paths (all overhead kinds).
    pub total_overhead: Duration,
    pub counters: ServiceCounters,
    pub tasks: Vec<TaskMetrics>,
    /// Events the trace saw but no longer stores (ring eviction or
    /// disabled recording).
    pub trace_dropped: u64,
    /// End-to-end state-message data age across every variable on this
    /// kernel: at each consistent read, the read instant minus the
    /// version's *original* writer stamp (which travels with networked
    /// replicas). Empty when no state messages are read.
    pub state_age: DurationHistogram,
}

impl KernelMetrics {
    /// Renders the snapshot as a human-readable report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "kernel metrics @ {} | ctxsw {} | misses {} | app {} | overhead {} | idle {}\n",
            self.now,
            self.context_switches,
            self.deadline_misses,
            self.app_time,
            self.total_overhead,
            self.idle_time
        ));
        s.push_str("service counters:\n");
        for (label, v) in self.counters.entries() {
            if v != 0 {
                s.push_str(&format!("  {label:<20} {v}\n"));
            }
        }
        if self.state_age.count() > 0 {
            s.push_str(&format!(
                "state-message data age: reads {} | mean {} | p99<= {} | max {}\n",
                self.state_age.count(),
                self.state_age.mean(),
                self.state_age.quantile_bound(0.99),
                self.state_age.max()
            ));
        }
        s.push_str("tasks:\n");
        for t in &self.tasks {
            s.push_str(&format!(
                "  {} {:<12} jobs {:<6} misses {:<3} cpu {:<12} resp max {} mean {} p99<= {} dispatch max {}\n",
                t.tid,
                t.name,
                t.jobs_completed,
                t.deadline_misses,
                t.cpu_time.to_string(),
                t.max_response,
                t.mean_response,
                t.p99_response,
                t.max_dispatch_latency,
            ));
        }
        s
    }

    /// Serializes the snapshot as one JSON object (hand-rolled; no
    /// external dependencies). Durations are reported in nanoseconds.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{{\n  \"now_ns\": {},\n  \"context_switches\": {},\n  \"deadline_misses\": {},\n  \"app_ns\": {},\n  \"idle_ns\": {},\n  \"overhead_ns\": {},\n  \"trace_dropped\": {},\n",
            self.now.as_ns(),
            self.context_switches,
            self.deadline_misses,
            self.app_time.as_ns(),
            self.idle_time.as_ns(),
            self.total_overhead.as_ns(),
            self.trace_dropped
        ));
        s.push_str("  \"counters\": {");
        let entries = self.counters.entries();
        for (i, (label, v)) in entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    \"{label}\": {v}"));
        }
        s.push_str("\n  },\n");
        s.push_str(&format!(
            "  \"state_age\": {{\"count\": {}, \"mean_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}},\n",
            self.state_age.count(),
            self.state_age.mean().as_ns(),
            self.state_age.quantile_bound(0.99).as_ns(),
            self.state_age.max().as_ns()
        ));
        s.push_str("  \"tasks\": [");
        for (i, t) in self.tasks.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"tid\": {}, \"name\": \"{}\", \"jobs_completed\": {}, \"deadline_misses\": {}, \"cpu_ns\": {}, \"max_response_ns\": {}, \"mean_response_ns\": {}, \"p99_response_ns\": {}, \"max_dispatch_latency_ns\": {}, \"mean_dispatch_latency_ns\": {}}}",
                t.tid.0,
                t.name,
                t.jobs_completed,
                t.deadline_misses,
                t.cpu_time.as_ns(),
                t.max_response.as_ns(),
                t.mean_response.as_ns(),
                t.p99_response.as_ns(),
                t.max_dispatch_latency.as_ns(),
                t.mean_dispatch_latency.as_ns()
            ));
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}

/// Per-node bus fault/error forensics, summarized from the fieldbus
/// layer's CAN-style error counters. Lives here (not in the fieldbus
/// crate) so [`ClusterMetrics`] can roll it up without a dependency
/// cycle; the fieldbus executive fills it in.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeFaultSummary {
    /// Error frames this node signalled (tx errors it suffered).
    pub error_frames: u64,
    /// Automatic retransmissions after a corrupted grant.
    pub retransmissions: u64,
    /// Garbage frames this node babbled onto the bus.
    pub babble_frames: u64,
    /// Times the node entered bus-off.
    pub bus_off_events: u64,
    /// Times the node completed bus-off recovery.
    pub bus_off_recoveries: u64,
    /// Transmit / receive error counters at snapshot time.
    pub tec: u32,
    pub rec: u32,
    /// True iff the node was still bus-off at snapshot time.
    pub bus_off: bool,
    /// Worst and mean bus-off recovery latency (entry → error-active).
    pub max_recovery: Duration,
    pub mean_recovery: Duration,
}

impl NodeFaultSummary {
    /// True when nothing fault-related ever happened on this node.
    pub fn is_clean(&self) -> bool {
        *self == NodeFaultSummary::default()
    }
}

/// One node's slice of a [`ClusterMetrics`] rollup.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeMetrics {
    pub name: Arc<str>,
    pub metrics: KernelMetrics,
    /// Bus error/fault forensics for this node (default when the
    /// executive injects no faults).
    pub faults: NodeFaultSummary,
    /// Bus segment this node sits on in a bridged topology; `None` on
    /// a single-bus cluster.
    pub segment: Option<u32>,
    /// Set when the node is a gateway attachment (the store-and-forward
    /// bridge's NIC on this segment): the gateway's id.
    pub gateway: Option<u32>,
}

/// Aggregate metrics across every kernel of a multi-node cluster: the
/// per-node [`KernelMetrics`] snapshots plus system-wide totals. Built
/// by the cluster executive in `emeralds-fieldbus`; kept here so the
/// rollup math lives next to the per-kernel accounting it sums.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterMetrics {
    /// Latest per-node clock (nodes may overshoot a shared horizon by
    /// at most one kernel operation).
    pub now: Time,
    pub nodes: Vec<NodeMetrics>,
    pub context_switches: u64,
    pub deadline_misses: u64,
    pub syscalls: u64,
    pub jobs_completed: u64,
    /// Summed across nodes (node-seconds of virtual time).
    pub app_time: Duration,
    pub idle_time: Duration,
    pub total_overhead: Duration,
    // --- Fault / error rollup (all zero on a clean run) ---
    pub error_frames: u64,
    pub retransmissions: u64,
    pub babble_frames: u64,
    pub bus_off_events: u64,
    pub bus_off_recoveries: u64,
    /// Nodes still bus-off at snapshot time — the CI fault gate
    /// requires this to be zero.
    pub unrecovered_bus_off: u64,
    pub misses_fault: u64,
    pub misses_overload: u64,
    pub misses_unknown: u64,
    /// End-to-end state-message data age merged across every node —
    /// the cluster-wide freshness picture the fault experiments gate.
    pub state_age: DurationHistogram,
}

impl ClusterMetrics {
    /// Rolls up named per-kernel snapshots.
    pub fn from_nodes(nodes: Vec<NodeMetrics>) -> ClusterMetrics {
        let mut c = ClusterMetrics {
            now: Time::ZERO,
            nodes: Vec::new(),
            context_switches: 0,
            deadline_misses: 0,
            syscalls: 0,
            jobs_completed: 0,
            app_time: Duration::ZERO,
            idle_time: Duration::ZERO,
            total_overhead: Duration::ZERO,
            error_frames: 0,
            retransmissions: 0,
            babble_frames: 0,
            bus_off_events: 0,
            bus_off_recoveries: 0,
            unrecovered_bus_off: 0,
            misses_fault: 0,
            misses_overload: 0,
            misses_unknown: 0,
            state_age: DurationHistogram::new(),
        };
        for n in &nodes {
            let m = &n.metrics;
            c.now = c.now.max(m.now);
            c.context_switches += m.context_switches;
            c.deadline_misses += m.deadline_misses;
            c.syscalls += m.counters.syscall_total();
            c.jobs_completed += m.tasks.iter().map(|t| t.jobs_completed).sum::<u64>();
            c.app_time += m.app_time;
            c.idle_time += m.idle_time;
            c.total_overhead += m.total_overhead;
            c.error_frames += n.faults.error_frames;
            c.retransmissions += n.faults.retransmissions;
            c.babble_frames += n.faults.babble_frames;
            c.bus_off_events += n.faults.bus_off_events;
            c.bus_off_recoveries += n.faults.bus_off_recoveries;
            c.unrecovered_bus_off += u64::from(n.faults.bus_off);
            c.misses_fault += m.counters.misses_fault;
            c.misses_overload += m.counters.misses_overload;
            c.misses_unknown += m.counters.misses_unknown;
            c.state_age.merge(&m.state_age);
        }
        c.nodes = nodes;
        c
    }

    /// Number of nodes in the rollup.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Renders the rollup: one header plus one line per node.
    pub fn render(&self) -> String {
        let mut s = format!(
            "cluster metrics @ {} | nodes {} | ctxsw {} | misses {} | syscalls {} | jobs {} | app {} | overhead {} | idle {}\n",
            self.now,
            self.nodes.len(),
            self.context_switches,
            self.deadline_misses,
            self.syscalls,
            self.jobs_completed,
            self.app_time,
            self.total_overhead,
            self.idle_time
        );
        if self.error_frames + self.bus_off_events + self.babble_frames != 0 {
            s.push_str(&format!(
                "  faults: errors {} | retransmits {} | babble {} | bus-off {} (recovered {}, stuck {}) | miss causes fault {} / overload {} / unknown {}\n",
                self.error_frames,
                self.retransmissions,
                self.babble_frames,
                self.bus_off_events,
                self.bus_off_recoveries,
                self.unrecovered_bus_off,
                self.misses_fault,
                self.misses_overload,
                self.misses_unknown
            ));
        }
        if self.state_age.count() > 0 {
            s.push_str(&format!(
                "  state-message data age: reads {} | mean {} | p99<= {} | max {}\n",
                self.state_age.count(),
                self.state_age.mean(),
                self.state_age.quantile_bound(0.99),
                self.state_age.max()
            ));
        }
        for n in &self.nodes {
            let m = &n.metrics;
            let place = match (n.segment, n.gateway) {
                (Some(seg), Some(gw)) => format!(" seg {seg} gw {gw}"),
                (Some(seg), None) => format!(" seg {seg}"),
                _ => String::new(),
            };
            s.push_str(&format!(
                "  {:<10} ctxsw {:<7} misses {:<4} app {:<12} overhead {:<12} idle {}{}\n",
                n.name,
                m.context_switches,
                m.deadline_misses,
                m.app_time.to_string(),
                m.total_overhead.to_string(),
                m.idle_time,
                place
            ));
            if !n.faults.is_clean() {
                s.push_str(&format!(
                    "    faults: errors {} retransmits {} babble {} bus-off {}/{} tec {} rec {}{} max-recovery {}\n",
                    n.faults.error_frames,
                    n.faults.retransmissions,
                    n.faults.babble_frames,
                    n.faults.bus_off_recoveries,
                    n.faults.bus_off_events,
                    n.faults.tec,
                    n.faults.rec,
                    if n.faults.bus_off { " STUCK-BUS-OFF" } else { "" },
                    n.faults.max_recovery
                ));
            }
        }
        s
    }

    /// Serializes the rollup as one JSON object (hand-rolled, like
    /// [`KernelMetrics::to_json`]). Per-node entries carry the full
    /// kernel snapshot.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{{\n\"now_ns\": {},\n\"node_count\": {},\n\"context_switches\": {},\n\"deadline_misses\": {},\n\"syscalls\": {},\n\"jobs_completed\": {},\n\"app_ns\": {},\n\"idle_ns\": {},\n\"overhead_ns\": {},\n\"error_frames\": {},\n\"retransmissions\": {},\n\"babble_frames\": {},\n\"bus_off_events\": {},\n\"bus_off_recoveries\": {},\n\"unrecovered_bus_off\": {},\n\"misses_fault\": {},\n\"misses_overload\": {},\n\"misses_unknown\": {},\n\"state_age\": {{\"count\": {}, \"mean_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}},\n\"nodes\": [",
            self.now.as_ns(),
            self.nodes.len(),
            self.context_switches,
            self.deadline_misses,
            self.syscalls,
            self.jobs_completed,
            self.app_time.as_ns(),
            self.idle_time.as_ns(),
            self.total_overhead.as_ns(),
            self.error_frames,
            self.retransmissions,
            self.babble_frames,
            self.bus_off_events,
            self.bus_off_recoveries,
            self.unrecovered_bus_off,
            self.misses_fault,
            self.misses_overload,
            self.misses_unknown,
            self.state_age.count(),
            self.state_age.mean().as_ns(),
            self.state_age.quantile_bound(0.99).as_ns(),
            self.state_age.max().as_ns()
        ));
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let opt = |v: Option<u32>| v.map_or("null".to_string(), |x| x.to_string());
            s.push_str(&format!(
                "\n{{\"name\": \"{}\", \"segment\": {}, \"gateway\": {}, \"faults\": {{\"error_frames\": {}, \"retransmissions\": {}, \"babble_frames\": {}, \"bus_off_events\": {}, \"bus_off_recoveries\": {}, \"tec\": {}, \"rec\": {}, \"bus_off\": {}, \"max_recovery_ns\": {}, \"mean_recovery_ns\": {}}}, \"metrics\": {}}}",
                n.name,
                opt(n.segment),
                opt(n.gateway),
                n.faults.error_frames,
                n.faults.retransmissions,
                n.faults.babble_frames,
                n.faults.bus_off_events,
                n.faults.bus_off_recoveries,
                n.faults.tec,
                n.faults.rec,
                n.faults.bus_off,
                n.faults.max_recovery.as_ns(),
                n.faults.mean_recovery.as_ns(),
                n.metrics.to_json()
            ));
        }
        s.push_str("\n]\n}\n");
        s
    }
}

/// One task's state at the instant of a deadline miss.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskSnapshot {
    pub tid: ThreadId,
    pub name: Arc<str>,
    pub ready: bool,
    /// Debug rendering of the thread state (block reason included).
    pub state: String,
    pub pc: u32,
    pub effective_deadline: Time,
}

/// Forensic capture of a deadline miss: what was running, who was
/// ready, and the last-K trace window leading up to the miss.
#[derive(Clone, Debug, PartialEq)]
pub struct MissReport {
    pub at: Time,
    pub tid: ThreadId,
    pub name: Arc<str>,
    pub job: u64,
    pub deadline: Time,
    pub release: Time,
    pub running: Option<ThreadId>,
    /// Best-effort miss classification (see [`MissCause`]).
    pub cause: MissCause,
    pub tasks: Vec<TaskSnapshot>,
    /// The last [`MISS_WINDOW`] events, miss included; empty when the
    /// trace stores nothing.
    pub window: Vec<(Time, TraceEvent)>,
    /// Events that had already been evicted before the capture.
    pub dropped_before_window: u64,
}

impl MissReport {
    /// Renders the report as an actionable multi-line diagnosis.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "DEADLINE MISS: {} \"{}\" job {} missed deadline {} (released {}, detected {}, cause {})\n",
            self.tid,
            self.name,
            self.job,
            self.deadline,
            self.release,
            self.at,
            self.cause.label()
        ));
        match self.running {
            Some(r) if r == self.tid => s.push_str("  the missing task itself was running\n"),
            Some(r) => s.push_str(&format!("  running at detection: {r}\n")),
            None => s.push_str("  CPU idle at detection\n"),
        }
        s.push_str("  task states:\n");
        for t in &self.tasks {
            s.push_str(&format!(
                "    {} {:<12} {:<9} pc={:<3} eff.deadline={} {}\n",
                t.tid,
                t.name,
                if t.ready { "READY" } else { "blocked" },
                t.pc,
                t.effective_deadline,
                if t.ready { "" } else { t.state.as_str() }
            ));
        }
        if self.window.is_empty() {
            s.push_str("  (trace recording disabled: no event window captured)\n");
        } else {
            s.push_str(&format!("  last {} events:\n", self.window.len()));
            for (t, e) in &self.window {
                s.push_str(&format!("    [{:>12}] {}\n", t.to_string(), e.describe()));
            }
            if self.dropped_before_window > 0 {
                s.push_str(&format!(
                    "  ({} earlier events not retained)\n",
                    self.dropped_before_window
                ));
            }
        }
        s
    }
}

impl Kernel {
    /// Live per-service counters (cheap to read at any time).
    pub fn counters(&self) -> &ServiceCounters {
        &self.counters
    }

    /// Deadline-miss forensic reports, oldest first (at most
    /// [`MAX_MISS_REPORTS`] are retained).
    pub fn miss_reports(&self) -> &[MissReport] {
        &self.miss_reports
    }

    /// Snapshots every kernel counter and per-task statistic.
    pub fn metrics(&self) -> KernelMetrics {
        let mut counters = self.counters;
        // The wait-free state-message reader never restarts when the
        // buffer is deep enough; surface the per-variable check anyway.
        counters.statemsg_retries = self.statemsgs.iter().map(|v| v.retries()).sum();
        let mut state_age = DurationHistogram::new();
        for v in &self.statemsgs {
            state_age.merge(v.age_hist());
        }
        let tasks = self
            .tcbs
            .iter()
            .zip(&self.stats)
            .map(|(t, s)| TaskMetrics {
                tid: t.id,
                name: s.name.clone(),
                jobs_completed: s.jobs_completed,
                deadline_misses: s.deadline_misses,
                cpu_time: t.cpu_time,
                max_response: s.max_response,
                mean_response: s.response_hist.mean(),
                p99_response: s.response_hist.quantile_bound(0.99),
                max_dispatch_latency: s.dispatch_hist.max(),
                mean_dispatch_latency: s.dispatch_hist.mean(),
            })
            .collect();
        KernelMetrics {
            now: self.clock.now(),
            context_switches: self.trace.context_switch_count(),
            deadline_misses: self.total_deadline_misses(),
            app_time: self.acct.app,
            idle_time: self.acct.idle,
            total_overhead: self.acct.total_overhead(),
            counters,
            tasks,
            trace_dropped: self.trace.dropped(),
            state_age,
        }
    }

    /// Records a deadline miss and captures its forensic report.
    /// Called from the two miss-detection sites (the constrained
    /// deadline check and the overrun-at-release check).
    pub(crate) fn note_deadline_miss(&mut self, tid: ThreadId, job: u64, deadline: Time) {
        self.record(TraceEvent::DeadlineMiss { tid, job, deadline });
        // Classify, and count per cause *before* the report cap below:
        // the counters stay exact even when forensics stop being kept.
        let cause = match self.miss_cause_hint {
            Some((c, until)) if self.clock.now() <= until => c,
            _ if self.current.is_some() => MissCause::Overload,
            _ => MissCause::Unknown,
        };
        match cause {
            MissCause::Fault => self.counters.misses_fault += 1,
            MissCause::Overload => self.counters.misses_overload += 1,
            MissCause::Unknown => self.counters.misses_unknown += 1,
        }
        if self.miss_reports.len() >= MAX_MISS_REPORTS {
            return;
        }
        let window = self.trace.recent(MISS_WINDOW);
        let tasks = self
            .tcbs
            .iter()
            .zip(&self.stats)
            .map(|(t, s)| TaskSnapshot {
                tid: t.id,
                name: s.name.clone(),
                ready: t.state == ThreadState::Ready,
                state: format!("{:?}", t.state),
                pc: t.pc,
                effective_deadline: t.effective_deadline(),
            })
            .collect();
        let release = match self.tcbs.get(tid).timing {
            Timing::Periodic { .. } => self.tcbs.get(tid).job_release,
            Timing::EventDriven { .. } => Time::ZERO,
        };
        self.miss_reports.push(MissReport {
            at: self.clock.now(),
            tid,
            name: self.stats[tid.index()].name.clone(),
            job,
            deadline,
            release,
            running: self.current,
            cause,
            tasks,
            window,
            dropped_before_window: self.trace.dropped(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cluster rollup over zero nodes (or nodes with zero state-age
    /// samples) must render and serialize without panicking: every
    /// histogram summary degrades to zero, never divides by the count.
    #[test]
    fn empty_rollup_renders_without_panicking() {
        let c = ClusterMetrics::from_nodes(Vec::new());
        assert_eq!(c.node_count(), 0);
        assert_eq!(c.state_age.count(), 0);
        assert_eq!(c.state_age.mean(), Duration::ZERO);
        let text = c.render();
        assert!(text.contains("nodes 0"));
        let json = c.to_json();
        assert!(json.contains("\"node_count\": 0"));
        assert!(json.contains("\"state_age\": {\"count\": 0, \"mean_ns\": 0"));
    }

    /// The kernel report ends with one row per task under its `tasks:`
    /// header, whatever counter lines precede it.
    #[test]
    fn kernel_render_has_one_row_per_task() {
        use crate::kernel::{KernelBuilder, KernelConfig};
        use crate::script::Script;
        let mut b = KernelBuilder::new(KernelConfig::default());
        let p = b.add_process("app");
        for (name, period_ms, wcet_ms) in [("fast", 5, 1), ("slow", 50, 10)] {
            b.add_periodic_task(
                p,
                name,
                Duration::from_ms(period_ms),
                Script::compute_only(Duration::from_ms(wcet_ms)),
            );
        }
        let mut k = b.build();
        k.run_until(Time::from_ms(20));
        let m = k.metrics();
        let text = m.render();
        let rows: Vec<&str> = text
            .lines()
            .skip_while(|l| *l != "tasks:")
            .skip(1)
            .collect();
        assert_eq!(m.tasks.len(), 2);
        assert_eq!(rows.len(), m.tasks.len(), "{text}");
        assert!(
            rows[0].contains("fast") && rows[1].contains("slow"),
            "{text}"
        );
    }
}
