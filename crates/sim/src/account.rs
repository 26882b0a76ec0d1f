//! Overhead accounting.
//!
//! The paper's core quantitative claim is that EMERALDS' algorithms cut
//! kernel overheads by 20–40%. To reproduce that, every nanosecond the
//! simulated kernel spends *not* running application code is attributed
//! to an [`OverheadKind`], so experiments can report exactly where time
//! went (scheduler queue walks, context switches, priority inheritance,
//! syscall entry/exit, IPC copies, interrupt handling).

use std::fmt;
use std::ops::{Add, AddAssign};

use crate::time::Duration;

/// Categories of kernel overhead tracked by the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OverheadKind {
    /// Scheduler blocking-path work (the paper's `t_b`).
    SchedBlock,
    /// Scheduler unblocking-path work (`t_u`).
    SchedUnblock,
    /// Scheduler selection work (`t_s`), including the CSD queue-list
    /// parse.
    SchedSelect,
    /// Context-switch save/restore and dispatch.
    ContextSwitch,
    /// Priority-inheritance queue manipulation.
    PriorityInheritance,
    /// Semaphore fixed-path work excluding PI and switches.
    Semaphore,
    /// System-call entry/exit (user/kernel mode transition).
    Syscall,
    /// Message copies for mailbox IPC.
    IpcCopy,
    /// State-message buffer copies.
    StateMsg,
    /// First-level interrupt handling.
    Interrupt,
    /// Timer reprogramming and expiry processing.
    Timer,
}

impl OverheadKind {
    /// Every category, in reporting order.
    pub const ALL: [OverheadKind; 11] = [
        OverheadKind::SchedBlock,
        OverheadKind::SchedUnblock,
        OverheadKind::SchedSelect,
        OverheadKind::ContextSwitch,
        OverheadKind::PriorityInheritance,
        OverheadKind::Semaphore,
        OverheadKind::Syscall,
        OverheadKind::IpcCopy,
        OverheadKind::StateMsg,
        OverheadKind::Interrupt,
        OverheadKind::Timer,
    ];

    fn idx(self) -> usize {
        match self {
            OverheadKind::SchedBlock => 0,
            OverheadKind::SchedUnblock => 1,
            OverheadKind::SchedSelect => 2,
            OverheadKind::ContextSwitch => 3,
            OverheadKind::PriorityInheritance => 4,
            OverheadKind::Semaphore => 5,
            OverheadKind::Syscall => 6,
            OverheadKind::IpcCopy => 7,
            OverheadKind::StateMsg => 8,
            OverheadKind::Interrupt => 9,
            OverheadKind::Timer => 10,
        }
    }

    /// Human-readable label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            OverheadKind::SchedBlock => "sched.block (t_b)",
            OverheadKind::SchedUnblock => "sched.unblock (t_u)",
            OverheadKind::SchedSelect => "sched.select (t_s)",
            OverheadKind::ContextSwitch => "context switch",
            OverheadKind::PriorityInheritance => "priority inheritance",
            OverheadKind::Semaphore => "semaphore fixed path",
            OverheadKind::Syscall => "syscall entry/exit",
            OverheadKind::IpcCopy => "mailbox copies",
            OverheadKind::StateMsg => "state-message copies",
            OverheadKind::Interrupt => "interrupt handling",
            OverheadKind::Timer => "timer service",
        }
    }
}

impl fmt::Display for OverheadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Accumulated time per overhead category plus application CPU and idle
/// time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Accounting {
    by_kind: [Duration; 11],
    ops_by_kind: [u64; 11],
    /// Time spent running application actions (the `c_i` work).
    pub app: Duration,
    /// Time the CPU was idle.
    pub idle: Duration,
}

impl Accounting {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Accounting::default()
    }

    /// Charges `d` of overhead to `kind` (one operation).
    pub fn charge(&mut self, kind: OverheadKind, d: Duration) {
        self.by_kind[kind.idx()] += d;
        self.ops_by_kind[kind.idx()] += 1;
    }

    /// Total overhead charged to `kind`.
    pub fn total(&self, kind: OverheadKind) -> Duration {
        self.by_kind[kind.idx()]
    }

    /// Number of operations charged to `kind`.
    pub fn ops(&self, kind: OverheadKind) -> u64 {
        self.ops_by_kind[kind.idx()]
    }

    /// Sum of all overhead categories.
    pub fn total_overhead(&self) -> Duration {
        self.by_kind.iter().copied().sum()
    }

    /// Sum of scheduler-only categories (`t_b + t_u + t_s`), the
    /// quantity Tables 1 and 3 report.
    pub fn scheduler_overhead(&self) -> Duration {
        self.total(OverheadKind::SchedBlock)
            + self.total(OverheadKind::SchedUnblock)
            + self.total(OverheadKind::SchedSelect)
    }

    /// Total accounted time (app + idle + overhead).
    pub fn grand_total(&self) -> Duration {
        self.app + self.idle + self.total_overhead()
    }

    /// Renders a per-category table (µs), for experiment output.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for kind in OverheadKind::ALL {
            let t = self.total(kind);
            if !t.is_zero() {
                s.push_str(&format!(
                    "{:<24} {:>12.3} us  ({} ops)\n",
                    kind.label(),
                    t.as_us_f64(),
                    self.ops(kind)
                ));
            }
        }
        s.push_str(&format!(
            "{:<24} {:>12.3} us\napp {:>33.3} us\nidle {:>32.3} us\n",
            "total overhead",
            self.total_overhead().as_us_f64(),
            self.app.as_us_f64(),
            self.idle.as_us_f64()
        ));
        s
    }
}

impl Add for Accounting {
    type Output = Accounting;
    fn add(mut self, rhs: Accounting) -> Accounting {
        self += rhs;
        self
    }
}

impl AddAssign for Accounting {
    fn add_assign(&mut self, rhs: Accounting) {
        for i in 0..self.by_kind.len() {
            self.by_kind[i] += rhs.by_kind[i];
            self.ops_by_kind[i] += rhs.ops_by_kind[i];
        }
        self.app += rhs.app;
        self.idle += rhs.idle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charging_accumulates_per_kind() {
        let mut a = Accounting::new();
        a.charge(OverheadKind::SchedSelect, Duration::from_us(2));
        a.charge(OverheadKind::SchedSelect, Duration::from_us(3));
        a.charge(OverheadKind::ContextSwitch, Duration::from_us(10));
        assert_eq!(a.total(OverheadKind::SchedSelect), Duration::from_us(5));
        assert_eq!(a.ops(OverheadKind::SchedSelect), 2);
        assert_eq!(a.total_overhead(), Duration::from_us(15));
    }

    #[test]
    fn scheduler_overhead_sums_t_b_t_u_t_s() {
        let mut a = Accounting::new();
        a.charge(OverheadKind::SchedBlock, Duration::from_us(1));
        a.charge(OverheadKind::SchedUnblock, Duration::from_us(2));
        a.charge(OverheadKind::SchedSelect, Duration::from_us(4));
        a.charge(OverheadKind::Syscall, Duration::from_us(100));
        assert_eq!(a.scheduler_overhead(), Duration::from_us(7));
    }

    #[test]
    fn ledgers_merge_with_add() {
        let mut a = Accounting::new();
        a.charge(OverheadKind::Timer, Duration::from_us(1));
        a.app = Duration::from_us(5);
        let mut b = Accounting::new();
        b.charge(OverheadKind::Timer, Duration::from_us(2));
        b.idle = Duration::from_us(7);
        let c = a + b;
        assert_eq!(c.total(OverheadKind::Timer), Duration::from_us(3));
        assert_eq!(c.ops(OverheadKind::Timer), 2);
        assert_eq!(c.app, Duration::from_us(5));
        assert_eq!(c.idle, Duration::from_us(7));
    }

    #[test]
    fn render_lists_only_charged_kinds() {
        let mut a = Accounting::new();
        a.charge(OverheadKind::StateMsg, Duration::from_us(3));
        let s = a.render();
        assert!(s.contains("state-message copies"));
        assert!(!s.contains("mailbox copies"));
    }
}
