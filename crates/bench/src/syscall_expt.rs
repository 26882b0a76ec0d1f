//! Ablation SY — the optimized system-call path (§3).
//!
//! §3 lists "highly optimized context switching and interrupt
//! handling" and a low-overhead user/kernel transition among
//! EMERALDS' features (the mechanisms are detailed in the authors'
//! \[38\]). This ablation reruns the semaphore and mailbox benchmarks
//! with a conventional trap-based syscall path
//! ([`CostModel::mc68040_25mhz_trap_syscalls`]) to show how much of
//! the kernel's service cost the optimized transition removes.

use emeralds_core::kernel::{KernelBuilder, KernelConfig};
use emeralds_core::script::{Action, Script};
use emeralds_core::{SchedPolicy, SemScheme};
use emeralds_hal::CostModel;
use emeralds_sim::{Duration, OverheadKind, Time};

/// One ablation row: total kernel overhead of a fixed workload under
/// each syscall path.
#[derive(Clone, Copy, Debug)]
pub struct SyscallRow {
    pub scenario: &'static str,
    pub optimized_us: f64,
    pub trap_us: f64,
}

impl SyscallRow {
    /// Fraction of the trap-path cost the optimization removes.
    pub fn saving(&self) -> f64 {
        (self.trap_us - self.optimized_us) / self.trap_us
    }
}

fn run_workload(cost: CostModel, with_ipc: bool) -> f64 {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![1],
        },
        sem_scheme: SemScheme::Emeralds,
        cost: cost.into(),
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process("w");
    let lock = b.add_mutex();
    let mb = b.add_mailbox(4);
    let ms = Duration::from_ms;
    let us = Duration::from_us;
    b.add_periodic_task(
        p,
        "fast",
        ms(5),
        Script::periodic(vec![
            Action::AcquireSem(lock),
            Action::Compute(us(400)),
            Action::ReleaseSem(lock),
        ]),
    );
    if with_ipc {
        b.add_periodic_task(
            p,
            "producer",
            ms(10),
            Script::periodic(vec![
                Action::Compute(us(200)),
                Action::SendMbox {
                    mbox: mb,
                    bytes: 16,
                    tag: 1,
                },
            ]),
        );
        b.add_periodic_task(
            p,
            "consumer",
            ms(10),
            Script::periodic(vec![Action::RecvMbox(mb), Action::Compute(us(200))]),
        );
    }
    b.add_periodic_task(
        p,
        "slow",
        ms(50),
        Script::periodic(vec![
            Action::AcquireSem(lock),
            Action::Compute(ms(2)),
            Action::ReleaseSem(lock),
        ]),
    );
    let mut k = b.build();
    k.run_until(Time::from_ms(500));
    assert_eq!(k.total_deadline_misses(), 0);
    (k.accounting().total(OverheadKind::Syscall)
        + k.accounting().total(OverheadKind::Semaphore)
        + k.accounting().total(OverheadKind::IpcCopy))
    .as_us_f64()
}

/// Runs the ablation.
pub fn compute() -> Vec<SyscallRow> {
    vec![
        SyscallRow {
            scenario: "semaphores only",
            optimized_us: run_workload(CostModel::mc68040_25mhz(), false),
            trap_us: run_workload(CostModel::mc68040_25mhz_trap_syscalls(), false),
        },
        SyscallRow {
            scenario: "semaphores + mailboxes",
            optimized_us: run_workload(CostModel::mc68040_25mhz(), true),
            trap_us: run_workload(CostModel::mc68040_25mhz_trap_syscalls(), true),
        },
    ]
}

/// Renders the report.
pub fn render(rows: &[SyscallRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "Optimized vs trap-based system calls (§3 ablation; 500 ms of a\n\
         lock-and-IPC workload, syscall+semaphore+copy overhead in us)\n\n",
    );
    out.push_str(&format!(
        "{:<24} {:>14} {:>12} {:>9}\n",
        "scenario", "optimized us", "trap us", "saving"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<24} {:>14.1} {:>12.1} {:>8.1}%\n",
            r.scenario,
            r.optimized_us,
            r.trap_us,
            r.saving() * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimized_path_saves_meaningfully() {
        let rows = compute();
        for r in &rows {
            assert!(
                r.saving() > 0.3,
                "{}: saving only {:.1}%",
                r.scenario,
                r.saving() * 100.0
            );
            assert!(r.optimized_us > 0.0 && r.trap_us > r.optimized_us);
        }
    }

    #[test]
    fn render_lists_scenarios() {
        let s = render(&compute());
        assert!(s.contains("semaphores only"));
        assert!(s.contains("saving"));
    }
}
