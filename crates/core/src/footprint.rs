//! Memory-footprint reporting (§3: "EMERALDS provides a rich set of OS
//! services in just 13 kbytes of code").
//!
//! We cannot compile for a Motorola 68040, so the code-size claim is
//! reproduced at the level we can measure honestly (see DESIGN.md):
//!
//! - **Modeled target sizes**: per-object RAM budgets from the
//!   fixed-block pools, matching 68k-era layouts (128-byte TCBs,
//!   32-byte semaphores, …), plus a per-subsystem ROM estimate scaled
//!   from the paper's 13 KB total.
//! - **Host sizes**: `size_of` of the simulation's own structures, for
//!   transparency about what the simulator costs.

use std::mem::size_of;

use crate::alloc::PoolSet;
use crate::ipc::{Mailbox, StateMsgVar};
use crate::sync::{CondVar, Semaphore};
use crate::tcb::Tcb;

/// Estimated ROM budget of each kernel subsystem on the 68040 target,
/// in bytes. The split is our estimate; the 13 KB total is the paper's
/// measured kernel code size (§3).
pub const ROM_BUDGET: &[(&str, usize)] = &[
    ("scheduler (CSD/EDF/RM)", 2_200),
    ("semaphores + PI + condvars", 1_800),
    ("IPC (mailboxes, state messages, shm)", 2_000),
    ("threads/processes + syscall entry", 2_400),
    ("timers + clock services", 1_300),
    ("interrupt handling + kernel device support", 1_700),
    ("memory protection + pools", 1_000),
    ("misc (boot, tables)", 900),
];

/// Total estimated kernel ROM (bytes); the paper reports 13 KB.
pub fn rom_total() -> usize {
    ROM_BUDGET.iter().map(|&(_, b)| b).sum()
}

/// One row of the footprint report.
#[derive(Clone, Debug)]
pub struct FootprintRow {
    pub object: &'static str,
    /// Modeled per-object bytes on the 68k target.
    pub target_bytes: usize,
    /// Host `size_of` of the simulation structure.
    pub host_bytes: usize,
}

/// Per-object footprint comparison.
pub fn object_rows() -> Vec<FootprintRow> {
    vec![
        FootprintRow {
            object: "TCB",
            target_bytes: 128,
            host_bytes: size_of::<Tcb>(),
        },
        FootprintRow {
            object: "semaphore",
            target_bytes: 32,
            host_bytes: size_of::<Semaphore>(),
        },
        FootprintRow {
            object: "condvar",
            target_bytes: 24,
            host_bytes: size_of::<CondVar>(),
        },
        FootprintRow {
            object: "mailbox",
            target_bytes: 64,
            host_bytes: size_of::<Mailbox>(),
        },
        FootprintRow {
            object: "state message (header)",
            target_bytes: 32,
            host_bytes: size_of::<StateMsgVar>(),
        },
    ]
}

/// Renders the full footprint report for a kernel's pools.
pub fn report(pools: &PoolSet) -> String {
    let mut s = String::new();
    s.push_str("Kernel ROM budget (modeled for MC68040; paper total: 13 KB)\n");
    for &(name, bytes) in ROM_BUDGET {
        s.push_str(&format!("  {name:<44} {bytes:>6} B\n"));
    }
    s.push_str(&format!("  {:<44} {:>6} B\n\n", "TOTAL", rom_total()));
    s.push_str("Kernel object sizes (target model vs host simulation struct)\n");
    for r in object_rows() {
        s.push_str(&format!(
            "  {:<24} target {:>4} B   host {:>4} B\n",
            r.object, r.target_bytes, r.host_bytes
        ));
    }
    s.push('\n');
    s.push_str(&pools.to_string());
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ROM budget must sum to the paper's 13 KB claim.
    #[test]
    fn rom_budget_sums_to_13kb() {
        assert_eq!(rom_total(), 13_300);
        assert!(rom_total() < 20_000, "must stay under the 20 KB bound (§1)");
    }

    #[test]
    fn object_rows_are_populated() {
        let rows = object_rows();
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.target_bytes > 0 && r.host_bytes > 0);
        }
    }

    #[test]
    fn report_renders() {
        let pools = PoolSet::small_memory([0; 7]);
        let s = report(&pools);
        assert!(s.contains("13 KB"));
        assert!(s.contains("TCB"));
        assert!(s.contains("total reserved"));
    }
}
