//! Experiment T1 — Table 1: scheduler run-time overheads.
//!
//! Two views are produced:
//!
//! 1. the *closed forms* of Table 1 evaluated over n (what the paper
//!    prints), and
//! 2. *live measurements*: the actual charges returned by the real
//!    queue implementations when driven through worst-case
//!    block/select/unblock operations — demonstrating that the paper's
//!    formulas are the worst case of what the code does.

use emeralds_core::sched::{EdfQueue, RmHeap, RmQueue};
use emeralds_core::script::Script;
use emeralds_core::tcb::{BlockReason, QueueAssign, Tcb, TcbTable, ThreadState, Timing};
use emeralds_hal::CostModel;
use emeralds_sim::{Duration, ProcId, ThreadId, Time};

/// One Table 1 row set at a given `n`.
#[derive(Clone, Debug)]
pub struct Table1Row {
    pub n: usize,
    /// `(t_b, t_u, t_s)` for EDF-queue, RM-queue, RM-heap — the
    /// closed-form worst cases (µs).
    pub formula: [[f64; 3]; 3],
    /// The same quantities measured live from the implementations
    /// (µs).
    pub measured: [[f64; 3]; 3],
}

/// Builds a TCB table with `n` ready tasks (rm_prio = id, deadlines
/// descending so the EDF worst case walks everything).
pub fn ready_tasks(n: usize, queue: QueueAssign) -> TcbTable {
    let mut tcbs = TcbTable::new();
    for i in 0..n {
        let mut t = Tcb::new(
            ThreadId(i as u32),
            ProcId(0),
            Timing::Periodic {
                period: Duration::from_ms(10 + i as u64),
                deadline: Duration::from_ms(10 + i as u64),
                phase: Duration::ZERO,
            },
            Script::compute_only(Duration::from_ms(1)),
            i as u32,
            queue,
        );
        t.state = ThreadState::Ready;
        t.abs_deadline = Time::from_ms(1000 - i as u64);
        tcbs.insert(t);
    }
    tcbs
}

/// Measures the worst-case `(t_b, t_u, t_s)` of each implementation at
/// `n` tasks.
pub fn measure(n: usize, cost: &CostModel) -> Table1Row {
    let us = |d: Duration| d.as_us_f64();

    // --- EDF: block/unblock O(1); select walks all n. ---
    let tcbs = ready_tasks(n, QueueAssign::Dp(0));
    let mut edf = EdfQueue::new();
    for i in 0..n {
        edf.add(ThreadId(i as u32), &tcbs);
    }
    let mut tcbs_edf = tcbs.clone();
    let (_, edf_ts) = edf.select(&tcbs_edf, cost);
    tcbs_edf.get_mut(ThreadId(0)).state = ThreadState::Blocked(BlockReason::EndOfJob);
    let edf_tb = edf.on_block(ThreadId(0), cost);
    tcbs_edf.get_mut(ThreadId(0)).state = ThreadState::Ready;
    let edf_tu = edf.on_unblock(ThreadId(0), cost);

    // --- RM queue: worst-case block = head blocks with every other
    // task blocked (scan to the end). ---
    let mut tcbs_rm = ready_tasks(n, QueueAssign::Fp);
    let mut rmq = RmQueue::new();
    for i in 0..n {
        rmq.add(ThreadId(i as u32), &mut tcbs_rm);
    }
    // Block all but the head, from the tail up (each is below
    // highestp, so O(1)).
    for i in (1..n).rev() {
        tcbs_rm.get_mut(ThreadId(i as u32)).state = ThreadState::Blocked(BlockReason::EndOfJob);
        rmq.on_block(ThreadId(i as u32), &tcbs_rm, cost);
    }
    let (_, rm_ts) = rmq.select(cost);
    tcbs_rm.get_mut(ThreadId(0)).state = ThreadState::Blocked(BlockReason::EndOfJob);
    let rm_tb = rmq.on_block(ThreadId(0), &tcbs_rm, cost);
    tcbs_rm.get_mut(ThreadId(0)).state = ThreadState::Ready;
    let rm_tu = rmq.on_unblock(ThreadId(0), &tcbs_rm, cost);

    // --- RM heap: worst case = root removal/insertion sifting the
    // full depth. ---
    let mut tcbs_h = ready_tasks(n, QueueAssign::Fp);
    let mut heap = RmHeap::new();
    for i in 0..n {
        heap.add(ThreadId(i as u32), &tcbs_h);
    }
    let (_, h_ts) = heap.select(cost);
    tcbs_h.get_mut(ThreadId(0)).state = ThreadState::Blocked(BlockReason::EndOfJob);
    let h_tb = heap.on_block(ThreadId(0), &tcbs_h, cost);
    tcbs_h.get_mut(ThreadId(0)).state = ThreadState::Ready;
    let h_tu = heap.on_unblock(ThreadId(0), &tcbs_h, cost);

    Table1Row {
        n,
        formula: [
            [
                cost.edf_tb().as_us_f64(),
                cost.edf_tu().as_us_f64(),
                cost.edf_ts(n).as_us_f64(),
            ],
            [
                cost.rmq_tb(n).as_us_f64(),
                cost.rmq_tu().as_us_f64(),
                cost.rmq_ts().as_us_f64(),
            ],
            [
                cost.rmh_tb(n).as_us_f64(),
                cost.rmh_tu(n).as_us_f64(),
                cost.rmh_ts().as_us_f64(),
            ],
        ],
        measured: [
            [us(edf_tb), us(edf_tu), us(edf_ts)],
            [us(rm_tb), us(rm_tu), us(rm_ts)],
            [us(h_tb), us(h_tu), us(h_ts)],
        ],
    }
}

/// Renders the Table 1 report over a sweep of n.
pub fn report(ns: &[usize]) -> String {
    let cost = CostModel::mc68040_25mhz();
    let mut out = String::new();
    out.push_str(
        "Table 1: scheduler run-time overheads (us)\n\
         formulas: EDF t_s = 1.2+0.25n | RM t_b = 1.0+0.36n | heap 0.4+2.8ceil(log2(n+1))\n\n",
    );
    out.push_str(&format!(
        "{:>4} | {:^23} | {:^23} | {:^23}\n",
        "n", "EDF-queue", "RM-queue", "RM-heap"
    ));
    out.push_str(&format!(
        "{:>4} | {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7}\n",
        "", "t_b", "t_u", "t_s", "t_b", "t_u", "t_s", "t_b", "t_u", "t_s"
    ));
    for &n in ns {
        let row = measure(n, &cost);
        out.push_str(&format!(
            "{:>4} | {:>7.2} {:>7.2} {:>7.2} | {:>7.2} {:>7.2} {:>7.2} | {:>7.2} {:>7.2} {:>7.2}\n",
            n,
            row.measured[0][0],
            row.measured[0][1],
            row.measured[0][2],
            row.measured[1][0],
            row.measured[1][1],
            row.measured[1][2],
            row.measured[2][0],
            row.measured[2][1],
            row.measured[2][2],
        ));
    }
    // The §5.1 crossover claim.
    let per_period = |n: usize, heap: bool| {
        if heap {
            cost.per_period(cost.rmh_tb(n), cost.rmh_tu(n), cost.rmh_ts())
        } else {
            cost.per_period(cost.rmq_tb(n), cost.rmq_tu(), cost.rmq_ts())
        }
    };
    let crossover = (2..200)
        .find(|&n| per_period(n, true) < per_period(n, false))
        .unwrap_or(0);
    out.push_str(&format!(
        "\nper-period queue-vs-heap crossover at n = {crossover} (paper: 58)\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The live worst cases equal the Table 1 closed forms exactly.
    #[test]
    fn measured_matches_formula() {
        let cost = CostModel::mc68040_25mhz();
        for n in [1usize, 5, 10, 15, 40] {
            let row = measure(n, &cost);
            for impl_idx in 0..3 {
                for op in 0..3 {
                    let (f, m) = (row.formula[impl_idx][op], row.measured[impl_idx][op]);
                    if impl_idx == 2 {
                        // Heap sifts can traverse fewer levels than
                        // the ceiling bound.
                        assert!(m <= f + 1e-9, "n={n} impl={impl_idx} op={op}: {m} > {f}");
                    } else if impl_idx == 1 && op == 0 {
                        // The RM block scan visits the n−1 *other*
                        // tasks; the formula's n is a safe bound.
                        let exact = cost.rmq_tb(n - 1).as_us_f64();
                        assert!((m - exact).abs() < 1e-9, "n={n}: {m} != {exact}");
                        assert!(m <= f + 1e-9);
                    } else {
                        assert!(
                            (m - f).abs() < 1e-9,
                            "n={n} impl={impl_idx} op={op}: {m} != {f}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn report_renders_rows() {
        let s = report(&[5, 10]);
        assert!(s.contains("Table 1"));
        assert!(s.contains("crossover"));
        assert!(s.lines().count() > 5);
    }
}
