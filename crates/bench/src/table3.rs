//! Experiment T3 — Table 3: CSD-3 per-case run-time overheads.
//!
//! Drives a live CSD-3 kernel scheduler through the four cases of
//! §5.4/Table 3 (DP1/DP2/FP task blocks/unblocks) and reports the
//! measured charges next to the asymptotic entries of Table 3 (with
//! `q` = |DP1|, `r` = |DP1|+|DP2|, `n` = total).

use emeralds_core::sched::CsdSched;
use emeralds_core::script::Script;
use emeralds_core::tcb::{BlockReason, QueueAssign, Tcb, TcbTable, ThreadState, Timing};
use emeralds_hal::CostModel;
use emeralds_sim::{Duration, ProcId, ThreadId, Time};

/// Queue shape of the experiment.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub q: usize,
    pub r: usize,
    pub n: usize,
}

/// Measured charges for one case, in µs.
#[derive(Clone, Copy, Debug)]
pub struct CaseRow {
    pub case: &'static str,
    pub t_b_or_u: f64,
    pub t_s: f64,
    /// The asymptotic entry from Table 3.
    pub asymptotic: &'static str,
}

fn build(shape: Shape) -> (TcbTable, CsdSched) {
    assert!(shape.q < shape.r && shape.r < shape.n);
    let mut tcbs = TcbTable::new();
    for i in 0..shape.n {
        let queue = if i < shape.q {
            QueueAssign::Dp(0)
        } else if i < shape.r {
            QueueAssign::Dp(1)
        } else {
            QueueAssign::Fp
        };
        let mut t = Tcb::new(
            ThreadId(i as u32),
            ProcId(0),
            Timing::Periodic {
                period: Duration::from_ms(5 + i as u64),
                deadline: Duration::from_ms(5 + i as u64),
                phase: Duration::ZERO,
            },
            Script::compute_only(Duration::from_ms(1)),
            i as u32,
            queue,
        );
        t.state = ThreadState::Ready;
        t.abs_deadline = Time::from_ms(100 + i as u64);
        tcbs.insert(t);
    }
    let mut sched = CsdSched::new(2);
    for i in 0..shape.n {
        sched.add(ThreadId(i as u32), &mut tcbs);
    }
    (tcbs, sched)
}

fn block(sched: &mut CsdSched, tcbs: &mut TcbTable, tid: ThreadId, cost: &CostModel) -> Duration {
    tcbs.get_mut(tid).state = ThreadState::Blocked(BlockReason::EndOfJob);
    sched.on_block(tid, tcbs, cost)
}

fn unblock(sched: &mut CsdSched, tcbs: &mut TcbTable, tid: ThreadId, cost: &CostModel) -> Duration {
    tcbs.get_mut(tid).state = ThreadState::Ready;
    sched.on_unblock(tid, tcbs, cost)
}

/// Measures the Table 3 cases on a live CSD-3 scheduler.
pub fn measure(shape: Shape) -> Vec<CaseRow> {
    let cost = CostModel::mc68040_25mhz();
    let us = |d: Duration| d.as_us_f64();
    let mut rows = Vec::new();

    // Case 1: DP1 task blocks — worst case: DP1 becomes empty, DP2
    // holds ready tasks; the select parses past DP1 and walks DP2.
    {
        let (mut tcbs, mut s) = build(shape);
        for i in 1..shape.q {
            block(&mut s, &mut tcbs, ThreadId(i as u32), &cost);
        }
        let tb = block(&mut s, &mut tcbs, ThreadId(0), &cost);
        let (_, ts) = s.select(&tcbs, &cost);
        rows.push(CaseRow {
            case: "DP1 blocks",
            t_b_or_u: us(tb),
            t_s: us(ts),
            asymptotic: "t_b O(1), t_s O(r-q)",
        });
    }
    // Case 2: DP1 task unblocks — its own queue is walked.
    {
        let (mut tcbs, mut s) = build(shape);
        block(&mut s, &mut tcbs, ThreadId(0), &cost);
        let tu = unblock(&mut s, &mut tcbs, ThreadId(0), &cost);
        let (_, ts) = s.select(&tcbs, &cost);
        rows.push(CaseRow {
            case: "DP1 unblocks",
            t_b_or_u: us(tu),
            t_s: us(ts),
            asymptotic: "t_u O(1), t_s O(q)",
        });
    }
    // Case 3: DP2 task blocks — DP1 already empty (it would have
    // preempted); DP2 walked.
    {
        let (mut tcbs, mut s) = build(shape);
        for i in 0..shape.q {
            block(&mut s, &mut tcbs, ThreadId(i as u32), &cost);
        }
        let tb = block(&mut s, &mut tcbs, ThreadId(shape.q as u32), &cost);
        let (_, ts) = s.select(&tcbs, &cost);
        rows.push(CaseRow {
            case: "DP2 blocks",
            t_b_or_u: us(tb),
            t_s: us(ts),
            asymptotic: "t_b O(1), t_s O(r)",
        });
    }
    // Case 4: FP task blocks — every DP queue empty; t_b scans the FP
    // queue, selection is the queue-list parse + highestp.
    {
        let (mut tcbs, mut s) = build(shape);
        for i in 0..shape.r {
            block(&mut s, &mut tcbs, ThreadId(i as u32), &cost);
        }
        // Worst case: every other FP task is blocked too, so the scan
        // runs to the end.
        for i in (shape.r + 1..shape.n).rev() {
            block(&mut s, &mut tcbs, ThreadId(i as u32), &cost);
        }
        let tb = block(&mut s, &mut tcbs, ThreadId(shape.r as u32), &cost);
        let (_, ts) = s.select(&tcbs, &cost);
        rows.push(CaseRow {
            case: "FP blocks",
            t_b_or_u: us(tb),
            t_s: us(ts),
            asymptotic: "t_b O(n-r), t_s O(1)",
        });
    }
    // Case 5: FP task unblocks — worst case a DP queue holds ready
    // tasks, so the selection walks it.
    {
        let (mut tcbs, mut s) = build(shape);
        block(&mut s, &mut tcbs, ThreadId((shape.n - 1) as u32), &cost);
        let tu = unblock(&mut s, &mut tcbs, ThreadId((shape.n - 1) as u32), &cost);
        let (_, ts) = s.select(&tcbs, &cost);
        rows.push(CaseRow {
            case: "FP unblocks",
            t_b_or_u: us(tu),
            t_s: us(ts),
            asymptotic: "t_u O(1), t_s O(r-q)",
        });
    }
    rows
}

/// Renders the Table 3 report.
pub fn report(shape: Shape) -> String {
    let mut out = format!(
        "Table 3: CSD-3 run-time overheads, live measurement\n\
         shape: q = {} (DP1), r = {} (DP1+DP2), n = {}\n\n",
        shape.q, shape.r, shape.n
    );
    out.push_str(&format!(
        "{:<14} {:>10} {:>10}   {}\n",
        "case", "t_b/t_u us", "t_s us", "Table 3 asymptotics"
    ));
    for row in measure(shape) {
        out.push_str(&format!(
            "{:<14} {:>10.2} {:>10.2}   {}\n",
            row.case, row.t_b_or_u, row.t_s, row.asymptotic
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_charges_match_table3_asymptotics() {
        let shape = Shape { q: 5, r: 12, n: 20 };
        let cost = CostModel::mc68040_25mhz();
        let rows = measure(shape);
        let parse = cost.csd_queue_parse.as_us_f64();
        let edf =
            |k: usize| (cost.edf_select_fixed + cost.edf_select_per_node * k as u64).as_us_f64();
        // DP1 blocks: t_b O(1); select skips DP1, walks DP2 (r-q).
        assert!((rows[0].t_b_or_u - 1.6).abs() < 1e-9);
        assert!((rows[0].t_s - (2.0 * parse + edf(shape.r - shape.q))).abs() < 1e-9);
        // DP1 unblocks: select walks DP1 (q).
        assert!((rows[1].t_b_or_u - 1.2).abs() < 1e-9);
        assert!((rows[1].t_s - (parse + edf(shape.q))).abs() < 1e-9);
        // DP2 blocks: select skips DP1 and DP2-empty? No: DP2 still
        // has ready tasks → walks DP2.
        assert!((rows[2].t_s - (2.0 * parse + edf(shape.r - shape.q))).abs() < 1e-9);
        // FP blocks: t_b scanned the rest of the FP queue.
        let fp_len = shape.n - shape.r;
        let want_tb =
            (cost.rmq_block_fixed + cost.rmq_block_per_node * (fp_len - 1) as u64).as_us_f64();
        assert!(
            (rows[3].t_b_or_u - want_tb).abs() < 1e-9,
            "{} vs {want_tb}",
            rows[3].t_b_or_u
        );
        // FP blocks: select = 3 parses + highestp.
        assert!((rows[3].t_s - (3.0 * parse + 0.6)).abs() < 1e-9);
        // FP unblocks: select walks DP1 (first ready queue).
        assert!((rows[4].t_s - (parse + edf(shape.q))).abs() < 1e-9);
    }

    #[test]
    fn report_renders() {
        let s = report(Shape { q: 4, r: 9, n: 15 });
        assert!(s.contains("Table 3"));
        assert!(s.lines().count() >= 8);
    }
}
