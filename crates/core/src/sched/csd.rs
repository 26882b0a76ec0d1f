//! The CSD (combined static/dynamic) scheduler (§5.3–§5.6).
//!
//! CSD maintains a prioritized list of queues: one or more
//! dynamic-priority (EDF) queues holding the short-period tasks,
//! followed by the fixed-priority (RM) queue. "A counter keeps track
//! of the number of ready tasks in the DP queue. When the scheduler is
//! invoked, if the counter is non-zero, the DP queue is parsed to pick
//! the earliest-deadline ready task. Otherwise, the DP queue is
//! skipped completely and the scheduler picks the highest-priority
//! ready task from the FP queue." Parsing the list of queues costs
//! 0.55 µs per queue (§5.7).

use emeralds_hal::CostModel;
use emeralds_sim::{Duration, ThreadId};

use crate::sched::edf::EdfQueue;
use crate::sched::rm_queue::RmQueue;
use crate::tcb::{QueueAssign, TcbTable};

/// The CSD scheduler: DP queues in priority order, then the FP queue.
#[derive(Debug)]
pub struct CsdSched {
    dps: Vec<EdfQueue>,
    fp: RmQueue,
}

impl CsdSched {
    /// Creates a CSD scheduler with `num_dp` dynamic queues.
    ///
    /// # Panics
    ///
    /// Panics if `num_dp` is zero (that would be plain RM).
    pub fn new(num_dp: usize) -> Self {
        assert!(num_dp >= 1, "CSD needs at least one DP queue");
        CsdSched {
            dps: (0..num_dp).map(|_| EdfQueue::new()).collect(),
            fp: RmQueue::new(),
        }
    }

    /// Mutable access to the FP queue (for the PI operations).
    pub fn fp_mut(&mut self) -> &mut RmQueue {
        &mut self.fp
    }

    /// Number of queues (the `x` of CSD-x).
    pub fn num_queues(&self) -> usize {
        self.dps.len() + 1
    }

    /// Length of the FP queue.
    pub fn fp_len(&self) -> usize {
        self.fp.len()
    }

    /// Registers a task according to its TCB queue assignment.
    pub fn add(&mut self, tid: ThreadId, tcbs: &mut TcbTable) {
        match tcbs.get(tid).queue {
            QueueAssign::Dp(j) => {
                let j = j as usize;
                assert!(j < self.dps.len(), "task assigned to missing DP queue {j}");
                self.dps[j].add(tid, tcbs);
            }
            QueueAssign::Fp => self.fp.add(tid, tcbs),
        }
    }

    /// Routes a block to the owning queue.
    pub fn on_block(&mut self, tid: ThreadId, tcbs: &mut TcbTable, cost: &CostModel) -> Duration {
        match tcbs.get(tid).queue {
            QueueAssign::Dp(j) => self.dps[j as usize].on_block(tid, cost),
            QueueAssign::Fp => self.fp.on_block(tid, tcbs, cost),
        }
    }

    /// Routes an unblock to the owning queue.
    pub fn on_unblock(&mut self, tid: ThreadId, tcbs: &mut TcbTable, cost: &CostModel) -> Duration {
        match tcbs.get(tid).queue {
            QueueAssign::Dp(j) => self.dps[j as usize].on_unblock(tid, cost),
            QueueAssign::Fp => self.fp.on_unblock(tid, tcbs, cost),
        }
    }

    /// Parses the queue list: skips ready-empty DP queues at the
    /// per-queue parse cost, EDF-selects within the first DP queue
    /// that has a ready task, or falls through to the FP `highestp`.
    pub fn select(&self, tcbs: &TcbTable, cost: &CostModel) -> (Option<ThreadId>, Duration) {
        let mut charge = Duration::ZERO;
        for q in &self.dps {
            charge += cost.csd_queue_parse;
            if q.has_ready() {
                let (pick, c) = q.select(tcbs, cost);
                debug_assert!(pick.is_some(), "ready counter out of sync");
                return (pick, charge + c);
            }
        }
        charge += cost.csd_queue_parse;
        let (pick, c) = self.fp.select(cost);
        (pick, charge + c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::Script;
    use crate::tcb::{BlockReason, Tcb, ThreadState, Timing};
    use emeralds_sim::{ProcId, Time};

    /// Builds a CSD-3: T0,T1 in DP1; T2,T3 in DP2; T4,T5 in FP.
    fn setup() -> (TcbTable, CsdSched) {
        let mut tcbs = TcbTable::new();
        for i in 0..6u32 {
            let queue = match i {
                0 | 1 => QueueAssign::Dp(0),
                2 | 3 => QueueAssign::Dp(1),
                _ => QueueAssign::Fp,
            };
            let mut tcb = Tcb::new(
                ThreadId(i),
                ProcId(0),
                Timing::Periodic {
                    period: Duration::from_ms(5 + i as u64 * 10),
                    deadline: Duration::from_ms(5 + i as u64 * 10),
                    phase: Duration::ZERO,
                },
                Script::compute_only(Duration::from_ms(1)),
                i,
                queue,
            );
            tcb.state = ThreadState::Ready;
            tcb.abs_deadline = Time::from_ms(100 + i as u64);
            tcbs.insert(tcb);
        }
        let mut c = CsdSched::new(2);
        for i in 0..6 {
            c.add(ThreadId(i), &mut tcbs);
        }
        (tcbs, c)
    }

    fn block(c: &mut CsdSched, tcbs: &mut TcbTable, id: u32, cost: &CostModel) {
        tcbs.get_mut(ThreadId(id)).state = ThreadState::Blocked(BlockReason::EndOfJob);
        c.on_block(ThreadId(id), tcbs, cost);
    }

    #[test]
    fn dp1_has_absolute_priority() {
        let (tcbs, c) = setup();
        let cost = CostModel::mc68040_25mhz();
        let (pick, charge) = c.select(&tcbs, &cost);
        assert_eq!(pick, Some(ThreadId(0))); // earliest deadline in DP1
                                             // One queue parsed + EDF walk of 2.
        assert_eq!(
            charge,
            cost.csd_queue_parse + cost.edf_select_fixed + cost.edf_select_per_node * 2
        );
    }

    #[test]
    fn empty_dp1_skips_to_dp2_cheaply() {
        let (mut tcbs, mut c) = setup();
        let cost = CostModel::mc68040_25mhz();
        block(&mut c, &mut tcbs, 0, &cost);
        block(&mut c, &mut tcbs, 1, &cost);
        let (pick, charge) = c.select(&tcbs, &cost);
        assert_eq!(pick, Some(ThreadId(2)));
        assert_eq!(
            charge,
            cost.csd_queue_parse * 2 + cost.edf_select_fixed + cost.edf_select_per_node * 2
        );
    }

    #[test]
    fn all_dp_blocked_falls_to_fp_highestp() {
        let (mut tcbs, mut c) = setup();
        let cost = CostModel::mc68040_25mhz();
        for i in 0..4 {
            block(&mut c, &mut tcbs, i, &cost);
        }
        let (pick, charge) = c.select(&tcbs, &cost);
        assert_eq!(pick, Some(ThreadId(4)));
        // Three queue headers parsed + O(1) FP select: the §5.7
        // "additional x · 0.55 µs".
        assert_eq!(charge, cost.csd_queue_parse * 3 + cost.rmq_select);
    }

    #[test]
    fn nothing_ready_selects_none() {
        let (mut tcbs, mut c) = setup();
        let cost = CostModel::mc68040_25mhz();
        for i in 0..6 {
            block(&mut c, &mut tcbs, i, &cost);
        }
        assert_eq!(c.select(&tcbs, &cost).0, None);
    }

    #[test]
    fn unblock_routes_to_owning_queue() {
        let (mut tcbs, mut c) = setup();
        let cost = CostModel::mc68040_25mhz();
        for i in 0..6 {
            block(&mut c, &mut tcbs, i, &cost);
        }
        tcbs.get_mut(ThreadId(3)).state = ThreadState::Ready;
        let charge = c.on_unblock(ThreadId(3), &mut tcbs, &cost);
        assert_eq!(charge, cost.edf_unblock);
        assert_eq!(c.select(&tcbs, &cost).0, Some(ThreadId(3)));
        tcbs.get_mut(ThreadId(5)).state = ThreadState::Ready;
        let charge = c.on_unblock(ThreadId(5), &mut tcbs, &cost);
        assert_eq!(charge, cost.rmq_unblock);
        // DP still wins.
        assert_eq!(c.select(&tcbs, &cost).0, Some(ThreadId(3)));
    }

    #[test]
    fn queue_lengths_reported() {
        let (_tcbs, c) = setup();
        assert_eq!(c.num_queues(), 3);
        assert_eq!(c.fp_len(), 2);
    }
}
