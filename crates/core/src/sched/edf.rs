//! The EDF scheduler: one unsorted queue (§5.1).
//!
//! "All blocked and unblocked tasks are placed in a single, unsorted
//! queue. A task is blocked and unblocked by changing one entry in the
//! task control block (TCB), so `t_b` and `t_u` are O(1). To select
//! the next task to execute, the list is parsed and the
//! earliest-deadline ready task is picked, so `t_s` is O(n)."
//!
//! The footnote explains the choice: sorted queues perform poorly as
//! priorities change often due to semaphore use, and heaps have long
//! run times from code complexity despite O(log n) bounds.

use emeralds_hal::CostModel;
use emeralds_sim::{Duration, ThreadId};

use crate::tcb::TcbTable;

/// The unsorted EDF queue with an O(1) ready counter.
#[derive(Debug, Default)]
pub struct EdfQueue {
    members: Vec<ThreadId>,
    ready: usize,
}

impl EdfQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EdfQueue::default()
    }

    /// Registers a task; reads its current state for the ready count.
    pub fn add(&mut self, tid: ThreadId, tcbs: &TcbTable) {
        debug_assert!(!self.members.contains(&tid));
        self.members.push(tid);
        if tcbs.get(tid).is_ready() {
            self.ready += 1;
        }
    }

    /// Number of member tasks (ready + blocked).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if no tasks are registered.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// O(1): whether any member is ready (the CSD queue-skip check).
    pub fn has_ready(&self) -> bool {
        self.ready > 0
    }

    /// Accounts a member blocking: one TCB write and a counter
    /// decrement.
    pub fn on_block(&mut self, _tid: ThreadId, cost: &CostModel) -> Duration {
        debug_assert!(self.ready > 0, "block with no ready members");
        self.ready -= 1;
        cost.edf_block
    }

    /// Accounts a member unblocking.
    pub fn on_unblock(&mut self, _tid: ThreadId, cost: &CostModel) -> Duration {
        self.ready += 1;
        debug_assert!(self.ready <= self.members.len());
        cost.edf_unblock
    }

    /// Walks the whole queue and picks the earliest-effective-deadline
    /// ready task (ties: higher RM priority, then lower id, for
    /// determinism). Charges the fixed cost plus one unit per node
    /// visited — the full length, as in the measured 1.2 + 0.25 n µs.
    pub fn select(&self, tcbs: &TcbTable, cost: &CostModel) -> (Option<ThreadId>, Duration) {
        let mut charge = cost.edf_select_fixed;
        let mut best: Option<ThreadId> = None;
        for &tid in &self.members {
            charge += cost.edf_select_per_node;
            let t = tcbs.get(tid);
            if !t.is_ready() {
                continue;
            }
            best = match best {
                None => Some(tid),
                Some(b) => {
                    let bt = tcbs.get(b);
                    let key_t = (t.effective_deadline(), t.rm_prio, t.id.0);
                    let key_b = (bt.effective_deadline(), bt.rm_prio, bt.id.0);
                    if key_t < key_b {
                        Some(tid)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        (best, charge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::Script;
    use crate::tcb::{QueueAssign, Tcb, ThreadState, Timing};
    use emeralds_sim::{ProcId, Time};

    fn table(n: u32) -> TcbTable {
        let mut t = TcbTable::new();
        for i in 0..n {
            let mut tcb = Tcb::new(
                ThreadId(i),
                ProcId(0),
                Timing::Periodic {
                    period: Duration::from_ms(10 + i as u64),
                    deadline: Duration::from_ms(10 + i as u64),
                    phase: Duration::ZERO,
                },
                Script::compute_only(Duration::from_ms(1)),
                i,
                QueueAssign::Dp(0),
            );
            tcb.state = ThreadState::Ready;
            tcb.abs_deadline = Time::from_ms(100 - i as u64); // later ids = earlier deadlines
            t.insert(tcb);
        }
        t
    }

    fn build(tcbs: &TcbTable) -> EdfQueue {
        let mut q = EdfQueue::new();
        for i in 0..tcbs.len() {
            q.add(ThreadId(i as u32), tcbs);
        }
        q
    }

    #[test]
    fn selects_earliest_deadline_ready() {
        let tcbs = table(5);
        let q = build(&tcbs);
        let cost = CostModel::mc68040_25mhz();
        let (pick, charge) = q.select(&tcbs, &cost);
        assert_eq!(pick, Some(ThreadId(4))); // deadline 96ms, earliest
                                             // Full walk: 1.2 + 0.25 * 5 µs.
        assert_eq!(charge, Duration::from_us_f64(1.2 + 0.25 * 5.0));
    }

    #[test]
    fn block_unblock_are_o1_and_update_counter() {
        let mut tcbs = table(3);
        let mut q = build(&tcbs);
        let cost = CostModel::mc68040_25mhz();
        assert!(q.has_ready());
        tcbs.get_mut(ThreadId(2)).state = ThreadState::Blocked(crate::tcb::BlockReason::EndOfJob);
        let c = q.on_block(ThreadId(2), &cost);
        assert_eq!(c, Duration::from_us_f64(1.6));
        let (pick, _) = q.select(&tcbs, &cost);
        assert_eq!(pick, Some(ThreadId(1)));
        tcbs.get_mut(ThreadId(2)).state = ThreadState::Ready;
        let c = q.on_unblock(ThreadId(2), &cost);
        assert_eq!(c, Duration::from_us_f64(1.2));
        assert!(q.has_ready());
    }

    #[test]
    fn empty_selection_still_charges_walk() {
        let mut tcbs = table(4);
        let mut q = build(&tcbs);
        let cost = CostModel::mc68040_25mhz();
        for i in 0..4 {
            tcbs.get_mut(ThreadId(i)).state =
                ThreadState::Blocked(crate::tcb::BlockReason::EndOfJob);
            q.on_block(ThreadId(i), &cost);
        }
        assert!(!q.has_ready());
        let (pick, charge) = q.select(&tcbs, &cost);
        assert_eq!(pick, None);
        assert_eq!(charge, Duration::from_us_f64(1.2 + 0.25 * 4.0));
    }

    #[test]
    fn inherited_deadline_changes_selection() {
        let mut tcbs = table(2);
        let q = build(&tcbs);
        let cost = CostModel::mc68040_25mhz();
        // T0 deadline 100ms, T1 deadline 99ms; inherit 1ms into T0.
        tcbs.get_mut(ThreadId(0)).inherited_deadline = Some(Time::from_ms(1));
        let (pick, _) = q.select(&tcbs, &cost);
        assert_eq!(pick, Some(ThreadId(0)));
    }

    #[test]
    fn deadline_ties_break_by_rm_priority_then_id() {
        let mut tcbs = table(3);
        let q = build(&tcbs);
        let cost = CostModel::mc68040_25mhz();
        for i in 0..3 {
            tcbs.get_mut(ThreadId(i)).abs_deadline = Time::from_ms(50);
        }
        let (pick, _) = q.select(&tcbs, &cost);
        assert_eq!(pick, Some(ThreadId(0))); // lowest rm_prio wins ties
    }
}
