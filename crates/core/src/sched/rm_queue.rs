//! The RM scheduler: one priority-sorted queue with `highestp` (§5.1).
//!
//! "All (blocked and unblocked) tasks are kept in a queue sorted by
//! task priority. A pointer `highestp` points to the first
//! (highest-priority) task on the queue that is ready to execute, so
//! `t_s` is O(1). Blocking a task requires modifying the TCB and
//! setting `highestp` to the next ready task [O(n) scan]. Unblocking
//! only requires updating the TCB and comparing the task's priority
//! with that of the one pointed to by `highestp` [O(1)]."
//!
//! Keeping blocked tasks *in* the queue is what §6.2's placeholder
//! trick exploits: a blocked waiter can sit at any position, acting as
//! a bookmark for the priority the lock holder will return to.

use emeralds_hal::CostModel;
use emeralds_sim::{Duration, ThreadId};

use crate::tcb::TcbTable;

/// The sorted fixed-priority queue.
#[derive(Debug, Default)]
pub struct RmQueue {
    /// Task ids ordered by current (possibly inherited) priority,
    /// highest first. Contains ready *and* blocked tasks.
    slots: Vec<ThreadId>,
    /// Index of the highest-priority ready task; `slots.len()` when no
    /// task is ready.
    highestp: usize,
}

impl RmQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        RmQueue::default()
    }

    /// Registers a task at its base-priority position.
    pub fn add(&mut self, tid: ThreadId, tcbs: &mut TcbTable) {
        debug_assert!(!self.slots.contains(&tid));
        let prio = tcbs.get(tid).rm_prio;
        let pos = self
            .slots
            .iter()
            .position(|&t| tcbs.get(t).rm_prio > prio)
            .unwrap_or(self.slots.len());
        self.slots.insert(pos, tid);
        self.reindex(tcbs, pos);
        self.recompute_highestp(tcbs);
    }

    fn reindex(&self, tcbs: &mut TcbTable, from: usize) {
        for (i, &t) in self.slots.iter().enumerate().skip(from) {
            tcbs.get_mut(t).fp_slot = i as u32;
        }
    }

    fn recompute_highestp(&mut self, tcbs: &TcbTable) {
        self.highestp = self
            .slots
            .iter()
            .position(|&t| tcbs.get(t).is_ready())
            .unwrap_or(self.slots.len());
    }

    /// Number of member tasks.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no tasks are registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// O(1): whether any member is ready.
    pub fn has_ready(&self) -> bool {
        self.highestp < self.slots.len()
    }

    /// Accounts a member blocking. If the blocker owned `highestp`,
    /// scans forward for the next ready task, charging per node
    /// visited (the 1.0 + 0.36 n µs of Table 1).
    pub fn on_block(&mut self, tid: ThreadId, tcbs: &TcbTable, cost: &CostModel) -> Duration {
        let mut charge = cost.rmq_block_fixed;
        let slot = slot_of(tcbs, tid);
        debug_assert_eq!(self.slots.get(slot), Some(&tid), "stale fp_slot");
        if slot == self.highestp {
            // Scan for the next ready task below.
            let mut i = slot + 1;
            while i < self.slots.len() {
                charge += cost.rmq_block_per_node;
                if tcbs.get(self.slots[i]).is_ready() {
                    break;
                }
                i += 1;
            }
            self.highestp = i;
        }
        // Blocking a task below highestp needs no scan; blocking one
        // above is impossible (it would have been highestp).
        charge
    }

    /// Accounts a member unblocking: one TCB write plus one compare
    /// against `highestp`.
    pub fn on_unblock(&mut self, tid: ThreadId, tcbs: &TcbTable, cost: &CostModel) -> Duration {
        let slot = slot_of(tcbs, tid);
        debug_assert_eq!(self.slots.get(slot), Some(&tid), "stale fp_slot");
        if slot < self.highestp {
            self.highestp = slot;
        }
        cost.rmq_unblock
    }

    /// O(1) selection: dereference `highestp`.
    pub fn select(&self, cost: &CostModel) -> (Option<ThreadId>, Duration) {
        (self.slots.get(self.highestp).copied(), cost.rmq_select)
    }

    /// Standard priority inheritance (§6.1): remove `holder` and
    /// reinsert it directly ahead of `donor`, charging the walk from
    /// the queue head to the insertion point.
    pub fn pi_raise_standard(
        &mut self,
        holder: ThreadId,
        donor: ThreadId,
        tcbs: &mut TcbTable,
        cost: &CostModel,
    ) -> Duration {
        let from = slot_of(tcbs, holder);
        let to = slot_of(tcbs, donor);
        debug_assert_eq!(self.slots[from], holder);
        debug_assert_eq!(self.slots[to], donor);
        if to >= from {
            // Holder already at or above the donor's priority.
            return cost.pi_fp_fixed;
        }
        self.slots.remove(from);
        self.slots.insert(to, holder);
        self.reindex(tcbs, to.min(from));
        self.recompute_highestp(tcbs);
        // A singly-linked sorted queue walks to the node to unlink it
        // and walks again to the insertion point.
        cost.pi_fp_fixed + cost.pi_fp_per_node * (from + to) as u64
    }

    /// Standard priority restoration: walk to the holder's
    /// base-priority position and reinsert it there.
    pub fn pi_restore_standard(
        &mut self,
        holder: ThreadId,
        tcbs: &mut TcbTable,
        cost: &CostModel,
    ) -> Duration {
        let from = slot_of(tcbs, holder);
        debug_assert_eq!(self.slots[from], holder);
        let prio = tcbs.get(holder).rm_prio;
        self.slots.remove(from);
        // Walk from the head to the first strictly-lower-priority
        // task; ties keep base (creation) order.
        let to = self
            .slots
            .iter()
            .position(|&t| tcbs.get(t).rm_prio > prio)
            .unwrap_or(self.slots.len());
        self.slots.insert(to, holder);
        self.reindex(tcbs, to.min(from));
        self.recompute_highestp(tcbs);
        cost.pi_fp_fixed + cost.pi_fp_per_node * (from + to) as u64
    }

    /// EMERALDS placeholder swap (§6.2): exchange the slots of `a`
    /// (the lock holder) and `b` (the donor/placeholder) in O(1).
    pub fn pi_swap(
        &mut self,
        a: ThreadId,
        b: ThreadId,
        tcbs: &mut TcbTable,
        cost: &CostModel,
    ) -> Duration {
        let ia = slot_of(tcbs, a);
        let ib = slot_of(tcbs, b);
        debug_assert_eq!(self.slots[ia], a);
        debug_assert_eq!(self.slots[ib], b);
        self.slots.swap(ia, ib);
        tcbs.get_mut(a).fp_slot = ib as u32;
        tcbs.get_mut(b).fp_slot = ia as u32;
        // The swap can move a ready task above highestp (the holder
        // rising) — the O(1) compare mirrors the unblock path.
        let min_slot = ia.min(ib);
        if min_slot < self.highestp && tcbs.get(self.slots[min_slot]).is_ready() {
            self.highestp = min_slot;
        } else if self.highestp == min_slot && !tcbs.get(self.slots[min_slot]).is_ready() {
            self.recompute_highestp(tcbs);
        }
        cost.pi_fp_swap
    }

    /// The queue order (for tests and the experiment harness).
    pub fn order(&self) -> &[ThreadId] {
        &self.slots
    }
}

/// A member's slot in the queue, as the TCB records it.
fn slot_of(tcbs: &TcbTable, tid: ThreadId) -> usize {
    tcbs.get(tid).fp_slot as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::Script;
    use crate::tcb::{BlockReason, QueueAssign, Tcb, ThreadState, Timing};
    use emeralds_sim::{ProcId, Time};

    /// n ready tasks, rm_prio = id.
    fn setup(n: u32) -> (TcbTable, RmQueue) {
        let mut tcbs = TcbTable::new();
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
                QueueAssign::Fp,
            );
            tcb.state = ThreadState::Ready;
            tcb.abs_deadline = Time::from_ms(10);
            tcbs.insert(tcb);
        }
        let mut q = RmQueue::new();
        for i in 0..n {
            q.add(ThreadId(i), &mut tcbs);
        }
        (tcbs, q)
    }

    fn block(q: &mut RmQueue, tcbs: &mut TcbTable, tid: ThreadId, cost: &CostModel) -> Duration {
        tcbs.get_mut(tid).state = ThreadState::Blocked(BlockReason::EndOfJob);
        q.on_block(tid, tcbs, cost)
    }

    fn unblock(q: &mut RmQueue, tcbs: &mut TcbTable, tid: ThreadId, cost: &CostModel) -> Duration {
        tcbs.get_mut(tid).state = ThreadState::Ready;
        q.on_unblock(tid, tcbs, cost)
    }

    #[test]
    fn select_is_highest_priority_ready() {
        let (tcbs, q) = setup(4);
        let cost = CostModel::mc68040_25mhz();
        let (pick, charge) = q.select(&cost);
        assert_eq!(pick, Some(ThreadId(0)));
        assert_eq!(charge, Duration::from_us_f64(0.6));
        let _ = tcbs;
    }

    #[test]
    fn blocking_head_scans_to_next_ready() {
        let (mut tcbs, mut q) = setup(5);
        let cost = CostModel::mc68040_25mhz();
        // Block T1 and T2 below the head first (no scan: not highestp).
        let c = block(&mut q, &mut tcbs, ThreadId(1), &cost);
        assert_eq!(c, cost.rmq_block_fixed);
        let c = block(&mut q, &mut tcbs, ThreadId(2), &cost);
        assert_eq!(c, cost.rmq_block_fixed);
        // Now block the head: scan passes T1, T2 (blocked) and stops
        // at T3 → 3 nodes.
        let c = block(&mut q, &mut tcbs, ThreadId(0), &cost);
        assert_eq!(c, cost.rmq_block_fixed + cost.rmq_block_per_node * 3);
        assert_eq!(q.select(&cost).0, Some(ThreadId(3)));
    }

    #[test]
    fn unblock_is_one_compare() {
        let (mut tcbs, mut q) = setup(3);
        let cost = CostModel::mc68040_25mhz();
        block(&mut q, &mut tcbs, ThreadId(0), &cost);
        assert_eq!(q.select(&cost).0, Some(ThreadId(1)));
        let c = unblock(&mut q, &mut tcbs, ThreadId(0), &cost);
        assert_eq!(c, cost.rmq_unblock);
        assert_eq!(q.select(&cost).0, Some(ThreadId(0)));
    }

    #[test]
    fn all_blocked_selects_none() {
        let (mut tcbs, mut q) = setup(2);
        let cost = CostModel::mc68040_25mhz();
        block(&mut q, &mut tcbs, ThreadId(0), &cost);
        block(&mut q, &mut tcbs, ThreadId(1), &cost);
        assert!(!q.has_ready());
        assert_eq!(q.select(&cost).0, None);
    }

    #[test]
    fn standard_pi_moves_holder_ahead_of_donor() {
        let (mut tcbs, mut q) = setup(5);
        let cost = CostModel::mc68040_25mhz();
        // T4 (lowest) inherits T1's priority: reinserted at slot 1.
        let c = q.pi_raise_standard(ThreadId(4), ThreadId(1), &mut tcbs, &cost);
        assert_eq!(
            q.order(),
            &[
                ThreadId(0),
                ThreadId(4),
                ThreadId(1),
                ThreadId(2),
                ThreadId(3)
            ]
        );
        // Unlink walk (slot 4) + insert walk (slot 1).
        assert_eq!(c, cost.pi_fp_fixed + cost.pi_fp_per_node * 5);
        // Restore: T4 walks back to the tail.
        let c = q.pi_restore_standard(ThreadId(4), &mut tcbs, &cost);
        assert_eq!(
            q.order(),
            &[
                ThreadId(0),
                ThreadId(1),
                ThreadId(2),
                ThreadId(3),
                ThreadId(4)
            ]
        );
        assert_eq!(c, cost.pi_fp_fixed + cost.pi_fp_per_node * 5);
    }

    #[test]
    fn placeholder_swap_is_o1_and_reversible() {
        let (mut tcbs, mut q) = setup(4);
        let cost = CostModel::mc68040_25mhz();
        // Donor T1 blocks on the sem held by T3, then swap.
        tcbs.get_mut(ThreadId(1)).state =
            ThreadState::Blocked(BlockReason::Sem(emeralds_sim::SemId(0)));
        q.on_block(ThreadId(1), &tcbs, &cost);
        let c = q.pi_swap(ThreadId(3), ThreadId(1), &mut tcbs, &cost);
        assert_eq!(c, cost.pi_fp_swap);
        assert_eq!(
            q.order(),
            &[ThreadId(0), ThreadId(3), ThreadId(2), ThreadId(1)]
        );
        assert_eq!(tcbs.get(ThreadId(3)).fp_slot, 1);
        assert_eq!(tcbs.get(ThreadId(1)).fp_slot, 3);
        // Swap back on release.
        q.pi_swap(ThreadId(3), ThreadId(1), &mut tcbs, &cost);
        assert_eq!(
            q.order(),
            &[ThreadId(0), ThreadId(1), ThreadId(2), ThreadId(3)]
        );
    }

    #[test]
    fn swap_updates_highestp_when_holder_rises() {
        let (mut tcbs, mut q) = setup(4);
        let cost = CostModel::mc68040_25mhz();
        // Block T0 and T1; highestp = T2.
        block(&mut q, &mut tcbs, ThreadId(0), &cost);
        block(&mut q, &mut tcbs, ThreadId(1), &cost);
        assert_eq!(q.select(&cost).0, Some(ThreadId(2)));
        // T3 (ready, lowest) swaps with blocked placeholder T1 at slot 1.
        q.pi_swap(ThreadId(3), ThreadId(1), &mut tcbs, &cost);
        assert_eq!(q.select(&cost).0, Some(ThreadId(3)));
    }

    #[test]
    fn raise_when_already_above_is_noop() {
        let (mut tcbs, mut q) = setup(3);
        let cost = CostModel::mc68040_25mhz();
        let before = q.order().to_vec();
        let c = q.pi_raise_standard(ThreadId(0), ThreadId(2), &mut tcbs, &cost);
        assert_eq!(c, cost.pi_fp_fixed);
        assert_eq!(q.order(), &before[..]);
    }
}
