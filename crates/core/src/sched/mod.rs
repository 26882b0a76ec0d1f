//! The scheduler framework: EDF, RM (queue and heap), and CSD.
//!
//! Every implementation operates on *real* queue structures and
//! returns the virtual-time cost of the operations it actually
//! performed, priced by the [`CostModel`]. The Table 1 formulas are
//! therefore the *worst case* of what these methods charge, and the
//! CSD overheads of Table 3 emerge from the queue walks the code
//! really does.

use emeralds_hal::CostModel;
use emeralds_sim::{Duration, ThreadId};

use crate::tcb::{QueueAssign, TcbTable};

pub mod csd;
pub mod edf;
pub mod rm_heap;
pub mod rm_queue;

pub use csd::CsdSched;
pub use edf::EdfQueue;
pub use rm_heap::RmHeap;
pub use rm_queue::RmQueue;

/// Scheduler selection for a kernel instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Pure EDF: one unsorted queue of all tasks (§5.1).
    Edf,
    /// Pure RM: one priority-sorted queue of all tasks with a
    /// `highestp` pointer (§5.1).
    RmQueue,
    /// Deadline-monotonic: the same sorted queue, but priorities come
    /// from relative deadlines (§5.3 names DM as an admissible
    /// fixed-priority policy; optimal for constrained deadlines).
    DmQueue,
    /// Pure RM over a sorted heap of ready tasks (Table 1, column 3).
    RmHeap,
    /// CSD-x: `boundaries` split the RM-ordered task list into DP
    /// queues; the remainder is FP (§5.3–§5.6).
    Csd { boundaries: Vec<usize> },
}

impl SchedPolicy {
    /// The queue a task with RM index `rm_prio` is assigned to.
    pub fn queue_of(&self, rm_prio: u32) -> QueueAssign {
        match self {
            SchedPolicy::Edf => QueueAssign::Dp(0),
            SchedPolicy::RmQueue | SchedPolicy::DmQueue | SchedPolicy::RmHeap => QueueAssign::Fp,
            SchedPolicy::Csd { boundaries } => {
                for (j, &b) in boundaries.iter().enumerate() {
                    if (rm_prio as usize) < b {
                        return QueueAssign::Dp(j);
                    }
                }
                QueueAssign::Fp
            }
        }
    }
}

/// Unified scheduler interface (enum dispatch; no dyn in the kernel's
/// hot path, mirroring the original's direct calls).
#[derive(Debug)]
pub enum SchedulerImpl {
    Edf(EdfQueue),
    Rm(RmQueue),
    RmHeap(RmHeap),
    Csd(CsdSched),
}

impl SchedulerImpl {
    /// Builds the scheduler for `policy`.
    pub fn new(policy: &SchedPolicy) -> SchedulerImpl {
        match policy {
            SchedPolicy::Edf => SchedulerImpl::Edf(EdfQueue::new()),
            SchedPolicy::RmQueue | SchedPolicy::DmQueue => SchedulerImpl::Rm(RmQueue::new()),
            SchedPolicy::RmHeap => SchedulerImpl::RmHeap(RmHeap::new()),
            SchedPolicy::Csd { boundaries } => SchedulerImpl::Csd(CsdSched::new(boundaries.len())),
        }
    }

    /// Registers a task (at kernel build time).
    pub fn add_task(&mut self, tid: ThreadId, tcbs: &mut TcbTable) {
        match self {
            SchedulerImpl::Edf(q) => q.add(tid, tcbs),
            SchedulerImpl::Rm(q) => q.add(tid, tcbs),
            SchedulerImpl::RmHeap(h) => h.add(tid, tcbs),
            SchedulerImpl::Csd(c) => c.add(tid, tcbs),
        }
    }

    /// Accounts a Ready → Blocked transition (the TCB state is already
    /// updated by the kernel). Returns the charge for `t_b`.
    pub fn on_block(&mut self, tid: ThreadId, tcbs: &mut TcbTable, cost: &CostModel) -> Duration {
        match self {
            SchedulerImpl::Edf(q) => q.on_block(tid, cost),
            SchedulerImpl::Rm(q) => q.on_block(tid, tcbs, cost),
            SchedulerImpl::RmHeap(h) => h.on_block(tid, tcbs, cost),
            SchedulerImpl::Csd(c) => c.on_block(tid, tcbs, cost),
        }
    }

    /// Accounts a Blocked → Ready transition. Returns the charge for
    /// `t_u`.
    pub fn on_unblock(&mut self, tid: ThreadId, tcbs: &mut TcbTable, cost: &CostModel) -> Duration {
        match self {
            SchedulerImpl::Edf(q) => q.on_unblock(tid, cost),
            SchedulerImpl::Rm(q) => q.on_unblock(tid, tcbs, cost),
            SchedulerImpl::RmHeap(h) => h.on_unblock(tid, tcbs, cost),
            SchedulerImpl::Csd(c) => c.on_unblock(tid, tcbs, cost),
        }
    }

    /// Picks the next task to run. Returns the pick and the charge for
    /// `t_s`.
    pub fn select(&self, tcbs: &TcbTable, cost: &CostModel) -> (Option<ThreadId>, Duration) {
        match self {
            SchedulerImpl::Edf(q) => q.select(tcbs, cost),
            SchedulerImpl::Rm(q) => q.select(cost),
            SchedulerImpl::RmHeap(h) => h.select(cost),
            SchedulerImpl::Csd(c) => c.select(tcbs, cost),
        }
    }

    /// Raises `holder` to `donor`'s priority using the *standard*
    /// remove-and-reinsert walk (only meaningful for FP queues; EDF
    /// tasks inherit deadlines O(1) in the TCB). Returns the charge.
    pub fn pi_raise_standard(
        &mut self,
        holder: ThreadId,
        donor: ThreadId,
        tcbs: &mut TcbTable,
        cost: &CostModel,
    ) -> Duration {
        match self {
            SchedulerImpl::Rm(q) => q.pi_raise_standard(holder, donor, tcbs, cost),
            SchedulerImpl::Csd(c) => c.fp_mut().pi_raise_standard(holder, donor, tcbs, cost),
            // EDF / heap configurations: deadline inheritance, O(1).
            _ => cost.pi_dp_fixed,
        }
    }

    /// Returns `holder` to its base position with the *standard* walk.
    pub fn pi_restore_standard(
        &mut self,
        holder: ThreadId,
        tcbs: &mut TcbTable,
        cost: &CostModel,
    ) -> Duration {
        match self {
            SchedulerImpl::Rm(q) => q.pi_restore_standard(holder, tcbs, cost),
            SchedulerImpl::Csd(c) => c.fp_mut().pi_restore_standard(holder, tcbs, cost),
            _ => cost.pi_dp_fixed,
        }
    }

    /// EMERALDS O(1) placeholder swap (§6.2): exchanges the FP-queue
    /// slots of `a` and `b`. Returns the charge.
    pub fn pi_swap(
        &mut self,
        a: ThreadId,
        b: ThreadId,
        tcbs: &mut TcbTable,
        cost: &CostModel,
    ) -> Duration {
        match self {
            SchedulerImpl::Rm(q) => q.pi_swap(a, b, tcbs, cost),
            SchedulerImpl::Csd(c) => c.fp_mut().pi_swap(a, b, tcbs, cost),
            _ => cost.pi_dp_fixed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_queue_assignment() {
        let p = SchedPolicy::Csd {
            boundaries: vec![3, 6],
        };
        assert_eq!(p.queue_of(0), QueueAssign::Dp(0));
        assert_eq!(p.queue_of(2), QueueAssign::Dp(0));
        assert_eq!(p.queue_of(3), QueueAssign::Dp(1));
        assert_eq!(p.queue_of(5), QueueAssign::Dp(1));
        assert_eq!(p.queue_of(6), QueueAssign::Fp);
        assert_eq!(SchedPolicy::Edf.queue_of(9), QueueAssign::Dp(0));
        assert_eq!(SchedPolicy::RmQueue.queue_of(0), QueueAssign::Fp);
    }
}
