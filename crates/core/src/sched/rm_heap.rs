//! RM over a sorted heap (Table 1, third column).
//!
//! The paper measures this implementation only to *reject* it: a heap
//! of ready tasks gives O(log n) block/unblock, but its constants are
//! so much larger (2.8 µs per level vs 0.36 µs per scanned node) that
//! the plain sorted queue wins "unless n is very large (58 in this
//! case)". We keep it for the Table 1 reproduction and as an ablation.

use emeralds_hal::CostModel;
use emeralds_sim::{Duration, ThreadId};

use crate::tcb::TcbTable;

fn prio(tcbs: &TcbTable, tid: ThreadId) -> u32 {
    tcbs.get(tid).rm_prio
}

/// A binary min-heap of *ready* tasks keyed by RM priority.
#[derive(Debug, Default)]
pub struct RmHeap {
    heap: Vec<ThreadId>,
    /// `pos[tid] = index` into `heap`, or `usize::MAX` when absent.
    pos: Vec<usize>,
    /// Total member count (ready + blocked) for worst-case reporting.
    members: usize,
}

impl RmHeap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        RmHeap::default()
    }

    fn set_pos(&mut self, tid: ThreadId, p: usize) {
        let idx = tid.index();
        if self.pos.len() <= idx {
            self.pos.resize(idx + 1, usize::MAX);
        }
        self.pos[idx] = p;
    }

    fn get_pos(&self, tid: ThreadId) -> usize {
        self.pos.get(tid.index()).copied().unwrap_or(usize::MAX)
    }

    /// Registers a task; inserts it if ready.
    pub fn add(&mut self, tid: ThreadId, tcbs: &TcbTable) {
        self.members += 1;
        self.set_pos(tid, usize::MAX);
        if tcbs.get(tid).is_ready() {
            self.insert(tid, tcbs);
        }
    }

    /// Sift-up insertion; returns levels traversed.
    fn insert(&mut self, tid: ThreadId, tcbs: &TcbTable) -> u64 {
        let mut i = self.heap.len();
        self.heap.push(tid);
        self.set_pos(tid, i);
        let mut levels = 0;
        while i > 0 {
            let parent = (i - 1) / 2;
            levels += 1;
            if prio(tcbs, self.heap[parent]) <= prio(tcbs, self.heap[i]) {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
        levels
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        let (ta, tb) = (self.heap[a], self.heap[b]);
        self.set_pos(ta, a);
        self.set_pos(tb, b);
    }

    /// Removes an arbitrary element; returns levels traversed.
    fn remove(&mut self, tid: ThreadId, tcbs: &TcbTable) -> u64 {
        let i = self.get_pos(tid);
        assert!(i != usize::MAX, "{tid} not in heap");
        let last = self.heap.len() - 1;
        self.swap(i, last);
        self.heap.pop();
        self.set_pos(tid, usize::MAX);
        let mut levels = 0;
        let mut i = i;
        if i < self.heap.len() {
            // Sift down.
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut smallest = i;
                if l < self.heap.len() && prio(tcbs, self.heap[l]) < prio(tcbs, self.heap[smallest])
                {
                    smallest = l;
                }
                if r < self.heap.len() && prio(tcbs, self.heap[r]) < prio(tcbs, self.heap[smallest])
                {
                    smallest = r;
                }
                if smallest == i {
                    break;
                }
                levels += 1;
                self.swap(i, smallest);
                i = smallest;
            }
            // Sift up (removal from the middle can need either).
            while i > 0 {
                let parent = (i - 1) / 2;
                if prio(tcbs, self.heap[parent]) <= prio(tcbs, self.heap[i]) {
                    break;
                }
                levels += 1;
                self.swap(i, parent);
                i = parent;
            }
        }
        levels
    }

    /// Accounts a member blocking: heap delete, charged per level.
    pub fn on_block(&mut self, tid: ThreadId, tcbs: &TcbTable, cost: &CostModel) -> Duration {
        let levels = self.remove(tid, tcbs);
        cost.rmh_block_fixed + cost.rmh_block_per_level * levels
    }

    /// Accounts a member unblocking: heap insert, charged per level.
    pub fn on_unblock(&mut self, tid: ThreadId, tcbs: &TcbTable, cost: &CostModel) -> Duration {
        let levels = self.insert(tid, tcbs);
        cost.rmh_unblock_fixed + cost.rmh_unblock_per_level * levels
    }

    /// O(1) selection: the heap root.
    pub fn select(&self, cost: &CostModel) -> (Option<ThreadId>, Duration) {
        (self.heap.first().copied(), cost.rmh_select)
    }

    /// O(1): whether any member is ready.
    pub fn has_ready(&self) -> bool {
        !self.heap.is_empty()
    }

    /// Total registered members (ready + blocked).
    pub fn len(&self) -> usize {
        self.members
    }

    /// True if no member is registered.
    pub fn is_empty(&self) -> bool {
        self.members == 0
    }

    /// Validates the heap property (test support).
    #[cfg(test)]
    fn check(&self, tcbs: &TcbTable) {
        for i in 1..self.heap.len() {
            let parent = (i - 1) / 2;
            assert!(
                prio(tcbs, self.heap[parent]) <= prio(tcbs, self.heap[i]),
                "heap property violated at {i}"
            );
        }
        for (idx, &p) in self.pos.iter().enumerate() {
            if p != usize::MAX {
                assert_eq!(self.heap[p].index(), idx, "stale pos");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::Script;
    use crate::tcb::{BlockReason, QueueAssign, Tcb, ThreadState, Timing};
    use emeralds_sim::{ProcId, SimRng};

    fn setup(n: u32) -> (TcbTable, RmHeap) {
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
            tcbs.insert(tcb);
        }
        let mut h = RmHeap::new();
        for i in 0..n {
            h.add(ThreadId(i), &tcbs);
        }
        (tcbs, h)
    }

    #[test]
    fn root_is_highest_priority() {
        let (_tcbs, h) = setup(10);
        let cost = CostModel::mc68040_25mhz();
        assert_eq!(h.select(&cost).0, Some(ThreadId(0)));
    }

    #[test]
    fn block_unblock_round_trip() {
        let (mut tcbs, mut h) = setup(6);
        let cost = CostModel::mc68040_25mhz();
        tcbs.get_mut(ThreadId(0)).state = ThreadState::Blocked(BlockReason::EndOfJob);
        h.on_block(ThreadId(0), &tcbs, &cost);
        h.check(&tcbs);
        assert_eq!(h.select(&cost).0, Some(ThreadId(1)));
        tcbs.get_mut(ThreadId(0)).state = ThreadState::Ready;
        h.on_unblock(ThreadId(0), &tcbs, &cost);
        h.check(&tcbs);
        assert_eq!(h.select(&cost).0, Some(ThreadId(0)));
    }

    #[test]
    fn charges_scale_with_depth() {
        let (mut tcbs, mut h) = setup(64);
        let cost = CostModel::mc68040_25mhz();
        // Removing the root of a 64-element heap sifts ~log2(64) levels.
        tcbs.get_mut(ThreadId(0)).state = ThreadState::Blocked(BlockReason::EndOfJob);
        let c = h.on_block(ThreadId(0), &tcbs, &cost);
        assert!(c >= cost.rmh_block_fixed + cost.rmh_block_per_level * 4);
        assert!(c <= cost.rmh_block_fixed + cost.rmh_block_per_level * 6);
    }

    #[test]
    fn random_operations_keep_heap_valid() {
        let (mut tcbs, mut h) = setup(32);
        let cost = CostModel::mc68040_25mhz();
        let mut rng = SimRng::seeded(42);
        let mut blocked = [false; 32];
        for _ in 0..1000 {
            let i = rng.index(32) as u32;
            let tid = ThreadId(i);
            if blocked[i as usize] {
                tcbs.get_mut(tid).state = ThreadState::Ready;
                h.on_unblock(tid, &tcbs, &cost);
            } else {
                tcbs.get_mut(tid).state = ThreadState::Blocked(BlockReason::EndOfJob);
                h.on_block(tid, &tcbs, &cost);
            }
            blocked[i as usize] = !blocked[i as usize];
            h.check(&tcbs);
            // Root is the minimum rm_prio among ready tasks.
            let expect = (0..32u32)
                .filter(|&k| !blocked[k as usize])
                .map(ThreadId)
                .min_by_key(|t| tcbs.get(*t).rm_prio);
            assert_eq!(h.select(&cost).0, expect);
        }
    }

    #[test]
    fn empty_heap_selects_none() {
        let (mut tcbs, mut h) = setup(2);
        let cost = CostModel::mc68040_25mhz();
        for i in 0..2 {
            tcbs.get_mut(ThreadId(i)).state = ThreadState::Blocked(BlockReason::EndOfJob);
            h.on_block(ThreadId(i), &tcbs, &cost);
        }
        assert!(!h.has_ready());
        assert_eq!(h.select(&cost).0, None);
        assert_eq!(h.len(), 2);
    }
}
