//! Condition variables (§3: "semaphores and condition variables for
//! synchronization, with priority inheritance").
//!
//! `cond_wait(cv, mutex)` atomically releases the mutex and blocks on
//! the condition; `cond_signal` moves one waiter to the mutex
//! acquisition path (it re-acquires before returning, inheriting
//! priority if contended). The kernel orchestrates the release and
//! re-acquire; this type only holds the wait queue.

use emeralds_sim::{CvId, ThreadId};

/// A condition variable. The mutex a waiter re-acquires is the guard
/// its `CondWait` action names, so the queue holds only the waiters.
#[derive(Clone, Debug)]
pub struct CondVar {
    pub id: CvId,
    /// Waiters in signal order (priority-ordered at insertion).
    pub waiters: Vec<ThreadId>,
}

impl CondVar {
    /// Creates a condition variable.
    pub fn new(id: CvId) -> CondVar {
        CondVar {
            id,
            waiters: Vec::new(),
        }
    }

    /// Removes and returns the highest-priority waiter.
    pub fn pop(&mut self) -> Option<ThreadId> {
        (!self.waiters.is_empty()).then(|| self.waiters.remove(0))
    }

    /// Number of waiters.
    pub fn len(&self) -> usize {
        self.waiters.len()
    }

    /// True if nobody waits.
    pub fn is_empty(&self) -> bool {
        self.waiters.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_takes_the_head_waiter() {
        let mut cv = CondVar::new(CvId(0));
        // The kernel parks waiters in priority order.
        cv.waiters = vec![ThreadId(1), ThreadId(2), ThreadId(0)];
        assert_eq!(cv.len(), 3);
        assert_eq!(cv.pop(), Some(ThreadId(1)));
        assert_eq!(cv.pop(), Some(ThreadId(2)));
        assert_eq!(cv.pop(), Some(ThreadId(0)));
        assert!(cv.is_empty());
        assert_eq!(cv.pop(), None);
    }
}
