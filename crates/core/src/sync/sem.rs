//! Semaphores with priority inheritance (§6).
//!
//! EMERALDS provides *full* semaphore semantics — no relaxation — and
//! gets its speedup from two implementation ideas:
//!
//! 1. **Context-switch elimination** (§6.2): the blocking call
//!    preceding `acquire_sem()` carries the identifier of the
//!    semaphore about to be locked (inserted by the code parser,
//!    §6.2.1). When the kernel is about to unblock a thread whose next
//!    lock target is already held, it performs priority inheritance
//!    *early* and leaves the thread blocked on the semaphore, so the
//!    wake → run → block → switch sequence collapses into a single
//!    switch to the lock holder.
//! 2. **O(1) priority inheritance on the FP queue** (§6.2): the holder
//!    is inserted directly ahead of the donor (no walk), and the
//!    *blocked donor itself* acts as a placeholder marking the
//!    holder's original position, so restoration is a second O(1)
//!    swap. A third thread with higher priority replaces the
//!    placeholder (§6.2, "one extra step").
//!
//! The §6.3.1 modification adds a *pre-lock queue* per semaphore:
//! threads past their pre-acquire blocking call but not yet holding
//! the lock. When one of them locks, the rest are blocked; when the
//! lock is released they are released too. This turns "case B"
//! (higher-priority thread takes the lock first) into "case A".

use emeralds_sim::{SemId, ThreadId};

/// Which locking protocol a kernel runs — the §6 ablation switch.
/// `Standard` and `Emeralds` are the two priority-inheritance schemes;
/// `Srp` replaces inheritance with ceiling admission. The kernel reads
/// it at three dispatch points: the bodies of `acquire_sem()` and
/// `release_sem()`, and the wake decision of a completing blocking
/// call (see [`crate::sync::policy`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SemScheme {
    /// Textbook PI semaphore: inheritance on `acquire`, full queue
    /// walks for FP repositioning, two context switches per contended
    /// acquire/release pair (§6.1).
    Standard,
    /// The EMERALDS scheme described above.
    Emeralds,
    /// Stack Resource Policy: static resource ceilings computed at
    /// build time and admission at wake, so `acquire` never blocks.
    /// The build rejects resource graphs the ceiling analysis cannot
    /// vouch for (see [`crate::kernel::ConfigError`]).
    Srp,
}

/// A kernel semaphore (binary mutex or counting).
#[derive(Clone, Debug)]
pub struct Semaphore {
    pub id: SemId,
    /// Remaining permits.
    pub count: u32,
    pub max_count: u32,
    /// Current holder (mutex mode only; counting semaphores do not do
    /// priority inheritance).
    pub holder: Option<ThreadId>,
    /// Blocked waiters in grant order (kernel keeps this sorted by
    /// priority key at insertion).
    pub waiters: Vec<ThreadId>,
    /// §6.3.1 pre-lock queue: threads whose pre-acquire blocking call
    /// has completed but which do not hold the lock yet. The `bool`
    /// marks members the kernel has re-blocked because another member
    /// took the lock.
    pub prelock: Vec<(ThreadId, bool)>,
    /// The donor currently acting as the holder's FP-queue placeholder
    /// (EMERALDS scheme).
    pub placeholder: Option<ThreadId>,
    /// Set while the holder runs with an inherited priority (used to
    /// undo inheritance exactly once).
    pub inherited: bool,
    /// Created as a mutex: it has a holder and priority inheritance. A
    /// counting semaphore with one permit is still a counting
    /// semaphore.
    mutex: bool,
}

impl Semaphore {
    /// Creates a mutex (binary semaphore with PI).
    pub fn mutex(id: SemId) -> Semaphore {
        Semaphore {
            id,
            count: 1,
            max_count: 1,
            holder: None,
            waiters: Vec::new(),
            prelock: Vec::new(),
            placeholder: None,
            inherited: false,
            mutex: true,
        }
    }

    /// Creates a counting semaphore with `permits` initial permits.
    /// The kernel builder rejects zero permits.
    pub fn counting(id: SemId, permits: u32) -> Semaphore {
        Semaphore {
            id,
            count: permits,
            max_count: permits,
            holder: None,
            waiters: Vec::new(),
            prelock: Vec::new(),
            placeholder: None,
            inherited: false,
            mutex: false,
        }
    }

    /// True for semaphores created as mutexes (PI applies).
    pub fn is_mutex(&self) -> bool {
        self.mutex
    }

    /// True if a permit is available.
    pub fn available(&self) -> bool {
        self.count > 0
    }

    /// Takes a permit.
    ///
    /// # Panics
    ///
    /// Panics if none is available (the kernel checks first).
    pub fn take(&mut self, tid: ThreadId) {
        assert!(self.count > 0, "{}: no permit available", self.id);
        self.count -= 1;
        if self.is_mutex() {
            self.holder = Some(tid);
        }
    }

    /// Returns a permit (mutex: clears the holder).
    ///
    /// # Panics
    ///
    /// Panics on over-release (count would exceed the maximum).
    pub fn put(&mut self) {
        assert!(self.count < self.max_count, "{}: over-release", self.id);
        self.count += 1;
        self.holder = None;
    }

    /// Removes and returns the highest-priority waiter.
    pub fn pop_waiter(&mut self) -> Option<ThreadId> {
        if self.waiters.is_empty() {
            None
        } else {
            Some(self.waiters.remove(0))
        }
    }

    /// Adds a thread to the pre-lock queue (not yet re-blocked).
    pub fn prelock_add(&mut self, tid: ThreadId) {
        if !self.prelock.iter().any(|&(t, _)| t == tid) {
            self.prelock.push((tid, false));
        }
    }

    /// Removes a thread from the pre-lock queue (it acquired the lock
    /// or moved on to a different call).
    pub fn prelock_remove(&mut self, tid: ThreadId) {
        self.prelock.retain(|&(t, _)| t != tid);
    }

    /// True if `tid` is in the pre-lock queue.
    pub fn in_prelock(&self, tid: ThreadId) -> bool {
        self.prelock.iter().any(|&(t, _)| t == tid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_take_put_cycle() {
        let mut s = Semaphore::mutex(SemId(0));
        assert!(s.available());
        s.take(ThreadId(1));
        assert!(!s.available());
        assert_eq!(s.holder, Some(ThreadId(1)));
        s.put();
        assert!(s.available());
        assert_eq!(s.holder, None);
    }

    #[test]
    #[should_panic(expected = "over-release")]
    fn over_release_panics() {
        let mut s = Semaphore::mutex(SemId(0));
        s.put();
    }

    #[test]
    fn counting_semaphore_permits() {
        let mut s = Semaphore::counting(SemId(1), 3);
        assert!(!s.is_mutex());
        s.take(ThreadId(0));
        s.take(ThreadId(1));
        assert!(s.available());
        s.take(ThreadId(2));
        assert!(!s.available());
        s.put();
        assert!(s.available());
    }

    #[test]
    fn prelock_membership() {
        let mut s = Semaphore::mutex(SemId(0));
        s.prelock_add(ThreadId(7));
        s.prelock_add(ThreadId(7)); // idempotent
        assert!(s.in_prelock(ThreadId(7)));
        assert_eq!(s.prelock.len(), 1);
        s.prelock_remove(ThreadId(7));
        assert!(!s.in_prelock(ThreadId(7)));
    }
}
