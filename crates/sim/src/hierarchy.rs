//! Two-level (hierarchical) conservative-lookahead execution, and the
//! only place the reproduction runs host threads.
//!
//! [`crate::run_epochs`] advances a flat set of nodes under one shared
//! lookahead window. A *bridged* topology — several bus segments joined
//! by store-and-forward gateways — has two very different interaction
//! latencies: nodes on one segment interact within one bus-frame time,
//! but traffic can only cross a gateway after its forwarding latency.
//! That gap is exploitable lookahead: each segment's sub-executive may
//! run an entire *inter-segment* epoch (one gateway latency) of its own
//! fine-grained *intra-segment* epochs without observing any input from
//! another segment.
//!
//! [`run_two_level`] is that composition: a fixed-cadence outer loop
//! over [`EpochGroup`]s (one per segment, each advanced in every outer
//! epoch), where each group's `advance_group` runs its own serial
//! [`crate::run_epochs`] loop, and the outer exchange moves frames
//! between groups at inter-segment barriers. The determinism argument
//! stacks: inner loops are serial per group and touch only group-local
//! state, groups share nothing between outer barriers, and the outer
//! exchange is serial in group order — so the result is bit-for-bit
//! identical for any outer worker count.
//!
//! With more than one worker the groups advance on scoped host
//! threads, which cross a hybrid spin-then-park barrier once per outer
//! epoch (a fused leader/follower crossing of `HybridBarrier`). A
//! segment's outer epoch carries a whole inner epoch loop, a coarser
//! grain than a single bus's few-microsecond node advances, which run
//! on the calling thread. With one worker no thread is spawned.
//!
//! The outer cadence is fixed: one barrier every `lookahead`. In a
//! gateway topology that lookahead must not exceed the cheapest
//! *surviving* forwarding path, which holds when it is the latency
//! minimum over every gateway, since a re-route can only shift traffic
//! onto paths at least that slow.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::cluster::EpochStats;
use crate::time::{Duration, Time};

/// A self-contained sub-executive (e.g. one bus segment and its nodes)
/// that can advance its own virtual clock to an inter-group barrier
/// without external input. Implementations must be deterministic: the
/// post-state may depend only on the pre-state and the horizon.
pub trait EpochGroup: Send {
    /// Advances the group's local clock to `horizon`, running its own
    /// inner epoch loop, and returns that loop's cost accounting.
    fn advance_group(&mut self, horizon: Time) -> EpochStats;
}

/// Cost accounting of one [`run_two_level`] call, split by level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TwoLevelStats {
    /// The outer (inter-group) engine: barriers are inter-group
    /// exchanges, serial nanoseconds are gateway-transfer time.
    pub outer: EpochStats,
    /// Summed inner (intra-group) loops across every group and epoch.
    pub inner: EpochStats,
}

impl TwoLevelStats {
    /// Accumulates another call's stats (for split runs).
    pub fn merge(&mut self, other: &TwoLevelStats) {
        self.outer.merge(&other.outer);
        self.inner.merge(&other.inner);
    }
}

/// The inner loops' stats, summed from whichever outer worker ran each
/// group (order-independent sums).
#[derive(Default)]
struct InnerTally([AtomicU64; 3]);

impl InnerTally {
    fn add(&self, s: &EpochStats) {
        for (slot, v) in self.0.iter().zip([s.barriers, s.serial_ns, s.wall_ns]) {
            slot.fetch_add(v, Ordering::Relaxed);
        }
    }

    fn total(&self) -> EpochStats {
        let [barriers, serial_ns, wall_ns] = self.0.each_ref().map(|a| a.load(Ordering::Relaxed));
        EpochStats {
            barriers,
            serial_ns,
            wall_ns,
        }
    }
}

/// Advances `groups` from `from` to `horizon` in outer epochs of
/// `lookahead` (the inter-group latency), running each group's own
/// inner epoch loop between outer barriers on `workers` host threads
/// (clamped to `1..=groups`), and invoking `exchange` serially at
/// every barrier with in-order access to all groups. Every group
/// advances in every outer epoch; the inner loops skip idle nodes.
///
/// # Panics
///
/// Panics on a zero outer lookahead.
pub fn run_two_level<G, X>(
    groups: &mut [G],
    from: Time,
    horizon: Time,
    lookahead: Duration,
    workers: usize,
    exchange: &mut X,
) -> TwoLevelStats
where
    G: EpochGroup,
    X: FnMut(&mut [G], Time),
{
    assert!(!lookahead.is_zero(), "zero lookahead");
    let mut outer = EpochStats::default();
    if groups.is_empty() || from >= horizon {
        return TwoLevelStats::default();
    }
    let t_run = Instant::now();
    let ends = std::iter::successors(Some(from), |&t| {
        (t < horizon).then(|| horizon.min(t + lookahead))
    })
    .skip(1);
    let mut barrier = |groups: &mut [G], at: Time| {
        let t_ex = Instant::now();
        exchange(groups, at);
        outer.serial_ns += t_ex.elapsed().as_nanos() as u64;
        outer.barriers += 1;
    };
    let inner = InnerTally::default();
    let step = |g: &mut G, to: Time| inner.add(&g.advance_group(to));
    let workers = workers.clamp(1, groups.len());
    if workers == 1 {
        for end in ends {
            for g in groups.iter_mut() {
                step(g, end);
            }
            barrier(groups, end);
        }
    } else {
        // The calling thread doubles as worker 0, acts as the barrier
        // *leader*, and runs the exchange inside the crossing itself,
        // so each outer epoch costs exactly one generation flip:
        //
        //   leader: release (publish epoch) → advance stride 0 →
        //           collect → exchange → release the next epoch …
        //   follower: wait → advance stride → arrive → wait …
        EpochStore::run(groups, workers, spin_budget(workers), &step, |leader| {
            for end in ends {
                barrier(leader.advance(end), end);
            }
        });
    }
    outer.wall_ns = t_run.elapsed().as_nanos() as u64;
    TwoLevelStats {
        outer,
        inner: inner.total(),
    }
}

/// A hybrid sense-reversing barrier: spin briefly, then park.
///
/// Outer epochs are short (one gateway latency of virtual work), so
/// the workers cross a barrier often. `std::sync::Barrier` parks
/// threads through a futex unconditionally — wakeup latency alone can
/// rival an epoch's work — while a pure spin barrier burns whole
/// scheduler quanta when workers outnumber cores. This barrier spins
/// for a budget sized to the worker/core ratio and then parks on a
/// condvar: hot workers stay hot, oversubscribed ones hand their core
/// over after a few microseconds instead of a scheduler quantum.
///
/// The protocol is a *fused* leader/follower crossing rather than a
/// symmetric `wait()`: the leader (the calling thread, worker 0)
/// collects follower arrivals, runs the serial exchange while the
/// followers sit at the barrier, publishes the next epoch, and
/// releases them — one generation flip per epoch, half the crossings
/// of the classic publish→[A]→advance→[B] scheme.
///
/// Lost-wakeup freedom: both park sites publish their intent
/// (`sleepers` / `leader_parked`) *before* re-checking the wake
/// condition under the mutex, and both wake sites update the
/// condition *before* reading the intent flag — the classic Dekker
/// store/load pattern, `SeqCst` on those four accesses, so at least
/// one side always observes the other; notification happens under the
/// same mutex the sleeper re-checks under.
struct HybridBarrier {
    parties: usize,
    /// Spin iterations before parking.
    spin: u32,
    arrived: AtomicUsize,
    generation: AtomicU64,
    /// Followers parked (or about to park) on `follower_cv`; lets the
    /// leader skip the mutex+notify syscall when everyone is spinning.
    sleepers: AtomicUsize,
    /// The leader is parked (or about to park) on `leader_cv`.
    leader_parked: AtomicBool,
    mutex: Mutex<()>,
    follower_cv: Condvar,
    leader_cv: Condvar,
}

impl HybridBarrier {
    fn new(parties: usize, spin: u32) -> HybridBarrier {
        HybridBarrier {
            parties,
            spin,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            leader_parked: AtomicBool::new(false),
            mutex: Mutex::new(()),
            follower_cv: Condvar::new(),
            leader_cv: Condvar::new(),
        }
    }

    /// Follower: record arrival at the current barrier and wake the
    /// leader if it already parked waiting for the stragglers.
    fn follower_arrive(&self) {
        let n = self.arrived.fetch_add(1, Ordering::SeqCst) + 1;
        if n == self.parties - 1 && self.leader_parked.load(Ordering::SeqCst) {
            // The leader re-checks `arrived` under this mutex before
            // waiting, so notifying under it cannot slip between its
            // re-check and its park.
            drop(self.mutex.lock().expect("barrier poisoned"));
            self.leader_cv.notify_one();
        }
    }

    /// Follower: wait until the leader opens the generation after
    /// `gen`.
    fn follower_wait(&self, gen: u64) {
        let mut spins = 0u32;
        while self.generation.load(Ordering::SeqCst) == gen {
            spins += 1;
            if spins <= self.spin {
                std::hint::spin_loop();
                continue;
            }
            let mut guard = self.mutex.lock().expect("barrier poisoned");
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            while self.generation.load(Ordering::SeqCst) == gen {
                guard = self.follower_cv.wait(guard).expect("barrier poisoned");
            }
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            return;
        }
    }

    /// Leader: wait until every follower has arrived at this barrier.
    fn leader_collect(&self) {
        let waiting_for = self.parties - 1;
        let mut spins = 0u32;
        while self.arrived.load(Ordering::SeqCst) != waiting_for {
            spins += 1;
            if spins <= self.spin {
                std::hint::spin_loop();
                continue;
            }
            let mut guard = self.mutex.lock().expect("barrier poisoned");
            self.leader_parked.store(true, Ordering::SeqCst);
            while self.arrived.load(Ordering::SeqCst) != waiting_for {
                guard = self.leader_cv.wait(guard).expect("barrier poisoned");
            }
            self.leader_parked.store(false, Ordering::SeqCst);
            return;
        }
    }

    /// Leader: reset the arrival count and open the next generation,
    /// waking any parked followers.
    fn leader_release(&self) {
        self.arrived.store(0, Ordering::SeqCst);
        self.generation.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Serialize with a follower between its generation
            // re-check and its park, so the notification cannot be
            // missed.
            drop(self.mutex.lock().expect("barrier poisoned"));
            self.follower_cv.notify_all();
        }
    }
}

/// Spin budget before a barrier waiter parks. With enough cores for
/// every worker, generous spinning wins (parking costs a futex round
/// trip per epoch); oversubscribed, spinning only delays the thread
/// that owns the core, so park almost immediately.
fn spin_budget(workers: usize) -> u32 {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if workers > cores {
        64
    } else {
        4096
    }
}

/// Group storage shared by the workers of one multi-worker run,
/// together with the barrier that phases access to it. This type and
/// its [`Leader`] handle hold all of the engine's `unsafe`.
///
/// Access alternates with the hybrid barrier's phases:
///
/// - **advance** (leader release → leader collect): worker `w` of `W`
///   touches only indices `i ≡ w (mod W)`, so no element has two users;
/// - **exchange** (leader collect → next release): every follower waits
///   at the barrier touching nothing, and the leader alone holds the
///   whole slice that [`Leader::advance`] returns.
///
/// [`EpochStore::run`] is the only way in: it spawns exactly one
/// follower per stride and hands the calling thread the one `Leader`,
/// so the phase rules hold by construction. The barrier's `SeqCst`
/// generation flip and arrival count order each phase's accesses before
/// the next phase's. The hybrid-barrier stress tests drive a store
/// through thousands of crossings.
struct EpochStore<'a, G> {
    groups: *mut G,
    len: usize,
    workers: usize,
    barrier: HybridBarrier,
    /// The epoch end the leader publishes to the followers.
    to_ns: AtomicU64,
    done: AtomicBool,
    _borrow: PhantomData<&'a mut [G]>,
}

// SAFETY: `groups` points into a slice the store borrows mutably for
// `'a`; the phase rules (type docs) give each element to one thread at
// a time, so sharing the store only ever hands a `G` from one thread
// to another, which `G: Send` permits. `len` and `workers` are
// read-only after construction; `barrier`, `to_ns` and `done` are
// `Sync` themselves.
unsafe impl<G: Send> Sync for EpochStore<'_, G> {}

impl<'a, G: Send> EpochStore<'a, G> {
    /// Runs `lead` on the calling thread — worker 0 and the barrier
    /// leader — with `workers - 1` follower threads that advance their
    /// strides whenever the leader opens an advance phase.
    fn run<F, R>(
        groups: &'a mut [G],
        workers: usize,
        spin: u32,
        step: &F,
        lead: impl FnOnce(&mut Leader<'_, 'a, G, F>) -> R,
    ) -> R
    where
        F: Fn(&mut G, Time) + Sync,
    {
        let store = EpochStore {
            groups: groups.as_mut_ptr(),
            len: groups.len(),
            workers,
            barrier: HybridBarrier::new(workers, spin),
            to_ns: AtomicU64::new(0),
            done: AtomicBool::new(false),
            _borrow: PhantomData,
        };
        std::thread::scope(|s| {
            for w in 1..workers {
                let store = &store;
                s.spawn(move || store.follow(w, step));
            }
            // Releases the followers into shutdown on every exit,
            // unwinding included, so the scope can always join them.
            let _shutdown = Shutdown(&store);
            lead(&mut Leader {
                store: &store,
                step,
            })
        })
    }

    /// A follower's whole life: wait for an advance phase, advance
    /// stride `w`, arrive; until the leader shuts the run down.
    fn follow<F: Fn(&mut G, Time)>(&self, w: usize, step: &F) {
        let mut gen = 0u64;
        loop {
            self.barrier.follower_wait(gen); // epoch published
            gen += 1;
            if self.done.load(Ordering::Acquire) {
                return;
            }
            let to = Time::from_ns(self.to_ns.load(Ordering::Acquire));
            // SAFETY: an advance phase is open (the leader released it
            // and collects only after this arrival), and `run` spawned
            // exactly one follower for stride `w`.
            unsafe { self.advance_stride(w, to, step) };
            self.barrier.follower_arrive();
        }
    }

    /// Advances every group of stride `w` to `to`.
    ///
    /// # Safety
    ///
    /// Only during an advance phase, and only by the thread that owns
    /// stride `w` for that phase.
    unsafe fn advance_stride<F: Fn(&mut G, Time)>(&self, w: usize, to: Time, step: &F) {
        for i in (w..self.len).step_by(self.workers) {
            // SAFETY: `i < len`, and stride `w` is this thread's alone
            // until the leader's next collect.
            step(unsafe { &mut *self.groups.add(i) }, to);
        }
    }
}

/// The calling thread's side of an [`EpochStore`] run: worker 0 and
/// the barrier leader. `EpochStore::run` creates exactly one.
struct Leader<'s, 'a, G, F> {
    store: &'s EpochStore<'a, G>,
    step: &'s F,
}

impl<G: Send, F: Fn(&mut G, Time)> Leader<'_, '_, G, F> {
    /// Runs one advance phase to `to` with every worker, then hands
    /// back the whole group slice for the exchange.
    fn advance(&mut self, to: Time) -> &mut [G] {
        let st = self.store;
        st.to_ns.store(to.as_ns(), Ordering::Release);
        // Open the advance phase.
        st.barrier.leader_release();
        // SAFETY: the phase is open and the leader owns stride 0.
        unsafe { st.advance_stride(0, to, self.step) };
        st.barrier.leader_collect(); // every follower advanced
                                     // SAFETY: collected, so every follower waits at the barrier
                                     // until the next release, and that release needs `&mut self`
                                     // again: the returned slice cannot live into the next advance.
        unsafe { std::slice::from_raw_parts_mut(st.groups, st.len) }
    }
}

/// Shuts an [`EpochStore`] run down when the leader leaves it.
struct Shutdown<'s, 'a, G>(&'s EpochStore<'a, G>);

impl<G> Drop for Shutdown<'_, '_, G> {
    fn drop(&mut self) {
        self.0.done.store(true, Ordering::Release);
        self.0.barrier.leader_release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy group: a serial inner loop over `ticks`-sized steps that
    /// logs every inner boundary, plus an inbox of values handed over
    /// at outer exchanges.
    struct Probe {
        cursor: Time,
        step: Duration,
        boundaries: Vec<Time>,
        inbox: u64,
    }

    impl EpochGroup for Probe {
        fn advance_group(&mut self, horizon: Time) -> EpochStats {
            let mut stats = EpochStats::default();
            while self.cursor < horizon {
                self.cursor = horizon.min(self.cursor + self.step);
                self.boundaries.push(self.cursor);
                stats.barriers += 1;
            }
            stats
        }
    }

    fn run(workers: usize, n: usize) -> Vec<(Vec<Time>, u64)> {
        let mut groups: Vec<Probe> = (0..n)
            .map(|i| Probe {
                cursor: Time::ZERO,
                step: Duration::from_us(10 + i as u64),
                boundaries: Vec::new(),
                inbox: 0,
            })
            .collect();
        let mut round = 0u64;
        let stats = run_two_level(
            &mut groups,
            Time::ZERO,
            Time::from_us(450),
            Duration::from_us(100),
            workers,
            &mut |groups, at| {
                round += 1;
                for g in groups.iter_mut() {
                    g.inbox += at.as_ns() + round;
                }
            },
        );
        assert_eq!(stats.outer.barriers, 5);
        assert!(stats.inner.barriers > 0);
        groups
            .into_iter()
            .map(|g| (g.boundaries, g.inbox))
            .collect()
    }

    #[test]
    fn inner_loops_advance_between_outer_barriers() {
        let out = run(1, 2);
        // Group 0 steps 10 µs at a time inside 100 µs outer epochs:
        // every inner boundary lands on a multiple of 10 µs and the
        // last one is the 450 µs horizon.
        assert_eq!(out[0].0.len(), 45);
        assert_eq!(*out[0].0.last().unwrap(), Time::from_us(450));
        // Group 1 (11 µs steps) truncates each inner loop at the outer
        // barrier, so boundaries include every outer barrier instant.
        for k in 1..=4u64 {
            assert!(out[1].0.contains(&Time::from_us(k * 100)));
        }
    }

    #[test]
    fn outer_worker_count_does_not_change_results() {
        let base = run(1, 5);
        for workers in [2, 4] {
            assert_eq!(run(workers, 5), base, "workers={workers}");
        }
    }

    /// Drives an [`EpochStore`] through `epochs` fused crossings
    /// exactly the way `run_two_level` does: every party bumps the
    /// counters of its stride in the advance phase, and the leader
    /// reads all of them in the exchange phase. Any lost wakeup
    /// deadlocks (the scope never joins); any double release or stride
    /// overlap breaks the counts. Returns the counter sum and the
    /// number of exchange phases that saw a counter out of step.
    fn drive_barrier(parties: usize, spin: u32, epochs: u64) -> (u64, u64) {
        let mut counters = vec![0u64; 3 * parties + 1];
        let bump = |n: &mut u64, _: Time| *n += 1;
        let out_of_step = EpochStore::run(&mut counters, parties, spin, &bump, |leader| {
            let mut bad = 0;
            for e in 1..=epochs {
                bad += u64::from(leader.advance(Time::MAX).iter().any(|&c| c != e));
            }
            bad
        });
        (counters.iter().sum(), out_of_step)
    }

    #[test]
    fn hybrid_barrier_stress_no_lost_wakeups() {
        // A spin budget far below a park-free crossing forces the
        // park/wake path thousands of times; 10k crossings must all
        // complete with every stride advanced exactly once per epoch.
        let epochs = 10_000;
        assert_eq!(drive_barrier(4, 64, epochs), (13 * epochs, 0));
    }

    #[test]
    fn hybrid_barrier_oversubscribed_parks_correctly() {
        // Far more parties than any test runner has cores, with a
        // zero spin budget: every wait parks, every release must wake
        // parked threads, in both directions (followers and leader).
        let epochs = 200;
        assert_eq!(drive_barrier(16, 0, epochs), (49 * epochs, 0));
    }

    #[test]
    fn hybrid_barrier_wakes_follower_parked_long_before_release() {
        let barrier = HybridBarrier::new(2, 0);
        let woke = AtomicBool::new(false);
        std::thread::scope(|s| {
            let b = &barrier;
            let woke = &woke;
            s.spawn(move || {
                b.follower_wait(0);
                woke.store(true, Ordering::SeqCst);
                b.follower_arrive();
            });
            // Long enough that the follower is definitely parked, not
            // mid-spin, when the release happens.
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert!(!woke.load(Ordering::SeqCst), "follower ran early");
            barrier.leader_release();
            barrier.leader_collect();
            assert!(woke.load(Ordering::SeqCst));
            barrier.leader_release(); // shutdown
        });
    }

    #[test]
    fn hybrid_barrier_wakes_leader_parked_on_late_arrival() {
        let barrier = HybridBarrier::new(2, 0);
        std::thread::scope(|s| {
            let b = &barrier;
            s.spawn(move || {
                b.follower_wait(0);
                // Arrive long after the leader parked in collect.
                std::thread::sleep(std::time::Duration::from_millis(30));
                b.follower_arrive();
                b.follower_wait(1); // shutdown generation
            });
            barrier.leader_release();
            barrier.leader_collect();
            barrier.leader_release(); // shutdown
        });
    }
}
