//! Conservative-lookahead parallel cluster execution over an active
//! set.
//!
//! EMERALDS targets 5–10 node distributed systems over a 1–2 Mbit/s
//! fieldbus (§2); growing the reproduction past one board means
//! advancing many independent kernel instances at once. This module is
//! the *generic* half of that executive: a deterministic epoch engine
//! that advances a set of [`EpochNode`]s in parallel across host
//! threads under **conservative lookahead** synchronization.
//!
//! The model is the classic conservative PDES argument specialized to
//! a shared bus: nodes interact *only* through frames exchanged at
//! epoch barriers, and no frame can traverse the bus in less than one
//! frame time. Therefore every node may safely run ahead by one
//! bus-frame latency (the *lookahead window*) without observing any
//! input it has not yet been handed. The engine repeats:
//!
//! 1. **advance** — every node with work before the epoch end steps
//!    its local virtual clock to the epoch boundary (parallel, no
//!    shared state);
//! 2. **barrier** — those nodes have reached the boundary;
//! 3. **exchange** — a caller-supplied closure runs *serially* with
//!    exclusive access to all nodes (harvest TX queues, arbitrate the
//!    bus, deliver due frames).
//!
//! **Active set.** A kernel acts only when a timer, an interrupt or a
//! message arrives, so most nodes of a quiet cluster have nothing to do
//! at most barriers. Each node reports a *wake* instant
//! ([`EpochNode::wake`]): the earliest instant it can act on its own,
//! or [`Time::ZERO`] while it has work now. The engine keeps these in
//! one dense array ([`ActiveSet`]) and advances at each barrier only
//! the nodes whose wake falls before the epoch end. A skipped node's
//! clock lags: advancing it would only have added idle time, and split
//! idle spans sum to the same value, so it is caught up on demand —
//! by its own next advance, which first brings it to the epoch start
//! before applying input staged there, or by [`ActiveSet::catch_up`]
//! before a caller's public run returns. The exchange reports the
//! nodes it handed input to ([`Barrier::wake`]); they advance in the
//! next epoch. The set of barriers does not depend on which nodes were
//! skipped, so results are bit-identical to advancing every node.
//!
//! Determinism: a node's advance depends only on its own pre-epoch
//! state (nodes share nothing until the barrier), and the exchange is
//! serial in node order. Hence the result is **bit-for-bit identical
//! for any worker count** — the thread pool only decides which host
//! core runs which node, never the order of observable effects.
//!
//! The bus-aware half (kernels, frames, arbitration) lives in
//! `emeralds-fieldbus`, which implements [`EpochNode`] for its cluster
//! node type; this crate stays free of kernel types.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::time::{Duration, Time};

/// A hybrid sense-reversing barrier: spin briefly, then park.
///
/// Epochs are short (one bus-frame time of virtual work, typically a
/// few microseconds of host work per node), so the engine crosses a
/// barrier every few microseconds of host time. `std::sync::Barrier`
/// parks threads through a futex unconditionally — wakeup latency
/// alone can exceed an entire epoch's work — while a pure spin
/// barrier burns whole scheduler quanta when workers outnumber cores
/// (every multi-worker row of the pre-hybrid `BENCH_scale.json`
/// baseline lost to serial for exactly that reason). This barrier
/// spins for a budget sized to the worker/core ratio and then parks
/// on a condvar: hot workers stay hot, oversubscribed ones hand their
/// core over after a few microseconds instead of a scheduler quantum.
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

/// A simulated board that can advance its own virtual clock to a
/// horizon without external input. Implementations must be
/// deterministic: the post-state may depend only on the pre-state and
/// the horizon.
pub trait EpochNode: Send {
    /// The earliest instant at which this node can act without being
    /// handed input: [`Time::ZERO`] while it has work now, [`Time::MAX`]
    /// when it never will. Advancing a node to any horizon at or before
    /// its wake must only move its clock and add idle time; the engine
    /// skips such advances and relies on this.
    fn wake(&self) -> Time;

    /// Advances the node from the barrier at `from` to `to` and returns
    /// its new wake. A node skipped since an earlier barrier first
    /// catches its clock up to `from` (idle time only) before applying
    /// any input staged at `from`. `advance(t, t)` is a pure catch-up.
    fn advance(&mut self, from: Time, to: Time) -> Time;
}

/// Epoch-engine tuning.
#[derive(Clone, Copy, Debug)]
pub struct EpochConfig {
    /// Length of one epoch — the conservative lookahead window. For a
    /// fieldbus cluster this is one bus-frame latency.
    pub lookahead: Duration,
    /// Host worker threads (clamped to `1..=nodes`). `1` runs fully
    /// serial on the calling thread.
    pub workers: usize,
}

/// Host-side cost accounting for one `run_epochs` call.
///
/// Every field is *measurement*, not simulation state: barrier counts
/// are deterministic for a given lookahead policy, while the
/// nanosecond fields are wall-clock and vary run to run. None of them
/// feed back into virtual time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Barrier crossings (== epochs executed == exchange invocations).
    pub barriers: u64,
    /// Wall nanoseconds spent inside the serial exchange closure.
    pub serial_ns: u64,
    /// Wall nanoseconds for the whole `run_epochs` call.
    pub wall_ns: u64,
}

impl EpochStats {
    /// Fraction of total wall time spent in the serial exchange —
    /// the Amdahl limiter for the parallel executive.
    pub fn serial_frac(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.serial_ns as f64 / self.wall_ns as f64
        }
    }

    /// Accumulates another call's stats (for split `run_until`s).
    pub fn merge(&mut self, other: &EpochStats) {
        self.barriers += other.barriers;
        self.serial_ns += other.serial_ns;
        self.wall_ns += other.wall_ns;
    }
}

/// The per-node wake array of the active-set engine, plus its reusable
/// per-barrier index lists. Callers hold one across runs, so a warmed
/// run allocates nothing.
#[derive(Debug, Default)]
pub struct ActiveSet {
    /// Indexed by node: the wake each node reported when it last
    /// advanced (`Time::ZERO` once the exchange handed it input).
    wakes: Vec<Time>,
    lists: Lists,
}

/// The parts of an [`ActiveSet`] only the leader thread touches.
#[derive(Debug, Default)]
struct Lists {
    /// Nodes advanced in the current epoch, ascending.
    active: Vec<usize>,
    /// Nodes the current exchange handed input to.
    woken: Vec<usize>,
    /// Minimum of `wakes` as of the last barrier.
    wake_min: Time,
    /// Node advances so far, catch-ups excluded.
    advances: u64,
}

impl ActiveSet {
    /// Re-reads every node's wake. Call before a run whenever nodes may
    /// have changed outside the engine (added, or mutated between
    /// runs); [`run_epochs`] does so itself when the node count changed.
    pub fn refresh<N: EpochNode>(&mut self, nodes: &[N]) {
        self.wakes.clear();
        self.wakes.extend(nodes.iter().map(N::wake));
        self.lists.wake_min = self.wakes.iter().copied().min().unwrap_or(Time::MAX);
    }

    /// A set whose `n` nodes all report work now: every epoch advances
    /// every node (the outer level of the two-level engine).
    pub(crate) fn all_busy(n: usize) -> ActiveSet {
        ActiveSet {
            wakes: vec![Time::ZERO; n],
            lists: Lists::default(),
        }
    }

    /// Brings every node to `horizon` with `advance(horizon, horizon)`:
    /// skipped nodes catch up, and input staged at the final barrier is
    /// applied. Callers run this before a public run returns so every
    /// node's clock sits at (or, after an overshoot, past) the horizon.
    /// Catch-ups are not counted in [`ActiveSet::advances`].
    pub fn catch_up<N: EpochNode>(&mut self, nodes: &mut [N], horizon: Time) {
        self.wakes.clear();
        self.wakes
            .extend(nodes.iter_mut().map(|n| n.advance(horizon, horizon)));
        self.lists.wake_min = self.wakes.iter().copied().min().unwrap_or(Time::MAX);
    }

    /// Node advances made by every run so far (deterministic; run-end
    /// catch-ups excluded).
    pub fn advances(&self) -> u64 {
        self.lists.advances
    }

    /// The earliest wake over all nodes as of the last barrier (or
    /// refresh, or catch-up). A value before that barrier means some
    /// node has work now; [`Time::MAX`] means no node will ever act on
    /// its own again.
    pub fn wake_min(&self) -> Time {
        self.lists.wake_min
    }
}

/// The exchange's view of one barrier.
pub struct Barrier<'a> {
    /// The barrier instant.
    pub at: Time,
    /// Nodes advanced in the epoch that just ended, ascending. Every
    /// other node is exactly as the previous barrier left it.
    pub active: &'a [usize],
    wake_min: Time,
    woken: &'a mut Vec<usize>,
}

impl Barrier<'_> {
    /// Records that the exchange handed node `i` input (a staged frame):
    /// the node advances in the next epoch. Repeats are harmless.
    pub fn wake(&mut self, i: usize) {
        self.woken.push(i);
    }

    /// The earliest wake over all nodes, `Time::ZERO` once any node was
    /// handed input at this barrier. A value before [`Barrier::at`]
    /// means some node has work now.
    pub fn wake_min(&self) -> Time {
        if self.woken.is_empty() {
            self.wake_min
        } else {
            Time::ZERO
        }
    }
}

/// How one run reaches its nodes: directly on the calling thread, or
/// through an [`EpochStore`] across the hybrid barrier.
trait Phases<N> {
    /// Exclusive access between advances.
    fn parts(&mut self) -> (&mut [N], &mut [Time]);
    /// Advances the `active` nodes (those whose wake is before `to`)
    /// from `from` to `to`, recording their new wakes.
    fn advance(&mut self, active: &[usize], from: Time, to: Time);
}

struct Serial<'a, N, F> {
    nodes: &'a mut [N],
    wakes: &'a mut [Time],
    step: &'a F,
}

impl<N, F: Fn(&mut N, Time, Time) -> Time> Phases<N> for Serial<'_, N, F> {
    fn parts(&mut self) -> (&mut [N], &mut [Time]) {
        (&mut *self.nodes, &mut *self.wakes)
    }

    fn advance(&mut self, active: &[usize], from: Time, to: Time) {
        for &i in active {
            self.wakes[i] = (self.step)(&mut self.nodes[i], from, to);
        }
    }
}

/// Node and wake storage shared by the workers of one multi-worker
/// run, together with the barrier that phases access to it. This type
/// and its [`Leader`] handle hold all of the engine's `unsafe`.
///
/// Access alternates with the hybrid barrier's phases:
///
/// - **advance** (leader release → leader collect): worker `w` of `W`
///   touches only indices `i ≡ w (mod W)`, so no element has two users;
/// - **exchange** (leader collect → next release): every follower waits
///   at the barrier touching nothing, and the leader alone holds the
///   whole slices through [`Leader`]'s `parts`.
///
/// [`EpochStore::run`] is the only way in: it spawns exactly one
/// follower per stride and hands the calling thread the one `Leader`,
/// so the phase rules hold by construction. The barrier's `SeqCst`
/// generation flip and arrival count order each phase's accesses before
/// the next phase's. The hybrid-barrier stress tests drive a store
/// through thousands of crossings.
struct EpochStore<'a, N> {
    nodes: *mut N,
    wakes: *mut Time,
    len: usize,
    workers: usize,
    barrier: HybridBarrier,
    /// The epoch bounds the leader publishes to the followers.
    from_ns: AtomicU64,
    to_ns: AtomicU64,
    done: AtomicBool,
    _borrow: PhantomData<(&'a mut [N], &'a mut [Time])>,
}

// SAFETY: `nodes` and `wakes` point into slices the store borrows
// mutably for `'a`; the phase rules (type docs) give each element to
// one thread at a time, so sharing the store only ever hands an `N`
// (and a `Time`) from one thread to another, which `N: Send` permits.
// `len` and `workers` are read-only after construction; `barrier`,
// `from_ns`, `to_ns` and `done` are `Sync` themselves.
unsafe impl<N: Send> Sync for EpochStore<'_, N> {}

impl<'a, N: Send> EpochStore<'a, N> {
    /// Runs `lead` on the calling thread — worker 0 and the barrier
    /// leader — with `workers - 1` follower threads that advance their
    /// strides whenever the leader opens an advance phase.
    fn run<F, R>(
        nodes: &'a mut [N],
        wakes: &'a mut [Time],
        workers: usize,
        spin: u32,
        step: &F,
        lead: impl FnOnce(&mut Leader<'_, 'a, N, F>) -> R,
    ) -> R
    where
        F: Fn(&mut N, Time, Time) -> Time + Sync,
    {
        assert_eq!(nodes.len(), wakes.len(), "one wake per node");
        let store = EpochStore {
            nodes: nodes.as_mut_ptr(),
            wakes: wakes.as_mut_ptr(),
            len: nodes.len(),
            workers,
            barrier: HybridBarrier::new(workers, spin),
            from_ns: AtomicU64::new(0),
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
    fn follow<F: Fn(&mut N, Time, Time) -> Time>(&self, w: usize, step: &F) {
        let mut gen = 0u64;
        loop {
            self.barrier.follower_wait(gen); // epoch published
            gen += 1;
            if self.done.load(Ordering::Acquire) {
                return;
            }
            let from = Time::from_ns(self.from_ns.load(Ordering::Acquire));
            let to = Time::from_ns(self.to_ns.load(Ordering::Acquire));
            // SAFETY: an advance phase is open (the leader released it
            // and collects only after this arrival), and `run` spawned
            // exactly one follower for stride `w`.
            unsafe { self.advance_stride(w, from, to, step) };
            self.barrier.follower_arrive();
        }
    }

    /// Advances the nodes of stride `w` whose wake falls before `to`,
    /// recording their new wakes.
    ///
    /// # Safety
    ///
    /// Only during an advance phase, and only by the thread that owns
    /// stride `w` for that phase.
    unsafe fn advance_stride<F>(&self, w: usize, from: Time, to: Time, step: &F)
    where
        F: Fn(&mut N, Time, Time) -> Time,
    {
        let mut i = w;
        while i < self.len {
            // SAFETY: `i < len`, and stride `w` is this thread's alone
            // until the leader's next collect.
            unsafe {
                let wake = &mut *self.wakes.add(i);
                if *wake < to {
                    *wake = step(&mut *self.nodes.add(i), from, to);
                }
            }
            i += self.workers;
        }
    }
}

/// The calling thread's side of an [`EpochStore`] run: worker 0 and
/// the barrier leader. `EpochStore::run` creates exactly one.
struct Leader<'s, 'a, N, F> {
    store: &'s EpochStore<'a, N>,
    step: &'s F,
}

impl<N: Send, F: Fn(&mut N, Time, Time) -> Time> Phases<N> for Leader<'_, '_, N, F> {
    fn parts(&mut self) -> (&mut [N], &mut [Time]) {
        let st = self.store;
        // SAFETY: the leader is between a collect and the next release
        // here — `advance` returns only after collecting, and the
        // `&mut self` borrow keeps these slices from living into the
        // next `advance` — so every follower is waiting at the barrier.
        unsafe {
            (
                std::slice::from_raw_parts_mut(st.nodes, st.len),
                std::slice::from_raw_parts_mut(st.wakes, st.len),
            )
        }
    }

    fn advance(&mut self, _active: &[usize], from: Time, to: Time) {
        let st = self.store;
        st.from_ns.store(from.as_ns(), Ordering::Release);
        st.to_ns.store(to.as_ns(), Ordering::Release);
        // Open the advance phase.
        st.barrier.leader_release();
        // SAFETY: the phase is open and the leader owns stride 0.
        unsafe { st.advance_stride(0, from, to, self.step) };
        st.barrier.leader_collect(); // every follower advanced
    }
}

/// Shuts an [`EpochStore`] run down when the leader leaves it.
struct Shutdown<'s, 'a, N>(&'s EpochStore<'a, N>);

impl<N> Drop for Shutdown<'_, '_, N> {
    fn drop(&mut self) {
        self.0.done.store(true, Ordering::Release);
        self.0.barrier.leader_release();
    }
}

/// Advances `nodes` from `from` to `horizon` in lookahead-sized
/// epochs, advancing at each epoch only the nodes whose wake falls
/// before its end and invoking `exchange` at every barrier with
/// exclusive, in-order access to all nodes.
///
/// The exchange may return a **next-barrier proposal**: `Some(t)`
/// schedules the next barrier at `t` (clamped to `horizon`) instead of
/// the default `cur + lookahead`. This is how a bus model with nothing
/// in flight stretches the epoch across provably-quiet virtual time
/// and collapses barrier crossings. Proposals must advance strictly
/// past the current barrier; `None` keeps the fixed cadence for the
/// next epoch.
///
/// The final epoch is truncated at `horizon`, and `exchange` runs one
/// last time at the horizon itself, so callers can flush in-flight
/// state. Skipped nodes may still lag when this returns; callers bring
/// them to the horizon with [`ActiveSet::catch_up`].
///
/// Returns per-call [`EpochStats`] (barrier count and serial/total
/// wall nanoseconds).
///
/// # Panics
///
/// Panics on a zero lookahead (the engine would not make progress) or
/// on a non-advancing exchange proposal.
pub fn run_epochs<N, X>(
    nodes: &mut [N],
    set: &mut ActiveSet,
    from: Time,
    horizon: Time,
    cfg: &EpochConfig,
    exchange: &mut X,
) -> EpochStats
where
    N: EpochNode,
    X: FnMut(&mut [N], &mut Barrier<'_>) -> Option<Time>,
{
    if set.wakes.len() != nodes.len() {
        set.refresh(nodes);
    }
    run_with(
        nodes,
        set,
        from,
        horizon,
        cfg,
        &|n: &mut N, from, to| n.advance(from, to),
        exchange,
    )
}

/// [`run_epochs`] over any node type, advanced by `step` (which returns
/// the node's new wake). `set` must hold one wake per node.
pub(crate) fn run_with<N, F, X>(
    nodes: &mut [N],
    set: &mut ActiveSet,
    from: Time,
    horizon: Time,
    cfg: &EpochConfig,
    step: &F,
    exchange: &mut X,
) -> EpochStats
where
    N: Send,
    F: Fn(&mut N, Time, Time) -> Time + Sync,
    X: FnMut(&mut [N], &mut Barrier<'_>) -> Option<Time>,
{
    assert!(!cfg.lookahead.is_zero(), "zero lookahead");
    assert_eq!(set.wakes.len(), nodes.len(), "one wake per node");
    let mut stats = EpochStats::default();
    if nodes.is_empty() || from >= horizon {
        return stats;
    }
    let t_run = Instant::now();
    let workers = cfg.workers.clamp(1, nodes.len());
    let ActiveSet { wakes, lists } = set;
    let lookahead = cfg.lookahead;
    if workers == 1 {
        let mut serial = Serial { nodes, wakes, step };
        epoch_loop(
            &mut serial,
            lists,
            from,
            horizon,
            lookahead,
            exchange,
            &mut stats,
        );
    } else {
        // The calling thread doubles as worker 0, acts as the barrier
        // *leader*, and runs the serial exchange inside the crossing
        // itself, so each epoch costs exactly one generation flip:
        //
        //   leader: release (publish epoch) → advance stride 0 →
        //           collect → exchange → release the next epoch …
        //   follower: wait → advance stride → arrive → wait …
        //
        // Combined with the adaptive grid rule (the exchange's
        // next-barrier proposal), one flip can carry the whole fleet
        // across many provably-quiet grid points at once — epoch
        // batching.
        let spin = spin_budget(workers);
        EpochStore::run(nodes, wakes, workers, spin, step, |leader| {
            epoch_loop(
                leader, lists, from, horizon, lookahead, exchange, &mut stats,
            );
        });
    }
    stats.wall_ns = t_run.elapsed().as_nanos() as u64;
    stats
}

/// The epoch loop both paths share: select, advance, exchange.
fn epoch_loop<N, P, X>(
    p: &mut P,
    lists: &mut Lists,
    from: Time,
    horizon: Time,
    lookahead: Duration,
    exchange: &mut X,
    stats: &mut EpochStats,
) where
    P: Phases<N>,
    X: FnMut(&mut [N], &mut Barrier<'_>) -> Option<Time>,
{
    let mut cur = from;
    let mut hint: Option<Time> = None;
    while cur < horizon {
        let end = horizon.min(hint.take().unwrap_or(cur + lookahead));
        // The one scan of the wake array per barrier: pick the nodes
        // with work before `end`, and fold the rest into the quiet
        // bound on the way. When the last barrier's bound already
        // lies at or past `end`, no node is due and the bound stands.
        let mut wake_min = lists.wake_min;
        lists.active.clear();
        if wake_min < end {
            wake_min = Time::MAX;
            for (i, &w) in p.parts().1.iter().enumerate() {
                if w < end {
                    lists.active.push(i);
                } else {
                    wake_min = wake_min.min(w);
                }
            }
        }
        p.advance(&lists.active, cur, end);
        lists.advances += lists.active.len() as u64;
        let (nodes, wakes) = p.parts();
        for &i in &lists.active {
            wake_min = wake_min.min(wakes[i]);
        }
        let mut barrier = Barrier {
            at: end,
            active: &lists.active,
            wake_min,
            woken: &mut lists.woken,
        };
        let t_ex = Instant::now();
        hint = exchange(nodes, &mut barrier);
        stats.serial_ns += t_ex.elapsed().as_nanos() as u64;
        lists.wake_min = barrier.wake_min();
        for &i in &lists.woken {
            wakes[i] = Time::ZERO;
        }
        lists.woken.clear();
        stats.barriers += 1;
        if let Some(h) = hint {
            assert!(h > end, "exchange proposed a non-advancing barrier");
        }
        cur = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy node: logs every `(from, to)` advance and sums values it
    /// is handed at exchanges. A busy probe must advance every epoch;
    /// a sleeper reports a fixed wake and goes quiet for good once an
    /// advance passes it.
    struct Probe {
        busy: bool,
        wake: Time,
        log: Vec<(Time, Time)>,
        clock: Time,
        inbox: u64,
    }

    impl Probe {
        fn busy() -> Probe {
            Probe {
                busy: true,
                wake: Time::ZERO,
                log: Vec::new(),
                clock: Time::ZERO,
                inbox: 0,
            }
        }

        fn sleeper(wake: Time) -> Probe {
            Probe {
                busy: false,
                wake,
                ..Probe::busy()
            }
        }

        fn horizons(&self) -> Vec<Time> {
            self.log.iter().map(|&(_, to)| to).collect()
        }
    }

    impl EpochNode for Probe {
        fn wake(&self) -> Time {
            if self.busy {
                Time::ZERO
            } else {
                self.wake
            }
        }

        fn advance(&mut self, from: Time, to: Time) -> Time {
            self.log.push((from, to));
            self.clock = self.clock.max(to);
            if self.wake < to {
                self.wake = Time::MAX;
            }
            self.wake()
        }
    }

    fn us(v: u64) -> Time {
        Time::from_us(v)
    }

    fn cfg(workers: usize) -> EpochConfig {
        EpochConfig {
            lookahead: Duration::from_us(100),
            workers,
        }
    }

    fn run(workers: usize, n: usize) -> Vec<(Vec<Time>, u64)> {
        run_with_hint(workers, n, |_| None)
    }

    fn run_with_hint(
        workers: usize,
        n: usize,
        mut hint: impl FnMut(Time) -> Option<Time>,
    ) -> Vec<(Vec<Time>, u64)> {
        let mut nodes: Vec<Probe> = (0..n).map(|_| Probe::busy()).collect();
        let mut round = 0u64;
        run_epochs(
            &mut nodes,
            &mut ActiveSet::default(),
            Time::ZERO,
            us(450),
            &cfg(workers),
            &mut |nodes, b| {
                round += 1;
                // Every node learns the barrier instant and the round.
                for n in nodes.iter_mut() {
                    n.inbox += b.at.as_ns() + round;
                }
                hint(b.at)
            },
        );
        nodes.into_iter().map(|n| (n.horizons(), n.inbox)).collect()
    }

    #[test]
    fn epochs_truncate_at_horizon() {
        let out = run(1, 2);
        let expect: Vec<Time> = [100u64, 200, 300, 400, 450].map(us).to_vec();
        assert_eq!(out[0].0, expect);
        assert_eq!(out[1].0, expect);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let base = run(1, 7);
        for workers in [2, 4, 16] {
            assert_eq!(run(workers, 7), base, "workers={workers}");
        }
    }

    #[test]
    fn exchange_hint_stretches_epochs_and_clamps_at_horizon() {
        // Every exchange proposes a barrier two windows out; the final
        // proposal (500µs) must clamp to the 450µs horizon.
        let hint = |at: Time| Some(at + Duration::from_us(200));
        let out = run_with_hint(1, 3, hint);
        let expect: Vec<Time> = [100u64, 300, 450].map(us).to_vec();
        for (horizons, _) in &out {
            assert_eq!(horizons, &expect);
        }
        // Parity: stretched runs are worker-count invariant too.
        for workers in [2, 3] {
            assert_eq!(run_with_hint(workers, 3, hint), out, "workers={workers}");
        }
    }

    /// Each barrier's instant and the nodes advanced in its epoch.
    type ActiveLog = Vec<(Time, Vec<usize>)>;

    /// Runs a busy probe, a sleeper waking at 350 µs and another busy
    /// probe to 450 µs in 100 µs epochs, returning the nodes, the
    /// active list of every barrier, and the set.
    fn run_sleeper(workers: usize) -> (Vec<Probe>, ActiveLog, ActiveSet) {
        let mut nodes = vec![Probe::busy(), Probe::sleeper(us(350)), Probe::busy()];
        let mut set = ActiveSet::default();
        let mut seen = Vec::new();
        run_epochs(
            &mut nodes,
            &mut set,
            Time::ZERO,
            us(450),
            &cfg(workers),
            &mut |_, b| {
                seen.push((b.at, b.active.to_vec()));
                None
            },
        );
        (nodes, seen, set)
    }

    #[test]
    fn sleeper_is_skipped_until_its_wake_and_caught_up_at_return() {
        for workers in [1, 2, 4] {
            let (mut nodes, seen, mut set) = run_sleeper(workers);
            // Not advanced at the barriers at 100, 200 and 300 µs; the
            // first epoch whose end passes its wake advances it.
            let busy = vec![0, 2];
            let expect = vec![
                (us(100), busy.clone()),
                (us(200), busy.clone()),
                (us(300), busy.clone()),
                (us(400), vec![0, 1, 2]),
                (us(450), busy.clone()),
            ];
            assert_eq!(seen, expect, "workers={workers}");
            assert_eq!(nodes[1].log, vec![(us(300), us(400))], "workers={workers}");
            assert_eq!(nodes[1].clock, us(400));
            assert_eq!(set.advances(), 2 * 5 + 1);
            set.catch_up(&mut nodes, us(450));
            assert_eq!(nodes[1].clock, us(450), "workers={workers}");
            assert_eq!(nodes[1].log.last(), Some(&(us(450), us(450))));
            assert!(nodes.iter().all(|n| n.clock == us(450)));
            // Catch-ups are not advances.
            assert_eq!(set.advances(), 2 * 5 + 1);
        }
    }

    #[test]
    fn woken_node_advances_next_epoch_from_the_staging_barrier() {
        for workers in [1, 2, 4] {
            let mut nodes = vec![Probe::busy(), Probe::sleeper(Time::MAX)];
            let mut set = ActiveSet::default();
            let mut mins = Vec::new();
            run_epochs(
                &mut nodes,
                &mut set,
                Time::ZERO,
                us(400),
                &cfg(workers),
                &mut |_, b| {
                    if b.at == us(200) {
                        b.wake(1); // hand the sleeper input here
                    }
                    mins.push(b.wake_min());
                    None
                },
            );
            // One advance, starting at the barrier that staged the input.
            assert_eq!(nodes[1].log, vec![(us(200), us(300))], "workers={workers}");
            // The busy probe pins the quiet bound at zero throughout.
            assert!(mins.iter().all(|&m| m == Time::ZERO));
        }
    }

    #[test]
    fn quiet_bound_tracks_the_earliest_sleeper() {
        let mut nodes = vec![Probe::sleeper(us(350)), Probe::sleeper(us(720))];
        let mut set = ActiveSet::default();
        let mut mins = Vec::new();
        run_epochs(
            &mut nodes,
            &mut set,
            Time::ZERO,
            us(500),
            &cfg(1),
            &mut |_, b| {
                mins.push((b.at, b.wake_min()));
                None
            },
        );
        // Node 0 goes quiet for good once advanced past 350 µs.
        let expect = [(100, 350), (200, 350), (300, 350), (400, 720), (500, 720)];
        assert_eq!(mins, expect.map(|(a, m)| (us(a), us(m))));
        assert_eq!(set.wake_min(), us(720));
        assert_eq!(set.advances(), 1);
    }

    #[test]
    fn stats_count_barriers() {
        let mut nodes = vec![Probe::busy()];
        let mut set = ActiveSet::default();
        let stats = run_epochs(
            &mut nodes,
            &mut set,
            Time::ZERO,
            us(450),
            &cfg(1),
            &mut |_, _| None,
        );
        assert_eq!(stats.barriers, 5);
        let stretched = run_epochs(
            &mut nodes,
            &mut set,
            us(450),
            us(900),
            &cfg(1),
            &mut |_, b| Some(b.at + Duration::from_us(1000)),
        );
        // First epoch ends at 550, the stretched proposal clamps at
        // the horizon: two barriers total.
        assert_eq!(stretched.barriers, 2);
    }

    #[test]
    #[should_panic(expected = "non-advancing barrier")]
    fn non_advancing_hint_panics() {
        let mut nodes = vec![Probe::busy()];
        run_epochs(
            &mut nodes,
            &mut ActiveSet::default(),
            Time::ZERO,
            Time::from_ms(1),
            &cfg(1),
            &mut |_, b| Some(b.at),
        );
    }

    #[test]
    fn empty_and_degenerate_ranges_are_noops() {
        let mut nodes: Vec<Probe> = Vec::new();
        let cfg = EpochConfig {
            lookahead: Duration::from_us(1),
            workers: 4,
        };
        let mut set = ActiveSet::default();
        run_epochs(
            &mut nodes,
            &mut set,
            Time::ZERO,
            Time::from_ms(1),
            &cfg,
            &mut |_, _| None,
        );
        let mut one = vec![Probe::busy()];
        run_epochs(
            &mut one,
            &mut ActiveSet::default(),
            Time::from_ms(2),
            Time::from_ms(1),
            &cfg,
            &mut |_, _| None,
        );
        assert!(one[0].log.is_empty());
    }

    #[test]
    #[should_panic(expected = "zero lookahead")]
    fn zero_lookahead_panics() {
        let mut nodes = vec![Probe::busy()];
        let cfg = EpochConfig {
            lookahead: Duration::ZERO,
            workers: 1,
        };
        run_epochs(
            &mut nodes,
            &mut ActiveSet::default(),
            Time::ZERO,
            Time::from_ms(1),
            &cfg,
            &mut |_, _| None,
        );
    }

    /// Drives an [`EpochStore`] through `epochs` fused crossings
    /// exactly the way `run_epochs` does: every party bumps the
    /// counters of its stride in the advance phase, and the leader
    /// reads all of them in the exchange phase. Any lost wakeup
    /// deadlocks (the scope never joins); any double release or stride
    /// overlap breaks the counts. Returns the counter sum and the
    /// number of exchange phases that saw a counter out of step.
    fn drive_barrier(parties: usize, spin: u32, epochs: u64) -> (u64, u64) {
        let mut nodes = vec![0u64; 3 * parties + 1];
        let mut wakes = vec![Time::ZERO; nodes.len()];
        let bump = |n: &mut u64, _: Time, _: Time| {
            *n += 1;
            Time::ZERO
        };
        let out_of_step = EpochStore::run(&mut nodes, &mut wakes, parties, spin, &bump, |leader| {
            let mut bad = 0;
            for e in 1..=epochs {
                leader.advance(&[], Time::ZERO, Time::MAX);
                bad += u64::from(leader.parts().0.iter().any(|&c| c != e));
            }
            bad
        });
        (nodes.iter().sum(), out_of_step)
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
