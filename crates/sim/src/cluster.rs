//! Conservative-lookahead cluster execution over an active set.
//!
//! EMERALDS targets 5–10 node distributed systems over a 1–2 Mbit/s
//! fieldbus (§2); growing the reproduction past one board means
//! advancing many independent kernel instances in lockstep. This
//! module is the *generic* half of that executive: a deterministic
//! epoch engine that advances a set of [`EpochNode`]s on the calling
//! thread under **conservative lookahead** synchronization.
//!
//! The model is the classic conservative PDES argument specialized to
//! a shared bus: nodes interact *only* through frames exchanged at
//! epoch barriers, and no frame can traverse the bus in less than one
//! frame time. Therefore every node may safely run ahead by one
//! bus-frame latency (the *lookahead window*) without observing any
//! input it has not yet been handed. The engine repeats:
//!
//! 1. **advance** — every node with work before the epoch end steps
//!    its local virtual clock to the epoch boundary, touching only its
//!    own state;
//! 2. **exchange** — at the barrier, a caller-supplied closure runs
//!    with exclusive access to all nodes (harvest TX queues, arbitrate
//!    the bus, deliver due frames).
//!
//! **Active set.** A kernel acts only when a timer, an interrupt or a
//! message arrives, so most nodes of a quiet cluster have nothing to do
//! at most barriers, and a node in the middle of a long computation has
//! nothing to show until it ends. Each node reports a *wake* instant
//! ([`EpochNode::wake`]): the earliest instant it can do anything but
//! idle or continue a running computation, or [`Time::ZERO`] while it
//! acts now. The engine keeps these in one dense array ([`ActiveSet`])
//! and advances at each barrier only the nodes whose wake falls before
//! the epoch end. A skipped node's clock lags: advancing it would only
//! have added idle time or run its computation further, and split idle
//! spans and split computations sum to the same values, so it is caught
//! up on demand — by its own next advance, which first brings it to the
//! epoch start before applying input staged there, or by
//! [`ActiveSet::catch_up`] before a caller's public run returns. The
//! catch-up gives a full advance only to the nodes whose recorded wake
//! falls before the horizon; every other node is only driven to it
//! ([`EpochNode::idle_to`]). The exchange reports the nodes it handed
//! input to ([`Barrier::wake`]); they advance in the next epoch. The
//! set of barriers does not depend on which nodes were skipped, so
//! results are bit-identical to advancing every node.
//!
//! Only the engine changes a node inside a run, and it records every
//! wake it changes, so no recorded wake is late when a run ends (one
//! may be early, which costs an advance, never a result), and none
//! becomes late until a caller changes a node from outside. Callers
//! re-read the array ([`ActiveSet::refresh`]) only after such a change.
//!
//! Host threads live one level up, between the segments of a bridged
//! topology ([`crate::run_two_level`]). A single bus's epochs carry a
//! few microseconds of host work per node, too little to pay for a
//! cross-core barrier crossing every epoch.
//!
//! The bus-aware half (kernels, frames, arbitration) lives in
//! `emeralds-fieldbus`, which implements [`EpochNode`] for its cluster
//! node type; this crate stays free of kernel types.

use std::time::Instant;

use crate::time::{Duration, Time};

/// A simulated board that can advance its own virtual clock to a
/// horizon without external input. Implementations must be
/// deterministic: the post-state may depend only on the pre-state and
/// the horizon.
pub trait EpochNode {
    /// The earliest instant at which this node can act without being
    /// handed input: [`Time::ZERO`] while it acts now, [`Time::MAX`]
    /// when it never will. Advancing a node to any horizon at or before
    /// its wake must only move its clock, adding idle time or running a
    /// computation further, and an advance split at any horizons before
    /// the wake must leave the node as one advance would; the engine
    /// skips such advances and relies on this. A wake may be early,
    /// never late.
    fn wake(&self) -> Time;

    /// Advances the node from the barrier at `from` to `to` and returns
    /// its new wake. A node skipped since an earlier barrier first
    /// catches its clock up to `from` (idling, or running a computation
    /// further) before applying any input staged at `from`.
    /// `advance(t, t)` is a pure catch-up.
    fn advance(&mut self, from: Time, to: Time) -> Time;

    /// Drives a node with nothing to do before `to` there: the same
    /// post-state as `advance(to, to)`, without re-deriving its wake.
    /// The caller guarantees the precondition: the node's wake is at or
    /// after `to` and it holds no staged input. By the wake contract
    /// such an advance only moves the clock, idling or computing, so
    /// the recorded wake still holds: the node does nothing before it.
    fn idle_to(&mut self, to: Time);
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
    /// Wall nanoseconds spent inside the exchange closure. From
    /// [`run_epochs`] this is an estimate: one exchange in 16 is timed
    /// and counted 16 times, and a call never reports more than its
    /// `wall_ns` (the excess carries into the set's later calls), so
    /// compare it over whole runs, not single calls.
    pub serial_ns: u64,
    /// Wall nanoseconds for the whole `run_epochs` call.
    pub wall_ns: u64,
}

impl EpochStats {
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
    /// Nodes advanced in the current epoch, ascending.
    active: Vec<usize>,
    /// Nodes the current exchange handed input to.
    woken: Vec<usize>,
    /// Nodes the last catch-up advanced, ascending.
    caught_up: Vec<usize>,
    /// Minimum of `wakes` as of the last barrier.
    wake_min: Time,
    /// Node advances so far, catch-ups excluded.
    advances: u64,
    /// Barriers crossed so far: the index [`sampled`] hashes.
    barriers: u64,
    /// Sampled exchange nanoseconds not yet reported, because a call
    /// may not report more than its own wall time ([`settle`]).
    carry: u64,
}

impl ActiveSet {
    /// Re-reads every node's wake. The engine keeps the array exact
    /// across runs on its own, so call this only after nodes changed
    /// outside the engine (added, or mutated between runs);
    /// [`run_epochs`] and [`ActiveSet::catch_up`] do so themselves when
    /// the node count changed.
    pub fn refresh<N: EpochNode>(&mut self, nodes: &[N]) {
        self.wakes.clear();
        self.wakes.extend(nodes.iter().map(N::wake));
        self.wake_min = self.wakes.iter().copied().min().unwrap_or(Time::MAX);
    }

    /// Brings every node to `horizon` in one pass over the wake array.
    /// A node whose recorded wake is at or after the horizon only idles
    /// or computes through it and holds no staged input (staging sets
    /// its wake to `Time::ZERO`), so [`EpochNode::idle_to`] only drives
    /// its clock there and its wake stands. Every other node — due
    /// before the horizon, or handed input at the final barrier — gets
    /// `advance(horizon, horizon)`, its returned wake is recorded, and
    /// its index joins [`ActiveSet::caught_up`]. Callers run this
    /// before a public run returns so every node's clock sits at (or,
    /// after an overshoot, past) the horizon. Catch-ups are not counted
    /// in [`ActiveSet::advances`].
    pub fn catch_up<N: EpochNode>(&mut self, nodes: &mut [N], horizon: Time) {
        if self.wakes.len() != nodes.len() {
            self.refresh(nodes);
        }
        self.caught_up.clear();
        // At most every node: sized once, so later catch-ups never grow it.
        self.caught_up.reserve(nodes.len());
        let mut wake_min = Time::MAX;
        for (i, (node, wake)) in nodes.iter_mut().zip(&mut self.wakes).enumerate() {
            if *wake >= horizon {
                node.idle_to(horizon);
            } else {
                *wake = node.advance(horizon, horizon);
                self.caught_up.push(i);
            }
            wake_min = wake_min.min(*wake);
        }
        self.wake_min = wake_min;
    }

    /// The nodes the last [`ActiveSet::catch_up`] advanced, ascending:
    /// the only ones that can have applied input since the final
    /// barrier.
    pub fn caught_up(&self) -> &[usize] {
        &self.caught_up
    }

    /// Node advances made by every run so far (deterministic; run-end
    /// catch-ups excluded).
    pub fn advances(&self) -> u64 {
        self.advances
    }

    /// The earliest wake over all nodes as of the last barrier (or
    /// refresh, or catch-up). A value before that barrier means some
    /// node has work now; [`Time::MAX`] means no node will ever act on
    /// its own again.
    pub fn wake_min(&self) -> Time {
        self.wake_min
    }
}

/// [`run_epochs`] times one exchange in `2^SAMPLE_BITS`.
const SAMPLE_BITS: u32 = 4;
const SAMPLE_STRIDE: u64 = 1 << SAMPLE_BITS;

/// Whether barrier number `k` (counted over every run of one
/// [`ActiveSet`]) times its exchange. Fibonacci hashing: the top
/// [`SAMPLE_BITS`] bits of `k · 2^64/φ` are zero for one index in
/// [`SAMPLE_STRIDE`], and the golden ratio spreads those indices so
/// evenly that no periodic barrier pattern lines up with them. The
/// choice depends on `k` alone, so every run samples the same barriers.
fn sampled(k: u64) -> bool {
    k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SAMPLE_BITS) == 0
}

/// Settles one call's sampled exchange `estimate` against its `wall`
/// time, with the `carry` earlier calls could not report. Returns what
/// the call reports, never more than `wall`, and the new carry: the
/// two always sum to `estimate + carry`, so nothing is lost, only
/// reported once a later call has room for it.
fn settle(estimate: u64, carry: u64, wall: u64) -> (u64, u64) {
    let due = estimate + carry;
    let reported = due.min(wall);
    (reported, due - reported)
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
    /// means some node acts now; any other value is the first instant
    /// at which a node can do more than idle or compute — a timer, a
    /// device event or the end of a running computation.
    pub fn wake_min(&self) -> Time {
        if self.woken.is_empty() {
            self.wake_min
        } else {
            Time::ZERO
        }
    }
}

/// Advances `nodes` from `from` to `horizon` in `lookahead`-sized
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
/// them to the horizon with [`ActiveSet::catch_up`]. The wake array is
/// re-read only when the node count changed since the last call.
///
/// Returns per-call [`EpochStats`]: the barrier count, the call's wall
/// nanoseconds (two clock reads per call) and an estimate of the
/// exchange's share of them. Reading the clock around every exchange
/// would cost a quiet bus a third of its wall, so only one barrier in
/// 16 is timed, chosen by a hash of the set's running barrier count
/// (the same barriers on every run). Each sample counts 16 times,
/// after subtracting an empty clock window (two back-to-back reads)
/// so the clock's own latency is not scaled with it. A call's
/// `serial_ns` never exceeds its `wall_ns`; the excess carries into
/// the set's later calls.
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
    lookahead: Duration,
    exchange: &mut X,
) -> EpochStats
where
    N: EpochNode,
    X: FnMut(&mut [N], &mut Barrier<'_>) -> Option<Time>,
{
    assert!(!lookahead.is_zero(), "zero lookahead");
    if set.wakes.len() != nodes.len() {
        set.refresh(nodes);
    }
    let mut stats = EpochStats::default();
    if nodes.is_empty() || from >= horizon {
        return stats;
    }
    let t_run = Instant::now();
    let mut estimate = 0;
    let mut cur = from;
    let mut hint: Option<Time> = None;
    while cur < horizon {
        let end = horizon.min(hint.take().unwrap_or(cur + lookahead));
        // The one scan of the wake array per barrier: pick the nodes
        // with work before `end`, and fold the rest into the quiet
        // bound on the way. When the last barrier's bound already
        // lies at or past `end`, no node is due and the bound stands.
        let mut wake_min = set.wake_min;
        set.active.clear();
        if wake_min < end {
            wake_min = Time::MAX;
            for (i, &w) in set.wakes.iter().enumerate() {
                if w < end {
                    set.active.push(i);
                } else {
                    wake_min = wake_min.min(w);
                }
            }
        }
        for &i in &set.active {
            let w = nodes[i].advance(cur, end);
            set.wakes[i] = w;
            wake_min = wake_min.min(w);
        }
        set.advances += set.active.len() as u64;
        let t_ex = sampled(set.barriers).then(Instant::now);
        set.barriers += 1;
        let mut barrier = Barrier {
            at: end,
            active: &set.active,
            wake_min,
            woken: &mut set.woken,
        };
        hint = exchange(nodes, &mut barrier);
        if let Some(t_ex) = t_ex {
            let t_done = Instant::now();
            let spent = (t_done - t_ex).saturating_sub(t_done.elapsed());
            estimate += spent.as_nanos() as u64 * SAMPLE_STRIDE;
        }
        set.wake_min = barrier.wake_min();
        for &i in &set.woken {
            set.wakes[i] = Time::ZERO;
        }
        set.woken.clear();
        stats.barriers += 1;
        if let Some(h) = hint {
            assert!(h > end, "exchange proposed a non-advancing barrier");
        }
        cur = end;
    }
    stats.wall_ns = t_run.elapsed().as_nanos() as u64;
    (stats.serial_ns, set.carry) = settle(estimate, set.carry, stats.wall_ns);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy node: logs every `(from, to)` advance and every `idle_to`
    /// target, and sums values it is handed at exchanges. A busy probe
    /// must advance every epoch; a sleeper reports a fixed wake and goes
    /// quiet for good once an advance passes it.
    struct Probe {
        busy: bool,
        wake: Time,
        log: Vec<(Time, Time)>,
        idled: Vec<Time>,
        clock: Time,
        inbox: u64,
    }

    impl Probe {
        fn busy() -> Probe {
            Probe {
                busy: true,
                wake: Time::ZERO,
                log: Vec::new(),
                idled: Vec::new(),
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

        fn idle_to(&mut self, to: Time) {
            assert!(self.wake() >= to, "idle_to past the probe's wake");
            self.idled.push(to);
            self.clock = self.clock.max(to);
        }
    }

    fn us(v: u64) -> Time {
        Time::from_us(v)
    }

    const L: Duration = Duration::from_us(100);

    fn run_with_hint(
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
            L,
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
        let out = run_with_hint(2, |_| None);
        let expect: Vec<Time> = [100u64, 200, 300, 400, 450].map(us).to_vec();
        assert_eq!(out[0].0, expect);
        assert_eq!(out[1].0, expect);
    }

    #[test]
    fn exchange_hint_stretches_epochs_and_clamps_at_horizon() {
        // Every exchange proposes a barrier two windows out; the final
        // proposal (500µs) must clamp to the 450µs horizon.
        let out = run_with_hint(3, |at| Some(at + Duration::from_us(200)));
        let expect: Vec<Time> = [100u64, 300, 450].map(us).to_vec();
        for (horizons, _) in &out {
            assert_eq!(horizons, &expect);
        }
    }

    #[test]
    fn sleeper_is_skipped_until_its_wake_and_caught_up_at_return() {
        let mut nodes = vec![Probe::busy(), Probe::sleeper(us(350)), Probe::busy()];
        let mut set = ActiveSet::default();
        let mut seen = Vec::new();
        run_epochs(&mut nodes, &mut set, Time::ZERO, us(450), L, &mut |_, b| {
            seen.push((b.at, b.active.to_vec()));
            None
        });
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
        assert_eq!(seen, expect);
        assert_eq!(nodes[1].log, vec![(us(300), us(400))]);
        assert_eq!(nodes[1].clock, us(400));
        assert_eq!(set.advances(), 2 * 5 + 1);
        set.catch_up(&mut nodes, us(450));
        // Quiet for good since its advance: a clock bump, no advance.
        assert_eq!(nodes[1].clock, us(450));
        assert_eq!(nodes[1].log, vec![(us(300), us(400))]);
        assert_eq!(nodes[1].idled, vec![us(450)]);
        assert!(nodes.iter().all(|n| n.clock == us(450)));
        // Catch-ups are not advances.
        assert_eq!(set.advances(), 2 * 5 + 1);
    }

    #[test]
    fn catch_up_advances_only_nodes_due_before_the_horizon() {
        // 0 busy, 1 quiet past the horizon, 2 waking exactly at it,
        // 3 handed input at the final barrier, 4 quiet for good.
        let mut nodes = vec![
            Probe::busy(),
            Probe::sleeper(us(800)),
            Probe::sleeper(us(450)),
            Probe::sleeper(Time::MAX),
            Probe::sleeper(Time::MAX),
        ];
        let mut set = ActiveSet::default();
        run_epochs(&mut nodes, &mut set, Time::ZERO, us(450), L, &mut |_, b| {
            if b.at == us(450) {
                b.wake(3);
            }
            None
        });
        set.catch_up(&mut nodes, us(450));
        assert_eq!(set.caught_up(), &[0, 3]);
        for i in [0, 3] {
            assert_eq!(nodes[i].log.last(), Some(&(us(450), us(450))), "{i}");
            assert!(nodes[i].idled.is_empty(), "{i}");
        }
        for i in [1, 2, 4] {
            assert!(nodes[i].log.is_empty(), "{i}");
            assert_eq!(nodes[i].idled, vec![us(450)], "{i}");
        }
        assert!(nodes.iter().all(|n| n.clock == us(450)));
        // The idled nodes' recorded wakes stand without a refresh: the
        // next run advances node 2 in its first epoch and node 1 only
        // in the epoch holding 800 µs.
        let mut seen = Vec::new();
        run_epochs(&mut nodes, &mut set, us(450), us(900), L, &mut |_, b| {
            seen.push((b.at, b.active.to_vec()));
            None
        });
        assert_eq!(seen[0], (us(550), vec![0, 2]));
        let node1: Vec<Time> = seen
            .iter()
            .filter(|(_, active)| active.contains(&1))
            .map(|&(at, _)| at)
            .collect();
        assert_eq!(node1, vec![us(850)]);
    }

    #[test]
    fn woken_node_advances_next_epoch_from_the_staging_barrier() {
        let mut nodes = vec![Probe::busy(), Probe::sleeper(Time::MAX)];
        let mut set = ActiveSet::default();
        let mut mins = Vec::new();
        run_epochs(&mut nodes, &mut set, Time::ZERO, us(400), L, &mut |_, b| {
            if b.at == us(200) {
                b.wake(1); // hand the sleeper input here
            }
            mins.push(b.wake_min());
            None
        });
        // One advance, starting at the barrier that staged the input.
        assert_eq!(nodes[1].log, vec![(us(200), us(300))]);
        // The busy probe pins the quiet bound at zero throughout.
        assert!(mins.iter().all(|&m| m == Time::ZERO));
    }

    #[test]
    fn quiet_bound_tracks_the_earliest_sleeper() {
        let mut nodes = vec![Probe::sleeper(us(350)), Probe::sleeper(us(720))];
        let mut set = ActiveSet::default();
        let mut mins = Vec::new();
        run_epochs(&mut nodes, &mut set, Time::ZERO, us(500), L, &mut |_, b| {
            mins.push((b.at, b.wake_min()));
            None
        });
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
        let stats = run_epochs(&mut nodes, &mut set, Time::ZERO, us(450), L, &mut |_, _| {
            None
        });
        assert_eq!(stats.barriers, 5);
        let stretched = run_epochs(&mut nodes, &mut set, us(450), us(900), L, &mut |_, b| {
            Some(b.at + Duration::from_us(1000))
        });
        // First epoch ends at 550, the stretched proposal clamps at
        // the horizon: two barriers total.
        assert_eq!(stretched.barriers, 2);
    }

    /// How many of `n` indices from `start` in steps of `step` the
    /// sampler picks.
    fn picks(start: u64, step: u64, n: u64) -> u64 {
        (0..n).filter(|&j| sampled(start + j * step)).count() as u64
    }

    #[test]
    fn sampler_picks_one_in_sixteen_of_any_window() {
        // 4 096 / 16 = 256 per window, within ±25 %.
        let within = |c: u64| (192..=320).contains(&c);
        let mut rng = crate::SimRng::seeded(7);
        let starts = (0..64).map(|_| rng.raw() >> 1);
        for start in [0, 1, 15, 4_095, 1 << 32, u64::MAX - 4_096]
            .into_iter()
            .chain(starts)
        {
            let c = picks(start, 1, 4_096);
            assert!(within(c), "{c} picks from {start}");
        }
        // Nor does a periodic barrier pattern line up with the picks:
        // every residue class of every period up to 64 is sampled
        // about as often.
        for period in 2..=64 {
            for first in 0..period {
                let c = picks(first, period, 4_096);
                assert!(within(c), "{c} picks of {first} mod {period}");
            }
        }
    }

    #[test]
    fn sampler_picks_the_same_barriers_on_every_run() {
        let first: Vec<u64> = (0..128).filter(|&k| sampled(k)).collect();
        assert_eq!(first, [0, 13, 34, 47, 68, 81, 89, 102, 123]);
        // The index runs on across the calls on one set, so calls of a
        // few barriers each (a topology segment's outer epochs) do not
        // all time their first exchange.
        let mut set = ActiveSet::default();
        let mut nodes = vec![Probe::busy()];
        for k in 0..4 {
            let from = us(450 * k);
            run_epochs(
                &mut nodes,
                &mut set,
                from,
                from + Duration::from_us(450),
                L,
                &mut |_, _| None,
            );
        }
        assert_eq!(set.barriers, 4 * 5);
    }

    #[test]
    fn settle_caps_each_call_at_its_wall_and_carries_the_rest() {
        // Room for all of it: reported as is, nothing carried.
        assert_eq!(settle(300, 0, 1_000), (300, 0));
        // A sample scaled past its call's wall: capped, the excess
        // carried, then released by later calls as room allows.
        assert_eq!(settle(1_600, 0, 400), (400, 1_200));
        assert_eq!(settle(0, 1_200, 500), (500, 700));
        assert_eq!(settle(100, 700, 1_000), (800, 0));
        // Over any sequence of calls, reported plus carried equals
        // what was sampled, and no call reports more than its wall.
        let calls = [
            (0, 50),
            (3_200, 120),
            (0, 90),
            (0, 400),
            (1_600, 70),
            (0, 5_000),
        ];
        let (mut carry, mut reported) = (0, 0);
        for (estimate, wall) in calls {
            let (r, c) = settle(estimate, carry, wall);
            assert!(r <= wall, "{r} > {wall}");
            assert_eq!(r + c, estimate + carry);
            (reported, carry) = (reported + r, c);
        }
        assert_eq!(carry, 0, "the last call had room for the rest");
        assert_eq!(reported, 3_200 + 1_600);
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
            L,
            &mut |_, b| Some(b.at),
        );
    }

    #[test]
    fn empty_and_degenerate_ranges_are_noops() {
        let mut nodes: Vec<Probe> = Vec::new();
        let l = Duration::from_us(1);
        let mut set = ActiveSet::default();
        run_epochs(
            &mut nodes,
            &mut set,
            Time::ZERO,
            Time::from_ms(1),
            l,
            &mut |_, _| None,
        );
        let mut one = vec![Probe::busy()];
        run_epochs(
            &mut one,
            &mut ActiveSet::default(),
            Time::from_ms(2),
            Time::from_ms(1),
            l,
            &mut |_, _| None,
        );
        assert!(one[0].log.is_empty());
    }

    #[test]
    #[should_panic(expected = "zero lookahead")]
    fn zero_lookahead_panics() {
        let mut nodes = vec![Probe::busy()];
        run_epochs(
            &mut nodes,
            &mut ActiveSet::default(),
            Time::ZERO,
            Time::from_ms(1),
            Duration::ZERO,
            &mut |_, _| None,
        );
    }
}
