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
//! With more than one worker, each outer epoch splits the groups into
//! at most `workers` contiguous chunks: the calling thread advances the
//! first, one scoped thread ([`std::thread::scope`]) advances each of
//! the others, and the exchange runs after the scope joins them. A
//! segment's outer epoch carries a whole inner epoch loop, a coarser
//! grain than a single bus's few-microsecond node advances, which run
//! on the calling thread. With one worker no scope is opened.
//!
//! The outer cadence is fixed: one barrier every `lookahead`. In a
//! gateway topology that lookahead must not exceed the cheapest
//! *surviving* forwarding path, which holds when it is the latency
//! minimum over every gateway, since a re-route can only shift traffic
//! onto paths at least that slow.

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
    /// Summed inner (intra-group) loops across every group and epoch;
    /// their `serial_ns` is [`crate::run_epochs`]' sampled estimate.
    pub inner: EpochStats,
}

impl TwoLevelStats {
    /// Accumulates another call's stats (for split runs).
    pub fn merge(&mut self, other: &TwoLevelStats) {
        self.outer.merge(&other.outer);
        self.inner.merge(&other.inner);
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
/// Panics on a zero outer lookahead, and resumes the panic of any
/// group that panics while advancing, once every chunk has stopped.
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
    let mut stats = TwoLevelStats::default();
    if groups.is_empty() || from >= horizon {
        return stats;
    }
    let t_run = Instant::now();
    let chunk = groups.len().div_ceil(workers.clamp(1, groups.len()));
    let mut end = from;
    while end < horizon {
        end = horizon.min(end + lookahead);
        stats.inner.merge(&advance(groups, chunk, end));
        let t_ex = Instant::now();
        exchange(groups, end);
        stats.outer.serial_ns += t_ex.elapsed().as_nanos() as u64;
        stats.outer.barriers += 1;
    }
    stats.outer.wall_ns = t_run.elapsed().as_nanos() as u64;
    stats
}

/// Advances every group to `to` in chunks of `chunk` groups: the
/// calling thread takes the first chunk and one scoped thread each of
/// the rest. Returns the inner loops' summed stats.
fn advance<G: EpochGroup>(groups: &mut [G], chunk: usize, to: Time) -> EpochStats {
    let advance_part = |part: &mut [G]| {
        let mut sum = EpochStats::default();
        for g in part {
            sum.merge(&g.advance_group(to));
        }
        sum
    };
    // One chunk opens no scope: a scope allocates, and the one-worker
    // run must not (`tests/alloc_gate.rs`).
    if chunk >= groups.len() {
        return advance_part(groups);
    }
    let (first, rest) = groups.split_at_mut(chunk);
    std::thread::scope(|s| {
        let spawned: Vec<_> = rest
            .chunks_mut(chunk)
            .map(|part| s.spawn(move || advance_part(part)))
            .collect();
        let mut sum = advance_part(first);
        for handle in spawned {
            match handle.join() {
                Ok(stats) => sum.merge(&stats),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        sum
    })
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
        // 3 workers split the 5 groups 2 + 2 + 1; 16 clamps to 5.
        for workers in [2, 3, 4, 16] {
            assert_eq!(run(workers, 5), base, "workers={workers}");
        }
    }

    /// A group that panics once asked to advance to its fuse instant or
    /// later, and never otherwise.
    struct Fuse(Option<Time>);

    impl EpochGroup for Fuse {
        fn advance_group(&mut self, horizon: Time) -> EpochStats {
            if self.0.is_some_and(|at| horizon >= at) {
                panic!("group blew up at {horizon:?}");
            }
            EpochStats::default()
        }
    }

    #[test]
    fn a_panicking_group_on_a_worker_fails_the_run_instead_of_hanging() {
        let (tx, rx) = std::sync::mpsc::channel();
        // Detached on purpose: a hung run must fail this test, not hang
        // it, so the verdict comes back over a channel with a timeout.
        std::thread::spawn(move || {
            let mut groups = [Fuse(None), Fuse(Some(Time::from_us(200)))];
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_two_level(
                    &mut groups,
                    Time::ZERO,
                    Time::from_us(450),
                    Duration::from_us(100),
                    2,
                    &mut |_: &mut [Fuse], _| {},
                )
            }));
            let _ = tx.send(run.is_err());
        });
        let panicked = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("run_two_level hung: {e:?}"));
        assert!(panicked, "run_two_level returned instead of panicking");
    }
}
