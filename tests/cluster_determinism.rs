//! Determinism pins for the single-bus cluster executive.
//!
//! The conservative-lookahead engine promises that how a run is cut
//! into epochs is *invisible*: adaptive and fixed cadence, one call or
//! several split on epoch boundaries, produce bit-for-bit identical
//! per-node event traces and identical rolled-up metrics. These tests
//! pin that promise, plus the degenerate end of it: a single-node
//! cluster (epoch-split execution) must match a plain
//! `Kernel::run_until` over the same horizon.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use emeralds::core::kernel::{ClusterMetrics, Kernel, KernelBuilder, KernelConfig};
use emeralds::core::script::{Action, Script};
use emeralds::core::SchedPolicy;
use emeralds::faults::FaultPlan;
use emeralds::fieldbus::{addressed_tag, BusStats, Cluster, FailStopGate, NodeStats};
use emeralds::hal::Nic;
use emeralds::sim::{Duration, IrqLine, NodeId, ProcId, SimRng, ThreadId, Time, TraceEvent};

const NIC_IRQ: IrqLine = IrqLine(2);

fn hash_of(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// A traced node that sends an addressed frame on a jittered period,
/// drains its RX mailbox, and runs filler compute.
fn traced_node(i: usize, dst: NodeId, rng: &mut SimRng) -> Kernel {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![1],
        },
        record_trace: true,
        ..KernelConfig::default()
    });
    let p = b.add_process(format!("node{i}"));
    let nic = b.add_nic(NIC_IRQ, 8, 16);
    b.add_periodic_task(
        p,
        "tx",
        Duration::from_us(rng.int_in(4_000, 7_000)),
        Script::periodic(vec![
            Action::Compute(Duration::from_us(rng.int_in(100, 300))),
            Action::SendMbox {
                mbox: nic.tx,
                bytes: 8,
                tag: addressed_tag(Some(dst), i as u32),
            },
        ]),
    );
    b.add_periodic_task(
        p,
        "filler",
        Duration::from_us(rng.int_in(900, 1_500)),
        Script::compute_only(Duration::from_us(rng.int_in(30, 80))),
    );
    b.add_driver_task(
        p,
        "nicdrv",
        Duration::from_ms(2),
        Script::looping(vec![
            Action::RecvMbox(nic.rx),
            Action::Compute(Duration::from_us(40)),
        ]),
    );
    b.build()
}

/// A 6-node ring cluster with tracing on.
fn ring_cluster() -> Cluster {
    const N: usize = 6;
    let mut rng = SimRng::seeded(0xD37);
    let mut c = Cluster::new(1_000_000);
    for i in 0..N {
        let mut nrng = rng.derive(i as u64);
        let dst = NodeId(((i + 1) % N) as u32);
        let k = traced_node(i, dst, &mut nrng);
        c.add_node(format!("node{i}"), k, (i + 1) as u32);
    }
    c
}

/// A kernel with no bus traffic, traced, for the N=1 parity check. Bus
/// traffic is excluded on purpose: the cluster's NIC harvest drains
/// the TX mailbox, which a plain kernel run has no analogue for. The
/// mailboxes and NIC exist (the cluster wiring needs them) but no task
/// touches them.
fn local_only_kernel() -> Kernel {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![1],
        },
        record_trace: true,
        ..KernelConfig::default()
    });
    let p = b.add_process("solo");
    b.add_nic(NIC_IRQ, 4, 4);
    b.add_periodic_task(
        p,
        "fast",
        Duration::from_us(1_100),
        Script::compute_only(Duration::from_us(90)),
    );
    b.add_periodic_task(
        p,
        "law",
        Duration::from_ms(5),
        Script::compute_only(Duration::from_us(700)),
    );
    b.add_periodic_task(
        p,
        "slow",
        Duration::from_ms(20),
        Script::compute_only(Duration::from_ms(2)),
    );
    b.build()
}

#[test]
fn single_node_cluster_matches_plain_kernel() {
    let horizon = Time::from_ms(60);
    let mut plain = local_only_kernel();
    plain.run_until(horizon);

    let mut c = Cluster::new(1_000_000);
    c.add_node("solo", local_only_kernel(), 1);
    c.run_until(horizon);

    // Epoch-split execution of the same kernel: schedule, metrics, and
    // trace must agree exactly with the single uninterrupted run.
    let node = c.node(NodeId(0));
    assert_eq!(node.kernel.metrics(), plain.metrics());
    assert_eq!(
        hash_of(&node.kernel.trace().to_jsonl()),
        hash_of(&plain.trace().to_jsonl())
    );
    assert_eq!(c.metrics().deadline_misses, plain.metrics().deadline_misses);
    assert_eq!(c.stats().frames_sent, 0);
}

/// Adaptive lookahead (the default) must be simulation-invisible:
/// disabling it may only change barrier counts, never traces, metrics,
/// or bus statistics.
#[test]
fn adaptive_and_fixed_cadence_runs_bit_identical() {
    let horizon = Time::from_ms(80);
    let run = |adaptive: bool| {
        let mut c = ring_cluster();
        c.set_adaptive(adaptive);
        c.run_until(horizon);
        let hashes: Vec<u64> = c
            .nodes()
            .iter()
            .map(|n| hash_of(&n.kernel.trace().to_jsonl()))
            .collect();
        (hashes, c.metrics(), *c.stats(), c.exec_stats().barriers)
    };
    let fixed = run(false);
    let adaptive = run(true);
    assert!(fixed.2.frames_delivered > 20, "ring carried no traffic");
    assert_eq!(adaptive.0, fixed.0, "trace hashes diverged");
    assert_eq!(adaptive.1, fixed.1, "metrics diverged");
    assert_eq!(adaptive.2, fixed.2, "bus stats diverged");
    assert!(
        adaptive.3 <= fixed.3,
        "adaptive mode added barriers: {} > {}",
        adaptive.3,
        fixed.3
    );
}

/// Adaptive lookahead must stay simulation-invisible **under an
/// active fault plan**: a quiet-bus stretch may never leap past a
/// scheduled fault instant — a babble onset, a fail-stop window
/// boundary, or a bus-off recovery — or the fault lands on a different
/// barrier and the error machinery diverges. This pins bit-parity of
/// adaptive vs fixed cadence (traces, metrics, bus stats, per-node NIC
/// stats) across fault seeds, while still requiring the stretch to
/// collapse at least some barriers.
#[test]
fn adaptive_and_fixed_cadence_agree_under_faults() {
    let horizon = Time::from_ms(80);
    for fault_seed in [0xFA11u64, 0x0DDB, 0xBEEF] {
        let plan = FaultPlan::random(fault_seed, 6, horizon, 0.05, 0.5, 0.5);
        assert!(!plan.is_empty(), "seed {fault_seed:#x} injected nothing");
        let run = |adaptive: bool| {
            let mut c = ring_cluster();
            c.set_fault_plan(&plan);
            c.set_adaptive(adaptive);
            c.run_until(horizon);
            let hashes: Vec<u64> = c
                .nodes()
                .iter()
                .map(|n| hash_of(&n.kernel.trace().to_jsonl()))
                .collect();
            let node_stats: Vec<_> = c.nodes().iter().map(|n| n.stats.clone()).collect();
            (
                hashes,
                c.metrics(),
                *c.stats(),
                node_stats,
                c.exec_stats().barriers,
            )
        };
        let fixed = run(false);
        let adaptive = run(true);
        assert!(
            fixed.2.error_frames > 0 || fixed.2.frames_lost_offline > 0,
            "seed {fault_seed:#x} left no fault signal: {:?}",
            fixed.2
        );
        assert_eq!(
            adaptive.0, fixed.0,
            "trace hashes diverged under seed {fault_seed:#x}"
        );
        assert_eq!(
            adaptive.1, fixed.1,
            "metrics diverged under seed {fault_seed:#x}"
        );
        assert_eq!(
            adaptive.2, fixed.2,
            "bus stats diverged under seed {fault_seed:#x}"
        );
        assert_eq!(
            adaptive.3, fixed.3,
            "node stats diverged under seed {fault_seed:#x}"
        );
        assert!(
            adaptive.4 <= fixed.4,
            "adaptive mode added barriers under faults: {} > {}",
            adaptive.4,
            fixed.4
        );
    }
}

/// A stretched epoch is truncated at the horizon: driving a quiet
/// cluster to a horizon on neither the lookahead grid nor any timer
/// expiry lands the cursor exactly there, and resuming to a further
/// horizon matches a single uninterrupted run. On this quiet bus the
/// stretch must also collapse barriers heavily vs fixed cadence.
#[test]
fn adaptive_stretch_truncates_at_horizon() {
    let mid = Time::from_us(13_317); // off-grid, off every period used
    let end = Time::from_ms(60);
    let build = || {
        let mut c = Cluster::new(1_000_000);
        c.add_node("solo", local_only_kernel(), 1);
        c
    };
    let mut whole = build();
    whole.run_until(end);

    let mut split = build();
    split.run_until(mid);
    assert_eq!(split.now(), mid, "cursor overshot the truncated horizon");
    assert!(split.exec_stats().barriers >= 1);
    split.run_until(end);
    assert_eq!(split.now(), end);
    let (a, b) = (&split.node(NodeId(0)).kernel, &whole.node(NodeId(0)).kernel);
    assert_eq!(a.metrics(), b.metrics(), "metrics diverged across split");
    assert_eq!(
        hash_of(&a.trace().to_jsonl()),
        hash_of(&b.trace().to_jsonl()),
        "trace diverged across split"
    );

    let mut fixed = build();
    fixed.set_adaptive(false);
    fixed.run_until(end);
    assert!(
        whole.exec_stats().barriers * 2 <= fixed.exec_stats().barriers,
        "quiet-bus stretch collapsed too few barriers: {} vs {}",
        whole.exec_stats().barriers,
        fixed.exec_stats().barriers
    );
}

/// A node that posts one frame right at each job release (the timer
/// expiry adaptive stretches target), then idles most of its period.
fn sparse_tx_node(i: usize, dst: NodeId) -> Kernel {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![1],
        },
        record_trace: true,
        ..KernelConfig::default()
    });
    let p = b.add_process(format!("sparse{i}"));
    let nic = b.add_nic(NIC_IRQ, 8, 16);
    b.add_periodic_task(
        p,
        "tx",
        Duration::from_us(9_700 + 900 * i as u64),
        Script::periodic(vec![
            Action::SendMbox {
                mbox: nic.tx,
                bytes: 8,
                tag: addressed_tag(Some(dst), i as u32),
            },
            Action::Compute(Duration::from_us(120)),
        ]),
    );
    b.add_driver_task(
        p,
        "nicdrv",
        Duration::from_ms(2),
        Script::looping(vec![
            Action::RecvMbox(nic.rx),
            Action::Compute(Duration::from_us(40)),
        ]),
    );
    b.build()
}

/// Frames enqueued at the very instant a stretched epoch lands on (the
/// job-release expiry the stretch targeted) are harvested and
/// delivered bit-identically to a fixed-cadence run — and the long
/// idle gaps between sends must actually have been stretched across.
#[test]
fn tx_at_stretched_boundary_is_delivered_identically() {
    let horizon = Time::from_ms(60);
    let run = |adaptive: bool| {
        let mut c = Cluster::new(1_000_000);
        c.set_adaptive(adaptive);
        for i in 0..2usize {
            let dst = NodeId(((i + 1) % 2) as u32);
            c.add_node(format!("n{i}"), sparse_tx_node(i, dst), (i + 1) as u32);
        }
        c.run_until(horizon);
        let hashes: Vec<u64> = c
            .nodes()
            .iter()
            .map(|n| hash_of(&n.kernel.trace().to_jsonl()))
            .collect();
        (hashes, c.metrics(), *c.stats(), c.exec_stats().barriers)
    };
    let fixed = run(false);
    let adaptive = run(true);
    // Every periodic send made it across in both modes.
    assert!(fixed.2.frames_delivered >= 10, "{:?}", fixed.2);
    assert_eq!(adaptive.0, fixed.0, "trace hashes diverged");
    assert_eq!(adaptive.1, fixed.1, "metrics diverged");
    assert_eq!(adaptive.2, fixed.2, "bus stats diverged");
    assert!(
        adaptive.3 * 2 <= fixed.3,
        "sparse traffic should stretch epochs: {} vs {} barriers",
        adaptive.3,
        fixed.3
    );
}

#[test]
fn epoch_split_run_matches_single_call() {
    // Same cluster, horizon reached in one call vs many small calls
    // whose boundaries land on the lookahead grid.
    let mut whole = ring_cluster();
    let l = whole.lookahead();
    whole.run_until(Time::ZERO + l * 432);

    let mut split = ring_cluster();
    for step in 1..=4 {
        split.run_until(Time::ZERO + l * (step * 108));
    }
    assert_eq!(whole.metrics(), split.metrics());
    assert_eq!(whole.stats(), split.stats());
    for (a, b) in whole.nodes().iter().zip(split.nodes()) {
        assert_eq!(
            hash_of(&a.kernel.trace().to_jsonl()),
            hash_of(&b.kernel.trace().to_jsonl()),
            "node {}",
            a.name
        );
    }
}

// --- Skipping a node in the middle of a `Compute` ---
//
// A node whose kernel is running a `Compute` is skipped until the
// compute ends or a timer or device event can preempt it. The shapes
// below put that skip at its edges; each must leave the same traces,
// metrics and bus and NIC stats under adaptive and fixed cadence, run
// in one `run_until` or cut at many horizons on the lookahead grid.

/// The lookahead window at 1 Mbit/s: one 8-byte frame time.
const L: Duration = Duration::from_us(111);

/// The periodic law of [`law_then_send`] boards.
const LAW: ThreadId = ThreadId(1);

/// What a run leaves that must not depend on how it was cut into
/// epochs: per-node trace hashes, rolled-up metrics, bus stats and
/// per-node NIC stats.
type Outcome = (Vec<u64>, ClusterMetrics, BusStats, Vec<NodeStats>);

fn outcome(c: &Cluster) -> Outcome {
    (
        c.nodes()
            .iter()
            .map(|n| hash_of(&n.kernel.trace().to_jsonl()))
            .collect(),
        c.metrics(),
        *c.stats(),
        c.nodes().iter().map(|n| n.stats.clone()).collect(),
    )
}

/// Builds a cluster and runs it to each of `cuts` in turn, handing it
/// to `at_cut` after every call.
fn run_cut(
    build: &impl Fn() -> Cluster,
    adaptive: bool,
    cuts: &[Time],
    mut at_cut: impl FnMut(&Cluster, Time),
) -> Cluster {
    let mut c = build();
    c.set_adaptive(adaptive);
    for &h in cuts {
        c.run_until(h);
        at_cut(&c, h);
    }
    c
}

/// Runs `build()` under adaptive and fixed cadence, each in one call to
/// the last of `cuts` and in one call per cut, and asserts that all
/// four leave the same outcome. `at_cut` sees the adaptive cut run
/// after every call. Returns the adaptive one-call run.
fn assert_cuts_agree(
    build: impl Fn() -> Cluster,
    cuts: &[Time],
    at_cut: impl FnMut(&Cluster, Time),
) -> Cluster {
    let end = *cuts.last().expect("at least one horizon");
    let fixed = run_cut(&build, false, &[end], |_, _| {});
    let reference = outcome(&fixed);
    assert!(reference.2.frames_delivered > 0, "no traffic");
    let adaptive = run_cut(&build, true, &[end], |_, _| {});
    assert_eq!(outcome(&adaptive), reference, "adaptive, one call");
    let cut = run_cut(&build, true, cuts, at_cut);
    assert_eq!(outcome(&cut), reference, "adaptive, {} calls", cuts.len());
    let cut = run_cut(&build, false, cuts, |_, _| {});
    assert_eq!(outcome(&cut), reference, "fixed, {} calls", cuts.len());
    assert!(adaptive.exec_stats().barriers < fixed.exec_stats().barriers);
    adaptive
}

/// Asserts that every frame node 0 posted reached node 1 two windows
/// after the window it was posted in: harvested at the next grid point,
/// one frame time (one window) on the wire, then staged, so the sink's
/// receive interrupt falls in the window after staging. A node skipped
/// past its post has it harvested, and so delivered, late, under either
/// cadence.
fn assert_frames_land_on_time(c: &Cluster) {
    let windows = |n: u32, kind: fn(&TraceEvent) -> bool| -> Vec<u64> {
        let trace = c.node(NodeId(n)).kernel.trace();
        let hits = trace.iter().filter(|(_, e)| kind(e));
        hits.map(|(t, _)| t.as_ns() / L.as_ns()).collect()
    };
    let posted = windows(0, |e| matches!(e, TraceEvent::MboxSend { .. }));
    let raised = windows(1, |e| matches!(e, TraceEvent::IrqRaised { .. }));
    assert!(!posted.is_empty(), "node 0 posted nothing");
    let expected: Vec<u64> = posted.iter().map(|w| w + 2).collect();
    assert_eq!(raised, expected);
}

/// The lookahead grid point `k` windows from time zero.
fn grid(k: u64) -> Time {
    Time::ZERO + L * k
}

/// A traced RM board with a NIC and a driver (thread 0) that drains
/// it; callers add their tasks, then build.
fn nic_board() -> (KernelBuilder, ProcId, Nic) {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::RmQueue,
        record_trace: true,
        ..KernelConfig::default()
    });
    let p = b.add_process("board");
    let nic = b.add_nic(NIC_IRQ, 8, 16);
    b.add_driver_task(
        p,
        "nicdrv",
        Duration::from_ms(2),
        Script::looping(vec![
            Action::RecvMbox(nic.rx),
            Action::Compute(Duration::from_us(40)),
        ]),
    );
    (b, p, nic)
}

/// A board whose periodic law computes for `compute`, then posts one
/// frame to `dst`.
fn law_then_send(period: Duration, compute: Duration, dst: NodeId) -> Kernel {
    let (mut b, p, nic) = nic_board();
    b.add_periodic_task(
        p,
        "law",
        period,
        Script::periodic(vec![
            Action::Compute(compute),
            Action::SendMbox {
                mbox: nic.tx,
                bytes: 8,
                tag: addressed_tag(Some(dst), 7),
            },
        ]),
    );
    b.build()
}

/// A compute that ends exactly on a barrier: its `SendMbox` runs in the
/// next epoch, so the frame is harvested at the grid point after it,
/// as under fixed cadence. The law's period is 45 windows and every job
/// after the first starts its compute at the same offset past its
/// release, so a compute of three windows less that offset ends on the
/// grid. Pins the adaptive barrier count: the grid rule stretches over
/// the computing node up to its compute's end.
#[test]
fn compute_ending_on_a_barrier_then_sending_is_cut_invisibly() {
    const JOBS: u64 = 12;
    let period = L * 45;
    // The offset, from a probe whose 1 ms compute is still running
    // 500 µs into its second job.
    let probe_compute = Duration::from_ms(1);
    let mut probe = law_then_send(period, probe_compute, NodeId(1));
    let second = Time::ZERO + period;
    probe.run_until(second + Duration::from_us(500));
    let ran = probe.tcb(LAW).cpu_time - probe_compute;
    let offset = Duration::from_us(500) - ran;
    let compute = L * 3 - offset;
    let build = || {
        let mut c = Cluster::new(1_000_000);
        c.add_node("law", law_then_send(period, compute, NodeId(1)), 1);
        c.add_node("sink", nic_board().0.build(), 2);
        c
    };
    // Cut at every job's compute end, then run on past the last job.
    let mut cuts: Vec<Time> = (1..=JOBS).map(|k| grid(45 * k + 3)).collect();
    cuts.push(grid(45 * JOBS + 20));
    let mut on_grid = 0;
    let c = assert_cuts_agree(build, &cuts, |c, h| {
        let k = &c.node(NodeId(0)).kernel;
        if k.now() == h && k.current() == Some(LAW) && k.tcb(LAW).pc == 1 {
            on_grid += 1; // computed up to the cut, the send still ahead
        }
    });
    assert_eq!(on_grid, JOBS, "every later job's compute ends on the grid");
    assert_frames_land_on_time(&c);
    assert_eq!(c.exec_stats().barriers, 53);
}

/// A long compute preempted by a timer: the law's 600 µs compute is
/// skipped only up to the alarm's release, and the alarm, which
/// outranks it, posts a frame at once.
#[test]
fn timer_preempting_a_long_compute_is_cut_invisibly() {
    let build = || {
        let (mut b, p, nic) = nic_board();
        b.add_periodic_task(
            p,
            "law",
            Duration::from_ms(10),
            Script::compute_only(Duration::from_us(600)),
        );
        b.add_periodic_task_phased(
            p,
            "alarm",
            Duration::from_ms(2),
            Duration::from_ms(2),
            Duration::from_us(250),
            Script::periodic(vec![
                Action::SendMbox {
                    mbox: nic.tx,
                    bytes: 8,
                    tag: addressed_tag(Some(NodeId(1)), 3),
                },
                Action::Compute(Duration::from_us(30)),
            ]),
        );
        let mut c = Cluster::new(1_000_000);
        c.add_node("alarmed", b.build(), 1);
        c.add_node("sink", nic_board().0.build(), 2);
        c
    };
    let cuts: Vec<Time> = (1..=60).map(|k| grid(9 * k)).collect();
    let c = assert_cuts_agree(build, &cuts, |_, _| {});
    // The law never blocks mid-job, so a switch from it to the alarm
    // is the alarm preempting its compute: once per law job.
    let (law, alarm) = (Some(ThreadId(1)), Some(ThreadId(2)));
    let k = &c.node(NodeId(0)).kernel;
    let preemptions = k
        .trace()
        .context_switch_sequence()
        .into_iter()
        .filter(|&s| s == (law, alarm))
        .count();
    assert_eq!(preemptions, 6);
    assert_frames_land_on_time(&c);
}

/// A fail-stop window that opens in the middle of a compute the engine
/// is skipping: the victim's law is released at 10 ms and computes for
/// 1.5 ms, and its outage opens at 10.7 ms. The gate stalls the kernel
/// there whenever the node next runs (its next advance, or the run-end
/// catch-up of a cut inside the window), so the victim matches the
/// same board driven through its gate at every grid point, while two
/// other boards keep the bus busy.
#[test]
fn fail_stop_opening_mid_compute_on_a_skipped_node_is_cut_invisibly() {
    let (start, outage) = (Time::from_us(10_700), Duration::from_ms(2));
    let victim = || {
        let (mut b, p, _) = nic_board();
        b.add_periodic_task(
            p,
            "law",
            Duration::from_ms(10),
            Script::compute_only(Duration::from_us(1_500)),
        );
        b.build()
    };
    let build = || {
        let mut c = Cluster::new(1_000_000);
        c.add_node("victim", victim(), 1);
        let ms = Duration::from_ms;
        c.add_node("a", law_then_send(ms(3), ms(1), NodeId(2)), 2);
        c.add_node("b", law_then_send(ms(4), ms(1), NodeId(1)), 3);
        c.set_fault_plan(&FaultPlan::new(1).fail_stop(NodeId(0), start, outage));
        c
    };
    // 97 windows is 10.767 ms: a cut inside the outage, while the
    // victim's compute is still running.
    let cuts = [grid(40), grid(97), grid(120), grid(360)];
    let mut stalled_at_cut = false;
    let c = assert_cuts_agree(build, &cuts, |c, h| {
        if h == grid(97) {
            stalled_at_cut = c.node(NodeId(0)).kernel.now() == start + outage;
        }
    });
    assert!(stalled_at_cut, "the catch-up inside the window stalls");
    let mut reference = victim();
    let mut gate = FailStopGate::new(&[(start, start + outage)]);
    let end = grid(360);
    let mut t = Time::ZERO;
    while t < end {
        t = end.min(t + L);
        gate.drive(&mut reference, t);
    }
    let k = &c.node(NodeId(0)).kernel;
    assert_eq!(k.metrics(), reference.metrics());
    assert_eq!(k.trace().to_jsonl(), reference.trace().to_jsonl());
}

/// Run horizons inside a compute: the run-end catch-up drives a busy
/// kernel through the rest of its window's compute and leaves it
/// mid-`Compute` at the horizon, and the next run resumes it from
/// `compute_left`.
#[test]
fn horizons_inside_a_compute_are_cut_invisibly() {
    const N: u64 = 4;
    let build = || {
        let mut c = Cluster::new(1_000_000);
        for i in 0..N {
            let period = Duration::from_us(3_100 + 600 * i);
            let compute = Duration::from_us(450 + 70 * i);
            let next = NodeId(((i + 1) % N) as u32);
            c.add_node(
                format!("n{i}"),
                law_then_send(period, compute, next),
                1 + i as u32,
            );
        }
        c
    };
    let cuts: Vec<Time> = (1..=90).map(|k| grid(4 * k)).collect();
    let mut mid_compute = 0;
    assert_cuts_agree(build, &cuts, |c, h| {
        for n in c.nodes() {
            let k = &n.kernel;
            if k.current()
                .is_some_and(|t| !k.tcb(t).compute_left.is_zero())
            {
                assert_eq!(k.now(), h, "{} overshot the horizon", n.name);
                mid_compute += 1;
            }
        }
    });
    assert!(mid_compute >= 20, "{mid_compute} nodes cut mid-compute");
}
