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

use emeralds::core::ipc::EXTERNAL_WRITER;
use emeralds::core::kernel::{ClusterMetrics, ConfigError, Kernel, KernelBuilder, KernelConfig};
use emeralds::core::script::{Action, Operand, Script};
use emeralds::core::{SchedPolicy, SemScheme};
use emeralds::faults::FaultPlan;
use emeralds::fieldbus::{addressed_tag, BusStats, Cluster, FailStopGate, NodeStats};
use emeralds::hal::Nic;
use emeralds::sim::{
    Duration, IrqLine, NodeId, ProcId, SimRng, StateId, ThreadId, Time, TraceEvent,
};

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
    let posted = windows(c, 0, |e| matches!(e, TraceEvent::MboxSend { .. }));
    let raised = windows(c, 1, |e| matches!(e, TraceEvent::IrqRaised { .. }));
    assert!(!posted.is_empty(), "node 0 posted nothing");
    let expected: Vec<u64> = posted.iter().map(|w| w + 2).collect();
    assert_eq!(raised, expected);
}

/// The lookahead windows in which node `n` recorded an event of `kind`.
fn windows(c: &Cluster, n: u32, kind: impl Fn(&TraceEvent) -> bool) -> Vec<u64> {
    let trace = c.node(NodeId(n)).kernel.trace();
    let hits = trace.iter().filter(|(_, e)| kind(e));
    hits.map(|(t, _)| t.as_ns() / L.as_ns()).collect()
}

/// The windows of node `n`'s posts to its NIC's TX mailbox.
fn is_tx_post(c: &Cluster, n: u32) -> Vec<u64> {
    let tx = c.node(NodeId(n)).nic.tx;
    windows(
        c,
        n,
        |e| matches!(e, TraceEvent::MboxSend { mbox, .. } if *mbox == tx),
    )
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

// --- Bus wakes ---
//
// A node is driven only when it can touch the bus (post to its NIC or
// write a state message), when a frame is staged for it, or at the
// run-end catch-up; its local work runs in whole stretches in between.
// The shapes below sit at the edges of that bound. Each is cut at
// every grid point under both cadences, and each also has a check the
// wake does not decide: frames landing two windows after their post,
// or a board driven through its fail-stop gate at every grid point.
// Both cadences skip by the same wake, so only such a check catches a
// late one.

/// Runs `build()` through [`assert_cuts_agree`], cut at each of the
/// first `windows` grid points, and checks that node 0's posts reach
/// node 1 on time.
fn assert_bus_shape(build: impl Fn() -> Cluster, run_windows: u64) -> Cluster {
    let cuts: Vec<Time> = (1..=run_windows).map(grid).collect();
    let c = assert_cuts_agree(build, &cuts, |_, _| {});
    assert_posts_reach(&c, 0, 1, is_tx_post, run_windows);
    c
}

/// [`assert_posts_land_on_time`] for posts whose system call may begin
/// in the window before the one the post is recorded in (its entry
/// charges cross a grid point): each post recorded in window `w` lands
/// in window `w + 1` or `w + 2`, in order, and every post recorded
/// before the last three of the run's `run_windows` lands. A node driven
/// late has its post harvested a window late or more, so it lands in
/// `w + 3` or after.
fn assert_posts_reach(
    c: &Cluster,
    src: u32,
    dst: u32,
    posted: fn(&Cluster, u32) -> Vec<u64>,
    run_windows: u64,
) {
    let posts = posted(c, src);
    let landed = windows_of_landings(c, dst);
    assert!(!posts.is_empty(), "node {src} posted nothing");
    let due = posts.iter().filter(|&&w| w + 3 <= run_windows).count();
    assert!(
        landed.len() >= due && landed.len() <= posts.len(),
        "{posts:?} -> {landed:?}"
    );
    for (w, l) in posts.iter().zip(&landed) {
        assert!(
            *l == w + 1 || *l == w + 2,
            "node {src} -> node {dst}: {posts:?} -> {landed:?}"
        );
    }
}

/// The windows in which node `n` took delivery of a frame: a receive
/// interrupt, or a replica write for a state message.
fn windows_of_landings(c: &Cluster, n: u32) -> Vec<u64> {
    windows(c, n, |e| {
        matches!(e, TraceEvent::IrqRaised { .. })
            || matches!(e, TraceEvent::StateWrite { tid, .. } if *tid == EXTERNAL_WRITER)
    })
}

/// A traced RM board with a NIC but no driver, under `sem_scheme`.
fn bare_board(sem_scheme: SemScheme) -> (KernelBuilder, ProcId, Nic) {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::RmQueue,
        sem_scheme,
        record_trace: true,
        ..KernelConfig::default()
    });
    let p = b.add_process("board");
    let nic = b.add_nic(NIC_IRQ, 8, 16);
    (b, p, nic)
}

/// Two boards: `sender` as node 0 and a draining sink as node 1.
fn with_sink(sender: Kernel) -> Cluster {
    let mut c = Cluster::new(1_000_000);
    c.add_node("sender", sender, 1);
    c.add_node("sink", nic_board().0.build(), 2);
    c
}

fn send_to(nic: Nic, dst: u32) -> Action {
    Action::SendMbox {
        mbox: nic.tx,
        bytes: 8,
        tag: addressed_tag(Some(NodeId(dst)), 5),
    }
}

fn us(v: u64) -> Duration {
    Duration::from_us(v)
}

/// A bus task parked on a local mailbox, which a filler fills: the
/// sender has no release of its own, so the node reports the filler's
/// next action until the sender holds a message.
#[test]
fn bus_task_woken_by_a_filler_through_a_mailbox_is_cut_invisibly() {
    assert_bus_shape(
        || {
            let (mut b, p, nic) = nic_board();
            let local = b.add_mailbox(2);
            let feed = vec![
                Action::Compute(us(40)),
                Action::SendMbox {
                    mbox: local,
                    bytes: 4,
                    tag: 1,
                },
            ];
            b.add_periodic_task(p, "feeder", us(1_300), Script::periodic(feed));
            let relay = vec![
                Action::RecvMbox(local),
                Action::Compute(us(70)),
                send_to(nic, 1),
            ];
            b.add_driver_task(p, "relay", Duration::from_ms(3), Script::looping(relay));
            b.add_periodic_task(p, "filler", us(400), Script::compute_only(us(25)));
            with_sink(b.build())
        },
        150,
    );
}

/// The same wake through a software event.
#[test]
fn bus_task_woken_by_a_filler_through_an_event_is_cut_invisibly() {
    assert_bus_shape(
        || {
            let (mut b, p, nic) = nic_board();
            let e = b.add_event();
            let signal = vec![Action::Compute(us(30)), Action::SignalEvent(e)];
            b.add_periodic_task(p, "signaller", us(1_700), Script::periodic(signal));
            let relay = vec![
                Action::WaitEvent(e),
                Action::Compute(us(50)),
                send_to(nic, 1),
            ];
            b.add_driver_task(p, "relay", Duration::from_ms(3), Script::looping(relay));
            b.add_periodic_task(p, "filler", us(450), Script::compute_only(us(30)));
            with_sink(b.build())
        },
        150,
    );
}

/// A forwarder parked on its NIC's receive mailbox never wakes on its
/// own: node 1 relays node 0's frames to node 2 whenever they land.
#[test]
fn rx_to_tx_forwarder_is_cut_invisibly() {
    let c = assert_bus_shape(
        || {
            let mut c = Cluster::new(1_000_000);
            c.add_node("sender", law_then_send(us(2_300), us(150), NodeId(1)), 1);
            let (mut b, p, nic) = bare_board(SemScheme::Emeralds);
            let relay = vec![
                Action::RecvMbox(nic.rx),
                Action::Compute(us(60)),
                send_to(nic, 2),
            ];
            b.add_driver_task(p, "forwarder", Duration::from_ms(2), Script::looping(relay));
            b.add_periodic_task(p, "filler", us(500), Script::compute_only(us(35)));
            c.add_node("forwarder", b.build(), 2);
            c.add_node("sink", nic_board().0.build(), 3);
            c
        },
        150,
    );
    assert_posts_reach(&c, 1, 2, is_tx_post, 150);
}

/// Under SRP a release the system ceiling defers stays blocked at its
/// job's start with the job not done: not parked, so the node reports
/// its kernel's next action until the ceiling admits the sender.
#[test]
fn srp_deferred_release_is_cut_invisibly() {
    let c = assert_bus_shape(
        || {
            let (mut b, p, nic) = bare_board(SemScheme::Srp);
            b.add_driver_task(
                p,
                "nicdrv",
                Duration::from_ms(2),
                Script::looping(vec![Action::RecvMbox(nic.rx), Action::Compute(us(40))]),
            );
            let m = b.add_mutex();
            let send = vec![
                Action::AcquireSem(m),
                Action::Compute(us(40)),
                Action::ReleaseSem(m),
                Action::Compute(us(60)),
                send_to(nic, 1),
            ];
            b.add_periodic_task(p, "sender", us(2_000), Script::periodic(send));
            // Holds the mutex over the sender's release at 2 ms.
            let hog = vec![
                Action::AcquireSem(m),
                Action::Compute(us(900)),
                Action::ReleaseSem(m),
            ];
            let period = us(5_000);
            b.add_periodic_task_phased(p, "hog", period, period, us(1_500), Script::periodic(hog));
            with_sink(b.build())
        },
        150,
    );
    let defers = c.node(NodeId(0)).kernel.metrics().counters.ceiling_defers;
    assert!(defers > 0, "no release was deferred");
}

/// A state-link writer: the exchange samples the writer variable of a
/// skipped node, so the node must run before each write's barrier.
#[test]
fn state_link_writer_is_cut_invisibly() {
    let build = || {
        let (mut b, p, _) = bare_board(SemScheme::Emeralds);
        let write = vec![
            Action::Compute(us(120)),
            Action::StateWrite {
                var: StateId(0),
                value: Operand::Const(7),
            },
        ];
        let writer = b.add_periodic_task(p, "writer", us(1_900), Script::periodic(write));
        let var = b.add_state_msg(writer, 8, 3, &[]);
        b.add_periodic_task(p, "filler", us(350), Script::compute_only(us(20)));
        let (mut r, rp, _) = bare_board(SemScheme::Emeralds);
        let replica = r.add_state_replica(rp, 8, 3, &[]);
        let read = vec![Action::StateRead(replica), Action::Compute(us(20))];
        r.add_periodic_task(rp, "reader", us(2_500), Script::periodic(read));
        let mut c = Cluster::new(1_000_000);
        c.add_node("writer", b.build(), 1);
        c.add_node("replica", r.build(), 2);
        c.link_state(NodeId(0), var, NodeId(1), replica, 3, 8);
        c
    };
    let cuts: Vec<Time> = (1..=150).map(grid).collect();
    let c = assert_cuts_agree(build, &cuts, |_, _| {});
    let writes = |c: &Cluster, n: u32| {
        windows(
            c,
            n,
            |e| matches!(e, TraceEvent::StateWrite { tid, .. } if *tid != EXTERNAL_WRITER),
        )
    };
    assert_posts_reach(&c, 0, 1, writes, 150);
}

/// A sleeper that sends: its wake timer, not a release, brings it back.
#[test]
fn sleeper_that_sends_is_cut_invisibly() {
    assert_bus_shape(
        || {
            let (mut b, p, nic) = nic_board();
            let nap = vec![
                Action::SleepFor(us(1_100)),
                Action::Compute(us(80)),
                send_to(nic, 1),
            ];
            b.add_driver_task(p, "sleeper", Duration::from_ms(3), Script::looping(nap));
            b.add_periodic_task(p, "filler", us(380), Script::compute_only(us(20)));
            with_sink(b.build())
        },
        150,
    );
}

/// A sender's compute split by a preempting filler: while it is
/// preempted the node reports the rest of the compute from now, which
/// the preemption only pushes later.
#[test]
fn sender_preempted_mid_compute_is_cut_invisibly() {
    let c = assert_bus_shape(
        || {
            let (mut b, p, nic) = nic_board();
            let send = vec![Action::Compute(us(400)), send_to(nic, 1)];
            b.add_periodic_task(p, "sender", us(3_000), Script::periodic(send));
            b.add_periodic_task(p, "filler", us(700), Script::compute_only(us(60)));
            with_sink(b.build())
        },
        150,
    );
    let (sender, filler) = (Some(ThreadId(1)), Some(ThreadId(2)));
    let k = &c.node(NodeId(0)).kernel;
    let preempted = k
        .trace()
        .context_switch_sequence()
        .into_iter()
        .filter(|&s| s == (sender, filler))
        .count();
    assert!(preempted > 0, "the filler never preempted the sender");
}

/// A local task sending into the NIC's receive mailbox wakes the bus
/// task parked there, so that send bounds the node like a bus action.
#[test]
fn local_send_into_the_rx_mailbox_is_cut_invisibly() {
    assert_bus_shape(
        || {
            let (mut b, p, nic) = bare_board(SemScheme::Emeralds);
            let relay = vec![
                Action::RecvMbox(nic.rx),
                Action::Compute(us(50)),
                send_to(nic, 1),
            ];
            b.add_driver_task(p, "relay", Duration::from_ms(3), Script::looping(relay));
            let inject = vec![
                Action::Compute(us(30)),
                Action::SendMbox {
                    mbox: nic.rx,
                    bytes: 4,
                    tag: 9,
                },
            ];
            b.add_periodic_task(p, "injector", us(1_500), Script::periodic(inject));
            b.add_periodic_task(p, "filler", us(420), Script::compute_only(us(25)));
            with_sink(b.build())
        },
        150,
    );
}

/// A fail-stop window over a node that lags through many filler jobs
/// between its rare sends: the gate stalls the kernel wherever the
/// node next runs, so the victim matches the same board driven through
/// its gate at every grid point.
#[test]
fn fail_stop_over_a_lagging_filler_node_is_cut_invisibly() {
    let (start, outage) = (Time::from_us(6_050), Duration::from_us(2_300));
    let victim = || {
        let (mut b, p, nic) = nic_board();
        let send = vec![Action::Compute(us(100)), send_to(nic, 1)];
        b.add_periodic_task(p, "sender", us(4_000), Script::periodic(send));
        for (i, period) in [310, 470, 530, 690].into_iter().enumerate() {
            b.add_periodic_task(
                p,
                format!("filler{i}"),
                us(period),
                Script::compute_only(us(30)),
            );
        }
        b.build()
    };
    let build = || {
        let mut c = with_sink(victim());
        c.add_node("peer", law_then_send(us(2_900), us(300), NodeId(1)), 3);
        c.set_fault_plan(&FaultPlan::new(1).fail_stop(NodeId(0), start, outage));
        c
    };
    let cuts: Vec<Time> = (1..=150).map(grid).collect();
    let c = assert_cuts_agree(build, &cuts, |_, _| {});
    let mut reference = victim();
    let mut gate = FailStopGate::new(&[(start, start + outage)]);
    let end = grid(150);
    let mut t = Time::ZERO;
    while t < end {
        t = end.min(t + L);
        gate.drive(&mut reference, t);
    }
    let k = &c.node(NodeId(0)).kernel;
    assert_eq!(k.metrics(), reference.metrics());
    assert_eq!(k.trace().to_jsonl(), reference.trace().to_jsonl());
}

// --- Randomized executive parity (oracle 2 of the randomized campaign) ---

/// A seeded random cluster of 2–6 boards, each under RM, EDF, DM or
/// CSD and one of the three locking protocols (SRP falls back to the
/// EMERALDS scheme where its build-time analysis rejects the board).
/// Every board drains its NIC or forwards what it hears, sends on a
/// period (its deadline sometimes constrained, its phase random), and
/// may add fillers, a mutex, a relay woken through a local mailbox or
/// an event, a sleeper that sends, a local sender into its own receive
/// mailbox, and a state message linked to the next board. Half the
/// clusters get a random fault plan (fail-stops, babble, corruption).
fn random_cluster(seed: u64, horizon: Time) -> Cluster {
    let mut rng = SimRng::seeded(seed);
    let n = rng.int_in(2, 6) as usize;
    let writes: Vec<bool> = (0..n).map(|_| rng.chance(0.3)).collect();
    let mut c = Cluster::new(1_000_000);
    let mut vars = Vec::new();
    for i in 0..n {
        let board_seed = rng.raw();
        let replica = writes[(i + n - 1) % n];
        let schemes = [SemScheme::Standard, SemScheme::Emeralds, SemScheme::Srp];
        let scheme = schemes[rng.int_in(0, 2) as usize];
        let (k, var) = random_board(board_seed, i, n, scheme, writes[i], replica)
            .or_else(|_| random_board(board_seed, i, n, SemScheme::Emeralds, writes[i], replica))
            .expect("a PI board always builds");
        vars.push(var);
        c.add_node(format!("r{i}"), k, (i + 1) as u32);
    }
    for i in (0..n).filter(|&i| writes[i]) {
        let j = (i + 1) % n;
        let (w, r) = (vars[i].0.expect("writer var"), vars[j].1.expect("replica"));
        c.link_state(NodeId(i as u32), w, NodeId(j as u32), r, 100 + i as u32, 8);
    }
    if rng.chance(0.5) {
        let corruption = rng.int_in(0, 5) as f64 / 100.0;
        c.set_fault_plan(&FaultPlan::random(seed, n, horizon, corruption, 0.4, 0.2));
    }
    c
}

/// A built random board: its kernel, and its state writer and replica
/// variables when it has them.
type RandomBoard = (Kernel, (Option<StateId>, Option<StateId>));

/// One board of [`random_cluster`].
fn random_board(
    seed: u64,
    i: usize,
    n: usize,
    sem_scheme: SemScheme,
    writer: bool,
    replica: bool,
) -> Result<RandomBoard, ConfigError> {
    let mut rng = SimRng::seeded(seed);
    let policies = [
        SchedPolicy::RmQueue,
        SchedPolicy::Edf,
        SchedPolicy::DmQueue,
        SchedPolicy::Csd {
            boundaries: vec![1],
        },
    ];
    let mut b = KernelBuilder::new(KernelConfig {
        policy: policies[rng.int_in(0, 3) as usize].clone(),
        sem_scheme,
        record_trace: true,
        ..KernelConfig::default()
    });
    let p = b.add_process("board");
    let nic = b.add_nic(
        NIC_IRQ,
        rng.int_in(2, 8) as usize,
        rng.int_in(2, 16) as usize,
    );
    let dst = |rng: &mut SimRng| {
        let d = (i + rng.int_in(1, n as u64 - 1) as usize) % n;
        Action::SendMbox {
            mbox: nic.tx,
            bytes: rng.int_in(1, 8) as usize,
            tag: addressed_tag((!rng.chance(0.1)).then_some(NodeId(d as u32)), i as u32),
        }
    };
    let mut drain = vec![
        Action::RecvMbox(nic.rx),
        Action::Compute(us(rng.int_in(10, 80))),
    ];
    if rng.chance(0.3) {
        drain.push(dst(&mut rng));
    }
    b.add_driver_task(p, "nicdrv", Duration::from_ms(2), Script::looping(drain));
    let period = us(rng.int_in(1_000, 6_000));
    let deadline = if rng.chance(0.3) {
        period * 2 / 3
    } else {
        period
    };
    let mutex = rng.chance(0.4).then(|| b.add_mutex());
    let mut send = vec![Action::Compute(us(rng.int_in(20, 700)))];
    if let Some(m) = mutex {
        send.extend([
            Action::AcquireSem(m),
            Action::Compute(us(rng.int_in(10, 60))),
            Action::ReleaseSem(m),
        ]);
    }
    send.push(dst(&mut rng));
    let phase = us(rng.int_in(0, 1_000));
    b.add_periodic_task_phased(p, "sender", period, deadline, phase, Script::periodic(send));
    for f in 0..rng.int_in(0, 3) {
        let mut work = vec![Action::Compute(us(rng.int_in(10, 80)))];
        if let Some(m) = mutex.filter(|_| rng.chance(0.5)) {
            work = vec![Action::AcquireSem(m), work[0], Action::ReleaseSem(m)];
        }
        b.add_periodic_task(
            p,
            format!("filler{f}"),
            us(rng.int_in(300, 2_000)),
            Script::periodic(work),
        );
    }
    if rng.chance(0.4) {
        let local = b.add_mailbox(rng.int_in(1, 3) as usize);
        let feed = vec![
            Action::Compute(us(rng.int_in(10, 50))),
            Action::SendMbox {
                mbox: local,
                bytes: 4,
                tag: 1,
            },
        ];
        b.add_periodic_task(
            p,
            "feeder",
            us(rng.int_in(700, 3_000)),
            Script::periodic(feed),
        );
        let relay = vec![
            Action::RecvMbox(local),
            Action::Compute(us(rng.int_in(20, 100))),
            dst(&mut rng),
        ];
        b.add_driver_task(p, "relay", Duration::from_ms(3), Script::looping(relay));
    }
    if rng.chance(0.3) {
        let e = b.add_event();
        let signal = vec![
            Action::Compute(us(rng.int_in(10, 50))),
            Action::SignalEvent(e),
        ];
        b.add_periodic_task(
            p,
            "signaller",
            us(rng.int_in(700, 3_000)),
            Script::periodic(signal),
        );
        let relay = vec![
            Action::WaitEvent(e),
            Action::Compute(us(rng.int_in(20, 100))),
            dst(&mut rng),
        ];
        b.add_driver_task(p, "waiter", Duration::from_ms(4), Script::looping(relay));
    }
    if rng.chance(0.3) {
        let nap = vec![
            Action::SleepFor(us(rng.int_in(300, 2_000))),
            Action::Compute(us(rng.int_in(10, 100))),
            dst(&mut rng),
        ];
        b.add_driver_task(p, "sleeper", Duration::from_ms(5), Script::looping(nap));
    }
    if rng.chance(0.2) {
        let inject = vec![
            Action::Compute(us(rng.int_in(10, 50))),
            Action::SendMbox {
                mbox: nic.rx,
                bytes: 4,
                tag: 9,
            },
        ];
        b.add_periodic_task(
            p,
            "injector",
            us(rng.int_in(800, 3_000)),
            Script::periodic(inject),
        );
    }
    let mut vars = (None, None);
    if writer {
        let write = vec![
            Action::Compute(us(rng.int_in(20, 200))),
            Action::StateWrite {
                var: StateId(0),
                value: Operand::Const(i as u32),
            },
        ];
        let w = b.add_periodic_task(
            p,
            "writer",
            us(rng.int_in(900, 4_000)),
            Script::periodic(write),
        );
        vars.0 = Some(b.add_state_msg(w, 8, 3, &[]));
    }
    if replica {
        let r = b.add_state_replica(p, 8, 3, &[]);
        let read = vec![
            Action::StateRead(r),
            Action::Compute(us(rng.int_in(10, 40))),
        ];
        b.add_periodic_task(
            p,
            "reader",
            us(rng.int_in(900, 4_000)),
            Script::periodic(read),
        );
        vars.1 = Some(r);
    }
    b.try_build().map(|k| (k, vars))
}

/// Oracle 2 on random clusters: adaptive and fixed cadence, each in one
/// call and cut at random grid points, leave the same traces, metrics,
/// bus stats and NIC stats. (A cut off the grid moves the grid of the
/// run after it, and so the barriers that harvest and stage frames.)
#[test]
fn random_clusters_agree_across_cadences_and_cuts() {
    let windows = 216;
    let horizon = grid(windows);
    let mut traffic = 0;
    for seed in 0..24u64 {
        let mut rng = SimRng::seeded(seed ^ 0xB05);
        let mut cuts: Vec<Time> = (0..rng.int_in(2, 8))
            .map(|_| grid(rng.int_in(1, windows - 1)))
            .collect();
        cuts.sort();
        cuts.dedup();
        cuts.push(horizon);
        let build = || random_cluster(seed, horizon);
        let reference = outcome(&run_cut(&build, false, &[horizon], |_, _| {}));
        traffic += reference.2.frames_delivered;
        for adaptive in [true, false] {
            let one = run_cut(&build, adaptive, &[horizon], |_, _| {});
            assert_eq!(
                outcome(&one),
                reference,
                "seed {seed}, adaptive {adaptive}, one call"
            );
            let cut = run_cut(&build, adaptive, &cuts, |_, _| {});
            assert_eq!(
                outcome(&cut),
                reference,
                "seed {seed}, adaptive {adaptive}, cut at {cuts:?}"
            );
        }
    }
    assert!(traffic > 0, "no frame crossed any bus");
}
