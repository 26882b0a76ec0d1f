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

use emeralds::core::kernel::{Kernel, KernelBuilder, KernelConfig};
use emeralds::core::script::{Action, Script};
use emeralds::core::SchedPolicy;
use emeralds::faults::FaultPlan;
use emeralds::fieldbus::{addressed_tag, Cluster};
use emeralds::sim::{Duration, IrqLine, NodeId, SimRng, Time};

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
