//! Property-style invariants of the fault-injection path.
//!
//! Like `proptest_invariants.rs`, case generation is a deterministic
//! seeded [`SimRng`] loop (the container builds offline, so the
//! proptest crate itself is unavailable). Two properties the CAN
//! error machinery must uphold for any fault schedule:
//!
//! 1. **Retransmission never reorders**: same-priority frames from
//!    one node arrive in FIFO order and none are lost, no matter how
//!    many grants the corruption schedule flags.
//! 2. **Bus-off contains the babbler**: a node driven to bus-off
//!    stops appearing on the bus — frames it posts while off are
//!    dropped at its dead NIC — while other nodes keep transmitting,
//!    and after recovery it rejoins.
//! 3. **Frame accounting balances**: at any observation point,
//!    `sent == delivered + dropped + in_flight` — no frame is ever
//!    leaked by the retry/overwrite/outage machinery, state links
//!    included.

use emeralds::core::ipc::Message;
use emeralds::core::kernel::{Kernel, KernelBuilder, KernelConfig};
use emeralds::core::script::{Action, Operand, Script};
use emeralds::core::SchedPolicy;
use emeralds::faults::FaultPlan;
use emeralds::fieldbus::{addressed_tag, Cluster};
use emeralds::sim::{Duration, IrqLine, NodeId, SimRng, StateId, ThreadId, Time};

/// The frame-conservation invariant, checked wherever a cluster is
/// observed at rest.
fn assert_frames_conserved(net: &Cluster, ctx: &str) {
    let s = net.stats();
    assert_eq!(
        s.frames_sent,
        s.frames_delivered + s.frames_dropped + s.frames_in_flight,
        "frame accounting leak ({ctx}): {s:?}"
    );
}

/// Randomized cases per property.
const CASES: u64 = 16;

/// A minimal node: one idle periodic task keeps the kernel alive;
/// frames are injected and observed externally through the mailboxes.
fn shell_node(tx_cap: usize, rx_cap: usize) -> Kernel {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::RmQueue,
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process("shell");
    b.add_nic(IrqLine(2), tx_cap, rx_cap);
    b.add_periodic_task(
        p,
        "idle",
        Duration::from_ms(5),
        Script::compute_only(Duration::from_us(10)),
    );
    b.build()
}

/// Queues `n_frames` same-priority frames on one node under a
/// corruption schedule and checks every frame arrives, in order.
/// Returns (retransmissions, error_frames) for aggregate assertions.
fn check_fifo_preserved(seed: u64, n_frames: u32, corruption: f64) -> (u64, u64) {
    let mut net = Cluster::new(1_000_000);
    let src = net.add_node("src", shell_node(64, 8), 10);
    let sink = net.add_node("sink", shell_node(8, 64), 20);
    let (tx0, rx1) = (net.node(src).nic.tx, net.node(sink).nic.rx);
    net.set_fault_plan(&FaultPlan::new(seed).with_corruption(corruption));
    for i in 0..n_frames {
        let ok = net.node_mut(src).kernel.external_mbox_push(
            tx0,
            Message {
                bytes: 8,
                tag: addressed_tag(Some(sink), i),
                sender: ThreadId(0),
            },
        );
        assert!(ok, "TX mailbox overflow at frame {i}");
    }
    net.run_until(Time::from_ms(60));
    // The corruption rates used here cannot push TEC past 255, so no
    // frame may be lost; a loss here is itself a reordering bug.
    assert_eq!(
        net.stats().bus_off_events,
        0,
        "unexpected bus-off at corruption {corruption}"
    );
    for i in 0..n_frames {
        let msg = net
            .node_mut(sink)
            .kernel
            .external_mbox_pop(rx1)
            .unwrap_or_else(|| panic!("frame {i} missing (seed {seed:#x}, p {corruption})"));
        assert_eq!(
            msg.tag, i,
            "frames reordered (seed {seed:#x}, p {corruption})"
        );
        assert_eq!(msg.sender, ThreadId(u32::MAX - src.0));
    }
    assert!(
        net.node_mut(sink).kernel.external_mbox_pop(rx1).is_none(),
        "phantom extra frame delivered"
    );
    assert_frames_conserved(&net, &format!("fifo seed {seed:#x}"));
    (net.stats().retransmissions, net.stats().error_frames)
}

#[test]
fn retransmission_preserves_same_priority_fifo() {
    // Pinned high-corruption case: this seed provably retransmits.
    let (retrans, errors) = check_fifo_preserved(0xF1F0, 20, 0.35);
    assert!(retrans > 0, "pinned case must exercise retransmission");
    assert_eq!(retrans, errors, "every flagged frame was requeued");

    let mut rng = SimRng::seeded(0xCA5E);
    let mut total_retrans = 0;
    for _ in 0..CASES {
        let n = rng.int_in(5, 30) as u32;
        let p = rng.int_in(5, 35) as f64 / 100.0;
        let seed = rng.int_in(1, u64::MAX - 1);
        let (r, _) = check_fifo_preserved(seed, n, p);
        total_retrans += r;
    }
    assert!(total_retrans > 0, "no case exercised the error path");
}

/// Drives one node to bus-off by babbling, then checks containment:
/// while off, its frames vanish at the NIC and a clean peer still
/// gets through; once the window ends, it recovers and rejoins.
fn check_busoff_contains(babble_period_us: u64, babble_start_us: u64) {
    let mut net = Cluster::new(1_000_000);
    let babbler = net.add_node("babbler", shell_node(8, 8), 10);
    let clean = net.add_node("clean", shell_node(8, 8), 11);
    let sink = net.add_node("sink", shell_node(8, 64), 12);
    let (tx0, tx1) = (net.node(babbler).nic.tx, net.node(clean).nic.tx);
    let rx2 = net.node(sink).nic.rx;
    net.set_fault_plan(&FaultPlan::new(1).babble(
        babbler,
        Time::from_us(babble_start_us),
        Duration::from_ms(40),
        Duration::from_us(babble_period_us),
    ));

    // Phase 1: poll in 0.5 ms steps until the controller goes
    // bus-off (expected ~32 flagged grants after the window opens).
    let mut t = Time::ZERO;
    while !net.node_stats(babbler).is_bus_off() {
        t += Duration::from_us(500);
        assert!(
            t <= Time::from_ms(15),
            "babbler never reached bus-off (period {babble_period_us} us)"
        );
        net.run_until(t);
    }
    assert!(net.stats().bus_off_events >= 1);
    assert!(net.stats().babble_frames > 0);
    let dropped_before = net.node_stats(babbler).tx_dropped;

    // Phase 2: both nodes post frames while the babbler is off the
    // bus. Recovery needs 1408 us of bus silence and the poll lags
    // entry by at most ~500 us, so 800 us stays inside the outage.
    let k = 3u32;
    for i in 0..k {
        let m = |tag| Message {
            bytes: 8,
            tag,
            sender: ThreadId(0),
        };
        assert!(net
            .node_mut(babbler)
            .kernel
            .external_mbox_push(tx0, m(addressed_tag(Some(sink), 100 + i))));
        assert!(net
            .node_mut(clean)
            .kernel
            .external_mbox_push(tx1, m(addressed_tag(Some(sink), 200 + i))));
    }
    net.run_until(t + Duration::from_us(800));
    assert!(
        net.node_stats(babbler).is_bus_off(),
        "recovered inside the outage window"
    );
    let mut from_clean = 0;
    while let Some(msg) = net.node_mut(sink).kernel.external_mbox_pop(rx2) {
        assert_eq!(
            msg.sender,
            ThreadId(u32::MAX - clean.0),
            "bus-off node's frame appeared on the bus (tag {:#x})",
            msg.tag
        );
        from_clean += 1;
    }
    assert_eq!(from_clean, k, "clean node was starved");
    assert_eq!(
        net.node_stats(babbler).tx_dropped - dropped_before,
        u64::from(k),
        "offline TX must be dropped at the NIC"
    );

    // Phase 3: after the babble window closes, the node recovers and
    // transmits again.
    net.run_until(Time::from_ms(60));
    assert!(!net.node_stats(babbler).is_bus_off(), "never recovered");
    assert!(net.stats().bus_off_recoveries >= 1);
    assert!(net.node_mut(babbler).kernel.external_mbox_push(
        tx0,
        Message {
            bytes: 8,
            tag: addressed_tag(Some(sink), 777),
            sender: ThreadId(0),
        }
    ));
    net.run_until(Time::from_ms(62));
    let msg = net
        .node_mut(sink)
        .kernel
        .external_mbox_pop(rx2)
        .expect("recovered node transmits again");
    assert_eq!(msg.tag, 777);
    assert_eq!(msg.sender, ThreadId(u32::MAX - babbler.0));
    assert_frames_conserved(&net, "busoff containment");
}

#[test]
fn busoff_silences_babbler_until_recovery() {
    // Pinned case plus a seeded sweep over babble timing.
    check_busoff_contains(60, 500);
    let mut rng = SimRng::seeded(0xB0FF);
    for _ in 0..8 {
        let period = rng.int_in(40, 120);
        let start = rng.int_in(200, 1500);
        check_busoff_contains(period, start);
    }
}

/// Frame conservation must hold *at the failure boundary itself*, not
/// just at a quiescent horizon: a babbler driven to bus-off with real
/// frames still queued behind it, and later silenced by recovery, may
/// not leak a single frame. The ledger is checked at every 250 us
/// observation point straddling babble onset, the bus-off instant,
/// the queued-frame purge, and recovery.
#[test]
fn busoff_boundary_conserves_queued_and_inflight_frames() {
    let mut rng = SimRng::seeded(0xB0FF0);
    for case in 0..8u64 {
        let babble_period = rng.int_in(40, 120);
        let babble_start = rng.int_in(200, 1500);
        let mut net = Cluster::new(1_000_000);
        let babbler = net.add_node("babbler", shell_node(64, 8), 10);
        let sink = net.add_node("sink", shell_node(8, 64), 20);
        let tx0 = net.node(babbler).nic.tx;
        net.set_fault_plan(&FaultPlan::new(case + 1).babble(
            babbler,
            Time::from_us(babble_start),
            Duration::from_ms(20),
            Duration::from_us(babble_period),
        ));
        // A backlog of real frames sits queued while the babble storm
        // drives the controller to bus-off around them.
        for i in 0..12u32 {
            assert!(net.node_mut(babbler).kernel.external_mbox_push(
                tx0,
                Message {
                    bytes: 8,
                    tag: addressed_tag(Some(sink), i),
                    sender: ThreadId(0),
                }
            ));
        }
        let mut t = Time::ZERO;
        let mut saw_busoff = false;
        while t < Time::from_ms(50) {
            t += Duration::from_us(250);
            net.run_until(t);
            saw_busoff |= net.node_stats(babbler).is_bus_off();
            assert_frames_conserved(&net, &format!("case {case} at {t:?}"));
        }
        assert!(saw_busoff, "case {case} never reached bus-off");
        assert!(net.stats().bus_off_recoveries >= 1, "case {case}");
        // The purge at the bus-off boundary charged the queued frames.
        assert!(
            net.node_stats(babbler).tx_dropped > 0 || net.stats().frames_delivered >= 12,
            "case {case}: queued frames neither dropped nor delivered: {:?}",
            net.stats()
        );
    }
}

/// The ledger must also balance across randomized fault schedules and
/// staggered observation horizons — fail-stop outages purging pending
/// frames, babble storms, bus-off recoveries.
#[test]
fn parallel_executive_conserves_frames_across_fault_boundaries() {
    let mut rng = SimRng::seeded(0xC0A5E);
    for case in 0..8u64 {
        let seed = rng.int_in(1, u64::MAX - 1);
        let horizon = Time::from_ms(60);
        let plan = FaultPlan::random(seed, 4, horizon, 0.05, 0.6, 0.6);
        let mut c = Cluster::new(1_000_000);
        for i in 0..4u32 {
            c.add_node(format!("n{i}"), traffic_node(i, NodeId((i + 1) % 4)), i + 1);
        }
        c.set_fault_plan(&plan);
        // Staggered horizons: the run is interrupted mid-outage and
        // mid-recovery, and the ledger must balance at every rest.
        for step in [7u64, 19, 33, 41, 60] {
            c.run_until(Time::from_ms(step));
            let s = c.stats();
            assert_eq!(
                s.frames_sent,
                s.frames_delivered + s.frames_dropped + s.frames_in_flight,
                "cluster leak (case {case}, {step} ms): {s:?}"
            );
        }
    }
}

/// A node with real periodic traffic for the cluster-side ledger
/// sweep.
fn traffic_node(i: u32, dst: NodeId) -> Kernel {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::RmQueue,
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process(format!("traffic{i}"));
    let nic = b.add_nic(IrqLine(2), 8, 16);
    b.add_periodic_task(
        p,
        "tx",
        Duration::from_us(3_000 + 700 * u64::from(i)),
        Script::periodic(vec![
            Action::Compute(Duration::from_us(80)),
            Action::SendMbox {
                mbox: nic.tx,
                bytes: 8,
                tag: addressed_tag(Some(dst), i),
            },
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

/// A writer node publishing into a state-message variable on a
/// jittered period. The NIC samples the variable and ships changed
/// versions over a `link_state` channel.
fn state_writer_node(period_us: u64) -> (Kernel, StateId) {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::RmQueue,
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process("writer");
    b.add_nic(IrqLine(2), 8, 8);
    let tid = b.add_periodic_task(
        p,
        "pub",
        Duration::from_us(period_us),
        Script::periodic(vec![
            Action::Compute(Duration::from_us(30)),
            Action::StateWrite {
                var: StateId(0),
                value: Operand::Const(0xBEEF),
            },
        ]),
    );
    let var = b.add_state_msg(tid, 8, 3, &[]);
    assert_eq!(var, StateId(0));
    (b.build(), var)
}

/// A reader node holding the NIC-fed replica, polled by a periodic
/// control task.
fn state_reader_node(period_us: u64) -> (Kernel, StateId) {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::RmQueue,
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process("reader");
    b.add_nic(IrqLine(2), 8, 8);
    let var = b.add_state_replica(p, 8, 3, &[]);
    b.add_periodic_task(
        p,
        "law",
        Duration::from_us(period_us),
        Script::periodic(vec![
            Action::StateRead(var),
            Action::Compute(Duration::from_us(50)),
        ]),
    );
    (b.build(), var)
}

/// State links must uphold conservation under wire corruption: every
/// sampled version is either delivered, overwritten in place (which
/// never counts as a new send), or still pending at the horizon — and
/// the replica converges to the writer's value.
#[test]
fn state_links_conserve_frames_under_corruption() {
    let mut rng = SimRng::seeded(0x57A7E);
    for case in 0..8 {
        let p = rng.int_in(0, 30) as f64 / 100.0;
        let seed = rng.int_in(1, u64::MAX - 1);
        let wr_period = rng.int_in(2_000, 6_000);
        let mut net = Cluster::new(1_000_000);
        let (k0, wvar) = state_writer_node(wr_period);
        let (k1, rvar) = state_reader_node(5_000);
        let src = net.add_node("writer", k0, 10);
        let dst = net.add_node("reader", k1, 20);
        net.link_state(src, wvar, dst, rvar, 30, 8);
        net.set_fault_plan(&FaultPlan::new(seed).with_corruption(p));
        net.run_until(Time::from_ms(60));

        assert_frames_conserved(&net, &format!("state case {case}, p {p}"));
        assert!(
            net.stats().frames_delivered > 0,
            "no state frame arrived (case {case})"
        );
        let replica = net.node_mut(dst).kernel.statemsg(rvar);
        let (value, stamp, seq) = replica.peek();
        assert!(seq > 0, "replica never written (case {case})");
        assert_eq!(value, 0xBEEF, "replica diverged (case {case})");
        assert!(
            stamp <= Time::from_ms(60),
            "stamp from the future (case {case})"
        );
        let m = net.node_mut(dst).kernel.metrics();
        assert!(
            m.state_age.count() > 0,
            "reader recorded no data age (case {case})"
        );
    }
}
