//! Zero-allocation and bytes-per-board gates.
//!
//! EMERALDS' own hot paths are constant-time and allocation-free; the
//! host interpreter replaying them should be too once warmed up. This
//! binary installs the counting global allocator (`--features
//! alloc-count`) and asserts that after a warm-up run — which grows
//! every pool, queue, and scratch buffer to its high-water mark — a
//! steady-state window performs **zero** heap allocations:
//!
//! - a single-kernel `Kernel::advance_to` window mixing timer
//!   releases, dispatches, and uncontended semaphore traffic;
//! - a contended single-kernel window, where threads park behind
//!   other waiters on a mailbox and on a mutex (with its §6.3.1
//!   pre-lock blocks and wakes);
//! - a quiet-bus cluster stretch, where the epoch executive proves
//!   idleness and crosses barriers without staging a frame;
//! - a sparse-traffic cluster window, where the active-set engine
//!   skips most nodes at most barriers and frames land on nodes whose
//!   clocks lag;
//! - a long-compute cluster window driven in 1 ms slices, where the
//!   engine skips a node mid-`Compute` across several lookahead
//!   windows and the run-end catch-up drives a busy kernel;
//! - a bridged-topology window on one outer worker, driven in 1 ms
//!   slices as a hardware-in-the-loop rig drives it: cross-segment
//!   frames through gateway queues, broadcasts onto bridge NICs, and a
//!   run-end catch-up every slice.
//!
//! Any new allocation on these paths (a `clone` in the dispatch loop,
//! a fresh `Vec` per epoch, a timer heap that outgrows its warmed
//! capacity, a buffer dropped at every outer barrier)
//! fails the gate with an exact count.
//!
//! The same allocator counts the heap bytes a freshly built board
//! holds. Two board shapes are held at or under a byte ceiling, so the
//! footprint of a simulated board cannot grow unseen: the topology
//! experiment's application node and the benchmark's `kernel_solo`
//! board.

#![cfg(feature = "alloc-count")]

use emeralds::core::kernel::{KernelBuilder, KernelConfig};
use emeralds::core::script::{Action, Operand, Script};
use emeralds::core::{Kernel, SchedPolicy, SemScheme};
use emeralds::fieldbus::{
    addressed_tag, Cluster, ClusterNode, GatewayConfig, GatewayId, SegmentId, Topology,
};
use emeralds::sim::count_alloc;
use emeralds::sim::{Duration, IrqLine, MboxId, NodeId, SemId, StateId, ThreadId, Time};

#[global_allocator]
static ALLOC: emeralds::sim::CountingAlloc = emeralds::sim::CountingAlloc;

const NIC_IRQ: IrqLine = IrqLine(2);

/// A busy single-node workload: dense periodic releases (timer and
/// scheduler pressure) plus a lone-holder mutex, so the measured
/// window crosses dispatch, the timer queue, trace recording and the
/// semaphore path.
fn busy_kernel() -> Kernel {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![2],
        },
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process("gate");
    let m = b.add_mutex();
    b.add_periodic_task(
        p,
        "locker",
        Duration::from_ms(2),
        Script::periodic(vec![
            Action::AcquireSem(m),
            Action::Compute(Duration::from_us(50)),
            Action::ReleaseSem(m),
        ]),
    );
    for f in 0..6u64 {
        b.add_periodic_task(
            p,
            format!("ctl{f}"),
            Duration::from_us(700 + 150 * f),
            Script::compute_only(Duration::from_us(25)),
        );
    }
    b.build()
}

#[test]
fn steady_state_kernel_window_allocates_nothing() {
    let mut k = busy_kernel();
    // Warm-up: first jobs grow the ready queues, timer buckets, and
    // IRQ scratch to their high-water marks.
    k.run_until(Time::from_ms(50));
    let before = count_alloc::thread_alloc_count();
    k.advance_to(Time::from_ms(100));
    let delta = count_alloc::thread_alloc_count() - before;
    assert_eq!(
        delta, 0,
        "steady-state Kernel::advance_to made {delta} heap allocations"
    );
    // The window did real work, not nothing.
    assert!(k.metrics().context_switches > 0);
}

/// Waiters parking behind waiters: two drivers park on an empty
/// mailbox that a feeder fills every 4 ms, and three tasks released
/// while a lower-priority owner holds a mutex park on it every 10 ms.
fn contended_kernel(policy: SchedPolicy) -> (Kernel, SemId, MboxId) {
    let us = Duration::from_us;
    let mut b = KernelBuilder::new(KernelConfig {
        policy,
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process("gate");
    let m = b.add_mutex();
    let mbox = b.add_mailbox(2);
    for r in 0..2u64 {
        b.add_driver_task(
            p,
            format!("rx{r}"),
            Duration::from_ms(1 + r),
            Script::looping(vec![Action::RecvMbox(mbox), Action::Compute(us(20))]),
        );
    }
    let send = Action::SendMbox {
        mbox,
        bytes: 8,
        tag: 0,
    };
    b.add_periodic_task(
        p,
        "feeder",
        Duration::from_ms(4),
        Script::periodic(vec![Action::Compute(us(30)), send, send]),
    );
    let section = |hold| {
        Script::periodic(vec![
            Action::AcquireSem(m),
            Action::Compute(us(hold)),
            Action::ReleaseSem(m),
        ])
    };
    b.add_periodic_task(p, "owner", Duration::from_ms(10), section(400));
    for c in 0..3u64 {
        let period = Duration::from_ms(5);
        b.add_periodic_task_phased(
            p,
            format!("c{c}"),
            period,
            period,
            us(100 + 20 * c),
            section(30),
        );
    }
    (b.build(), m, mbox)
}

#[test]
fn parking_behind_waiters_allocates_nothing() {
    // Fixed priorities, and deadlines (the DP queue's inheritance
    // restore recomputes the holder's deadline from other waiters).
    for policy in [SchedPolicy::RmQueue, SchedPolicy::Edf] {
        let (mut k, m, mbox) = contended_kernel(policy.clone());
        // Warm-up: both wait queues reach their longest.
        k.run_until(Time::from_ms(50));
        let before = count_alloc::thread_alloc_count();
        let (mut sem_peak, mut mbox_peak) = (0, 0);
        for step in 1..=1_000u64 {
            k.advance_to(Time::from_ms(50) + Duration::from_us(50 * step));
            sem_peak = sem_peak.max(k.sem(m).waiters.len());
            mbox_peak = mbox_peak.max(k.mailbox(mbox).receivers.len());
        }
        let delta = count_alloc::thread_alloc_count() - before;
        assert_eq!(
            delta, 0,
            "{policy:?}: parking behind waiters made {delta} heap allocations"
        );
        // Three tasks queued on the mutex and two on the mailbox at once.
        assert_eq!((sem_peak, mbox_peak), (3, 2), "{policy:?}");
    }
}

/// Four quiet nodes: one sparse control task and an event-driven NIC
/// driver each, no frames ever sent — the epoch executive's pure
/// barrier/lookahead path.
fn quiet_cluster() -> Cluster {
    let mut c = Cluster::new(1_000_000);
    for i in 0..4usize {
        let mut b = KernelBuilder::new(KernelConfig {
            policy: SchedPolicy::Csd {
                boundaries: vec![1],
            },
            record_trace: false,
            ..KernelConfig::default()
        });
        let p = b.add_process(format!("n{i}"));
        let nic = b.add_nic(NIC_IRQ, 4, 4);
        b.add_periodic_task(
            p,
            "law",
            Duration::from_ms(20),
            Script::compute_only(Duration::from_us(100)),
        );
        b.add_driver_task(
            p,
            "nicdrv",
            Duration::from_ms(5),
            Script::looping(vec![
                Action::RecvMbox(nic.rx),
                Action::Compute(Duration::from_us(10)),
            ]),
        );
        c.add_node(format!("n{i}"), b.build(), (i + 1) as u32);
    }
    c
}

#[test]
fn quiet_cluster_stretch_allocates_nothing() {
    let mut c = quiet_cluster();
    // Warm-up pass: epoch scratch, per-node buffers, and the bus
    // bookkeeping all reach steady capacity.
    c.run_until(Time::from_ms(60));
    let before = count_alloc::thread_alloc_count();
    c.run_until(Time::from_ms(120));
    let delta = count_alloc::thread_alloc_count() - before;
    assert_eq!(
        delta, 0,
        "quiet-bus cluster stretch made {delta} heap allocations"
    );
    assert!(c.metrics().jobs_completed > 0);
}

/// Sixteen nodes, each sending one frame to its ring successor about
/// every 20 ms (periods spread over 19–21 ms so sends drift apart) and
/// draining its own RX mailbox from an interrupt-woken driver. Most
/// nodes have nothing to do at most barriers, so the engine skips
/// them, and every frame lands on a node whose clock lags.
fn sparse_traffic_cluster() -> Cluster {
    const N: usize = 16;
    let mut c = Cluster::new(1_000_000);
    for i in 0..N {
        let mut b = KernelBuilder::new(KernelConfig {
            policy: SchedPolicy::RmQueue,
            record_trace: false,
            ..KernelConfig::default()
        });
        let p = b.add_process(format!("s{i}"));
        let nic = b.add_nic(NIC_IRQ, 4, 4);
        let dst = NodeId(((i + 1) % N) as u32);
        b.add_periodic_task_phased(
            p,
            "report",
            Duration::from_us(19_000 + 133 * i as u64),
            Duration::from_us(19_000 + 133 * i as u64),
            Duration::from_us(1_250 * i as u64),
            Script::periodic(vec![
                Action::Compute(Duration::from_us(80)),
                Action::SendMbox {
                    mbox: nic.tx,
                    bytes: 8,
                    tag: addressed_tag(Some(dst), i as u32),
                },
            ]),
        );
        b.add_driver_task(
            p,
            "nicdrv",
            Duration::from_ms(5),
            Script::looping(vec![
                Action::WaitIrq(NIC_IRQ),
                Action::RecvMbox(nic.rx),
                Action::Compute(Duration::from_us(20)),
            ]),
        );
        c.add_node(format!("s{i}"), b.build(), (i + 1) as u32);
    }
    c
}

#[test]
fn sparse_traffic_window_allocates_nothing() {
    let mut c = sparse_traffic_cluster();
    // Warm-up: every node has sent and received, so inboxes, TX
    // buffers, the pending queue and the engine's lists are at
    // their steady capacity.
    c.run_until(Time::from_ms(100));
    let (sent, advances) = (c.stats().frames_sent, c.node_advances());
    let before = count_alloc::thread_alloc_count();
    for step in 1..=20u64 {
        c.run_until(Time::from_ms(100 + 10 * step));
    }
    let delta = count_alloc::thread_alloc_count() - before;
    assert_eq!(
        delta, 0,
        "sparse-traffic cluster window made {delta} heap allocations"
    );
    // Real traffic crossed the window, and most node-epochs were
    // skipped.
    let s = c.stats();
    assert!(s.frames_sent - sent >= 100, "sent {}", s.frames_sent - sent);
    assert_eq!(s.frames_dropped, 0);
    let advanced = c.node_advances() - advances;
    let barriers = c.exec_stats().barriers;
    assert!(
        advanced * 4 < 16 * barriers,
        "{advanced} advances over {barriers} barriers"
    );
}

/// Four nodes whose control laws compute for 450–660 µs, four to six
/// 111 µs lookahead windows, then send one frame to their ring
/// successor, which an interrupt-woken driver drains.
fn long_compute_cluster() -> Cluster {
    const N: u64 = 4;
    let mut c = Cluster::new(1_000_000);
    for i in 0..N {
        let mut b = KernelBuilder::new(KernelConfig {
            policy: SchedPolicy::RmQueue,
            record_trace: false,
            ..KernelConfig::default()
        });
        let p = b.add_process(format!("l{i}"));
        let nic = b.add_nic(NIC_IRQ, 4, 4);
        let dst = NodeId(((i + 1) % N) as u32);
        b.add_periodic_task(
            p,
            "law",
            Duration::from_us(3_100 + 600 * i),
            Script::periodic(vec![
                Action::Compute(Duration::from_us(450 + 70 * i)),
                Action::SendMbox {
                    mbox: nic.tx,
                    bytes: 8,
                    tag: addressed_tag(Some(dst), i as u32),
                },
            ]),
        );
        b.add_driver_task(
            p,
            "nicdrv",
            Duration::from_ms(2),
            Script::looping(vec![
                Action::WaitIrq(NIC_IRQ),
                Action::RecvMbox(nic.rx),
                Action::Compute(Duration::from_us(20)),
            ]),
        );
        c.add_node(format!("l{i}"), b.build(), (i + 1) as u32);
    }
    c
}

#[test]
fn long_compute_slices_allocate_nothing() {
    let mut c = long_compute_cluster();
    // Warm-up: every node has sent and received.
    c.run_until(Time::from_ms(100));
    let sent = c.stats().frames_sent;
    let before = count_alloc::thread_alloc_count();
    let mut mid_compute = 0;
    for slice in 1..=100u64 {
        c.run_until(Time::from_ms(100 + slice));
        mid_compute += c
            .nodes()
            .iter()
            .filter(|n| {
                let k = &n.kernel;
                k.current()
                    .is_some_and(|t| !k.tcb(t).compute_left.is_zero())
            })
            .count();
    }
    let delta = count_alloc::thread_alloc_count() - before;
    assert_eq!(
        delta, 0,
        "long-compute cluster slices made {delta} heap allocations"
    );
    // Slices ended inside computes, and frames crossed the window.
    assert!(mid_compute >= 20, "{mid_compute} nodes cut mid-compute");
    let s = c.stats();
    assert!(s.frames_sent - sent >= 100, "sent {}", s.frames_sent - sent);
    assert_eq!(s.frames_dropped, 0);
}

/// A line of three segments, four app nodes each, bridged by two
/// gateways. On every segment one node sends into the next segment,
/// one broadcasts, one sends to its local neighbour, and one mostly
/// listens (a local report every 97 ms); periods are spread so sends
/// drift apart.
fn bridged_line() -> Topology {
    const SEGS: usize = 3;
    const PER: usize = 4;
    let mut t = Topology::new();
    let segs: Vec<SegmentId> = (0..SEGS).map(|_| t.add_segment(1_000_000)).collect();
    for (s, &seg) in segs.iter().enumerate() {
        for j in 0..PER {
            let i = s * PER + j;
            let mut b = KernelBuilder::new(KernelConfig {
                policy: SchedPolicy::RmQueue,
                record_trace: false,
                ..KernelConfig::default()
            });
            let p = b.add_process(format!("t{i}"));
            let nic = b.add_nic(NIC_IRQ, 4, 8);
            let dst = match j {
                0 => Some(NodeId((((s + 1) % SEGS) * PER) as u32)),
                1 => None,
                2 => Some(NodeId((s * PER + 3) as u32)),
                _ => Some(NodeId((s * PER) as u32)),
            };
            let period = Duration::from_us(if j == 3 {
                97_000
            } else {
                3_100 + 270 * i as u64
            });
            b.add_periodic_task(
                p,
                "report",
                period,
                Script::periodic(vec![
                    Action::Compute(Duration::from_us(60)),
                    Action::SendMbox {
                        mbox: nic.tx,
                        bytes: 8,
                        tag: addressed_tag(dst, i as u32),
                    },
                ]),
            );
            b.add_driver_task(
                p,
                "nicdrv",
                Duration::from_ms(2),
                Script::looping(vec![
                    Action::WaitIrq(NIC_IRQ),
                    Action::RecvMbox(nic.rx),
                    Action::Compute(Duration::from_us(20)),
                ]),
            );
            t.add_node(seg, format!("t{i}"), b.build(), (j + 1) as u32);
        }
    }
    t.add_gateway(segs[0], segs[1], GatewayConfig::default());
    t.add_gateway(segs[1], segs[2], GatewayConfig::default());
    t
}

#[test]
fn bridged_topology_slices_allocate_nothing() {
    let mut t = bridged_line();
    let forwarded = |t: &Topology| -> u64 {
        (0..t.gateway_count() as u32)
            .map(|g| t.gateway_stats(GatewayId(g)).forwarded)
            .sum()
    };
    // Warm-up: gateway queues, segment queues, inboxes and the
    // engines' lists reach their steady capacity.
    t.run_until(Time::from_ms(200));
    let (fwd, bcast) = (forwarded(&t), t.total_stats().bcast_resolved);
    let before = count_alloc::thread_alloc_count();
    for slice in 1..=200u64 {
        t.run_until(Time::from_ms(200 + slice));
    }
    let delta = count_alloc::thread_alloc_count() - before;
    assert_eq!(
        delta, 0,
        "bridged-topology slices made {delta} heap allocations"
    );
    // Frames crossed gateways and broadcasts resolved in the window.
    assert!(
        forwarded(&t) - fwd >= 100,
        "forwarded {}",
        forwarded(&t) - fwd
    );
    assert!(t.total_stats().bcast_resolved - bcast >= 100);
    assert!(t.conservation().holds(), "{:?}", t.conservation());
}

/// Heap bytes `build` leaves live on this thread: what the kernel it
/// returns holds. The price list default-configured kernels share is
/// allocated once per process, by the first `KernelConfig::default()`,
/// so it is created before counting and not charged to the board.
fn heap_bytes_of(build: impl FnOnce() -> Kernel) -> (Kernel, usize) {
    drop(KernelConfig::default());
    let before = count_alloc::thread_live_bytes();
    let k = build();
    let bytes = count_alloc::thread_live_bytes() - before;
    (
        k,
        usize::try_from(bytes).expect("a built kernel holds heap"),
    )
}

/// One application node of the topology experiment's plant
/// (`topo_expt::app_node`): a process, TX and RX mailboxes, a NIC, a
/// periodic sender and an RX-drain driver.
fn app_board() -> Kernel {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::RmQueue,
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process("app7");
    let nic = b.add_nic(NIC_IRQ, 8, 16);
    b.add_periodic_task(
        p,
        "tx",
        Duration::from_us(10_000),
        Script::periodic(vec![
            Action::Compute(Duration::from_us(120)),
            Action::SendMbox {
                mbox: nic.tx,
                bytes: 8,
                tag: addressed_tag(Some(NodeId(3)), 7),
            },
        ]),
    );
    b.add_driver_task(
        p,
        "nicdrv",
        Duration::from_ms(2),
        Script::looping(vec![
            Action::RecvMbox(nic.rx),
            Action::Compute(Duration::from_us(30)),
        ]),
    );
    b.build()
}

/// One board of the benchmark's `kernel_solo` workload: 24 periodic
/// tasks under CSD-3, every fourth taking one of two mutexes, and a
/// state message the first task writes and the second reads.
fn solo_board() -> Kernel {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![6, 14],
        },
        sem_scheme: SemScheme::Standard,
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process("solo");
    let mutexes = [b.add_mutex(), b.add_mutex()];
    let var = StateId(0);
    for i in 0..24u64 {
        let wcet = Duration::from_us(40 + 10 * i);
        let actions = match i {
            0 => vec![
                Action::StateWrite {
                    var,
                    value: Operand::Const(1),
                },
                Action::Compute(wcet),
            ],
            1 => vec![Action::StateRead(var), Action::Compute(wcet)],
            _ if i % 4 == 3 => {
                let m = mutexes[(i as usize / 4) % 2];
                vec![
                    Action::Compute(wcet / 2),
                    Action::AcquireSem(m),
                    Action::Compute(wcet / 2),
                    Action::ReleaseSem(m),
                ]
            }
            _ => vec![Action::Compute(wcet)],
        };
        b.add_periodic_task(
            p,
            format!("t{i}"),
            Duration::from_us(2_000 + 500 * i),
            Script::periodic(actions),
        );
    }
    let added = b.add_state_msg(ThreadId(0), 8, 3, &[p]);
    assert_eq!(added, var);
    b.build()
}

/// An application board of the plant, counted as a bus holds it: the
/// kernel's heap at build plus the `ClusterNode` it sits in. The
/// ceiling is the size measured on x86-64; lower it when a change
/// shrinks the board.
#[test]
#[cfg(target_arch = "x86_64")]
fn app_board_bytes_stay_within_their_ceiling() {
    let (k, heap) = heap_bytes_of(app_board);
    let board = heap + std::mem::size_of::<ClusterNode>();
    assert!(board <= 2_848, "app board holds {board} B ({heap} B heap)");
    assert_eq!(k.task_count(), 2);
}

/// A `kernel_solo` board, counted as the benchmark holds it: the
/// kernel's heap at build plus the `Kernel` itself. Measured on
/// x86-64, like the ceiling above.
#[test]
#[cfg(target_arch = "x86_64")]
fn solo_board_bytes_stay_within_their_ceiling() {
    let (k, heap) = heap_bytes_of(solo_board);
    let board = heap + std::mem::size_of::<Kernel>();
    assert!(
        board <= 12_880,
        "solo board holds {board} B ({heap} B heap)"
    );
    assert_eq!(k.task_count(), 24);
}
