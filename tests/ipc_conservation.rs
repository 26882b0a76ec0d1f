//! Conservation properties of the IPC paths: nothing is lost or
//! duplicated, under randomized producer/consumer workloads and both
//! semaphore schemes. Generation is seeded [`SimRng`]-driven (offline
//! replacement for the proptest crate).

use emeralds::core::kernel::{KernelBuilder, KernelConfig};
use emeralds::core::script::{Action, Operand, Script};
use emeralds::core::{SchedPolicy, SemScheme};
use emeralds::fieldbus::{addressed_tag, Cluster};
use emeralds::sim::{Duration, IrqLine, SimRng, ThreadId, Time, TraceEvent};

const CASES: u64 = 40;

/// Mailbox conservation: every message enters exactly once and
/// leaves at most once; `sent − received` equals what is still
/// queued at the horizon.
fn check_mailbox_conserved(
    prod_period_ms: u64,
    cons_period_ms: u64,
    capacity: usize,
    emeralds_scheme: bool,
) {
    let scheme = if emeralds_scheme {
        SemScheme::Emeralds
    } else {
        SemScheme::Standard
    };
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::RmQueue,
        sem_scheme: scheme,
        ..KernelConfig::default()
    });
    let p = b.add_process("w");
    let mb = b.add_mailbox(capacity);
    b.add_periodic_task(
        p,
        "producer",
        Duration::from_ms(prod_period_ms),
        Script::periodic(vec![
            Action::Compute(Duration::from_us(100)),
            Action::SendMbox {
                mbox: mb,
                bytes: 8,
                tag: 1,
            },
        ]),
    );
    b.add_periodic_task(
        p,
        "consumer",
        Duration::from_ms(cons_period_ms),
        Script::periodic(vec![
            Action::RecvMbox(mb),
            Action::Compute(Duration::from_us(100)),
        ]),
    );
    let mut k = b.build();
    k.run_until(Time::from_ms(300));
    let ctx = format!(
        "prod={prod_period_ms}ms cons={cons_period_ms}ms cap={capacity} emeralds={emeralds_scheme}"
    );
    let mbx = k.mailbox(mb);
    assert!(mbx.received <= mbx.sent, "{ctx}");
    assert_eq!(mbx.sent - mbx.received, mbx.len() as u64, "{ctx}");
    assert!(mbx.len() <= capacity, "{ctx}");
    // The trace agrees with the counters.
    let sends = k
        .trace()
        .filter(|e| matches!(e, TraceEvent::MboxSend { .. }))
        .count() as u64;
    let recvs = k
        .trace()
        .filter(|e| matches!(e, TraceEvent::MboxRecv { .. }))
        .count() as u64;
    assert_eq!(sends, mbx.sent, "{ctx}");
    assert_eq!(recvs, mbx.received, "{ctx}");
}

/// A sender parked on a full NIC TX mailbox is admitted by the bus's
/// harvest pop, not by a receive syscall. Its message still enters
/// the mailbox once and is counted once: as a `mbox_send` syscall, in
/// `Mailbox::sent`, as an `MboxSend` event and in `mbox_sends`.
#[test]
fn sender_admitted_by_a_bus_pop_is_counted_once() {
    let line = IrqLine(2);
    let mut burst = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::RmQueue,
        ..KernelConfig::default()
    });
    let p = burst.add_process("burst");
    let nic = burst.add_nic(line, 1, 1);
    let send = |payload| Action::SendMbox {
        mbox: nic.tx,
        bytes: 8,
        tag: addressed_tag(None, payload),
    };
    burst.add_periodic_task(
        p,
        "burst",
        Duration::from_ms(10),
        Script::periodic(vec![send(1), send(2), send(3)]),
    );
    let mut sink = KernelBuilder::new(KernelConfig::default());
    let p = sink.add_process("sink");
    let nic_rx = sink.add_nic(line, 1, 4).rx;
    sink.add_driver_task(
        p,
        "drain",
        Duration::from_ms(1),
        Script::looping(vec![Action::RecvMbox(nic_rx)]),
    );
    let mut net = Cluster::new(1_000_000);
    let sender = net.add_node("burst", burst.build(), 1);
    net.add_node("sink", sink.build(), 2);
    net.run_until(Time::from_ms(35));

    let k = &net.node(sender).kernel;
    let c = k.counters();
    let count = |pred: fn(&TraceEvent) -> bool| k.trace().filter(pred).count() as u64;
    // The burst task's only blocks are its job ends and parked sends.
    let parked = count(|e| matches!(e, TraceEvent::Blocked { .. }))
        - k.task_stats(ThreadId(0)).jobs_completed;
    assert_eq!(c.sys_mbox_send, 12, "four jobs of three sends");
    assert!(parked > 0, "no send parked on the full mailbox");
    let events = count(|e| matches!(e, TraceEvent::MboxSend { .. }));
    assert_eq!(k.mailbox(nic.tx).sent, c.sys_mbox_send);
    assert_eq!(c.mbox_sends, c.sys_mbox_send);
    assert_eq!(events, c.mbox_sends);
}

#[test]
fn mailbox_messages_are_conserved() {
    let mut rng = SimRng::seeded(0x3B0C);
    for _ in 0..CASES {
        check_mailbox_conserved(
            rng.int_in(4, 19),
            rng.int_in(4, 19),
            rng.int_in(1, 5) as usize,
            rng.chance(0.5),
        );
    }
}

/// State-message monotonicity: the sequence number only grows,
/// every write bumps it exactly once, and readers always observe
/// the newest published value.
fn check_state_message_monotone(writer_period_ms: u64, reader_period_ms: u64, size: usize) {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::RmQueue,
        ..KernelConfig::default()
    });
    let p = b.add_process("w");
    let writer = b.add_periodic_task(
        p,
        "writer",
        Duration::from_ms(writer_period_ms),
        Script::periodic(vec![
            Action::Compute(Duration::from_us(50)),
            Action::StateWrite {
                var: emeralds::sim::StateId(0),
                value: Operand::Const(0xAB),
            },
        ]),
    );
    let var = b.add_state_msg(writer, size, 3, &[p]);
    b.add_periodic_task(
        p,
        "reader",
        Duration::from_ms(reader_period_ms),
        Script::periodic(vec![
            Action::StateRead(var),
            Action::Compute(Duration::from_us(50)),
        ]),
    );
    let mut k = b.build();
    k.run_until(Time::from_ms(200));
    let ctx = format!("writer={writer_period_ms}ms reader={reader_period_ms}ms size={size}");
    let v = k.statemsg(var);
    // Trace: write sequence numbers count up from 1; every read
    // observes the latest write's sequence at that instant.
    let mut last_write_seq = 0u64;
    for (_, ev) in k.trace().events() {
        match ev {
            TraceEvent::StateWrite { seq, .. } => {
                assert_eq!(*seq, last_write_seq + 1, "{ctx}");
                last_write_seq = *seq;
            }
            TraceEvent::StateRead { seq, .. } => {
                assert_eq!(*seq, last_write_seq, "stale read ({ctx})");
            }
            _ => {}
        }
    }
    assert_eq!(v.seq, last_write_seq, "each write bumps seq once ({ctx})");
    assert_eq!(v.seq, k.task_stats(writer).jobs_completed, "{ctx}");
}

#[test]
fn state_message_sequence_is_monotone_and_fresh() {
    let mut rng = SimRng::seeded(0x57A73);
    for _ in 0..CASES {
        check_state_message_monotone(
            rng.int_in(2, 14),
            rng.int_in(2, 14),
            rng.int_in(4, 63) as usize,
        );
    }
}

/// Semaphore conservation: acquisitions and releases pair up, and
/// at the horizon the lock is held by at most one thread.
fn check_sem_pairing(periods: &[u64], emeralds_scheme: bool) {
    let scheme = if emeralds_scheme {
        SemScheme::Emeralds
    } else {
        SemScheme::Standard
    };
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![1],
        },
        sem_scheme: scheme,
        ..KernelConfig::default()
    });
    let p = b.add_process("w");
    let s = b.add_mutex();
    for (i, &pm) in periods.iter().enumerate() {
        b.add_periodic_task(
            p,
            format!("t{i}"),
            Duration::from_ms(pm),
            Script::periodic(vec![
                Action::AcquireSem(s),
                Action::Compute(Duration::from_us(300)),
                Action::ReleaseSem(s),
            ]),
        );
    }
    let mut k = b.build();
    k.run_until(Time::from_ms(400));
    let acqs = k
        .trace()
        .filter(|e| matches!(e, TraceEvent::SemAcquired { .. }))
        .count();
    let rels = k
        .trace()
        .filter(|e| matches!(e, TraceEvent::SemReleased { .. }))
        .count();
    // Every release had an acquisition; at most one acquisition is
    // outstanding.
    let ctx = format!("periods={periods:?} emeralds={emeralds_scheme}");
    assert!(acqs >= rels, "{ctx}");
    assert!(acqs - rels <= 1, "acqs {acqs} rels {rels} ({ctx})");
    assert_eq!(k.sem(s).available(), acqs == rels, "{ctx}");
}

#[test]
fn semaphore_acquire_release_pairing() {
    let mut rng = SimRng::seeded(0x5E4A);
    for _ in 0..CASES {
        let n = rng.int_in(2, 4) as usize;
        let periods: Vec<u64> = (0..n).map(|_| rng.int_in(8, 39)).collect();
        check_sem_pairing(&periods, rng.chance(0.5));
    }
}
