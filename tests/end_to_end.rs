//! End-to-end integration: a complete embedded application on one
//! node, a distributed system over the fieldbus, memory protection,
//! and the footprint report.

use emeralds::core::kernel::{IrqAction, KernelBuilder, KernelConfig};
use emeralds::core::script::{Action, Operand, Script};
use emeralds::core::{footprint, SchedPolicy, SemScheme};
use emeralds::fieldbus::{addressed_tag, Cluster};
use emeralds::hal::{AccessKind, Perms};
use emeralds::sim::{Duration, IrqLine, ProcId, Time, TraceEvent};

fn ms(v: u64) -> Duration {
    Duration::from_ms(v)
}

fn us(v: u64) -> Duration {
    Duration::from_us(v)
}

/// A whole control application: IRQ-driven sensor driver, state
/// messages, locked shared object, condition variable, mailboxes,
/// actuator output — every kernel service in one run.
#[test]
fn full_application_exercises_every_service() {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![2],
        },
        sem_scheme: SemScheme::Emeralds,
        ..KernelConfig::default()
    });
    let app = b.add_process("app");
    let lock = b.add_mutex();
    let cv = b.add_condvar();
    let q = b.add_mailbox(16);
    let line = IrqLine(5);
    let ready_sem = b.add_counting_sem(1);
    b.on_irq(line, IrqAction::ReleaseSem(ready_sem));

    let (sensor, actuator) = {
        let board = b.board_mut();
        let s = board.add_sensor(Some(line));
        let a = board.add_actuator();
        board.schedule_periodic_samples(s, Time::from_ms(2), ms(4), 50, |k| 100 + k as u32);
        (s, a)
    };

    // Driver: woken by the ISR semaphore, publishes via state message.
    let driver = b.add_driver_task(
        app,
        "drv",
        ms(4),
        Script::looping(vec![
            Action::AcquireSem(ready_sem),
            Action::DevRead(sensor),
            Action::Compute(us(60)),
            Action::StateWrite {
                var: emeralds::sim::StateId(0),
                value: Operand::FromLastRead,
            },
        ]),
    );
    let pressure = b.add_state_msg(driver, 4, 3, &[app]);

    // Controller: reads the state message, updates the shared object,
    // signals the logger, commands the valve.
    let controller = b.add_periodic_task(
        app,
        "ctl",
        ms(8),
        Script::periodic(vec![
            Action::StateRead(pressure),
            Action::AcquireSem(lock),
            Action::Compute(us(500)),
            Action::CondSignal(cv),
            Action::ReleaseSem(lock),
            Action::DevWrite(actuator, Operand::FromLastRead),
            Action::SendMbox {
                mbox: q,
                bytes: 8,
                tag: 0xAB,
            },
        ]),
    );
    // Logger: waits on the condition, then drains the mailbox.
    let logger = b.add_periodic_task(
        app,
        "log",
        ms(40),
        Script::periodic(vec![
            Action::AcquireSem(lock),
            Action::CondWait(cv, lock),
            Action::ReleaseSem(lock),
            // Drain the five messages the 8 ms controller produced
            // over this 40 ms period.
            Action::RecvMbox(q),
            Action::RecvMbox(q),
            Action::RecvMbox(q),
            Action::RecvMbox(q),
            Action::RecvMbox(q),
            Action::Compute(ms(1)),
            Action::ReadClock,
        ]),
    );

    let mut k = b.build();
    k.run_until(Time::from_ms(200));
    assert_eq!(k.total_deadline_misses(), 0);
    assert!(k.tcb(driver).cpu_time > Duration::ZERO);
    assert!(k.task_stats(controller).jobs_completed >= 24);
    assert!(k.task_stats(logger).jobs_completed >= 4);
    assert!(k.statemsg(pressure).seq >= 40);
    let log = k.board().actuator_log(actuator);
    assert!(log.len() >= 24, "valve commanded {} times", log.len());
    // The valve eventually echoes a real sample value.
    assert!(log.iter().any(|&(_, v)| v >= 100));
    // Every service left a footprint in the ledger.
    use emeralds::sim::OverheadKind as K;
    for kind in [
        K::Syscall,
        K::Semaphore,
        K::StateMsg,
        K::IpcCopy,
        K::Interrupt,
        K::Timer,
        K::ContextSwitch,
        K::SchedSelect,
    ] {
        assert!(
            k.accounting().total(kind) > Duration::ZERO,
            "{kind} never charged"
        );
    }
}

/// Memory protection: a process that never mapped a state-message
/// region faults on access, and the fault is traced, not fatal.
#[test]
fn mpu_blocks_unmapped_state_messages() {
    let mut b = KernelBuilder::new(KernelConfig::default());
    let owner = b.add_process("owner");
    let intruder = b.add_process("intruder");
    let writer = b.add_periodic_task(
        owner,
        "w",
        ms(10),
        Script::periodic(vec![Action::StateWrite {
            var: emeralds::sim::StateId(0),
            value: Operand::Const(1),
        }]),
    );
    // Map only into the owner's process.
    let var = b.add_state_msg(writer, 8, 3, &[]);
    let snoop = b.add_periodic_task(
        intruder,
        "snoop",
        ms(20),
        Script::periodic(vec![Action::StateRead(var)]),
    );
    let mut k = b.build();
    k.run_until(Time::from_ms(50));
    let faults = k
        .trace()
        .filter(|e| matches!(e, TraceEvent::ProtectionFault { tid, .. } if *tid == snoop))
        .count();
    assert!(faults >= 2, "unmapped reads must fault (got {faults})");
    // The writer is unaffected.
    assert!(k.statemsg(var).seq >= 4);
    assert_eq!(k.statemsg(var).reads(), 0);
}

/// Direct MPU semantics at the HAL level.
#[test]
fn mpu_region_semantics() {
    let mut b = KernelBuilder::new(KernelConfig::default());
    let p0 = b.add_process("p0");
    let _t = b.add_periodic_task(p0, "t", ms(10), Script::compute_only(us(100)));
    let mut k = b.build();
    let mpu = &mut k.board_mut().mpu;
    let r = mpu.add_region(ProcId(0), 0x8000, 64, Perms::RO);
    assert!(mpu.check(ProcId(0), 0x8000, AccessKind::Read).is_ok());
    assert!(mpu.check(ProcId(0), 0x8000, AccessKind::Write).is_err());
    mpu.share(r, ProcId(1));
    assert!(mpu.check(ProcId(1), 0x803F, AccessKind::Read).is_ok());
    assert!(mpu.check(ProcId(1), 0x8040, AccessKind::Read).is_err());
}

/// Distributed: a 3-node system where a sensor node streams to two
/// consumers; everything meets deadlines and the bus stats add up.
#[test]
fn three_node_fieldbus_system() {
    let line = IrqLine(2);
    let sensor = || {
        let mut b = KernelBuilder::new(KernelConfig {
            policy: SchedPolicy::Csd {
                boundaries: vec![1],
            },
            ..KernelConfig::default()
        });
        let p = b.add_process("sensor");
        let nic = b.add_nic(line, 8, 8);
        b.add_periodic_task(
            p,
            "sample",
            ms(10),
            Script::periodic(vec![
                Action::Compute(us(300)),
                Action::SendMbox {
                    mbox: nic.tx,
                    bytes: 8,
                    tag: addressed_tag(None, 55),
                },
            ]),
        );
        b.add_driver_task(
            p,
            "drain",
            ms(5),
            Script::looping(vec![Action::RecvMbox(nic.rx), Action::Compute(us(20))]),
        );
        b.build()
    };
    let consumer = |work_us: u64| {
        let mut b = KernelBuilder::new(KernelConfig {
            policy: SchedPolicy::RmQueue,
            ..KernelConfig::default()
        });
        let p = b.add_process("consumer");
        let nic = b.add_nic(line, 8, 16);
        b.add_driver_task(
            p,
            "rx",
            ms(2),
            Script::looping(vec![Action::RecvMbox(nic.rx), Action::Compute(us(work_us))]),
        );
        b.add_periodic_task(p, "main", ms(20), Script::compute_only(ms(2)));
        b.build()
    };
    let mut net = Cluster::new(2_000_000);
    net.add_node("sensor", sensor(), 1);
    let c1 = net.add_node("c1", consumer(100), 5);
    let c2 = net.add_node("c2", consumer(200), 6);
    net.run_until(Time::from_ms(300));
    let s = net.stats();
    assert_eq!(s.frames_dropped, 0);
    assert!(s.frames_sent >= 29, "sent {}", s.frames_sent);
    // Broadcast to 2 consumers.
    assert!(s.frames_delivered >= 2 * (s.frames_sent - 2));
    for id in [c1, c2] {
        let kern = &net.node(id).kernel;
        assert_eq!(kern.total_deadline_misses(), 0);
        assert_eq!(
            kern.tcb(emeralds::sim::ThreadId(0)).last_read,
            55,
            "{}",
            net.node(id).name
        );
    }
}

/// The footprint report reproduces the 13 KB claim and the pools
/// reflect real usage.
#[test]
fn footprint_report_after_a_run() {
    let mut b = KernelBuilder::new(KernelConfig::default());
    let p = b.add_process("app");
    let _s = b.add_mutex();
    let _m = b.add_mailbox(2);
    for i in 0..5 {
        b.add_periodic_task(
            p,
            format!("t{i}"),
            ms(10 + i),
            Script::compute_only(us(500)),
        );
    }
    let k = b.build();
    assert_eq!(k.pools().tcbs.high_water(), 5);
    assert_eq!(k.pools().sems.high_water(), 1);
    assert_eq!(k.pools().mailboxes.high_water(), 1);
    let report = footprint::report(&k.pools());
    assert!(report.contains("13 KB"));
    assert!(footprint::rom_total() < 20_000);
}

/// Per-node inline footprint ceilings, so a simulated board cannot grow
/// unseen: every node of a bus carries one `ClusterNode` (its `Kernel`
/// included), every kernel one `Board` and one `Tcb` per task, and
/// every board one `Device` per peripheral (its NIC included). The
/// ceilings are the sizes measured on x86-64; lower them when a change
/// shrinks a node.
#[test]
#[cfg(target_arch = "x86_64")]
fn node_footprint_stays_within_its_ceiling() {
    let node = std::mem::size_of::<emeralds::fieldbus::ClusterNode>();
    let kernel = std::mem::size_of::<emeralds::core::Kernel>();
    let tcb = std::mem::size_of::<emeralds::core::tcb::Tcb>();
    let board = std::mem::size_of::<emeralds::hal::Board>();
    let device = std::mem::size_of::<emeralds::hal::Device>();
    assert!(node <= 1_344, "ClusterNode is {node} B");
    assert!(kernel <= 1_048, "Kernel is {kernel} B");
    // The paper's TCB is 128 B; the host one also holds the script
    // pointer, the job bookkeeping and the lock state.
    assert!(tcb <= 200, "Tcb is {tcb} B");
    assert!(board <= 88, "Board is {board} B");
    assert!(device <= 48, "Device is {device} B");
}
