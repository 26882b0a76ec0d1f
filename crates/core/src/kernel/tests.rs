//! Kernel behaviour tests: scheduling traces, semaphore scenarios
//! (Figures 2 and 6–10), IPC, interrupts.

use emeralds_sim::{Duration, EventId, IrqLine, MboxId, SemId, ThreadId, Time, TraceEvent};

use crate::kernel::{IrqAction, Kernel, KernelBuilder, KernelConfig};
use crate::sched::SchedPolicy;
use crate::script::{Action, Script};
use crate::sync::SemScheme;

fn ms(v: u64) -> Duration {
    Duration::from_ms(v)
}

fn us(v: u64) -> Duration {
    Duration::from_us(v)
}

fn cfg(policy: SchedPolicy, scheme: SemScheme) -> KernelConfig {
    KernelConfig {
        policy,
        sem_scheme: scheme,
        ..KernelConfig::default()
    }
}

/// The reconstructed Table 2 workload as kernel tasks.
fn table2_builder(policy: SchedPolicy) -> KernelBuilder {
    let mut b = KernelBuilder::new(cfg(policy, SemScheme::Emeralds));
    let p = b.add_process("app");
    let spec: &[(u64, u64)] = &[
        (4, 1_000),
        (5, 1_000),
        (6, 1_000),
        (7, 900),
        (9, 300),
        (50, 2_200),
        (60, 1_600),
        (100, 1_500),
        (200, 2_000),
        (400, 2_200),
    ];
    for (i, &(p_ms, c_us)) in spec.iter().enumerate() {
        b.add_periodic_task(
            p,
            format!("tau{}", i + 1),
            ms(p_ms),
            Script::compute_only(us(c_us)),
        );
    }
    b
}

/// Figure 2: under RM the 9 ms task τ5 misses its very first deadline.
#[test]
fn fig2_rm_misses_tau5() {
    let mut k = table2_builder(SchedPolicy::RmQueue).build();
    let missed = k.run_until_miss(Time::from_ms(40));
    assert!(missed, "τ5 must miss under RM");
    let misses = k.trace().deadline_misses();
    let (at, tid) = misses[0];
    assert_eq!(tid, ThreadId(4), "the troublesome task is τ5");
    assert!(
        at >= Time::from_ms(9) && at < Time::from_ms(10),
        "first miss at the t = 9 ms deadline, got {at}"
    );
}

/// The same workload is feasible under EDF (zero-cost model keeps the
/// analysis exact; with real overheads U ≈ 0.88 still fits).
#[test]
fn fig2_edf_schedules_everything() {
    let mut k = table2_builder(SchedPolicy::Edf).build();
    k.run_until(Time::from_ms(400));
    assert_eq!(k.total_deadline_misses(), 0);
    // τ5 completed all of its jobs.
    assert!(k.task_stats(ThreadId(4)).jobs_completed >= 44);
}

/// CSD-2 with the DP queue holding τ1–τ5 also schedules it, with
/// lower accounted overhead than pure EDF.
#[test]
fn fig2_csd2_schedules_with_less_overhead_than_edf() {
    let mut edf = table2_builder(SchedPolicy::Edf).build();
    edf.run_until(Time::from_ms(400));
    let mut csd = table2_builder(SchedPolicy::Csd {
        boundaries: vec![5],
    })
    .build();
    csd.run_until(Time::from_ms(400));
    assert_eq!(csd.total_deadline_misses(), 0);
    let edf_sched = edf.accounting().scheduler_overhead();
    let csd_sched = csd.accounting().scheduler_overhead();
    assert!(
        csd_sched < edf_sched,
        "CSD {csd_sched} should beat EDF {edf_sched}"
    );
}

/// Builds the Figure 6 scenario: T2 (high) blocked on an event,
/// T1 (low) holding S, Tx (medium) running when the event fires.
fn fig6_kernel(scheme: SemScheme) -> (Kernel, SemId, ThreadId, ThreadId, ThreadId) {
    let mut b = KernelBuilder::new(cfg(SchedPolicy::RmQueue, scheme));
    let p = b.add_process("app");
    let s = b.add_mutex();
    let e = b.add_event();
    // Periods order the RM priorities: T2 > Tx > T1.
    let t2 = b.add_periodic_task(
        p,
        "T2",
        ms(100),
        Script::periodic(vec![
            Action::WaitEvent(e),
            Action::AcquireSem(s),
            Action::Compute(ms(1)),
            Action::ReleaseSem(s),
        ]),
    );
    let tx = b.add_periodic_task(
        p,
        "Tx",
        ms(200),
        Script::periodic(vec![
            Action::SleepFor(ms(1)),
            Action::Compute(ms(2)),
            Action::SignalEvent(e),
            Action::Compute(ms(2)),
        ]),
    );
    let t1 = b.add_periodic_task(
        p,
        "T1",
        ms(400),
        Script::periodic(vec![
            Action::AcquireSem(s),
            Action::Compute(ms(10)),
            Action::ReleaseSem(s),
        ]),
    );
    (b.build(), s, t1, t2, tx)
}

/// Figure 6 (standard scheme): the event wakes T2, T2 runs and blocks
/// on the semaphore (switch C2 to T1), T1 releases (switch C3 back).
#[test]
fn fig6_standard_scheme_bounces_through_t2() {
    let (mut k, s, t1, t2, _tx) = fig6_kernel(SemScheme::Standard);
    k.run_until(Time::from_ms(20));
    assert_eq!(k.total_deadline_misses(), 0);
    // T2 observably blocked on the held semaphore.
    let blocked: Vec<_> = k
        .trace()
        .filter(|e| matches!(e, TraceEvent::SemBlocked { .. }))
        .collect();
    assert_eq!(blocked.len(), 1);
    if let TraceEvent::SemBlocked { tid, sem, holder } = &blocked[0].1 {
        assert_eq!((*tid, *sem, *holder), (t2, s, t1));
    }
    // The wasted bounce: a switch to T2 followed immediately by a
    // switch from T2 to T1.
    let seq = k.trace().context_switch_sequence();
    assert!(
        seq.windows(2)
            .any(|w| w[0].1 == Some(t2) && w[1] == (Some(t2), Some(t1))),
        "expected the T2 → T1 bounce, got {seq:?}"
    );
    // No early inheritance happens under the standard scheme.
    assert_eq!(
        k.trace()
            .filter(|e| matches!(e, TraceEvent::EarlyInherit { .. }))
            .count(),
        0
    );
}

/// Figure 8 (EMERALDS scheme): context switch C2 is eliminated — the
/// kernel inherits early at the event and switches straight to T1.
#[test]
fn fig8_emeralds_scheme_eliminates_c2() {
    let (mut k, s, t1, t2, _tx) = fig6_kernel(SemScheme::Emeralds);
    k.run_until(Time::from_ms(20));
    assert_eq!(k.total_deadline_misses(), 0);
    // Early inheritance recorded at the event.
    let early: Vec<_> = k
        .trace()
        .filter(|e| matches!(e, TraceEvent::EarlyInherit { .. }))
        .collect();
    assert_eq!(early.len(), 1);
    if let TraceEvent::EarlyInherit {
        waiter,
        holder,
        sem,
    } = &early[0].1
    {
        assert_eq!((*waiter, *holder, *sem), (t2, t1, s));
    }
    // The bounce is gone: T2 never runs between the event and T1's
    // release — so no (…→T2) followed by (T2→T1).
    let seq = k.trace().context_switch_sequence();
    assert!(
        !seq.windows(2)
            .any(|w| w[0].1 == Some(t2) && w[1] == (Some(t2), Some(t1))),
        "C2 must be eliminated, got {seq:?}"
    );
    // And it saves exactly one switch relative to the standard run.
    let (mut std_k, ..) = fig6_kernel(SemScheme::Standard);
    std_k.run_until(Time::from_ms(20));
    assert_eq!(
        std_k.trace().context_switch_count(),
        k.trace().context_switch_count() + 1,
        "one context switch saved per contended pair"
    );
}

/// Both schemes produce the same application outcome (full semantics,
/// §6: "full semaphore semantics ... without compromising any OS
/// functionality"): same job completions, same CPU time per task.
#[test]
fn schemes_agree_on_application_behaviour() {
    let (mut a, _, _, _, _) = fig6_kernel(SemScheme::Standard);
    let (mut b, _, _, _, _) = fig6_kernel(SemScheme::Emeralds);
    // 150 ms covers every task's first job; later T2 jobs wait for
    // events Tx only raises every 200 ms, so longer horizons would
    // starve them by construction.
    a.run_until(Time::from_ms(150));
    b.run_until(Time::from_ms(150));
    for i in 0..3u32 {
        let tid = ThreadId(i);
        let (sa, sb) = (a.task_stats(tid), b.task_stats(tid));
        assert_eq!(sa.jobs_completed, sb.jobs_completed, "task {i}");
        assert_eq!(a.tcb(tid).cpu_time, b.tcb(tid).cpu_time, "task {i}");
        assert_eq!(sa.deadline_misses, 0);
        assert_eq!(sb.deadline_misses, 0);
    }
    // The EMERALDS kernel spent less on overhead.
    assert!(b.accounting().total_overhead() < a.accounting().total_overhead());
}

/// Figure 9 / §6.3.1 (case B): T2 is admitted to the pre-lock queue
/// while S is free; the higher-priority T1 then takes S first and
/// blocks while holding it, so the kernel re-blocks T2 instead of
/// letting it run into a futile acquire.
#[test]
fn fig9_prelock_queue_turns_case_b_into_case_a() {
    let mut b = KernelBuilder::new(cfg(SchedPolicy::RmQueue, SemScheme::Emeralds));
    let p = b.add_process("app");
    let s = b.add_mutex();
    let e2 = b.add_event();
    let e_inner = b.add_event();
    // T1: higher priority; takes S after T2 is already in the pre-lock
    // queue, then blocks while holding it.
    let t1 = b.add_periodic_task(
        p,
        "T1",
        ms(100),
        Script::periodic(vec![
            Action::SleepFor(ms(2)),
            Action::AcquireSem(s),
            Action::WaitEvent(e_inner),
            Action::ReleaseSem(s),
        ]),
    );
    // T2: waits for its event, then locks S.
    let t2 = b.add_periodic_task(
        p,
        "T2",
        ms(150),
        Script::periodic(vec![
            Action::WaitEvent(e2),
            Action::Compute(ms(5)),
            Action::AcquireSem(s),
            Action::ReleaseSem(s),
        ]),
    );
    // Ts: lowest priority; signals both events.
    let _ts = b.add_periodic_task(
        p,
        "Ts",
        ms(300),
        Script::periodic(vec![
            Action::Compute(ms(1)),
            Action::SignalEvent(e2), // t = 1ms: S free → T2 pre-locks
            Action::Compute(ms(4)),
            Action::SignalEvent(e_inner), // t ≈ 6ms: T1 releases
        ]),
    );
    let mut k = b.build();
    k.run_until(Time::from_ms(50));
    assert_eq!(k.total_deadline_misses(), 0);
    // T2 was admitted to the pre-lock queue...
    assert!(
        k.trace()
            .filter(|e| matches!(e, TraceEvent::PreLockAdmit { tid, .. } if *tid == t2))
            .count()
            >= 1
    );
    // ...and re-blocked when T1 locked S.
    assert!(
        k.trace()
            .filter(|e| matches!(e, TraceEvent::PreLockBlock { tid, .. } if *tid == t2))
            .count()
            >= 1
    );
    // T2 never performed a futile blocking acquire (no SemBlocked).
    assert_eq!(
        k.trace()
            .filter(|e| matches!(e, TraceEvent::SemBlocked { tid, .. } if *tid == t2))
            .count(),
        0
    );
    let _ = t1;
}

/// Figure 10: the lock holder T1 blocks waiting for a signal from a
/// lower-priority thread Ts while T2 wants the lock. Keeping T2
/// blocked and letting Ts run leads to T1 releasing earlier — and
/// everything completes.
#[test]
fn fig10_internal_event_chain_completes() {
    let mut b = KernelBuilder::new(cfg(SchedPolicy::RmQueue, SemScheme::Emeralds));
    let p = b.add_process("app");
    let s = b.add_mutex();
    let e = b.add_event(); // T2's trigger
    let sig = b.add_event(); // Ts → T1 signal
    let t2 = b.add_periodic_task(
        p,
        "T2",
        ms(100),
        Script::periodic(vec![
            Action::WaitEvent(e),
            Action::AcquireSem(s),
            Action::Compute(ms(1)),
            Action::ReleaseSem(s),
        ]),
    );
    let _t1 = b.add_periodic_task(
        p,
        "T1",
        ms(200),
        Script::periodic(vec![
            Action::AcquireSem(s),
            Action::Compute(ms(1)),
            Action::SignalEvent(e), // wakes T2's interest in S
            Action::WaitEvent(sig), // blocks holding S
            Action::ReleaseSem(s),
        ]),
    );
    let _ts = b.add_periodic_task(
        p,
        "Ts",
        ms(400),
        Script::periodic(vec![Action::Compute(ms(2)), Action::SignalEvent(sig)]),
    );
    let mut k = b.build();
    k.run_until(Time::from_ms(100));
    assert_eq!(k.total_deadline_misses(), 0);
    assert_eq!(k.task_stats(t2).jobs_completed, 1);
    // T2 received the lock exactly once.
    assert_eq!(
        k.trace()
            .filter(|e| matches!(e, TraceEvent::SemAcquired { tid, .. } if *tid == t2))
            .count(),
        1
    );
}

/// Mailbox round trip with a blocked receiver, plus sender blocking on
/// a full box.
#[test]
fn mailbox_blocking_semantics() {
    let mut b = KernelBuilder::new(cfg(SchedPolicy::RmQueue, SemScheme::Emeralds));
    let p = b.add_process("app");
    let mb: MboxId = b.add_mailbox(1);
    let consumer = b.add_periodic_task(
        p,
        "consumer",
        ms(100),
        Script::periodic(vec![
            Action::RecvMbox(mb),
            Action::Compute(ms(1)),
            Action::RecvMbox(mb),
            Action::RecvMbox(mb),
        ]),
    );
    let producer = b.add_periodic_task(
        p,
        "producer",
        ms(200),
        Script::periodic(vec![
            Action::SleepFor(ms(1)),
            Action::SendMbox {
                mbox: mb,
                bytes: 16,
                tag: 11,
            },
            Action::SendMbox {
                mbox: mb,
                bytes: 16,
                tag: 22,
            },
            Action::SendMbox {
                mbox: mb,
                bytes: 16,
                tag: 33,
            },
        ]),
    );
    let mut k = b.build();
    k.run_until(Time::from_ms(50));
    assert_eq!(k.total_deadline_misses(), 0);
    assert_eq!(k.task_stats(consumer).jobs_completed, 1);
    assert_eq!(k.task_stats(producer).jobs_completed, 1);
    assert_eq!(k.mailbox(mb).sent, 3);
    assert_eq!(k.mailbox(mb).received, 3);
    // The consumer ends holding the last tag.
    assert_eq!(k.tcb(consumer).last_read, 33);
}

/// State messages: writer publishes, readers always see the freshest
/// value, nobody ever blocks, and no syscall cost is charged.
#[test]
fn state_message_pipeline() {
    let mut b = KernelBuilder::new(cfg(SchedPolicy::RmQueue, SemScheme::Emeralds));
    let p = b.add_process("app");
    // Writer publishes its job number (via two writes per job).
    let writer = b.add_periodic_task(
        p,
        "sensor",
        ms(10),
        Script::periodic(vec![
            Action::Compute(us(200)),
            Action::StateWrite {
                var: emeralds_sim::StateId(0),
                value: crate::script::Operand::Const(7),
            },
        ]),
    );
    let var = b.add_state_msg(writer, 16, 3, &[p]);
    let reader = b.add_periodic_task(
        p,
        "controller",
        ms(20),
        Script::periodic(vec![Action::StateRead(var), Action::Compute(us(500))]),
    );
    let mut k = b.build();
    k.run_until(Time::from_ms(100));
    assert_eq!(k.total_deadline_misses(), 0);
    assert_eq!(k.statemsg(var).seq, 10);
    assert_eq!(k.statemsg(var).reads(), 5);
    assert_eq!(k.tcb(reader).last_read, 7);
    // No mailbox copies, but state-message copies were charged.
    use emeralds_sim::OverheadKind;
    assert!(k.accounting().total(OverheadKind::StateMsg) > Duration::ZERO);
    assert_eq!(k.accounting().total(OverheadKind::IpcCopy), Duration::ZERO);
}

/// A user-level driver thread woken by a sensor interrupt reads the
/// device and commands an actuator (§3's device-driver pattern).
#[test]
fn irq_driven_driver_thread() {
    let mut b = KernelBuilder::new(cfg(SchedPolicy::RmQueue, SemScheme::Emeralds));
    let p = b.add_process("drv");
    let line = IrqLine(4);
    let (rpm, valve) = {
        let board = b.board_mut();
        let rpm = board.add_sensor(Some(line));
        let valve = board.add_actuator();
        board.schedule_periodic_samples(rpm, Time::from_ms(1), ms(5), 4, |k| 900 + k as u32);
        (rpm, valve)
    };
    let driver = b.add_driver_task(
        p,
        "rpm-driver",
        ms(2),
        Script::looping(vec![
            Action::WaitIrq(line),
            Action::DevRead(rpm),
            Action::Compute(us(100)),
            Action::DevWrite(valve, crate::script::Operand::FromLastRead),
        ]),
    );
    let mut k = b.build();
    k.run_until(Time::from_ms(30));
    let log = k.board().actuator_log(valve).to_vec();
    assert_eq!(log.len(), 4, "one actuation per sample");
    assert_eq!(log.last().unwrap().1, 903);
    assert!(k.tcb(driver).cpu_time >= us(400));
}

/// An IRQ action releasing a counting semaphore wakes a waiting
/// thread. A one-permit counting semaphore is not a mutex: it has no
/// holder, and its acquirer holds nothing.
#[test]
fn irq_action_releases_counting_sem() {
    let mut b = KernelBuilder::new(cfg(SchedPolicy::RmQueue, SemScheme::Emeralds));
    let p = b.add_process("drv");
    let line = IrqLine(3);
    let data_ready = b.add_counting_sem(1);
    b.on_irq(line, IrqAction::ReleaseSem(data_ready));
    let sensor = {
        let board = b.board_mut();
        let s = board.add_sensor(Some(line));
        board.schedule_periodic_samples(s, Time::from_ms(2), ms(10), 3, |_| 5);
        s
    };
    let worker = b.add_driver_task(
        p,
        "adc-worker",
        ms(5),
        Script::looping(vec![
            Action::AcquireSem(data_ready),
            Action::DevRead(sensor),
            Action::Compute(us(50)),
        ]),
    );
    let mut k = b.build();
    k.run_until(Time::from_ms(50));
    // Initial permit + 3 interrupts = 4 passes.
    assert!(
        k.tcb(worker).cpu_time >= us(200),
        "cpu {}",
        k.tcb(worker).cpu_time
    );
    // Each interrupt handed its permit straight to the parked worker.
    assert_eq!(k.counters().sem_handed_over, 3);
    assert_eq!(k.sem(data_ready).holder, None);
    assert!(k.tcb(worker).held_sems.is_empty());
}

/// An IRQ action signalling an event wakes the driver waiting on it,
/// and each signal is traced, naming the line and the event, and
/// counted with the event signals but not with the system calls.
#[test]
fn irq_action_signals_event_visibly() {
    let mut b = KernelBuilder::new(cfg(SchedPolicy::RmQueue, SemScheme::Emeralds));
    let p = b.add_process("drv");
    let line = IrqLine(3);
    let ready = b.add_event();
    b.on_irq(line, IrqAction::SignalEvent(ready));
    let sensor = {
        let board = b.board_mut();
        let s = board.add_sensor(Some(line));
        board.schedule_periodic_samples(s, Time::from_ms(2), ms(4), 5, |k| 10 + k as u32);
        s
    };
    let driver = b.add_driver_task(
        p,
        "adc-driver",
        ms(2),
        Script::looping(vec![
            Action::WaitEvent(ready),
            Action::DevRead(sensor),
            Action::Compute(us(50)),
        ]),
    );
    let mut k = b.build();
    k.run_until(Time::from_ms(30));
    // Five wakes: the driver read every sample.
    assert_eq!(k.tcb(driver).last_read, 14);
    assert_eq!(k.tcb(driver).cpu_time, us(250));
    let signals: Vec<&TraceEvent> = k
        .trace()
        .iter()
        .map(|(_, e)| e)
        .filter(|e| matches!(e, TraceEvent::IrqEventSignal { .. }))
        .collect();
    let signal = TraceEvent::IrqEventSignal { line, event: ready };
    assert_eq!(signals, vec![&signal; 5]);
    let c = k.counters();
    assert_eq!((c.irq_event_signals, c.sys_event_signal), (5, 0));
    let entries = k.metrics().counters.entries();
    assert!(entries.contains(&("event_signals", 5)), "{entries:?}");
    // The driver's six waits are the only system calls.
    assert_eq!((c.sys_event_wait, c.syscall_total()), (6, 6));
}

/// Condition variables: a waiter released by a signaller re-acquires
/// the guard mutex and proceeds.
#[test]
fn condvar_wait_signal_round_trip() {
    let mut b = KernelBuilder::new(cfg(SchedPolicy::RmQueue, SemScheme::Emeralds));
    let p = b.add_process("app");
    let m = b.add_mutex();
    let cv = b.add_condvar();
    let waiter = b.add_periodic_task(
        p,
        "waiter",
        ms(100),
        Script::periodic(vec![
            Action::AcquireSem(m),
            Action::CondWait(cv, m),
            Action::Compute(ms(1)),
            Action::ReleaseSem(m),
        ]),
    );
    let signaller = b.add_periodic_task(
        p,
        "signaller",
        ms(200),
        Script::periodic(vec![
            Action::SleepFor(ms(2)),
            Action::AcquireSem(m),
            Action::CondSignal(cv),
            Action::ReleaseSem(m),
        ]),
    );
    let mut k = b.build();
    k.run_until(Time::from_ms(50));
    assert_eq!(k.total_deadline_misses(), 0);
    assert_eq!(k.task_stats(waiter).jobs_completed, 1);
    assert_eq!(k.task_stats(signaller).jobs_completed, 1);
    assert!(
        k.trace()
            .filter(|e| matches!(e, TraceEvent::CvSignal { .. }))
            .count()
            == 1
    );
}

/// The placeholder swap keeps the FP queue consistent through the §6.2
/// "T3" case: a second, higher-priority donor replaces the first.
#[test]
fn placeholder_t3_case_restores_order() {
    let mut b = KernelBuilder::new(cfg(SchedPolicy::RmQueue, SemScheme::Emeralds));
    let p = b.add_process("app");
    let s = b.add_mutex();
    // Priorities: T3 > T2 > TL (periods 50 < 80 < 200).
    let t3 = b.add_periodic_task(
        p,
        "T3",
        ms(50),
        Script::periodic(vec![
            Action::SleepFor(ms(4)),
            Action::AcquireSem(s),
            Action::Compute(us(100)),
            Action::ReleaseSem(s),
        ]),
    );
    let t2 = b.add_periodic_task(
        p,
        "T2",
        ms(80),
        Script::periodic(vec![
            Action::SleepFor(ms(2)),
            Action::AcquireSem(s),
            Action::Compute(us(100)),
            Action::ReleaseSem(s),
        ]),
    );
    let tl = b.add_periodic_task(
        p,
        "TL",
        ms(200),
        Script::periodic(vec![
            Action::AcquireSem(s),
            Action::Compute(ms(8)),
            Action::ReleaseSem(s),
        ]),
    );
    let mut k = b.build();
    k.run_until(Time::from_ms(40));
    assert_eq!(k.total_deadline_misses(), 0);
    // Two inheritance events (T2 then T3) and a restore.
    assert!(
        k.trace()
            .filter(|e| matches!(e, TraceEvent::PriorityInherit { holder, .. } if *holder == tl))
            .count()
            >= 2
    );
    // Everyone completed one job.
    for t in [t3, t2, tl] {
        assert_eq!(k.task_stats(t).jobs_completed, 1, "{t}");
    }
    // The semaphore ends free with no placeholder.
    assert!(k.sem(s).available());
    assert!(k.sem(s).placeholder.is_none());
}

/// Sporadic overload is detected: a workload with U > 1 must miss.
#[test]
fn overload_misses_deadlines() {
    let mut b = KernelBuilder::new(cfg(SchedPolicy::Edf, SemScheme::Emeralds));
    let p = b.add_process("app");
    b.add_periodic_task(p, "a", ms(10), Script::compute_only(ms(7)));
    b.add_periodic_task(p, "b", ms(10), Script::compute_only(ms(7)));
    let mut k = b.build();
    assert!(k.run_until_miss(Time::from_ms(100)));
}

/// The accounting ledger balances: app + idle + overhead = elapsed.
#[test]
fn accounting_ledger_balances() {
    let mut k = table2_builder(SchedPolicy::Csd {
        boundaries: vec![5],
    })
    .build();
    k.run_until(Time::from_ms(200));
    let total = k.accounting().grand_total();
    assert_eq!(total.as_ns(), k.now().as_ns());
}

/// `idle_to` is `advance_to` on a kernel that is idle up to the target:
/// the same clock, ledger and trace, and the same run afterwards.
#[test]
fn idle_to_matches_advance_to_on_an_idle_kernel() {
    let build = || {
        let mut b = KernelBuilder::new(cfg(SchedPolicy::RmQueue, SemScheme::Emeralds));
        let p = b.add_process("app");
        let line = IrqLine(4);
        let dev = b.board_mut().add_sensor(Some(line));
        b.board_mut()
            .schedule_periodic_samples(dev, Time::from_ms(15), ms(5), 3, |k| k as u32);
        b.add_periodic_task(p, "ctl", ms(10), Script::compute_only(us(300)));
        b.add_driver_task(
            p,
            "drv",
            ms(2),
            Script::looping(vec![Action::WaitIrq(line), Action::DevRead(dev)]),
        );
        let mut k = b.build();
        k.run_until(Time::from_ms(2));
        k
    };
    let (mut idled, mut advanced) = (build(), build());
    // Idle from the first job's end to the next release at 10 ms.
    assert_eq!(idled.current(), None);
    assert_eq!(idled.next_external_time(), Some(Time::from_ms(10)));
    for t in [Time::from_us(6_500), Time::from_ms(10), Time::from_ms(4)] {
        idled.idle_to(t);
        advanced.advance_to(t);
        assert_eq!(idled.now(), advanced.now(), "at {t:?}");
        assert_eq!(idled.metrics(), advanced.metrics(), "at {t:?}");
        assert_eq!(idled.trace().to_jsonl(), advanced.trace().to_jsonl());
    }
    assert_eq!(idled.now(), Time::from_ms(10));
    for k in [&mut idled, &mut advanced] {
        k.advance_to(Time::from_ms(40));
    }
    assert_eq!(idled.metrics(), advanced.metrics());
    assert_eq!(idled.trace().to_jsonl(), advanced.trace().to_jsonl());
    assert_eq!(
        idled.accounting().grand_total().as_ns(),
        idled.now().as_ns()
    );
}

/// `next_action_time` is the first instant the kernel can do anything
/// but continue its running thread's `Compute`: the compute's end or an
/// earlier timer while one runs or is next, now when another action is
/// next, and the next external occurrence while idle.
#[test]
fn next_action_time_ends_at_the_running_compute_or_an_earlier_event() {
    let mut b = KernelBuilder::new(cfg(SchedPolicy::RmQueue, SemScheme::Emeralds));
    let p = b.add_process("app");
    let long = b.add_periodic_task(
        p,
        "long",
        ms(10),
        Script::periodic(vec![
            Action::Compute(us(400)),
            Action::Compute(us(300)),
            Action::ReadClock,
            Action::Compute(ms(2)),
        ]),
    );
    // Outranks `long` and is first released in its 2 ms compute.
    b.add_periodic_task_phased(p, "tick", ms(5), ms(5), ms(2), Script::compute_only(us(50)));
    let mut k = b.build();

    // A compute in progress ends `compute_left` from now.
    k.run_until(Time::from_us(100));
    assert_eq!(k.current(), Some(long));
    let left = k.tcb(long).compute_left;
    assert!(left > Duration::ZERO && left < us(400), "left {left}");
    let first_end = k.now() + left;
    assert_eq!(k.next_action_time(), Some(first_end));

    // The first compute ends exactly at the horizon: the second has not
    // started, so its whole duration lies ahead.
    k.run_until(first_end);
    assert_eq!((k.now(), k.tcb(long).pc), (first_end, 1));
    assert!(k.tcb(long).compute_left.is_zero());
    assert_eq!(k.next_action_time(), Some(first_end + us(300)));

    // A non-`Compute` action at the pc acts now.
    k.run_until(first_end + us(300));
    assert_eq!(k.tcb(long).pc, 2);
    assert_eq!(k.next_action_time(), Some(k.now()));

    // A timer due before the running compute ends comes first.
    k.run_until(Time::from_ms(1));
    assert_eq!(k.tcb(long).pc, 3);
    assert!(k.now() + k.tcb(long).compute_left > Time::from_ms(2));
    assert_eq!(k.next_action_time(), Some(Time::from_ms(2)));

    // Idle: the next timer or device event.
    k.run_until(Time::from_ms(4));
    assert_eq!(k.current(), None);
    assert_eq!(k.next_external_time(), Some(Time::from_ms(7)));
    assert_eq!(k.next_action_time(), Some(Time::from_ms(7)));
}

/// Event latching: a signal with no waiter is consumed by the next
/// wait.
#[test]
fn event_latch_semantics() {
    let mut b = KernelBuilder::new(cfg(SchedPolicy::RmQueue, SemScheme::Emeralds));
    let p = b.add_process("app");
    let e: EventId = b.add_event();
    let early = b.add_periodic_task(
        p,
        "early",
        ms(100),
        Script::periodic(vec![Action::SignalEvent(e)]),
    );
    let late = b.add_periodic_task(
        p,
        "late",
        ms(200),
        Script::periodic(vec![Action::WaitEvent(e), Action::Compute(ms(1))]),
    );
    let mut k = b.build();
    k.run_until(Time::from_ms(50));
    assert_eq!(k.task_stats(early).jobs_completed, 1);
    assert_eq!(
        k.task_stats(late).jobs_completed,
        1,
        "latched signal consumed"
    );
}

/// Deadline-monotonic assignment: with constrained deadlines, DM
/// schedules a workload that period-based RM misses (the classic
/// Leung–Whitehead example shape).
#[test]
fn dm_beats_rm_on_constrained_deadlines() {
    let build = |policy: SchedPolicy| {
        let mut b = KernelBuilder::new(cfg(policy, SemScheme::Emeralds));
        let p = b.add_process("app");
        // τa: long period but tight deadline; τb: short period, lax
        // deadline. RM ranks τb higher and τa misses; DM ranks τa
        // higher and both fit.
        b.add_periodic_task_phased(
            p,
            "tight",
            ms(20),
            ms(3),
            Duration::ZERO,
            Script::compute_only(ms(2)),
        );
        b.add_periodic_task_phased(
            p,
            "lax",
            ms(10),
            ms(10),
            Duration::ZERO,
            Script::compute_only(ms(2)),
        );
        b.build()
    };
    let mut rm = build(SchedPolicy::RmQueue);
    assert!(
        rm.run_until_miss(Time::from_ms(100)),
        "RM must miss the tight deadline"
    );
    assert_eq!(rm.trace().deadline_misses()[0].1, ThreadId(0));
    let mut dm = build(SchedPolicy::DmQueue);
    dm.run_until(Time::from_ms(100));
    assert_eq!(dm.total_deadline_misses(), 0, "DM schedules both");
}

/// Constrained deadlines are checked at the deadline instant, not at
/// the next release.
#[test]
fn constrained_deadline_miss_detected_at_the_deadline() {
    let mut b = KernelBuilder::new(cfg(SchedPolicy::RmQueue, SemScheme::Emeralds));
    let p = b.add_process("app");
    // Needs 5 ms of work before a 4 ms deadline in a 100 ms period.
    b.add_periodic_task_phased(
        p,
        "t",
        ms(100),
        ms(4),
        Duration::ZERO,
        Script::compute_only(ms(5)),
    );
    let mut k = b.build();
    assert!(k.run_until_miss(Time::from_ms(50)));
    let (at, tid) = k.trace().deadline_misses()[0];
    assert_eq!(tid, ThreadId(0));
    assert!(
        at >= Time::from_ms(4) && at < Time::from_ms(5),
        "miss at {at}"
    );
    // Exactly one miss is recorded for the job — no double count at
    // the next release (run to just before job 2's deadline check).
    k.run_until(Time::from_ms(90));
    assert_eq!(k.task_stats(tid).deadline_misses, 1);
}

/// Worst-case response times are tracked per task.
#[test]
fn response_time_statistics() {
    let mut k = table2_builder(SchedPolicy::Edf).build();
    k.run_until(Time::from_ms(400));
    // τ1 (highest rate) responds in about its own wcet.
    let r1 = k.task_stats(ThreadId(0)).max_response;
    assert!(r1 >= ms(1) && r1 < ms(4), "tau1 response {r1}");
    // τ10 (lowest priority) sees real interference but meets P=400.
    let r10 = k.task_stats(ThreadId(9)).max_response;
    assert!(r10 > ms(2) && r10 <= ms(400), "tau10 response {r10}");
}

/// The RM-heap policy behaves like RM end to end (Table 1's rejected
/// implementation still schedules correctly — it is only slower).
#[test]
fn rm_heap_policy_matches_rm_outcomes() {
    let mut heap = table2_builder(SchedPolicy::RmHeap).build();
    let missed_heap = heap.run_until_miss(Time::from_ms(40));
    let mut rm = table2_builder(SchedPolicy::RmQueue).build();
    let missed_rm = rm.run_until_miss(Time::from_ms(40));
    assert!(missed_heap && missed_rm);
    // The heap's larger constants can push the *marginal* τ4 over the
    // edge before τ5 goes — either way the victim is one of the two
    // tasks RM cannot comfortably place.
    let victim = heap.trace().deadline_misses()[0].1;
    assert!(
        victim == ThreadId(3) || victim == ThreadId(4),
        "unexpected heap victim {victim}"
    );
    // And the heap's scheduler charges exceed the queue's (§5.1).
    let mut heap2 = table2_builder(SchedPolicy::RmHeap).build();
    heap2.run_until(Time::from_ms(100));
    let mut rm2 = table2_builder(SchedPolicy::RmQueue).build();
    rm2.run_until(Time::from_ms(100));
    assert!(heap2.accounting().scheduler_overhead() > rm2.accounting().scheduler_overhead());
}

/// Counting semaphores: permits accumulate, waiters block and resume
/// in priority order, and no priority inheritance is attempted.
#[test]
fn counting_semaphore_producer_consumer() {
    let mut b = KernelBuilder::new(cfg(SchedPolicy::RmQueue, SemScheme::Emeralds));
    let p = b.add_process("app");
    let items = b.add_counting_sem(2); // starts with two permits
    let consumer = b.add_periodic_task(
        p,
        "consumer",
        ms(100),
        Script::periodic(vec![
            Action::AcquireSem(items),
            Action::AcquireSem(items),
            Action::AcquireSem(items), // third must wait for the producer
            Action::Compute(ms(1)),
        ]),
    );
    let producer = b.add_periodic_task(
        p,
        "producer",
        ms(200),
        Script::periodic(vec![Action::SleepFor(ms(5)), Action::ReleaseSem(items)]),
    );
    let mut k = b.build();
    k.run_until(Time::from_ms(50));
    assert_eq!(k.task_stats(consumer).jobs_completed, 1);
    assert_eq!(k.task_stats(producer).jobs_completed, 1);
    assert_eq!(
        k.trace()
            .filter(|e| matches!(e, TraceEvent::PriorityInherit { .. }))
            .count(),
        0,
        "counting semaphores do not inherit"
    );
}

/// Kernel pools are finite: creating more tasks than the TCB pool
/// holds is a build-time (fatal) error, as on the real system.
#[test]
#[should_panic(expected = "exhausted")]
fn tcb_pool_exhaustion_is_fatal() {
    let mut b = KernelBuilder::new(cfg(SchedPolicy::Edf, SemScheme::Emeralds));
    let p = b.add_process("app");
    for i in 0..70 {
        b.add_periodic_task(
            p,
            format!("t{i}"),
            ms(1000 + i),
            Script::compute_only(us(10)),
        );
    }
    let _ = b.build();
}

/// `try_build` reports an overdrawn pool as a typed error naming the
/// pool, its capacity and what the configuration needs.
#[test]
fn pool_exhaustion_is_a_typed_error() {
    use crate::kernel::ConfigError;
    let mut b = KernelBuilder::new(cfg(SchedPolicy::Edf, SemScheme::Emeralds));
    let p = b.add_process("app");
    for i in 0..70 {
        b.add_periodic_task(
            p,
            format!("t{i}"),
            ms(1000 + i),
            Script::compute_only(us(10)),
        );
    }
    let err = b.try_build().expect_err("70 tasks overdraw the TCB pool");
    assert_eq!(
        err,
        ConfigError::PoolExhausted {
            pool: "tcb",
            capacity: 64,
            needed: 70,
        }
    );
    assert!(err.to_string().contains("exhausted"), "{err}");

    // 50 tasks fit the TCB pool, but a sleep and a constrained-deadline
    // check each take 150 timer blocks of 128.
    let mut b = KernelBuilder::new(cfg(SchedPolicy::DmQueue, SemScheme::Emeralds));
    let p = b.add_process("app");
    for i in 0..50 {
        b.add_periodic_task_phased(
            p,
            format!("t{i}"),
            ms(1000 + i),
            ms(500),
            Duration::ZERO,
            Script::periodic(vec![Action::SleepFor(us(10))]),
        );
    }
    assert_eq!(
        b.try_build()
            .expect_err("150 timer blocks overdraw the pool"),
        ConfigError::PoolExhausted {
            pool: "timer",
            capacity: 128,
            needed: 150,
        }
    );
}

/// A builder with a NIC on line 2 and a driver that waits on it.
fn irq_builder() -> (KernelBuilder, ThreadId) {
    let mut b = KernelBuilder::new(cfg(SchedPolicy::RmQueue, SemScheme::Emeralds));
    let p = b.add_process("drv");
    b.add_nic(IrqLine(2), 1, 1);
    let drv = b.add_driver_task(
        p,
        "nicdrv",
        ms(2),
        Script::looping(vec![Action::WaitIrq(IrqLine(2)), Action::Compute(us(20))]),
    );
    (b, drv)
}

/// The line every rejection test below wires: beyond the
/// controller's 32.
const OUT_OF_RANGE: IrqLine = IrqLine(40);

/// An `on_irq` registration on a line beyond the interrupt controller
/// is a typed build error, not an index panic in the builder.
#[test]
fn on_irq_beyond_the_controller_is_a_typed_error() {
    use crate::kernel::ConfigError;
    let (mut b, _) = irq_builder();
    b.on_irq(OUT_OF_RANGE, IrqAction::None);
    assert_eq!(
        b.try_build().err(),
        Some(ConfigError::IrqLineOutOfRange { line: OUT_OF_RANGE })
    );
    // The controller's last line is fine.
    let (mut top, _) = irq_builder();
    top.on_irq(IrqLine(31), IrqAction::None);
    assert!(top.try_build().is_ok());
}

/// A `WaitIrq` on a line beyond the interrupt controller is rejected
/// at build, not at the first wait.
#[test]
fn wait_irq_beyond_the_controller_is_a_typed_error() {
    use crate::kernel::ConfigError;
    let (mut b, _) = irq_builder();
    let p = b.add_process("late");
    b.add_driver_task(
        p,
        "waiter",
        ms(3),
        Script::looping(vec![Action::WaitIrq(OUT_OF_RANGE)]),
    );
    assert_eq!(
        b.try_build().err(),
        Some(ConfigError::IrqLineOutOfRange { line: OUT_OF_RANGE })
    );
}

/// A device wired to a line beyond the interrupt controller is
/// rejected at build, not at its first raise.
#[test]
fn device_beyond_the_controller_is_a_typed_error() {
    use crate::kernel::ConfigError;
    let (mut b, _) = irq_builder();
    b.board_mut().add_sensor(Some(OUT_OF_RANGE));
    let err = b.try_build().err();
    assert_eq!(
        err,
        Some(ConfigError::IrqLineOutOfRange { line: OUT_OF_RANGE })
    );
    assert!(err.unwrap().to_string().contains("IRQ40"));
    // A NIC declared on such a line is caught by the same scan, before
    // the fieldbus can raise it for a delivered frame.
    let mut b = KernelBuilder::new(cfg(SchedPolicy::RmQueue, SemScheme::Emeralds));
    b.add_nic(OUT_OF_RANGE, 8, 8);
    assert_eq!(
        b.try_build().err(),
        Some(ConfigError::IrqLineOutOfRange { line: OUT_OF_RANGE })
    );
}

/// An `on_irq` action releasing a semaphore the configuration never
/// added is a typed build error, not an index panic at the line's
/// first interrupt.
#[test]
fn on_irq_releasing_an_unknown_semaphore_is_a_typed_error() {
    use crate::kernel::ConfigError;
    let with = |sem| {
        let (mut b, _) = irq_builder();
        b.add_counting_sem(4);
        b.add_mutex();
        b.on_irq(IrqLine(3), IrqAction::ReleaseSem(sem));
        b.try_build().err()
    };
    assert_eq!(with(SemId(0)), None);
    let line = IrqLine(3);
    let err = with(SemId(2));
    assert_eq!(
        err,
        Some(ConfigError::UnknownIrqSemaphore {
            line,
            sem: SemId(2)
        })
    );
    assert!(err.unwrap().to_string().contains("unknown semaphore"));
    // A mutex has a holder an interrupt cannot be.
    let err = with(SemId(1));
    assert_eq!(
        err,
        Some(ConfigError::IrqReleasesMutex {
            line,
            sem: SemId(1)
        })
    );
    assert!(err.unwrap().to_string().contains("releases mutex S1"));
}

/// A counting semaphore without permits is a typed build error, not a
/// panic at the builder call.
#[test]
fn zero_permit_counting_sem_is_a_typed_error() {
    use crate::kernel::ConfigError;
    let (mut b, _) = irq_builder();
    b.add_counting_sem(1);
    let sem = b.add_counting_sem(0);
    let err = b.try_build().err();
    assert_eq!(err, Some(ConfigError::ZeroPermits { sem }));
    assert!(err.unwrap().to_string().contains("S1 has no permits"));
}

/// A mailbox without capacity, added alone or as either half of a
/// NIC, is a typed build error, not a panic inside the build: a
/// mailbox must never be full and empty at once.
#[test]
fn zero_capacity_mailbox_is_a_typed_error() {
    use crate::kernel::ConfigError;
    let (mut b, _) = irq_builder();
    b.add_mailbox(4);
    let mbox = b.add_mailbox(0);
    let err = b.try_build().err();
    assert_eq!(err, Some(ConfigError::ZeroCapacity { mbox }));
    assert!(err.unwrap().to_string().contains("MB3 has no capacity"));
    for (tx, rx) in [(0, 1), (1, 0)] {
        let mut b = KernelBuilder::new(cfg(SchedPolicy::RmQueue, SemScheme::Emeralds));
        let nic = b.add_nic(IrqLine(2), tx, rx);
        let mbox = if tx == 0 { nic.tx } else { nic.rx };
        assert_eq!(
            b.try_build().err(),
            Some(ConfigError::ZeroCapacity { mbox })
        );
    }
}

/// A task, a state-message reader or a replica owner in a process the
/// builder never added is a typed build error.
#[test]
fn unknown_process_is_a_typed_error() {
    use crate::kernel::ConfigError;
    use emeralds_sim::ProcId;
    let with = |task, reader, owner| {
        let mut b = KernelBuilder::new(cfg(SchedPolicy::RmQueue, SemScheme::Emeralds));
        b.add_process("app");
        let writer = b.add_periodic_task(task, "writer", ms(5), Script::compute_only(us(10)));
        b.add_state_msg(writer, 8, 3, &[reader]);
        b.add_state_replica(owner, 8, 3, &[]);
        b.try_build().err()
    };
    let (app, proc) = (ProcId(0), ProcId(9));
    assert_eq!(with(app, app, app), None);
    for (task, reader, owner) in [(proc, app, app), (app, proc, app), (app, app, proc)] {
        let err = with(task, reader, owner);
        assert_eq!(err, Some(ConfigError::UnknownProcess { proc }));
        assert!(err.unwrap().to_string().contains("unknown process P9"));
    }
}

/// Likewise for an `on_irq` action signalling an unknown event.
#[test]
fn on_irq_signalling_an_unknown_event_is_a_typed_error() {
    use crate::kernel::ConfigError;
    let with = |event| {
        let (mut b, _) = irq_builder();
        b.add_event();
        b.on_irq(IrqLine(3), IrqAction::SignalEvent(event));
        b.try_build().err()
    };
    assert_eq!(with(EventId(0)), None);
    let line = IrqLine(3);
    let err = with(EventId(4));
    assert_eq!(
        err,
        Some(ConfigError::UnknownIrqEvent {
            line,
            event: EventId(4)
        })
    );
    assert!(err.unwrap().to_string().contains("unknown event"));
}

/// Every default-configured kernel reads one process-wide price list:
/// two configurations, and a kernel built from one, hold the same
/// allocation.
#[test]
fn default_kernels_share_one_price_list() {
    use std::sync::Arc;
    let (a, b) = (KernelConfig::default(), KernelConfig::default());
    assert!(Arc::ptr_eq(&a.cost, &b.cost));
    let mut kb = KernelBuilder::new(KernelConfig::default());
    let p = kb.add_process("app");
    kb.add_periodic_task(p, "t", ms(10), Script::compute_only(us(100)));
    assert!(Arc::ptr_eq(&kb.build().cfg.cost, &a.cost));
}

/// A kernel given its own model keeps it: every charge comes from it.
#[test]
fn a_kernel_given_its_own_model_is_charged_from_it() {
    use emeralds_hal::CostModel;
    use emeralds_sim::OverheadKind;
    let mut model = CostModel::zero();
    model.context_switch = us(7);
    let mut b = KernelBuilder::new(KernelConfig {
        cost: model.into(),
        ..cfg(SchedPolicy::RmQueue, SemScheme::Emeralds)
    });
    let p = b.add_process("app");
    b.add_periodic_task(p, "t", ms(10), Script::compute_only(us(100)));
    let mut k = b.build();
    k.run_until(Time::from_ms(50));
    let switches = k.trace().context_switch_count();
    assert!(switches >= 10, "{switches} context switches");
    let acct = k.accounting();
    assert_eq!(acct.total(OverheadKind::ContextSwitch), us(7) * switches);
    assert_eq!(acct.total_overhead(), us(7) * switches);
}

/// A board with one mailbox, one state message, one event and one
/// device, whose second task runs `action` after a computation. Every
/// id 0 below names an object it has; a higher id names none.
fn one_of_each(action: Action) -> KernelBuilder {
    let mut b = KernelBuilder::new(cfg(SchedPolicy::RmQueue, SemScheme::Emeralds));
    let p = b.add_process("app");
    let writer = b.add_periodic_task(p, "writer", ms(5), Script::compute_only(us(10)));
    b.add_mailbox(4);
    b.add_state_msg(writer, 8, 3, &[p]);
    b.add_event();
    b.board_mut().add_actuator();
    let job = vec![Action::Compute(us(5)), action];
    b.add_periodic_task(p, "user", ms(10), Script::periodic(job));
    b
}

/// Builds `one_of_each` around the action `with(known)` (which must
/// build) and `with(unknown)` (whose error is returned).
fn reject_unknown<I: Copy>(
    known: I,
    unknown: I,
    with: impl Fn(I) -> Action,
) -> Option<crate::kernel::ConfigError> {
    assert!(one_of_each(with(known)).try_build().is_ok());
    one_of_each(with(unknown)).try_build().err()
}

/// A script naming a mailbox the configuration never added is a typed
/// build error, not an index panic at its first send or receive.
#[test]
fn unknown_mailbox_in_script_is_a_typed_error() {
    use crate::kernel::ConfigError;
    let (task, action, mbox) = (ThreadId(1), 1, MboxId(7));
    let send = |m| Action::SendMbox {
        mbox: m,
        bytes: 8,
        tag: 0,
    };
    for err in [
        reject_unknown(MboxId(0), mbox, Action::RecvMbox),
        reject_unknown(MboxId(0), mbox, send),
    ] {
        assert_eq!(
            err,
            Some(ConfigError::UnknownMailbox { task, action, mbox })
        );
    }
}

/// Likewise for a state message, read or written.
#[test]
fn unknown_state_message_in_script_is_a_typed_error() {
    use crate::kernel::ConfigError;
    use emeralds_sim::StateId;
    let (task, action, var) = (ThreadId(1), 1, StateId(3));
    let write = |v| Action::StateWrite {
        var: v,
        value: crate::script::Operand::Const(1),
    };
    for err in [
        reject_unknown(StateId(0), var, Action::StateRead),
        reject_unknown(StateId(0), var, write),
    ] {
        assert_eq!(
            err,
            Some(ConfigError::UnknownStateMsg { task, action, var })
        );
    }
}

/// Likewise for a software event, signalled or awaited.
#[test]
fn unknown_event_in_script_is_a_typed_error() {
    use crate::kernel::ConfigError;
    let (task, action, event) = (ThreadId(1), 1, EventId(2));
    for err in [
        reject_unknown(EventId(0), event, Action::WaitEvent),
        reject_unknown(EventId(0), event, Action::SignalEvent),
    ] {
        assert_eq!(
            err,
            Some(ConfigError::UnknownEvent {
                task,
                action,
                event
            })
        );
    }
}

/// Likewise for a board device, read or written.
#[test]
fn unknown_device_in_script_is_a_typed_error() {
    use crate::kernel::ConfigError;
    use emeralds_sim::DevId;
    let (task, action, dev) = (ThreadId(1), 1, DevId(4));
    let write = |d| Action::DevWrite(d, crate::script::Operand::FromLastRead);
    for err in [
        reject_unknown(DevId(0), dev, Action::DevRead),
        reject_unknown(DevId(0), dev, write),
    ] {
        assert_eq!(err, Some(ConfigError::UnknownDevice { task, action, dev }));
    }
    let err = one_of_each(Action::DevRead(dev)).try_build().err();
    assert!(err.unwrap().to_string().contains("unknown device"));
}

/// A raise on a line that no device, `on_irq` or `WaitIrq` wires is
/// handled like any other — first-level entry and exit charged, raise
/// and handling traced and counted — and wakes no task, whether the
/// line falls inside the kernel's IRQ tables (line 0) or past them
/// (line 9).
#[test]
fn unwired_irq_line_is_charged_and_wakes_nothing() {
    use emeralds_sim::OverheadKind;
    let (b, drv) = irq_builder();
    let mut k = b.build();
    k.run_until(Time::from_ms(1));
    let parked = crate::tcb::ThreadState::Blocked(crate::tcb::BlockReason::Irq(IrqLine(2)));
    assert_eq!(k.tcb(drv).state, parked);
    let entry_exit = k.cfg.cost.irq_entry + k.cfg.cost.irq_exit;
    for (n, line) in [IrqLine(0), IrqLine(9)].into_iter().enumerate() {
        let irq_time = k.accounting().total(OverheadKind::Interrupt);
        let (now, events) = (k.now(), k.trace().len());
        k.raise_external_irq(line);
        assert_eq!(
            k.accounting().total(OverheadKind::Interrupt),
            irq_time + entry_exit
        );
        assert_eq!(k.now(), now + entry_exit);
        let new: Vec<TraceEvent> = k.trace().events()[events..]
            .iter()
            .map(|(_, ev)| ev.clone())
            .collect();
        assert_eq!(
            new,
            vec![
                TraceEvent::IrqRaised { line },
                TraceEvent::IrqHandled { line }
            ]
        );
        let counters = k.metrics().counters;
        assert_eq!(counters.irq_raised, n as u64 + 1);
        assert_eq!(counters.irq_dispatched, n as u64 + 1);
        assert_eq!(k.tcb(drv).state, parked);
        assert_eq!(k.current(), None);
    }
}

/// The timer pool holds one block per event a task can have pending at
/// once: a release, a constrained-deadline check and a `SleepFor` wake.
#[test]
fn timer_pool_covers_every_pending_timer() {
    // Table 2 (the footprint report's kernel): D = P, no sleeps.
    let table2 = table2_builder(SchedPolicy::Csd {
        boundaries: vec![5],
    });
    assert_eq!(table2.build().pools().timers.high_water(), 10);
    let mut b = KernelBuilder::new(cfg(SchedPolicy::DmQueue, SemScheme::Emeralds));
    let p = b.add_process("app");
    for (i, period) in [10, 12, 15, 20].into_iter().enumerate() {
        b.add_periodic_task_phased(
            p,
            format!("t{i}"),
            ms(period),
            ms(period) / 2,
            Duration::ZERO,
            Script::periodic(vec![
                Action::Compute(us(200)),
                Action::SleepFor(ms(1)),
                Action::Compute(us(200)),
            ]),
        );
    }
    let mut k = b.build();
    let reserved = k.pools().timers.high_water() as u64;
    assert_eq!(reserved, 12);
    let mut peak = 0;
    let mut t = Time::ZERO;
    while t < Time::from_ms(100) {
        t += us(10);
        k.advance_to(t);
        let (arms, _, expirations) = k.timer_stats();
        peak = peak.max(arms - expirations);
    }
    assert!(peak > 4 && peak <= reserved, "peak {peak} of {reserved}");
}

/// A disabled trace still counts switches and misses.
#[test]
fn disabled_trace_keeps_counters() {
    let mut c = cfg(SchedPolicy::RmQueue, SemScheme::Emeralds);
    c.record_trace = false;
    let mut b = KernelBuilder::new(c);
    let p = b.add_process("app");
    b.add_periodic_task(p, "a", ms(10), Script::compute_only(ms(8)));
    b.add_periodic_task(p, "b", ms(10), Script::compute_only(ms(8)));
    let mut k = b.build();
    k.run_until(Time::from_ms(60));
    assert!(k.trace().is_empty());
    assert!(k.trace().context_switch_count() > 0);
    assert!(k.total_deadline_misses() > 0);
}

/// `run_until` is idempotent at the horizon: calling it again does not
/// advance time or charge anything.
#[test]
fn run_until_is_idempotent_at_horizon() {
    let mut k = table2_builder(SchedPolicy::Edf).build();
    k.run_until(Time::from_ms(50));
    let t1 = k.now();
    let total1 = k.accounting().grand_total();
    k.run_until(Time::from_ms(50));
    assert_eq!(k.now(), t1);
    assert_eq!(k.accounting().grand_total(), total1);
}

/// Transitive priority inheritance: H blocks on S2 held by M, which
/// blocks on S1 held by L — L must inherit H's priority through the
/// chain so the unrelated middle-priority hog cannot interpose.
#[test]
fn transitive_priority_inheritance_through_a_chain() {
    let mut b = KernelBuilder::new(cfg(SchedPolicy::RmQueue, SemScheme::Standard));
    let p = b.add_process("app");
    let s1 = b.add_mutex();
    let s2 = b.add_mutex();
    let e = b.add_event();
    // H (highest): woken at 4 ms, wants S2.
    let h = b.add_periodic_task(
        p,
        "H",
        ms(100),
        Script::periodic(vec![
            Action::WaitEvent(e),
            Action::AcquireSem(s2),
            Action::Compute(us(100)),
            Action::ReleaseSem(s2),
        ]),
    );
    // Hog: released at 4 ms, 20 ms of pure compute, outranks M and L.
    b.add_periodic_task_phased(
        p,
        "hog",
        ms(150),
        ms(150),
        ms(4),
        Script::compute_only(ms(20)),
    );
    // M: takes S2 then blocks on S1.
    let m = b.add_periodic_task(
        p,
        "M",
        ms(200),
        Script::periodic(vec![
            Action::SleepFor(ms(1)),
            Action::AcquireSem(s2),
            Action::AcquireSem(s1),
            Action::Compute(us(100)),
            Action::ReleaseSem(s1),
            Action::ReleaseSem(s2),
        ]),
    );
    // L: takes S1 first and holds it 5 ms.
    let l = b.add_periodic_task(
        p,
        "L",
        ms(400),
        Script::periodic(vec![
            Action::AcquireSem(s1),
            Action::Compute(ms(5)),
            Action::ReleaseSem(s1),
        ]),
    );
    // Waker for H: ranked above the hog so the signal actually fires
    // at 4 ms.
    b.add_periodic_task(
        p,
        "waker",
        ms(120),
        Script::periodic(vec![Action::SleepFor(ms(4)), Action::SignalEvent(e)]),
    );
    let mut k = b.build();
    k.run_until(Time::from_ms(60));
    assert_eq!(k.total_deadline_misses(), 0);
    // H acquired S2 long before the hog finished its 20 ms: the chain
    // L → M → H ran at inherited priority.
    let acq = k
        .trace()
        .filter(|ev| matches!(ev, TraceEvent::SemAcquired { tid, sem } if *tid == h && *sem == s2))
        .next()
        .map(|&(t, _)| t)
        .expect("H acquired S2");
    assert!(acq < Time::from_ms(10), "chain blocked too long: {acq}");
    let _ = (m, l);
}

/// Releasing a mutex from a thread that does not hold it is a program
/// bug and is fatal, as on the real kernel.
#[test]
#[should_panic(expected = "released by non-holder")]
fn non_holder_release_is_fatal() {
    let mut b = KernelBuilder::new(cfg(SchedPolicy::RmQueue, SemScheme::Emeralds));
    let p = b.add_process("app");
    let s = b.add_mutex();
    b.add_periodic_task(
        p,
        "holder",
        ms(100),
        Script::periodic(vec![Action::AcquireSem(s), Action::Compute(ms(10))]),
    );
    b.add_periodic_task(
        p,
        "rogue",
        ms(200),
        Script::periodic(vec![Action::SleepFor(ms(1)), Action::ReleaseSem(s)]),
    );
    let mut k = b.build();
    k.run_until(Time::from_ms(20));
}

/// An interrupt storm does not wedge the kernel: a 50 µs-period
/// sensor IRQ floods the system; the driver coalesces (one pending
/// latch), high-priority periodic work keeps meeting deadlines, and
/// all interrupt time shows up in the ledger.
#[test]
fn irq_storm_is_survivable_and_accounted() {
    let mut b = KernelBuilder::new(cfg(
        SchedPolicy::Csd {
            boundaries: vec![1],
        },
        SemScheme::Emeralds,
    ));
    let p = b.add_process("app");
    let line = IrqLine(7);
    {
        let board = b.board_mut();
        let dev = board.add_sensor(Some(line));
        board.schedule_periodic_samples(
            dev,
            Time::from_us(100),
            Duration::from_us(50),
            1_000,
            |k| k as u32,
        );
    }
    let worker = b.add_driver_task(
        p,
        "driver",
        ms(2),
        Script::looping(vec![Action::WaitIrq(line), Action::Compute(us(5))]),
    );
    let ctrl = b.add_periodic_task(p, "ctrl", ms(5), Script::compute_only(ms(1)));
    let mut k = b.build();
    k.run_until(Time::from_ms(80));
    assert_eq!(
        k.task_stats(ctrl).deadline_misses,
        0,
        "control survives the storm"
    );
    assert!(k.tcb(worker).cpu_time > Duration::ZERO);
    use emeralds_sim::OverheadKind;
    let irq_time = k.accounting().total(OverheadKind::Interrupt);
    // 1000 interrupts at 3 µs each = 3 ms of first-level handling.
    assert!(irq_time >= Duration::from_us(2_900), "irq time {irq_time}");
    assert_eq!(k.accounting().grand_total().as_ns(), k.now().as_ns());
}
