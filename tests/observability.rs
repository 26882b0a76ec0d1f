//! Observability-layer tests: literal event sequences around a
//! contended `acquire_sem()` under both §6 schemes, a golden
//! [`KernelMetrics`] snapshot, the hot-path work counters of a mixed
//! workload, deadline-miss forensics, bounded ring-trace recording, and
//! JSONL export.

use emeralds::core::kernel::{Kernel, KernelBuilder, KernelConfig, ServiceCounters, MISS_WINDOW};
use emeralds::core::script::{Action, Operand, Script};
use emeralds::core::{SchedPolicy, SemScheme};
use emeralds::sim::{Duration, SemId, SimRng, StateId, SyscallKind, ThreadId, Time, TraceEvent};

/// The Figure 6/8 scenario: a low-priority task (T1) takes the lock,
/// then the high-priority task (T0) is released mid-critical-section
/// and contends for it. T0's script acquires immediately after its
/// release point, so the §6.2 hint fires under the EMERALDS scheme.
fn contended_scenario(scheme: SemScheme) -> Kernel {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::RmQueue,
        sem_scheme: scheme,
        ..KernelConfig::default()
    });
    let p = b.add_process("app");
    let s = b.add_mutex();
    b.add_periodic_task_phased(
        p,
        "hi",
        Duration::from_ms(20),
        Duration::from_ms(20),
        Duration::from_ms(1),
        Script::periodic(vec![
            Action::AcquireSem(s),
            Action::Compute(Duration::from_us(200)),
            Action::ReleaseSem(s),
            Action::Compute(Duration::from_us(50)),
        ]),
    );
    b.add_periodic_task(
        p,
        "lo",
        Duration::from_ms(40),
        Script::periodic(vec![
            Action::Compute(Duration::from_us(100)),
            Action::AcquireSem(s),
            Action::Compute(Duration::from_us(3000)),
            Action::ReleaseSem(s),
            Action::Compute(Duration::from_us(100)),
        ]),
    );
    let mut k = b.build();
    k.run_until(Time::from_ms(6));
    k
}

/// Projects the trace onto the events the §6 argument is made of:
/// context switches, semaphore traffic, inheritance, and block state.
fn sem_relevant(k: &Kernel) -> Vec<TraceEvent> {
    k.trace()
        .iter()
        .filter(|(_, e)| {
            matches!(
                e,
                TraceEvent::ContextSwitch { .. }
                    | TraceEvent::Blocked { .. }
                    | TraceEvent::Unblocked { .. }
                    | TraceEvent::SemAcquired { .. }
                    | TraceEvent::SemBlocked { .. }
                    | TraceEvent::SemReleased { .. }
                    | TraceEvent::PriorityInherit { .. }
                    | TraceEvent::PriorityRestore { .. }
                    | TraceEvent::EarlyInherit { .. }
                    | TraceEvent::PreLockAdmit { .. }
                    | TraceEvent::PreLockBlock { .. }
                    | TraceEvent::Syscall { .. }
            )
        })
        .map(|(_, e)| e.clone())
        .collect()
}

const HI: ThreadId = ThreadId(0);
const LO: ThreadId = ThreadId(1);
const S: SemId = SemId(0);

fn sw(from: Option<ThreadId>, to: Option<ThreadId>) -> TraceEvent {
    TraceEvent::ContextSwitch { from, to }
}

/// §6.1: the contended acquire blocks inside `acquire_sem()`,
/// inheritance happens there, and the acquire/release pair costs two
/// extra context switches (hi → lo and back).
#[test]
fn contended_acquire_event_sequence_standard_scheme() {
    let k = contended_scenario(SemScheme::Standard);
    let expected = vec![
        TraceEvent::Unblocked { tid: LO },
        sw(None, Some(LO)),
        TraceEvent::Syscall {
            tid: LO,
            name: SyscallKind::AcquireSem,
        },
        TraceEvent::SemAcquired { tid: LO, sem: S },
        // T0 released mid-critical-section: it preempts, then blocks.
        TraceEvent::Unblocked { tid: HI },
        sw(Some(LO), Some(HI)),
        TraceEvent::Syscall {
            tid: HI,
            name: SyscallKind::AcquireSem,
        },
        TraceEvent::PriorityInherit {
            holder: LO,
            donor: HI,
        },
        TraceEvent::Blocked { tid: HI },
        TraceEvent::SemBlocked {
            tid: HI,
            sem: S,
            holder: LO,
        },
        sw(Some(HI), Some(LO)), // extra switch #1
        TraceEvent::Syscall {
            tid: LO,
            name: SyscallKind::ReleaseSem,
        },
        TraceEvent::PriorityRestore { holder: LO },
        TraceEvent::SemReleased { tid: LO, sem: S },
        TraceEvent::SemAcquired { tid: HI, sem: S }, // hand-over
        TraceEvent::Unblocked { tid: HI },
        sw(Some(LO), Some(HI)), // extra switch #2
        TraceEvent::Syscall {
            tid: HI,
            name: SyscallKind::ReleaseSem,
        },
        TraceEvent::SemReleased { tid: HI, sem: S },
        TraceEvent::Blocked { tid: HI },
        sw(Some(HI), Some(LO)),
        TraceEvent::Blocked { tid: LO },
        sw(Some(LO), None),
    ];
    assert_eq!(sem_relevant(&k), expected);
}

/// §6.2–6.3: the hint at T0's release point performs inheritance
/// early and keeps T0 blocked; the lock is handed over at release, so
/// neither extra context switch happens (and T1's own first acquire
/// goes through the §6.3.1 pre-lock queue).
#[test]
fn contended_acquire_event_sequence_emeralds_scheme() {
    let k = contended_scenario(SemScheme::Emeralds);
    let expected = vec![
        TraceEvent::PreLockAdmit { tid: LO, sem: S },
        TraceEvent::Unblocked { tid: LO },
        sw(None, Some(LO)),
        TraceEvent::Syscall {
            tid: LO,
            name: SyscallKind::AcquireSem,
        },
        TraceEvent::SemAcquired { tid: LO, sem: S },
        // T0's release point: inherit early, stay blocked — no switch.
        TraceEvent::PriorityInherit {
            holder: LO,
            donor: HI,
        },
        TraceEvent::EarlyInherit {
            waiter: HI,
            holder: LO,
            sem: S,
        },
        TraceEvent::Syscall {
            tid: LO,
            name: SyscallKind::ReleaseSem,
        },
        TraceEvent::PriorityRestore { holder: LO },
        TraceEvent::SemReleased { tid: LO, sem: S },
        TraceEvent::SemAcquired { tid: HI, sem: S }, // hand-over
        TraceEvent::Unblocked { tid: HI },
        sw(Some(LO), Some(HI)),
        TraceEvent::Syscall {
            tid: HI,
            name: SyscallKind::AcquireSem,
        }, // early grant
        TraceEvent::Syscall {
            tid: HI,
            name: SyscallKind::ReleaseSem,
        },
        TraceEvent::SemReleased { tid: HI, sem: S },
        TraceEvent::Blocked { tid: HI },
        sw(Some(HI), Some(LO)),
        TraceEvent::Blocked { tid: LO },
        sw(Some(LO), None),
    ];
    assert_eq!(sem_relevant(&k), expected);
    // The Figure 8 claim: two context switches eliminated.
    let std = contended_scenario(SemScheme::Standard);
    assert_eq!(
        k.trace().context_switch_count() + 2,
        std.trace().context_switch_count()
    );
}

/// Golden snapshot of the service counters and per-task metrics for
/// the deterministic contention scenario.
#[test]
fn golden_kernel_metrics_snapshot() {
    let k = contended_scenario(SemScheme::Standard);
    let m = k.metrics();
    assert_eq!(
        m.counters,
        ServiceCounters {
            sys_acquire_sem: 2,
            sys_release_sem: 2,
            sem_acquired: 2,
            sem_contended: 1,
            sem_handed_over: 1,
            sem_released: 2,
            priority_inherits: 1,
            priority_restores: 1,
            ..ServiceCounters::default()
        }
    );
    assert_eq!(m.counters.sem_uncontended(), 1);
    assert_eq!(m.counters.syscall_total(), 4);
    assert_eq!(m.context_switches, 6);
    assert_eq!(m.deadline_misses, 0);
    assert_eq!(m.now, Time::from_ms(6));
    assert_eq!(m.trace_dropped, 0);
    assert_eq!(m.tasks.len(), 2);
    let hi = &m.tasks[0];
    assert_eq!(
        (&*hi.name, hi.jobs_completed, hi.deadline_misses),
        ("hi", 1, 0)
    );
    // T0 preempts as soon as it is released, so its dispatch latency
    // is just the release/switch overhead; the critical-section wait
    // shows up in its response time instead.
    assert!(
        hi.max_response > Duration::from_ms(2),
        "resp {}",
        hi.max_response
    );
    assert!(
        hi.max_dispatch_latency < Duration::from_us(20),
        "dispatch {}",
        hi.max_dispatch_latency
    );
    assert!(hi.mean_response <= hi.max_response);
    let lo = &m.tasks[1];
    assert_eq!((&*lo.name, lo.jobs_completed), ("lo", 1));
    assert!(lo.max_dispatch_latency < Duration::from_us(20));
    // The EMERALDS run differs exactly in the sem-path counters.
    let e = contended_scenario(SemScheme::Emeralds).metrics();
    assert_eq!(e.counters.early_inherits, 1);
    assert_eq!(e.counters.prelock_admits, 1);
    assert_eq!(e.counters.sem_contended, 0);
    assert_eq!(e.context_switches, 4);
    // Both renderings exist and carry the headline numbers.
    assert!(m.render().contains("ctxsw 6"));
    assert!(m.to_json().contains("\"sem_handed_over\": 1"));
}

/// A mix that exercises every kernel hot path: many periodic releases
/// (timer and scheduler pressure), a mostly-uncontended mutex, one
/// genuinely contended mutex, and a state-message producer/consumer
/// pair.
fn hot_path_workload(seed: u64) -> Kernel {
    let mut rng = SimRng::seeded(seed);
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![2],
        },
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process("hotpath");
    let quiet = b.add_mutex();
    let busy = b.add_mutex();

    // A producer updating a state message, and a consumer reading it.
    let writer = b.add_periodic_task(
        p,
        "producer",
        Duration::from_ms(2),
        Script::periodic(vec![
            Action::Compute(Duration::from_us(40)),
            Action::StateWrite {
                var: StateId(0),
                value: Operand::Const(7),
            },
        ]),
    );
    let var = b.add_state_msg(writer, 8, 4, &[p]);
    assert_eq!(var, StateId(0));
    b.add_periodic_task(
        p,
        "consumer",
        Duration::from_ms(1),
        Script::periodic(vec![
            Action::StateRead(var),
            Action::Compute(Duration::from_us(30)),
        ]),
    );

    // Uncontended mutex: a lone task takes and releases it each job.
    b.add_periodic_task(
        p,
        "solo-lock",
        Duration::from_us(1_500),
        Script::periodic(vec![
            Action::AcquireSem(quiet),
            Action::Compute(Duration::from_us(25)),
            Action::ReleaseSem(quiet),
        ]),
    );
    // Contended mutex: a long-period task holds `busy` for 1 ms, and
    // a short-period task is phased so roughly every other of its
    // releases lands inside that critical section — keeping the
    // general path (inheritance, hand-over, pre-lock parking)
    // exercised.
    b.add_periodic_task(
        p,
        "hog-lo",
        Duration::from_ms(6),
        Script::periodic(vec![
            Action::AcquireSem(busy),
            Action::Compute(Duration::from_ms(1)),
            Action::ReleaseSem(busy),
        ]),
    );
    b.add_periodic_task_phased(
        p,
        "hog-hi",
        Duration::from_ms(3),
        Duration::from_ms(3),
        Duration::from_us(500),
        Script::periodic(vec![
            Action::AcquireSem(busy),
            Action::Compute(Duration::from_us(100)),
            Action::ReleaseSem(busy),
        ]),
    );
    // Filler periodics: scheduler and timer pressure.
    for f in 0..10 {
        let period = Duration::from_us(rng.int_in(700, 2_000));
        b.add_periodic_task(
            p,
            format!("ctl{f}"),
            period,
            Script::compute_only(Duration::from_us(rng.int_in(15, 40))),
        );
    }
    b.build()
}

/// The hot-path workload's work counters after 400 ms: the semaphore
/// fast path is taken, contention still reaches the general path,
/// state-message reads never retry, and every counter (the timer
/// queue's included) holds its pinned value.
#[test]
fn hot_path_work_counters() {
    let mut k = hot_path_workload(0x407);
    k.run_until(Time::from_ms(400));
    let c = k.counters();
    let fast = k.sem_fast_acquires();
    assert!(
        fast > 0 && fast <= c.sem_acquired,
        "sem fast path taken ({fast} of {} acquisitions)",
        c.sem_acquired
    );
    assert!(
        c.sem_contended + c.early_inherits > 0,
        "contention still exercised ({} blocks, {} early inherits)",
        c.sem_contended,
        c.early_inherits
    );
    assert_eq!(c.statemsg_retries, 0, "state-message reads retry-free");

    assert_eq!(k.dispatch_cache_stats().0, 9_650);
    assert_eq!(
        (c.sem_acquired, c.sem_contended, c.early_inherits),
        (468, 0, 65)
    );
    assert_eq!(fast, 401);
    assert_eq!((c.statemsg_reads, c.statemsg_retries), (400, 0));
    // (arms, sum of heap heights after each arm, expirations).
    assert_eq!(k.timer_stats(), (4_807, 14_410, 4_792));
}

/// An over-utilized EDF workload misses; the kernel captures a
/// forensic report with the last-K window and the ready state, and a
/// test can print an actionable diagnosis.
#[test]
fn deadline_miss_captures_forensic_window() {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Edf,
        ..KernelConfig::default()
    });
    let p = b.add_process("app");
    for (i, (period, wcet)) in [(4u64, 3_000u64), (6, 3_000)].into_iter().enumerate() {
        b.add_periodic_task(
            p,
            format!("t{i}"),
            Duration::from_ms(period),
            Script::compute_only(Duration::from_us(wcet)),
        );
    }
    let mut k = b.build();
    assert!(k.run_until_miss(Time::from_ms(100)), "U = 1.25 must miss");
    let reports = k.miss_reports();
    assert_eq!(reports.len(), 1, "run stops at the first miss");
    let r = &reports[0];
    assert!(r.window.len() <= MISS_WINDOW);
    assert!(!r.window.is_empty());
    // The window ends with the miss itself.
    assert!(matches!(
        r.window.last().unwrap().1,
        TraceEvent::DeadlineMiss { .. }
    ));
    assert_eq!(r.tasks.len(), 2);
    // Detection happens at the deadline/release tick; kernel-overhead
    // charges can shift the two apart by a few microseconds.
    let skew = if r.at >= r.deadline {
        r.at.saturating_since(r.deadline)
    } else {
        r.deadline.saturating_since(r.at)
    };
    assert!(skew < Duration::from_us(50), "skew {skew}");
    let text = r.render();
    println!("{text}");
    assert!(text.contains("DEADLINE MISS"));
    assert!(text.contains("task states:"));
    assert!(text.contains(&format!("last {} events:", r.window.len())));
    // Forensics survive a bounded ring trace too.
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Edf,
        trace_ring: Some(32),
        ..KernelConfig::default()
    });
    let p = b.add_process("app");
    b.add_periodic_task(
        p,
        "t0",
        Duration::from_ms(4),
        Script::compute_only(Duration::from_us(3_000)),
    );
    b.add_periodic_task(
        p,
        "t1",
        Duration::from_ms(6),
        Script::compute_only(Duration::from_us(3_000)),
    );
    let mut k2 = b.build();
    assert!(k2.run_until_miss(Time::from_ms(100)));
    let r2 = &k2.miss_reports()[0];
    assert!(!r2.window.is_empty());
    assert!(matches!(
        r2.window.last().unwrap().1,
        TraceEvent::DeadlineMiss { .. }
    ));
}

/// A ring-bounded trace stores at most N events while every counter
/// and metric stays exact.
#[test]
fn ring_trace_bounds_storage_with_exact_counters() {
    let full = contended_scenario(SemScheme::Standard);
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::RmQueue,
        sem_scheme: SemScheme::Standard,
        trace_ring: Some(8),
        ..KernelConfig::default()
    });
    let p = b.add_process("app");
    let s = b.add_mutex();
    b.add_periodic_task_phased(
        p,
        "hi",
        Duration::from_ms(20),
        Duration::from_ms(20),
        Duration::from_ms(1),
        Script::periodic(vec![
            Action::AcquireSem(s),
            Action::Compute(Duration::from_us(200)),
            Action::ReleaseSem(s),
            Action::Compute(Duration::from_us(50)),
        ]),
    );
    b.add_periodic_task(
        p,
        "lo",
        Duration::from_ms(40),
        Script::periodic(vec![
            Action::Compute(Duration::from_us(100)),
            Action::AcquireSem(s),
            Action::Compute(Duration::from_us(3000)),
            Action::ReleaseSem(s),
            Action::Compute(Duration::from_us(100)),
        ]),
    );
    let mut k = b.build();
    k.run_until(Time::from_ms(6));
    assert_eq!(k.trace().len(), 8);
    assert!(k.trace().dropped() > 0);
    // Counters and metrics agree with the unbounded run exactly.
    assert_eq!(k.counters(), full.counters());
    assert_eq!(
        k.trace().context_switch_count(),
        full.trace().context_switch_count()
    );
    let (m_ring, m_full) = (k.metrics(), full.metrics());
    assert_eq!(m_ring.counters, m_full.counters);
    assert_eq!(m_ring.tasks, m_full.tasks);
    // The stored tail is the chronological suffix of the full trace.
    let tail: Vec<_> = full.trace().recent(8);
    let ring: Vec<_> = k.trace().iter().cloned().collect();
    assert_eq!(ring, tail);
}

/// JSONL export: one line per stored event, machine-parseable fields.
#[test]
fn trace_exports_jsonl() {
    let k = contended_scenario(SemScheme::Emeralds);
    let out = k.trace().to_jsonl();
    assert_eq!(out.lines().count(), k.trace().len());
    for line in out.lines() {
        assert!(line.starts_with("{\"t_ns\":"), "bad line: {line}");
        assert!(line.ends_with('}'), "bad line: {line}");
        assert!(line.contains("\"kind\":\""), "bad line: {line}");
    }
    assert!(out.contains("\"kind\":\"early_inherit\",\"waiter\":0,\"holder\":1,\"sem\":0"));
    assert!(out.contains("\"kind\":\"syscall\",\"tid\":1,\"name\":\"acquire_sem\""));
    let mut buf = Vec::new();
    k.trace().write_jsonl(&mut buf).unwrap();
    assert_eq!(String::from_utf8(buf).unwrap(), out);
}
