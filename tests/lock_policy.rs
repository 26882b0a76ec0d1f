//! Locking-policy subsystem tests: the SRP/ceiling policy's classic
//! guarantees (acquire never blocks, each job is delayed at most once,
//! by at most one outer critical section of a worse-preemption-level
//! task), PI-vs-SRP metrics parity on contention-free workloads, the
//! pinned PI-versus-SRP A/B scenarios (a §6 ablation), and the typed
//! configuration errors that replace builder panics —
//! including build-time rejection of infeasible SRP resource graphs
//! and invalid `next_sem` hint overrides.

use emeralds::core::kernel::{ConfigError, Kernel, KernelBuilder, KernelConfig};
use emeralds::core::script::{Action, Script};
use emeralds::core::{SchedPolicy, SemScheme};
use emeralds::sched::SrpGraphError;
use emeralds::sim::{Duration, SemId, SimRng, ThreadId, Time, TraceEvent};

fn ms(v: u64) -> Duration {
    Duration::from_ms(v)
}

fn us(v: u64) -> Duration {
    Duration::from_us(v)
}

fn cfg(sem_scheme: SemScheme) -> KernelConfig {
    KernelConfig {
        policy: SchedPolicy::RmQueue,
        sem_scheme,
        ..KernelConfig::default()
    }
}

/// A randomized SRP-clean lock-sharing workload: `n` periodic tasks,
/// each wrapping one critical section on one of `num_sems` mutexes.
/// Returns the kernel, the tasks, each task's critical-section length,
/// and each task's mutex.
fn shared_lock_workload(
    scheme: SemScheme,
    n: usize,
    num_sems: usize,
    seed: u64,
) -> (Kernel, Vec<ThreadId>, Vec<Duration>, Vec<SemId>) {
    let mut rng = SimRng::seeded(seed);
    let mut b = KernelBuilder::new(cfg(scheme));
    let p = b.add_process("app");
    let sems: Vec<SemId> = (0..num_sems).map(|_| b.add_mutex()).collect();
    let mut tasks = Vec::new();
    let mut cs_len = Vec::new();
    let mut task_sem = Vec::new();
    for i in 0..n {
        let period = ms(rng.int_in(10, 30) + 5 * i as u64);
        let cs = us(rng.int_in(500, 2_000));
        let pre = us(rng.int_in(50, 400));
        let sem = sems[rng.index(num_sems)];
        tasks.push(b.add_periodic_task(
            p,
            format!("t{i}"),
            period,
            Script::periodic(vec![
                Action::Compute(pre),
                Action::AcquireSem(sem),
                Action::Compute(cs),
                Action::ReleaseSem(sem),
                Action::Compute(us(100)),
            ]),
        ));
        cs_len.push(cs);
        task_sem.push(sem);
    }
    (b.build(), tasks, cs_len, task_sem)
}

/// A contention-free workload: every task has a private mutex.
fn disjoint_lock_workload(scheme: SemScheme, n: usize, seed: u64) -> (Kernel, Vec<ThreadId>) {
    let mut rng = SimRng::seeded(seed);
    let mut b = KernelBuilder::new(cfg(scheme));
    let p = b.add_process("app");
    let mut tasks = Vec::new();
    for i in 0..n {
        let sem = b.add_mutex();
        let period = ms(rng.int_in(8, 25) + 4 * i as u64);
        tasks.push(b.add_periodic_task(
            p,
            format!("solo{i}"),
            period,
            Script::periodic(vec![
                Action::Compute(us(rng.int_in(100, 400))),
                Action::AcquireSem(sem),
                Action::Compute(us(rng.int_in(200, 900))),
                Action::ReleaseSem(sem),
            ]),
        ));
    }
    (b.build(), tasks)
}

/// The SRP blocking bound, pinned over random workloads: `acquire_sem`
/// never blocks, no task is deferred twice without an admission in
/// between (each job blocks at most once), and the highest-priority
/// task's deferral — which nothing can preempt-interfere with — lasts
/// at most the longest critical section of the worse-level tasks
/// sharing its mutex, plus kernel overhead.
#[test]
fn srp_blocking_bound_holds_across_random_workloads() {
    let mut total_defers = 0u64;
    for seed in 0..12u64 {
        let n = 4 + (seed as usize % 3);
        let (mut k, tasks, cs_len, task_sem) =
            shared_lock_workload(SemScheme::Srp, n, 2, 0x5150 + seed);
        k.run_until(Time::from_ms(250));
        let stats = k.srp_stats().expect("SRP kernel reports stats");
        assert_eq!(
            stats.unexpected_blocks, 0,
            "seed {seed}: SRP acquire blocked"
        );

        let top = *tasks
            .iter()
            .min_by_key(|&&t| k.tcb(t).rm_prio)
            .expect("non-empty");
        let bound: Duration = tasks
            .iter()
            .filter(|&&t| t != top && task_sem[t.index()] == task_sem[top.index()])
            .map(|&t| cs_len[t.index()])
            .max()
            .unwrap_or(Duration::ZERO);

        let mut open: Vec<Option<Time>> = vec![None; tasks.len()];
        for &(at, ref ev) in k.trace().events() {
            match *ev {
                TraceEvent::CeilingDefer { tid, .. } => {
                    assert!(
                        open[tid.index()].is_none(),
                        "seed {seed}: {tid} deferred twice without admission"
                    );
                    open[tid.index()] = Some(at);
                }
                TraceEvent::CeilingAdmit { tid } => {
                    if let Some(t0) = open[tid.index()].take() {
                        total_defers += 1;
                        if tid == top {
                            let waited = at.since(t0);
                            assert!(
                                waited <= bound + us(150),
                                "seed {seed}: top task deferred {waited} \
                                 against a {bound} outer section"
                            );
                        }
                    }
                }
                _ => {}
            }
        }
    }
    // The property must have been exercised, not vacuously true.
    assert!(total_defers > 0, "no deferral ever happened");
}

/// On contention-free workloads the two policies are rivals in
/// overhead only: identical jobs, deadlines, and application CPU time.
#[test]
fn pi_and_srp_agree_on_contention_free_workloads() {
    for seed in [21u64, 22, 23] {
        let (mut pi, tasks) = disjoint_lock_workload(SemScheme::Emeralds, 5, seed);
        let (mut srp, _) = disjoint_lock_workload(SemScheme::Srp, 5, seed);
        pi.run_until(Time::from_ms(400));
        srp.run_until(Time::from_ms(400));
        for &t in &tasks {
            assert_eq!(
                pi.task_stats(t).jobs_completed,
                srp.task_stats(t).jobs_completed,
                "seed {seed}, {t}: job counts diverge"
            );
            assert_eq!(
                pi.task_stats(t).deadline_misses,
                srp.task_stats(t).deadline_misses,
                "seed {seed}, {t}: miss counts diverge"
            );
            assert_eq!(
                pi.tcb(t).cpu_time,
                srp.tcb(t).cpu_time,
                "seed {seed}, {t}: app time diverges"
            );
        }
        // Neither policy ever handed a lock to a blocked waiter: the
        // locks are private, so all acquires are uncontended. (SRP may
        // still *defer* wake-ups — its admission test is static and
        // cannot know a waking task avoids the held lock — but that
        // only shifts lower-priority dispatch within slack, which the
        // per-task equalities above pin.)
        assert_eq!(pi.counters().sem_handed_over, 0, "seed {seed}");
        assert_eq!(srp.counters().sem_handed_over, 0, "seed {seed}");
        let s = srp.srp_stats().expect("SRP stats");
        assert_eq!(s.unexpected_blocks, 0, "seed {seed}");
    }
}

/// Mutual exclusion holds under SRP exactly as under PI.
#[test]
fn srp_preserves_mutual_exclusion() {
    for seed in [31u64, 32, 33] {
        let (mut k, _, _, sems) = shared_lock_workload(SemScheme::Srp, 6, 2, seed);
        k.run_until(Time::from_ms(300));
        for &s in &sems {
            let mut holder: Option<ThreadId> = None;
            for (at, ev) in k.trace().events() {
                match ev {
                    TraceEvent::SemAcquired { tid, sem } if *sem == s => {
                        assert!(holder.is_none(), "{s}: double hold at {at}");
                        holder = Some(*tid);
                    }
                    TraceEvent::SemReleased { tid, sem } if *sem == s => {
                        assert_eq!(holder, Some(*tid), "{s}: bad release at {at}");
                        holder = None;
                    }
                    _ => {}
                }
            }
        }
    }
}

// --- PI versus SRP on one scenario ------------------------------------

/// Builds one locking-policy A/B scenario. The scripts are SRP-feasible
/// by construction (mutexes only, properly nested, no blocking inside
/// a critical section), so the identical configuration builds under
/// both policies and the comparison is apples-to-apples:
///
/// - `uncontended` — three rate-separated tasks, each on a private
///   mutex: the policies' bookkeeping with zero conflicts.
/// - `contended` — a short critical section shared between a 3 ms task
///   and a phased 9 ms task whose 1 ms section the fast task regularly
///   lands in.
/// - `longblock` — the paper's Figure-7 shape: a 2 ms task whose tiny
///   critical section collides with a 20 ms task holding the same lock
///   for 1.5 ms. PI answers with early inheritance and lock hand-over;
///   SRP never lets the collision start, deferring the fast task's
///   release at the ceiling.
fn policy_scenario(scenario: &str, sem_scheme: SemScheme) -> Kernel {
    let mut b = KernelBuilder::new(KernelConfig {
        record_trace: false,
        ..cfg(sem_scheme)
    });
    let p = b.add_process("policy-ab");
    match scenario {
        "uncontended" => {
            for (i, period_us) in [1_000u64, 1_700, 2_900].into_iter().enumerate() {
                let m = b.add_mutex();
                b.add_periodic_task(
                    p,
                    format!("solo{i}"),
                    us(period_us),
                    Script::periodic(vec![
                        Action::AcquireSem(m),
                        Action::Compute(us(30)),
                        Action::ReleaseSem(m),
                        Action::Compute(us(20)),
                    ]),
                );
            }
        }
        "contended" => {
            let m = b.add_mutex();
            b.add_periodic_task_phased(
                p,
                "share-hi",
                ms(3),
                ms(3),
                us(500),
                Script::periodic(vec![
                    Action::AcquireSem(m),
                    Action::Compute(us(100)),
                    Action::ReleaseSem(m),
                ]),
            );
            b.add_periodic_task(
                p,
                "share-lo",
                ms(9),
                Script::periodic(vec![
                    Action::AcquireSem(m),
                    Action::Compute(ms(1)),
                    Action::ReleaseSem(m),
                    Action::Compute(us(200)),
                ]),
            );
        }
        "longblock" => {
            let m = b.add_mutex();
            b.add_periodic_task_phased(
                p,
                "fast",
                ms(2),
                ms(2),
                us(500),
                Script::periodic(vec![
                    Action::AcquireSem(m),
                    Action::Compute(us(50)),
                    Action::ReleaseSem(m),
                    Action::Compute(us(100)),
                ]),
            );
            b.add_periodic_task(
                p,
                "holder",
                ms(20),
                Script::periodic(vec![
                    Action::AcquireSem(m),
                    Action::Compute(us(1_500)),
                    Action::ReleaseSem(m),
                ]),
            );
        }
        other => panic!("unknown policy scenario {other}"),
    }
    b.build()
}

/// One locking policy's run of an A/B scenario, reduced to the
/// counters the two policies compete on.
#[derive(Debug, Default, PartialEq, Eq)]
struct PolicySide {
    deadline_misses: u64,
    context_switches: u64,
    jobs_completed: u64,
    sem_acquired: u64,
    /// Acquires that found the lock held and blocked in `acquire_sem`.
    sem_contended: u64,
    /// Grants made directly to a blocked waiter (PI lock passing;
    /// structurally zero under SRP, where acquire never blocks).
    sem_handed_over: u64,
    /// §6.2 early inheritances (PI's context-switch elimination).
    early_inherits: u64,
    /// SRP job starts deferred by the system ceiling (SRP's entire
    /// blocking, concentrated before the job runs).
    ceiling_defers: u64,
}

/// Reduces a finished run to the policy-comparison counters.
fn policy_side(k: &Kernel) -> PolicySide {
    let m = k.metrics();
    PolicySide {
        deadline_misses: m.deadline_misses,
        context_switches: m.context_switches,
        jobs_completed: m.tasks.iter().map(|t| t.jobs_completed).sum(),
        sem_acquired: m.counters.sem_acquired,
        sem_contended: m.counters.sem_contended,
        sem_handed_over: m.counters.sem_handed_over,
        early_inherits: m.counters.early_inherits,
        ceiling_defers: m.counters.ceiling_defers,
    }
}

/// Each scenario runs 400 ms under PI (the EMERALDS scheme) and under
/// SRP. Each policy fights contention with its own weapon — PI with
/// early inheritance and hand-over, SRP with ceiling deferral and
/// *zero* in-lock blocking — while both agree on the outcome that
/// matters (deadlines) and grant the same critical sections. Every
/// counter holds its pinned value.
#[test]
fn policy_ab_rows_show_rival_mechanisms() {
    let side = |jobs: u64, switches: u64| PolicySide {
        context_switches: switches,
        jobs_completed: jobs,
        sem_acquired: jobs,
        ..PolicySide::default()
    };
    // (scenario, PI, SRP, SRP's (ceiling pushes, max stack depth,
    // unexpected blocks)).
    let pinned = [
        (
            "uncontended",
            side(774, 1_545),
            PolicySide {
                ceiling_defers: 1,
                ..side(774, 1_545)
            },
            (774, 2, 0),
        ),
        (
            "contended",
            PolicySide {
                sem_handed_over: 45,
                early_inherits: 45,
                ..side(179, 358)
            },
            PolicySide {
                ceiling_defers: 45,
                ..side(179, 358)
            },
            (179, 1, 0),
        ),
        (
            "longblock",
            PolicySide {
                sem_handed_over: 20,
                early_inherits: 20,
                ..side(220, 440)
            },
            PolicySide {
                ceiling_defers: 20,
                ..side(220, 440)
            },
            (220, 1, 0),
        ),
    ];
    for (sc, pi_want, srp_want, ceiling_want) in pinned {
        let mut pi_k = policy_scenario(sc, SemScheme::Emeralds);
        pi_k.run_until(Time::from_ms(400));
        let mut srp_k = policy_scenario(sc, SemScheme::Srp);
        srp_k.run_until(Time::from_ms(400));
        let (pi, srp) = (policy_side(&pi_k), policy_side(&srp_k));
        let stats = srp_k.srp_stats().expect("SRP kernel reports SRP stats");
        let pushes = srp_k.counters().ceiling_pushes;

        assert_eq!(
            stats.unexpected_blocks, 0,
            "{sc}: SRP acquire never blocks on a validated graph"
        );
        assert_eq!(
            (srp.sem_handed_over, srp.sem_contended),
            (0, 0),
            "{sc}: SRP needs no lock hand-over"
        );
        assert_eq!(
            pi.deadline_misses, srp.deadline_misses,
            "{sc}: both policies meet the same deadlines"
        );
        assert_eq!(
            pi.sem_acquired, srp.sem_acquired,
            "{sc}: both policies grant the same critical sections"
        );
        assert!(pushes > 0, "{sc}: SRP ceiling stack exercised");
        if sc == "uncontended" {
            assert_eq!(
                (pi.sem_contended, pi.early_inherits),
                (0, 0),
                "{sc}: PI sees no contention either"
            );
        } else {
            assert!(
                pi.sem_handed_over + pi.early_inherits > 0,
                "{sc}: PI contention machinery engaged"
            );
            assert!(
                srp.ceiling_defers > 0,
                "{sc}: SRP deferred conflicting releases"
            );
        }
        if sc == "longblock" {
            assert!(
                srp.context_switches <= pi.context_switches,
                "{sc}: SRP needs no extra context switches"
            );
            assert!(pi.early_inherits > 0, "{sc}: PI early-inherits");
            assert!(stats.max_stack_depth >= 1, "{sc}: SRP stack used");
        }

        assert_eq!(pi, pi_want, "{sc}: PI");
        assert_eq!(srp, srp_want, "{sc}: SRP");
        assert_eq!(
            (pushes, stats.max_stack_depth, stats.unexpected_blocks),
            ceiling_want,
            "{sc}: SRP ceiling"
        );
    }
}

// --- Typed configuration errors ---------------------------------------

#[test]
fn unknown_semaphore_in_script_is_rejected() {
    let mut b = KernelBuilder::new(cfg(SemScheme::Emeralds));
    let p = b.add_process("app");
    b.add_periodic_task(
        p,
        "bad",
        ms(10),
        Script::periodic(vec![Action::AcquireSem(SemId(5)), Action::Compute(us(10))]),
    );
    match b.try_build() {
        Err(ConfigError::UnknownSemaphore { task, action, sem }) => {
            assert_eq!(task, ThreadId(0));
            assert_eq!(action, 0);
            assert_eq!(sem, SemId(5));
        }
        other => panic!("expected UnknownSemaphore, got {other:?}"),
    }
}

#[test]
fn csd_boundary_beyond_task_count_is_a_typed_error() {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![4],
        },
        ..KernelConfig::default()
    });
    let p = b.add_process("app");
    b.add_periodic_task(p, "t", ms(10), Script::compute_only(us(100)));
    let err = b.try_build().expect_err("boundary 4 with 1 task");
    assert_eq!(
        err,
        ConfigError::CsdBoundary {
            boundary: 4,
            tasks: 1
        }
    );
    // The panic path keeps its historical message prefix.
    assert!(err.to_string().contains("CSD boundary beyond task count"));
}

#[test]
fn counting_semaphore_under_srp_is_rejected() {
    let mut b = KernelBuilder::new(cfg(SemScheme::Srp));
    let p = b.add_process("app");
    let c = b.add_counting_sem(2);
    b.add_periodic_task(
        p,
        "consumer",
        ms(10),
        Script::periodic(vec![Action::AcquireSem(c), Action::Compute(us(10))]),
    );
    match b.try_build() {
        Err(ConfigError::SrpCountingSem { sem, .. }) => assert_eq!(sem, c),
        other => panic!("expected SrpCountingSem, got {other:?}"),
    }
}

#[test]
fn condvar_under_srp_is_rejected() {
    let mut b = KernelBuilder::new(cfg(SemScheme::Srp));
    let p = b.add_process("app");
    let m = b.add_mutex();
    let cv = b.add_condvar();
    b.add_periodic_task(
        p,
        "waiter",
        ms(10),
        Script::periodic(vec![
            Action::AcquireSem(m),
            Action::CondWait(cv, m),
            Action::ReleaseSem(m),
        ]),
    );
    assert!(matches!(b.try_build(), Err(ConfigError::SrpCondVar { .. })));
}

#[test]
fn srp_lock_order_cycle_is_rejected_at_build_time() {
    let mut b = KernelBuilder::new(cfg(SemScheme::Srp));
    let p = b.add_process("app");
    let a = b.add_mutex();
    let c = b.add_mutex();
    // Opposite nesting orders: a classic deadlock-prone graph.
    b.add_periodic_task(
        p,
        "ab",
        ms(10),
        Script::periodic(vec![
            Action::AcquireSem(a),
            Action::AcquireSem(c),
            Action::ReleaseSem(c),
            Action::ReleaseSem(a),
        ]),
    );
    b.add_periodic_task(
        p,
        "ba",
        ms(20),
        Script::periodic(vec![
            Action::AcquireSem(c),
            Action::AcquireSem(a),
            Action::ReleaseSem(a),
            Action::ReleaseSem(c),
        ]),
    );
    match b.try_build() {
        Err(ConfigError::SrpGraph(SrpGraphError::LockOrderCycle { resources })) => {
            assert!(resources.len() >= 3, "cycle path is closed: {resources:?}");
        }
        other => panic!("expected a lock-order cycle, got {other:?}"),
    }
}

#[test]
fn srp_blocking_inside_critical_section_is_rejected() {
    let mut b = KernelBuilder::new(cfg(SemScheme::Srp));
    let p = b.add_process("app");
    let m = b.add_mutex();
    let e = b.add_event();
    b.add_periodic_task(
        p,
        "blocker",
        ms(10),
        Script::periodic(vec![
            Action::AcquireSem(m),
            Action::WaitEvent(e),
            Action::ReleaseSem(m),
        ]),
    );
    assert!(matches!(
        b.try_build(),
        Err(ConfigError::SrpGraph(
            SrpGraphError::BlockWhileHolding { .. }
        ))
    ));
}

#[test]
fn srp_section_left_open_at_job_end_is_rejected() {
    let mut b = KernelBuilder::new(cfg(SemScheme::Srp));
    let p = b.add_process("app");
    let m = b.add_mutex();
    b.add_periodic_task(
        p,
        "leaker",
        ms(10),
        Script::periodic(vec![Action::AcquireSem(m), Action::Compute(us(10))]),
    );
    assert!(matches!(
        b.try_build(),
        Err(ConfigError::SrpGraph(SrpGraphError::HeldAtEnd { .. }))
    ));
}

#[test]
fn same_config_builds_fine_under_pi_but_not_srp() {
    // The SRP rejection is about the *policy*, not the workload: the
    // identical builder input is accepted under PI (where blocking
    // inside a section is legal, if inadvisable).
    let build = |scheme: SemScheme| {
        let mut b = KernelBuilder::new(cfg(scheme));
        let p = b.add_process("app");
        let m = b.add_mutex();
        let e = b.add_event();
        b.add_periodic_task(
            p,
            "w",
            ms(10),
            Script::periodic(vec![
                Action::AcquireSem(m),
                Action::WaitEvent(e),
                Action::ReleaseSem(m),
            ]),
        );
        b.add_periodic_task(
            p,
            "s",
            ms(15),
            Script::periodic(vec![Action::SignalEvent(e), Action::Compute(us(10))]),
        );
        b.try_build()
    };
    assert!(build(SemScheme::Emeralds).is_ok());
    assert!(build(SemScheme::Srp).is_err());
}

// --- next_sem hint overrides ------------------------------------------

/// A task whose hint would fire: WaitEvent directly before an acquire.
fn hinted_builder() -> (KernelBuilder, ThreadId, SemId, SemId) {
    let mut b = KernelBuilder::new(cfg(SemScheme::Emeralds));
    let p = b.add_process("app");
    let m0 = b.add_mutex();
    let m1 = b.add_mutex();
    let e = b.add_event();
    let t = b.add_periodic_task(
        p,
        "hinted",
        ms(100),
        Script::periodic(vec![
            Action::WaitEvent(e),
            Action::AcquireSem(m0),
            Action::Compute(us(100)),
            Action::ReleaseSem(m0),
        ]),
    );
    b.add_periodic_task(
        p,
        "waker",
        ms(200),
        Script::periodic(vec![Action::SleepFor(ms(1)), Action::SignalEvent(e)]),
    );
    b.add_periodic_task(
        p,
        "holder",
        ms(400),
        Script::periodic(vec![
            Action::AcquireSem(m0),
            Action::Compute(ms(4)),
            Action::ReleaseSem(m0),
        ]),
    );
    (b, t, m0, m1)
}

#[test]
fn hint_naming_a_sem_the_task_never_acquires_is_rejected() {
    let (mut b, t, m0, m1) = hinted_builder();
    b.override_hint(t, 0, Some(m1));
    match b.try_build() {
        Err(ConfigError::InvalidHint {
            task,
            action,
            hinted,
            expected,
        }) => {
            assert_eq!(task, t);
            assert_eq!(action, 0);
            assert_eq!(hinted, m1);
            assert_eq!(expected, Some(m0));
        }
        other => panic!("expected InvalidHint, got {other:?}"),
    }
}

#[test]
fn hint_on_a_non_blocking_action_is_rejected() {
    let (mut b, t, m0, _) = hinted_builder();
    // Action 2 is a Compute; action 1 is the acquire itself — neither
    // carries a next_sem parameter.
    b.override_hint(t, 2, Some(m0));
    assert!(matches!(
        b.try_build(),
        Err(ConfigError::InvalidHintTarget { action: 2, .. })
    ));
}

#[test]
fn hint_matching_the_parser_is_accepted_and_identical() {
    let (mut b, t, m0, _) = hinted_builder();
    b.override_hint(t, 0, Some(m0));
    let mut k = b.try_build().expect("parser-matching hint is valid");
    let (mut plain, ..) = {
        let (b2, ..) = hinted_builder();
        (b2.build(), ())
    };
    k.run_until(Time::from_ms(50));
    plain.run_until(Time::from_ms(50));
    assert_eq!(k.now(), plain.now(), "explicit hint changed nothing");
    assert_eq!(
        k.trace().events().len(),
        plain.trace().events().len(),
        "explicit hint changed the event stream"
    );
}

#[test]
fn hint_override_none_disables_early_inheritance() {
    let (b, ..) = hinted_builder();
    let mut with_hint = b.build();
    let (mut b2, t, ..) = hinted_builder();
    b2.override_hint(t, 0, None);
    let mut without = b2.try_build().expect("None hint is always valid");
    with_hint.run_until(Time::from_ms(50));
    without.run_until(Time::from_ms(50));
    let early = |k: &Kernel| {
        k.trace()
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, TraceEvent::EarlyInherit { .. }))
            .count()
    };
    assert!(
        early(&with_hint) > 0,
        "scenario exercises early inheritance"
    );
    assert_eq!(early(&without), 0, "None override still early-inherited");
}
