//! Public-API semaphore scenario tests: mutual exclusion holds under
//! both schemes, the schemes agree on application outcomes, and the
//! trace exhibits exactly the event orders the paper draws in
//! Figures 6–10.

use emeralds::core::kernel::{Kernel, KernelBuilder, KernelConfig};
use emeralds::core::script::{Action, Script};
use emeralds::core::{SchedPolicy, SemScheme};
use emeralds::sim::{Duration, SemId, SimRng, ThreadId, Time, TraceEvent};

fn ms(v: u64) -> Duration {
    Duration::from_ms(v)
}

fn us(v: u64) -> Duration {
    Duration::from_us(v)
}

/// Builds a randomized lock-sharing workload: `n` periodic tasks, each
/// taking one of `sems` mutexes around part of its computation.
fn lock_workload(
    policy: SchedPolicy,
    scheme: SemScheme,
    n: usize,
    num_sems: usize,
    seed: u64,
) -> (Kernel, Vec<ThreadId>, Vec<SemId>) {
    let mut rng = SimRng::seeded(seed);
    let mut b = KernelBuilder::new(KernelConfig {
        policy,
        sem_scheme: scheme,
        ..KernelConfig::default()
    });
    let p = b.add_process("app");
    let sems: Vec<SemId> = (0..num_sems).map(|_| b.add_mutex()).collect();
    let mut tasks = Vec::new();
    for i in 0..n {
        // Short-ish periods with sizeable critical sections: lock
        // contention is frequent, which is the §6 operating regime.
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
    }
    (b.build(), tasks, sems)
}

/// Extracts hold intervals per semaphore and asserts they never
/// overlap (mutual exclusion), using the acquisition/release trace.
fn assert_mutual_exclusion(k: &Kernel, sems: &[SemId]) {
    for &s in sems {
        let mut holder: Option<ThreadId> = None;
        for (at, ev) in k.trace().events() {
            match ev {
                TraceEvent::SemAcquired { tid, sem } if *sem == s => {
                    assert!(
                        holder.is_none(),
                        "{s}: {tid} acquired at {at} while {holder:?} still held"
                    );
                    holder = Some(*tid);
                }
                TraceEvent::SemReleased { tid, sem } if *sem == s => {
                    assert_eq!(holder, Some(*tid), "{s}: released by non-holder at {at}");
                    holder = None;
                }
                _ => {}
            }
        }
    }
}

#[test]
fn mutual_exclusion_holds_under_both_schemes_and_all_policies() {
    for seed in [1u64, 2, 3] {
        for policy in [
            SchedPolicy::Edf,
            SchedPolicy::RmQueue,
            SchedPolicy::Csd {
                boundaries: vec![3],
            },
        ] {
            for scheme in [SemScheme::Standard, SemScheme::Emeralds] {
                let (mut k, _, sems) = lock_workload(policy.clone(), scheme, 6, 2, seed);
                k.run_until(Time::from_ms(300));
                assert_mutual_exclusion(&k, &sems);
            }
        }
    }
}

/// §6: the optimization "reduces overheads without compromising any OS
/// functionality" — both schemes complete the same jobs with the same
/// application CPU time, on every policy and seed; the EMERALDS scheme
/// never uses more context switches.
#[test]
fn schemes_agree_and_emeralds_switches_less() {
    for seed in [7u64, 8, 9, 10] {
        let policy = SchedPolicy::Csd {
            boundaries: vec![3],
        };
        let (mut a, tasks, _) = lock_workload(policy.clone(), SemScheme::Standard, 6, 2, seed);
        let (mut b, _, _) = lock_workload(policy, SemScheme::Emeralds, 6, 2, seed);
        a.run_until(Time::from_ms(500));
        b.run_until(Time::from_ms(500));
        for &tid in &tasks {
            assert_eq!(
                a.task_stats(tid).jobs_completed,
                b.task_stats(tid).jobs_completed,
                "seed {seed}, {tid}"
            );
            assert_eq!(
                a.tcb(tid).cpu_time,
                b.tcb(tid).cpu_time,
                "seed {seed}, {tid}"
            );
        }
        assert!(
            b.trace().context_switch_count() <= a.trace().context_switch_count(),
            "seed {seed}: EMERALDS used more switches"
        );
        // The EMERALDS scheme wins on *contended* pairs (the fig11 and
        // fig12 experiments quantify it); on these lightly-contended
        // random workloads it pays the hint-check and pre-lock-queue
        // bookkeeping per blocking call, so only bound the regression.
        let (sa, sb) = (
            a.accounting().total_overhead().as_us_f64(),
            b.accounting().total_overhead().as_us_f64(),
        );
        assert!(
            sb <= sa * 1.10,
            "seed {seed}: EMERALDS overhead {sb:.1} vs standard {sa:.1}"
        );
    }
}

/// Priority inversion is bounded: with PI, a high-priority task that
/// wants a lock held by a low-priority task is delayed by at most the
/// critical section — a middle task cannot interpose. Without any
/// contention the middle task would run first; the trace must show
/// the holder running (inherited) while the high task waits.
#[test]
fn priority_inheritance_bounds_inversion() {
    for scheme in [SemScheme::Standard, SemScheme::Emeralds] {
        let mut b = KernelBuilder::new(KernelConfig {
            policy: SchedPolicy::RmQueue,
            sem_scheme: scheme,
            ..KernelConfig::default()
        });
        let p = b.add_process("app");
        let s = b.add_mutex();
        let e = b.add_event();
        // High: woken at 3 ms, needs the lock.
        let high = b.add_periodic_task(
            p,
            "high",
            ms(100),
            Script::periodic(vec![
                Action::WaitEvent(e),
                Action::AcquireSem(s),
                Action::Compute(us(200)),
                Action::ReleaseSem(s),
            ]),
        );
        // Middle: pure compute hog, released at 3 ms via phase.
        let middle = b.add_periodic_task_phased(
            p,
            "middle",
            ms(150),
            ms(150),
            ms(3),
            Script::compute_only(ms(20)),
        );
        // Waker: signals the event at ~3 ms.
        let _waker = b.add_periodic_task(
            p,
            "waker",
            ms(120),
            Script::periodic(vec![Action::SleepFor(ms(3)), Action::SignalEvent(e)]),
        );
        // Low: grabs the lock at t = 0 and holds it for 5 ms.
        let low = b.add_periodic_task(
            p,
            "low",
            ms(400),
            Script::periodic(vec![
                Action::AcquireSem(s),
                Action::Compute(ms(5)),
                Action::ReleaseSem(s),
            ]),
        );
        let mut k = b.build();
        k.run_until(Time::from_ms(60));
        assert_eq!(k.total_deadline_misses(), 0);
        // The high task acquired the lock well before the middle hog
        // finished 20 ms of work — PI let the low holder finish first.
        let acq = k
            .trace()
            .filter(|e| matches!(e, TraceEvent::SemAcquired { tid, .. } if *tid == high))
            .next()
            .map(|&(t, _)| t)
            .expect("high acquired");
        assert!(
            acq < Time::from_ms(10),
            "{scheme:?}: inversion not bounded, acquisition at {acq}"
        );
        let _ = (middle, low);
    }
}

/// The EMERALDS scheme's early inheritance is visible at the public
/// API: an `EarlyInherit` trace event precedes the holder's release,
/// and the woken waiter acquires without ever blocking in
/// `acquire_sem`.
#[test]
fn early_inheritance_event_order() {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::RmQueue,
        sem_scheme: SemScheme::Emeralds,
        ..KernelConfig::default()
    });
    let p = b.add_process("app");
    let s = b.add_mutex();
    let e = b.add_event();
    let t2 = b.add_periodic_task(
        p,
        "T2",
        ms(100),
        Script::periodic(vec![
            Action::WaitEvent(e),
            Action::AcquireSem(s),
            Action::ReleaseSem(s),
        ]),
    );
    let _tx = b.add_periodic_task(
        p,
        "Tx",
        ms(200),
        Script::periodic(vec![Action::SleepFor(ms(1)), Action::SignalEvent(e)]),
    );
    let _t1 = b.add_periodic_task(
        p,
        "T1",
        ms(400),
        Script::periodic(vec![
            Action::AcquireSem(s),
            Action::Compute(ms(4)),
            Action::ReleaseSem(s),
        ]),
    );
    let mut k = b.build();
    k.run_until(Time::from_ms(50));
    let events: Vec<&TraceEvent> = k.trace().events().iter().map(|(_, e)| e).collect();
    let early_at = events
        .iter()
        .position(|e| matches!(e, TraceEvent::EarlyInherit { .. }))
        .expect("early inherit happened");
    let release_at = events
        .iter()
        .position(|e| matches!(e, TraceEvent::SemReleased { tid, .. } if tid.0 != t2.0))
        .expect("holder released");
    assert!(
        early_at < release_at,
        "inheritance must precede the release"
    );
    assert_eq!(
        k.trace()
            .filter(|e| matches!(e, TraceEvent::SemBlocked { tid, .. } if *tid == t2))
            .count(),
        0,
        "T2 never blocks inside acquire_sem under the EMERALDS scheme"
    );
}

/// Builds the fixed ceiling-vs-PI pin scenario: a high-priority task
/// woken into a lock held by a low-priority task, with a waker in
/// between. Identical builder input for both policies.
fn policy_pin_scenario(sem_scheme: SemScheme) -> Kernel {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::RmQueue,
        sem_scheme,
        ..KernelConfig::default()
    });
    let p = b.add_process("app");
    let s = b.add_mutex();
    let e = b.add_event();
    // high = t0: woken at ~3 ms, wants the lock low holds.
    b.add_periodic_task(
        p,
        "high",
        ms(100),
        Script::periodic(vec![
            Action::WaitEvent(e),
            Action::AcquireSem(s),
            Action::Compute(us(200)),
            Action::ReleaseSem(s),
        ]),
    );
    // waker = t1.
    b.add_periodic_task(
        p,
        "waker",
        ms(120),
        Script::periodic(vec![Action::SleepFor(ms(3)), Action::SignalEvent(e)]),
    );
    // low = t2: grabs the lock at t = 0, holds it for 5 ms.
    b.add_periodic_task(
        p,
        "low",
        ms(400),
        Script::periodic(vec![
            Action::AcquireSem(s),
            Action::Compute(ms(5)),
            Action::ReleaseSem(s),
            Action::Compute(us(100)),
        ]),
    );
    b.build()
}

/// Compact rendering of every locking-protocol event in the trace.
fn locking_events(k: &Kernel) -> Vec<String> {
    k.trace()
        .events()
        .iter()
        .filter_map(|(_, e)| match e {
            TraceEvent::Syscall { tid, name } if name.name().ends_with("_sem") => {
                Some(format!("{name}:{tid}"))
            }
            TraceEvent::SemAcquired { tid, sem } => Some(format!("acquired:{tid}:{sem}")),
            TraceEvent::SemReleased { tid, sem } => Some(format!("released:{tid}:{sem}")),
            TraceEvent::SemBlocked { tid, sem, .. } => Some(format!("blocked:{tid}:{sem}")),
            TraceEvent::EarlyInherit { waiter, holder, .. } => {
                Some(format!("early_inherit:{waiter}->{holder}"))
            }
            TraceEvent::PreLockAdmit { tid, sem } => Some(format!("prelock:{tid}:{sem}")),
            TraceEvent::PreLockBlock { tid, sem } => Some(format!("prelock_block:{tid}:{sem}")),
            TraceEvent::PriorityInherit { holder, donor } => {
                Some(format!("inherit:{donor}->{holder}"))
            }
            TraceEvent::PriorityRestore { holder } => Some(format!("restore:{holder}")),
            TraceEvent::CeilingPush { tid, sem, ceiling } => {
                Some(format!("push:{tid}:{sem}@{ceiling}"))
            }
            TraceEvent::CeilingPop { tid, sem, ceiling } => {
                Some(format!("pop:{tid}:{sem}@{ceiling}"))
            }
            TraceEvent::CeilingDefer { tid, ceiling } => Some(format!("defer:{tid}@{ceiling}")),
            TraceEvent::CeilingAdmit { tid } => Some(format!("admit:{tid}")),
            _ => None,
        })
        .collect()
}

/// The contended-acquire sequence, event by event, under both
/// policies: PI resolves the inversion with early inheritance and a
/// hand-over; SRP never lets the high task contend at all — its wake
/// is deferred until the ceiling pops, after which every acquire is
/// free. One scenario, two protocols, both pinned.
#[test]
fn ceiling_vs_pi_scenario_pins() {
    let mut pi = policy_pin_scenario(SemScheme::Emeralds);
    let mut srp = policy_pin_scenario(SemScheme::Srp);
    pi.run_until(Time::from_ms(10));
    srp.run_until(Time::from_ms(10));
    assert_eq!(
        locking_events(&pi),
        vec![
            // t=0: low's end-of-job hint admits it to S0's pre-lock
            // queue; it then takes the lock and starts its 5 ms
            // section.
            "prelock:T2:S0",
            "acquire_sem:T2",
            "acquired:T2:S0",
            // t=3ms: the event wakes high — §6.2 early inheritance:
            // low is boosted and high stays blocked, never entering
            // acquire_sem.
            "inherit:T0->T2",
            "early_inherit:T0->T2",
            // t=5ms: low releases; inheritance is undone and the lock
            // handed straight to high, whose acquire call then merely
            // discovers the grant.
            "release_sem:T2",
            "restore:T2",
            "released:T2:S0",
            "acquired:T0:S0",
            "acquire_sem:T0",
            "release_sem:T0",
            "released:T0:S0",
        ],
        "PI sequence"
    );
    assert_eq!(
        locking_events(&srp),
        vec![
            // t=0: low takes the free lock and pushes S0's ceiling
            // (0: high also uses S0), raising the system ceiling.
            "acquire_sem:T2",
            "acquired:T2:S0",
            "push:T2:S0@0",
            // t=3ms: the waker's sleep expires, but its preemption
            // level (1) does not beat the system ceiling (0): the wake
            // itself is deferred, so the signal — and hence high's
            // whole contended acquire — never happens inside low's
            // critical section. SRP needs no inheritance because it
            // never lets the conflict start.
            "defer:T1@0",
            // t=5ms: low releases and pops the ceiling; the deferred
            // waker is admitted, signals, and high then takes the lock
            // uncontended with its own push/pop pair.
            "release_sem:T2",
            "released:T2:S0",
            "pop:T2:S0@0",
            "admit:T1",
            "acquire_sem:T0",
            "acquired:T0:S0",
            "push:T0:S0@0",
            "release_sem:T0",
            "released:T0:S0",
            "pop:T0:S0@0",
        ],
        "SRP sequence"
    );
}
