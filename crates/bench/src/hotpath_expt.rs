//! Experiment HP — kernel hot-path work counters.
//!
//! Counts the work on the kernel's hot paths in **work units, not
//! wall-clock**, so the committed `BENCH_hotpath.json` is bit-for-bit
//! reproducible on any host and can gate CI without timing noise:
//!
//! - **Scheduler pick** — every `reschedule` is one selection call,
//!   each a walk of the ready queues.
//! - **Timer queue** — an identical arm/pop trace drives a local
//!   reimplementation of the original delta queue (O(n) insert walk)
//!   and the kernel's binary heap, which must dispense the same
//!   order.
//! - **`sem_acquire`** — the workload counts how many acquisitions
//!   took the uncontended fast path vs entering the general path.
//! - **`StateMsgVar::read`** — reads and torn-read retries; with §7
//!   buffer sizing the retry count is structurally zero, i.e. read
//!   work is exactly one snapshot+copy per read.
//!
//! Host time per layer is measured from outside the crates, by the
//! repository benchmark's `--trace 1` run.

use emeralds_core::kernel::{KernelBuilder, KernelConfig};
use emeralds_core::script::{Action, Operand, Script};
use emeralds_core::timerq::TimerQueue;
use emeralds_core::{Kernel, SchedPolicy, SemScheme};
use emeralds_sim::{Duration, SimRng, StateId, Time};

/// Experiment shape.
#[derive(Clone, Debug)]
pub struct HotpathParams {
    /// Simulated horizon of the kernel workload runs.
    pub horizon: Time,
    /// Periodic tasks in the synthetic timer trace.
    pub timer_tasks: usize,
    /// Simulated span of the synthetic timer trace.
    pub timer_span: Time,
    /// Workload seed.
    pub seed: u64,
}

impl HotpathParams {
    /// The committed-baseline shape.
    pub fn full() -> HotpathParams {
        HotpathParams {
            horizon: Time::from_ms(400),
            timer_tasks: 48,
            timer_span: Time::from_ms(300),
            seed: 0x407,
        }
    }

    /// CI smoke shape: shorter horizon, fewer timer tasks. Still
    /// deterministic — only smaller.
    pub fn quick() -> HotpathParams {
        HotpathParams {
            horizon: Time::from_ms(80),
            timer_tasks: 16,
            timer_span: Time::from_ms(60),
            seed: 0x407,
        }
    }
}

/// The measured work counters. Every field is a deterministic
/// function of the params — no wall-clock anywhere.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotpathReport {
    // Scheduler pick.
    /// `reschedule` calls, one queue walk each.
    pub select_calls: u64,

    // Timer queue.
    pub timer_arms: u64,
    /// Both queues popped the identical expiry sequence.
    pub timer_order_match: bool,

    // Semaphore acquire.
    pub sem_acquired: u64,
    pub sem_contended: u64,
    /// §6.2 early inheritances — how EMERALDS-scheme contention
    /// manifests (the waiter never reaches `acquire_sem` blocked).
    pub sem_early_inherits: u64,
    /// Acquisitions that took the uncontended fast path (free permit,
    /// no waiters, no pre-lock members, no early grant).
    pub sem_fast_acquires: u64,

    // State-message reads.
    pub statemsg_reads: u64,
    pub statemsg_retries: u64,

    // Locking-policy A/B: the same scenario replayed under EMERALDS PI
    // and under SRP/ceiling scheduling.
    pub policy_ab: Vec<PolicyAbRow>,
}

/// One locking policy's run of an A/B scenario, reduced to the
/// counters the two policies compete on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolicySide {
    pub deadline_misses: u64,
    pub context_switches: u64,
    pub jobs_completed: u64,
    pub sem_acquired: u64,
    /// Acquires that found the lock held and blocked in `acquire_sem`.
    pub sem_contended: u64,
    /// Grants made directly to a blocked waiter (PI lock passing;
    /// structurally zero under SRP, where acquire never blocks).
    pub sem_handed_over: u64,
    /// §6.2 early inheritances (PI's context-switch elimination).
    pub early_inherits: u64,
    /// SRP job starts deferred by the system ceiling (SRP's entire
    /// blocking, concentrated before the job runs).
    pub ceiling_defers: u64,
}

/// One A/B scenario: an identical workload run under both locking
/// policies, plus the SRP-only ceiling diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolicyAbRow {
    pub scenario: &'static str,
    pub pi: PolicySide,
    pub srp: PolicySide,
    pub srp_ceiling_pushes: u64,
    pub srp_max_stack_depth: u64,
    /// Times an SRP acquire found the lock held anyway — the ceiling
    /// analysis guarantees this is zero on a validated graph.
    pub srp_unexpected_blocks: u64,
}

/// The kernel workload: a mix that exercises all four hot paths —
/// many periodic releases (timer + scheduler pressure), a
/// mostly-uncontended mutex, one genuinely contended mutex, and a
/// state-message producer/consumer pair.
fn build_workload(seed: u64) -> Kernel {
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
    // exercised and measured.
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
    // Filler periodics: scheduler + timer pressure.
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

/// Builds one locking-policy A/B scenario. The scripts are
/// SRP-feasible by construction (mutexes only, properly nested, no
/// blocking inside a critical section) so the identical configuration
/// builds under both policies and the comparison is apples-to-apples:
///
/// - `uncontended` — three rate-separated tasks, each on a private
///   mutex: the policies' bookkeeping with zero conflicts.
/// - `contended` — a short critical section shared between a 3 ms
///   task and a phased 9 ms task whose 1 ms section the fast task
///   regularly lands in.
/// - `longblock` — the paper's Figure-7 shape: a 2 ms task whose tiny
///   critical section collides with a 20 ms task holding the same
///   lock for 1.5 ms. PI answers with early inheritance and lock
///   hand-over; SRP never lets the collision start, deferring the
///   fast task's release at the ceiling.
fn build_policy_scenario(scenario: &str, sem_scheme: SemScheme) -> Kernel {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::RmQueue,
        record_trace: false,
        sem_scheme,
        ..KernelConfig::default()
    });
    let p = b.add_process("policy-ab");
    match scenario {
        "uncontended" => {
            for (i, period_us) in [1_000u64, 1_700, 2_900].into_iter().enumerate() {
                let m = b.add_mutex();
                b.add_periodic_task(
                    p,
                    format!("solo{i}"),
                    Duration::from_us(period_us),
                    Script::periodic(vec![
                        Action::AcquireSem(m),
                        Action::Compute(Duration::from_us(30)),
                        Action::ReleaseSem(m),
                        Action::Compute(Duration::from_us(20)),
                    ]),
                );
            }
        }
        "contended" => {
            let m = b.add_mutex();
            b.add_periodic_task_phased(
                p,
                "share-hi",
                Duration::from_ms(3),
                Duration::from_ms(3),
                Duration::from_us(500),
                Script::periodic(vec![
                    Action::AcquireSem(m),
                    Action::Compute(Duration::from_us(100)),
                    Action::ReleaseSem(m),
                ]),
            );
            b.add_periodic_task(
                p,
                "share-lo",
                Duration::from_ms(9),
                Script::periodic(vec![
                    Action::AcquireSem(m),
                    Action::Compute(Duration::from_ms(1)),
                    Action::ReleaseSem(m),
                    Action::Compute(Duration::from_us(200)),
                ]),
            );
        }
        "longblock" => {
            let m = b.add_mutex();
            b.add_periodic_task_phased(
                p,
                "fast",
                Duration::from_ms(2),
                Duration::from_ms(2),
                Duration::from_us(500),
                Script::periodic(vec![
                    Action::AcquireSem(m),
                    Action::Compute(Duration::from_us(50)),
                    Action::ReleaseSem(m),
                    Action::Compute(Duration::from_us(100)),
                ]),
            );
            b.add_periodic_task(
                p,
                "holder",
                Duration::from_ms(20),
                Script::periodic(vec![
                    Action::AcquireSem(m),
                    Action::Compute(Duration::from_us(1_500)),
                    Action::ReleaseSem(m),
                ]),
            );
        }
        other => panic!("unknown policy scenario {other}"),
    }
    b.build()
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

/// Runs one scenario under both policies to the same horizon.
fn policy_ab_row(scenario: &'static str, horizon: Time) -> PolicyAbRow {
    let mut pi = build_policy_scenario(scenario, SemScheme::Emeralds);
    pi.run_until(horizon);
    let mut srp = build_policy_scenario(scenario, SemScheme::Srp);
    srp.run_until(horizon);
    let stats = srp.srp_stats().expect("SRP kernel reports SRP stats");
    PolicyAbRow {
        scenario,
        pi: policy_side(&pi),
        srp: policy_side(&srp),
        srp_ceiling_pushes: srp.counters().ceiling_pushes,
        srp_max_stack_depth: stats.max_stack_depth as u64,
        srp_unexpected_blocks: stats.unexpected_blocks,
    }
}

/// The original timer structure, the reference model for the
/// kernel's heap: a list sorted by expiry, each arm inserted after
/// every entry due at or before it, so ties keep arm order.
struct LegacyDeltaQueue<E> {
    entries: Vec<(Time, E)>,
}

impl<E> LegacyDeltaQueue<E> {
    fn new() -> Self {
        LegacyDeltaQueue {
            entries: Vec::new(),
        }
    }

    fn arm(&mut self, at: Time, payload: E) {
        let pos = self.entries.partition_point(|e| e.0 <= at);
        self.entries.insert(pos, (at, payload));
    }

    fn pop_due(&mut self, now: Time) -> Option<(Time, E)> {
        if self.entries.first().is_some_and(|e| e.0 <= now) {
            Some(self.entries.remove(0))
        } else {
            None
        }
    }

    #[cfg(test)]
    fn next_expiry(&self) -> Option<Time> {
        self.entries.first().map(|e| e.0)
    }
}

/// Replays the same periodic re-arm trace through both timer queues:
/// `timer_tasks` tasks with jittered periods, each re-arming one
/// period ahead when its timer pops — exactly the kernel's release
/// pattern. Returns `(arms, orders matched)`.
fn timer_shootout(params: &HotpathParams) -> (u64, bool) {
    let mut rng = SimRng::seeded(params.seed ^ 0x7133);
    let periods: Vec<Duration> = (0..params.timer_tasks)
        .map(|_| Duration::from_us(rng.int_in(500, 10_000)))
        .collect();

    let mut legacy = LegacyDeltaQueue::new();
    let mut heap: TimerQueue<usize> = TimerQueue::default();
    let mut arms = 0u64;
    for (i, p) in periods.iter().enumerate() {
        legacy.arm(Time::ZERO + *p, i);
        heap.arm(Time::ZERO + *p, i);
        arms += 1;
    }
    let mut order_match = true;
    // Pop in expiry order, re-arming each task one period ahead; the
    // two queues must dispense identical (time, task) sequences.
    while let Some(at) = heap.next_expiry() {
        if at > params.timer_span {
            break;
        }
        let h = heap.pop_due(at).expect("head is due");
        let l = legacy.pop_due(at);
        order_match &= l.as_ref() == Some(&h);
        let (_, task) = h;
        let next = at + periods[task];
        legacy.arm(next, task);
        heap.arm(next, task);
        arms += 1;
    }
    (arms, order_match)
}

/// Runs the full measurement: the kernel workload (scheduler,
/// semaphore and state-message counters), the timer shootout, and the
/// locking-policy A/B scenarios.
pub fn run(params: &HotpathParams) -> HotpathReport {
    let mut k = build_workload(params.seed);
    k.run_until(params.horizon);
    let (timer_arms, timer_order_match) = timer_shootout(params);

    let c = k.counters();
    HotpathReport {
        select_calls: k.dispatch_cache_stats().0,
        timer_arms,
        timer_order_match,
        sem_acquired: c.sem_acquired,
        sem_contended: c.sem_contended,
        sem_early_inherits: c.early_inherits,
        sem_fast_acquires: k.sem_fast_acquires(),
        statemsg_reads: c.statemsg_reads,
        statemsg_retries: c.statemsg_retries,
        policy_ab: ["uncontended", "contended", "longblock"]
            .into_iter()
            .map(|s| policy_ab_row(s, params.horizon))
            .collect(),
    }
}

/// Renders the report as a before/after table.
pub fn render(r: &HotpathReport) -> String {
    let mut s = String::new();
    s.push_str("hot path            before (work)   after (work)   cut\n");
    let row = |s: &mut String, label: &str, before: u64, after: u64| {
        let cut = if before > 0 {
            format!("{:.1}x", before as f64 / (after.max(1)) as f64)
        } else {
            "-".into()
        };
        s.push_str(&format!("{label:<18} {before:>14} {after:>14}   {cut}\n"));
    };
    row(
        &mut s,
        "sem slow entries",
        r.sem_acquired + r.sem_contended,
        r.sem_acquired + r.sem_contended - r.sem_fast_acquires,
    );
    row(
        &mut s,
        "statemsg copies",
        r.statemsg_reads + r.statemsg_retries,
        r.statemsg_reads + r.statemsg_retries,
    );
    s.push_str(&format!(
        "sched picks {} | timer arms {} | sem acquired {} (blocked {}, early-inherit {}, fast {}) | reads {} retries {}\n",
        r.select_calls,
        r.timer_arms,
        r.sem_acquired,
        r.sem_contended,
        r.sem_early_inherits,
        r.sem_fast_acquires,
        r.statemsg_reads,
        r.statemsg_retries,
    ));
    s.push_str(&format!(
        "virtual-time parity: timer order {}\n",
        if r.timer_order_match {
            "identical"
        } else {
            "DIVERGED"
        },
    ));
    s.push_str("locking policy A/B (same scenario under PI and SRP):\n");
    s.push_str(
        "scenario      policy  misses  ctxsw   jobs  acquired  blocked  handover  early-inh  defers\n",
    );
    for row in &r.policy_ab {
        let line = |s: &mut String, policy: &str, side: &PolicySide| {
            s.push_str(&format!(
                "{:<12}  {:<6} {:>7} {:>6} {:>6} {:>9} {:>8} {:>9} {:>10} {:>7}\n",
                row.scenario,
                policy,
                side.deadline_misses,
                side.context_switches,
                side.jobs_completed,
                side.sem_acquired,
                side.sem_contended,
                side.sem_handed_over,
                side.early_inherits,
                side.ceiling_defers,
            ));
        };
        line(&mut s, "pi", &row.pi);
        line(&mut s, "srp", &row.srp);
        s.push_str(&format!(
            "{:<12}  srp ceiling: pushes {} max-depth {} unexpected-blocks {}\n",
            "", row.srp_ceiling_pushes, row.srp_max_stack_depth, row.srp_unexpected_blocks,
        ));
    }
    s
}

/// Serializes the report as `BENCH_hotpath.json`. Every counter is
/// deterministic and regenerates byte-identically on any host.
pub fn to_json(params: &HotpathParams, r: &HotpathReport) -> String {
    let mut s = format!(
        "{{\n\
         \"experiment\": \"hotpath\",\n\
         \"horizon_ms\": {},\n\
         \"seed\": {},\n\
         \"select_calls\": {},\n\
         \"timer_arms\": {},\n\
         \"timer_order_match\": {},\n\
         \"sem_acquired\": {},\n\
         \"sem_contended\": {},\n\
         \"sem_early_inherits\": {},\n\
         \"sem_fast_acquires\": {},\n\
         \"statemsg_reads\": {},\n\
         \"statemsg_retries\": {},\n\
         \"policy_ab\": [",
        params.horizon.as_ms_f64(),
        params.seed,
        r.select_calls,
        r.timer_arms,
        r.timer_order_match,
        r.sem_acquired,
        r.sem_contended,
        r.sem_early_inherits,
        r.sem_fast_acquires,
        r.statemsg_reads,
        r.statemsg_retries,
    );
    let side_json = |side: &PolicySide| {
        format!(
            "{{\"deadline_misses\": {}, \"context_switches\": {}, \"jobs_completed\": {}, \
             \"sem_acquired\": {}, \"sem_contended\": {}, \"sem_handed_over\": {}, \
             \"early_inherits\": {}, \"ceiling_defers\": {}}}",
            side.deadline_misses,
            side.context_switches,
            side.jobs_completed,
            side.sem_acquired,
            side.sem_contended,
            side.sem_handed_over,
            side.early_inherits,
            side.ceiling_defers,
        )
    };
    for (i, row) in r.policy_ab.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n{{\"scenario\": \"{}\", \"pi\": {}, \"srp\": {}, \"srp_ceiling_pushes\": {}, \
             \"srp_max_stack_depth\": {}, \"srp_unexpected_blocks\": {}}}",
            row.scenario,
            side_json(&row.pi),
            side_json(&row.srp),
            row.srp_ceiling_pushes,
            row.srp_max_stack_depth,
            row.srp_unexpected_blocks,
        ));
    }
    s.push_str("\n]\n}\n");
    s
}

/// Deterministic CI gate: the timer heap must dispense the legacy
/// order, the semaphore fast path must cover uncontended acquisitions,
/// and the policy A/B rows must show each mechanism engaged. Returns
/// the verdict lines and whether any check failed.
pub fn gate(r: &HotpathReport) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut failed = false;
    let mut check = |ok: bool, line: String| {
        failed |= !ok;
        lines.push(format!("{} {line}", if ok { "ok  " } else { "FAIL" }));
    };
    check(
        r.timer_order_match,
        "timer heap dispenses the legacy expiry order".into(),
    );
    check(
        r.sem_fast_acquires > 0 && r.sem_fast_acquires <= r.sem_acquired,
        format!(
            "sem fast path taken ({} of {} acquisitions)",
            r.sem_fast_acquires, r.sem_acquired
        ),
    );
    check(
        r.sem_contended + r.sem_early_inherits > 0,
        format!(
            "contention still exercised ({} blocks, {} early inherits)",
            r.sem_contended, r.sem_early_inherits
        ),
    );
    check(
        r.statemsg_retries == 0,
        format!(
            "state-message reads stay wait-free ({} reads, {} retries)",
            r.statemsg_reads, r.statemsg_retries
        ),
    );
    check(
        r.policy_ab.len() == 3,
        format!("all three policy A/B scenarios ran ({})", r.policy_ab.len()),
    );
    for row in &r.policy_ab {
        let sc = row.scenario;
        check(
            row.srp_unexpected_blocks == 0,
            format!(
                "{sc}: SRP acquire never blocks on a validated graph ({} unexpected)",
                row.srp_unexpected_blocks
            ),
        );
        check(
            row.srp.sem_handed_over == 0 && row.srp.sem_contended == 0,
            format!(
                "{sc}: SRP needs no lock hand-over ({} handed over, {} blocked)",
                row.srp.sem_handed_over, row.srp.sem_contended
            ),
        );
        check(
            row.pi.deadline_misses == row.srp.deadline_misses,
            format!(
                "{sc}: both policies meet the same deadlines (pi {} vs srp {})",
                row.pi.deadline_misses, row.srp.deadline_misses
            ),
        );
        check(
            row.srp_ceiling_pushes > 0,
            format!(
                "{sc}: SRP ceiling stack exercised ({} pushes)",
                row.srp_ceiling_pushes
            ),
        );
        match sc {
            "uncontended" => check(
                row.pi.sem_contended == 0 && row.pi.early_inherits == 0,
                format!(
                    "{sc}: PI sees no contention either ({} blocked, {} early inherits)",
                    row.pi.sem_contended, row.pi.early_inherits
                ),
            ),
            "contended" | "longblock" => {
                check(
                    row.pi.sem_handed_over + row.pi.early_inherits > 0,
                    format!(
                        "{sc}: PI contention machinery engaged ({} hand-overs, {} early inherits)",
                        row.pi.sem_handed_over, row.pi.early_inherits
                    ),
                );
                check(
                    row.srp.ceiling_defers > 0,
                    format!(
                        "{sc}: SRP deferred conflicting releases ({} defers)",
                        row.srp.ceiling_defers
                    ),
                );
                if sc == "longblock" {
                    check(
                        row.srp.context_switches <= row.pi.context_switches,
                        format!(
                            "{sc}: SRP needs no extra context switches (srp {} vs pi {})",
                            row.srp.context_switches, row.pi.context_switches
                        ),
                    );
                }
            }
            _ => {}
        }
    }
    (lines, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_is_deterministic_and_passes_gate() {
        let params = HotpathParams::quick();
        let a = run(&params);
        let b = run(&params);
        assert_eq!(a, b, "hotpath report must be a pure function of params");
        let (lines, failed) = gate(&a);
        assert!(!failed, "{lines:?}");
    }

    #[test]
    fn timer_shootout_orders_match() {
        let params = HotpathParams::quick();
        let (arms, ordered) = timer_shootout(&params);
        assert!(ordered);
        assert!(arms > params.timer_tasks as u64);
    }

    /// Property test: the kernel's timer heap is observationally
    /// identical to the legacy delta queue on randomized arm/pop
    /// workloads — including arms landing *exactly* on a 2^16 ns
    /// boundary (the bucket width of the calendar queue the heap
    /// replaced) and one tick either side, overdue arms, far-future
    /// arms up against `u64::MAX`, and FIFO ties. Checked after every
    /// operation: head expiry and length; on every pop: the exact
    /// `(time, payload)` pair.
    #[test]
    fn heap_matches_delta_queue_on_randomized_workloads() {
        const BUCKET_NS: u64 = 1 << 16;
        let mut rng = emeralds_sim::SimRng::seeded(0x71AE5);
        for case in 0..24u64 {
            let mut rng = rng.derive(case);
            let mut q = TimerQueue::default();
            let mut m = LegacyDeltaQueue::new();
            let mut now = Time::ZERO;
            let mut next_payload = 0u64;
            for op in 0..400u32 {
                let ctx = |now: Time| format!("case {case} op {op} now {}", now.as_ns());
                if rng.int_in(0, 84) < 55 {
                    // Arm, drawing the expiry from an edge-heavy mix.
                    let at = match rng.int_in(0, 9) {
                        0..=2 => {
                            Time::from_ns(now.as_ns().saturating_add(rng.int_in(0, 2 * BUCKET_NS)))
                        }
                        3..=4 => {
                            // Exactly on a bucket boundary at or after
                            // `now`.
                            let k = now.as_ns() / BUCKET_NS + rng.int_in(0, 3);
                            Time::from_ns(k.saturating_mul(BUCKET_NS))
                        }
                        5 => {
                            // One tick either side of a boundary.
                            let k = (now.as_ns() / BUCKET_NS + rng.int_in(1, 3))
                                .saturating_mul(BUCKET_NS);
                            Time::from_ns(if rng.chance(0.5) {
                                k - 1
                            } else {
                                k.saturating_add(1)
                            })
                        }
                        6 => {
                            // Behind `now` (overdue).
                            Time::from_ns(now.as_ns().saturating_sub(rng.int_in(0, BUCKET_NS)))
                        }
                        7..=8 => Time::from_ns(
                            now.as_ns()
                                .saturating_add(rng.int_in(2 * BUCKET_NS, 60 * BUCKET_NS)),
                        ),
                        _ => {
                            // Far-future overflow zone.
                            Time::from_ns(u64::MAX - rng.int_in(0, 3 * BUCKET_NS))
                        }
                    };
                    let p = next_payload;
                    next_payload += 1;
                    q.arm(at, p);
                    m.arm(at, p);
                    // FIFO ties are common: re-arm the same instant.
                    if rng.chance(0.25) {
                        let p = next_payload;
                        next_payload += 1;
                        q.arm(at, p);
                        m.arm(at, p);
                    }
                } else {
                    // Advance time — sometimes exactly onto the next
                    // head expiry or a bucket boundary — and drain.
                    now = match rng.int_in(0, 3) {
                        0 => Time::from_ns(
                            (now.as_ns() / BUCKET_NS + rng.int_in(1, 4)).saturating_mul(BUCKET_NS),
                        ),
                        1 => m.next_expiry().unwrap_or(now).max(now),
                        _ => {
                            Time::from_ns(now.as_ns().saturating_add(rng.int_in(1, 8 * BUCKET_NS)))
                        }
                    };
                    loop {
                        let got = q.pop_due(now);
                        let want = m.pop_due(now);
                        assert_eq!(got, want, "pop diverged ({})", ctx(now));
                        if got.is_none() {
                            break;
                        }
                    }
                }
                assert_eq!(
                    q.next_expiry(),
                    m.next_expiry(),
                    "head diverged ({})",
                    ctx(now)
                );
                assert_eq!(q.len(), m.entries.len(), "length diverged ({})", ctx(now));
                assert_eq!(q.is_empty(), m.entries.is_empty());
            }
            // Final drain at the end of time: every armed entry —
            // including the `u64::MAX`-adjacent ones — pops, in exact
            // reference order.
            loop {
                let got = q.pop_due(Time::MAX);
                let want = m.pop_due(Time::MAX);
                assert_eq!(got, want, "final drain diverged (case {case})");
                if got.is_none() {
                    break;
                }
            }
            assert!(q.is_empty());
        }
    }

    #[test]
    fn json_contains_every_counter() {
        let params = HotpathParams::quick();
        let r = run(&params);
        let json = to_json(&params, &r);
        for key in [
            "sem_fast_acquires",
            "statemsg_retries",
            "policy_ab",
            "srp_ceiling_pushes",
            "ceiling_defers",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
    }

    /// The A/B rows must show each policy fighting contention with its
    /// own weapon — PI with early inheritance and hand-over, SRP with
    /// ceiling deferral and *zero* in-lock blocking — while agreeing
    /// on the outcome that matters (deadlines).
    #[test]
    fn policy_ab_rows_show_rival_mechanisms() {
        let r = run(&HotpathParams::quick());
        assert_eq!(r.policy_ab.len(), 3);
        for row in &r.policy_ab {
            assert_eq!(row.srp_unexpected_blocks, 0, "{}", row.scenario);
            assert_eq!(row.srp.sem_contended, 0, "{}", row.scenario);
            assert_eq!(
                row.pi.deadline_misses, row.srp.deadline_misses,
                "{}",
                row.scenario
            );
            // Bookkeeping parity: both policies grant the same number
            // of critical sections on the shared horizon.
            assert_eq!(
                row.pi.sem_acquired, row.srp.sem_acquired,
                "{}",
                row.scenario
            );
        }
        let long = &r.policy_ab[2];
        assert_eq!(long.scenario, "longblock");
        assert!(long.pi.early_inherits > 0, "PI should early-inherit");
        assert!(
            long.srp.ceiling_defers > 0,
            "SRP should defer at the ceiling"
        );
        assert!(long.srp_max_stack_depth >= 1);
    }
}
