//! Schedulability tests with run-time overheads.
//!
//! §5.7 decides feasibility with "workload schedulability tests for
//! CSD, EDF, and RM that take into account run-time overheads"
//! (detailed in the authors' technical report \[36\], which is not
//! available to us). We use the standard exact/safe tests of the
//! real-time literature, with every task's WCET *inflated* by its
//! per-period scheduler overhead from [`crate::overhead`]:
//!
//! - **EDF** (implicit deadlines): `U' ≤ 1`, exact.
//! - **RM**: response-time analysis, exact for fixed priorities.
//! - **CSD**: hierarchical bands — EDF inside each DP queue, queues
//!   (and the FP queue below them) in fixed priority order. Each EDF
//!   band is checked with a processor-demand test against the
//!   request-bound interference of all higher bands; FP tasks are
//!   checked with RTA against all DP tasks plus higher-priority FP
//!   tasks. The band test is *safe* (sufficient): it never accepts a
//!   workload that would miss deadlines (validated against the kernel
//!   simulator in the integration tests).

use emeralds_sim::Duration;

/// A task as seen by the tests: WCET already inflated with overhead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InflatedTask {
    pub period: Duration,
    pub deadline: Duration,
    /// WCET + per-period scheduler overhead.
    pub cost: Duration,
}

impl InflatedTask {
    /// Builds an inflated task.
    pub fn new(period: Duration, deadline: Duration, cost: Duration) -> Self {
        InflatedTask {
            period,
            deadline,
            cost,
        }
    }

    fn utilization(&self) -> f64 {
        self.cost.ratio(self.period)
    }
}

/// Outcome of a schedulability test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TestOutcome {
    /// Provably meets all deadlines.
    Schedulable,
    /// Provably (or by the safe test) misses a deadline.
    Unschedulable,
    /// The analysis exceeded its bounds (e.g. unbounded busy period at
    /// U → 1). Consumers must treat this conservatively, as
    /// unschedulable.
    Undecided,
}

/// One CSD priority band.
#[derive(Clone, Debug)]
pub struct Band<'a> {
    /// True for an EDF (DP) band, false for the RM (FP) band.
    pub edf: bool,
    /// The band's tasks. For an RM band they must be in priority
    /// (shortest-period-first) order.
    pub tasks: &'a [InflatedTask],
}

/// Caps that keep the pseudo-polynomial analyses bounded.
#[derive(Clone, Copy, Debug)]
pub struct AnalysisLimits {
    /// Longest busy period / response time the analysis will explore.
    pub horizon: Duration,
    /// Maximum number of demand test points per band.
    pub max_points: usize,
}

impl Default for AnalysisLimits {
    fn default() -> Self {
        AnalysisLimits {
            horizon: Duration::from_secs(30),
            max_points: 200_000,
        }
    }
}

/// Exact EDF test: `U ≤ 1` for implicit deadlines; processor-demand
/// analysis when some deadline is shorter than its period.
pub fn edf_test(tasks: &[InflatedTask]) -> TestOutcome {
    edf_test_with(tasks, AnalysisLimits::default())
}

/// [`edf_test`] with explicit analysis limits.
pub fn edf_test_with(tasks: &[InflatedTask], limits: AnalysisLimits) -> TestOutcome {
    if tasks.is_empty() {
        return TestOutcome::Schedulable;
    }
    if tasks.iter().any(|t| t.cost > t.deadline) {
        return TestOutcome::Unschedulable;
    }
    let u: f64 = tasks.iter().map(InflatedTask::utilization).sum();
    if u > 1.0 {
        return TestOutcome::Unschedulable;
    }
    if tasks.iter().all(|t| t.deadline == t.period) {
        // Liu & Layland: U ≤ 1 is exact for implicit deadlines.
        return TestOutcome::Schedulable;
    }
    edf_band_test(tasks, &[], limits)
}

/// Exact RM (fixed-priority) response-time analysis. `tasks` must be
/// in priority order, highest first.
pub fn rm_test(tasks: &[InflatedTask]) -> TestOutcome {
    rm_test_with(tasks, AnalysisLimits::default())
}

/// [`rm_test`] with explicit analysis limits.
pub fn rm_test_with(tasks: &[InflatedTask], limits: AnalysisLimits) -> TestOutcome {
    for (i, t) in tasks.iter().enumerate() {
        match response_time(t, &tasks[..i], &[], limits) {
            ResponseTime::Within => {}
            ResponseTime::Misses => return TestOutcome::Unschedulable,
            ResponseTime::Overflow => return TestOutcome::Undecided,
        }
    }
    TestOutcome::Schedulable
}

/// The hierarchical CSD test over priority-ordered `bands` (highest
/// first; the conventional layout is DP1, DP2, …, FP last).
pub fn csd_test(bands: &[Band<'_>]) -> TestOutcome {
    csd_test_with(bands, AnalysisLimits::default())
}

/// [`csd_test`] with explicit analysis limits.
pub fn csd_test_with(bands: &[Band<'_>], limits: AnalysisLimits) -> TestOutcome {
    let mut higher: Vec<InflatedTask> = Vec::new();
    for band in bands {
        let outcome = if band.edf {
            if higher.is_empty() && band.tasks.iter().all(|t| t.deadline == t.period) {
                edf_test_with(band.tasks, limits)
            } else {
                edf_band_test(band.tasks, &higher, limits)
            }
        } else {
            rm_band_test(band.tasks, &higher, limits)
        };
        if outcome != TestOutcome::Schedulable {
            return outcome;
        }
        higher.extend_from_slice(band.tasks);
    }
    TestOutcome::Schedulable
}

/// Request-bound function: worst-case demand of jobs of `t` *released*
/// in `[0, l)`.
fn rbf(t: &InflatedTask, l: Duration) -> Duration {
    if l.is_zero() {
        return Duration::ZERO;
    }
    // ceil(l / P) releases.
    let releases = l.as_ns().div_ceil(t.period.as_ns());
    t.cost * releases
}

/// Demand-bound function: worst-case demand of jobs of `t` with both
/// release and deadline inside `[0, l]`.
fn dbf(t: &InflatedTask, l: Duration) -> Duration {
    if l < t.deadline {
        return Duration::ZERO;
    }
    let k = (l - t.deadline) / t.period + 1;
    t.cost * k
}

/// Processor-demand test of an EDF band under higher-band interference:
/// for every absolute deadline `L` of the band up to the busy period,
/// `Σ_own dbf(L) + Σ_higher rbf(L) ≤ L`.
fn edf_band_test(
    own: &[InflatedTask],
    higher: &[InflatedTask],
    limits: AnalysisLimits,
) -> TestOutcome {
    if own.is_empty() {
        return TestOutcome::Schedulable;
    }
    if own.iter().any(|t| t.cost > t.deadline) {
        return TestOutcome::Unschedulable;
    }
    let u: f64 = own
        .iter()
        .chain(higher.iter())
        .map(InflatedTask::utilization)
        .sum();
    if u > 1.0 {
        return TestOutcome::Unschedulable;
    }
    // Synchronous busy period of own + higher: fixed point of
    // W = Σ rbf(W).
    let mut w: Duration = own.iter().chain(higher.iter()).map(|t| t.cost).sum();
    let mut iters = 0u32;
    let busy = loop {
        iters += 1;
        if iters > 10_000 {
            return TestOutcome::Undecided;
        }
        if w > limits.horizon {
            // The busy period did not converge within the horizon
            // (typically U → 1). Claiming schedulability after a
            // truncated check would be unsound.
            return TestOutcome::Undecided;
        }
        let next: Duration = own.iter().chain(higher.iter()).map(|t| rbf(t, w)).sum();
        if next == w {
            break w;
        }
        w = next;
    };
    // Check every absolute deadline of `own` in (0, busy].
    let mut points = 0usize;
    for t in own {
        let mut d = t.deadline;
        while d <= busy {
            points += 1;
            if points > limits.max_points {
                return TestOutcome::Undecided;
            }
            let demand: Duration = own.iter().map(|x| dbf(x, d)).sum::<Duration>()
                + higher.iter().map(|x| rbf(x, d)).sum::<Duration>();
            if demand > d {
                return TestOutcome::Unschedulable;
            }
            d += t.period;
        }
    }
    TestOutcome::Schedulable
}

/// RTA of an RM band under higher-band interference.
fn rm_band_test(
    own: &[InflatedTask],
    higher: &[InflatedTask],
    limits: AnalysisLimits,
) -> TestOutcome {
    for (i, t) in own.iter().enumerate() {
        match response_time(t, &own[..i], higher, limits) {
            ResponseTime::Within => {}
            ResponseTime::Misses => return TestOutcome::Unschedulable,
            ResponseTime::Overflow => return TestOutcome::Undecided,
        }
    }
    TestOutcome::Schedulable
}

enum ResponseTime {
    Within,
    Misses,
    Overflow,
}

/// Classic response-time iteration:
/// `R = C + Σ_{j ∈ hp} ⌈R / P_j⌉ C_j`.
fn response_time(
    t: &InflatedTask,
    hp_a: &[InflatedTask],
    hp_b: &[InflatedTask],
    limits: AnalysisLimits,
) -> ResponseTime {
    let mut r = t.cost;
    let mut iters = 0u32;
    loop {
        iters += 1;
        if iters > 10_000 {
            return ResponseTime::Overflow;
        }
        if r > t.deadline {
            return ResponseTime::Misses;
        }
        if r > limits.horizon {
            return ResponseTime::Overflow;
        }
        let next = t.cost
            + hp_a.iter().map(|x| rbf(x, r)).sum::<Duration>()
            + hp_b.iter().map(|x| rbf(x, r)).sum::<Duration>();
        if next == r {
            return ResponseTime::Within;
        }
        r = next;
    }
}

// --- Stack Resource Policy: offline ceiling computation (§SRP) ---
//
// The rival to the paper's run-time priority-inheritance protocol:
// compute a static *ceiling* per resource from the task/resource graph
// (which tasks lock which resources), prove the graph free of the
// shapes that could deadlock or block unboundedly, and let the kernel
// enforce a single system-ceiling stack at run time. Everything here
// is policy-agnostic graph analysis — the kernel hands us abstract
// lock/unlock/block event sequences, one per task, and gets back
// either the ceiling table or a typed rejection.

/// One abstract locking-relevant step of a task body, in program
/// order. Produced by the kernel builder from a task's action script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SrpEvent {
    /// The task locks resource `r` (and holds it until the matching
    /// release).
    Acquire(usize),
    /// The task unlocks resource `r`.
    Release(usize),
    /// The task makes a blocking call that is *not* a resource
    /// acquisition (event wait, sleep, IPC receive, ...).
    Block,
}

/// One task's locking profile: its preemption level and the ordered
/// locking-relevant events of one job/iteration of its body.
#[derive(Clone, Debug)]
pub struct SrpTaskProfile {
    /// Static preemption level; **lower value = higher level** (the
    /// RM/DM rank order, which is also the relative-deadline order the
    /// SRP admission test needs under EDF).
    pub level: u32,
    /// Locking events in program order.
    pub events: Vec<SrpEvent>,
}

/// Why an SRP resource graph was rejected at configuration time.
/// Every variant names the offending task/resource indices so the
/// builder can map them back to names and ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SrpGraphError {
    /// A task acquires a resource it already holds: guaranteed
    /// self-deadlock under single-owner locking.
    AcquireWhileHeld { task: usize, resource: usize },
    /// A task releases a resource it does not hold.
    ReleaseNotHeld { task: usize, resource: usize },
    /// Releases are not properly nested (LIFO): the system-ceiling
    /// stack requires critical sections to nest like a stack.
    NonNestedRelease { task: usize, resource: usize },
    /// A job ends (or a loop iteration wraps) still holding a
    /// resource: the critical section is unbounded.
    HeldAtEnd { task: usize, resource: usize },
    /// A task makes a non-lock blocking call while holding a resource:
    /// under SRP a job must run to release without self-suspending, or
    /// the single-blocking bound is lost.
    BlockWhileHolding { task: usize, holding: usize },
    /// The resource order graph has a cycle (some task acquires `b`
    /// while holding `a` and, transitively, vice versa): deadlock-prone
    /// under any policy that does not serialize the whole cycle.
    LockOrderCycle { resources: Vec<usize> },
}

impl core::fmt::Display for SrpGraphError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SrpGraphError::AcquireWhileHeld { task, resource } => write!(
                f,
                "SRP: task {task} acquires resource {resource} while already holding it"
            ),
            SrpGraphError::ReleaseNotHeld { task, resource } => write!(
                f,
                "SRP: task {task} releases resource {resource} it does not hold"
            ),
            SrpGraphError::NonNestedRelease { task, resource } => write!(
                f,
                "SRP: task {task} releases resource {resource} out of nesting (LIFO) order"
            ),
            SrpGraphError::HeldAtEnd { task, resource } => write!(
                f,
                "SRP: task {task} ends its job still holding resource {resource}"
            ),
            SrpGraphError::BlockWhileHolding { task, holding } => write!(
                f,
                "SRP: task {task} makes a blocking call while holding resource {holding}"
            ),
            SrpGraphError::LockOrderCycle { resources } => {
                write!(f, "SRP: resource lock-order cycle: ")?;
                for (i, r) in resources.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{r}")?;
                }
                Ok(())
            }
        }
    }
}

/// Computes the SRP ceiling table for `resources` resources from the
/// task profiles, validating the graph on the way.
///
/// The ceiling of a resource is the **minimum** preemption-level value
/// (= highest level) among the tasks that acquire it; `None` for a
/// resource no task acquires. Rejections are typed ([`SrpGraphError`])
/// and cover exactly the shapes that would break the SRP guarantees:
/// improper nesting, self-deadlock, blocking inside a critical
/// section, and lock-order cycles.
pub fn srp_ceilings(
    resources: usize,
    tasks: &[SrpTaskProfile],
) -> Result<Vec<Option<u32>>, SrpGraphError> {
    let mut ceilings: Vec<Option<u32>> = vec![None; resources];
    // Resource order edges: `order[a]` holds every `b` some task
    // acquires while holding `a`.
    let mut order: Vec<Vec<usize>> = vec![Vec::new(); resources];
    for (ti, t) in tasks.iter().enumerate() {
        let mut held: Vec<usize> = Vec::new();
        for ev in &t.events {
            match *ev {
                SrpEvent::Acquire(r) => {
                    if held.contains(&r) {
                        return Err(SrpGraphError::AcquireWhileHeld {
                            task: ti,
                            resource: r,
                        });
                    }
                    for &h in &held {
                        if !order[h].contains(&r) {
                            order[h].push(r);
                        }
                    }
                    held.push(r);
                    let c = ceilings[r].get_or_insert(t.level);
                    *c = (*c).min(t.level);
                }
                SrpEvent::Release(r) => match held.last() {
                    Some(&top) if top == r => {
                        held.pop();
                    }
                    Some(_) if held.contains(&r) => {
                        return Err(SrpGraphError::NonNestedRelease {
                            task: ti,
                            resource: r,
                        });
                    }
                    _ => {
                        return Err(SrpGraphError::ReleaseNotHeld {
                            task: ti,
                            resource: r,
                        });
                    }
                },
                SrpEvent::Block => {
                    if let Some(&h) = held.first() {
                        return Err(SrpGraphError::BlockWhileHolding {
                            task: ti,
                            holding: h,
                        });
                    }
                }
            }
        }
        if let Some(&h) = held.first() {
            return Err(SrpGraphError::HeldAtEnd {
                task: ti,
                resource: h,
            });
        }
    }
    if let Some(cycle) = find_cycle(&order) {
        return Err(SrpGraphError::LockOrderCycle { resources: cycle });
    }
    Ok(ceilings)
}

/// Finds one cycle in the resource order graph (iterative DFS with
/// three-color marking); returns the cycle path closed on itself.
fn find_cycle(order: &[Vec<usize>]) -> Option<Vec<usize>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut mark = vec![Mark::White; order.len()];
    let mut path: Vec<usize> = Vec::new();
    for start in 0..order.len() {
        if mark[start] != Mark::White {
            continue;
        }
        // Stack of (node, next edge index to try).
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        mark[start] = Mark::Grey;
        path.push(start);
        while let Some(&mut (node, ref mut edge)) = stack.last_mut() {
            if let Some(&next) = order[node].get(*edge) {
                *edge += 1;
                match mark[next] {
                    Mark::Grey => {
                        // Cycle: slice the current path from `next`.
                        let from = path.iter().position(|&n| n == next).expect("grey on path");
                        let mut cycle: Vec<usize> = path[from..].to_vec();
                        cycle.push(next);
                        return Some(cycle);
                    }
                    Mark::White => {
                        mark[next] = Mark::Grey;
                        path.push(next);
                        stack.push((next, 0));
                    }
                    Mark::Black => {}
                }
            } else {
                mark[node] = Mark::Black;
                path.pop();
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(period_ms: u64, cost_us: u64) -> InflatedTask {
        InflatedTask::new(
            Duration::from_ms(period_ms),
            Duration::from_ms(period_ms),
            Duration::from_us(cost_us),
        )
    }

    #[test]
    fn edf_accepts_full_utilization() {
        // U = 1.0 exactly.
        let ts = [t(10, 5_000), t(20, 10_000)];
        assert_eq!(edf_test(&ts), TestOutcome::Schedulable);
    }

    #[test]
    fn edf_rejects_over_utilization() {
        let ts = [t(10, 6_000), t(20, 10_000)];
        assert_eq!(edf_test(&ts), TestOutcome::Unschedulable);
    }

    #[test]
    fn edf_empty_set_schedulable() {
        assert_eq!(edf_test(&[]), TestOutcome::Schedulable);
    }

    #[test]
    fn rm_accepts_harmonic_full_utilization() {
        // Harmonic periods schedule to U = 1 under RM.
        let ts = [t(10, 5_000), t(20, 10_000)];
        assert_eq!(rm_test(&ts), TestOutcome::Schedulable);
    }

    #[test]
    fn rm_rejects_classic_nonharmonic_case() {
        // Two tasks, U ≈ 0.97 > 2(√2−1) with non-harmonic periods:
        // τ1 = (5ms, 2.5ms), τ2 = (7ms, 3.3ms). RTA: R2 = 3.3 + 2·2.5
        // = 8.3 > 7.
        let ts = [t(5, 2_500), t(7, 3_300)];
        assert_eq!(rm_test(&ts), TestOutcome::Unschedulable);
        assert_eq!(edf_test(&ts), TestOutcome::Schedulable);
    }

    #[test]
    fn rm_exactness_on_boundary_case() {
        // τ1 = (4, 1), τ2 = (6, 2), τ3 = (12, 3): R3 = 3 + 3·1 + 2·2
        // = 10 ≤ 12 → schedulable at U = 0.25+0.333+0.25 = 0.833.
        let ts = [t(4, 1_000), t(6, 2_000), t(12, 3_000)];
        assert_eq!(rm_test(&ts), TestOutcome::Schedulable);
    }

    /// The paper's Table 2 situation: the workload is feasible under
    /// EDF but the "troublesome" long-period task misses under RM.
    #[test]
    fn table2_like_workload_feasible_edf_not_rm() {
        let ts = [
            t(4, 1_000),
            t(5, 1_000),
            t(6, 1_000),
            t(7, 900),
            t(9, 300),
            t(50, 2_200),
            t(60, 1_600),
            t(100, 1_500),
            t(200, 2_000),
            t(400, 2_200),
        ];
        let u: f64 = ts.iter().map(|x| x.cost.ratio(x.period)).sum();
        assert!((u - 0.88).abs() < 0.01, "U = {u}");
        assert_eq!(edf_test(&ts), TestOutcome::Schedulable);
        assert_eq!(rm_test(&ts), TestOutcome::Unschedulable);
    }

    #[test]
    fn csd_bands_beat_pure_rm_on_table2_workload() {
        // DP band takes the five short-period tasks (EDF), FP band the
        // long ones: feasible, while pure RM is not.
        let all = [
            t(4, 1_000),
            t(5, 1_000),
            t(6, 1_000),
            t(7, 900),
            t(9, 300),
            t(50, 2_200),
            t(60, 1_600),
            t(100, 1_500),
            t(200, 2_000),
            t(400, 2_200),
        ];
        let bands = [
            Band {
                edf: true,
                tasks: &all[..5],
            },
            Band {
                edf: false,
                tasks: &all[5..],
            },
        ];
        assert_eq!(csd_test(&bands), TestOutcome::Schedulable);
    }

    #[test]
    fn csd_single_edf_band_equals_edf_test() {
        let ts = [t(10, 5_000), t(20, 10_000)];
        let bands = [Band {
            edf: true,
            tasks: &ts,
        }];
        assert_eq!(csd_test(&bands), edf_test(&ts));
    }

    #[test]
    fn csd_detects_lower_band_starvation() {
        // DP band hogs the CPU; FP task can't fit.
        let dp = [t(2, 1_900)];
        let fp = [t(10, 2_000)];
        let bands = [
            Band {
                edf: true,
                tasks: &dp,
            },
            Band {
                edf: false,
                tasks: &fp,
            },
        ];
        assert_eq!(csd_test(&bands), TestOutcome::Unschedulable);
    }

    #[test]
    fn csd_multiple_dp_bands() {
        let dp1 = [t(5, 1_000)];
        let dp2 = [t(10, 2_000)];
        let fp = [t(100, 10_000)];
        let bands = [
            Band {
                edf: true,
                tasks: &dp1,
            },
            Band {
                edf: true,
                tasks: &dp2,
            },
            Band {
                edf: false,
                tasks: &fp,
            },
        ];
        assert_eq!(csd_test(&bands), TestOutcome::Schedulable);
    }

    #[test]
    fn constrained_deadline_edf_uses_demand_analysis() {
        // Deadline < period: U < 1 but density over 1 at the deadline.
        let tight = InflatedTask::new(
            Duration::from_ms(10),
            Duration::from_ms(2),
            Duration::from_ms(3),
        );
        assert_eq!(edf_test(&[tight]), TestOutcome::Unschedulable);
        let ok = InflatedTask::new(
            Duration::from_ms(10),
            Duration::from_ms(5),
            Duration::from_ms(3),
        );
        assert_eq!(edf_test(&[ok]), TestOutcome::Schedulable);
    }

    #[test]
    fn rbf_and_dbf_shapes() {
        let x = t(10, 2_000);
        assert_eq!(rbf(&x, Duration::ZERO), Duration::ZERO);
        assert_eq!(rbf(&x, Duration::from_ms(1)), Duration::from_us(2_000));
        assert_eq!(rbf(&x, Duration::from_ms(10)), Duration::from_us(2_000));
        assert_eq!(rbf(&x, Duration::from_ms(11)), Duration::from_us(4_000));
        assert_eq!(dbf(&x, Duration::from_ms(9)), Duration::ZERO);
        assert_eq!(dbf(&x, Duration::from_ms(10)), Duration::from_us(2_000));
        assert_eq!(dbf(&x, Duration::from_ms(20)), Duration::from_us(4_000));
    }

    #[test]
    fn undecided_when_busy_period_exceeds_horizon() {
        // Constrained deadlines force the demand path; U extremely
        // close to 1 with a tiny horizon exhausts the analysis.
        let a = InflatedTask::new(
            Duration::from_ms(3),
            Duration::from_ms(2),
            Duration::from_us(1_999),
        );
        let b = InflatedTask::new(
            Duration::from_ms(9),
            Duration::from_ms(9),
            Duration::from_us(2_999),
        );
        let limits = AnalysisLimits {
            horizon: Duration::from_ms(1),
            max_points: 10,
        };
        let out = edf_test_with(&[a, b], limits);
        assert_ne!(out, TestOutcome::Schedulable);
    }

    // --- SRP ceiling analysis ---

    use SrpEvent::{Acquire, Block, Release};

    fn profile(level: u32, events: Vec<SrpEvent>) -> SrpTaskProfile {
        SrpTaskProfile { level, events }
    }

    #[test]
    fn ceilings_are_min_level_of_users() {
        let tasks = [
            profile(0, vec![Acquire(0), Release(0)]),
            profile(2, vec![Acquire(0), Release(0), Acquire(1), Release(1)]),
            profile(5, vec![Acquire(1), Release(1)]),
        ];
        let c = srp_ceilings(3, &tasks).unwrap();
        assert_eq!(c, vec![Some(0), Some(2), None]);
    }

    #[test]
    fn nested_sections_allowed_when_lifo() {
        let tasks = [profile(
            1,
            vec![Acquire(0), Acquire(1), Release(1), Release(0)],
        )];
        let c = srp_ceilings(2, &tasks).unwrap();
        assert_eq!(c, vec![Some(1), Some(1)]);
    }

    #[test]
    fn non_lifo_release_rejected() {
        let tasks = [profile(
            1,
            vec![Acquire(0), Acquire(1), Release(0), Release(1)],
        )];
        assert_eq!(
            srp_ceilings(2, &tasks),
            Err(SrpGraphError::NonNestedRelease {
                task: 0,
                resource: 0
            })
        );
    }

    #[test]
    fn self_deadlock_rejected() {
        let tasks = [profile(0, vec![Acquire(0), Acquire(0)])];
        assert_eq!(
            srp_ceilings(1, &tasks),
            Err(SrpGraphError::AcquireWhileHeld {
                task: 0,
                resource: 0
            })
        );
    }

    #[test]
    fn release_without_hold_rejected() {
        let tasks = [profile(0, vec![Release(0)])];
        assert_eq!(
            srp_ceilings(1, &tasks),
            Err(SrpGraphError::ReleaseNotHeld {
                task: 0,
                resource: 0
            })
        );
    }

    #[test]
    fn held_at_job_end_rejected() {
        let tasks = [profile(0, vec![Acquire(0)])];
        assert_eq!(
            srp_ceilings(1, &tasks),
            Err(SrpGraphError::HeldAtEnd {
                task: 0,
                resource: 0
            })
        );
    }

    #[test]
    fn blocking_inside_critical_section_rejected() {
        let tasks = [profile(0, vec![Acquire(0), Block, Release(0)])];
        assert_eq!(
            srp_ceilings(1, &tasks),
            Err(SrpGraphError::BlockWhileHolding {
                task: 0,
                holding: 0
            })
        );
    }

    #[test]
    fn lock_order_cycle_rejected() {
        // Task 0: A then B nested; task 1: B then A nested — the
        // classic deadlock-prone shape.
        let tasks = [
            profile(0, vec![Acquire(0), Acquire(1), Release(1), Release(0)]),
            profile(1, vec![Acquire(1), Acquire(0), Release(0), Release(1)]),
        ];
        let err = srp_ceilings(2, &tasks).unwrap_err();
        let SrpGraphError::LockOrderCycle { resources } = err else {
            panic!("expected cycle, got {err:?}");
        };
        // The cycle closes on itself and visits both resources.
        assert_eq!(resources.first(), resources.last());
        assert!(resources.contains(&0) && resources.contains(&1));
    }

    #[test]
    fn three_resource_cycle_found_through_chain() {
        // 0 -> 1 (task 0), 1 -> 2 (task 1), 2 -> 0 (task 2).
        let tasks = [
            profile(0, vec![Acquire(0), Acquire(1), Release(1), Release(0)]),
            profile(1, vec![Acquire(1), Acquire(2), Release(2), Release(1)]),
            profile(2, vec![Acquire(2), Acquire(0), Release(0), Release(2)]),
        ];
        assert!(matches!(
            srp_ceilings(3, &tasks),
            Err(SrpGraphError::LockOrderCycle { .. })
        ));
    }

    #[test]
    fn blocking_outside_critical_sections_is_fine() {
        let tasks = [profile(3, vec![Block, Acquire(0), Release(0), Block])];
        assert_eq!(srp_ceilings(1, &tasks).unwrap(), vec![Some(3)]);
    }

    #[test]
    fn graph_error_display_is_descriptive() {
        let e = SrpGraphError::BlockWhileHolding {
            task: 4,
            holding: 2,
        };
        assert!(e.to_string().contains("task 4"));
        assert!(e.to_string().contains("holding resource 2"));
        let c = SrpGraphError::LockOrderCycle {
            resources: vec![0, 1, 0],
        };
        assert_eq!(c.to_string(), "SRP: resource lock-order cycle: 0 -> 1 -> 0");
    }
}
