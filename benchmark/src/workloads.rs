//! The five workloads: how each is built through the repository's
//! public build functions, advanced one slice at a time, and read back.

use std::time::Instant;

use emeralds_bench::faults_expt::{self, FaultLevel, FaultParams};
use emeralds_bench::{scale_expt, topo_expt};
use emeralds_core::kernel::{ClusterMetrics, NodeFaultSummary, NodeMetrics};
use emeralds_core::tcb::Timing;
use emeralds_core::{
    Action, Kernel, KernelBuilder, KernelConfig, Operand, SchedPolicy, Script, SemScheme,
};
use emeralds_fieldbus::{BusStats, Cluster, GatewayId, SegmentId, Topology};
use emeralds_hal::CostModel;
use emeralds_sched::analysis::AnalysisLimits;
use emeralds_sched::partition::find_partition;
use emeralds_sched::{OverheadModel, SearchStrategy, TaskSet, WorkloadParams};
use emeralds_sim::{Duration, NodeId, SimRng, StateId, ThreadId, Time, TwoLevelStats};

/// One workload's fixed shape.
pub struct Spec {
    pub name: &'static str,
    /// Virtual length of one closed-loop step: the load loop advances the
    /// simulation by one slice and waits for the call to return.
    pub slice: Duration,
    /// Simulated ms per wall second this workload ran at on the
    /// reference host (2-core x86-64 VM). It sizes the virtual horizon
    /// so that a run times about `--seconds` of wall there; the horizon
    /// then stays fixed, so every virtual metric is a function of the
    /// seed and `--seconds` alone.
    pub nominal_rate: f64,
}

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "kernel_solo",
        slice: Duration::from_ms(10),
        nominal_rate: 17_000.0,
    },
    Spec {
        name: "sc_busy",
        slice: Duration::from_ms(10),
        nominal_rate: 5_600.0,
    },
    Spec {
        name: "sc_quiet",
        slice: Duration::from_ms(50),
        nominal_rate: 165_000.0,
    },
    Spec {
        name: "ft_corrupt",
        slice: Duration::from_ms(10),
        nominal_rate: 4_800.0,
    },
    Spec {
        name: "topo_plant10k",
        slice: Duration::from_ms(1),
        nominal_rate: 115.0,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// Cluster size of the SC and FT workloads.
const CLUSTER_NODES: usize = 64;
/// Independent boards of `kernel_solo`.
const SOLO_BOARDS: usize = 64;
/// Tasks per `kernel_solo` board.
const SOLO_TASKS: usize = 24;
/// Utilization the §5.7 generator normalises each board's set to,
/// before the CSD-3 admission test adds run-time overhead.
const SOLO_UTILIZATION: f64 = 0.6;
/// Longest critical section of a `kernel_solo` mutex task.
const SOLO_SECTION: Duration = Duration::from_us(50);

/// The `ft_corrupt` fault level: the FT experiment's `storm` per-grant
/// corruption, without its fail-stops and babbling idiots. Those lose
/// frames and deadlines by design (a dead or bus-off node loses its
/// traffic); corruption alone drives error frames and retransmission
/// with no operation failing.
const CORRUPT: FaultLevel = FaultLevel {
    label: "corrupt",
    corruption: 0.05,
    fail_stop_p: 0.0,
    babble_p: 0.0,
};

/// The simulated system under test.
pub enum Sim {
    /// Independent kernels, each advanced directly (no bus).
    Boards(Vec<Kernel>),
    Cluster(Cluster),
    Topo(Topology),
}

/// A freshly built workload plus the wall intervals its set-up spent
/// in offline schedulability analysis.
pub struct Built {
    pub sim: Sim,
    pub analysis: Vec<(Instant, Instant)>,
}

/// Builds `spec` at `seed`. `horizon` is the run's virtual length;
/// only the fault plan of `ft_corrupt` depends on it.
pub fn build(spec: &Spec, seed: u64, horizon: Time) -> Built {
    let mut analysis = Vec::new();
    let sim = match spec.name {
        "kernel_solo" => {
            let mut rng = SimRng::seeded(seed);
            let ovh = OverheadModel::new(CostModel::mc68040_25mhz());
            Sim::Boards(
                (0..SOLO_BOARDS)
                    .map(|b| solo_board(&mut rng.derive(b as u64), &ovh, &mut analysis))
                    .collect(),
            )
        }
        "sc_busy" => Sim::Cluster(scale_expt::build_cluster(CLUSTER_NODES, seed, 1)),
        "sc_quiet" => Sim::Cluster(scale_expt::build_quiet_cluster(CLUSTER_NODES, seed, 1)),
        "ft_corrupt" => {
            let mut c = faults_expt::build_state_cluster(CLUSTER_NODES, seed, 1);
            let params = FaultParams {
                nodes: vec![CLUSTER_NODES],
                levels: vec![CORRUPT],
                horizon,
                seed,
                max_miss_rate: 0.0,
            };
            c.set_fault_plan(&faults_expt::plan_for(&params, CLUSTER_NODES, &CORRUPT));
            Sim::Cluster(c)
        }
        "topo_plant10k" => {
            let row = topo_expt::TopoRow {
                shape: topo_expt::TopoShape::Plant,
                segments: 20,
                nodes: 10_000,
                fault: false,
            };
            // One outer worker: the calibration runs on the driver's
            // thread, so it measures the core the whole run uses. With two
            // workers, contention on the other core reached the run only
            // through the barriers, and no sample saw it.
            let mut t = topo_expt::build_topology(row, horizon, seed, 1);
            // Route tables are built lazily; build them here so they
            // count as set-up, not as the first slice.
            t.first_hop(SegmentId(0), SegmentId(1));
            Sim::Topo(t)
        }
        other => unreachable!("unknown workload {other}"),
    };
    Built { sim, analysis }
}

/// One `kernel_solo` board: a §5.7 task set (periods ÷ 3), drawn again
/// until the exhaustive CSD-3 search admits it, run under the partition
/// it found. Every fourth task takes one of two mutexes, and the
/// shortest-period task publishes a state message the second reads.
fn solo_board(
    rng: &mut SimRng,
    ovh: &OverheadModel,
    analysis: &mut Vec<(Instant, Instant)>,
) -> Kernel {
    let params = WorkloadParams {
        n: SOLO_TASKS,
        period_divisor: 3,
        base_utilization: SOLO_UTILIZATION,
    };
    loop {
        let ts = params.generate(rng);
        let t0 = Instant::now();
        let found = find_partition(
            &ts,
            3,
            ovh,
            &SearchStrategy::Exhaustive,
            AnalysisLimits::default(),
        );
        analysis.push((t0, Instant::now()));
        if let Some(p) = found {
            return solo_kernel(&ts, p.boundaries().to_vec());
        }
    }
}

/// The boards run the standard semaphore scheme. Under the EMERALDS
/// scheme (§6) some sets the CSD-3 test admits miss deadlines: an
/// FP-queue lock holder keeps running after its release while a
/// higher-priority FP task waits, which the standard scheme never does
/// on the same sets. A workload must not fail operations, so the
/// scheme's cost stays out of this one until that is fixed.
fn solo_kernel(ts: &TaskSet, boundaries: Vec<usize>) -> Kernel {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd { boundaries },
        sem_scheme: SemScheme::Standard,
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process("solo");
    let mutexes = [b.add_mutex(), b.add_mutex()];
    let var = StateId(0);
    // Tasks are added in RM order, so the partition's boundaries index
    // the same order the kernel assigns priorities in.
    for (i, t) in ts.tasks().iter().enumerate() {
        let actions = match i {
            0 => vec![
                Action::StateWrite {
                    var,
                    value: Operand::Const(1),
                },
                Action::Compute(t.wcet),
            ],
            1 => vec![Action::StateRead(var), Action::Compute(t.wcet)],
            _ if i % 4 == 3 => {
                let cs = SOLO_SECTION.min(t.wcet / 2);
                let m = mutexes[(i / 4) % 2];
                vec![
                    Action::Compute(t.wcet - cs),
                    Action::AcquireSem(m),
                    Action::Compute(cs),
                    Action::ReleaseSem(m),
                ]
            }
            _ => vec![Action::Compute(t.wcet)],
        };
        b.add_periodic_task(p, format!("t{i}"), t.period, Script::periodic(actions));
    }
    let depth = emeralds_core::ipc::required_depth(ts.task(0).period, ts.task(1).period);
    let added = b.add_state_msg(ThreadId(0), 8, depth, &[p]);
    debug_assert_eq!(added, var);
    b.try_build()
        .expect("a generated board is a valid kernel configuration")
}

impl Sim {
    /// Advances the whole system to `t`.
    pub fn run_to(&mut self, t: Time) {
        match self {
            Sim::Boards(boards) => {
                for k in boards {
                    k.advance_to(t);
                }
            }
            Sim::Cluster(c) => c.run_until(t),
            Sim::Topo(topo) => topo.run_until(t),
        }
    }

    /// Calls `f` on every kernel, in node order.
    pub fn for_each_kernel<'a>(&'a self, mut f: impl FnMut(&'a Kernel)) {
        match self {
            Sim::Boards(boards) => boards.iter().for_each(f),
            Sim::Cluster(c) => c.nodes().iter().for_each(|n| f(&n.kernel)),
            Sim::Topo(t) => (0..t.node_count()).for_each(|i| f(&t.node(NodeId(i as u32)).kernel)),
        }
    }

    /// Context switches so far, summed over kernels (a cheap getter).
    pub fn context_switches(&self) -> u64 {
        let mut n = 0;
        self.for_each_kernel(|k| n += k.trace().context_switch_count());
        n
    }

    /// The executive's cost accounting so far: a single-bus cluster's
    /// engine is reported as `outer`; independent boards have none.
    pub fn engine(&self) -> TwoLevelStats {
        match self {
            Sim::Boards(_) => TwoLevelStats::default(),
            Sim::Cluster(c) => TwoLevelStats {
                outer: *c.exec_stats(),
                ..TwoLevelStats::default()
            },
            Sim::Topo(t) => *t.exec_stats(),
        }
    }

    /// FNV-1a over the node count and every task's release timing: a
    /// fingerprint of the generated inputs that does not depend on what
    /// the kernels do with them.
    pub fn input_digest(&self) -> u64 {
        let mut kernels = Vec::new();
        self.for_each_kernel(|k| kernels.push(k));
        let mut h = Fnv::new();
        h.u64(kernels.len() as u64);
        for k in kernels {
            for i in 0..k.task_count() {
                match k.tcb(ThreadId(i as u32)).timing {
                    Timing::Periodic {
                        period,
                        deadline,
                        phase,
                    } => {
                        h.u64(0);
                        h.u64(period.as_ns());
                        h.u64(deadline.as_ns());
                        h.u64(phase.as_ns());
                    }
                    Timing::EventDriven { rank } => {
                        h.u64(1);
                        h.u64(rank.as_ns());
                    }
                }
            }
        }
        h.finish()
    }

    /// Reads every virtual result at the end of a run. This is the only
    /// place that calls the (allocating) `metrics()` rollups.
    pub fn totals(&self) -> Totals {
        let m = match self {
            Sim::Boards(boards) => ClusterMetrics::from_nodes(
                boards
                    .iter()
                    .map(|k| NodeMetrics {
                        name: "board".into(),
                        metrics: k.metrics(),
                        faults: NodeFaultSummary::default(),
                        segment: None,
                        gateway: None,
                    })
                    .collect(),
            ),
            Sim::Cluster(c) => c.metrics(),
            Sim::Topo(t) => t.metrics(),
        };
        let mut tot = Totals {
            context_switches: m.context_switches,
            jobs_completed: m.jobs_completed,
            deadline_misses: m.deadline_misses,
            syscalls: m.syscalls,
            app_ns: m.app_time.as_ns(),
            idle_ns: m.idle_time.as_ns(),
            overhead_ns: m.total_overhead.as_ns(),
            state_age_mean_ns: m.state_age.mean().as_ns(),
            unrecovered_bus_off: m.unrecovered_bus_off,
            ..Totals::default()
        };
        for n in &m.nodes {
            let c = &n.metrics.counters;
            tot.sem_acquired += c.sem_acquired;
            tot.statemsg_reads += c.statemsg_reads;
            tot.statemsg_retries += c.statemsg_retries;
            tot.irq_dispatched += c.irq_dispatched;
        }
        self.for_each_kernel(|k| {
            let (calls, evals) = k.dispatch_cache_stats();
            let (inserts, walks, expirations) = k.timer_stats();
            tot.select_calls += calls;
            tot.select_evals += evals;
            tot.timer_inserts += inserts;
            tot.timer_insert_walks += walks;
            tot.timer_expirations += expirations;
            tot.sem_fast_acquires += k.sem_fast_acquires();
        });
        let e = self.engine();
        tot.barriers = e.outer.barriers;
        tot.inner_barriers = e.inner.barriers;
        match self {
            Sim::Boards(_) => tot.conserved = true,
            Sim::Cluster(c) => {
                tot.bus = *c.stats();
                tot.bus_utilization = c.bus_utilization();
                tot.conserved = tot.bus.frames_sent
                    == tot.bus.frames_delivered + tot.bus.frames_dropped + tot.bus.frames_in_flight;
            }
            Sim::Topo(t) => {
                tot.bus = t.total_stats();
                let driven = t.now().as_ns() as f64 * t.segment_count() as f64;
                tot.bus_utilization = if driven > 0.0 {
                    tot.bus.busy.as_ns() as f64 / driven
                } else {
                    0.0
                };
                tot.conserved = t.conservation().holds();
                tot.gw_reroutes = t.reroutes();
                for g in 0..t.gateway_count() {
                    let s = t.gateway_stats(GatewayId(g as u32));
                    tot.gw_forwarded += s.forwarded;
                    tot.gw_peak_depth = tot.gw_peak_depth.max(s.peak_depth);
                }
            }
        }
        tot
    }
}

/// Every virtual (simulated, deterministic) result of a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Totals {
    pub context_switches: u64,
    pub jobs_completed: u64,
    pub deadline_misses: u64,
    pub syscalls: u64,
    pub select_calls: u64,
    pub select_evals: u64,
    pub timer_inserts: u64,
    pub timer_insert_walks: u64,
    pub timer_expirations: u64,
    pub sem_acquired: u64,
    pub sem_fast_acquires: u64,
    pub statemsg_reads: u64,
    pub statemsg_retries: u64,
    pub irq_dispatched: u64,
    pub app_ns: u64,
    pub idle_ns: u64,
    pub overhead_ns: u64,
    pub state_age_mean_ns: u64,
    pub unrecovered_bus_off: u64,
    pub bus: BusStats,
    pub bus_utilization: f64,
    /// The frame ledger balances (the broadcast-inclusive one on a
    /// topology).
    pub conserved: bool,
    pub gw_forwarded: u64,
    pub gw_peak_depth: u64,
    pub gw_reroutes: u64,
    /// Single-level engine barriers, or the outer barriers of the
    /// two-level engine.
    pub barriers: u64,
    pub inner_barriers: u64,
}

impl Totals {
    /// Delivery attempts: each addressed frame once, each resolved
    /// broadcast once per listener.
    pub fn frame_attempts(&self) -> u64 {
        self.bus.frames_sent + self.bus.bcast_fanout - self.bus.bcast_resolved
    }

    /// Operations the workload asked the system to perform: jobs run
    /// plus frames sent.
    pub fn ops(&self) -> u64 {
        self.jobs_completed + self.bus.frames_sent
    }

    /// Operations that failed: missed deadlines plus frames dropped
    /// (`frames_dropped` already includes the offline and gateway
    /// losses).
    pub fn ops_failed(&self) -> u64 {
        self.deadline_misses + self.bus.frames_dropped
    }

    /// A fingerprint of every field, for traced-vs-untraced identity.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for b in format!("{self:?}").bytes() {
            h.byte(b);
        }
        h.finish()
    }
}

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }

    pub fn u64(&mut self, v: u64) {
        v.to_le_bytes().into_iter().for_each(|b| self.byte(b));
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
