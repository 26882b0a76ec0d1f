//! Experiment SC — multi-node cluster scaling.
//!
//! Not a paper figure: the paper ran one 25 MHz board. This experiment
//! measures the *reproduction's* single-bus executive
//! ([`emeralds_fieldbus::Cluster`]) on an avionics-style workload: a
//! busy shape (dense sub-millisecond timers) at 8–128 nodes and a quiet
//! shape (sparse periods) at 8–64 nodes, one row per (workload, nodes).
//!
//! Emits `BENCH_scale.json`. Every field in it is virtual or a
//! deterministic work count — bus traffic, kernel counters, barrier
//! crossings, node advances — so a regeneration reproduces the
//! committed file byte for byte, and CI checks exactly that. Host wall
//! time is printed in the table only.

use std::time::Instant;

use emeralds_core::kernel::{KernelBuilder, KernelConfig};
use emeralds_core::script::{Action, Operand, Script};
use emeralds_core::{Kernel, SchedPolicy};
use emeralds_fieldbus::{addressed_tag, Cluster};
use emeralds_sim::{Duration, IrqLine, NodeId, SimRng, StateId, Time};

const NIC_IRQ: IrqLine = IrqLine(2);

/// Experiment shape.
#[derive(Clone, Debug)]
pub struct ScaleParams {
    /// Cluster sizes to sweep with the busy (dense-timer) workload.
    pub nodes: Vec<usize>,
    /// Cluster sizes to sweep with the quiet-bus workload (sparse
    /// periods, so the adaptive lookahead can prove idleness and
    /// stretch epochs — the barrier-collapse showcase).
    pub quiet_nodes: Vec<usize>,
    /// Simulated horizon per run.
    pub horizon: Time,
    /// Workload seed (task periods/compute are jittered per node).
    pub seed: u64,
}

impl ScaleParams {
    /// The committed-baseline sweep: busy 8–128 nodes, quiet 8–64
    /// nodes, 300 ms horizon.
    pub fn full() -> ScaleParams {
        ScaleParams {
            nodes: vec![8, 16, 32, 64, 128],
            quiet_nodes: vec![8, 16, 64],
            horizon: Time::from_ms(300),
            seed: 0x5CA1E,
        }
    }
}

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct ScaleRun {
    /// `"busy"` (dense sub-ms timers: adaptive lookahead cannot
    /// stretch, by design) or `"quiet"` (sparse periods: it must).
    pub workload: &'static str,
    pub nodes: usize,
    /// Host wall-clock of `Cluster::run_until` (the only
    /// non-deterministic field; printed, never serialized).
    pub wall_ms: f64,
    pub sim_ms: f64,
    pub frames_sent: u64,
    pub frames_delivered: u64,
    pub frames_dropped: u64,
    pub bus_utilization: f64,
    pub mean_latency_us: f64,
    pub deadline_misses: u64,
    pub context_switches: u64,
    pub jobs_completed: u64,
    /// Epoch barriers crossed (deterministic: adaptive lookahead
    /// stretches quiet-bus epochs, so fewer barriers = less
    /// synchronization per simulated ms).
    pub barriers: u64,
    /// `barriers / sim_ms` — the executive's synchronization rate.
    pub barriers_per_sim_ms: f64,
    /// Node advances the active-set engine made
    /// ([`Cluster::node_advances`], deterministic): at most `nodes *
    /// barriers`, and the gap is the work it skipped.
    pub node_advances: u64,
}

/// The state message of a `state` board: each board's first, so it
/// has the same id on the sensor and on the consumer.
pub(crate) const STATE_VAR: StateId = StateId(0);

/// A sensor board: samples on a jittered period and sends an addressed
/// frame to its paired consumer, plus filler control tasks that give
/// the executive real kernel work per epoch. With `state`, the sampling
/// task also publishes its reading into [`STATE_VAR`], a §7 state
/// message for the NIC to replicate to the consumer.
fn sensor_node(i: usize, dst: NodeId, state: bool, rng: &mut SimRng) -> Kernel {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![2],
        },
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process(format!("sensor{i}"));
    let nic = b.add_nic(NIC_IRQ, 8, 8);
    let period = Duration::from_us(rng.int_in(8_000, 12_000));
    let mut job = vec![Action::Compute(Duration::from_us(rng.int_in(80, 200)))];
    if state {
        job.push(Action::StateWrite {
            var: STATE_VAR,
            value: Operand::Const(i as u32),
        });
    }
    job.push(Action::SendMbox {
        mbox: nic.tx,
        bytes: 8,
        tag: addressed_tag(Some(dst), i as u32),
    });
    let sample = b.add_periodic_task(p, "sample", period, Script::periodic(job));
    if state {
        assert_eq!(b.add_state_msg(sample, 8, 3, &[]), STATE_VAR);
    }
    for f in 0..8 {
        let period = Duration::from_us(rng.int_in(500, 1_000));
        b.add_periodic_task(
            p,
            format!("ctl{f}"),
            period,
            Script::compute_only(Duration::from_us(rng.int_in(18, 40))),
        );
    }
    b.add_driver_task(
        p,
        "nicdrv",
        Duration::from_ms(2),
        Script::looping(vec![
            Action::RecvMbox(nic.rx),
            Action::Compute(Duration::from_us(20)),
        ]),
    );
    b.build()
}

/// A consumer board: IRQ-driven NIC driver feeding a control law, plus
/// filler tasks. With `state`, the 10 ms control law first reads
/// [`STATE_VAR`], the NIC-fed replica of its sensor's state message,
/// recording the end-to-end data age of every sample it consumes.
fn consumer_node(i: usize, state: bool, rng: &mut SimRng) -> Kernel {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![2],
        },
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process(format!("consumer{i}"));
    let nic = b.add_nic(NIC_IRQ, 8, 16);
    let mut law = Vec::new();
    if state {
        assert_eq!(b.add_state_replica(p, 8, 3, &[]), STATE_VAR);
        law.push(Action::StateRead(STATE_VAR));
    }
    b.add_driver_task(
        p,
        "nicdrv",
        Duration::from_ms(2),
        Script::looping(vec![
            Action::RecvMbox(nic.rx),
            Action::Compute(Duration::from_us(rng.int_in(60, 140))),
        ]),
    );
    law.push(Action::Compute(Duration::from_us(rng.int_in(600, 1_100))));
    b.add_periodic_task(p, "law", Duration::from_ms(10), Script::periodic(law));
    for f in 0..8 {
        let period = Duration::from_us(rng.int_in(500, 1_000));
        b.add_periodic_task(
            p,
            format!("ctl{f}"),
            period,
            Script::compute_only(Duration::from_us(rng.int_in(18, 40))),
        );
    }
    b.build()
}

/// Builds the n-node workload: the first half are sensors, each paired
/// with a consumer in the second half (sensor *i* → consumer *n/2+i*).
/// `_workers` is ignored: a single bus runs on the calling thread.
///
/// # Panics
///
/// Panics when `n < 2` or `n` is odd.
pub fn build_cluster(n: usize, seed: u64, _workers: usize) -> Cluster {
    build_pairs(n, seed, false)
}

/// [`build_cluster`]'s sensor → consumer pairs, each pair with a
/// state message when `state` is set.
///
/// # Panics
///
/// Panics when `n < 2` or `n` is odd.
pub(crate) fn build_pairs(n: usize, seed: u64, state: bool) -> Cluster {
    assert!(
        n >= 2 && n.is_multiple_of(2),
        "node count must be even and >= 2"
    );
    let mut rng = SimRng::seeded(seed);
    let mut c = Cluster::new(1_000_000);
    let half = n / 2;
    for i in 0..half {
        let mut node_rng = rng.derive(i as u64);
        let dst = NodeId((half + i) as u32);
        let k = sensor_node(i, dst, state, &mut node_rng);
        c.add_node(format!("sensor{i}"), k, (i + 1) as u32);
    }
    for i in 0..half {
        let mut node_rng = rng.derive((half + i) as u64);
        let k = consumer_node(i, state, &mut node_rng);
        c.add_node(format!("consumer{i}"), k, (half + i + 1) as u32);
    }
    c
}

/// A quiet sensor board: one sparse sampling task (60–100 ms) and the
/// event-driven NIC driver, nothing else. With no sub-millisecond
/// timers anywhere, the executive can prove long idle stretches and
/// collapse barriers — this workload exists to measure that.
fn quiet_sensor_node(i: usize, dst: NodeId, rng: &mut SimRng) -> Kernel {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![1],
        },
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process(format!("qsensor{i}"));
    let nic = b.add_nic(NIC_IRQ, 8, 8);
    b.add_periodic_task(
        p,
        "sample",
        Duration::from_us(rng.int_in(60_000, 100_000)),
        Script::periodic(vec![
            Action::Compute(Duration::from_us(rng.int_in(80, 200))),
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
            Action::RecvMbox(nic.rx),
            Action::Compute(Duration::from_us(20)),
        ]),
    );
    b.build()
}

/// A quiet consumer board: NIC driver plus one sparse control law.
fn quiet_consumer_node(i: usize, rng: &mut SimRng) -> Kernel {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![1],
        },
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process(format!("qconsumer{i}"));
    let nic = b.add_nic(NIC_IRQ, 8, 16);
    b.add_driver_task(
        p,
        "nicdrv",
        Duration::from_ms(5),
        Script::looping(vec![
            Action::RecvMbox(nic.rx),
            Action::Compute(Duration::from_us(rng.int_in(60, 140))),
        ]),
    );
    b.add_periodic_task(
        p,
        "law",
        Duration::from_us(rng.int_in(60_000, 90_000)),
        Script::compute_only(Duration::from_us(rng.int_in(300, 600))),
    );
    b.build()
}

/// The quiet-bus counterpart of [`build_cluster`]: same sensor→consumer
/// pairing, sparse periods throughout. `_workers` is ignored.
///
/// # Panics
///
/// Panics when `n < 2` or `n` is odd.
pub fn build_quiet_cluster(n: usize, seed: u64, _workers: usize) -> Cluster {
    assert!(
        n >= 2 && n.is_multiple_of(2),
        "node count must be even and >= 2"
    );
    let mut rng = SimRng::seeded(seed ^ 0x9_1E7);
    let mut c = Cluster::new(1_000_000);
    let half = n / 2;
    for i in 0..half {
        let mut node_rng = rng.derive(i as u64);
        let dst = NodeId((half + i) as u32);
        let k = quiet_sensor_node(i, dst, &mut node_rng);
        c.add_node(format!("qsensor{i}"), k, (i + 1) as u32);
    }
    for i in 0..half {
        let mut node_rng = rng.derive((half + i) as u64);
        let k = quiet_consumer_node(i, &mut node_rng);
        c.add_node(format!("qconsumer{i}"), k, (half + i + 1) as u32);
    }
    c
}

/// Runs the sweep, measuring wall-clock per configuration.
pub fn run(params: &ScaleParams) -> Vec<ScaleRun> {
    let shapes = params
        .nodes
        .iter()
        .map(|&n| ("busy", n))
        .chain(params.quiet_nodes.iter().map(|&n| ("quiet", n)));
    shapes
        .map(|(workload, n)| {
            let mut c = match workload {
                "quiet" => build_quiet_cluster(n, params.seed, 1),
                _ => build_cluster(n, params.seed, 1),
            };
            let t0 = Instant::now();
            c.run_until(params.horizon);
            let wall_ms = t0.elapsed().as_secs_f64() * 1_000.0;
            let m = c.metrics();
            let s = c.stats();
            let barriers = c.exec_stats().barriers;
            let sim_ms = params.horizon.as_ms_f64();
            ScaleRun {
                workload,
                nodes: n,
                wall_ms,
                sim_ms,
                frames_sent: s.frames_sent,
                frames_delivered: s.frames_delivered,
                frames_dropped: s.frames_dropped,
                bus_utilization: c.bus_utilization(),
                mean_latency_us: s.mean_latency().map(|d| d.as_us_f64()).unwrap_or(0.0),
                deadline_misses: m.deadline_misses,
                context_switches: m.context_switches,
                jobs_completed: m.jobs_completed,
                barriers,
                barriers_per_sim_ms: if sim_ms > 0.0 {
                    barriers as f64 / sim_ms
                } else {
                    0.0
                },
                node_advances: c.node_advances(),
            }
        })
        .collect()
}

/// Renders the sweep as a table.
pub fn render(runs: &[ScaleRun]) -> String {
    let mut s = String::new();
    s.push_str(
        "load   nodes  wall ms  sim ms  frames(s/d/x)        bus%   misses  ctxsw   barr/ms  adv/barr\n",
    );
    for r in runs {
        s.push_str(&format!(
            "{:<5}  {:>5}  {:>7.2}  {:>6.0}  {:>6}/{:<6}/{:<5} {:>5.1}  {:>6}  {:>6}  {:>7.2}  {:>8.2}\n",
            r.workload,
            r.nodes,
            r.wall_ms,
            r.sim_ms,
            r.frames_sent,
            r.frames_delivered,
            r.frames_dropped,
            100.0 * r.bus_utilization,
            r.deadline_misses,
            r.context_switches,
            r.barriers_per_sim_ms,
            r.node_advances as f64 / r.barriers.max(1) as f64,
        ));
    }
    s
}

/// Serializes the sweep as `BENCH_scale.json` (hand-rolled JSON, one
/// `runs[]` entry per line). Host wall time is left out, so equal
/// sweeps serialize to equal bytes.
pub fn to_json(params: &ScaleParams, runs: &[ScaleRun]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("\"experiment\": \"scale\",\n");
    s.push_str(&format!(
        "\"horizon_ms\": {},\n",
        params.horizon.as_ms_f64()
    ));
    s.push_str(&format!("\"seed\": {},\n", params.seed));
    s.push_str("\"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        s.push_str(&format!(
            "{{\"workload\": \"{}\", \"nodes\": {}, \"sim_ms\": {:.1}, \"frames_sent\": {}, \"frames_delivered\": {}, \"frames_dropped\": {}, \"bus_utilization\": {:.4}, \"mean_latency_us\": {:.1}, \"deadline_misses\": {}, \"context_switches\": {}, \"jobs_completed\": {}, \"barriers\": {}, \"barriers_per_sim_ms\": {:.3}, \"node_advances\": {}}}{}\n",
            r.workload,
            r.nodes,
            r.sim_ms,
            r.frames_sent,
            r.frames_delivered,
            r.frames_dropped,
            r.bus_utilization,
            r.mean_latency_us,
            r.deadline_misses,
            r.context_switches,
            r.jobs_completed,
            r.barriers,
            r.barriers_per_sim_ms,
            r.node_advances,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    s.push_str("]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_clean() {
        let mut c = build_cluster(8, 7, 1);
        c.run_until(Time::from_ms(40));
        assert_eq!(c.metrics().deadline_misses, 0);
        assert_eq!(c.stats().frames_dropped, 0);
        assert!(c.stats().frames_delivered > 0);
    }

    #[test]
    fn quiet_workload_collapses_barriers_without_changing_results() {
        let horizon = Time::from_ms(60);
        let mut adaptive = build_quiet_cluster(16, 7, 1);
        adaptive.run_until(horizon);
        let mut fixed = build_quiet_cluster(16, 7, 1);
        fixed.set_adaptive(false);
        fixed.run_until(horizon);
        assert_eq!(adaptive.metrics(), fixed.metrics());
        assert_eq!(adaptive.stats(), fixed.stats());
        assert!(adaptive.stats().frames_delivered > 0);
        assert!(
            adaptive.exec_stats().barriers * 2 <= fixed.exec_stats().barriers,
            "quiet bus should stretch epochs >= 2x: {} vs {} barriers",
            adaptive.exec_stats().barriers,
            fixed.exec_stats().barriers
        );
    }

    #[test]
    fn quiet_cluster_advances_few_nodes_per_barrier() {
        // The active-set engine advances only nodes with work before
        // each epoch end; on the quiet 64-node cluster that is about
        // one node per barrier, against 64 for an engine that advances
        // every node. The count is deterministic, so this pins it.
        for seed in [1, 7] {
            let mut c = build_quiet_cluster(64, seed, 1);
            c.run_until(Time::from_ms(2_000));
            let barriers = c.exec_stats().barriers;
            assert!(
                c.node_advances() <= 2 * barriers,
                "seed {seed}: {} node advances over {barriers} barriers",
                c.node_advances()
            );
        }
    }

    #[test]
    fn two_runs_serialize_byte_identically() {
        let params = ScaleParams {
            nodes: vec![4, 6],
            quiet_nodes: vec![4],
            horizon: Time::from_ms(10),
            seed: 3,
        };
        let first = to_json(&params, &run(&params));
        assert_eq!(to_json(&params, &run(&params)), first);
        assert_eq!(first.matches("\"workload\"").count(), 3);
        assert!(!first.contains("wall"), "{first}");
    }
}
