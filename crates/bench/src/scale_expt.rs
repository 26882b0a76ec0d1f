//! Experiment SC — multi-node cluster scaling.
//!
//! Not a paper figure: the paper ran one 25 MHz board. This experiment
//! measures the *reproduction's* scale-out executive
//! ([`emeralds_fieldbus::Cluster`]) on an avionics-style workload at
//! 8/16/32/64 nodes, comparing wall-clock at 1 worker thread vs 4, and
//! reporting simulated bus utilization. Every run is bit-for-bit
//! deterministic in virtual time; only `wall_ms` depends on the host.
//!
//! Emits `BENCH_scale.json` (one `runs[]` entry per node×worker
//! config) and can gate CI against a committed baseline. The gate is
//! layered by how deterministic each signal is:
//!
//! - `barriers_per_sim_ms` — purely virtual-time (barrier count is a
//!   function of the workload, not the host), so it is gated tightly
//!   on every host.
//! - `serial_frac` — serial exchange ns over total wall ns; a ratio of
//!   two wall clocks, so fairly stable, gated with the caller's
//!   `factor` plus an absolute floor.
//! - normalized wall-clock — only gated when the host actually has
//!   parallelism (`available_parallelism() > 1`); on a 1-CPU CI runner
//!   a "speedup" is pure scheduler noise and is recorded but ignored.

use std::time::Instant;

use emeralds_core::kernel::{KernelBuilder, KernelConfig};
use emeralds_core::script::{Action, Script};
use emeralds_core::{Kernel, SchedPolicy};
use emeralds_fieldbus::{addressed_tag, Cluster};
use emeralds_sim::{Duration, IrqLine, MboxId, NodeId, SimRng, Time};

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
    /// Worker-thread counts to compare (first entry is the serial
    /// reference for speedup).
    pub workers: Vec<usize>,
    /// Simulated horizon per run.
    pub horizon: Time,
    /// Workload seed (task periods/compute are jittered per node).
    pub seed: u64,
}

impl ScaleParams {
    /// The committed-baseline sweep: 8–128 nodes, 300 ms horizon,
    /// workers 1–16 (the scaling study; counts past the host's cores
    /// measure the oversubscribed regime the hybrid barrier parks in).
    pub fn full() -> ScaleParams {
        ScaleParams {
            nodes: vec![8, 16, 32, 64, 128],
            quiet_nodes: vec![8, 16, 64],
            workers: vec![1, 2, 4, 8, 16],
            horizon: Time::from_ms(300),
            seed: 0x5CA1E,
        }
    }

    /// CI smoke shape: one small cluster, short horizon, worker
    /// counts a default 4-core CI runner can actually host.
    pub fn quick() -> ScaleParams {
        ScaleParams {
            nodes: vec![8],
            quiet_nodes: vec![8],
            workers: vec![1, 2, 4],
            horizon: Time::from_ms(60),
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
    pub workers: usize,
    /// Host wall-clock of `Cluster::run_until` (the only
    /// non-deterministic field).
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
    /// stretches quiet-bus epochs, so fewer barriers = less serial
    /// synchronization per simulated ms).
    pub barriers: u64,
    /// `barriers / sim_ms` — the executive's synchronization rate.
    pub barriers_per_sim_ms: f64,
    /// Fraction of wall-clock spent in the serial exchange section
    /// (bus arbitration); the Amdahl ceiling on worker scaling.
    pub serial_frac: f64,
}

/// A sensor board: samples on a jittered period and sends an addressed
/// frame to its paired consumer, plus filler control tasks that give
/// the host threads real kernel work per epoch.
fn sensor_node(i: usize, dst: NodeId, rng: &mut SimRng) -> (Kernel, MboxId, MboxId) {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![2],
        },
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process(format!("sensor{i}"));
    let tx = b.add_mailbox(8);
    let rx = b.add_mailbox(8);
    b.board_mut().add_nic("can", NIC_IRQ);
    let period = Duration::from_us(rng.int_in(8_000, 12_000));
    b.add_periodic_task(
        p,
        "sample",
        period,
        Script::periodic(vec![
            Action::Compute(Duration::from_us(rng.int_in(80, 200))),
            Action::SendMbox {
                mbox: tx,
                bytes: 8,
                tag: addressed_tag(Some(dst), (i as u32) & 0x00FF_FFFF),
            },
        ]),
    );
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
            Action::RecvMbox(rx),
            Action::Compute(Duration::from_us(20)),
        ]),
    );
    (b.build(), tx, rx)
}

/// A consumer board: IRQ-driven NIC driver feeding a control law, plus
/// filler tasks.
fn consumer_node(i: usize, rng: &mut SimRng) -> (Kernel, MboxId, MboxId) {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![2],
        },
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process(format!("consumer{i}"));
    let tx = b.add_mailbox(8);
    let rx = b.add_mailbox(16);
    b.board_mut().add_nic("can", NIC_IRQ);
    b.add_driver_task(
        p,
        "nicdrv",
        Duration::from_ms(2),
        Script::looping(vec![
            Action::RecvMbox(rx),
            Action::Compute(Duration::from_us(rng.int_in(60, 140))),
        ]),
    );
    b.add_periodic_task(
        p,
        "law",
        Duration::from_ms(10),
        Script::compute_only(Duration::from_us(rng.int_in(600, 1_100))),
    );
    for f in 0..8 {
        let period = Duration::from_us(rng.int_in(500, 1_000));
        b.add_periodic_task(
            p,
            format!("ctl{f}"),
            period,
            Script::compute_only(Duration::from_us(rng.int_in(18, 40))),
        );
    }
    (b.build(), tx, rx)
}

/// Builds the n-node workload: the first half are sensors, each paired
/// with a consumer in the second half (sensor *i* → consumer *n/2+i*).
///
/// # Panics
///
/// Panics when `n < 2` or `n` is odd.
pub fn build_cluster(n: usize, seed: u64, workers: usize) -> Cluster {
    assert!(
        n >= 2 && n.is_multiple_of(2),
        "node count must be even and >= 2"
    );
    let mut rng = SimRng::seeded(seed);
    let mut c = Cluster::new(1_000_000).with_workers(workers);
    let half = n / 2;
    for i in 0..half {
        let mut node_rng = rng.derive(i as u64);
        let dst = NodeId((half + i) as u32);
        let (k, tx, rx) = sensor_node(i, dst, &mut node_rng);
        c.add_node(format!("sensor{i}"), k, tx, rx, NIC_IRQ, (i + 1) as u32);
    }
    for i in 0..half {
        let mut node_rng = rng.derive((half + i) as u64);
        let (k, tx, rx) = consumer_node(i, &mut node_rng);
        c.add_node(
            format!("consumer{i}"),
            k,
            tx,
            rx,
            NIC_IRQ,
            (half + i + 1) as u32,
        );
    }
    c
}

/// A quiet sensor board: one sparse sampling task (60–100 ms) and the
/// event-driven NIC driver, nothing else. With no sub-millisecond
/// timers anywhere, the executive can prove long idle stretches and
/// collapse barriers — this workload exists to measure that.
fn quiet_sensor_node(i: usize, dst: NodeId, rng: &mut SimRng) -> (Kernel, MboxId, MboxId) {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![1],
        },
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process(format!("qsensor{i}"));
    let tx = b.add_mailbox(8);
    let rx = b.add_mailbox(8);
    b.board_mut().add_nic("can", NIC_IRQ);
    b.add_periodic_task(
        p,
        "sample",
        Duration::from_us(rng.int_in(60_000, 100_000)),
        Script::periodic(vec![
            Action::Compute(Duration::from_us(rng.int_in(80, 200))),
            Action::SendMbox {
                mbox: tx,
                bytes: 8,
                tag: addressed_tag(Some(dst), (i as u32) & 0x00FF_FFFF),
            },
        ]),
    );
    b.add_driver_task(
        p,
        "nicdrv",
        Duration::from_ms(5),
        Script::looping(vec![
            Action::RecvMbox(rx),
            Action::Compute(Duration::from_us(20)),
        ]),
    );
    (b.build(), tx, rx)
}

/// A quiet consumer board: NIC driver plus one sparse control law.
fn quiet_consumer_node(i: usize, rng: &mut SimRng) -> (Kernel, MboxId, MboxId) {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![1],
        },
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process(format!("qconsumer{i}"));
    let tx = b.add_mailbox(8);
    let rx = b.add_mailbox(16);
    b.board_mut().add_nic("can", NIC_IRQ);
    b.add_driver_task(
        p,
        "nicdrv",
        Duration::from_ms(5),
        Script::looping(vec![
            Action::RecvMbox(rx),
            Action::Compute(Duration::from_us(rng.int_in(60, 140))),
        ]),
    );
    b.add_periodic_task(
        p,
        "law",
        Duration::from_us(rng.int_in(60_000, 90_000)),
        Script::compute_only(Duration::from_us(rng.int_in(300, 600))),
    );
    (b.build(), tx, rx)
}

/// The quiet-bus counterpart of [`build_cluster`]: same sensor→consumer
/// pairing, sparse periods throughout.
///
/// # Panics
///
/// Panics when `n < 2` or `n` is odd.
pub fn build_quiet_cluster(n: usize, seed: u64, workers: usize) -> Cluster {
    assert!(
        n >= 2 && n.is_multiple_of(2),
        "node count must be even and >= 2"
    );
    let mut rng = SimRng::seeded(seed ^ 0x9_1E7);
    let mut c = Cluster::new(1_000_000).with_workers(workers);
    let half = n / 2;
    for i in 0..half {
        let mut node_rng = rng.derive(i as u64);
        let dst = NodeId((half + i) as u32);
        let (k, tx, rx) = quiet_sensor_node(i, dst, &mut node_rng);
        c.add_node(format!("qsensor{i}"), k, tx, rx, NIC_IRQ, (i + 1) as u32);
    }
    for i in 0..half {
        let mut node_rng = rng.derive((half + i) as u64);
        let (k, tx, rx) = quiet_consumer_node(i, &mut node_rng);
        c.add_node(
            format!("qconsumer{i}"),
            k,
            tx,
            rx,
            NIC_IRQ,
            (half + i + 1) as u32,
        );
    }
    c
}

/// Runs the sweep, measuring wall-clock per configuration.
pub fn run(params: &ScaleParams) -> Vec<ScaleRun> {
    let mut out = Vec::new();
    let shapes = params
        .nodes
        .iter()
        .map(|&n| ("busy", n))
        .chain(params.quiet_nodes.iter().map(|&n| ("quiet", n)));
    for (workload, n) in shapes {
        for &w in &params.workers {
            let mut c = match workload {
                "quiet" => build_quiet_cluster(n, params.seed, w),
                _ => build_cluster(n, params.seed, w),
            };
            let t0 = Instant::now();
            c.run_until(params.horizon);
            let wall_ms = t0.elapsed().as_secs_f64() * 1_000.0;
            let m = c.metrics();
            let s = c.stats();
            let e = *c.exec_stats();
            let sim_ms = params.horizon.as_ms_f64();
            out.push(ScaleRun {
                workload,
                nodes: n,
                workers: w,
                wall_ms,
                sim_ms: params.horizon.as_ms_f64(),
                frames_sent: s.frames_sent,
                frames_delivered: s.frames_delivered,
                frames_dropped: s.frames_dropped,
                bus_utilization: c.bus_utilization(),
                mean_latency_us: s.mean_latency().map(|d| d.as_us_f64()).unwrap_or(0.0),
                deadline_misses: m.deadline_misses,
                context_switches: m.context_switches,
                jobs_completed: m.jobs_completed,
                barriers: e.barriers,
                barriers_per_sim_ms: if sim_ms > 0.0 {
                    e.barriers as f64 / sim_ms
                } else {
                    0.0
                },
                serial_frac: e.serial_frac(),
            });
        }
    }
    out
}

/// Speedup of the `workers`-thread run over the 1-thread run at the
/// same workload and node count, if both exist.
pub fn speedup(runs: &[ScaleRun], workload: &str, nodes: usize, workers: usize) -> Option<f64> {
    let base = runs
        .iter()
        .find(|r| r.workload == workload && r.nodes == nodes && r.workers == 1)?
        .wall_ms;
    let par = runs
        .iter()
        .find(|r| r.workload == workload && r.nodes == nodes && r.workers == workers)?
        .wall_ms;
    (par > 0.0).then_some(base / par)
}

/// Renders the sweep as a table with per-node-count speedups.
pub fn render(runs: &[ScaleRun]) -> String {
    let mut s = String::new();
    s.push_str(
        "load   nodes  workers  wall ms   speedup  sim ms  frames(s/d/x)        bus%   misses  ctxsw   barr/ms  ser%\n",
    );
    for r in runs {
        let sp = if r.workers == 1 {
            "1.00".to_string()
        } else {
            speedup(runs, r.workload, r.nodes, r.workers)
                .map(|v| format!("{v:.2}"))
                .unwrap_or_else(|| "-".into())
        };
        s.push_str(&format!(
            "{:<5}  {:>5}  {:>7}  {:>8.2}  {:>7}  {:>6.0}  {:>6}/{:<6}/{:<5} {:>5.1}  {:>6}  {:>6}  {:>7.2}  {:>4.1}\n",
            r.workload,
            r.nodes,
            r.workers,
            r.wall_ms,
            sp,
            r.sim_ms,
            r.frames_sent,
            r.frames_delivered,
            r.frames_dropped,
            100.0 * r.bus_utilization,
            r.deadline_misses,
            r.context_switches,
            r.barriers_per_sim_ms,
            100.0 * r.serial_frac,
        ));
    }
    s
}

/// Serializes the sweep as `BENCH_scale.json` (hand-rolled JSON; one
/// `runs[]` entry per line so the baseline check can parse it with
/// plain string scanning).
pub fn to_json(params: &ScaleParams, runs: &[ScaleRun]) -> String {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("\"experiment\": \"scale\",\n");
    s.push_str(&format!(
        "\"horizon_ms\": {},\n",
        params.horizon.as_ms_f64()
    ));
    s.push_str(&format!("\"seed\": {},\n", params.seed));
    s.push_str(&format!("\"host_parallelism\": {host},\n"));
    s.push_str("\"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        s.push_str(&format!(
            "{{\"workload\": \"{}\", \"nodes\": {}, \"workers\": {}, \"wall_ms\": {:.3}, \"sim_ms\": {:.1}, \"frames_sent\": {}, \"frames_delivered\": {}, \"frames_dropped\": {}, \"bus_utilization\": {:.4}, \"mean_latency_us\": {:.1}, \"deadline_misses\": {}, \"context_switches\": {}, \"jobs_completed\": {}, \"barriers\": {}, \"barriers_per_sim_ms\": {:.3}, \"serial_frac\": {:.4}}}{}\n",
            r.workload,
            r.nodes,
            r.workers,
            r.wall_ms,
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
            r.serial_frac,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    s.push_str("],\n\"speedups\": {");
    let mut first = true;
    let shapes = params
        .nodes
        .iter()
        .map(|&n| ("busy", n))
        .chain(params.quiet_nodes.iter().map(|&n| ("quiet", n)));
    for (load, n) in shapes {
        for &w in &params.workers {
            if w == 1 {
                continue;
            }
            if let Some(v) = speedup(runs, load, n, w) {
                if !first {
                    s.push(',');
                }
                first = false;
                let tag = if load == "quiet" { "q" } else { "n" };
                s.push_str(&format!("\n\"{tag}{n}_w{w}\": {v:.3}"));
            }
        }
    }
    s.push_str("\n}\n}\n");
    s
}

/// Pulls the workload tag out of one `runs[]` line; lines predating
/// the quiet-bus sweep are all busy-workload lines.
fn line_workload(line: &str) -> &'static str {
    if line.contains("\"workload\": \"quiet\"") {
        "quiet"
    } else {
        "busy"
    }
}

/// Pulls a numeric field out of one `runs[]` line of the JSON above.
/// Shared with the hotpath experiment, which reads the committed
/// scale baseline as the "A" arm of its wall-clock A/B.
pub(crate) fn field_f64(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Allowed growth of the (deterministic) barrier rate over the
/// baseline. Barrier counts are a pure function of the workload, so
/// any real increase means the adaptive-lookahead or exchange logic
/// regressed; the slack only absorbs quick-vs-full horizon edge
/// effects (startup transients weigh more in a short run).
const BARRIER_FACTOR: f64 = 1.10;

/// Serial fractions below this are considered "already negligible" and
/// are not gated — a ratio between two tiny wall-times is noise.
const SERIAL_FRAC_FLOOR: f64 = 0.05;

/// Compares fresh runs against a committed baseline file. Wall-clock
/// is normalized per simulated millisecond, so a `--quick` run (short
/// horizon) can be gated against the committed full-horizon baseline.
/// Three layered checks per `(nodes, workers)` config (see module
/// docs): `barriers_per_sim_ms` always (deterministic), `serial_frac`
/// when above a noise floor, and normalized wall-clock only when the
/// host has real parallelism. Configs absent from the baseline are
/// skipped. Returns the per-config verdict lines and whether any run
/// regressed.
pub fn check_baseline(runs: &[ScaleRun], baseline_json: &str, factor: f64) -> (Vec<String>, bool) {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut lines = Vec::new();
    let mut regressed = false;
    for r in runs {
        let base = baseline_json.lines().find_map(|l| {
            let n = field_f64(l, "nodes")?;
            let w = field_f64(l, "workers")?;
            if n as usize != r.nodes || w as usize != r.workers || line_workload(l) != r.workload {
                return None;
            }
            Some((
                field_f64(l, "wall_ms")?,
                field_f64(l, "sim_ms")?,
                field_f64(l, "barriers_per_sim_ms"),
                field_f64(l, "serial_frac"),
            ))
        });
        match base {
            Some((base_ms, base_sim, base_bpm, base_sf))
                if base_ms > 0.0 && base_sim > 0.0 && r.sim_ms > 0.0 =>
            {
                // 1. Barrier rate: deterministic, gated everywhere.
                if let Some(b) = base_bpm.filter(|&b| b > 0.0) {
                    let ratio = r.barriers_per_sim_ms / b;
                    let bad = ratio > BARRIER_FACTOR;
                    regressed |= bad;
                    lines.push(format!(
                        "scale {} n{} w{}: {:.2} barriers/sim-ms vs baseline {:.2} ({}{:.2}x, limit {:.2}x)",
                        r.workload,
                        r.nodes,
                        r.workers,
                        r.barriers_per_sim_ms,
                        b,
                        if bad { "REGRESSION " } else { "" },
                        ratio,
                        BARRIER_FACTOR
                    ));
                }
                // 2. Serial fraction: a ratio of wall-clocks, stable
                // enough to gate once it is large enough to matter.
                if let Some(b) = base_sf {
                    if r.serial_frac > SERIAL_FRAC_FLOOR && b > 0.0 {
                        let ratio = r.serial_frac / b;
                        let bad = ratio > factor && r.serial_frac > b + SERIAL_FRAC_FLOOR;
                        regressed |= bad;
                        lines.push(format!(
                            "scale {} n{} w{}: serial_frac {:.3} vs baseline {:.3} ({}{:.2}x, limit {:.1}x)",
                            r.workload,
                            r.nodes,
                            r.workers,
                            r.serial_frac,
                            b,
                            if bad { "REGRESSION " } else { "" },
                            ratio,
                            factor
                        ));
                    }
                }
                // 3. Wall-clock: meaningless on a 1-CPU runner, where
                // worker threads time-slice one core.
                let ratio = (r.wall_ms / r.sim_ms) / (base_ms / base_sim);
                if host > 1 {
                    let bad = ratio > factor;
                    regressed |= bad;
                    lines.push(format!(
                        "scale {} n{} w{}: {:.3} wall-ms/sim-ms vs baseline {:.3} ({}{:.2}x, limit {:.1}x)",
                        r.workload,
                        r.nodes,
                        r.workers,
                        r.wall_ms / r.sim_ms,
                        base_ms / base_sim,
                        if bad { "REGRESSION " } else { "" },
                        ratio,
                        factor
                    ));
                } else {
                    lines.push(format!(
                        "scale {} n{} w{}: {:.3} wall-ms/sim-ms recorded, not gated (host_parallelism = 1)",
                        r.workload,
                        r.nodes,
                        r.workers,
                        r.wall_ms / r.sim_ms,
                    ));
                }
            }
            _ => lines.push(format!(
                "scale {} n{} w{}: no baseline entry, skipped",
                r.workload, r.nodes, r.workers
            )),
        }
    }
    (lines, regressed)
}

/// The wall-clock gate's arming verdict for this runner against a
/// committed baseline: a status line for CI's step summary, plus
/// whether the combination is a *dead gate* — the baseline was
/// recorded on a multi-core host (so its wall-clock numbers encode
/// real parallel speedups) while this runner has one core and would
/// silently skip the wall-clock layer. CI fails on a dead gate so
/// perf coverage cannot rot invisibly.
pub fn gate_status(baseline_json: &str) -> (String, bool) {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    gate_status_for(host, baseline_host_parallelism(baseline_json))
}

/// Host-independent core of [`gate_status`], split out so tests can
/// pin every verdict regardless of where they run.
fn gate_status_for(host: usize, base_host: usize) -> (String, bool) {
    if host > 1 {
        (
            format!(
                "wall-clock gate ARMED (host_parallelism={host}); baseline host_parallelism={base_host}"
            ),
            false,
        )
    } else if base_host > 1 {
        (
            format!(
                "wall-clock gate DISARMED (host_parallelism=1); baseline host_parallelism={base_host} > 1 — dead gate, the committed parallel speedups are unverifiable here"
            ),
            true,
        )
    } else {
        (
            "wall-clock gate DISARMED (host_parallelism=1); baseline host_parallelism=1, nothing to verify".to_string(),
            false,
        )
    }
}

/// `host_parallelism` recorded in a committed baseline's header line;
/// 1 for baselines predating the field.
fn baseline_host_parallelism(json: &str) -> usize {
    json.lines()
        .find_map(|l| field_f64(l, "host_parallelism"))
        .map(|v| v as usize)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_clean_and_deterministic() {
        let horizon = Time::from_ms(40);
        let mut a = build_cluster(8, 7, 1);
        a.run_until(horizon);
        let mut b = build_cluster(8, 7, 4);
        b.run_until(horizon);
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.metrics().deadline_misses, 0);
        assert_eq!(a.stats().frames_dropped, 0);
        assert!(a.stats().frames_delivered > 0);
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
    fn json_round_trips_through_baseline_check() {
        let params = ScaleParams {
            nodes: vec![4],
            quiet_nodes: vec![4],
            workers: vec![1, 2],
            horizon: Time::from_ms(10),
            seed: 3,
        };
        let runs = run(&params);
        let json = to_json(&params, &runs);
        let (lines, regressed) = check_baseline(&runs, &json, 2.0);
        // Layered gate: at least one verdict line per config.
        assert!(lines.len() >= runs.len(), "{lines:?}");
        assert!(!regressed, "{lines:?}");
        // A baseline claiming half the barrier rate flags every
        // config, independent of host parallelism.
        let mut shrunk = runs.clone();
        for r in &mut shrunk {
            r.barriers_per_sim_ms /= 2.0;
        }
        let shrunk_json = to_json(&params, &shrunk);
        let (lines, regressed) = check_baseline(&runs, &shrunk_json, 2.0);
        assert!(regressed, "{lines:?}");
    }

    #[test]
    fn gate_status_flags_dead_gate_only_on_mismatch() {
        let (line, dead) = gate_status_for(8, 4);
        assert!(!dead);
        assert!(line.starts_with("wall-clock gate ARMED (host_parallelism=8)"));

        let (line, dead) = gate_status_for(1, 4);
        assert!(dead, "{line}");
        assert!(line.starts_with("wall-clock gate DISARMED (host_parallelism=1)"));

        let (line, dead) = gate_status_for(1, 1);
        assert!(!dead, "{line}");
        assert!(line.contains("DISARMED"));

        assert_eq!(
            baseline_host_parallelism("{\n\"host_parallelism\": 4,\n\"runs\": [\n"),
            4
        );
        assert_eq!(baseline_host_parallelism("{\n\"runs\": [\n"), 1);
    }

    #[test]
    fn field_extraction_parses_run_lines() {
        let line = "{\"nodes\": 8, \"workers\": 4, \"wall_ms\": 12.345, \"sim_ms\": 60.0}";
        assert_eq!(field_f64(line, "nodes"), Some(8.0));
        assert_eq!(field_f64(line, "wall_ms"), Some(12.345));
        assert_eq!(field_f64(line, "absent"), None);
    }
}
