//! One workload run: repeated set-up, an untimed warm-up, and the timed
//! closed loop, with or without tracing.
//!
//! The load is a closed loop on one thread: the simulation is
//! advanced one fixed virtual slice at a time and the next slice starts
//! only after the previous call returned, as a co-simulation or
//! hardware-in-the-loop rig drives it.
//!
//! The traced run records spans from this file only, around the calls
//! into each layer. Per-layer time inside a `run_until` call comes from
//! the executive's own cost accounting (`EpochStats`/`TwoLevelStats`),
//! read at slice boundaries; the child spans built from it carry
//! measured durations laid end to end inside their slice, not measured
//! placements.

use std::io::Write as _;
use std::time::Instant;

use emeralds_sim::{Duration, EpochStats, Time, TwoLevelStats};

use crate::calib::Calibrator;
use crate::workloads::{self, Sim, Spec, Totals};

/// Equal-virtual-length blocks the timed window is split into.
pub const BLOCKS: usize = 20;
/// Timed work between two calibration samples: a chunk of slices ends
/// once it has run this long, or at the end of its block, and is
/// rescaled by the sample taken right after it.
const CHUNK_S: f64 = 0.025;
/// Set-up repeats at least this often and for at least this long (up
/// to a cap); `setup_s` is the median build.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 1.5;
const SETUP_MAX_REPS: usize = 2_000;
/// Builds run in chunks of at least this many seconds, with a
/// calibration sample between chunks.
const SETUP_CHUNK_S: f64 = 0.02;
/// Spans kept in memory for the trace file; later spans still count in
/// the per-layer totals.
const SPAN_CAP: usize = 1 << 17;

/// The slice schedule of one run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub slice: Duration,
    /// Leading slices simulated but not timed (5 % of the horizon).
    pub warm: usize,
    /// Timed slices, a multiple of [`BLOCKS`].
    pub timed: usize,
}

impl Plan {
    /// Sizes the run so the timed window lasts about `seconds` of wall
    /// at the workload's nominal rate.
    pub fn new(spec: &Spec, seconds: f64) -> Plan {
        let slices = spec.nominal_rate * seconds / spec.slice.as_ms_f64();
        let per_block = (slices / BLOCKS as f64).ceil().max(1.0) as usize;
        let timed = per_block * BLOCKS;
        Plan {
            slice: spec.slice,
            warm: timed.div_ceil(19),
            timed,
        }
    }

    pub fn slices(&self) -> usize {
        self.warm + self.timed
    }

    /// The end of slice `i` (0-based).
    pub fn end_of(&self, i: usize) -> Time {
        Time::ZERO + self.slice * (i as u64 + 1)
    }

    pub fn horizon(&self) -> Time {
        self.end_of(self.slices() - 1)
    }
}

/// Self-time rows of the traced run. Together they cover the timed
/// window exactly.
#[derive(Clone, Copy, Debug)]
pub enum Row {
    /// Timed `Kernel::advance_to` calls (`kernel_solo`).
    Core,
    /// The engine's parallel advance phase: kernels plus NIC DMA and TX
    /// harvest (bus workloads, where the kernel cannot be timed alone
    /// from outside).
    SimAdvance,
    /// `run_until` time outside the engine.
    SimCall,
    /// Bus exchange at barriers.
    FieldbusExchange,
    /// Outer gateway capture, routing and injection.
    FieldbusGateway,
    /// Everything else: the slice loop, the tracer, and the board loop.
    Unattributed,
}

pub const ROWS: usize = 6;

impl Row {
    /// Row labels, in discriminant order.
    pub const NAMES: [&'static str; ROWS] = [
        "core",
        "sim.advance",
        "sim.call",
        "fieldbus.exchange",
        "fieldbus.gateway",
        "unattributed",
    ];
}

/// What one run measured. Timed-window host times are kept raw, next
/// to the slowdowns that rescale them to the reference host.
pub struct Outcome {
    /// Seconds of each set-up, and of the analysis inside it, already
    /// rescaled to the reference host.
    pub setup_s: Vec<f64>,
    pub analysis_s: Vec<f64>,
    /// Host nanoseconds of every timed slice, block by block, and the
    /// slowdown measured after the slice's chunk.
    pub slice_ns: Vec<u64>,
    pub slice_slowdown: Vec<f64>,
    /// Wall nanoseconds of each block (calibration excluded), and the
    /// same time with each chunk rescaled by its slowdown.
    pub block_ns: Vec<u64>,
    pub block_ref_ns: Vec<f64>,
    /// Context switches simulated inside the timed window.
    pub timed_context_switches: u64,
    /// Traced runs only: self nanoseconds per [`Row`], summing to the
    /// blocks' wall, and the share by which child spans overran their
    /// slice.
    pub rows: Option<[u64; ROWS]>,
    pub overrun_frac: f64,
    pub spans_recorded: u64,
    pub totals: Totals,
    pub input_digest: u64,
    pub peak_rss_kib: u64,
}

impl Outcome {
    /// Wall nanoseconds of the timed window, calibration excluded.
    pub fn timed_wall_ns(&self) -> u64 {
        self.block_ns.iter().sum()
    }

    /// Median over the blocks of each block's slowdown.
    pub fn slowdown(&self) -> f64 {
        let per_block: Vec<f64> = self
            .block_ns
            .iter()
            .zip(&self.block_ref_ns)
            .map(|(&ns, &r)| ns as f64 / r)
            .collect();
        crate::stats::median(&per_block)
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_id: u32,
    recorded: u64,
}

struct Span {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(SPAN_CAP),
            next_id: 0,
            recorded: 0,
        }
    }

    fn now(&self) -> u64 {
        self.ns(Instant::now())
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Reserves an id, so a parent can be named before it ends.
    fn id(&mut self) -> u32 {
        self.next_id = self.next_id.wrapping_add(1);
        self.next_id
    }

    fn span(&mut self, id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) {
        self.recorded += 1;
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                id,
                parent,
                name,
                start_ns: start,
                end_ns: end,
            });
        }
    }

    /// Writes the kept spans as JSON lines.
    pub fn write(&self, workload: &str, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"workload\": \"{workload}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `spec` once. With `trace`, also returns the tracer holding the
/// spans for the trace file.
pub fn execute(spec: &Spec, seed: u64, plan: &Plan, trace: bool) -> (Outcome, Option<Tracer>) {
    let mut tracer = trace.then(Tracer::new);

    let mut cal = Calibrator::new();
    let (setup_s, analysis_s, mut sim) =
        set_up(spec, seed, plan.horizon(), &mut cal, tracer.as_mut());
    let input_digest = sim.input_digest();

    for i in 0..plan.warm {
        sim.run_to(plan.end_of(i));
    }
    let ctx0 = sim.context_switches();
    let per_block = plan.timed / BLOCKS;
    let mut slice_ns = Vec::with_capacity(plan.timed);
    let mut slice_slowdown = Vec::with_capacity(plan.timed);
    let mut block_ns = Vec::with_capacity(BLOCKS);
    let mut block_ref_ns = Vec::with_capacity(BLOCKS);
    let mut rows = [0u64; ROWS];
    let mut overrun = 0u64;
    for b in 0..BLOCKS {
        let first = plan.warm + b * per_block;
        let last = first + per_block - 1;
        let block = tracer.as_mut().map_or(0, Tracer::id);
        let start = Instant::now();
        let (mut wall, mut reference) = (0u64, 0.0);
        let mut chunk = start;
        for i in first..=last {
            match tracer.as_mut() {
                None => {
                    let a = Instant::now();
                    sim.run_to(plan.end_of(i));
                    slice_ns.push(a.elapsed().as_nanos() as u64);
                }
                Some(tr) => {
                    let (ns, over) = traced_slice(tr, block, &mut sim, plan.end_of(i), &mut rows);
                    slice_ns.push(ns);
                    overrun += over;
                }
            }
            let ns = chunk.elapsed();
            if ns.as_secs_f64() >= CHUNK_S || i == last {
                let c = Instant::now();
                let slow = cal.slowdown();
                if let Some(tr) = tracer.as_mut() {
                    let (id, a, z) = (tr.id(), tr.ns(c), tr.now());
                    tr.span(id, Some(block), "calibrate", a, z);
                }
                let ns = ns.as_nanos() as u64;
                wall += ns;
                reference += ns as f64 / slow;
                slice_slowdown.resize(slice_ns.len(), slow);
                chunk = Instant::now();
            }
        }
        block_ns.push(wall);
        block_ref_ns.push(reference);
        if let Some(tr) = tracer.as_mut() {
            let (a, z) = (tr.ns(start), tr.now());
            tr.span(block, None, "block", a, z);
        }
    }
    let timed_context_switches = sim.context_switches() - ctx0;
    let peak_rss_kib = peak_rss_kib();
    let totals = sim.totals();

    let timed_wall: u64 = block_ns.iter().sum();
    let rows = tracer.as_ref().map(|_| {
        let attributed: u64 = rows.iter().sum();
        rows[Row::Unattributed as usize] = timed_wall.saturating_sub(attributed);
        rows
    });
    let slice_total: u64 = slice_ns.iter().sum();
    let outcome = Outcome {
        setup_s,
        analysis_s,
        slice_ns,
        slice_slowdown,
        block_ns,
        block_ref_ns,
        timed_context_switches,
        rows,
        overrun_frac: if slice_total > 0 {
            overrun as f64 / slice_total as f64
        } else {
            0.0
        },
        spans_recorded: tracer.as_ref().map_or(0, |t| t.recorded),
        totals,
        input_digest,
        peak_rss_kib,
    };
    (outcome, tracer)
}

/// Builds the workload repeatedly and keeps the last build. Returns the
/// seconds of each build and of the analysis inside it, each divided by
/// the slowdown measured at the edges of its chunk of builds: a
/// calibration sample only before and after the whole set-up missed
/// slow phases the builds saw, and the reverse.
fn set_up(
    spec: &Spec,
    seed: u64,
    horizon: Time,
    cal: &mut Calibrator,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<f64>, Vec<f64>, Sim) {
    let mut setup_s = Vec::new();
    let mut analysis_s = Vec::new();
    let mut sim = None;
    let begin = Instant::now();
    let mut edge = cal.slowdown();
    while setup_s.len() < SETUP_MIN_REPS
        || (begin.elapsed().as_secs_f64() < SETUP_MIN_S && setup_s.len() < SETUP_MAX_REPS)
    {
        let first = setup_s.len();
        let chunk = Instant::now();
        while setup_s.len() == first || chunk.elapsed().as_secs_f64() < SETUP_CHUNK_S {
            // Free the previous build first, so each one starts from the
            // same heap state and peak memory holds one workload.
            drop(sim.take());
            let t0 = Instant::now();
            let built = workloads::build(spec, seed, horizon);
            let t1 = Instant::now();
            setup_s.push((t1 - t0).as_secs_f64());
            analysis_s.push(
                built
                    .analysis
                    .iter()
                    .map(|(a, b)| (*b - *a).as_secs_f64())
                    .sum(),
            );
            if let Some(tr) = tracer.as_deref_mut() {
                let id = tr.id();
                for (a, b) in &built.analysis {
                    let cid = tr.id();
                    let (a, b) = (tr.ns(*a), tr.ns(*b));
                    tr.span(cid, Some(id), "sched.find_partition", a, b);
                }
                let (a, b) = (tr.ns(t0), tr.ns(t1));
                tr.span(id, None, "setup.build", a, b);
            }
            sim = Some(built.sim);
        }
        let next = cal.slowdown();
        let slow = (edge + next) / 2.0;
        edge = next;
        for v in setup_s[first..].iter_mut().chain(&mut analysis_s[first..]) {
            *v /= slow;
        }
    }
    (setup_s, analysis_s, sim.expect("at least one set-up"))
}

/// One traced slice, a child of span `block`. Returns its wall
/// nanoseconds and by how much its children overran it (zero unless the
/// executive's own accounting disagrees with the outside clock).
fn traced_slice(
    tr: &mut Tracer,
    block: u32,
    sim: &mut Sim,
    t: Time,
    rows: &mut [u64; ROWS],
) -> (u64, u64) {
    let id = tr.id();
    if let Sim::Boards(boards) = sim {
        let start = tr.now();
        let mut children = 0;
        for k in boards.iter_mut() {
            let a = tr.now();
            k.advance_to(t);
            let b = tr.now();
            let cid = tr.id();
            tr.span(cid, Some(id), "core.advance_to", a, b);
            children += b - a;
        }
        let end = tr.now();
        tr.span(id, Some(block), "slice", start, end);
        rows[Row::Core as usize] += children;
        return (end - start, children.saturating_sub(end - start));
    }
    let mut parts = [0u64; ROWS];
    let before = sim.engine();
    let a = tr.now();
    sim.run_to(t);
    let end = tr.now();
    let wall = end - a;
    let d = delta(&sim.engine(), &before);
    let engine = d.outer.wall_ns;
    let (exchange, gateway) = match sim {
        Sim::Topo(_) => {
            // Segments advance on parallel workers between outer
            // barriers; their summed inner accounting only gives the
            // exchange's share of that parallel phase.
            let parallel = engine.saturating_sub(d.outer.serial_ns);
            let share = if d.inner.wall_ns > 0 {
                d.inner.serial_ns as f64 / d.inner.wall_ns as f64
            } else {
                0.0
            };
            ((parallel as f64 * share) as u64, d.outer.serial_ns)
        }
        _ => (d.outer.serial_ns, 0),
    };
    parts[Row::FieldbusExchange as usize] = exchange;
    parts[Row::FieldbusGateway as usize] = gateway;
    parts[Row::SimAdvance as usize] = engine.saturating_sub(exchange + gateway);
    parts[Row::SimCall as usize] = wall.saturating_sub(engine);
    let mut at = a;
    for (row, name) in [
        (Row::SimAdvance, "sim.advance"),
        (Row::FieldbusExchange, "fieldbus.exchange"),
        (Row::FieldbusGateway, "fieldbus.gateway"),
        (Row::SimCall, "sim.call"),
    ] {
        let d = parts[row as usize];
        if d > 0 {
            let cid = tr.id();
            tr.span(cid, Some(id), name, at, at + d);
            at += d;
        }
        rows[row as usize] += d;
    }
    tr.span(id, Some(block), "run_until", a, end);
    (wall, engine.saturating_sub(wall))
}

fn delta(now: &TwoLevelStats, before: &TwoLevelStats) -> TwoLevelStats {
    let sub = |a: &EpochStats, b: &EpochStats| EpochStats {
        barriers: a.barriers - b.barriers,
        serial_ns: a.serial_ns - b.serial_ns,
        wall_ns: a.wall_ns - b.wall_ns,
    };
    TwoLevelStats {
        outer: sub(&now.outer, &before.outer),
        inner: sub(&now.inner, &before.inner),
    }
}

/// Peak resident set of this process (`VmHWM`), in KiB; 0 where
/// `/proc` is unavailable.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn plan_covers_blocks_and_a_five_percent_warm_up() {
        for spec in &WORKLOADS {
            let p = Plan::new(spec, 10.0);
            assert_eq!(p.timed % BLOCKS, 0, "{}", spec.name);
            let warm_share = p.warm as f64 / p.slices() as f64;
            assert!(
                (0.04..=0.06).contains(&warm_share),
                "{} {warm_share}",
                spec.name
            );
            assert_eq!(p.horizon(), Time::ZERO + p.slice * p.slices() as u64);
        }
        let tiny = Plan::new(&WORKLOADS[4], 0.001);
        assert_eq!((tiny.timed, tiny.warm), (BLOCKS, 2));
    }
}
