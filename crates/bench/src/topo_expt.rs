//! Experiment TOPO — bridged multi-segment topologies under
//! hierarchical conservative lookahead.
//!
//! Not a paper figure: the paper's distributed configuration (§2) is
//! one fieldbus of 5–10 nodes. City-scale EMERALDS-class systems —
//! vehicle platoons, plant cells, building backbones — are *many*
//! buses joined by store-and-forward gateways, and this experiment
//! measures the [`emeralds_fieldbus::Topology`] executive at that
//! scale across three graph shapes:
//!
//! - **line** — segments chained `s0 — s1 — … — sN`, the original
//!   single-path sweep (2–8 segments, 128–1024 nodes);
//! - **ring** — the line closed into a cycle, so every segment pair
//!   has two disjoint routes and killing any one gateway re-routes
//!   instead of partitioning; ring gateways forward priority-ordered;
//! - **plant** — a factory cell: one fast backbone segment plus
//!   `N-1` cells, each tied to the backbone by *two parallel*
//!   gateways (primary cost 1, standby cost 2), swept to a 10 000
//!   node plant past the line sweep's 1024-node ceiling.
//!
//! Per segment, roughly one node in four sends to its counterpart on
//! the next segment (crossing one gateway on a line/ring, two on the
//! plant's cell-to-cell routes), one in eight broadcasts
//! segment-locally (exercising the exact broadcast fan-out ledger),
//! and the rest address a local peer. Rows flagged `fault` fail-stop
//! one well-connected gateway for the middle third of the horizon via
//! [`emeralds_faults::FaultPlan::gateway_fail_stop`]; on these
//! redundant shapes the executive must re-route every cross-segment
//! frame over a surviving path with **zero** frame loss.
//!
//! Everything reported is *simulated* — no wall-clock fields — so the
//! committed `BENCH_topology.json` reproduces bit-for-bit on any
//! host. Gated per row:
//!
//! - **Exact frame conservation, broadcasts included**: summed over
//!   segments, `sent + bcast_fanout == delivered + dropped +
//!   in_flight + gateway_buffered + bcast_resolved` — gateway buffers
//!   are the only carry term, broadcast fan-out is counted exactly at
//!   resolve time, and unroutable, overflowing, or fault-dropped
//!   captures are charged to the originating segment, never leaked.
//! - **Outer-worker invisibility**: each row is run at 1, 4, and
//!   `available_parallelism` outer workers and every statistic —
//!   per-segment bus stats, gateway stats, topology events, rolled-up
//!   kernel metrics, barrier counts — must be bit-for-bit identical
//!   (`deterministic` column).
//! - **Fault rows**: the victim gateway logged an outage, the routing
//!   tables rebuilt at least twice (failure + recovery), and no frame
//!   was lost or deadline missed — the reroute converged.

use emeralds_core::kernel::{KernelBuilder, KernelConfig};
use emeralds_core::script::{Action, Script};
use emeralds_core::{Kernel, SchedPolicy};
use emeralds_faults::FaultPlan;
use emeralds_fieldbus::{addressed_tag, GatewayConfig, GatewayId, GatewayPolicy, Topology};
use emeralds_sim::{Duration, IrqLine, NodeId, SimRng, Time};

const NIC_IRQ: IrqLine = IrqLine(2);

/// Gateway graph shape of one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopoShape {
    /// Chain `s0 — s1 — … — sN`: one route per segment pair.
    Line,
    /// Cycle: two disjoint routes per segment pair, priority-ordered
    /// forwarding.
    Ring,
    /// One fast backbone plus cells, each cell tied to the backbone by
    /// a cost-1 primary and a cost-2 standby gateway.
    Plant,
}

impl TopoShape {
    /// Lower-case label used in the JSON and the rendered table.
    pub fn as_str(self) -> &'static str {
        match self {
            TopoShape::Line => "line",
            TopoShape::Ring => "ring",
            TopoShape::Plant => "plant",
        }
    }
}

/// One sweep row: a shape, its size, and whether to fail-stop a
/// gateway mid-run.
#[derive(Clone, Copy, Debug)]
pub struct TopoRow {
    pub shape: TopoShape,
    /// Number of bus segments; `nodes` must divide evenly across them.
    pub segments: usize,
    /// Total application nodes (excluding gateway bridge NICs).
    pub nodes: usize,
    /// Fail-stop gateway 0 over the middle third of the horizon. Only
    /// meaningful on redundant shapes (ring, plant), where the drop
    /// must re-route with zero loss rather than partition.
    pub fault: bool,
}

/// Experiment shape.
#[derive(Clone, Debug)]
pub struct TopoParams {
    pub rows: Vec<TopoRow>,
    /// Simulated horizon per run.
    pub horizon: Time,
    /// Workload seed.
    pub seed: u64,
}

const fn row(shape: TopoShape, segments: usize, nodes: usize, fault: bool) -> TopoRow {
    TopoRow {
        shape,
        segments,
        nodes,
        fault,
    }
}

impl TopoParams {
    /// The committed-baseline sweep: the original line rows, redundant
    /// rings (one with a mid-run gateway kill), a plant cell with a
    /// primary-gateway kill, and a 10 000-node plant.
    pub fn full() -> TopoParams {
        TopoParams {
            rows: vec![
                row(TopoShape::Line, 2, 128, false),
                row(TopoShape::Line, 4, 256, false),
                row(TopoShape::Line, 4, 512, false),
                row(TopoShape::Line, 8, 512, false),
                row(TopoShape::Line, 8, 1024, false),
                row(TopoShape::Ring, 4, 256, false),
                row(TopoShape::Ring, 8, 512, true),
                row(TopoShape::Plant, 6, 300, true),
                row(TopoShape::Plant, 20, 10_000, false),
            ],
            horizon: Time::from_ms(120),
            seed: 0x7070,
        }
    }

    /// CI smoke shape: one small line plus a ring with a gateway kill,
    /// short horizon — covers redundant-path routing, fault re-route,
    /// and the broadcast ledger on every push.
    pub fn quick() -> TopoParams {
        TopoParams {
            rows: vec![
                row(TopoShape::Line, 2, 12, false),
                row(TopoShape::Ring, 3, 18, true),
            ],
            horizon: Time::from_ms(40),
            seed: 0x7070,
        }
    }
}

/// One application node: a periodic sender shipping an addressed
/// (or broadcast) frame, and the NIC drain driver.
fn app_node(i: usize, dst: Option<NodeId>, period_us: u64, rng: &mut SimRng) -> Kernel {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::RmQueue,
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process(format!("app{i}"));
    let nic = b.add_nic(NIC_IRQ, 8, 16);
    b.add_periodic_task(
        p,
        "tx",
        Duration::from_us(period_us),
        Script::periodic(vec![
            Action::Compute(Duration::from_us(rng.int_in(80, 200))),
            Action::SendMbox {
                mbox: nic.tx,
                bytes: 8,
                tag: addressed_tag(dst, i as u32),
            },
        ]),
    );
    b.add_driver_task(
        p,
        "nicdrv",
        Duration::from_ms(2),
        Script::looping(vec![
            Action::RecvMbox(nic.rx),
            Action::Compute(Duration::from_us(30)),
        ]),
    );
    b.build()
}

/// Builds one row's topology. Application nodes spread evenly over
/// the segments (global ids segment-major, apps before gateway NICs);
/// per segment, every fourth node sends to its counterpart slot on
/// the next segment, every eighth broadcasts segment-locally, and the
/// rest address a local peer. Segments are 1 Mbit/s buses, except the
/// plant's cells run 2 Mbit/s and its backbone (segment 0) 8 Mbit/s.
///
/// Gateways by shape: line `s → s+1`; ring `s → (s+1) mod N` with
/// priority-ordered forwarding; plant, per cell, a cost-1 primary and
/// a cost-2 standby to the backbone. When `fault` is set, gateway 0
/// (the `s0–s1` link on a ring, the first cell's primary on a plant)
/// fail-stops over the middle third of `horizon`.
///
/// # Panics
///
/// Panics when `nodes` does not divide evenly across `segments`.
pub fn build_topology(r: TopoRow, horizon: Time, seed: u64, workers: usize) -> Topology {
    assert!(
        r.segments >= 2,
        "a topology row needs at least two segments"
    );
    assert_eq!(
        r.nodes % r.segments,
        0,
        "app nodes must divide evenly across segments"
    );
    let per = r.nodes / r.segments;
    // Scale send periods with per-segment population so every bus
    // stays comfortably under saturation as rows grow; the cap keeps
    // first releases of the largest rows inside the horizon.
    let period_scale = (1 + per as u64 / 16).min(8);
    let mut rng = SimRng::seeded(seed);
    let mut t = Topology::new().with_workers(workers);
    let segs: Vec<_> = (0..r.segments)
        .map(|s| {
            t.add_segment(match r.shape {
                TopoShape::Line | TopoShape::Ring => 1_000_000,
                TopoShape::Plant if s == 0 => 8_000_000,
                TopoShape::Plant => 2_000_000,
            })
        })
        .collect();
    for (s, &seg) in segs.iter().enumerate() {
        for j in 0..per {
            let i = s * per + j;
            let mut nrng = rng.derive(i as u64);
            let dst = if j % 8 == 5 {
                // Segment-local broadcast: every listener on the bus,
                // bridge NICs included, hears it.
                None
            } else if j % 4 == 3 {
                // Cross-segment: the same slot on the next segment (a
                // line's last segment sends backwards; on a plant this
                // rides cell → backbone → next cell).
                let ns = match r.shape {
                    TopoShape::Line if s + 1 == r.segments => s - 1,
                    _ => (s + 1) % r.segments,
                };
                Some(NodeId((ns * per + j) as u32))
            } else {
                Some(NodeId((s * per + (j + 1) % per) as u32))
            };
            let period_us = nrng.int_in(6_000, 12_000) * period_scale;
            let k = app_node(i, dst, period_us, &mut nrng);
            t.add_node(seg, format!("app{i}"), k, (j + 1) as u32);
        }
    }
    match r.shape {
        TopoShape::Line => {
            for s in 0..r.segments - 1 {
                t.add_gateway(segs[s], segs[s + 1], GatewayConfig::default());
            }
        }
        TopoShape::Ring => {
            let cfg = GatewayConfig {
                policy: GatewayPolicy::Priority,
                ..GatewayConfig::default()
            };
            for s in 0..r.segments {
                t.add_gateway(segs[s], segs[(s + 1) % r.segments], cfg);
            }
        }
        TopoShape::Plant => {
            for c in 1..r.segments {
                for cost in [1, 2] {
                    t.add_gateway(
                        segs[c],
                        segs[0],
                        GatewayConfig {
                            cost,
                            ..GatewayConfig::default()
                        },
                    );
                }
            }
        }
    }
    if r.fault {
        let third = Duration::from_ns(horizon.as_ns() / 3);
        t.set_fault_plan(&FaultPlan::new(seed ^ 0xFA17).gateway_fail_stop(
            0,
            Time::ZERO + third,
            third,
        ));
    }
    t
}

/// One measured configuration. Every field is simulated and
/// deterministic.
#[derive(Clone, Debug)]
pub struct TopoRun {
    pub shape: TopoShape,
    pub fault: bool,
    pub segments: usize,
    pub nodes: usize,
    pub gateways: usize,
    pub frames_sent: u64,
    pub frames_delivered: u64,
    pub frames_dropped: u64,
    pub frames_lost_gateway: u64,
    pub frames_in_flight: u64,
    /// Frames held inside gateway buffers at the horizon — the carry
    /// term of the cross-segment conservation invariant.
    pub gateway_buffered: u64,
    pub gateway_forwarded: u64,
    pub gateway_overflow_drops: u64,
    pub gateway_peak_depth: u64,
    /// Frames dropped from the buffers of a gateway at the instant it
    /// fail-stopped (charged to their originating segments).
    pub gateway_fault_drops: u64,
    /// Fail-stop transitions across all gateways.
    pub gateway_outages: u64,
    /// In-run routing-table rebuilds (gateway down/up edges).
    pub reroutes: u64,
    pub no_route_drops: u64,
    /// Broadcasts resolved on their home bus, and the listener
    /// deliveries/drops they fanned out into.
    pub bcast_resolved: u64,
    pub bcast_fanout: u64,
    /// Inter-segment barriers the two-level engine placed.
    pub outer_barriers: u64,
    /// Intra-segment barriers, summed over segments.
    pub inner_barriers: u64,
    pub jobs_completed: u64,
    pub deadline_misses: u64,
    pub mean_latency_us: f64,
    /// Bit-for-bit identical statistics at 1, 4, and host-parallelism
    /// outer workers.
    pub deterministic: bool,
}

impl TopoRun {
    /// The exact conservation invariant, broadcasts included, summed
    /// across segments.
    pub fn conserved(&self) -> bool {
        self.frames_sent + self.bcast_fanout
            == self.frames_delivered
                + self.frames_dropped
                + self.frames_in_flight
                + self.gateway_buffered
                + self.bcast_resolved
    }
}

/// A deterministic fingerprint of everything a run observed; equal
/// fingerprints across worker counts mean the outer engine's
/// threading is invisible.
fn fingerprint(t: &Topology) -> String {
    let mut s = String::new();
    for si in 0..t.segment_count() as u32 {
        s.push_str(&format!(
            "{:?}\n",
            t.segment_stats(emeralds_fieldbus::SegmentId(si))
        ));
    }
    for gi in 0..t.gateway_count() as u32 {
        s.push_str(&format!("{:?}\n", t.gateway_stats(GatewayId(gi))));
    }
    s.push_str(&format!("{:?}\n", t.events()));
    s.push_str(&format!("reroutes {}\n", t.reroutes()));
    s.push_str(&format!("{:?}\n", t.conservation()));
    s.push_str(&t.metrics().to_json());
    s
}

/// Runs the sweep: each row once per worker count (1, 4, host), with
/// the single-worker run providing the reported numbers and the
/// others the determinism verdict.
pub fn run(params: &TopoParams) -> Vec<TopoRun> {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = Vec::new();
    for &r in &params.rows {
        let mut t = build_topology(r, params.horizon, params.seed, 1);
        t.run_until(params.horizon);
        let base_print = fingerprint(&t);
        let mut deterministic = true;
        for workers in [4, host] {
            let mut other = build_topology(r, params.horizon, params.seed, workers);
            other.run_until(params.horizon);
            deterministic &= fingerprint(&other) == base_print;
        }
        let total = t.total_stats();
        let m = t.metrics();
        let report = t.conservation();
        let (mut forwarded, mut overflow, mut peak) = (0u64, 0u64, 0u64);
        let (mut fault_drops, mut outages) = (0u64, 0u64);
        for gi in 0..t.gateway_count() as u32 {
            let g = t.gateway_stats(GatewayId(gi));
            forwarded += g.forwarded;
            overflow += g.dropped_overflow;
            peak = peak.max(g.peak_depth);
            fault_drops += g.dropped_fault;
            outages += g.outages;
        }
        let stats = t.exec_stats();
        out.push(TopoRun {
            shape: r.shape,
            fault: r.fault,
            segments: r.segments,
            nodes: r.nodes,
            gateways: t.gateway_count(),
            frames_sent: total.frames_sent,
            frames_delivered: total.frames_delivered,
            frames_dropped: total.frames_dropped,
            frames_lost_gateway: total.frames_lost_gateway,
            frames_in_flight: total.frames_in_flight,
            gateway_buffered: report.gateway_buffered,
            gateway_forwarded: forwarded,
            gateway_overflow_drops: overflow,
            gateway_peak_depth: peak,
            gateway_fault_drops: fault_drops,
            gateway_outages: outages,
            reroutes: t.reroutes(),
            no_route_drops: t.no_route_drops(),
            bcast_resolved: report.bcast_resolved,
            bcast_fanout: report.bcast_fanout,
            outer_barriers: stats.outer.barriers,
            inner_barriers: stats.inner.barriers,
            jobs_completed: m.jobs_completed,
            deadline_misses: m.deadline_misses,
            mean_latency_us: total.mean_latency().map(|d| d.as_us_f64()).unwrap_or(0.0),
            deterministic,
        });
    }
    out
}

/// Renders the sweep as a table.
pub fn render(runs: &[TopoRun]) -> String {
    let mut s = String::new();
    s.push_str(
        "shape  segs  nodes   sent  delivered  dropped  fwd     bcast  reroutes  outages  barriers(out/in)  lat us  det\n",
    );
    for r in runs {
        s.push_str(&format!(
            "{:<5}  {:>4}  {:>5}  {:>5}  {:>9}  {:>7}  {:>6}  {:>5}  {:>8}  {:>7}  {:>7}/{:<8}  {:>6.0}  {}\n",
            r.shape.as_str(),
            r.segments,
            r.nodes,
            r.frames_sent,
            r.frames_delivered,
            r.frames_dropped,
            r.gateway_forwarded,
            r.bcast_resolved,
            r.reroutes,
            r.gateway_outages,
            r.outer_barriers,
            r.inner_barriers,
            r.mean_latency_us,
            if r.deterministic { "yes" } else { "NO" },
        ));
    }
    s
}

/// Serializes the sweep as `BENCH_topology.json` — one `runs[]` entry
/// per line, no wall-clock or host fields, bit-for-bit reproducible.
pub fn to_json(params: &TopoParams, runs: &[TopoRun]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("\"experiment\": \"topology\",\n");
    s.push_str(&format!(
        "\"horizon_ms\": {},\n",
        params.horizon.as_ms_f64()
    ));
    s.push_str(&format!("\"seed\": {},\n", params.seed));
    s.push_str("\"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        s.push_str(&format!(
            "{{\"shape\": \"{}\", \"fault\": {}, \"segments\": {}, \"nodes\": {}, \"gateways\": {}, \"frames_sent\": {}, \"frames_delivered\": {}, \"frames_dropped\": {}, \"frames_lost_gateway\": {}, \"frames_in_flight\": {}, \"gateway_buffered\": {}, \"gateway_forwarded\": {}, \"gateway_overflow_drops\": {}, \"gateway_peak_depth\": {}, \"gateway_fault_drops\": {}, \"gateway_outages\": {}, \"reroutes\": {}, \"no_route_drops\": {}, \"bcast_resolved\": {}, \"bcast_fanout\": {}, \"outer_barriers\": {}, \"inner_barriers\": {}, \"jobs_completed\": {}, \"deadline_misses\": {}, \"mean_latency_us\": {:.1}, \"deterministic\": {}}}{}\n",
            r.shape.as_str(),
            r.fault,
            r.segments,
            r.nodes,
            r.gateways,
            r.frames_sent,
            r.frames_delivered,
            r.frames_dropped,
            r.frames_lost_gateway,
            r.frames_in_flight,
            r.gateway_buffered,
            r.gateway_forwarded,
            r.gateway_overflow_drops,
            r.gateway_peak_depth,
            r.gateway_fault_drops,
            r.gateway_outages,
            r.reroutes,
            r.no_route_drops,
            r.bcast_resolved,
            r.bcast_fanout,
            r.outer_barriers,
            r.inner_barriers,
            r.jobs_completed,
            r.deadline_misses,
            r.mean_latency_us,
            r.deterministic,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    s.push_str("]\n}\n");
    s
}

/// The CI regression gate, on absolute (deterministic) values:
///
/// - exact frame conservation — broadcasts included — must balance at
///   every row;
/// - every row must be bit-for-bit identical across outer worker
///   counts;
/// - every row must actually exercise the topology: gateways forwarded
///   frames, segments delivered them, broadcasts resolved;
/// - routing must cover the graph: no unroutable captures, and routes
///   rebuild only when a gateway actually changed state (`reroutes`
///   is zero on fault-free rows);
/// - fault rows must re-route, not leak: the victim logged an outage,
///   the tables rebuilt at least twice (down + up), and — the shapes
///   being redundant — **zero** frames were lost to any cause;
/// - the workload must be schedulable: no deadline misses (on fault
///   rows this doubles as the post-reroute convergence check).
///
/// Returns the per-row verdict lines and whether anything failed.
pub fn gate(runs: &[TopoRun]) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut failed = false;
    for r in runs {
        let mut bad = Vec::new();
        if !r.conserved() {
            bad.push(format!(
                "conservation leak: sent {} + bcast_fanout {} != delivered {} + dropped {} + in-flight {} + buffered {} + bcast_resolved {}",
                r.frames_sent,
                r.bcast_fanout,
                r.frames_delivered,
                r.frames_dropped,
                r.frames_in_flight,
                r.gateway_buffered,
                r.bcast_resolved
            ));
        }
        if !r.deterministic {
            bad.push("outer worker count changed results".into());
        }
        if r.gateway_forwarded == 0 {
            bad.push("no frame crossed a gateway".into());
        }
        if r.frames_delivered == 0 {
            bad.push("no frame delivered".into());
        }
        if r.bcast_resolved == 0 {
            bad.push("no broadcast resolved".into());
        }
        if r.no_route_drops > 0 {
            bad.push(format!("{} unroutable captures", r.no_route_drops));
        }
        if r.fault {
            if r.gateway_outages == 0 {
                bad.push("fault row: gateway never failed".into());
            }
            if r.reroutes < 2 {
                bad.push(format!("fault row: {} reroutes, expected >= 2", r.reroutes));
            }
            if r.frames_dropped > 0 {
                bad.push(format!(
                    "fault row lost {} frames on a redundant graph",
                    r.frames_dropped
                ));
            }
        } else if r.reroutes > 0 {
            bad.push(format!("{} reroutes without a gateway fault", r.reroutes));
        }
        if r.deadline_misses > 0 {
            bad.push(format!("{} deadline misses", r.deadline_misses));
        }
        failed |= !bad.is_empty();
        lines.push(format!(
            "topo {} s{} n{}{}: {}",
            r.shape.as_str(),
            r.segments,
            r.nodes,
            if r.fault { " fault" } else { "" },
            if bad.is_empty() {
                "ok".into()
            } else {
                format!("FAIL ({})", bad.join("; "))
            }
        ));
    }
    (lines, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_runs() -> (TopoParams, Vec<TopoRun>) {
        let params = TopoParams::quick();
        let runs = run(&params);
        (params, runs)
    }

    #[test]
    fn quick_rows_conserve_and_are_deterministic() {
        let (_, runs) = quick_runs();
        for r in &runs {
            assert!(r.conserved(), "{r:?}");
            assert!(r.deterministic, "{r:?}");
            assert!(r.gateway_forwarded > 0, "{r:?}");
            assert!(r.frames_delivered > 0, "{r:?}");
            assert!(r.bcast_resolved > 0, "{r:?}");
            assert_eq!(r.no_route_drops, 0, "{r:?}");
        }
        let (lines, failed) = gate(&runs);
        assert!(!failed, "{lines:?}");
    }

    #[test]
    fn quick_fault_row_reroutes_without_loss() {
        let (_, runs) = quick_runs();
        let r = runs.iter().find(|r| r.fault).expect("a quick fault row");
        assert_eq!(r.shape, TopoShape::Ring);
        assert_eq!(r.gateway_outages, 1, "{r:?}");
        assert!(r.reroutes >= 2, "{r:?}");
        assert_eq!(r.frames_dropped, 0, "{r:?}");
        assert_eq!(r.deadline_misses, 0, "{r:?}");
    }

    #[test]
    fn gate_flags_conservation_leak_nondeterminism_and_missing_reroute() {
        let (_, mut runs) = quick_runs();
        runs[0].frames_in_flight += 1;
        let (lines, failed) = gate(&runs);
        assert!(failed, "{lines:?}");

        let (_, mut runs) = quick_runs();
        runs[0].deterministic = false;
        let (_, failed) = gate(&runs);
        assert!(failed);

        let (_, mut runs) = quick_runs();
        let i = runs.iter().position(|r| r.fault).unwrap();
        runs[i].reroutes = 0;
        let (lines, failed) = gate(&runs);
        assert!(failed, "{lines:?}");
    }

    #[test]
    fn json_is_reproducible_and_host_free() {
        let (params, runs) = quick_runs();
        let json = to_json(&params, &runs);
        assert!(!json.contains("wall_ms"));
        assert!(!json.contains("host_parallelism"));
        assert!(json.contains("\"experiment\": \"topology\""));
        assert!(json.contains("\"shape\": \"ring\""));
        assert!(json.contains("\"reroutes\""));
        let runs2 = run(&params);
        assert_eq!(json, to_json(&params, &runs2));
    }
}
