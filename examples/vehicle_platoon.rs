//! A three-vehicle platoon over bridged CAN segments — the
//! multi-segment topology executive in its natural habitat.
//!
//! Each vehicle is one CAN segment carrying four EMERALDS nodes:
//!
//! - `coord` (platoon coordinator): runs a 20 ms spacing law and
//!   sends a speed/gap frame to the *next vehicle's* coordinator —
//!   the only traffic that leaves the segment;
//! - `engine` (engine controller): 10 ms torque loop, streams a
//!   status frame to the coordinator at high priority;
//! - `brake` (brake-by-wire): 10 ms pressure loop, streams to the
//!   coordinator;
//! - `radar` (range sensor): 25 ms range frame to the coordinator.
//!
//! The vehicles are chained by store-and-forward V2V gateways
//! (lead — middle — tail), each modeled as a bounded FIFO with a
//! 300 µs forwarding latency. The platoon advances under
//! **hierarchical conservative lookahead**: inside a vehicle the
//! epoch horizon is one bus-frame time; between vehicles it is the
//! gateway latency, so all three vehicle sub-executives run in
//! parallel between inter-segment barriers — and the run is
//! bit-for-bit deterministic at any worker count.
//!
//! ```sh
//! cargo run --release --example vehicle_platoon
//! ```

use emeralds::core::kernel::{Kernel, KernelBuilder, KernelConfig};
use emeralds::core::script::{Action, Script};
use emeralds::core::SchedPolicy;
use emeralds::fieldbus::{addressed_tag, GatewayConfig, GatewayId, SegmentId, Topology};
use emeralds::sim::{Duration, IrqLine, NodeId, Time};

const NIC_IRQ: IrqLine = IrqLine(2);
const VEHICLES: usize = 3;
const NODES_PER_VEHICLE: usize = 4;
const HORIZON_MS: u64 = 300;

fn us(v: u64) -> Duration {
    Duration::from_us(v)
}

/// A periodic control task that computes, then ships one addressed
/// frame; plus the IRQ-driven NIC drain driver every node carries.
fn control_node(name: &str, period: Duration, compute: Duration, dst: NodeId, tag: u32) -> Kernel {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![1],
        },
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process(name.to_string());
    let nic = b.add_nic(NIC_IRQ, 8, 16);
    b.add_periodic_task(
        p,
        "law",
        period,
        Script::periodic(vec![
            Action::Compute(compute),
            Action::SendMbox {
                mbox: nic.tx,
                bytes: 8,
                tag: addressed_tag(Some(dst), tag),
            },
        ]),
    );
    b.add_driver_task(
        p,
        "nicdrv",
        Duration::from_ms(2),
        Script::looping(vec![Action::RecvMbox(nic.rx), Action::Compute(us(40))]),
    );
    b.build()
}

/// Global id of vehicle `v`'s coordinator (app nodes register before
/// gateways, vehicle-major).
fn coord_id(v: usize) -> NodeId {
    NodeId((v * NODES_PER_VEHICLE) as u32)
}

fn main() {
    let mut platoon = Topology::new().with_workers(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );
    let segments: Vec<SegmentId> = (0..VEHICLES)
        .map(|_| platoon.add_segment(1_000_000))
        .collect();

    for (v, &seg) in segments.iter().enumerate() {
        // The coordinator talks to the follower; the tail reports back
        // to the lead, closing the ring of platoon state.
        let next = coord_id((v + 1) % VEHICLES);
        let vname = |role: &str| format!("v{v}.{role}");
        let k = control_node(&vname("coord"), Duration::from_ms(20), us(400), next, 0x10);
        platoon.add_node(seg, vname("coord"), k, 4);
        let me = coord_id(v);
        let k = control_node(&vname("engine"), Duration::from_ms(10), us(250), me, 0x20);
        platoon.add_node(seg, vname("engine"), k, 1);
        let k = control_node(&vname("brake"), Duration::from_ms(10), us(200), me, 0x30);
        platoon.add_node(seg, vname("brake"), k, 2);
        let k = control_node(&vname("radar"), Duration::from_ms(25), us(150), me, 0x40);
        platoon.add_node(seg, vname("radar"), k, 3);
    }

    // V2V links: lead <-> middle <-> tail. The tail-to-lead platoon
    // report crosses both gateways.
    let v2v = GatewayConfig {
        latency: us(300),
        capacity: 16,
        ..GatewayConfig::default()
    };
    for v in 0..VEHICLES - 1 {
        platoon.add_gateway(segments[v], segments[v + 1], v2v);
    }

    platoon.run_until(Time::from_ms(HORIZON_MS));

    let total = platoon.total_stats();
    let m = platoon.metrics();
    println!(
        "platoon: {} vehicles, {} nodes ({} bridge NICs), {} ms simulated",
        VEHICLES,
        platoon.node_count(),
        2 * platoon.gateway_count(),
        HORIZON_MS
    );
    println!(
        "frames: sent {}, delivered {}, dropped {}, in flight {}",
        total.frames_sent, total.frames_delivered, total.frames_dropped, total.frames_in_flight
    );
    for g in 0..platoon.gateway_count() as u32 {
        let s = platoon.gateway_stats(GatewayId(g));
        println!(
            "v2v link {g}: forwarded {}, overflow drops {}, peak depth {}, buffered {}",
            s.forwarded, s.dropped_overflow, s.peak_depth, s.buffered
        );
    }
    for (v, &s) in segments.iter().enumerate() {
        let seg = platoon.segment_stats(s);
        println!(
            "vehicle {v}: {} frames on its bus, utilization {:.1}%",
            seg.frames_sent,
            100.0 * seg.busy.as_ns() as f64 / (HORIZON_MS as f64 * 1e6),
        );
    }
    println!(
        "jobs completed {}, deadline misses {}",
        m.jobs_completed, m.deadline_misses
    );
    let report = platoon.conservation();
    println!(
        "ledger: sent {} == delivered {} + dropped {} + in_flight {} + gateway_buffered {}",
        report.sent, report.delivered, report.dropped, report.in_flight, report.gateway_buffered
    );

    // The platoon actually platooned.
    assert!(report.holds(), "frame ledger leaked: {report:?}");
    assert_eq!(platoon.no_route_drops(), 0);
    for g in 0..platoon.gateway_count() as u32 {
        assert!(
            platoon.gateway_stats(GatewayId(g)).forwarded > 0,
            "v2v link {g} carried nothing"
        );
    }
    assert_eq!(m.deadline_misses, 0, "a control law missed its deadline");
    assert!(total.frames_delivered > 100);
    println!("\nevery spacing report crossed its V2V links; no control deadline missed");
}
