//! Distributed avionics over a 1 Mbit/s fieldbus — the paper's
//! distributed configuration (§2: "5–10 nodes interconnected by a
//! low-speed (1–2 Mbit/s) fieldbus network (such as automotive and
//! avionics control systems)") scaled out to a 64-board airframe on
//! the single-bus cluster executive.
//!
//! Five core avionics nodes, each an EMERALDS kernel:
//!
//! - `adc`  (air data computer): broadcasts airspeed every 20 ms at
//!   high bus priority;
//! - `ahrs` (attitude/heading): broadcasts attitude every 10 ms at the
//!   highest bus priority;
//! - `fcc`  (flight control computer): consumes both streams with an
//!   IRQ-driven NIC driver and runs a 10 ms control law;
//! - `disp` (cockpit display): consumes the streams at low priority;
//! - `dfdr` (flight data recorder): logs everything;
//!
//! plus 59 remote terminals (smart actuators / sensor concentrators)
//! that each run a local control loop and pass an addressed status
//! frame around a ring every ~25 ms. All 64 kernels advance in
//! lockstep under the conservative-lookahead epoch model of
//! [`emeralds::fieldbus::Cluster`]; the run is bit-for-bit
//! deterministic.
//!
//! ```sh
//! cargo run --release --example avionics_bus
//! ```

use emeralds::core::kernel::{Kernel, KernelBuilder, KernelConfig};
use emeralds::core::script::{Action, Operand, Script};
use emeralds::core::SchedPolicy;
use emeralds::faults::FaultPlan;
use emeralds::fieldbus::{addressed_tag, Cluster};
use emeralds::hal::Nic;
use emeralds::sim::{Duration, IrqLine, NodeId, SimRng, StateId, Time};

const NIC_IRQ: IrqLine = IrqLine(2);
const CORE_NODES: usize = 5;
const TERMINALS: usize = 59;
const HORIZON_MS: u64 = 500;

fn ms(v: u64) -> Duration {
    Duration::from_ms(v)
}

fn us(v: u64) -> Duration {
    Duration::from_us(v)
}

fn builder(name: &str) -> (KernelBuilder, emeralds::sim::ProcId, Nic) {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![1],
        },
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process(name.to_string());
    let nic = b.add_nic(NIC_IRQ, 8, 16);
    (b, p, nic)
}

/// A sensor node: samples and broadcasts on a period, and also
/// publishes the sample into a §7 state-message variable the NIC
/// replicates to a consumer over a `link_state` channel.
fn sensor_node(name: &'static str, period: Duration, payload: u32) -> (Kernel, StateId) {
    let (mut b, p, nic) = builder(name);
    let tid = b.add_periodic_task(
        p,
        format!("{name}-sample"),
        period,
        Script::periodic(vec![
            Action::Compute(us(500)),
            Action::StateWrite {
                var: StateId(0),
                value: Operand::Const(payload),
            },
            Action::SendMbox {
                mbox: nic.tx,
                bytes: 8,
                tag: addressed_tag(None, payload),
            },
        ]),
    );
    let var = b.add_state_msg(tid, 8, 3, &[]);
    assert_eq!(var, StateId(0));
    // Broadcast frames also land here; a light NIC driver drains them
    // (a real node would filter by label).
    b.add_driver_task(
        p,
        format!("{name}-nicdrv"),
        ms(5),
        Script::looping(vec![Action::RecvMbox(nic.rx), Action::Compute(us(30))]),
    );
    (b.build(), var)
}

/// A consumer node: an IRQ-driven NIC driver feeds a control/display
/// task that polls its NIC-fed state-message replica — each read
/// records the end-to-end *data age* of the sensor sample it consumes.
fn consumer_node(name: &'static str, work: Duration) -> (Kernel, StateId) {
    let (mut b, p, nic) = builder(name);
    let var = b.add_state_replica(p, 8, 3, &[]);
    // NIC driver: drain the RX mailbox as frames arrive.
    b.add_driver_task(
        p,
        format!("{name}-nicdrv"),
        ms(2),
        Script::looping(vec![Action::RecvMbox(nic.rx), Action::Compute(us(120))]),
    );
    // The node's periodic work (control law / display refresh / log)
    // consumes the freshest replicated sensor sample.
    b.add_periodic_task(
        p,
        format!("{name}-main"),
        ms(10),
        Script::periodic(vec![Action::StateRead(var), Action::Compute(work)]),
    );
    (b.build(), var)
}

/// A remote terminal: local control loop plus a ring status frame
/// addressed to the next terminal. Periods are jittered per terminal
/// from a seeded RNG, so the run stays deterministic.
fn terminal_node(i: usize, ring_dst: NodeId, rng: &mut SimRng) -> Kernel {
    let (mut b, p, nic) = builder(&format!("rt{i:02}"));
    b.add_periodic_task(
        p,
        "status",
        Duration::from_us(rng.int_in(24_000, 27_000)),
        Script::periodic(vec![
            Action::Compute(Duration::from_us(rng.int_in(200, 400))),
            Action::SendMbox {
                mbox: nic.tx,
                bytes: 8,
                tag: addressed_tag(Some(ring_dst), 0x1000 + i as u32),
            },
        ]),
    );
    b.add_periodic_task(
        p,
        "ctl",
        Duration::from_us(rng.int_in(4_000, 6_000)),
        Script::compute_only(Duration::from_us(rng.int_in(80, 160))),
    );
    b.add_driver_task(
        p,
        "nicdrv",
        ms(5),
        Script::looping(vec![Action::RecvMbox(nic.rx), Action::Compute(us(30))]),
    );
    b.build()
}

/// Builds the 64-board airframe; node ids 0–4 are the core avionics
/// nodes in declaration order, 5.. are the remote terminals.
fn build_cluster() -> Cluster {
    let mut cluster = Cluster::new(1_000_000); // 1 Mbit/s

    let (ahrs, ahrs_var) = sensor_node("ahrs", ms(10), 45); // pitch
    let (adc, adc_var) = sensor_node("adc", ms(20), 320); // airspeed (kt)
    let (fcc, fcc_var) = consumer_node("fcc", ms(3));
    let (disp, disp_var) = consumer_node("disp", ms(4));
    let (dfdr, _) = consumer_node("dfdr", ms(1));

    // Bus arbitration ids: AHRS (attitude) outranks ADC, which
    // outranks everything else; terminals fill the low-priority tail.
    cluster.add_node("ahrs", ahrs, 1);
    cluster.add_node("adc", adc, 2);
    cluster.add_node("fcc", fcc, 10);
    cluster.add_node("disp", disp, 11);
    cluster.add_node("dfdr", dfdr, 12);

    // State-message replication: attitude feeds the control law, air
    // data feeds the display. Arbitration ids 3–4 keep the state
    // frames just below the raw sensor broadcasts.
    cluster.link_state(NodeId(0), ahrs_var, NodeId(2), fcc_var, 3, 8);
    cluster.link_state(NodeId(1), adc_var, NodeId(3), disp_var, 4, 8);

    let mut rng = SimRng::seeded(0xA710);
    for i in 0..TERMINALS {
        let ring_dst = NodeId((CORE_NODES + (i + 1) % TERMINALS) as u32);
        let mut trng = rng.derive(i as u64);
        let k = terminal_node(i, ring_dst, &mut trng);
        cluster.add_node(format!("rt{i:02}"), k, 20 + i as u32);
    }
    assert_eq!(cluster.len(), CORE_NODES + TERMINALS);
    cluster
}

fn main() {
    let mut cluster = build_cluster();
    let [n_ahrs, n_adc, n_fcc, n_disp, n_dfdr] = [0u32, 1, 2, 3, 4].map(NodeId);

    cluster.run_until(Time::from_ms(HORIZON_MS));

    let s = *cluster.stats();
    println!(
        "=== avionics bus, {} nodes, {HORIZON_MS} ms at 1 Mbit/s ===\n",
        cluster.len()
    );
    println!(
        "frames: sent {}, delivered {}, dropped {}",
        s.frames_sent, s.frames_delivered, s.frames_dropped
    );
    println!(
        "bus busy {:.2} ms ({:.2}% utilization), mean frame latency {}",
        s.busy.as_ms_f64(),
        100.0 * cluster.bus_utilization(),
        s.mean_latency()
            .map(|d| d.to_string())
            .unwrap_or_else(|| "-".into())
    );
    println!();
    for id in [n_ahrs, n_adc, n_fcc, n_disp, n_dfdr] {
        let node = cluster.node(id);
        let k = &node.kernel;
        let misses = k.total_deadline_misses();
        println!(
            "{:<5} tasks={} misses={} kernel overhead {:.1} us",
            node.name,
            k.task_count(),
            misses,
            k.accounting().total_overhead().as_us_f64()
        );
        assert_eq!(misses, 0, "{}: deadline miss", node.name);
    }
    let m = cluster.metrics();
    println!(
        "\ncluster: {} nodes, {} jobs completed, {} context switches, {} deadline misses",
        m.node_count(),
        m.jobs_completed,
        m.context_switches,
        m.deadline_misses
    );
    // Both sensor streams flowed (500 ms → 50 AHRS + 25 ADC broadcast
    // frames), and every terminal pushed ~20 ring frames.
    assert!(s.frames_sent >= 1_000, "sent {}", s.frames_sent);
    assert_eq!(s.frames_dropped, 0);
    assert_eq!(m.deadline_misses, 0);
    // Frame accounting: broadcasts fan out (one reception per
    // listener), so receptions exceed sends here — but nothing
    // vanishes: every sent frame is delivered, dropped, or still
    // pending at the horizon.
    assert!(s.frames_delivered + s.frames_dropped + s.frames_in_flight >= s.frames_sent);
    println!(
        "all {} nodes met every deadline; no frames dropped",
        m.node_count()
    );

    // End-to-end staleness at the consumers: the FCC's attitude data
    // is never older than one AHRS period plus delivery slack.
    let fcc_age = cluster.node(n_fcc).kernel.metrics().state_age;
    println!(
        "fcc attitude data age: {} reads, mean {}, p99 <= {}, max {}",
        fcc_age.count(),
        fcc_age.mean(),
        fcc_age.quantile_bound(0.99),
        fcc_age.max()
    );
    assert!(fcc_age.count() > 0, "fcc never consumed replicated state");
    assert!(
        fcc_age.max() <= ms(10) + ms(3),
        "attitude staleness {} beyond P + D",
        fcc_age.max()
    );

    // --- Phase 2: the same airframe under injected faults ---
    //
    // rt07's transmitter babbles for 60 ms (the CAN error machinery
    // must drive it to bus-off and silence it), rt20 fail-stops for
    // 40 ms mid-flight (its backlogged control jobs come back tagged
    // as fault-caused misses), and 1% of grants corrupt on the wire
    // (flagged frames retransmit in order). The core avionics nodes
    // must ride it all out with zero deadline misses.
    let babbler = NodeId((CORE_NODES + 7) as u32);
    let halted = NodeId((CORE_NODES + 20) as u32);
    let plan = FaultPlan::new(0xBAD5EED)
        .with_corruption(0.01)
        .babble(babbler, Time::from_ms(100), ms(60), us(80))
        .fail_stop(halted, Time::from_ms(200), ms(40));

    let mut faulted = build_cluster();
    faulted.set_fault_plan(&plan);
    faulted.run_until(Time::from_ms(HORIZON_MS));

    let s2 = *faulted.stats();
    let m2 = faulted.metrics();
    println!("\n=== same airframe, faulted run ===\n");
    println!(
        "frames: sent {}, delivered {}, dropped {} ({} lost to offline nodes)",
        s2.frames_sent, s2.frames_delivered, s2.frames_dropped, s2.frames_lost_offline
    );
    println!(
        "error frames {}, retransmissions {}, babble frames {}",
        s2.error_frames, s2.retransmissions, s2.babble_frames
    );
    println!(
        "bus-off events {}, recoveries {}, unrecovered at horizon {}",
        s2.bus_off_events, s2.bus_off_recoveries, m2.unrecovered_bus_off
    );
    println!(
        "deadline misses {} (fault {}, overload {}, unknown {})",
        m2.deadline_misses, m2.misses_fault, m2.misses_overload, m2.misses_unknown
    );
    let bstats = faulted.node_stats(babbler);
    println!(
        "babbler rt07: {} garbage frames, {} bus-off entries, {} recoveries, max recovery {}",
        bstats.babble_frames,
        bstats.bus_off_events,
        bstats.bus_off_recoveries,
        bstats.recovery_hist.max(),
    );
    println!(
        "halted rt20: {} TX frames lost while down, {} fault-tagged misses",
        faulted.node_stats(halted).tx_dropped,
        faulted.node(halted).kernel.metrics().counters.misses_fault,
    );

    let age2 = m2.state_age.clone();
    println!(
        "state-message data age under faults: {} reads, mean {}, p99 <= {}, max {}",
        age2.count(),
        age2.mean(),
        age2.quantile_bound(0.99),
        age2.max()
    );

    // The fault machinery engaged and contained everything.
    assert!(s2.error_frames > 0 && s2.retransmissions > 0);
    assert!(s2.babble_frames > 0);
    assert!(s2.bus_off_events >= 1, "babbler never reached bus-off");
    assert_eq!(m2.unrecovered_bus_off, 0, "a node stayed bus-off");
    assert!(s2.frames_lost_offline > 0);
    assert!(m2.misses_fault > 0, "the outage left no fault-tagged miss");
    // Accounting survives the storm (broadcast fan-out included), and
    // the staleness tail stays inside the horizon envelope.
    assert!(s2.frames_delivered + s2.frames_dropped + s2.frames_in_flight >= s2.frames_sent);
    assert!(age2.count() > 0);
    assert!(age2.max() <= Duration::from_ms(HORIZON_MS));
    // The flight-critical nodes never missed a beat.
    for id in [n_ahrs, n_adc, n_fcc, n_disp, n_dfdr] {
        let node = faulted.node(id);
        assert_eq!(
            node.kernel.total_deadline_misses(),
            0,
            "{}: deadline miss under faults",
            node.name
        );
    }
    println!("\ncore avionics nodes met every deadline through the fault storm");
}
