//! Golden determinism pin: committed fixtures of trace hashes and
//! full `ClusterMetrics` for representative SC/FT/TOPO quick
//! workloads.
//!
//! The parity tests in `cluster_determinism.rs` and
//! `topology_determinism.rs` prove that epoch cadence and outer host
//! threading are invisible *within one build*; this suite pins the
//! virtual behavior itself across builds. The fixtures under
//! `tests/fixtures/golden/` were recorded before the host-side
//! zero-allocation pass landed, so any future perf work that silently
//! drifts a trace, a metric rollup, or a bus statistic fails here with
//! a diff instead of sailing through.
//!
//! To regenerate after an *intentional* virtual-behavior change, run
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_determinism
//! ```
//!
//! and commit the rewritten fixtures together with the change that
//! justified them.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;

use emeralds::core::kernel::{Kernel, KernelBuilder, KernelConfig};
use emeralds::core::script::{Action, Script};
use emeralds::core::SchedPolicy;
use emeralds::faults::FaultPlan;
use emeralds::fieldbus::{addressed_tag, Cluster, GatewayConfig, GatewayId, SegmentId, Topology};
use emeralds::sim::{Duration, IrqLine, NodeId, SimRng, Time};

const NIC_IRQ: IrqLine = IrqLine(2);

fn hash_of(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/golden")
        .join(name)
}

/// Compares `observed` against the committed fixture, or rewrites the
/// fixture when `UPDATE_GOLDEN=1` is set.
fn check_golden(name: &str, observed: &str) {
    let path = fixture_path(name);
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, observed).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert_eq!(
        observed,
        expected,
        "virtual behavior drifted from committed fixture {} \
         (rerun with UPDATE_GOLDEN=1 only for an intentional change)",
        path.display()
    );
}

/// A traced node sending an addressed frame on a jittered period,
/// draining its RX mailbox, with filler compute — the SC traffic
/// shape, small enough to trace.
fn traced_node(i: usize, dst: NodeId, rng: &mut SimRng) -> Kernel {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![1],
        },
        record_trace: true,
        ..KernelConfig::default()
    });
    let p = b.add_process(format!("node{i}"));
    let nic = b.add_nic(NIC_IRQ, 8, 16);
    b.add_periodic_task(
        p,
        "tx",
        Duration::from_us(rng.int_in(4_000, 7_000)),
        Script::periodic(vec![
            Action::Compute(Duration::from_us(rng.int_in(100, 300))),
            Action::SendMbox {
                mbox: nic.tx,
                bytes: 8,
                tag: addressed_tag(Some(dst), i as u32),
            },
        ]),
    );
    b.add_periodic_task(
        p,
        "filler",
        Duration::from_us(rng.int_in(900, 1_500)),
        Script::compute_only(Duration::from_us(rng.int_in(30, 80))),
    );
    b.add_driver_task(
        p,
        "nicdrv",
        Duration::from_ms(2),
        Script::looping(vec![
            Action::RecvMbox(nic.rx),
            Action::Compute(Duration::from_us(40)),
        ]),
    );
    b.build()
}

/// A 6-node ring cluster with tracing on (the SC quick shape).
fn ring_cluster() -> Cluster {
    const N: usize = 6;
    let mut rng = SimRng::seeded(0x601D);
    let mut c = Cluster::new(1_000_000);
    for i in 0..N {
        let mut nrng = rng.derive(i as u64);
        let dst = NodeId(((i + 1) % N) as u32);
        let k = traced_node(i, dst, &mut nrng);
        c.add_node(format!("node{i}"), k, (i + 1) as u32);
    }
    c
}

/// Serializes one run's full observable surface: per-node trace
/// hashes, the `ClusterMetrics` rollup as JSON, and the bus statistics
/// debug form (a `PartialEq`-complete snapshot).
fn cluster_snapshot(c: &Cluster) -> String {
    let mut s = String::new();
    for n in c.nodes() {
        s.push_str(&format!(
            "trace_hash {} {:016x}\n",
            n.name,
            hash_of(&n.kernel.trace().to_jsonl())
        ));
    }
    s.push_str(&format!("bus_stats {:?}\n", c.stats()));
    s.push_str(&c.metrics().to_json());
    s
}

#[test]
fn sc_quick_workload_matches_golden() {
    let mut c = ring_cluster();
    c.run_until(Time::from_ms(80));
    // The pin is nontrivial: real traffic and real scheduling ran.
    assert!(c.stats().frames_delivered > 20, "{:?}", c.stats());
    assert!(c.metrics().jobs_completed > 100);
    check_golden("sc_ring.txt", &cluster_snapshot(&c));
}

#[test]
fn ft_faulted_workload_matches_golden() {
    let horizon = Time::from_ms(80);
    let plan = FaultPlan::random(0xFA11, 6, horizon, 0.05, 0.5, 0.5);
    assert!(!plan.is_empty());
    let mut c = ring_cluster();
    c.set_fault_plan(&plan);
    c.run_until(horizon);
    let stats = c.stats();
    assert!(
        stats.error_frames > 0 || stats.frames_lost_offline > 0,
        "fault plan left no signal: {stats:?}"
    );
    check_golden("ft_faulted_ring.txt", &cluster_snapshot(&c));
}

/// A line of three segments, two app nodes each, bridged by two
/// gateways — the TOPO quick shape with cross-segment traffic.
fn line_topology() -> Topology {
    const SEGS: usize = 3;
    const PER: usize = 2;
    let mut rng = SimRng::seeded(0x601D_70B0);
    let mut t = Topology::new();
    let segs: Vec<SegmentId> = (0..SEGS).map(|_| t.add_segment(1_000_000)).collect();
    for (s, &seg) in segs.iter().enumerate() {
        for j in 0..PER {
            let i = s * PER + j;
            let mut nrng = rng.derive(i as u64);
            // One node talks within the segment, the other sends into
            // the next segment over the gateway chain.
            let dst = if j == PER - 1 {
                NodeId((((s + 1) % SEGS) * PER) as u32)
            } else {
                NodeId((s * PER + (j + 1) % PER) as u32)
            };
            let k = traced_node(i, dst, &mut nrng);
            t.add_node(seg, format!("node{i}"), k, (j + 1) as u32);
        }
    }
    t.add_gateway(segs[0], segs[1], GatewayConfig::default());
    t.add_gateway(segs[1], segs[2], GatewayConfig::default());
    t
}

#[test]
fn topo_quick_workload_matches_golden() {
    let mut t = line_topology();
    t.run_until(Time::from_ms(80));
    let mut s = String::new();
    for i in 0..t.node_count() as u32 {
        let n = t.node(NodeId(i));
        s.push_str(&format!(
            "trace_hash {} {:016x}\n",
            n.name,
            hash_of(&n.kernel.trace().to_jsonl())
        ));
    }
    for g in 0..t.gateway_count() as u32 {
        s.push_str(&format!(
            "gateway_stats {g} {:?}\n",
            t.gateway_stats(GatewayId(g))
        ));
    }
    s.push_str(&t.metrics().to_json());
    let gw_forwarded: u64 = (0..t.gateway_count() as u32)
        .map(|g| t.gateway_stats(GatewayId(g)).forwarded)
        .sum();
    assert!(gw_forwarded > 0, "no cross-segment traffic flowed");
    check_golden("topo_line.txt", &s);
}
