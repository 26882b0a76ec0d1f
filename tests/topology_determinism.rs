//! Determinism and conservation pins for the bridged multi-segment
//! topology executive.
//!
//! The two-level engine is the only executive that runs host threads,
//! and it promises that they are *invisible*: the same topology
//! advanced with 1, 2, 3, 4, 8 or `available_parallelism` *outer*
//! workers produces bit-for-bit identical per-node traces, metrics,
//! bus stats, NIC stats and gateway stats, with and without node or
//! gateway faults — and the cross-segment frame ledger balances at
//! every rest point, with gateway-buffered frames as the only carry
//! term.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use emeralds::core::kernel::{Kernel, KernelBuilder, KernelConfig};
use emeralds::core::script::{Action, Script};
use emeralds::core::SchedPolicy;
use emeralds::faults::FaultPlan;
use emeralds::fieldbus::{
    addressed_tag, GatewayConfig, GatewayId, NodeStats, SegmentId, TopoEventKind, Topology,
};
use emeralds::sim::{Duration, IrqLine, NodeId, SimRng, Time};

const NIC_IRQ: IrqLine = IrqLine(2);

fn hash_of(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Outer worker counts to compare against the 1-worker base on the
/// three-segment line: 2 splits it unevenly (2 + 1), 3 gives each
/// segment its own thread, 4 and 8 clamp to 3; plus the host's own
/// parallelism.
fn worker_counts() -> Vec<usize> {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![2, 3, 4, 8, host];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// A traced node sending addressed frames to a (global) peer, or
/// broadcasting them, on a jittered period, draining its RX mailbox.
fn traced_node(i: usize, dst: Option<NodeId>, rng: &mut SimRng) -> Kernel {
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
        Duration::from_us(rng.int_in(4_000, 9_000)),
        Script::periodic(vec![
            Action::Compute(Duration::from_us(rng.int_in(100, 300))),
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
            Action::Compute(Duration::from_us(40)),
        ]),
    );
    b.build()
}

/// A line of three segments, three app nodes each, bridged by two
/// gateways. Traffic mixes segment-local sends with cross-segment
/// sends into the next segment (app nodes are registered first, so
/// their global ids are 0..9 in registration order).
fn line_topology(workers: usize) -> Topology {
    const SEGS: usize = 3;
    const PER: usize = 3;
    let mut rng = SimRng::seeded(0x70B0);
    let mut t = Topology::new().with_workers(workers);
    let segs: Vec<SegmentId> = (0..SEGS).map(|_| t.add_segment(1_000_000)).collect();
    for (s, &seg) in segs.iter().enumerate() {
        for j in 0..PER {
            let i = s * PER + j;
            let mut nrng = rng.derive(i as u64);
            // Two of three nodes talk within the segment; the third
            // sends into the next segment over the gateway chain.
            let dst = if j == PER - 1 {
                NodeId((((s + 1) % SEGS) * PER) as u32)
            } else {
                NodeId((s * PER + (j + 1) % PER) as u32)
            };
            let k = traced_node(i, Some(dst), &mut nrng);
            t.add_node(seg, format!("node{i}"), k, (j + 1) as u32);
        }
    }
    t.add_gateway(segs[0], segs[1], GatewayConfig::default());
    t.add_gateway(segs[1], segs[2], GatewayConfig::default());
    t
}

/// `line_topology` plus a broadcaster on the middle segment, under a
/// random node fault plan: every broadcast lands on each node of that
/// segment, bridge NICs included, and fail-stop gates stall some nodes
/// while the engine skips them.
fn faulted_broadcast_line(workers: usize) -> Topology {
    let mut t = line_topology(workers);
    let k = traced_node(9, None, &mut SimRng::seeded(0xB0CA));
    t.add_node(SegmentId(1), "caster", k, 9);
    let plan = FaultPlan::random(0xFA11, t.node_count(), Time::from_ms(80), 0.05, 0.5, 0.5);
    t.set_fault_plan(&plan);
    t
}

fn node_stats(t: &Topology) -> Vec<NodeStats> {
    (0..t.node_count() as u32)
        .map(|i| t.node(NodeId(i)).stats.clone())
        .collect()
}

fn observe(t: &Topology) -> (Vec<u64>, Vec<u64>) {
    let trace_hashes = (0..t.node_count() as u32)
        .map(|i| hash_of(&t.node(NodeId(i)).kernel.trace().to_jsonl()))
        .collect();
    let gw_stats = (0..t.gateway_count() as u32)
        .flat_map(|g| {
            let s = t.gateway_stats(GatewayId(g));
            [s.forwarded, s.dropped_overflow, s.peak_depth, s.buffered]
        })
        .collect();
    (trace_hashes, gw_stats)
}

#[test]
fn traces_and_ledgers_identical_across_outer_worker_counts() {
    let horizon = Time::from_ms(80);
    let mut base = line_topology(1);
    base.run_until(horizon);
    let base_obs = observe(&base);

    // The pin is nontrivial: local and cross-segment traffic flowed.
    let total = base.total_stats();
    assert!(total.frames_delivered > 20, "{total:?}");
    assert!(
        base.gateway_stats(GatewayId(0)).forwarded > 0
            && base.gateway_stats(GatewayId(1)).forwarded > 0,
        "gateways idle"
    );
    let report = base.conservation();
    assert!(report.holds(), "ledger {report:?}");
    assert_eq!(base.no_route_drops(), 0);

    for workers in worker_counts() {
        let mut t = line_topology(workers);
        t.run_until(horizon);
        let obs = observe(&t);
        assert_eq!(
            obs.0, base_obs.0,
            "trace hashes diverged at workers={workers}"
        );
        assert_eq!(
            obs.1, base_obs.1,
            "gateway stats diverged at workers={workers}"
        );
        assert_eq!(
            t.metrics(),
            base.metrics(),
            "metrics diverged at workers={workers}"
        );
        assert_eq!(
            t.total_stats(),
            base.total_stats(),
            "bus stats diverged at workers={workers}"
        );
        assert!(t.conservation().holds());
    }
}

/// The ledger must balance at *every* rest point, not only at a
/// drained horizon — including instants where frames sit buffered
/// inside a gateway (the `gateway_buffered` carry term).
#[test]
fn conservation_holds_at_staggered_horizons() {
    let mut t = line_topology(2);
    let mut saw_buffered = false;
    for step in [3u64, 7, 11, 16, 24, 40, 80] {
        t.run_until(Time::from_ms(step));
        let report = t.conservation();
        assert!(report.holds(), "ledger at {step} ms: {report:?}");
        saw_buffered |= report.gateway_buffered > 0;
    }
    // The staggered horizons actually exercised the carry term at
    // least once; otherwise this test pins nothing new.
    assert!(
        saw_buffered,
        "no rest point caught a frame inside a gateway"
    );
}

/// Split advancement across many `run_until` calls matches one
/// uninterrupted run when the boundaries land on the outer barrier
/// grid: the clean line split four times, and the faulted broadcast
/// line split at every outer barrier, so the run-end catch-up idles,
/// gates and advances hundreds of times. After every call each
/// kernel's clock sits at or past the horizon and equals its app +
/// idle + overhead time.
#[test]
fn split_runs_match_single_run() {
    type Build = fn(usize) -> Topology;
    // (input, outer barriers per call, outer barriers in all)
    let inputs: [(Build, u64, u64); 2] =
        [(line_topology, 60, 240), (faulted_broadcast_line, 1, 400)];
    for (build, stride, barriers) in inputs {
        let mut whole = build(2);
        let l = whole.inter_lookahead();
        whole.run_until(Time::ZERO + l * barriers);

        let mut split = build(2);
        for k in (stride..=barriers).step_by(stride as usize) {
            let horizon = Time::ZERO + l * k;
            split.run_until(horizon);
            for i in 0..split.node_count() as u32 {
                let kernel = &split.node(NodeId(i)).kernel;
                let m = kernel.metrics();
                let now = kernel.now();
                assert!(now >= horizon, "node {i} at {now:?} < {horizon:?}");
                assert_eq!(
                    now,
                    Time::ZERO + m.app_time + m.idle_time + m.total_overhead,
                    "node {i} at {horizon:?}"
                );
            }
        }
        assert_eq!(whole.metrics(), split.metrics());
        assert_eq!(whole.total_stats(), split.total_stats());
        assert_eq!(node_stats(&whole), node_stats(&split));
        assert_eq!(observe(&whole), observe(&split));
        assert!(split.conservation().holds(), "{:?}", split.conservation());
    }
    // The faulted input is nontrivial: broadcasts resolved, and the
    // fault plan left evidence.
    let mut t = faulted_broadcast_line(1);
    t.run_until(Time::from_ms(80));
    let total = t.total_stats();
    assert!(total.bcast_resolved > 0, "{total:?}");
    assert!(
        total.error_frames > 0 && total.frames_lost_offline > 0,
        "{total:?}"
    );
}

/// Brute-force min-cost reference for the route table: collapse
/// parallel gateways to their cheapest edge, then Floyd–Warshall.
fn brute_force_costs(n: usize, edges: &[(u32, u32, u64)]) -> Vec<Vec<Option<u64>>> {
    let mut d: Vec<Vec<Option<u64>>> = vec![vec![None; n]; n];
    for (s, row) in d.iter_mut().enumerate() {
        row[s] = Some(0);
    }
    for &(a, b, c) in edges {
        for (x, y) in [(a as usize, b as usize), (b as usize, a as usize)] {
            if d[x][y].is_none_or(|cur| c < cur) {
                d[x][y] = Some(c);
            }
        }
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let (Some(ik), Some(kj)) = (d[i][k], d[k][j]) else {
                    continue;
                };
                if d[i][j].is_none_or(|cur| ik + kj < cur) {
                    d[i][j] = Some(ik + kj);
                }
            }
        }
    }
    d
}

/// Hand-rolled property test: on random gateway graphs (parallel
/// edges, redundant rings, disconnected islands included), the
/// deterministic route table must agree with a brute-force
/// shortest-path reference on both reachability and cost, and every
/// chosen first hop must lie on an optimal path.
#[test]
fn route_tables_match_brute_force_on_random_graphs() {
    let mut rng = SimRng::seeded(0xD1D5_7A2B);
    for case in 0..80u64 {
        let mut r = rng.derive(case);
        let n = r.int_in(2, 6) as usize;
        let m = r.int_in(0, 9) as usize;
        let mut t = Topology::new();
        let segs: Vec<SegmentId> = (0..n).map(|_| t.add_segment(1_000_000)).collect();
        let mut edges: Vec<(u32, u32, u64)> = Vec::new();
        for _ in 0..m {
            let a = r.int_in(0, n as u64 - 1) as u32;
            let mut b = r.int_in(0, n as u64 - 2) as u32;
            if b >= a {
                b += 1;
            }
            let cost = r.int_in(1, 4);
            t.add_gateway(
                segs[a as usize],
                segs[b as usize],
                GatewayConfig {
                    cost,
                    ..GatewayConfig::default()
                },
            );
            edges.push((a, b, cost));
        }
        let reference = brute_force_costs(n, &edges);
        for s in 0..n {
            for dst in 0..n {
                assert_eq!(
                    t.route_cost(segs[s], segs[dst]),
                    reference[s][dst],
                    "case {case}: cost s{s}->s{dst} over {edges:?}"
                );
                if s == dst {
                    continue;
                }
                match t.first_hop(segs[s], segs[dst]) {
                    None => assert_eq!(reference[s][dst], None, "case {case}"),
                    Some(g) => {
                        let (a, b, cost) = edges[g.index()];
                        assert!(
                            a as usize == s || b as usize == s,
                            "case {case}: first hop gw{} does not touch s{s}",
                            g.index()
                        );
                        let other = if a as usize == s { b } else { a } as usize;
                        assert_eq!(
                            reference[other][dst].map(|c| c + cost),
                            reference[s][dst],
                            "case {case}: hop gw{} off the optimal path s{s}->s{dst}",
                            g.index()
                        );
                    }
                }
            }
        }
    }
}

/// Killing the only bridge to a segment partitions the graph: the
/// unreachable traffic is counted (`no_route`, charged to its origin
/// segment), the ledger balances through outage and recovery, and the
/// entire fault trajectory is bit-identical at 1/4/host outer
/// workers.
#[test]
fn gateway_fail_stop_partition_is_counted_and_deterministic() {
    let horizon = Time::from_ms(80);
    let plan =
        FaultPlan::new(0x9A7E).gateway_fail_stop(1, Time::from_ms(20), Duration::from_ms(30));
    let run = |workers: usize| {
        let mut t = line_topology(workers);
        t.set_fault_plan(&plan);
        t.run_until(horizon);
        t
    };
    let mut base = run(1);
    // gw1 is the only path to s2: its outage cuts s2 off both ways.
    assert!(base.no_route_drops() > 0, "partition traffic uncounted");
    assert_eq!(base.gateway_stats(GatewayId(1)).outages, 1);
    assert!(base.reroutes() >= 2, "down + up rebuilds");
    assert!(base.events().iter().any(|e| e.kind
        == TopoEventKind::Reroute {
            unreachable_pairs: 4
        }));
    assert!(base
        .events()
        .iter()
        .any(|e| matches!(e.kind, TopoEventKind::GatewayDown { gateway: 1, .. })));
    assert!(base
        .events()
        .iter()
        .any(|e| e.kind == TopoEventKind::GatewayUp { gateway: 1 }));
    // Restarted by the horizon: the partition healed and traffic
    // resumed over the restored bridge.
    assert_eq!(base.partitioned_pairs(), 0);
    assert!(base.gateway_stats(GatewayId(1)).forwarded > 0);
    let report = base.conservation();
    assert!(report.holds(), "ledger {report:?}");
    let base_obs = observe(&base);

    for workers in worker_counts() {
        let mut t = run(workers);
        assert_eq!(observe(&t), base_obs, "workers={workers}");
        assert_eq!(t.events(), base.events(), "workers={workers}");
        assert_eq!(t.no_route_drops(), base.no_route_drops());
        assert_eq!(t.reroutes(), base.reroutes());
        assert_eq!(t.total_stats(), base.total_stats(), "workers={workers}");
        assert_eq!(t.metrics(), base.metrics(), "workers={workers}");
        assert_eq!(t.partitioned_pairs(), 0);
        assert!(t.conservation().holds());
    }
}

/// Node faults — corrupted grants, fail-stop outages and babbling
/// idiots, split per segment — are as invisible to the outer worker
/// count as a gateway outage: the same plan gives bit-identical
/// traces, gateway stats, metrics, bus stats and per-node NIC stats.
#[test]
fn node_faults_identical_across_outer_worker_counts() {
    let horizon = Time::from_ms(80);
    for fault_seed in [0xFA11u64, 0x0DDB] {
        let run = |workers: usize| {
            let mut t = line_topology(workers);
            let plan = FaultPlan::random(fault_seed, t.node_count(), horizon, 0.05, 0.5, 0.5);
            t.set_fault_plan(&plan);
            t.run_until(horizon);
            t
        };
        let base = run(1);
        // The plan actually bit: the error machinery left evidence.
        let total = base.total_stats();
        assert!(
            total.error_frames > 0 || total.frames_lost_offline > 0,
            "seed {fault_seed:#x} left no fault signal: {total:?}"
        );
        let report = base.conservation();
        assert!(report.holds(), "seed {fault_seed:#x}: ledger {report:?}");
        let base_obs = observe(&base);
        let base_nodes = node_stats(&base);

        for workers in worker_counts() {
            let t = run(workers);
            let at = format!("workers={workers}, seed {fault_seed:#x}");
            assert_eq!(observe(&t), base_obs, "{at}");
            assert_eq!(t.metrics(), base.metrics(), "{at}");
            assert_eq!(t.total_stats(), total, "{at}");
            assert_eq!(node_stats(&t), base_nodes, "{at}");
        }
    }
}
