//! Bridged multi-segment topologies: several CAN segments joined by
//! store-and-forward gateways, advanced under *hierarchical*
//! conservative lookahead.
//!
//! A single [`crate::Cluster`] models one bus; city-scale systems — a
//! vehicle platoon, a plant with per-cell buses, a building backbone —
//! are many buses joined by gateway nodes that receive a frame on one
//! segment, hold it for a forwarding latency, and retransmit it on the
//! other. That latency is exploitable lookahead one level up: nodes on
//! one segment interact within one bus-frame time (the *intra*-segment
//! horizon), but traffic can only cross a gateway after its forwarding
//! delay (the *inter*-segment horizon). [`Topology`] therefore holds
//! each segment as a [`Cluster`] and advances it as an
//! [`emeralds_sim::EpochGroup`] under [`run_two_level`]: between
//! inter-segment barriers every segment runs its own fine-grained
//! single-bus epoch loop; with `w > 1` workers
//! ([`Topology::with_workers`]) the segments split into at most `w`
//! contiguous chunks that advance on scoped host threads. At each
//! barrier a serial exchange on the calling thread moves frames
//! segment → gateway queue → segment.
//!
//! **Routing** runs over an arbitrary gateway *graph* — any number of
//! gateways may join any segment pair, including parallel and
//! redundant paths. Each gateway carries a configurable [`cost`]
//! (default 1); the route table picks, per `(source, destination)`
//! segment pair, the first hop of the minimum-cost path, with ties
//! broken first by hop count and then by gateway registration order —
//! a deterministic Dijkstra, independent of host parallelism.
//! Addressed frames carry *global* node ids ([`crate::addressed_tag`]).
//! Each segment lists the ascending global ids of its own nodes; a frame
//! completing on a segment whose list lacks its destination is captured
//! into the next-hop gateway's bounded queue. Broadcasts stay
//! segment-local. Routes rebuild lazily whenever the graph changes —
//! a gateway added, failed, or restarted ([`Topology::reroutes`]
//! counts in-run rebuilds; [`Topology::events`] records them).
//!
//! **Gateway queuing** is a serial-server model: direction `d` of a
//! gateway forwards one frame per `latency`, so a frame captured at
//! wire-completion `done` becomes injectable at `max(done, free) +
//! latency`. The forwarding order is the [`GatewayPolicy`]: `Fifo`
//! serves in capture order; `Priority` serves the lowest arbitration
//! id among the frames already wire-complete when the server frees up
//! (work-conserving: a late express frame never idles the server past
//! an available bulk frame). Overflow and unroutable captures are
//! dropped and charged to the segment the frame *originated* on
//! (`frames_dropped` + `frames_lost_gateway`), wherever along a
//! multi-hop path the drop happens.
//!
//! **Gateway faults**: a [`FaultPlan`] can schedule fail-stop outages
//! for gateways themselves ([`emeralds_faults::GatewayFault`]).
//! Transitions take effect at the first inter-segment barrier at or
//! after the scheduled instant: going down, the gateway drops both
//! direction buffers (charged to the origin segments, tallied in
//! [`GatewayStats::dropped_fault`]) and the route table rebuilds over
//! the survivors — traffic re-routes around the outage, or drops as
//! `no_route` when the graph is partitioned. Coming back up, the
//! server clock resets and routes rebuild again. Node-level fault
//! plans split per segment ([`Topology::set_fault_plan`]); the
//! corruption stream reseeds per segment so faults stay decorrelated
//! and worker-count invariant.
//!
//! The cross-segment conservation invariant is exact at any horizon,
//! **including broadcast traffic**: a broadcast is counted `sent` once
//! but resolves to one delivery attempt per listener, so the ledger
//! counts the fan-out explicitly at resolve time:
//!
//! ```text
//! Σ sent + Σ bcast_fanout == Σ (delivered + dropped + in_flight)
//!                             + gateway_buffered + Σ bcast_resolved
//! ```
//!
//! A frame is counted `sent` exactly once, at its origin segment's
//! harvest, and sits on exactly one ledger at any instant: origin
//! pending/in-flight, a gateway buffer, or the delivering segment's
//! pending/in-flight — never two at once, never duplicated at a
//! gateway. [`Topology::conservation`] checks this; the TOPO bench
//! experiment gates on it at every row.
//!
//! **Determinism** stacks exactly like [`run_two_level`]'s argument:
//! inner loops are serial per segment, segments share nothing between
//! outer barriers, and the judge/route/capture/inject exchange walks
//! segments and gateways in registration order on one thread — so
//! results are bit-for-bit identical for any outer worker count
//! (`tests/topology_determinism.rs` pins 1/2/3/4/8/host).
//!
//! Each segment's inner loop reuses the single-bus adaptive grid rule
//! unchanged — including batching across in-flight-only grid points —
//! because a frame parked in `remote_out` awaits the *outer* barrier
//! regardless of how few inner barriers the stretch leaves standing.
//! The outer cadence is fixed: the smallest forwarding latency over
//! *all registered* gateways (alive or dead) — always at most the
//! cheapest *surviving* path's bottleneck, so re-routes and restarts
//! never outrun the barrier grid.
//!
//! [`cost`]: GatewayConfig::cost
//! [`FaultPlan`]: emeralds_faults::FaultPlan

use std::collections::VecDeque;
use std::fmt;

use emeralds_core::kernel::{ClusterMetrics, KernelBuilder, KernelConfig};
use emeralds_core::script::{Action, Script};
use emeralds_core::{Kernel, SchedPolicy};
use emeralds_faults::{FaultClock, FaultEvent, FaultPlan};
use emeralds_sim::{run_two_level, Duration, IrqLine, NodeId, Time, TwoLevelStats};

use crate::cluster::ClusterNode;
use crate::{BusStats, Cluster, Frame};

/// Identifies one bus segment of a [`Topology`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub u32);

impl SegmentId {
    /// The segment's index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies one gateway of a [`Topology`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GatewayId(pub u32);

impl GatewayId {
    /// The gateway's index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Forwarding order of one gateway direction (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GatewayPolicy {
    /// Serve captures strictly in arrival order.
    #[default]
    Fifo,
    /// Serve the lowest arbitration id among the frames already
    /// wire-complete when the server frees up; ties break by capture
    /// order. Work-conserving: a frame still on its source wire never
    /// idles the server past an available one.
    Priority,
}

/// Store-and-forward parameters of one gateway.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GatewayConfig {
    /// Forwarding latency per frame and per direction (serial-server
    /// service time). Also the natural inter-segment lookahead.
    pub latency: Duration,
    /// Forwarding-buffer slots per direction; a capture finding the
    /// buffer full is dropped (`frames_lost_gateway`).
    pub capacity: usize,
    /// Routing cost of crossing this gateway; the route table picks
    /// minimum-total-cost paths. Must be nonzero (cost-increasing
    /// cycles are what make the route search terminate).
    pub cost: u64,
    /// Forwarding order within each direction's buffer.
    pub policy: GatewayPolicy,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            latency: Duration::from_us(200),
            capacity: 16,
            cost: 1,
            policy: GatewayPolicy::Fifo,
        }
    }
}

/// A degenerate [`GatewayConfig`] or segment pair, rejected at build
/// time by [`Topology::try_add_gateway`] — each variant names the
/// runtime misbehaviour it forestalls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyConfigError {
    /// Both endpoints are the same segment.
    IdenticalSegments { seg: u32 },
    /// An endpoint segment was never added.
    UnknownSegment { seg: u32 },
    /// A zero forwarding latency would collapse the inter-segment
    /// lookahead (the outer epoch length) to nothing.
    ZeroLatency,
    /// A zero buffer capacity would silently drop every forwarded
    /// frame.
    ZeroCapacity,
    /// A zero routing cost would let cycles stop increasing path cost,
    /// breaking route-search termination.
    ZeroCost,
}

impl fmt::Display for TopologyConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyConfigError::IdenticalSegments { seg } => {
                write!(
                    f,
                    "gateway must join two distinct segments (segment {seg} twice)"
                )
            }
            TopologyConfigError::UnknownSegment { seg } => write!(f, "unknown segment {seg}"),
            TopologyConfigError::ZeroLatency => {
                write!(f, "zero gateway latency breaks the inter-segment lookahead")
            }
            TopologyConfigError::ZeroCapacity => {
                write!(f, "zero gateway capacity drops every forwarded frame")
            }
            TopologyConfigError::ZeroCost => {
                write!(f, "zero gateway cost breaks route-search termination")
            }
        }
    }
}

impl std::error::Error for TopologyConfigError {}

/// What changed at one inter-segment barrier (see [`Topology::events`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopoEventKind {
    /// A gateway failed stop; `dropped` frames were lost from its
    /// buffers (charged to their origin segments).
    GatewayDown { gateway: u32, dropped: u64 },
    /// A gateway came back up.
    GatewayUp { gateway: u32 },
    /// The route table was rebuilt mid-run; `unreachable_pairs` counts
    /// ordered segment pairs with no surviving path.
    Reroute { unreachable_pairs: u64 },
}

/// One trace event of the topology executive, in barrier order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TopoEvent {
    /// The inter-segment barrier at which the change took effect.
    pub at: Time,
    pub kind: TopoEventKind,
}

/// Forwarding statistics of one gateway (both directions summed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Frames injected onto the far segment.
    pub forwarded: u64,
    /// Captures dropped because the forwarding buffer was full.
    pub dropped_overflow: u64,
    /// Buffered frames lost to a fail-stop outage.
    pub dropped_fault: u64,
    /// Fail-stop outages this gateway entered.
    pub outages: u64,
    /// Deepest either direction's buffer ever got.
    pub peak_depth: u64,
    /// Frames still buffered when the last run ended (the
    /// `gateway_buffered` term of the conservation invariant).
    pub buffered: u64,
}

/// One direction of a gateway: a bounded buffer with a serial-server
/// ready clock. Service is computed lazily at drain time — for `Fifo`
/// this reproduces eager capture-time stamping exactly (each direction
/// is fed by one segment, so arrival order is completion order), and
/// for `Priority` the head is not known until the server frees up.
#[derive(Debug, Default)]
struct GatewayQueue {
    /// `(wire_done, capture_seq, frame)` in capture order.
    buf: VecDeque<(Time, u64, Frame)>,
    /// When the server frees up (the last service's completion).
    free_at: Time,
    /// Monotone capture counter (the `Priority` tie-break).
    seq: u64,
}

impl GatewayQueue {
    /// Index of the frame the server takes next, or `None` when empty.
    fn head(&self, policy: GatewayPolicy) -> Option<usize> {
        if self.buf.is_empty() {
            return None;
        }
        match policy {
            GatewayPolicy::Fifo => Some(0),
            GatewayPolicy::Priority => {
                let earliest = self.buf.iter().map(|e| e.0).min().expect("non-empty");
                // The server starts its next service at `start`; every
                // frame wire-complete by then competes. Taking the max
                // with the earliest completion keeps the choice
                // work-conserving: when the server is free *before*
                // any frame exists, it takes the first to complete
                // rather than idling for a higher-priority later one.
                let start = earliest.max(self.free_at);
                let mut best: Option<(u32, u64, usize)> = None;
                for (i, (done, seq, frame)) in self.buf.iter().enumerate() {
                    if *done > start {
                        continue;
                    }
                    if best.is_none_or(|b| (frame.prio, *seq) < (b.0, b.1)) {
                        best = Some((frame.prio, *seq, i));
                    }
                }
                best.map(|b| b.2)
            }
        }
    }
}

/// A store-and-forward bridge between two segments.
#[derive(Debug)]
struct Gateway {
    cfg: GatewayConfig,
    /// The two segments joined.
    segs: [u32; 2],
    /// The bridge NIC's *local* node index on each segment: the
    /// injection source and, in the metrics rollup, the node tagged
    /// with this gateway's id.
    attach: [u32; 2],
    /// `queues[0]` carries `segs[0] → segs[1]`; `queues[1]` the
    /// reverse.
    queues: [GatewayQueue; 2],
    /// Liveness, judged against the gateway fault clock at barriers.
    up: bool,
    stats: GatewayStats,
}

/// The end-of-run snapshot of the cross-segment frame ledger; see the
/// module docs for the invariant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConservationReport {
    pub sent: u64,
    pub delivered: u64,
    pub dropped: u64,
    /// Still pending or on a wire, summed over segments.
    pub in_flight: u64,
    /// Still held in a gateway forwarding buffer.
    pub gateway_buffered: u64,
    /// Broadcasts resolved to their listener sets (each counted
    /// `sent` once).
    pub bcast_resolved: u64,
    /// Delivery attempts those resolutions fanned out to.
    pub bcast_fanout: u64,
}

impl ConservationReport {
    /// True when every sent frame — addressed or broadcast — is
    /// accounted for exactly once (see the module docs).
    pub fn holds(&self) -> bool {
        self.sent + self.bcast_fanout
            == self.delivered
                + self.dropped
                + self.in_flight
                + self.gateway_buffered
                + self.bcast_resolved
    }
}

/// Interrupt line gateway NICs use (matches the examples' convention).
const GW_NIC_IRQ: IrqLine = IrqLine(2);

/// Arbitration id of a bridge NIC's own transmissions. Its kernel never
/// sends and forwarded frames keep their own id, so no frame carries it.
const GW_NIC_PRIO: u32 = 1;

/// Trace events each gateway bridge NIC keeps. A bridge NIC hears every
/// broadcast on its segment, so an unbounded trace would grow for the
/// whole run; the ring keeps the recent forensic window, and counters
/// and `Trace::dropped` stay exact.
const GATEWAY_TRACE_RING: usize = 1024;

/// The first-hop and path-cost tables, rebuilt together.
type RouteTables = (Vec<Vec<Option<u32>>>, Vec<Vec<Option<u64>>>);

/// Multiple CAN segments bridged by store-and-forward gateways,
/// advanced under two-level conservative lookahead. See the module
/// docs for the model.
#[derive(Debug)]
pub struct Topology {
    /// One single-bus executive per segment, its nodes numbered
    /// locally.
    segments: Vec<Cluster>,
    gateways: Vec<Gateway>,
    /// Global node id → segment index.
    node_seg: Vec<u32>,
    /// Global node id → local index on its segment.
    node_local: Vec<u32>,
    /// `routes[s][d]`: gateway to take from segment `s` toward
    /// segment `d` (`None` = unreachable), rebuilt lazily.
    routes: Vec<Vec<Option<u32>>>,
    /// `route_costs[s][d]`: total cost of the chosen path, parallel
    /// to `routes` (`Some(0)` on the diagonal).
    route_costs: Vec<Vec<Option<u64>>>,
    routes_dirty: bool,
    /// Host threads for the *outer* engine: at most this many
    /// segment chunks advance at once (inner loops are serial per
    /// segment).
    workers: usize,
    /// Captures dropped for lack of any route to the destination.
    no_route: u64,
    /// Mid-run route-table rebuilds (gateway fault transitions).
    reroutes: u64,
    /// Gateway fail-stop schedule, when a fault plan installed one.
    gw_faults: Option<FaultClock>,
    /// Fault/reroute trace, in barrier order.
    events: Vec<TopoEvent>,
    cursor: Time,
    exec_stats: TwoLevelStats,
}

impl Topology {
    /// An empty topology with one outer worker.
    pub fn new() -> Topology {
        Topology {
            segments: Vec::new(),
            gateways: Vec::new(),
            node_seg: Vec::new(),
            node_local: Vec::new(),
            routes: Vec::new(),
            route_costs: Vec::new(),
            routes_dirty: true,
            workers: 1,
            no_route: 0,
            reroutes: 0,
            gw_faults: None,
            events: Vec::new(),
            cursor: Time::ZERO,
            exec_stats: TwoLevelStats::default(),
        }
    }

    /// Sets the outer worker-thread count (builder style).
    pub fn with_workers(mut self, workers: usize) -> Topology {
        self.workers = workers.max(1);
        self
    }

    /// Adds a bus segment at the given bit rate, starting at the
    /// topology's cursor. Its intra-segment lookahead is one max-size
    /// frame time.
    ///
    /// # Panics
    ///
    /// Panics on a zero bit rate.
    pub fn add_segment(&mut self, bitrate_bps: u64) -> SegmentId {
        let mut seg = Cluster::new(bitrate_bps);
        seg.cursor = self.cursor;
        seg.bus.members = Some(Vec::new());
        self.segments.push(seg);
        self.routes_dirty = true;
        SegmentId(self.segments.len() as u32 - 1)
    }

    /// Attaches a node to `seg` and returns its **global** id — the id
    /// other nodes address it by via [`crate::addressed_tag`]. As on a
    /// [`Cluster`], the node's mailboxes and receive line are the NIC
    /// wiring of the kernel's board.
    ///
    /// # Panics
    ///
    /// Panics on an unknown segment, and, naming the node, when the
    /// kernel's board has no NIC.
    pub fn add_node(
        &mut self,
        seg: SegmentId,
        name: impl Into<String>,
        kernel: Kernel,
        tx_prio: u32,
    ) -> NodeId {
        let si = seg.index();
        assert!(si < self.segments.len(), "unknown segment {seg:?}");
        let global = self.node_seg.len() as u32;
        assert!(global < 0xFFFF, "a topology addresses at most 65535 nodes");
        let s = &mut self.segments[si];
        let local = s.add_node(name, kernel, tx_prio);
        // Global ids grow, so each member list stays ascending.
        s.bus.members.as_mut().expect("segments route").push(global);
        self.node_seg.push(si as u32);
        self.node_local.push(local.0);
        NodeId(global)
    }

    /// Joins two distinct segments with a store-and-forward gateway:
    /// one bridge NIC node is attached to each side (visible in the
    /// metrics rollup with its `gateway` id set). Any number of
    /// gateways may join the same pair — redundant paths are what the
    /// cost-based router exploits.
    ///
    /// Returns a typed error instead of attaching anything when the
    /// pair or the config is degenerate.
    pub fn try_add_gateway(
        &mut self,
        a: SegmentId,
        b: SegmentId,
        cfg: GatewayConfig,
    ) -> Result<GatewayId, TopologyConfigError> {
        if a == b {
            return Err(TopologyConfigError::IdenticalSegments { seg: a.0 });
        }
        for seg in [a, b] {
            if seg.index() >= self.segments.len() {
                return Err(TopologyConfigError::UnknownSegment { seg: seg.0 });
            }
        }
        if cfg.latency.is_zero() {
            return Err(TopologyConfigError::ZeroLatency);
        }
        if cfg.capacity == 0 {
            return Err(TopologyConfigError::ZeroCapacity);
        }
        if cfg.cost == 0 {
            return Err(TopologyConfigError::ZeroCost);
        }
        let gid = self.gateways.len() as u32;
        let mut attach = [0u32; 2];
        for (k, seg) in [a, b].into_iter().enumerate() {
            let name = format!("gw{gid}.s{}", seg.0);
            let global = self.add_node(seg, name, gateway_kernel(), GW_NIC_PRIO);
            attach[k] = self.node_local[global.index()];
        }
        self.gateways.push(Gateway {
            cfg,
            segs: [a.0, b.0],
            attach,
            queues: [GatewayQueue::default(), GatewayQueue::default()],
            up: true,
            stats: GatewayStats::default(),
        });
        self.routes_dirty = true;
        Ok(GatewayId(gid))
    }

    /// [`Topology::try_add_gateway`], panicking on a degenerate
    /// config.
    ///
    /// # Panics
    ///
    /// Panics with the rendered [`TopologyConfigError`].
    pub fn add_gateway(&mut self, a: SegmentId, b: SegmentId, cfg: GatewayConfig) -> GatewayId {
        match self.try_add_gateway(a, b, cfg) {
            Ok(id) => id,
            Err(e) => panic!("invalid gateway config: {e}"),
        }
    }

    /// The inter-segment lookahead (the outer epoch length): the
    /// smallest latency over **all registered** gateways (alive or
    /// dead — a restart must never outrun the barrier grid, and the
    /// minimum over everything is at most the cheapest surviving
    /// path's bottleneck), else 1 ms (a gateway-less topology has no
    /// inter-segment traffic to bound).
    pub fn inter_lookahead(&self) -> Duration {
        self.gateways
            .iter()
            .map(|g| g.cfg.latency)
            .min()
            .unwrap_or(Duration::from_ms(1))
    }

    /// Installs a fault plan: fail-stop gates and the corruption /
    /// babble schedule split per segment (node events remap global →
    /// local ids; each segment's corruption stream derives its own
    /// seed so segments stay decorrelated), plus the gateway
    /// fail-stop schedule judged at inter-segment barriers. Call
    /// before [`Topology::run_until`].
    ///
    /// # Panics
    ///
    /// Panics when the plan references a node or gateway out of range.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        let gc = FaultClock::for_gateways(plan, self.gateways.len());
        if let Some(max) = plan.max_node() {
            assert!(
                max < self.node_seg.len(),
                "fault plan references node {max} of {}",
                self.node_seg.len()
            );
        }
        let mut per: Vec<FaultPlan> = (0..self.segments.len())
            .map(|si| {
                let mut p =
                    FaultPlan::new(plan.seed ^ (si as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                p.corruption = plan.corruption;
                p
            })
            .collect();
        for ev in &plan.events {
            let g = ev.node.index();
            let si = self.node_seg[g] as usize;
            per[si].events.push(FaultEvent {
                node: NodeId(self.node_local[g]),
                ..*ev
            });
        }
        for (seg, p) in self.segments.iter_mut().zip(&per) {
            seg.set_fault_plan(p);
        }
        self.gw_faults = (!plan.gateway_events.is_empty()).then_some(gc);
        self.routes_dirty = true;
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Number of gateways.
    pub fn gateway_count(&self) -> usize {
        self.gateways.len()
    }

    /// Total nodes across every segment, gateway NICs included.
    pub fn node_count(&self) -> usize {
        self.node_seg.len()
    }

    /// Node access by global id.
    pub fn node(&self, id: NodeId) -> &ClusterNode {
        let seg = &self.segments[self.node_seg[id.index()] as usize];
        seg.node(NodeId(self.node_local[id.index()]))
    }

    /// Mutable node access by global id. The next
    /// [`Topology::run_until`] re-reads every wake and bus-off state on
    /// the node's segment, so any change made here is seen.
    pub fn node_mut(&mut self, id: NodeId) -> &mut ClusterNode {
        let seg = &mut self.segments[self.node_seg[id.index()] as usize];
        seg.node_mut(NodeId(self.node_local[id.index()]))
    }

    /// One segment's bus statistics.
    pub fn segment_stats(&self, seg: SegmentId) -> &BusStats {
        self.segments[seg.index()].stats()
    }

    /// One gateway's forwarding statistics.
    pub fn gateway_stats(&self, gw: GatewayId) -> &GatewayStats {
        &self.gateways[gw.index()].stats
    }

    /// Captures dropped because no gateway path reaches the
    /// destination segment (also charged to `frames_lost_gateway`).
    pub fn no_route_drops(&self) -> u64 {
        self.no_route
    }

    /// Mid-run route-table rebuilds forced by gateway fault
    /// transitions.
    pub fn reroutes(&self) -> u64 {
        self.reroutes
    }

    /// The fault/reroute trace, in barrier order.
    pub fn events(&self) -> &[TopoEvent] {
        &self.events
    }

    /// Ordered segment pairs `(s, d)`, `s != d`, with no path in the
    /// current route table — nonzero exactly when the surviving
    /// gateway graph is partitioned.
    pub fn partitioned_pairs(&mut self) -> u64 {
        self.ensure_routes();
        unreachable_pairs(&self.routes)
    }

    /// First-hop gateway of the chosen route (`None` = unreachable).
    pub fn first_hop(&mut self, from: SegmentId, to: SegmentId) -> Option<GatewayId> {
        self.ensure_routes();
        self.routes[from.index()][to.index()].map(GatewayId)
    }

    /// Total cost of the chosen route (`Some(0)` when `from == to`).
    pub fn route_cost(&mut self, from: SegmentId, to: SegmentId) -> Option<u64> {
        self.ensure_routes();
        self.route_costs[from.index()][to.index()]
    }

    /// Bus statistics summed across every segment.
    pub fn total_stats(&self) -> BusStats {
        let mut total = BusStats::default();
        for s in &self.segments {
            total.merge(s.stats());
        }
        total
    }

    /// The cross-segment frame-conservation ledger at the last
    /// horizon; `holds()` must be true at any quiescent point.
    pub fn conservation(&self) -> ConservationReport {
        let t = self.total_stats();
        ConservationReport {
            sent: t.frames_sent,
            delivered: t.frames_delivered,
            dropped: t.frames_dropped,
            in_flight: t.frames_in_flight,
            gateway_buffered: self
                .gateways
                .iter()
                .map(|g| g.queues.iter().map(|q| q.buf.len() as u64).sum::<u64>())
                .sum(),
            bcast_resolved: t.bcast_resolved,
            bcast_fanout: t.bcast_fanout,
        }
    }

    /// Two-level engine cost accounting accumulated across every
    /// `run_until` (host-side measurement only).
    pub fn exec_stats(&self) -> &TwoLevelStats {
        &self.exec_stats
    }

    /// Node advances the inner engines made across every `run_until`
    /// so far, summed over segments (deterministic; run-end catch-ups
    /// excluded). An engine advancing every node would make one per
    /// node per inner barrier of its segment.
    pub fn node_advances(&self) -> u64 {
        self.segments.iter().map(Cluster::node_advances).sum()
    }

    /// How far the executive has driven the topology.
    pub fn now(&self) -> Time {
        self.cursor
    }

    /// Advances every segment to `horizon` under two-level epochs.
    /// Callable repeatedly; each call resumes from the previous
    /// horizon. Every node's clock sits at (or past) `horizon` on
    /// return.
    ///
    /// The call touches every node only to bump the clocks of idle
    /// ones at the end; a full advance runs only for nodes due before
    /// the horizon. A segment's wakes and bus-off states are re-read
    /// from its nodes only after [`Topology::add_node`],
    /// [`Topology::try_add_gateway`] or [`Topology::node_mut`] touched
    /// it.
    ///
    /// # Panics
    ///
    /// Panics when the topology has no segments or any segment has no
    /// nodes.
    pub fn run_until(&mut self, horizon: Time) {
        assert!(!self.segments.is_empty(), "topology has no segments");
        assert!(
            self.segments.iter().all(|s| !s.is_empty()),
            "every segment needs at least one node"
        );
        if horizon <= self.cursor {
            return;
        }
        // Judge gateway liveness at the run start so the first routes
        // already reflect outages that began while the executive was
        // parked (the initial build doesn't count as a reroute).
        judge_gateways(
            &mut self.segments,
            &mut self.gateways,
            self.gw_faults.as_ref(),
            self.cursor,
            &mut self.events,
            &mut self.routes_dirty,
        );
        self.ensure_routes();
        let lookahead = self.inter_lookahead();
        let n = self.segments.len();
        let gateways = &mut self.gateways;
        let node_seg = &self.node_seg;
        let routes = &mut self.routes;
        let route_costs = &mut self.route_costs;
        let routes_dirty = &mut self.routes_dirty;
        let no_route = &mut self.no_route;
        let reroutes = &mut self.reroutes;
        let events = &mut self.events;
        let clock = self.gw_faults.as_ref();
        let stats = run_two_level(
            &mut self.segments,
            self.cursor,
            horizon,
            lookahead,
            self.workers,
            &mut |segs, at| {
                judge_gateways(segs, gateways, clock, at, events, routes_dirty);
                if *routes_dirty {
                    let (r, c) = build_routes(n, gateways);
                    *routes = r;
                    *route_costs = c;
                    *routes_dirty = false;
                    *reroutes += 1;
                    events.push(TopoEvent {
                        at,
                        kind: TopoEventKind::Reroute {
                            unreachable_pairs: unreachable_pairs(routes),
                        },
                    });
                }
                route_frames(segs, gateways, node_seg, routes, no_route, at);
            },
        );
        self.exec_stats.merge(&stats);
        self.cursor = horizon;
        for seg in &mut self.segments {
            debug_assert!(
                seg.bus.remote_out.is_empty(),
                "outer exchange must drain remote_out"
            );
            seg.finish();
        }
        for gw in &mut self.gateways {
            gw.stats.buffered = gw.queues.iter().map(|q| q.buf.len() as u64).sum();
        }
    }

    /// Rolls every node's kernel metrics into a [`ClusterMetrics`],
    /// with each entry's segment (and gateway id, for bridge NICs)
    /// filled in.
    pub fn metrics(&self) -> ClusterMetrics {
        let mut all = Vec::with_capacity(self.node_count());
        // Where each segment's local node 0 lands in the rollup.
        let mut first = Vec::with_capacity(self.segments.len());
        for (si, seg) in self.segments.iter().enumerate() {
            first.push(all.len());
            all.extend(seg.node_metrics(Some(si as u32)));
        }
        for (gi, gw) in self.gateways.iter().enumerate() {
            for (seg, local) in gw.segs.into_iter().zip(gw.attach) {
                all[first[seg as usize] + local as usize].gateway = Some(gi as u32);
            }
        }
        ClusterMetrics::from_nodes(all)
    }

    /// Rebuilds the route tables if the gateway graph changed (does
    /// not count as a reroute — only in-run rebuilds do).
    fn ensure_routes(&mut self) {
        if !self.routes_dirty {
            return;
        }
        let (routes, costs) = build_routes(self.segments.len(), &self.gateways);
        self.routes = routes;
        self.route_costs = costs;
        self.routes_dirty = false;
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology::new()
    }
}

/// Deterministic minimum-cost routing over the *alive* gateway graph.
///
/// Each path is ranked by the label `(total cost, hop count, gateway
/// id sequence)`; relaxation runs to a fixpoint (Bellman-Ford shape,
/// gateways in registration order), which computes the unique minimal
/// label per pair — plain Dijkstra with a total tie-break. Hop count
/// must sit between cost and the id sequence: equal hops make the
/// sequences equal-length, so their lexicographic order is preserved
/// when both extend by the same gateway (a bare sequence tie-break is
/// not, because a shorter sequence can sort before its own extension
/// yet after it once both grow). Nonzero costs make every cycle
/// strictly costlier, so the fixpoint terminates.
fn build_routes(n: usize, gateways: &[Gateway]) -> RouteTables {
    let mut routes = vec![vec![None; n]; n];
    let mut costs = vec![vec![None; n]; n];
    for s in 0..n {
        let mut label: Vec<Option<(u64, u32, Vec<u32>)>> = vec![None; n];
        label[s] = Some((0, 0, Vec::new()));
        loop {
            let mut changed = false;
            for (gi, gw) in gateways.iter().enumerate() {
                if !gw.up {
                    continue;
                }
                let [a, b] = gw.segs;
                for (u, v) in [(a as usize, b as usize), (b as usize, a as usize)] {
                    let Some((cu, hu, pu)) = label[u].as_ref() else {
                        continue;
                    };
                    let cost = *cu + gw.cfg.cost;
                    let hops = *hu + 1;
                    // The candidate sequence is `pu ++ [gi]`; compare
                    // it lazily and clone the path only on improvement.
                    let cand = || pu.iter().copied().chain(std::iter::once(gi as u32));
                    let better = match &label[v] {
                        None => true,
                        Some(l) => {
                            (cost, hops) < (l.0, l.1)
                                || ((cost, hops) == (l.0, l.1)
                                    && cand().cmp(l.2.iter().copied()).is_lt())
                        }
                    };
                    if better {
                        let path = cand().collect();
                        label[v] = Some((cost, hops, path));
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for (d, l) in label.into_iter().enumerate() {
            let Some((cost, _, path)) = l else { continue };
            costs[s][d] = Some(cost);
            if d != s {
                routes[s][d] = Some(path[0]);
            }
        }
    }
    (routes, costs)
}

/// Ordered segment pairs `(s, d)`, `s != d`, with no first hop in
/// `routes`.
fn unreachable_pairs(routes: &[Vec<Option<u32>>]) -> u64 {
    let mut n = 0;
    for (s, row) in routes.iter().enumerate() {
        for (d, hop) in row.iter().enumerate() {
            if s != d && hop.is_none() {
                n += 1;
            }
        }
    }
    n
}

/// Applies the gateway fault clock at one barrier: gateways whose
/// liveness changed since the last judgement transition, dropping
/// buffered frames (charged to their origin segments) on the way down
/// and resetting the server clock on the way up. Either transition
/// marks the route table dirty.
fn judge_gateways(
    segs: &mut [Cluster],
    gateways: &mut [Gateway],
    clock: Option<&FaultClock>,
    at: Time,
    events: &mut Vec<TopoEvent>,
    routes_dirty: &mut bool,
) {
    let Some(clock) = clock else { return };
    for (gi, gw) in gateways.iter_mut().enumerate() {
        let down = clock.is_down(gi, at);
        if down && gw.up {
            let mut dropped = 0u64;
            for q in &mut gw.queues {
                for (_, _, frame) in q.buf.drain(..) {
                    let origin = frame.origin_seg.expect("captured frames carry origin");
                    let stats = &mut segs[origin as usize].bus.stats;
                    stats.frames_dropped += 1;
                    stats.frames_lost_gateway += 1;
                    dropped += 1;
                }
            }
            gw.stats.dropped_fault += dropped;
            gw.stats.outages += 1;
            gw.up = false;
            *routes_dirty = true;
            events.push(TopoEvent {
                at,
                kind: TopoEventKind::GatewayDown {
                    gateway: gi as u32,
                    dropped,
                },
            });
        } else if !down && !gw.up {
            gw.up = true;
            for q in &mut gw.queues {
                q.free_at = at;
            }
            *routes_dirty = true;
            events.push(TopoEvent {
                at,
                kind: TopoEventKind::GatewayUp { gateway: gi as u32 },
            });
        }
    }
}

/// The serial inter-segment barrier step: capture each segment's
/// off-segment frames into their route's first-hop gateway queues,
/// then inject every frame whose forwarding service has completed
/// into its far segment's arbitration queue. Segments, then gateways,
/// in registration order — fully deterministic.
fn route_frames(
    segs: &mut [Cluster],
    gateways: &mut [Gateway],
    node_seg: &[u32],
    routes: &[Vec<Option<u32>>],
    no_route: &mut u64,
    at: Time,
) {
    for si in 0..segs.len() {
        let mut out = std::mem::take(&mut segs[si].bus.remote_out);
        for (done, mut frame) in out.drain(..) {
            // The origin segment is stamped at the *first* capture and
            // survives multi-hop forwarding; every drop downstream is
            // charged there, where the frame was counted `sent`.
            let origin = *frame.origin_seg.get_or_insert(si as u32) as usize;
            let dst = frame.dst.expect("remote_out frames are addressed");
            let hop = node_seg
                .get(dst.index())
                .and_then(|&d| routes[si][d as usize]);
            let Some(gi) = hop else {
                let stats = &mut segs[origin].bus.stats;
                stats.frames_dropped += 1;
                stats.frames_lost_gateway += 1;
                *no_route += 1;
                continue;
            };
            let gw = &mut gateways[gi as usize];
            let dir = usize::from(gw.segs[0] as usize != si);
            let q = &mut gw.queues[dir];
            if q.buf.len() >= gw.cfg.capacity {
                let stats = &mut segs[origin].bus.stats;
                stats.frames_dropped += 1;
                stats.frames_lost_gateway += 1;
                gw.stats.dropped_overflow += 1;
                continue;
            }
            let seq = q.seq;
            q.seq += 1;
            q.buf.push_back((done, seq, frame));
            gw.stats.peak_depth = gw.stats.peak_depth.max(q.buf.len() as u64);
        }
        segs[si].bus.remote_out = out; // hand the capacity back
    }
    for gw in gateways.iter_mut() {
        if !gw.up {
            continue;
        }
        for dir in 0..2 {
            let target = gw.segs[1 - dir] as usize;
            let src_local = gw.attach[1 - dir];
            while let Some(i) = gw.queues[dir].head(gw.cfg.policy) {
                let q = &mut gw.queues[dir];
                let (done, _, _) = q.buf[i];
                let ready = done.max(q.free_at) + gw.cfg.latency;
                if ready > at {
                    break;
                }
                q.free_at = ready;
                let (_, _, mut frame) = q.buf.remove(i).expect("head indexes buf");
                // The far-side bridge NIC retransmits the frame: its
                // stats accrue there, while `queued_at` (and so the
                // end-to-end latency) travels with the frame.
                frame.src = NodeId(src_local);
                segs[target].bus.inject(frame);
                gw.stats.forwarded += 1;
            }
        }
    }
}

/// A minimal kernel for a gateway bridge NIC: mailboxes, an idle
/// heartbeat, and an rx-drain driver (a bridge NIC is a broadcast
/// listener like any other node, so its mailbox must not silt up);
/// the store-and-forward logic itself runs in the topology executive.
/// Its trace is a ring of [`GATEWAY_TRACE_RING`] events.
fn gateway_kernel() -> Kernel {
    let cfg = KernelConfig {
        policy: SchedPolicy::RmQueue,
        trace_ring: Some(GATEWAY_TRACE_RING),
        ..KernelConfig::default()
    };
    let mut b = KernelBuilder::new(cfg);
    let p = b.add_process("gateway");
    let nic = b.add_nic(GW_NIC_IRQ, 8, 8);
    b.add_periodic_task(
        p,
        "gw-idle",
        Duration::from_ms(500),
        Script::compute_only(Duration::from_us(1)),
    );
    b.add_driver_task(
        p,
        "gw-drain",
        Duration::from_ms(2),
        Script::looping(vec![
            Action::RecvMbox(nic.rx),
            Action::Compute(Duration::from_us(10)),
        ]),
    );
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addressed_tag;
    use emeralds_core::script::Action;

    const NIC_IRQ: IrqLine = IrqLine(2);

    /// A node that periodically sends one addressed frame to
    /// `dst` and drains everything received.
    fn make_node(send_period_ms: u64, payload: u32, dst: Option<NodeId>) -> Kernel {
        let cfg = KernelConfig {
            policy: SchedPolicy::RmQueue,
            ..KernelConfig::default()
        };
        let mut b = KernelBuilder::new(cfg);
        let p = b.add_process("node");
        let nic = b.add_nic(NIC_IRQ, 8, 8);
        b.add_periodic_task(
            p,
            "sender",
            Duration::from_ms(send_period_ms),
            Script::periodic(vec![
                Action::Compute(Duration::from_us(100)),
                Action::SendMbox {
                    mbox: nic.tx,
                    bytes: 8,
                    tag: addressed_tag(dst, payload),
                },
            ]),
        );
        b.add_driver_task(
            p,
            "rx-driver",
            Duration::from_ms(1),
            Script::looping(vec![
                Action::RecvMbox(nic.rx),
                Action::Compute(Duration::from_us(50)),
            ]),
        );
        b.build()
    }

    fn add_app_node(
        t: &mut Topology,
        seg: SegmentId,
        name: &str,
        period_ms: u64,
        payload: u32,
        dst: Option<NodeId>,
        prio: u32,
    ) -> NodeId {
        t.add_node(seg, name, make_node(period_ms, payload, dst), prio)
    }

    /// Two segments, one gateway, one sender each way. Global ids are
    /// assigned in registration order: a0=0, b0=1, gateway NICs 2, 3.
    fn two_segment_topology(workers: usize) -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new().with_workers(workers);
        let sa = t.add_segment(1_000_000);
        let sb = t.add_segment(1_000_000);
        let a0 = add_app_node(&mut t, sa, "a0", 10, 7, Some(NodeId(1)), 10);
        let b0 = add_app_node(&mut t, sb, "b0", 10, 9, Some(NodeId(0)), 20);
        t.add_gateway(sa, sb, GatewayConfig::default());
        (t, a0, b0)
    }

    fn test_frame(prio: u32) -> Frame {
        Frame {
            prio,
            src: NodeId(0),
            dst: Some(NodeId(1)),
            bytes: 8,
            tag: 0,
            queued_at: Time::ZERO,
            garbage: false,
            state: None,
            origin_seg: Some(0),
        }
    }

    #[test]
    fn frames_cross_one_gateway_both_ways() {
        let (mut t, a0, b0) = two_segment_topology(1);
        t.run_until(Time::from_ms(60));
        let gw = t.gateway_stats(GatewayId(0));
        assert!(gw.forwarded >= 8, "gateway stats {gw:?}");
        assert_eq!(gw.dropped_overflow, 0);
        let rx_task = emeralds_sim::ThreadId(1);
        assert_eq!(t.node(a0).kernel.tcb(rx_task).last_read, 9);
        assert_eq!(t.node(b0).kernel.tcb(rx_task).last_read, 7);
        let report = t.conservation();
        assert!(report.holds(), "ledger {report:?}");
        assert_eq!(t.no_route_drops(), 0);
        // Cross-segment latency includes the forwarding delay.
        let total = t.total_stats();
        assert!(total.frames_delivered >= 8);
        assert!(
            total.mean_latency().unwrap() >= GatewayConfig::default().latency,
            "latency {:?}",
            total.mean_latency()
        );
    }

    #[test]
    fn multi_hop_line_routes_end_to_end() {
        // s0 — gw — s1 — gw — s2; the sender on s0 addresses a sink on
        // s2, so every frame crosses two gateways.
        let mut t = Topology::new();
        let s0 = t.add_segment(1_000_000);
        let s1 = t.add_segment(1_000_000);
        let s2 = t.add_segment(1_000_000);
        let src = add_app_node(&mut t, s0, "src", 10, 5, Some(NodeId(1)), 10);
        let sink = add_app_node(&mut t, s2, "sink", 1000, 1, Some(NodeId(0)), 20);
        // A mostly-quiet node keeps s1's app population nonzero
        // (self-addressed: its frames never leave the segment).
        add_app_node(&mut t, s1, "mid", 1000, 2, Some(NodeId(2)), 30);
        t.add_gateway(s0, s1, GatewayConfig::default());
        t.add_gateway(s1, s2, GatewayConfig::default());
        t.run_until(Time::from_ms(80));
        assert_eq!(src.index(), 0);
        assert_eq!(sink.index(), 1);
        let rx_task = emeralds_sim::ThreadId(1);
        assert_eq!(t.node(sink).kernel.tcb(rx_task).last_read, 5);
        assert!(t.gateway_stats(GatewayId(0)).forwarded >= 5);
        assert!(t.gateway_stats(GatewayId(1)).forwarded >= 5);
        let report = t.conservation();
        assert!(report.holds(), "ledger {report:?}");
    }

    #[test]
    fn gateway_overflow_drops_are_charged_and_conserved() {
        // Capacity 1 and a slow forwarding clock against a fast
        // sender: the forwarding buffer must overflow, the drops land
        // in `frames_lost_gateway`, and the ledger still balances.
        let mut t = Topology::new();
        let sa = t.add_segment(1_000_000);
        let sb = t.add_segment(1_000_000);
        add_app_node(&mut t, sa, "blaster", 1, 3, Some(NodeId(1)), 10);
        add_app_node(&mut t, sb, "sink", 1000, 1, Some(NodeId(0)), 20);
        t.add_gateway(
            sa,
            sb,
            GatewayConfig {
                latency: Duration::from_ms(5),
                capacity: 1,
                ..GatewayConfig::default()
            },
        );
        t.run_until(Time::from_ms(60));
        let gw = t.gateway_stats(GatewayId(0));
        assert!(gw.dropped_overflow > 0, "gateway stats {gw:?}");
        let total = t.total_stats();
        assert!(total.frames_lost_gateway > 0);
        assert!(total.frames_lost_gateway >= gw.dropped_overflow);
        let report = t.conservation();
        assert!(report.holds(), "ledger {report:?}");
    }

    #[test]
    fn unroutable_destinations_drop_at_capture() {
        // Two segments with NO gateway: a frame addressed to the other
        // segment, or to a global id no node has (99 >= node_count()),
        // has nowhere to go and must be dropped as `no_route`.
        for dst in [NodeId(1), NodeId(99)] {
            let mut t = Topology::new();
            let sa = t.add_segment(1_000_000);
            let sb = t.add_segment(1_000_000);
            add_app_node(&mut t, sa, "a0", 10, 7, Some(dst), 10);
            add_app_node(&mut t, sb, "b0", 1000, 1, Some(NodeId(0)), 20);
            t.run_until(Time::from_ms(30));
            assert!(t.no_route_drops() > 0, "dst {dst:?}");
            let total = t.total_stats();
            assert_eq!(total.frames_lost_gateway, t.no_route_drops());
            assert_eq!(total.frames_delivered, 0, "dst {dst:?}");
            assert!(t.conservation().holds(), "{:?}", t.conservation());
            assert_eq!(t.partitioned_pairs(), 2);
        }
    }

    #[test]
    fn member_lists_route_out_of_order_registration() {
        // s2 joins after s0 and s1 already hold nodes, the app nodes go
        // to the segments in turn, and the gateways come last, so no
        // segment holds a contiguous run of global ids. App node i
        // addresses node i + 1 (mod APPS) with payload 100 + i.
        const APPS: u32 = 9;
        let mut t = Topology::new();
        let mut segs = vec![t.add_segment(1_000_000), t.add_segment(1_000_000)];
        for i in 0..APPS {
            if i == 4 {
                segs.push(t.add_segment(1_000_000));
            }
            let seg = segs[i as usize % segs.len()];
            let dst = Some(NodeId((i + 1) % APPS));
            let id = add_app_node(&mut t, seg, &format!("n{i}"), 10, 100 + i, dst, 10 + i);
            assert_eq!(id, NodeId(i));
        }
        t.add_gateway(segs[0], segs[1], GatewayConfig::default());
        t.add_gateway(segs[1], segs[2], GatewayConfig::default());
        // Each segment lists only its own nodes, ascending, so the lists
        // hold one entry per node in all, and a node's position is its
        // local index.
        let mut listed = 0;
        for (si, seg) in t.segments.iter().enumerate() {
            let members = seg.bus.members.as_ref().expect("segments route");
            assert!(members.windows(2).all(|w| w[0] < w[1]), "{members:?}");
            for (local, &g) in members.iter().enumerate() {
                let g = g as usize;
                assert_eq!((t.node_seg[g], t.node_local[g]), (si as u32, local as u32));
            }
            listed += members.len();
        }
        assert_eq!(listed, t.node_count());
        t.run_until(Time::from_ms(60));
        let s = t.total_stats();
        assert!(s.frames_sent > 0);
        assert_eq!(s.frames_delivered, s.frames_sent, "{s:?}");
        assert_eq!(s.frames_dropped, 0, "{s:?}");
        let rx_task = emeralds_sim::ThreadId(1);
        let per_node = s.frames_sent / u64::from(APPS);
        for i in 0..APPS {
            let node = t.node(NodeId(i));
            assert_eq!(node.stats.rx_frames, per_node, "node {i}");
            let from = (i + APPS - 1) % APPS;
            assert_eq!(node.kernel.tcb(rx_task).last_read, 100 + from, "node {i}");
        }
        for gw in APPS..t.node_count() as u32 {
            assert_eq!(t.node(NodeId(gw)).stats.rx_frames, 0, "bridge NIC {gw}");
        }
        assert!(t.conservation().holds(), "{:?}", t.conservation());
    }

    #[test]
    fn outer_worker_count_is_invisible() {
        let horizon = Time::from_ms(50);
        let (mut base, ..) = two_segment_topology(1);
        base.run_until(horizon);
        for workers in [2, 4] {
            let (mut t, ..) = two_segment_topology(workers);
            t.run_until(horizon);
            assert_eq!(t.total_stats(), base.total_stats(), "workers={workers}");
            assert_eq!(t.metrics(), base.metrics(), "workers={workers}");
            assert_eq!(
                t.gateway_stats(GatewayId(0)),
                base.gateway_stats(GatewayId(0)),
                "workers={workers}"
            );
            assert_eq!(t.node_advances(), base.node_advances(), "workers={workers}");
        }
    }

    #[test]
    fn inner_engines_skip_idle_nodes_and_catch_up_at_the_horizon() {
        let (mut t, ..) = two_segment_topology(1);
        let horizon = Time::from_ms(50);
        t.run_until(horizon);
        // Two nodes per segment (the app and the bridge NIC): an engine
        // advancing every node would make two advances per inner
        // barrier; the mostly idle nodes are skipped instead.
        let every_node = 2 * t.exec_stats().inner.barriers;
        assert!(
            t.node_advances() > 0 && t.node_advances() < every_node,
            "{} advances vs {every_node}",
            t.node_advances()
        );
        for i in 0..t.node_count() {
            assert!(t.node(NodeId(i as u32)).kernel.now() >= horizon);
        }
        assert!(t.conservation().holds(), "{:?}", t.conservation());
    }

    #[test]
    fn metrics_carry_segment_and_gateway_placement() {
        let (mut t, ..) = two_segment_topology(1);
        t.run_until(Time::from_ms(20));
        let m = t.metrics();
        assert_eq!(m.node_count(), 4); // two apps + two bridge NICs
        let a0 = m.nodes.iter().find(|n| &*n.name == "a0").unwrap();
        assert_eq!(a0.segment, Some(0));
        assert_eq!(a0.gateway, None);
        let gwb = m.nodes.iter().find(|n| &*n.name == "gw0.s1").unwrap();
        assert_eq!(gwb.segment, Some(1));
        assert_eq!(gwb.gateway, Some(0));
        let json = m.to_json();
        assert!(json.contains("\"segment\": 1"));
        assert!(json.contains("\"gateway\": 0"));
        assert!(json.contains("\"gateway\": null"));
        assert!(m.render().contains("seg 1 gw 0"));
    }

    #[test]
    fn split_run_matches_single_call() {
        let (mut split, ..) = two_segment_topology(1);
        // Land the split on an outer-epoch boundary so both runs see
        // the same barrier grid.
        let l = split.inter_lookahead();
        split.run_until(Time::ZERO + l * 100);
        split.run_until(Time::ZERO + l * 200);
        let (mut whole, ..) = two_segment_topology(1);
        whole.run_until(Time::ZERO + l * 200);
        assert_eq!(split.total_stats(), whole.total_stats());
        assert_eq!(split.metrics(), whole.metrics());
    }

    /// A board with one sparse compute-only task and its NIC driver: it
    /// never sends on its own.
    fn sparse_node(period: Duration) -> Kernel {
        let mut b = KernelBuilder::new(KernelConfig {
            policy: SchedPolicy::RmQueue,
            ..KernelConfig::default()
        });
        let p = b.add_process("sparse");
        let nic = b.add_nic(NIC_IRQ, 4, 4);
        b.add_periodic_task(
            p,
            "law",
            period,
            Script::compute_only(Duration::from_us(150)),
        );
        b.add_driver_task(
            p,
            "rx-driver",
            Duration::from_ms(1),
            Script::looping(vec![
                Action::RecvMbox(nic.rx),
                Action::Compute(Duration::from_us(30)),
            ]),
        );
        b.build()
    }

    #[test]
    fn frames_pushed_into_an_idle_node_between_runs_are_sent() {
        let mut t = Topology::new();
        let sa = t.add_segment(1_000_000);
        let sb = t.add_segment(1_000_000);
        let mut add =
            |seg, name, prio| t.add_node(seg, name, sparse_node(Duration::from_ms(5)), prio);
        let src = add(sa, "src", 1);
        let local = add(sa, "local", 2);
        let remote = add(sb, "remote", 3);
        t.add_gateway(sa, sb, GatewayConfig::default());
        t.run_until(Time::from_ms(1));
        // Every kernel now idles until its next release at 5 ms.
        let node = t.node_mut(src);
        for (i, dst) in [local, remote, local].into_iter().enumerate() {
            let msg = emeralds_core::ipc::Message {
                bytes: 8,
                tag: addressed_tag(Some(dst), i as u32),
                sender: emeralds_sim::ThreadId(0),
            };
            assert!(node.kernel.external_mbox_push(node.nic.tx, msg));
        }
        t.run_until(Time::from_ms(4));
        let s = t.total_stats();
        assert_eq!((s.frames_sent, s.frames_delivered), (3, 3), "{s:?}");
        assert_eq!(t.gateway_stats(GatewayId(0)).forwarded, 1);
        let driver = emeralds_sim::ThreadId(1);
        assert_eq!(t.node(local).kernel.tcb(driver).last_read, 2);
        assert_eq!(t.node(remote).kernel.tcb(driver).last_read, 1);
    }

    #[test]
    fn bridge_nic_traces_stay_within_their_ring() {
        // A broadcaster on each side: every broadcast lands on that
        // side's bridge NIC, long enough to wrap its ring many times.
        let mut t = Topology::new();
        let sa = t.add_segment(1_000_000);
        let sb = t.add_segment(1_000_000);
        add_app_node(&mut t, sa, "caster-a", 1, 1, None, 10);
        add_app_node(&mut t, sb, "caster-b", 1, 2, None, 11);
        t.add_gateway(sa, sb, GatewayConfig::default());
        t.run_until(Time::from_ms(400));
        // The bridge NICs follow the two app nodes in registration order.
        for id in [NodeId(2), NodeId(3)] {
            assert!(t.node(id).name.starts_with("gw0."));
            let trace = t.node(id).kernel.trace();
            assert_eq!(trace.ring_capacity(), Some(GATEWAY_TRACE_RING));
            assert_eq!(trace.len(), GATEWAY_TRACE_RING);
            assert!(trace.dropped() > 0, "the ring wrapped");
        }
        assert!(t.conservation().holds(), "{:?}", t.conservation());
    }

    #[test]
    fn cost_routing_prefers_cheap_paths_and_breaks_ties_by_registration() {
        // Ring: the two-hop path (cost 2) beats the expensive direct
        // gateway (cost 10) in both directions.
        let mut t = Topology::new();
        let s0 = t.add_segment(1_000_000);
        let s1 = t.add_segment(1_000_000);
        let s2 = t.add_segment(1_000_000);
        let g01 = t.add_gateway(s0, s1, GatewayConfig::default());
        let g12 = t.add_gateway(s1, s2, GatewayConfig::default());
        let g02 = t.add_gateway(
            s0,
            s2,
            GatewayConfig {
                cost: 10,
                ..GatewayConfig::default()
            },
        );
        assert_eq!(g02.index(), 2);
        assert_eq!(t.first_hop(s0, s2), Some(g01));
        assert_eq!(t.route_cost(s0, s2), Some(2));
        assert_eq!(t.first_hop(s2, s0), Some(g12));
        assert_eq!(t.route_cost(s0, s1), Some(1));
        assert_eq!(t.route_cost(s0, s0), Some(0));
        assert_eq!(t.partitioned_pairs(), 0);
        // Parallel equal-cost gateways: registration order decides.
        let mut p = Topology::new();
        let a = p.add_segment(1_000_000);
        let b = p.add_segment(1_000_000);
        let first = p.add_gateway(a, b, GatewayConfig::default());
        let _second = p.add_gateway(a, b, GatewayConfig::default());
        assert_eq!(p.first_hop(a, b), Some(first));
        assert_eq!(p.first_hop(b, a), Some(first));
    }

    #[test]
    fn priority_forwarding_is_work_conserving() {
        let mut q = GatewayQueue::default();
        q.buf.push_back((Time::from_ms(10), 0, test_frame(5)));
        q.buf.push_back((Time::from_ms(20), 1, test_frame(1)));
        // FIFO serves in capture order regardless of priority.
        assert_eq!(q.head(GatewayPolicy::Fifo), Some(0));
        // Priority: the express frame is not wire-complete when the
        // server could start (start = 10), so the bulk frame goes
        // first instead of idling the server until 20.
        assert_eq!(q.head(GatewayPolicy::Priority), Some(0));
        // Once the server frees up past both completions, priority
        // wins; equal priorities tie-break by capture sequence.
        q.free_at = Time::from_ms(25);
        assert_eq!(q.head(GatewayPolicy::Priority), Some(1));
        q.buf.push_back((Time::from_ms(5), 2, test_frame(1)));
        assert_eq!(q.head(GatewayPolicy::Priority), Some(1));
    }

    #[test]
    fn nodes_and_gateways_added_after_the_fault_plan_have_no_scheduled_fault() {
        let mut t = Topology::new();
        let sa = t.add_segment(1_000_000);
        let sb = t.add_segment(1_000_000);
        add_app_node(&mut t, sa, "a0", 10, 7, Some(NodeId(1)), 10);
        add_app_node(&mut t, sb, "b0", 10, 9, Some(NodeId(0)), 20);
        // Each segment's clock is compiled for its one app node, so the
        // bridge NICs attached below are late nodes.
        t.set_fault_plan(&FaultPlan::new(3).with_corruption(0.2));
        let g0 = t.add_gateway(sa, sb, GatewayConfig::default());
        t.run_until(Time::from_ms(40));
        assert!(t.gateway_stats(g0).forwarded > 0);
        assert!(t.conservation().holds(), "{:?}", t.conservation());
        // The gateway clock is compiled for g0 alone; g1 joins later
        // and carries the traffic through g0's outage.
        let plan = FaultPlan::new(4).gateway_fail_stop(0, Time::from_ms(50), Duration::from_ms(10));
        t.set_fault_plan(&plan);
        let g1 = t.add_gateway(sa, sb, GatewayConfig::default());
        t.run_until(Time::from_ms(80));
        assert_eq!(t.gateway_stats(g0).outages, 1);
        assert_eq!(t.gateway_stats(g1).outages, 0);
        assert!(t.gateway_stats(g1).forwarded > 0);
        assert!(t.conservation().holds(), "{:?}", t.conservation());
    }

    #[test]
    fn gateway_fail_stop_reroutes_over_the_surviving_path() {
        // Redundant ring: src on s0 addresses a sink on s2; the cheap
        // direct gateway dies mid-run and traffic detours over the
        // surviving two-hop path without partitioning.
        let mut t = Topology::new();
        let s0 = t.add_segment(1_000_000);
        let s1 = t.add_segment(1_000_000);
        let s2 = t.add_segment(1_000_000);
        add_app_node(&mut t, s0, "src", 5, 5, Some(NodeId(1)), 10);
        let sink = add_app_node(&mut t, s2, "sink", 1000, 1, Some(NodeId(0)), 20);
        let g01 = t.add_gateway(s0, s1, GatewayConfig::default());
        let g12 = t.add_gateway(s1, s2, GatewayConfig::default());
        let g02 = t.add_gateway(s0, s2, GatewayConfig::default());
        assert_eq!(t.first_hop(s0, s2), Some(g02));
        let plan = FaultPlan::new(0xFA11).gateway_fail_stop(
            g02.0,
            Time::from_ms(20),
            Duration::from_ms(20),
        );
        t.set_fault_plan(&plan);
        t.run_until(Time::from_ms(60));
        assert!(t.gateway_stats(g01).forwarded > 0, "detour via g01");
        assert!(t.gateway_stats(g12).forwarded > 0, "detour via g12");
        assert_eq!(t.gateway_stats(g02).outages, 1);
        assert!(t.reroutes() >= 2, "down + up rebuilds: {}", t.reroutes());
        let kinds: Vec<TopoEventKind> = t.events().iter().map(|e| e.kind).collect();
        assert!(kinds
            .iter()
            .any(|k| matches!(k, TopoEventKind::GatewayDown { gateway: 2, .. })));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, TopoEventKind::GatewayUp { gateway: 2 })));
        assert!(kinds.iter().any(|k| matches!(
            k,
            TopoEventKind::Reroute {
                unreachable_pairs: 0
            }
        )));
        assert_eq!(t.partitioned_pairs(), 0);
        assert!(t.conservation().holds(), "{:?}", t.conservation());
        // The restart re-elects the cheap direct route.
        assert_eq!(t.first_hop(s0, s2), Some(g02));
        let rx_task = emeralds_sim::ThreadId(1);
        assert_eq!(t.node(sink).kernel.tcb(rx_task).last_read, 5);
    }

    #[test]
    fn partition_counts_unreachable_traffic_and_recovers() {
        let mut t = Topology::new();
        let sa = t.add_segment(1_000_000);
        let sb = t.add_segment(1_000_000);
        add_app_node(&mut t, sa, "a0", 2, 7, Some(NodeId(1)), 10);
        add_app_node(&mut t, sb, "b0", 1000, 1, Some(NodeId(0)), 20);
        let gw = t.add_gateway(sa, sb, GatewayConfig::default());
        let plan =
            FaultPlan::new(1).gateway_fail_stop(gw.0, Time::from_ms(10), Duration::from_ms(20));
        t.set_fault_plan(&plan);
        t.run_until(Time::from_ms(20)); // inside the outage
        assert_eq!(t.partitioned_pairs(), 2);
        assert!(t.no_route_drops() > 0, "unreachable traffic is counted");
        assert!(t.conservation().holds(), "{:?}", t.conservation());
        let down_drops = t.no_route_drops();
        t.run_until(Time::from_ms(60)); // outage ends at 30 ms
        assert_eq!(t.partitioned_pairs(), 0);
        assert!(t.no_route_drops() >= down_drops);
        assert!(t.gateway_stats(gw).forwarded > 0, "traffic resumed");
        assert_eq!(t.gateway_stats(gw).outages, 1);
        assert!(t.conservation().holds(), "{:?}", t.conservation());
        let total = t.total_stats();
        assert!(total.frames_lost_gateway >= t.no_route_drops());
    }

    #[test]
    fn broadcast_conservation_is_exact() {
        // A broadcaster with three listeners (two peers + the bridge
        // NIC) plus addressed cross-segment traffic: the ledger must
        // balance exactly, fan-out included.
        let mut t = Topology::new();
        let sa = t.add_segment(1_000_000);
        let sb = t.add_segment(1_000_000);
        add_app_node(&mut t, sa, "caster", 5, 9, None, 10);
        add_app_node(&mut t, sa, "peer1", 1000, 1, Some(NodeId(1)), 20);
        add_app_node(&mut t, sa, "peer2", 1000, 1, Some(NodeId(2)), 21);
        add_app_node(&mut t, sb, "remote", 10, 4, Some(NodeId(0)), 15);
        t.add_gateway(sa, sb, GatewayConfig::default());
        t.run_until(Time::from_ms(60));
        let total = t.total_stats();
        assert!(total.bcast_resolved >= 8, "stats {total:?}");
        assert_eq!(total.bcast_fanout, 3 * total.bcast_resolved);
        let report = t.conservation();
        assert!(report.holds(), "ledger {report:?}");
    }

    #[test]
    fn multi_hop_drops_charge_the_origin_segment() {
        // Overflow happens at the *second* hop (captured on s1), but
        // the drops are charged to s0, where the frames were sent.
        let mut t = Topology::new();
        let s0 = t.add_segment(1_000_000);
        let s1 = t.add_segment(1_000_000);
        let s2 = t.add_segment(1_000_000);
        add_app_node(&mut t, s0, "blaster", 1, 3, Some(NodeId(1)), 10);
        add_app_node(&mut t, s2, "sink", 1000, 1, Some(NodeId(0)), 20);
        t.add_gateway(s0, s1, GatewayConfig::default());
        t.add_gateway(
            s1,
            s2,
            GatewayConfig {
                latency: Duration::from_ms(5),
                capacity: 1,
                ..GatewayConfig::default()
            },
        );
        t.run_until(Time::from_ms(60));
        let gw1 = t.gateway_stats(GatewayId(1));
        assert!(gw1.dropped_overflow > 0, "{gw1:?}");
        assert!(t.segment_stats(s0).frames_lost_gateway > 0);
        assert_eq!(t.segment_stats(s1).frames_lost_gateway, 0);
        assert_eq!(t.segment_stats(s2).frames_lost_gateway, 0);
        assert!(t.conservation().holds(), "{:?}", t.conservation());
    }

    #[test]
    fn degenerate_gateway_configs_are_rejected() {
        let mut t = Topology::new();
        let sa = t.add_segment(1_000_000);
        let sb = t.add_segment(1_000_000);
        let ok = GatewayConfig::default;
        assert_eq!(
            t.try_add_gateway(sa, sa, ok()),
            Err(TopologyConfigError::IdenticalSegments { seg: 0 })
        );
        assert_eq!(
            t.try_add_gateway(sa, SegmentId(9), ok()),
            Err(TopologyConfigError::UnknownSegment { seg: 9 })
        );
        assert_eq!(
            t.try_add_gateway(
                sa,
                sb,
                GatewayConfig {
                    latency: Duration::ZERO,
                    ..ok()
                }
            ),
            Err(TopologyConfigError::ZeroLatency)
        );
        assert_eq!(
            t.try_add_gateway(
                sa,
                sb,
                GatewayConfig {
                    capacity: 0,
                    ..ok()
                }
            ),
            Err(TopologyConfigError::ZeroCapacity)
        );
        assert_eq!(
            t.try_add_gateway(sa, sb, GatewayConfig { cost: 0, ..ok() }),
            Err(TopologyConfigError::ZeroCost)
        );
        // Nothing was attached by the failed attempts.
        assert_eq!(t.gateway_count(), 0);
        assert_eq!(t.node_count(), 0);
        assert!(TopologyConfigError::ZeroLatency
            .to_string()
            .contains("latency"));
    }

    #[test]
    #[should_panic(expected = "invalid gateway config")]
    fn add_gateway_panics_on_degenerate_config() {
        let mut t = Topology::new();
        let sa = t.add_segment(1_000_000);
        let sb = t.add_segment(1_000_000);
        t.add_gateway(
            sa,
            sb,
            GatewayConfig {
                capacity: 0,
                ..GatewayConfig::default()
            },
        );
    }
}
