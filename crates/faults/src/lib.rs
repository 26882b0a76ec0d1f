//! Deterministic fault injection for the EMERALDS fieldbus executives.
//!
//! EMERALDS targets fieldbus-connected controllers (paper §2, §7), and
//! real deployments of such systems live or die on fault containment:
//! nodes fail-stop and reboot, transmitters babble, frames corrupt on
//! the wire. This crate makes failure a *first-class, reproducible
//! input* to every experiment: a [`FaultPlan`] is an explicit, seeded
//! description of what goes wrong and when, and a [`FaultClock`] is the
//! runtime the bus executives query at their serial decision points.
//!
//! Determinism contract: every fault decision is a pure function of
//! the plan (itself a pure function of its seed) and of *virtual* time
//! or a serial decision index — never of host threading. The cluster
//! executive consults the clock only at epoch barriers (which run
//! serially in node order) and inside per-node advances (which depend
//! only on that node's own state), so a faulted run is bit-for-bit
//! identical for any worker count. `tests/cluster_determinism.rs` pins
//! this.
//!
//! Three fault species are modeled (see DESIGN.md §10):
//!
//! - **Fail-stop + restart** ([`FaultKind::FailStop`]): the node's CPU
//!   halts for the outage window and its NIC drops off the bus; on
//!   restart the kernel fires its backlog of timer releases late,
//!   producing the classic post-reboot deadline-miss storm (tagged
//!   `MissCause::Fault` by the executive).
//! - **Babbling idiot** ([`FaultKind::Babble`]): the node's controller
//!   floods the bus with garbage frames at the *highest* arbitration
//!   priority. CAN error signalling (TEC += 8 per failed transmit)
//!   drives the babbler to bus-off, which is the containment story the
//!   error counters exist to tell.
//! - **Frame corruption** ([`FaultPlan::corruption`]): each bus grant
//!   independently corrupts with probability `p`, consuming an error
//!   frame's bus time and triggering automatic retransmission.
//!
//! A fourth species targets the *topology* layer rather than a node:
//! **gateway fail-stop** ([`FaultPlan::gateway_fail_stop`]).
//! [`FaultClock::for_gateways`] compiles these outages into the same
//! merged `[start, end)` windows a node fail-stop gets, indexed by
//! gateway, so one compiler serves both. A down gateway forwards
//! nothing, its buffered frames are lost (charged to the originating
//! segments), and the topology executive deterministically re-routes
//! surviving traffic over the remaining gateway graph — or counts a
//! partition when no path survives (DESIGN.md §16).

use emeralds_sim::{Duration, NodeId, SimRng, Time};

/// What goes wrong with one node, starting at a plan event's instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The node halts for `outage`, then restarts. While down it does
    /// no work and neither sends nor receives frames.
    FailStop {
        /// How long the node stays down.
        outage: Duration,
    },
    /// The node's transmitter floods the bus with garbage frames, one
    /// every `period`, for `duration` (or until error signalling
    /// drives it to bus-off).
    Babble {
        /// How long the babble persists (re-arms after each bus-off
        /// recovery inside the window).
        duration: Duration,
        /// Spacing between injected garbage frames.
        period: Duration,
    },
}

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    pub node: NodeId,
    /// Virtual instant the fault begins.
    pub at: Time,
    pub kind: FaultKind,
}

/// One scheduled *gateway* fail-stop: the bridge between two segments
/// halts for `outage`, then restarts. While down it forwards nothing
/// and its buffered frames are lost; the topology executive re-routes
/// surviving traffic around it (DESIGN.md §16).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GatewayFault {
    /// Gateway index, in topology registration order.
    pub gateway: u32,
    /// Virtual instant the outage begins.
    pub at: Time,
    /// How long the gateway stays down.
    pub outage: Duration,
}

/// A complete, explicit description of every fault injected into one
/// run. Plans are data: print one, commit one, replay one.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-grant corruption stream.
    pub seed: u64,
    /// Probability that any single bus grant corrupts on the wire.
    pub corruption: f64,
    /// Scheduled node faults, in no particular order.
    pub events: Vec<FaultEvent>,
    /// Scheduled gateway fail-stops, in no particular order. Only the
    /// topology executive consumes these; single-segment executives
    /// ignore them.
    pub gateway_events: Vec<GatewayFault>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given corruption seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            corruption: 0.0,
            events: Vec::new(),
            gateway_events: Vec::new(),
        }
    }

    /// Sets the per-grant corruption probability (builder style).
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `[0, 1]` or not finite.
    pub fn with_corruption(mut self, p: f64) -> FaultPlan {
        assert!(p.is_finite() && (0.0..=1.0).contains(&p), "bad probability");
        self.corruption = p;
        self
    }

    /// Schedules a fail-stop: `node` halts at `at` for `outage`.
    ///
    /// # Panics
    ///
    /// Panics on a zero outage.
    pub fn fail_stop(mut self, node: NodeId, at: Time, outage: Duration) -> FaultPlan {
        assert!(!outage.is_zero(), "zero outage");
        self.events.push(FaultEvent {
            node,
            at,
            kind: FaultKind::FailStop { outage },
        });
        self
    }

    /// Schedules a babbling-idiot window on `node`.
    ///
    /// # Panics
    ///
    /// Panics on a zero duration or zero period.
    pub fn babble(
        mut self,
        node: NodeId,
        at: Time,
        duration: Duration,
        period: Duration,
    ) -> FaultPlan {
        assert!(!duration.is_zero(), "zero babble duration");
        assert!(!period.is_zero(), "zero babble period");
        self.events.push(FaultEvent {
            node,
            at,
            kind: FaultKind::Babble { duration, period },
        });
        self
    }

    /// Schedules a gateway fail-stop: `gateway` (topology registration
    /// index) halts at `at` for `outage`.
    ///
    /// # Panics
    ///
    /// Panics on a zero outage.
    pub fn gateway_fail_stop(mut self, gateway: u32, at: Time, outage: Duration) -> FaultPlan {
        assert!(!outage.is_zero(), "zero gateway outage");
        self.gateway_events.push(GatewayFault {
            gateway,
            at,
            outage,
        });
        self
    }

    /// Generates a random plan: each of `nodes` suffers a fail-stop
    /// with probability `fail_stop_p` and a babble window with
    /// probability `babble_p`, placed inside the middle of `[0,
    /// horizon)` so recoveries complete before the run ends. Fully
    /// determined by `seed`.
    pub fn random(
        seed: u64,
        nodes: usize,
        horizon: Time,
        corruption: f64,
        fail_stop_p: f64,
        babble_p: f64,
    ) -> FaultPlan {
        let mut rng = SimRng::seeded(seed);
        let mut plan = FaultPlan::new(seed).with_corruption(corruption);
        let span = horizon.as_ns();
        for i in 0..nodes {
            let mut nrng = rng.derive(i as u64);
            if nrng.chance(fail_stop_p) {
                let at = Time::from_ns(nrng.int_in(span / 10, span / 2));
                let outage = Duration::from_ns(nrng.int_in(span / 50, span / 10).max(1));
                plan = plan.fail_stop(NodeId(i as u32), at, outage);
            }
            if nrng.chance(babble_p) {
                let at = Time::from_ns(nrng.int_in(span / 10, span / 2));
                let duration = Duration::from_ns(nrng.int_in(span / 50, span / 8).max(1));
                let period = Duration::from_us(nrng.int_in(100, 400));
                plan = plan.babble(NodeId(i as u32), at, duration, period);
            }
        }
        plan
    }

    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.gateway_events.is_empty() && self.corruption == 0.0
    }

    /// Largest node index referenced by any event, if any.
    pub fn max_node(&self) -> Option<usize> {
        self.events.iter().map(|e| e.node.index()).max()
    }

    /// Largest gateway index referenced by any gateway event, if any.
    pub fn max_gateway(&self) -> Option<u32> {
        self.gateway_events.iter().map(|e| e.gateway).max()
    }
}

/// One scheduled babble window at runtime: the injection cursor walks
/// from `from` to `until` in `period` steps.
#[derive(Clone, Debug, PartialEq, Eq)]
struct BabbleWindow {
    from: Time,
    until: Time,
    period: Duration,
    cursor: Time,
}

/// Per-node fault schedule derived from a plan.
#[derive(Clone, Debug, Default, PartialEq)]
struct NodeFaults {
    /// Sorted, disjoint outage windows `[start, end)`.
    down: Vec<(Time, Time)>,
    babble: Vec<BabbleWindow>,
}

/// The runtime a bus executive queries at its serial decision points.
///
/// All mutating queries ([`FaultClock::corrupt_next_grant`],
/// [`FaultClock::babble_due`]) must be made from serial code (the
/// epoch-barrier exchange); the immutable queries are safe anywhere.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultClock {
    seed: u64,
    corruption: f64,
    /// Serial index of the next bus grant; each grant's corruption
    /// decision is an independent, stateless function of (seed, index).
    grants: u64,
    nodes: Vec<NodeFaults>,
    /// Indices of the nodes with any fail-stop or babble window,
    /// ascending; every other node's schedule is empty.
    faulted: Vec<usize>,
}

impl FaultClock {
    /// Compiles a plan for a bus of `nodes` boards.
    ///
    /// # Panics
    ///
    /// Panics when an event references a node index `>= nodes`.
    pub fn new(plan: &FaultPlan, nodes: usize) -> FaultClock {
        if let Some(max) = plan.max_node() {
            assert!(max < nodes, "fault plan references node {max} of {nodes}");
        }
        let mut per: Vec<NodeFaults> = vec![NodeFaults::default(); nodes];
        for ev in &plan.events {
            let nf = &mut per[ev.node.index()];
            match ev.kind {
                FaultKind::FailStop { outage } => nf.down.push((ev.at, ev.at + outage)),
                FaultKind::Babble { duration, period } => nf.babble.push(BabbleWindow {
                    from: ev.at,
                    until: ev.at + duration,
                    period,
                    cursor: ev.at,
                }),
            }
        }
        // Normalize outage windows: sort and merge overlaps so the
        // executives can binary-search and the fail-stop gate walks a
        // disjoint list.
        for nf in &mut per {
            nf.down.sort();
            nf.down.dedup_by(|next, kept| {
                let overlaps = next.0 <= kept.1;
                if overlaps {
                    kept.1 = kept.1.max(next.1);
                }
                overlaps
            });
            nf.babble.sort_by_key(|w| w.from);
        }
        let faulted = (0..per.len())
            .filter(|&i| !per[i].down.is_empty() || !per[i].babble.is_empty())
            .collect();
        FaultClock {
            seed: plan.seed,
            corruption: plan.corruption,
            grants: 0,
            nodes: per,
            faulted,
        }
    }

    /// Compiles a plan's gateway fail-stops for a topology of
    /// `gateways` bridges: gateway `g`'s outages become the down
    /// windows of index `g`, merged exactly as a node's are, and
    /// [`FaultClock::is_down`] judges them. The plan's node events,
    /// corruption and babble play no part.
    ///
    /// # Panics
    ///
    /// Panics when an event references a gateway index `>= gateways`.
    pub fn for_gateways(plan: &FaultPlan, gateways: usize) -> FaultClock {
        if let Some(max) = plan.max_gateway() {
            assert!(
                (max as usize) < gateways,
                "fault plan references gateway {max} of {gateways}"
            );
        }
        let outages = FaultPlan {
            events: plan
                .gateway_events
                .iter()
                .map(|g| FaultEvent {
                    node: NodeId(g.gateway),
                    at: g.at,
                    kind: FaultKind::FailStop { outage: g.outage },
                })
                .collect(),
            ..FaultPlan::new(plan.seed)
        };
        FaultClock::new(&outages, gateways)
    }

    /// Number of nodes the clock was compiled for.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when compiled for zero nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Is `node` inside a fail-stop outage at `at`? A node added to
    /// the bus after the plan was compiled has no scheduled outage.
    pub fn is_down(&self, node: usize, at: Time) -> bool {
        self.nodes
            .get(node)
            .is_some_and(|nf| nf.down.iter().any(|&(s, e)| s <= at && at < e))
    }

    /// The node's outage windows, sorted and disjoint.
    pub fn down_windows(&self, node: usize) -> &[(Time, Time)] {
        &self.nodes[node].down
    }

    /// The nodes the plan schedules any fail-stop or babble window
    /// for, ascending. Only these can go down or babble, so executives
    /// visit just these for the per-barrier offline and babble checks.
    pub fn faulted_nodes(&self) -> &[usize] {
        &self.faulted
    }

    /// The schedules of [`FaultClock::faulted_nodes`].
    fn faulted_schedules(&self) -> impl Iterator<Item = &NodeFaults> {
        self.faulted.iter().map(|&i| &self.nodes[i])
    }

    /// Decides whether the next bus grant corrupts on the wire.
    /// Serial: consumes one grant index. The decision for grant *k* is
    /// a stateless hash of `(seed, k)`, so it does not depend on how
    /// many random draws any other subsystem made.
    pub fn corrupt_next_grant(&mut self) -> bool {
        let idx = self.grants;
        self.grants += 1;
        if self.corruption <= 0.0 {
            return false;
        }
        SimRng::stream(self.seed, idx).chance(self.corruption)
    }

    /// The earliest pending babble-injection instant: the cursor of
    /// any unexhausted babble window. Adaptive-lookahead executives
    /// treat this like a kernel event — an injection due at cursor `c`
    /// lands at the first barrier *strictly after* `c`, so a quiet-bus
    /// stretch must not leap past that grid point. Per-grant
    /// corruption needs no entry here: it is consumed only when a
    /// frame is granted, and a stretch is only proposed when nothing
    /// is queued or in flight.
    pub fn next_babble_instant(&self) -> Option<Time> {
        self.faulted_schedules()
            .flat_map(|nf| nf.babble.iter())
            .filter(|w| w.cursor < w.until)
            .map(|w| w.cursor)
            .min()
    }

    /// The earliest fail-stop window boundary (start or end) strictly
    /// after `after`. Offline judgments compare the *barrier* time
    /// against these boundaries (`is_down(node, now)`), so an adaptive
    /// stretch must place a barrier at the first grid point *at or
    /// after* each one — not merely past it — to judge offline state
    /// at the same instants as a fixed-cadence run.
    pub fn next_outage_boundary_after(&self, after: Time) -> Option<Time> {
        self.faulted_schedules()
            .flat_map(|nf| nf.down.iter())
            .flat_map(|&(s, e)| [s, e])
            .filter(|&t| t > after)
            .min()
    }

    /// Number of garbage frames `node`'s babbling transmitter has due
    /// by `until`. Advances the injection cursor, so call this exactly
    /// once per node per barrier — including while the node is offline
    /// (discard the count then): a silenced babbler must not save up a
    /// burst for its recovery. A node added after the plan was compiled
    /// never babbles.
    pub fn babble_due(&mut self, node: usize, until: Time) -> u64 {
        let Some(nf) = self.nodes.get_mut(node) else {
            return 0;
        };
        let mut due = 0;
        for w in &mut nf.babble {
            let end = w.until.min(until);
            while w.cursor < end {
                due += 1;
                w.cursor += w.period;
            }
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_ms(v)
    }

    #[test]
    fn builder_collects_events() {
        let plan = FaultPlan::new(7)
            .with_corruption(0.05)
            .fail_stop(NodeId(2), Time::from_ms(10), ms(5))
            .babble(NodeId(0), Time::from_ms(20), ms(8), Duration::from_us(200));
        assert_eq!(plan.events.len(), 2);
        assert_eq!(plan.max_node(), Some(2));
        assert!(!plan.is_empty());
        assert!(FaultPlan::new(1).is_empty());
    }

    #[test]
    fn down_windows_merge_and_query() {
        // The same outages, scheduled for node 0 and for gateway 0,
        // compile to the same merged windows.
        let nodes = FaultPlan::new(1)
            .fail_stop(NodeId(0), Time::from_ms(10), ms(5))
            .fail_stop(NodeId(0), Time::from_ms(12), ms(10))
            .fail_stop(NodeId(0), Time::from_ms(40), ms(2));
        let gateways = FaultPlan::new(2)
            .gateway_fail_stop(0, Time::from_ms(10), ms(5))
            .gateway_fail_stop(0, Time::from_ms(12), ms(10))
            .gateway_fail_stop(0, Time::from_ms(40), ms(2));
        assert_eq!(gateways.max_gateway(), Some(0));
        assert!(!gateways.is_empty());
        for fc in [
            FaultClock::new(&nodes, 2),
            FaultClock::for_gateways(&gateways, 2),
        ] {
            assert_eq!(
                fc.down_windows(0),
                &[
                    (Time::from_ms(10), Time::from_ms(22)),
                    (Time::from_ms(40), Time::from_ms(42))
                ]
            );
            assert!(fc.is_down(0, Time::from_ms(15)));
            assert!(!fc.is_down(0, Time::from_ms(22))); // end-exclusive
            assert!(!fc.is_down(1, Time::from_ms(15)));
            // An index beyond the compiled range has no outage.
            assert!(!fc.is_down(2, Time::from_ms(15)));
        }
    }

    #[test]
    #[should_panic(expected = "references node")]
    fn clock_rejects_out_of_range_nodes() {
        let plan = FaultPlan::new(1).fail_stop(NodeId(5), Time::ZERO + ms(1), ms(1));
        FaultClock::new(&plan, 3);
    }

    #[test]
    fn corruption_stream_is_deterministic_and_tracks_p() {
        let plan = FaultPlan::new(0xC0FFEE).with_corruption(0.25);
        let mut a = FaultClock::new(&plan, 1);
        let mut b = FaultClock::new(&plan, 1);
        let da: Vec<bool> = (0..2_000).map(|_| a.corrupt_next_grant()).collect();
        let db: Vec<bool> = (0..2_000).map(|_| b.corrupt_next_grant()).collect();
        assert_eq!(da, db);
        let hits = da.iter().filter(|&&x| x).count();
        assert!((350..650).contains(&hits), "hits = {hits}");
        // Zero probability never corrupts but still consumes indices.
        let mut z = FaultClock::new(&FaultPlan::new(9), 1);
        assert!((0..100).all(|_| !z.corrupt_next_grant()));
    }

    #[test]
    fn babble_cursor_counts_each_tick_once() {
        let plan =
            FaultPlan::new(3).babble(NodeId(0), Time::from_ms(10), ms(2), Duration::from_us(500));
        let mut fc = FaultClock::new(&plan, 1);
        assert_eq!(fc.babble_due(0, Time::from_ms(10)), 0);
        assert_eq!(fc.babble_due(0, Time::from_ms(11)), 2); // 10.0, 10.5
        assert_eq!(fc.babble_due(0, Time::from_ms(11)), 0); // cursor advanced
        assert_eq!(fc.babble_due(0, Time::from_ms(30)), 2); // 11.0, 11.5
        assert_eq!(fc.babble_due(0, Time::from_ms(30)), 0); // window exhausted
        assert_eq!(fc.babble_due(1, Time::from_ms(30)), 0); // beyond the range
    }

    #[test]
    fn fault_horizon_queries_walk_boundaries_and_cursors() {
        let plan = FaultPlan::new(5)
            .fail_stop(NodeId(0), Time::from_ms(10), ms(5))
            .babble(NodeId(1), Time::from_ms(30), ms(1), Duration::from_us(500));
        let mut fc = FaultClock::new(&plan, 4);
        // Only the two scheduled nodes carry fault state.
        assert_eq!(fc.faulted_nodes(), &[0, 1]);
        // Outage start, then end, then nothing.
        assert_eq!(
            fc.next_outage_boundary_after(Time::ZERO),
            Some(Time::from_ms(10))
        );
        assert_eq!(
            fc.next_outage_boundary_after(Time::from_ms(10)),
            Some(Time::from_ms(15))
        );
        assert_eq!(fc.next_outage_boundary_after(Time::from_ms(15)), None);
        // The babble cursor reports the next pending injection…
        assert_eq!(fc.next_babble_instant(), Some(Time::from_ms(30)));
        // …and consuming the window's ticks exhausts it.
        assert_eq!(fc.babble_due(1, Time::from_ms(31)), 2);
        assert_eq!(fc.next_babble_instant(), None);
    }

    #[test]
    #[should_panic(expected = "references gateway")]
    fn gateway_clock_rejects_out_of_range_indices() {
        let plan = FaultPlan::new(1).gateway_fail_stop(4, Time::from_ms(1), ms(1));
        FaultClock::for_gateways(&plan, 4);
    }

    #[test]
    fn random_plans_are_seed_stable_and_in_range() {
        let a = FaultPlan::random(42, 16, Time::from_ms(200), 0.02, 0.3, 0.2);
        let b = FaultPlan::random(42, 16, Time::from_ms(200), 0.02, 0.3, 0.2);
        assert_eq!(a, b);
        let c = FaultPlan::random(43, 16, Time::from_ms(200), 0.02, 0.3, 0.2);
        assert_ne!(a, c);
        for ev in &a.events {
            assert!(ev.node.index() < 16);
            assert!(ev.at < Time::from_ms(200));
        }
    }
}
