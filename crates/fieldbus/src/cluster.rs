//! The single-bus executive: N kernels over one bus, advanced in
//! lockstep epochs on the calling thread.
//!
//! [`Cluster`] runs each [`Kernel`] on the deterministic
//! conservative-lookahead engine of [`emeralds_sim::run_epochs`]:
//!
//! - **Epoch**: every node with work before the epoch end
//!   independently advances its local virtual clock by one lookahead
//!   window *L* (one max-size bus-frame time — no frame can
//!   cross the bus faster, so no node can miss an input by running
//!   ahead). A node with no staged frame and an empty TX mailbox whose
//!   kernel is idle, or in the middle of a `Compute`, is skipped until
//!   the compute can end or its next timer or device event, or until a
//!   frame is staged for it; its clock catches up (idle time, or the
//!   rest of the compute) first.
//! - **Barrier exchange** (serial, node order): deliver in-flight
//!   frames whose wire time completed, harvest each node's TX mailbox
//!   onto the arbitration queue, then grant the bus CAN-style (lowest
//!   arbitration id first, FIFO within an id) for every transmission
//!   that *starts* inside the next window.
//!
//! Timing model: frames are timestamped at the harvesting barrier and
//! delivered at the first barrier after their wire time completes, so
//! end-to-end latency is quantized to at most one lookahead window
//! (±*L* ≈ one frame time). *Intra-node* accounting — the paper's
//! per-op cost model — is untouched: each kernel runs the same step
//! loop as a standalone board.
//!
//! One bus runs on one host thread. A 64-node epoch carries a few
//! microseconds of kernel work per node, and on a two-core host a
//! cross-core barrier per epoch cost more than the second core gave
//! back (DESIGN.md §9). Host threads run one level up instead, between
//! the segments of a [`crate::Topology`], each of which is a `Cluster`
//! advanced as an [`EpochGroup`].

use std::collections::VecDeque;

use emeralds_core::kernel::{ClusterMetrics, NodeMetrics};
use emeralds_core::Kernel;
use emeralds_faults::{FaultClock, FaultPlan};
use emeralds_hal::Nic;
use emeralds_sim::{
    run_epochs, ActiveSet, Barrier, Duration, EpochGroup, EpochNode, NodeId, StateId, Time,
};

use crate::errors::{error_time, recovery_time, FailStopGate, NodeStats};
use crate::{frame_of, garbage_frame, BusStats, Frame, StateLink, StatePayload};

/// Bits a CAN 2.0A data frame adds to its payload: start of frame,
/// 11-bit identifier, RTR, IDE, r0, DLC, CRC and its delimiter, ACK,
/// end of frame and interframe space.
const FRAMING_BITS: u64 = 47;
pub use emeralds_sim::EpochStats;

/// A frame reception staged at a barrier and applied by the receiving
/// node itself at the top of its next advance — the node-local half of
/// the decomposed exchange. The receiver's virtual clock equals the
/// staging barrier when it applies the inbox, and neither a mailbox
/// push, an IRQ latch, nor a replica DMA advances the clock, so the
/// kernel observes the exact same instant as an in-barrier delivery.
#[derive(Debug)]
pub(crate) enum StagedRx {
    /// State frame: DMA into the replica variable (§7).
    State {
        var: StateId,
        value: u32,
        stamp: Time,
        latency: Duration,
    },
    /// Data frame: NIC mailbox push + receive interrupt.
    Msg {
        msg: emeralds_core::ipc::Message,
        latency: Duration,
    },
}

/// Node-local delivery tallies accumulated during the node's own
/// advance and folded into the global [`BusStats`] at the next
/// barrier. All fields are order-independent sums, so the rollup order
/// cannot influence the totals.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct RxOutcome {
    delivered: u64,
    dropped: u64,
    latency: Duration,
}

/// One simulated board in a [`Cluster`]: a kernel plus its NIC wiring.
#[derive(Debug)]
pub struct ClusterNode {
    /// Shared so metrics rollups bump a refcount instead of copying.
    pub name: std::sync::Arc<str>,
    pub kernel: Kernel,
    /// The kernel's board's NIC, read once when the node joins the bus.
    pub nic: Nic,
    /// Arbitration id for this node's transmissions.
    pub tx_prio: u32,
    /// NIC statistics and CAN error-confinement state.
    pub stats: NodeStats,
    gate: Option<FailStopGate>,
    /// Receptions staged at the last barrier, applied at the top of
    /// the next advance (completion order preserved).
    inbox: Vec<StagedRx>,
    /// Delivery tallies owed to the global bus stats.
    outcome: RxOutcome,
    /// TX messages drained from this node's NIC mailbox at the end of
    /// its own advance — the node-local half of the TX harvest. Pops
    /// run with the kernel clock already at the barrier instant, so
    /// only the bus-global decisions (frame construction order, fault
    /// judgement, arbitration) remain in the exchange, which consumes
    /// this buffer in node order.
    staged_tx: Vec<emeralds_core::ipc::Message>,
}

impl ClusterNode {
    /// The kernel's wake: `Time::ZERO` while its running thread acts at
    /// once, otherwise [`Kernel::next_action_time`] (`Time::MAX` for
    /// never).
    fn kernel_wake(&self) -> Time {
        let k = &self.kernel;
        match k.next_action_time() {
            Some(t) if k.current().is_some() && t <= k.now() => Time::ZERO,
            t => t.unwrap_or(Time::MAX),
        }
    }

    /// Runs the kernel to `to` through the fail-stop gate, if any.
    fn drive(&mut self, to: Time) {
        match self.gate.as_mut() {
            Some(gate) => gate.drive(&mut self.kernel, to),
            None => self.kernel.advance_to(to),
        }
    }

    /// Applies every staged reception. Runs inside the node's own
    /// advance (or its run-end catch-up) and touches only this node's
    /// kernel and stats.
    fn apply_inbox(&mut self) {
        for rx in self.inbox.drain(..) {
            match rx {
                StagedRx::State {
                    var,
                    value,
                    stamp,
                    latency,
                } => {
                    // State semantics overwrite, so delivery cannot
                    // fail on capacity. No mailbox, no interrupt — the
                    // consumer polls (§7).
                    self.kernel.external_state_write(var, value, stamp);
                    self.stats.on_rx_success();
                    self.outcome.delivered += 1;
                    self.outcome.latency += latency;
                }
                StagedRx::Msg { msg, latency } => {
                    if self.kernel.external_mbox_push(self.nic.rx, msg) {
                        self.kernel.raise_external_irq(self.nic.irq);
                        self.stats.on_rx_success();
                        self.outcome.delivered += 1;
                        self.outcome.latency += latency;
                    } else {
                        self.stats.rx_dropped += 1;
                        self.outcome.dropped += 1;
                    }
                }
            }
        }
    }
}

impl EpochNode for ClusterNode {
    /// Now while the NIC holds staged frames, the TX mailbox holds
    /// messages or the running thread acts at once; otherwise
    /// [`Kernel::next_action_time`]: the end of the running thread's
    /// `Compute` or the next timer or device event, whichever comes
    /// first. The advance epilogue drains the TX mailbox, so it is
    /// non-empty only at the start of a run, after messages were pushed
    /// into it between runs. Until that wake an advance only continues
    /// the compute or idles, and a compute split at barriers resumes
    /// from its remaining time and adds the same app time, so skipping
    /// the node until then changes nothing. A fail-stop gate needs no
    /// entry: its stall only moves the clock and adds idle time too,
    /// and the gate applies it whenever the node next runs — at its
    /// wake, before a staged frame lands, or at the run-end catch-up —
    /// exactly as it would have at the window start
    /// (`FailStopGate::drive`).
    fn wake(&self) -> Time {
        if !self.inbox.is_empty()
            || !self.staged_tx.is_empty()
            || !self.kernel.mailbox(self.nic.tx).is_empty()
        {
            Time::ZERO
        } else {
            self.kernel_wake()
        }
    }

    fn advance(&mut self, from: Time, to: Time) -> Time {
        if !self.inbox.is_empty() {
            // A node skipped since an earlier barrier first catches up
            // to the staging barrier (idle time, or the rest of a
            // running compute), so the kernel observes the same instant
            // an every-epoch advance would. NIC delivery DMA then runs
            // here, inside the node's own advance, not in the exchange.
            self.drive(from);
            self.apply_inbox();
        }
        // The gate consults only this node's own clock and its static
        // outage windows, so it runs inside the per-node advance.
        self.drive(to);
        // Node-local TX harvest: pop the NIC mailbox here, at the end
        // of this node's advance, instead of in the exchange. The
        // kernel clock sits exactly at the upcoming barrier, so a pop
        // — and any parked sender it unblocks — observes the same
        // instant an in-barrier harvest would, and pop order (hence
        // frame order) is the kernel's own FIFO either way. The
        // active set relies on this: a skipped node's clock lags the
        // barrier, so the exchange must never pop its mailbox, and
        // only advanced nodes hold TX.
        let tx = self.nic.tx;
        while let Some(msg) = self.kernel.external_mbox_pop(tx) {
            self.staged_tx.push(msg);
        }
        // The inbox was applied above and the TX mailbox just drained.
        if self.staged_tx.is_empty() {
            self.kernel_wake()
        } else {
            Time::ZERO
        }
    }

    /// Drives the node to `to` through the fail-stop gate, if any, or
    /// through the rest of a running compute; a bare idle kernel's
    /// clock moves without re-deriving that it is idle.
    fn idle_to(&mut self, to: Time) {
        debug_assert!(
            self.inbox.is_empty() && self.wake() >= to,
            "idle_to({to:?}) on a node with work or input before it"
        );
        if self.gate.is_none() && self.kernel.current().is_none() {
            self.kernel.idle_to(to);
        } else {
            self.drive(to);
        }
    }
}

/// The shared-bus state mutated only at epoch barriers, one per
/// [`Cluster`].
#[derive(Debug)]
pub(crate) struct BusState {
    bitrate_bps: u64,
    /// The instant the bus becomes idle.
    bus_free_at: Time,
    /// Harvest order within an arbitration id (CAN FIFO tie-break).
    seq: u64,
    /// Frames queued but not yet granted the bus: `(prio, seq, frame)`.
    pub(crate) pending: Vec<(u32, u64, Frame)>,
    /// Granted transmissions awaiting delivery, in completion order.
    pub(crate) in_flight: VecDeque<(Time, Frame)>,
    /// Networked state-message routes, harvested in registration
    /// order at each barrier.
    links: Vec<StateLink>,
    pub(crate) stats: BusStats,
    lookahead: Duration,
    /// Stretch epochs across provably-quiet bus time (see
    /// [`BusState::next_barrier_proposal`]).
    adaptive: bool,
    /// Compiled fault schedule, when one is installed.
    faults: Option<FaultClock>,
    /// When this bus is one segment of a [`crate::Topology`]: the
    /// *global* ids of its own nodes, ascending, so a node's position is
    /// its local index. `None` on a standalone cluster, which addresses
    /// its nodes by local index directly.
    pub(crate) members: Option<Vec<u32>>,
    /// Completed frames addressed off-segment, awaiting pickup by the
    /// topology executive at the next inter-segment barrier (wire
    /// -completion time, frame).
    pub(crate) remote_out: Vec<(Time, Frame)>,
    /// Reused receiver-index buffer for [`BusState::stage`]: staging a
    /// frame in the steady state must not allocate.
    stage_scratch: Vec<usize>,
    /// Nodes currently in bus-off, in no particular order.
    bus_off: Vec<usize>,
    /// Reused buffer of the nodes the TX-harvest step visits.
    visit: Vec<usize>,
}

impl BusState {
    /// A fresh idle bus at the given bit rate, with a lookahead of one
    /// max-size frame time and adaptive stretching on.
    ///
    /// # Panics
    ///
    /// Panics on a zero bit rate.
    pub(crate) fn new(bitrate_bps: u64) -> BusState {
        assert!(bitrate_bps > 0, "zero bit rate");
        let mut bus = BusState {
            bitrate_bps,
            bus_free_at: Time::ZERO,
            seq: 0,
            pending: Vec::new(),
            in_flight: VecDeque::new(),
            links: Vec::new(),
            stats: BusStats::default(),
            lookahead: Duration::ZERO,
            adaptive: true,
            faults: None,
            members: None,
            remote_out: Vec::new(),
            stage_scratch: Vec::new(),
            bus_off: Vec::new(),
            visit: Vec::new(),
        };
        bus.lookahead = bus.frame_time(8);
        bus
    }

    /// Wire time of one frame.
    pub(crate) fn frame_time(&self, bytes: usize) -> Duration {
        let bits = bytes as u64 * 8 + FRAMING_BITS;
        Duration::from_ns(bits * 1_000_000_000 / self.bitrate_bps)
    }

    /// Enqueues an already-counted frame for arbitration: a gateway
    /// forward, counted in `frames_sent` once at its origin segment's
    /// harvest, never again here.
    pub(crate) fn inject(&mut self, frame: Frame) {
        self.pending.push((frame.prio, self.seq, frame));
        self.seq += 1;
    }

    /// Re-reads every node's wake and which nodes are in bus-off. Both
    /// stay exact across runs (the engine records every wake it changes
    /// and the exchange keeps the bus-off list), so this runs only when
    /// a node was added or handed out mutably since the last run: node
    /// stats and kernels are public.
    fn refresh(&mut self, nodes: &[ClusterNode], set: &mut ActiveSet) {
        set.refresh(nodes);
        self.bus_off.clear();
        self.bus_off
            .extend((0..nodes.len()).filter(|&i| nodes[i].stats.is_bus_off()));
    }

    /// Folds the delivery tallies of `advanced` nodes into the global
    /// stats. Only an advance applies an inbox, and the fields are
    /// order-independent sums, so totals do not depend on when each
    /// node's tally is folded in.
    fn fold_tallies(&mut self, nodes: &mut [ClusterNode], advanced: &[usize]) {
        for &i in advanced {
            let o = std::mem::take(&mut nodes[i].outcome);
            self.stats.frames_delivered += o.delivered;
            self.stats.frames_dropped += o.dropped;
            self.stats.total_latency += o.latency;
        }
    }

    /// Is `node` off the bus at `at` (fail-stop outage or bus-off)?
    fn node_offline(&self, nodes: &[ClusterNode], node: usize, at: Time) -> bool {
        nodes[node].stats.is_bus_off() || self.faults.as_ref().is_some_and(|f| f.is_down(node, at))
    }

    /// Drops every pending frame from `src` (its NIC left the bus).
    /// Garbage frames were never counted as sent, so they don't count
    /// as dropped.
    fn purge_pending(&mut self, nodes: &mut [ClusterNode], src: usize) {
        let mut purged = 0;
        self.pending.retain(|&(_, _, f)| {
            if f.src.index() == src {
                purged += u64::from(!f.garbage);
                false
            } else {
                true
            }
        });
        nodes[src].stats.tx_dropped += purged;
        self.stats.frames_dropped += purged;
        self.stats.frames_lost_offline += purged;
    }

    /// The barrier step: roll up, recover, stage deliveries, consume
    /// the node-local TX harvest, babble, arbitrate. Runs in node
    /// order, so every fault decision here is deterministic. Per-node
    /// kernel work is *not* done here — receptions (mailbox push,
    /// replica DMA, IRQ latch) are staged into node inboxes and applied
    /// by each node at the top of its next advance, and TX-mailbox pops
    /// already ran in each node's advance epilogue — so a node the
    /// epoch skipped costs the exchange nothing.
    ///
    /// Only the nodes that can have changed are visited: those the
    /// epoch advanced (`b.active`), receivers of staged frames, bus-off
    /// nodes, and nodes with fail-stop or babble windows. Every other
    /// node holds no tallies, no TX and no offline state, so skipping
    /// it changes nothing; the error-frame observers below still visit
    /// every node.
    fn exchange(&mut self, nodes: &mut [ClusterNode], b: &mut Barrier<'_>) {
        let now = b.at;
        // 0. Fold the elapsed epoch's node-local delivery tallies.
        self.fold_tallies(nodes, b.active);

        // 0b. Complete due bus-off recoveries before anything else
        //     this barrier: a recovered node sends and receives again.
        let recovery = recovery_time(self.bitrate_bps);
        let mut recovered = 0;
        self.bus_off.retain(|&i| {
            let done = nodes[i].stats.try_recover(now, recovery);
            recovered += u64::from(done);
            !done && nodes[i].stats.is_bus_off()
        });
        self.stats.bus_off_recoveries += recovered;

        // 1. Stage frames whose wire time has completed. `in_flight`
        //    is in completion order (the bus is serial). Receiver
        //    liveness is judged *here*, at the completion instant —
        //    only the mechanical application is deferred.
        while let Some(&(done, frame)) = self.in_flight.front() {
            if done > now {
                break;
            }
            self.in_flight.pop_front();
            self.stage(nodes, frame, done, b);
        }

        // 2. Consume the TX messages each node's own advance drained
        //    from its NIC mailbox (the node-local harvest), in node
        //    order. Frames posted during the elapsed epoch are
        //    stamped at this barrier — the conservative end of the
        //    window. An offline node's posts (and its already-pending
        //    frames) are lost. Only advanced nodes hold TX and only
        //    bus-off or fault-plan nodes can be offline or babble, so
        //    the visit list is their union in ascending order.
        let mut visit = std::mem::take(&mut self.visit);
        visit.clear();
        visit.extend_from_slice(b.active);
        let faulted = self.faults.as_ref().map_or(&[][..], |f| f.faulted_nodes());
        if !self.bus_off.is_empty() || !faulted.is_empty() {
            visit.extend_from_slice(&self.bus_off);
            visit.extend_from_slice(faulted);
            visit.sort_unstable();
            visit.dedup();
        }
        for &i in &visit {
            let offline = self.node_offline(nodes, i, now);
            let mut staged = std::mem::take(&mut nodes[i].staged_tx);
            let node = &mut nodes[i];
            for msg in staged.drain(..) {
                self.stats.frames_sent += 1;
                if offline {
                    node.stats.tx_dropped += 1;
                    self.stats.frames_dropped += 1;
                    self.stats.frames_lost_offline += 1;
                    continue;
                }
                let frame = frame_of(NodeId(i as u32), node.tx_prio, msg, now);
                self.pending.push((frame.prio, self.seq, frame));
                self.seq += 1;
            }
            nodes[i].staged_tx = staged; // hand the capacity back
            if offline {
                self.purge_pending(nodes, i);
            }
            // The babble cursor advances every barrier even while the
            // babbler is offline, so a silenced babbler never saves up
            // a burst for its recovery.
            if let Some(f) = self.faults.as_mut() {
                let due = f.babble_due(i, now);
                if due > 0 && !offline {
                    let node = &mut nodes[i];
                    node.stats.babble_frames += due;
                    self.stats.babble_frames += due;
                    for _ in 0..due {
                        let frame = garbage_frame(NodeId(i as u32), now);
                        self.pending.push((frame.prio, self.seq, frame));
                        self.seq += 1;
                    }
                }
            }
        }
        self.visit = visit;

        // 2b. Harvest the networked state-message links (§7), in
        //     registration order: sample each link's writer variable;
        //     a changed version ships as a state frame. At most one
        //     un-granted frame per link sits in the queue — a newer
        //     sample *overwrites* its payload in place, keeping the
        //     frame's original (prio, seq) so FIFO order within a
        //     priority is untouched and no new send is counted.
        for li in 0..self.links.len() {
            let link = self.links[li];
            let src = link.src.index();
            if self.node_offline(nodes, src, now) {
                continue;
            }
            let (value, stamp, seq) = nodes[src].kernel.statemsg(link.src_var).peek();
            if seq == 0 || seq == link.last_seq {
                continue;
            }
            self.links[li].last_seq = seq;
            let payload = StatePayload {
                link: li as u32,
                value,
                stamp,
            };
            if let Some((_, _, f)) = self
                .pending
                .iter_mut()
                .find(|(_, _, f)| f.state.map(|s| s.link) == Some(li as u32))
            {
                f.state = Some(payload);
                self.stats.state_overwrites += 1;
                continue;
            }
            let frame = Frame {
                prio: link.prio,
                src: link.src,
                dst: Some(link.dst),
                bytes: link.bytes.clamp(1, 8),
                tag: 0,
                queued_at: now,
                garbage: false,
                state: Some(payload),
                origin_seg: None,
            };
            self.pending.push((frame.prio, self.seq, frame));
            self.seq += 1;
            self.stats.frames_sent += 1;
        }

        // 3. Arbitrate every transmission that starts before the next
        //    barrier: new frames cannot appear until then, so the
        //    grant order is fully decided by the current queue. A
        //    corrupted grant consumes the frame time plus an error
        //    frame, bumps the CAN error counters, and requeues the
        //    frame under its *original* sequence number (automatic
        //    retransmission preserves FIFO order within a priority).
        let window_end = now + self.lookahead;
        while self.bus_free_at < window_end && !self.pending.is_empty() {
            let best = self
                .pending
                .iter()
                .enumerate()
                .min_by_key(|&(_, &(prio, seq, _))| (prio, seq))
                .map(|(i, _)| i)
                .expect("nonempty pending");
            let (prio, seq, frame) = self.pending.swap_remove(best);
            let start = self.bus_free_at.max(now);
            let done = start + self.frame_time(frame.bytes);
            let corrupted =
                frame.garbage || self.faults.as_mut().is_some_and(|f| f.corrupt_next_grant());
            if !corrupted {
                self.stats.busy += done.since(start);
                self.bus_free_at = done;
                nodes[frame.src.index()].stats.on_tx_success();
                self.in_flight.push_back((done, frame));
                continue;
            }
            // Error frame on the wire: everyone observes it.
            let err_done = done + error_time(self.bitrate_bps);
            self.stats.busy += err_done.since(start);
            self.bus_free_at = err_done;
            self.stats.error_frames += 1;
            let src = frame.src.index();
            let entered_busoff = nodes[src].stats.on_tx_error(err_done);
            for i in 0..nodes.len() {
                if i != src && !self.node_offline(nodes, i, now) {
                    nodes[i].stats.on_rx_error();
                }
            }
            if entered_busoff {
                self.stats.bus_off_events += 1;
                self.bus_off.push(src);
                // Bus-off kills the controller: the failed frame and
                // everything it still had queued are lost.
                if !frame.garbage {
                    nodes[src].stats.tx_dropped += 1;
                    self.stats.frames_dropped += 1;
                    self.stats.frames_lost_offline += 1;
                }
                self.purge_pending(nodes, src);
            } else if !frame.garbage {
                nodes[src].stats.retransmissions += 1;
                self.stats.retransmissions += 1;
                self.pending.push((prio, seq, frame));
            }
        }
    }

    /// Stages a completed frame into its receivers' inboxes and marks
    /// them woken, so each advances in the next epoch. Offline
    /// receivers are judged here (they need the global fault clock);
    /// everything else — mailbox push, replica DMA, IRQ — happens in
    /// the receiver's own next advance.
    ///
    /// Under a [`crate::Topology`], the (global) destination is looked
    /// up in this segment's member list; a frame whose destination is
    /// not a member is parked in `remote_out` for the topology
    /// executive instead. Broadcasts always stay segment-local.
    fn stage(&mut self, nodes: &mut [ClusterNode], frame: Frame, done: Time, b: &mut Barrier<'_>) {
        let mut targets = std::mem::take(&mut self.stage_scratch);
        debug_assert!(targets.is_empty());
        match frame.dst {
            Some(d) => match self.members.as_ref().map(|m| m.binary_search(&d.0)) {
                Some(Ok(local)) => targets.push(local),
                Some(Err(_)) => {
                    self.remote_out.push((done, frame));
                    self.stage_scratch = targets;
                    return;
                }
                None if d.index() < nodes.len() => targets.push(d.index()),
                None => {
                    // No such node on this bus: the frame is lost.
                    self.stats.frames_dropped += 1;
                    self.stage_scratch = targets;
                    return;
                }
            },
            None => targets.extend((0..nodes.len()).filter(|&i| i != frame.src.index())),
        }
        if frame.dst.is_none() {
            // Broadcast fan-out resolves here: one sent frame becomes
            // `listeners` staged outcomes, and the counter pair keeps
            // the conservation ledger exact (see `BusStats`).
            self.stats.bcast_resolved += 1;
            self.stats.bcast_fanout += targets.len() as u64;
        }
        for &t in &targets {
            if self.node_offline(nodes, t, done) {
                // A dead receiver hears nothing.
                nodes[t].stats.rx_dropped += 1;
                self.stats.frames_dropped += 1;
                self.stats.frames_lost_offline += 1;
                continue;
            }
            let latency = done.since(frame.queued_at.min(done));
            b.wake(t);
            if let Some(sp) = frame.state {
                // State frame: the replica DMA carries the original
                // writer's stamp end to end.
                let var = self.links[sp.link as usize].dst_var;
                nodes[t].inbox.push(StagedRx::State {
                    var,
                    value: sp.value,
                    stamp: sp.stamp,
                    latency,
                });
            } else {
                nodes[t].inbox.push(StagedRx::Msg {
                    msg: emeralds_core::ipc::Message {
                        bytes: frame.bytes,
                        tag: frame.tag,
                        sender: emeralds_sim::ThreadId(u32::MAX - frame.src.0),
                    },
                    latency,
                });
            }
        }
        targets.clear();
        self.stage_scratch = targets;
    }

    /// Adaptive lookahead: after an exchange at `now`, propose the
    /// next barrier. Returns `None` (fixed cadence, `now + L`) unless
    /// the bus is *provably quiet*: nothing pending arbitration,
    /// nothing staged for delivery or harvest, and no kernel acting now
    /// (each idle or in the middle of a `Compute`). Frames already *in
    /// flight* do not pin the cadence — a granted frame's completion
    /// instant is fixed at grant time, so its staging barrier (the
    /// first grid point at or after completion) merely joins the bound
    /// set below.
    ///
    /// An idle kernel acts next at its earliest timer/board event, a
    /// computing one at the end of its compute or that event,
    /// whichever comes first; a quiet bus can also be disturbed by the
    /// *fault schedule* — a babble injection falling due, a fail-stop
    /// window boundary, or a bus-off recovery. Every epoch boundary
    /// stays on the fixed grid `origin + k·L`, and the proposal is the
    /// earliest grid point at which any of those can act, so every
    /// skipped grid barrier is provably a no-op:
    ///
    /// - **Kernel events, compute ends and babble ticks** act at the
    ///   first grid point *strictly after* their instant `t`: a TX
    ///   posted at `t` — or a babble cursor parked at `t` — is
    ///   harvested at the first barrier past it under fixed cadence too
    ///   (a barrier landing exactly on `t` does not yet see it). A
    ///   compute that ends exactly on a barrier runs its next action in
    ///   the following epoch, because the kernel's step loop returns at
    ///   the horizon first.
    /// - **Offline-state changes** (fail-stop starts/ends, bus-off
    ///   recovery instants `since + recovery`) are judged by
    ///   barrier-time comparison (`is_down(now)`, `try_recover(now)`),
    ///   so they take effect at the first grid point *at or after*
    ///   their instant. The stretch must stop there — skipping it
    ///   would complete a recovery at a later barrier than fixed
    ///   cadence and record a different recovery latency.
    /// - **In-flight completions** are staged by the same at-or-after
    ///   comparison (`done <= now`), so the earliest completion folds
    ///   into the at-or class: the stretch jumps straight to the grid
    ///   point where fixed cadence would stage the frame, and every
    ///   grid barrier skipped in between (empty pending queue, idle
    ///   kernels, no due staging) is provably a no-op. Receiver
    ///   liveness at that barrier is identical too, because every
    ///   instant that can change it bounds the stretch above.
    ///
    /// Hence fixed and adaptive runs produce bit-identical results,
    /// with or without an active fault plan; only the barrier count
    /// differs. `tests/cluster_determinism.rs` pins both.
    ///
    /// `wake_min` is the minimum of the engine's wake array
    /// ([`Barrier::wake_min`]): a node acting now reports `Time::ZERO`,
    /// any other its kernel's [`Kernel::next_action_time`], so the
    /// node bound costs no pass over the nodes. A wake before `now` — a
    /// node acting now, or a timer a fail-stop stall left overdue —
    /// vetoes the stretch.
    fn next_barrier_proposal(
        &self,
        nodes: &[ClusterNode],
        wake_min: Time,
        now: Time,
        origin: Time,
        horizon: Time,
    ) -> Option<Time> {
        if !self.adaptive || !self.pending.is_empty() || wake_min < now {
            return None;
        }
        let mut strict: Option<Time> = (wake_min != Time::MAX).then_some(wake_min);
        let mut at_or: Option<Time> = None;
        let fold = |slot: &mut Option<Time>, t: Time| {
            *slot = Some(slot.map_or(t, |m| m.min(t)));
        };
        let recovery = recovery_time(self.bitrate_bps);
        for &i in &self.bus_off {
            if let Some(since) = nodes[i].stats.bus_off_since {
                fold(&mut at_or, since + recovery);
            }
        }
        if let Some(f) = self.faults.as_ref() {
            if let Some(t) = f.next_babble_instant() {
                fold(&mut strict, t);
            }
            if let Some(t) = f.next_outage_boundary_after(now) {
                fold(&mut at_or, t);
            }
        }
        // `in_flight` is completion-ordered, so the front frame is
        // the earliest staging obligation; the barrier it binds
        // re-evaluates everything behind it.
        if let Some(&(done, _)) = self.in_flight.front() {
            fold(&mut at_or, done);
        }
        let l = self.lookahead.as_ns();
        let grid = |k: u64| k.checked_mul(l).map(|ns| origin + Duration::from_ns(ns));
        // No bound at all: nothing will ever happen again, run
        // straight to the end.
        let mut target = horizon;
        if let Some(t) = strict {
            if t < now {
                return None; // defensive: never step backwards
            }
            target = target.min(grid(t.since(origin).as_ns() / l + 1)?);
        }
        if let Some(t) = at_or {
            if t <= now {
                return None; // defensive: should have acted already
            }
            target = target.min(grid(t.since(origin).as_ns().div_ceil(l))?);
        }
        // Only stretch; a proposal at or below the fixed cadence buys
        // nothing (and at the final barrier, `now` already sits at
        // the horizon).
        if target <= now + self.lookahead {
            return None;
        }
        Some(target)
    }

    /// End-of-run flush, after [`ActiveSet::catch_up`] brought every
    /// node to the horizon and applied the inboxes staged at the final
    /// barrier: fold the tallies of the nodes it advanced (`caught_up`),
    /// and snapshot what is still underway so the ledger `sent ==
    /// delivered + dropped + in_flight` is exact at this horizon
    /// (garbage frames never counted as sent, so they don't count
    /// here). Every other node's last advance ran in an epoch, whose
    /// exchange already folded its tally.
    fn flush_run_end(&mut self, nodes: &mut [ClusterNode], caught_up: &[usize]) {
        self.fold_tallies(nodes, caught_up);
        debug_assert!(
            nodes.iter().all(|n| n.outcome == RxOutcome::default()),
            "a node the catch-up idled holds delivery tallies"
        );
        self.stats.frames_in_flight = self.in_flight.len() as u64
            + self.pending.iter().filter(|(_, _, f)| !f.garbage).count() as u64;
    }
}

/// N independent kernels over one priority-arbitrated bus, advanced in
/// lockstep epochs. See the module docs for the epoch/lookahead model.
#[derive(Debug)]
pub struct Cluster {
    pub(crate) nodes: Vec<ClusterNode>,
    pub(crate) bus: BusState,
    /// How far the executive has driven the cluster.
    pub(crate) cursor: Time,
    /// Accumulated engine cost accounting across `run_until` calls.
    exec_stats: EpochStats,
    /// The engine's wake array and index lists, persisted so a warmed
    /// `run_until` allocates nothing.
    set: ActiveSet,
    /// A node was added or handed out mutably since the last run, so
    /// the wake array and the bus-off list may be out of date.
    stale: bool,
}

impl Cluster {
    /// Creates an empty cluster at the given bus bit rate, with a
    /// lookahead window of one max-size frame time.
    ///
    /// # Panics
    ///
    /// Panics on a zero bit rate.
    pub fn new(bitrate_bps: u64) -> Cluster {
        Cluster {
            nodes: Vec::new(),
            bus: BusState::new(bitrate_bps),
            cursor: Time::ZERO,
            exec_stats: EpochStats::default(),
            set: ActiveSet::default(),
            stale: true,
        }
    }

    /// The lookahead window (epoch length).
    pub fn lookahead(&self) -> Duration {
        self.bus.lookahead
    }

    /// Enables or disables adaptive lookahead (on by default).
    /// Adaptive runs produce bit-identical simulation results to
    /// fixed-cadence runs — only barrier counts differ — so this
    /// switch exists for that comparison and for measurement.
    pub fn set_adaptive(&mut self, adaptive: bool) {
        self.bus.adaptive = adaptive;
    }

    /// Whether adaptive lookahead is enabled.
    pub fn adaptive(&self) -> bool {
        self.bus.adaptive
    }

    /// Engine cost accounting accumulated across every `run_until` so
    /// far: barrier crossings plus exchange/total wall nanoseconds, the
    /// exchange's a sampled estimate ([`EpochStats::serial_ns`]).
    /// Host-side measurement only — never feeds back into the
    /// simulation.
    pub fn exec_stats(&self) -> &EpochStats {
        &self.exec_stats
    }

    /// Node advances the engine made across every `run_until` so far:
    /// deterministic, and at most `len() * exec_stats().barriers`. The
    /// gap is the work the active-set engine skipped; run-end
    /// catch-ups are not counted.
    pub fn node_advances(&self) -> u64 {
        self.set.advances()
    }

    /// Attaches a node that transmits with arbitration id `tx_prio`.
    /// Its mailboxes and receive line are the NIC wiring of the
    /// kernel's board ([`KernelBuilder::add_nic`]).
    ///
    /// # Panics
    ///
    /// Panics, naming the node, when the kernel's board has no NIC.
    ///
    /// [`KernelBuilder::add_nic`]: emeralds_core::KernelBuilder::add_nic
    pub fn add_node(&mut self, name: impl Into<String>, kernel: Kernel, tx_prio: u32) -> NodeId {
        let name = name.into();
        let Some(nic) = kernel.board().nic() else {
            panic!("node {name} has no NIC: wire one with KernelBuilder::add_nic");
        };
        self.stale = true;
        self.nodes.push(ClusterNode {
            name: name.into(),
            kernel,
            nic,
            tx_prio,
            stats: NodeStats::default(),
            gate: None,
            inbox: Vec::new(),
            outcome: RxOutcome::default(),
            staged_tx: Vec::new(),
        });
        NodeId(self.nodes.len() as u32 - 1)
    }

    /// Installs a fault plan: fail-stop gates on the affected nodes
    /// plus the corruption/babble schedule on the bus. Call before
    /// [`Cluster::run_until`].
    ///
    /// # Panics
    ///
    /// Panics when the plan references a node index out of range.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        let fc = FaultClock::new(plan, self.nodes.len());
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let windows = fc.down_windows(i);
            node.gate = (!windows.is_empty()).then(|| FailStopGate::new(windows));
        }
        self.bus.faults = Some(fc);
    }

    /// Registers a networked state-message route: the writer variable
    /// `src_var` on `src` is sampled at every barrier and changed
    /// versions travel as state frames to the replica `dst_var` on
    /// `dst`. Returns the link index (carried in the frame payload).
    pub fn link_state(
        &mut self,
        src: NodeId,
        src_var: StateId,
        dst: NodeId,
        dst_var: StateId,
        prio: u32,
        bytes: usize,
    ) -> usize {
        self.bus
            .links
            .push(StateLink::new(src, src_var, dst, dst_var, prio, bytes));
        self.bus.links.len() - 1
    }

    /// Per-node NIC statistics and error-confinement state.
    pub fn node_stats(&self, id: NodeId) -> &NodeStats {
        &self.nodes[id.index()].stats
    }

    /// Node access.
    pub fn node(&self, id: NodeId) -> &ClusterNode {
        &self.nodes[id.index()]
    }

    /// Mutable node access. The next [`Cluster::run_until`] re-reads
    /// every node's wake and bus-off state, so any change made here
    /// (a message pushed into the TX mailbox, a stats edit) is seen.
    pub fn node_mut(&mut self, id: NodeId) -> &mut ClusterNode {
        self.stale = true;
        &mut self.nodes[id.index()]
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> &[ClusterNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes are attached.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Bus-level statistics.
    pub fn stats(&self) -> &BusStats {
        &self.bus.stats
    }

    /// Wire time of one frame.
    pub fn frame_time(&self, bytes: usize) -> Duration {
        self.bus.frame_time(bytes)
    }

    /// How far the executive has driven the cluster.
    pub fn now(&self) -> Time {
        self.cursor
    }

    /// Fraction of driven time the bus carried bits.
    pub fn bus_utilization(&self) -> f64 {
        if self.cursor == Time::ZERO {
            0.0
        } else {
            self.bus.stats.busy.as_ns() as f64 / self.cursor.as_ns() as f64
        }
    }

    /// Advances every node to `horizon` in epochs, each epoch
    /// advancing only the nodes with work before its end; every node's
    /// clock sits at (or past) `horizon` on return. Callable
    /// repeatedly; each call resumes from the previous horizon.
    ///
    /// The call touches every node only to drive the clocks of idle
    /// or computing ones there at the end; a full advance runs only for
    /// nodes due before the horizon. Wakes and bus-off states are
    /// re-read from every node only after [`Cluster::add_node`] or
    /// [`Cluster::node_mut`].
    ///
    /// # Panics
    ///
    /// Panics when the cluster has no nodes.
    pub fn run_until(&mut self, horizon: Time) {
        assert!(!self.nodes.is_empty(), "cluster has no nodes");
        if horizon <= self.cursor {
            return;
        }
        self.advance(horizon);
        self.finish();
    }

    /// The epoch loop from the cursor to `horizon`, running the
    /// exchange and the next-barrier proposal at every barrier. Nodes
    /// the loop skipped still lag `horizon` on return;
    /// [`Cluster::finish`] catches them up. A [`crate::Topology`] calls
    /// this once per outer epoch of each segment and `finish` once per
    /// run.
    pub(crate) fn advance(&mut self, horizon: Time) -> EpochStats {
        if horizon <= self.cursor {
            return EpochStats::default();
        }
        if std::mem::take(&mut self.stale) {
            self.bus.refresh(&self.nodes, &mut self.set);
        }
        let (origin, bus) = (self.cursor, &mut self.bus);
        let stats = run_epochs(
            &mut self.nodes,
            &mut self.set,
            origin,
            horizon,
            bus.lookahead,
            &mut |nodes, b| {
                bus.exchange(nodes, b);
                bus.next_barrier_proposal(nodes, b.wake_min(), b.at, origin, horizon)
            },
        );
        self.exec_stats.merge(&stats);
        self.cursor = horizon;
        stats
    }

    /// Ends a run at the cursor: brings every node's clock there and
    /// flushes the bus stats.
    pub(crate) fn finish(&mut self) {
        self.set.catch_up(&mut self.nodes, self.cursor);
        self.bus
            .flush_run_end(&mut self.nodes, self.set.caught_up());
    }

    /// Rolls every node's kernel metrics into a [`ClusterMetrics`].
    pub fn metrics(&self) -> ClusterMetrics {
        ClusterMetrics::from_nodes(self.node_metrics(None).collect())
    }

    /// Every node's metrics entry, in id order, placed on `segment`.
    pub(crate) fn node_metrics(
        &self,
        segment: Option<u32>,
    ) -> impl Iterator<Item = NodeMetrics> + '_ {
        self.nodes.iter().map(move |n| NodeMetrics {
            name: n.name.clone(),
            metrics: n.kernel.metrics(),
            faults: n.stats.fault_summary(),
            segment,
            gateway: None,
        })
    }
}

/// A [`crate::Topology`] segment's outer epoch: `Cluster::advance`,
/// with the run-end `Cluster::finish` left to the topology.
impl EpochGroup for Cluster {
    fn advance_group(&mut self, horizon: Time) -> EpochStats {
        self.advance(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addressed_tag;
    use emeralds_core::kernel::{KernelBuilder, KernelConfig};
    use emeralds_core::script::{Action, Script};
    use emeralds_core::SchedPolicy;
    use emeralds_sim::IrqLine;

    const NIC_IRQ: IrqLine = IrqLine(2);

    /// A node that periodically sends one frame to `dst` and drains
    /// everything received.
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

    fn two_node_cluster() -> Cluster {
        let mut c = Cluster::new(1_000_000);
        c.add_node("alpha", make_node(10, 7, Some(NodeId(1))), 10);
        c.add_node("beta", make_node(10, 9, Some(NodeId(0))), 20);
        c
    }

    #[test]
    fn two_nodes_exchange_frames() {
        let mut c = two_node_cluster();
        c.run_until(Time::from_ms(55));
        let s = c.stats();
        assert!(s.frames_sent >= 10, "stats {s:?}");
        assert_eq!(s.frames_dropped, 0);
        assert!(s.frames_delivered >= 8);
        let rx_task = emeralds_sim::ThreadId(1);
        assert_eq!(c.node(NodeId(0)).kernel.tcb(rx_task).last_read, 9);
        assert_eq!(c.node(NodeId(1)).kernel.tcb(rx_task).last_read, 7);
        // Delivery is barrier-quantized: latency at least one frame
        // time, at most frame time + one lookahead window per hop on
        // an idle bus.
        assert!(s.mean_latency().unwrap() >= c.frame_time(8));
    }

    /// The executive raises the line the receiver's board wires: a NIC
    /// on line 5 sees one raise on line 5 per delivered frame, each
    /// dispatched, and no raise on any other line.
    #[test]
    fn delivery_raises_the_line_the_board_wires() {
        let line = IrqLine(5);
        let mut b = KernelBuilder::new(KernelConfig {
            policy: SchedPolicy::RmQueue,
            ..KernelConfig::default()
        });
        let p = b.add_process("sink");
        let nic = b.add_nic(line, 8, 8);
        b.add_driver_task(
            p,
            "rx-driver",
            Duration::from_ms(1),
            Script::looping(vec![
                Action::RecvMbox(nic.rx),
                Action::Compute(Duration::from_us(50)),
            ]),
        );
        let mut c = Cluster::new(1_000_000);
        c.add_node("src", make_node(2, 7, Some(NodeId(1))), 10);
        let sink = c.add_node("sink", b.build(), 20);
        c.run_until(Time::from_ms(30));
        let delivered = c.stats().frames_delivered;
        assert!(delivered >= 10, "delivered {delivered}");
        assert_eq!(c.node_stats(sink).rx_frames, delivered);
        let k = &c.node(sink).kernel;
        let raised: Vec<IrqLine> = k
            .trace()
            .iter()
            .filter_map(|(_, e)| match e {
                emeralds_sim::TraceEvent::IrqRaised { line } => Some(*line),
                _ => None,
            })
            .collect();
        assert_eq!(raised, vec![line; delivered as usize]);
        assert_eq!(k.counters().irq_dispatched, delivered);
    }

    #[test]
    #[should_panic(expected = "node bare has no NIC")]
    fn a_kernel_without_a_nic_is_rejected_at_add_node() {
        let mut b = KernelBuilder::new(KernelConfig::default());
        let p = b.add_process("bare");
        b.add_periodic_task(
            p,
            "idle",
            Duration::from_ms(5),
            Script::compute_only(Duration::from_us(10)),
        );
        Cluster::new(1_000_000).add_node("bare", b.build(), 1);
    }

    #[test]
    fn broadcast_reaches_all_other_nodes() {
        let mut c = Cluster::new(2_000_000);
        c.add_node("src", make_node(10, 42, None), 5);
        let b = c.add_node("b", make_node(1000, 1, Some(NodeId(0))), 6);
        let d = c.add_node("c", make_node(1000, 2, Some(NodeId(0))), 7);
        c.run_until(Time::from_ms(30));
        let rx_task = emeralds_sim::ThreadId(1);
        assert_eq!(c.node(b).kernel.tcb(rx_task).last_read, 42);
        assert_eq!(c.node(d).kernel.tcb(rx_task).last_read, 42);
    }

    #[test]
    fn priority_arbitration_orders_backlog() {
        // Two nodes post at the same barrier; the lower arbitration id
        // must win the bus, so its frame completes (and delivers)
        // first.
        let mut c = Cluster::new(1_000_000);
        c.add_node("low-id", make_node(10, 1, Some(NodeId(2))), 1);
        c.add_node("high-id", make_node(10, 2, Some(NodeId(2))), 9);
        let sink = c.add_node("sink", make_node(1000, 0, Some(NodeId(0))), 50);
        c.run_until(Time::from_ms(25));
        // Both frames of each round arrive; the last frame of each
        // back-to-back pair is the high-id one.
        let rx_task = emeralds_sim::ThreadId(1);
        assert_eq!(c.node(sink).kernel.tcb(rx_task).last_read, 2);
        assert_eq!(c.stats().frames_dropped, 0);
        assert!(c.stats().frames_delivered >= 4);
    }

    #[test]
    fn bus_busy_time_accounts_every_sent_frame() {
        let mut c = two_node_cluster();
        c.run_until(Time::from_ms(50));
        let expected = c.frame_time(8) * c.stats().frames_sent;
        assert_eq!(c.stats().busy, expected);
    }

    #[test]
    fn overflowing_rx_mailbox_drops_frames() {
        // The sink has no consumer task, so its 2-slot RX mailbox
        // overflows under a 2 ms send period.
        let cfg = KernelConfig {
            policy: SchedPolicy::RmQueue,
            ..KernelConfig::default()
        };
        let mut b = KernelBuilder::new(cfg);
        let p = b.add_process("sink");
        b.add_nic(NIC_IRQ, 8, 2);
        b.add_periodic_task(
            p,
            "idle",
            Duration::from_ms(5),
            Script::compute_only(Duration::from_us(10)),
        );
        let sink = b.build();

        let mut c = Cluster::new(1_000_000);
        c.add_node("src", make_node(2, 3, Some(NodeId(1))), 1);
        c.add_node("sink", sink, 2);
        c.run_until(Time::from_ms(40));
        let s = c.stats();
        assert!(s.frames_dropped > 0);
        assert_eq!(
            s.frames_delivered + s.frames_dropped + s.frames_in_flight,
            s.frames_sent
        );
    }

    #[test]
    fn metrics_roll_up_across_nodes() {
        let mut c = two_node_cluster();
        c.run_until(Time::from_ms(30));
        let m = c.metrics();
        assert_eq!(m.node_count(), 2);
        assert_eq!(
            m.context_switches,
            m.nodes.iter().map(|n| n.metrics.context_switches).sum()
        );
        assert!(m.jobs_completed > 0);
        assert!(m.syscalls > 0);
        let json = m.to_json();
        assert!(json.contains("\"node_count\": 2"));
        assert!(json.contains("\"name\": \"alpha\""));
        assert!(m.render().contains("alpha"));
    }

    #[test]
    fn run_until_resumes_from_previous_horizon() {
        // Epoch boundaries are relative to the run start, so a split
        // run matches a whole run when the split lands on a boundary:
        // split on a multiple of the lookahead.
        let mut split = two_node_cluster();
        let l = split.lookahead();
        split.run_until(Time::ZERO + l * 180);
        split.run_until(Time::ZERO + l * 360);
        let mut whole = two_node_cluster();
        whole.run_until(Time::ZERO + l * 360);
        assert_eq!(split.stats(), whole.stats());
        assert_eq!(split.metrics(), whole.metrics());
    }

    #[test]
    fn frame_time_matches_bitrate() {
        // 8 bytes = 64 bits + 47 framing = 111 bits at 1 Mbit/s.
        assert_eq!(
            Cluster::new(1_000_000).frame_time(8),
            Duration::from_us(111)
        );
        assert_eq!(
            Cluster::new(2_000_000).frame_time(8),
            Duration::from_ns(55_500)
        );
    }

    #[test]
    fn node_accessors_and_len() {
        let mut c = Cluster::new(1_000_000);
        assert!(c.is_empty());
        let id = c.add_node("solo", make_node(50, 1, None), 3);
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
        assert_eq!(&*c.node(id).name, "solo");
        assert_eq!(c.node(id).tx_prio, 3);
        c.node_mut(id).tx_prio = 4;
        assert_eq!(c.node(id).tx_prio, 4);
    }

    #[test]
    fn frame_to_a_node_the_cluster_lacks_is_dropped() {
        let mut c = Cluster::new(1_000_000);
        c.add_node("stray", make_node(10, 7, Some(NodeId(9))), 10);
        c.add_node("peer", make_node(10, 9, Some(NodeId(0))), 20);
        c.run_until(Time::from_ms(25));
        // Three rounds each: the stray node's frames are lost, the
        // peer's land.
        let s = c.stats();
        assert_eq!(
            (s.frames_sent, s.frames_delivered, s.frames_dropped),
            (6, 3, 3)
        );
        assert_eq!(s.frames_in_flight, 0);
        assert_eq!(
            c.node(NodeId(0))
                .kernel
                .tcb(emeralds_sim::ThreadId(1))
                .last_read,
            9
        );
    }

    #[test]
    fn frames_pushed_into_an_idle_node_between_runs_are_sent() {
        let mut c = Cluster::new(1_000_000);
        for i in 0..2u32 {
            c.add_node(format!("n{i}"), sparse_node(Duration::from_ms(5)), 1 + i);
        }
        c.run_until(Time::from_ms(1));
        // Both kernels now idle until their next release at 5 ms.
        let src = c.node_mut(NodeId(0));
        for i in 0..3 {
            let msg = emeralds_core::ipc::Message {
                bytes: 8,
                tag: addressed_tag(Some(NodeId(1)), i),
                sender: emeralds_sim::ThreadId(0),
            };
            assert!(src.kernel.external_mbox_push(src.nic.tx, msg));
        }
        c.run_until(Time::from_us(1_800));
        let s = c.stats();
        assert_eq!((s.frames_sent, s.frames_delivered), (3, 3));
        let driver = emeralds_sim::ThreadId(1);
        assert_eq!(c.node(NodeId(1)).kernel.tcb(driver).last_read, 2);
    }

    #[test]
    fn node_added_after_the_fault_plan_has_no_scheduled_fault() {
        let mut c = Cluster::new(1_000_000);
        c.add_node("alpha", make_node(10, 7, Some(NodeId(1))), 10);
        c.set_fault_plan(&FaultPlan::new(3).with_corruption(0.2));
        // The plan was compiled for one node: the late node has no
        // schedule of its own, but its frames share the bus-wide
        // corruption stream.
        c.add_node("beta", make_node(10, 9, Some(NodeId(0))), 20);
        c.run_until(Time::from_ms(40));
        let s = c.stats();
        assert!(s.error_frames > 0, "{s:?}");
        assert!(c.node_stats(NodeId(1)).tx_frames > 0);
        assert_eq!(
            s.frames_sent,
            s.frames_delivered + s.frames_dropped + s.frames_in_flight,
            "{s:?}"
        );
    }

    // --- Active-set engine contract ---

    /// A board with nothing but an interrupt-driven NIC driver: after
    /// its boot dispatch parks the driver on the NIC line it has no
    /// timer at all, so the engine skips it until a frame lands. The
    /// mailbox push wakes nobody, so the interrupt is logged one
    /// mailbox copy after the instant the frame is applied.
    fn listener() -> Kernel {
        let mut b = KernelBuilder::new(KernelConfig {
            policy: SchedPolicy::RmQueue,
            ..KernelConfig::default()
        });
        let p = b.add_process("listener");
        let nic = b.add_nic(NIC_IRQ, 4, 4);
        b.add_driver_task(
            p,
            "rx-driver",
            Duration::from_ms(1),
            Script::looping(vec![
                Action::WaitIrq(NIC_IRQ),
                Action::RecvMbox(nic.rx),
                Action::Compute(Duration::from_us(30)),
            ]),
        );
        b.build()
    }

    #[test]
    fn addresses_past_one_byte_reach_only_their_node() {
        let mut c = Cluster::new(1_000_000);
        for i in 0..300u32 {
            c.add_node(format!("n{i}"), listener(), 1 + i);
        }
        let src = c.node_mut(NodeId(0));
        for (dst, payload) in [(255, 7), (256, 9)] {
            let msg = emeralds_core::ipc::Message {
                bytes: 8,
                tag: addressed_tag(Some(NodeId(dst)), payload),
                sender: emeralds_sim::ThreadId(0),
            };
            assert!(src.kernel.external_mbox_push(src.nic.tx, msg));
        }
        c.run_until(Time::from_ms(2));
        let s = c.stats();
        assert_eq!((s.frames_sent, s.frames_delivered), (2, 2), "{s:?}");
        assert_eq!((s.bcast_resolved, s.bcast_fanout), (0, 0), "{s:?}");
        let driver = emeralds_sim::ThreadId(0);
        for (i, n) in c.nodes().iter().enumerate() {
            let expected = match i {
                255 => (1, 7),
                256 => (1, 9),
                _ => (0, 0),
            };
            let got = (n.stats.rx_frames, n.kernel.tcb(driver).last_read);
            assert_eq!(got, expected, "{}", n.name);
        }
    }

    /// A board that sends one frame (`payload` to `dst`) shortly after
    /// `at`, and nothing else for a second.
    fn one_shot_sender(at: Duration, dst: Option<NodeId>, payload: u32) -> Kernel {
        let mut b = KernelBuilder::new(KernelConfig {
            policy: SchedPolicy::RmQueue,
            ..KernelConfig::default()
        });
        let p = b.add_process("sender");
        let nic = b.add_nic(NIC_IRQ, 4, 4);
        b.add_periodic_task_phased(
            p,
            "once",
            Duration::from_ms(1000),
            Duration::from_ms(1000),
            at,
            Script::periodic(vec![
                Action::Compute(Duration::from_us(100)),
                Action::SendMbox {
                    mbox: nic.tx,
                    bytes: 8,
                    tag: addressed_tag(dst, payload),
                },
            ]),
        );
        b.build()
    }

    fn irq_instants(k: &Kernel) -> Vec<Time> {
        k.trace()
            .iter()
            .filter(|(_, e)| matches!(e, emeralds_sim::TraceEvent::IrqRaised { .. }))
            .map(|&(t, _)| t)
            .collect()
    }

    #[test]
    fn idle_receiver_logs_irq_at_the_staging_barrier() {
        let mut c = Cluster::new(1_000_000);
        c.set_adaptive(false); // a barrier at every grid point
        let k = one_shot_sender(Duration::from_ms(20), Some(NodeId(1)), 5);
        let s = c.add_node("sender", k, 1);
        let r = c.add_node("idle", listener(), 2);
        c.run_until(Time::from_ms(30));
        // The post, the barrier that harvests it (the first grid
        // point after it), and the barrier that stages the frame
        // once its wire time (one lookahead) has passed.
        let l = c.lookahead().as_ns();
        let posted = c
            .node(s)
            .kernel
            .trace()
            .iter()
            .find(|(_, e)| matches!(e, emeralds_sim::TraceEvent::MboxSend { .. }))
            .map(|&(t, _)| t.as_ns())
            .expect("the sender posted");
        let staged = Time::from_ns((posted / l + 1) * l + l);
        assert!(
            staged.as_ns() / l > 100,
            "receiver idle for over 100 barriers"
        );
        // The lagging kernel caught up to exactly that barrier,
        // copied the frame into its RX mailbox, then raised the line.
        let copy = KernelConfig::default().cost.mbox_copy(8);
        let rx = &c.node(r).kernel;
        assert_eq!(irq_instants(rx), vec![staged + copy]);
        assert_eq!(rx.tcb(emeralds_sim::ThreadId(0)).last_read, 5);
        // The receiver sat those barriers out.
        assert!(
            c.node_advances() + 100 <= 2 * c.exec_stats().barriers,
            "advances {} over {} barriers",
            c.node_advances(),
            c.exec_stats().barriers
        );
    }

    #[test]
    fn broadcast_reaches_lagging_listeners() {
        let mut c = Cluster::new(1_000_000);
        let k = one_shot_sender(Duration::from_ms(15), None, 42);
        c.add_node("caster", k, 1);
        for i in 0..4u32 {
            c.add_node(format!("l{i}"), listener(), 2 + i);
        }
        c.run_until(Time::from_ms(25));
        let first = irq_instants(&c.nodes()[1].kernel);
        assert_eq!(first.len(), 1);
        for n in &c.nodes()[1..] {
            assert_eq!(irq_instants(&n.kernel), first, "{}", n.name);
            assert_eq!(n.kernel.tcb(emeralds_sim::ThreadId(0)).last_read, 42);
        }
        let s = c.stats();
        assert_eq!((s.frames_sent, s.frames_delivered), (1, 4));
        assert_eq!((s.bcast_resolved, s.bcast_fanout), (1, 4));
    }

    /// A board with one sparse periodic task and its NIC driver.
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
    fn fail_stop_window_opens_on_an_idle_node() {
        // The window opens at 10 ms, between the node's releases at 7
        // and 14 ms, while the engine is skipping it.
        let window = (Time::from_ms(10), Duration::from_ms(5));
        let plan = FaultPlan::new(3).fail_stop(NodeId(0), window.0, window.1);
        // Reference: the same board advanced at every grid point
        // through its gate, as an engine without skipping would.
        let mut reference = sparse_node(Duration::from_ms(7));
        let mut gate = FailStopGate::new(&[(window.0, window.0 + window.1)]);
        let mut c = Cluster::new(1_000_000);
        c.add_node("victim", sparse_node(Duration::from_ms(7)), 1);
        c.set_fault_plan(&plan);
        // Stop inside the outage: the catch-up applies the stall.
        c.run_until(Time::from_ms(12));
        assert_eq!(c.nodes()[0].kernel.now(), Time::from_ms(15));
        c.run_until(Time::from_ms(30));
        assert!(
            c.node_advances() < c.exec_stats().barriers,
            "the victim was skipped"
        );
        let l = c.lookahead();
        let mut t = Time::ZERO;
        while t < Time::from_ms(30) {
            t = Time::from_ms(30).min(t + l);
            gate.drive(&mut reference, t);
        }
        let victim = &c.nodes()[0].kernel;
        assert_eq!(victim.metrics(), reference.metrics());
        assert_eq!(victim.trace().to_jsonl(), reference.trace().to_jsonl());
    }

    #[test]
    fn every_clock_sits_at_the_horizon_with_balanced_time() {
        let mut c = Cluster::new(1_000_000);
        c.add_node("busy", make_node(3, 1, Some(NodeId(1))), 1);
        c.add_node("sparse", sparse_node(Duration::from_ms(9)), 2);
        c.add_node("idle", listener(), 3);
        c.set_fault_plan(&FaultPlan::new(9).fail_stop(
            NodeId(1),
            Time::from_us(12_345),
            Duration::from_ms(4),
        ));
        for ms in [1u64, 7, 13, 14, 29, 40] {
            let horizon = Time::from_ms(ms);
            c.run_until(horizon);
            for n in c.nodes() {
                let m = n.kernel.metrics();
                let now = n.kernel.now();
                assert!(now >= horizon, "{} at {now:?} < {horizon:?}", n.name);
                assert_eq!(
                    now,
                    Time::ZERO + m.app_time + m.idle_time + m.total_overhead,
                    "{} at {ms} ms",
                    n.name
                );
            }
        }
    }
}
