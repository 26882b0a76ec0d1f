//! The multi-node cluster executive: N kernels over one bus, advanced
//! in parallel across host threads.
//!
//! [`crate::Network`] co-simulates nodes serially — correct, but one
//! host core drives every board, so a 64-node system runs 64× slower
//! than one board. [`Cluster`] instead runs each [`Kernel`] on the
//! deterministic conservative-lookahead engine of
//! [`emeralds_sim::run_epochs`]:
//!
//! - **Epoch**: every node with work before the epoch end
//!   independently advances its local virtual clock by one lookahead
//!   window *L* (default: one max-size bus-frame time — no frame can
//!   cross the bus faster, so no node can miss an input by running
//!   ahead). An idle node — no running thread, no staged frame — is
//!   skipped until its next timer or device event, or until a frame
//!   is staged for it; its clock catches up (idle time only) first.
//! - **Barrier exchange** (serial, node order): deliver in-flight
//!   frames whose wire time completed, harvest each node's TX mailbox
//!   onto the arbitration queue, then grant the bus CAN-style (lowest
//!   arbitration id first, FIFO within an id) for every transmission
//!   that *starts* inside the next window.
//!
//! Timing model vs [`crate::Network`]: frames are timestamped at the
//! harvesting barrier and delivered at the first barrier after their
//! wire time completes, so end-to-end latency is quantized to at most
//! one lookahead window (±*L* ≈ one frame time) instead of the serial
//! executive's per-step resolution. *Intra-node* accounting — the
//! paper's per-op cost model — is untouched: each kernel runs the
//! exact same step loop either way. Results are bit-for-bit identical
//! for any worker count; `tests/cluster_determinism.rs` pins this.

use std::collections::VecDeque;

use emeralds_core::kernel::{ClusterMetrics, NodeMetrics};
use emeralds_core::Kernel;
use emeralds_faults::{FaultClock, FaultPlan};
use emeralds_sim::{
    run_epochs, ActiveSet, Barrier, Duration, EpochConfig, EpochNode, IrqLine, MboxId, NodeId,
    StateId, Time,
};

use crate::errors::{ErrorConfig, FailStopGate, NodeStats};
use crate::{frame_of, frame_of_wide, garbage_frame, BusStats, Frame, StateLink, StatePayload};
pub use emeralds_sim::EpochStats;

/// A frame reception staged at a barrier and applied by the receiving
/// node itself at the top of its next advance — the parallel half of
/// the decomposed exchange. The receiver's virtual clock equals the
/// staging barrier when it applies the inbox, and neither a mailbox
/// push, an IRQ latch, nor a replica DMA advances the clock, so the
/// kernel observes the exact same instant as a serial in-barrier
/// delivery.
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

/// Node-local delivery tallies accumulated during the parallel
/// advance and folded into the global [`BusStats`] at the next
/// barrier. All fields are order-independent sums, so the serial
/// rollup order cannot influence the totals.
#[derive(Debug, Default)]
pub(crate) struct RxOutcome {
    delivered: u64,
    dropped: u64,
    latency: Duration,
}

/// One simulated board in a [`Cluster`]: a kernel plus its NIC wiring.
#[derive(Debug)]
pub struct ClusterNode {
    pub id: NodeId,
    /// Shared so metrics rollups bump a refcount instead of copying.
    pub name: std::sync::Arc<str>,
    pub kernel: Kernel,
    /// Application → NIC mailbox.
    pub tx_mbox: MboxId,
    /// NIC → application mailbox.
    pub rx_mbox: MboxId,
    /// Interrupt raised on frame reception.
    pub nic_irq: IrqLine,
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
    /// its own advance — the sharded half of the TX harvest. Pops run
    /// node-local with the kernel clock already at the barrier
    /// instant, so only the bus-global decisions (frame construction
    /// order, fault judgement, arbitration) remain serial; the
    /// exchange consumes this buffer in node order.
    staged_tx: Vec<emeralds_core::ipc::Message>,
}

impl ClusterNode {
    /// Builds a node. `id` is this node's index on its own bus: global
    /// on a single-bus [`Cluster`], segment-local under a
    /// [`crate::Topology`].
    pub(crate) fn new(
        id: NodeId,
        name: impl Into<std::sync::Arc<str>>,
        kernel: Kernel,
        tx_mbox: MboxId,
        rx_mbox: MboxId,
        nic_irq: IrqLine,
        tx_prio: u32,
    ) -> ClusterNode {
        ClusterNode {
            id,
            name: name.into(),
            kernel,
            tx_mbox,
            rx_mbox,
            nic_irq,
            tx_prio,
            stats: NodeStats::default(),
            gate: None,
            inbox: Vec::new(),
            outcome: RxOutcome::default(),
            staged_tx: Vec::new(),
        }
    }

    /// Installs (or clears) this node's fail-stop gate. The topology
    /// executive uses this when splitting a global fault plan across
    /// segments; [`Cluster::set_fault_plan`] sets its own directly.
    pub(crate) fn set_gate(&mut self, gate: Option<FailStopGate>) {
        self.gate = gate;
    }

    /// Runs the kernel to `to` through the fail-stop gate, if any.
    fn drive(&mut self, to: Time) {
        match self.gate.as_mut() {
            Some(gate) => gate.drive(&mut self.kernel, to),
            None => self.kernel.advance_to(to),
        }
    }

    /// Applies every staged reception. Runs inside the node's own
    /// advance (or its run-end catch-up): it touches only this node's
    /// kernel and stats, so it is data-race-free and deterministic
    /// regardless of worker count.
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
                    if self.kernel.external_mbox_push(self.rx_mbox, msg) {
                        self.kernel.raise_external_irq(self.nic_irq);
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
    /// Now while the kernel runs a thread or the NIC holds staged
    /// frames; otherwise the kernel's next timer or device event. An
    /// idle kernel only wakes on one of those, so until then an advance
    /// would only add idle time. A fail-stop gate needs no entry: its
    /// stall only moves the clock and adds idle time too, and the gate
    /// applies it whenever the node next runs — at its wake, before a
    /// staged frame lands, or at the run-end catch-up — exactly as it
    /// would have at the window start (`FailStopGate::drive`).
    fn wake(&self) -> Time {
        if !self.inbox.is_empty() || !self.staged_tx.is_empty() || self.kernel.current().is_some() {
            Time::ZERO
        } else {
            self.kernel.next_external_time().unwrap_or(Time::MAX)
        }
    }

    fn advance(&mut self, from: Time, to: Time) -> Time {
        if !self.inbox.is_empty() {
            // A node skipped since an earlier barrier first catches up
            // to the staging barrier (idle time only), so the kernel
            // observes the same instant an every-epoch advance would.
            // NIC delivery DMA then runs here, in parallel, not under
            // the serial exchange.
            self.drive(from);
            self.apply_inbox();
        }
        // The gate consults only this node's own clock and its static
        // outage windows, so running it inside the parallel per-node
        // advance cannot perturb determinism.
        self.drive(to);
        // Sharded TX harvest: pop the NIC mailbox here, on this
        // node's own worker, instead of under the serial exchange.
        // The kernel clock sits exactly at the upcoming barrier, so a
        // pop — and any parked sender it unblocks — observes the same
        // instant a serial in-barrier harvest would, and pop order
        // (hence frame order) is the kernel's own FIFO either way.
        let tx = self.tx_mbox;
        while let Some(msg) = self.kernel.external_mbox_pop(tx) {
            self.staged_tx.push(msg);
        }
        self.wake()
    }
}

/// Maps global node ids onto one segment of a bridged topology.
#[derive(Debug)]
pub(crate) struct SegmentRouting {
    /// Indexed by *global* node id: this segment's local index for the
    /// node, or `u32::MAX` when the node lives on another segment.
    pub(crate) local_of: Vec<u32>,
}

/// The shared-bus state mutated only at epoch barriers. One per
/// [`Cluster`]; one per segment under a [`crate::Topology`].
#[derive(Debug)]
pub(crate) struct BusState {
    bitrate_bps: u64,
    framing_bits: u64,
    /// The instant the bus becomes idle.
    bus_free_at: Time,
    /// Harvest order within an arbitration id (CAN FIFO tie-break).
    seq: u64,
    /// Frames queued but not yet granted the bus: `(prio, seq, frame)`.
    pub(crate) pending: Vec<(u32, u64, Frame)>,
    /// Granted transmissions awaiting delivery, in completion order.
    pub(crate) in_flight: VecDeque<(Time, Frame)>,
    /// Networked state-message routes, harvested in registration
    /// order at each barrier (serial, so deterministic for any worker
    /// count).
    links: Vec<StateLink>,
    pub(crate) stats: BusStats,
    pub(crate) lookahead: Duration,
    /// Stretch epochs across provably-quiet bus time (see
    /// [`BusState::next_barrier_proposal`]).
    pub(crate) adaptive: bool,
    /// Error-signalling parameters.
    error_cfg: ErrorConfig,
    /// Compiled fault schedule, when one is installed.
    faults: Option<FaultClock>,
    /// Bridged-topology routing, when this bus is one segment of a
    /// [`crate::Topology`]; `None` on a standalone cluster.
    pub(crate) routing: Option<SegmentRouting>,
    /// Completed frames addressed off-segment, awaiting pickup by the
    /// topology executive at the next inter-segment barrier (wire
    /// -completion time, frame).
    pub(crate) remote_out: Vec<(Time, Frame)>,
    /// Decode TX-mailbox tags with [`crate::wide_tag`]'s 16-bit
    /// destination field instead of [`crate::addressed_tag`]'s 8-bit
    /// one (bridged topologies exceed one byte of node ids).
    pub(crate) wide_tags: bool,
    /// Reused receiver-index buffer for [`BusState::stage`]: staging a
    /// frame in the steady state must not allocate.
    stage_scratch: Vec<usize>,
    /// Nodes currently in bus-off, in no particular order.
    bus_off: Vec<usize>,
    /// Reused buffer of the nodes the TX-harvest step visits.
    visit: Vec<usize>,
}

impl BusState {
    /// A fresh idle bus at the given bit rate, with the lookahead
    /// defaulting to one max-size frame time and adaptive stretching
    /// on.
    ///
    /// # Panics
    ///
    /// Panics on a zero bit rate.
    pub(crate) fn new(bitrate_bps: u64) -> BusState {
        assert!(bitrate_bps > 0, "zero bit rate");
        let mut bus = BusState {
            bitrate_bps,
            framing_bits: 47,
            bus_free_at: Time::ZERO,
            seq: 0,
            pending: Vec::new(),
            in_flight: VecDeque::new(),
            links: Vec::new(),
            stats: BusStats::default(),
            lookahead: Duration::ZERO,
            adaptive: true,
            error_cfg: ErrorConfig::default(),
            faults: None,
            routing: None,
            remote_out: Vec::new(),
            wide_tags: false,
            stage_scratch: Vec::new(),
            bus_off: Vec::new(),
            visit: Vec::new(),
        };
        bus.lookahead = bus.frame_time(8);
        bus
    }

    /// Wire time of one frame.
    pub(crate) fn frame_time(&self, bytes: usize) -> Duration {
        let bits = bytes as u64 * 8 + self.framing_bits;
        Duration::from_ns(bits * 1_000_000_000 / self.bitrate_bps)
    }

    /// Enqueues an already-counted frame for arbitration: a gateway
    /// forward, counted in `frames_sent` once at its origin segment's
    /// harvest, never again here.
    pub(crate) fn inject(&mut self, frame: Frame) {
        self.pending.push((frame.prio, self.seq, frame));
        self.seq += 1;
    }

    /// Installs a compiled fault schedule (the topology executive's
    /// per-segment split; [`Cluster::set_fault_plan`] sets its own).
    pub(crate) fn set_faults(&mut self, fc: FaultClock) {
        self.faults = Some(fc);
    }

    /// Re-reads which nodes are in bus-off, at the start of a run (node
    /// stats are public and may have changed between runs).
    pub(crate) fn refresh(&mut self, nodes: &[ClusterNode]) {
        self.bus_off.clear();
        self.bus_off
            .extend((0..nodes.len()).filter(|&i| nodes[i].stats.is_bus_off()));
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

    /// The serial barrier step: roll up, recover, stage deliveries,
    /// consume the sharded TX harvest, babble, arbitrate. Runs in
    /// node order on one thread, so every fault decision here is
    /// deterministic for any worker count. Per-node kernel work is
    /// *not* done here — receptions (mailbox push, replica DMA, IRQ
    /// latch) are staged into node inboxes and applied by each node's
    /// own worker at the top of the next advance, and TX-mailbox pops
    /// already ran in each node's advance epilogue — keeping the
    /// serial section down to frame arbitration and routing.
    ///
    /// Only the nodes that can have changed are visited: those the
    /// epoch advanced (`b.active`), receivers of staged frames, bus-off
    /// nodes, and nodes with fail-stop or babble windows. Every other
    /// node holds no tallies, no TX and no offline state, so skipping
    /// it changes nothing; the error-frame observers below still visit
    /// every node.
    pub(crate) fn exchange(&mut self, nodes: &mut [ClusterNode], b: &mut Barrier<'_>) {
        let now = b.at;
        // 0. Fold the previous epoch's node-local delivery tallies
        //    into the global stats. Only an advance applies an inbox,
        //    and the fields are order-independent sums, so totals are
        //    identical to the old serial scheme.
        for &i in b.active {
            let o = std::mem::take(&mut nodes[i].outcome);
            self.stats.frames_delivered += o.delivered;
            self.stats.frames_dropped += o.dropped;
            self.stats.total_latency += o.latency;
        }

        // 0b. Complete due bus-off recoveries before anything else
        //     this barrier: a recovered node sends and receives again.
        let recovery = self.error_cfg.recovery_time(self.bitrate_bps);
        let mut recovered = 0;
        self.bus_off.retain(|&i| {
            let done = nodes[i].stats.try_recover(now, recovery);
            recovered += u64::from(done);
            !done && nodes[i].stats.is_bus_off()
        });
        self.stats.bus_off_recoveries += recovered;

        // 1. Stage frames whose wire time has completed. `in_flight`
        //    is in completion order (the bus is serial). Receiver
        //    liveness is judged *here*, serially, at the completion
        //    instant — only the mechanical application is deferred.
        while let Some(&(done, frame)) = self.in_flight.front() {
            if done > now {
                break;
            }
            self.in_flight.pop_front();
            self.stage(nodes, frame, done, b);
        }

        // 2. Consume the TX messages each node's own advance drained
        //    from its NIC mailbox (the sharded harvest), in node
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
                let frame = if self.wide_tags {
                    frame_of_wide(node.id, node.tx_prio, msg, now)
                } else {
                    frame_of(node.id, node.tx_prio, msg, now)
                };
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
                        let frame = garbage_frame(node.id, now);
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
            let err_done = done + self.error_cfg.error_time(self.bitrate_bps);
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
    /// everything else — mailbox push, replica DMA, IRQ — happens on
    /// the receiver's own worker at the top of the next advance.
    ///
    /// Under a [`crate::Topology`], an addressed frame whose (global)
    /// destination is not on this segment is parked in `remote_out`
    /// for the topology executive instead; broadcasts always stay
    /// segment-local.
    fn stage(&mut self, nodes: &mut [ClusterNode], frame: Frame, done: Time, b: &mut Barrier<'_>) {
        let mut targets = std::mem::take(&mut self.stage_scratch);
        debug_assert!(targets.is_empty());
        match frame.dst {
            Some(d) => match self.routing.as_ref() {
                Some(r) => {
                    let local = r.local_of.get(d.index()).copied().unwrap_or(u32::MAX);
                    if local == u32::MAX {
                        self.remote_out.push((done, frame));
                        self.stage_scratch = targets;
                        return;
                    }
                    targets.push(local as usize);
                }
                None => targets.push(d.index()),
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
    /// nothing staged for delivery or harvest, and every kernel idle
    /// (no current thread). Frames already *in flight* do not pin the
    /// cadence — a granted frame's completion instant is fixed at
    /// grant time, so its staging barrier (the first grid point at or
    /// after completion) merely joins the bound set below.
    ///
    /// An idle kernel acts next at its earliest timer/board event; a
    /// quiet bus can also be disturbed by the *fault schedule* — a
    /// babble injection falling due, a fail-stop window boundary, or a
    /// bus-off recovery. Every epoch boundary stays on the fixed grid
    /// `origin + k·L`, and the proposal is the earliest grid point at
    /// which any of those can act, so every skipped grid barrier is
    /// provably a no-op:
    ///
    /// - **Kernel events and babble ticks** act at the first grid
    ///   point *strictly after* their instant `t`: a TX posted at `t`
    ///   — or a babble cursor parked at `t` — is harvested at the
    ///   first barrier past it under fixed cadence too (a barrier
    ///   landing exactly on `t` does not yet see it).
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
    pub(crate) fn next_barrier_proposal(
        &self,
        nodes: &[ClusterNode],
        wake_min: Time,
        now: Time,
        origin: Time,
        horizon: Time,
    ) -> Option<Time> {
        if !self.adaptive {
            return None;
        }
        let (strict, at_or) = self.quiet_classes(nodes, wake_min, now)?;
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

    /// The quietness test shared by both adaptive rules (the inner
    /// grid rule above and the topology's outer-cadence rule): `None`
    /// when the bus cannot prove the next window empty — frames
    /// pending arbitration, or a node with work now (running, or handed
    /// input at this barrier). Otherwise the earliest instant of each
    /// barrier-placement class — `(strict, at_or)`, with the class
    /// semantics of [`BusState::next_barrier_proposal`] — at which
    /// anything on this bus can act again (`None` entries = never).
    ///
    /// `wake_min` is the minimum of the engine's wake array
    /// ([`Barrier::wake_min`] / [`ActiveSet::wake_min`]): a busy node
    /// reports `Time::ZERO`, an idle one its kernel's next timer or
    /// device event, so the node bound costs no pass over the nodes. A
    /// wake before `now` — a busy node, or a timer a fail-stop stall
    /// left overdue — vetoes the stretch.
    pub(crate) fn quiet_classes(
        &self,
        nodes: &[ClusterNode],
        wake_min: Time,
        now: Time,
    ) -> Option<(Option<Time>, Option<Time>)> {
        if !self.pending.is_empty() || wake_min < now {
            return None;
        }
        let mut strict: Option<Time> = (wake_min != Time::MAX).then_some(wake_min);
        let mut at_or: Option<Time> = None;
        let fold = |slot: &mut Option<Time>, t: Time| {
            *slot = Some(slot.map_or(t, |m| m.min(t)));
        };
        let recovery = self.error_cfg.recovery_time(self.bitrate_bps);
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
        Some((strict, at_or))
    }

    /// End-of-run flush, shared by [`Cluster::run_until`] and the
    /// topology executive, after [`ActiveSet::catch_up`] brought every
    /// node to the horizon and applied the inboxes staged at the final
    /// barrier: fold the remaining tallies in, and snapshot what is
    /// still underway so the ledger `sent == delivered + dropped +
    /// in_flight` is exact at this horizon (garbage frames never
    /// counted as sent, so they don't count here).
    pub(crate) fn flush_run_end(&mut self, nodes: &mut [ClusterNode]) {
        for node in nodes.iter_mut() {
            let o = std::mem::take(&mut node.outcome);
            self.stats.frames_delivered += o.delivered;
            self.stats.frames_dropped += o.dropped;
            self.stats.total_latency += o.latency;
        }
        self.stats.frames_in_flight = self.in_flight.len() as u64
            + self.pending.iter().filter(|(_, _, f)| !f.garbage).count() as u64;
    }
}

/// N independent kernels over one priority-arbitrated bus, advanced in
/// parallel. See the module docs for the epoch/lookahead model.
#[derive(Debug)]
pub struct Cluster {
    nodes: Vec<ClusterNode>,
    bus: BusState,
    /// Host worker threads (clamped to `1..=nodes` at run time).
    pub workers: usize,
    /// How far the executive has driven the cluster.
    cursor: Time,
    /// Accumulated engine cost accounting across `run_until` calls.
    exec_stats: EpochStats,
    /// The engine's wake array and index lists, persisted so a warmed
    /// `run_until` allocates nothing.
    set: ActiveSet,
}

impl Cluster {
    /// Creates an empty cluster at the given bus bit rate, with the
    /// lookahead window defaulting to one max-size frame time and one
    /// worker.
    ///
    /// # Panics
    ///
    /// Panics on a zero bit rate.
    pub fn new(bitrate_bps: u64) -> Cluster {
        Cluster {
            nodes: Vec::new(),
            bus: BusState::new(bitrate_bps),
            workers: 1,
            cursor: Time::ZERO,
            exec_stats: EpochStats::default(),
            set: ActiveSet::default(),
        }
    }

    /// Sets the worker-thread count (builder style).
    pub fn with_workers(mut self, workers: usize) -> Cluster {
        self.workers = workers.max(1);
        self
    }

    /// The lookahead window (epoch length).
    pub fn lookahead(&self) -> Duration {
        self.bus.lookahead
    }

    /// Overrides the lookahead window. Larger windows cut barrier
    /// overhead but coarsen frame-delivery timing; windows below one
    /// frame time buy nothing.
    ///
    /// # Panics
    ///
    /// Panics on a zero window.
    pub fn set_lookahead(&mut self, window: Duration) {
        assert!(!window.is_zero(), "zero lookahead");
        self.bus.lookahead = window;
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
    /// far: barrier crossings plus serial/total wall nanoseconds.
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

    /// Attaches a node. The kernel must already own the two mailboxes
    /// and have its NIC wired to `nic_irq`.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        kernel: Kernel,
        tx_mbox: MboxId,
        rx_mbox: MboxId,
        nic_irq: IrqLine,
        tx_prio: u32,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(ClusterNode::new(
            id,
            name.into(),
            kernel,
            tx_mbox,
            rx_mbox,
            nic_irq,
            tx_prio,
        ));
        id
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

    /// Mutable node access.
    pub fn node_mut(&mut self, id: NodeId) -> &mut ClusterNode {
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

    /// Advances every node to `horizon` in parallel epochs, each epoch
    /// advancing only the nodes with work before its end; every node's
    /// clock sits at (or past) `horizon` on return. Callable
    /// repeatedly; each call resumes from the previous horizon.
    ///
    /// # Panics
    ///
    /// Panics when the cluster has no nodes.
    pub fn run_until(&mut self, horizon: Time) {
        assert!(!self.nodes.is_empty(), "cluster has no nodes");
        if horizon <= self.cursor {
            return;
        }
        let cfg = EpochConfig {
            lookahead: self.bus.lookahead,
            workers: self.workers,
        };
        let origin = self.cursor;
        // Nodes are public between runs: re-read their wakes and
        // bus-off states once per call, never per barrier.
        self.set.refresh(&self.nodes);
        self.bus.refresh(&self.nodes);
        let bus = &mut self.bus;
        let stats = run_epochs(
            &mut self.nodes,
            &mut self.set,
            origin,
            horizon,
            &cfg,
            &mut |nodes, b| {
                bus.exchange(nodes, b);
                bus.next_barrier_proposal(nodes, b.wake_min(), b.at, origin, horizon)
            },
        );
        self.exec_stats.merge(&stats);
        self.cursor = horizon;
        self.set.catch_up(&mut self.nodes, horizon);
        self.bus.flush_run_end(&mut self.nodes);
    }

    /// Rolls every node's kernel metrics into a [`ClusterMetrics`].
    pub fn metrics(&self) -> ClusterMetrics {
        ClusterMetrics::from_nodes(
            self.nodes
                .iter()
                .map(|n| NodeMetrics {
                    name: n.name.clone(),
                    metrics: n.kernel.metrics(),
                    faults: n.stats.fault_summary(),
                    segment: None,
                    gateway: None,
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addressed_tag;
    use emeralds_core::kernel::{KernelBuilder, KernelConfig};
    use emeralds_core::script::{Action, Script};
    use emeralds_core::SchedPolicy;

    const NIC_IRQ: IrqLine = IrqLine(2);

    /// A node that periodically sends one frame to `dst` and drains
    /// everything received.
    fn make_node(
        send_period_ms: u64,
        payload: u32,
        dst: Option<NodeId>,
    ) -> (Kernel, MboxId, MboxId) {
        let cfg = KernelConfig {
            policy: SchedPolicy::RmQueue,
            ..KernelConfig::default()
        };
        let mut b = KernelBuilder::new(cfg);
        let p = b.add_process("node");
        let tx = b.add_mailbox(8);
        let rx = b.add_mailbox(8);
        b.board_mut().add_nic("can", NIC_IRQ);
        b.add_periodic_task(
            p,
            "sender",
            Duration::from_ms(send_period_ms),
            Script::periodic(vec![
                Action::Compute(Duration::from_us(100)),
                Action::SendMbox {
                    mbox: tx,
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
                Action::RecvMbox(rx),
                Action::Compute(Duration::from_us(50)),
            ]),
        );
        (b.build(), tx, rx)
    }

    fn two_node_cluster(workers: usize) -> Cluster {
        let mut c = Cluster::new(1_000_000).with_workers(workers);
        let (k0, tx0, rx0) = make_node(10, 7, Some(NodeId(1)));
        let (k1, tx1, rx1) = make_node(10, 9, Some(NodeId(0)));
        c.add_node("alpha", k0, tx0, rx0, NIC_IRQ, 10);
        c.add_node("beta", k1, tx1, rx1, NIC_IRQ, 20);
        c
    }

    #[test]
    fn two_nodes_exchange_frames() {
        let mut c = two_node_cluster(1);
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

    #[test]
    fn worker_count_is_invisible() {
        let horizon = Time::from_ms(40);
        let mut base = two_node_cluster(1);
        base.run_until(horizon);
        for workers in [2, 4] {
            let mut c = two_node_cluster(workers);
            c.run_until(horizon);
            assert_eq!(c.stats(), base.stats(), "workers={workers}");
            assert_eq!(c.metrics(), base.metrics(), "workers={workers}");
            for (a, b) in base.nodes().iter().zip(c.nodes()) {
                assert_eq!(
                    a.kernel.trace().to_jsonl(),
                    b.kernel.trace().to_jsonl(),
                    "workers={workers} node={}",
                    a.name
                );
            }
        }
    }

    #[test]
    fn broadcast_reaches_all_other_nodes() {
        let mut c = Cluster::new(2_000_000).with_workers(2);
        let (k0, tx0, rx0) = make_node(10, 42, None);
        let (k1, tx1, rx1) = make_node(1000, 1, Some(NodeId(0)));
        let (k2, tx2, rx2) = make_node(1000, 2, Some(NodeId(0)));
        c.add_node("src", k0, tx0, rx0, NIC_IRQ, 5);
        let b = c.add_node("b", k1, tx1, rx1, NIC_IRQ, 6);
        let d = c.add_node("c", k2, tx2, rx2, NIC_IRQ, 7);
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
        let (k0, tx0, rx0) = make_node(10, 1, Some(NodeId(2)));
        let (k1, tx1, rx1) = make_node(10, 2, Some(NodeId(2)));
        let (k2, tx2, rx2) = make_node(1000, 0, Some(NodeId(0)));
        c.add_node("low-id", k0, tx0, rx0, NIC_IRQ, 1);
        c.add_node("high-id", k1, tx1, rx1, NIC_IRQ, 9);
        let sink = c.add_node("sink", k2, tx2, rx2, NIC_IRQ, 50);
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
        let mut c = two_node_cluster(2);
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
        let tx = b.add_mailbox(8);
        let rx = b.add_mailbox(2);
        b.board_mut().add_nic("can", NIC_IRQ);
        b.add_periodic_task(
            p,
            "idle",
            Duration::from_ms(5),
            Script::compute_only(Duration::from_us(10)),
        );
        let sink = b.build();

        let (k0, tx0, rx0) = make_node(2, 3, Some(NodeId(1)));
        let mut c = Cluster::new(1_000_000);
        c.add_node("src", k0, tx0, rx0, NIC_IRQ, 1);
        c.add_node("sink", sink, tx, rx, NIC_IRQ, 2);
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
        let mut c = two_node_cluster(1);
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
        // pin the lookahead to a divisor of the split horizon.
        let mut split = two_node_cluster(1);
        split.set_lookahead(Duration::from_ms(1));
        split.run_until(Time::from_ms(20));
        split.run_until(Time::from_ms(40));
        let mut whole = two_node_cluster(1);
        whole.set_lookahead(Duration::from_ms(1));
        whole.run_until(Time::from_ms(40));
        assert_eq!(split.stats(), whole.stats());
        assert_eq!(split.metrics(), whole.metrics());
    }

    // --- Active-set engine contract ---

    /// A board with nothing but an interrupt-driven NIC driver: after
    /// its boot dispatch parks the driver on the NIC line it has no
    /// timer at all, so the engine skips it until a frame lands. The
    /// mailbox push wakes nobody, so the interrupt is logged one
    /// mailbox copy after the instant the frame is applied.
    fn listener() -> (Kernel, MboxId, MboxId) {
        let mut b = KernelBuilder::new(KernelConfig {
            policy: SchedPolicy::RmQueue,
            ..KernelConfig::default()
        });
        let p = b.add_process("listener");
        let tx = b.add_mailbox(4);
        let rx = b.add_mailbox(4);
        b.board_mut().add_nic("can", NIC_IRQ);
        b.add_driver_task(
            p,
            "rx-driver",
            Duration::from_ms(1),
            Script::looping(vec![
                Action::WaitIrq(NIC_IRQ),
                Action::RecvMbox(rx),
                Action::Compute(Duration::from_us(30)),
            ]),
        );
        (b.build(), tx, rx)
    }

    /// A board that sends one frame (`payload` to `dst`) shortly after
    /// `at`, and nothing else for a second.
    fn one_shot_sender(
        at: Duration,
        dst: Option<NodeId>,
        payload: u32,
    ) -> (Kernel, MboxId, MboxId) {
        let mut b = KernelBuilder::new(KernelConfig {
            policy: SchedPolicy::RmQueue,
            ..KernelConfig::default()
        });
        let p = b.add_process("sender");
        let tx = b.add_mailbox(4);
        let rx = b.add_mailbox(4);
        b.board_mut().add_nic("can", NIC_IRQ);
        b.add_periodic_task_phased(
            p,
            "once",
            Duration::from_ms(1000),
            Duration::from_ms(1000),
            at,
            Script::periodic(vec![
                Action::Compute(Duration::from_us(100)),
                Action::SendMbox {
                    mbox: tx,
                    bytes: 8,
                    tag: addressed_tag(dst, payload),
                },
            ]),
        );
        (b.build(), tx, rx)
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
        for workers in [1, 2, 4] {
            let mut c = Cluster::new(1_000_000).with_workers(workers);
            c.set_adaptive(false); // a barrier at every grid point
            let (k0, tx0, rx0) = one_shot_sender(Duration::from_ms(20), Some(NodeId(1)), 5);
            let (k1, tx1, rx1) = listener();
            let s = c.add_node("sender", k0, tx0, rx0, NIC_IRQ, 1);
            let r = c.add_node("idle", k1, tx1, rx1, NIC_IRQ, 2);
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
            assert_eq!(irq_instants(rx), vec![staged + copy], "workers={workers}");
            assert_eq!(rx.tcb(emeralds_sim::ThreadId(0)).last_read, 5);
            // The receiver sat those barriers out.
            assert!(
                c.node_advances() + 100 <= 2 * c.exec_stats().barriers,
                "advances {} over {} barriers",
                c.node_advances(),
                c.exec_stats().barriers
            );
        }
    }

    #[test]
    fn broadcast_reaches_lagging_listeners() {
        let run = |workers: usize| {
            let mut c = Cluster::new(1_000_000).with_workers(workers);
            let (k, tx, rx) = one_shot_sender(Duration::from_ms(15), None, 42);
            c.add_node("caster", k, tx, rx, NIC_IRQ, 1);
            for i in 0..4u32 {
                let (k, tx, rx) = listener();
                c.add_node(format!("l{i}"), k, tx, rx, NIC_IRQ, 2 + i);
            }
            c.run_until(Time::from_ms(25));
            c
        };
        let base = run(1);
        let first = irq_instants(&base.nodes()[1].kernel);
        assert_eq!(first.len(), 1);
        for n in &base.nodes()[1..] {
            assert_eq!(irq_instants(&n.kernel), first, "{}", n.name);
            assert_eq!(n.kernel.tcb(emeralds_sim::ThreadId(0)).last_read, 42);
        }
        let s = base.stats();
        assert_eq!((s.frames_sent, s.frames_delivered), (1, 4));
        assert_eq!((s.bcast_resolved, s.bcast_fanout), (1, 4));
        for workers in [2, 4] {
            let c = run(workers);
            assert_eq!(c.stats(), base.stats(), "workers={workers}");
            assert_eq!(c.metrics(), base.metrics(), "workers={workers}");
            assert_eq!(c.node_advances(), base.node_advances());
        }
    }

    /// A board with one sparse periodic task and its NIC driver.
    fn sparse_node(period: Duration) -> (Kernel, MboxId, MboxId) {
        let mut b = KernelBuilder::new(KernelConfig {
            policy: SchedPolicy::RmQueue,
            ..KernelConfig::default()
        });
        let p = b.add_process("sparse");
        let tx = b.add_mailbox(4);
        let rx = b.add_mailbox(4);
        b.board_mut().add_nic("can", NIC_IRQ);
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
                Action::RecvMbox(rx),
                Action::Compute(Duration::from_us(30)),
            ]),
        );
        (b.build(), tx, rx)
    }

    #[test]
    fn fail_stop_window_opens_on_an_idle_node() {
        // The window opens at 10 ms, between the node's releases at 7
        // and 14 ms, while the engine is skipping it.
        let window = (Time::from_ms(10), Duration::from_ms(5));
        let plan = FaultPlan::new(3).fail_stop(NodeId(0), window.0, window.1);
        // Reference: the same board advanced at every grid point
        // through its gate, as an engine without skipping would.
        let (mut reference, ..) = sparse_node(Duration::from_ms(7));
        let mut gate = FailStopGate::new(&[(window.0, window.0 + window.1)]);
        for workers in [1, 2, 4] {
            let mut c = Cluster::new(1_000_000).with_workers(workers);
            let (k, tx, rx) = sparse_node(Duration::from_ms(7));
            c.add_node("victim", k, tx, rx, NIC_IRQ, 1);
            c.set_fault_plan(&plan);
            // Stop inside the outage: the catch-up applies the stall.
            c.run_until(Time::from_ms(12));
            assert_eq!(
                c.nodes()[0].kernel.now(),
                Time::from_ms(15),
                "workers={workers}"
            );
            c.run_until(Time::from_ms(30));
            assert!(
                c.node_advances() < c.exec_stats().barriers,
                "the victim was skipped"
            );
            if workers == 1 {
                let l = c.lookahead();
                let mut t = Time::ZERO;
                while t < Time::from_ms(30) {
                    t = Time::from_ms(30).min(t + l);
                    gate.drive(&mut reference, t);
                }
            }
            let victim = &c.nodes()[0].kernel;
            assert_eq!(victim.metrics(), reference.metrics(), "workers={workers}");
            assert_eq!(victim.trace().to_jsonl(), reference.trace().to_jsonl());
        }
    }

    #[test]
    fn every_clock_sits_at_the_horizon_with_balanced_time() {
        for workers in [1, 2, 4] {
            let mut c = Cluster::new(1_000_000).with_workers(workers);
            let (k, tx, rx) = make_node(3, 1, Some(NodeId(1)));
            c.add_node("busy", k, tx, rx, NIC_IRQ, 1);
            let (k, tx, rx) = sparse_node(Duration::from_ms(9));
            c.add_node("sparse", k, tx, rx, NIC_IRQ, 2);
            let (k, tx, rx) = listener();
            c.add_node("idle", k, tx, rx, NIC_IRQ, 3);
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
                        "{} at {ms} ms, workers={workers}",
                        n.name
                    );
                }
            }
        }
    }
}
