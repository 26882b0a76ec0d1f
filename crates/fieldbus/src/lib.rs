//! A simulated low-speed fieldbus connecting EMERALDS nodes.
//!
//! §2: the paper's distributed targets are "5–10 nodes interconnected
//! by a low-speed (1–2 Mbit/s) fieldbus network (such as automotive
//! and avionics control systems)", and §3 notes that threads exchange
//! short messages "by talking directly to network device drivers" —
//! EMERALDS has no in-kernel protocol stack. This crate provides that
//! substrate for the distributed examples:
//!
//! - a CAN-style shared bus with *priority arbitration* (lowest frame
//!   id wins) and a configurable bit rate;
//! - per-node transmit/receive mailboxes: an application task sends by
//!   posting to the node's TX mailbox (the "network device driver"
//!   interface); the bus drains it, arbitrates, and delivers into the
//!   destination's RX mailbox, raising the NIC interrupt. The board
//!   declares this wiring once (`KernelBuilder::add_nic`), and
//!   `add_node` reads it;
//! - deterministic simulation of the node kernels under conservative
//!   lookahead: nodes advance independently between epoch barriers,
//!   where the bus exchanges frames.
//!
//! Inter-node protocol design is out of scope here, exactly as it is
//! in the paper ("inter-node networking issues ... are not covered in
//! this paper").
//!
//! [`Cluster`] is the one single-bus executive: it runs one bus on the
//! calling thread. A [`Topology`] holds one `Cluster` per segment and
//! joins them by store-and-forward gateways; it may advance its
//! segments in parallel across host threads, and gives bit-for-bit
//! identical results for any worker count. Every bus decodes one
//! address format, [`addressed_tag`]'s 16-bit destination field.

pub mod cluster;
pub mod errors;
pub mod topology;

pub use cluster::{Cluster, ClusterNode};
pub use errors::{CanErrorState, FailStopGate, NodeStats};
pub use topology::{
    ConservationReport, GatewayConfig, GatewayId, GatewayPolicy, GatewayStats, SegmentId,
    TopoEvent, TopoEventKind, Topology, TopologyConfigError,
};

use emeralds_core::ipc::Message;
use emeralds_sim::{Duration, NodeId, StateId, Time};

/// Payload of a networked state-message frame (§7): the sampled value
/// plus the *original* writer's production stamp, which travels with
/// the frame so the consumer's data age stays end-to-end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StatePayload {
    /// Index of the [`StateLink`] this frame serves.
    pub link: u32,
    pub value: u32,
    pub stamp: Time,
}

/// One networked state-message route: the writer's variable on `src`
/// is sampled by the NIC at harvest time and shipped to the replica
/// variable on `dst`, where it lands by DMA — no mailbox, no
/// interrupt; the consumer polls at its own rate (§7 state semantics).
#[derive(Clone, Copy, Debug)]
pub struct StateLink {
    pub src: NodeId,
    /// The writer-side variable sampled on `src`.
    pub src_var: StateId,
    pub dst: NodeId,
    /// The replica variable written on `dst`.
    pub dst_var: StateId,
    /// Arbitration id for this link's frames.
    pub prio: u32,
    /// Frame payload size in bytes (clamped to classic CAN's 1–8).
    pub bytes: usize,
    /// Writer sequence number of the last sample shipped (0 = never).
    last_seq: u64,
}

impl StateLink {
    fn new(
        src: NodeId,
        src_var: StateId,
        dst: NodeId,
        dst_var: StateId,
        prio: u32,
        bytes: usize,
    ) -> StateLink {
        StateLink {
            src,
            src_var,
            dst,
            dst_var,
            prio,
            bytes,
            last_seq: 0,
        }
    }
}

/// A frame on the bus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Arbitration id: lower wins (CAN semantics).
    pub prio: u32,
    pub src: NodeId,
    /// `None` broadcasts to every other node.
    pub dst: Option<NodeId>,
    /// Payload length in bytes (clamped to classic CAN's 1–8).
    pub bytes: usize,
    /// Abstract payload word (16 bits travel; see [`addressed_tag`]).
    pub tag: u32,
    /// Bus time at which the frame was queued (for latency stats).
    pub queued_at: Time,
    /// A babbling-idiot injection: always corrupts on grant, never
    /// retransmitted, never delivered.
    pub garbage: bool,
    /// A networked state-message sample; `None` for ordinary mailbox
    /// traffic. While un-granted at the NIC, a newer sample
    /// *overwrites* this payload in place instead of queueing behind
    /// it (§7: the bus carries the freshest value, never history).
    pub state: Option<StatePayload>,
    /// Segment the frame originated on, in a bridged topology: stamped
    /// at the frame's *first* gateway capture and preserved across
    /// hops (unlike `src`, which is rewritten to the far-side bridge
    /// NIC at each injection), so multi-hop gateway drops charge the
    /// source segment. `None` on a [`Cluster`] and for frames
    /// that never left their home segment.
    pub origin_seg: Option<u32>,
}

/// Bus-level statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BusStats {
    pub frames_sent: u64,
    pub frames_delivered: u64,
    pub frames_dropped: u64,
    /// Frames accepted by a NIC but neither delivered nor dropped when
    /// the last run ended (still queued or on the wire), so
    /// `sent == delivered + dropped + in_flight` holds *exactly* at
    /// any horizon. Refreshed at the end of each run.
    pub frames_in_flight: u64,
    /// Networked state-message samples that replaced a pending
    /// un-granted frame at the NIC instead of queueing a new one
    /// (§7 overwrite-not-queue; not counted in `frames_sent`).
    pub state_overwrites: u64,
    /// Total time the bus carried bits.
    pub busy: Duration,
    /// Sum of queue→delivery latencies (divide by `frames_delivered`).
    pub total_latency: Duration,
    // --- Fault signalling (all zero on a clean run) ---
    /// Corrupted grants that consumed an error frame on the wire.
    pub error_frames: u64,
    /// Frames automatically requeued after a flagged transmission.
    pub retransmissions: u64,
    /// Babbling-idiot garbage frames injected (not in `frames_sent`).
    pub babble_frames: u64,
    /// Times any node entered bus-off.
    pub bus_off_events: u64,
    /// Times any node completed bus-off recovery.
    pub bus_off_recoveries: u64,
    /// Of `frames_dropped`: losses because a node was offline
    /// (fail-stop outage or bus-off) at either end.
    pub frames_lost_offline: u64,
    /// Of `frames_dropped`: losses at a store-and-forward gateway in a
    /// bridged topology (forwarding buffer overflow, no route to the
    /// destination segment, or buffered frames lost to a gateway
    /// fail-stop). Charged to the segment the frame *originated* on,
    /// so the cross-segment conservation invariant stays exact (see
    /// `topology`).
    pub frames_lost_gateway: u64,
    // --- Broadcast fan-out bookkeeping (exact conservation) ---
    /// Broadcasts whose fan-out has been resolved: the frame reached
    /// the end of the wire and expanded to its listener set. Each such
    /// frame was counted once in `frames_sent` but produces
    /// `listeners` delivery/drop outcomes, so the conservation ledger
    /// balances as `sent + bcast_fanout ==
    /// delivered + dropped + in_flight + bcast_resolved`.
    pub bcast_resolved: u64,
    /// Total per-listener outcomes those resolved broadcasts expanded
    /// to (the sum of each broadcast's listener count at resolve time;
    /// a solo node's broadcast contributes zero).
    pub bcast_fanout: u64,
}

impl BusStats {
    /// Mean frame latency, if any frame was delivered.
    pub fn mean_latency(&self) -> Option<Duration> {
        if self.frames_delivered == 0 {
            None
        } else {
            Some(self.total_latency / self.frames_delivered)
        }
    }

    /// Accumulates another bus's statistics (the per-segment rollup of
    /// a bridged topology). Every field is an order-independent sum.
    pub fn merge(&mut self, other: &BusStats) {
        self.frames_sent += other.frames_sent;
        self.frames_delivered += other.frames_delivered;
        self.frames_dropped += other.frames_dropped;
        self.frames_in_flight += other.frames_in_flight;
        self.state_overwrites += other.state_overwrites;
        self.busy += other.busy;
        self.total_latency += other.total_latency;
        self.error_frames += other.error_frames;
        self.retransmissions += other.retransmissions;
        self.babble_frames += other.babble_frames;
        self.bus_off_events += other.bus_off_events;
        self.bus_off_recoveries += other.bus_off_recoveries;
        self.frames_lost_offline += other.frames_lost_offline;
        self.frames_lost_gateway += other.frames_lost_gateway;
        self.bcast_resolved += other.bcast_resolved;
        self.bcast_fanout += other.bcast_fanout;
    }
}

/// Builds a frame from an application message tag in the
/// [`addressed_tag`] format.
pub(crate) fn frame_of(src: NodeId, prio: u32, msg: Message, now: Time) -> Frame {
    let dst = msg.tag >> 16;
    Frame {
        prio,
        src,
        dst: (dst != 0xFFFF).then_some(NodeId(dst)),
        bytes: msg.bytes.clamp(1, 8),
        tag: msg.tag & 0xFFFF,
        queued_at: now,
        garbage: false,
        state: None,
        origin_seg: None,
    }
}

/// A babbling-idiot injection: top arbitration priority (0 beats every
/// legitimate id), max size, always corrupts on grant.
pub(crate) fn garbage_frame(src: NodeId, now: Time) -> Frame {
    Frame {
        prio: 0,
        src,
        dst: None,
        bytes: 8,
        tag: 0,
        queued_at: now,
        garbage: true,
        state: None,
        origin_seg: None,
    }
}

/// Encodes a destination + payload into a TX-mailbox message tag: the
/// high 16 bits select the destination node (0xFFFF = broadcast), the
/// low 16 bits of `payload` travel. The destination is a node id on a
/// [`Cluster`] and a global id on a [`Topology`], whose broadcasts stay
/// on the sender's segment.
///
/// # Panics
///
/// Panics when `dst` does not fit the 16-bit field (id 0xFFFF or more).
pub fn addressed_tag(dst: Option<NodeId>, payload: u32) -> u32 {
    let d = dst.map_or(0xFFFF, |n| n.0);
    assert!(
        d < 0xFFFF || dst.is_none(),
        "node id {d} does not fit the 16-bit destination field"
    );
    (d << 16) | (payload & 0xFFFF)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addressed_tag_round_trips() {
        assert_eq!(addressed_tag(Some(NodeId(3)), 0x1234), 0x0003_1234);
        assert_eq!(addressed_tag(None, 7) >> 16, 0xFFFF);
    }

    #[test]
    #[should_panic(expected = "does not fit the 16-bit destination field")]
    fn node_ids_past_the_address_field_are_rejected() {
        addressed_tag(Some(NodeId(0xFFFF)), 0);
    }

    #[test]
    fn oversized_payloads_clamp_to_can_frames() {
        let frame = frame_of(
            NodeId(0),
            1,
            Message {
                bytes: 64,
                tag: addressed_tag(Some(NodeId(1)), 9),
                sender: emeralds_sim::ThreadId(0),
            },
            Time::ZERO,
        );
        assert_eq!(frame.bytes, 8);
        assert_eq!(frame.dst, Some(NodeId(1)));
        assert_eq!(frame.tag, 9);
    }
}
