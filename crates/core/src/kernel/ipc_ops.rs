//! IPC, event, interrupt, and timer operations.

use emeralds_hal::AccessKind;
use emeralds_sim::{
    Duration, EventId, IrqLine, MboxId, OverheadKind, StateId, ThreadId, Time, TraceEvent,
};

use crate::ipc::Message;
use crate::kernel::{IrqAction, Kernel, TimerEvent};
use crate::script::Action;
use crate::tcb::BlockReason;

impl Kernel {
    /// `mbox_send()`: copy into the kernel mailbox; block when full.
    pub(crate) fn sys_mbox_send(&mut self, tid: ThreadId, mb: MboxId, bytes: usize, tag: u32) {
        self.charge(OverheadKind::Syscall, self.cfg.cost.syscall_entry);
        self.record(TraceEvent::Syscall {
            tid,
            name: "mbox_send",
        });
        // Direct hand-off to a blocked receiver: one copy in, one out.
        if let Some(r) = self.take_receiver(mb) {
            self.charge(OverheadKind::IpcCopy, self.cfg.cost.mbox_copy(bytes));
            self.charge(OverheadKind::IpcCopy, self.cfg.cost.mbox_copy(bytes));
            self.record(TraceEvent::MboxSend {
                tid,
                mbox: mb,
                bytes,
            });
            self.record(TraceEvent::MboxRecv {
                tid: r,
                mbox: mb,
                bytes,
            });
            self.mboxes[mb.index()].sent += 1;
            self.mboxes[mb.index()].received += 1;
            self.tcbs.get_mut(r).last_read = tag;
            self.tcbs.get_mut(tid).pc += 1;
            self.charge(OverheadKind::Syscall, self.cfg.cost.syscall_exit);
            // The receiver's blocking call completes (hint-aware).
            self.complete_blocking_call(r);
            return;
        }
        if self.mboxes[mb.index()].has_space() {
            self.charge(OverheadKind::IpcCopy, self.cfg.cost.mbox_copy(bytes));
            self.mboxes[mb.index()].push(Message {
                bytes,
                tag,
                sender: tid,
            });
            self.record(TraceEvent::MboxSend {
                tid,
                mbox: mb,
                bytes,
            });
            self.tcbs.get_mut(tid).pc += 1;
            self.charge(OverheadKind::Syscall, self.cfg.cost.syscall_exit);
        } else {
            // Full: park the sender at its send, which holds the
            // message until a pop admits it.
            self.tcbs
                .enqueue_by_prio(&mut self.mboxes[mb.index()].senders, tid);
            self.tcbs.get_mut(tid).in_syscall = true;
            self.block_thread(tid, BlockReason::MboxSend(mb));
            self.reschedule();
        }
    }

    /// `mbox_recv()`: copy out of the mailbox; block when empty.
    pub(crate) fn sys_mbox_recv(&mut self, tid: ThreadId, mb: MboxId) {
        self.charge(OverheadKind::Syscall, self.cfg.cost.syscall_entry);
        self.record(TraceEvent::Syscall {
            tid,
            name: "mbox_recv",
        });
        if let Some(msg) = self.mboxes[mb.index()].pop() {
            self.charge(OverheadKind::IpcCopy, self.cfg.cost.mbox_copy(msg.bytes));
            self.record(TraceEvent::MboxRecv {
                tid,
                mbox: mb,
                bytes: msg.bytes,
            });
            self.tcbs.get_mut(tid).last_read = msg.tag;
            self.tcbs.get_mut(tid).pc += 1;
            self.charge(OverheadKind::Syscall, self.cfg.cost.syscall_exit);
            self.admit_parked_sender(mb);
        } else {
            self.tcbs
                .enqueue_by_prio(&mut self.mboxes[mb.index()].receivers, tid);
            self.tcbs.get_mut(tid).in_syscall = true;
            self.block_thread(tid, BlockReason::MboxRecv(mb));
            self.reschedule();
        }
    }

    /// State-message write: a user-space copy into the shared buffer —
    /// *no* system call (§7, reconstructed).
    pub(crate) fn state_write(&mut self, tid: ThreadId, var: StateId, value: u32) {
        let v = &self.statemsgs[var.index()];
        let region = v.region;
        let size = v.size;
        let base = self.board.mpu.region(region).base;
        let proc = self.tcbs.get(tid).proc;
        // The MPU guards the shared buffer.
        if self.board.mpu.check(proc, base, AccessKind::Write).is_err() {
            self.record(TraceEvent::ProtectionFault { tid, addr: base });
            self.tcbs.get_mut(tid).pc += 1;
            return;
        }
        self.charge(OverheadKind::StateMsg, self.cfg.cost.statemsg_copy(size));
        let now = self.clock.now();
        self.statemsgs[var.index()].write(tid, value, now);
        let seq = self.statemsgs[var.index()].seq;
        self.record(TraceEvent::StateWrite { tid, var, seq });
        self.tcbs.get_mut(tid).pc += 1;
    }

    /// State-message read: a user-space copy out of the shared buffer.
    pub(crate) fn state_read(&mut self, tid: ThreadId, var: StateId) {
        let v = &self.statemsgs[var.index()];
        let region = v.region;
        let size = v.size;
        let base = self.board.mpu.region(region).base;
        let proc = self.tcbs.get(tid).proc;
        if self.board.mpu.check(proc, base, AccessKind::Read).is_err() {
            self.record(TraceEvent::ProtectionFault { tid, addr: base });
            self.tcbs.get_mut(tid).pc += 1;
            return;
        }
        self.charge(OverheadKind::StateMsg, self.cfg.cost.statemsg_copy(size));
        let now = self.clock.now();
        let (value, stamp) = self.statemsgs[var.index()].read_stamped();
        let seq = self.statemsgs[var.index()].seq;
        if seq > 0 {
            // Data age of the version acted on: read instant minus the
            // *original* writer's production stamp (end-to-end for a
            // networked replica). Unwritten variables have no age.
            let age = now.saturating_since(stamp);
            self.statemsgs[var.index()].record_age(age);
        }
        self.record(TraceEvent::StateRead { tid, var, seq });
        self.tcbs.get_mut(tid).last_read = value;
        self.tcbs.get_mut(tid).pc += 1;
    }

    /// Device-side state-message delivery (§7 networked state
    /// messages): the NIC DMAs an arriving state frame straight into
    /// the replica buffer — no mailbox, no interrupt, no syscall; the
    /// consumer polls the variable at its own rate. `stamp` is the
    /// original writer's production instant, so consumer-side data age
    /// stays end-to-end. Never fails: state semantics overwrite.
    pub fn external_state_write(&mut self, var: StateId, value: u32, stamp: emeralds_sim::Time) {
        let size = self.statemsgs[var.index()].size;
        self.charge(OverheadKind::StateMsg, self.cfg.cost.statemsg_copy(size));
        self.statemsgs[var.index()].write_external(value, stamp);
        let seq = self.statemsgs[var.index()].seq;
        self.record(TraceEvent::StateWrite {
            tid: crate::ipc::EXTERNAL_WRITER,
            var,
            seq,
        });
    }

    /// `event_signal()`: wake all waiters, or latch.
    pub(crate) fn sys_event_signal(&mut self, tid: ThreadId, e: EventId) {
        self.charge(OverheadKind::Syscall, self.cfg.cost.syscall_entry);
        self.record(TraceEvent::Syscall {
            tid,
            name: "event_signal",
        });
        self.record(TraceEvent::EventSignal { tid, event: e });
        let waiters = std::mem::take(&mut self.events[e.index()].waiters);
        if waiters.is_empty() {
            self.events[e.index()].latched = true;
        }
        self.tcbs.get_mut(tid).pc += 1;
        self.charge(OverheadKind::Syscall, self.cfg.cost.syscall_exit);
        for w in waiters {
            self.complete_blocking_call(w);
        }
    }

    /// `event_wait()`: consume a latched signal or block.
    pub(crate) fn sys_event_wait(&mut self, tid: ThreadId, e: EventId) {
        self.charge(OverheadKind::Syscall, self.cfg.cost.syscall_entry);
        self.record(TraceEvent::Syscall {
            tid,
            name: "event_wait",
        });
        if self.events[e.index()].latched {
            self.events[e.index()].latched = false;
            self.tcbs.get_mut(tid).pc += 1;
            self.charge(OverheadKind::Syscall, self.cfg.cost.syscall_exit);
        } else {
            self.events[e.index()].waiters.push(tid);
            self.tcbs.get_mut(tid).in_syscall = true;
            self.block_thread(tid, BlockReason::Event(e));
            self.reschedule();
        }
    }

    /// `wait_irq()`: block until the line fires (consumes a pending
    /// latch immediately).
    pub(crate) fn sys_wait_irq(&mut self, tid: ThreadId, line: IrqLine) {
        self.charge(OverheadKind::Syscall, self.cfg.cost.syscall_entry);
        self.record(TraceEvent::Syscall {
            tid,
            name: "wait_irq",
        });
        if self.board.intc.is_pending(line) {
            self.board.intc.ack(line);
            self.tcbs.get_mut(tid).pc += 1;
            self.charge(OverheadKind::Syscall, self.cfg.cost.syscall_exit);
        } else {
            self.irqs[line.index()].waiters.push(tid);
            self.tcbs.get_mut(tid).in_syscall = true;
            self.block_thread(tid, BlockReason::Irq(line));
            self.reschedule();
        }
    }

    /// Arms a kernel timer at `at`: pushes it, counts the arm and the
    /// heap's height after it, and charges `timer_program`. Inlined:
    /// every periodic release arms one, and the out-of-line call cost
    /// `kernel_solo` about 2 % of its simulated rate.
    #[inline]
    pub(crate) fn arm_timer(&mut self, at: Time, ev: TimerEvent) {
        self.timers.push(at, ev);
        self.timer_arms += 1;
        self.timer_heights += u64::from(self.timers.len().ilog2());
        self.charge(OverheadKind::Timer, self.cfg.cost.timer_program);
    }

    /// `sleep_for()`: one-shot timer wakeup.
    pub(crate) fn sys_sleep(&mut self, tid: ThreadId, d: Duration) {
        self.charge(OverheadKind::Syscall, self.cfg.cost.syscall_entry);
        self.record(TraceEvent::Syscall { tid, name: "sleep" });
        let wake = self.clock.now() + d;
        self.arm_timer(wake, TimerEvent::Wake(tid));
        self.tcbs.get_mut(tid).in_syscall = true;
        self.block_thread(tid, BlockReason::Sleep);
        self.reschedule();
    }

    /// Device-side mailbox harvest (e.g. a NIC draining a transmit
    /// mailbox by DMA): pops one message without a syscall envelope
    /// and admits one parked sender if the pop made room.
    pub fn external_mbox_pop(&mut self, mb: MboxId) -> Option<Message> {
        let msg = self.mboxes[mb.index()].pop()?;
        self.admit_parked_sender(mb);
        Some(msg)
    }

    /// Takes the first receiver parked on the empty mailbox `mb`.
    fn take_receiver(&mut self, mb: MboxId) -> Option<ThreadId> {
        let receivers = &mut self.mboxes[mb.index()].receivers;
        (!receivers.is_empty()).then(|| receivers.remove(0))
    }

    /// A pop made room in `mb`: queues the message of its first parked
    /// sender and completes that sender's blocking call. The message is
    /// the `SendMbox` action at the sender's pc, which only this wake
    /// moves past.
    fn admit_parked_sender(&mut self, mb: MboxId) {
        let senders = &mut self.mboxes[mb.index()].senders;
        if senders.is_empty() {
            return;
        }
        let snd = senders.remove(0);
        let t = self.tcbs.get(snd);
        let Action::SendMbox { bytes, tag, .. } = t.steps[t.pc as usize].action else {
            unreachable!("parked sender {snd} is not at a send");
        };
        self.charge(OverheadKind::IpcCopy, self.cfg.cost.mbox_copy(bytes));
        self.mboxes[mb.index()].push(Message {
            bytes,
            tag,
            sender: snd,
        });
        self.record(TraceEvent::MboxSend {
            tid: snd,
            mbox: mb,
            bytes,
        });
        self.complete_blocking_call(snd);
    }

    /// Device-side mailbox delivery (e.g. a NIC posting a received
    /// frame): hands the message to a blocked receiver or queues it.
    /// Returns false (and drops the message) when the mailbox is full.
    pub fn external_mbox_push(&mut self, mb: MboxId, msg: Message) -> bool {
        if let Some(r) = self.take_receiver(mb) {
            self.charge(OverheadKind::IpcCopy, self.cfg.cost.mbox_copy(msg.bytes));
            self.record(TraceEvent::MboxRecv {
                tid: r,
                mbox: mb,
                bytes: msg.bytes,
            });
            self.mboxes[mb.index()].sent += 1;
            self.mboxes[mb.index()].received += 1;
            self.tcbs.get_mut(r).last_read = msg.tag;
            self.complete_blocking_call(r);
            true
        } else if self.mboxes[mb.index()].has_space() {
            self.charge(OverheadKind::IpcCopy, self.cfg.cost.mbox_copy(msg.bytes));
            self.mboxes[mb.index()].push(msg);
            true
        } else {
            false
        }
    }

    /// Externally raises an interrupt line (fieldbus frame arrival);
    /// serviced immediately, as the controller would preempt.
    pub fn raise_external_irq(&mut self, line: IrqLine) {
        self.board.intc.raise(line);
        self.record(TraceEvent::IrqRaised { line });
        self.service_pending_irqs();
    }

    /// First-level handling of one acknowledged interrupt line.
    pub(crate) fn handle_irq_line(&mut self, line: IrqLine) {
        // The IRQ table ends at the highest line the board wires; a
        // line past it has no waiter and no action.
        let Some(slot) = self.irqs.get_mut(line.index()) else {
            return;
        };
        let action = slot.action;
        // Wake user-level driver threads parked on the line. The list
        // goes back afterwards, emptied, so a driver that parks again
        // reuses its capacity instead of allocating per interrupt.
        let mut waiters = std::mem::take(&mut slot.waiters);
        for &w in &waiters {
            self.complete_blocking_call(w);
        }
        waiters.clear();
        let slot = &mut self.irqs[line.index()];
        let parked_meanwhile = std::mem::replace(&mut slot.waiters, waiters);
        slot.waiters.extend(parked_meanwhile);
        match action {
            IrqAction::None => {}
            IrqAction::ReleaseSem(s) => {
                // V from interrupt context. The build admits only
                // counting semaphores here, so there is no holder to
                // hand over; a permit nobody waits for saturates.
                if let Some(w) = self.sems[s.index()].pop_waiter() {
                    self.grant_sem(s, w);
                    self.make_ready(w);
                    self.reschedule();
                } else {
                    let sem = &mut self.sems[s.index()];
                    if sem.count < sem.max_count {
                        sem.count += 1;
                    }
                }
            }
            IrqAction::SignalEvent(e) => {
                self.record(TraceEvent::IrqEventSignal { line, event: e });
                let waiters = std::mem::take(&mut self.events[e.index()].waiters);
                if waiters.is_empty() {
                    self.events[e.index()].latched = true;
                }
                for w in waiters {
                    self.complete_blocking_call(w);
                }
            }
        }
    }
}
