//! Kernel mailboxes: copying, blocking message-passing.
//!
//! The conventional IPC baseline: `send` copies the message into a
//! kernel buffer (a system call), `receive` copies it out (another
//! system call); senders block on a full mailbox and receivers on an
//! empty one. Every transfer costs two syscall envelopes and two
//! copies — exactly the overhead the state-message design removes.

use std::collections::VecDeque;

use emeralds_sim::{MboxId, ThreadId};

/// One queued message: an abstract payload (tag word) plus its size in
/// bytes, which drives the copy-cost model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Message {
    pub bytes: usize,
    pub tag: u32,
    pub sender: ThreadId,
}

/// A bounded kernel mailbox.
#[derive(Clone, Debug)]
pub struct Mailbox {
    pub id: MboxId,
    pub capacity: usize,
    queue: VecDeque<Message>,
    /// Senders blocked on a full mailbox (priority-ordered at
    /// insertion).
    pub senders: Vec<ThreadId>,
    /// Receivers blocked on an empty mailbox.
    pub receivers: Vec<ThreadId>,
    /// Lifetime statistics.
    pub sent: u64,
    pub received: u64,
}

impl Mailbox {
    /// Creates a mailbox holding up to `capacity` messages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(id: MboxId, capacity: usize) -> Mailbox {
        assert!(capacity > 0, "mailbox needs capacity");
        Mailbox {
            id,
            capacity,
            queue: VecDeque::new(),
            senders: Vec::new(),
            receivers: Vec::new(),
            sent: 0,
            received: 0,
        }
    }

    /// True if a message can be enqueued.
    pub fn has_space(&self) -> bool {
        self.queue.len() < self.capacity
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if the mailbox is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Enqueues a message.
    ///
    /// # Panics
    ///
    /// Panics if full (the kernel checks `has_space` first).
    pub fn push(&mut self, msg: Message) {
        assert!(self.has_space(), "{}: push into full mailbox", self.id);
        self.queue.push_back(msg);
        self.sent += 1;
    }

    /// Dequeues the oldest message.
    pub fn pop(&mut self) -> Option<Message> {
        let m = self.queue.pop_front();
        if m.is_some() {
            self.received += 1;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(tag: u32) -> Message {
        Message {
            bytes: 16,
            tag,
            sender: ThreadId(0),
        }
    }

    #[test]
    fn fifo_order_and_counters() {
        let mut mb = Mailbox::new(MboxId(0), 2);
        mb.push(msg(1));
        mb.push(msg(2));
        assert!(!mb.has_space());
        assert_eq!(mb.pop().unwrap().tag, 1);
        assert_eq!(mb.pop().unwrap().tag, 2);
        assert_eq!(mb.pop(), None);
        assert_eq!(mb.sent, 2);
        assert_eq!(mb.received, 2);
    }

    #[test]
    #[should_panic(expected = "full mailbox")]
    fn push_into_full_panics() {
        let mut mb = Mailbox::new(MboxId(0), 1);
        mb.push(msg(1));
        mb.push(msg(2));
    }

    #[test]
    fn emptiness_queries() {
        let mut mb = Mailbox::new(MboxId(1), 3);
        assert!(mb.is_empty() && mb.has_space());
        mb.push(msg(9));
        assert!(!mb.is_empty());
        assert_eq!(mb.len(), 1);
    }
}
