//! Intra-node IPC: mailboxes, state messages, shared memory.
//!
//! §4: "IPC is important in embedded systems for intra-node,
//! inter-task communication and this is what we address in EMERALDS."
//! Figure 1 lists message-passing, mailboxes, and shared memory; the
//! supplied paper text truncates before §7, so the state-message
//! design is reconstructed from the authors' archival description of
//! the same system (see DESIGN.md).

pub mod mailbox;
pub mod statemsg;

pub use mailbox::{Mailbox, Message};
pub use statemsg::{required_depth, StateMsgVar, EXTERNAL_WRITER, MIN_DEPTH};
