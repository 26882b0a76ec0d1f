//! Synchronization objects: semaphores and condition variables.
//!
//! State lives here; the blocking/unblocking/priority-inheritance
//! *protocol* is orchestrated by [`crate::kernel::Kernel`], which owns
//! the scheduler and the TCB table.

pub mod condvar;
pub mod policy;
pub mod sem;

pub use condvar::CondVar;
pub use policy::SrpStats;
pub use sem::{SemScheme, Semaphore};
