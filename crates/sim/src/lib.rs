//! Discrete-event simulation substrate for the EMERALDS reproduction.
//!
//! The original EMERALDS kernel ran on 15–25 MHz Motorola 68k-class
//! microcontrollers and its evaluation measured kernel-path overheads in
//! microseconds with a 5 MHz on-chip timer. This crate provides the
//! virtual-time machinery that stands in for that hardware:
//!
//! - [`Time`] and [`Duration`]: nanosecond-resolution virtual time.
//! - [`EventQueue`]: a deterministic, stable (FIFO within an instant)
//!   pending-event set.
//! - [`Trace`]: an execution trace recorder capturing context switches,
//!   job releases/completions, deadline misses, semaphore traffic, and
//!   the other events the paper's figures draw.
//! - [`Accounting`]: per-category overhead attribution, used to report
//!   the run-time-overhead numbers of Tables 1 and 3 and Figures 3–5
//!   and 11.
//! - Shared id vocabulary ([`ThreadId`], [`SemId`], …) used by the rest
//!   of the workspace.
//! - [`run_epochs`]: a deterministic conservative-lookahead engine that
//!   advances many independent nodes on the calling thread, exchanging
//!   state only at epoch barriers and advancing at each barrier only
//!   the nodes with work (the single-bus executive's generic half).
//! - [`run_two_level`]: a fixed-cadence outer loop over groups of
//!   nodes (the segments of a bridged topology), each running its own
//!   [`run_epochs`] loop. Its groups may advance in parallel on
//!   scoped host threads ([`std::thread::scope`]) between outer
//!   barriers; this is the only place the workspace runs threads.
//!
//! Everything here is deterministic: no global state, and the RNG
//! helpers require explicit seeds. The only host-clock reads are the
//! [`EpochStats`] timers of the epoch engines, which report where the
//! host time of a run went and never feed back into virtual time. A
//! single bus times one exchange in 16, so its exchange time is an
//! estimate ([`EpochStats::serial_ns`]).

pub mod account;
pub mod cluster;
#[cfg(feature = "alloc-count")]
pub mod count_alloc;
pub mod event;
pub mod hierarchy;
pub mod histogram;
pub mod ids;
pub mod rng;
pub mod time;
pub mod trace;

pub use account::{Accounting, OverheadKind};
pub use cluster::{run_epochs, ActiveSet, Barrier, EpochNode, EpochStats};
#[cfg(feature = "alloc-count")]
pub use count_alloc::CountingAlloc;
pub use event::EventQueue;
pub use hierarchy::{run_two_level, EpochGroup, TwoLevelStats};
pub use histogram::DurationHistogram;
pub use ids::{
    CvId, DevId, EventId, IrqLine, MboxId, NodeId, ProcId, RegionId, SemId, StateId, ThreadId,
};
pub use rng::SimRng;
pub use time::{Duration, Time};
pub use trace::{SyscallKind, Trace, TraceEvent};
