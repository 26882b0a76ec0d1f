//! Pluggable locking policies.
//!
//! The kernel's semaphore system calls share one syscall envelope
//! (entry charge, trace record, semaphore-logic charge) and one exit
//! tail; everything in between — who gets the lock, who blocks, and
//! what happens to priorities — is a *policy*. Two rivals are
//! implemented:
//!
//! - [`PiPolicy`]: the paper's §6.2/§6.3 priority-inheritance
//!   semaphores with early inheritance and the pre-lock queue. This is
//!   the exact machinery the kernel always had, moved behind the
//!   trait; its virtual-time behaviour is bit-identical to the
//!   pre-refactor kernel.
//! - [`SrpPolicy`]: the Stack Resource Policy (Baker '91) as the
//!   classic alternative EMERALDS argues against implicitly: resource
//!   ceilings are computed *offline* from the task/resource graph
//!   (`emeralds_sched::srp_ceilings`), the kernel keeps a system
//!   ceiling stack, and task wake-ups are gated by a preemption-level
//!   admission test — so a task only starts when every lock it may
//!   touch is free, and `acquire_sem()` never blocks.
//!
//! The policy is selected at build time by
//! [`crate::kernel::KernelConfig::sem_scheme`]: `Standard` and
//! `Emeralds` run [`PiPolicy`], `Srp` runs [`SrpPolicy`]. Infeasible
//! resource graphs under SRP are rejected with a typed
//! [`crate::kernel::ConfigError`] before a kernel exists.

use emeralds_sim::{SemId, ThreadId};

use crate::kernel::Kernel;
use crate::sync::SemScheme;

mod pi;
mod srp;

pub use pi::PiPolicy;
pub use srp::{SrpPolicy, SrpStats};

/// The policy-specific body of the semaphore system calls.
///
/// All methods run *inside* the shared syscall envelope: by the time a
/// policy sees an acquire or release, `syscall_entry` and the
/// semaphore-logic charge have been paid and the `Syscall` trace event
/// recorded. `release` returns to a shared tail (pc advance, exit
/// charge, reschedule-if-woke); `acquire` owns its branches end to end
/// because blocking branches must not advance the pc.
pub trait LockPolicy: std::fmt::Debug + Send {
    /// Body of `acquire_sem()` after the envelope.
    fn acquire(&mut self, k: &mut Kernel, tid: ThreadId, s: SemId);

    /// Body of `release_sem()` between the envelope and the shared
    /// tail. Returns true when some thread became ready.
    fn release(&mut self, k: &mut Kernel, tid: ThreadId, s: SemId) -> bool;

    /// Decision point when a blocking call completes: wake the thread,
    /// or keep it parked per policy (early inheritance under PI,
    /// ceiling admission under SRP).
    fn unblock_with_hint(&mut self, k: &mut Kernel, tid: ThreadId, hint: Option<SemId>);

    /// SRP runtime statistics; `None` for policies without a ceiling
    /// stack.
    fn srp_stats(&self) -> Option<SrpStats> {
        None
    }
}

/// Constructs the boxed policy for a [`SemScheme`]. `ceilings` is the
/// per-semaphore resource ceiling table (SRP only; PI ignores it).
pub(crate) fn make_policy(scheme: SemScheme, ceilings: Vec<Option<u32>>) -> Box<dyn LockPolicy> {
    match scheme {
        SemScheme::Standard | SemScheme::Emeralds => Box::new(PiPolicy),
        SemScheme::Srp => Box::new(SrpPolicy::new(ceilings)),
    }
}
