//! The kernel's two locking protocols.
//!
//! The semaphore system calls share one envelope (entry charge, trace
//! record, semaphore-logic charge) and one release tail in
//! `kernel/sem_ops.rs`; everything in between — who gets the lock, who
//! blocks, and what happens to priorities — is the protocol.
//! [`KernelConfig::sem_scheme`](crate::kernel::KernelConfig::sem_scheme)
//! picks it, and the kernel branches on it at three points, the way it
//! dispatches its scheduler enum:
//!
//! 1. the body of `acquire_sem()`;
//! 2. the body of `release_sem()`;
//! 3. the wake decision at the end of a completing blocking call.
//!
//! `Standard` and `Emeralds` run the paper's §6.2/§6.3
//! priority-inheritance protocol (`pi.rs`): early inheritance, the
//! O(1) placeholder swap and the pre-lock queue, with `Standard` as
//! the textbook ablation. Its state lives on the semaphores.
//!
//! `Srp` runs the Stack Resource Policy (Baker '91, `srp.rs`), the
//! classic alternative EMERALDS argues against implicitly: resource
//! ceilings are computed *offline* from the task/resource graph
//! (`emeralds_sched::srp_ceilings`), the kernel keeps a system ceiling
//! stack, and task wake-ups are gated by a preemption-level admission
//! test — so a task only starts when every lock it may touch is free,
//! and `acquire_sem()` never blocks. Only `Srp` kernels hold the
//! ceilings, the stack and the deferred wakes. Infeasible resource
//! graphs are rejected with a typed [`crate::kernel::ConfigError`]
//! before a kernel exists.
//!
//! Both protocols hand a released permit to a waiter through one
//! function, `Kernel::grant_sem`, which an interrupt's
//! [`crate::kernel::IrqAction::ReleaseSem`] uses too.
//!
//! The six protocol bodies (`pi_acquire`, `pi_release`, `pi_wake` and
//! their `srp_*` rivals) are `#[inline(never)]`. Inlined into the
//! dispatch points, they grew `complete_blocking_call` from 0.4 KB to
//! 2 KB of x86-64 code and the execution loop by 2 KB, and the
//! benchmark's `sc_quiet` workload, whose nodes wake often and do
//! little, ran about 5 % slower (six alternating runs on a 2-vCPU KVM
//! guest).

mod pi;
mod srp;

pub(crate) use srp::SrpState;
pub use srp::SrpStats;
