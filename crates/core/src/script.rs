//! Task bodies as action scripts.
//!
//! The original EMERALDS applications are C++ tasks making kernel
//! calls. The reproduction abstracts a task body to a *script*: a
//! sequence of [`Action`]s, where pure computation is a time span and
//! every kernel interaction is explicit. The kernel executes scripts
//! against the real scheduler/semaphore/IPC implementations, so every
//! kernel code path the paper discusses is exercised; only the
//! application arithmetic between calls is abstracted to its duration
//! (`c_i`, exactly the quantity the paper's analysis uses).
//!
//! Scripts are also what the §6.2.1 code parser consumes: it walks a
//! script, finds each blocking call, and annotates it with the
//! semaphore the task will acquire next (see [`crate::parser`]).

use emeralds_sim::{CvId, DevId, Duration, EventId, IrqLine, MboxId, SemId, StateId};

/// One step of a task body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Consume CPU for the given span (application work).
    Compute(Duration),
    /// Lock a semaphore (blocking if held). With the EMERALDS scheme
    /// the preceding blocking call carries this semaphore as a hint.
    AcquireSem(SemId),
    /// Unlock a semaphore.
    ReleaseSem(SemId),
    /// Wait on a condition variable, releasing `SemId` while waiting
    /// and re-acquiring it before returning.
    CondWait(CvId, SemId),
    /// Signal one waiter of a condition variable.
    CondSignal(CvId),
    /// Send `bytes` (with payload word `tag`) to a mailbox; blocks when
    /// the mailbox is full.
    SendMbox {
        mbox: MboxId,
        bytes: usize,
        tag: u32,
    },
    /// Receive from a mailbox; blocks when empty.
    RecvMbox(MboxId),
    /// Overwrite a state-message variable (never blocks, no syscall).
    StateWrite { var: StateId, value: Operand },
    /// Read the freshest value of a state-message variable (never
    /// blocks, no syscall).
    StateRead(StateId),
    /// Signal a software event object.
    SignalEvent(EventId),
    /// Block until a software event object is signalled.
    WaitEvent(EventId),
    /// Block until the given interrupt fires (user-level device driver
    /// pattern, §3).
    WaitIrq(IrqLine),
    /// Block for a fixed span.
    SleepFor(Duration),
    /// Read a device data register.
    DevRead(DevId),
    /// Write a device command register. `FromLastRead` forwards the
    /// most recent `DevRead`/`RecvMbox`/`StateRead` value, letting
    /// scripts express sensor→control→actuator pipelines.
    DevWrite(DevId, Operand),
    /// Read the kernel clock (charges the clock-service cost).
    ReadClock,
}

/// Operand of a device write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operand {
    /// A literal command word.
    Const(u32),
    /// The task's accumulator: the last value it read from a device,
    /// mailbox, or state message.
    FromLastRead,
}

impl Action {
    /// True if the action can block the caller.
    pub fn can_block(&self) -> bool {
        matches!(
            self,
            Action::AcquireSem(_)
                | Action::CondWait(..)
                | Action::SendMbox { .. }
                | Action::RecvMbox(_)
                | Action::WaitEvent(_)
                | Action::WaitIrq(_)
                | Action::SleepFor(_)
        )
    }

    /// True if the action is a *blocking call other than
    /// `acquire_sem`* — the calls the §6.2.1 parser instruments with a
    /// next-semaphore hint.
    pub fn is_hintable_block(&self) -> bool {
        self.can_block() && !matches!(self, Action::AcquireSem(_))
    }
}

/// How a script repeats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScriptKind {
    /// One pass per periodic job; the kernel blocks the task at the end
    /// of the pass until its next release (and checks its deadline).
    PeriodicJob,
    /// The script loops forever (drivers, servers, sporadic handlers);
    /// it must contain at least one blocking action.
    Looping,
}

/// A task body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Script {
    pub kind: ScriptKind,
    pub actions: Vec<Action>,
}

impl Script {
    /// A periodic job body.
    ///
    /// # Panics
    ///
    /// Panics if `actions` is empty.
    pub fn periodic(actions: Vec<Action>) -> Script {
        assert!(!actions.is_empty(), "empty script");
        Script {
            kind: ScriptKind::PeriodicJob,
            actions,
        }
    }

    /// A forever-looping body (must block somewhere, or the task would
    /// monopolize the CPU).
    ///
    /// # Panics
    ///
    /// Panics if no action can block.
    pub fn looping(actions: Vec<Action>) -> Script {
        assert!(
            actions.iter().any(Action::can_block),
            "looping script must contain a blocking action"
        );
        Script {
            kind: ScriptKind::Looping,
            actions,
        }
    }

    /// The common case: a job that just computes for `c`.
    pub fn compute_only(c: Duration) -> Script {
        Script::periodic(vec![Action::Compute(c)])
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True if there are no actions (never constructible via the
    /// public constructors).
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_classification() {
        assert!(Action::AcquireSem(SemId(0)).can_block());
        assert!(!Action::AcquireSem(SemId(0)).is_hintable_block());
        assert!(Action::WaitEvent(EventId(0)).is_hintable_block());
        assert!(Action::RecvMbox(MboxId(0)).is_hintable_block());
        assert!(!Action::Compute(Duration::from_us(1)).can_block());
        assert!(!Action::StateRead(StateId(0)).can_block());
        assert!(!Action::ReleaseSem(SemId(0)).can_block());
    }

    #[test]
    fn script_length_counts_actions() {
        let s = Script::periodic(vec![
            Action::Compute(Duration::from_us(10)),
            Action::AcquireSem(SemId(0)),
            Action::Compute(Duration::from_us(5)),
            Action::ReleaseSem(SemId(0)),
        ]);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "blocking action")]
    fn looping_script_must_block() {
        let _ = Script::looping(vec![Action::Compute(Duration::from_us(1))]);
    }

    #[test]
    fn compute_only_helper() {
        let s = Script::compute_only(Duration::from_ms(2));
        assert_eq!(s.kind, ScriptKind::PeriodicJob);
        assert_eq!(s.actions, [Action::Compute(Duration::from_ms(2))]);
    }
}
