//! # EMERALDS core — the microkernel
//!
//! A from-scratch reproduction of the EMERALDS real-time microkernel
//! (Zuberi, Pillai & Shin, SOSP'99) as an executable model: the
//! kernel's data structures and algorithms are implemented for real,
//! and a calibrated cost model (see `emeralds-hal`) converts the
//! operations they perform into the microseconds the paper measures on
//! its 25 MHz MC68040.
//!
//! The three contributions live here:
//!
//! - **CSD scheduling** (§5): [`sched`] implements the EDF unsorted
//!   queue, the RM sorted queue with `highestp`, the RM heap the paper
//!   rejects, and the combined static/dynamic multi-queue scheduler.
//! - **Optimized semaphores** (§6): [`sync`] plus the kernel's
//!   semaphore operations implement full PI semantics with the
//!   EMERALDS context-switch elimination (driven by the [`parser`]'s
//!   next-semaphore hints) and the O(1) placeholder priority
//!   inheritance; the textbook scheme is retained as an ablation.
//! - **State-message IPC** (§7, reconstructed): [`ipc`] implements
//!   single-writer lock-free state variables next to conventional
//!   mailboxes and shared memory.
//!
//! Everything else a microkernel needs — threads and protected
//! processes, condition variables, timers and clock services,
//! interrupt handling with user-level drivers, and fixed-block kernel
//! memory pools — is here too, so the examples can build the paper's
//! motivating applications end to end.
//!
//! # Examples
//!
//! ```
//! use emeralds_core::kernel::{KernelBuilder, KernelConfig};
//! use emeralds_core::script::Script;
//! use emeralds_core::sched::SchedPolicy;
//! use emeralds_sim::{Duration, Time};
//!
//! let mut cfg = KernelConfig::default();
//! cfg.policy = SchedPolicy::Csd { boundaries: vec![1] };
//! let mut b = KernelBuilder::new(cfg);
//! let app = b.add_process("app");
//! b.add_periodic_task(app, "sensor", Duration::from_ms(5),
//!     Script::compute_only(Duration::from_ms(1)));
//! b.add_periodic_task(app, "logger", Duration::from_ms(50),
//!     Script::compute_only(Duration::from_ms(4)));
//! let mut k = b.build();
//! k.run_until(Time::from_ms(100));
//! assert_eq!(k.total_deadline_misses(), 0);
//! ```

// Perf-oriented lint wall for the kernel hot paths, with the pedantic
// groups that are pure churn for this codebase allowed explicitly:
// casts between the fixed-width sim types are ubiquitous and
// range-checked by construction, `#[must_use]`/doc-section lints don't
// affect generated code, and the render helpers' `push_str(&format!)`
// idiom is clearer than `write!` chains off the hot path.
#![warn(clippy::perf, clippy::pedantic)]
#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss,
    clippy::cast_lossless,
    clippy::doc_markdown,
    clippy::enum_glob_use,
    clippy::format_push_string,
    clippy::items_after_statements,
    clippy::many_single_char_names,
    clippy::missing_errors_doc,
    clippy::missing_panics_doc,
    clippy::module_name_repetitions,
    clippy::must_use_candidate,
    clippy::redundant_closure_for_method_calls,
    clippy::return_self_not_must_use,
    clippy::similar_names,
    clippy::struct_excessive_bools,
    clippy::too_many_lines
)]

pub mod alloc;
pub mod footprint;
pub mod ipc;
pub mod kernel;
pub mod parser;
pub mod proc;
pub mod sched;
pub mod script;
pub mod sync;
pub mod tcb;
pub mod timerq;

pub use kernel::{ConfigError, IrqAction, Kernel, KernelBuilder, KernelConfig};
pub use sched::SchedPolicy;
pub use script::{Action, Operand, Script};
pub use sync::{SemScheme, SrpStats};
