//! Simulated target hardware for the EMERALDS reproduction.
//!
//! The paper's platform is a 15–25 MHz single-chip microcontroller
//! (Motorola 68332 / Intel i960 / Hitachi SH-2 class; measurements were
//! made on a 25 MHz Motorola 68040 with a 5 MHz on-chip timer) with
//! 32–128 KB of on-chip memory and no disk. We cannot run on that
//! silicon, so this crate substitutes a behavioural model:
//!
//! - [`CostModel`]: per-primitive virtual-time charges calibrated from
//!   the paper's measured formulas (Table 1 and the §5.7/§6.4 anchors).
//! - [`Clock`]: the CPU's virtual clock.
//! - [`InterruptController`]: prioritized interrupt lines with a pending
//!   latch per line.
//! - [`Mpu`]: a region-based memory protection unit (EMERALDS provides
//!   "full memory protection for threads", §3).
//! - [`Board`] and devices: sensors, actuators and a fieldbus NIC,
//!   enough to build the paper's motivating applications (engine
//!   control, voice compression, avionics) as examples.
//!
//! The kernel in `emeralds-core` runs *real* queue manipulations and
//! charges virtual time through the cost model, so every reported
//! microsecond traces back to an operation the algorithm actually
//! performed.

pub mod board;
pub mod clock;
pub mod cost;
pub mod device;
pub mod irq;
pub mod mpu;

pub use board::Board;
pub use clock::Clock;
pub use cost::CostModel;
pub use device::{Actuator, Device, DeviceEvent, DeviceKind, Nic, Sensor};
pub use irq::InterruptController;
pub use mpu::{AccessKind, Mpu, MpuFault, Perms, Region};
