//! Camcorder image stabilization — the paper's third motivating
//! domain (§1: "image stabilization in camcorders").
//!
//! Demonstrates the deadline-monotonic policy with *constrained*
//! deadlines (§5.3 names DM among the admissible fixed-priority
//! schedulers):
//!
//! - a 33 ms frame pipeline whose *motion estimation* must finish
//!   within 8 ms of frame start (the corrective lens command has to go
//!   out early in the frame time), even though its period is long;
//! - a 10 ms gyro sampler with a relaxed deadline;
//! - tape servo and OSD housekeeping tasks;
//! - a condition variable hands the motion vector from estimation to
//!   the lens-command task.
//!
//! Under plain RM the 10 ms gyro outranks the 33 ms estimator and the
//! 8 ms constrained deadline is missed; DM ranks by deadline and the
//! pipeline holds.
//!
//! ```sh
//! cargo run --example camcorder
//! ```

use emeralds::core::kernel::{Kernel, KernelBuilder, KernelConfig};
use emeralds::core::script::{Action, Operand, Script};
use emeralds::core::SchedPolicy;
use emeralds::sim::{Duration, Time};

fn ms(v: u64) -> Duration {
    Duration::from_ms(v)
}

fn us(v: u64) -> Duration {
    Duration::from_us(v)
}

fn build(policy: SchedPolicy) -> (Kernel, emeralds::sim::ThreadId) {
    let mut b = KernelBuilder::new(KernelConfig {
        policy,
        ..KernelConfig::default()
    });
    let cam = b.add_process("camcorder");
    let lens = b.board_mut().add_actuator();
    let frame_lock = b.add_mutex();
    let vector_ready = b.add_event(); // latching hand-off

    // Motion estimation: 33 ms frame period, but the result must be
    // ready 8 ms into the frame — a constrained deadline.
    let estimator = b.add_periodic_task_phased(
        cam,
        "motion-est",
        ms(33),
        ms(8), // deadline << period
        Duration::ZERO,
        Script::periodic(vec![
            Action::Compute(ms(5)),
            Action::AcquireSem(frame_lock),
            Action::Compute(us(200)), // publish the motion vector
            Action::ReleaseSem(frame_lock),
            Action::SignalEvent(vector_ready),
        ]),
    );
    // Lens command: waits for the vector, reads it under the lock
    // (the blocking wait right before the acquire carries the §6.2
    // parser hint), then drives the actuator.
    b.add_periodic_task_phased(
        cam,
        "lens-cmd",
        ms(33),
        ms(12),
        Duration::ZERO,
        Script::periodic(vec![
            Action::WaitEvent(vector_ready),
            Action::AcquireSem(frame_lock),
            Action::Compute(us(200)),
            Action::ReleaseSem(frame_lock),
            Action::Compute(us(300)),
            Action::DevWrite(lens, Operand::Const(1)),
        ]),
    );
    // Gyro sampling: short period, relaxed (implicit) deadline.
    b.add_periodic_task(cam, "gyro", ms(10), Script::compute_only(ms(4)));
    // Housekeeping.
    b.add_periodic_task(cam, "tape-servo", ms(50), Script::compute_only(ms(3)));
    b.add_periodic_task(cam, "osd", ms(100), Script::compute_only(ms(2)));
    (b.build(), estimator)
}

fn main() {
    println!("camcorder stabilization pipeline, 500 ms\n");
    for (name, policy) in [("RM", SchedPolicy::RmQueue), ("DM", SchedPolicy::DmQueue)] {
        let (mut k, estimator) = build(policy);
        k.run_until(Time::from_ms(500));
        let metrics = k.metrics();
        println!(
            "--- {name} (fixed priorities by {}) ---",
            if name == "RM" { "period" } else { "deadline" }
        );
        print!("{}", metrics.render());
        let est = k.task_stats(estimator);
        println!(
            "motion-est: worst response {} against its 8 ms deadline, {} misses\n",
            est.max_response, est.deadline_misses
        );
        match name {
            "RM" => assert!(
                est.deadline_misses > 0,
                "RM should miss the constrained deadline (gyro outranks the estimator)"
            ),
            _ => assert_eq!(metrics.deadline_misses, 0, "DM must hold every deadline"),
        }
    }
    println!("deadline-monotonic priorities rescue the constrained 8 ms deadline");
}
