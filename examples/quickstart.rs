//! Quickstart: build a small real-time workload, schedule it with the
//! CSD scheduler, and inspect the trace and the overhead ledger.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use emeralds::core::kernel::{KernelBuilder, KernelConfig};
use emeralds::core::script::{Action, Script};
use emeralds::core::tcb::Timing;
use emeralds::core::{SchedPolicy, SemScheme};
use emeralds::sim::{Duration, Time};

fn main() {
    // CSD-2: the two shortest-period tasks go to the EDF (DP) queue,
    // the rest to the RM (FP) queue — §5.3 of the paper.
    let cfg = KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![2],
        },
        sem_scheme: SemScheme::Emeralds,
        ..KernelConfig::default()
    };
    let mut b = KernelBuilder::new(cfg);
    let app = b.add_process("app");
    let lock = b.add_mutex();

    // A fast control task and a fast sensor task (DP queue)...
    let control = b.add_periodic_task(
        app,
        "control",
        Duration::from_ms(5),
        Script::periodic(vec![
            Action::AcquireSem(lock),
            Action::Compute(Duration::from_us(600)),
            Action::ReleaseSem(lock),
        ]),
    );
    let sensor = b.add_periodic_task(
        app,
        "sensor",
        Duration::from_ms(8),
        Script::compute_only(Duration::from_ms(1)),
    );
    // ...and two slow housekeeping tasks (FP queue).
    let logger = b.add_periodic_task(
        app,
        "logger",
        Duration::from_ms(50),
        Script::periodic(vec![
            Action::AcquireSem(lock),
            Action::Compute(Duration::from_ms(2)),
            Action::ReleaseSem(lock),
        ]),
    );
    let health = b.add_periodic_task(
        app,
        "health",
        Duration::from_ms(100),
        Script::compute_only(Duration::from_ms(3)),
    );

    let mut kernel = b.build();
    kernel.run_until(Time::from_ms(40));

    println!("=== trace (first 40 ms) ===");
    print!("{}", kernel.trace().render());

    println!("\n=== run report ===");
    print!("{}", kernel.metrics().render());
    // The task closest to missing: worst response relative to period.
    let response_ratio = |tid| match kernel.tcb(tid).timing {
        Timing::Periodic { period, .. } => kernel.task_stats(tid).max_response.ratio(period),
        Timing::EventDriven { .. } => 0.0,
    };
    let tightest = [control, sensor, logger, health]
        .into_iter()
        .max_by(|&a, &b| response_ratio(a).total_cmp(&response_ratio(b)))
        .expect("four tasks");
    println!(
        "tightest task: {} (worst response / period)",
        kernel.task_stats(tightest).name
    );

    println!("\n=== overhead ledger ===");
    print!("{}", kernel.accounting().render());
    assert_eq!(kernel.total_deadline_misses(), 0);
    println!("\nno deadline misses — workload is schedulable under CSD-2");
}
