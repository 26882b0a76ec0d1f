//! Engine control unit — the paper's flagship domain (§1: "engine
//! control in automobiles").
//!
//! Structure:
//!
//! - a crank-position *sensor* raises an interrupt every 2 ms; a
//!   user-level *driver thread* (§3's device-driver pattern) reads it
//!   and publishes the RPM through a lock-free *state message*;
//! - a 5 ms *fuel control* task reads the RPM, updates the shared
//!   engine model under a *mutex with priority inheritance*, and
//!   commands the injector actuator;
//! - a 10 ms *spark control* task shares the same model object;
//! - a 100 ms *diagnostics* task also takes the lock (the classic
//!   low-priority-holder inversion that PI bounds);
//! - everything runs under CSD-2 with the EMERALDS semaphore scheme.
//!
//! ```sh
//! cargo run --example engine_control
//! ```

use emeralds::core::kernel::{KernelBuilder, KernelConfig};
use emeralds::core::script::{Action, Operand, Script};
use emeralds::core::{SchedPolicy, SemScheme};
use emeralds::sim::{Duration, IrqLine, StateId, Time};

fn main() {
    let cfg = KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![3],
        },
        sem_scheme: SemScheme::Emeralds,
        ..KernelConfig::default()
    };
    let mut b = KernelBuilder::new(cfg);
    let ecu = b.add_process("ecu");
    let model_lock = b.add_mutex();
    let crank_irq = IrqLine(4);

    // Board: crank sensor (IRQ-driven) + injector and spark actuators.
    let (crank, injector, spark) = {
        let board = b.board_mut();
        let crank = board.add_sensor(Some(crank_irq));
        let injector = board.add_actuator();
        let spark = board.add_actuator();
        // 2 ms crank pulses carrying a rising RPM signal.
        board.schedule_periodic_samples(crank, Time::from_ms(1), Duration::from_ms(2), 200, |k| {
            800 + (k * 7 % 400) as u32
        });
        (crank, injector, spark)
    };

    // Crank driver: wait for the pulse, read the sensor, publish RPM.
    let rpm_var = StateId(0);
    let driver = b.add_driver_task(
        ecu,
        "crank-driver",
        Duration::from_ms(2),
        Script::looping(vec![
            Action::WaitIrq(crank_irq),
            Action::DevRead(crank),
            Action::Compute(Duration::from_us(80)),
            // Publish the RPM just read from the device register.
            Action::StateWrite {
                var: rpm_var,
                value: Operand::FromLastRead,
            },
        ]),
    );

    // Fuel control: read RPM, update the model under the lock, fire
    // the injector.
    let fuel = b.add_periodic_task(
        ecu,
        "fuel-ctrl",
        Duration::from_ms(5),
        Script::periodic(vec![
            Action::StateRead(rpm_var),
            Action::AcquireSem(model_lock),
            Action::Compute(Duration::from_us(700)),
            Action::ReleaseSem(model_lock),
            Action::DevWrite(injector, Operand::FromLastRead),
        ]),
    );
    // Spark control: same object, slower rate.
    let spark_task = b.add_periodic_task(
        ecu,
        "spark-ctrl",
        Duration::from_ms(10),
        Script::periodic(vec![
            Action::StateRead(rpm_var),
            Action::AcquireSem(model_lock),
            Action::Compute(Duration::from_us(900)),
            Action::ReleaseSem(model_lock),
            Action::DevWrite(spark, Operand::Const(1)),
        ]),
    );
    // Diagnostics: long-period lock holder (the PI stress).
    let diag = b.add_periodic_task(
        ecu,
        "diagnostics",
        Duration::from_ms(100),
        Script::periodic(vec![
            Action::AcquireSem(model_lock),
            Action::Compute(Duration::from_ms(3)),
            Action::ReleaseSem(model_lock),
            Action::Compute(Duration::from_ms(2)),
        ]),
    );

    // The state-message variable: written by the driver, read by all.
    let var = b.add_state_msg(driver, 8, 3, &[ecu]);
    assert_eq!(var, rpm_var, "first state message gets id 0");

    let mut k = b.build();
    k.run_until(Time::from_ms(400));

    println!("=== engine control, 400 ms ===");
    for tid in [driver, fuel, spark_task, diag] {
        let s = k.task_stats(tid);
        println!(
            "{:<12} jobs={:<3} misses={} cpu={}",
            s.name,
            s.jobs_completed,
            s.deadline_misses,
            k.tcb(tid).cpu_time
        );
    }
    let injections = k.board().actuator_log(injector).len();
    let sparks = k.board().actuator_log(spark).len();
    println!("\ninjector commands: {injections}, spark commands: {sparks}");
    println!(
        "rpm state message: {} writes, {} reads",
        k.statemsg(var).seq,
        k.statemsg(var).reads()
    );
    println!(
        "priority inheritance events: {}",
        k.trace()
            .filter(|e| matches!(e, emeralds::sim::TraceEvent::PriorityInherit { .. }))
            .count()
    );
    println!("\n=== overhead ledger ===");
    print!("{}", k.accounting().render());

    assert_eq!(k.total_deadline_misses(), 0, "the ECU must never miss");
    assert!(injections >= 79, "fuel loop ran every 5 ms");
    println!("\nall deadlines met under CSD-2 + EMERALDS semaphores");
}
