//! Voice compression pipeline — the paper's second motivating domain
//! (§1: "voice compression in cellular phones").
//!
//! A hand-held phone runs a mix of short- and long-period tasks on a
//! slow core:
//!
//! - a 20 ms *voice encoder* and a 20 ms *voice decoder* (the codec
//!   frame rate), exchanging frames through mailboxes with the radio
//!   tasks;
//! - a 5 ms *AGC* (automatic gain control) loop publishing the mic
//!   level through a state message;
//! - a 100 ms *keypad scan* and a 250 ms *display refresh*;
//! - a 500 ms *battery monitor*.
//!
//! The example runs the same task set under pure EDF and under CSD-3
//! and compares the scheduler overhead — the paper's argument in one
//! program.
//!
//! ```sh
//! cargo run --example cellular_voice
//! ```

use emeralds::core::kernel::{Kernel, KernelBuilder, KernelConfig};
use emeralds::core::script::{Action, Operand, Script};
use emeralds::core::SchedPolicy;
use emeralds::sim::{Duration, Time};

fn build(policy: SchedPolicy) -> (Kernel, Vec<emeralds::sim::ThreadId>) {
    let mut b = KernelBuilder::new(KernelConfig {
        policy,
        ..KernelConfig::default()
    });
    let phone = b.add_process("phone");
    let radio_tx = b.add_mailbox(4);
    let radio_rx = b.add_mailbox(4);

    let ms = Duration::from_ms;
    let us = Duration::from_us;

    // AGC loop: publishes the gain level, no locking (single writer).
    let agc = b.add_periodic_task(
        phone,
        "agc",
        ms(5),
        Script::periodic(vec![
            Action::Compute(us(400)),
            Action::StateWrite {
                var: emeralds::sim::StateId(0),
                value: Operand::Const(17),
            },
        ]),
    );
    let gain = b.add_state_msg(agc, 4, 3, &[phone]);

    // Encoder: read gain, compress a frame, ship it to the radio.
    let encoder = b.add_periodic_task(
        phone,
        "encoder",
        ms(20),
        Script::periodic(vec![
            Action::StateRead(gain),
            Action::Compute(ms(6)),
            Action::SendMbox {
                mbox: radio_tx,
                bytes: 33, // a GSM full-rate frame
                tag: 0xF0,
            },
        ]),
    );
    // Radio: loops the TX frame back into RX (a bench-top loopback).
    let radio = b.add_driver_task(
        phone,
        "radio-loopback",
        ms(10),
        Script::looping(vec![
            Action::RecvMbox(radio_tx),
            Action::Compute(us(300)),
            Action::SendMbox {
                mbox: radio_rx,
                bytes: 33,
                tag: 0x0F,
            },
        ]),
    );
    // Decoder: consume the received frame.
    let decoder = b.add_periodic_task(
        phone,
        "decoder",
        ms(20),
        Script::periodic(vec![Action::RecvMbox(radio_rx), Action::Compute(ms(5))]),
    );
    // Slow UI / housekeeping tasks.
    let keypad = b.add_periodic_task(phone, "keypad", ms(100), Script::compute_only(ms(2)));
    let display = b.add_periodic_task(phone, "display", ms(250), Script::compute_only(ms(8)));
    let battery = b.add_periodic_task(phone, "battery", ms(500), Script::compute_only(ms(3)));

    let tasks = vec![agc, encoder, radio, decoder, keypad, display, battery];
    (b.build(), tasks)
}

fn main() {
    let horizon = Time::from_ms(2_000);
    println!("voice pipeline, 2 s of virtual time\n");
    let mut results = Vec::new();
    for (name, policy) in [
        ("EDF", SchedPolicy::Edf),
        // CSD-3: AGC alone in DP1; the codec pair in DP2; UI in FP.
        (
            "CSD-3",
            SchedPolicy::Csd {
                boundaries: vec![1, 4],
            },
        ),
    ] {
        let (mut k, tasks) = build(policy);
        k.run_until(horizon);
        for (at, tid) in k.trace().deadline_misses() {
            println!("  MISS {} at {at}", k.task_stats(tid).name);
        }
        assert_eq!(k.total_deadline_misses(), 0, "{name}: missed deadlines");
        println!("--- {name} ---");
        for &tid in &tasks {
            let s = k.task_stats(tid);
            println!(
                "  {:<16} jobs={:<4} cpu={}",
                s.name,
                s.jobs_completed,
                k.tcb(tid).cpu_time
            );
        }
        let sched = k.accounting().scheduler_overhead();
        let total = k.accounting().total_overhead();
        println!(
            "  scheduler overhead {:.1} us, total kernel overhead {:.1} us\n",
            sched.as_us_f64(),
            total.as_us_f64()
        );
        results.push((name, sched));
    }
    let (edf, csd) = (results[0].1, results[1].1);
    let gain = 100.0 * (edf.as_us_f64() - csd.as_us_f64()) / edf.as_us_f64();
    println!("CSD-3 cuts scheduler overhead by {gain:.0}% vs EDF on this workload");
    assert!(csd < edf, "CSD-3 must beat EDF here");
}
