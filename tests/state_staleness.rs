//! End-to-end state-message staleness (data age) under healthy and
//! faulted fieldbuses.
//!
//! Each read of a NIC-fed replica records *data age* — the read
//! instant minus the virtual-time stamp the original writer put on
//! that version — into the kernel's staleness histogram. Two bounds
//! pin the instrumentation:
//!
//! 1. **Healthy bus**: age never exceeds the writer period plus a
//!    small delivery slack (`P + D`), because overwrite-not-queue NIC
//!    semantics always ship the freshest version.
//! 2. **Faulted bus**: a storm (corruption + fail-stop outages +
//!    babble) stretches the tail, but every spike stays inside the
//!    outage envelope, frame accounting still balances, and the whole
//!    measurement is bit-for-bit deterministic.

use emeralds::core::kernel::{Kernel, KernelBuilder, KernelConfig};
use emeralds::core::script::{Action, Operand, Script};
use emeralds::core::SchedPolicy;
use emeralds::faults::FaultPlan;
use emeralds::fieldbus::Cluster;
use emeralds::sim::{Duration, IrqLine, NodeId, StateId, Time};

const NIC_IRQ: IrqLine = IrqLine(2);

/// A node publishing into a state-message variable every `period_us`.
fn writer_node(period_us: u64) -> (Kernel, StateId) {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::RmQueue,
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process("writer");
    b.add_nic(NIC_IRQ, 8, 8);
    let tid = b.add_periodic_task(
        p,
        "pub",
        Duration::from_us(period_us),
        Script::periodic(vec![
            Action::Compute(Duration::from_us(40)),
            Action::StateWrite {
                var: StateId(0),
                value: Operand::Const(42),
            },
        ]),
    );
    let var = b.add_state_msg(tid, 8, 3, &[]);
    assert_eq!(var, StateId(0));
    (b.build(), var)
}

/// A node polling its NIC-fed replica every `period_us`.
fn reader_node(period_us: u64) -> (Kernel, StateId) {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::RmQueue,
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process("reader");
    b.add_nic(NIC_IRQ, 8, 8);
    let var = b.add_state_replica(p, 8, 3, &[]);
    b.add_periodic_task(
        p,
        "law",
        Duration::from_us(period_us),
        Script::periodic(vec![
            Action::StateRead(var),
            Action::Compute(Duration::from_us(60)),
        ]),
    );
    (b.build(), var)
}

/// Healthy bus: every recorded age obeys `age <= P + D`, where `P` is
/// the writer period and `D` a small delivery slack (frame time + NIC
/// sampling quantum), and the mean sits below `P`.
#[test]
fn healthy_bus_age_bounded_by_period_plus_delivery() {
    let period_us = 10_000;
    let mut net = Cluster::new(1_000_000);
    let (kw, wvar) = writer_node(period_us);
    let (kr, rvar) = reader_node(7_000);
    let src = net.add_node("writer", kw, 1);
    let dst = net.add_node("reader", kr, 2);
    net.link_state(src, wvar, dst, rvar, 5, 8);
    net.run_until(Time::from_ms(200));

    let s = net.stats();
    assert_eq!(
        s.frames_sent,
        s.frames_delivered + s.frames_dropped + s.frames_in_flight,
        "frame accounting leak: {s:?}"
    );
    assert_eq!(s.frames_dropped, 0, "healthy bus dropped frames");

    let age = net.node_mut(dst).kernel.metrics().state_age;
    assert!(age.count() >= 20, "too few reads recorded: {}", age.count());
    let bound = Duration::from_us(period_us) + Duration::from_ms(3);
    assert!(
        age.max() <= bound,
        "data age {} exceeds P + D bound {}",
        age.max(),
        bound
    );
    assert!(
        age.mean() <= Duration::from_us(period_us),
        "mean age {} exceeds the writer period",
        age.mean()
    );
}

/// Builds a 2-pair state-linked cluster for the storm test.
fn storm_cluster() -> Cluster {
    let mut c = Cluster::new(1_000_000);
    let mut wvars = Vec::new();
    for i in 0..2usize {
        let (k, var) = writer_node(8_000 + 2_000 * i as u64);
        c.add_node(format!("writer{i}"), k, (i + 1) as u32);
        wvars.push(var);
    }
    for (i, &wvar) in wvars.iter().enumerate() {
        let (k, var) = reader_node(9_000 + 2_000 * i as u64);
        c.add_node(format!("reader{i}"), k, (i + 3) as u32);
        c.link_state(
            NodeId(i as u32),
            wvar,
            NodeId((2 + i) as u32),
            var,
            (i + 10) as u32,
            8,
        );
    }
    c
}

/// Storm: corrupted grants, fail-stop outages, and babble stretch the
/// staleness tail, but frame accounting still balances, spikes stay
/// inside the horizon envelope, and the faulted measurement is
/// bit-for-bit reproducible.
#[test]
fn storm_bounds_age_spikes_and_conserves_frames() {
    let horizon = Time::from_ms(160);
    let plan = FaultPlan::random(0x57, 4, horizon, 0.05, 0.5, 0.5);
    assert!(!plan.is_empty());

    let run = || {
        let mut c = storm_cluster();
        c.set_fault_plan(&plan);
        c.run_until(horizon);
        let stats = *c.stats();
        let age = c.metrics().state_age;
        (stats, age)
    };
    let (stats, age) = run();

    assert_eq!(
        stats.frames_sent,
        stats.frames_delivered + stats.frames_dropped + stats.frames_in_flight,
        "frame accounting leak under storm: {stats:?}"
    );
    assert!(
        stats.error_frames > 0 || stats.frames_lost_offline > 0,
        "storm left no fault signal: {stats:?}"
    );
    assert!(age.count() > 0, "no data age recorded under storm");
    assert!(age.max() >= age.mean());
    assert!(
        age.max() <= horizon.saturating_since(Time::ZERO),
        "age spike {} beyond the horizon envelope",
        age.max()
    );

    // Determinism: same plan, same cluster, same histogram — exactly.
    let (stats2, age2) = run();
    assert_eq!(stats, stats2, "storm stats not reproducible");
    assert_eq!(age, age2, "storm staleness histogram not reproducible");
}
