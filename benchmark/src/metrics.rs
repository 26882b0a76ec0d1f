//! Turns one run's [`Outcome`] into named metrics. `BENCHMARK.json`
//! declares each metric's unit, direction and bound; this file computes
//! the values, and a test keeps the two lists identical.

use crate::run::{Outcome, Plan, Row, BLOCKS};
use crate::stats::median;
use crate::workloads::Totals;

/// The benchmark definition, compiled in so `compare` and the tests
/// use the declared units, directions and bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `a / b`, or 0 when `b` is 0 (a ratio over no events).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Simulated ms per second of each block, with the block's wall time
/// rescaled to the reference host chunk by chunk (see `calib`).
pub fn block_rates(plan: &Plan, o: &Outcome) -> Vec<f64> {
    let sim_ms = plan.slice.as_ms_f64() * (plan.timed / BLOCKS) as f64;
    o.block_ref_ns
        .iter()
        .map(|&ns| ratio(sim_ms, ns * 1e-9))
        .collect()
}

/// Every timed slice's host time in µs, rescaled to the reference host
/// by its chunk's slowdown.
pub fn slice_us(o: &Outcome) -> Vec<f64> {
    o.slice_ns
        .iter()
        .zip(&o.slice_slowdown)
        .map(|(&ns, &slow)| ns as f64 / slow / 1e3)
        .collect()
}

/// The end-to-end metrics, measured with tracing off.
pub fn end_to_end(plan: &Plan, o: &Outcome) -> Vec<Metric> {
    let t = &o.totals;
    let cpu = (t.app_ns + t.idle_ns + t.overhead_ns) as f64;
    let jobs = t.jobs_completed as f64;
    vec![
        m("setup_s", median(&o.setup_s), "s"),
        m("sim_ms_per_s", median(&block_rates(plan, o)), "sim-ms/s"),
        m("slice_us_p50", median(&slice_us(o)), "us"),
        m("peak_rss_mib", o.peak_rss_kib as f64 / 1024.0, "MiB"),
        m(
            "kernel_overhead_frac",
            ratio(t.overhead_ns as f64, cpu),
            "ratio",
        ),
        m(
            "ctxsw_per_job",
            ratio(t.context_switches as f64, jobs),
            "ctxsw/job",
        ),
        m(
            "deadline_met_frac",
            ratio(jobs - t.deadline_misses.min(t.jobs_completed) as f64, jobs),
            "ratio",
        ),
    ]
}

/// The per-layer metrics, from the traced run.
pub fn per_layer(plan: &Plan, o: &Outcome) -> Vec<Metric> {
    let t: &Totals = &o.totals;
    let b = &t.bus;
    let rows = o.rows.unwrap_or_default();
    let wall = o.timed_wall_ns() as f64;
    let share = |r: Row| ratio(rows[r as usize] as f64, wall);
    let advance_ns = (rows[Row::Core as usize] + rows[Row::SimAdvance as usize]) as f64;
    let sim_ms = plan.horizon().as_ms_f64();
    let setup = median(&o.setup_s);
    let analysis = median(&o.analysis_s);
    let attempts = t.frame_attempts() as f64;
    let c = |v: u64| v as f64;
    vec![
        m("core.context_switches", c(t.context_switches), "count"),
        m("core.jobs_completed", c(t.jobs_completed), "count"),
        m("core.deadline_misses", c(t.deadline_misses), "count"),
        m("core.syscalls", c(t.syscalls), "count"),
        m("core.select_calls", c(t.select_calls), "count"),
        m("core.select_evals", c(t.select_evals), "count"),
        m(
            "core.dispatch_cache_hit_ratio",
            1.0 - ratio(c(t.select_evals), c(t.select_calls)),
            "ratio",
        ),
        m("core.timer_inserts", c(t.timer_inserts), "count"),
        m("core.timer_insert_walks", c(t.timer_insert_walks), "count"),
        m("core.timer_expirations", c(t.timer_expirations), "count"),
        m(
            "core.timer_walks_per_insert",
            ratio(c(t.timer_insert_walks), c(t.timer_inserts)),
            "ratio",
        ),
        m("core.sem_acquired", c(t.sem_acquired), "count"),
        m("core.sem_fast_acquires", c(t.sem_fast_acquires), "count"),
        m(
            "core.sem_fast_ratio",
            ratio(c(t.sem_fast_acquires), c(t.sem_acquired)),
            "ratio",
        ),
        m("core.statemsg_reads", c(t.statemsg_reads), "count"),
        m("core.statemsg_retries", c(t.statemsg_retries), "count"),
        m("core.irq_dispatched", c(t.irq_dispatched), "count"),
        m("core.virtual_overhead_ms", c(t.overhead_ns) / 1e6, "sim-ms"),
        m("core.advance_wall_ns", advance_ns, "ns"),
        m(
            "core.host_ns_per_ctxsw",
            ratio(advance_ns, c(o.timed_context_switches)),
            "ns",
        ),
        m("core.self_frac", share(Row::Core), "ratio"),
        m("sim.barriers", c(t.barriers), "count"),
        m(
            "sim.barriers_per_sim_ms",
            ratio(c(t.barriers), sim_ms),
            "1/sim-ms",
        ),
        m("sim.inner_barriers", c(t.inner_barriers), "count"),
        m("sim.advance_frac", share(Row::SimAdvance), "ratio"),
        m("sim.call_frac", share(Row::SimCall), "ratio"),
        m("fieldbus.frames_sent", c(b.frames_sent), "count"),
        m("fieldbus.frames_delivered", c(b.frames_delivered), "count"),
        m("fieldbus.frames_in_flight", c(b.frames_in_flight), "count"),
        m("fieldbus.retransmissions", c(b.retransmissions), "count"),
        m(
            "fieldbus.goodput_ratio",
            ratio(c(b.frames_delivered), attempts + c(b.retransmissions)),
            "ratio",
        ),
        m("fieldbus.state_overwrites", c(b.state_overwrites), "count"),
        m("fieldbus.utilization", t.bus_utilization, "ratio"),
        m("fieldbus.gw_forwarded", c(t.gw_forwarded), "count"),
        m("fieldbus.gw_peak_depth", c(t.gw_peak_depth), "count"),
        m("fieldbus.gw_reroutes", c(t.gw_reroutes), "count"),
        m("fieldbus.bcast_fanout", c(b.bcast_fanout), "count"),
        m(
            "fieldbus.exchange_frac",
            share(Row::FieldbusExchange),
            "ratio",
        ),
        m(
            "fieldbus.gateway_frac",
            share(Row::FieldbusGateway),
            "ratio",
        ),
        m(
            "fieldbus.frame_latency_us_mean",
            ratio(b.total_latency.as_ns() as f64, c(b.frames_delivered)) / 1e3,
            "sim-us",
        ),
        m(
            "fieldbus.frame_loss_frac",
            ratio(c(b.frames_dropped), attempts),
            "ratio",
        ),
        m(
            "fieldbus.state_age_us_mean",
            c(t.state_age_mean_ns) / 1e3,
            "sim-us",
        ),
        m("faults.error_frames", c(b.error_frames), "count"),
        m("faults.bus_off_events", c(b.bus_off_events), "count"),
        m("setup.build_s", setup - analysis, "s"),
        m("setup.analysis_frac", ratio(analysis, setup), "ratio"),
        m(
            "trace.sim_ms_per_s",
            median(&block_rates(plan, o)),
            "sim-ms/s",
        ),
        m("trace.unattributed_frac", share(Row::Unattributed), "ratio"),
        m("trace.spans", c(o.spans_recorded), "count"),
    ]
}

/// `(name, unit)` of one `BENCHMARK.json` metric list, in order.
#[cfg(test)]
pub fn declared(list: &str) -> Vec<(String, String)> {
    use crate::json::{self, Value};
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get(list)
        .expect("metric list present")
        .as_array()
        .iter()
        .map(|e| {
            let field = |k| {
                e.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .into()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn declared_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for list in ["end_to_end", "per_layer"] {
            for (name, unit) in declared(list) {
                assert!(valid_name(&name), "bad metric name {name:?}");
                assert!(seen.insert(name.clone()), "duplicate metric {name}");
                assert!(
                    !unit.is_empty()
                        && unit.len() <= 16
                        && unit
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                    "bad unit {unit:?} of {name}"
                );
            }
        }
        assert!(!valid_name("core context"));
        assert!(!valid_name(".core"));
    }

    /// Half the blocks ran on a host twice as slow: the calibrated
    /// block rates and slice times agree, where the raw ones would not.
    #[test]
    fn block_median_rescales_each_block_by_its_slowdown() {
        let mut block_ns = vec![1_000_000_000u64; BLOCKS / 2];
        block_ns.extend(vec![2_000_000_000u64; BLOCKS / 2]);
        let slowdown = |b: usize| if b < BLOCKS / 2 { 1.0 } else { 2.0 };
        let o = Outcome {
            setup_s: vec![0.1],
            analysis_s: vec![0.0],
            slice_ns: block_ns.iter().flat_map(|&b| [b / 2, b / 2]).collect(),
            slice_slowdown: (0..2 * BLOCKS).map(|i| slowdown(i / 2)).collect(),
            block_ref_ns: (0..BLOCKS).map(|b| block_ns[b] as f64 / slowdown(b)).collect(),
            block_ns,
            timed_context_switches: 0,
            rows: None,
            overrun_frac: 0.0,
            spans_recorded: 0,
            totals: Totals::default(),
            input_digest: 0,
            peak_rss_kib: 0,
        };
        let plan = Plan {
            slice: emeralds_sim::Duration::from_ms(10),
            warm: 1,
            timed: 2 * BLOCKS,
        };
        // 20 sim-ms per block in one reference second.
        assert!(block_rates(&plan, &o)
            .iter()
            .all(|&r| (r - 20.0).abs() < 1e-9));
        assert!(slice_us(&o)
            .iter()
            .all(|&s| (s - 500_000.0).abs() < 1e-6));
        assert_eq!(median(&block_rates(&plan, &o)), 20.0);
    }
}
