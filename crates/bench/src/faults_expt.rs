//! Experiment FT — fault injection and recovery forensics.
//!
//! Not a paper figure: the paper measured a healthy 25 MHz board. Real
//! deployments of EMERALDS-class systems (automotive/avionics
//! fieldbuses, §2) are qualified by how they *fail*, so this
//! experiment drives the scale-out workload of experiment SC through
//! seeded fault plans (`emeralds-faults`) at 8–64 nodes and three
//! fault intensities, and reports what the CAN error machinery did
//! about it: error frames, automatic retransmissions, bus-off events
//! and recovery latencies, frames lost to dead nodes, and deadline
//! misses broken down by cause (fault / overload / unknown).
//!
//! Everything reported is *simulated* — no wall-clock fields — so the
//! committed `BENCH_faults.json` is bit-for-bit reproducible on any
//! host, and CI gates on absolute values: every bus-off node must
//! recover by the horizon, the faulted miss rate must stay under a
//! threshold, frame accounting must balance
//! (`sent == delivered + dropped + in_flight`), end-to-end state-message
//! data age must stay bounded under noise, and the clean level must
//! stay perfectly clean.
//!
//! The workload is the experiment-SC topology with one addition: each
//! sensor publishes its sample into a §7 state-message variable that a
//! `link_state` channel replicates to the paired consumer, whose 10 ms
//! control law reads the replica. Each read records *data age* (read
//! instant minus the original writer stamp), so the sweep maps fault
//! intensity directly to control-loop staleness.

use emeralds_faults::FaultPlan;
use emeralds_fieldbus::Cluster;
use emeralds_sim::{DurationHistogram, NodeId, Time};

use crate::scale_expt::{build_pairs, STATE_VAR};

/// One fault intensity in the sweep.
#[derive(Clone, Copy, Debug)]
pub struct FaultLevel {
    pub label: &'static str,
    /// Per-grant wire corruption probability.
    pub corruption: f64,
    /// Per-node probability of one fail-stop outage.
    pub fail_stop_p: f64,
    /// Per-node probability of one babbling-idiot window.
    pub babble_p: f64,
}

/// The committed sweep's intensities. `none` doubles as the control:
/// the workload must stay clean without faults.
pub const LEVELS: [FaultLevel; 3] = [
    FaultLevel {
        label: "none",
        corruption: 0.0,
        fail_stop_p: 0.0,
        babble_p: 0.0,
    },
    FaultLevel {
        label: "noise",
        corruption: 0.02,
        fail_stop_p: 0.0,
        babble_p: 0.0,
    },
    FaultLevel {
        label: "storm",
        corruption: 0.05,
        fail_stop_p: 0.25,
        babble_p: 0.2,
    },
];

/// Experiment shape.
#[derive(Clone, Debug)]
pub struct FaultParams {
    /// Cluster sizes to sweep (even, >= 2; see `scale_expt`).
    pub nodes: Vec<usize>,
    /// Fault intensities per cluster size.
    pub levels: Vec<FaultLevel>,
    /// Simulated horizon per run.
    pub horizon: Time,
    /// Seed for both the workload and the fault plans.
    pub seed: u64,
    /// Gate: max allowed `deadline_misses / jobs_completed` under
    /// faults.
    pub max_miss_rate: f64,
}

impl FaultParams {
    /// The committed-baseline sweep: 8–64 nodes, 300 ms horizon.
    pub fn full() -> FaultParams {
        FaultParams {
            nodes: vec![8, 16, 32, 64],
            levels: LEVELS.to_vec(),
            horizon: Time::from_ms(300),
            seed: 0xFA17,
            max_miss_rate: 0.05,
        }
    }

    /// CI smoke shape: one small cluster, short horizon.
    pub fn quick() -> FaultParams {
        FaultParams {
            nodes: vec![8],
            levels: LEVELS.to_vec(),
            horizon: Time::from_ms(80),
            seed: 0xFA17,
            max_miss_rate: 0.05,
        }
    }
}

/// Builds the n-node state-linked workload: the experiment-SC pairing
/// (sensor *i* → consumer *n/2+i*) with a state message on each pair,
/// plus one `link_state` channel per pair carrying the sensor's
/// state-message versions. State frames arbitrate below all mailbox
/// traffic (ids `n+1..`), so fault-induced bus congestion shows up
/// directly as data age. `_workers` is ignored: a single bus runs on
/// the calling thread.
///
/// # Panics
///
/// Panics when `n < 2` or `n` is odd.
pub fn build_state_cluster(n: usize, seed: u64, _workers: usize) -> Cluster {
    let mut c = build_pairs(n, seed, true);
    let half = n / 2;
    for i in 0..half {
        c.link_state(
            NodeId(i as u32),
            STATE_VAR,
            NodeId((half + i) as u32),
            STATE_VAR,
            (n + i + 1) as u32,
            8,
        );
    }
    c
}

/// One measured configuration. Every field is simulated/deterministic.
#[derive(Clone, Debug)]
pub struct FaultRun {
    pub nodes: usize,
    pub level: &'static str,
    pub corruption: f64,
    pub jobs_completed: u64,
    pub deadline_misses: u64,
    pub misses_fault: u64,
    pub misses_overload: u64,
    pub misses_unknown: u64,
    pub frames_sent: u64,
    pub frames_delivered: u64,
    pub frames_dropped: u64,
    /// Frames still queued or on the wire at the horizon; closes the
    /// conservation invariant `sent == delivered + dropped + in_flight`.
    pub frames_in_flight: u64,
    /// Pending state frames replaced in place by a newer sample before
    /// winning arbitration (§7 overwrite-not-queue at the NIC).
    pub state_overwrites: u64,
    pub frames_lost_offline: u64,
    pub error_frames: u64,
    pub retransmissions: u64,
    pub babble_frames: u64,
    pub bus_off_events: u64,
    pub bus_off_recoveries: u64,
    pub unrecovered_bus_off: u64,
    /// Mean queue→delivery latency of delivered frames (staleness of
    /// sensor data at the consumers).
    pub mean_latency_us: f64,
    /// Bus-off entry → rejoin latency, pooled across nodes.
    pub recovery_count: u64,
    pub mean_recovery_us: f64,
    pub max_recovery_us: f64,
    /// End-to-end state-message data age at the control laws: reads
    /// recorded, then mean / p99 upper bound / max in microseconds.
    pub state_age_count: u64,
    pub state_age_mean_us: f64,
    pub state_age_p99_us: f64,
    pub state_age_max_us: f64,
}

impl FaultRun {
    /// Misses per completed job.
    pub fn miss_rate(&self) -> f64 {
        if self.jobs_completed == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.jobs_completed as f64
        }
    }
}

/// Builds the fault plan one `(nodes, level)` cell runs under. The
/// plan seed folds in the node count so each cell gets an independent
/// but reproducible schedule.
pub fn plan_for(params: &FaultParams, nodes: usize, level: &FaultLevel) -> FaultPlan {
    FaultPlan::random(
        params.seed ^ ((nodes as u64) << 32),
        nodes,
        params.horizon,
        level.corruption,
        level.fail_stop_p,
        level.babble_p,
    )
}

/// Runs the sweep.
pub fn run(params: &FaultParams) -> Vec<FaultRun> {
    let mut out = Vec::new();
    for &n in &params.nodes {
        for level in &params.levels {
            let mut c = build_state_cluster(n, params.seed, 1);
            c.set_fault_plan(&plan_for(params, n, level));
            c.run_until(params.horizon);
            let m = c.metrics();
            let s = *c.stats();
            let mut recovery = DurationHistogram::default();
            for node in c.nodes() {
                recovery.merge(&node.stats.recovery_hist);
            }
            out.push(FaultRun {
                nodes: n,
                level: level.label,
                corruption: level.corruption,
                jobs_completed: m.jobs_completed,
                deadline_misses: m.deadline_misses,
                misses_fault: m.misses_fault,
                misses_overload: m.misses_overload,
                misses_unknown: m.misses_unknown,
                frames_sent: s.frames_sent,
                frames_delivered: s.frames_delivered,
                frames_dropped: s.frames_dropped,
                frames_in_flight: s.frames_in_flight,
                state_overwrites: s.state_overwrites,
                frames_lost_offline: s.frames_lost_offline,
                error_frames: s.error_frames,
                retransmissions: s.retransmissions,
                babble_frames: s.babble_frames,
                bus_off_events: s.bus_off_events,
                bus_off_recoveries: s.bus_off_recoveries,
                unrecovered_bus_off: m.unrecovered_bus_off,
                mean_latency_us: s.mean_latency().map(|d| d.as_us_f64()).unwrap_or(0.0),
                recovery_count: recovery.count(),
                mean_recovery_us: recovery.mean().as_us_f64(),
                max_recovery_us: recovery.max().as_us_f64(),
                state_age_count: m.state_age.count(),
                state_age_mean_us: m.state_age.mean().as_us_f64(),
                state_age_p99_us: m.state_age.quantile_bound(0.99).as_us_f64(),
                state_age_max_us: m.state_age.max().as_us_f64(),
            });
        }
    }
    out
}

/// Renders the sweep as a table.
pub fn render(runs: &[FaultRun]) -> String {
    let mut s = String::new();
    s.push_str(
        "nodes  level  misses(F/O/U)      rate%   errfr  retx   babble  busoff(rec)  lost  lat us  recov us(max)  age us mean/p99/max\n",
    );
    for r in runs {
        s.push_str(&format!(
            "{:>5}  {:<5}  {:>5} ({}/{}/{})  {:>5.2}  {:>5}  {:>5}  {:>6}  {:>4} ({:<4})  {:>4}  {:>6.0}  {:>6.0} ({:.0})  {:>6.0}/{:.0}/{:.0}\n",
            r.nodes,
            r.level,
            r.deadline_misses,
            r.misses_fault,
            r.misses_overload,
            r.misses_unknown,
            100.0 * r.miss_rate(),
            r.error_frames,
            r.retransmissions,
            r.babble_frames,
            r.bus_off_events,
            r.bus_off_recoveries,
            r.frames_lost_offline,
            r.mean_latency_us,
            r.mean_recovery_us,
            r.max_recovery_us,
            r.state_age_mean_us,
            r.state_age_p99_us,
            r.state_age_max_us,
        ));
    }
    s
}

/// Serializes the sweep as `BENCH_faults.json`. One `runs[]` entry per
/// line, plain-scannable, and fully deterministic (no wall-clock, no
/// host fields) — the committed file reproduces bit-for-bit.
pub fn to_json(params: &FaultParams, runs: &[FaultRun]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("\"experiment\": \"faults\",\n");
    s.push_str(&format!(
        "\"horizon_ms\": {},\n",
        params.horizon.as_ms_f64()
    ));
    s.push_str(&format!("\"seed\": {},\n", params.seed));
    s.push_str(&format!("\"max_miss_rate\": {},\n", params.max_miss_rate));
    s.push_str("\"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        s.push_str(&format!(
            "{{\"nodes\": {}, \"level\": \"{}\", \"corruption\": {}, \"jobs_completed\": {}, \"deadline_misses\": {}, \"misses_fault\": {}, \"misses_overload\": {}, \"misses_unknown\": {}, \"frames_sent\": {}, \"frames_delivered\": {}, \"frames_dropped\": {}, \"frames_in_flight\": {}, \"state_overwrites\": {}, \"frames_lost_offline\": {}, \"error_frames\": {}, \"retransmissions\": {}, \"babble_frames\": {}, \"bus_off_events\": {}, \"bus_off_recoveries\": {}, \"unrecovered_bus_off\": {}, \"mean_latency_us\": {:.1}, \"recovery_count\": {}, \"mean_recovery_us\": {:.1}, \"max_recovery_us\": {:.1}, \"state_age_count\": {}, \"state_age_mean_us\": {:.1}, \"state_age_p99_us\": {:.1}, \"state_age_max_us\": {:.1}}}{}\n",
            r.nodes,
            r.level,
            r.corruption,
            r.jobs_completed,
            r.deadline_misses,
            r.misses_fault,
            r.misses_overload,
            r.misses_unknown,
            r.frames_sent,
            r.frames_delivered,
            r.frames_dropped,
            r.frames_in_flight,
            r.state_overwrites,
            r.frames_lost_offline,
            r.error_frames,
            r.retransmissions,
            r.babble_frames,
            r.bus_off_events,
            r.bus_off_recoveries,
            r.unrecovered_bus_off,
            r.mean_latency_us,
            r.recovery_count,
            r.mean_recovery_us,
            r.max_recovery_us,
            r.state_age_count,
            r.state_age_mean_us,
            r.state_age_p99_us,
            r.state_age_max_us,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    s.push_str("]\n}\n");
    s
}

/// The CI regression gate, on absolute (deterministic) values:
///
/// - every bus-off node must have recovered by the horizon;
/// - the miss rate of every run must stay under `params.max_miss_rate`;
/// - frame accounting must balance at every level:
///   `sent == delivered + dropped + in_flight`;
/// - every run must actually observe state-message reads (the
///   staleness instrumentation cannot silently disappear);
/// - per cluster size, the p99 data age under `noise` must stay within
///   2× the `none` baseline;
/// - the `none` level must be perfectly clean (no misses, no drops,
///   no error signalling).
///
/// Returns the per-run verdict lines and whether anything failed.
pub fn gate(params: &FaultParams, runs: &[FaultRun]) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut failed = false;
    for r in runs {
        let mut bad = Vec::new();
        if r.unrecovered_bus_off > 0 {
            bad.push(format!("{} node(s) stuck bus-off", r.unrecovered_bus_off));
        }
        if r.miss_rate() > params.max_miss_rate {
            bad.push(format!(
                "miss rate {:.3} over limit {:.3}",
                r.miss_rate(),
                params.max_miss_rate
            ));
        }
        if r.frames_sent != r.frames_delivered + r.frames_dropped + r.frames_in_flight {
            bad.push(format!(
                "frame accounting leak: sent {} != delivered {} + dropped {} + in-flight {}",
                r.frames_sent, r.frames_delivered, r.frames_dropped, r.frames_in_flight
            ));
        }
        if r.state_age_count == 0 {
            bad.push("no state-message reads observed".into());
        }
        if r.level == "noise" {
            if let Some(base) = runs
                .iter()
                .find(|b| b.nodes == r.nodes && b.level == "none")
            {
                if base.state_age_p99_us > 0.0 && r.state_age_p99_us > 2.0 * base.state_age_p99_us {
                    bad.push(format!(
                        "p99 data age {:.0} us over 2x clean baseline {:.0} us",
                        r.state_age_p99_us, base.state_age_p99_us
                    ));
                }
            }
        }
        if r.level == "none"
            && (r.deadline_misses > 0 || r.frames_dropped > 0 || r.error_frames > 0)
        {
            bad.push("control level not clean".into());
        }
        failed |= !bad.is_empty();
        lines.push(format!(
            "faults n{} {}: {}",
            r.nodes,
            r.level,
            if bad.is_empty() {
                "ok".into()
            } else {
                format!("FAIL ({})", bad.join("; "))
            }
        ));
    }
    (lines, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_runs() -> (FaultParams, Vec<FaultRun>) {
        let params = FaultParams {
            nodes: vec![8],
            levels: LEVELS.to_vec(),
            horizon: Time::from_ms(60),
            seed: 0xFA17,
            max_miss_rate: 0.05,
        };
        let runs = run(&params);
        (params, runs)
    }

    #[test]
    fn control_level_is_clean_and_faulted_levels_signal_errors() {
        let (params, runs) = quick_runs();
        let none = runs.iter().find(|r| r.level == "none").unwrap();
        assert_eq!(none.deadline_misses, 0);
        assert_eq!(none.error_frames, 0);
        assert_eq!(none.frames_dropped, 0);
        let noise = runs.iter().find(|r| r.level == "noise").unwrap();
        assert!(noise.error_frames > 0, "2% corruption must flag frames");
        assert!(
            noise.retransmissions > 0,
            "flagged frames must retransmit: {noise:?}"
        );
        let (lines, failed) = gate(&params, &runs);
        assert!(!failed, "{lines:?}");
    }

    #[test]
    fn every_level_conserves_frames_and_records_data_age() {
        let (_, runs) = quick_runs();
        for r in &runs {
            assert_eq!(
                r.frames_sent,
                r.frames_delivered + r.frames_dropped + r.frames_in_flight,
                "frame accounting leak at n{} {}: {r:?}",
                r.nodes,
                r.level
            );
            assert!(
                r.state_age_count > 0,
                "control laws must consume state messages at n{} {}",
                r.nodes,
                r.level
            );
            assert!(
                r.state_age_mean_us > 0.0 && r.state_age_max_us >= r.state_age_mean_us,
                "data age stats must be coherent: {r:?}"
            );
        }
    }

    #[test]
    fn gate_flags_frame_accounting_leak() {
        let (params, mut runs) = quick_runs();
        runs[0].frames_in_flight += 1;
        let (lines, failed) = gate(&params, &runs);
        assert!(failed, "{lines:?}");
    }

    #[test]
    fn gate_flags_staleness_blowup_under_noise() {
        let (params, mut runs) = quick_runs();
        let idx = runs.iter().position(|r| r.level == "noise").unwrap();
        runs[idx].state_age_p99_us *= 100.0;
        let (lines, failed) = gate(&params, &runs);
        assert!(failed, "{lines:?}");
    }

    #[test]
    fn gate_flags_dirty_control() {
        let (params, mut runs) = quick_runs();
        runs[0].deadline_misses = 3;
        let (lines, failed) = gate(&params, &runs);
        assert!(failed, "{lines:?}");
    }

    #[test]
    fn json_has_no_host_dependent_fields() {
        let (params, runs) = quick_runs();
        let json = to_json(&params, &runs);
        assert!(!json.contains("wall_ms"));
        assert!(!json.contains("host_parallelism"));
        assert!(json.contains("\"experiment\": \"faults\""));
        // Deterministic: a second run serializes identically.
        let runs2 = run(&params);
        assert_eq!(json, to_json(&params, &runs2));
    }
}
