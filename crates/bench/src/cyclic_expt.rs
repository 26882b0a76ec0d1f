//! Ablation CY — the cyclic-executive baseline (§5's opening).
//!
//! Quantifies the three §5 motivations for abandoning cyclic
//! time-slice scheduling:
//!
//! 1. dispatch-table memory for harmonic vs mixed vs relatively prime
//!    period sets (vs the kernel's ~tens of bytes of queue state);
//! 2. worst-case response time of an aperiodic request served in
//!    background by the cyclic executive, against the same request as
//!    an IRQ-driven sporadic task under CSD on the live kernel;
//! 3. workloads the table builder rejects that CSD accepts.

use emeralds_core::kernel::{IrqAction, KernelBuilder, KernelConfig};
use emeralds_core::script::{Action, Script};
use emeralds_core::SchedPolicy;
use emeralds_hal::CostModel;
use emeralds_sched::cyclic::{build_schedule, CyclicError};
use emeralds_sched::{Task, TaskSet};
use emeralds_sim::{Duration, IrqLine, Time};

fn ms(v: u64) -> Duration {
    Duration::from_ms(v)
}

/// The three workload classes of the comparison.
pub fn workloads() -> Vec<(&'static str, TaskSet)> {
    let set = |spec: &[(u64, u64)]| {
        TaskSet::new(
            spec.iter()
                .enumerate()
                .map(|(i, &(p, c))| Task::new(i, ms(p), Duration::from_us(c)))
                .collect(),
        )
    };
    vec![
        (
            "harmonic (10/20/40/80 ms)",
            set(&[(10, 2_000), (20, 3_000), (40, 6_000), (80, 9_000)]),
        ),
        (
            "mixed (10/25/60/150 ms)",
            set(&[(10, 2_000), (25, 4_000), (60, 8_000), (150, 12_000)]),
        ),
        (
            "prime (7/11/13/17 ms)",
            set(&[(7, 800), (11, 900), (13, 900), (17, 1_000)]),
        ),
    ]
}

/// One comparison row.
#[derive(Clone, Debug)]
pub struct CyclicRow {
    pub name: &'static str,
    /// Frames and table bytes, or the failure.
    pub table: Result<(usize, usize), CyclicError>,
    /// Worst-case background aperiodic response (1 ms request), if the
    /// table built.
    pub cyclic_aperiodic_us: Option<f64>,
    /// Measured response of the same request as an IRQ-driven sporadic
    /// under CSD-2 on the live kernel.
    pub csd_aperiodic_us: f64,
}

/// Measures the CSD response of a 1 ms aperiodic request fired into a
/// running system at several nasty offsets; returns the worst.
fn csd_aperiodic_response(ts: &TaskSet) -> f64 {
    let mut worst = Duration::ZERO;
    for offset_us in [0u64, 1_500, 4_200, 9_100] {
        let mut b = KernelBuilder::new(KernelConfig {
            policy: SchedPolicy::Csd {
                boundaries: vec![1],
            },
            record_trace: false,
            ..KernelConfig::default()
        });
        let p = b.add_process("w");
        let line = IrqLine(6);
        let fired = Time::from_ms(20) + Duration::from_us(offset_us);
        {
            let board = b.board_mut();
            let dev = board.add_sensor(Some(line));
            board.schedule_sample(fired, dev, 1);
        }
        let go = b.add_counting_sem(1);
        b.on_irq(line, IrqAction::ReleaseSem(go));
        // The aperiodic handler: 1 ms of work per request, ranked like
        // a 5 ms task (top of the DP queue).
        let handler = b.add_driver_task(
            p,
            "aperiodic",
            ms(5),
            Script::looping(vec![Action::AcquireSem(go), Action::Compute(ms(1))]),
        );
        for t in ts.tasks() {
            b.add_periodic_task(
                p,
                format!("t{}", t.id),
                t.period,
                Script::compute_only(t.wcet),
            );
        }
        let mut k = b.build();
        // Drain the counting semaphore's initial permit before the
        // measurement window.
        k.run_until(fired);
        let cpu_before = k.tcb(handler).cpu_time;
        k.run_until(fired + ms(50));
        // Response = first instant the handler accumulated 1 ms after
        // the firing; approximate from the trace-free stats by binary
        // refinement.
        let mut lo = Duration::ZERO;
        let mut hi = ms(50);
        // (Re-run with shrinking horizons; the kernel is cheap.)
        for _ in 0..12 {
            let mid = (lo + hi) / 2;
            let mut k2 = rebuild(ts, fired);
            k2.run_until(fired + mid);
            let done = k2.tcb(handler).cpu_time >= cpu_before + ms(1);
            if done {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        worst = worst.max(hi);
    }
    worst.as_us_f64()
}

/// Rebuilds the measurement kernel (deterministic, so repeated builds
/// agree exactly).
fn rebuild(ts: &TaskSet, fired: Time) -> emeralds_core::Kernel {
    let mut b = KernelBuilder::new(KernelConfig {
        policy: SchedPolicy::Csd {
            boundaries: vec![1],
        },
        record_trace: false,
        ..KernelConfig::default()
    });
    let p = b.add_process("w");
    let line = IrqLine(6);
    {
        let board = b.board_mut();
        let dev = board.add_sensor(Some(line));
        board.schedule_sample(fired, dev, 1);
    }
    let go = b.add_counting_sem(1);
    b.on_irq(line, IrqAction::ReleaseSem(go));
    b.add_driver_task(
        p,
        "aperiodic",
        ms(5),
        Script::looping(vec![Action::AcquireSem(go), Action::Compute(ms(1))]),
    );
    for t in ts.tasks() {
        b.add_periodic_task(
            p,
            format!("t{}", t.id),
            t.period,
            Script::compute_only(t.wcet),
        );
    }
    b.build()
}

/// Computes the full comparison.
pub fn compute() -> Vec<CyclicRow> {
    let _ = CostModel::mc68040_25mhz();
    workloads()
        .into_iter()
        .map(|(name, ts)| {
            let table = build_schedule(&ts, 4_096).map(|s| (s.frame_count(), s.table_bytes()));
            let cyclic_aperiodic_us = build_schedule(&ts, 4_096).ok().map(|s| {
                let r = s.aperiodic_response_background(ms(1));
                if r == Duration::MAX {
                    f64::INFINITY
                } else {
                    r.as_us_f64()
                }
            });
            let csd_aperiodic_us = csd_aperiodic_response(&ts);
            CyclicRow {
                name,
                table,
                cyclic_aperiodic_us,
                csd_aperiodic_us,
            }
        })
        .collect()
}

/// Renders the report.
pub fn render(rows: &[CyclicRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "Cyclic executive vs CSD (the §5 motivation, quantified)\n\
         dispatch table cap: 4096 frames; aperiodic request: 1 ms of work\n\n",
    );
    out.push_str(&format!(
        "{:<28} {:>18} {:>16} {:>14}\n",
        "workload", "cyclic table", "cyclic aper us", "CSD aper us"
    ));
    for r in rows {
        let table = match &r.table {
            Ok((frames, bytes)) => format!("{frames} frames/{bytes}B"),
            Err(CyclicError::TableTooLarge { frames, .. }) => {
                format!("REJECT ({frames} fr)")
            }
            Err(e) => format!("REJECT ({e:?})"),
        };
        let cy = r
            .cyclic_aperiodic_us
            .map(|v| {
                if v.is_infinite() {
                    "never".into()
                } else {
                    format!("{v:.0}")
                }
            })
            .unwrap_or_else(|| "-".into());
        out.push_str(&format!(
            "{:<28} {:>18} {:>16} {:>14.0}\n",
            r.name, table, cy, r.csd_aperiodic_us
        ));
    }
    out.push_str(
        "\nCSD serves the aperiodic at top dynamic priority — response ~ its own\n\
         1 ms of work plus interference; the cyclic executive makes it wait for\n\
         frame slack (§5: \"poor response-time\").\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_builds_and_csd_response_is_tight() {
        let rows = compute();
        let harmonic = &rows[0];
        assert!(harmonic.table.is_ok());
        // CSD response: ~1 ms of work plus bounded interference.
        assert!(
            harmonic.csd_aperiodic_us < 4_000.0,
            "CSD response {}",
            harmonic.csd_aperiodic_us
        );
        // And clearly better than background service in the cyclic
        // executive.
        let cy = harmonic.cyclic_aperiodic_us.unwrap();
        assert!(
            cy > harmonic.csd_aperiodic_us,
            "cyclic {cy} vs csd {}",
            harmonic.csd_aperiodic_us
        );
    }

    #[test]
    fn prime_periods_reject_or_blow_up() {
        let rows = compute();
        let prime = &rows[2];
        match &prime.table {
            Ok((frames, bytes)) => {
                assert!(
                    *frames > 500 || *bytes > 2_000,
                    "{frames} frames / {bytes}B"
                );
            }
            Err(CyclicError::TableTooLarge { .. }) => {}
            Err(e) => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn render_has_all_rows() {
        let rows = compute();
        let s = render(&rows);
        assert!(s.contains("harmonic"));
        assert!(s.contains("prime"));
    }
}
