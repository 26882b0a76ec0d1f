//! Host-speed calibration.
//!
//! On a shared host the same run can take up to twice as long: a
//! neighbour's virtual CPU shares the physical core, and code that keeps
//! many independent operations in flight, as the simulator does, loses
//! a large share of its pipeline slots. The neighbour comes and goes
//! within a second, and stays busy or idle for minutes. No repetition
//! inside one run removes that. The benchmark therefore times a short
//! fixed workload of its own after every chunk of set-up builds and
//! after every ~25 ms of the timed run, and reports host times rescaled
//! to the speed that workload has on the reference host.
//!
//! The calibration workload depends on nothing in the repository, so a
//! change to the program cannot move it. Like the simulator it is
//! throughput-bound: eight independent xorshift streams, each reading
//! and updating a 64 KiB table behind a data-dependent branch. A
//! latency-bound workload (a pointer chase) barely notices the
//! neighbour and under-corrects by up to 1.5×. The loop keeps more
//! operations in flight than the simulator, though, so it loses more to
//! the neighbour; [`SENSITIVITY`] scales that down.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one [`sample`] takes on the reference host
/// (2-core x86-64 VM) when no neighbour is busy.
pub const NOMINAL_S: f64 = 0.000_96;

/// The simulator's slowdown as a power of the loop's. Over 80 runs of
/// the five workloads on a noisy host, rescaling by the loop's slowdown
/// raised to 0.8 left the least spread between runs (worst workload
/// 4.7 % of the median, against 10.3 % at 1.0 and 6.1 % at 0.7).
const SENSITIVITY: f64 = 0.8;

const TABLE: usize = 1 << 14;
const STEPS: usize = 100_000;
const SEEDS: [u64; 8] = [
    0x9E37_79B9_7F4A_7C15,
    0xBF58_476D_1CE4_E5B9,
    0x94D0_49BB_1331_11EB,
    0x2545_F491_4F6C_DD1D,
    0xD6E8_FEB8_6659_FD93,
    0xA076_1D64_78BD_642F,
    0xE703_7ED1_A0B4_28DB,
    0x8EBC_6AF0_9C88_C6E3,
];

pub struct Calibrator {
    table: Vec<u32>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            table: vec![1; TABLE],
        }
    }

    /// How much slower than the reference host this host runs the
    /// simulator just now (above 1 is slower), judged from one sample of
    /// the calibration workload.
    pub fn slowdown(&mut self) -> f64 {
        (sample(&mut self.table) / NOMINAL_S).powf(SENSITIVITY)
    }
}

/// Runs the calibration workload once (the same work every time);
/// returns its wall seconds. Refilling the table first also brings it
/// back into cache, so what the run did before does not show.
fn sample(table: &mut [u32]) -> f64 {
    table.fill(1);
    let t0 = Instant::now();
    let mut streams = SEEDS;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        for s in &mut streams {
            let mut x = *s;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & (TABLE - 1);
            let v = table[i];
            if v & 1 == 0 {
                table[i] = v.wrapping_add(x as u32);
            } else {
                acc = acc.wrapping_add(u64::from(v) * 3);
            }
            *s = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(v);
        }
    }
    black_box((acc, streams));
    t0.elapsed().as_secs_f64()
}
