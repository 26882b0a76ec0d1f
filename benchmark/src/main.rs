//! The repository benchmark. See `README.md` beside this crate for the
//! metrics, the workloads and how to run, trace and compare.
//!
//! ```text
//! benchmark [--seed N] [--seconds S] [--quick] [--traced]
//!     run all five workloads, each in a child process of its own
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//!     run one workload in this process; the last stdout line is JSON
//! benchmark compare PARENT.json... -- CHANGE.json...
//! benchmark baseline RESULTS.json...
//! ```

mod calib;
mod compare;
mod json;
mod metrics;
mod run;
mod stats;
mod workloads;

use std::path::Path;
use std::process::{Command, ExitCode};

use run::{Outcome, Plan};
use workloads::{Spec, WORKLOADS};

/// Seed used when `--seed` is absent; input digests are pinned at it.
const DEFAULT_SEED: u64 = 1;
/// Timed wall seconds per workload when `--seconds` is absent (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 10.0;
/// `--quick` runs this share of the horizon.
const QUICK_DIVISOR: f64 = 20.0;
/// Where result, baseline and trace files go.
const OUT_DIR: &str = "target/benchmark";

/// `input_digest` of each workload at [`DEFAULT_SEED`]. The build functions
/// live outside this crate; a changed digest means a change there
/// altered the generated workload, so results stop being comparable.
const PINNED_DIGESTS: [(&str, u64); 5] = [
    ("kernel_solo", 0x53b5_53c9_7a95_7e3d),
    ("sc_busy", 0x94ff_ed4e_936b_02e5),
    ("sc_quiet", 0x8961_a7c4_ef00_e54d),
    // The FT cluster draws the same task timings as SC busy.
    ("ft_corrupt", 0x94ff_ed4e_936b_02e5),
    ("topo_plant10k", 0xc759_61bb_2874_9a74),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    traced: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        traced: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => a.quick = true,
            "--traced" => a.traced = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &a.workload {
        if workloads::spec(w).is_none() {
            let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
            return Err(format!(
                "unknown workload {w:?}; known: {}",
                names.join(", ")
            ));
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("compare") => cmd_compare(&argv[1..]),
        Some("baseline") => compare::baseline(&argv[1..]).map(|s| {
            print!("{s}");
            true
        }),
        _ => parse_args(&argv).and_then(|a| match &a.workload {
            Some(w) => Ok(run_one(workloads::spec(w).expect("validated"), &a)),
            None => run_suite(&a),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: benchmark compare PARENT.json... -- CHANGE.json...")?;
    let (parents, changes) = (&args[..split], &args[split + 1..]);
    if parents.is_empty() || changes.is_empty() {
        return Err("compare needs result files on both sides of --".into());
    }
    let (report, bad) = compare::compare(parents, changes)?;
    print!("{report}");
    Ok(!bad)
}

/// Correctness checks on one run; returns the failures.
fn check(spec: &Spec, seed: u64, o: &Outcome) -> Vec<String> {
    let t = &o.totals;
    let mut bad = Vec::new();
    if !t.conserved {
        bad.push(format!("frame ledger does not balance: {:?}", t.bus));
    }
    if t.unrecovered_bus_off > 0 {
        bad.push(format!(
            "{} node(s) still bus-off at the horizon",
            t.unrecovered_bus_off
        ));
    }
    if t.jobs_completed == 0 {
        bad.push("no job completed".into());
    }
    if spec.name != "kernel_solo" && t.bus.frames_delivered == 0 {
        bad.push("no frame delivered".into());
    }
    if seed == DEFAULT_SEED {
        let pinned = PINNED_DIGESTS
            .iter()
            .find(|(w, _)| *w == spec.name)
            .map(|(_, d)| *d);
        if pinned != Some(o.input_digest) {
            bad.push(format!(
                "input_digest {:016x} differs from the pinned {:016x}: the generated workload changed",
                o.input_digest,
                pinned.unwrap_or(0)
            ));
        }
    }
    // Layer self times plus `unattributed` cover the timed window by
    // construction; this catches child spans overrunning their slice.
    if o.rows.is_some() && o.overrun_frac > 0.02 {
        bad.push(format!(
            "layer spans overran their slices by {:.1} %",
            o.overrun_frac * 100.0
        ));
    }
    bad
}

/// Runs one workload in this process and prints its result.
fn run_one(spec: &Spec, a: &Args) -> bool {
    let seconds = if a.quick {
        a.seconds / QUICK_DIVISOR
    } else {
        a.seconds
    };
    let plan = Plan::new(spec, seconds);
    let (o, tracer) = run::execute(spec, a.seed, &plan, a.trace);
    let mut failures = check(spec, a.seed, &o);
    let list = if a.trace {
        metrics::per_layer(&plan, &o)
    } else {
        metrics::end_to_end(&plan, &o)
    };
    for m in &list {
        println!("{} {} {} {}", spec.name, m.name, json::num(m.value), m.unit);
    }
    let slices = metrics::slice_us(&o);
    if let Some(p) = stats::tail_percentile(slices.len()) {
        println!(
            "# {} slice_us_p{p} {} us over {} slices (informational, not gated)",
            spec.name,
            json::num(stats::percentile(&slices, p)),
            slices.len()
        );
    }
    let raw: Vec<f64> = metrics::block_rates(&plan, &o)
        .iter()
        .zip(o.block_ref_ns.iter().zip(&o.block_ns))
        .map(|(r, (&reference, &ns))| r * reference / ns as f64)
        .collect();
    println!(
        "# {} host slowdown {}; uncalibrated sim_ms_per_s {}",
        spec.name,
        json::num(o.slowdown()),
        json::num(stats::median(&raw))
    );
    println!(
        "# {} horizon_ms {} slices {} warm {} seed {} input_digest {:016x} virtual_digest {:016x}",
        spec.name,
        plan.horizon().as_ms_f64(),
        plan.slices(),
        plan.warm,
        a.seed,
        o.input_digest,
        o.totals.digest()
    );
    if let Some(tr) = tracer {
        print_layer_table(spec, &o);
        let path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", spec.name));
        let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| tr.write(spec.name, &path));
        if let Err(e) = written {
            failures.push(format!("writing {}: {e}", path.display()));
        }
    }
    for f in &failures {
        eprintln!("benchmark: {}: CHECK FAILED: {f}", spec.name);
    }
    let metrics: Vec<String> = list
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                json::num(m.value),
                json::quote(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        o.totals.ops().max(1),
        o.totals.ops_failed(),
        metrics.join(", ")
    );
    failures.is_empty()
}

/// Prints the traced run's self-time rows; they sum to the timed wall.
fn print_layer_table(spec: &Spec, o: &Outcome) {
    let rows = o.rows.unwrap_or_default();
    let wall = o.timed_wall_ns() as f64;
    println!(
        "# {} self time over {:.3} s timed wall:",
        spec.name,
        wall * 1e-9
    );
    for (name, ns) in run::Row::NAMES.iter().zip(rows) {
        println!(
            "#   {name:<18} {:>10.3} ms {:>6.2} %",
            ns as f64 * 1e-6,
            100.0 * ns as f64 / wall.max(1.0)
        );
    }
    println!(
        "#   {:<18} {:>10.3} ms (sum of rows)",
        "total",
        rows.iter().sum::<u64>() as f64 * 1e-6
    );
}

/// One child's parsed result.
struct ChildResult {
    json_line: String,
    doc: json::Value,
    virtual_digest: Option<String>,
}

/// Re-executes this binary for one workload and waits for it.
fn run_child(name: &str, a: &Args, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if a.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("{name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in &lines {
        println!("{l}");
    }
    let doc = json::parse(last).map_err(|e| format!("{name}: no result line ({e})"))?;
    let virtual_digest = lines
        .iter()
        .find_map(|l| l.split("virtual_digest ").nth(1))
        .map(str::to_string);
    Ok(ChildResult {
        json_line: last.to_string(),
        doc,
        virtual_digest,
    })
}

/// Runs every workload, one child process at a time, and writes
/// `target/benchmark/results.json`.
fn run_suite(a: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut overhead = Vec::new();
    for spec in &WORKLOADS {
        let base = run_child(spec.name, a, false)?;
        ok &= base.doc.get("correct").and_then(json::Value::as_bool) == Some(true);
        if a.traced {
            let tr = run_child(spec.name, a, true)?;
            ok &= tr.doc.get("correct").and_then(json::Value::as_bool) == Some(true);
            if tr.virtual_digest != base.virtual_digest {
                eprintln!(
                    "benchmark: {}: CHECK FAILED: traced virtual results differ from untraced",
                    spec.name
                );
                ok = false;
            }
            let rate = |doc: &json::Value, key: &str| {
                doc.get("metrics")
                    .and_then(|m| m.get(key))
                    .and_then(|m| m.get("value"))
                    .and_then(json::Value::as_f64)
                    .unwrap_or(0.0)
            };
            let (u, t) = (
                rate(&base.doc, "sim_ms_per_s"),
                rate(&tr.doc, "trace.sim_ms_per_s"),
            );
            let frac = if u > 0.0 { 1.0 - t / u } else { 0.0 };
            println!(
                "{} trace_overhead_frac {} ratio",
                spec.name,
                json::num(frac)
            );
            overhead.push(format!("{}: {}", json::quote(spec.name), json::num(frac)));
            traced.push(format!("{}: {}", json::quote(spec.name), tr.json_line));
        }
        untraced.push(format!("{}: {}", json::quote(spec.name), base.json_line));
    }
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut doc = format!(
        "{{\n\"seed\": {},\n\"seconds\": {},\n\"quick\": {},\n\"nproc\": {},\n\"host_parallelism\": {host},\n\"correct\": {ok},\n\"workloads\": {{\n{}\n}}",
        a.seed,
        json::num(a.seconds),
        a.quick,
        online_cpus(),
        untraced.join(",\n")
    );
    if a.traced {
        doc.push_str(&format!(
            ",\n\"traced\": {{\n{}\n}},\n\"trace_overhead_frac\": {{{}}}",
            traced.join(",\n"),
            overhead.join(", ")
        ));
    }
    doc.push_str("\n}\n");
    let path = Path::new(OUT_DIR).join("results.json");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, doc))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# results written to {}", path.display());
    Ok(ok)
}

/// CPUs the kernel reports online (`nproc --all`), as opposed to the
/// parallelism this process may use.
fn online_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn default_seconds_is_the_declared_run_length() {
        let doc = json::parse(metrics::BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let declared = doc.get("run_seconds").and_then(json::Value::as_f64);
        assert_eq!(declared, Some(DEFAULT_SECONDS));
    }

    #[test]
    fn parses_the_single_workload_command_line() {
        let a = args("--workload sc_busy --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("sc_busy"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--bogus").is_err());
    }

    fn names(list: &[metrics::Metric]) -> Vec<(String, String)> {
        list.iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    /// A `--quick` untraced and traced run of every workload: identical
    /// virtual results, exactly the declared metrics, passing checks,
    /// and self-time rows that add up to the timed wall.
    #[test]
    fn quick_runs_trace_without_changing_virtual_results() {
        for spec in &WORKLOADS {
            let plan = Plan::new(spec, DEFAULT_SECONDS / QUICK_DIVISOR);
            let (plain, _) = run::execute(spec, DEFAULT_SEED, &plan, false);
            let (traced, tracer) = run::execute(spec, DEFAULT_SEED, &plan, true);
            assert_eq!(plain.totals, traced.totals, "{}", spec.name);
            assert_eq!(plain.input_digest, traced.input_digest);
            assert!(tracer.is_some());
            let failures = check(spec, DEFAULT_SEED, &traced);
            assert!(failures.is_empty(), "{}: {failures:?}", spec.name);
            let rows = traced.rows.expect("traced rows");
            assert_eq!(rows.iter().sum::<u64>(), traced.timed_wall_ns());
            assert_eq!(
                names(&metrics::end_to_end(&plan, &plain)),
                metrics::declared("end_to_end")
            );
            assert_eq!(
                names(&metrics::per_layer(&plan, &traced)),
                metrics::declared("per_layer")
            );
        }
    }
}
