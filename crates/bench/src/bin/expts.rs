//! `expts` — regenerates every table and figure of the EMERALDS paper.
//!
//! ```text
//! expts table1                 # Table 1: scheduler op costs
//! expts fig2                   # Table 2 workload + Figure 2 timeline
//! expts fig3 [--workloads N] [--exhaustive]
//! expts fig4 / fig5            # period divisors 2 and 3
//! expts table3                 # CSD-3 per-case overheads
//! expts fig11                  # DP-queue semaphore overhead
//! expts fig12                  # FP-queue semaphore overhead (§6.4)
//! expts statemsg               # state messages vs mailboxes (§7)
//! expts footprint              # 13 KB kernel claim, object sizes
//! expts searchcost             # exhaustive CSD-3 search timing
//! expts cyclic                 # cyclic-executive baseline (§5 motivation)
//! expts syscalls               # optimized-syscall ablation (§3)
//! expts csdx [--workloads N]   # CSD queue-count sweep (§5.6)
//! expts scale [--nodes 8,16,...] [--out FILE]
//!                              # multi-node cluster scaling → BENCH_scale.json
//! expts faults [--quick] [--nodes 8,16,...] [--out FILE] [--gate]
//!                              # fault injection + recovery → BENCH_faults.json
//! expts topo [--quick] [--out FILE] [--gate]
//!                              # bridged multi-segment topologies → BENCH_topology.json
//! expts all [--workloads N]    # everything above
//! ```
//!
//! A flag the subcommand does not take, a stray argument, or a
//! malformed value (`--nodes` takes a comma list of even node counts
//! of at least 2, `--workloads` a positive integer) exits 2 before
//! anything runs, printing the subcommand's flags.

use emeralds_bench::{
    breakdown_figs, csdx_expt, cyclic_expt, faults_expt, fig2, scale_expt, searchcost, semfig,
    statemsg_expt, syscall_expt, table1, table3, topo_expt,
};
use emeralds_core::footprint;

/// Every subcommand with the flags it takes: `(name, switches, value
/// flags)`. A value flag consumes the next argument.
const COMMANDS: &[(&str, &[&str], &[&str])] = &[
    ("table1", &[], &[]),
    ("fig2", &[], &[]),
    ("fig3", &["--exhaustive"], &["--workloads"]),
    ("fig4", &["--exhaustive"], &["--workloads"]),
    ("fig5", &["--exhaustive"], &["--workloads"]),
    ("table3", &[], &[]),
    ("fig11", &[], &[]),
    ("fig12", &[], &[]),
    ("statemsg", &[], &[]),
    ("footprint", &[], &[]),
    ("searchcost", &[], &[]),
    ("cyclic", &[], &[]),
    ("syscalls", &[], &[]),
    ("csdx", &[], &["--workloads"]),
    ("scale", &[], &["--nodes", "--out"]),
    ("faults", &["--quick", "--gate"], &["--nodes", "--out"]),
    ("topo", &["--quick", "--gate"], &["--out"]),
    ("all", &[], &["--workloads"]),
];

/// The flags one invocation gave: switches, and value flags with their
/// values.
#[derive(Debug, Default)]
struct Flags {
    switches: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
}

impl Flags {
    fn has(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A `--nodes` value: a comma list of even node counts >= 2.
fn node_list(value: &str) -> Option<Vec<usize>> {
    value
        .split(',')
        .map(|v| {
            v.trim()
                .parse()
                .ok()
                .filter(|&n: &usize| n >= 2 && n.is_multiple_of(2))
        })
        .collect()
}

/// A `--workloads` value: a positive count.
fn workload_count(value: &str) -> Option<usize> {
    value.parse().ok().filter(|&w| w > 0)
}

/// What a value flag takes, when `value` is not that.
fn bad_value(flag: &str, value: &str) -> Option<&'static str> {
    match flag {
        "--nodes" if node_list(value).is_none() => Some("a comma list of even node counts >= 2"),
        "--workloads" if workload_count(value).is_none() => Some("a positive integer"),
        _ => None,
    }
}

/// Parses the command line (subcommand first, default `all`) against
/// [`COMMANDS`]. Rejects an unknown subcommand, a flag the subcommand
/// does not take, a stray argument, a value flag with no value, and a
/// malformed `--nodes` or `--workloads` value; the error text ends
/// with the subcommand's flags.
fn parse(args: &[String]) -> Result<(&'static str, Flags), String> {
    let cmd = args.first().map_or("all", String::as_str);
    let Some(&(name, switches, valued)) = COMMANDS.iter().find(|c| c.0 == cmd) else {
        let known: Vec<&str> = COMMANDS.iter().map(|c| c.0).collect();
        return Err(format!(
            "unknown experiment '{cmd}'\nknown: {}",
            known.join(" ")
        ));
    };
    let usage = || {
        let mut u = format!("usage: expts {name}");
        for s in switches {
            u.push_str(&format!(" [{s}]"));
        }
        for v in valued {
            u.push_str(&format!(" [{v} VALUE]"));
        }
        u
    };
    let mut flags = Flags::default();
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if let Some(&s) = switches.iter().find(|&&s| s == arg) {
            flags.switches.push(s);
        } else if let Some(&v) = valued.iter().find(|&&v| v == arg) {
            let Some(value) = rest.next() else {
                return Err(format!("expts {name}: {v} needs a value\n{}", usage()));
            };
            if let Some(takes) = bad_value(v, value) {
                return Err(format!(
                    "expts {name}: {v} takes {takes}, not '{value}'\n{}",
                    usage()
                ));
            }
            flags.values.push((v, value.clone()));
        } else {
            let what = if arg.starts_with('-') {
                "unknown flag"
            } else {
                "unexpected argument"
            };
            return Err(format!("expts {name}: {what} '{arg}'\n{}", usage()));
        }
    }
    Ok((name, flags))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, flags) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let flag = |name: &str| flags.has(name);
    let workloads = || flags.get("--workloads").and_then(workload_count);
    let nodes = || flags.get("--nodes").and_then(node_list);
    let svalue = |name: &str| flags.get(name).map(str::to_owned);

    let run_breakdown = |divisor: u64| {
        let mut params = breakdown_figs::FigParams::figure(divisor);
        if let Some(w) = workloads() {
            params.workloads = w;
        }
        params.exhaustive = flag("--exhaustive");
        let data = breakdown_figs::compute(&params);
        print!("{}", breakdown_figs::render(&data));
        for note in breakdown_figs::shape_findings(&data) {
            println!("  * {note}");
        }
        println!();
    };

    match cmd {
        "table1" => print!("{}", table1::report(&[5, 10, 15, 20, 30, 40, 50])),
        "fig2" => {
            print!("{}", fig2::report());
            write_fig2_sidecars();
        }
        "fig3" => run_breakdown(1),
        "fig4" => run_breakdown(2),
        "fig5" => run_breakdown(3),
        "table3" => print!("{}", table3::report(table3::Shape { q: 5, r: 12, n: 20 })),
        "fig11" => {
            let pts = semfig::sweep(semfig::QueueKind::Dp, (3..=30).step_by(3));
            print!("{}", semfig::render(semfig::QueueKind::Dp, &pts));
        }
        "fig12" => {
            let pts = semfig::sweep(semfig::QueueKind::Fp, (3..=30).step_by(3));
            print!("{}", semfig::render(semfig::QueueKind::Fp, &pts));
        }
        "statemsg" => {
            let pts = statemsg_expt::sweep([4usize, 8, 16, 32, 64, 128, 256]);
            print!("{}", statemsg_expt::render(&pts));
        }
        "footprint" => print!("{}", footprint_report()),
        "searchcost" => {
            let pts = searchcost::sweep(&[10, 20, 40, 60, 80, 100], 2024);
            print!("{}", searchcost::render(&pts));
        }
        "cyclic" => print!("{}", cyclic_expt::render(&cyclic_expt::compute())),
        "csdx" => {
            let w = workloads().unwrap_or(20);
            let pts = csdx_expt::sweep(40, 6, w, 0xC5D);
            print!("{}", csdx_expt::render(&pts));
        }
        "syscalls" => print!("{}", syscall_expt::render(&syscall_expt::compute())),
        "scale" => {
            let mut params = scale_expt::ScaleParams::full();
            if let Some(list) = nodes() {
                params.nodes = list;
            }
            let runs = scale_expt::run(&params);
            print!("{}", scale_expt::render(&runs));
            let out = svalue("--out").unwrap_or_else(|| "BENCH_scale.json".into());
            let json = scale_expt::to_json(&params, &runs);
            match std::fs::write(&out, &json) {
                Ok(()) => println!("wrote {out}"),
                Err(e) => {
                    eprintln!("cannot write {out}: {e}");
                    std::process::exit(1);
                }
            }
        }
        "faults" => {
            let mut params = if flag("--quick") {
                faults_expt::FaultParams::quick()
            } else {
                faults_expt::FaultParams::full()
            };
            if let Some(list) = nodes() {
                params.nodes = list;
            }
            let runs = faults_expt::run(&params);
            print!("{}", faults_expt::render(&runs));
            let out = svalue("--out").unwrap_or_else(|| "BENCH_faults.json".into());
            let json = faults_expt::to_json(&params, &runs);
            match std::fs::write(&out, &json) {
                Ok(()) => println!("wrote {out}"),
                Err(e) => {
                    eprintln!("cannot write {out}: {e}");
                    std::process::exit(1);
                }
            }
            if flag("--gate") {
                let (lines, failed) = faults_expt::gate(&params, &runs);
                for l in &lines {
                    println!("{l}");
                }
                if failed {
                    eprintln!("fault experiment gate failed");
                    std::process::exit(1);
                }
            }
        }
        "topo" => {
            let params = if flag("--quick") {
                topo_expt::TopoParams::quick()
            } else {
                topo_expt::TopoParams::full()
            };
            let runs = topo_expt::run(&params);
            print!("{}", topo_expt::render(&runs));
            let out = svalue("--out").unwrap_or_else(|| "BENCH_topology.json".into());
            let json = topo_expt::to_json(&params, &runs);
            match std::fs::write(&out, &json) {
                Ok(()) => println!("wrote {out}"),
                Err(e) => {
                    eprintln!("cannot write {out}: {e}");
                    std::process::exit(1);
                }
            }
            if flag("--gate") {
                let (lines, failed) = topo_expt::gate(&runs);
                for l in &lines {
                    println!("{l}");
                }
                if failed {
                    eprintln!("topology experiment gate failed");
                    std::process::exit(1);
                }
            }
        }
        "all" => {
            banner("T1  Table 1: scheduler run-time overheads");
            print!("{}", table1::report(&[5, 10, 15, 20, 30, 40, 50]));
            banner("F2  Table 2 workload / Figure 2 schedule");
            print!("{}", fig2::report());
            write_fig2_sidecars();
            banner("F3  breakdown utilization, base periods");
            run_breakdown(1);
            banner("F4  breakdown utilization, periods / 2");
            run_breakdown(2);
            banner("F5  breakdown utilization, periods / 3");
            run_breakdown(3);
            banner("T3  CSD-3 per-case overheads");
            print!("{}", table3::report(table3::Shape { q: 5, r: 12, n: 20 }));
            banner("F11 semaphore overhead, DP queue");
            let pts = semfig::sweep(semfig::QueueKind::Dp, (3..=30).step_by(3));
            print!("{}", semfig::render(semfig::QueueKind::Dp, &pts));
            banner("F12 semaphore overhead, FP queue (§6.4)");
            let pts = semfig::sweep(semfig::QueueKind::Fp, (3..=30).step_by(3));
            print!("{}", semfig::render(semfig::QueueKind::Fp, &pts));
            banner("S7  state messages vs mailboxes (reconstructed)");
            let pts = statemsg_expt::sweep([4usize, 8, 16, 32, 64, 128, 256]);
            print!("{}", statemsg_expt::render(&pts));
            banner("SZ  memory footprint");
            print!("{}", footprint_report());
            banner("CS  CSD-3 partition search cost");
            let pts = searchcost::sweep(&[10, 20, 40, 60, 80, 100], 2024);
            print!("{}", searchcost::render(&pts));
            banner("CY  cyclic executive baseline (§5 motivation)");
            print!("{}", cyclic_expt::render(&cyclic_expt::compute()));
            banner("SY  optimized syscalls ablation (§3)");
            print!("{}", syscall_expt::render(&syscall_expt::compute()));
            banner("CX  CSD queue-count sweep (§5.6)");
            let w = workloads().unwrap_or(20).min(50);
            let pts = csdx_expt::sweep(40, 6, w, 0xC5D);
            print!("{}", csdx_expt::render(&pts));
        }
        other => unreachable!("`parse` admits only the commands in COMMANDS, not {other}"),
    }
}

/// Machine-readable companions to the F2 run: a per-policy
/// `KernelMetrics` sidecar JSON and the RM run's JSONL event trace.
fn write_fig2_sidecars() {
    let dir = std::path::Path::new("target/expts");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("sidecar: cannot create {}: {e}", dir.display());
        return;
    }
    let horizon = emeralds_sim::Time::from_ms(400);
    for policy in [
        emeralds_core::SchedPolicy::RmQueue,
        emeralds_core::SchedPolicy::Edf,
        emeralds_core::SchedPolicy::Csd {
            boundaries: vec![5],
        },
    ] {
        let (k, o) = fig2::run(policy, horizon);
        let path = dir.join(format!(
            "fig2-metrics-{}.json",
            o.policy.to_lowercase().replace('-', "")
        ));
        match std::fs::write(&path, k.metrics().to_json()) {
            Ok(()) => println!("metrics sidecar: {}", path.display()),
            Err(e) => eprintln!("sidecar: cannot write {}: {e}", path.display()),
        }
        if o.policy == "RM" {
            let path = dir.join("fig2-trace-rm.jsonl");
            match std::fs::File::create(&path).and_then(|mut f| k.trace().write_jsonl(&mut f)) {
                Ok(()) => println!("trace sidecar:   {}", path.display()),
                Err(e) => eprintln!("sidecar: cannot write {}: {e}", path.display()),
            }
        }
    }
}

/// Footprint of a representative application: the Table 2 workload's
/// kernel. Every pool block is drawn at build, so its pool counts are
/// final before it runs.
fn footprint_report() -> String {
    let k = fig2::build(emeralds_core::SchedPolicy::Csd {
        boundaries: vec![5],
    });
    footprint::report(&k.pools())
}

fn banner(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}\n", "=".repeat(72));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn flags_a_subcommand_does_not_take_are_rejected() {
        for words in [
            &["topo", "--quick", "--help"][..],
            &["topo", "--baseline", "BENCH_scale.json"],
            &["faults", "--quick", "--gat"],
            &["hotpath"],
            &["table1", "--quick"],
            &["faults", "--gate", "extra"],
            &["scale", "--out"],
            &["scale", "--quick"],
            &["--quick"],
            &["faults", "--quick", "--nodes", "8,x"],
            &["csdx", "--workloads", "2O"],
            &["faults", "--quick", "--nodes", "7"],
        ] {
            let err = parse(&argv(words)).expect_err(&format!("{words:?} was accepted"));
            assert!(
                err.contains("usage: expts") || err.contains("known:"),
                "{words:?}: {err}"
            );
        }
    }

    #[test]
    fn value_flags_consume_their_argument() {
        let (cmd, flags) = parse(&argv(&["scale", "--nodes", "8,16", "--out", "x.json"])).unwrap();
        assert_eq!(cmd, "scale");
        assert_eq!(flags.get("--nodes"), Some("8,16"));
        assert_eq!(flags.get("--out"), Some("x.json"));
        assert!(!flags.has("--quick"));
        // A value that looks like a flag is still the flag's value.
        let (_, flags) = parse(&argv(&["topo", "--out", "--gate"])).unwrap();
        assert_eq!(flags.get("--out"), Some("--gate"));
        assert!(!flags.has("--gate"));
        assert_eq!(parse(&[]).unwrap().0, "all");
    }

    /// Every invocation in the usage block at the top of this file
    /// parses, with well-formed stand-ins for its placeholders (`N`,
    /// `8,16,...`, `FILE`), and the block names every subcommand.
    #[test]
    fn every_flag_in_the_usage_block_is_accepted() {
        let mut named = Vec::new();
        for line in include_str!("expts.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//! expts "))
        {
            let words: Vec<&str> = line
                .split('#')
                .next()
                .unwrap_or_default()
                .split_whitespace()
                .map(|w| w.trim_matches(|c| c == '[' || c == ']'))
                // Placeholders stand for well-formed values.
                .map(|w| {
                    if w == "N" {
                        "20"
                    } else {
                        w.trim_end_matches(",...")
                    }
                })
                .collect();
            let flags_at = words
                .iter()
                .position(|w| w.starts_with("--"))
                .unwrap_or(words.len());
            // `fig4 / fig5` names two subcommands on one line.
            for &cmd in words[..flags_at].iter().filter(|&&w| w != "/") {
                let mut args = vec![cmd];
                args.extend(&words[flags_at..]);
                assert!(parse(&argv(&args)).is_ok(), "usage line rejected: {args:?}");
                named.push(cmd);
            }
        }
        let all: Vec<&str> = COMMANDS.iter().map(|c| c.0).collect();
        assert_eq!(named, all, "usage block and COMMANDS disagree");
    }

    /// The SZ report, byte for byte: the Table 2 kernel's pool counts
    /// (read from its tables) and the host sizes of its objects, as
    /// measured on x86-64.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn footprint_report_is_pinned() {
        let expected = "\
Kernel ROM budget (modeled for MC68040; paper total: 13 KB)
  scheduler (CSD/EDF/RM)                         2200 B
  semaphores + PI + condvars                     1800 B
  IPC (mailboxes, state messages, shm)           2000 B
  threads/processes + syscall entry              2400 B
  timers + clock services                        1300 B
  interrupt handling + kernel device support     1700 B
  memory protection + pools                      1000 B
  misc (boot, tables)                             900 B
  TOTAL                                         13300 B

Kernel object sizes (target model vs host simulation struct)
  TCB                      target  128 B   host  200 B
  semaphore                target   32 B   host   80 B
  condvar                  target   24 B   host   32 B
  mailbox                  target   64 B   host  112 B
  state message (header)   target   32 B   host  152 B

pool          block    cap   peak   reserved   peak RAM
tcb             128     64     10      8192B      1280B
semaphore        32     64      0      2048B         0B
condvar          24     32      0       768B         0B
mailbox          64     32      0      2048B         0B
statemsg         32     64      0      2048B         0B
region           16     64      0      1024B         0B
timer            24    128     10      3072B       240B
total reserved 19200B, peak 1520B
";
        assert_eq!(footprint_report(), expected);
    }
}
