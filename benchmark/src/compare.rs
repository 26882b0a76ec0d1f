//! `benchmark compare` and `benchmark baseline`, over result files the
//! suite mode writes (`target/benchmark/results.json`).
//!
//! Comparison rule, per (workload, end-to-end metric), over pairs of
//! parent and change runs made alternately:
//!
//! - **improved** — at least ten pairs, the change wins at least nine
//!   tenths of them (ties count for neither side), and the medians
//!   differ by more than the parent's own interquartile range;
//! - **unresolved** — otherwise, when the parent's interquartile range
//!   is wider than the metric's bound, unless every change run beats
//!   every parent run;
//! - **regressed** — otherwise, when the change's median is worse than
//!   the parent's by more than the bound;
//! - **unchanged** — otherwise.
//!
//! A workload whose share of failed operations grew is flagged too.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::metrics::BENCHMARK_JSON;
use crate::stats::{median, quartiles, spread};

/// One declared end-to-end metric.
pub struct Decl {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub fn declared_end_to_end() -> Vec<Decl> {
    let doc = json::parse(BENCHMARK_JSON).expect("the compiled-in BENCHMARK.json parses");
    doc.get("end_to_end")
        .map(Value::as_array)
        .unwrap_or_default()
        .iter()
        .map(|e| Decl {
            name: e.get("name").and_then(Value::as_str).unwrap_or("").into(),
            lower_is_better: e.get("better").and_then(Value::as_str) == Some("lower"),
            bound: e.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Minimum pairs before a gain can be claimed.
pub const MIN_PAIRS: usize = 10;

/// Applies the comparison rule to one metric. `parent[i]` and
/// `change[i]` form pair `i`. Returns the verdict and the change's win
/// fraction.
pub fn judge(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> (Verdict, f64) {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    let win_frac = if pairs == 0 {
        0.0
    } else {
        wins as f64 / pairs as f64
    };
    let (mp, mc) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let worse_by = if lower_is_better { mc - mp } else { mp - mc };
    let worse_share = if mp == 0.0 {
        if worse_by > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        worse_by / mp.abs()
    };
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let verdict =
        if pairs >= MIN_PAIRS && win_frac >= 0.9 && better(mc, mp) && (mc - mp).abs() > q3 - q1 {
            Verdict::Improved
        } else if spread(parent) > bound && !all_better {
            Verdict::Unresolved
        } else if worse_share > bound {
            Verdict::Regressed
        } else {
            Verdict::Unchanged
        };
    (verdict, win_frac)
}

/// Values per (workload, metric), and summed (attempted, failed) per
/// workload, over a set of result files.
#[derive(Default)]
struct Side {
    values: BTreeMap<(String, String), Vec<f64>>,
    ops: BTreeMap<String, (f64, f64)>,
}

fn load(paths: &[String]) -> Result<(Side, Vec<Value>), String> {
    let mut side = Side::default();
    let mut docs = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let workloads = doc
            .get("workloads")
            .ok_or_else(|| format!("{path}: no \"workloads\" object"))?;
        for (w, result) in workloads.members() {
            for (name, metric) in result
                .get("metrics")
                .map(Value::members)
                .unwrap_or_default()
            {
                if let Some(v) = metric.get("value").and_then(Value::as_f64) {
                    side.values
                        .entry((w.clone(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
            let ops = side.ops.entry(w.clone()).or_default();
            ops.0 += result
                .get("attempted")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            ops.1 += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        }
        docs.push(doc);
    }
    Ok((side, docs))
}

/// Compares two sets of result files; returns the report and whether
/// anything regressed.
pub fn compare(parents: &[String], changes: &[String]) -> Result<(String, bool), String> {
    let (p, _) = load(parents)?;
    let (c, _) = load(changes)?;
    let decls = declared_end_to_end();
    let mut out = String::new();
    let mut bad = false;
    let pairs = parents.len().min(changes.len());
    if pairs < MIN_PAIRS {
        out.push_str(&format!(
            "note: {pairs} pairs; at least {MIN_PAIRS} are needed before a gain can be claimed\n"
        ));
    }
    out.push_str(&format!(
        "{:<14} {:<22} {:>38} {:>38} {:>6}  verdict\n",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    ));
    let workloads: Vec<&String> = p.ops.keys().collect();
    for w in workloads {
        for d in &decls {
            let key = (w.clone(), d.name.clone());
            let (Some(pv), Some(cv)) = (p.values.get(&key), c.values.get(&key)) else {
                continue;
            };
            let (verdict, wins) = judge(pv, cv, d.lower_is_better, d.bound);
            bad |= verdict == Verdict::Regressed;
            let fmt = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.6} [{:.6}, {:.6}]", median(v), q1, q3)
            };
            out.push_str(&format!(
                "{:<14} {:<22} {:>38} {:>38} {:>5.0}%  {}\n",
                w,
                d.name,
                fmt(pv),
                fmt(cv),
                wins * 100.0,
                verdict.label()
            ));
        }
        let share =
            |ops: Option<&(f64, f64)>| ops.map_or(0.0, |&(a, f)| if a > 0.0 { f / a } else { 0.0 });
        let (sp, sc) = (share(p.ops.get(w)), share(c.ops.get(w)));
        let worse = sc > sp;
        bad |= worse;
        out.push_str(&format!(
            "{:<14} {:<22} parent {:.6} change {:.6}  {}\n",
            w,
            "ops_failed/ops",
            sp,
            sc,
            if worse { "MORE FAILURES" } else { "ok" }
        ));
    }
    Ok((out, bad))
}

/// Summarises repeated suite runs of one commit as the recorded
/// baseline: median, quartiles and spread per (workload, end-to-end
/// metric). A metric whose spread exceeds its bound is marked
/// `"gated": false`: this host cannot resolve a change of that size.
pub fn baseline(paths: &[String]) -> Result<String, String> {
    let (side, docs) = load(paths)?;
    let field = |k: &str| {
        docs.first()
            .and_then(|d| d.get(k))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let decls = declared_end_to_end();
    let mut out = format!(
        "{{\n  \"runs\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"nproc\": {},\n  \"host_parallelism\": {},\n  \"workloads\": {{",
        paths.len(),
        json::num(field("seed")),
        json::num(field("seconds")),
        json::num(field("nproc")),
        json::num(field("host_parallelism")),
    );
    let workloads: Vec<&String> = side.ops.keys().collect();
    for (wi, w) in workloads.iter().enumerate() {
        out.push_str(&format!(
            "{}\n    {}: {{",
            if wi > 0 { "," } else { "" },
            json::quote(w)
        ));
        let mut first = true;
        for d in &decls {
            let Some(v) = side.values.get(&((*w).clone(), d.name.clone())) else {
                continue;
            };
            let (q1, q3) = quartiles(v);
            let s = spread(v);
            out.push_str(&format!(
                "{}\n      {}: {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"iqr_frac\": {}, \"bound\": {}, \"gated\": {}}}",
                if first { "" } else { "," },
                json::quote(&d.name),
                json::num(median(v)),
                json::num(q1),
                json::num(q3),
                json::num(s),
                json::num(d.bound),
                s <= d.bound
            ));
            first = false;
        }
        out.push_str("\n    }");
    }
    out.push_str("\n  }\n}\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center * (1.0 + jitter * ((i % 5) as f64 - 2.0) / 2.0))
            .collect()
    }

    #[test]
    fn clear_gain_is_improved() {
        let parent = around(100.0, 0.01, 10);
        let change = around(90.0, 0.01, 10);
        let (v, wins) = judge(&parent, &change, true, 0.1);
        assert_eq!(v, Verdict::Improved);
        assert_eq!(wins, 1.0);
        // Higher-is-better mirrors it.
        let (v, _) = judge(&change, &parent, false, 0.1);
        assert_eq!(v, Verdict::Improved);
    }

    #[test]
    fn gain_needs_ten_pairs_and_nine_tenths_wins() {
        let (v, _) = judge(&around(100.0, 0.01, 9), &around(90.0, 0.01, 9), true, 0.1);
        assert_eq!(v, Verdict::Unchanged);
        // Eight wins of ten: not a gain, and within the bound.
        let parent = around(100.0, 0.01, 10);
        let mut change = around(97.0, 0.01, 10);
        change[0] = 200.0;
        change[1] = 200.0;
        let (v, wins) = judge(&parent, &change, true, 0.1);
        assert_eq!(wins, 0.8);
        assert_eq!(v, Verdict::Unchanged);
    }

    #[test]
    fn slowdown_beyond_the_bound_regresses() {
        let parent = around(100.0, 0.01, 10);
        let change = around(120.0, 0.01, 10);
        assert_eq!(judge(&parent, &change, true, 0.1).0, Verdict::Regressed);
        assert_eq!(judge(&parent, &change, true, 0.25).0, Verdict::Unchanged);
        // For a higher-is-better metric the same numbers are a gain.
        assert_eq!(judge(&parent, &change, false, 0.1).0, Verdict::Improved);
    }

    #[test]
    fn wide_parent_spread_is_unresolved_unless_every_run_wins() {
        let parent = around(100.0, 0.4, 10);
        let change = around(110.0, 0.01, 10);
        assert_eq!(judge(&parent, &change, true, 0.1).0, Verdict::Unresolved);
        let far = around(10.0, 0.01, 10);
        assert_eq!(judge(&parent, &far, true, 0.1).0, Verdict::Improved);
    }

    #[test]
    fn identical_virtual_values_are_unchanged() {
        let v = vec![0.0123; 10];
        assert_eq!(judge(&v, &v, true, 0.01), (Verdict::Unchanged, 0.0));
        let moved = vec![0.0124; 10];
        assert_eq!(judge(&v, &moved, true, 0.001).0, Verdict::Regressed);
    }
}
