//! `dgemm-ladder compare a.json b.json`: one row per (end-to-end
//! metric, workload) with both values, the ratio with its base, the
//! bound, and a verdict. A file is one run record or a set of them
//! (`{"runs":[...]}`, what `run.sh` writes).

use crate::json::{self, Value};
use crate::END_TO_END;
use std::process::ExitCode;

fn runs(doc: &Value) -> Vec<&Value> {
    match doc.get("runs") {
        Some(runs) => runs.as_arr().iter().collect(),
        None => vec![doc],
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn workload_of(run: &Value) -> &str {
    run.get("workload").and_then(Value::as_str).unwrap_or("?")
}

fn metric(run: &Value, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn is_noisy(run: &Value) -> bool {
    run.get("noise")
        .and_then(|n| n.get("noisy"))
        .and_then(Value::as_bool)
        .unwrap_or(false)
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's
/// own direction (negative when `b` is better).
pub fn worsening(better: &str, a: f64, b: f64) -> f64 {
    if better == "lower" {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// `ok` within the bound; beyond it `noisy` when either run was flagged
/// noisy (the comparison is unresolved, not lost), else `worse`.
pub fn verdict(worsening: f64, bound: f64, noisy: bool) -> &'static str {
    // `!(<=)`, so a missing value (NaN) is never `ok`.
    if worsening <= bound {
        "ok"
    } else if noisy {
        "noisy"
    } else {
        "worse"
    }
}

/// The per-operation counters, which must repeat exactly between two
/// runs of one commit (totals vary: run length is set in seconds).
fn exact_counters(run: &Value) -> Vec<(String, Value)> {
    run.get("details")
        .and_then(|d| d.get("counters"))
        .map(Value::as_obj)
        .unwrap_or_default()
        .iter()
        .filter(|(k, _)| k.ends_with("_per_op"))
        .cloned()
        .collect()
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let (doc_a, doc_b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::from(2);
        }
    };
    println!("a = {path_a}\nb = {path_b}   (ratio = b / a, base a)");
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "b/a", "bound"
    );
    let (mut rows, mut worse) = (0, 0);
    for run_a in runs(&doc_a) {
        let name = workload_of(run_a);
        let Some(run_b) = runs(&doc_b).into_iter().find(|r| workload_of(r) == name) else {
            println!("{name:<14} only in a");
            continue;
        };
        let noisy = is_noisy(run_a) || is_noisy(run_b);
        for &(metric_name, _, better, bound) in END_TO_END {
            let a = metric(run_a, metric_name).unwrap_or(f64::NAN);
            let b = metric(run_b, metric_name).unwrap_or(f64::NAN);
            let v = verdict(worsening(better, a, b), bound, noisy);
            worse += usize::from(v == "worse");
            rows += 1;
            println!(
                "{name:<14} {metric_name:<16} {a:>14.6} {b:>14.6} {:>8.4} {bound:>6.2}  {v}",
                b / a
            );
        }
        let clock = |run: &Value| {
            run.get("noise")
                .and_then(|n| n.get("clock_ns_per_step"))
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN)
        };
        println!(
            "{name:<14} clock index b/a {:.4} (ns per step; above 1, b ran on a slower clock)",
            clock(run_b) / clock(run_a)
        );
        let same = exact_counters(run_a) == exact_counters(run_b);
        println!(
            "{name:<14} exact per-operation counters {}",
            if same { "identical" } else { "DIFFER" }
        );
        for (label, run) in [("a", run_a), ("b", run_b)] {
            if run.get("quick").and_then(Value::as_bool) == Some(true) {
                println!("{name:<14} {label} is a quick run: not comparable");
            }
        }
    }
    println!("{rows} rows, {worse} worse");
    if rows == 0 {
        eprintln!("no workload appears in both files");
        return ExitCode::from(2);
    }
    if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening("lower", 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening("higher", 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening("higher", 10.0, 12.0) < 0.0);
    }

    #[test]
    fn verdicts() {
        assert_eq!(verdict(0.05, 0.10, false), "ok");
        assert_eq!(verdict(-0.30, 0.10, true), "ok");
        assert_eq!(verdict(0.11, 0.10, false), "worse");
        assert_eq!(verdict(0.11, 0.10, true), "noisy");
        assert_eq!(verdict(f64::NAN, 0.10, false), "worse");
    }
}
