//! `dgemm-ladder`: the benchmark ladder for dgemm-core.
//!
//! ```text
//! dgemm-ladder --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dgemm-ladder compare <a.json> <b.json>
//! ```
//!
//! One invocation measures one workload in one fresh process. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! runs the per-layer probes and a traced/untraced comparison of the
//! workload, and reports the per-layer metrics. Every metric is printed
//! by name with its unit; the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

mod compare;
mod host;
mod inputs;
mod json;
mod layers;
mod spans;
mod stats;
mod workloads;

use json::Value;
use spans::SpanLog;
use stats::Quiet;
use std::process::ExitCode;
use workloads::{Sample, Workload, OUT_DIR, SETUP_REPS};

/// `run_seconds` of `BENCHMARK.json`. A run of another length is marked
/// `quick` and is not comparable with the baselines.
const RUN_SECONDS: f64 = 30.0;

/// `(name, unit, better, bound)` of every end-to-end metric.
/// `BENCHMARK.json` lists the same; a self-test keeps them equal.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("gflops", "GFLOP/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("cpu_s_per_tflop", "s/TFLOP", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.10),
    ("ok_ratio", "ratio", "higher", 0.01),
];

/// Tests that drive the library take this lock: its telemetry counters
/// are process-wide, and `cargo test` runs tests on parallel threads.
#[cfg(test)]
pub static TEST_LIBRARY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: dgemm-ladder --workload <square_serial|square_pool|skinny_fresh|service_reuse> \
                     --seed <n> --seconds <s> --trace <0|1>\n       dgemm-ladder compare <a.json> <b.json>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, RUN_SECONDS, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                    .ok_or_else(|| format!("--seconds must lie in (0, 60], got {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => compare::run(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Hermetic start: a stray tuning variable silently changes what is
    // measured, so refuse to run under any.
    let stray = host::dgemm_env_vars();
    if !stray.is_empty() {
        eprintln!(
            "refusing to run with DGEMM_* variables set: {}",
            stray.join(", ")
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let correct = if args.trace {
        traced_run(&args)
    } else {
        end_to_end_run(&args)
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

type Metric = (&'static str, f64, &'static str);

/// How a run ended: what the driver's result line carries.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Outcome {
    fn absorb(&mut self, sample: &mut Sample) {
        self.attempted += sample.attempted;
        self.failed += sample.failed;
        self.failures.append(&mut sample.failures);
    }

    /// Failed checks that are not operations of a timed region.
    fn add_failures(&mut self, failures: Vec<String>) {
        self.failed += failures.len() as u64;
        self.failures.extend(failures);
    }
}

/// The record of one run: everything needed to compare it later, with
/// the host and revision it came from. `details` holds what only this
/// kind of run has (inputs, sample counts, counters).
fn record(
    kind: &str,
    args: &Args,
    noise: &host::Noise,
    outcome: &Outcome,
    details: Value,
    metrics: &[Metric],
) -> Value {
    json::obj([
        ("schema", json::str(host::SCHEMA)),
        ("kind", json::str(kind)),
        ("workload", json::str(args.workload.name())),
        ("seed", json::count(args.seed)),
        ("seconds", json::num(args.seconds)),
        // A `quick` run measured for another length than BENCHMARK.json
        // sets; its numbers are not comparable with a full run's.
        ("quick", Value::Bool(args.seconds != RUN_SECONDS)),
        ("fingerprint", host::fingerprint()),
        ("noise", noise.to_json()),
        ("attempted", json::count(outcome.attempted)),
        ("failed", json::count(outcome.failed)),
        ("correct", Value::Bool(outcome.failed == 0)),
        (
            "failures",
            Value::Arr(outcome.failures.iter().map(json::str).collect()),
        ),
        ("details", details),
        ("metrics", metrics_json(metrics)),
    ])
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    json::obj([("value", json::num(value)), ("unit", json::str(unit))]),
                )
            })
            .collect(),
    )
}

/// Print every metric by name with its unit, then the result line the
/// driver reads (exactly four keys, last line of standard output).
fn print_result(args: &Args, noise: &host::Noise, metrics: &[Metric], outcome: &Outcome) {
    println!(
        "# {} seed {} seconds {}{}{}",
        args.workload.name(),
        args.seed,
        args.seconds,
        if args.seconds == RUN_SECONDS {
            ""
        } else {
            " (quick: not comparable)"
        },
        if noise.noisy { " (noisy)" } else { "" },
    );
    for (name, value, unit) in metrics {
        // Fixed notation where it reads well, exponent where it would
        // print as zero (relative errors, shares of a share).
        if *value != 0.0 && value.abs() < 1e-3 {
            println!("{name:<36} {value:>16.6e} {unit}");
        } else {
            println!("{name:<36} {value:>16.6} {unit}");
        }
    }
    println!(
        "# noise: steal share {:.4}, involuntary switches {}, clock {:.4} ns/step, \
         contended windows {:.0}%{}",
        noise.steal_share,
        noise.involuntary_switches,
        noise.clock_ns_per_step,
        100.0 * noise.contended_share,
        if noise.noisy { " -> noisy" } else { "" }
    );
    for f in &outcome.failures {
        eprintln!("FAILED: {f}");
    }
    let line = json::obj([
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", json::count(outcome.attempted)),
        ("failed", json::count(outcome.failed)),
        ("metrics", metrics_json(metrics)),
    ]);
    println!("{}", line.render());
}

fn write_out(file: &str, value: &Value) {
    let path = std::path::Path::new(OUT_DIR).join(file);
    if let Err(e) = std::fs::write(&path, value.render() + "\n") {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

/// The end-to-end metrics of one timed region. Rates, latencies and CPU
/// cost are taken over the region's fastest windows
/// ([`stats::quiet_windows`]); `setup_s` is the fastest of the cold
/// set-ups, for the same reason.
fn end_to_end_metrics(
    shape_flops: f64,
    setup_s: &[f64],
    peak_rss_mib: f64,
    outcome: &Outcome,
    quiet: &Quiet,
) -> Vec<Metric> {
    let ms = |ns: u64| ns as f64 * 1e-6;
    let tflop = quiet.lat_sorted.len() as f64 * shape_flops / 1e12;
    let values = [
        setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        tflop * 1e3 / quiet.wall_s,
        ms(stats::percentile_sorted(&quiet.lat_sorted, 50.0)),
        ms(stats::percentile_sorted(&quiet.lat_sorted, 90.0)),
        quiet.cpu_s / tflop,
        peak_rss_mib,
        outcome.attempted.saturating_sub(outcome.failed) as f64 / outcome.attempted as f64,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), v)| (name, v, unit))
        .collect()
}

/// The same quantities over the whole region, neighbour included: kept
/// in the record so the quiet-window numbers can be put in context.
fn whole_region(shape_flops: f64, s: &Sample, quiet: &Quiet) -> Value {
    let mut lat = s.lat_ns.clone();
    lat.sort_unstable();
    let tflop = s.attempted as f64 * shape_flops / 1e12;
    json::obj([
        ("gflops", json::num(tflop * 1e3 / s.wall_s())),
        (
            "latency_p50_ms",
            json::num(stats::percentile_sorted(&lat, 50.0) as f64 * 1e-6),
        ),
        (
            "latency_p90_ms",
            json::num(stats::percentile_sorted(&lat, 90.0) as f64 * 1e-6),
        ),
        ("cpu_s_per_tflop", json::num(s.cpu_s() / tflop)),
        (
            "window_p50_ms",
            Value::Arr(
                quiet
                    .window_p50_ns
                    .iter()
                    .map(|&ns| json::num(ns as f64 * 1e-6))
                    .collect(),
            ),
        ),
        ("quiet_windows_used", json::count(quiet.windows_used as u64)),
        ("contended_above", json::num(stats::CONTENDED_ABOVE)),
    ])
}

fn end_to_end_run(args: &Args) -> bool {
    let noise = host::NoiseProbe::start();
    let (mut prepared, mut setup_s, inputs) =
        workloads::prepare(args.workload, args.seed, SETUP_REPS / 2);
    let mut sample = prepared.region(args.seconds, None);
    let mut outcome = Outcome::default();
    outcome.absorb(&mut sample);
    outcome.add_failures(prepared.final_checks());
    // A high-water mark: read before the set-ups that follow add to it.
    let peak_rss_mib = host::peak_rss_mib();
    setup_s.extend(prepared.more_setups(SETUP_REPS - SETUP_REPS / 2));
    drop(prepared);

    let flops = args.workload.shape().flops();
    let quiet = stats::quiet_windows(&sample.lat_ns, &sample.marks);
    let noise = noise.finish(quiet.contended_share);
    let metrics = end_to_end_metrics(flops, &setup_s, peak_rss_mib, &outcome, &quiet);
    let operations = quiet.lat_sorted.len();
    let p90_supported = stats::percentile_is_supported(operations, 90.0);
    if !p90_supported {
        eprintln!(
            "note: latency_p90_ms rests on {operations} operations, fewer than the 100 a p90 needs"
        );
    }
    let details = json::obj([
        ("inputs", inputs),
        // what the reported latencies rest on
        ("operations", json::count(operations as u64)),
        ("p90_has_ten_samples_beyond", Value::Bool(p90_supported)),
        (
            "setup_reps_s",
            Value::Arr(setup_s.iter().map(|&t| json::num(t)).collect()),
        ),
        ("counters", sample.counters.to_json(sample.attempted)),
        ("whole_region", whole_region(flops, &sample, &quiet)),
    ]);
    write_out(
        &format!("{}.json", args.workload.name()),
        &record("end_to_end", args, &noise, &outcome, details, &metrics),
    );
    println!(
        "# metrics rest on the quietest {} of {} windows ({operations} operations)",
        quiet.windows_used,
        quiet.window_p50_ns.len(),
    );
    print_result(args, &noise, &metrics, &outcome);
    outcome.failed == 0
}

fn traced_run(args: &Args) -> bool {
    let noise = host::NoiseProbe::start();
    let mut report = layers::probe_all(args.seed);
    let mut outcome = Outcome::default();
    outcome.add_failures(std::mem::take(&mut report.failures));

    // The workload itself, traced and untraced in alternation (U T T U,
    // so a linear drift cancels): the ratio of the two rates is what the
    // ladder's own span recording costs. End-to-end numbers always come
    // from an untraced run.
    let (mut prepared, _, inputs) = workloads::prepare(args.workload, args.seed, 1);
    let mut op_spans = SpanLog::new();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut last_region = Value::Null;
    for with_spans in [false, true, true, false] {
        let mut s = prepared.region(args.seconds / 8.0, with_spans.then_some(&mut op_spans));
        let quiet = stats::quiet_windows(&s.lat_ns, &s.marks);
        // operations per second; the flop count per operation cancels
        let rate = quiet.lat_sorted.len() as f64 / quiet.wall_s;
        if with_spans {
            &mut traced
        } else {
            &mut untraced
        }
        .push(rate);
        last_region = s.counters.to_json(s.attempted);
        outcome.absorb(&mut s);
    }
    outcome.add_failures(prepared.final_checks());
    drop(prepared);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    report.set("trace.overhead_ratio", mean(&traced) / mean(&untraced));

    let noise = noise.finish(0.0);
    report.set("host.steal_share", noise.steal_share);
    report.set(
        "host.involuntary_switches",
        noise.involuntary_switches as f64,
    );

    let metrics = report.metrics();
    // Spans and counts stayed in memory until now; written once.
    write_out(
        "trace.json",
        &json::obj([
            ("schema", json::str(host::SCHEMA)),
            ("kind", json::str("trace")),
            ("workload", json::str(args.workload.name())),
            ("seed", json::count(args.seed)),
            ("fingerprint", host::fingerprint()),
            ("composed_gemm_spans", report.spans.to_json()),
            ("workload_spans", op_spans.to_json()),
            ("last_region_counters", last_region),
        ]),
    );
    write_out(
        &format!("{}.trace.json", args.workload.name()),
        &record(
            "per_layer",
            args,
            &noise,
            &outcome,
            json::obj([("inputs", inputs)]),
            &metrics,
        ),
    );
    println!("{}", layers::ladder_table(&report));
    print_result(args, &noise, &metrics, &outcome);
    outcome.failed == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "square_pool",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::SquarePool, 7, 15.0, true)
        );
        for bad in [
            vec!["--workload", "nope"],
            vec!["--seed", "1"],
            vec!["--workload", "square_pool", "--seconds", "0"],
            vec!["--workload", "square_pool", "--trace", "2"],
            vec!["--workload"],
        ] {
            assert!(parse_args(&strings(&bad)).is_err(), "accepted {bad:?}");
        }
    }

    /// `BENCHMARK.json` and the binary's tables say the same thing.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let spec = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            spec.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS)
        );

        let named = |key: &str| -> Vec<Value> {
            spec.get(key)
                .map(Value::as_arr)
                .unwrap_or_default()
                .to_vec()
        };
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap_or("").to_string();

        let workloads: Vec<String> = named("workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);

        let e2e = named("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (spec, &(name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(
                (
                    field(spec, "name"),
                    field(spec, "unit"),
                    field(spec, "better")
                ),
                (name.to_string(), unit.to_string(), better.to_string())
            );
            assert_eq!(
                spec.get("bound").and_then(Value::as_f64),
                Some(bound),
                "{name}"
            );
        }

        let layers = named("per_layer");
        assert_eq!(layers.len(), layers::PER_LAYER.len());
        for (spec, &(name, unit, better)) in layers.iter().zip(layers::PER_LAYER) {
            assert_eq!(
                (
                    field(spec, "name"),
                    field(spec, "unit"),
                    field(spec, "better")
                ),
                (name.to_string(), unit.to_string(), better.to_string())
            );
        }
    }
}
