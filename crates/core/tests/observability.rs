//! Golden-schema contract of the observability surface (DESIGN.md §16):
//! the `/metrics` body passes a Prometheus text-exposition grammar
//! check (typed families, monotone cumulative buckets, `_sum`/`_count`
//! consistency), the `/status` body is syntactically valid
//! `dgemm-telem-v1` JSON with every schema field present, the log2
//! latency histograms are bucket-exact against a recomputation, and a
//! served request's trace chain covers its lifecycle.
//!
//! Everything here runs with the `trace` feature on or off: the
//! histogram/journal surface is always compiled, and the
//! ring-dependent assertions guard on [`trace::enabled`].

use dgemm_core::gemm::GemmConfig;
use dgemm_core::matrix::Matrix;
use dgemm_core::microkernel::MicroKernelKind;
use dgemm_core::service::{GemmService, ServiceConfig, ServiceError};
use dgemm_core::trace::{self, HealthEventKind, LatencyHistogram, TraceKind, HIST_BUCKETS};
use dgemm_core::util::SplitMix64;
use dgemm_core::Transpose;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

mod common;

fn service_cfg() -> ServiceConfig {
    ServiceConfig {
        gemm: GemmConfig::for_kernel(MicroKernelKind::Mk8x6, 1),
        ..ServiceConfig::default()
    }
}

/// Push a small mixed-tenant workload through `svc`; returns the ticket
/// IDs in submission order.
fn run_workload(svc: &GemmService) -> Vec<u64> {
    let b = Arc::new(Matrix::random(48, 64, 2));
    let mut ids = Vec::new();
    let mut tickets = Vec::new();
    for i in 0..10u64 {
        let a = Arc::new(Matrix::random(32, 48, 100 + i));
        let tenant = if i % 2 == 0 { "alpha" } else { "beta" };
        let t = svc
            .submit(tenant, 1.0, a, Transpose::No, Arc::clone(&b))
            .expect("healthy service admits the workload");
        ids.push(t.id());
        tickets.push(t);
    }
    for t in tickets {
        t.wait().expect("healthy service serves the workload");
    }
    ids
}

// ---------------------------------------------------------------------
// Prometheus text-exposition grammar.
// ---------------------------------------------------------------------

/// One parsed sample line: metric name, sorted labels, value.
struct Sample {
    name: String,
    labels: BTreeMap<String, String>,
    value: f64,
}

/// Parse a `name{label="v",...} value` line; panics (with the line)
/// on anything the exposition grammar would reject.
fn parse_sample(line: &str) -> Sample {
    let (name_labels, value) = line
        .rsplit_once(' ')
        .unwrap_or_else(|| panic!("sample without value: {line:?}"));
    let value: f64 = value
        .parse()
        .unwrap_or_else(|_| panic!("unparseable sample value: {line:?}"));
    let (name, labels) = match name_labels.split_once('{') {
        None => (name_labels.to_string(), BTreeMap::new()),
        Some((name, rest)) => {
            let body = rest
                .strip_suffix('}')
                .unwrap_or_else(|| panic!("unterminated label set: {line:?}"));
            let mut labels = BTreeMap::new();
            for pair in body.split(',') {
                let (k, v) = pair
                    .split_once('=')
                    .unwrap_or_else(|| panic!("label without '=': {line:?}"));
                let v = v
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .unwrap_or_else(|| panic!("unquoted label value: {line:?}"));
                assert!(
                    !k.is_empty() && k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                    "bad label name in {line:?}"
                );
                labels.insert(k.to_string(), v.to_string());
            }
            (name.to_string(), labels)
        }
    };
    assert!(
        name.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            && name.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'),
        "bad metric name: {line:?}"
    );
    Sample {
        name,
        labels,
        value,
    }
}

/// The family a sample belongs to: histogram samples strip their
/// `_bucket`/`_sum`/`_count` suffix iff the stripped base is a declared
/// histogram family.
fn family_of<'n>(name: &'n str, types: &BTreeMap<String, String>) -> &'n str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return base;
            }
        }
    }
    name
}

#[test]
fn metrics_text_passes_exposition_grammar() {
    let svc = GemmService::new(service_cfg());
    run_workload(&svc);
    let text = svc.metrics_text();
    assert!(text.ends_with('\n'), "exposition must end with a newline");

    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples: Vec<Sample> = Vec::new();
    for line in text.lines() {
        assert!(!line.trim().is_empty(), "blank line in exposition");
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (fam, ty) = rest
                .split_once(' ')
                .unwrap_or_else(|| panic!("bad TYPE line: {line:?}"));
            assert!(
                ["counter", "gauge", "histogram"].contains(&ty),
                "unknown TYPE: {line:?}"
            );
            assert!(
                types.insert(fam.to_string(), ty.to_string()).is_none(),
                "duplicate TYPE for {fam}"
            );
        } else {
            assert!(!line.starts_with('#'), "non-TYPE comment: {line:?}");
            samples.push(parse_sample(line));
        }
    }

    // Every sample belongs to a declared family; counters are
    // non-negative integers.
    for s in &samples {
        let fam = family_of(&s.name, &types);
        let ty = types
            .get(fam)
            .unwrap_or_else(|| panic!("sample {} has no # TYPE header", s.name));
        if ty == "counter" {
            assert!(
                s.value >= 0.0 && s.value.fract() == 0.0,
                "counter {} not a non-negative integer: {}",
                s.name,
                s.value
            );
        }
    }

    // The workload must have produced at least the service counters and
    // one histogram family.
    assert!(types.contains_key("dgemm_service_admitted_total"));
    assert_eq!(
        types
            .get("dgemm_request_total_latency_us")
            .map(String::as_str),
        Some("histogram"),
        "served workload must expose the total-latency histogram"
    );

    // Histogram internal consistency, per (family, series-labels):
    // cumulative buckets monotone in le, +Inf present and equal to
    // _count, _sum present.
    for (fam, ty) in &types {
        if ty != "histogram" {
            continue;
        }
        let mut series: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new(); // labels -> (le, cum)
        let mut counts: BTreeMap<String, f64> = BTreeMap::new();
        let mut sums: BTreeMap<String, f64> = BTreeMap::new();
        for s in &samples {
            let mut labels = s.labels.clone();
            let le = labels.remove("le");
            let key = format!("{labels:?}");
            if s.name == format!("{fam}_bucket") {
                let le = le.unwrap_or_else(|| panic!("{fam}_bucket without le"));
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap_or_else(|_| panic!("bad le: {le:?}"))
                };
                series.entry(key).or_default().push((le, s.value));
            } else if s.name == format!("{fam}_count") {
                counts.insert(key, s.value);
            } else if s.name == format!("{fam}_sum") {
                sums.insert(key, s.value);
            }
        }
        assert!(
            !series.is_empty(),
            "declared histogram {fam} has no buckets"
        );
        for (key, buckets) in &series {
            assert!(
                buckets.windows(2).all(|w| w[0].0 < w[1].0),
                "{fam}{key}: le not strictly increasing"
            );
            assert!(
                buckets.windows(2).all(|w| w[0].1 <= w[1].1),
                "{fam}{key}: cumulative buckets not monotone"
            );
            let (last_le, inf_cum) = *buckets.last().expect("non-empty");
            assert!(last_le.is_infinite(), "{fam}{key}: missing +Inf bucket");
            assert_eq!(
                counts.get(key),
                Some(&inf_cum),
                "{fam}{key}: _count disagrees with the +Inf bucket"
            );
            assert!(sums.contains_key(key), "{fam}{key}: missing _sum");
        }
    }
    svc.shutdown();
}

// ---------------------------------------------------------------------
// /status JSON schema.
// ---------------------------------------------------------------------

/// Minimal recursive-descent JSON syntax checker: consumes one value,
/// returns the rest. Panics (with offset context) on invalid JSON.
fn skip_json(s: &str) -> &str {
    let s = s.trim_start();
    let mut chars = s.char_indices();
    match chars.next().map(|(_, c)| c) {
        Some('{') => {
            let mut rest = s[1..].trim_start();
            if let Some(r) = rest.strip_prefix('}') {
                return r;
            }
            loop {
                rest = rest.trim_start();
                assert!(
                    rest.starts_with('"'),
                    "object key must be a string: {rest:.40?}"
                );
                rest = skip_json(rest).trim_start();
                rest = rest
                    .strip_prefix(':')
                    .unwrap_or_else(|| panic!("missing ':' in object: {rest:.40?}"));
                rest = skip_json(rest).trim_start();
                if let Some(r) = rest.strip_prefix(',') {
                    rest = r;
                } else {
                    return rest
                        .strip_prefix('}')
                        .unwrap_or_else(|| panic!("unterminated object: {rest:.40?}"));
                }
            }
        }
        Some('[') => {
            let mut rest = s[1..].trim_start();
            if let Some(r) = rest.strip_prefix(']') {
                return r;
            }
            loop {
                rest = skip_json(rest).trim_start();
                if let Some(r) = rest.strip_prefix(',') {
                    rest = r;
                } else {
                    return rest
                        .strip_prefix(']')
                        .unwrap_or_else(|| panic!("unterminated array: {rest:.40?}"));
                }
            }
        }
        Some('"') => {
            let mut escaped = false;
            for (i, c) in chars {
                match c {
                    _ if escaped => escaped = false,
                    '\\' => escaped = true,
                    '"' => return &s[i + 1..],
                    _ => {}
                }
            }
            panic!("unterminated string: {s:.40?}");
        }
        Some(c) if c == '-' || c.is_ascii_digit() => {
            let end = s
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(s.len());
            s[..end]
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("bad number: {s:.40?}"));
            &s[end..]
        }
        _ => {
            for lit in ["true", "false", "null"] {
                if let Some(rest) = s.strip_prefix(lit) {
                    return rest;
                }
            }
            panic!("unexpected JSON token: {s:.40?}");
        }
    }
}

fn assert_valid_json(doc: &str) {
    let rest = skip_json(doc);
    assert!(
        rest.trim().is_empty(),
        "trailing garbage after JSON: {rest:.40?}"
    );
}

/// Extract the integer following `"field":` (first occurrence).
fn json_u64_field(doc: &str, field: &str) -> u64 {
    let pat = format!("\"{field}\":");
    let at = doc
        .find(&pat)
        .unwrap_or_else(|| panic!("status_json missing {field}: {doc}"));
    doc[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{field} is not an integer"))
}

#[test]
fn status_json_is_valid_and_carries_the_schema() {
    let svc = GemmService::new(service_cfg());
    run_workload(&svc);
    let doc = svc.status_json();
    assert_valid_json(&doc);
    assert!(doc.starts_with("{\"schema\":\"dgemm-telem-v1\",\"kind\":\"service\""));
    for field in [
        "\"queue_depth\":",
        "\"queue_limit\":",
        "\"effective_queue_limit\":",
        "\"shutdown\":",
        "\"snapshot_seq\":",
        "\"uptime_ms\":",
        "\"dispatch_mispredicts\":",
        "\"counters\":{",
        "\"admitted\":",
        "\"completed\":",
        "\"tenants\":[",
        "\"shards\":[",
        "\"histograms\":[",
        "\"events\":[",
    ] {
        assert!(doc.contains(field), "status_json missing {field}: {doc}");
    }
    // Served requests must surface in the histogram section (the
    // always-compiled side of the observability surface).
    assert!(
        doc.contains("\"metric\":\"total\""),
        "served workload produced no total-latency histogram row: {doc}"
    );

    // Staleness signals: seq strictly monotone per snapshot, uptime
    // monotone.
    let (seq0, up0) = (
        json_u64_field(&doc, "snapshot_seq"),
        json_u64_field(&doc, "uptime_ms"),
    );
    let doc2 = svc.status_json();
    assert_valid_json(&doc2);
    let (seq1, up1) = (
        json_u64_field(&doc2, "snapshot_seq"),
        json_u64_field(&doc2, "uptime_ms"),
    );
    assert!(
        seq1 > seq0,
        "snapshot_seq must be monotone: {seq0} -> {seq1}"
    );
    assert!(up1 >= up0, "uptime_ms must be monotone: {up0} -> {up1}");
    svc.shutdown();
}

// ---------------------------------------------------------------------
// Histogram exactness.
// ---------------------------------------------------------------------

#[test]
fn histogram_is_bucket_exact_against_recomputation() {
    let hist = LatencyHistogram::new();
    let mut rng = SplitMix64::new(0xB0B);
    let mut expected = [0u64; HIST_BUCKETS];
    let mut expected_overflow = 0u64;
    let mut expected_sum = 0u64;
    let mut values = Vec::new();
    for i in 0..10_000u64 {
        // Mixed magnitudes: sub-µs, mid-range, and past the top edge.
        let v = match i % 4 {
            0 => rng.next_u64() % 4,
            1 => rng.next_u64() % 5_000,
            2 => rng.next_u64() % 300_000_000,
            _ => (1u64 << 28) + rng.next_u64() % (1u64 << 36),
        };
        values.push(v);
        hist.record_us(v);
        expected_sum += v;
        let idx = LatencyHistogram::bucket_index(v);
        if idx >= HIST_BUCKETS {
            expected_overflow += 1;
        } else {
            expected[idx] += 1;
            // The log2 invariant: v fits the bucket's (prev, edge] range.
            let edge = LatencyHistogram::bucket_edge(idx);
            assert!(v <= edge, "{v} above its bucket edge {edge}");
            if idx > 0 {
                assert!(v > edge / 2, "{v} below bucket {idx}'s lower edge");
            }
        }
    }
    assert_eq!(hist.bucket_counts(), expected);
    assert_eq!(hist.overflow_count(), expected_overflow);
    assert_eq!(hist.count(), 10_000);
    assert_eq!(hist.sum_us(), expected_sum);

    // Quantiles: ordered, and each is an upper bound for at least its
    // fraction of the recorded values (the bucket-edge estimator).
    values.sort_unstable();
    let p50 = hist
        .quantile_us(0.50)
        .expect("most values are finite, so p50 exists");
    let below = values.iter().filter(|&&v| v <= p50).count();
    assert!(
        below * 2 >= values.len(),
        "p50 {p50} covers only {below}/{} values",
        values.len()
    );
    if let Some(p90) = hist.quantile_us(0.90) {
        assert!(p50 <= p90, "quantiles out of order: p50 {p50} > p90 {p90}");
    }
}

// ---------------------------------------------------------------------
// Trace chains and the health journal.
// ---------------------------------------------------------------------

#[test]
fn trace_chain_covers_the_ticket_lifecycle() {
    if !trace::enabled() || trace::mode() == trace::TraceMode::Off {
        return; // `trace` feature off / DGEMM_TRACE=off: ring is empty.
    }
    let svc = GemmService::new(service_cfg());
    // Large enough that compute dominates the bridged span accounting
    // on whatever kernel runs: an eighth of the filler's work, tens of
    // milliseconds against the tens of microseconds between the spans
    // (a literal 200³ is 0.3 ms on the row-grouped AVX-512 kernel).
    let n = common::filler_edge() / 2;
    let a = Arc::new(Matrix::random(n, n, 7));
    let b = Arc::new(Matrix::random(n, n, 8));
    let t = svc
        .submit("traced", 1.0, a, Transpose::No, b)
        .expect("admitted");
    let id = t.id();
    t.wait().expect("served");
    let chain = svc.trace_of(id);
    for kind in [
        TraceKind::Submitted,
        TraceKind::Admitted,
        TraceKind::Queued,
        TraceKind::Dispatched,
        TraceKind::Executed,
        TraceKind::Resolved,
    ] {
        assert!(
            chain.iter().any(|e| e.kind == kind),
            "trace {id} missing {kind:?}: {chain:?}"
        );
    }
    assert!(
        chain.windows(2).all(|w| w[0].start_ns <= w[1].start_ns),
        "trace {id} not monotone: {chain:?}"
    );
    let at = |kind| chain.iter().find(|e| e.kind == kind).expect("present");
    let submitted = at(TraceKind::Submitted).start_ns;
    let resolved = at(TraceKind::Resolved).start_ns;
    let covered = at(TraceKind::Queued).dur_ns + at(TraceKind::Executed).dur_ns;
    let latency = resolved.saturating_sub(submitted);
    assert!(latency > 0, "resolved before submitted?");
    assert!(
        covered as f64 >= 0.95 * latency as f64,
        "lifecycle spans cover {covered} of {latency} ns (< 95%)"
    );

    // The chrome-trace export renders the chain with its labels.
    let json = trace::chrome_trace_json(&chain);
    assert_valid_json(&json);
    assert!(json.contains("\"name\":\"queued\""), "{json}");
    assert!(json.contains("\"ph\":\"X\""), "{json}");
    svc.shutdown();
}

#[test]
fn sheds_land_in_the_health_journal_with_trace_ids() {
    // `None` = journal empty at test start (seqs start at 0, so a 0
    // sentinel would wrongly exclude the very first event).
    let watermark = trace::health_events().last().map(|e| e.seq);
    let svc = GemmService::new(ServiceConfig {
        tenant_quota: 1,
        ..service_cfg()
    });
    // Park the scheduler on a big request so follow-ups provably queue.
    let n = common::filler_edge();
    let busy = svc
        .submit(
            "filler",
            1.0,
            Arc::new(Matrix::random(n, n, 31)),
            Transpose::No,
            Arc::new(Matrix::random(n, n, 32)),
        )
        .expect("filler admitted");
    std::thread::sleep(Duration::from_millis(30));
    let a = Arc::new(Matrix::random(16, 16, 33));
    let b = Arc::new(Matrix::random(16, 16, 34));
    let first = svc
        .submit(
            "quota-tenant",
            1.0,
            Arc::clone(&a),
            Transpose::No,
            Arc::clone(&b),
        )
        .expect("first fits the quota");
    let mut shed_count = 0usize;
    for _ in 0..3 {
        match svc.submit(
            "quota-tenant",
            1.0,
            Arc::clone(&a),
            Transpose::No,
            Arc::clone(&b),
        ) {
            Err(ServiceError::Overloaded { .. }) => shed_count += 1,
            other => panic!("expected quota shed, got {other:?}"),
        }
    }
    let events = trace::health_events();
    let sheds: Vec<_> = events
        .iter()
        .filter(|e| watermark.is_none_or(|w| e.seq > w) && e.kind == HealthEventKind::Shed)
        .filter(|e| e.cause.contains("quota"))
        .collect();
    assert!(
        sheds.len() >= shed_count,
        "journal lost quota sheds: {} < {shed_count}",
        sheds.len(),
    );
    // Trace IDs are always assigned at admission (feature-independent),
    // so every shed entry is attributable.
    assert!(
        sheds.iter().all(|e| e.trace != 0),
        "shed journal entries must carry trace IDs: {sheds:?}"
    );
    busy.wait().expect("filler serves");
    first.wait().expect("first quota request serves");
    svc.shutdown();
}
