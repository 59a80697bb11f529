//! Golden-schema contract of the observability surface (DESIGN.md §11):
//! the `/metrics` body passes a Prometheus text-exposition grammar
//! check (typed families, monotone cumulative buckets, `_sum`/`_count`
//! consistency), the `/status` body parses through `dgemm_core::json`
//! as one `dgemm-telem-v1` document with every schema field present, the log2
//! latency histograms are bucket-exact against a recomputation, and a
//! served request's trace chain covers its lifecycle.
//!
//! Everything here runs with the `telemetry` feature on or off: the
//! histogram/journal surface is always compiled, and the
//! stream-dependent assertions guard on [`trace::enabled`]. The same two
//! checkers are applied to what a real service answers over loopback
//! TCP, a worker's span must reach the chain of the request that caused
//! it, and (with `fault-injection`) a seeded fault must reach the
//! journal under the trace ID of the request it hit.

use dgemm_core::gemm::GemmConfig;
use dgemm_core::json::{self, Value};
use dgemm_core::matrix::Matrix;
use dgemm_core::microkernel::MicroKernelKind;
use dgemm_core::service::{GemmService, ServiceConfig, ServiceError};
use dgemm_core::telemetry::TraceKind;
use dgemm_core::trace::{self, HealthEventKind, LatencyHistogram, HIST_BUCKETS};
use dgemm_core::util::SplitMix64;
use dgemm_core::Transpose;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

mod common;

/// Fault plans are process-global. The seeded-fault case holds this
/// exclusively while its plan is installed and every other case that
/// runs a service holds it shared, so the one armed fault can only fire
/// in the request it is asserted on.
static FAULT_PLAN: RwLock<()> = RwLock::new(());

fn no_fault_plan() -> RwLockReadGuard<'static, ()> {
    FAULT_PLAN.read().unwrap_or_else(PoisonError::into_inner)
}

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

/// The exposition grammar: typed families, samples that parse and
/// belong to a declared family, integral counters, and histograms whose
/// cumulative buckets are monotone and end in a `+Inf` equal to
/// `_count`. Returns the declared families (name → type).
fn check_exposition(text: &str) -> BTreeMap<String, String> {
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
    types
}

/// The families a served workload must have produced: the service
/// counters and the total-latency histogram.
fn assert_workload_families(types: &BTreeMap<String, String>) {
    assert!(types.contains_key("dgemm_service_admitted_total"));
    assert_eq!(
        types
            .get("dgemm_request_total_latency_us")
            .map(String::as_str),
        Some("histogram"),
        "served workload must expose the total-latency histogram"
    );
}

#[test]
fn metrics_text_passes_exposition_grammar() {
    let _shared = no_fault_plan();
    let svc = GemmService::new(service_cfg());
    run_workload(&svc);
    assert_workload_families(&check_exposition(&svc.metrics_text()));
    svc.shutdown();
}

// ---------------------------------------------------------------------
// /status JSON schema.
// ---------------------------------------------------------------------

/// `doc` parsed by the library's one JSON parser; panics if it is not
/// one well-formed document.
fn parse_json(doc: &str) -> Value {
    json::parse(doc).unwrap_or_else(|| panic!("not one JSON document: {doc}"))
}

/// The unsigned integer at `key` of a parsed document.
fn u64_at(doc: &Value, key: &str) -> u64 {
    doc.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no unsigned integer at {key}: {doc}"))
}

/// A `/status` body after a served workload: valid JSON, the
/// `dgemm-telem-v1` service schema with every field present. Returns the
/// parsed document.
fn check_status(doc: &str) -> Value {
    let status = parse_json(doc);
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
    let counters = status.get("counters").expect("counters object");
    assert!(u64_at(counters, "completed") <= u64_at(counters, "admitted"));
    status
}

#[test]
fn status_json_is_valid_and_carries_the_schema() {
    let _shared = no_fault_plan();
    let svc = GemmService::new(service_cfg());
    run_workload(&svc);
    let doc = check_status(&svc.status_json());

    // Staleness signals: seq strictly monotone per snapshot, uptime
    // monotone.
    let (seq0, up0) = (u64_at(&doc, "snapshot_seq"), u64_at(&doc, "uptime_ms"));
    let doc2 = parse_json(&svc.status_json());
    let (seq1, up1) = (u64_at(&doc2, "snapshot_seq"), u64_at(&doc2, "uptime_ms"));
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
    if !trace::enabled() {
        return; // recording compiled out: the stream is empty.
    }
    let _shared = no_fault_plan();
    let svc = GemmService::new(service_cfg());
    // Large enough that compute dominates the recorded span accounting
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
    parse_json(&json);
    assert!(json.contains("\"name\":\"queued\""), "{json}");
    assert!(json.contains("\"ph\":\"X\""), "{json}");
    svc.shutdown();
}

/// A worker's span lands on the request that caused it: served by a
/// `Pool(2)` shard on a shape of two cells, a request's chain holds
/// `Compute` spans from two lanes, and its tenant gets a compute-latency
/// sample. Which thread runs a cell is the scheduler's call — on a busy
/// host the helping caller can take both — so keep submitting, within a
/// bound, until a worker's span shows up.
#[test]
fn worker_spans_land_on_the_request_that_caused_them() {
    if !trace::enabled() {
        return; // recording compiled out: the stream is empty.
    }
    let _shared = no_fault_plan();
    let gemm = GemmConfig::for_kernel(MicroKernelKind::Mk8x6, 2);
    // four mc-blocks of rows: the pool's grid splits them into two cells
    let n = 4 * gemm.blocks.mc;
    let svc = GemmService::new(ServiceConfig {
        gemm,
        ..ServiceConfig::default()
    });
    let a = Arc::new(Matrix::random(n, n, 41));
    let b = Arc::new(Matrix::random(n, n, 42));
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut served = 0u64;
    let (chain, lanes) = loop {
        let t = svc
            .submit(
                "workers",
                1.0,
                Arc::clone(&a),
                Transpose::No,
                Arc::clone(&b),
            )
            .expect("admitted");
        let id = t.id();
        t.wait().expect("served");
        served += 1;
        let chain = svc.trace_of(id);
        let lanes: BTreeSet<usize> = chain
            .iter()
            .filter(|e| e.kind == TraceKind::Compute)
            .map(|e| e.lane)
            .collect();
        if lanes.len() >= 2 || Instant::now() > deadline {
            break (chain, lanes);
        }
    };
    assert!(
        lanes.len() >= 2,
        "after {served} requests no worker's Compute span reached a chain: {chain:?}"
    );
    let compute_samples = svc
        .metrics_text()
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(parse_sample)
        .find(|s| {
            s.name == "dgemm_request_compute_latency_us_count"
                && s.labels.get("tenant").map(String::as_str) == Some("workers")
        })
        .map_or(0, |s| s.value as u64);
    assert_eq!(compute_samples, served, "one compute sample per request");
    svc.shutdown();
}

/// `dgemm_health_events_total{kind=...}` as `/metrics` reports it: the
/// journal's per-kind totals, process-wide and monotone (sibling cases
/// can only add to them).
fn health_total(svc: &GemmService, kind: &str) -> u64 {
    svc.metrics_text()
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(parse_sample)
        .find(|s| {
            s.name == "dgemm_health_events_total"
                && s.labels.get("kind").map(String::as_str) == Some(kind)
        })
        .map_or(0, |s| s.value as u64)
}

#[test]
fn sheds_land_in_the_health_journal_with_trace_ids() {
    let _shared = no_fault_plan();
    // `None` = journal empty at test start (seqs start at 0, so a 0
    // sentinel would wrongly exclude the very first event).
    let watermark = trace::health_events().last().map(|e| e.seq);
    let svc = GemmService::new(ServiceConfig {
        tenant_quota: 1,
        ..service_cfg()
    });
    let sheds_before = health_total(&svc, "shed");
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
    assert!(
        health_total(&svc, "shed") >= sheds_before + shed_count as u64,
        "dgemm_health_events_total lost quota sheds"
    );
    busy.wait().expect("filler serves");
    first.wait().expect("first quota request serves");
    svc.shutdown();
}

// ---------------------------------------------------------------------
// The scrape endpoint, over a socket.
// ---------------------------------------------------------------------

/// One `GET path` against the endpoint; returns (response head, body).
fn scrape(addr: SocketAddr, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).expect("connect to the scrape endpoint");
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("socket timeout");
    write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("send request");
    let mut response = String::new();
    s.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("malformed response to {path}: {response:?}"));
    (head.to_string(), body.to_string())
}

/// `metricsd`'s unit test serves a fake source and the cases above call
/// the renderers directly; this one scrapes a real service through
/// `serve_metrics` over loopback TCP and holds the bodies to the same
/// two checkers.
#[test]
fn a_real_service_scrapes_over_tcp() {
    let _shared = no_fault_plan();
    let svc = GemmService::new(service_cfg());
    run_workload(&svc);
    let endpoint = svc.serve_metrics("127.0.0.1:0").expect("bind loopback");
    let addr = endpoint.local_addr();

    let (head, body) = scrape(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "/metrics: {head}");
    assert_workload_families(&check_exposition(&body));
    let (head, body) = scrape(addr, "/status");
    assert!(head.starts_with("HTTP/1.1 200"), "/status: {head}");
    check_status(&body);
    let (head, _) = scrape(addr, "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "unknown path: {head}");

    drop(endpoint);
    svc.shutdown();
}

/// A fault injected while a request executes is attributable: its
/// `fault_injected` journal entry carries the trace ID of the request
/// whose context it fired in (`faults::injected` reads the thread's
/// current ID). Seed 5 arms the scheduler stall for the first or second
/// group a service executes; each request below is a group of its own.
#[cfg(feature = "fault-injection")]
#[test]
fn a_seeded_fault_is_journaled_under_the_request_it_hit() {
    use dgemm_core::faults::{self, FaultPlan};

    let _exclusive = FAULT_PLAN.write().unwrap_or_else(PoisonError::into_inner);
    let plan = FaultPlan::from_seed_service(5);
    assert!(
        plan.service_stall.is_some(),
        "seed 5 must arm the service-layer stall: {plan:?}"
    );
    let watermark = trace::health_events().last().map(|e| e.seq);
    let svc = GemmService::new(service_cfg());
    let injected_before = health_total(&svc, "fault_injected");
    faults::install(plan);
    let b = Arc::new(Matrix::random(48, 64, 2));
    let ids: Vec<u64> = (0..2)
        .map(|i| {
            let a = Arc::new(Matrix::random(32, 48, 200 + i));
            let ticket = svc
                .submit("chaos", 1.0, a, Transpose::No, Arc::clone(&b))
                .expect("admitted");
            let id = ticket.id();
            ticket.wait().expect("a stalled scheduler still serves");
            id
        })
        .collect();
    faults::clear();

    let injected: Vec<_> = trace::health_events()
        .into_iter()
        .filter(|e| watermark.is_none_or(|w| e.seq > w))
        .filter(|e| e.kind == HealthEventKind::FaultInjected)
        .collect();
    assert_eq!(injected.len(), 1, "one armed fault, once: {injected:?}");
    assert_eq!(injected[0].cause, "service_stall");
    assert_eq!(
        health_total(&svc, "fault_injected"),
        injected_before + 1,
        "dgemm_health_events_total must count the injected fault"
    );
    // Without the `trace` feature no thread has a current ID to report.
    if trace::enabled() {
        assert!(
            ids.contains(&injected[0].trace),
            "the fault must carry the ID of the request it stalled ({ids:?}): {injected:?}"
        );
    }
    svc.shutdown();
}
