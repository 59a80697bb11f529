//! Behavioural contract of the admission-controlled serving layer
//! (DESIGN.md §15): served results are bit-identical to direct
//! [`dgemm_core::gemm::gemm`], overload and quota sheds are typed and
//! immediate, deadlines and cancellation resolve with typed errors,
//! same-weight requests coalesce into one shared-`op(B)` batch, and a
//! shutdown drains every admitted request to a resolution.
//!
//! Timing in these tests never decides *correctness* — it only widens
//! the window in which the scheduler is provably busy (a deliberately
//! large serial request) so that queue-buildup behaviour is
//! deterministic to observe.

use dgemm_core::gemm::{gemm, GemmConfig};
use dgemm_core::json::{self, Value};
use dgemm_core::matrix::Matrix;
use dgemm_core::microkernel::MicroKernelKind;
use dgemm_core::service::{GemmService, ServiceConfig, ServiceError};
use dgemm_core::telemetry::TraceKind;
use dgemm_core::{trace, Transpose};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

mod common;

fn env_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// The kernel/blocking every test (and its serial reference) runs
/// under, so the cross-runtime bitwise contract applies.
fn gemm_cfg() -> GemmConfig {
    GemmConfig::for_kernel(MicroKernelKind::Mk8x6, 1)
}

fn service_cfg() -> ServiceConfig {
    ServiceConfig {
        gemm: gemm_cfg(),
        ..ServiceConfig::default()
    }
}

/// Serial oracle: `alpha · A · op(B)` with the same kernel and blocking
/// the service executes under — bit-identical by the runtime contract.
fn reference(alpha: f64, a: &Matrix, transb: Transpose, b: &Matrix) -> Matrix {
    let (_, n) = transb.apply_dims(b.rows(), b.cols());
    let mut c = Matrix::zeros(a.rows(), n);
    gemm(
        Transpose::No,
        transb,
        alpha,
        &a.view(),
        &b.view(),
        0.0,
        &mut c.view_mut(),
        &gemm_cfg(),
    );
    c
}

/// Start a service and park its scheduler on a deliberately large
/// serial multiplication, so follow-up submissions provably queue.
fn occupy(svc: &GemmService) -> dgemm_core::service::Ticket {
    let n = common::filler_edge();
    let a = Arc::new(Matrix::random(n, n, 901));
    let b = Arc::new(Matrix::random(n, n, 902));
    let t = svc
        .submit("busy-filler", 1.0, a, Transpose::No, b)
        .expect("filler admitted");
    // Give the scheduler time to dequeue the filler; it then computes
    // for a few hundred milliseconds while the test enqueues behind it.
    std::thread::sleep(Duration::from_millis(30));
    t
}

#[test]
fn served_results_are_bit_identical_to_direct_gemm() {
    let svc = GemmService::new(service_cfg());
    for (i, (m, n, k, alpha, transb)) in [
        (64, 48, 32, 1.0, Transpose::No),
        (33, 65, 17, -0.5, Transpose::No),
        (80, 24, 56, 2.25, Transpose::Yes),
        (1, 1, 1, 3.0, Transpose::No),
    ]
    .into_iter()
    .enumerate()
    {
        let a = Arc::new(Matrix::random(m, k, 100 + i as u64));
        let b = match transb {
            Transpose::No => Arc::new(Matrix::random(k, n, 200 + i as u64)),
            Transpose::Yes => Arc::new(Matrix::random(n, k, 200 + i as u64)),
        };
        let got = svc
            .submit(
                &format!("tenant-{i}"),
                alpha,
                Arc::clone(&a),
                transb,
                Arc::clone(&b),
            )
            .expect("admitted")
            .wait()
            .expect("served");
        let want = reference(alpha, &a, transb, &b);
        assert_eq!(
            got.as_slice(),
            want.as_slice(),
            "case {i} must be bit-identical"
        );
    }
}

#[test]
fn queue_overflow_sheds_with_typed_overloaded() {
    let cfg = ServiceConfig {
        queue_limit: 4,
        coalesce: 1,
        ..service_cfg()
    };
    let svc = GemmService::new(cfg);
    let filler = occupy(&svc);
    let a = Arc::new(Matrix::random(8, 8, 1));
    let b = Arc::new(Matrix::random(8, 8, 2));
    let mut tickets = Vec::new();
    for _ in 0..4 {
        tickets.push(
            svc.submit("t", 1.0, Arc::clone(&a), Transpose::No, Arc::clone(&b))
                .expect("within the bound"),
        );
    }
    match svc.submit("t2", 1.0, Arc::clone(&a), Transpose::No, Arc::clone(&b)) {
        Err(ServiceError::Overloaded { queue_depth, limit }) => {
            assert_eq!(limit, 4);
            assert_eq!(queue_depth, 4);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // Shedding lost nothing that was admitted: every ticket resolves
    // with the exact result.
    let want = reference(1.0, &a, Transpose::No, &b);
    filler.wait().expect("filler served");
    for t in tickets {
        assert_eq!(t.wait().expect("served").as_slice(), want.as_slice());
    }
    let status = svc.status_json();
    assert!(status.contains("\"shed_overload\":1"), "{status}");
}

#[test]
fn tenant_quota_sheds_independently_of_other_tenants() {
    let cfg = ServiceConfig {
        tenant_quota: 2,
        coalesce: 1,
        ..service_cfg()
    };
    let svc = GemmService::new(cfg);
    let filler = occupy(&svc);
    let a = Arc::new(Matrix::random(8, 8, 1));
    let b = Arc::new(Matrix::random(8, 8, 2));
    let t1 = svc
        .submit("greedy", 1.0, Arc::clone(&a), Transpose::No, Arc::clone(&b))
        .expect("1st");
    let t2 = svc
        .submit("greedy", 1.0, Arc::clone(&a), Transpose::No, Arc::clone(&b))
        .expect("2nd");
    match svc.submit("greedy", 1.0, Arc::clone(&a), Transpose::No, Arc::clone(&b)) {
        Err(ServiceError::Overloaded { queue_depth, limit }) => {
            assert_eq!((queue_depth, limit), (2, 2));
        }
        other => panic!("expected quota shed, got {other:?}"),
    }
    // Another tenant is unaffected by greedy's quota.
    let t3 = svc
        .submit("modest", 1.0, Arc::clone(&a), Transpose::No, Arc::clone(&b))
        .expect("other tenant admitted");
    let want = reference(1.0, &a, Transpose::No, &b);
    for t in [filler, t1, t2, t3] {
        t.wait().expect("served");
    }
    let status = svc.status_json();
    assert!(status.contains("\"shed_quota\":1"), "{status}");
    let _ = want;
}

#[test]
fn expired_deadline_resolves_as_deadline_exceeded() {
    let svc = GemmService::new(service_cfg());
    let filler = occupy(&svc);
    let a = Arc::new(Matrix::random(8, 8, 1));
    let b = Arc::new(Matrix::random(8, 8, 2));
    let t = svc
        .submit_with_deadline(
            "t",
            1.0,
            a,
            Transpose::No,
            b,
            Some(Duration::from_millis(1)),
        )
        .expect("admitted");
    assert_eq!(
        t.wait(),
        Err(ServiceError::DeadlineExceeded { budget_ms: 1 }),
        "queued past its deadline behind the filler"
    );
    filler.wait().expect("filler served");
    let status = svc.status_json();
    assert!(status.contains("\"deadline_misses\":1"), "{status}");
}

#[test]
fn cancelled_ticket_resolves_rejected() {
    let svc = GemmService::new(service_cfg());
    let filler = occupy(&svc);
    let a = Arc::new(Matrix::random(8, 8, 1));
    let b = Arc::new(Matrix::random(8, 8, 2));
    let t = svc.submit("t", 1.0, a, Transpose::No, b).expect("admitted");
    t.cancel();
    assert_eq!(t.wait(), Err(ServiceError::Rejected("cancelled by caller")));
    filler.wait().expect("filler served");
}

#[test]
fn same_weight_requests_coalesce_into_one_shared_b_batch() {
    let svc = GemmService::new(service_cfg());
    let filler = occupy(&svc);
    let a_mats: Vec<Arc<Matrix>> = (0..4)
        .map(|i| Arc::new(Matrix::random(24, 16, 300 + i)))
        .collect();
    let b = Arc::new(Matrix::random(16, 40, 310));
    let tickets: Vec<_> = a_mats
        .iter()
        .map(|a| {
            svc.submit(
                "coalesce-me",
                1.5,
                Arc::clone(a),
                Transpose::No,
                Arc::clone(&b),
            )
            .expect("admitted")
        })
        .collect();
    filler.wait().expect("filler served");
    for (a, t) in a_mats.iter().zip(tickets) {
        let want = reference(1.5, a, Transpose::No, &b);
        assert_eq!(t.wait().expect("served").as_slice(), want.as_slice());
    }
    let status = svc.status_json();
    assert!(status.contains("\"coalesced_batches\":1"), "{status}");
    assert!(status.contains("\"coalesced_requests\":4"), "{status}");
}

#[test]
fn shutdown_drains_every_admitted_request() {
    let svc = GemmService::new(service_cfg());
    let filler = occupy(&svc);
    let a = Arc::new(Matrix::random(16, 16, 1));
    let b = Arc::new(Matrix::random(16, 16, 2));
    let tickets: Vec<_> = (0..6)
        .map(|i| {
            svc.submit(
                &format!("t{}", i % 3),
                1.0,
                Arc::clone(&a),
                Transpose::No,
                Arc::clone(&b),
            )
            .expect("admitted")
        })
        .collect();
    svc.shutdown();
    // Shutdown returned only after the drain: everything admitted has
    // its exact answer waiting.
    let want = reference(1.0, &a, Transpose::No, &b);
    filler.wait().expect("filler served");
    for t in tickets {
        assert_eq!(
            t.wait().expect("served despite shutdown").as_slice(),
            want.as_slice()
        );
    }
}

#[test]
fn invalid_shapes_are_rejected_at_admission() {
    let svc = GemmService::new(service_cfg());
    let a = Arc::new(Matrix::random(8, 9, 1));
    let b = Arc::new(Matrix::random(8, 8, 2)); // op(B) has 8 rows ≠ 9
    assert_eq!(
        svc.submit("t", 1.0, a, Transpose::No, b).err(),
        Some(ServiceError::Rejected(
            "inner dimensions of A and op(B) disagree"
        ))
    );
    let empty = Arc::new(Matrix::zeros(0, 0));
    assert_eq!(
        svc.submit("t", 1.0, Arc::clone(&empty), Transpose::No, empty)
            .err(),
        Some(ServiceError::Rejected("empty matrix dimensions"))
    );
}

#[test]
fn healthy_pool_serves_a_stream_without_shedding() {
    let svc = GemmService::new(service_cfg());
    let b = Arc::new(Matrix::random(32, 32, 7));
    for i in 0..20 {
        let a = Arc::new(Matrix::random(32, 32, 500 + i));
        let got = svc
            .submit("stream", 1.0, Arc::clone(&a), Transpose::No, Arc::clone(&b))
            .expect("healthy pool admits")
            .wait()
            .expect("healthy pool serves");
        let want = reference(1.0, &a, Transpose::No, &b);
        assert_eq!(got.as_slice(), want.as_slice());
    }
    let status = svc.status_json();
    assert!(status.contains("\"schema\":\"dgemm-telem-v1\""), "{status}");
    assert!(status.contains("\"admitted\":20"), "{status}");
    assert!(status.contains("\"completed\":20"), "{status}");
    assert!(status.contains("\"queue_depth\":0"), "{status}");
    // a healthy pool neither sheds nor walks any rung of the fault ladder
    for idle in [
        "shed_overload",
        "shed_quota",
        "rejected",
        "deadline_misses",
        "degraded",
        "panics_contained",
    ] {
        assert!(
            status.contains(&format!("\"{idle}\":0")),
            "{idle}: {status}"
        );
    }
}

#[test]
fn service_config_parses_and_rejects_env() {
    let _guard = env_lock();
    for v in [
        "DGEMM_SERVICE_QUEUE",
        "DGEMM_SERVICE_TENANT_QUOTA",
        "DGEMM_SERVICE_DEADLINE_MS",
        "DGEMM_SERVICE_SHARDS",
        "DGEMM_SERVICE_RETRIES",
        "DGEMM_SERVICE_COALESCE",
        "DGEMM_SERVICE_CACHE_ENTRIES",
    ] {
        std::env::remove_var(v);
    }
    let cfg = ServiceConfig::from_env().expect("defaults");
    assert_eq!(cfg.queue_limit, 256);
    assert_eq!(cfg.tenant_quota, 256);
    assert_eq!(cfg.deadline, None);
    std::env::set_var("DGEMM_SERVICE_QUEUE", "32");
    std::env::set_var("DGEMM_SERVICE_DEADLINE_MS", "250");
    std::env::set_var("DGEMM_SERVICE_SHARDS", "2");
    std::env::set_var("DGEMM_SERVICE_COALESCE", "4");
    let cfg = ServiceConfig::from_env().expect("parses");
    assert_eq!(cfg.queue_limit, 32);
    assert_eq!(cfg.tenant_quota, 32, "quota defaults to the queue bound");
    assert_eq!(cfg.deadline, Some(Duration::from_millis(250)));
    assert_eq!(cfg.shards, 2);
    assert_eq!(cfg.coalesce, 4);
    std::env::set_var("DGEMM_SERVICE_QUEUE", "banana");
    assert!(
        ServiceConfig::from_env().is_err(),
        "garbage is a typed error"
    );
    std::env::set_var("DGEMM_SERVICE_QUEUE", "0");
    assert!(
        ServiceConfig::from_env().is_err(),
        "zero bound is a typed error"
    );
    for v in [
        "DGEMM_SERVICE_QUEUE",
        "DGEMM_SERVICE_DEADLINE_MS",
        "DGEMM_SERVICE_SHARDS",
        "DGEMM_SERVICE_COALESCE",
    ] {
        std::env::remove_var(v);
    }
}

#[test]
fn dedicated_shards_serve_bit_identically_to_the_global_pool() {
    let sharded = GemmService::new(ServiceConfig {
        shards: 2,
        ..service_cfg()
    });
    let global = GemmService::new(ServiceConfig {
        shards: 0,
        ..service_cfg()
    });
    let a = Arc::new(Matrix::random(96, 64, 41));
    let b = Arc::new(Matrix::random(64, 72, 42));
    let want = reference(1.0, &a, Transpose::No, &b);
    for svc in [&sharded, &global] {
        let got = svc
            .submit("t", 1.0, Arc::clone(&a), Transpose::No, Arc::clone(&b))
            .expect("admitted")
            .wait()
            .expect("served");
        assert_eq!(got.as_slice(), want.as_slice());
    }
}

/// A tenant holds panels for its `cache_entries` most recently used
/// weights. Three weights through two slots: a held weight is served on
/// its panels and packs nothing, the least recently used one is dropped
/// for a new one and packs again when it returns, and `/status` never
/// shows the tenant holding more than two.
#[test]
fn tenant_drops_its_least_recently_used_weight() {
    let svc = GemmService::new(ServiceConfig {
        cache_entries: 2,
        ..service_cfg()
    });
    let a = Arc::new(Matrix::random(24, 32, 60));
    let weights: Vec<Arc<Matrix>> = (0..3)
        .map(|i| Arc::new(Matrix::random(32, 30, 61 + i)))
        .collect();
    // Serve `a · weights[w]`; whether that packed B (a PackB span on the
    // request's chain, when recording is compiled in) and the tenant's
    // held count after.
    let serve = |w: usize| {
        let b = &weights[w];
        let ticket = svc
            .submit("lru", 1.0, Arc::clone(&a), Transpose::No, Arc::clone(b))
            .expect("admitted");
        let id = ticket.id();
        let got = ticket.wait().expect("served");
        let want = reference(1.0, &a, Transpose::No, b);
        assert_eq!(got.as_slice(), want.as_slice(), "weight {w}");
        let packed = svc.trace_of(id).iter().any(|e| e.kind == TraceKind::PackB);
        let status = json::parse(&svc.status_json()).expect("status parses");
        let tenants = status
            .get("tenants")
            .and_then(Value::as_arr)
            .expect("tenants");
        let lru = tenants
            .iter()
            .find(|t| t.get("name").and_then(Value::as_str) == Some("lru"))
            .expect("tenant row");
        let held = lru.get("cache_entries").and_then(Value::as_u64);
        (packed, held.expect("cache_entries"))
    };
    // w0 and w1 fill the slots, w0 is touched, w2 drops w1, w1 drops w0,
    // w2 is held, w0 returns
    let stream = [0, 1, 0, 2, 1, 2, 0];
    let served: Vec<(bool, u64)> = stream.iter().map(|&w| serve(w)).collect();
    let held: Vec<u64> = served.iter().map(|s| s.1).collect();
    assert_eq!(held, [1, 2, 2, 2, 2, 2, 2]);
    if trace::enabled() {
        let packed: Vec<bool> = served.iter().map(|s| s.0).collect();
        assert_eq!(packed, [true, true, false, true, true, false, true]);
    }
    svc.shutdown();
}
