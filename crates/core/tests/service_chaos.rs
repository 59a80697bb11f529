//! Chaos soak for the serving layer (`fault-injection` feature only).
//!
//! For every seed, [`FaultPlan::from_seed_service`] arms exactly one
//! fault across the seven sites — the five pool-level ones (worker
//! panic, stalled worker, spawn failure, allocation failure, worker
//! death) plus the two service-level ones (queue stall, coalesced-batch
//! panic) — and a concurrent multi-tenant load is driven through a
//! [`GemmService`]. The gate:
//!
//! * **No lost responses** — every admitted request resolves exactly
//!   once (every ticket's `wait` returns).
//! * **No incorrect responses** — every `Ok` result is bit-identical
//!   to the direct serial `gemm()` oracle; every failure is a typed
//!   [`ServiceError`]. Never a hang, an abort, or silent corruption.
//! * **Recovery** — after the plan is cleared, the same service serves
//!   an exact result immediately.
//!
//! Replay one seed in isolation with
//! `DGEMM_FAULT_SEED=n cargo test -p dgemm-core --features
//! fault-injection --test service_chaos seeded_service_run_from_env`.

#![cfg(feature = "fault-injection")]

use dgemm_core::faults::{self, FaultPlan};
use dgemm_core::gemm::{gemm, GemmConfig};
use dgemm_core::matrix::Matrix;
use dgemm_core::microkernel::MicroKernelKind;
use dgemm_core::pool::Parallelism;
use dgemm_core::service::{GemmService, ServiceConfig, ServiceError};
use dgemm_core::Transpose;
use std::sync::{Arc, Mutex};
use std::time::Duration;

static LOCK: Mutex<()> = Mutex::new(());

const M: usize = 97;
const N: usize = 54;
const K: usize = 50;
const TENANTS: usize = 3;
const PER_TENANT: usize = 4;

/// Small blocks (many tasks per epoch, so block-level faults actually
/// fire) and a short watchdog (so seeded stalls trip it rather than
/// merely slowing the suite).
fn gemm_cfg() -> GemmConfig {
    GemmConfig::for_kernel(MicroKernelKind::Mk8x6, 1)
        .with_blocks(24, 16, 18)
        .with_parallelism(Parallelism::Pool(4))
        .with_epoch_timeout(Some(Duration::from_millis(20)))
}

fn service_cfg() -> ServiceConfig {
    ServiceConfig {
        queue_limit: 64,
        coalesce: 4,
        cache_entries: 4,
        unhealthy_cooldown: Duration::from_millis(50),
        gemm: gemm_cfg(),
        ..ServiceConfig::default()
    }
}

fn a_mat(tenant: usize, i: usize) -> Matrix {
    Matrix::random(M, K, 1000 + (tenant * PER_TENANT + i) as u64)
}

fn b_mat(tenant: usize) -> Matrix {
    Matrix::random(K, N, 2000 + tenant as u64)
}

/// Serial oracle under the identical kernel/blocking — bit-identical to
/// anything the service legitimately serves.
fn oracle(tenant: usize, i: usize) -> Matrix {
    let a = a_mat(tenant, i);
    let b = b_mat(tenant);
    let mut c = Matrix::zeros(M, N);
    let serial = gemm_cfg().with_parallelism(Parallelism::Serial);
    gemm(
        Transpose::No,
        Transpose::No,
        1.25,
        &a.view(),
        &b.view(),
        0.0,
        &mut c.view_mut(),
        &serial,
    );
    c
}

/// Drive the multi-tenant load against `svc` and audit every outcome.
/// Returns how many requests resolved `Ok`.
fn drive_and_audit(svc: &GemmService, seed: u64, oracles: &[Vec<Matrix>]) -> usize {
    // Submit concurrently from one thread per tenant — admission, the
    // queue and the per-tenant quotas are exercised under contention.
    let tickets: Vec<Vec<_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TENANTS)
            .map(|t| {
                let svc = &*svc;
                scope.spawn(move || {
                    let b = Arc::new(b_mat(t));
                    (0..PER_TENANT)
                        .map(|i| {
                            let a = Arc::new(a_mat(t, i));
                            // One request per tenant races a short
                            // deadline against the injected stall; the
                            // rest are unbounded.
                            let deadline = (i == PER_TENANT - 1).then(|| Duration::from_millis(15));
                            svc.submit_with_deadline(
                                &format!("tenant-{t}"),
                                1.25,
                                a,
                                Transpose::No,
                                Arc::clone(&b),
                                deadline,
                            )
                            .expect("the bound is far above the offered load")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter"))
            .collect()
    });

    // Every ticket resolves exactly once: `wait` returning *is* the
    // no-lost-responses gate (a hang here fails the suite's timeout).
    let mut served = 0;
    for (t, tenant_tickets) in tickets.into_iter().enumerate() {
        for (i, ticket) in tenant_tickets.into_iter().enumerate() {
            match ticket.wait() {
                Ok(c) => {
                    assert_eq!(
                        c.as_slice(),
                        oracles[t][i].as_slice(),
                        "seed {seed}: served result for tenant {t} req {i} must be bit-identical"
                    );
                    served += 1;
                }
                Err(e @ (ServiceError::DeadlineExceeded { .. } | ServiceError::Rejected(_))) => {
                    let _ = e.to_string(); // typed and displayable
                }
                Err(e @ ServiceError::Overloaded { .. }) => {
                    panic!("seed {seed}: admitted request resolved Overloaded: {e}")
                }
            }
        }
    }
    served
}

fn check_seed(seed: u64, oracles: &[Vec<Matrix>]) {
    faults::install(FaultPlan::from_seed_service(seed));
    let svc = GemmService::new(service_cfg());
    drive_and_audit(&svc, seed, oracles);
    faults::clear();

    // Recovery: with the plan cleared, the same service instance
    // (same shard, possibly just quarantined) serves exactly.
    let a = Arc::new(a_mat(0, 0));
    let b = Arc::new(b_mat(0));
    let got = svc
        .submit("tenant-0", 1.25, a, Transpose::No, b)
        .expect("healthy admission")
        .wait()
        .unwrap_or_else(|e| panic!("seed {seed}: healthy call after clearing failed: {e}"));
    assert_eq!(
        got.as_slice(),
        oracles[0][0].as_slice(),
        "seed {seed}: service must serve exact results once the fault is cleared"
    );
    svc.shutdown();
}

fn all_oracles() -> Vec<Vec<Matrix>> {
    (0..TENANTS)
        .map(|t| (0..PER_TENANT).map(|i| oracle(t, i)).collect())
        .collect()
}

#[test]
fn every_seeded_service_fault_keeps_the_exactly_once_contract() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    faults::clear();
    let oracles = all_oracles();
    for seed in 0..42 {
        check_seed(seed, &oracles);
    }
    // Let any injected stall drain before other suites run.
    std::thread::sleep(Duration::from_millis(100));
}

/// A healthy (fault-free) service under the same concurrent load sheds
/// nothing and serves everything — the bounded-shed-rate half of the
/// gate.
#[test]
fn healthy_service_serves_the_full_load_without_shedding() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    faults::clear();
    let oracles = all_oracles();
    let svc = GemmService::new(ServiceConfig {
        deadline: None,
        ..service_cfg()
    });
    // No deadlines in the healthy sweep: drive_and_audit's short-fuse
    // request may still miss under scheduler jitter, so allow it, but
    // everything else must be served.
    let served = drive_and_audit(&svc, u64::MAX, &oracles);
    assert!(
        served >= TENANTS * (PER_TENANT - 1),
        "healthy pool served only {served}/{} requests",
        TENANTS * PER_TENANT
    );
    let status = svc.status_json();
    assert!(status.contains("\"shed_overload\":0"), "{status}");
    assert!(status.contains("\"shed_quota\":0"), "{status}");
}

/// Replay a single seed supplied via `DGEMM_FAULT_SEED` — the tool for
/// reproducing one failure of the sweep above in isolation.
#[test]
fn seeded_service_run_from_env() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    faults::clear();
    let Some(seed) = faults::install_from_env().expect("a set DGEMM_FAULT_SEED is a u64") else {
        return; // not set: nothing to replay
    };
    faults::clear();
    let oracles = all_oracles();
    check_seed(seed, &oracles);
}
