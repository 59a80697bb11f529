//! Deterministic fault injection for the pool runtime.
//!
//! Compiled under the `fault-injection` feature, this module lets tests
//! install a [`FaultPlan`] describing *which* failure to provoke and
//! *when* (the nth occurrence of the corresponding injection site).
//! These sites exist, matching the failure model in DESIGN.md §10:
//!
//! | site | hook | effect when fired |
//! |------|------|-------------------|
//! | job execution | `panic_in_job` | a cell on the pool panics at one of its GEBPs, mid-epoch (counted per block; a `Parallelism::Serial` call runs the same cell body uncontained and never reaches the site) |
//! | job execution | `slow_job_delay` | the job sleeps *before* it claims its cell, past the watchdog deadline (pool threads only) |
//! | job execution | `stall_in_cell` | the job sleeps *after* the claim, holding the caller's operands (pool threads only) |
//! | worker spawn  | `fail_spawn` | `thread::Builder::spawn` is treated as failed |
//! | buffer growth | `fail_alloc` | `try_reserve` is treated as failed |
//! | service queue | `service_stall_delay` | the service scheduler stalls before executing a group |
//! | service batch | `panic_in_service` | a coalesced-batch execution panics at the service layer |
//!
//! A further pseudo-site, `take_worker_kill`, makes a worker exit its
//! loop *after* completing a task — simulating a cleanly dead thread
//! (the respawn path) without losing in-flight work.
//!
//! The two `service_*` sites target the admission-controlled service
//! layer (DESIGN.md §15): a stalled scheduler exercises queued-request
//! deadlines firing while work is pending, and a service-level panic
//! exercises the retry/degrade ladder above the pool's own
//! containment. [`FaultPlan::from_seed`] keeps its historical 5-fault
//! pool mapping (the property suite's seeds stay meaningful);
//! [`FaultPlan::from_seed_service`] adds the two service sites and is
//! what the chaos-soak suite drives through `DGEMM_FAULT_SEED`. No seed
//! draws `stall_in_cell`: a plan names it.
//!
//! Occurrence counters are global atomics, so plans are deterministic
//! for a fixed interleaving of calls: "fail the 3rd allocation" always
//! fails the 3rd allocation. Plans can also be derived from a seed
//! ([`FaultPlan::from_seed`]) or from `DGEMM_FAULT_SEED` in the
//! environment ([`install_from_env`]), which is how the property suite
//! explores the fault space reproducibly.
//!
//! With the feature disabled every hook is an inline no-op, so the
//! production pool runtime carries zero overhead (the `pool_steady_state`
//! suite and the ladder's `pool.small_call_overhead_us` run with it off).

#![forbid(unsafe_code)]

#[cfg(feature = "fault-injection")]
pub use enabled::*;

#[cfg(feature = "fault-injection")]
mod enabled {
    use crate::trace::{self, HealthEventKind};
    use crate::util::SplitMix64;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, PoisonError};
    use std::time::Duration;

    /// Fires an injection site on occurrences `nth .. nth + count`.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Trigger {
        /// Zero-based occurrence index of the first firing.
        pub nth: u64,
        /// How many consecutive occurrences fire.
        pub count: u64,
    }

    impl Trigger {
        /// Fire exactly once, on occurrence `nth`.
        #[must_use]
        pub fn once(nth: u64) -> Self {
            Trigger { nth, count: 1 }
        }

        pub(crate) fn hits(self, occurrence: u64) -> bool {
            occurrence >= self.nth && occurrence - self.nth < self.count
        }
    }

    /// Which faults to inject and when.
    ///
    /// `None` sites never fire. Install with [`install`]; remove with
    /// [`clear`]. Installing (or clearing) resets all occurrence
    /// counters, so each installed plan observes a fresh numbering.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct FaultPlan {
        /// Panic inside a pool job (a GEBP block run).
        pub worker_panic: Option<Trigger>,
        /// Delay a pool job by the given duration before it claims its
        /// cell (fires only on pool worker threads, never on the
        /// help-draining caller): the caller's watchdog can take the
        /// cell back.
        pub slow_worker: Option<(Trigger, Duration)>,
        /// Delay a pool job by the given duration right after it claimed
        /// its cell (pool worker threads only): the cell cannot be taken
        /// back, so the call lasts at least this long. Drawn by no seed.
        pub cell_stall: Option<(Trigger, Duration)>,
        /// Report worker-thread spawn as failed.
        pub spawn_fail: Option<Trigger>,
        /// Report buffer allocation (`try_reserve`) as failed.
        pub alloc_fail: Option<Trigger>,
        /// Make a worker exit its loop after finishing a task.
        pub worker_kill: Option<Trigger>,
        /// Stall the service scheduler for the given duration before it
        /// executes a request group (queued deadlines keep ticking).
        pub service_stall: Option<(Trigger, Duration)>,
        /// Panic inside the service layer's batch execution (above the
        /// pool's own containment).
        pub service_panic: Option<Trigger>,
    }

    impl FaultPlan {
        /// Derive a single-fault plan deterministically from a seed.
        ///
        /// The fault kind, occurrence index, and (for slow workers) the
        /// delay all come from a `SplitMix64` stream, so one `u64`
        /// reproduces the exact failure. Used by the property suite to
        /// sweep the fault space.
        #[must_use]
        pub fn from_seed(seed: u64) -> Self {
            let mut rng = SplitMix64::new(seed);
            let nth = rng.next_u64() % 4;
            let mut plan = FaultPlan::default();
            match rng.next_u64() % 5 {
                0 => plan.worker_panic = Some(Trigger::once(nth)),
                1 => {
                    let delay = Duration::from_millis(40 + rng.next_u64() % 40);
                    plan.slow_worker = Some((Trigger::once(nth), delay));
                }
                2 => {
                    plan.spawn_fail = Some(Trigger {
                        nth: 0,
                        count: nth + 1,
                    })
                }
                3 => plan.alloc_fail = Some(Trigger::once(nth)),
                _ => plan.worker_kill = Some(Trigger::once(nth)),
            }
            plan
        }

        /// [`FaultPlan::from_seed`] extended over the service-layer
        /// sites: seeds map onto those five and these two. Used by the
        /// chaos-soak suite so one `DGEMM_FAULT_SEED` sweep covers pool
        /// faults *and* scheduler stalls / service-level panics.
        #[must_use]
        pub fn from_seed_service(seed: u64) -> Self {
            let mut rng = SplitMix64::new(seed);
            let nth = rng.next_u64() % 4;
            let mut plan = FaultPlan::default();
            match rng.next_u64() % 7 {
                0 => plan.worker_panic = Some(Trigger::once(nth)),
                1 => {
                    let delay = Duration::from_millis(40 + rng.next_u64() % 40);
                    plan.slow_worker = Some((Trigger::once(nth), delay));
                }
                2 => {
                    plan.spawn_fail = Some(Trigger {
                        nth: 0,
                        count: nth + 1,
                    })
                }
                3 => plan.alloc_fail = Some(Trigger::once(nth)),
                4 => plan.worker_kill = Some(Trigger::once(nth)),
                5 => {
                    let delay = Duration::from_millis(20 + rng.next_u64() % 60);
                    plan.service_stall = Some((Trigger::once(nth % 2), delay));
                }
                _ => plan.service_panic = Some(Trigger::once(nth)),
            }
            plan
        }
    }

    static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
    static PANIC_HITS: AtomicU64 = AtomicU64::new(0);
    static SLOW_HITS: AtomicU64 = AtomicU64::new(0);
    static CELL_STALL_HITS: AtomicU64 = AtomicU64::new(0);
    static SPAWN_HITS: AtomicU64 = AtomicU64::new(0);
    static ALLOC_HITS: AtomicU64 = AtomicU64::new(0);
    static KILL_HITS: AtomicU64 = AtomicU64::new(0);
    static SERVICE_STALL_HITS: AtomicU64 = AtomicU64::new(0);
    static SERVICE_PANIC_HITS: AtomicU64 = AtomicU64::new(0);

    fn reset_counters() {
        PANIC_HITS.store(0, Ordering::SeqCst);
        SLOW_HITS.store(0, Ordering::SeqCst);
        CELL_STALL_HITS.store(0, Ordering::SeqCst);
        SPAWN_HITS.store(0, Ordering::SeqCst);
        ALLOC_HITS.store(0, Ordering::SeqCst);
        KILL_HITS.store(0, Ordering::SeqCst);
        SERVICE_STALL_HITS.store(0, Ordering::SeqCst);
        SERVICE_PANIC_HITS.store(0, Ordering::SeqCst);
    }

    /// Install a plan, resetting all occurrence counters.
    ///
    /// Fault state is process-global (the pool under test is), so tests
    /// that install plans must serialize against each other.
    pub fn install(plan: FaultPlan) {
        let mut guard = PLAN.lock().unwrap_or_else(PoisonError::into_inner);
        reset_counters();
        *guard = Some(plan);
    }

    /// Remove any installed plan and reset counters.
    pub fn clear() {
        let mut guard = PLAN.lock().unwrap_or_else(PoisonError::into_inner);
        reset_counters();
        *guard = None;
    }

    /// Install the plan seeded by `DGEMM_FAULT_SEED`, if set and valid.
    ///
    /// Returns the seed on success so harnesses can log it.
    pub fn install_from_env() -> Option<u64> {
        let seed: u64 = std::env::var("DGEMM_FAULT_SEED")
            .ok()?
            .trim()
            .parse()
            .ok()?;
        install(FaultPlan::from_seed(seed));
        Some(seed)
    }

    fn plan() -> Option<FaultPlan> {
        *PLAN.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn fired(counter: &AtomicU64, trigger: Option<Trigger>) -> bool {
        let Some(trigger) = trigger else { return false };
        let occurrence = counter.fetch_add(1, Ordering::SeqCst);
        trigger.hits(occurrence)
    }

    /// Journal a fired injection site so chaos runs can correlate the
    /// observed failure with its cause (DESIGN.md §11). The trace ID is
    /// whatever request context is current on this thread (0 when the
    /// site fires outside any request, e.g. spawn during pool bring-up).
    fn injected(site: &'static str) {
        let trace = crate::telemetry::current_trace();
        trace::health_event(HealthEventKind::FaultInjected, trace, 0, site);
    }

    fn on_pool_thread() -> bool {
        std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("dgemm-pool-"))
    }

    /// Injection site: a block of a cell computed on the pool, under its
    /// `catch_unwind`. Panics when the plan says so.
    pub(crate) fn panic_in_job() {
        if fired(&PANIC_HITS, plan().and_then(|p| p.worker_panic)) {
            injected("worker_panic");
            panic!("injected worker panic (dgemm fault-injection)");
        }
    }

    /// Injection site: start of a pool job on a worker thread, before
    /// it claims its cell. Sleeps past the watchdog deadline when the
    /// plan says so.
    pub(crate) fn slow_job_delay() {
        stall(
            &SLOW_HITS,
            plan().and_then(|p| p.slow_worker),
            "slow_worker",
        );
    }

    /// Injection site: a pool job on a worker thread, right after it
    /// claimed its cell. Sleeps when the plan says so.
    pub(crate) fn stall_in_cell() {
        stall(
            &CELL_STALL_HITS,
            plan().and_then(|p| p.cell_stall),
            "cell_stall",
        );
    }

    fn stall(counter: &AtomicU64, armed: Option<(Trigger, Duration)>, site: &'static str) {
        let Some((trigger, delay)) = armed else {
            return;
        };
        if on_pool_thread() && fired(counter, Some(trigger)) {
            injected(site);
            std::thread::sleep(delay);
        }
    }

    /// Injection site: worker-thread spawn. `true` = pretend it failed.
    pub(crate) fn fail_spawn() -> bool {
        let hit = fired(&SPAWN_HITS, plan().and_then(|p| p.spawn_fail));
        if hit {
            injected("spawn_fail");
        }
        hit
    }

    /// Injection site: buffer `try_reserve`. `true` = pretend it failed.
    pub(crate) fn fail_alloc() -> bool {
        let hit = fired(&ALLOC_HITS, plan().and_then(|p| p.alloc_fail));
        if hit {
            injected("alloc_fail");
        }
        hit
    }

    /// Injection site: end of a worker's task loop iteration. `true` =
    /// the worker should exit (simulated death; respawn path).
    pub(crate) fn take_worker_kill() -> bool {
        let hit = fired(&KILL_HITS, plan().and_then(|p| p.worker_kill));
        if hit {
            injected("worker_kill");
        }
        hit
    }

    /// Injection site: service scheduler about to execute a request
    /// group. Sleeps when the plan says so (queue stall).
    pub(crate) fn service_stall_delay() {
        let Some((trigger, delay)) = plan().and_then(|p| p.service_stall) else {
            return;
        };
        if fired(&SERVICE_STALL_HITS, Some(trigger)) {
            injected("service_stall");
            std::thread::sleep(delay);
        }
    }

    /// Injection site: inside the service layer's batch execution.
    /// Panics when the plan says so (contained by the service's own
    /// `catch_unwind`, exercising its retry/degrade ladder).
    pub(crate) fn panic_in_service() {
        if fired(&SERVICE_PANIC_HITS, plan().and_then(|p| p.service_panic)) {
            injected("service_panic");
            panic!("injected service-layer panic (dgemm fault-injection)");
        }
    }
}

#[cfg(not(feature = "fault-injection"))]
mod disabled {
    /// No-op injection hooks: the production build pays nothing.
    #[inline(always)]
    pub(crate) fn panic_in_job() {}
    #[inline(always)]
    pub(crate) fn slow_job_delay() {}
    #[inline(always)]
    pub(crate) fn stall_in_cell() {}
    #[inline(always)]
    pub(crate) fn fail_spawn() -> bool {
        false
    }
    #[inline(always)]
    pub(crate) fn fail_alloc() -> bool {
        false
    }
    #[inline(always)]
    pub(crate) fn take_worker_kill() -> bool {
        false
    }
    #[inline(always)]
    pub(crate) fn service_stall_delay() {}
    #[inline(always)]
    pub(crate) fn panic_in_service() {}
}

#[cfg(not(feature = "fault-injection"))]
pub(crate) use disabled::*;

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;

    #[test]
    fn triggers_fire_on_their_window() {
        let t = Trigger { nth: 2, count: 2 };
        assert!(!t.hits(0));
        assert!(!t.hits(1));
        assert!(t.hits(2));
        assert!(t.hits(3));
        assert!(!t.hits(4));
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        for seed in 0..64 {
            let a = format!("{:?}", FaultPlan::from_seed(seed));
            let b = format!("{:?}", FaultPlan::from_seed(seed));
            assert_eq!(a, b);
        }
    }

    fn armed_sites(p: &FaultPlan) -> usize {
        usize::from(p.worker_panic.is_some())
            + usize::from(p.slow_worker.is_some())
            + usize::from(p.cell_stall.is_some())
            + usize::from(p.spawn_fail.is_some())
            + usize::from(p.alloc_fail.is_some())
            + usize::from(p.worker_kill.is_some())
            + usize::from(p.service_stall.is_some())
            + usize::from(p.service_panic.is_some())
    }

    #[test]
    fn every_seed_selects_exactly_one_fault() {
        for seed in 0..256 {
            let p = FaultPlan::from_seed(seed);
            assert_eq!(armed_sites(&p), 1, "seed {seed}: {p:?}");
            // The pool-only generator never arms a service site.
            assert!(p.service_stall.is_none() && p.service_panic.is_none());
        }
    }

    #[test]
    fn service_seeds_cover_all_sites_exactly_once_each() {
        let mut service_armed = 0usize;
        for seed in 0..256 {
            let p = FaultPlan::from_seed_service(seed);
            assert_eq!(armed_sites(&p), 1, "seed {seed}: {p:?}");
            service_armed +=
                usize::from(p.service_stall.is_some()) + usize::from(p.service_panic.is_some());
        }
        assert!(service_armed > 0, "service sites never drawn in 256 seeds");
    }
}
