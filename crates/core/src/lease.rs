//! Lending borrowed data to threads that outlive the borrow — the
//! crate's one lifetime erasure.
//!
//! The pool's workers are persistent, so the jobs they run are
//! `'static` closures; the operands of a GEMM call are borrows that end
//! when the call returns. [`scope`] bridges the two: it lends a payload
//! for the duration of a closure and hands that closure a [`Gate`], a
//! `'static` handle that jobs clone and carry. A job reaches the payload
//! only through [`Gate::with`], and the protocol that makes that sound
//! has three rules:
//!
//! 1. `with` registers its thread as a *holder* before it runs the job's
//!    closure and deregisters when the closure returns or unwinds;
//! 2. leaving `scope` — by return or by unwinding — *revokes* the gate
//!    and then blocks until no holder is registered;
//! 3. once revoked, `with` registers nobody: it returns `None` and the
//!    job's closure never runs.
//!
//! Both sides take one mutex to change the state, so "revoked" (the
//! payload pointer nulled) and the holder count are always read
//! together. The entry is a closure, not a guard, so there is nothing a
//! caller could `mem::forget` to skip rule 2; forgetting or leaking a
//! `Gate` leaks a small allocation and nothing else.
//!
//! The payload type is named through [`Lend`], a family of types over
//! one lifetime: the gate cannot carry the borrow's real lifetime (it
//! would not be `'static`), so `with` hands the payload out under a
//! fresh lifetime that the job's closure must accept whatever it is —
//! nothing borrowed from the payload can leave the closure, and nothing
//! shorter-lived can be stored into it.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A type with one lifetime parameter, named without the lifetime.
pub(crate) trait Lend: 'static {
    /// The lent type at lifetime `'a`. Jobs on several threads hold
    /// `&Lent` at once, hence `Sync`.
    type Lent<'a>: Sync + 'a;
}

struct Shared {
    /// The `&L::Lent<'a>` given to [`scope`], lifetimes erased; null
    /// once revoked. Read and written under `holders`' lock.
    payload: AtomicPtr<()>,
    /// Threads inside [`Gate::with`] right now.
    holders: Mutex<usize>,
    /// Signalled when `holders` drops to zero.
    idle: Condvar,
}

impl Shared {
    /// A count is valid whatever a panicking thread was doing, so a
    /// poisoned lock is taken as it is.
    fn holders(&self) -> MutexGuard<'_, usize> {
        self.holders.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A `'static`, cloneable handle on the payload of one [`scope`] call.
pub(crate) struct Gate<L: Lend> {
    shared: Arc<Shared>,
    _lend: PhantomData<fn() -> L>,
}

impl<L: Lend> Clone for Gate<L> {
    fn clone(&self) -> Self {
        Gate {
            shared: Arc::clone(&self.shared),
            _lend: PhantomData,
        }
    }
}

/// Lend `payload` to whoever holds a clone of the [`Gate`] passed to
/// `body`, for as long as `body` runs. Returns — or resumes unwinding —
/// only once no thread is inside [`Gate::with`]; from then on every
/// `with` on any clone returns `None`.
pub(crate) fn scope<'a, L: Lend, R>(payload: &L::Lent<'a>, body: impl FnOnce(&Gate<L>) -> R) -> R {
    /// Rule 2, on every way out of `scope`.
    struct Close<'s>(&'s Shared);
    impl Drop for Close<'_> {
        fn drop(&mut self) {
            let mut holders = self.0.holders();
            self.0
                .payload
                .store(std::ptr::null_mut(), Ordering::Relaxed);
            while *holders > 0 {
                holders = self
                    .0
                    .idle
                    .wait(holders)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    let gate = Gate {
        shared: Arc::new(Shared {
            payload: AtomicPtr::new(std::ptr::from_ref(payload).cast::<()>().cast_mut()),
            holders: Mutex::new(0),
            idle: Condvar::new(),
        }),
        _lend: PhantomData,
    };
    let _close = Close(&gate.shared);
    body(&gate)
}

impl<L: Lend> Gate<L> {
    /// Run `f` on the payload, unless the gate is revoked: then `None`,
    /// and `f` is dropped unrun. The [`scope`] that lent the payload
    /// cannot end while `f` runs.
    pub(crate) fn with<R>(&self, f: impl for<'x> FnOnce(&'x L::Lent<'x>) -> R) -> Option<R> {
        /// Rule 1's second half, on return and on unwind.
        struct Holder<'s>(&'s Shared);
        impl Drop for Holder<'_> {
            fn drop(&mut self) {
                let mut holders = self.0.holders();
                *holders -= 1;
                if *holders == 0 {
                    self.0.idle.notify_all();
                }
            }
        }

        let payload = {
            let mut holders = self.shared.holders();
            let payload = self.shared.payload.load(Ordering::Relaxed);
            if payload.is_null() {
                return None;
            }
            *holders += 1;
            payload
        };
        let _holder = Holder(&self.shared);
        // SAFETY: `payload` is the `&L::Lent<'a>` `scope` was given (not
        // null, so read before the revocation, under the lock both take).
        // It is dereferenced only here, inside `with`; this line runs only
        // between registering `_holder` and dropping it; and `scope`
        // cannot return — ending that borrow — while a holder is
        // registered, nor does anyone register afterwards. The lifetime
        // `f` sees is one it must accept whatever it is, so no borrow
        // derived from the payload leaves `f` and nothing shorter-lived
        // than `'a` can be stored through it.
        let lent = unsafe { &*payload.cast::<L::Lent<'_>>() };
        Some(f(lent))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    /// The test payload: a borrow that counts every touch, and a flag
    /// the test raises once the borrow is over.
    struct Probe<'a> {
        touches: &'a AtomicUsize,
        over: &'a AtomicBool,
    }

    impl Probe<'_> {
        fn touch(&self) {
            assert!(
                !self.over.load(Ordering::SeqCst),
                "payload reached after its scope returned"
            );
            self.touches.fetch_add(1, Ordering::SeqCst);
        }
    }

    struct ProbeLend;
    impl Lend for ProbeLend {
        type Lent<'a> = Probe<'a>;
    }

    const HOLD: Duration = Duration::from_millis(50);

    #[test]
    fn a_revoked_gate_never_touches_the_payload() {
        let (touches, over) = (AtomicUsize::new(0), AtomicBool::new(false));
        let probe = Probe {
            touches: &touches,
            over: &over,
        };
        let gate = scope::<ProbeLend, _>(&probe, |gate| {
            assert_eq!(gate.with(|p| p.touch()), Some(()));
            gate.clone()
        });
        over.store(true, Ordering::SeqCst);
        let mut ran = false;
        assert_eq!(
            gate.with(|p| {
                ran = true;
                p.touch();
            }),
            None
        );
        assert!(!ran, "a revoked gate ran its closure");
        assert_eq!(touches.load(Ordering::SeqCst), 1);
    }

    /// `scope`'s exit — `unwinding` or not — waits for a holder that
    /// registered before the body ended.
    fn exit_waits_for_a_holder(unwinding: bool) {
        let (touches, over) = (AtomicUsize::new(0), AtomicBool::new(false));
        let probe = Probe {
            touches: &touches,
            over: &over,
        };
        let (registered_tx, registered_rx) = mpsc::channel();
        std::thread::scope(|threads| {
            let mut registered_at = None;
            let exit = catch_unwind(AssertUnwindSafe(|| {
                scope::<ProbeLend, _>(&probe, |gate| {
                    let gate = gate.clone();
                    threads.spawn(move || {
                        gate.with(|p| {
                            registered_tx.send(Instant::now()).unwrap();
                            std::thread::sleep(HOLD);
                            p.touch();
                        })
                    });
                    registered_at = Some(registered_rx.recv().unwrap());
                    assert!(!unwinding, "injected: the body unwinds past a holder");
                })
            }));
            // the holder's touch is done and it saw a live payload
            over.store(true, Ordering::SeqCst);
            assert_eq!(exit.is_err(), unwinding);
            assert!(registered_at.unwrap().elapsed() >= HOLD);
            assert_eq!(touches.load(Ordering::SeqCst), 1);
        });
    }

    #[test]
    fn scope_exit_blocks_on_a_holder() {
        exit_waits_for_a_holder(false);
    }

    #[test]
    fn an_unwinding_scope_blocks_on_a_holder_too() {
        exit_waits_for_a_holder(true);
    }

    #[test]
    fn a_panic_inside_with_deregisters() {
        let (touches, over) = (AtomicUsize::new(0), AtomicBool::new(false));
        let probe = Probe {
            touches: &touches,
            over: &over,
        };
        // A holder left registered would hang the scope's exit.
        let gate = scope::<ProbeLend, _>(&probe, |gate| {
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                gate.with(|p| {
                    p.touch();
                    panic!("injected: a job panics while it holds the payload");
                })
            }));
            assert!(unwound.is_err());
            assert_eq!(*gate.shared.holders(), 0);
            assert_eq!(gate.with(|p| p.touch()), Some(()));
            gate.clone()
        });
        assert_eq!(gate.with(|p| p.touch()), None);
        assert_eq!(touches.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn racing_holders_never_see_the_payload_after_the_scope_returns() {
        const THREADS: usize = 8;
        const CALLS: usize = 10_000;
        let (touches, over) = (AtomicUsize::new(0), AtomicBool::new(false));
        let probe = Probe {
            touches: &touches,
            over: &over,
        };
        let served = AtomicUsize::new(0);
        let (started_tx, started_rx) = mpsc::channel();
        std::thread::scope(|threads| {
            scope::<ProbeLend, _>(&probe, |gate| {
                for _ in 0..THREADS {
                    let (gate, started, served) = (gate.clone(), started_tx.clone(), &served);
                    threads.spawn(move || {
                        for call in 0..CALLS {
                            if gate.with(|p| p.touch()).is_some() {
                                served.fetch_add(1, Ordering::SeqCst);
                            }
                            if call == 0 {
                                started.send(()).unwrap();
                            }
                        }
                    });
                }
                // revoke while every thread is inside its loop
                for _ in 0..THREADS {
                    started_rx.recv().unwrap();
                }
            });
            // Any touch from here on trips the probe's assert, which
            // fails the test through the thread scope's join.
            over.store(true, Ordering::SeqCst);
        });
        assert_eq!(
            touches.load(Ordering::SeqCst),
            served.load(Ordering::SeqCst)
        );
        assert!(served.load(Ordering::SeqCst) >= THREADS);
    }
}
