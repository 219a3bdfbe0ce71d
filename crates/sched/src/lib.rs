//! `reqisc-sched`: sync shims + a deterministic interleaving explorer.
//!
//! The service pipeline's hardest invariants (cross-ring cancellation,
//! last-waiter-out, coalescing, shutdown drain) are concurrency
//! invariants, and on a single-core container the OS scheduler only
//! ever exercises a handful of interleavings. This crate closes that
//! gap with a vendored, dependency-free loom-style model checker:
//!
//! * In **normal builds** the [`sync`] and [`thread`] modules are plain
//!   re-exports of `std::sync` / `std::thread` — zero cost, identical
//!   semantics.
//! * Under **`--features sched-model`** the same names resolve to shim
//!   types that route every mutex acquire/release, condvar
//!   wait/notify, atomic op and thread spawn through a cooperative
//!   scheduler. `explore` then runs a closure repeatedly, one thread
//!   at a time, DFS-enumerating every interleaving reachable within a
//!   configurable preemption bound. Assertion failures and deadlocks
//!   (including lost wakeups) are reported with the exact schedule
//!   that produced them, and `replay` re-runs that schedule
//!   deterministically.
//!
//! Model closures must create all shared state *inside* the closure
//! (each execution starts fresh), use only the shim primitives for
//! cross-thread blocking (a raw `mpsc::recv` or `std` mutex would
//! block the scheduler itself), and be deterministic: no randomness,
//! no control flow decided by wall-clock time.
//!
//! The shim intentionally mirrors the subset of `std::sync` the
//! service stack uses: `Mutex`, `Condvar`, `AtomicU64/Usize/Bool`,
//! `thread::spawn`/`JoinHandle`. The `reqisc-lint` `sync-shim` rule
//! keeps the service stack on this surface so every future sync site
//! stays model-checkable by construction.

#[cfg(feature = "sched-model")]
pub mod model;
#[cfg(feature = "sched-model")]
mod shim;

#[cfg(feature = "sched-model")]
pub use model::{check, explore, replay, Failure, ModelConfig, Report, Step};

/// Shimmed `std::sync` subset: `Mutex`, `Condvar`, atomics, plus the
/// poisoning-tolerant helpers the service request path relies on.
///
/// A panicking compile job is already isolated by `catch_unwind` in
/// the worker loop, but any *other* panic while a service lock is held
/// poisons the mutex — and with plain `.expect("poisoned")` every
/// later request touching that lock panics too, silently killing
/// worker and connection threads until the daemon is a zombie.
/// `lock_recover` / `wait_recover` / `wait_timeout_recover` treat
/// poisoning as recoverable instead; this is sound wherever the
/// guarded structure stays structurally valid at any panic point
/// (plain collections, flags), which the service audits per lock.
pub mod sync {
    #[cfg(feature = "sched-model")]
    pub use crate::shim::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
    #[cfg(not(feature = "sched-model"))]
    pub use std::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};

    pub use std::sync::{LockResult, PoisonError};

    /// Shimmed `std::sync::atomic` subset.
    pub mod atomic {
        #[cfg(feature = "sched-model")]
        pub use crate::shim::{AtomicBool, AtomicU64, AtomicUsize};
        #[cfg(not(feature = "sched-model"))]
        pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};

        pub use std::sync::atomic::Ordering;
    }

    /// Extension trait: acquire a [`Mutex`], recovering the guard from
    /// a poisoned lock instead of panicking.
    pub trait LockRecover<T> {
        /// Locks, treating poisoning as recoverable.
        fn lock_recover(&self) -> MutexGuard<'_, T>;
    }

    impl<T> LockRecover<T> for Mutex<T> {
        fn lock_recover(&self) -> MutexGuard<'_, T> {
            self.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// [`Condvar::wait`] with the same poisoning tolerance.
    pub fn wait_recover<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// [`Condvar::wait_timeout`] with the same poisoning tolerance.
    ///
    /// Under the model scheduler the duration is not consulted: a
    /// timed wait "times out" exactly when no other thread can run
    /// (the model's notion of time passing), which keeps exploration
    /// finite while still letting shutdown paths that lean on
    /// timeouts make progress.
    pub fn wait_timeout_recover<'a, T>(
        cv: &Condvar,
        guard: MutexGuard<'a, T>,
        dur: std::time::Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        cv.wait_timeout(guard, dur).unwrap_or_else(PoisonError::into_inner)
    }
}

/// Shimmed `std::thread` subset (`spawn` + `JoinHandle`).
pub mod thread {
    #[cfg(feature = "sched-model")]
    pub use crate::shim::thread::{spawn, JoinHandle};
    #[cfg(not(feature = "sched-model"))]
    pub use std::thread::{spawn, JoinHandle};
}

#[cfg(test)]
mod tests {
    use super::sync::{wait_timeout_recover, Condvar, LockRecover, Mutex};
    use std::time::Duration;

    // These run in BOTH modes: in passthrough builds they pin the
    // re-export surface, under `sched-model` (outside any exploration)
    // they pin the shim's fallback-to-real-sync behaviour.
    #[test]
    fn lock_recover_roundtrip() {
        let m = Mutex::new(3u32);
        *m.lock_recover() += 1;
        assert_eq!(*m.lock_recover(), 4);
    }

    #[test]
    fn wait_timeout_recover_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let g = m.lock_recover();
        let (_g, res) = wait_timeout_recover(&cv, g, Duration::from_millis(1));
        assert!(res.timed_out(), "nobody notified; the wait must time out");
    }
}
