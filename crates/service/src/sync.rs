//! The service stack's single sync-import surface, backed by
//! `reqisc-sched`.
//!
//! Every `Mutex`, `Condvar`, atomic and `thread::spawn` in this crate
//! must come from here (or `reqisc_sched` directly) — the
//! `reqisc-lint` `sync-shim` rule denies raw `std::sync` /
//! `std::thread::spawn` usage in the service sources. In normal builds
//! these names are zero-cost re-exports of `std`; under
//! `--features sched-model` they route through the cooperative
//! model-checking scheduler, which is what lets the model tests in
//! `tests/sched_model.rs` explore every bounded interleaving of the
//! pipeline's sync sites.
//!
//! The `*_recover` helpers carry the poisoning-tolerance contract the
//! request path relies on: a panicking compile job is isolated by
//! `catch_unwind` in the worker loop, but any *other* panic while a
//! service lock is held poisons the mutex — and with plain
//! `.expect("poisoned")` every later request touching that lock
//! panics too, silently killing worker and connection threads until
//! the daemon is a zombie (the `panic-path` lint rule forbids that
//! pattern). Recovery is sound here because every structure guarded
//! by these locks stays structurally valid at any panic point: the
//! queue swaps its heap out with `mem::take` and reassigns a rebuilt
//! vector, and the inflight map and connection list are plain
//! collections whose individual operations are atomic with respect to
//! panics. Worst case after a recovered poisoning is a *lost entry* (a
//! job that never ran), which the protocol already surfaces as an error
//! response — strictly better than a creeping thread die-off.

pub use reqisc_sched::sync::{
    atomic, wait_recover, wait_timeout_recover, Condvar, LockRecover, Mutex, MutexGuard,
    WaitTimeoutResult,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn recovers_from_poisoned_mutex() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = m.clone();
        let _ = reqisc_sched::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*m.lock_recover(), 7, "value still reachable after poisoning");
        *m.lock_recover() = 9;
        assert_eq!(*m.lock_recover(), 9);
    }

    #[test]
    fn wait_timeout_recover_reports_timeout() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let g = m.lock_recover();
        let (_g, res) =
            wait_timeout_recover(&cv, g, std::time::Duration::from_millis(1));
        assert!(res.timed_out());
    }
}
