//! Model-checked interleaving tests for the pipeline's sync sites.
//!
//! Run with `cargo test -p reqisc-service --features sched-model --test
//! sched_model`. Every test body builds its shared state *inside* the
//! closure handed to the explorer, uses only the shim primitives from
//! [`reqisc_service::sync`] / [`reqisc_sched::thread`], and is
//! deterministic — the three rules that make a recorded failure
//! schedule replayable.
//!
//! The tests pin the service's conservation laws across **all** bounded
//! interleavings of small configs, not just the ones a lucky
//! wall-clock run happens to hit:
//!
//! * a queue/ring push wakes a blocked pop (no lost `Condvar` wakeup —
//!   `queue_push_wakes_blocked_pop` is the seeded-violation target of
//!   the CI `sched-check` smoke, which deletes `try_push`'s
//!   `notify_one` and expects a deadlock report with a schedule);
//! * a solve worker's claim vs. last-waiter-out cancellation: the job
//!   is claimed or cancelled, exactly once (`claimed + cancelled == 1`);
//! * a miss is pushed and its waiter registered under one inflight
//!   lock span, so the dispatcher always finds the waiter (and the
//!   explorer catches the variant that drops the lock in between);
//! * two coalesced waiters racing last-waiter-out cancel exactly once;
//! * shutdown with in-flight solves and racing warm hits drains every
//!   ring balanced (`enqueued == dequeued`, `delivered == posted`).

#![cfg(feature = "sched-model")]

use reqisc_sched::thread::spawn;
use reqisc_sched::{check, explore, replay, ModelConfig};
use reqisc_service::sync::atomic::{AtomicU64, Ordering};
use reqisc_service::sync::{LockRecover, Mutex};
use reqisc_service::{FifoRing, JobQueue, DEFAULT_PRIORITY};
use std::sync::Arc;

/// `JobQueue::try_push` must wake a consumer blocked in `pop`. This is
/// the lost-wakeup sentinel: the seeded CI smoke removes the
/// `notify_one` from `try_push` and this model — which deliberately
/// never calls `close()`, whose `notify_all` would mask the bug —
/// must then deadlock with a replayable schedule.
#[test]
fn queue_push_wakes_blocked_pop() {
    check("queue_push_wakes_blocked_pop", ModelConfig::default(), || {
        let q = Arc::new(JobQueue::<u32>::new(2));
        let qc = q.clone();
        let consumer = spawn(move || qc.pop());
        q.try_push(7, DEFAULT_PRIORITY).expect("queue has room");
        let got = consumer.join().expect("consumer ran to completion");
        assert_eq!(got, Some(7), "blocked pop observed the pushed job");
    });
}

/// Same wakeup law for the completion ring: `push_completion` must
/// wake a dispatcher blocked in `pop_completion`.
#[test]
fn ring_push_wakes_blocked_pop() {
    check("ring_push_wakes_blocked_pop", ModelConfig::default(), || {
        let r = Arc::new(FifoRing::<u32>::new());
        let rc = r.clone();
        let dispatcher = spawn(move || rc.pop_completion());
        assert!(r.push_completion(9), "ring is open");
        let got = dispatcher.join().expect("dispatcher ran to completion");
        assert_eq!(got, Some(9), "blocked pop_completion observed the completion");
    });
}

/// A solve worker's claim (`service.rs solve_loop`, which pops without
/// the inflight lock) racing last-waiter-out cancellation
/// (`WaiterGuard::drop`, which removes the job under it): in every
/// interleaving the one job is either claimed or cancelled — never both,
/// never neither — and the ring balances.
#[test]
fn solve_claim_vs_cancel_conserves_the_job() {
    check("solve_claim_vs_cancel", ModelConfig::default(), || {
        let solve = Arc::new(JobQueue::<u32>::new(2));
        // `true` = the key is still in the inflight map (one waiter).
        let inflight = Arc::new(Mutex::new(true));
        let claimed = Arc::new(AtomicU64::new(0));
        let cancelled = Arc::new(AtomicU64::new(0));
        solve.try_push(1, DEFAULT_PRIORITY).expect("queue has room");

        let (solve_w, claimed_w) = (solve.clone(), claimed.clone());
        let worker = spawn(move || {
            while solve_w.pop().is_some() {
                claimed_w.fetch_add(1, Ordering::Relaxed);
            }
        });

        let (solve_c, infl_c, cancelled_c) = (solve.clone(), inflight.clone(), cancelled.clone());
        let cancel = spawn(move || {
            // Mirrors WaiterGuard::drop: remove the key, then pull the
            // job out of the ring — same lock.
            let mut guard = infl_c.lock_recover();
            if *guard {
                *guard = false;
                if solve_c.remove_first(|_| true) {
                    cancelled_c.fetch_add(1, Ordering::Relaxed);
                }
            }
            drop(guard);
        });

        cancel.join().expect("cancel ran to completion");
        // Shutdown releases a worker left waiting on an emptied ring.
        solve.close();
        worker.join().expect("worker exited on close");
        assert_eq!(
            claimed.load(Ordering::Relaxed) + cancelled.load(Ordering::Relaxed),
            1,
            "the job must be claimed or cancelled, exactly once"
        );
        let stats = solve.ring_stats();
        assert_eq!(stats.enqueued, stats.dequeued, "the ring balances");
    });
}

/// One miss through `Service::submit_compile`, a solve worker and the
/// dispatcher. `submit_compile` pushes the job and registers its waiter
/// under one inflight lock span; the dispatcher collects the waiters
/// under the same lock. With `register_under_the_push_lock == false` —
/// the planted bug — the lock is dropped between push and registration:
/// the job can be solved and dispatched to nobody, and the waiter
/// registered afterwards never hears back.
fn miss_through_dispatch(register_under_the_push_lock: bool) {
    let solve = Arc::new(JobQueue::<u32>::new(2));
    let completions = Arc::new(FifoRing::<u32>::new());
    // The inflight map's waiter list for the one key (`None` = no entry).
    let inflight: Arc<Mutex<Option<Vec<u64>>>> = Arc::new(Mutex::new(None));
    let delivered = Arc::new(AtomicU64::new(0));

    let (solve_s, infl_s) = (solve.clone(), inflight.clone());
    let submit = spawn(move || {
        let mut guard = infl_s.lock_recover();
        solve_s.try_push(1, DEFAULT_PRIORITY).expect("solve ring has room");
        if !register_under_the_push_lock {
            drop(guard); // BUG: ringed but not registered, no lock held
            guard = infl_s.lock_recover();
        }
        *guard = Some(vec![7]);
        drop(guard);
    });

    let (solve_w, ring_w) = (solve.clone(), completions.clone());
    let worker = spawn(move || {
        if let Some(job) = solve_w.pop() {
            assert!(ring_w.push_completion(job), "completion ring open while solving");
        }
    });

    let (ring_d, infl_d, delivered_d) = (completions.clone(), inflight.clone(), delivered.clone());
    let dispatcher = spawn(move || {
        if ring_d.pop_completion().is_some() {
            let waiters = infl_d.lock_recover().take().unwrap_or_default();
            delivered_d.fetch_add(waiters.len() as u64, Ordering::Relaxed);
        }
    });

    submit.join().expect("submit ran to completion");
    worker.join().expect("worker ran to completion");
    dispatcher.join().expect("dispatcher ran to completion");
    assert_eq!(
        delivered.load(Ordering::Relaxed),
        1,
        "the completion was delivered to nobody: the ticket never completes"
    );
}

/// The lock span of `submit_compile` holds: the dispatcher always finds
/// the waiter of the job it delivers.
#[test]
fn miss_registers_its_waiter_before_delivery() {
    check("miss_registers_before_delivery", ModelConfig::default(), || {
        miss_through_dispatch(true)
    });
}

/// The same scenario with the bug the lock span exists to prevent: the
/// explorer must find the interleaving that delivers to nobody and hand
/// back a deterministic, replayable schedule.
#[test]
fn explorer_catches_unlocked_transfer_race() {
    let buggy = || miss_through_dispatch(false);

    let report = explore(ModelConfig::default(), buggy);
    let failure = report.failure.expect("the unlocked transfer race must be found");
    assert!(
        failure.message.contains("the completion was delivered to nobody"),
        "failure is the undelivered ticket, got: {}",
        failure.message
    );
    assert!(!failure.trace.is_empty(), "failure carries the step trace");
    assert!(!failure.schedule.is_empty(), "failure carries a replay schedule");

    // The schedule is a deterministic reproducer, not a one-off.
    let again = replay(ModelConfig::default(), &failure.schedule, buggy);
    let refound = again.failure.expect("replaying the schedule reproduces the race");
    assert_eq!(refound.message, failure.message);
}

/// Two coalesced waiters racing `WaiterGuard::drop`: whichever leaves
/// last — under the inflight lock — does the ring removal and the
/// `cancelled` increment, and does each exactly once in every
/// interleaving.
#[test]
fn coalesced_waiters_cancel_exactly_once() {
    check("coalesced_waiters_last_out", ModelConfig::default(), || {
        let solve = Arc::new(JobQueue::<u32>::new(2));
        // The inflight map's waiter list for the one shared key.
        let waiters = Arc::new(Mutex::new(vec![1u64, 2u64]));
        let cancelled = Arc::new(AtomicU64::new(0));
        solve.try_push(1, DEFAULT_PRIORITY).expect("queue has room");

        let handles: Vec<_> = [1u64, 2u64]
            .into_iter()
            .map(|me| {
                let (ring, waiters, cancelled) =
                    (solve.clone(), waiters.clone(), cancelled.clone());
                spawn(move || {
                    let mut list = waiters.lock_recover();
                    list.retain(|id| *id != me);
                    if list.is_empty() && ring.remove_first(|_| true) {
                        cancelled.fetch_add(1, Ordering::Relaxed);
                    }
                    drop(list);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("waiter drop ran to completion");
        }
        assert_eq!(
            cancelled.load(Ordering::Relaxed),
            1,
            "exactly one waiter performs the cancellation"
        );
        assert!(solve.is_empty(), "the job left the ring exactly once");
    });
}

/// Shutdown racing in-flight solves and a warm hit: the stages are
/// closed in order while the solve / dispatch threads are mid-transfer
/// and a submitter posts a hit straight to the completion ring. In every
/// interleaving the rings drain balanced (`enqueued == dequeued` on
/// each) and every admitted job and every accepted hit is delivered.
#[test]
fn shutdown_with_inflight_solve_drains_balanced() {
    // One preemption is enough to interleave the close() calls into
    // every stage handoff; bound 2 here multiplies the schedule count
    // well past what a test budget buys in extra coverage.
    let cfg = ModelConfig { max_preemptions: 1, ..ModelConfig::default() };
    check("shutdown_drains_balanced", cfg, || {
        let solve = Arc::new(JobQueue::<u32>::new(4));
        let completions = Arc::new(FifoRing::<u32>::new());
        let delivered = Arc::new(AtomicU64::new(0));
        let hits = Arc::new(AtomicU64::new(0));
        const ADMITTED: u64 = 2;
        for job in 0..ADMITTED {
            solve.try_push(job as u32, DEFAULT_PRIORITY).expect("queue has room");
        }

        // A warm hit racing shutdown: accepted only while the ring is
        // open (`submit_compile` rejects it otherwise).
        let (ring_h, hits_h) = (completions.clone(), hits.clone());
        let submitter = spawn(move || {
            if ring_h.push_completion(99) {
                hits_h.fetch_add(1, Ordering::Relaxed);
            }
        });

        let (solve_out, ring_in) = (solve.clone(), completions.clone());
        let solver = spawn(move || {
            while let Some(job) = solve_out.pop() {
                assert!(ring_in.push_completion(job), "completion ring open while solving");
            }
        });

        let (ring_out, delivered_d) = (completions.clone(), delivered.clone());
        let dispatcher = spawn(move || {
            while ring_out.pop_completion().is_some() {
                delivered_d.fetch_add(1, Ordering::Relaxed);
            }
        });

        // Shutdown order from Service::shutdown: close the completion
        // ring only after the solve workers have been joined.
        solve.close();
        solver.join().expect("solver exited on close");
        completions.close();
        dispatcher.join().expect("dispatcher exited on close");
        submitter.join().expect("submitter ran to completion");

        assert_eq!(
            delivered.load(Ordering::Relaxed),
            ADMITTED + hits.load(Ordering::Relaxed),
            "delivered == admitted + accepted hits"
        );
        for (name, stats) in [("solve", solve.ring_stats()), ("completions", completions.ring_stats())]
        {
            assert_eq!(
                stats.enqueued, stats.dequeued,
                "{name} ring drained balanced at shutdown"
            );
        }
    });
}

/// The shared-segment publish/probe protocol (`reqisc-shmem`), modeled
/// on shim atomics so the explorer covers every bounded interleaving:
/// the publisher writes the payload, Release-stores the commit word,
/// then claims the index slot (tag CAS, then Release offset store); the
/// prober walks the index with Acquire loads. The pinned laws: a probe
/// that reaches a record through the index **always** sees the commit
/// word and the payload (the Release/Acquire pair publishes both), and
/// a claimed-but-not-yet-linked slot (offset still 0) reads as a clean
/// miss, never as garbage.
#[test]
fn segment_probe_never_observes_uncommitted_payload() {
    check("shmem_publish_probe_commit_order", ModelConfig::default(), || {
        const COMMIT: u64 = 0x5251_0000_0000_0008;
        // One record (payload + commit word) and one index slot
        // (tag + offset), exactly the segment's per-entry atomics.
        let payload = Arc::new(AtomicU64::new(0));
        let commit = Arc::new(AtomicU64::new(0));
        let slot_tag = Arc::new(AtomicU64::new(0)); // 0 = SLOT_EMPTY
        let slot_off = Arc::new(AtomicU64::new(0)); // 0 = claim in flight

        let (pay_w, com_w, tag_w, off_w) =
            (payload.clone(), commit.clone(), slot_tag.clone(), slot_off.clone());
        let publisher = spawn(move || {
            // Segment::publish: plain payload writes, Release commit,
            // tag CAS claim, Release offset link — in that order.
            pay_w.store(42, Ordering::Relaxed);
            com_w.store(COMMIT, Ordering::Release);
            if tag_w.compare_exchange(0, 7, Ordering::AcqRel, Ordering::Relaxed).is_ok() {
                off_w.store(64, Ordering::Release);
            }
        });

        let probed = {
            let (pay_r, com_r, tag_r, off_r) =
                (payload.clone(), commit.clone(), slot_tag.clone(), slot_off.clone());
            let prober = spawn(move || {
                // Segment::probe: Acquire tag, Acquire offset; offset 0
                // = a claim in flight = a clean miss.
                if tag_r.load(Ordering::Acquire) != 7 {
                    return false;
                }
                let off = off_r.load(Ordering::Acquire);
                if off == 0 {
                    return false;
                }
                assert_eq!(off, 64, "linked offset is the published one");
                assert_eq!(
                    com_r.load(Ordering::Acquire),
                    COMMIT,
                    "an indexed record always shows its commit word"
                );
                assert_eq!(
                    pay_r.load(Ordering::Relaxed),
                    42,
                    "an indexed record always shows its payload"
                );
                true
            });
            prober.join().expect("prober ran to completion")
        };
        publisher.join().expect("publisher ran to completion");
        // After the publisher joined, the entry is definitely probeable.
        assert_eq!(slot_tag.load(Ordering::Acquire), 7);
        assert_eq!(slot_off.load(Ordering::Acquire), 64);
        let _ = probed; // any prober outcome (hit or in-flight miss) is legal mid-publish
    });
}

/// Two publishers racing the same key: the slot-tag CAS elects exactly
/// one winner in every interleaving, the loser reports `Duplicate`
/// without touching the slot, and the offset the index ends up holding
/// is the winner's own committed record — never a torn mix.
#[test]
fn segment_racing_publishers_elect_one_committed_winner() {
    check("shmem_racing_publishers", ModelConfig::default(), || {
        let commits = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let slot_tag = Arc::new(AtomicU64::new(0));
        let slot_off = Arc::new(AtomicU64::new(0));
        let wins = Arc::new(AtomicU64::new(0));

        let handles: Vec<_> = [0u64, 1u64]
            .into_iter()
            .map(|me| {
                let (commits, tag, off, wins) =
                    (commits.clone(), slot_tag.clone(), slot_off.clone(), wins.clone());
                spawn(move || {
                    // Each publisher appends its own record at a
                    // distinct offset (64 / 128), commits it…
                    commits[me as usize].store(1, Ordering::Release);
                    // …then tries to claim the shared slot.
                    if tag.compare_exchange(0, 7, Ordering::AcqRel, Ordering::Relaxed).is_ok() {
                        off.store(64 * (me + 1), Ordering::Release);
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                    // The loser's record stays unreachable log garbage —
                    // the first-writer-wins dedup contract.
                })
            })
            .collect();
        for h in handles {
            h.join().expect("publisher ran to completion");
        }

        assert_eq!(wins.load(Ordering::Relaxed), 1, "exactly one CAS winner");
        let off = slot_off.load(Ordering::Acquire);
        assert!(off == 64 || off == 128, "slot holds a whole winner offset, got {off}");
        let winner = (off / 64 - 1) as usize;
        assert_eq!(
            commits[winner].load(Ordering::Acquire),
            1,
            "the indexed record is the committed one"
        );
    });
}
