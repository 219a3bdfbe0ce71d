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
//! * a queue push wakes a blocked pop (no lost `Condvar` wakeup —
//!   `queue_push_wakes_blocked_pop` is the seeded-violation target of
//!   the CI `sched-check` smoke, which deletes `try_push`'s
//!   `notify_one` and expects a deadlock report with a schedule);
//! * a solve worker's claim vs. last-waiter-out cancellation: the job
//!   is claimed or cancelled, exactly once (`claimed + cancelled == 1`);
//! * a miss is pushed and its waiter registered under one inflight
//!   lock span, so the solve worker that delivers it always finds the
//!   waiter (and the explorer catches the variant that drops the lock in
//!   between);
//! * two coalesced waiters racing last-waiter-out cancel exactly once;
//! * shutdown with in-flight solves, a miss and a warm hit racing it:
//!   every admitted job and the hit are delivered exactly once, under
//!   distinct 1-based `done_seq` values, and the solve ring balances;
//! * a connection's write gate keeps replies in request order when the
//!   reader writes a warm reply itself (and the explorer catches the
//!   variant that opens the gate before the responder's write is done).

#![cfg(feature = "sched-model")]

use reqisc_sched::thread::spawn;
use reqisc_sched::{check, explore, replay, ModelConfig};
use reqisc_service::sync::atomic::{AtomicU64, Ordering};
use reqisc_service::sync::{LockRecover, Mutex};
use reqisc_service::server::WriteGate;
use reqisc_service::{JobQueue, DEFAULT_PRIORITY};
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

/// One miss through `Service::submit_compile` and the solve worker that
/// delivers it. `submit_compile` pushes the job and registers its waiter
/// under one inflight lock span; the worker, once it has solved the job,
/// takes the waiters under the same lock and sends to them after
/// releasing it. With `register_under_the_push_lock == false` — the
/// planted bug — the lock is dropped between push and registration: the
/// job can be solved and delivered to nobody, and the waiter registered
/// afterwards never hears back.
fn miss_through_solve(register_under_the_push_lock: bool) {
    let solve = Arc::new(JobQueue::<u32>::new(2));
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

    let (solve_w, infl_w, delivered_w) = (solve.clone(), inflight.clone(), delivered.clone());
    let worker = spawn(move || {
        if solve_w.pop().is_some() {
            let waiters = infl_w.lock_recover().take().unwrap_or_default();
            for _ in waiters {
                delivered_w.fetch_add(1, Ordering::Relaxed);
            }
        }
    });

    submit.join().expect("submit ran to completion");
    worker.join().expect("worker ran to completion");
    assert_eq!(
        delivered.load(Ordering::Relaxed),
        1,
        "the completion was delivered to nobody: the ticket never completes"
    );
}

/// The lock span of `submit_compile` holds: the solve worker always
/// finds the waiter of the job it delivers.
#[test]
fn miss_registers_its_waiter_before_delivery() {
    check("miss_registers_before_delivery", ModelConfig::default(), || {
        miss_through_solve(true)
    });
}

/// The same scenario with the bug the lock span exists to prevent: the
/// explorer must find the interleaving that delivers to nobody and hand
/// back a deterministic, replayable schedule.
#[test]
fn explorer_catches_unlocked_transfer_race() {
    let buggy = || miss_through_solve(false);

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

/// Jobs of the shutdown model: two admitted before shutdown starts, a
/// miss submitted while it runs, and a warm hit submitted while it runs.
const ADMITTED: [usize; 2] = [0, 1];
const RACING_MISS: usize = 2;
const RACING_HIT: usize = 3;

/// Per job: how many times it was delivered, and the `done_seq` it got.
struct Deliveries {
    done_seq: AtomicU64,
    count: [AtomicU64; 4],
    seq: [AtomicU64; 4],
}

impl Deliveries {
    /// `Inner::finish` and the send that follows it: one number from the
    /// global counter per delivery.
    fn deliver(&self, job: usize) {
        let seq = self.done_seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.seq[job].store(seq, Ordering::Relaxed);
        self.count[job].fetch_add(1, Ordering::Relaxed);
    }
}

/// Shutdown racing in-flight solves, a miss and a warm hit:
/// `Service::shutdown` closes the solve ring while the solve worker is
/// mid-transfer, a submitter pushes a miss (admitted only if the ring is
/// still open) and then delivers a warm hit at submission (answered
/// whatever the ring's state). In every interleaving each admitted job
/// and the hit are delivered exactly once, their `done_seq` values are
/// exactly `1..=delivered`, and the solve ring balances.
#[test]
fn shutdown_with_inflight_solve_drains_balanced() {
    // One preemption is enough to interleave the close() into every
    // handoff; bound 2 here multiplies the schedule count well past what
    // a test budget buys in extra coverage.
    let cfg = ModelConfig { max_preemptions: 1, ..ModelConfig::default() };
    check("shutdown_drains_balanced", cfg, || {
        let solve = Arc::new(JobQueue::<usize>::new(4));
        let log = Arc::new(Deliveries {
            done_seq: AtomicU64::new(0),
            count: Default::default(),
            seq: Default::default(),
        });
        let miss_admitted = Arc::new(AtomicU64::new(0));
        for job in ADMITTED {
            solve.try_push(job, DEFAULT_PRIORITY).expect("queue has room");
        }

        let (solve_s, log_s, admitted_s) = (solve.clone(), log.clone(), miss_admitted.clone());
        let submitter = spawn(move || {
            if solve_s.try_push(RACING_MISS, DEFAULT_PRIORITY).is_ok() {
                admitted_s.store(1, Ordering::Relaxed);
            }
            log_s.deliver(RACING_HIT);
        });

        let (solve_w, log_w) = (solve.clone(), log.clone());
        let solver = spawn(move || {
            while let Some(job) = solve_w.pop() {
                log_w.deliver(job);
            }
        });

        // Service::shutdown: close the solve ring, join the workers.
        solve.close();
        solver.join().expect("solver exited on close");
        submitter.join().expect("submitter ran to completion");

        let count = |job: usize| log.count[job].load(Ordering::Relaxed);
        for job in ADMITTED {
            assert_eq!(count(job), 1, "admitted job {job} delivered exactly once");
        }
        assert_eq!(count(RACING_MISS), miss_admitted.load(Ordering::Relaxed), "miss: iff admitted");
        assert_eq!(count(RACING_HIT), 1, "the warm hit is answered, even while draining");
        let mut seqs: Vec<u64> = (0..4)
            .filter(|&job| count(job) > 0)
            .map(|job| log.seq[job].load(Ordering::Relaxed))
            .collect();
        seqs.sort_unstable();
        let expected: Vec<u64> = (1..=seqs.len() as u64).collect();
        assert_eq!(seqs, expected, "done_seq values are distinct and 1-based");
        let stats = solve.ring_stats();
        assert_eq!(stats.enqueued, stats.dequeued, "solve ring drained balanced at shutdown");
    });
}

/// One connection's writer in a model: appends to a buffer the test
/// reads once every thread has joined. Only ever written by one model
/// thread at a time, so its std lock is never contended.
#[derive(Clone, Default)]
struct Sink(Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("sink lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The three moves of a write gate, so the model runs the real
/// [`WriteGate`] and the planted variant alike.
trait Gate: Send + Sync + 'static {
    fn write_or_owe(&self, line: &[u8]) -> bool;
    fn owe(&self);
    fn write_owed(&self, line: &[u8]);
}

impl Gate for WriteGate<Sink> {
    fn write_or_owe(&self, line: &[u8]) -> bool {
        WriteGate::write_or_owe(self, line).expect("the sink never fails")
    }
    fn owe(&self) {
        WriteGate::owe(self)
    }
    fn write_owed(&self, line: &[u8]) {
        WriteGate::write_owed(self, line).expect("the sink never fails")
    }
}

/// The write gate with the bug it exists to prevent: the responder gives
/// its place up *before* its write has finished, so the reader can slip
/// a later reply in first.
struct OpenEarlyGate {
    owed: Mutex<usize>,
    sink: Mutex<Sink>,
}

impl Gate for OpenEarlyGate {
    fn write_or_owe(&self, line: &[u8]) -> bool {
        let mut owed = self.owed.lock_recover();
        if *owed > 0 {
            *owed += 1;
            return false;
        }
        std::io::Write::write_all(&mut *self.sink.lock_recover(), line).expect("sink");
        true
    }
    fn owe(&self) {
        *self.owed.lock_recover() += 1;
    }
    fn write_owed(&self, line: &[u8]) {
        *self.owed.lock_recover() -= 1; // BUG: open before the write is out
        std::io::Write::write_all(&mut *self.sink.lock_recover(), line).expect("sink");
    }
}

/// A connection whose first request is a miss and whose second is a warm
/// hit (`serve_lines`' `post`): the reader owes reply 1 to the responder,
/// which writes it once its ticket resolves, while the reader finishes
/// reply 2 at once and writes it itself unless something is still owed.
fn miss_then_warm_hit<G: Gate>(gate: G, sink: Sink) {
    let gate = Arc::new(gate);
    // The reader → responder channel, FIFO at one priority.
    let handoff = Arc::new(JobQueue::<u8>::new(2));
    gate.owe();
    handoff.try_push(b'1', DEFAULT_PRIORITY).expect("room");
    let (gate_r, handoff_r) = (gate.clone(), handoff.clone());
    let responder = spawn(move || {
        while let Some(reply) = handoff_r.pop() {
            gate_r.write_owed(&[reply, b'\n']);
        }
    });
    if !gate.write_or_owe(b"2\n") {
        handoff.try_push(b'2', DEFAULT_PRIORITY).expect("room");
    }
    handoff.close();
    responder.join().expect("responder ran to completion");
    let out = String::from_utf8(sink.0.lock().expect("sink lock").clone()).expect("utf-8");
    assert_eq!(out, "1\n2\n", "replies left out of request order");
}

/// The real write gate: in every interleaving the warm reply written by
/// the reader comes out after the miss's reply written by the responder.
#[test]
fn write_gate_keeps_request_order() {
    check("write_gate_keeps_request_order", ModelConfig::default(), || {
        let sink = Sink::default();
        miss_then_warm_hit(WriteGate::new(sink.clone()), sink)
    });
}

/// The gate opened before the responder's write is out: the explorer
/// must find the interleaving that writes the warm reply first, and its
/// schedule must replay the same failure.
#[test]
fn explorer_catches_gate_opened_before_write() {
    let buggy = || {
        let sink = Sink::default();
        let gate = OpenEarlyGate { owed: Mutex::new(0), sink: Mutex::new(sink.clone()) };
        miss_then_warm_hit(gate, sink)
    };
    let report = explore(ModelConfig::default(), buggy);
    let failure = report.failure.expect("the early-open gate must be caught");
    assert!(
        failure.message.contains("replies left out of request order"),
        "failure is the reordered output, got: {}",
        failure.message
    );
    assert!(!failure.schedule.is_empty(), "failure carries a replay schedule");
    let again = replay(ModelConfig::default(), &failure.schedule, buggy);
    let refound = again.failure.expect("replaying the schedule reproduces the reorder");
    assert_eq!(refound.message, failure.message);
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
