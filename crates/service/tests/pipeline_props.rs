//! Property tests of the service's ring and stage semantics:
//!
//! * the solve ring ([`JobQueue`]) model-checked under arbitrary
//!   push/pop/boost/cancel interleavings — priority-then-FIFO order
//!   survives every sequence, and the transit counters balance;
//! * the completion ring ([`FifoRing`]) model-checked as a strict FIFO
//!   with close-drop semantics;
//! * the assembled service under random warm submit/coalesce/cancel
//!   interleavings — no completion is ever lost, no coalesced ticket is
//!   ever double-responded, and the admission accounting closes exactly.
//!
//! Determinism note (single-core container): nothing here asserts wall
//! time. The queue/ring checks are single-threaded model checks; the
//! service check asserts counter conservation laws that hold for *every*
//! legal interleaving of the pipeline stages.

use proptest::prelude::*;
use reqisc_compiler::{Compiler, Pipeline};
use reqisc_qcircuit::{Circuit, Gate};
use reqisc_service::{
    DebugOp, FifoRing, JobQueue, Priority, Service, ServiceConfig, DEFAULT_PRIORITY,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn small_compiler() -> Compiler {
    use std::sync::OnceLock;
    static LIB: OnceLock<reqisc_synthesis::TemplateLibrary> = OnceLock::new();
    let mut c = Compiler::new_with_library(
        LIB.get_or_init(|| {
            let mut search = reqisc_synthesis::SearchOptions::default();
            search.sweep.restarts = 3;
            reqisc_synthesis::TemplateLibrary::builtin(&search)
        })
        .clone(),
    );
    c.hs.search.sweep.restarts = 2;
    c.hs.search.sweep.max_sweeps = 150;
    c
}

fn tiny(seed: u64) -> Arc<Circuit> {
    let mut c = Circuit::new(3);
    c.push(Gate::Ccx(0, 1, 2));
    c.push(Gate::H((seed % 3) as usize));
    if seed.is_multiple_of(2) {
        c.push(Gate::Cx(0, 2));
    }
    c.push(Gate::Rz(1, 0.1 + seed as f64));
    Arc::new(c)
}

/// Parks the single solve worker on a sleep job and waits until the job
/// has been claimed (admission gauge back to zero).
fn park_worker(service: &Service, ms: u64) -> reqisc_service::Ticket {
    let t = service.submit_debug(DebugOp::Sleep { ms }, DEFAULT_PRIORITY).expect("park");
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.queue_depth() > 0 {
        assert!(Instant::now() < deadline, "worker never claimed the park job");
        std::thread::yield_now();
    }
    t
}

/// The reference model of one ring entry: priority, admission sequence,
/// unique tag. The queue must always surface the maximum by
/// (priority desc, sequence asc).
#[derive(Debug, Clone, Copy)]
struct ModelEntry {
    priority: Priority,
    seq: u64,
    tag: u64,
}

fn model_best(model: &[ModelEntry]) -> usize {
    let mut best = 0;
    for (i, e) in model.iter().enumerate() {
        let b = &model[best];
        if (e.priority, std::cmp::Reverse(e.seq)) > (b.priority, std::cmp::Reverse(b.seq)) {
            best = i;
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The bounded priority ring against its reference model: arbitrary
    /// interleavings of push (admission-capped), pop, boost (the hot
    /// coalesced-duplicate path), and remove (ticket cancellation) keep
    /// strict priority-then-FIFO order, and the transit counters balance
    /// (`enqueued == dequeued` once drained).
    #[test]
    fn job_queue_matches_its_model_under_arbitrary_interleavings(
        ops in proptest::collection::vec((0u8..10, 0u8..4, 0u8..8), 1..60)
    ) {
        const CAP: usize = 6;
        let q: JobQueue<u64> = JobQueue::new(CAP);
        let mut model: Vec<ModelEntry> = Vec::new();
        let mut next_tag = 0u64;
        let mut next_seq = 0u64;
        let mut pushed = 0u64;
        let mut left = 0u64;
        for &(sel, prio, pick) in &ops {
            match sel {
                // Push: admission-capped, unique tags.
                0..=3 => {
                    let tag = next_tag;
                    next_tag += 1;
                    let r = q.try_push(tag, prio);
                    if model.len() < CAP {
                        prop_assert!(r.is_ok(), "push under capacity must admit");
                        model.push(ModelEntry { priority: prio, seq: next_seq, tag });
                        next_seq += 1;
                        pushed += 1;
                    } else {
                        prop_assert!(r.is_err(), "push at capacity must reject");
                    }
                }
                // Pop: must surface the model's (priority desc, seq asc)
                // maximum, counting any boost. Only when the model is
                // non-empty: `pop` blocks on an open empty queue by design.
                4 | 5 => {
                    if !model.is_empty() {
                        let e = model.remove(model_best(&model));
                        prop_assert_eq!(q.pop(), Some(e.tag), "pop order diverged from the model");
                        left += 1;
                    }
                }
                // Boost: raise one queued entry (never lower it); the
                // entry keeps its sequence number.
                6 | 7 => {
                    if model.is_empty() {
                        prop_assert!(!q.boost(|_| true, prio), "boost in empty queue");
                    } else {
                        let i = pick as usize % model.len();
                        let tag = model[i].tag;
                        let expect = model[i].priority < prio;
                        prop_assert_eq!(q.boost(move |&t| t == tag, prio), expect);
                        if expect {
                            model[i].priority = prio;
                        }
                    }
                }
                // Remove (cancellation): exactly one matching entry leaves.
                _ => {
                    if model.is_empty() {
                        prop_assert!(!q.remove_first(|_| true), "remove in empty queue");
                    } else {
                        let i = pick as usize % model.len();
                        let tag = model[i].tag;
                        prop_assert!(q.remove_first(move |&t| t == tag));
                        model.remove(i);
                        left += 1;
                    }
                }
            }
            prop_assert_eq!(q.len(), model.len(), "depth diverged from the model");
        }
        // Drain: the survivors surface in exact priority-then-FIFO order,
        // then the closed ring reports `None`, and the counters balance.
        q.close();
        while !model.is_empty() {
            let e = model.remove(model_best(&model));
            prop_assert_eq!(q.pop(), Some(e.tag), "drain order diverged from the model");
            left += 1;
        }
        prop_assert_eq!(q.pop(), None, "closed + drained signals None");
        let rs = q.ring_stats();
        prop_assert_eq!(rs.enqueued, pushed);
        prop_assert_eq!(rs.dequeued, left, "every departure (pop or cancel) must be counted");
        prop_assert_eq!(rs.enqueued, rs.dequeued, "drained ring must balance");
    }

    /// The completion ring is a strict FIFO: arbitrary push/pop
    /// interleavings deliver in exact arrival order (the invariant that
    /// makes `done_seq` assignment deterministic), nothing is lost, and
    /// pushes after close are dropped — not delivered, not counted.
    #[test]
    fn fifo_ring_matches_its_model(ops in proptest::collection::vec((0u8..3, 0u64..100), 1..50)) {
        let ring: FifoRing<u64> = FifoRing::new();
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut accepted = 0u64;
        for &(sel, val) in &ops {
            if sel < 2 {
                prop_assert!(ring.push_completion(val), "open ring must accept");
                model.push_back(val);
                accepted += 1;
            } else if let Some(front) = model.pop_front() {
                // Only pop when the model is non-empty: pop_completion
                // blocks on an open empty ring by design.
                prop_assert_eq!(ring.pop_completion(), Some(front), "FIFO order violated");
            }
            prop_assert_eq!(ring.len(), model.len());
        }
        ring.close();
        prop_assert!(!ring.push_completion(999), "closed ring must drop pushes");
        while let Some(front) = model.pop_front() {
            prop_assert_eq!(ring.pop_completion(), Some(front), "drain order violated");
        }
        prop_assert_eq!(ring.pop_completion(), None, "closed + drained signals None");
        let rs = ring.ring_stats();
        prop_assert_eq!(rs.enqueued, accepted, "the dropped post-close push must not count");
        prop_assert_eq!(rs.dequeued, accepted);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The assembled service under random warm submit / coalesce /
    /// cancel interleavings racing the live dispatcher: after a full
    /// drain (shutdown), every kept ticket holds exactly one response
    /// (nothing lost, nothing double-delivered), and the admission
    /// accounting closes exactly — every non-coalesced submission is
    /// either completed or cancelled, every ring balances.
    #[test]
    fn random_warm_interleavings_conserve_completions(
        ops in proptest::collection::vec((0u64..2, 0u8..10, 0u8..4), 1..16)
    ) {
        let service = Service::start_with_compiler(
            small_compiler(),
            ServiceConfig { workers: 1, debug_ops: true, ..ServiceConfig::default() },
        );
        // Prime both keys so the op mix is pure warm traffic: from here
        // on, no job may legitimately reach the solve stage.
        for seed in 0..2 {
            service
                .submit_compile(tiny(seed), Pipeline::Qiskit, DEFAULT_PRIORITY)
                .expect("prime submit")
                .wait()
                .expect("prime compile");
        }
        let s0 = service.stats_snapshot();
        let park = park_worker(&service, 100);
        let mut kept = Vec::new();
        let mut submits = 0u64;
        let mut coalesced_seen = 0u64;
        for &(key, priority, action) in &ops {
            let t = service
                .submit_compile(tiny(key), Pipeline::Qiskit, priority.min(9))
                .expect("warm submit");
            submits += 1;
            if t.coalesced {
                coalesced_seen += 1;
            }
            if action == 0 {
                // A client disconnecting immediately: a warm hit was
                // answered at submission, so it is served to nobody.
                drop(t);
            } else {
                kept.push(t);
            }
        }
        park.wait().expect("park");
        // Shutdown drains every stage; buffered responses stay readable.
        service.shutdown();
        for t in kept {
            let (result, extras) = t.wait_counting_duplicates();
            prop_assert!(result.is_ok(), "kept warm ticket lost its completion: {result:?}");
            prop_assert_eq!(extras, 0, "a ticket was double-responded");
        }
        prop_assert_eq!(service.queue_depth(), 0, "admission gauge must return to zero");
        let s1 = service.stats_snapshot();
        let d = |f: fn(&reqisc_service::ServiceCounters) -> u64| f(&s1.service) - f(&s0.service);
        prop_assert_eq!(d(|s| s.submitted), submits + 1, "ops + the park");
        prop_assert_eq!(d(|s| s.coalesced), coalesced_seen);
        prop_assert_eq!(d(|s| s.failed), 0);
        // Conservation: every admitted job (non-coalesced submission)
        // ends exactly one way — completed (warm-served / park ran) or
        // cancelled in-ring.
        let admitted = submits + 1 - coalesced_seen;
        prop_assert_eq!(d(|s| s.completed) + d(|s| s.cancelled), admitted);
        // Stage conservation: warm traffic never touches the solve
        // stage; the park is the only solve claim; deliveries match.
        let st0 = &s0.stages;
        let st1 = &s1.stages;
        prop_assert_eq!(st1.solve_claimed - st0.solve_claimed, 1, "only the park may solve");
        prop_assert_eq!(st1.lookup_misses - st0.lookup_misses, 0, "no warm lookup may miss");
        prop_assert_eq!(
            st1.lookup_hits - st0.lookup_hits + d(|s| s.cancelled),
            admitted - 1,
            "every admitted warm job is either lookup-served or cancelled"
        );
        prop_assert_eq!(st1.delivered - st0.delivered, d(|s| s.completed) + d(|s| s.failed));
        // Every ring drained and balanced.
        for (name, rc) in [("solve", &st1.solve), ("completion", &st1.completion)] {
            prop_assert_eq!(rc.depth, 0, "{} ring not drained", name);
            prop_assert_eq!(rc.enqueued, rc.dequeued, "{} ring unbalanced", name);
        }
    }
}
