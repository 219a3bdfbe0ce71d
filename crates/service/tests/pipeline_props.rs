//! Property tests of the service's ring and stage semantics:
//!
//! * the solve ring ([`JobQueue`]) model-checked under arbitrary
//!   push/pop/boost/cancel interleavings — priority-then-FIFO order
//!   survives every sequence, and the transit counters balance;
//! * the assembled service under random warm submit/coalesce/cancel
//!   interleavings — no completion is ever lost, no coalesced ticket is
//!   ever double-responded, and the admission accounting closes exactly;
//! * `serve_lines` under random pipelined streams of warm hits, misses,
//!   coalesced duplicates, parse errors and `stats` lines — one reply per
//!   line, in request order, each equal to recomputation.
//!
//! Determinism note (single-core container): nothing here asserts wall
//! time. The queue/ring checks are single-threaded model checks; the
//! service check asserts counter conservation laws that hold for *every*
//! legal interleaving of the pipeline stages.

use proptest::prelude::*;
use reqisc_compiler::{Compiler, Pipeline};
use reqisc_qcircuit::{Circuit, Gate};
use reqisc_service::{
    DebugOp, JobQueue, Priority, Service, ServiceConfig, DEFAULT_PRIORITY,
};
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The assembled service under random warm submit / coalesce /
    /// cancel interleavings racing the live solve worker: after a full
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
        prop_assert_eq!(st1.solve.depth, 0, "solve ring not drained");
        prop_assert_eq!(st1.solve.enqueued, st1.solve.dequeued, "solve ring unbalanced");
    }
}

/// One line of a generated request stream.
#[derive(Debug, Clone, Copy)]
enum Line {
    /// A compile of this program key.
    Compile(u64),
    /// An unknown op: a `parse_error` that echoes its id.
    Bogus,
    Stats,
    Blank,
}

/// The QASM-lite source of program `key` (distinct keys, distinct
/// programs), escaped for a JSON string.
fn program_qasm(key: u64) -> String {
    format!("qubits 3\\nccx 0 1 2\\nh {}\\nrz 1 {}\\n", key % 3, 0.1 + key as f64)
}

fn request_line(id: u64, line: Line) -> String {
    match line {
        Line::Compile(key) => format!(
            "{{\"id\":{id},\"op\":\"compile\",\"pipeline\":\"qiskit\",\"qasm\":\"{}\"}}\n",
            program_qasm(key)
        ),
        Line::Bogus => format!("{{\"id\":{id},\"op\":\"bogus\"}}\n"),
        Line::Stats => format!("{{\"id\":{id},\"op\":\"stats\"}}\n"),
        Line::Blank => "\n".into(),
    }
}

/// Program keys the stream test primes before serving: warm hits.
const WARM_KEYS: u64 = 3;

/// A generated stream: `ops` picks each line's kind, and a miss followed
/// by a warm hit is inserted at `at`, so every stream has a warm hit
/// queued right behind an unanswered miss. Misses take fresh keys (one
/// solve each, queued behind the parked worker); a duplicate repeats the
/// last miss, so it coalesces while that miss is still in flight.
fn stream(ops: &[(u8, u64)], at: usize) -> Vec<Line> {
    const MISS_THEN_WARM: u8 = u8::MAX;
    let mut kinds = ops.to_vec();
    kinds.insert(at % (ops.len() + 1), (MISS_THEN_WARM, 0));
    let mut last_miss = WARM_KEYS - 1;
    let mut lines = Vec::new();
    for (kind, key) in kinds {
        match kind {
            0 | 1 => lines.push(Line::Compile(key % WARM_KEYS)),
            2 | MISS_THEN_WARM => {
                last_miss += 1;
                lines.push(Line::Compile(last_miss));
                if kind == MISS_THEN_WARM {
                    lines.push(Line::Compile(0));
                }
            }
            3 => lines.push(Line::Compile(last_miss)),
            4 => lines.push(Line::Bogus),
            5 => lines.push(Line::Stats),
            _ => lines.push(Line::Blank),
        }
    }
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `serve_lines` over a pipelined stream of warm hits, misses,
    /// coalesced duplicates, parse errors, `stats` lines and blank
    /// lines: every non-blank line gets exactly one reply, the replies
    /// come back in request order (the write gate's law: the reader may
    /// write a warm reply itself only when nothing earlier is owed),
    /// every compile reply equals recomputation on its output, and the
    /// `done_seq` values are distinct — a coalesced reply shares its
    /// original's number and no other.
    #[test]
    fn pipelined_replies_stay_in_request_order(
        ops in proptest::collection::vec((0u8..7, 0u64..WARM_KEYS), 1..12),
        at in 0usize..12,
    ) {
        let service = Service::start_with_compiler(
            small_compiler(),
            ServiceConfig { workers: 1, debug_ops: true, ..ServiceConfig::default() },
        );
        let circuit = |key: u64| {
            Arc::new(
                reqisc_qcircuit::parse(&program_qasm(key).replace("\\n", "\n")).expect("qasm"),
            )
        };
        let output = |key: u64| {
            service
                .submit_compile(circuit(key), Pipeline::Qiskit, DEFAULT_PRIORITY)
                .expect("submit")
                .wait()
                .expect("compile")
                .circuit
                .expect("circuit")
        };
        for key in 0..WARM_KEYS {
            output(key);
        }
        let lines = stream(&ops, at);
        let mut input = String::new();
        let mut expected = Vec::new();
        for line in &lines {
            if !matches!(line, Line::Blank) {
                expected.push((expected.len() as u64 + 1, *line));
            }
            input.push_str(&request_line(expected.len() as u64, *line));
        }
        // The parked worker keeps every miss of the stream unanswered
        // while the reader goes on to the lines behind it.
        let park = park_worker(&service, 20);
        let mut out = Vec::new();
        let served =
            reqisc_service::serve_lines(&service, input.as_bytes(), &mut out).expect("serve");
        park.wait().expect("park ran");
        prop_assert_eq!(served.requests, expected.len() as u64);
        let replies: Vec<reqisc_service::Json> = String::from_utf8(out)
            .expect("utf-8")
            .lines()
            .map(|l| reqisc_service::Json::parse(l).expect("reply parses"))
            .collect();
        prop_assert_eq!(replies.len(), expected.len(), "one reply per non-blank line");
        // done_seq → (key, coalesced) of every compile reply carrying it.
        let mut seqs: std::collections::HashMap<u64, Vec<(u64, bool)>> = Default::default();
        for (reply, &(id, line)) in replies.iter().zip(&expected) {
            let get = |k: &str| reply.get(k).unwrap_or_else(|| panic!("no {k}: {}", reply.emit()));
            prop_assert_eq!(get("id").as_u64(), Some(id), "replies out of request order");
            match line {
                Line::Compile(key) => {
                    prop_assert_eq!(get("ok").as_bool(), Some(true), "{}", reply.emit());
                    let out = output(key);
                    let m = service.metrics(&out);
                    let fingerprint = format!("{:032x}", out.content_hash());
                    prop_assert_eq!(get("fingerprint").as_str(), Some(fingerprint.as_str()));
                    prop_assert_eq!(get("count_2q").as_u64(), Some(m.count_2q as u64));
                    prop_assert_eq!(get("depth_2q").as_u64(), Some(m.depth_2q as u64));
                    prop_assert_eq!(
                        get("duration_g").as_f64().map(f64::to_bits),
                        Some(m.duration.to_bits())
                    );
                    let seq = get("done_seq").as_u64().expect("done_seq");
                    let coalesced = get("coalesced").as_bool().expect("coalesced");
                    seqs.entry(seq).or_default().push((key, coalesced));
                }
                Line::Bogus => {
                    prop_assert_eq!(get("error").as_str(), Some("parse_error"));
                }
                Line::Stats => prop_assert_eq!(get("op").as_str(), Some("stats")),
                Line::Blank => unreachable!("blank lines get no reply"),
            }
        }
        for (seq, users) in &seqs {
            let originals = users.iter().filter(|(_, coalesced)| !coalesced).count();
            prop_assert_eq!(originals, 1, "done_seq {} is shared beyond one job: {:?}", seq, users);
            prop_assert!(users.iter().all(|(key, _)| *key == users[0].0), "{:?}", users);
        }
        service.shutdown();
    }
}
