//! Queue-semantics tests: in-flight coalescing (N identical jobs ⇒ one
//! compile, N responses), backpressure rejection ordering, warm hits
//! bypassing admission, priority scheduling, graceful shutdown flushing
//! the pools into the shared segment, and a poisoned job not wedging the
//! worker pool.
//!
//! Determinism on one worker: a debug `sleep` job parks the single
//! worker first, so everything submitted behind it is ordered purely by
//! the queue — no wall-clock races (single-core container: this is the
//! validation style the ROADMAP prescribes instead of parallel timing).

use proptest::prelude::*;
use reqisc_compiler::{
    seed_from_segment, seed_subprogram_pools, Compiler, Pipeline, STORE_FORMAT_VERSION,
};
use reqisc_qcircuit::{Circuit, Gate};
use reqisc_service::{DebugOp, Service, ServiceConfig, SubmitError, DEFAULT_PRIORITY};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A compiler with the reduced-but-exact search budget the other
/// integration suites use, around a shared pre-synthesized library.
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

fn scratch_segment(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "reqisc-service-test-{}-{}-{}.seg",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Parks the single worker on a sleep job and waits until it has left
/// the queue (i.e. the worker picked it up).
fn park_worker(service: &Service, ms: u64) -> reqisc_service::Ticket {
    let t = service.submit_debug(DebugOp::Sleep { ms }, DEFAULT_PRIORITY).expect("park");
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.queue_depth() > 0 {
        assert!(Instant::now() < deadline, "worker never claimed the park job");
        std::thread::yield_now();
    }
    t
}

#[test]
fn n_identical_jobs_coalesce_to_one_compile_n_responses() {
    let service = Service::start_with_compiler(
        small_compiler(),
        ServiceConfig { workers: 1, debug_ops: true, ..ServiceConfig::default() },
    );
    let park = park_worker(&service, 150);
    let c = tiny(0);
    let n = 5;
    let tickets: Vec<_> = (0..n)
        .map(|_| service.submit_compile(c.clone(), Pipeline::ReqiscEff, DEFAULT_PRIORITY).unwrap())
        .collect();
    // Exactly one occupies a queue slot; the rest attached in-flight.
    assert_eq!(tickets.iter().filter(|t| !t.coalesced).count(), 1);
    assert_eq!(tickets.iter().filter(|t| t.coalesced).count(), n - 1);
    assert_eq!(service.queue_depth(), 1, "coalesced jobs must not occupy queue slots");
    park.wait().expect("park");
    let results: Vec<_> = tickets.into_iter().map(|t| t.wait().expect("compile")).collect();
    let fp = results[0].circuit.as_ref().unwrap().content_hash();
    assert!(
        results.iter().all(|r| r.circuit.as_ref().unwrap().content_hash() == fp),
        "all N responses must carry the one result"
    );
    let s = service.stats_snapshot();
    assert_eq!(s.service.coalesced, (n - 1) as u64);
    assert_eq!(s.service.completed, 2, "the park job + exactly ONE compile");
    // The one compile was a cold miss; nobody else even looked the key up.
    assert_eq!((s.cache.programs.hits, s.cache.programs.misses), (0, 1));
    service.shutdown();
}

#[test]
fn backpressure_rejects_late_submissions_and_recovers() {
    let service = Service::start_with_compiler(
        small_compiler(),
        ServiceConfig {
            workers: 1,
            queue_capacity: 2,
            debug_ops: true,
            ..ServiceConfig::default()
        },
    );
    let park = park_worker(&service, 150);
    let t1 = service.submit_compile(tiny(1), Pipeline::Qiskit, DEFAULT_PRIORITY).expect("fits");
    let t2 = service.submit_compile(tiny(2), Pipeline::Qiskit, DEFAULT_PRIORITY).expect("fits");
    // Rejection ordering: capacity admits in submission order; the THIRD
    // distinct job is the one turned away, and the earlier two are
    // unaffected by the rejection.
    let r3 = service.submit_compile(tiny(3), Pipeline::Qiskit, DEFAULT_PRIORITY);
    assert!(matches!(r3, Err(SubmitError::QueueFull(_))), "third job must reject: {r3:?}");
    // A duplicate of an in-flight job still coalesces — admission control
    // applies to queue slots, not to attachments.
    let dup = service.submit_compile(tiny(1), Pipeline::Qiskit, DEFAULT_PRIORITY).expect("coalesce");
    assert!(dup.coalesced);
    assert_eq!(service.stats_snapshot().service.rejected_queue_full, 1);
    park.wait().expect("park");
    assert!(t1.wait().is_ok() && t2.wait().is_ok() && dup.wait().is_ok());
    // The queue drained: the same submission is now admitted and runs.
    let t3 = service.submit_compile(tiny(3), Pipeline::Qiskit, DEFAULT_PRIORITY).expect("retry");
    assert!(t3.wait().is_ok());
    let s = service.stats_snapshot();
    assert_eq!(s.service.rejected_queue_full, 1);
    assert_eq!(s.service.failed, 0);
    service.shutdown();
}

/// A warm hit takes no admission slot: with the only slot held by a
/// cold job behind a parked worker, a second cold job is turned away but
/// a resubmission of an already-compiled program is answered at once,
/// ahead of the cold job.
#[test]
fn warm_hit_is_served_while_the_solve_ring_is_full() {
    let service = Service::start_with_compiler(
        small_compiler(),
        ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            debug_ops: true,
            ..ServiceConfig::default()
        },
    );
    let first = service
        .submit_compile(tiny(40), Pipeline::Qiskit, DEFAULT_PRIORITY)
        .expect("prime")
        .wait()
        .expect("prime compile");
    assert_eq!(first.done_seq, 1);
    let park = park_worker(&service, 600);
    let cold = service.submit_compile(tiny(41), Pipeline::Qiskit, DEFAULT_PRIORITY).expect("slot");
    assert_eq!(service.queue_depth(), 1, "the cold job holds the only slot");
    let turned_away = service.submit_compile(tiny(42), Pipeline::Qiskit, DEFAULT_PRIORITY);
    assert!(
        matches!(turned_away, Err(SubmitError::QueueFull(_))),
        "a second cold job must reject: {turned_away:?}"
    );
    let warm = service
        .submit_compile(tiny(40), Pipeline::Qiskit, DEFAULT_PRIORITY)
        .expect("a warm hit needs no admission slot");
    assert!(!warm.coalesced);
    let warm = warm.wait().expect("warm hit");
    assert_eq!(warm.done_seq, 2, "served ahead of the parked worker and the cold job");
    assert_eq!(
        warm.circuit.expect("circuit").content_hash(),
        first.circuit.expect("circuit").content_hash()
    );
    park.wait().expect("park");
    let cold = cold.wait().expect("cold compile");
    assert!(warm.done_seq < cold.done_seq);
    let s = service.stats_snapshot();
    assert_eq!(s.service.rejected_queue_full, 1, "only the second cold job was turned away");
    assert_eq!((s.stages.lookup_hits, s.stages.lookup_misses), (1, 2));
    service.shutdown();
}

/// A burst of warm hits, none awaited before the next is submitted,
/// never touches admission or the inflight map: the queue depth stays 0,
/// nothing coalesces onto a hit, and every hit is its own delivery.
#[test]
fn warm_hit_burst_takes_no_slot_and_never_coalesces() {
    let service = Service::start_with_compiler(
        small_compiler(),
        ServiceConfig { workers: 1, debug_ops: true, ..ServiceConfig::default() },
    );
    service
        .submit_compile(tiny(43), Pipeline::Qiskit, DEFAULT_PRIORITY)
        .expect("prime")
        .wait()
        .expect("prime compile");
    let park = park_worker(&service, 150);
    let s0 = service.stats_snapshot();
    let burst: Vec<_> = (0..8)
        .map(|_| {
            let t = service
                .submit_compile(tiny(43), Pipeline::Qiskit, DEFAULT_PRIORITY)
                .expect("warm submit");
            assert!(!t.coalesced, "nothing may coalesce onto a warm hit");
            assert_eq!(service.queue_depth(), 0, "a warm hit takes no admission slot");
            t
        })
        .collect();
    let s1 = service.stats_snapshot();
    assert_eq!(s1.stages.lookup_hits - s0.stages.lookup_hits, 8);
    assert_eq!(s1.stages.lookup_misses, s0.stages.lookup_misses);
    assert_eq!(s1.service.coalesced, s0.service.coalesced);
    assert_eq!(s1.stages.solve.enqueued, s0.stages.solve.enqueued, "no hit entered the solve ring");
    let mut seqs: Vec<u64> = burst.into_iter().map(|t| t.wait().expect("warm").done_seq).collect();
    seqs.dedup();
    assert_eq!(seqs.len(), 8, "every hit is delivered on its own");
    park.wait().expect("park");
    service.shutdown();
}

#[test]
fn higher_priority_jobs_complete_first() {
    let service = Service::start_with_compiler(
        small_compiler(),
        ServiceConfig { workers: 1, debug_ops: true, ..ServiceConfig::default() },
    );
    let park = park_worker(&service, 150);
    let low = service.submit_compile(tiny(4), Pipeline::Qiskit, 0).expect("low");
    let mid = service.submit_compile(tiny(5), Pipeline::Qiskit, 5).expect("mid");
    let high = service.submit_compile(tiny(6), Pipeline::Qiskit, 9).expect("high");
    park.wait().expect("park");
    let (low, mid, high) =
        (low.wait().expect("low"), mid.wait().expect("mid"), high.wait().expect("high"));
    assert!(
        high.done_seq < mid.done_seq && mid.done_seq < low.done_seq,
        "completion order must follow priority: high {} mid {} low {}",
        high.done_seq,
        mid.done_seq,
        low.done_seq
    );
    service.shutdown();
}

#[test]
fn hot_duplicate_boosts_its_queued_original() {
    let service = Service::start_with_compiler(
        small_compiler(),
        ServiceConfig { workers: 1, debug_ops: true, ..ServiceConfig::default() },
    );
    let park = park_worker(&service, 150);
    // A cold batch job, then an unrelated mid-priority job ahead of it.
    let batch = service.submit_compile(tiny(10), Pipeline::Qiskit, 0).expect("batch");
    let mid = service.submit_compile(tiny(11), Pipeline::Qiskit, 5).expect("mid");
    // An interactive duplicate of the batch job: coalesces AND raises the
    // queued original, so the pair must now complete before `mid`.
    let hot = service.submit_compile(tiny(10), Pipeline::Qiskit, 9).expect("hot dup");
    assert!(hot.coalesced);
    park.wait().expect("park");
    let (batch, mid, hot) =
        (batch.wait().expect("batch"), mid.wait().expect("mid"), hot.wait().expect("hot"));
    assert_eq!(batch.done_seq, hot.done_seq, "one compile served both");
    assert!(
        hot.done_seq < mid.done_seq,
        "boosted duplicate must overtake the mid-priority job: hot {} mid {}",
        hot.done_seq,
        mid.done_seq
    );
    service.shutdown();
}

#[test]
fn dropping_the_only_ticket_cancels_a_queued_job() {
    let service = Service::start_with_compiler(
        small_compiler(),
        ServiceConfig { workers: 1, debug_ops: true, ..ServiceConfig::default() },
    );
    let park = park_worker(&service, 150);
    let orphan = service.submit_compile(tiny(20), Pipeline::Qiskit, DEFAULT_PRIORITY).unwrap();
    assert_eq!(service.queue_depth(), 1);
    // The client disconnects while its job is still queued: the job must
    // leave the queue immediately — no worker ever runs the compile.
    drop(orphan);
    assert_eq!(service.queue_depth(), 0, "cancelled job must free its queue slot");
    park.wait().expect("park");
    let s = service.stats_snapshot();
    assert_eq!(s.service.cancelled, 1, "cancellation must be counted");
    assert_eq!(s.service.completed, 1, "only the park job ran");
    assert_eq!(s.cache.programs.misses, 0, "the compile never started");
    // The same program submitted again is a fresh job and completes.
    let retry = service.submit_compile(tiny(20), Pipeline::Qiskit, DEFAULT_PRIORITY).unwrap();
    assert!(!retry.coalesced, "cancelled job must not linger in the inflight map");
    assert!(retry.wait().is_ok());
    assert_eq!(service.stats_snapshot().service.cancelled, 1);
    service.shutdown();
}

#[test]
fn cancellation_waits_for_the_last_coalesced_waiter() {
    let service = Service::start_with_compiler(
        small_compiler(),
        ServiceConfig { workers: 1, debug_ops: true, ..ServiceConfig::default() },
    );
    let park = park_worker(&service, 150);
    let first = service.submit_compile(tiny(21), Pipeline::Qiskit, DEFAULT_PRIORITY).unwrap();
    let second = service.submit_compile(tiny(21), Pipeline::Qiskit, DEFAULT_PRIORITY).unwrap();
    assert!(second.coalesced);
    // One of two waiters disconnects: the survivor still owns the job.
    drop(first);
    assert_eq!(service.queue_depth(), 1, "a surviving waiter keeps the job queued");
    assert_eq!(service.stats_snapshot().service.cancelled, 0);
    park.wait().expect("park");
    assert!(second.wait().is_ok(), "the surviving waiter must get the result");
    // Both waiters of a second job disconnect: now it cancels.
    let park2 = park_worker(&service, 150);
    let a = service.submit_compile(tiny(22), Pipeline::Qiskit, DEFAULT_PRIORITY).unwrap();
    let b = service.submit_compile(tiny(22), Pipeline::Qiskit, DEFAULT_PRIORITY).unwrap();
    drop(a);
    drop(b);
    assert_eq!(service.queue_depth(), 0);
    park2.wait().expect("park");
    let s = service.stats_snapshot();
    assert_eq!(s.service.cancelled, 1);
    assert_eq!(s.service.completed, 3, "two parks + one compile, no cancelled work");
    service.shutdown();
}

#[test]
fn waited_tickets_never_count_as_cancelled() {
    // The guard rides every ticket; a normally-served request must leave
    // the cancellation counter untouched (the completion path removes the
    // inflight entry before the guard drops).
    let service = Service::start_with_compiler(
        small_compiler(),
        ServiceConfig { workers: 1, ..ServiceConfig::default() },
    );
    for seed in 0..3 {
        let t = service.submit_compile(tiny(seed), Pipeline::Qiskit, DEFAULT_PRIORITY).unwrap();
        assert!(t.wait().is_ok());
    }
    let s = service.stats_snapshot();
    assert_eq!(s.service.cancelled, 0);
    assert_eq!(s.service.completed, 3);
    service.shutdown();
}

#[test]
fn poisoned_job_fails_cleanly_without_wedging_the_pool() {
    let service = Service::start_with_compiler(
        small_compiler(),
        ServiceConfig { workers: 1, debug_ops: true, ..ServiceConfig::default() },
    );
    let poisoned = service.submit_debug(DebugOp::Panic, DEFAULT_PRIORITY).expect("submit");
    let err = poisoned.wait().expect_err("the panic op must fail");
    assert!(err.contains("panic"), "failure reason surfaced: {err}");
    // The (single!) worker survived and serves the next job normally.
    let ok = service
        .submit_compile(tiny(7), Pipeline::Qiskit, DEFAULT_PRIORITY)
        .expect("submit")
        .wait()
        .expect("the pool must survive a poisoned job");
    assert!(ok.circuit.is_some());
    let s = service.stats_snapshot();
    assert_eq!((s.service.failed, s.service.completed), (1, 1));
    service.shutdown();
}

#[test]
fn graceful_shutdown_drains_queue_and_flushes_store() {
    let segment = scratch_segment("shutdown-flush");
    let service = Service::start_with_compiler(
        small_compiler(),
        ServiceConfig {
            workers: 1,
            shm_path: Some(segment.clone()),
            debug_ops: true,
            ..ServiceConfig::default()
        },
    );
    assert_eq!(service.stats_snapshot().shared.expect("segment").entries, 0, "a fresh segment");
    let park = park_worker(&service, 100);
    // Still queued when shutdown starts: drain must finish it, not drop it.
    let queued = service.submit_compile(tiny(8), Pipeline::ReqiscFull, DEFAULT_PRIORITY).unwrap();
    service.shutdown();
    park.wait().expect("park ran");
    let done = queued.wait().expect("queued job must drain, not drop");
    let fp = done.circuit.unwrap().content_hash();
    assert_eq!(service.stats_snapshot().service.snapshots, 1, "shutdown ran the last bulk pass");
    drop(service);
    // The store is the segment file: it warms a fresh compiler with the
    // drained program ...
    let seg = reqisc_shmem::Segment::attach(&segment, 1 << 20, STORE_FORMAT_VERSION)
        .expect("reattach");
    let warm = small_compiler();
    assert!(seed_from_segment(&seg, warm.cache()) >= 2, "the program and its blocks");
    let again = warm.compile(&tiny(8), Pipeline::ReqiscFull);
    assert_eq!(again.content_hash(), fp, "flushed entry serves the identical result");
    assert_eq!(warm.cache_stats().programs.hits, 1, "must be a pure disk-warm hit");
    // ... and with the synthesized blocks, which only the shutdown pass
    // publishes: a cold solve of the same program synthesizes nothing.
    let cold = small_compiler();
    assert!(seed_subprogram_pools(&seg, cold.cache()) > 0);
    assert_eq!(cold.compile(&tiny(8), Pipeline::ReqiscFull), again);
    assert_eq!(cold.cache_stats().synthesis.misses, 0, "every block came from the segment");
    drop(seg);
    let _ = std::fs::remove_file(&segment);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random job multisets: every response matches the reference
    /// compiler bit-for-bit, and the coalescing/completion accounting
    /// closes exactly (executed + coalesced = submitted).
    #[test]
    fn random_job_mixes_account_exactly(picks in proptest::collection::vec((0u64..3, 0usize..3), 1..12)) {
        let service = Service::start_with_compiler(
            small_compiler(),
            ServiceConfig { workers: 1, debug_ops: true, ..ServiceConfig::default() },
        );
        let pipelines = [Pipeline::Qiskit, Pipeline::Tket, Pipeline::QiskitSu4];
        let park = park_worker(&service, 100);
        let tickets: Vec<_> = picks
            .iter()
            .map(|&(s, p)| service.submit_compile(tiny(s), pipelines[p], DEFAULT_PRIORITY).expect("submit"))
            .collect();
        park.wait().expect("park");
        let reference = small_compiler();
        for (t, &(s, p)) in tickets.into_iter().zip(&picks) {
            let done = t.wait().expect("compile");
            let expect = reference.compile(&tiny(s), pipelines[p]);
            prop_assert_eq!(
                done.circuit.unwrap().circuit(),
                &expect,
                "service result diverged from direct compile"
            );
        }
        let st = service.stats_snapshot().service;
        prop_assert_eq!(st.submitted, picks.len() as u64 + 1, "every request admitted (+park)");
        prop_assert_eq!(st.completed + st.coalesced, picks.len() as u64 + 1, "executed + attached = submitted");
        prop_assert_eq!(st.failed, 0u64);
        service.shutdown();
    }
}
