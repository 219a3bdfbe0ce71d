//! The warm path's counter-asserted guarantees, in process:
//!
//! * **mixed** — a batch of never-seen cold variants is submitted and not
//!   awaited, then every warm key is served serially through the
//!   congested service: every warm request is a hit (`lookup_hits` delta
//!   == warm count), only the colds are admitted and solved
//!   (`lookup_misses` and `solve_claimed` deltas == cold count), and
//!   every warm delivery precedes the last cold one;
//! * **pipelined** — a warm batch submitted in full before any wait
//!   returns the cold pass's fingerprints;
//! * **shared** — a second service with cold local pools, attached to the
//!   segment the first one published into, answers the whole workload
//!   from the segment (`shared.hits == lookup_hits == requests`) with
//!   zero solves and the same fingerprints.
//!
//! Counters and `done_seq` carry every claim; nothing asserts wall time.

use reqisc_benchsuite::{suite, Scale};
use reqisc_compiler::{Compiler, Pipeline};
use reqisc_qcircuit::{Circuit, Gate};
use reqisc_service::{DebugOp, Service, ServiceConfig, Ticket, DEFAULT_PRIORITY};
use std::path::PathBuf;
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

fn scratch_segment(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("reqisc-warm-path-{}-{tag}.seg", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Six demo programs through two pipelines: twelve distinct keys.
fn jobs() -> Vec<(Arc<Circuit>, Pipeline)> {
    let pipelines = [Pipeline::Qiskit, Pipeline::ReqiscEff];
    suite(Scale::Demo)
        .into_iter()
        .take(6)
        .flat_map(|b| {
            let c = Arc::new(b.circuit);
            pipelines.map(|p| (c.clone(), p))
        })
        .collect()
}

fn config(segment: &std::path::Path) -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        debug_ops: true,
        shm_path: Some(segment.to_path_buf()),
        ..ServiceConfig::default()
    }
}

fn submit(service: &Service, (circuit, pipeline): &(Arc<Circuit>, Pipeline)) -> Ticket {
    service.submit_compile(circuit.clone(), *pipeline, DEFAULT_PRIORITY).expect("submit")
}

fn fingerprint(ticket: Ticket) -> u128 {
    ticket.wait().expect("compile").circuit.expect("circuit").content_hash()
}

/// The cold pass: every job compiled once, serially; returns the
/// fingerprints in job order.
fn cold_pass(service: &Service, jobs: &[(Arc<Circuit>, Pipeline)]) -> Vec<u128> {
    jobs.iter().map(|job| fingerprint(submit(service, job))).collect()
}

/// Parks the single solve worker on a sleep job and waits until it has
/// claimed it. The wait is on the claim counter, not on an empty solve
/// ring: the worker counts a claim just after the pop that empties the
/// ring, and a snapshot taken in between would see the park's claim
/// land inside the measured window.
fn park_worker(service: &Service, ms: u64) -> Ticket {
    let claimed = service.stats_snapshot().stages.solve_claimed;
    let t = service.submit_debug(DebugOp::Sleep { ms }, DEFAULT_PRIORITY).expect("park");
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.stats_snapshot().stages.solve_claimed == claimed {
        assert!(Instant::now() < deadline, "worker never claimed the park job");
        std::thread::yield_now();
    }
    t
}

#[test]
fn warm_hits_ride_past_a_cold_batch_without_solving() {
    let segment = scratch_segment("mixed");
    let service = Service::start_with_compiler(small_compiler(), config(&segment));
    let jobs = jobs();
    let fingerprints = cold_pass(&service, &jobs);

    // Congest the solve stage: the worker parks, then a batch of cold
    // variants (each program plus one uniquely parameterised gate, so
    // every key is a true miss) waits in the solve ring, not awaited.
    let park = park_worker(&service, 400);
    let s0 = service.stats_snapshot();
    let colds: Vec<Ticket> = jobs
        .iter()
        .enumerate()
        .map(|(i, (c, p))| {
            let mut variant = (**c).clone();
            variant.push(Gate::Rz(0, 0.1015625 + i as f64 * 1e-3));
            submit(&service, &(Arc::new(variant), *p))
        })
        .collect();
    let mut warm_seqs = Vec::with_capacity(jobs.len());
    for (job, &fp) in jobs.iter().zip(&fingerprints) {
        let done = submit(&service, job).wait().expect("warm compile");
        assert_eq!(done.circuit.expect("circuit").content_hash(), fp, "warm result diverged");
        warm_seqs.push(done.done_seq);
    }
    park.wait().expect("park");
    let cold_seqs: Vec<u64> =
        colds.into_iter().map(|t| t.wait().expect("cold compile").done_seq).collect();

    let s1 = service.stats_snapshot();
    let (warm_n, cold_n) = (warm_seqs.len() as u64, cold_seqs.len() as u64);
    assert_eq!(s1.stages.lookup_hits - s0.stages.lookup_hits, warm_n, "every warm request hits");
    assert_eq!(s1.stages.lookup_misses - s0.stages.lookup_misses, cold_n, "only colds miss");
    assert_eq!(
        s1.stages.solve_claimed - s0.stages.solve_claimed,
        cold_n,
        "zero warm requests entered the solve stage"
    );
    let last_cold = cold_seqs.iter().copied().max().expect("colds");
    assert!(
        warm_seqs.iter().all(|&w| w < last_cold),
        "every warm delivery must precede the last cold one: warm {warm_seqs:?} cold {cold_seqs:?}"
    );
    service.shutdown();
    let _ = std::fs::remove_file(&segment);
}

#[test]
fn pipelined_warm_batch_returns_the_cold_fingerprints() {
    let segment = scratch_segment("pipelined");
    let service = Service::start_with_compiler(small_compiler(), config(&segment));
    let jobs = jobs();
    let fingerprints = cold_pass(&service, &jobs);

    let s0 = service.stats_snapshot();
    let tickets: Vec<Ticket> = jobs.iter().map(|job| submit(&service, job)).collect();
    let warm: Vec<u128> = tickets.into_iter().map(fingerprint).collect();
    assert_eq!(warm, fingerprints, "the pipelined warm batch must serve the cold pass's outputs");
    let s1 = service.stats_snapshot();
    assert_eq!(s1.stages.lookup_hits - s0.stages.lookup_hits, jobs.len() as u64);
    assert_eq!(s1.stages.solve_claimed, s0.stages.solve_claimed, "no warm request solved");
    service.shutdown();
    let _ = std::fs::remove_file(&segment);
}

#[test]
fn storeless_peer_serves_everything_from_the_segment() {
    let segment = scratch_segment("shared");
    let jobs = jobs();
    let first = Service::start_with_compiler(small_compiler(), config(&segment));
    let fingerprints = cold_pass(&first, &jobs);
    first.shutdown();

    // Cold local pools: only the segment can answer warm.
    let peer = Service::start_with_compiler(small_compiler(), config(&segment));
    let served: Vec<u128> = jobs.iter().map(|job| fingerprint(submit(&peer, job))).collect();
    assert_eq!(served, fingerprints, "the peer must serve the publisher's outputs bit for bit");
    let s = peer.stats_snapshot();
    let shared = s.shared.expect("the peer attached the segment");
    let n = jobs.len() as u64;
    assert_eq!(s.stages.lookup_hits, n, "every request is a warm hit");
    assert_eq!(shared.hits, n, "every hit comes from the segment, not the local pools");
    assert_eq!(s.stages.solve_claimed, 0, "a request duplicated a solve the publisher made");
    peer.shutdown();
    let _ = std::fs::remove_file(&segment);
}
