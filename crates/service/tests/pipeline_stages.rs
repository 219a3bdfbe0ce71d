//! Stage-isolation and drain tests of the service core:
//!
//! * **stall isolation, end to end** — a real `reqiscd --debug-ops`
//!   child process whose single solve worker a `sleep` line parks:
//!   warm requests must be answered at submission and complete while
//!   cold jobs wait behind the parked worker, proven by `done_seq`
//!   response ordering and the stage counters — never by wall time;
//! * **stall isolation, in process** — the same property with the worker
//!   parked through [`Service::submit_debug`], with before/after
//!   stage-counter deltas;
//! * **shutdown drain** — shutdown while jobs sit in every stage (a
//!   parked worker, the solve ring, a warm-served completion, a
//!   cancelled orphan): everything is responded or cleanly cancelled,
//!   every ring balances to empty, and the last bulk pass still lands in
//!   the segment file.

use reqisc_compiler::{Compiler, Pipeline};
use reqisc_qcircuit::{Circuit, Gate};
use reqisc_service::{
    DebugOp, Json, Service, ServiceConfig, StatsSnapshot, Ticket, DEFAULT_PRIORITY,
};
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicU64, Ordering};
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
    c.push(Gate::Rz(1, 0.1 + seed as f64));
    Arc::new(c)
}

fn scratch_segment(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "reqisc-pipeline-test-{}-{}-{}.seg",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Parks the single solve worker on a sleep job and waits until the
/// worker has claimed it (admission gauge back to zero).
fn park_worker(service: &Service, ms: u64) -> Ticket {
    let t = service.submit_debug(DebugOp::Sleep { ms }, DEFAULT_PRIORITY).expect("park");
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.queue_depth() > 0 {
        assert!(Instant::now() < deadline, "worker never claimed the park job");
        std::thread::yield_now();
    }
    t
}

/// Kills the daemon child on drop so a failing assertion can't leak a
/// process that holds the test's pipes open.
struct ChildGuard(std::process::Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn read_response(reader: &mut impl BufRead) -> Json {
    let mut line = String::new();
    assert!(reader.read_line(&mut line).expect("read response") > 0, "daemon hung up early");
    Json::parse(line.trim_end()).expect("response parses")
}

fn done_seq(resp: &Json) -> u64 {
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "not ok: {}", resp.emit());
    resp.get("done_seq").and_then(Json::as_u64).expect("done_seq member")
}

/// End to end through a real daemon: with its single solve worker parked
/// by a `sleep` line, a warm request submitted *behind* two cold requests
/// must still complete first — `done_seq` (assigned at delivery) proves
/// the order, and the stage counters prove the warm request never
/// crossed into the solve stage.
#[test]
fn stalled_solve_stage_does_not_block_warm_responses_e2e() {
    let mut child = ChildGuard(
        std::process::Command::new(env!("CARGO_BIN_EXE_reqiscd"))
            .args(["--stdio", "--workers", "1", "--debug-ops"])
            .env_remove(reqisc_env::SHM_PATH.name)
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn reqiscd"),
    );
    let mut stdin = child.0.stdin.take().expect("child stdin");
    let mut reader = BufReader::new(child.0.stdout.take().expect("child stdout"));

    // Phase 1: prime the warm program, and *wait for its response* so
    // the warm re-request below is a pool hit, not an in-flight coalesce.
    const WARM: &str = "qubits 2\\ncx 0 1\\n";
    writeln!(stdin, "{{\"id\":1,\"op\":\"compile\",\"pipeline\":\"qiskit\",\"qasm\":\"{WARM}\"}}")
        .expect("write prime");
    stdin.flush().expect("flush");
    let prime = read_response(&mut reader);
    let seq_prime = done_seq(&prime);

    // Phase 2: a `sleep` that parks the single solve worker, two
    // never-seen cold programs, then the warm re-request — all in one
    // write, so the colds wait behind the parked worker and the warm
    // request is submitted behind the colds.
    let mut batch = String::new();
    batch.push_str("{\"id\":2,\"op\":\"sleep\",\"ms\":300}\n");
    batch.push_str("{\"id\":3,\"op\":\"compile\",\"pipeline\":\"qiskit\",\"qasm\":\"qubits 2\\ncx 0 1\\nrz 1 3.0e-1\\n\"}\n");
    batch.push_str("{\"id\":4,\"op\":\"compile\",\"pipeline\":\"qiskit\",\"qasm\":\"qubits 2\\ncx 0 1\\nrz 1 4.0e-1\\n\"}\n");
    batch.push_str(&format!(
        "{{\"id\":5,\"op\":\"compile\",\"pipeline\":\"qiskit\",\"qasm\":\"{WARM}\"}}\n"
    ));
    stdin.write_all(batch.as_bytes()).expect("write batch");
    stdin.flush().expect("flush");
    let park = read_response(&mut reader);
    assert_eq!(park.get("op").and_then(Json::as_str), Some("sleep"), "{}", park.emit());
    let (cold1, cold2, warm) =
        (read_response(&mut reader), read_response(&mut reader), read_response(&mut reader));
    let (seq_c1, seq_c2, seq_warm) = (done_seq(&cold1), done_seq(&cold2), done_seq(&warm));

    // Delivery order: prime, then the warm hit (while the worker is
    // parked), then the colds in submission order.
    assert!(seq_prime < seq_warm, "prime must complete before its warm re-request");
    assert!(
        seq_warm < seq_c1 && seq_warm < seq_c2,
        "warm response must overtake both stalled colds: warm {seq_warm} colds {seq_c1}/{seq_c2}"
    );
    assert!(seq_c1 < seq_c2, "colds complete in submission order on one worker");
    assert_eq!(
        warm.get("fingerprint").and_then(Json::as_str),
        prime.get("fingerprint").and_then(Json::as_str),
        "the warm hit must serve the identical program"
    );

    // Phase 3: stats, requested only after every compile response was
    // read, so the snapshot is quiescent and the counters are exact.
    writeln!(stdin, "{{\"id\":6,\"op\":\"stats\"}}").expect("write stats");
    stdin.flush().expect("flush");
    let stats_resp = read_response(&mut reader);
    let stats = StatsSnapshot::from_json(stats_resp.get("stats").expect("stats member"))
        .expect("stats parse");
    assert_eq!(stats.stages.lookup_hits, 1, "exactly the one warm hit");
    assert_eq!(stats.stages.lookup_misses, 3, "prime + two colds crossed to the solve ring");
    assert_eq!(stats.stages.solve_claimed, 4, "the park + prime + two colds: zero warm jobs");
    assert_eq!(stats.stages.delivered, 5);
    assert_eq!(stats.service.completed, 5);
    assert_eq!(stats.service.failed, 0);

    drop(stdin); // EOF ends the stdio session; the daemon exits cleanly.
    let status = child.0.wait().expect("child exit");
    assert!(status.success(), "reqiscd must exit cleanly: {status:?}");
}

/// The same stall-isolation property in process, with the single worker
/// parked by a `sleep` debug job, asserted purely by before/after
/// stage-counter deltas and `done_seq` ordering.
#[test]
fn parked_worker_isolates_warm_traffic_in_process() {
    let service = Service::start_with_compiler(
        small_compiler(),
        ServiceConfig { workers: 1, debug_ops: true, ..ServiceConfig::default() },
    );
    // Prime two warm programs.
    for seed in 0..2 {
        service
            .submit_compile(tiny(seed), Pipeline::Qiskit, DEFAULT_PRIORITY)
            .expect("prime")
            .wait()
            .expect("prime compile");
    }
    let s0 = service.stats_snapshot();

    // The parked worker (250 ms) holds two cold jobs in the solve ring;
    // four warm requests then ride through serially.
    let park = park_worker(&service, 250);
    let colds: Vec<Ticket> = (10..12)
        .map(|seed| {
            service.submit_compile(tiny(seed), Pipeline::Qiskit, DEFAULT_PRIORITY).expect("cold")
        })
        .collect();
    let mut warm_seqs = Vec::new();
    for seed in [0u64, 1, 0, 1] {
        let done = service
            .submit_compile(tiny(seed), Pipeline::Qiskit, DEFAULT_PRIORITY)
            .expect("warm")
            .wait()
            .expect("warm compile");
        warm_seqs.push(done.done_seq);
    }
    let mid = service.stats_snapshot();
    assert_eq!(mid.stages.lookup_hits - s0.stages.lookup_hits, 4, "all four warm hits");
    assert!(
        mid.stages.solve_claimed - s0.stages.solve_claimed <= 3,
        "nothing beyond the park and the two colds may ever be claimed"
    );

    let park_seq = park.wait().expect("park ran").done_seq;
    assert!(warm_seqs.iter().all(|w| *w < park_seq), "warm {warm_seqs:?} park {park_seq}");
    let cold_seqs: Vec<u64> =
        colds.into_iter().map(|t| t.wait().expect("cold compile").done_seq).collect();
    assert!(
        warm_seqs.iter().all(|w| cold_seqs.iter().all(|c| w < c)),
        "every warm delivery must precede every stalled cold: warm {warm_seqs:?} cold {cold_seqs:?}"
    );
    assert!(warm_seqs.windows(2).all(|w| w[0] < w[1]), "warm order is submission order");

    let s1 = service.stats_snapshot();
    assert_eq!(s1.stages.lookup_misses - s0.stages.lookup_misses, 2, "only the colds miss");
    assert_eq!(s1.stages.solve_claimed - s0.stages.solve_claimed, 3, "zero warm solve claims");
    assert_eq!(s1.cache.programs.misses - s0.cache.programs.misses, 2);
    service.shutdown();
}

/// Shutdown with work in *every* stage: a parked solve worker, two cold
/// jobs still ringed, a warm job answered at submission, and an orphan
/// whose only ticket was dropped. Everything must be responded or
/// cleanly cancelled, every ring must balance to empty, and the segment
/// must hold every result — jobs never strand, results never vanish.
#[test]
fn shutdown_drains_jobs_across_all_stages() {
    let segment = scratch_segment("drain");
    let service = Service::start_with_compiler(
        small_compiler(),
        ServiceConfig {
            workers: 1,
            shm_path: Some(segment.clone()),
            debug_ops: true,
            ..ServiceConfig::default()
        },
    );
    // Prime the warm program, then park the worker so the jobs below
    // are pinned in their rings when shutdown starts.
    let warm_fp = service
        .submit_compile(tiny(0), Pipeline::Qiskit, DEFAULT_PRIORITY)
        .expect("prime")
        .wait()
        .expect("prime compile")
        .circuit
        .expect("circuit")
        .content_hash();
    let park = park_worker(&service, 300);
    let cold1 = service.submit_compile(tiny(30), Pipeline::Qiskit, DEFAULT_PRIORITY).expect("c1");
    let cold2 = service.submit_compile(tiny(31), Pipeline::Qiskit, DEFAULT_PRIORITY).expect("c2");
    let warm = service.submit_compile(tiny(0), Pipeline::Qiskit, DEFAULT_PRIORITY).expect("warm");
    // The orphan: its only client disconnects while the job is in the
    // solve ring (the worker is parked, so it cannot have been claimed).
    let orphan = service.submit_compile(tiny(32), Pipeline::Qiskit, DEFAULT_PRIORITY).expect("o");
    drop(orphan);

    service.shutdown();

    // Every surviving ticket was responded — during or after the drain.
    park.wait().expect("park ran");
    let c1 = cold1.wait().expect("cold1 drained, not dropped");
    let c2 = cold2.wait().expect("cold2 drained, not dropped");
    assert!(c1.circuit.is_some() && c2.circuit.is_some());
    let (warm_result, extras) = warm.wait_counting_duplicates();
    let warm_done = warm_result.expect("warm served");
    assert_eq!(extras, 0, "one response per ticket, even through a drain");
    assert_eq!(warm_done.circuit.expect("circuit").content_hash(), warm_fp);

    // Accounting closes: 6 submissions; 5 completed (prime, park, two
    // colds, warm), 1 cancelled; nothing failed, nothing left in-system.
    let s = service.stats_snapshot();
    assert_eq!(s.service.submitted, 6);
    assert_eq!(s.service.completed, 5);
    assert_eq!(s.service.cancelled, 1, "the orphan was cancelled in-ring");
    assert_eq!(s.service.failed, 0);
    assert_eq!(s.service.queue_depth, 0);
    assert_eq!(s.stages.delivered, s.service.completed + s.service.failed);
    assert_eq!(s.stages.solve.depth, 0, "the solve ring must drain to empty");
    assert_eq!(s.stages.solve.enqueued, s.stages.solve.dequeued, "the solve ring must balance");

    // The results landed in the segment file: a second instance
    // warm-starts from it and serves the drained cold job as a warm hit.
    drop(service);
    let second = Service::start_with_compiler(
        small_compiler(),
        ServiceConfig { workers: 1, shm_path: Some(segment.clone()), ..ServiceConfig::default() },
    );
    let entries = second.stats_snapshot().shared.expect("segment attached").entries;
    assert!(entries >= 3, "prime + both colds must be in the segment: {entries}");
    let again = second
        .submit_compile(tiny(30), Pipeline::Qiskit, DEFAULT_PRIORITY)
        .expect("resubmit")
        .wait()
        .expect("disk-warm compile");
    assert_eq!(again.circuit.expect("circuit").content_hash(), c1.circuit.unwrap().content_hash());
    let s2 = second.stats_snapshot();
    assert_eq!(s2.stages.lookup_hits, 1, "drained result must be disk-warm, not recompiled");
    assert_eq!(s2.shared.expect("segment attached").hits, 1);
    assert_eq!(s2.stages.solve_claimed, 0);
    second.shutdown();
    let _ = std::fs::remove_file(&segment);
}
