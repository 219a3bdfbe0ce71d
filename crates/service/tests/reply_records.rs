//! Reply records equal recomputation on every serving path.
//!
//! A compile reply reads its fingerprint and metrics from the program
//! pool entry's reply record, priced once per entry. Over the demo suite,
//! every reply of every outcome — cold solve, coalesced duplicate, local
//! warm hit, shared-segment hit on a second service with cold pools, and
//! a restart from the segment file — must report, after the JSON round
//! trip, exactly the
//! `content_hash()` and `metrics(_, &Coupling::xy(1.0))` of
//! `Compiler::compile`'s output.

use reqisc_benchsuite::{suite, Scale};
use reqisc_compiler::{metrics, Compiler, Pipeline};
use reqisc_microarch::Coupling;
use reqisc_service::{serve_lines, Json, Service, ServiceConfig};
use std::collections::HashSet;
use std::path::PathBuf;

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

fn scratch(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("reqisc-replies-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// One distinct compile job and what its reply must say.
struct Job {
    bench: String,
    pipeline: Pipeline,
    fingerprint: String,
    count_2q: u64,
    depth_2q: u64,
    duration_bits: u64,
}

/// The distinct `(program, pipeline)` jobs of the demo suite, each
/// priced by recomputation on `Compiler::compile`'s output.
fn jobs(pipelines: &[Pipeline]) -> Vec<Job> {
    let reference = small_compiler();
    let coupling = Coupling::xy(1.0);
    let mut seen = HashSet::new();
    let mut jobs = Vec::new();
    for &pipeline in pipelines {
        for b in suite(Scale::Demo) {
            if !seen.insert((b.circuit.content_hash(), pipeline)) {
                continue;
            }
            let out = reference.compile(&b.circuit, pipeline);
            let m = metrics(&out, &coupling);
            jobs.push(Job {
                bench: b.name,
                pipeline,
                fingerprint: format!("{:032x}", out.content_hash()),
                count_2q: m.count_2q as u64,
                depth_2q: m.depth_2q as u64,
                duration_bits: m.duration.to_bits(),
            });
        }
    }
    jobs
}

fn request(id: usize, job: &Job) -> String {
    format!(
        "{{\"id\":{id},\"op\":\"compile\",\"pipeline\":\"{}\",\"bench\":\"{}\"}}\n",
        job.pipeline.name(),
        job.bench
    )
}

/// One request per job, ids from 1.
fn once(jobs: &[Job]) -> String {
    jobs.iter().enumerate().map(|(k, j)| request(k + 1, j)).collect()
}

fn serve(service: &Service, script: &str) -> Vec<Json> {
    let mut out = Vec::new();
    serve_lines(service, script.as_bytes(), &mut out).expect("serve");
    String::from_utf8(out)
        .expect("utf8")
        .lines()
        .map(|l| Json::parse(l).expect("reply parses"))
        .collect()
}

/// Asserts `reply` carries `job`'s recomputed fingerprint and metrics,
/// the duration to the bit.
fn check(outcome: &str, reply: &Json, job: &Job, coalesced: bool) {
    let ctx = || format!("{outcome}: {} on {}: {}", job.pipeline.name(), job.bench, reply.emit());
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{}", ctx());
    let fingerprint = reply.get("fingerprint").and_then(Json::as_str);
    assert_eq!(fingerprint, Some(&*job.fingerprint), "{}", ctx());
    assert_eq!(reply.get("count_2q").and_then(Json::as_u64), Some(job.count_2q), "{}", ctx());
    assert_eq!(reply.get("depth_2q").and_then(Json::as_u64), Some(job.depth_2q), "{}", ctx());
    let duration = reply.get("duration_g").and_then(Json::as_f64).map(f64::to_bits);
    assert_eq!(duration, Some(job.duration_bits), "{}", ctx());
    assert_eq!(reply.get("coalesced").and_then(Json::as_bool), Some(coalesced), "{}", ctx());
}

fn replies_equal_recomputation(pipelines: &[Pipeline]) {
    let jobs = jobs(pipelines);
    let n = jobs.len() as u64;
    let seg = scratch("seg");
    let config = ServiceConfig {
        workers: 1,
        queue_capacity: 2 * jobs.len() + 2,
        ..ServiceConfig::default()
    };

    // Service A, first stream: a sleep parks the only solve worker while
    // every job is submitted twice, so each first request is a cold
    // solve and each second one coalesces onto it.
    let a = Service::start_with_compiler(
        small_compiler(),
        ServiceConfig {
            shm_path: Some(seg.clone()),
            debug_ops: true,
            ..config.clone()
        },
    );
    let mut script = String::from("{\"id\":0,\"op\":\"sleep\",\"ms\":1000}\n");
    for (k, job) in jobs.iter().enumerate() {
        script.push_str(&request(2 * k + 1, job));
        script.push_str(&request(2 * k + 2, job));
    }
    let replies = serve(&a, &script);
    assert_eq!(replies.len(), 2 * jobs.len() + 1);
    assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(true), "the park");
    for (pair, job) in replies[1..].chunks(2).zip(&jobs) {
        check("cold solve", &pair[0], job, false);
        check("coalesced", &pair[1], job, true);
    }
    let cold = a.stats_snapshot();
    assert_eq!(cold.stages.solve_claimed, n + 1, "every job solved once, plus the park");
    assert_eq!(cold.service.coalesced, n);

    // Service A, second stream: every job is a local warm hit.
    let replies = serve(&a, &once(&jobs));
    for (reply, job) in replies.iter().zip(&jobs) {
        check("local warm hit", reply, job, false);
    }
    let warm = a.stats_snapshot();
    assert_eq!(replies.len(), jobs.len());
    assert_eq!(warm.stages.lookup_hits - cold.stages.lookup_hits, n);
    assert_eq!(warm.stages.solve_claimed, cold.stages.solve_claimed);
    a.shutdown();

    // Service B: cold local pools, the segment A published into. Every
    // job is a shared-segment hit.
    let b = Service::start_with_compiler(
        small_compiler(),
        ServiceConfig { shm_path: Some(seg.clone()), ..config.clone() },
    );
    let replies = serve(&b, &once(&jobs));
    for (reply, job) in replies.iter().zip(&jobs) {
        check("shared-segment hit", reply, job, false);
    }
    let shared = b.stats_snapshot();
    assert_eq!(replies.len(), jobs.len());
    assert_eq!(shared.shared.expect("segment attached").hits, n);
    assert_eq!(shared.stages.solve_claimed, 0);
    b.shutdown();

    // Service C: a restart on the file A and B left behind. Nothing is
    // attached in between, so its attach recovers the file; every job is
    // served from it.
    drop((a, b));
    let c = Service::start_with_compiler(
        small_compiler(),
        ServiceConfig { shm_path: Some(seg.clone()), ..config },
    );
    let replies = serve(&c, &once(&jobs));
    for (reply, job) in replies.iter().zip(&jobs) {
        check("restart from the segment file", reply, job, false);
    }
    let restarted = c.stats_snapshot();
    assert_eq!(replies.len(), jobs.len());
    assert_eq!(restarted.stages.lookup_hits, n);
    assert_eq!(restarted.shared.expect("segment attached").hits, n);
    assert_eq!(restarted.stages.solve_claimed, 0);
    c.shutdown();

    let _ = std::fs::remove_file(&seg);
}

#[test]
fn replies_equal_recomputation_on_every_path() {
    replies_equal_recomputation(&[
        Pipeline::Qiskit,
        Pipeline::Tket,
        Pipeline::QiskitSu4,
        Pipeline::TketSu4,
        Pipeline::ReqiscEff,
    ]);
}

#[test]
#[ignore = "exhaustive tier: all eight pipelines over the demo suite (minutes)"]
fn replies_equal_recomputation_on_every_path_all_pipelines() {
    replies_equal_recomputation(&Pipeline::ALL);
}
