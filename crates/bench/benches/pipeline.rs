//! Criterion benches for end-to-end compilation throughput (the latency
//! dimension of Fig. 16), for one warm compile reply through the service,
//! for a peer's first reply from the shared segment, and for two
//! design-choice ablations: synthesis threshold `m_th` and the
//! near-identity mirroring threshold `r`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reqisc_benchsuite::generators::{qaoa, ripple_add};
use reqisc_benchsuite::{suite, Scale};
use reqisc_compiler::{
    hierarchical_synthesis, probe_shared_program, publish_program, CompileCache, Compiler,
    HsOptions, Pipeline, STORE_FORMAT_VERSION,
};
use reqisc_microarch::{solve_with_mirroring, Coupling};
use reqisc_qmath::WeylCoord;
use reqisc_service::{serve_lines, Service, ServiceConfig};
use reqisc_shmem::layout::MIN_CAPACITY;
use std::hint::black_box;
use std::sync::OnceLock;

fn compiler() -> &'static Compiler {
    static C: OnceLock<Compiler> = OnceLock::new();
    C.get_or_init(Compiler::new)
}

fn bench_pipelines(c: &mut Criterion) {
    let program = ripple_add(3);
    let mut g = c.benchmark_group("compile_ripple_add_3");
    g.sample_size(10);
    for p in [Pipeline::Qiskit, Pipeline::Tket, Pipeline::ReqiscEff, Pipeline::ReqiscFull] {
        g.bench_with_input(BenchmarkId::from_parameter(p.name()), &p, |b, &p| {
            b.iter(|| black_box(compiler().compile(&program, p).count_2q()))
        });
    }
    g.finish();
}

fn bench_warm_reply(c: &mut Criterion) {
    // One warm SU(4)-ISA compile reply in process: a request line for an
    // already-compiled reqisc-eff output (alu_v2, 83 SU(4) gates) through
    // `serve_lines` over an in-memory reader and writer — parse, lookup
    // hit, reply fingerprint and metrics, encode.
    let service = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let line: &[u8] =
        b"{\"id\":1,\"op\":\"compile\",\"pipeline\":\"reqisc-eff\",\"bench\":\"alu_v2\"}\n";
    let mut out = Vec::new();
    serve_lines(&service, line, &mut out).expect("populate");
    assert!(out.starts_with(b"{\"id\":1,\"ok\":true"), "{}", String::from_utf8_lossy(&out));
    c.bench_function("warm_reply_reqisc_eff_alu_v2", |b| {
        b.iter(|| {
            out.clear();
            serve_lines(&service, line, &mut out).expect("serve");
            black_box(out.len())
        })
    });
    service.shutdown();
}

fn bench_shared_first_reply(c: &mut Criterion) {
    // A peer's first touch of a shared-segment entry: probe a published
    // reqisc-eff output (alu_v2) into a fresh cache and read its reply
    // record — decoding only, if the segment carries the record; one
    // content hash and a KAK per distinct SU(4) gate if it does not.
    let alu = suite(Scale::Demo).into_iter().find(|b| b.name == "alu_v2").expect("alu_v2");
    let out = compiler().compile(&alu.circuit, Pipeline::ReqiscEff);
    let (h, fp) = (alu.circuit.content_hash(), compiler().options_fingerprint());
    let path = std::env::temp_dir().join(format!("reqisc-bench-shared-{}.seg", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let seg = reqisc_shmem::Segment::attach(&path, MIN_CAPACITY, STORE_FORMAT_VERSION)
        .expect("attach segment");
    publish_program(&seg, h, Pipeline::ReqiscEff, fp, &out);
    c.bench_function("shared_first_reply", |b| {
        b.iter(|| {
            let cache = CompileCache::new();
            let entry = probe_shared_program(&seg, &cache, h, Pipeline::ReqiscEff, fp)
                .expect("segment hit");
            black_box(entry.reply().metrics.duration)
        })
    });
    drop(seg);
    let _ = std::fs::remove_file(&path);
}

fn bench_mth_ablation(c: &mut Criterion) {
    let program = qaoa(6, 2, 1);
    let mut g = c.benchmark_group("ablation_m_th");
    g.sample_size(10);
    for m_th in [2usize, 4, 6] {
        g.bench_with_input(BenchmarkId::from_parameter(m_th), &m_th, |b, &m_th| {
            let mut o = HsOptions::default();
            o.m_th = m_th;
            o.search.sweep.restarts = 2;
            b.iter(|| black_box(hierarchical_synthesis(&program, &o).count_2q()))
        });
    }
    g.finish();
}

fn bench_mirror_threshold(c: &mut Criterion) {
    let cp = Coupling::xy(1.0);
    let w = WeylCoord::new(0.06, 0.03, 0.01);
    let mut g = c.benchmark_group("ablation_mirror_threshold");
    g.sample_size(10);
    for r in [0.0f64, 0.15, 0.5] {
        g.bench_with_input(BenchmarkId::from_parameter(r), &r, |b, &r| {
            b.iter(|| black_box(solve_with_mirroring(&cp, &w, r).unwrap().pulse.tau))
        });
    }
    g.finish();
}

criterion_group!(
    pipeline,
    bench_pipelines,
    bench_warm_reply,
    bench_shared_first_reply,
    bench_mth_ablation,
    bench_mirror_threshold
);
criterion_main!(pipeline);
