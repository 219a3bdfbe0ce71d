//! Concurrency stress: N threads hammer `compile_batch` on overlapping
//! suites through one shared cache, and every result must be identical
//! to the serial reference while the cache counters stay internally
//! consistent.

use reqisc::benchsuite::mini_suite_capped;
use reqisc::compiler::{metrics, Compiler, Metrics, Pipeline};
use reqisc::microarch::Coupling;
use reqisc::qcircuit::Circuit;

#[test]
fn overlapping_batches_match_serial_metrics_and_stats_stay_consistent() {
    let mut compiler = Compiler::new();
    compiler.hs.search.sweep.restarts = 2;
    compiler.hs.search.sweep.max_sweeps = 150;
    let programs: Vec<Circuit> = mini_suite_capped(5)
        .into_iter()
        .take(6)
        .map(|b| b.circuit)
        .collect();
    assert!(programs.len() >= 4, "need a few programs to overlap");
    let pipelines = [Pipeline::Qiskit, Pipeline::TketSu4, Pipeline::ReqiscEff, Pipeline::ReqiscFull];

    // Serial reference on a *separate* compiler (equal options) so the
    // shared instance starts stone cold for the stress phase.
    let mut reference = Compiler::new();
    reference.hs.search.sweep.restarts = 2;
    reference.hs.search.sweep.max_sweeps = 150;
    let serial: Vec<(Circuit, Metrics)> = programs
        .iter()
        .flat_map(|c| pipelines.iter().map(move |&p| (c, p)))
        .map(|(c, p)| {
            let out = reference.compile_uncached(c, p);
            let m = metrics(&out, &Coupling::xy(1.0));
            (out, m)
        })
        .collect();

    // Stress: 4 hammer threads, each running 3 batches over overlapping
    // slices of the suite (every slice shares programs with its
    // neighbours), all against one shared compiler/cache. Inner batches
    // add their own workers on top.
    let n = programs.len();
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let compiler = &compiler;
            let programs = &programs;
            let pipelines = &pipelines;
            let serial = &serial;
            scope.spawn(move || {
                for round in 0..3usize {
                    let lo = (t * n / 4).min(n - 2);
                    let hi = ((t + 2) * n / 4 + round).clamp(lo + 2, n);
                    let slice = &programs[lo..hi];
                    let jobs: Vec<(&Circuit, Pipeline)> = slice
                        .iter()
                        .flat_map(|c| pipelines.iter().map(move |&p| (c, p)))
                        .collect();
                    let outs = compiler.compile_batch(&jobs, 2);
                    for (k, out) in outs.iter().enumerate() {
                        let prog_idx = lo + k / pipelines.len();
                        let pipe_idx = k % pipelines.len();
                        let (ref_out, ref_m) = &serial[prog_idx * pipelines.len() + pipe_idx];
                        assert_eq!(
                            out, ref_out,
                            "thread {t} round {round}: job {k} diverged from serial"
                        );
                        assert_eq!(&metrics(out, &Coupling::xy(1.0)), ref_m);
                    }
                }
            });
        }
    });

    let s = compiler.cache_stats();
    assert!(s.programs.is_consistent(), "programs: {}", s.programs);
    assert!(s.synthesis.is_consistent(), "synthesis: {}", s.synthesis);
    // Overlapping suites guarantee real sharing: far more lookups than
    // distinct jobs, and a strictly positive hit count.
    let distinct_jobs = (programs.len() * pipelines.len()) as u64;
    assert!(
        s.programs.lookups() > distinct_jobs,
        "expected overlapping lookups: {} vs {distinct_jobs}",
        s.programs.lookups()
    );
    assert!(s.programs.hits > 0, "overlap produced no hits: {}", s.programs);
    // Every distinct job was computed at most once per (rare) concurrent
    // first-miss race; inserts can never exceed misses.
    assert!(s.programs.inserts <= s.programs.misses);
}
