//! Concurrency stress: N threads hammer `compile_batch` on overlapping
//! suites through one shared cache, and every result must be identical
//! to the serial reference while the cache counters stay exact: every
//! distinct program job and every distinct block is computed once.

use reqisc::benchsuite::mini_suite_capped;
use reqisc::compiler::{metrics, Compiler, Metrics, Pipeline};
use reqisc::microarch::Coupling;
use reqisc::qcircuit::Circuit;
use std::collections::HashSet;

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
    // shared instance starts stone cold for the stress phase. Its cached
    // compiles count the distinct blocks the suite synthesizes.
    let mut reference = Compiler::new();
    reference.hs.search.sweep.restarts = 2;
    reference.hs.search.sweep.max_sweeps = 150;
    let serial: Vec<(Circuit, Metrics)> = programs
        .iter()
        .flat_map(|c| pipelines.iter().map(move |&p| (c, p)))
        .map(|(c, p)| {
            let out = reference.compile_uncached(c, p);
            assert_eq!(reference.compile(c, p), out, "cached serial diverged from uncached");
            let m = metrics(&out, &Coupling::xy(1.0));
            (out, m)
        })
        .collect();

    // Stress: 4 hammer threads, each running 3 batches over overlapping
    // slices of the suite (every slice shares programs with its
    // neighbours), all against one shared compiler/cache. Inner batches
    // add their own workers on top.
    let n = programs.len();
    let slice = |t: usize, round: usize| {
        let lo = (t * n / 4).min(n - 2);
        (lo, ((t + 2) * n / 4 + round).clamp(lo + 2, n))
    };
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let compiler = &compiler;
            let programs = &programs;
            let pipelines = &pipelines;
            let serial = &serial;
            scope.spawn(move || {
                for round in 0..3usize {
                    let (lo, hi) = slice(t, round);
                    let jobs: Vec<(&Circuit, Pipeline)> = programs[lo..hi]
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

    // The slices cover the whole suite, so the stress touched every
    // program the reference compiled.
    let slices: Vec<(usize, usize)> =
        (0..4).flat_map(|t| (0..3).map(move |r| slice(t, r))).collect();
    let touched: HashSet<usize> = slices.iter().flat_map(|&(lo, hi)| lo..hi).collect();
    assert_eq!(touched.len(), n);
    let distinct_jobs = programs
        .iter()
        .flat_map(|c| pipelines.iter().map(move |&p| (c.content_hash(), p)))
        .collect::<HashSet<_>>()
        .len() as u64;
    let distinct_blocks = reference.cache_stats().synthesis.misses;
    let s = compiler.cache_stats();
    // Every distinct job compiled once and every distinct block
    // synthesized once, however the threads raced for them.
    assert_eq!((s.programs.misses, s.programs.inserts), (distinct_jobs, distinct_jobs), "{s}");
    assert_eq!((s.synthesis.misses, s.synthesis.inserts), (distinct_blocks, distinct_blocks), "{s}");
    assert!(distinct_blocks > 0, "the suite synthesizes blocks: {s}");
    // Overlapping suites guarantee real sharing: every lookup past the
    // first of each job is a hit.
    let lookups: u64 = slices.iter().map(|&(lo, hi)| ((hi - lo) * pipelines.len()) as u64).sum();
    assert_eq!(s.programs.lookups(), lookups, "{s}");
    assert_eq!(s.programs.hits, lookups - distinct_jobs, "{s}");
}
