//! Measures the compilation service layer's speedups along all three
//! temperature tiers:
//!
//! * **serial cold** — the cache-bypassing reference path;
//! * **batch cold** — [`Compiler::compile_batch`] with a cold shared
//!   in-memory cache;
//! * **disk warm** — a *fresh* compiler warm-started from the shared
//!   segment file (what a new process / CI job pays);
//! * **memory warm** — a rerun of the same batch in the same process.
//!
//! Prints one CSV row of wall-clocks and ratios plus the cache and
//! segment counters.
//!
//! Environment knobs:
//!
//! * `REQISC_SCALE=paper` — Table-1-sized programs;
//! * `REQISC_BENCH_N=<k>` — cap the program count (default: whole suite);
//! * `REQISC_THREADS=<t>` — pin the worker count (default: hardware);
//! * `REQISC_SHM_PATH=<file>` — share the segment at `<file>` across
//!   processes (default: a private temp file, deleted at exit);
//! * `REQISC_SKIP_SERIAL=1` — skip the (slow) serial reference column;
//! * `REQISC_REQUIRE_DISK_WARM_X=<f>` — **assert** the segment already
//!   held entries from an earlier run and the disk-warm batch beat the
//!   cold batch by ≥ `f`×;
//! * `REQISC_REQUIRE_PROGRAM_HIT_PCT=<p>` — **assert** the disk-warm
//!   batch's program-pool hit rate is ≥ `p`% (CI runs the bench twice
//!   against one `REQISC_SHM_PATH` with both assertions on the second
//!   run, so a persistence regression fails loudly).

use reqisc_bench::{attach_segment, env};
use reqisc_benchsuite::{scale_from_env, suite, Benchmark};
use reqisc_compiler::{publish_all, seed_from_segment, Compiler, Pipeline};
use reqisc_qcircuit::Circuit;
use std::time::Instant;

fn main() {
    let cap = env::BENCH_N.usize_or(usize::MAX);
    let threads = env::THREADS.usize_or(0);
    let skip_serial = env::SKIP_SERIAL.flag();
    let require_disk_warm_x = env::REQUIRE_DISK_WARM_X.f64();
    let require_hit_pct = env::REQUIRE_PROGRAM_HIT_PCT.f64();
    let shared_path = env::SHM_PATH.path();
    let programs: Vec<Benchmark> = suite(scale_from_env())
        .into_iter()
        .filter(|b| b.circuit.lowered_to_cx().count_2q() <= 5000)
        .take(cap)
        .collect();
    let pipelines = [Pipeline::ReqiscEff, Pipeline::ReqiscFull];
    let jobs: Vec<(&Circuit, Pipeline)> = programs
        .iter()
        .flat_map(|b| pipelines.iter().map(move |&p| (&b.circuit, p)))
        .collect();
    eprintln!("{} programs × {} pipelines = {} jobs", programs.len(), pipelines.len(), jobs.len());

    // 1. Serial cold reference: no memoization at any level.
    let t_serial = if skip_serial {
        None
    } else {
        let serial = Compiler::new();
        let t0 = Instant::now();
        let serial_out: Vec<Circuit> =
            jobs.iter().map(|&(c, p)| serial.compile_uncached(c, p)).collect();
        let t = t0.elapsed().as_secs_f64();
        Some((t, serial_out))
    };

    // 2. Parallel batch, cold shared in-memory cache.
    let batch = Compiler::new();
    let t1 = Instant::now();
    let cold_out = batch.compile_batch(&jobs, threads);
    let t_cold = t1.elapsed().as_secs_f64();
    if let Some((_, serial_out)) = &t_serial {
        assert_eq!(serial_out, &cold_out, "batch diverged from the serial reference");
    }

    // 3. Persist, then disk-warm a *fresh* compiler from the segment
    // (what the next process pays). With REQISC_SHM_PATH the segment is
    // read before this process's results are published into it, so a
    // second run measures true cross-process warmth.
    let tmp_path = shared_path.is_none().then(|| {
        std::env::temp_dir().join(format!("reqisc-cachebench-{}.seg", std::process::id()))
    });
    let path = shared_path.clone().or_else(|| tmp_path.clone()).expect("some path");
    let segment = attach_segment(&path).expect("attach the segment");
    let warm = Compiler::new();
    // Cross-process mode: warm from whatever earlier runs left. The
    // *pre-existing* entries are what the CI assertion checks — they
    // prove a previous process's file really warmed this one.
    let preexisting = if shared_path.is_some() {
        let seeded = seed_from_segment(&segment, warm.cache());
        eprintln!("# segment: {} ({seeded} entries seeded)", path.display());
        seeded
    } else {
        0
    };
    if preexisting == 0 {
        // Nothing on file yet (first run, or a segment reinitialized
        // after a format change): publish this process's cold results
        // and seed from them, so the next phase measures genuine
        // disk-warmth instead of silently redoing a full cold batch.
        publish_all(&segment, batch.cache());
        let seeded = seed_from_segment(&segment, warm.cache());
        assert!(seeded > 0, "the self-published segment seeded nothing");
    }
    let t2 = Instant::now();
    let disk_out = warm.compile_batch(&jobs, threads);
    let t_disk = t2.elapsed().as_secs_f64();
    assert_eq!(cold_out, disk_out, "disk-warm batch diverged");
    let disk_programs = warm.cache_stats().programs;

    // 4. Memory-warm rerun in the same process.
    let t3 = Instant::now();
    let warm_out = warm.compile_batch(&jobs, threads);
    let t_warm = t3.elapsed().as_secs_f64();
    assert_eq!(cold_out, warm_out, "memory-warm rerun diverged");

    // 5. Publish this run's results back into the shared segment
    // (pointless for the private temp file, which is deleted right after).
    if shared_path.is_some() {
        publish_all(&segment, warm.cache());
    }
    let seg_stats = segment.stats();
    drop(segment);
    if let Some(tmp) = &tmp_path {
        let _ = std::fs::remove_file(tmp);
    }

    let fmt_opt = |v: Option<f64>| v.map(|t| format!("{t:.2}")).unwrap_or_else(|| "-".into());
    println!(
        "serial_cold_s,batch_cold_s,disk_warm_s,mem_warm_s,cold_speedup_x,disk_warm_speedup_x,mem_warm_speedup_x"
    );
    println!(
        "{},{t_cold:.2},{t_disk:.3},{t_warm:.3},{},{:.2},{:.1}",
        fmt_opt(t_serial.as_ref().map(|(t, _)| *t)),
        fmt_opt(t_serial.as_ref().map(|(t, _)| *t / t_cold)),
        t_cold / t_disk.max(1e-9),
        t_cold / t_warm.max(1e-9),
    );
    let s = warm.cache_stats();
    println!("# disk-warm programs: {}", s.programs);
    println!("# disk-warm synthesis: {}", s.synthesis);
    println!("# disk-warm total: {}", s.total());
    println!(
        "# segment: {} entries, {} of {} bytes used, generation {}, {} full rejects",
        seg_stats.entries,
        seg_stats.bytes_used,
        seg_stats.capacity,
        seg_stats.generation,
        seg_stats.full_rejects
    );
    println!("# cold-batch programs: {}", batch.cache_stats().programs);

    if let Some(factor) = require_disk_warm_x {
        assert!(
            preexisting > 0,
            "REQISC_REQUIRE_DISK_WARM_X set but the segment held nothing from an earlier run"
        );
        let speedup = t_cold / t_disk.max(1e-9);
        assert!(
            speedup >= factor,
            "disk-warm speedup {speedup:.2}x below required {factor}x (cold {t_cold:.2}s, disk-warm {t_disk:.3}s)"
        );
        eprintln!("# assertion passed: disk-warm speedup {speedup:.2}x >= {factor}x");
    }
    if let Some(pct) = require_hit_pct {
        let rate = 100.0 * disk_programs.hit_rate();
        assert!(
            disk_programs.lookups() > 0 && rate >= pct,
            "disk-warm program-pool hit rate {rate:.1}% below required {pct}% ({disk_programs})"
        );
        eprintln!("# assertion passed: program-pool hit rate {rate:.1}% >= {pct}%");
    }
}
