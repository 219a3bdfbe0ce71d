#![warn(missing_docs)]
//! # reqisc-bench
//!
//! The benchmark harness: every table and figure of the paper's evaluation
//! (§6) has one binary here that regenerates its rows/series (see
//! DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured).
//!
//! Binaries: `table1`, `table2`, `table3`, `fig4`, `fig6`, `fig12`,
//! `fig13`, `fig14`, `fig15`, `fig16`. All print CSV-ish text to stdout.
//! Set `REQISC_SCALE=paper` for Table-1-sized inputs (slow).

use reqisc_benchsuite::{Benchmark, Category};
use reqisc_compiler::{metrics, CacheStore, Compiler, LoadOutcome, Metrics, Pipeline};
use reqisc_microarch::Coupling;
use reqisc_qcircuit::Circuit;
use std::collections::BTreeMap;

/// The `REQISC_*` environment knobs shared by every bench binary. Each
/// knob is declared exactly once in the [`reqisc_env`] registry (with its
/// doc line — enforced by the `reqisc-lint` `env-registry` rule); this
/// module re-exports the ones the bench binaries read plus the cache-dir
/// convenience that delegates to the service's exact semantics.
pub mod env {
    pub use reqisc_env::{
        BENCH_N, CACHE_DIR, HAAR_SAMPLES, REQUIRE_DEGENERATE_BUDGET, REQUIRE_DISK_WARM_X,
        REQUIRE_GENERIC_BUDGET, REQUIRE_PROGRAM_HIT_PCT, REQUIRE_SLIVER_BUDGET,
        REQUIRE_ZERO_REJECT_EVALS, SCALE, SKIP_SERIAL, THREADS, TRIALS,
    };

    /// Reads the cache-dir knob with the service's exact semantics
    /// (unset or empty = no persistent store).
    pub fn env_cache_dir() -> Option<std::path::PathBuf> {
        reqisc_service::cache_dir_from_env()
    }
}

pub use env::env_cache_dir;

/// Opens the persistent compile store named by `REQISC_CACHE_DIR` (if
/// set) and warm-starts `compiler` from it. Every bench binary calls this
/// right after building its compiler: with the env var set, a rerun —
/// or a different figure sharing the directory — skips everything an
/// earlier process already compiled. Returns the store handle so the
/// binary can [`env_cache_save`] its own results back at exit; `None`
/// when the env var is unset (purely in-memory run, the default).
pub fn env_cache_store(compiler: &Compiler) -> Option<CacheStore> {
    let store = CacheStore::new(env_cache_dir()?);
    match store.load_into(compiler.cache()) {
        LoadOutcome::Missing => eprintln!("# cache store: {} (empty, cold start)", store.path().display()),
        LoadOutcome::Loaded { programs, synthesis, pulses } => eprintln!(
            "# cache store: {} ({programs} programs, {synthesis} synthesis, {pulses} pulses loaded)",
            store.path().display()
        ),
        LoadOutcome::Rejected { reason } => {
            eprintln!("# cache store: {} REJECTED ({reason}), cold start", store.path().display())
        }
    }
    Some(store)
}

/// Persists `compiler`'s pools back to the store opened by
/// [`env_cache_store`] (no-op when the env var was unset). Save failures
/// are reported, not fatal — a read-only cache dir must never fail a
/// figure run.
pub fn env_cache_save(store: Option<&CacheStore>, compiler: &Compiler) {
    if let Some(store) = store {
        match store.save(compiler.cache()) {
            Ok(n) => eprintln!("# cache store: saved {n} entries to {}", store.path().display()),
            Err(e) => eprintln!("# cache store: save failed ({e})"),
        }
    }
}

/// Percentage reduction of `new` relative to `base` (positive = better).
pub fn reduction_pct(base: f64, new: f64) -> f64 {
    if base <= 0.0 {
        0.0
    } else {
        (1.0 - new / base) * 100.0
    }
}

/// Geometric mean of positive values.
pub fn geo_mean(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    (vals.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / vals.len() as f64).exp()
}

/// Per-benchmark compilation record.
pub struct Record {
    /// Program name.
    pub name: String,
    /// Category.
    pub category: Category,
    /// Metrics of the original CNOT-level circuit.
    pub original: Metrics,
    /// Metrics per pipeline.
    pub compiled: BTreeMap<&'static str, Metrics>,
}

/// Compiles one benchmark through the given pipelines and collects the
/// §6.1.1 metrics (durations under XY coupling, CNOT baseline π/√2·g⁻¹).
pub fn run_benchmark(compiler: &Compiler, b: &Benchmark, pipelines: &[Pipeline]) -> Record {
    let cp = Coupling::xy(1.0);
    let original = metrics(&b.circuit.lowered_to_cx(), &cp);
    let mut compiled = BTreeMap::new();
    for &p in pipelines {
        let out = compiler.compile(&b.circuit, p);
        compiled.insert(p.name(), metrics(&out, &cp));
    }
    Record { name: b.name.clone(), category: b.category, original, compiled }
}

/// Batch counterpart of [`run_benchmark`]: fans every `benchmark ×
/// pipeline` job out over [`Compiler::compile_batch`] workers sharing the
/// compiler's cache, then collects the same per-benchmark [`Record`]s.
/// `threads = 0` uses the available hardware parallelism. Metrics are
/// identical to the serial path (pipelines are deterministic).
pub fn run_benchmarks_batch(
    compiler: &Compiler,
    benchmarks: &[Benchmark],
    pipelines: &[Pipeline],
    threads: usize,
) -> Vec<Record> {
    let cp = Coupling::xy(1.0);
    let jobs: Vec<(&Circuit, Pipeline)> = benchmarks
        .iter()
        .flat_map(|b| pipelines.iter().map(move |&p| (&b.circuit, p)))
        .collect();
    let outs = compiler.compile_batch(&jobs, threads);
    benchmarks
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let original = metrics(&b.circuit.lowered_to_cx(), &cp);
            let mut compiled = BTreeMap::new();
            for (j, &p) in pipelines.iter().enumerate() {
                compiled.insert(p.name(), metrics(&outs[i * pipelines.len() + j], &cp));
            }
            Record { name: b.name.clone(), category: b.category, original, compiled }
        })
        .collect()
}

/// Averages reduction rates per category for one metric.
pub fn category_reductions(
    records: &[Record],
    pipeline: &'static str,
    metric: fn(&Metrics) -> f64,
) -> BTreeMap<Category, f64> {
    let mut acc: BTreeMap<Category, (f64, usize)> = BTreeMap::new();
    for r in records {
        if let Some(m) = r.compiled.get(pipeline) {
            let red = reduction_pct(metric(&r.original), metric(m));
            let e = acc.entry(r.category).or_insert((0.0, 0));
            e.0 += red;
            e.1 += 1;
        }
    }
    acc.into_iter().map(|(c, (s, n))| (c, s / n as f64)).collect()
}

/// Overall (all-program) average reduction for one metric.
pub fn overall_reduction(
    records: &[Record],
    pipeline: &'static str,
    metric: fn(&Metrics) -> f64,
) -> f64 {
    let vals: Vec<f64> = records
        .iter()
        .filter_map(|r| {
            r.compiled
                .get(pipeline)
                .map(|m| reduction_pct(metric(&r.original), metric(m)))
        })
        .collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// Metric accessors for [`category_reductions`].
pub mod metric {
    use reqisc_compiler::Metrics;

    /// #2Q as f64.
    pub fn count_2q(m: &Metrics) -> f64 {
        m.count_2q as f64
    }

    /// Depth2Q as f64.
    pub fn depth_2q(m: &Metrics) -> f64 {
        m.depth_2q as f64
    }

    /// Pulse duration.
    pub fn duration(m: &Metrics) -> f64 {
        m.duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_math() {
        assert!((reduction_pct(100.0, 50.0) - 50.0).abs() < 1e-12);
        assert_eq!(reduction_pct(0.0, 10.0), 0.0);
        assert!((reduction_pct(10.0, 12.0) + 20.0).abs() < 1e-12);
    }

    #[test]
    fn geo_mean_basics() {
        assert!((geo_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geo_mean(&[]), 0.0);
    }

    #[test]
    fn batch_records_match_serial() {
        let compiler = Compiler::new();
        let bs: Vec<Benchmark> = reqisc_benchsuite::mini_suite().into_iter().take(2).collect();
        let ps = [Pipeline::Qiskit, Pipeline::ReqiscEff];
        let batch = run_benchmarks_batch(&compiler, &bs, &ps, 0);
        assert_eq!(batch.len(), bs.len());
        for (r, b) in batch.iter().zip(&bs) {
            let serial = run_benchmark(&compiler, b, &ps);
            assert_eq!(r.name, serial.name);
            assert_eq!(r.compiled, serial.compiled, "{}: batch metrics diverged", r.name);
        }
    }

    #[test]
    fn run_one_benchmark_end_to_end() {
        let compiler = Compiler::new();
        let b = reqisc_benchsuite::mini_suite().remove(0);
        let r = run_benchmark(&compiler, &b, &[Pipeline::Qiskit, Pipeline::ReqiscEff]);
        assert!(r.original.count_2q > 0);
        let eff = r.compiled["reqisc-eff"];
        let qk = r.compiled["qiskit"];
        assert!(eff.count_2q <= r.original.count_2q);
        assert!(qk.count_2q <= r.original.count_2q);
    }
}
