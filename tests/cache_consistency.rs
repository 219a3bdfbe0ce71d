//! Property tests (vendored proptest): the compilation cache is
//! *semantically invisible* — a cache-hit `compile` returns a circuit
//! unitarily equivalent to (in fact bit-identical with) a cold-cache
//! `compile`, across random circuits and every pipeline.

use proptest::prelude::*;
use reqisc::benchsuite::generators;
use reqisc::compiler::{Compiler, Pipeline};
use reqisc::qcircuit::Circuit;
use reqisc::qsim::{circuit_unitary, process_infidelity};
use std::sync::OnceLock;

/// Shared compiler with a reduced (but still exact-threshold) search
/// budget; sharing it across cases is the point — later cases hit
/// entries earlier cases populated, exercising the warm path under many
/// distinct programs.
fn compiler() -> &'static Compiler {
    static C: OnceLock<Compiler> = OnceLock::new();
    C.get_or_init(|| {
        let mut c = Compiler::new();
        c.hs.search.sweep.restarts = 2;
        c.hs.search.sweep.max_sweeps = 150;
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Warm (cache-hit) compiles agree bit-for-bit with the memoized
    /// result and unitarily with an uncached cold compile and with the
    /// source program.
    #[test]
    fn cache_hit_equals_cold_compile(seed in 0u64..1_000_000, pick in 0usize..Pipeline::ALL.len(), n in 3usize..5, gates in 4usize..9) {
        let c = generators::reversible_network(n, gates, seed);
        let p = Pipeline::ALL[pick];
        let cold = compiler().compile_uncached(&c, p);
        let first = compiler().compile(&c, p);   // fills (or hits) the program pool
        let warm = compiler().compile(&c, p);    // guaranteed hit
        prop_assert_eq!(&first, &warm, "cache hit diverged from its own memoized result");
        let u_cold = circuit_unitary(&cold);
        let inf_cold = process_infidelity(&u_cold, &circuit_unitary(&warm));
        prop_assert!(inf_cold < 1e-9, "warm vs cold infidelity {} (pipeline {})", inf_cold, p.name());
        let inf_src = process_infidelity(&circuit_unitary(&c.lowered_to_cx()), &u_cold);
        prop_assert!(inf_src < 1e-6, "compiled program not equivalent: {} ({})", inf_src, p.name());
    }

    /// The block-synthesis pool is shared across *different* programs:
    /// compiling a program and a gate-level superset never corrupts
    /// either result.
    #[test]
    fn shared_block_pool_is_safe_across_programs(seed in 0u64..1_000_000, gates in 5usize..9) {
        let base = generators::reversible_network(3, gates, seed);
        let mut extended = base.clone();
        extended.extend(&generators::reversible_network(3, 3, seed ^ 0xABCD));
        for c in [&base, &extended] {
            let out = compiler().compile(c, Pipeline::ReqiscFull);
            let inf = process_infidelity(
                &circuit_unitary(&c.lowered_to_cx()),
                &circuit_unitary(&out),
            );
            prop_assert!(inf < 1e-6, "infidelity {}", inf);
        }
    }
}

/// The counters are exact, not merely consistent: a 2-thread batch that
/// compiles each of three programs twice, on a compiler of its own,
/// counts one miss and one insert per distinct program and per distinct
/// block, and ends with the same counters as a serial run of the same
/// jobs.
#[test]
fn cache_counters_stay_consistent() {
    let fresh = || {
        let mut c = Compiler::new_with_library(compiler().library.clone());
        c.hs = compiler().hs.clone();
        // One block thread, as each job of a 2-thread batch of 6 gets.
        c.block_threads = 1;
        c
    };
    let programs: Vec<Circuit> =
        (0..3).map(|seed| generators::reversible_network(3, 6, 42 + seed)).collect();
    let jobs: Vec<(&Circuit, Pipeline)> =
        programs.iter().flat_map(|c| [(c, Pipeline::ReqiscFull); 2]).collect();
    let (batch, serial) = (fresh(), fresh());
    let outs = batch.compile_batch(&jobs, 2);
    for (&(c, p), out) in jobs.iter().zip(&outs) {
        assert_eq!(&serial.compile(c, p), out);
    }
    let s = batch.cache_stats();
    assert_eq!(s, serial.cache_stats(), "the batch's counters equal the serial run's");
    assert_eq!((s.programs.hits, s.programs.misses, s.programs.inserts), (3, 3, 3), "{s}");
    assert_eq!(s.synthesis.misses, s.synthesis.inserts, "{s}");
    assert!(s.synthesis.misses > 0, "the programs synthesize blocks: {s}");
}
