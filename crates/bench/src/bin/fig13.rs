//! Regenerates **Figure 13**: calibration efficiency — the number of
//! *distinct* SU(4) instructions in ReQISC-Eff vs ReQISC-Full circuits,
//! with the #2Q-reduction trade-off each pays for.
//!
//! Expected shape: Eff stays below ~10 distinct SU(4)s; Full stays bounded
//! (≲ 200) with most programs below ~20.
//!
//! The whole suite is compiled in one [`Compiler::compile_batch`] fan-out
//! sharing the compilation cache; repeated Toffoli/adder blocks across
//! programs synthesize once, even when two workers reach one at the same
//! time. Final cache counters print as comments, and every cold run (no
//! `REQISC_SHM_PATH`) prints the same ones: only the wall-clock line
//! varies.

use reqisc_bench::{env_publish, env_segment};
use reqisc_benchsuite::{scale_from_env, suite, Benchmark};
use reqisc_compiler::{distinct_su4_count, Compiler, Pipeline};
use reqisc_qcircuit::Circuit;
use std::time::Instant;

fn main() {
    let compiler = Compiler::new();
    let segment = env_segment(&compiler);
    println!("program,n2q_original,distinct_eff,n2q_eff,distinct_full,n2q_full");
    // The paper caps this figure at #2Q ≤ 5000.
    let programs: Vec<Benchmark> = suite(scale_from_env())
        .into_iter()
        .filter(|b| b.circuit.lowered_to_cx().count_2q() <= 5000)
        .collect();
    let pipelines = [Pipeline::ReqiscEff, Pipeline::ReqiscFull];
    let jobs: Vec<(&Circuit, Pipeline)> = programs
        .iter()
        .flat_map(|b| pipelines.iter().map(move |&p| (&b.circuit, p)))
        .collect();
    let t0 = Instant::now();
    let outs = compiler.compile_batch(&jobs, 0);
    let wall = t0.elapsed();
    let mut eff_counts = Vec::new();
    let mut full_counts = Vec::new();
    for (i, b) in programs.iter().enumerate() {
        let orig = b.circuit.lowered_to_cx().count_2q();
        let eff = &outs[pipelines.len() * i];
        let full = &outs[pipelines.len() * i + 1];
        // The default grouping is SU4_CLASS_TOL = 1e-5: the synthesis
        // sweep leaves ~1e-6 coordinate noise, so a tighter tolerance
        // over-splits identical instructions.
        let de = distinct_su4_count(eff);
        let df = distinct_su4_count(full);
        eff_counts.push(de);
        full_counts.push(df);
        println!(
            "{},{},{},{},{},{}",
            b.name,
            orig,
            de,
            eff.count_2q(),
            df,
            full.count_2q()
        );
    }
    let dist = |v: &[usize]| -> (usize, usize, f64) {
        let max = v.iter().copied().max().unwrap_or(0);
        let under20 = v.iter().filter(|&&x| x < 20).count();
        (max, under20, under20 as f64 / v.len().max(1) as f64)
    };
    let (emax, _eu, efrac) = dist(&eff_counts);
    let (fmax, _fu, ffrac) = dist(&full_counts);
    println!("# eff: max distinct {emax}, fraction under 20 = {efrac:.2}");
    println!("# full: max distinct {fmax}, fraction under 20 = {ffrac:.2}");
    println!("# batch wall-clock: {:.2}s over {} jobs", wall.as_secs_f64(), jobs.len());
    let s = compiler.cache_stats();
    println!("# cache programs: {}", s.programs);
    println!("# cache synthesis: {}", s.synthesis);
    env_publish(segment.as_ref(), &compiler);
}
