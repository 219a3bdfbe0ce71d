//! Regenerates **Table 2**: logical-level compilation comparison — average
//! per-category reduction of #2Q, Depth2Q and pulse duration versus the
//! original CNOT-level program, for the Qiskit/TKet baselines and
//! ReQISC-Eff / ReQISC-Full. Durations use the XY-coupled Hamiltonian with
//! baseline CNOT duration π/√2·g⁻¹.
//!
//! The paper's BQSKit baseline corresponds to our `bqskit-su4` variant and
//! appears in the `fig14` ablation; here we print the four headline
//! columns. Expected shape: ReQISC-Eff/Full dominate everywhere, Full ≥
//! Eff, overall duration reduction ≈ 60–75%.

use reqisc_bench::{
    category_reductions, env_publish, env_segment, metric, overall_reduction,
    run_benchmarks_batch, Record,
};
use reqisc_benchsuite::{scale_from_env, suite, ALL_CATEGORIES};
use reqisc_compiler::{Compiler, Pipeline};

fn main() {
    let scale = scale_from_env();
    let compiler = Compiler::new();
    let segment = env_segment(&compiler);
    let pipelines = [
        Pipeline::Qiskit,
        Pipeline::Tket,
        Pipeline::ReqiscEff,
        Pipeline::ReqiscFull,
    ];
    // One shared-cache batch over the whole suite × pipeline product.
    let programs = suite(scale);
    let records: Vec<Record> = run_benchmarks_batch(&compiler, &programs, &pipelines, 0);
    eprintln!("compiled {} programs; cache:\n{}", records.len(), compiler.cache_stats());
    let cols: [(&str, &'static str); 4] = [
        ("qiskit", "qiskit"),
        ("tket", "tket"),
        ("eff", "reqisc-eff"),
        ("full", "reqisc-full"),
    ];
    for (title, m) in [
        ("reduction_2q_pct", metric::count_2q as fn(&reqisc_compiler::Metrics) -> f64),
        ("reduction_depth2q_pct", metric::depth_2q),
        ("reduction_duration_pct", metric::duration),
    ] {
        println!("## {title}");
        print!("category");
        for (label, _) in cols {
            print!(",{label}");
        }
        println!();
        for cat in ALL_CATEGORIES {
            print!("{}", cat.name());
            for (_, p) in cols {
                let red = category_reductions(&records, p, m);
                print!(",{:.2}", red.get(&cat).copied().unwrap_or(0.0));
            }
            println!();
        }
        print!("overall");
        for (_, p) in cols {
            print!(",{:.2}", overall_reduction(&records, p, m));
        }
        println!();
        println!();
    }
    env_publish(segment.as_ref(), &compiler);
}
