//! Regenerates **Figure 14**: the ablation study — ReQISC-Full versus the
//! baseline "-SU(4)" variants (Qiskit-SU(4), TKet-SU(4), BQSKit-SU(4)) and
//! versus ReQISC-NC (no DAG compacting).
//!
//! Expected shape: ReQISC-Full ≥ every baseline variant on #2Q reduction;
//! BQSKit-SU(4) competitive on count but with exploding distinct-SU(4)
//! numbers; NC loses part of Full's reduction.

use reqisc_bench::{env_publish, env_segment, metric, overall_reduction, run_benchmarks_batch, Record};
use reqisc_benchsuite::mini_suite;
use reqisc_compiler::{distinct_su4_count, Compiler, Pipeline};

fn main() {
    let compiler = Compiler::new();
    let segment = env_segment(&compiler);
    let pipelines = [
        Pipeline::QiskitSu4,
        Pipeline::TketSu4,
        Pipeline::BqskitSu4,
        Pipeline::ReqiscNc,
        Pipeline::ReqiscFull,
    ];
    println!("program,n2q_orig,qiskit_su4,tket_su4,bqskit_su4,reqisc_nc,reqisc_full,distinct_bqskit,distinct_full");
    let programs = mini_suite();
    // One shared-cache batch; the per-program distinct-SU(4) recompiles
    // below then hit the program pool instead of recompiling.
    let records: Vec<Record> = run_benchmarks_batch(&compiler, &programs, &pipelines, 0);
    for (b, r) in programs.iter().zip(&records) {
        let bq = compiler.compile(&b.circuit, Pipeline::BqskitSu4);
        let full = compiler.compile(&b.circuit, Pipeline::ReqiscFull);
        println!(
            "{},{},{},{},{},{},{},{},{}",
            r.name,
            r.original.count_2q,
            r.compiled["qiskit-su4"].count_2q,
            r.compiled["tket-su4"].count_2q,
            r.compiled["bqskit-su4"].count_2q,
            r.compiled["reqisc-nc"].count_2q,
            r.compiled["reqisc-full"].count_2q,
            // Default grouping (SU4_CLASS_TOL = 1e-5): synthesis noise is
            // ~1e-6 in the coordinates — see the ROADMAP consumers note.
            distinct_su4_count(&bq),
            distinct_su4_count(&full),
        );
    }
    println!("# average #2Q reduction vs original (%):");
    for p in ["qiskit-su4", "tket-su4", "bqskit-su4", "reqisc-nc", "reqisc-full"] {
        println!("#   {p}: {:.2}", overall_reduction(&records, p, metric::count_2q));
    }
    env_publish(segment.as_ref(), &compiler);
}
