//! Regenerates **Figure 12**: topology-aware benchmarking on a 1D chain
//! and a 2D grid.
//!
//! For each medium benchmark: the CNOT baseline (TKet-like logical, then
//! SABRE with SWAP = 3 CX) versus the ReQISC flow (ReQISC-Full logical,
//! then SABRE or mirroring-SABRE where a SWAP fuses into a preceding
//! SU(4)). Prints #2Q per stage and the routing-overhead multiples; the
//! geometric means reproduce the dashed lines of the figure.

use reqisc_bench::{env_publish, env_segment, geo_mean};
use reqisc_benchsuite::{mini_suite, Benchmark};
use reqisc_compiler::{expand_swaps_to_cx, route, Compiler, Pipeline, Router, Topology};

fn topo_for(kind: &str, n: usize) -> Topology {
    match kind {
        "chain" => Topology::chain(n),
        _ => Topology::grid_for(n),
    }
}

fn main() {
    let compiler = Compiler::new();
    let segment = env_segment(&compiler);
    let programs: Vec<Benchmark> = mini_suite();
    // Warm the program pool for both logical pipelines in one parallel
    // batch; the per-topology loops below then compile from cache.
    let jobs: Vec<_> = programs
        .iter()
        .flat_map(|b| [(&b.circuit, Pipeline::Tket), (&b.circuit, Pipeline::ReqiscFull)])
        .collect();
    compiler.compile_batch(&jobs, 0);
    for kind in ["chain", "grid"] {
        println!("## topology: {kind}");
        println!(
            "program,cnot_logical,cnot_sabre,su4_logical,su4_sabre,su4_mirroring,\
             cnot_overhead_x,su4_overhead_x,mirroring_gain_pct"
        );
        let mut cnot_over = Vec::new();
        let mut su4_over = Vec::new();
        for b in &programs {
            let n = b.circuit.num_qubits();
            let topo = topo_for(kind, n);
            // CNOT baseline: TKet-like logical then SABRE (SWAP = 3 CX).
            let cnot_logical = compiler.compile(&b.circuit, Pipeline::Tket);
            let routed_cnot = route(&cnot_logical, &topo, Router::Sabre);
            let cnot_routed = expand_swaps_to_cx(&routed_cnot.circuit).count_2q();
            // ReQISC flow.
            let su4_logical = compiler.compile(&b.circuit, Pipeline::ReqiscFull);
            let routed_sabre = route(&su4_logical, &topo, Router::Sabre);
            let su4_sabre = routed_sabre.circuit.count_2q();
            let routed_mirror = route(&su4_logical, &topo, Router::MirroringSabre);
            let su4_mirror = routed_mirror.circuit.count_2q();
            let lc = cnot_logical.count_2q().max(1) as f64;
            let ls = su4_logical.count_2q().max(1) as f64;
            let co = cnot_routed as f64 / lc;
            let so = su4_mirror as f64 / ls;
            cnot_over.push(co);
            su4_over.push(so);
            let gain = if su4_sabre > 0 {
                100.0 * (su4_sabre as f64 - su4_mirror as f64) / su4_sabre as f64
            } else {
                0.0
            };
            println!(
                "{},{},{},{},{},{},{:.2},{:.2},{:.1}",
                b.name,
                cnot_logical.count_2q(),
                cnot_routed,
                su4_logical.count_2q(),
                su4_sabre,
                su4_mirror,
                co,
                so,
                gain
            );
        }
        println!(
            "# geomean routing overhead: cnot {:.2}x, su4 {:.2}x",
            geo_mean(&cnot_over),
            geo_mean(&su4_over)
        );
        println!();
    }
    env_publish(segment.as_ref(), &compiler);
}
