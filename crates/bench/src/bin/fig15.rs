//! Regenerates **Figure 15**: program fidelity (Hellinger) and pulse
//! duration through noisy simulation, comparing ReQISC against the SOTA
//! CNOT-based workflow (TKet + SABRE), at the logical level and mapped to
//! a 2D grid and a 1D chain.
//!
//! Noise model (§6.7): two-qubit depolarizing channel with rate scaled by
//! pulse duration, p = p0·τ/τ0, τ0 = π/√2·g⁻¹, p0 = 0.001.
//!
//! Expected shape: ReQISC higher fidelity and shorter duration everywhere,
//! with the gap widening under topology constraints.

use reqisc_benchsuite::{mini_suite, Benchmark};
use reqisc_compiler::{
    expand_swaps_to_cx, gate_duration, metrics, route, Compiler, Pipeline, Router, Topology,
};
use reqisc_microarch::Coupling;
use reqisc_qcircuit::Circuit;
use reqisc_qsim::{hellinger_fidelity, ideal_distribution, noisy_distribution, NoiseModel};

fn fidelity_of(c: &Circuit, cp: &Coupling, trials: usize) -> f64 {
    let noise = NoiseModel::duration_scaled(|g| gate_duration(g, cp));
    let noisy = noisy_distribution(c, &noise, trials, 42);
    let ideal = ideal_distribution(c);
    hellinger_fidelity(&noisy, &ideal)
}

fn main() {
    let compiler = Compiler::new();
    let cp = Coupling::xy(1.0);
    let trials = reqisc_bench::env::TRIALS.usize_or(120);
    // Representative programs small enough for dense noisy simulation.
    let programs: Vec<Benchmark> = mini_suite()
        .into_iter()
        .filter(|b| b.circuit.num_qubits() <= 7 && b.circuit.lowered_to_cx().count_2q() <= 220)
        .collect();
    println!("program,level,f_baseline,f_reqisc,t_baseline,t_reqisc");
    for b in &programs {
        let base_logical = compiler.compile(&b.circuit, Pipeline::Tket);
        let req_logical = compiler.compile(&b.circuit, Pipeline::ReqiscEff);
        for level in ["logical", "grid", "chain"] {
            let (bc, rc) = match level {
                "logical" => (base_logical.clone(), req_logical.clone()),
                _ => {
                    let n = b.circuit.num_qubits();
                    let topo = if level == "chain" {
                        Topology::chain(n)
                    } else {
                        Topology::grid_for(n)
                    };
                    let rb = route(&base_logical, &topo, Router::Sabre);
                    let rr = route(&req_logical, &topo, Router::MirroringSabre);
                    (expand_swaps_to_cx(&rb.circuit), rr.circuit)
                }
            };
            if bc.num_qubits() > 10 {
                continue;
            }
            let fb = fidelity_of(&bc, &cp, trials);
            let fr = fidelity_of(&rc, &cp, trials);
            let tb = metrics(&bc, &cp).duration;
            let tr = metrics(&rc, &cp).duration;
            println!("{},{level},{fb:.4},{fr:.4},{tb:.1},{tr:.1}", b.name);
        }
        eprintln!("done {}", b.name);
    }
}
