//! End-to-end: a Cuccaro ripple-carry adder compiled with template-based
//! synthesis, routed onto a 1D chain with mirroring-SABRE, and validated
//! by noisy simulation (the paper's Fig. 15 flow on one real workload).
//!
//! ```sh
//! cargo run --release --example adder_on_chain
//! ```

use reqisc::benchsuite::generators::ripple_add;
use reqisc::compiler::{
    expand_swaps_to_cx, gate_duration, metrics, route, Compiler, Pipeline, Router, Topology,
};
use reqisc::microarch::Coupling;
use reqisc::qsim::{hellinger_fidelity, ideal_distribution, noisy_distribution, NoiseModel};

fn main() {
    let adder = ripple_add(2); // 2-bit adder on 6 qubits
    let compiler = Compiler::new();
    let cp = Coupling::xy(1.0);
    let topo = Topology::chain(adder.num_qubits());

    // Conventional flow: TKet-like + SABRE, SWAP = 3 CNOTs.
    let base = compiler.compile(&adder, Pipeline::Tket);
    let base_routed = expand_swaps_to_cx(&route(&base, &topo, Router::Sabre).circuit);

    // ReQISC flow: template synthesis + mirroring-SABRE.
    let req = compiler.compile(&adder, Pipeline::ReqiscEff);
    let req_routed = route(&req, &topo, Router::MirroringSabre);
    println!(
        "routing: {} swaps inserted, {} absorbed into SU(4)s",
        req_routed.swaps_inserted, req_routed.swaps_absorbed
    );
    let req_routed = req_routed.circuit;

    for (label, c) in [("cnot-baseline", &base_routed), ("reqisc", &req_routed)] {
        let m = metrics(c, &cp);
        let noise = NoiseModel::duration_scaled(|g| gate_duration(g, &cp));
        let noisy = noisy_distribution(c, &noise, 150, 7);
        let f = hellinger_fidelity(&noisy, &ideal_distribution(c));
        println!(
            "{label:<14} #2Q = {:>3}  duration = {:>7.2} g^-1  fidelity = {:.4}",
            m.count_2q, m.duration, f
        );
    }
}
