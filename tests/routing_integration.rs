//! Integration: topology-aware compilation — the full logical-compile →
//! route → verify flow on real benchmark programs across topologies and
//! routers.

use reqisc::benchsuite::mini_suite;
use reqisc::compiler::{
    expand_swaps_to_cx, route, routing_preserves_semantics, Compiler, Pipeline, Router, Topology,
};
use std::sync::OnceLock;

fn compiler() -> &'static Compiler {
    static C: OnceLock<Compiler> = OnceLock::new();
    C.get_or_init(Compiler::new)
}

#[test]
fn routed_programs_stay_correct_on_chain_and_grid() {
    for b in mini_suite() {
        let n = b.circuit.num_qubits();
        if n > 9 {
            continue;
        }
        let logical = compiler().compile(&b.circuit, Pipeline::ReqiscEff);
        for topo in [Topology::chain(n), Topology::grid_for(n)] {
            for router in [Router::Sabre, Router::MirroringSabre] {
                let r = route(&logical, &topo, router);
                assert!(
                    routing_preserves_semantics(&logical, &r, &topo),
                    "{} broke on {:?} ({} phys qubits)",
                    b.name,
                    router,
                    topo.len()
                );
            }
        }
    }
}

#[test]
fn mirroring_reduces_su4_routing_overhead_on_average() {
    let mut sabre_total = 0usize;
    let mut mirror_total = 0usize;
    for b in mini_suite() {
        let n = b.circuit.num_qubits();
        if n > 10 {
            continue;
        }
        let logical = compiler().compile(&b.circuit, Pipeline::ReqiscEff);
        let topo = Topology::chain(n);
        sabre_total += route(&logical, &topo, Router::Sabre).circuit.count_2q();
        mirror_total += route(&logical, &topo, Router::MirroringSabre).circuit.count_2q();
    }
    assert!(
        mirror_total <= sabre_total,
        "mirroring-SABRE worse in aggregate: {mirror_total} vs {sabre_total}"
    );
}

#[test]
fn cnot_flow_pays_more_routing_overhead_than_su4_flow() {
    // The Fig. 12 headline: SWAPs cost 3 CX on the CNOT ISA but at most
    // one (often zero) SU(4) on the SU(4) ISA.
    let mut cnot_overhead = 0.0;
    let mut su4_overhead = 0.0;
    let mut count = 0;
    for b in mini_suite() {
        let n = b.circuit.num_qubits();
        if n > 10 {
            continue;
        }
        let topo = Topology::chain(n);
        let cnot_logical = compiler().compile(&b.circuit, Pipeline::Tket);
        let su4_logical = compiler().compile(&b.circuit, Pipeline::ReqiscEff);
        if cnot_logical.count_2q() == 0 || su4_logical.count_2q() == 0 {
            continue;
        }
        let cnot_routed = expand_swaps_to_cx(&route(&cnot_logical, &topo, Router::Sabre).circuit);
        let su4_routed = route(&su4_logical, &topo, Router::MirroringSabre).circuit;
        cnot_overhead += cnot_routed.count_2q() as f64 / cnot_logical.count_2q() as f64;
        su4_overhead += su4_routed.count_2q() as f64 / su4_logical.count_2q() as f64;
        count += 1;
    }
    assert!(count >= 10, "not enough programs");
    assert!(
        su4_overhead < cnot_overhead,
        "SU(4) routing overhead {su4_overhead} not below CNOT {cnot_overhead}"
    );
}
