//! Integration: QASM-lite serialization round-trips compiled output, so
//! bench artifacts can be stored and re-loaded.

use reqisc::benchsuite::{mini_suite, suite, Scale};
use reqisc::compiler::{Compiler, Pipeline};
use reqisc::qcircuit::{emit, parse, parse_bounded, ParseLimits};
use reqisc::qsim::{circuit_unitary, process_infidelity};

#[test]
fn compiled_su4_circuits_roundtrip_through_qasm_lite() {
    let compiler = Compiler::new();
    for b in mini_suite().into_iter().take(6) {
        if b.circuit.num_qubits() > 8 {
            continue;
        }
        let out = compiler.compile(&b.circuit, Pipeline::ReqiscEff);
        let text = emit(&out);
        let back = parse(&text).unwrap_or_else(|e| panic!("{}: parse failed: {e}", b.name));
        let inf = process_infidelity(&circuit_unitary(&out), &circuit_unitary(&back));
        assert!(inf < 1e-10, "{}: roundtrip infidelity {inf}", b.name);
    }
}

/// Every suite program round-trips, and parses back within the compile
/// service's bounds: all 132 at demo scale, and the 125 of at most 16
/// qubits at paper scale (the other 7 are wider than the bound admits).
#[test]
fn high_level_programs_roundtrip_too() {
    let limits = ParseLimits::default();
    let demo = suite(Scale::Demo);
    let paper: Vec<_> = suite(Scale::Paper)
        .into_iter()
        .filter(|b| b.circuit.num_qubits() <= limits.max_qubits)
        .collect();
    assert_eq!((demo.len(), paper.len()), (132, 125));
    for b in demo.iter().chain(&paper) {
        let text = emit(&b.circuit);
        let back = parse(&text).unwrap_or_else(|e| panic!("{}: parse failed: {e}", b.name));
        assert_eq!(back.len(), b.circuit.len(), "{}", b.name);
        assert_eq!(back.num_qubits(), b.circuit.num_qubits());
        let bounded = parse_bounded(&text, &limits)
            .unwrap_or_else(|e| panic!("{}: outside the service's bounds: {e}", b.name));
        assert_eq!(bounded.len(), b.circuit.len(), "{}", b.name);
    }
}
