//! Integration: compiled SU(4) circuits are *executable* — every distinct
//! SU(4) instruction a program needs has a verified genAshN pulse program
//! on representative hardware couplings (the full Fig. 2 workflow).
//!
//! Gates whose Weyl coordinates agree within `SU4_CLASS_TOL` are the same
//! instruction under the paper's calibration model (§5.3.1), so each test
//! keeps a class list grouped at that tolerance and solves every class
//! once per coupling, which is also what keeps this suite fast.

use reqisc::benchsuite::mini_suite;
use reqisc::compiler::{Compiler, Pipeline};
use reqisc::microarch::{realize_gate, solve_with_mirroring, Coupling, DEFAULT_MIRROR_THRESHOLD};
use reqisc::qcircuit::Gate;
use reqisc::qmath::{weyl_coords, WeylCoord, SU4_CLASS_TOL};

/// Distinct SU(4) classes at `SU4_CLASS_TOL`, in first-seen order.
#[derive(Default)]
struct Classes(Vec<WeylCoord>);

impl Classes {
    /// Records `w`; true when it is a new class.
    fn insert(&mut self, w: WeylCoord) -> bool {
        if self.0.iter().any(|k| k.approx_eq(&w, SU4_CLASS_TOL)) {
            return false;
        }
        self.0.push(w);
        true
    }
}

#[test]
fn compiled_programs_are_pulse_realizable() {
    let compiler = Compiler::new();
    let cps = [Coupling::xy(1.0), Coupling::xx(1.0)];
    let mut solved = Classes::default();
    let mut shared = 0;
    // A few representative programs keep runtime bounded.
    for b in mini_suite().into_iter().take(5) {
        let out = compiler.compile(&b.circuit, Pipeline::ReqiscEff);
        let mut classes = Classes::default();
        for g in out.gates() {
            if !g.is_2q() {
                continue;
            }
            let w = match g {
                Gate::Su4(_, _, m) => weyl_coords(m).unwrap(),
                Gate::Can(_, _, w) => *w,
                other => weyl_coords(&other.matrix()).unwrap(),
            };
            classes.insert(w);
        }
        assert!(!classes.0.is_empty(), "{}: no 2Q instructions?", b.name);
        for w in classes.0 {
            // A program's classes are distinct at the tolerance, so a
            // class already solved came from an earlier program.
            if !solved.insert(w) {
                shared += 1;
                continue;
            }
            for cp in &cps {
                let sol = solve_with_mirroring(cp, &w, DEFAULT_MIRROR_THRESHOLD)
                    .unwrap_or_else(|e| panic!("{}: {w} unsolvable: {e}", b.name));
                assert!(
                    sol.pulse.residual < 1e-6,
                    "{}: pulse residual {} for {w}",
                    b.name,
                    sol.pulse.residual
                );
            }
        }
    }
    // Programs share instruction classes (that is the §5.3.1 point).
    assert!(shared > 0, "no cross-program class sharing among {} classes", solved.0.len());
}

#[test]
fn exact_gate_realization_with_corrections() {
    // Full Algorithm 1 (with 1Q corrections) on the workhorse gates under
    // both couplings.
    use reqisc::qmath::gates as qg;
    for cp in [Coupling::xy(1.0), Coupling::xx(1.0)] {
        let mut pulses = Vec::new();
        for (name, u) in [
            ("cnot", qg::cnot()),
            ("cz", qg::cz()),
            ("iswap", qg::iswap()),
            ("sqisw", qg::sqisw()),
            ("b", qg::b_gate()),
            ("swap", qg::swap()),
        ] {
            let r = realize_gate(&cp, &u).unwrap_or_else(|e| panic!("{name}: {e}"));
            let rec = r.reconstruct(&cp);
            assert!(
                rec.approx_eq(&u, 1e-6),
                "{name}: reconstruction residual {:.2e}",
                rec.max_dist(&u)
            );
            pulses.push(r.pulse);
        }
        // CNOT and CZ are one instruction class: the 1Q corrections alone
        // tell their realizations apart.
        let (cnot, cz) = (&pulses[0], &pulses[1]);
        assert!(
            cnot.target.approx_eq(&cz.target, SU4_CLASS_TOL),
            "cnot {} vs cz {}",
            cnot.target,
            cz.target
        );
        assert!((cnot.tau - cz.tau).abs() < 1e-9, "cnot τ {} vs cz τ {}", cnot.tau, cz.tau);
    }
}

#[test]
fn near_identity_instructions_come_back_mirrored() {
    // QFT's smallest controlled-phase rotations are near-identity; the
    // microarchitecture must mirror them rather than demand unbounded
    // amplitude.
    let qft = reqisc::benchsuite::generators::qft(8);
    let compiler = Compiler::new();
    let out = compiler.compile(&qft, Pipeline::ReqiscEff);
    let cp = Coupling::xy(1.0);
    let mut classes = Classes::default();
    let mut mirrored = 0;
    let mut gates_seen = 0;
    for g in out.gates() {
        if !g.is_2q() {
            continue;
        }
        let w = weyl_coords(&g.matrix()).unwrap();
        if w.l1_norm() < 1e-9 {
            continue;
        }
        gates_seen += 1;
        if !classes.insert(w) {
            continue;
        }
        let sol = solve_with_mirroring(&cp, &w, DEFAULT_MIRROR_THRESHOLD).unwrap();
        if sol.swapped {
            mirrored += 1;
            // Mirrored pulses stay amplitude-bounded.
            assert!(sol.pulse.params.penalty() < 40.0);
        }
    }
    assert!(mirrored > 0, "QFT-8 should contain near-identity rotations");
    // QFT repeats the same controlled-phase classes across qubit pairs:
    // far fewer classes than gates.
    let n = classes.0.len();
    assert!(n < gates_seen, "no class reuse: {n} classes, {gates_seen} gates");
}
