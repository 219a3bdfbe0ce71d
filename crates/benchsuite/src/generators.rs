//! Deterministic benchmark-program generators.
//!
//! The paper's suite comes from RevLib / the TKet benchmarking repository;
//! these generators rebuild the same program *families* from their
//! published definitions. Every generator is deterministic given its
//! parameters.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reqisc_qcircuit::{Circuit, Gate};
use std::f64::consts::PI;

/// Emits a controlled-phase `CP(θ)` on `(a, b)` as `Rz⊗Rz + Rzz` (exact up
/// to global phase).
fn push_cphase(c: &mut Circuit, a: usize, b: usize, theta: f64) {
    c.push(Gate::Rz(a, theta / 2.0));
    c.push(Gate::Rz(b, theta / 2.0));
    c.push(Gate::Rzz(a, b, -theta / 2.0));
}

/// Standard QFT on `n` qubits (with final bit-reversal swaps).
pub fn qft(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for i in 0..n {
        c.push(Gate::H(i));
        for j in i + 1..n {
            push_cphase(&mut c, j, i, PI / (1 << (j - i)) as f64);
        }
    }
    for i in 0..n / 2 {
        c.push(Gate::Swap(i, n - 1 - i));
    }
    c
}

/// Cuccaro ripple-carry adder on two `bits`-bit registers plus carry-in
/// and carry-out: `2·bits + 2` qubits, built from the MAJ/UMA patterns the
/// template pass recognizes.
pub fn ripple_add(bits: usize) -> Circuit {
    // Layout: [cin, a0, b0, a1, b1, …, cout]
    let n = 2 * bits + 2;
    let mut c = Circuit::new(n);
    let a = |i: usize| 1 + 2 * i;
    let b = |i: usize| 2 + 2 * i;
    let cin = 0;
    let cout = n - 1;
    // MAJ(x, y, z) = CX(z,y); CX(z,x); CCX(x,y,z) — carry ripples through a.
    let maj = |c: &mut Circuit, x: usize, y: usize, z: usize| {
        c.push(Gate::Cx(z, y));
        c.push(Gate::Cx(z, x));
        c.push(Gate::Ccx(x, y, z));
    };
    let uma = |c: &mut Circuit, x: usize, y: usize, z: usize| {
        c.push(Gate::Ccx(x, y, z));
        c.push(Gate::Cx(z, x));
        c.push(Gate::Cx(x, y));
    };
    maj(&mut c, cin, b(0), a(0));
    for i in 1..bits {
        maj(&mut c, a(i - 1), b(i), a(i));
    }
    c.push(Gate::Cx(a(bits - 1), cout));
    for i in (1..bits).rev() {
        uma(&mut c, a(i - 1), b(i), a(i));
    }
    uma(&mut c, cin, b(0), a(0));
    c
}

/// Toffoli ladder (`tof_n` style): an n-controlled AND computed into a
/// target through a CCX ladder over clean ancillas (compute → target →
/// uncompute).
///
/// # Panics
///
/// Panics for fewer than 3 controls.
pub fn tof_ladder(n_controls: usize) -> Circuit {
    assert!(n_controls >= 3, "tof ladder needs ≥ 3 controls");
    let k = n_controls;
    // k controls, k-2 ancillas, 1 target.
    let n = 2 * k - 1;
    let mut c = Circuit::new(n);
    let anc = |i: usize| k + i;
    let target = n - 1;
    let up = |c: &mut Circuit| {
        c.push(Gate::Ccx(0, 1, anc(0)));
        for i in 2..k - 1 {
            c.push(Gate::Ccx(i, anc(i - 2), anc(i - 1)));
        }
    };
    up(&mut c);
    c.push(Gate::Ccx(k - 1, anc(k - 3), target));
    // Uncompute.
    for i in (2..k - 1).rev() {
        c.push(Gate::Ccx(i, anc(i - 2), anc(i - 1)));
    }
    c.push(Gate::Ccx(0, 1, anc(0)));
    c
}

/// Grover search with an MCX marking oracle and the standard diffuser.
pub fn grover(n_search: usize, iterations: usize) -> Circuit {
    // n_search search qubits + 1 target + (n_search-2) dirty ancillas.
    let anc = n_search.saturating_sub(2);
    let n = n_search + 1 + anc;
    let mut c = Circuit::new(n);
    let target = n_search;
    for q in 0..n_search {
        c.push(Gate::H(q));
    }
    c.push(Gate::X(target));
    c.push(Gate::H(target));
    let controls: Vec<usize> = (0..n_search).collect();
    for _ in 0..iterations {
        // Oracle: mark |11…1⟩.
        c.push(Gate::Mcx(controls.clone(), target));
        // Diffuser.
        for q in 0..n_search {
            c.push(Gate::H(q));
            c.push(Gate::X(q));
        }
        c.push(Gate::H(n_search - 1));
        c.push(Gate::Mcx((0..n_search - 1).collect(), n_search - 1));
        c.push(Gate::H(n_search - 1));
        for q in 0..n_search {
            c.push(Gate::X(q));
            c.push(Gate::H(q));
        }
    }
    c
}

/// QAOA MaxCut on a random 3-regular-ish graph: `layers` rounds of
/// `Rzz(edges)` + `Rx(all)`.
pub fn qaoa(n: usize, layers: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    // Build an (approximately) 3-regular connected graph.
    let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    let extra = n / 2;
    for _ in 0..extra {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && !edges.contains(&(a, b)) && !edges.contains(&(b, a)) {
            edges.push((a.min(b), a.max(b)));
        }
    }
    for q in 0..n {
        c.push(Gate::H(q));
    }
    for l in 0..layers {
        let gamma = 0.3 + 0.11 * l as f64;
        let beta = 0.7 - 0.07 * l as f64;
        for &(a, b) in &edges {
            c.push(Gate::Rzz(a, b, 2.0 * gamma));
        }
        for q in 0..n {
            c.push(Gate::Rx(q, 2.0 * beta));
        }
    }
    c
}

/// Emits `exp(-iθ/2 · P)` for a Pauli string `P` given as `(qubit, axis)`
/// pairs (axis: 0 = X, 1 = Y, 2 = Z) via the standard CX-ladder
/// construction.
pub fn push_pauli_evolution(c: &mut Circuit, string: &[(usize, u8)], theta: f64) {
    if string.is_empty() {
        return;
    }
    // Basis changes into Z.
    for &(q, ax) in string {
        match ax {
            0 => c.push(Gate::H(q)),
            1 => {
                c.push(Gate::Sdg(q));
                c.push(Gate::H(q));
            }
            _ => {}
        }
    }
    for w in string.windows(2) {
        c.push(Gate::Cx(w[0].0, w[1].0));
    }
    let last = string.last().unwrap().0;
    c.push(Gate::Rz(last, theta));
    for w in string.windows(2).rev() {
        c.push(Gate::Cx(w[0].0, w[1].0));
    }
    for &(q, ax) in string {
        match ax {
            0 => c.push(Gate::H(q)),
            1 => {
                c.push(Gate::H(q));
                c.push(Gate::S(q));
            }
            _ => {}
        }
    }
}

/// UCCSD-style ansatz: single and double excitations as Pauli-string
/// evolutions over `n` qubits, `reps` Trotter repetitions.
pub fn uccsd(n: usize, reps: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    let occ = n / 2;
    for _ in 0..reps {
        // Singles: (i, a) pairs.
        for i in 0..occ {
            for a in occ..n {
                let theta = rng.gen_range(-0.4..0.4);
                push_pauli_evolution(&mut c, &[(i, 1), (a, 0)], theta);
                push_pauli_evolution(&mut c, &[(i, 0), (a, 1)], -theta);
            }
        }
        // A selection of doubles: (i, j, a, b).
        for i in 0..occ.saturating_sub(1) {
            let j = i + 1;
            let a = occ + (i % (n - occ));
            let b = occ + ((i + 1) % (n - occ));
            if a == b {
                continue;
            }
            let theta = rng.gen_range(-0.2..0.2);
            push_pauli_evolution(&mut c, &[(i, 0), (j, 0), (a, 0), (b, 1)], theta);
            push_pauli_evolution(&mut c, &[(i, 1), (j, 0), (a, 0), (b, 0)], -theta);
        }
    }
    c
}

/// Product-formula ("pf") program: Trotterized diagonal + transverse-field
/// Hamiltonian on a ring — long mergeable `Rzz` chains.
pub fn pf(n: usize, steps: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    let js: Vec<f64> = (0..n).map(|_| rng.gen_range(0.4..1.0)).collect();
    for _ in 0..steps {
        for i in 0..n - 1 {
            c.push(Gate::Rzz(i, i + 1, 0.1 * js[i]));
        }
        for i in 0..n {
            c.push(Gate::Rz(i, 0.05 * js[i]));
        }
    }
    c
}

/// Random reversible network of X/CX/CCX gates — the ALU / HWB / URF
/// family backbone.
pub fn reversible_network(n: usize, gate_count: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..gate_count {
        match rng.gen_range(0..10) {
            0 => c.push(Gate::X(rng.gen_range(0..n))),
            1..=4 => {
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                while b == a {
                    b = rng.gen_range(0..n);
                }
                c.push(Gate::Cx(a, b));
            }
            _ => {
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                while b == a {
                    b = rng.gen_range(0..n);
                }
                let mut t = rng.gen_range(0..n);
                while t == a || t == b {
                    t = rng.gen_range(0..n);
                }
                c.push(Gate::Ccx(a, b, t));
            }
        }
    }
    c
}

/// Comparator of two `bits`-bit registers into one flag qubit.
pub fn comparator(bits: usize) -> Circuit {
    let n = 2 * bits + 1;
    let mut c = Circuit::new(n);
    let flag = n - 1;
    for i in (0..bits).rev() {
        let (a, b) = (i, bits + i);
        // a_i > b_i while higher bits equal: approximate RevLib pattern.
        c.push(Gate::X(b));
        c.push(Gate::Ccx(a, b, flag));
        c.push(Gate::X(b));
        c.push(Gate::Cx(a, b));
    }
    for i in 0..bits {
        c.push(Gate::Cx(i, bits + i));
    }
    c
}

/// Multiplier by shift-and-add: `bits × bits → result` with CCX partial
/// products.
pub fn mult(bits: usize) -> Circuit {
    let n = 4 * bits;
    let mut c = Circuit::new(n);
    // a: [0..bits), b: [bits..2bits), p: [2bits..4bits)
    for i in 0..bits {
        for j in 0..bits {
            let p = 2 * bits + i + j;
            if p < n {
                c.push(Gate::Ccx(i, bits + j, p));
                // Carry propagation (simplified ripple).
                if p + 1 < n {
                    c.push(Gate::Ccx(i, p, p + 1));
                }
            }
        }
    }
    c
}

/// Modular adder pattern (add-then-compare-then-correct).
pub fn modulo(bits: usize, seed: u64) -> Circuit {
    let n = 2 * bits + 1;
    let mut c = Circuit::new(n);
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..bits {
        c.push(Gate::Ccx(i, bits + i, n - 1));
        c.push(Gate::Cx(i, bits + i));
        if rng.gen_bool(0.5) {
            c.push(Gate::X(bits + i));
        }
    }
    for i in (0..bits).rev() {
        c.push(Gate::Ccx(i, bits + i, n - 1));
        c.push(Gate::Cx(n - 1, bits + i));
    }
    c
}

/// Encoder network: parity encodings with CX fans plus CCX checks.
pub fn encoding(n: usize, depth: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for d in 0..depth {
        let stride = 1 + d % (n / 2).max(1);
        for i in 0..n - stride {
            c.push(Gate::Cx(i, i + stride));
        }
        if n >= 3 {
            let a = rng.gen_range(0..n - 2);
            c.push(Gate::Ccx(a, a + 1, a + 2));
        }
        // Per-round bit flip so repeated rounds never telescope to the
        // identity on small registers.
        c.push(Gate::X(d % n));
    }
    c
}

/// Squaring circuit: `mult` specialised to b = a (denser CCX use).
pub fn square(bits: usize) -> Circuit {
    let n = 3 * bits + 1;
    let mut c = Circuit::new(n);
    for i in 0..bits {
        for j in i..bits {
            let p = bits + i + j;
            if p < n - 1 {
                if i == j {
                    // Diagonal partial product a_i·a_i = a_i.
                    c.push(Gate::Cx(i, p));
                } else {
                    c.push(Gate::Ccx(i, j, p));
                }
                c.push(Gate::Cx(p, p + 1));
            }
        }
    }
    // Interleave corrective Toffolis.
    for i in 0..bits.saturating_sub(1) {
        c.push(Gate::Ccx(i, i + 1, bits + i));
    }
    c
}

/// Symmetric-function benchmark (`sym6`-style): threshold counters.
pub fn sym(inputs: usize, seed: u64) -> Circuit {
    let n = inputs + inputs.div_ceil(2) + 1;
    let mut c = Circuit::new(n);
    let mut rng = StdRng::seed_from_u64(seed);
    // Count ones into a small register with CCX half-adders.
    for i in 0..inputs {
        let t0 = inputs + (i % (n - inputs - 1));
        c.push(Gate::Ccx(i, t0, n - 1));
        c.push(Gate::Cx(i, t0));
        if rng.gen_bool(0.3) {
            c.push(Gate::Ccx(t0, n - 1, inputs + ((i + 1) % (n - inputs - 1))));
        }
    }
    for i in (0..inputs).rev() {
        let t0 = inputs + (i % (n - inputs - 1));
        c.push(Gate::Ccx(i, t0, n - 1));
    }
    c
}

/// Bit adder: half/full-adder cascade over `bits` columns.
pub fn bit_adder(bits: usize) -> Circuit {
    let n = 3 * bits + 1;
    let mut c = Circuit::new(n);
    for i in 0..bits {
        let (a, b, s) = (i, bits + i, 2 * bits + i);
        // Full adder: sum and carry with Toffolis.
        c.push(Gate::Ccx(a, b, s + 1));
        c.push(Gate::Cx(a, b));
        c.push(Gate::Ccx(b, s, s + 1));
        c.push(Gate::Cx(b, s));
        c.push(Gate::Cx(a, b));
    }
    c
}

/// ALU slice: operation-select + conditional add/and/xor (RevLib
/// `alu-v*` family shape).
pub fn alu(variant: u64) -> Circuit {
    let n = 5;
    let mut c = Circuit::new(n);
    let mut rng = StdRng::seed_from_u64(variant);
    let ops = 6 + (variant % 5) as usize * 8;
    for _ in 0..ops {
        match rng.gen_range(0..5) {
            0 => c.push(Gate::Ccx(4, 0, 2)),
            1 => c.push(Gate::Ccx(0, 1, 3)),
            2 => c.push(Gate::Cx(1, 2)),
            3 => {
                c.push(Gate::Cx(4, 3));
                c.push(Gate::Ccx(2, 3, 1))
            }
            _ => c.push(Gate::X(rng.gen_range(0..n))),
        }
    }
    c
}

/// Hidden-weighted-bit: weight counter + controlled rotation network.
pub fn hwb(n: usize, seed: u64) -> Circuit {
    // The RevLib hwb circuits are dense unstructured reversible networks.
    reversible_network(n, 9 * n, seed)
}

/// Unstructured reversible function (`urf`): very dense random network.
pub fn urf(n: usize, gate_count: usize, seed: u64) -> Circuit {
    reversible_network(n, gate_count, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reqisc_qsim::process_infidelity;

    #[test]
    fn qft_is_correct_on_3_qubits() {
        let c = qft(3);
        let u = c.unitary();
        let dim = 8usize;
        let omega = 2.0 * PI / dim as f64;
        let want = reqisc_qmath::CMat::from_fn(dim, dim, |r, k| {
            reqisc_qmath::C64::cis(omega * (r * k) as f64).scale(1.0 / (dim as f64).sqrt())
        });
        let inf = process_infidelity(&u, &want);
        assert!(inf < 1e-9, "QFT wrong: infidelity {inf}");
    }

    #[test]
    fn ripple_add_adds() {
        // 2-bit adder: check a=1, b=1 → b=2 (states: [cin a0 b0 a1 b1 cout]).
        let c = ripple_add(2);
        let mut sv = reqisc_qsim::StateVector::zero(6);
        // a = 1 → a0 = 1 (qubit 1); b = 1 → b0 = 1 (qubit 2).
        sv.apply_gate(&Gate::X(1));
        sv.apply_gate(&Gate::X(2));
        sv.run(&c);
        let p = sv.probabilities();
        let top: usize = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        // Expect b = a + b = 2 = (b1, b0) = (1, 0), a unchanged = 1, no
        // carry out. Qubits [cin=0, a0=1, b0=0, a1=0, b1=1, cout=0] →
        // index 0b010010 (qubit 0 is MSB).
        assert_eq!(top, 0b010010, "adder output {top:#08b}");
        assert!((p[top] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn generators_produce_valid_circuits() {
        let cases: Vec<(&str, Circuit)> = vec![
            ("qft", qft(5)),
            ("ripple", ripple_add(3)),
            ("tof", tof_ladder(4)),
            ("grover", grover(4, 1)),
            ("qaoa", qaoa(6, 2, 1)),
            ("uccsd", uccsd(6, 1, 2)),
            ("pf", pf(6, 3, 3)),
            ("alu", alu(0)),
            ("comparator", comparator(3)),
            ("mult", mult(2)),
            ("modulo", modulo(2, 4)),
            ("encoding", encoding(5, 3, 5)),
            ("square", square(2)),
            ("sym", sym(4, 6)),
            ("bit_adder", bit_adder(2)),
            ("hwb", hwb(4, 7)),
            ("urf", urf(5, 60, 8)),
        ];
        for (name, c) in cases {
            assert!(!c.is_empty(), "{name} empty");
            assert!(c.num_qubits() >= 2, "{name} too narrow");
            // Deterministic: regenerating gives the identical circuit.
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(qaoa(6, 2, 9).gates(), qaoa(6, 2, 9).gates());
        assert_eq!(urf(5, 50, 1).gates(), urf(5, 50, 1).gates());
        assert_ne!(urf(5, 50, 1).gates(), urf(5, 50, 2).gates());
    }

    #[test]
    fn pauli_evolution_is_unitary_and_correct() {
        // exp(-iθ/2 Z) on one qubit = Rz(θ).
        let mut c = Circuit::new(1);
        push_pauli_evolution(&mut c, &[(0, 2)], 0.7);
        let want = reqisc_qmath::gates::rz(0.7);
        let inf = process_infidelity(&c.unitary(), &want);
        assert!(inf < 1e-12);
        // exp(-iθ/2 XX): compare against Can-like construction.
        let mut c2 = Circuit::new(2);
        push_pauli_evolution(&mut c2, &[(0, 0), (1, 0)], 0.9);
        let want2 = reqisc_qmath::gates::canonical_gate(0.45, 0.0, 0.0);
        let inf2 = process_infidelity(&c2.unitary(), &want2);
        assert!(inf2 < 1e-10, "XX evolution wrong: {inf2}");
    }

    #[test]
    fn grover_amplifies_marked_state() {
        // 3 search qubits, 2 iterations ≈ optimal for N=8.
        let c = grover(3, 2).lowered_to_cx();
        let mut sv = reqisc_qsim::StateVector::zero(c.num_qubits());
        sv.run(&c);
        let p = sv.probabilities();
        // Marginal probability of search register = |111⟩.
        let n = c.num_qubits();
        let mut marked = 0.0;
        for (i, prob) in p.iter().enumerate() {
            let bits = i >> (n - 3);
            if bits == 0b111 {
                marked += prob;
            }
        }
        assert!(marked > 0.8, "Grover failed to amplify: {marked}");
    }
}
