//! The gate set of the ReQISC stack.
//!
//! Covers the conventional CNOT-based ISA (what baselines consume), the
//! SU(4)-based ISA `{Can(x,y,z), U3(θ,φ,λ)}` that the ReQISC compiler
//! emits (paper Fig. 2), and the 3Q/multi-controlled primitives that appear
//! in the high-level IRs of Type-I programs (CCX, Peres, MCX).

use reqisc_qmath::gates as g;
use reqisc_qmath::weyl::WeylCoord;
use reqisc_qmath::{weyl_coords, CMat};

/// A quantum gate instance bound to qubit indices.
#[derive(Debug, Clone, PartialEq)]
pub enum Gate {
    /// Pauli-X on one qubit.
    X(usize),
    /// Pauli-Y on one qubit.
    Y(usize),
    /// Pauli-Z on one qubit.
    Z(usize),
    /// Hadamard.
    H(usize),
    /// Phase gate S.
    S(usize),
    /// S†.
    Sdg(usize),
    /// T gate.
    T(usize),
    /// T†.
    Tdg(usize),
    /// X rotation by an angle.
    Rx(usize, f64),
    /// Y rotation by an angle.
    Ry(usize, f64),
    /// Z rotation by an angle.
    Rz(usize, f64),
    /// Generic 1Q gate `U3(θ, φ, λ)`.
    U3(usize, f64, f64, f64),
    /// CNOT with `(control, target)`.
    Cx(usize, usize),
    /// Controlled-Z (symmetric).
    Cz(usize, usize),
    /// SWAP.
    Swap(usize, usize),
    /// iSWAP.
    ISwap(usize, usize),
    /// √iSWAP.
    SqiSw(usize, usize),
    /// The B gate.
    BGate(usize, usize),
    /// `exp(-i θ/2 · ZZ)` — the native block of QAOA / Hamiltonian programs.
    Rzz(usize, usize, f64),
    /// Canonical gate `Can(x, y, z)` on a qubit pair (SU(4) ISA).
    Can(usize, usize, WeylCoord),
    /// An arbitrary fused two-qubit unitary (SU(4) ISA, explicit matrix).
    Su4(usize, usize, Box<CMat>),
    /// Toffoli with `(control, control, target)`.
    Ccx(usize, usize, usize),
    /// Peres gate `(a, b, c)`: CCX(a,b,c) followed by CX(a,b).
    Peres(usize, usize, usize),
    /// Multi-controlled X: `controls → target`.
    Mcx(Vec<usize>, usize),
}

impl Gate {
    /// The qubits this gate touches, in gate-local order.
    pub fn qubits(&self) -> Vec<usize> {
        use Gate::*;
        match self {
            X(q) | Y(q) | Z(q) | H(q) | S(q) | Sdg(q) | T(q) | Tdg(q) | Rx(q, _) | Ry(q, _)
            | Rz(q, _) | U3(q, _, _, _) => vec![*q],
            Cx(a, b) | Cz(a, b) | Swap(a, b) | ISwap(a, b) | SqiSw(a, b) | BGate(a, b)
            | Rzz(a, b, _) | Can(a, b, _) | Su4(a, b, _) => vec![*a, *b],
            Ccx(a, b, c) | Peres(a, b, c) => vec![*a, *b, *c],
            Mcx(cs, t) => {
                let mut qs = cs.clone();
                qs.push(*t);
                qs
            }
        }
    }

    /// Number of qubits the gate spans.
    pub fn arity(&self) -> usize {
        self.qubits().len()
    }

    /// True for two-qubit gates.
    pub fn is_2q(&self) -> bool {
        self.arity() == 2
    }

    /// Short mnemonic, e.g. `"cx"` or `"can"`.
    pub fn name(&self) -> &'static str {
        use Gate::*;
        match self {
            X(_) => "x",
            Y(_) => "y",
            Z(_) => "z",
            H(_) => "h",
            S(_) => "s",
            Sdg(_) => "sdg",
            T(_) => "t",
            Tdg(_) => "tdg",
            Rx(..) => "rx",
            Ry(..) => "ry",
            Rz(..) => "rz",
            U3(..) => "u3",
            Cx(..) => "cx",
            Cz(..) => "cz",
            Swap(..) => "swap",
            ISwap(..) => "iswap",
            SqiSw(..) => "sqisw",
            BGate(..) => "b",
            Rzz(..) => "rzz",
            Can(..) => "can",
            Su4(..) => "su4",
            Ccx(..) => "ccx",
            Peres(..) => "peres",
            Mcx(..) => "mcx",
        }
    }

    /// The gate's unitary on its own qubits (dimension `2^arity`), with the
    /// first listed qubit as the most significant index.
    ///
    /// # Panics
    ///
    /// Panics for [`Gate::Mcx`] with more than 8 controls (use
    /// `Circuit::lowered` first — MCX is an IR-level construct).
    pub fn matrix(&self) -> CMat {
        use Gate::*;
        match self {
            X(_) => g::pauli_x(),
            Y(_) => g::pauli_y(),
            Z(_) => g::pauli_z(),
            H(_) => g::hadamard(),
            S(_) => g::s_gate(),
            Sdg(_) => g::sdg_gate(),
            T(_) => g::t_gate(),
            Tdg(_) => g::tdg_gate(),
            Rx(_, t) => g::rx(*t),
            Ry(_, t) => g::ry(*t),
            Rz(_, t) => g::rz(*t),
            U3(_, t, p, l) => g::u3(*t, *p, *l),
            Cx(..) => g::cnot(),
            Cz(..) => g::cz(),
            Swap(..) => g::swap(),
            ISwap(..) => g::iswap(),
            SqiSw(..) => g::sqisw(),
            BGate(..) => g::b_gate(),
            Rzz(_, _, t) => {
                // exp(-i θ/2 ZZ) = diag(e^{-iθ/2}, e^{iθ/2}, e^{iθ/2}, e^{-iθ/2})
                let h = *t / 2.0;
                CMat::diag(&[
                    reqisc_qmath::C64::cis(-h),
                    reqisc_qmath::C64::cis(h),
                    reqisc_qmath::C64::cis(h),
                    reqisc_qmath::C64::cis(-h),
                ])
            }
            Can(_, _, c) => g::canonical_gate(c.x, c.y, c.z),
            Su4(_, _, m) => (**m).clone(),
            Ccx(..) => {
                let mut m = CMat::identity(8);
                m.swap_rows(6, 7);
                m
            }
            Peres(..) => {
                // CCX then CX(a→b): permutation |a b c> → |a, a⊕b, ab⊕c>
                let mut m = CMat::zeros(8, 8);
                for a in 0..2usize {
                    for b in 0..2usize {
                        for c in 0..2usize {
                            let src = (a << 2) | (b << 1) | c;
                            let dst = (a << 2) | ((a ^ b) << 1) | ((a & b) ^ c);
                            m[(dst, src)] = reqisc_qmath::c64::ONE;
                        }
                    }
                }
                m
            }
            Mcx(cs, _) => {
                let k = cs.len();
                assert!(k <= 8, "MCX matrix only materialized up to 8 controls");
                let n = 1usize << (k + 1);
                let mut m = CMat::identity(n);
                m.swap_rows(n - 2, n - 1);
                m
            }
        }
    }

    /// Weyl coordinates of a two-qubit gate, `None` for other arities.
    pub fn weyl(&self) -> Option<WeylCoord> {
        use Gate::*;
        match self {
            Cx(..) | Cz(..) => Some(WeylCoord::cnot()),
            Swap(..) => Some(WeylCoord::swap()),
            ISwap(..) => Some(WeylCoord::iswap()),
            SqiSw(..) => Some(WeylCoord::sqisw()),
            BGate(..) => Some(WeylCoord::b_gate()),
            Rzz(..) => weyl_coords(&self.matrix()).ok(),
            Can(_, _, c) => Some(*c),
            Su4(_, _, m) => weyl_coords(m).ok(),
            _ => None,
        }
    }

    /// Rewrites qubit indices through a mapping function.
    pub fn remap(&self, f: &dyn Fn(usize) -> usize) -> Gate {
        use Gate::*;
        match self {
            X(q) => X(f(*q)),
            Y(q) => Y(f(*q)),
            Z(q) => Z(f(*q)),
            H(q) => H(f(*q)),
            S(q) => S(f(*q)),
            Sdg(q) => Sdg(f(*q)),
            T(q) => T(f(*q)),
            Tdg(q) => Tdg(f(*q)),
            Rx(q, t) => Rx(f(*q), *t),
            Ry(q, t) => Ry(f(*q), *t),
            Rz(q, t) => Rz(f(*q), *t),
            U3(q, t, p, l) => U3(f(*q), *t, *p, *l),
            Cx(a, b) => Cx(f(*a), f(*b)),
            Cz(a, b) => Cz(f(*a), f(*b)),
            Swap(a, b) => Swap(f(*a), f(*b)),
            ISwap(a, b) => ISwap(f(*a), f(*b)),
            SqiSw(a, b) => SqiSw(f(*a), f(*b)),
            BGate(a, b) => BGate(f(*a), f(*b)),
            Rzz(a, b, t) => Rzz(f(*a), f(*b), *t),
            Can(a, b, c) => Can(f(*a), f(*b), *c),
            Su4(a, b, m) => Su4(f(*a), f(*b), m.clone()),
            Ccx(a, b, c) => Ccx(f(*a), f(*b), f(*c)),
            Peres(a, b, c) => Peres(f(*a), f(*b), f(*c)),
            Mcx(cs, t) => Mcx(cs.iter().map(|&q| f(q)).collect(), f(*t)),
        }
    }

    /// Inverse gate.
    ///
    /// # Panics
    ///
    /// Panics for [`Gate::Peres`], which has no single-gate inverse in this
    /// set — invert it at the circuit level as `CX(a,b)` then `CCX(a,b,c)`.
    pub fn dagger(&self) -> Gate {
        use Gate::*;
        match self {
            S(q) => Sdg(*q),
            Sdg(q) => S(*q),
            T(q) => Tdg(*q),
            Tdg(q) => T(*q),
            Rx(q, t) => Rx(*q, -t),
            Ry(q, t) => Ry(*q, -t),
            Rz(q, t) => Rz(*q, -t),
            U3(q, t, p, l) => U3(*q, -*t, -*l, -*p),
            Rzz(a, b, t) => Rzz(*a, *b, -*t),
            ISwap(a, b) => Su4(*a, *b, Box::new(g::iswap().adjoint())),
            SqiSw(a, b) => Su4(*a, *b, Box::new(g::sqisw().adjoint())),
            BGate(a, b) => Su4(*a, *b, Box::new(g::b_gate().adjoint())),
            Can(a, b, c) => Su4(*a, *b, Box::new(g::canonical_gate(c.x, c.y, c.z).adjoint())),
            Su4(a, b, m) => Su4(*a, *b, Box::new(m.adjoint())),
            Peres(..) => unimplemented!("invert Peres at the circuit level (CX then CCX)"),
            other => other.clone(), // self-inverse gates
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reqisc_qmath::weyl::WeylCoord;

    #[test]
    fn arities() {
        assert_eq!(Gate::H(0).arity(), 1);
        assert_eq!(Gate::Cx(0, 1).arity(), 2);
        assert_eq!(Gate::Ccx(0, 1, 2).arity(), 3);
        assert_eq!(Gate::Mcx(vec![0, 1, 2], 3).arity(), 4);
    }

    #[test]
    fn matrices_are_unitary() {
        let gates = vec![
            Gate::X(0),
            Gate::H(0),
            Gate::T(0),
            Gate::Rx(0, 0.3),
            Gate::U3(0, 0.1, 0.2, 0.3),
            Gate::Cx(0, 1),
            Gate::Rzz(0, 1, 0.7),
            Gate::Can(0, 1, WeylCoord::new(0.2, 0.1, 0.05)),
            Gate::Ccx(0, 1, 2),
            Gate::Peres(0, 1, 2),
            Gate::Mcx(vec![0, 1, 2], 3),
        ];
        for gate in gates {
            assert!(gate.matrix().is_unitary(1e-12), "{} not unitary", gate.name());
        }
    }

    #[test]
    fn ccx_is_permutation() {
        let m = Gate::Ccx(0, 1, 2).matrix();
        // |110> -> |111>
        assert!((m[(7, 6)].re - 1.0).abs() < 1e-15);
        assert!((m[(6, 7)].re - 1.0).abs() < 1e-15);
        assert!((m[(5, 5)].re - 1.0).abs() < 1e-15);
    }

    #[test]
    fn peres_truth_table() {
        let m = Gate::Peres(0, 1, 2).matrix();
        // |1,0,0> (= index 4) -> a=1, b=a⊕b=1, c=ab⊕c=0 -> |1,1,0> (= 6)
        assert!((m[(6, 4)].re - 1.0).abs() < 1e-15);
        // |1,1,0> (6) -> b = 0, c = 1⊕0=1 -> |1,0,1> (5)
        assert!((m[(5, 6)].re - 1.0).abs() < 1e-15);
    }

    #[test]
    fn weyl_of_named_gates() {
        assert!(Gate::Cx(0, 1).weyl().unwrap().approx_eq(&WeylCoord::cnot(), 1e-12));
        assert!(Gate::Swap(0, 1).weyl().unwrap().approx_eq(&WeylCoord::swap(), 1e-12));
        assert!(Gate::Rzz(0, 1, std::f64::consts::FRAC_PI_2)
            .weyl()
            .unwrap()
            .approx_eq(&WeylCoord::cnot(), 1e-8));
        assert!(Gate::H(0).weyl().is_none());
    }

    #[test]
    fn remap_moves_qubits() {
        let g = Gate::Ccx(0, 1, 2).remap(&|q| q + 3);
        assert_eq!(g.qubits(), vec![3, 4, 5]);
    }

    #[test]
    fn dagger_composes_to_identity() {
        for gate in [
            Gate::S(0),
            Gate::T(0),
            Gate::Rz(0, 0.4),
            Gate::U3(0, 0.3, 0.7, -0.2),
        ] {
            let u = gate.matrix();
            let v = gate.dagger().matrix();
            assert!(
                u.mul_mat(&v).approx_eq(&reqisc_qmath::CMat::identity(2), 1e-12),
                "{} dagger wrong",
                gate.name()
            );
        }
        let g2 = Gate::Can(0, 1, WeylCoord::new(0.3, 0.2, 0.1));
        let u = g2.matrix();
        let v = g2.dagger().matrix();
        assert!(u.mul_mat(&v).approx_eq(&reqisc_qmath::CMat::identity(4), 1e-12));
    }
}
