//! The circuit container: an ordered gate list over `n` qubits, with
//! lowering (MCX→CCX→CX), metrics, and exact unitary materialization for
//! small registers.

use crate::gate::Gate;
use reqisc_qmath::c64::ONE;
use reqisc_qmath::CMat;
use std::fmt;

/// An ordered sequence of gates on a fixed-width qubit register.
///
/// # Examples
///
/// ```
/// use reqisc_qcircuit::{Circuit, Gate};
/// let mut c = Circuit::new(2);
/// c.push(Gate::H(0));
/// c.push(Gate::Cx(0, 1));
/// assert_eq!(c.count_2q(), 1);
/// assert!(c.unitary().is_unitary(1e-12));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    num_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Self { num_qubits, gates: Vec::new() }
    }

    /// Creates a circuit from an existing gate list.
    ///
    /// # Panics
    ///
    /// Panics if any gate touches a qubit `≥ num_qubits`.
    pub fn from_gates(num_qubits: usize, gates: Vec<Gate>) -> Self {
        for g in &gates {
            validate_gate(g, num_qubits);
        }
        Self { num_qubits, gates }
    }

    /// Register width.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Gate list, in execution order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of gates.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True when the circuit has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate touches a qubit outside the register or lists
    /// the same qubit twice.
    pub fn push(&mut self, g: Gate) {
        validate_gate(&g, self.num_qubits);
        self.gates.push(g);
    }

    /// Appends every gate of `other` (registers must match).
    ///
    /// # Panics
    ///
    /// Panics if the register widths differ.
    pub fn extend(&mut self, other: &Circuit) {
        assert_eq!(self.num_qubits, other.num_qubits, "register width mismatch");
        self.gates.extend(other.gates.iter().cloned());
    }

    /// Consumes the circuit and returns its gates.
    pub fn into_gates(self) -> Vec<Gate> {
        self.gates
    }

    /// Drops the gate list's spare capacity, for circuits kept long
    /// after they are built, such as cache entries.
    pub fn shrink_to_fit(&mut self) {
        self.gates.shrink_to_fit();
    }

    /// 128-bit content fingerprint of the program: register width plus
    /// every gate's kind, qubits, and exact parameter bits (explicit
    /// `Su4` matrices hash their entries). Two circuits built by the same
    /// deterministic generator are bitwise-identical and share a
    /// fingerprint — the content-address the compilation cache memoizes
    /// whole-program results under.
    pub fn content_hash(&self) -> u128 {
        let mut h = reqisc_qmath::Fnv128::new();
        h.write_usize(self.num_qubits);
        h.write_usize(self.gates.len());
        for g in &self.gates {
            h.write_str(g.name());
            for q in g.qubits() {
                h.write_usize(q);
            }
            match g {
                Gate::Rx(_, t) | Gate::Ry(_, t) | Gate::Rz(_, t) | Gate::Rzz(_, _, t) => {
                    h.write_f64(*t);
                }
                Gate::U3(_, t, p, l) => {
                    h.write_f64(*t);
                    h.write_f64(*p);
                    h.write_f64(*l);
                }
                Gate::Can(_, _, w) => {
                    h.write_f64(w.x);
                    h.write_f64(w.y);
                    h.write_f64(w.z);
                }
                Gate::Su4(_, _, m) => {
                    let fp = m.fingerprint();
                    h.write_u64(fp as u64);
                    h.write_u64((fp >> 64) as u64);
                }
                // Parameterless gates are fully captured by name + qubits.
                // Deliberately no catch-all: a future parameterized variant
                // must be added here or this match stops compiling —
                // silently dropping its parameter would alias cache keys.
                Gate::X(_)
                | Gate::Y(_)
                | Gate::Z(_)
                | Gate::H(_)
                | Gate::S(_)
                | Gate::Sdg(_)
                | Gate::T(_)
                | Gate::Tdg(_)
                | Gate::Cx(..)
                | Gate::Cz(..)
                | Gate::Swap(..)
                | Gate::ISwap(..)
                | Gate::SqiSw(..)
                | Gate::BGate(..)
                | Gate::Ccx(..)
                | Gate::Peres(..)
                | Gate::Mcx(..) => {}
            }
        }
        h.finish()
    }

    /// Counts gates spanning exactly two qubits.
    pub fn count_2q(&self) -> usize {
        self.gates.iter().filter(|g| g.is_2q()).count()
    }

    /// Two-qubit depth: the length of the longest chain of 2Q gates
    /// (1Q gates are free, matching the paper's `Depth2Q`).
    pub fn depth_2q(&self) -> usize {
        let mut level = vec![0usize; self.num_qubits];
        let mut depth = 0;
        for g in &self.gates {
            if g.arity() < 2 {
                continue;
            }
            let qs = g.qubits();
            let l = qs.iter().map(|&q| level[q]).max().unwrap_or(0) + 1;
            for q in qs {
                level[q] = l;
            }
            depth = depth.max(l);
        }
        depth
    }

    /// Critical-path duration under a per-gate duration model.
    ///
    /// `dur(gate)` should return the pulse duration of each gate (typically
    /// `0` for 1Q gates, per the paper's convention that 1Q gates are much
    /// faster than 2Q interactions). It is called once per gate, in order,
    /// with references into this circuit, so it may memoize by gate.
    pub fn duration<'a>(&'a self, dur: &mut dyn FnMut(&'a Gate) -> f64) -> f64 {
        let mut finish = vec![0.0f64; self.num_qubits];
        let mut total = 0.0f64;
        for g in &self.gates {
            let qs = g.qubits();
            let start = qs.iter().map(|&q| finish[q]).fold(0.0, f64::max);
            let end = start + dur(g);
            for q in qs {
                finish[q] = end;
            }
            total = total.max(end);
        }
        total
    }

    /// Lowers every CCX/Peres/MCX into {1Q, CX} gates, leaving other gates
    /// untouched. This is the input form for CNOT-based baselines.
    pub fn lowered_to_cx(&self) -> Circuit {
        let mut out = Circuit::new(self.num_qubits);
        for g in &self.gates {
            lower_gate_to_cx(g, self.num_qubits, &mut out);
        }
        out
    }

    /// Lowers every MCX into CCX gates (the CCX-based IR the ReQISC
    /// compiler consumes, paper §5.2.2), leaving CCX/Peres intact.
    pub fn lowered_to_ccx(&self) -> Circuit {
        let mut out = Circuit::new(self.num_qubits);
        for g in &self.gates {
            match g {
                Gate::Mcx(cs, t) => lower_mcx_to_ccx(cs, *t, self.num_qubits, &mut out),
                other => out.push(other.clone()),
            }
        }
        out
    }

    /// The exact unitary of the circuit (dimension `2^n`), with qubit 0 as
    /// the most significant bit.
    ///
    /// # Panics
    ///
    /// Panics for registers wider than 12 qubits (≈ 16M complex entries);
    /// use the state-vector simulator for larger systems.
    pub fn unitary(&self) -> CMat {
        assert!(
            self.num_qubits <= 12,
            "unitary() materializes 4^n entries; {} qubits is too large",
            self.num_qubits
        );
        let dim = 1usize << self.num_qubits;
        let mut u = CMat::identity(dim);
        for g in &self.gates {
            let gm = embed(&g.matrix(), &g.qubits(), self.num_qubits);
            u = gm.mul_mat(&u);
        }
        u
    }

    /// Applies `perm` to the qubit labels of every gate: qubit `q` becomes
    /// `perm[q]`.
    ///
    /// # Panics
    ///
    /// Panics if `perm.len() != num_qubits`.
    pub fn permuted(&self, perm: &[usize]) -> Circuit {
        assert_eq!(perm.len(), self.num_qubits, "permutation width mismatch");
        let gates = self.gates.iter().map(|g| g.remap(&|q| perm[q])).collect();
        Circuit::from_gates(self.num_qubits, gates)
    }

    /// Appends the inverse of the whole circuit (useful for mirror
    /// benchmarking and tests). CCX and self-inverse gates invert in place;
    /// Peres inverts as CX-then-CCX.
    pub fn append_inverse(&mut self) {
        let snapshot: Vec<Gate> = self.gates.clone();
        for g in snapshot.into_iter().rev() {
            match g {
                Gate::Peres(a, b, c) => {
                    self.push(Gate::Cx(a, b));
                    self.push(Gate::Ccx(a, b, c));
                }
                other => self.push(other.dagger()),
            }
        }
    }
}

fn validate_gate(g: &Gate, num_qubits: usize) {
    let qs = g.qubits();
    for (i, &q) in qs.iter().enumerate() {
        assert!(q < num_qubits, "gate {} uses qubit {q} out of range", g.name());
        assert!(!qs[..i].contains(&q), "gate {} repeats qubit {q}", g.name());
    }
}

/// Embeds a `2^k`-dimensional gate matrix acting on `qs` (first listed qubit
/// most significant) into the full `2^n` operator.
pub fn embed(m: &CMat, qs: &[usize], n: usize) -> CMat {
    let k = qs.len();
    assert_eq!(m.rows(), 1 << k, "matrix size does not match qubit count");
    let dim = 1usize << n;
    let mut out = CMat::zeros(dim, dim);
    // Positions (bit shifts) of the gate qubits, MSB-first indexing.
    let shifts: Vec<usize> = qs.iter().map(|&q| n - 1 - q).collect();
    let rest: Vec<usize> = (0..n).filter(|b| !qs.contains(b)).map(|q| n - 1 - q).collect();
    let rcount = 1usize << rest.len();
    for ctx in 0..rcount {
        // Scatter the context bits into their positions.
        let mut base = 0usize;
        for (bi, &sh) in rest.iter().enumerate() {
            if (ctx >> bi) & 1 == 1 {
                base |= 1 << sh;
            }
        }
        for i in 0..(1 << k) {
            let mut row = base;
            for (bi, &sh) in shifts.iter().enumerate() {
                if (i >> (k - 1 - bi)) & 1 == 1 {
                    row |= 1 << sh;
                }
            }
            for j in 0..(1 << k) {
                let v = m[(i, j)];
                if v.re == 0.0 && v.im == 0.0 {
                    continue;
                }
                let mut col = base;
                for (bi, &sh) in shifts.iter().enumerate() {
                    if (j >> (k - 1 - bi)) & 1 == 1 {
                        col |= 1 << sh;
                    }
                }
                out[(row, col)] = v;
            }
        }
    }
    out
}

fn lower_gate_to_cx(g: &Gate, n: usize, out: &mut Circuit) {
    match g {
        Gate::Rzz(a, b, t) => {
            out.push(Gate::Cx(*a, *b));
            out.push(Gate::Rz(*b, *t));
            out.push(Gate::Cx(*a, *b));
        }
        Gate::Swap(a, b) => {
            out.push(Gate::Cx(*a, *b));
            out.push(Gate::Cx(*b, *a));
            out.push(Gate::Cx(*a, *b));
        }
        Gate::Ccx(a, b, c) => lower_ccx(*a, *b, *c, out),
        Gate::Peres(a, b, c) => {
            lower_ccx(*a, *b, *c, out);
            out.push(Gate::Cx(*a, *b));
        }
        Gate::Mcx(cs, t) => {
            let mut tmp = Circuit::new(n);
            lower_mcx_to_ccx(cs, *t, n, &mut tmp);
            for g2 in tmp.into_gates() {
                lower_gate_to_cx(&g2, n, out);
            }
        }
        other => out.push(other.clone()),
    }
}

/// Standard 6-CNOT, 7-T Toffoli decomposition.
fn lower_ccx(a: usize, b: usize, c: usize, out: &mut Circuit) {
    use Gate::*;
    out.push(H(c));
    out.push(Cx(b, c));
    out.push(Tdg(c));
    out.push(Cx(a, c));
    out.push(T(c));
    out.push(Cx(b, c));
    out.push(Tdg(c));
    out.push(Cx(a, c));
    out.push(T(b));
    out.push(T(c));
    out.push(H(c));
    out.push(Cx(a, b));
    out.push(T(a));
    out.push(Tdg(b));
    out.push(Cx(a, b));
}

/// Recursive MCX lowering (paper §5.2.1 cites Barenco et al. [5]).
///
/// Uses the V-chain with dirty ancillas drawn from idle register qubits; the
/// caller's register must have at least `controls - 2` idle qubits for
/// `controls ≥ 3` (our benchmark generators always allocate them).
fn lower_mcx_to_ccx(cs: &[usize], t: usize, n: usize, out: &mut Circuit) {
    match cs.len() {
        0 => out.push(Gate::X(t)),
        1 => out.push(Gate::Cx(cs[0], t)),
        2 => out.push(Gate::Ccx(cs[0], cs[1], t)),
        k => {
            // Find dirty ancillas: any qubits not in {cs, t}.
            let used: Vec<usize> = cs.iter().copied().chain([t]).collect();
            let anc: Vec<usize> = (0..n).filter(|q| !used.contains(q)).collect();
            assert!(
                anc.len() >= k - 2,
                "MCX with {k} controls needs {} ancillas, register has {}",
                k - 2,
                anc.len()
            );
            // Barenco dirty-ancilla V-chain: the "inner" block XORs
            // c₀c₁…c_{k-2} into the top ancilla; bracketing it with two
            // target CCXs makes the garbage terms cancel, and repeating the
            // inner block restores every ancilla.
            let inner = |out: &mut Circuit| {
                for i in (2..=k - 2).rev() {
                    out.push(Gate::Ccx(cs[i], anc[i - 2], anc[i - 1]));
                }
                out.push(Gate::Ccx(cs[0], cs[1], anc[0]));
                for i in 2..=k - 2 {
                    out.push(Gate::Ccx(cs[i], anc[i - 2], anc[i - 1]));
                }
            };
            out.push(Gate::Ccx(cs[k - 1], anc[k - 3], t));
            inner(out);
            out.push(Gate::Ccx(cs[k - 1], anc[k - 3], t));
            inner(out);
        }
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "circuit[{} qubits, {} gates]", self.num_qubits, self.gates.len())?;
        for g in &self.gates {
            writeln!(f, "  {} {:?}", g.name(), g.qubits())?;
        }
        Ok(())
    }
}

const _: reqisc_qmath::C64 = ONE;

#[cfg(test)]
mod tests {
    use super::*;
    use reqisc_qmath::gates as qg;
    use reqisc_qmath::weyl::WeylCoord;

    #[test]
    fn bell_circuit_unitary() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::Cx(0, 1));
        let u = c.unitary();
        // |00> -> (|00> + |11>)/√2
        assert!((u[(0, 0)].re - 1.0 / 2f64.sqrt()).abs() < 1e-12);
        assert!((u[(3, 0)].re - 1.0 / 2f64.sqrt()).abs() < 1e-12);
        assert!(u[(1, 0)].abs() < 1e-12);
    }

    #[test]
    fn embed_respects_qubit_order() {
        // CX with control = qubit 1, target = qubit 0 in a 2-qubit register.
        let mut c = Circuit::new(2);
        c.push(Gate::Cx(1, 0));
        let u = c.unitary();
        // |01> (q0=0, q1=1) -> |11>
        assert!((u[(3, 1)].re - 1.0).abs() < 1e-12);
        assert!((u[(1, 3)].re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn embed_middle_qubits() {
        // CX(2,1) in a 3-qubit register: |0;q1=0;q2=1> = idx1 -> |0;1;1> = 3.
        let mut c = Circuit::new(3);
        c.push(Gate::Cx(2, 1));
        let u = c.unitary();
        assert!((u[(3, 1)].re - 1.0).abs() < 1e-12);
        assert!((u[(7, 5)].re - 1.0).abs() < 1e-12);
        assert!((u[(0, 0)].re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ccx_lowering_is_exact() {
        let mut hi = Circuit::new(3);
        hi.push(Gate::Ccx(0, 1, 2));
        let lo = hi.lowered_to_cx();
        assert_eq!(lo.count_2q(), 6);
        assert!(lo.unitary().approx_eq(&hi.unitary(), 1e-12));
    }

    #[test]
    fn peres_lowering_is_exact() {
        let mut hi = Circuit::new(3);
        hi.push(Gate::Peres(0, 1, 2));
        let lo = hi.lowered_to_cx();
        assert!(lo.unitary().approx_eq(&hi.unitary(), 1e-12));
    }

    #[test]
    fn mcx_lowering_matches_permutation() {
        // 3 controls + target + 1 ancilla = 5 qubits.
        let mut hi = Circuit::new(5);
        hi.push(Gate::Mcx(vec![0, 1, 2], 3));
        let ccx = hi.lowered_to_ccx();
        assert!(ccx.gates().iter().all(|g| matches!(g, Gate::Ccx(..))));
        assert!(ccx.unitary().approx_eq(&hi.unitary(), 1e-10));
        let cx = hi.lowered_to_cx();
        assert!(cx.unitary().approx_eq(&hi.unitary(), 1e-10));
    }

    #[test]
    fn mcx_lowering_with_dirty_ancilla() {
        // The ancilla (qubit 4) starts in superposition — verify the V-chain
        // restores it: compare full unitaries (which covers all ancilla
        // states by linearity).
        let mut hi = Circuit::new(7);
        hi.push(Gate::Mcx(vec![0, 1, 2, 3], 4));
        let lo = hi.lowered_to_ccx();
        assert!(lo.unitary().approx_eq(&hi.unitary(), 1e-10));
    }

    #[test]
    fn mcx_five_controls() {
        // 5 controls, target, 3 dirty ancillas = 9 qubits; compare action on
        // the all-ones control pattern via the permutation structure.
        let mut hi = Circuit::new(9);
        hi.push(Gate::Mcx(vec![0, 1, 2, 3, 4], 5));
        let lo = hi.lowered_to_ccx();
        // Count: 2 target CCX + 2 inner blocks of (2(k-3)+1) = 2 + 2*5 = 12.
        assert_eq!(lo.len(), 12);
        // Spot-check as a permutation on computational basis states without
        // materializing the 512x512 unitary twice: apply gate-by-gate to
        // basis kets using the CCX truth table.
        let apply = |c: &Circuit, mut state: usize| -> usize {
            for g in c.gates() {
                if let Gate::Ccx(a, b, t) = g {
                    let (ba, bb) = (8 - a, 8 - b);
                    let bt = 8 - t;
                    if (state >> ba) & 1 == 1 && (state >> bb) & 1 == 1 {
                        state ^= 1 << bt;
                    }
                }
            }
            state
        };
        for pattern in [0usize, 0b111110000, 0b111111000, 0b101010000, 0b111110110] {
            let want = if (pattern >> 4) & 0b11111 == 0b11111 {
                pattern ^ (1 << 3)
            } else {
                pattern
            };
            assert_eq!(apply(&lo, pattern), want, "pattern {pattern:b}");
        }
    }

    #[test]
    fn depth_and_counts() {
        let mut c = Circuit::new(3);
        c.push(Gate::H(0));
        c.push(Gate::Cx(0, 1)); // depth 1
        c.push(Gate::Cx(1, 2)); // depth 2
        c.push(Gate::Cx(0, 1)); // depth 3 (shares qubit 1)
        assert_eq!(c.count_2q(), 3);
        assert_eq!(c.depth_2q(), 3);
    }

    #[test]
    fn parallel_gates_share_depth() {
        let mut c = Circuit::new(4);
        c.push(Gate::Cx(0, 1));
        c.push(Gate::Cx(2, 3));
        assert_eq!(c.depth_2q(), 1);
    }

    #[test]
    fn duration_critical_path() {
        let mut c = Circuit::new(3);
        c.push(Gate::Cx(0, 1));
        c.push(Gate::Cx(1, 2));
        c.push(Gate::Cx(0, 1));
        let d = c.duration(&mut |g| if g.is_2q() { 2.0 } else { 0.0 });
        assert!((d - 6.0).abs() < 1e-12);
        // Parallel pair takes one slot.
        let mut p = Circuit::new(4);
        p.push(Gate::Cx(0, 1));
        p.push(Gate::Cx(2, 3));
        assert!((p.duration(&mut |_| 2.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn append_inverse_gives_identity() {
        let mut c = Circuit::new(3);
        c.push(Gate::H(0));
        c.push(Gate::T(1));
        c.push(Gate::Cx(0, 1));
        c.push(Gate::Can(1, 2, WeylCoord::new(0.3, 0.1, 0.05)));
        c.push(Gate::Ccx(0, 1, 2));
        c.append_inverse();
        assert!(c.unitary().approx_eq(&CMat::identity(8), 1e-10));
    }

    #[test]
    fn permuted_relabels() {
        let mut c = Circuit::new(3);
        c.push(Gate::Cx(0, 1));
        let p = c.permuted(&[2, 0, 1]);
        assert_eq!(p.gates()[0], Gate::Cx(2, 0));
    }

    #[test]
    fn su4_gate_in_circuit() {
        let mut c = Circuit::new(2);
        c.push(Gate::Su4(0, 1, Box::new(qg::b_gate())));
        assert!(c.unitary().approx_eq(&qg::b_gate(), 1e-12));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_rejects_out_of_range() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx(0, 2));
    }

    #[test]
    fn content_hash_distinguishes_programs() {
        let mut a = Circuit::new(3);
        a.push(Gate::Ccx(0, 1, 2));
        a.push(Gate::Rz(0, 0.25));
        let mut b = Circuit::new(3);
        b.push(Gate::Ccx(0, 1, 2));
        b.push(Gate::Rz(0, 0.25));
        assert_eq!(a.content_hash(), b.content_hash());
        // Parameter, qubit, order, and width changes all change the hash.
        let mut c = Circuit::new(3);
        c.push(Gate::Ccx(0, 1, 2));
        c.push(Gate::Rz(0, 0.26));
        assert_ne!(a.content_hash(), c.content_hash());
        let mut d = Circuit::new(3);
        d.push(Gate::Rz(0, 0.25));
        d.push(Gate::Ccx(0, 1, 2));
        assert_ne!(a.content_hash(), d.content_hash());
        assert_ne!(a.content_hash(), Circuit::new(3).content_hash());
        assert_ne!(Circuit::new(2).content_hash(), Circuit::new(3).content_hash());
        // Su4 payloads participate in the hash.
        let mut e = Circuit::new(2);
        e.push(Gate::Su4(0, 1, Box::new(qg::b_gate())));
        let mut f = Circuit::new(2);
        f.push(Gate::Su4(0, 1, Box::new(qg::cnot())));
        assert_ne!(e.content_hash(), f.content_hash());
    }
}
