//! Pre-synthesized 3Q IR template library (paper §5.2.2).
//!
//! Type-I (arithmetic-logic) programs are built from a small set of 3Q
//! intermediate representations — Toffoli, Peres, the MAJ/UMA adders of
//! Cuccaro et al., controlled-SWAP — so the compiler pre-synthesizes each
//! IR's minimal-#SU(4) realization once, derives its *equivalent circuit
//! class* (ECC) variants from self-invertibility and control-bit
//! permutability, and then assembles programs from the library with
//! constant per-gate cost (and constant calibration overhead).

// lint:allow-file(tolerance-literal, template canonicalization guards local to synthesis)
use crate::search::{synthesize, SearchOptions};
use crate::sweep::BlockCircuit;
use reqisc_qcircuit::{Circuit, Gate};
use reqisc_qmath::CMat;
use std::collections::HashMap;

/// One pre-synthesized realization of a 3Q IR on wires `(0, 1, 2)`.
#[derive(Debug, Clone)]
pub struct Template {
    /// The SU(4)-block circuit realizing the IR (up to global phase).
    pub circuit: BlockCircuit,
    /// The wire permutation applied to the IR before synthesis; entry `i`
    /// is the template wire carrying IR wire `i`.
    pub wire_perm: [usize; 3],
    /// Whether this variant is the *reverse* (inverse-order daggered
    /// blocks) of the base synthesis — valid only for self-inverse IRs.
    pub reversed: bool,
}

impl Template {
    /// The qubit pair of the first block (for fusion with a predecessor).
    pub fn first_pair(&self) -> Option<(usize, usize)> {
        self.circuit.blocks.first().map(|(p, _)| *p)
    }
}

/// A named 3Q IR with all its ECC template variants.
#[derive(Debug, Clone)]
pub struct IrEntry {
    /// Canonical 8×8 unitary of the IR.
    pub unitary: CMat,
    /// All usable template variants (base + ECC).
    pub variants: Vec<Template>,
}

/// The pre-synthesized template library.
#[derive(Debug, Clone, Default)]
pub struct TemplateLibrary {
    entries: HashMap<String, IrEntry>,
}

/// The built-in 3Q IRs of Type-I programs, as circuits on wires (0,1,2).
pub fn builtin_irs() -> Vec<(String, Circuit)> {
    let mk = |gates: Vec<Gate>| Circuit::from_gates(3, gates);
    vec![
        ("ccx".to_string(), mk(vec![Gate::Ccx(0, 1, 2)])),
        ("peres".to_string(), mk(vec![Gate::Peres(0, 1, 2)])),
        // MAJ of Cuccaro et al.: CX(2,1); CX(2,0); CCX(0,1,2).
        (
            "maj".to_string(),
            mk(vec![Gate::Cx(2, 1), Gate::Cx(2, 0), Gate::Ccx(0, 1, 2)]),
        ),
        // UMA (2-CNOT form): CCX(0,1,2); CX(2,0); CX(0,1).
        (
            "uma".to_string(),
            mk(vec![Gate::Ccx(0, 1, 2), Gate::Cx(2, 0), Gate::Cx(0, 1)]),
        ),
        // Controlled-SWAP (Fredkin).
        (
            "cswap".to_string(),
            mk(vec![Gate::Cx(2, 1), Gate::Ccx(0, 1, 2), Gate::Cx(2, 1)]),
        ),
    ]
}

impl TemplateLibrary {
    /// Builds a library by pre-synthesizing every IR in `irs` and deriving
    /// ECC variants. This is the paper's "pre-synthesis stage"; it runs
    /// once per (program suite, ISA).
    pub fn build(irs: &[(String, Circuit)], opts: &SearchOptions) -> Self {
        let mut entries = HashMap::new();
        for (name, circ) in irs {
            assert_eq!(circ.num_qubits(), 3, "IR '{name}' must be a 3Q circuit");
            let u = circ.unitary();
            let base = match synthesize(&u, 3, opts) {
                Some(c) => c,
                None => continue, // unsynthesizable IR: callers fall back
            };
            let mut variants = vec![Template {
                circuit: base.clone(),
                wire_perm: [0, 1, 2],
                reversed: false,
            }];
            // Control-bit permutability: wire permutations σ with
            // P_σ† U P_σ = U give alternative wire assignments (§5.2.2).
            for perm in wire_permutations() {
                if perm == [0, 1, 2] {
                    continue;
                }
                if unitary_invariant_under(&u, &perm) {
                    variants.push(Template {
                        circuit: permute_blocks(&base, &perm),
                        wire_perm: perm,
                        reversed: false,
                    });
                }
            }
            // Self-invertibility: U† = U (up to phase) lets the reversed,
            // daggered block sequence serve as another variant.
            if self_inverse(&u) {
                let base_variants: Vec<Template> = variants.clone();
                for t in base_variants {
                    let mut blocks: Vec<((usize, usize), CMat)> = t
                        .circuit
                        .blocks
                        .iter()
                        .rev()
                        .map(|(p, b)| (*p, b.adjoint()))
                        .collect();
                    // Keep the no-immediate-repeat invariant (it holds
                    // automatically under reversal).
                    blocks.dedup_by(|a, b| {
                        if a.0 == b.0 {
                            b.1 = a.1.mul_mat(&b.1);
                            true
                        } else {
                            false
                        }
                    });
                    variants.push(Template {
                        circuit: BlockCircuit { num_qubits: 3, blocks },
                        wire_perm: t.wire_perm,
                        reversed: true,
                    });
                }
            }
            entries.insert(name.clone(), IrEntry { unitary: u, variants });
        }
        Self { entries }
    }

    /// Builds the built-in library (CCX, Peres, MAJ, UMA, CSWAP).
    pub fn builtin(opts: &SearchOptions) -> Self {
        Self::build(&builtin_irs(), opts)
    }

    /// Looks up an IR by name.
    pub fn get(&self, name: &str) -> Option<&IrEntry> {
        self.entries.get(name)
    }

    /// Number of IRs in the library.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the library is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(name, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &IrEntry)> {
        self.entries.iter()
    }
}

fn wire_permutations() -> [[usize; 3]; 6] {
    [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ]
}

/// 8×8 permutation operator sending IR wire `i` to wire `perm[i]`.
fn perm_operator(perm: &[usize; 3]) -> CMat {
    let mut p = CMat::zeros(8, 8);
    for src in 0..8usize {
        let bits = [(src >> 2) & 1, (src >> 1) & 1, src & 1];
        let mut dst = 0usize;
        for (i, &b) in bits.iter().enumerate() {
            dst |= b << (2 - perm[i]);
        }
        p[(dst, src)] = reqisc_qmath::c64::ONE;
    }
    p
}

fn unitary_invariant_under(u: &CMat, perm: &[usize; 3]) -> bool {
    let p = perm_operator(perm);
    p.adjoint().mul_mat(u).mul_mat(&p).approx_eq(u, 1e-9)
}

fn self_inverse(u: &CMat) -> bool {
    let sq = u.mul_mat(u);
    let dim = sq.rows() as f64;
    (1.0 - sq.trace().abs() / dim) < 1e-9 && {
        // Ensure it's identity up to phase, not merely trace-aligned.
        let phase = sq.trace().unit();
        sq.approx_eq(&CMat::identity(sq.rows()).scale(phase), 1e-8)
    }
}

fn permute_blocks(base: &BlockCircuit, perm: &[usize; 3]) -> BlockCircuit {
    BlockCircuit {
        num_qubits: 3,
        blocks: base
            .blocks
            .iter()
            .map(|((a, b), g)| ((perm[*a], perm[*b]), g.clone()))
            .collect(),
    }
}

/// Verifies that a template reproduces `ir_unitary` up to global phase.
pub fn template_matches(t: &Template, ir_unitary: &CMat) -> bool {
    let u = t.circuit.unitary();
    let dim = u.rows() as f64;
    (1.0 - ir_unitary.hs_inner(&u).abs() / dim) < 1e-8
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> SearchOptions {
        // Smaller search budget for test speed; CCX-family IRs synthesize
        // comfortably within these limits.
        let mut o = SearchOptions::default();
        o.max_blocks = 6;
        o.sweep.restarts = 3;
        o.sweep.max_sweeps = 200;
        o
    }

    #[test]
    fn builtin_library_synthesizes_all_irs() {
        let lib = TemplateLibrary::builtin(&quick_opts());
        assert_eq!(lib.len(), 5, "all built-in IRs must synthesize");
        for (name, entry) in lib.iter() {
            assert!(!entry.variants.is_empty());
            for t in &entry.variants {
                assert!(
                    template_matches(t, &entry.unitary),
                    "variant of {name} (perm {:?}, rev {}) does not match",
                    t.wire_perm,
                    t.reversed
                );
            }
        }
    }

    #[test]
    fn ccx_has_control_permuted_and_reversed_variants() {
        let lib = TemplateLibrary::builtin(&quick_opts());
        let e = lib.get("ccx").unwrap();
        // CCX is invariant under swapping its two controls and is
        // self-inverse → at least base + perm + 2 reversed variants.
        assert!(
            e.variants.iter().any(|t| t.wire_perm == [1, 0, 2]),
            "missing control-swap variant"
        );
        assert!(e.variants.iter().any(|t| t.reversed), "missing reversed variant");
        assert!(e.variants.len() >= 4);
    }

    #[test]
    fn peres_is_not_self_inverse() {
        let lib = TemplateLibrary::builtin(&quick_opts());
        let e = lib.get("peres").unwrap();
        assert!(e.variants.iter().all(|t| !t.reversed));
    }

    #[test]
    fn ccx_template_beats_cnot_count() {
        let lib = TemplateLibrary::builtin(&quick_opts());
        let e = lib.get("ccx").unwrap();
        let min_blocks = e.variants.iter().map(|t| t.circuit.len()).min().unwrap();
        assert!(min_blocks <= 5, "CCX template has {min_blocks} blocks; 6-CNOT baseline");
    }

    #[test]
    fn perm_operator_is_permutation() {
        for perm in wire_permutations() {
            let p = perm_operator(&perm);
            assert!(p.is_unitary(1e-12));
        }
        // Explicit spot check: perm [1,0,2] swaps the first two wires.
        let p = perm_operator(&[1, 0, 2]);
        // |100> (wire0=1) → wire1=1 → |010>.
        assert!((p[(0b010, 0b100)].re - 1.0).abs() < 1e-15);
    }
}
