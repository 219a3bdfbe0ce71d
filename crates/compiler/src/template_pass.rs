//! Program-aware template-based synthesis (paper §5.2.2, Fig. 10).
//!
//! Matches the 3Q IRs of Type-I programs — explicit `Ccx`/`Peres` gates
//! plus the MAJ/UMA/CSWAP gate-sequence patterns — and replaces each with a
//! pre-synthesized SU(4) template, *selectively assembling* ECC variants so
//! that adjacent templates share a qubit pair and fuse.

use crate::fuse::fuse_2q;
use reqisc_qcircuit::{Circuit, Gate};
use reqisc_synthesis::{Template, TemplateLibrary};

/// A matched IR occurrence in the gate stream.
#[derive(Debug, Clone)]
struct Match {
    /// IR name in the library.
    name: &'static str,
    /// Actual qubits carrying IR wires 0, 1, 2.
    qubits: [usize; 3],
    /// How many gates of the stream this match consumes.
    span: usize,
}

/// Tries to match an IR starting at `gates[i]`.
///
/// Sequence patterns (MAJ/UMA/CSWAP) must be consecutive in the gate list —
/// our benchmark generators emit them that way, and the matcher is a
/// peephole by design (a full DAG matcher would only widen coverage).
fn match_ir(gates: &[Gate], i: usize) -> Option<Match> {
    match &gates[i] {
        Gate::Ccx(a, b, c) => {
            // Peres fusion: CCX(a,b,c) followed immediately by CX(a,b).
            if let Some(Gate::Cx(x, y)) = gates.get(i + 1) {
                if x == a && y == b {
                    return Some(Match { name: "peres", qubits: [*a, *b, *c], span: 2 });
                }
            }
            Some(Match { name: "ccx", qubits: [*a, *b, *c], span: 1 })
        }
        Gate::Peres(a, b, c) => Some(Match { name: "peres", qubits: [*a, *b, *c], span: 1 }),
        Gate::Cx(c1, b) => {
            // MAJ(a,b,c) = CX(c,b); CX(c,a); CCX(a,b,c).
            if let (Some(Gate::Cx(c2, a)), Some(Gate::Ccx(a2, b2, c3))) =
                (gates.get(i + 1), gates.get(i + 2))
            {
                if c1 == c2 && a2 == a && b2 == b && c3 == c1 && a != b {
                    return Some(Match { name: "maj", qubits: [*a, *b, *c1], span: 3 });
                }
            }
            // CSWAP(a,b,c) = CX(c,b); CCX(a,b,c); CX(c,b).
            if let (Some(Gate::Ccx(a2, b2, c2)), Some(Gate::Cx(c3, b3))) =
                (gates.get(i + 1), gates.get(i + 2))
            {
                if b2 == b && c2 == c1 && c3 == c1 && b3 == b && a2 != b {
                    return Some(Match { name: "cswap", qubits: [*a2, *b, *c1], span: 3 });
                }
            }
            None
        }
        _ => {
            // UMA(a,b,c) = CCX(a,b,c); CX(c,a); CX(a,b) — starts with CCX,
            // so it is found through the Ccx arm below via lookahead.
            None
        }
    }
}

/// Extended CCX lookahead: UMA(a,b,c) = CCX; CX(c,a); CX(a,b).
fn match_uma(gates: &[Gate], i: usize) -> Option<Match> {
    if let Gate::Ccx(a, b, c) = &gates[i] {
        if let (Some(Gate::Cx(c2, a2)), Some(Gate::Cx(a3, b3))) =
            (gates.get(i + 1), gates.get(i + 2))
        {
            if c2 == c && a2 == a && a3 == a && b3 == b {
                return Some(Match { name: "uma", qubits: [*a, *b, *c], span: 3 });
            }
        }
    }
    None
}

/// Runs template-based synthesis over a CCX-level circuit.
///
/// Unmatched gates (CX, 1Q rotations, …) pass through untouched and are
/// merged into neighbouring SU(4)s by the final fusion pass.
pub fn template_synthesis(c: &Circuit, lib: &TemplateLibrary) -> Circuit {
    let lowered = c.lowered_to_ccx();
    let gates = lowered.gates();
    let mut out = Circuit::new(c.num_qubits());
    // Last emitted SU(4) pair per qubit (for selective assembly).
    let mut last_pair: Option<(usize, usize)> = None;
    let mut i = 0usize;
    while i < gates.len() {
        let m = match_uma(gates, i).or_else(|| match_ir(gates, i));
        match m {
            Some(m) if lib.get(m.name).is_some() => {
                let entry = lib.get(m.name).unwrap();
                let t = select_variant(&entry.variants, &m.qubits, last_pair);
                for ((la, lb), blk) in &t.circuit.blocks {
                    let (ga, gb) = (m.qubits[*la], m.qubits[*lb]);
                    out.push(Gate::Su4(ga, gb, Box::new(blk.clone())));
                    last_pair = Some(sorted(ga, gb));
                }
                i += m.span;
            }
            _ => {
                let g = &gates[i];
                if g.is_2q() {
                    let q = g.qubits();
                    last_pair = Some(sorted(q[0], q[1]));
                }
                out.push(g.clone());
                i += 1;
            }
        }
    }
    fuse_2q(&out)
}

fn sorted(a: usize, b: usize) -> (usize, usize) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Selective assembly: prefer the ECC variant whose first block lands on
/// the most recently emitted SU(4) pair (it will fuse), breaking ties by
/// block count.
fn select_variant<'a>(
    variants: &'a [Template],
    qubits: &[usize; 3],
    last_pair: Option<(usize, usize)>,
) -> &'a Template {
    let score = |t: &Template| -> (i32, usize) {
        let fusion = match (t.first_pair(), last_pair) {
            (Some((la, lb)), Some(lp)) => {
                let actual = sorted(qubits[la], qubits[lb]);
                i32::from(actual == lp)
            }
            _ => 0,
        };
        (fusion, t.circuit.len())
    };
    variants
        .iter()
        .min_by(|a, b| {
            let (fa, ca) = score(a);
            let (fb, cb) = score(b);
            // Higher fusion first, then fewer blocks.
            fb.cmp(&fa).then(ca.cmp(&cb))
        })
        .expect("non-empty variant list")
}

#[cfg(test)]
mod tests {
    use super::*;
    use reqisc_qsim::process_infidelity;
    use reqisc_synthesis::SearchOptions;
    use std::sync::OnceLock;

    fn lib() -> &'static TemplateLibrary {
        static LIB: OnceLock<TemplateLibrary> = OnceLock::new();
        LIB.get_or_init(|| {
            let mut o = SearchOptions::default();
            o.sweep.restarts = 3;
            TemplateLibrary::builtin(&o)
        })
    }

    fn check_equiv(a: &Circuit, b: &Circuit) {
        let inf = process_infidelity(&a.unitary(), &b.unitary());
        assert!(inf < 1e-7, "not equivalent: infidelity {inf}");
    }

    #[test]
    fn single_ccx_uses_template() {
        let mut c = Circuit::new(3);
        c.push(Gate::Ccx(0, 1, 2));
        let t = template_synthesis(&c, lib());
        assert!(t.count_2q() <= 5, "CCX as {} SU(4)s", t.count_2q());
        check_equiv(&c, &t);
    }

    #[test]
    fn consecutive_toffolis_fuse_via_ecc() {
        // Fig. 10: adjacent Toffoli/Peres sharing qubits: selective
        // assembly buys at least one fusion.
        let mut c = Circuit::new(3);
        c.push(Gate::Ccx(0, 1, 2));
        c.push(Gate::Peres(0, 1, 2));
        let t = template_synthesis(&c, lib());
        let naive = 2 * 5;
        assert!(t.count_2q() < naive, "no fusion: {}", t.count_2q());
        check_equiv(&c, &t);
    }

    #[test]
    fn maj_pattern_matched() {
        let mut c = Circuit::new(3);
        c.push(Gate::Cx(2, 1));
        c.push(Gate::Cx(2, 0));
        c.push(Gate::Ccx(0, 1, 2));
        let t = template_synthesis(&c, lib());
        // MAJ as one template ≤ 5 SU(4)s (vs 8 CNOTs lowered).
        assert!(t.count_2q() <= 5, "MAJ as {}", t.count_2q());
        check_equiv(&c, &t);
    }

    #[test]
    fn uma_pattern_matched() {
        let mut c = Circuit::new(3);
        c.push(Gate::Ccx(0, 1, 2));
        c.push(Gate::Cx(2, 0));
        c.push(Gate::Cx(0, 1));
        let t = template_synthesis(&c, lib());
        assert!(t.count_2q() <= 5, "UMA as {}", t.count_2q());
        check_equiv(&c, &t);
    }

    #[test]
    fn cswap_pattern_matched() {
        let mut c = Circuit::new(3);
        c.push(Gate::Cx(2, 1));
        c.push(Gate::Ccx(0, 1, 2));
        c.push(Gate::Cx(2, 1));
        let t = template_synthesis(&c, lib());
        assert!(t.count_2q() <= 6, "CSWAP as {}", t.count_2q());
        check_equiv(&c, &t);
    }

    #[test]
    fn plain_gates_pass_through() {
        let mut c = Circuit::new(3);
        c.push(Gate::H(0));
        c.push(Gate::Cx(0, 1));
        c.push(Gate::T(1));
        let t = template_synthesis(&c, lib());
        check_equiv(&c, &t);
        assert!(t.count_2q() <= 1);
    }

    #[test]
    fn mcx_is_lowered_first() {
        let mut c = Circuit::new(5);
        c.push(Gate::Mcx(vec![0, 1, 2], 3));
        let t = template_synthesis(&c, lib());
        check_equiv(&c, &t);
        // 6 CCX → ≤ 30 SU(4)s; in practice far fewer after fusion.
        assert!(t.count_2q() <= 30);
    }
}
