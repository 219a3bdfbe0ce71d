//! A compact textual circuit format ("QASM-lite").
//!
//! The artifact of the paper ships benchmark programs as QASM/JSON; this
//! module provides the equivalent serialization for our circuits so bench
//! outputs can be inspected, diffed, and re-loaded.
//!
//! Format: first line `qubits N`, then one gate per line,
//! `name q0 q1 … [params…]`, `#`-prefixed comments allowed.

use crate::circuit::{mcx_ccx_size, Circuit};
use crate::gate::Gate;
use reqisc_qmath::weyl::WeylCoord;
use reqisc_qmath::KAK_UNITARY_TOL;
use std::fmt::Write as _;

/// Serializes a circuit to QASM-lite.
///
/// [`Gate::Su4`] gates are emitted as their 16 complex entries on one line;
/// everything else uses its mnemonic and parameters.
pub fn emit(c: &Circuit) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "qubits {}", c.num_qubits());
    for g in c.gates() {
        match g {
            Gate::Rx(q, t) | Gate::Ry(q, t) | Gate::Rz(q, t) => {
                let _ = writeln!(s, "{} {} {:.17e}", g.name(), q, t);
            }
            Gate::U3(q, t, p, l) => {
                let _ = writeln!(s, "u3 {} {:.17e} {:.17e} {:.17e}", q, t, p, l);
            }
            Gate::Rzz(a, b, t) => {
                let _ = writeln!(s, "rzz {} {} {:.17e}", a, b, t);
            }
            Gate::Can(a, b, w) => {
                let _ = writeln!(s, "can {} {} {:.17e} {:.17e} {:.17e}", a, b, w.x, w.y, w.z);
            }
            Gate::Su4(a, b, m) => {
                let _ = write!(s, "su4 {} {}", a, b);
                for i in 0..4 {
                    for j in 0..4 {
                        let v = m[(i, j)];
                        let _ = write!(s, " {:.17e} {:.17e}", v.re, v.im);
                    }
                }
                let _ = writeln!(s);
            }
            Gate::Mcx(cs, t) => {
                let _ = write!(s, "mcx");
                for q in cs {
                    let _ = write!(s, " {}", q);
                }
                let _ = writeln!(s, " {}", t);
            }
            other => {
                let _ = write!(s, "{}", other.name());
                for q in other.qubits() {
                    let _ = write!(s, " {}", q);
                }
                let _ = writeln!(s);
            }
        }
    }
    s
}

/// Error from [`parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParseQasmError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseQasmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseQasmError {}

/// Input bounds for [`parse_bounded`] — the service-boundary guard rails.
/// A compile service accepting QASM from untrusted callers must bound
/// what it agrees to *compile*: a 40-qubit header would make the first
/// `unitary()` allocate 2⁸⁰ complex entries. The header is checked
/// before any gate line is read, and parsing stops at the first gate over
/// the limit; the raw *input size* must still be bounded by the
/// transport — the service caps request lines at `MAX_REQUEST_LINE_BYTES`
/// before any text reaches this function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum accepted `qubits N` header value.
    pub max_qubits: usize,
    /// Maximum accepted gate count at the CCX level, the IR the ReQISC
    /// pipelines consume: an `mcx` with k ≥ 3 controls counts 4k − 8 (the
    /// CCXs it lowers to), every other gate 1.
    pub max_gates: usize,
}

impl Default for ParseLimits {
    /// The compile service's bounds: 16 qubits (the demo suite's ceiling
    /// with headroom) and 10 000 gates at the CCX level. The largest suite
    /// program within 16 qubits has 8 000; at the ~12.7 ms per gate a
    /// 16-qubit `reqisc-full` compile was measured to cost, 10 000 gates
    /// hold a solve worker for about two minutes.
    fn default() -> Self {
        Self { max_qubits: 16, max_gates: 10_000 }
    }
}

/// [`parse`] with explicit input bounds: rejects an over-wide `qubits N`
/// header (on its line) before reading any gate, and stops at the first
/// gate that takes the circuit over [`ParseLimits::max_gates`] at the CCX
/// level (on that gate's line), instead of building an oversized circuit.
///
/// # Errors
///
/// [`ParseQasmError`] on malformed input or a violated limit.
pub fn parse_bounded(text: &str, limits: &ParseLimits) -> Result<Circuit, ParseQasmError> {
    parse_within(text, limits)
}

/// Parses QASM-lite text produced by [`emit`].
///
/// # Errors
///
/// Returns [`ParseQasmError`] on malformed headers, unknown mnemonics, bad
/// operands (out-of-range or repeated qubits, non-finite floats), a `su4`
/// matrix that is not unitary within [`KAK_UNITARY_TOL`], or an `mcx` with
/// k ≥ 3 controls whose register lacks the k − 2 other qubits its lowering
/// borrows as ancillas.
pub fn parse(text: &str) -> Result<Circuit, ParseQasmError> {
    parse_within(text, &ParseLimits { max_qubits: usize::MAX, max_gates: usize::MAX })
}

fn parse_within(text: &str, limits: &ParseLimits) -> Result<Circuit, ParseQasmError> {
    let err = |line: usize, message: &str| ParseQasmError { line, message: message.to_string() };
    let mut lines = text.lines().enumerate();
    let (mut ln, mut header) = (0usize, "");
    for (i, l) in lines.by_ref() {
        let l = l.trim();
        if l.is_empty() || l.starts_with('#') {
            continue;
        }
        ln = i + 1;
        header = l;
        break;
    }
    let n: usize = header
        .strip_prefix("qubits ")
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| err(ln, "expected 'qubits N' header"))?;
    if n > limits.max_qubits {
        return Err(err(ln, &format!("{n} qubits exceeds the limit of {}", limits.max_qubits)));
    }
    let mut c = Circuit::new(n);
    // The circuit's size at the CCX level, the unit of `max_gates`.
    let mut size = 0usize;
    for (i, raw) in lines {
        let line = i + 1;
        let l = raw.trim();
        if l.is_empty() || l.starts_with('#') {
            continue;
        }
        let mut tok = l.split_whitespace();
        let name = tok.next().unwrap();
        let rest: Vec<&str> = tok.collect();
        let q = |k: usize| -> Result<usize, ParseQasmError> {
            rest.get(k)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| err(line, "bad qubit operand"))
        };
        // Non-finite operands (`nan`, `inf`) are rejected here: every
        // pipeline's eigen/SVD kernels assume finite unitaries.
        let f = |k: usize| -> Result<f64, ParseQasmError> {
            rest.get(k)
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|x| x.is_finite())
                .ok_or_else(|| err(line, "bad float operand"))
        };
        let g = match name {
            "x" => Gate::X(q(0)?),
            "y" => Gate::Y(q(0)?),
            "z" => Gate::Z(q(0)?),
            "h" => Gate::H(q(0)?),
            "s" => Gate::S(q(0)?),
            "sdg" => Gate::Sdg(q(0)?),
            "t" => Gate::T(q(0)?),
            "tdg" => Gate::Tdg(q(0)?),
            "rx" => Gate::Rx(q(0)?, f(1)?),
            "ry" => Gate::Ry(q(0)?, f(1)?),
            "rz" => Gate::Rz(q(0)?, f(1)?),
            "u3" => Gate::U3(q(0)?, f(1)?, f(2)?, f(3)?),
            "cx" => Gate::Cx(q(0)?, q(1)?),
            "cz" => Gate::Cz(q(0)?, q(1)?),
            "swap" => Gate::Swap(q(0)?, q(1)?),
            "iswap" => Gate::ISwap(q(0)?, q(1)?),
            "sqisw" => Gate::SqiSw(q(0)?, q(1)?),
            "b" => Gate::BGate(q(0)?, q(1)?),
            "rzz" => Gate::Rzz(q(0)?, q(1)?, f(2)?),
            "can" => Gate::Can(q(0)?, q(1)?, WeylCoord::new(f(2)?, f(3)?, f(4)?)),
            "su4" => {
                if rest.len() != 2 + 32 {
                    return Err(err(line, "su4 expects 2 qubits + 32 floats"));
                }
                let mut m = reqisc_qmath::CMat::zeros(4, 4);
                for i2 in 0..4 {
                    for j2 in 0..4 {
                        let base = 2 + 2 * (i2 * 4 + j2);
                        m[(i2, j2)] = reqisc_qmath::C64::new(f(base)?, f(base + 1)?);
                    }
                }
                // The tolerance the KAK decomposition demands: a matrix it
                // rejects would be priced as the identity class.
                if !m.is_unitary(KAK_UNITARY_TOL) {
                    return Err(err(line, "su4 matrix is not unitary"));
                }
                Gate::Su4(q(0)?, q(1)?, Box::new(m))
            }
            "ccx" => Gate::Ccx(q(0)?, q(1)?, q(2)?),
            "peres" => Gate::Peres(q(0)?, q(1)?, q(2)?),
            "mcx" => {
                if rest.len() < 2 {
                    return Err(err(line, "mcx expects at least control+target"));
                }
                let mut qs = Vec::with_capacity(rest.len());
                for k in 0..rest.len() {
                    qs.push(q(k)?);
                }
                let t = qs.pop().unwrap();
                Gate::Mcx(qs, t)
            }
            other => return Err(err(line, &format!("unknown gate '{other}'"))),
        };
        let qs = g.qubits();
        for (k, &qq) in qs.iter().enumerate() {
            if qq >= n {
                return Err(err(line, "qubit index out of range"));
            }
            if qs[..k].contains(&qq) {
                return Err(err(line, &format!("gate {} repeats qubit {qq}", g.name())));
            }
        }
        let cost = match &g {
            Gate::Mcx(cs, _) => {
                let (k, idle) = (cs.len(), n - qs.len());
                if k >= 3 && idle < k - 2 {
                    let needs = format!("mcx with {k} controls needs {} ancillas", k - 2);
                    return Err(err(line, &format!("{needs}, register has {idle}")));
                }
                mcx_ccx_size(k)
            }
            _ => 1,
        };
        size += cost;
        if size > limits.max_gates {
            let over = format!("gate {size} exceeds the limit of {} gates", limits.max_gates);
            let msg = if cost > 1 { format!("mcx lowers to {cost} gates; {over}") } else { over };
            return Err(err(line, &msg));
        }
        c.push(g);
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reqisc_qmath::gates::b_gate;

    fn sample() -> Circuit {
        // Five qubits: the 3-control `mcx` borrows qubit 4 as its ancilla.
        let mut c = Circuit::new(5);
        c.push(Gate::H(0));
        c.push(Gate::U3(1, 0.1, -0.2, 0.3));
        c.push(Gate::Cx(0, 1));
        c.push(Gate::Rzz(1, 2, 0.7));
        c.push(Gate::Can(2, 3, WeylCoord::new(0.3, 0.2, -0.1)));
        c.push(Gate::Su4(0, 3, Box::new(b_gate())));
        c.push(Gate::Ccx(0, 1, 2));
        c.push(Gate::Mcx(vec![0, 1, 2], 3));
        c
    }

    #[test]
    fn roundtrip() {
        let c = sample();
        let text = emit(&c);
        let back = parse(&text).expect("parse");
        assert_eq!(back.num_qubits(), 5);
        assert_eq!(back.len(), c.len());
        // Structural equality gate by gate.
        for (a, b) in c.gates().iter().zip(back.gates()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.qubits(), b.qubits());
        }
        // Unitary equality (captures parameters and matrices exactly).
        assert!(back.unitary().approx_eq(&c.unitary(), 1e-12));
    }

    #[test]
    fn comments_and_blank_lines() {
        let text = "# a comment\n\nqubits 2\n# another\nh 0\ncx 0 1\n";
        let c = parse(text).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn rejects_unknown_gate() {
        let e = parse("qubits 1\nfrobnicate 0\n").unwrap_err();
        assert!(e.message.contains("unknown gate"));
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(parse("qubits 1\ncx 0 1\n").is_err());
    }

    #[test]
    fn rejects_missing_header() {
        assert!(parse("h 0\n").is_err());
    }

    #[test]
    fn rejects_non_finite_float_operands() {
        for text in [
            "qubits 2\nrz 1 nan\n",
            "qubits 2\nrx 0 inf\n",
            "qubits 2\nh 0\nu3 1 0.1 -inf 0.3\n",
            "qubits 2\nrzz 0 1 NaN\n",
            "qubits 2\ncan 0 1 0.3 infinity 0.1\n",
        ] {
            let e = parse(text).unwrap_err();
            assert_eq!(e.message, "bad float operand", "{text:?}");
            assert_eq!(e.line, text.lines().count(), "{text:?}");
        }
        let mut su4 = String::from("qubits 2\nsu4 0 1");
        for k in 0..32 {
            su4.push_str(if k == 5 { " nan" } else { " 0.0" });
        }
        assert_eq!(parse(&su4).unwrap_err().message, "bad float operand");
        // Finite spellings still parse, including exponents and signs.
        assert_eq!(parse("qubits 1\nrz 0 -7.5e-1\nrx 0 +1e300\n").unwrap().len(), 2);
    }

    fn su4_line(qubits: &str, m: &reqisc_qmath::CMat) -> String {
        let mut line = format!("su4 {qubits}");
        for z in m.as_slice() {
            line.push_str(&format!(" {:.17e} {:.17e}", z.re, z.im));
        }
        line
    }

    #[test]
    fn rejects_repeated_qubits() {
        let su4 = su4_line("1 1", &reqisc_qmath::CMat::identity(4));
        for (text, gate, q) in [
            ("qubits 2\ncx 0 0\n".to_string(), "cx", 0),
            ("qubits 2\nh 0\nswap 1 1\n".to_string(), "swap", 1),
            ("qubits 2\ncan 1 1 0.3 0.2 0.1\n".to_string(), "can", 1),
            (format!("qubits 2\n{su4}\n"), "su4", 1),
            ("qubits 3\nccx 0 1 0\n".to_string(), "ccx", 0),
            ("qubits 3\nperes 2 1 2\n".to_string(), "peres", 2),
            ("qubits 4\nmcx 0 1 2 1\n".to_string(), "mcx", 1),
        ] {
            let e = parse(&text).unwrap_err();
            assert_eq!(e.message, format!("gate {gate} repeats qubit {q}"), "{text:?}");
            assert_eq!(e.line, text.lines().count(), "{text:?}");
        }
    }

    #[test]
    fn rejects_non_unitary_su4() {
        use reqisc_qmath::{C64, CMat};
        for m in [CMat::zeros(4, 4), CMat::identity(4).scale(C64::real(2.0))] {
            let text = format!("qubits 2\nh 0\n{}\n", su4_line("0 1", &m));
            let e = parse(&text).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), (3, "su4 matrix is not unitary"));
        }
        // An emitted product of rotations, as synthesis leaves it, parses
        // back bit for bit.
        let block = reqisc_qmath::gates::canonical_gate(0.3, 0.2, -0.1)
            .mul_mat(&reqisc_qmath::gates::u3(0.4, -1.2, 2.2).kron(&reqisc_qmath::gates::rx(0.7)));
        let mut c = Circuit::new(2);
        c.push(Gate::Su4(1, 0, Box::new(block.clone())));
        let back = parse(&emit(&c)).expect("emitted su4 parses");
        match &back.gates()[0] {
            Gate::Su4(1, 0, m) => assert_eq!(**m, block),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bounded_parse_checks_the_header_before_any_gate() {
        let limits = ParseLimits { max_qubits: 4, max_gates: 100 };
        let e = parse_bounded("# wide\nqubits 100000\nh 0\nfrobnicate 0\n", &limits).unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (2, "100000 qubits exceeds the limit of 4"));
        assert_eq!(parse_bounded("qubits 4\ncx 0 3\n", &limits).unwrap().len(), 1);
    }

    #[test]
    fn bounded_parse_stops_at_the_first_gate_over_the_limit() {
        let limits = ParseLimits { max_qubits: 2, max_gates: 2 };
        let text = "qubits 2\nh 0\n# comment\n\ncx 0 1\nh 1\nfrobnicate 0\n";
        let e = parse_bounded(text, &limits).unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (6, "gate 3 exceeds the limit of 2 gates"));
        assert_eq!(parse_bounded("qubits 2\nh 0\ncx 0 1\n# end\n", &limits).unwrap().len(), 2);
    }

    #[test]
    fn bounded_parse_charges_an_mcx_the_ccxs_it_lowers_to() {
        // 8 controls lower to 24 CCXs: 416 lines fit in 10 000 gates, and
        // the 417th (on line 418) takes the body to 10 008.
        let body = |lines: usize| format!("qubits 16\n{}", "mcx 0 1 2 3 4 5 6 7 8\n".repeat(lines));
        let limits = ParseLimits::default();
        let e = parse_bounded(&body(10_000), &limits).unwrap_err();
        let over = "mcx lowers to 24 gates; gate 10008 exceeds the limit of 10000 gates";
        assert_eq!((e.line, e.message.as_str()), (418, over));
        assert_eq!(parse_bounded(&body(416), &limits).unwrap().len(), 416);
        // Up to two controls an mcx is one gate.
        let small = format!("qubits 3\n{}", "mcx 0 1 2\n".repeat(10_000));
        assert_eq!(parse_bounded(&small, &limits).unwrap().len(), 10_000);
    }

    #[test]
    fn rejects_an_mcx_without_room_for_its_ancillas() {
        let want = (2, "mcx with 3 controls needs 1 ancillas, register has 0");
        let e = parse("qubits 4\nmcx 0 1 2 3\n").unwrap_err();
        assert_eq!((e.line, e.message.as_str()), want);
        let e = parse_bounded("qubits 4\nmcx 0 1 2 3\n", &ParseLimits::default()).unwrap_err();
        assert_eq!((e.line, e.message.as_str()), want);
        assert_eq!(parse("qubits 5\nmcx 0 1 2 3\n").unwrap().len(), 1);
    }
}
