//! The standard gate library: 1Q rotations and the named 2Q gates used
//! throughout the paper, plus the canonical gate `Can(x, y, z)`.
//!
//! Convention (paper Eq. (1)): `Can(x, y, z) = e^{-i(x·XX + y·YY + z·ZZ)}`,
//! so `CNOT ~ Can(π/4, 0, 0)`, `iSWAP ~ Can(π/4, π/4, 0)`,
//! `SWAP ~ Can(π/4, π/4, π/4)` and `B ~ Can(π/4, π/8, 0)`.

use crate::c64::{C64, I, ONE, ZERO};
use crate::fixed::to_cmat;
use crate::mat::CMat;
use std::f64::consts::{FRAC_PI_4, FRAC_PI_8, SQRT_2};

/// 2×2 identity.
pub fn id2() -> CMat {
    CMat::identity(2)
}

/// Pauli X.
pub fn pauli_x() -> CMat {
    to_cmat(&array::pauli_x())
}

/// Pauli Y.
pub fn pauli_y() -> CMat {
    to_cmat(&array::pauli_y())
}

/// Pauli Z.
pub fn pauli_z() -> CMat {
    to_cmat(&array::pauli_z())
}

/// Hadamard.
pub fn hadamard() -> CMat {
    to_cmat(&array::hadamard())
}

/// Phase gate S = diag(1, i).
pub fn s_gate() -> CMat {
    to_cmat(&array::s_gate())
}

/// S† = diag(1, -i).
pub fn sdg_gate() -> CMat {
    to_cmat(&array::sdg_gate())
}

/// T = diag(1, e^{iπ/4}).
pub fn t_gate() -> CMat {
    CMat::from_slice(2, 2, &[ONE, ZERO, ZERO, C64::cis(FRAC_PI_4)])
}

/// T† = diag(1, e^{-iπ/4}).
pub fn tdg_gate() -> CMat {
    CMat::from_slice(2, 2, &[ONE, ZERO, ZERO, C64::cis(-FRAC_PI_4)])
}

/// X-rotation `Rx(θ) = e^{-iθX/2}`.
pub fn rx(theta: f64) -> CMat {
    to_cmat(&array::rx(theta))
}

/// Y-rotation `Ry(θ) = e^{-iθY/2}`.
pub fn ry(theta: f64) -> CMat {
    let (s, c) = (theta / 2.0).sin_cos();
    CMat::from_slice(
        2,
        2,
        &[C64::real(c), C64::real(-s), C64::real(s), C64::real(c)],
    )
}

/// Z-rotation `Rz(θ) = e^{-iθZ/2}`.
pub fn rz(theta: f64) -> CMat {
    CMat::from_slice(
        2,
        2,
        &[C64::cis(-theta / 2.0), ZERO, ZERO, C64::cis(theta / 2.0)],
    )
}

/// The generic 1Q gate
/// `U3(θ, φ, λ) = [[cos(θ/2), -e^{iλ}sin(θ/2)], [e^{iφ}sin(θ/2), e^{i(φ+λ)}cos(θ/2)]]`.
pub fn u3(theta: f64, phi: f64, lambda: f64) -> CMat {
    let (s, c) = (theta / 2.0).sin_cos();
    CMat::from_slice(
        2,
        2,
        &[
            C64::real(c),
            -C64::cis(lambda).scale(s),
            C64::cis(phi).scale(s),
            C64::cis(phi + lambda).scale(c),
        ],
    )
}

/// CNOT (control = qubit 0, target = qubit 1 in big-endian index order).
pub fn cnot() -> CMat {
    CMat::from_real(
        4,
        4,
        &[
            1.0, 0.0, 0.0, 0.0, //
            0.0, 1.0, 0.0, 0.0, //
            0.0, 0.0, 0.0, 1.0, //
            0.0, 0.0, 1.0, 0.0,
        ],
    )
}

/// Controlled-Z.
pub fn cz() -> CMat {
    CMat::from_real(
        4,
        4,
        &[
            1.0, 0.0, 0.0, 0.0, //
            0.0, 1.0, 0.0, 0.0, //
            0.0, 0.0, 1.0, 0.0, //
            0.0, 0.0, 0.0, -1.0,
        ],
    )
}

/// SWAP.
pub fn swap() -> CMat {
    CMat::from_real(
        4,
        4,
        &[
            1.0, 0.0, 0.0, 0.0, //
            0.0, 0.0, 1.0, 0.0, //
            0.0, 1.0, 0.0, 0.0, //
            0.0, 0.0, 0.0, 1.0,
        ],
    )
}

/// iSWAP.
pub fn iswap() -> CMat {
    CMat::from_slice(
        4,
        4,
        &[
            ONE, ZERO, ZERO, ZERO, //
            ZERO, ZERO, I, ZERO, //
            ZERO, I, ZERO, ZERO, //
            ZERO, ZERO, ZERO, ONE,
        ],
    )
}

/// `SQiSW = √iSWAP`, the gate of Huang et al. (coords `(π/8, π/8, 0)`).
pub fn sqisw() -> CMat {
    let r = C64::real(1.0 / SQRT_2);
    let ir = I.scale(1.0 / SQRT_2);
    CMat::from_slice(
        4,
        4,
        &[
            ONE, ZERO, ZERO, ZERO, //
            ZERO, r, ir, ZERO, //
            ZERO, ir, r, ZERO, //
            ZERO, ZERO, ZERO, ONE,
        ],
    )
}

/// The B gate of Zhang et al. (coords `(π/4, π/8, 0)`).
pub fn b_gate() -> CMat {
    canonical_gate(FRAC_PI_4, FRAC_PI_8, 0.0)
}

/// The ECP gate (coords `(π/4, π/8, π/8)`).
pub fn ecp_gate() -> CMat {
    canonical_gate(FRAC_PI_4, FRAC_PI_8, FRAC_PI_8)
}

/// The canonical gate `Can(x, y, z) = e^{-i(x·XX + y·YY + z·ZZ)}`.
///
/// Because `XX`, `YY`, `ZZ` commute, the exponential factors into three
/// closed-form rotations; this construction is exact (no iterative solver).
///
/// # Examples
///
/// ```
/// use reqisc_qmath::gates::{canonical_gate, swap};
/// use std::f64::consts::FRAC_PI_4;
/// let g = canonical_gate(FRAC_PI_4, FRAC_PI_4, FRAC_PI_4);
/// // SWAP = e^{iπ/4} · Can(π/4, π/4, π/4)
/// let diff = g.scale(reqisc_qmath::C64::cis(FRAC_PI_4)).max_dist(&swap());
/// assert!(diff < 1e-12);
/// ```
pub fn canonical_gate(x: f64, y: f64, z: f64) -> CMat {
    to_cmat(&array::canonical_gate(x, y, z))
}

/// The gates the KAK path multiplies by, as stack arrays; the `CMat`
/// constructors above wrap these.
pub(crate) mod array {
    use crate::c64::{C64, I, ONE, ZERO};
    use crate::fixed::{self, Mat};
    use std::f64::consts::SQRT_2;

    pub fn pauli_x() -> Mat<2> {
        [[C64::real(0.0), C64::real(1.0)], [C64::real(1.0), C64::real(0.0)]]
    }

    pub fn pauli_y() -> Mat<2> {
        [[ZERO, -I], [I, ZERO]]
    }

    pub fn pauli_z() -> Mat<2> {
        [[C64::real(1.0), C64::real(0.0)], [C64::real(0.0), C64::real(-1.0)]]
    }

    pub fn hadamard() -> Mat<2> {
        let m = [[C64::real(1.0), C64::real(1.0)], [C64::real(1.0), C64::real(-1.0)]];
        fixed::scale(&m, C64::real(1.0 / SQRT_2))
    }

    pub fn s_gate() -> Mat<2> {
        [[ONE, ZERO], [ZERO, I]]
    }

    pub fn sdg_gate() -> Mat<2> {
        [[ONE, ZERO], [ZERO, -I]]
    }

    pub fn rx(theta: f64) -> Mat<2> {
        let (s, c) = (theta / 2.0).sin_cos();
        [[C64::real(c), C64::imag(-s)], [C64::imag(-s), C64::real(c)]]
    }

    pub fn canonical_gate(x: f64, y: f64, z: f64) -> Mat<4> {
        let xx = fixed::kron(&pauli_x(), &pauli_x());
        let yy = fixed::kron(&pauli_y(), &pauli_y());
        let zz = fixed::kron(&pauli_z(), &pauli_z());
        let rot = |p: &Mat<4>, t: f64| -> Mat<4> {
            // e^{-i t P} = cos(t) I - i sin(t) P for P² = I.
            let (s, c) = t.sin_cos();
            let a = fixed::scale(&fixed::identity::<4>(), C64::real(c));
            let b = fixed::scale(p, C64::imag(-s));
            std::array::from_fn(|i| std::array::from_fn(|j| a[i][j] + b[i][j]))
        };
        fixed::mul(&fixed::mul(&rot(&xx, x), &rot(&yy, y)), &rot(&zz, z))
    }
}

/// Decomposes a 2×2 unitary as `U = e^{iγ}·U3(θ, φ, λ)`, returning
/// `(θ, φ, λ, γ)`.
///
/// # Panics
///
/// Panics if `u` is not 2×2 unitary within `1e-8`.
///
/// # Examples
///
/// ```
/// use reqisc_qmath::gates::{hadamard, u3, zyz_decompose};
/// use reqisc_qmath::C64;
/// let (t, p, l, g) = zyz_decompose(&hadamard());
/// let rec = u3(t, p, l).scale(C64::cis(g));
/// assert!(rec.approx_eq(&hadamard(), 1e-12));
/// ```
pub fn zyz_decompose(u: &CMat) -> (f64, f64, f64, f64) {
    /// Amplitude below which a matrix entry is treated as exactly zero
    /// when choosing the θ = π branch and resolving phase ambiguities.
    const ZYZ_ZERO_TOL: f64 = 1e-9;
    assert!(u.rows() == 2 && u.is_unitary(1e-8), "zyz expects a 2x2 unitary");
    let a = u[(0, 0)];
    let c = u[(1, 0)];
    let theta = 2.0 * c.abs().atan2(a.abs());
    if a.abs() > ZYZ_ZERO_TOL {
        let gamma = a.arg();
        let phi = if c.abs() > ZYZ_ZERO_TOL { c.arg() - gamma } else { 0.0 };
        let b = u[(0, 1)];
        let lambda = if b.abs() > ZYZ_ZERO_TOL { (-b).arg() - gamma } else { u[(1, 1)].arg() - gamma - phi };
        (theta, phi, lambda, gamma)
    } else {
        // θ = π: U = e^{iγ}[[0, -e^{iλ}], [e^{iφ}, 0]]; split freely (γ=0).
        let phi = c.arg();
        let lambda = (-u[(0, 1)]).arg();
        (theta, phi, lambda, 0.0)
    }
}

/// Embeds a 1Q gate on one side of a two-qubit register:
/// `on_first = true` gives `g ⊗ I`, otherwise `I ⊗ g`.
pub fn embed_1q(g: &CMat, on_first: bool) -> CMat {
    if on_first {
        g.kron(&id2())
    } else {
        id2().kron(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn one_qubit_gates_are_unitary() {
        for g in [
            id2(),
            pauli_x(),
            pauli_y(),
            pauli_z(),
            hadamard(),
            s_gate(),
            sdg_gate(),
            t_gate(),
            tdg_gate(),
            rx(0.7),
            ry(-1.3),
            rz(2.9),
            u3(0.3, 1.1, -0.4),
        ] {
            assert!(g.is_unitary(1e-12));
        }
    }

    #[test]
    fn two_qubit_gates_are_unitary() {
        for g in [cnot(), cz(), swap(), iswap(), sqisw(), b_gate(), ecp_gate()] {
            assert!(g.is_unitary(1e-12));
        }
    }

    #[test]
    fn sqisw_squares_to_iswap() {
        assert!(sqisw().mul_mat(&sqisw()).approx_eq(&iswap(), 1e-12));
    }

    #[test]
    fn u3_special_cases() {
        assert!(u3(0.0, 0.0, 0.0).approx_eq(&id2(), 1e-15));
        // U3(π, 0, π) = X
        assert!(u3(PI, 0.0, PI).approx_eq(&pauli_x(), 1e-12));
        // U3(π/2, 0, π) = H
        assert!(u3(PI / 2.0, 0.0, PI).approx_eq(&hadamard(), 1e-12));
    }

    #[test]
    fn rotations_compose() {
        let a = rz(0.4).mul_mat(&rz(0.6));
        assert!(a.approx_eq(&rz(1.0), 1e-13));
        let b = rx(2.0 * PI);
        assert!(b.approx_eq(&id2().scale(C64::real(-1.0)), 1e-12));
    }

    #[test]
    fn canonical_gate_identities() {
        assert!(canonical_gate(0.0, 0.0, 0.0).approx_eq(&CMat::identity(4), 1e-15));
        // Can(π/4,0,0) is locally equivalent to CNOT: verify the known exact
        // relation CNOT = e^{iπ/4}(I⊗H)... instead check spectra-free:
        // Can(π/4,0,0)² ~ e^{-iπ/2 XX} = -i XX.
        let c = canonical_gate(FRAC_PI_4, 0.0, 0.0);
        let xx = pauli_x().kron(&pauli_x());
        assert!(c.mul_mat(&c).approx_eq(&xx.scale(C64::imag(-1.0)), 1e-12));
    }

    #[test]
    fn iswap_from_canonical() {
        // Can(π/4, π/4, 0) has -i on the swap block, i.e. it equals iSWAP†;
        // conjugating by Z⊗I negates (x, y) and recovers iSWAP exactly.
        let c = canonical_gate(FRAC_PI_4, FRAC_PI_4, 0.0);
        let zi = embed_1q(&pauli_z(), true);
        assert!(zi.mul_mat(&c).mul_mat(&zi).approx_eq(&iswap(), 1e-12));
    }

    #[test]
    fn embed_shapes() {
        let g = embed_1q(&hadamard(), true);
        assert_eq!(g.rows(), 4);
        assert!(g.is_unitary(1e-12));
        let g2 = embed_1q(&hadamard(), false);
        assert!(!g.approx_eq(&g2, 1e-3));
    }
}
