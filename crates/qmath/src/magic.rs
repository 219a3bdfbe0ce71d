//! The magic (Bell) basis and Kronecker factorization.
//!
//! In the magic basis two-qubit local unitaries become real orthogonal
//! matrices and canonical gates become diagonal — the foundation of the KAK
//! decomposition in [`crate::kak`].

// lint:allow-file(tolerance-literal, basis-transform degeneracy guards; pure numerics)
use crate::c64::{C64, I, ONE, ZERO};
use crate::fixed::{self, from_cmat, to_cmat, Mat};
use crate::mat::CMat;

/// The magic-basis change matrix
/// `M = (1/√2)·[[1,0,0,i],[0,i,1,0],[0,i,-1,0],[1,0,0,-i]]`.
pub fn magic_basis() -> CMat {
    to_cmat(&magic4())
}

fn magic4() -> Mat<4> {
    let m = [
        [ONE, ZERO, ZERO, I],
        [ZERO, I, ONE, ZERO],
        [ZERO, I, -ONE, ZERO],
        [ONE, ZERO, ZERO, -I],
    ];
    fixed::scale(&m, C64::real(1.0 / std::f64::consts::SQRT_2))
}

/// Conjugates into the magic basis: `M† · U · M`.
///
/// # Panics
///
/// Panics if `u` is not 4×4.
pub fn to_magic(u: &CMat) -> CMat {
    to_cmat(&to_magic4(&from_cmat(u)))
}

/// Conjugates out of the magic basis: `M · U · M†`.
///
/// # Panics
///
/// Panics if `u` is not 4×4.
pub fn from_magic(u: &CMat) -> CMat {
    to_cmat(&from_magic4(&from_cmat(u)))
}

/// [`to_magic`] on a stack array.
pub(crate) fn to_magic4(u: &Mat<4>) -> Mat<4> {
    let m = magic4();
    fixed::mul(&fixed::mul(&fixed::adjoint(&m), u), &m)
}

/// [`from_magic`] on a stack array.
pub(crate) fn from_magic4(u: &Mat<4>) -> Mat<4> {
    let m = magic4();
    fixed::mul(&fixed::mul(&m, u), &fixed::adjoint(&m))
}

/// `1 − 2⁻⁵²`: the magnitude of every entry of the magic Pauli
/// diagonals, where `(1/√2)²` rounds below `1/2`.
const MAGIC_DIAGONAL: f64 = 1.0 - f64::EPSILON;

/// The diagonals of `M†(XX)M`, `M†(YY)M`, `M†(ZZ)M`, as [`to_magic`]
/// computes them (pinned by a test).
pub(crate) const MAGIC_PAULI_DIAGONALS: [[f64; 4]; 3] = {
    let d = MAGIC_DIAGONAL;
    [[d, d, -d, -d], [-d, d, -d, d], [d, -d, -d, d]]
};

/// The diagonals of `M†(XX)M`, `M†(YY)M`, `M†(ZZ)M`.
///
/// These three ±1 vectors, together with `(1,1,1,1)`, form an orthogonal
/// basis of R⁴; projecting eigenphases onto them recovers Weyl coordinates.
pub fn magic_pauli_diagonals() -> ([f64; 4], [f64; 4], [f64; 4]) {
    let [dx, dy, dz] = MAGIC_PAULI_DIAGONALS;
    (dx, dy, dz)
}

/// Error from [`kron_factor`] when the input is not a Kronecker product.
#[derive(Debug, Clone, PartialEq)]
pub struct KronFactorError {
    /// Residual `max|G - g·(A⊗B)|` of the best attempt.
    pub residual: f64,
}

impl std::fmt::Display for KronFactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is not a Kronecker product of unitaries (residual {:.3e})",
            self.residual
        )
    }
}

impl std::error::Error for KronFactorError {}

/// Factors a 4×4 matrix `G ≈ g·(A ⊗ B)` with `A, B ∈ SU(2)` and `|g| = 1`.
///
/// # Errors
///
/// Returns [`KronFactorError`] when `G` is not (numerically) a Kronecker
/// product of unitaries within `tol`.
///
/// # Panics
///
/// Panics if `g` is not 4×4.
pub fn kron_factor(g: &CMat, tol: f64) -> Result<(C64, CMat, CMat), KronFactorError> {
    assert_eq!((g.rows(), g.cols()), (4, 4), "kron_factor expects 4x4");
    kron_factor4(&from_cmat(g), tol).map(|(phase, a, b)| (phase, to_cmat(&a), to_cmat(&b)))
}

/// [`kron_factor`] on stack arrays.
pub(crate) fn kron_factor4(
    g: &Mat<4>,
    tol: f64,
) -> Result<(C64, Mat<2>, Mat<2>), KronFactorError> {
    // Locate the entry of maximum modulus.
    let (mut r, mut c, mut best) = (0usize, 0usize, -1.0f64);
    for i in 0..4 {
        for j in 0..4 {
            let v = g[i][j].abs();
            if v > best {
                best = v;
                r = i;
                c = j;
            }
        }
    }
    let (i0, k0, j0, l0) = (r >> 1, r & 1, c >> 1, c & 1);
    // G[(i<<1)|k][(j<<1)|l] = A_ij · B_kl.
    let b: Mat<2> =
        std::array::from_fn(|k| std::array::from_fn(|l| g[(i0 << 1) | k][(j0 << 1) | l]));
    let a: Mat<2> =
        std::array::from_fn(|i| std::array::from_fn(|j| g[(i << 1) | k0][(j << 1) | l0]));
    // a⊗b = G·G[r][c]; normalize each factor to SU(2).
    let norm_su2 = |m: &Mat<2>| -> Option<Mat<2>> {
        let d = fixed::det(m);
        if d.abs() < 1e-18 {
            return None;
        }
        Some(fixed::scale(m, d.sqrt().recip()))
    };
    let (a, b) = match (norm_su2(&a), norm_su2(&b)) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(KronFactorError { residual: f64::INFINITY }),
    };
    // Global phase from the Hilbert–Schmidt overlap.
    let ab = fixed::kron(&a, &b);
    let phase = fixed::hs_inner(&ab, g).scale(0.25);
    let residual = fixed::max_dist(&fixed::scale(&ab, phase), g);
    if residual > tol {
        return Err(KronFactorError { residual });
    }
    Ok((phase, a, b))
}

/// Transports an SO(4) matrix through the magic basis into `SU(2)⊗SU(2)`.
///
/// # Errors
///
/// Returns [`KronFactorError`] if `o` is not (numerically) in SO(4).
///
/// # Panics
///
/// Panics if `o` is not 4×4.
pub fn so4_to_su2_pair(o: &CMat) -> Result<(C64, CMat, CMat), KronFactorError> {
    so4_to_su2_pair4(&from_cmat(o)).map(|(phase, a, b)| (phase, to_cmat(&a), to_cmat(&b)))
}

/// [`so4_to_su2_pair`] on stack arrays.
pub(crate) fn so4_to_su2_pair4(o: &Mat<4>) -> Result<(C64, Mat<2>, Mat<2>), KronFactorError> {
    // The tolerance is looser than machine precision because inputs are
    // products of long gate chains; the KAK caller re-verifies the full
    // reconstruction at 1e-6 anyway.
    kron_factor4(&from_magic4(o), 1e-6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::{canonical_gate, hadamard, u3};
    use crate::haar::haar_su2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn magic_is_unitary() {
        assert!(magic_basis().is_unitary(1e-14));
    }

    #[test]
    fn canonical_is_diagonal_in_magic_basis() {
        let c = canonical_gate(0.3, 0.2, 0.1);
        let cm = to_magic(&c);
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    assert!(cm[(i, j)].abs() < 1e-12, "off-diagonal {}", cm[(i, j)]);
                }
            }
        }
    }

    #[test]
    fn pauli_diagonals_are_the_conjugated_paulis_bit_for_bit() {
        use crate::gates::{pauli_x, pauli_y, pauli_z};
        for (p, want) in [pauli_x(), pauli_y(), pauli_z()].iter().zip(MAGIC_PAULI_DIAGONALS) {
            let d = to_magic(&p.kron(p));
            for (k, w) in want.iter().enumerate() {
                assert_eq!(d[(k, k)].re.to_bits(), w.to_bits());
                assert!(d[(k, k)].im.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn pauli_diagonals_are_orthogonal_sign_vectors() {
        let (dx, dy, dz) = magic_pauli_diagonals();
        for d in [dx, dy, dz] {
            for v in d {
                assert!((v.abs() - 1.0).abs() < 1e-12);
            }
            assert!(d.iter().sum::<f64>().abs() < 1e-12, "not orthogonal to ones");
        }
        let dot = |a: &[f64; 4], b: &[f64; 4]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
        assert!(dot(&dx, &dy).abs() < 1e-12);
        assert!(dot(&dx, &dz).abs() < 1e-12);
        assert!(dot(&dy, &dz).abs() < 1e-12);
    }

    #[test]
    fn local_unitary_is_real_in_magic_basis() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..8 {
            let a = haar_su2(&mut rng);
            let b = haar_su2(&mut rng);
            let loc = a.kron(&b);
            let m = to_magic(&loc);
            assert!(m.is_real(1e-10), "SU(2)⊗SU(2) not real in magic basis");
        }
    }

    #[test]
    fn kron_factor_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..16 {
            let a = haar_su2(&mut rng);
            let b = haar_su2(&mut rng);
            let g0 = C64::cis(0.77);
            let g = a.kron(&b).scale(g0);
            let (phase, fa, fb) = kron_factor(&g, 1e-9).expect("factorizable");
            assert!(fa.kron(&fb).scale(phase).approx_eq(&g, 1e-10));
            assert!((fa.det() - crate::c64::ONE).abs() < 1e-10);
            assert!((fb.det() - crate::c64::ONE).abs() < 1e-10);
        }
    }

    #[test]
    fn kron_factor_rejects_entangling() {
        let cx = crate::gates::cnot();
        assert!(kron_factor(&cx, 1e-8).is_err());
    }

    #[test]
    fn kron_factor_handles_structured_locals() {
        // Gates with many zero entries exercise the max-entry bookkeeping.
        let g = hadamard().kron(&u3(0.0, 0.3, 0.4));
        let (phase, a, b) = kron_factor(&g, 1e-9).expect("factorizable");
        assert!(a.kron(&b).scale(phase).approx_eq(&g, 1e-10));
    }
}
