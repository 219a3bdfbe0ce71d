//! Matrix exponentials of Hamiltonians.
//!
//! The genAshN microarchitecture verifies its pulse solutions by evolving
//! `e^{-i(H + H₁ + H₂)τ}` exactly. Since every Hamiltonian here is Hermitian
//! the exponential is computed spectrally via [`crate::eig::eig_hermitian`].

// lint:allow-file(tolerance-literal, series-truncation guard; pure numerics)
use crate::c64::C64;
use crate::eig::eig_hermitian;
use crate::mat::CMat;

/// Computes `e^{-i·H·t}` for a Hermitian `H`.
///
/// # Panics
///
/// Panics if `h` is not square.
///
/// # Examples
///
/// ```
/// use reqisc_qmath::{expm_i_hermitian, CMat};
/// use std::f64::consts::PI;
/// let x = CMat::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]);
/// // e^{-i X π/2} = -i X
/// let u = expm_i_hermitian(&x, PI / 2.0);
/// assert!((u[(0, 1)].im + 1.0).abs() < 1e-12);
/// ```
pub fn expm_i_hermitian(h: &CMat, t: f64) -> CMat {
    assert!(h.is_square(), "expm of non-square matrix");
    let e = eig_hermitian(h);
    let d = CMat::diag(
        &e.values
            .iter()
            .map(|&lam| C64::cis(-lam * t))
            .collect::<Vec<_>>(),
    );
    e.vectors.mul_mat(&d).mul_mat(&e.vectors.adjoint())
}

/// Computes `e^{A}` for a general (small) matrix via scaling-and-squaring
/// with a truncated Taylor series.
///
/// Used only in tests and diagnostics; the hot paths use
/// [`expm_i_hermitian`].
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn expm(a: &CMat) -> CMat {
    assert!(a.is_square(), "expm of non-square matrix");
    let n = a.rows();
    let norm = a.fro_norm();
    let s = if norm > 0.5 {
        (norm / 0.5).log2().ceil() as u32
    } else {
        0
    };
    let scaled = a.scale(C64::real(1.0 / (2f64.powi(s as i32))));
    let mut term = CMat::identity(n);
    let mut sum = CMat::identity(n);
    for k in 1..=24 {
        term = term.mul_mat(&scaled).scale(C64::real(1.0 / k as f64));
        sum = &sum + &term;
        if term.fro_norm() < 1e-18 {
            break;
        }
    }
    for _ in 0..s {
        sum = sum.mul_mat(&sum);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64::I;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn exp_of_zero_is_identity() {
        let z = CMat::zeros(4, 4);
        assert!(expm(&z).approx_eq(&CMat::identity(4), 1e-14));
        assert!(expm_i_hermitian(&z, 1.0).approx_eq(&CMat::identity(4), 1e-12));
    }

    #[test]
    fn hermitian_exp_is_unitary() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let h0 = CMat::from_fn(4, 4, |_, _| {
                C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
            });
            let h = CMat::from_fn(4, 4, |i, j| (h0[(i, j)] + h0[(j, i)].conj()).scale(0.5));
            let u = expm_i_hermitian(&h, 0.7);
            assert!(u.is_unitary(1e-10));
        }
    }

    #[test]
    fn spectral_matches_taylor() {
        let mut rng = StdRng::seed_from_u64(17);
        let h0 = CMat::from_fn(4, 4, |_, _| {
            C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        let h = CMat::from_fn(4, 4, |i, j| (h0[(i, j)] + h0[(j, i)].conj()).scale(0.5));
        let t = 1.3;
        let a = expm_i_hermitian(&h, t);
        let b = expm(&h.scale(I.scale(-t)));
        assert!(a.approx_eq(&b, 1e-10));
    }

    #[test]
    fn group_property() {
        let x = CMat::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let a = expm_i_hermitian(&x, 0.4);
        let b = expm_i_hermitian(&x, 0.6);
        let ab = a.mul_mat(&b);
        assert!(ab.approx_eq(&expm_i_hermitian(&x, 1.0), 1e-12));
    }
}
