//! Stack-array forms of the [`CMat`] operations the two-qubit kernels
//! use, on row-major `N × N` arrays.
//!
//! The arithmetic runs through the same slice cores as the `CMat` methods
//! (in [`crate::mat`]), so results equal the heap-allocated forms' bit for
//! bit, signed zeros included.

use crate::c64::{C64, ONE, ZERO};
use crate::mat::{self, CMat};

/// A row-major `N × N` complex matrix on the stack.
pub(crate) type Mat<const N: usize> = [[C64; N]; N];

/// The `N × N` identity.
pub(crate) fn identity<const N: usize>() -> Mat<N> {
    let mut m = [[ZERO; N]; N];
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = ONE;
    }
    m
}

/// The diagonal matrix with diagonal `d`, as [`CMat::diag`].
pub(crate) fn diag<const N: usize>(d: [C64; N]) -> Mat<N> {
    let mut m = [[ZERO; N]; N];
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = d[i];
    }
    m
}

/// Copies an `N × N` [`CMat`].
///
/// # Panics
///
/// Panics if `m` is not `N × N`.
pub(crate) fn from_cmat<const N: usize>(m: &CMat) -> Mat<N> {
    assert_eq!((m.rows(), m.cols()), (N, N), "expected a {N}x{N} matrix");
    std::array::from_fn(|i| std::array::from_fn(|j| m[(i, j)]))
}

/// The same entries as a [`CMat`].
pub(crate) fn to_cmat<const N: usize>(m: &Mat<N>) -> CMat {
    CMat::from_slice(N, N, m.as_flattened())
}

/// `a · b`, as [`CMat::mul_mat`].
pub(crate) fn mul<const N: usize>(a: &Mat<N>, b: &Mat<N>) -> Mat<N> {
    let mut out = [[ZERO; N]; N];
    mat::mul_into(
        a.as_flattened(),
        b.as_flattened(),
        out.as_flattened_mut(),
        (N, N, N),
    );
    out
}

/// Transpose (no conjugation).
pub(crate) fn transpose<const N: usize>(m: &Mat<N>) -> Mat<N> {
    std::array::from_fn(|i| std::array::from_fn(|j| m[j][i]))
}

/// Conjugate transpose.
pub(crate) fn adjoint<const N: usize>(m: &Mat<N>) -> Mat<N> {
    std::array::from_fn(|i| std::array::from_fn(|j| m[j][i].conj()))
}

/// Every entry times `s`, as [`CMat::scale`].
pub(crate) fn scale<const N: usize>(m: &Mat<N>, s: C64) -> Mat<N> {
    m.map(|row| row.map(|z| z * s))
}

/// `a ⊗ b` of two 2×2 matrices, as [`CMat::kron`].
pub(crate) fn kron(a: &Mat<2>, b: &Mat<2>) -> Mat<4> {
    let mut out = [[ZERO; 4]; 4];
    mat::kron_into(
        a.as_flattened(),
        (2, 2),
        b.as_flattened(),
        (2, 2),
        out.as_flattened_mut(),
    );
    out
}

/// Largest entry-wise distance, as [`CMat::max_dist`].
pub(crate) fn max_dist<const N: usize>(a: &Mat<N>, b: &Mat<N>) -> f64 {
    mat::max_dist(a.as_flattened(), b.as_flattened())
}

/// `Tr(a† · b)`, as [`CMat::hs_inner`].
pub(crate) fn hs_inner<const N: usize>(a: &Mat<N>, b: &Mat<N>) -> C64 {
    mat::hs_inner(a.as_flattened(), b.as_flattened())
}

/// True when `m† · m ≈ I` within `tol`, as [`CMat::is_unitary`].
pub(crate) fn is_unitary<const N: usize>(m: &Mat<N>, tol: f64) -> bool {
    max_dist(&mul(&adjoint(m), m), &identity()) <= tol
}

/// Determinant by LU with partial pivoting, as [`CMat::det`].
pub(crate) fn det<const N: usize>(m: &Mat<N>) -> C64 {
    let mut a = *m;
    mat::det_in_place(a.as_flattened_mut(), N)
}
