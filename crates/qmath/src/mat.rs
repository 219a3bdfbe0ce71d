//! Dense complex matrices sized for quantum operators.
//!
//! [`CMat`] is a row-major dense matrix over [`C64`]. Everything in this
//! workspace manipulates operators of dimension `2^n` for small `n` (the hot
//! path is 4×4 and 8×8), so a simple contiguous representation with `O(n³)`
//! kernels is both adequate and easy to verify.

// lint:allow-file(tolerance-literal, pivot underflow guard; pure numerics)
use crate::c64::{C64, ONE, ZERO};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense, row-major complex matrix.
///
/// # Examples
///
/// ```
/// use reqisc_qmath::CMat;
/// let x = CMat::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]);
/// assert!(x.mul_mat(&x).approx_eq(&CMat::identity(2), 1e-15));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl CMat {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![ZERO; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = ONE;
        }
        m
    }

    /// Creates a matrix from a row-major slice of complex entries.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_slice(rows: usize, cols: usize, data: &[C64]) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Self { rows, cols, data: data.to_vec() }
    }

    /// Creates a matrix from a row-major slice of real entries.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_real(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Self {
            rows,
            cols,
            data: data.iter().map(|&x| C64::real(x)).collect(),
        }
    }

    /// Creates a diagonal matrix from its diagonal entries.
    pub fn diag(d: &[C64]) -> Self {
        let n = d.len();
        let mut m = Self::zeros(n, n);
        for (i, &v) in d.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Builds a matrix entry-by-entry from a closure.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> C64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True for square matrices.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major storage.
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn mul_mat(&self, rhs: &Self) -> Self {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let mut out = Self::zeros(self.rows, rhs.cols);
        mul_into(&self.data, &rhs.data, &mut out.data, (self.rows, self.cols, rhs.cols));
        out
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[C64]) -> Vec<C64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        let mut out = vec![ZERO; self.rows];
        for i in 0..self.rows {
            let mut acc = ZERO;
            for j in 0..self.cols {
                acc += self.data[i * self.cols + j] * v[j];
            }
            out[i] = acc;
        }
        out
    }

    /// Transpose (no conjugation).
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Conjugate transpose (adjoint) `self†`.
    pub fn adjoint(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Entry-wise complex conjugate.
    pub fn conj(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, s: C64) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// Trace of a square matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> C64 {
        assert!(self.is_square(), "trace of non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Kronecker product `self ⊗ rhs`.
    pub fn kron(&self, rhs: &Self) -> Self {
        let mut out = Self::zeros(self.rows * rhs.rows, self.cols * rhs.cols);
        let (a, b) = ((self.rows, self.cols), (rhs.rows, rhs.cols));
        kron_into(&self.data, a, &rhs.data, b, &mut out.data);
        out
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Largest entry-wise distance to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_dist(&self, other: &Self) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        max_dist(&self.data, &other.data)
    }

    /// True when every entry of `self` is within `tol` of `other`.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols) && self.max_dist(other) <= tol
    }

    /// 128-bit content fingerprint of the exact entry bit patterns (with
    /// `-0.0` normalized). Bitwise-identical matrices — what deterministic
    /// pipelines produce for repeated subprograms — share a fingerprint;
    /// used as a content-address by the compilation cache.
    pub fn fingerprint(&self) -> u128 {
        let mut h = crate::fingerprint::Fnv128::new();
        h.write_usize(self.rows);
        h.write_usize(self.cols);
        for z in &self.data {
            h.write_f64(z.re);
            h.write_f64(z.im);
        }
        h.finish()
    }

    /// True when `self† · self ≈ I` within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        self.is_square() && self.adjoint().mul_mat(self).approx_eq(&Self::identity(self.rows), tol)
    }

    /// True when `self ≈ self†` within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.is_square() && self.approx_eq(&self.adjoint(), tol)
    }

    /// True when every entry has an imaginary part below `tol`.
    pub fn is_real(&self, tol: f64) -> bool {
        self.data.iter().all(|z| z.im.abs() <= tol)
    }

    /// Determinant by LU factorization with partial pivoting.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn det(&self) -> C64 {
        assert!(self.is_square(), "determinant of non-square matrix");
        det_in_place(&mut self.data.clone(), self.rows)
    }

    /// Inverse by Gauss–Jordan elimination with partial pivoting.
    ///
    /// Returns `None` when the matrix is numerically singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn inverse(&self) -> Option<Self> {
        assert!(self.is_square(), "inverse of non-square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Self::identity(n);
        for k in 0..n {
            let mut p = k;
            let mut best = a[(k, k)].abs();
            for i in k + 1..n {
                let v = a[(i, k)].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < 1e-300 {
                return None;
            }
            if p != k {
                for j in 0..n {
                    a.data.swap(k * n + j, p * n + j);
                    inv.data.swap(k * n + j, p * n + j);
                }
            }
            let piv = a[(k, k)].recip();
            for j in 0..n {
                a[(k, j)] *= piv;
                inv[(k, j)] *= piv;
            }
            for i in 0..n {
                if i == k {
                    continue;
                }
                let f = a[(i, k)];
                if f.re == 0.0 && f.im == 0.0 {
                    continue;
                }
                for j in 0..n {
                    let av = a[(k, j)];
                    let iv = inv[(k, j)];
                    a[(i, j)] -= f * av;
                    inv[(i, j)] -= f * iv;
                }
            }
        }
        Some(inv)
    }

    /// `Tr(self† · other)`, the Hilbert–Schmidt inner product.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn hs_inner(&self, other: &Self) -> C64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        hs_inner(&self.data, &other.data)
    }

    /// Swaps two rows in place.
    pub fn swap_rows(&mut self, r1: usize, r2: usize) {
        if r1 == r2 {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(r1 * self.cols + j, r2 * self.cols + j);
        }
    }
}

// The arithmetic cores behind the `CMat` methods above, on row-major
// slices, shared with the stack-array kernels in `crate::fixed` so both
// storages perform the same floating-point operations in the same order.

/// Adds `a · b` into `out` for row-major `a` (`rows × inner`) and `b`
/// (`inner × cols`), skipping exact-zero entries of `a`.
#[inline]
pub(crate) fn mul_into(
    a: &[C64],
    b: &[C64],
    out: &mut [C64],
    (rows, inner, cols): (usize, usize, usize),
) {
    for i in 0..rows {
        for k in 0..inner {
            let x = a[i * inner + k];
            if x.re == 0.0 && x.im == 0.0 {
                continue;
            }
            let row = &b[k * cols..(k + 1) * cols];
            let orow = &mut out[i * cols..(i + 1) * cols];
            for (o, &y) in orow.iter_mut().zip(row) {
                *o += x * y;
            }
        }
    }
}

/// Writes `a ⊗ b` into the zeroed `out`, leaving the blocks of exact-zero
/// entries of `a` untouched.
#[inline]
pub(crate) fn kron_into(
    a: &[C64],
    (ar, ac): (usize, usize),
    b: &[C64],
    (br, bc): (usize, usize),
    out: &mut [C64],
) {
    let cols = ac * bc;
    for i in 0..ar {
        for j in 0..ac {
            let x = a[i * ac + j];
            if x.re == 0.0 && x.im == 0.0 {
                continue;
            }
            for k in 0..br {
                for l in 0..bc {
                    out[(i * br + k) * cols + j * bc + l] = x * b[k * bc + l];
                }
            }
        }
    }
}

/// Largest entry-wise distance between equally long slices.
#[inline]
pub(crate) fn max_dist(a: &[C64], b: &[C64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x.dist(*y)).fold(0.0, f64::max)
}

/// `Σ conj(a_k)·b_k` over equally long slices.
#[inline]
pub(crate) fn hs_inner(a: &[C64], b: &[C64]) -> C64 {
    a.iter().zip(b).map(|(x, y)| x.conj() * *y).sum()
}

/// Determinant of the row-major `n × n` matrix `a` by LU with partial
/// pivoting; `a` is overwritten.
#[inline]
pub(crate) fn det_in_place(a: &mut [C64], n: usize) -> C64 {
    let mut det = ONE;
    for k in 0..n {
        // Partial pivot.
        let mut p = k;
        let mut best = a[k * n + k].abs();
        for i in k + 1..n {
            let v = a[i * n + k].abs();
            if v > best {
                best = v;
                p = i;
            }
        }
        if best == 0.0 {
            return ZERO;
        }
        if p != k {
            for j in 0..n {
                a.swap(k * n + j, p * n + j);
            }
            det = -det;
        }
        let piv = a[k * n + k];
        det *= piv;
        for i in k + 1..n {
            let f = a[i * n + k] / piv;
            for j in k..n {
                let v = a[k * n + j];
                a[i * n + j] -= f * v;
            }
        }
    }
    det
}

impl Index<(usize, usize)> for CMat {
    type Output = C64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &C64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut C64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &CMat {
    type Output = CMat;
    fn add(self, rhs: &CMat) -> CMat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "shape mismatch");
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| *a + *b).collect(),
        }
    }
}

impl Sub for &CMat {
    type Output = CMat;
    fn sub(self, rhs: &CMat) -> CMat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "shape mismatch");
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| *a - *b).collect(),
        }
    }
}

impl Mul for &CMat {
    type Output = CMat;
    fn mul(self, rhs: &CMat) -> CMat {
        self.mul_mat(rhs)
    }
}

impl Neg for &CMat {
    type Output = CMat;
    fn neg(self) -> CMat {
        self.scale(C64::real(-1.0))
    }
}

impl fmt::Display for CMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pauli_x() -> CMat {
        CMat::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0])
    }

    fn pauli_y() -> CMat {
        CMat::from_slice(2, 2, &[ZERO, C64::imag(-1.0), C64::imag(1.0), ZERO])
    }

    #[test]
    fn identity_is_neutral() {
        let x = pauli_x();
        let i2 = CMat::identity(2);
        assert!(x.mul_mat(&i2).approx_eq(&x, 0.0));
        assert!(i2.mul_mat(&x).approx_eq(&x, 0.0));
    }

    #[test]
    fn pauli_algebra() {
        let (x, y) = (pauli_x(), pauli_y());
        // XY = iZ
        let xy = x.mul_mat(&y);
        let z = CMat::from_real(2, 2, &[1.0, 0.0, 0.0, -1.0]);
        assert!(xy.approx_eq(&z.scale(C64::imag(1.0)), 1e-15));
    }

    #[test]
    fn kron_shape_and_values() {
        let x = pauli_x();
        let xx = x.kron(&x);
        assert_eq!((xx.rows(), xx.cols()), (4, 4));
        assert!((xx[(0, 3)] - ONE).abs() < 1e-15);
        assert!(xx.is_unitary(1e-14));
    }

    #[test]
    fn det_of_unitaries() {
        assert!((pauli_x().det() - C64::real(-1.0)).abs() < 1e-15);
        assert!((CMat::identity(4).det() - ONE).abs() < 1e-15);
    }

    #[test]
    fn inverse_roundtrip() {
        let m = CMat::from_slice(
            3,
            3,
            &[
                C64::new(1.0, 0.5),
                C64::new(2.0, -1.0),
                C64::new(0.0, 0.3),
                C64::new(0.0, 1.0),
                C64::new(1.0, 0.0),
                C64::new(-1.0, 2.0),
                C64::new(3.0, 0.0),
                C64::new(0.5, 0.5),
                C64::new(1.0, -1.0),
            ],
        );
        let inv = m.inverse().expect("invertible");
        assert!(m.mul_mat(&inv).approx_eq(&CMat::identity(3), 1e-12));
    }

    #[test]
    fn singular_inverse_is_none() {
        let m = CMat::from_real(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        assert!(m.inverse().is_none());
        assert!(m.det().abs() < 1e-14);
    }

    #[test]
    fn adjoint_and_trace() {
        let y = pauli_y();
        assert!(y.is_hermitian(1e-15));
        assert!(y.trace().abs() < 1e-15);
        assert!(y.adjoint().approx_eq(&y, 1e-15));
    }

    #[test]
    fn mul_vec_matches_mul_mat() {
        let m = pauli_x().kron(&pauli_y());
        let v: Vec<C64> = (0..4).map(|i| C64::new(i as f64, -(i as f64))).collect();
        let col = CMat::from_fn(4, 1, |i, _| v[i]);
        let expect = m.mul_mat(&col);
        let got = m.mul_vec(&v);
        for i in 0..4 {
            assert!(got[i].dist(expect[(i, 0)]) < 1e-14);
        }
    }

    #[test]
    fn hs_inner_norm_consistency() {
        let x = pauli_x();
        let ip = x.hs_inner(&x);
        assert!((ip.re - x.fro_norm().powi(2)).abs() < 1e-14);
        assert!(ip.im.abs() < 1e-15);
    }
}
