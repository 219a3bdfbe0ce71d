//! Singular-value decomposition and polar factors for small complex
//! matrices.
//!
//! The approximate-synthesis sweep in `reqisc-synthesis` repeatedly needs the
//! unitary polar factor of a 4×4 "environment" matrix; [`polar_unitary`]
//! provides it via a one-sided Jacobi SVD, which is accurate even for
//! rank-deficient environments.

// lint:allow-file(tolerance-literal, Jacobi rotation convergence guards; pure numerics)
use crate::c64::{C64, ONE, ZERO};
use crate::mat::CMat;

/// A singular value decomposition `A = U · diag(σ) · V†`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (unitary).
    pub u: CMat,
    /// Singular values in descending order (non-negative).
    pub sigma: Vec<f64>,
    /// Right singular vectors (unitary).
    pub v: CMat,
}

/// Computes the SVD of a square complex matrix by one-sided Jacobi.
///
/// One-sided Jacobi orthogonalizes the columns of a working copy `W = A·V`
/// by accumulating plane rotations into `V`; on convergence the column norms
/// are the singular values and the normalized columns form `U`.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn svd(a: &CMat) -> Svd {
    assert!(a.is_square(), "svd expects a square matrix");
    let n = a.rows();
    let mut w = a.as_slice().to_vec();
    let mut rot = CMat::identity(n).as_slice().to_vec();
    let mut u = vec![ZERO; n * n];
    let mut v = vec![ZERO; n * n];
    let mut norms = vec![0.0; n];
    let mut order: Vec<usize> = (0..n).collect();
    jacobi_svd(JacobiSvd {
        n,
        w: &mut w,
        rot: &mut rot,
        u: &mut u,
        v: &mut v,
        norms: &mut norms,
        order: &mut order,
    });
    let sigma = order.iter().map(|&j| norms[j]).collect();
    Svd { u: CMat::from_slice(n, n, &u), sigma, v: CMat::from_slice(n, n, &v) }
}

/// Returns the unitary polar factor of `a`: the unitary `P` maximizing
/// `Re Tr(a† · P)`.
///
/// When `a = U Σ V†`, the polar factor is `U V†`. For rank-deficient `a` the
/// completion is an arbitrary-but-valid unitary, which is exactly what the
/// synthesis sweep needs (any maximizer works).
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn polar_unitary(a: &CMat) -> CMat {
    let d = svd(a);
    d.u.mul_mat(&d.v.adjoint())
}

/// [`polar_unitary`] of a row-major 4×4 matrix, bit for bit, without
/// allocating: the block update of the synthesis sweep.
pub fn polar_unitary_4x4(a: &[C64; 16]) -> [C64; 16] {
    let mut w = *a;
    let mut rot = [ZERO; 16];
    for i in 0..4 {
        rot[i * 4 + i] = ONE;
    }
    let mut u = [ZERO; 16];
    let mut v = [ZERO; 16];
    let mut norms = [0.0; 4];
    let mut order = [0, 1, 2, 3];
    jacobi_svd(JacobiSvd {
        n: 4,
        w: &mut w,
        rot: &mut rot,
        u: &mut u,
        v: &mut v,
        norms: &mut norms,
        order: &mut order,
    });
    // U·V†, summed as `CMat::mul_mat` does (zero left factors skipped).
    let mut p = [ZERO; 16];
    for i in 0..4 {
        for k in 0..4 {
            let a = u[i * 4 + k];
            if a.re == 0.0 && a.im == 0.0 {
                continue;
            }
            for j in 0..4 {
                p[i * 4 + j] += a * v[j * 4 + k].conj();
            }
        }
    }
    p
}

/// Row-major `n × n` storage of one Jacobi SVD. On entry `w` holds the
/// input, `rot` the identity and `order` `0..n`; on exit `u` and `v` hold
/// the singular vectors and `order` the columns by descending norm, so
/// σ is `norms[order[..]]`. `w` and `rot` are scratch.
struct JacobiSvd<'a> {
    n: usize,
    w: &'a mut [C64],
    rot: &'a mut [C64],
    u: &'a mut [C64],
    v: &'a mut [C64],
    norms: &'a mut [f64],
    order: &'a mut [usize],
}

/// The one Jacobi SVD behind [`svd`], [`polar_unitary`] and
/// [`polar_unitary_4x4`]; the caller chooses the storage.
fn jacobi_svd(s: JacobiSvd<'_>) {
    let JacobiSvd { n, w, rot, u, v, norms, order } = s;
    for _sweep in 0..128 {
        let mut rotated = false;
        for p in 0..n {
            for q in p + 1..n {
                // Gram entries for columns p, q of w.
                let mut app = 0.0;
                let mut aqq = 0.0;
                let mut apq = C64::default();
                for k in 0..n {
                    let wp = w[k * n + p];
                    let wq = w[k * n + q];
                    app += wp.norm_sqr();
                    aqq += wq.norm_sqr();
                    apq += wp.conj() * wq;
                }
                if apq.abs() <= 1e-15 * (app * aqq).sqrt().max(1e-300) {
                    continue;
                }
                rotated = true;
                // Complex Jacobi rotation diagonalizing [[app, apq],[apq*, aqq]].
                let phase = apq.unit();
                let ang = 0.5 * (2.0 * apq.abs()).atan2(app - aqq);
                let (s, c) = ang.sin_cos();
                let gpq = phase.scale(-s);
                let gqp = phase.conj().scale(s);
                let gc = C64::real(c);
                for m in [&mut *w, &mut *rot] {
                    for k in 0..n {
                        let mp = m[k * n + p];
                        let mq = m[k * n + q];
                        m[k * n + p] = mp * gc + mq * gqp;
                        m[k * n + q] = mp * gpq + mq * gc;
                    }
                }
            }
        }
        if !rotated {
            break;
        }
    }
    // Column norms → singular values; normalize columns → U.
    for j in 0..n {
        norms[j] = (0..n).map(|i| w[i * n + j].norm_sqr()).sum::<f64>().sqrt();
    }
    order.sort_by(|&i, &j| norms[j].partial_cmp(&norms[i]).unwrap());
    for (jj, &j) in order.iter().enumerate() {
        for i in 0..n {
            v[i * n + jj] = rot[i * n + j];
        }
        if norms[j] > 1e-150 {
            for i in 0..n {
                u[i * n + jj] = w[i * n + j] / norms[j];
            }
        } else {
            complete_basis(u, n, jj);
        }
    }
}

/// Fills column `jj` of `u` with a unit vector orthogonal to columns
/// `0..jj` (Gram–Schmidt over the standard basis): the completion for a
/// zero singular value.
fn complete_basis(u: &mut [C64], n: usize, jj: usize) {
    for b in 0..n {
        for i in 0..n {
            u[i * n + jj] = ZERO;
        }
        u[b * n + jj] = ONE;
        for prev in 0..jj {
            let mut ip = C64::default();
            for i in 0..n {
                ip += u[i * n + prev].conj() * u[i * n + jj];
            }
            for i in 0..n {
                let d = ip * u[i * n + prev];
                u[i * n + jj] -= d;
            }
        }
        let nrm = (0..n).map(|i| u[i * n + jj].norm_sqr()).sum::<f64>().sqrt();
        if nrm > 1e-6 {
            for i in 0..n {
                u[i * n + jj] = u[i * n + jj] / nrm;
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::haar::haar_unitary;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_mat(n: usize, rng: &mut StdRng) -> CMat {
        CMat::from_fn(n, n, |_, _| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
    }

    #[test]
    fn svd_reconstructs() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [2usize, 3, 4, 8] {
            let a = random_mat(n, &mut rng);
            let d = svd(&a);
            let s = CMat::diag(&d.sigma.iter().map(|&x| C64::real(x)).collect::<Vec<_>>());
            let rec = d.u.mul_mat(&s).mul_mat(&d.v.adjoint());
            assert!(rec.approx_eq(&a, 1e-10), "svd reconstruction failed n={n}");
            assert!(d.u.is_unitary(1e-10));
            assert!(d.v.is_unitary(1e-10));
            for w in d.sigma.windows(2) {
                assert!(w[0] >= w[1] - 1e-12, "sigma not sorted");
            }
        }
    }

    #[test]
    fn svd_of_unitary_has_unit_sigma() {
        let u = haar_unitary(4, &mut StdRng::seed_from_u64(1));
        let d = svd(&u);
        for s in d.sigma {
            assert!((s - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn svd_rank_deficient() {
        // Rank-1 matrix.
        let a = CMat::from_fn(4, 4, |i, j| {
            C64::real((i as f64 + 1.0) * (j as f64 - 1.5))
        });
        let d = svd(&a);
        assert!(d.sigma[1].abs() < 1e-9, "expected rank 1, sigma = {:?}", d.sigma);
        assert!(d.u.is_unitary(1e-9));
        let s = CMat::diag(&d.sigma.iter().map(|&x| C64::real(x)).collect::<Vec<_>>());
        assert!(d.u.mul_mat(&s).mul_mat(&d.v.adjoint()).approx_eq(&a, 1e-9));
    }

    #[test]
    fn polar_factor_is_unitary_maximizer() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = random_mat(4, &mut rng);
        let p = polar_unitary(&a);
        assert!(p.is_unitary(1e-10));
        // Re Tr(a† p) must beat a few random unitaries.
        let best = a.hs_inner(&p).re;
        for k in 0..8 {
            let q = haar_unitary(4, &mut StdRng::seed_from_u64(100 + k));
            assert!(a.hs_inner(&q).re <= best + 1e-9);
        }
    }
}
