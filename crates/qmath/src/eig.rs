//! Eigen-decompositions for the small operators ReQISC manipulates.
//!
//! Three solvers are provided, all based on Jacobi rotations (which are
//! simple, numerically excellent, and easily verified at the 4×4/8×8 sizes
//! used throughout this workspace):
//!
//! * [`eig_real_symmetric`] — real symmetric matrices,
//! * [`eig_hermitian`] — complex Hermitian matrices,
//! * [`simdiag_commuting_symmetric`] — *simultaneous* diagonalization of two
//!   commuting real symmetric 4×4 matrices, the workhorse of the canonical
//!   (KAK) decomposition in [`crate::kak`].
//!
//! The real symmetric solver and the simultaneous diagonalization share one
//! Jacobi core; the latter runs on stack arrays.

// lint:allow-file(tolerance-literal, eigensolver convergence and deflation guards; pure numerics)
use crate::c64::{C64, ONE, ZERO};
use crate::mat::CMat;

/// Result of a real symmetric eigendecomposition `A = Q · diag(λ) · Qᵀ`.
#[derive(Debug, Clone)]
pub struct RealEig {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthogonal matrix whose columns are the corresponding eigenvectors.
    pub vectors: Vec<Vec<f64>>, // column-major: vectors[j] is eigenvector j
}

/// Diagonalizes a real symmetric matrix with cyclic Jacobi rotations.
///
/// `a` is given row-major with dimension `n × n`. Returns eigenvalues in
/// ascending order with matching eigenvector columns.
///
/// # Panics
///
/// Panics if `a.len() != n * n`.
pub fn eig_real_symmetric(a: &[f64], n: usize) -> RealEig {
    assert_eq!(a.len(), n * n, "shape mismatch");
    let mut m: Vec<f64> = a.to_vec();
    let mut q = vec![0.0; n * n];
    let mut order: Vec<usize> = (0..n).collect();
    jacobi_eig(&mut m, &mut q, &mut order, n);
    let values = order.iter().map(|&i| m[i * n + i]).collect();
    let vectors = order
        .iter()
        .map(|&j| (0..n).map(|i| q[i * n + j]).collect())
        .collect();
    RealEig { values, vectors }
}

/// The one cyclic Jacobi eigensolver behind [`eig_real_symmetric`] and
/// [`simdiag_commuting_symmetric`]; the caller chooses the storage. On
/// entry `m` holds the row-major `n × n` symmetric input and `order`
/// holds `0..n`. On exit `m`'s diagonal holds the eigenvalues, `q` the
/// accumulated rotations (eigenvectors as columns), and `order` the
/// columns by ascending eigenvalue (a stable sort).
fn jacobi_eig(m: &mut [f64], q: &mut [f64], order: &mut [usize], n: usize) {
    q.fill(0.0);
    for i in 0..n {
        q[i * n + i] = 1.0;
    }
    for _sweep in 0..100 {
        let mut off = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                off += m[i * n + j] * m[i * n + j];
            }
        }
        if off < 1e-30 {
            break;
        }
        for p in 0..n {
            for r in p + 1..n {
                let apq = m[p * n + r];
                if apq.abs() < 1e-18 {
                    continue;
                }
                let app = m[p * n + p];
                let aqq = m[r * n + r];
                // Classic Jacobi angle: tan(2φ) = 2 a_pq / (a_pp - a_qq).
                let phi = 0.5 * (2.0 * apq).atan2(app - aqq);
                let (s, c) = phi.sin_cos();
                // Rotate rows/cols p and r of m: m ← Gᵀ m G with
                // G = [[c, -s], [s, c]] acting on the (p, r) plane.
                for k in 0..n {
                    let mkp = m[k * n + p];
                    let mkr = m[k * n + r];
                    m[k * n + p] = c * mkp + s * mkr;
                    m[k * n + r] = -s * mkp + c * mkr;
                }
                for k in 0..n {
                    let mpk = m[p * n + k];
                    let mrk = m[r * n + k];
                    m[p * n + k] = c * mpk + s * mrk;
                    m[r * n + k] = -s * mpk + c * mrk;
                }
                for k in 0..n {
                    let qkp = q[k * n + p];
                    let qkr = q[k * n + r];
                    q[k * n + p] = c * qkp + s * qkr;
                    q[k * n + r] = -s * qkp + c * qkr;
                }
            }
        }
    }
    order.sort_by(|&i, &j| m[i * n + i].partial_cmp(&m[j * n + j]).unwrap());
}

/// Result of a Hermitian eigendecomposition `H = V · diag(λ) · V†`.
#[derive(Debug, Clone)]
pub struct HermEig {
    /// Real eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Unitary matrix whose columns are the corresponding eigenvectors.
    pub vectors: CMat,
}

/// Diagonalizes a complex Hermitian matrix with cyclic complex Jacobi
/// rotations.
///
/// # Panics
///
/// Panics if `h` is not square. The Hermiticity of `h` is the caller's
/// responsibility; only the lower/upper averages are used.
pub fn eig_hermitian(h: &CMat) -> HermEig {
    assert!(h.is_square(), "eig of non-square matrix");
    let n = h.rows();
    // Work on the Hermitian average to be robust to tiny asymmetries.
    let mut m = CMat::from_fn(n, n, |i, j| (h[(i, j)] + h[(j, i)].conj()).scale(0.5));
    let mut v = CMat::identity(n);
    for _sweep in 0..100 {
        let mut off = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                off += m[(i, j)].norm_sqr();
            }
        }
        if off < 1e-30 {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m[(p, q)];
                if apq.abs() < 1e-18 {
                    continue;
                }
                // Complex Jacobi: factor out the phase of a_pq, then do a
                // real rotation. G acts on the (p, q) plane as
                // [[c, -s·e^{iφ}], [s·e^{-iφ}, c]] with φ = arg(a_pq).
                let phase = apq.unit();
                let app = m[(p, p)].re;
                let aqq = m[(q, q)].re;
                let t2 = 2.0 * apq.abs();
                let ang = 0.5 * t2.atan2(app - aqq);
                let (s, c) = ang.sin_cos();
                let gpq = phase.scale(-s); // entry (p,q) of G
                let gqp = phase.conj().scale(s); // entry (q,p) of G
                let gc = C64::real(c);
                // m ← G† m G ; v ← v G
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = mkp * gc + mkq * gqp;
                    m[(k, q)] = mkp * gpq + mkq * gc;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = gc * mpk + gqp.conj() * mqk;
                    m[(q, k)] = gpq.conj() * mpk + gc * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = vkp * gc + vkq * gqp;
                    v[(k, q)] = vkp * gpq + vkq * gc;
                }
            }
        }
    }
    let mut idx: Vec<usize> = (0..n).collect();
    let vals: Vec<f64> = (0..n).map(|i| m[(i, i)].re).collect();
    idx.sort_by(|&i, &j| vals[i].partial_cmp(&vals[j]).unwrap());
    let values: Vec<f64> = idx.iter().map(|&i| vals[i]).collect();
    let vectors = CMat::from_fn(n, n, |i, j| v[(i, idx[j])]);
    HermEig { values, vectors }
}

/// Simultaneously diagonalizes two *commuting* real symmetric 4×4
/// matrices.
///
/// Returns an orthogonal `Q` (row-major) such that both `Qᵀ A Q` and
/// `Qᵀ B Q` are diagonal. The strategy is: diagonalize `A`; inside each
/// (near-)degenerate eigenspace of `A`, diagonalize the restriction of `B`.
///
/// This is the key primitive behind the magic-basis KAK decomposition, where
/// `A` and `B` are the real and imaginary parts of the complex symmetric
/// unitary `U_m · U_mᵀ`.
pub fn simdiag_commuting_symmetric(a: &[f64; 16], b: &[f64; 16]) -> [f64; 16] {
    const N: usize = 4;
    let mut m = *a;
    let mut v = [0.0; 16];
    let mut order = [0, 1, 2, 3];
    jacobi_eig(&mut m, &mut v, &mut order, N);
    let values = order.map(|i| m[i * N + i]);
    // q columns = eigenvectors of a, ordered ascending.
    let mut q = [0.0; 16];
    for j in 0..N {
        for i in 0..N {
            q[i * N + j] = v[i * N + order[j]];
        }
    }
    // b' = Qᵀ B Q
    let bt = mat_mul_real(&transpose_real(&q), &mat_mul_real(b, &q));
    // Group degenerate clusters of A's spectrum.
    let tol = 1e-9 * (1.0 + values.iter().fold(0.0f64, |m, v| m.max(v.abs())));
    let mut start = 0;
    while start < N {
        let mut end = start + 1;
        while end < N && (values[end] - values[start]).abs() <= tol {
            end += 1;
        }
        let k = end - start;
        if k > 1 {
            // Diagonalize the k×k block of bt.
            let mut blk = [0.0; 16];
            for i in 0..k {
                for j in 0..k {
                    blk[i * k + j] = bt[(start + i) * N + (start + j)];
                }
            }
            let mut w = [0.0; 16];
            let mut sub = [0, 1, 2, 3];
            jacobi_eig(&mut blk[..k * k], &mut w[..k * k], &mut sub[..k], k);
            // Rotate the corresponding columns of q by the block's
            // eigenvectors (column sub[j] of w).
            let mut newcols = [0.0; 16];
            for j in 0..k {
                for i in 0..N {
                    let mut acc = 0.0;
                    for l in 0..k {
                        acc += q[i * N + (start + l)] * w[l * k + sub[j]];
                    }
                    newcols[i * k + j] = acc;
                }
            }
            for j in 0..k {
                for i in 0..N {
                    q[i * N + (start + j)] = newcols[i * k + j];
                }
            }
        }
        start = end;
    }
    q
}

fn mat_mul_real(a: &[f64; 16], b: &[f64; 16]) -> [f64; 16] {
    let mut out = [0.0; 16];
    for i in 0..4 {
        for k in 0..4 {
            let v = a[i * 4 + k];
            if v == 0.0 {
                continue;
            }
            for j in 0..4 {
                out[i * 4 + j] += v * b[k * 4 + j];
            }
        }
    }
    out
}

fn transpose_real(a: &[f64; 16]) -> [f64; 16] {
    std::array::from_fn(|k| a[(k % 4) * 4 + k / 4])
}

#[allow(unused_imports)]
use crate::c64; // keep ZERO/ONE referenced for doc builds

const _: C64 = ZERO;
const _: C64 = ONE;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_symmetric(n: usize, rng: &mut StdRng) -> Vec<f64> {
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in i..n {
                let v: f64 = rng.gen_range(-1.0..1.0);
                a[i * n + j] = v;
                a[j * n + i] = v;
            }
        }
        a
    }

    #[test]
    fn real_symmetric_reconstruction() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [2usize, 3, 4, 6, 8] {
            let a = random_symmetric(n, &mut rng);
            let e = eig_real_symmetric(&a, n);
            // Check A v = λ v for every pair.
            for j in 0..n {
                for i in 0..n {
                    let mut av = 0.0;
                    for k in 0..n {
                        av += a[i * n + k] * e.vectors[j][k];
                    }
                    assert!(
                        (av - e.values[j] * e.vectors[j][i]).abs() < 1e-9,
                        "eigenpair residual too large at n={n}"
                    );
                }
            }
            // Eigenvalues ascending.
            for w in e.values.windows(2) {
                assert!(w[0] <= w[1] + 1e-12);
            }
        }
    }

    #[test]
    fn hermitian_reconstruction() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [2usize, 4, 8] {
            let h = CMat::from_fn(n, n, |i, j| {
                if i == j {
                    C64::real(rng.gen_range(-1.0..1.0))
                } else {
                    C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
                }
            });
            let h = CMat::from_fn(n, n, |i, j| (h[(i, j)] + h[(j, i)].conj()).scale(0.5));
            let e = eig_hermitian(&h);
            let d = CMat::diag(&e.values.iter().map(|&v| C64::real(v)).collect::<Vec<_>>());
            let rec = e.vectors.mul_mat(&d).mul_mat(&e.vectors.adjoint());
            assert!(rec.approx_eq(&h, 1e-9), "hermitian reconstruction failed n={n}");
            assert!(e.vectors.is_unitary(1e-10));
        }
    }

    #[test]
    fn hermitian_degenerate_spectrum() {
        // Pauli X ⊗ I has eigenvalues {±1, ±1} (degenerate).
        let x = CMat::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let h = x.kron(&CMat::identity(2));
        let e = eig_hermitian(&h);
        assert!((e.values[0] + 1.0).abs() < 1e-12);
        assert!((e.values[3] - 1.0).abs() < 1e-12);
        let d = CMat::diag(&e.values.iter().map(|&v| C64::real(v)).collect::<Vec<_>>());
        let rec = e.vectors.mul_mat(&d).mul_mat(&e.vectors.adjoint());
        assert!(rec.approx_eq(&h, 1e-10));
    }

    #[test]
    fn simdiag_on_commuting_pair() {
        let mut rng = StdRng::seed_from_u64(3);
        // Build commuting symmetric pair: both diagonal in a common random
        // orthogonal basis, with deliberate degeneracies in the first.
        let n = 4;
        let g = random_symmetric(n, &mut rng);
        let e = eig_real_symmetric(&g, n);
        let mut q0 = vec![0.0; n * n];
        for j in 0..n {
            for i in 0..n {
                q0[i * n + j] = e.vectors[j][i];
            }
        }
        let da = [1.0, 1.0, 2.0, 2.0]; // degenerate
        let db = [0.5, -0.5, 3.0, 7.0];
        let mk = |d: &[f64]| {
            let mut m = [0.0; 16];
            for i in 0..n {
                for j in 0..n {
                    let mut acc = 0.0;
                    for k in 0..n {
                        acc += q0[i * n + k] * d[k] * q0[j * n + k];
                    }
                    m[i * n + j] = acc;
                }
            }
            m
        };
        let a = mk(&da);
        let b = mk(&db);
        let q = simdiag_commuting_symmetric(&a, &b);
        // Verify both QᵀAQ and QᵀBQ diagonal.
        for (mat, name) in [(&a, "A"), (&b, "B")] {
            let d = mat_mul_real(&transpose_real(&q), &mat_mul_real(mat, &q));
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        assert!(d[i * n + j].abs() < 1e-8, "{name} off-diag {}", d[i * n + j]);
                    }
                }
            }
        }
        // Q orthogonal.
        let qtq = mat_mul_real(&transpose_real(&q), &q);
        for i in 0..n {
            for j in 0..n {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((qtq[i * n + j] - want).abs() < 1e-10);
            }
        }
    }
}
