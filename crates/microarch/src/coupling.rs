//! Coupling Hamiltonians and their normal form (paper §4.1, Algorithm 1
//! line 2).
//!
//! The genAshN scheme accepts *any* two-qubit coupling Hamiltonian. A
//! general coupling is brought into the canonical form
//! `H = (U₁⊗U₂)(a·XX + b·YY + c·ZZ)(U₁⊗U₂)† + H₁' + H₂'` with
//! `a ≥ b ≥ |c|`, by an SVD of its 3×3 two-local Pauli coefficient matrix
//! (Bennett et al. / Dür et al. canonicalization).

// lint:allow-file(tolerance-literal, coupling-model degeneracy guards local to this module)
use reqisc_qmath::eig::eig_real_symmetric;
use reqisc_qmath::gates::{id2, pauli_x, pauli_y, pauli_z};
use reqisc_qmath::{expm, CMat, C64};

/// Canonical coupling coefficients `(a, b, c)` with `a ≥ b ≥ |c|`, `a > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coupling {
    /// XX coefficient.
    pub a: f64,
    /// YY coefficient.
    pub b: f64,
    /// ZZ coefficient (may be negative).
    pub c: f64,
}

impl Coupling {
    /// Creates canonical coefficients.
    ///
    /// # Panics
    ///
    /// Panics unless `a ≥ b ≥ |c|` and `a > 0`.
    pub fn new(a: f64, b: f64, c: f64) -> Self {
        assert!(a > 0.0 && a >= b - 1e-12 && b >= c.abs() - 1e-12, "not canonical: ({a},{b},{c})");
        Self { a, b, c }
    }

    /// XY coupling `g/2·(XX + YY)` — mainstream flux-tunable transmons.
    pub fn xy(g: f64) -> Self {
        Self::new(g / 2.0, g / 2.0, 0.0)
    }

    /// XX coupling `g·XX` — trapped ions, lab-frame transmons.
    pub fn xx(g: f64) -> Self {
        Self::new(g, 0.0, 0.0)
    }

    /// Coupling strength `g = a + b + |c|` (paper Eq. (3)), used to compare
    /// platforms.
    pub fn strength(&self) -> f64 {
        self.a + self.b + self.c.abs()
    }

    /// The 4×4 Hamiltonian `a·XX + b·YY + c·ZZ`.
    pub fn hamiltonian(&self) -> CMat {
        let xx = pauli_x().kron(&pauli_x());
        let yy = pauli_y().kron(&pauli_y());
        let zz = pauli_z().kron(&pauli_z());
        &(&xx.scale(C64::real(self.a)) + &yy.scale(C64::real(self.b)))
            + &zz.scale(C64::real(self.c))
    }
}

/// Result of canonicalizing an arbitrary 4×4 Hermitian coupling:
/// `H = (u1⊗u2)·Hc·(u1⊗u2)† + h1⊗I + I⊗h2 + e·I`.
#[derive(Debug, Clone)]
pub struct NormalForm {
    /// Canonical coefficients of the two-local part.
    pub coupling: Coupling,
    /// Local basis change on qubit 0.
    pub u1: CMat,
    /// Local basis change on qubit 1.
    pub u2: CMat,
    /// Residual 1Q Hermitian term on qubit 0 (2×2).
    pub h1: CMat,
    /// Residual 1Q Hermitian term on qubit 1 (2×2).
    pub h2: CMat,
    /// Identity (energy-offset) coefficient.
    pub energy: f64,
}

impl NormalForm {
    /// Rebuilds the original Hamiltonian from the normal-form pieces.
    pub fn reconstruct(&self) -> CMat {
        let loc = self.u1.kron(&self.u2);
        let core = loc
            .mul_mat(&self.coupling.hamiltonian())
            .mul_mat(&loc.adjoint());
        let one = &self.h1.kron(&id2()) + &id2().kron(&self.h2);
        &(&core + &one) + &CMat::identity(4).scale(C64::real(self.energy))
    }
}

/// Error from [`normal_form`] when the input is not Hermitian.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalFormError {
    /// Description of the failure.
    pub message: String,
}

impl std::fmt::Display for NormalFormError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "normal form failed: {}", self.message)
    }
}

impl std::error::Error for NormalFormError {}

/// Pauli matrices indexed I=0, X=1, Y=2, Z=3.
fn pauli(i: usize) -> CMat {
    match i {
        0 => id2(),
        1 => pauli_x(),
        2 => pauli_y(),
        _ => pauli_z(),
    }
}

/// Brings an arbitrary 4×4 Hermitian coupling into normal form.
///
/// # Errors
///
/// Returns [`NormalFormError`] if `h` is not Hermitian within `1e-9`, if the
/// two-local part vanishes (no entangling power — the gate scheme has
/// nothing to steer), or if reconstruction fails numerically.
pub fn normal_form(h: &CMat) -> Result<NormalForm, NormalFormError> {
    if h.rows() != 4 || h.cols() != 4 {
        return Err(NormalFormError { message: "expected 4x4".into() });
    }
    if !h.is_hermitian(1e-9) {
        return Err(NormalFormError { message: "input is not Hermitian".into() });
    }
    // Pauli coefficients: H = e·I + Σ r_j σ_j⊗I + Σ s_k I⊗σ_k + Σ J_jk σ_j⊗σ_k.
    let coeff = |j: usize, k: usize| -> f64 {
        let p = pauli(j).kron(&pauli(k));
        (p.hs_inner(h).re) / 4.0
    };
    let energy = coeff(0, 0);
    let r: Vec<f64> = (1..4).map(|j| coeff(j, 0)).collect();
    let s: Vec<f64> = (1..4).map(|k| coeff(0, k)).collect();
    let mut j = [[0.0f64; 3]; 3];
    for (jj, row) in j.iter_mut().enumerate() {
        for (kk, v) in row.iter_mut().enumerate() {
            *v = coeff(jj + 1, kk + 1);
        }
    }
    // SVD of J with rotation factors: J = O1 · diag(a,b,±c) · O2ᵀ.
    let (o1, d, o2) = svd3_rotations(&j);
    if d[0].abs() < 1e-12 {
        return Err(NormalFormError { message: "two-local part vanishes".into() });
    }
    let coupling = Coupling { a: d[0], b: d[1], c: d[2] };
    // Lift the SO(3) factors to SU(2): U σ_k U† = Σ_j O_jk σ_j.
    let u1 = su2_from_so3(&o1);
    let u2 = su2_from_so3(&o2);
    // Residual locals stay as given (they commute out of the two-local part
    // only after the basis change; we keep them in the original frame).
    let h1 = &(&pauli_x().scale(C64::real(r[0])) + &pauli_y().scale(C64::real(r[1])))
        + &pauli_z().scale(C64::real(r[2]));
    let h2 = &(&pauli_x().scale(C64::real(s[0])) + &pauli_y().scale(C64::real(s[1])))
        + &pauli_z().scale(C64::real(s[2]));
    let nf = NormalForm { coupling, u1, u2, h1, h2, energy };
    let rec = nf.reconstruct();
    if !rec.approx_eq(h, 1e-7) {
        return Err(NormalFormError {
            message: format!("reconstruction residual {:.3e}", rec.max_dist(h)),
        });
    }
    Ok(nf)
}

/// SVD of a real 3×3 matrix with *rotation* factors:
/// `J = O1 · diag(d) · O2ᵀ`, `O1, O2 ∈ SO(3)`, `d = (a, b, c)` with
/// `a ≥ b ≥ |c|` and `a, b ≥ 0` (the sign, if any, is pushed into `c`).
fn svd3_rotations(j: &[[f64; 3]; 3]) -> (CMatR3, [f64; 3], CMatR3) {
    // Eigen-decompose JᵀJ = V Σ² Vᵀ.
    let mut jtj = [0.0f64; 9];
    for a in 0..3 {
        for b in 0..3 {
            let mut acc = 0.0;
            for k in 0..3 {
                acc += j[k][a] * j[k][b];
            }
            jtj[a * 3 + b] = acc;
        }
    }
    let e = eig_real_symmetric(&jtj, 3);
    // Descending singular values.
    let order = [2usize, 1, 0];
    let mut v = [[0.0f64; 3]; 3]; // columns = right singular vectors
    let mut sig = [0.0f64; 3];
    for (col, &oi) in order.iter().enumerate() {
        sig[col] = e.values[oi].max(0.0).sqrt();
        for row in 0..3 {
            v[row][col] = e.vectors[oi][row];
        }
    }
    // Left vectors: u_i = J v_i / σ_i; complete the basis for tiny σ.
    let mut u = [[0.0f64; 3]; 3];
    for col in 0..3 {
        if sig[col] > 1e-12 {
            for row in 0..3 {
                let mut acc = 0.0;
                for k in 0..3 {
                    acc += j[row][k] * v[k][col];
                }
                u[row][col] = acc / sig[col];
            }
        } else {
            // Cross product of earlier columns (col is 1 or 2 here).
            let a0 = [u[0][0], u[1][0], u[2][0]];
            let base = if col == 1 {
                // Any unit vector orthogonal to a0.
                orth_complement(&a0)
            } else {
                let a1 = [u[0][1], u[1][1], u[2][1]];
                cross(&a0, &a1)
            };
            for row in 0..3 {
                u[row][col] = base[row];
            }
        }
    }
    // Re-orthogonalize u (Gram–Schmidt) against numerical drift.
    gram_schmidt3(&mut u);
    // Make both factors rotations; absorb signs into σ₃ (c).
    if det3(&u) < 0.0 {
        for row in u.iter_mut() {
            row[2] = -row[2];
        }
        sig[2] = -sig[2];
    }
    if det3(&v) < 0.0 {
        for row in v.iter_mut() {
            row[2] = -row[2];
        }
        sig[2] = -sig[2];
    }
    (CMatR3(u), sig, CMatR3(v))
}

/// Thin wrapper for a real 3×3 rotation used only inside this module.
#[derive(Debug, Clone, Copy)]
struct CMatR3([[f64; 3]; 3]);

fn det3(m: &[[f64; 3]; 3]) -> f64 {
    m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
}

fn cross(a: &[f64; 3], b: &[f64; 3]) -> [f64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

fn orth_complement(a: &[f64; 3]) -> [f64; 3] {
    let trial = if a[0].abs() < 0.9 { [1.0, 0.0, 0.0] } else { [0.0, 1.0, 0.0] };
    let mut v = cross(a, &trial);
    let n = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
    for x in v.iter_mut() {
        *x /= n;
    }
    v
}

fn gram_schmidt3(u: &mut [[f64; 3]; 3]) {
    for col in 0..3 {
        for prev in 0..col {
            let mut ip = 0.0;
            for row in 0..3 {
                ip += u[row][prev] * u[row][col];
            }
            for row in 0..3 {
                u[row][col] -= ip * u[row][prev];
            }
        }
        let mut n = 0.0;
        for row in 0..3 {
            n += u[row][col] * u[row][col];
        }
        let n = n.sqrt();
        for row in 0..3 {
            u[row][col] /= n;
        }
    }
}

/// Lifts `R ∈ SO(3)` to `U ∈ SU(2)` with `U σ_k U† = Σ_j R_jk σ_j`.
fn su2_from_so3(r: &CMatR3) -> CMat {
    let m = &r.0;
    // Axis–angle extraction, robust near angle = π via the symmetric part.
    let tr = m[0][0] + m[1][1] + m[2][2];
    let cos_t = ((tr - 1.0) / 2.0).clamp(-1.0, 1.0);
    let theta = cos_t.acos();
    let axis = if theta < 1e-9 {
        [0.0, 0.0, 1.0]
    } else if (std::f64::consts::PI - theta).abs() < 1e-6 {
        // R ≈ 2nnᵀ - I: read the axis from the diagonal.
        let nx = ((m[0][0] + 1.0) / 2.0).max(0.0).sqrt();
        let ny = ((m[1][1] + 1.0) / 2.0).max(0.0).sqrt();
        let nz = ((m[2][2] + 1.0) / 2.0).max(0.0).sqrt();
        // Fix relative signs from the off-diagonals.
        let (mut ax, mut ay, mut az) = (nx, ny, nz);
        if nx >= ny && nx >= nz {
            ay = if m[0][1] < 0.0 { -ny } else { ny };
            az = if m[0][2] < 0.0 { -nz } else { nz };
        } else if ny >= nz {
            ax = if m[0][1] < 0.0 { -nx } else { nx };
            az = if m[1][2] < 0.0 { -nz } else { nz };
        } else {
            ax = if m[0][2] < 0.0 { -nx } else { nx };
            ay = if m[1][2] < 0.0 { -ny } else { ny };
        }
        [ax, ay, az]
    } else {
        let s = 2.0 * theta.sin();
        [
            (m[2][1] - m[1][2]) / s,
            (m[0][2] - m[2][0]) / s,
            (m[1][0] - m[0][1]) / s,
        ]
    };
    // U = exp(-i θ/2 n·σ)
    let nsig = &(&pauli_x().scale(C64::real(axis[0])) + &pauli_y().scale(C64::real(axis[1])))
        + &pauli_z().scale(C64::real(axis[2]));
    expm(&nsig.scale(C64::imag(-theta / 2.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use reqisc_qmath::haar_su2;

    #[test]
    fn named_couplings() {
        let xy = Coupling::xy(1.0);
        assert!((xy.strength() - 1.0).abs() < 1e-15);
        let xx = Coupling::xx(1.0);
        assert!((xx.strength() - 1.0).abs() < 1e-15);
        assert!(xy.hamiltonian().is_hermitian(1e-14));
    }

    #[test]
    fn normal_form_of_canonical_is_itself() {
        let c = Coupling::new(0.7, 0.4, -0.2);
        let nf = normal_form(&c.hamiltonian()).expect("normal form");
        assert!((nf.coupling.a - 0.7).abs() < 1e-9);
        assert!((nf.coupling.b - 0.4).abs() < 1e-9);
        assert!((nf.coupling.c.abs() - 0.2).abs() < 1e-9);
        assert!(nf.h1.fro_norm() < 1e-9);
        assert!(nf.h2.fro_norm() < 1e-9);
    }

    #[test]
    fn normal_form_of_rotated_coupling() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..10 {
            let cc: f64 = rng.gen_range(-0.3..0.3);
            let bb: f64 = rng.gen_range(0.0f64..1.0).max(cc.abs());
            let c = Coupling::new(1.0, bb, cc);
            let u1 = haar_su2(&mut rng);
            let u2 = haar_su2(&mut rng);
            let loc = u1.kron(&u2);
            let h = loc.mul_mat(&c.hamiltonian()).mul_mat(&loc.adjoint());
            let nf = normal_form(&h).expect("normal form");
            assert!((nf.coupling.a - c.a).abs() < 1e-7, "a: {} vs {}", nf.coupling.a, c.a);
            assert!((nf.coupling.b - c.b).abs() < 1e-7);
            assert!((nf.coupling.c.abs() - c.c.abs()).abs() < 1e-7);
            assert!(nf.reconstruct().approx_eq(&h, 1e-8));
        }
    }

    #[test]
    fn normal_form_with_local_terms() {
        // Lab-frame Hamiltonian of Eq. (7): -ω1/2 ZI - ω2/2 IZ + g XX.
        let g = 1.0;
        let zi = pauli_z().kron(&id2());
        let iz = id2().kron(&pauli_z());
        let xx = pauli_x().kron(&pauli_x());
        let h = &(&zi.scale(C64::real(-0.8)) + &iz.scale(C64::real(-0.6)))
            + &xx.scale(C64::real(g));
        let nf = normal_form(&h).expect("normal form");
        assert!((nf.coupling.a - g).abs() < 1e-9);
        assert!(nf.coupling.b.abs() < 1e-9);
        assert!(nf.reconstruct().approx_eq(&h, 1e-9));
        // Locals captured.
        assert!(nf.h1.fro_norm() > 0.1);
    }

    #[test]
    fn normal_form_canonical_ordering() {
        // ZZ-dominant coupling must be rotated into XX-dominant form.
        let zz = pauli_z().kron(&pauli_z());
        let h = zz.scale(C64::real(2.0));
        let nf = normal_form(&h).expect("normal form");
        assert!((nf.coupling.a - 2.0).abs() < 1e-8);
        assert!(nf.coupling.b.abs() < 1e-8);
        assert!(nf.reconstruct().approx_eq(&h, 1e-8));
    }

    #[test]
    fn rejects_non_hermitian() {
        let mut m = CMat::identity(4);
        m[(0, 1)] = C64::new(1.0, 0.0);
        assert!(normal_form(&m).is_err());
    }

    #[test]
    fn rejects_pure_local() {
        let zi = pauli_z().kron(&id2());
        assert!(normal_form(&zi).is_err());
    }

    #[test]
    fn su2_lift_roundtrip() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..20 {
            let u = haar_su2(&mut rng);
            // Build R from U, lift back, compare action on Paulis.
            let mut r = [[0.0f64; 3]; 3];
            let paulis = [pauli_x(), pauli_y(), pauli_z()];
            for (k, pk) in paulis.iter().enumerate() {
                let rot = u.mul_mat(pk).mul_mat(&u.adjoint());
                for (jj, pj) in paulis.iter().enumerate() {
                    r[jj][k] = pj.hs_inner(&rot).re / 2.0;
                }
            }
            let v = su2_from_so3(&CMatR3(r));
            for pk in &paulis {
                let a = u.mul_mat(pk).mul_mat(&u.adjoint());
                let b = v.mul_mat(pk).mul_mat(&v.adjoint());
                assert!(a.approx_eq(&b, 1e-7), "lift mismatch");
            }
        }
    }
}
