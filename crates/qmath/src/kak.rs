//! Canonical (KAK) decomposition of two-qubit unitaries.
//!
//! Any `U ∈ U(4)` factors as
//! `U = g · (A₁⊗A₂) · Can(x, y, z) · (B₁⊗B₂)` with `A_i, B_i ∈ SU(2)`,
//! `|g| = 1`, and `(x, y, z)` in the Weyl chamber (paper Eq. (1)).
//!
//! The algorithm works in the magic basis, where `Can` gates are diagonal
//! and local gates are real orthogonal: diagonalize the complex symmetric
//! unitary `U_m·U_mᵀ` with a real orthogonal matrix (simultaneous Jacobi on
//! its commuting real and imaginary parts), peel off the diagonal square
//! root, and canonicalize the resulting coordinates into the chamber with
//! explicit, phase-tracked local-gate moves.

use crate::c64::C64;
use crate::eig::simdiag_commuting_symmetric;
use crate::fixed::{self, from_cmat, to_cmat, Mat};
use crate::gates::array::{
    canonical_gate, hadamard, pauli_x, pauli_y, pauli_z, rx, s_gate, sdg_gate,
};
use crate::magic::{so4_to_su2_pair4, to_magic4, MAGIC_PAULI_DIAGONALS};
use crate::mat::CMat;
use crate::weyl::WeylCoord;
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

/// A canonical decomposition `U = phase · (a1⊗a2) · Can(coords) · (b1⊗b2)`.
#[derive(Debug, Clone)]
pub struct Kak {
    /// Global phase `g` with `|g| = 1`.
    pub phase: C64,
    /// Left local gate on qubit 0 (applied after the canonical gate).
    pub a1: CMat,
    /// Left local gate on qubit 1.
    pub a2: CMat,
    /// Canonical (Weyl) coordinates, in the chamber.
    pub coords: WeylCoord,
    /// Right local gate on qubit 0 (applied before the canonical gate).
    pub b1: CMat,
    /// Right local gate on qubit 1.
    pub b2: CMat,
}

impl Kak {
    /// Rebuilds the 4×4 unitary this decomposition represents.
    ///
    /// # Panics
    ///
    /// Panics if a local factor is not 2×2.
    pub fn reconstruct(&self) -> CMat {
        let k = Kak4 {
            phase: self.phase,
            a1: from_cmat(&self.a1),
            a2: from_cmat(&self.a2),
            coords: self.coords,
            b1: from_cmat(&self.b1),
            b2: from_cmat(&self.b2),
        };
        to_cmat(&k.reconstruct())
    }
}

/// [`Kak`] with its local factors on the stack: what [`kak_decompose`]
/// computes and checks before copying them out.
struct Kak4 {
    phase: C64,
    a1: Mat<2>,
    a2: Mat<2>,
    coords: WeylCoord,
    b1: Mat<2>,
    b2: Mat<2>,
}

impl Kak4 {
    fn reconstruct(&self) -> Mat<4> {
        let left = fixed::kron(&self.a1, &self.a2);
        let right = fixed::kron(&self.b1, &self.b2);
        let can = canonical_gate(self.coords.x, self.coords.y, self.coords.z);
        fixed::scale(&fixed::mul(&fixed::mul(&left, &can), &right), self.phase)
    }

    fn into_kak(self) -> Kak {
        Kak {
            phase: self.phase,
            a1: to_cmat(&self.a1),
            a2: to_cmat(&self.a2),
            coords: self.coords,
            b1: to_cmat(&self.b1),
            b2: to_cmat(&self.b2),
        }
    }
}

/// Error produced when [`kak_decompose`] is given a non-unitary input.
#[derive(Debug, Clone, PartialEq)]
pub struct KakError {
    /// Human-readable description of the failure.
    pub message: String,
}

impl std::fmt::Display for KakError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KAK decomposition failed: {}", self.message)
    }
}

impl std::error::Error for KakError {}

/// How far from unitary an input to [`kak_decompose`] may be: the largest
/// entry-wise distance of `U†·U` from the identity.
pub const KAK_UNITARY_TOL: f64 = 1e-8;

/// The largest imaginary part tolerated in the inner factor `F†·U_m`,
/// which is real orthogonal in exact arithmetic.
const INNER_REAL_TOL: f64 = 1e-6;

/// The largest entry-wise residual [`kak_decompose`] accepts when it
/// rebuilds its input from the decomposition.
const RECONSTRUCTION_TOL: f64 = 1e-6;

/// Computes the canonical decomposition of a two-qubit unitary.
///
/// # Errors
///
/// Returns [`KakError`] if `u` is not 4×4 unitary (within
/// [`KAK_UNITARY_TOL`]) or if the internal factorization fails to
/// reconstruct `u` to `1e-6` (which would indicate a numerically
/// pathological input).
///
/// # Examples
///
/// ```
/// use reqisc_qmath::{kak_decompose, gates};
/// let k = kak_decompose(&gates::cnot()).unwrap();
/// assert!((k.coords.x - std::f64::consts::FRAC_PI_4).abs() < 1e-9);
/// assert!(k.coords.y.abs() < 1e-9 && k.coords.z.abs() < 1e-9);
/// ```
pub fn kak_decompose(u: &CMat) -> Result<Kak, KakError> {
    decompose(u).map(Kak4::into_kak)
}

/// The decomposition behind [`kak_decompose`] and [`weyl_coords`], on
/// stack arrays. Every floating-point operation is the one the `CMat`
/// formulation performs, in its order (see [`crate::fixed`]).
fn decompose(u: &CMat) -> Result<Kak4, KakError> {
    if u.rows() != 4 || u.cols() != 4 {
        return Err(KakError { message: "expected a 4x4 matrix".into() });
    }
    let u: Mat<4> = from_cmat(u);
    if !fixed::is_unitary(&u, KAK_UNITARY_TOL) {
        return Err(KakError { message: "input is not unitary".into() });
    }
    // 1. Project to SU(4), remembering the removed phase.
    let det = fixed::det(&u);
    let phase0 = C64::cis(det.arg() / 4.0);
    let su = fixed::scale(&u, phase0.recip());

    // 2. Magic basis; P = U_m·U_mᵀ is complex symmetric unitary.
    let um = to_magic4(&su);
    let p = fixed::mul(&um, &fixed::transpose(&um));

    // 3. Simultaneously diagonalize Re(P), Im(P) with a real orthogonal Q.
    let mut re = [0.0; 16];
    let mut im = [0.0; 16];
    for i in 0..4 {
        for j in 0..4 {
            // Symmetrize against round-off.
            let v = (p[i][j] + p[j][i]).scale(0.5);
            re[i * 4 + j] = v.re;
            im[i * 4 + j] = v.im;
        }
    }
    let mut q = simdiag_commuting_symmetric(&re, &im);
    // Enforce det Q = +1 (so Q ∈ SO(4) maps to local unitaries).
    if det_real4(&q) < 0.0 {
        for row in 0..4 {
            q[row * 4] = -q[row * 4];
        }
    }
    let qc: Mat<4> = std::array::from_fn(|i| std::array::from_fn(|j| C64::real(q[i * 4 + j])));
    let qct = fixed::transpose(&qc);

    // 4. Eigenphases θ_k of P in Q's basis; adjust branches so Σθ = 0.
    let d = fixed::mul(&fixed::mul(&qct, &p), &qc);
    let mut theta: [f64; 4] = std::array::from_fn(|k| d[k][k].arg());
    let sum: f64 = theta.iter().sum();
    // det P = 1 so Σθ ≡ 0 (mod 2π); fold the residue into θ₀.
    let wraps = (sum / (2.0 * PI)).round();
    theta[0] -= wraps * 2.0 * PI;

    // 5. F = Q·diag(e^{iθ/2})·Qᵀ; O = F†·U_m is real special orthogonal.
    let half = fixed::diag(theta.map(|t| C64::cis(t / 2.0)));
    let f = fixed::mul(&fixed::mul(&qc, &half), &qct);
    let o = fixed::mul(&fixed::adjoint(&f), &um);
    if !o.as_flattened().iter().all(|z| z.im.abs() <= INNER_REAL_TOL) {
        return Err(KakError { message: format!("inner factor not real (max imag {:.2e})", max_imag(&o)) });
    }
    // U_m = K1 · diag(e^{iθ/2}) · K2 with K1 = Q, K2 = Qᵀ·O real orthogonal.
    let k2 = fixed::mul(&qct, &o);

    // 6. Coordinates from projecting the half-phases onto the magic
    //    diagonals of XX/YY/ZZ: θ_k/2 = -(x·dX_k + y·dY_k + z·dZ_k).
    let [dx, dy, dz] = MAGIC_PAULI_DIAGONALS;
    let proj = |dv: &[f64; 4]| -> f64 {
        -(0..4).map(|k| theta[k] / 2.0 * dv[k]).sum::<f64>() / 4.0
    };
    let coords = WeylCoord::new(proj(&dx), proj(&dy), proj(&dz));

    // 7. Transport K1, K2 out of the magic basis into SU(2)⊗SU(2).
    let (g1, a1, a2) = so4_to_su2_pair4(&qc)
        .map_err(|e| KakError { message: format!("left factor: {e}") })?;
    let (g2, b1, b2) = so4_to_su2_pair4(&k2)
        .map_err(|e| KakError { message: format!("right factor: {e}") })?;

    let mut kak = Kak4 {
        phase: phase0 * g1 * g2,
        a1,
        a2,
        coords,
        b1,
        b2,
    };
    canonicalize(&mut kak);

    // 8. Verify.
    let residual = fixed::max_dist(&kak.reconstruct(), &u);
    // Not `residual > tol`: a NaN residual must fail, as `approx_eq` did.
    let reconstructs = residual <= RECONSTRUCTION_TOL;
    if !reconstructs {
        return Err(KakError { message: format!("reconstruction residual {residual:.3e}") });
    }
    if !kak.coords.in_chamber() {
        return Err(KakError {
            message: format!(
                "coords {} = ({:e}, {:e}, {:e}) not canonical",
                kak.coords, kak.coords.x, kak.coords.y, kak.coords.z
            ),
        });
    }
    Ok(kak)
}

/// Returns only the Weyl coordinates of a two-qubit unitary.
///
/// # Errors
///
/// Same conditions as [`kak_decompose`].
pub fn weyl_coords(u: &CMat) -> Result<WeylCoord, KakError> {
    decompose(u).map(|k| k.coords)
}

/// The local-equivalence trace invariant `tr(U_m · U_mᵀ)` of a two-qubit
/// unitary, where `U_m` is `u` in the magic basis.
///
/// The eigenvalues of `M = U_m U_mᵀ` are the squared magic eigenphases
/// `e^{2iφ_k}`; for `det u = 1` their multiset *characterizes* the local
/// equivalence class (Makhlin), and because `M` is unitary with fixed
/// determinant, the full multiset is already pinned by this single complex
/// trace once one eigenvalue is known. That makes the trace the cheapest
/// smooth local-equivalence residual available — no eigendecomposition, no
/// chamber canonicalization, no branch folds — which is exactly what the
/// EA boundary-curve solver in `reqisc-microarch` needs: compare against
/// [`crate::weyl::WeylCoord::local_invariant_trace`] of the target.
///
/// Cost: one basis conjugation plus a sum of squared entries (`tr(A·Aᵀ) =
/// Σ_{ij} A_{ij}²`, no conjugation).
pub fn local_invariant_trace(u: &CMat) -> C64 {
    let m = to_magic4(&from_cmat(u));
    let mut s = C64::real(0.0);
    for i in 0..4 {
        for j in 0..4 {
            s += m[i][j] * m[i][j];
        }
    }
    s
}

/// True when two 4×4 unitaries are locally equivalent (same Weyl point).
///
/// # Errors
///
/// Propagates [`KakError`] from either decomposition.
pub fn locally_equivalent(u: &CMat, v: &CMat, tol: f64) -> Result<bool, KakError> {
    Ok(weyl_coords(u)?.approx_eq(&weyl_coords(v)?, tol))
}

fn max_imag(m: &Mat<4>) -> f64 {
    let mut worst = 0.0f64;
    for z in m.as_flattened() {
        worst = worst.max(z.im.abs());
    }
    worst
}

fn det_real4(a: &[f64]) -> f64 {
    // Expand along first row using 3x3 minors.
    let m3 = |r: [usize; 3], c: [usize; 3]| -> f64 {
        a[r[0] * 4 + c[0]] * (a[r[1] * 4 + c[1]] * a[r[2] * 4 + c[2]] - a[r[1] * 4 + c[2]] * a[r[2] * 4 + c[1]])
            - a[r[0] * 4 + c[1]] * (a[r[1] * 4 + c[0]] * a[r[2] * 4 + c[2]] - a[r[1] * 4 + c[2]] * a[r[2] * 4 + c[0]])
            + a[r[0] * 4 + c[2]] * (a[r[1] * 4 + c[0]] * a[r[2] * 4 + c[1]] - a[r[1] * 4 + c[1]] * a[r[2] * 4 + c[0]])
    };
    a[0] * m3([1, 2, 3], [1, 2, 3]) - a[1] * m3([1, 2, 3], [0, 2, 3]) + a[2] * m3([1, 2, 3], [0, 1, 3])
        - a[3] * m3([1, 2, 3], [0, 1, 2])
}

// --- canonicalization ------------------------------------------------------

/// In-place coordinate moves. Each individual move preserves
/// `kak.reconstruct()` exactly; the face pin in [`canonicalize`] is the one
/// exception (see below).
struct Canon<'a> {
    k: &'a mut Kak4,
}

impl Canon<'_> {
    fn coord(&self, idx: usize) -> f64 {
        match idx {
            0 => self.k.coords.x,
            1 => self.k.coords.y,
            _ => self.k.coords.z,
        }
    }

    fn coord_mut(&mut self, idx: usize) -> &mut f64 {
        match idx {
            0 => &mut self.k.coords.x,
            1 => &mut self.k.coords.y,
            _ => &mut self.k.coords.z,
        }
    }

    /// Shifts coordinate `idx` by `sign·π/2`, absorbing the Pauli⊗Pauli and
    /// phase into the left locals:
    /// `Can(x,…) = (∓i)·(P⊗P)·Can(x∓π/2,…)`.
    fn shift(&mut self, idx: usize, sign: f64) {
        let p = match idx {
            0 => pauli_x(),
            1 => pauli_y(),
            _ => pauli_z(),
        };
        *self.coord_mut(idx) += sign * FRAC_PI_2;
        // Decreasing the stored coordinate means we factored
        // Can(c) = -i (P⊗P) Can(c-π/2); increasing uses +i.
        let ph = if sign < 0.0 { C64::imag(-1.0) } else { C64::imag(1.0) };
        self.k.phase *= ph;
        self.k.a1 = fixed::mul(&self.k.a1, &p);
        self.k.a2 = fixed::mul(&self.k.a2, &p);
    }

    /// Negates the two coordinates other than `keep` by conjugating with a
    /// Pauli on qubit 0.
    fn negate_other_two(&mut self, keep: usize) {
        let p = match keep {
            0 => pauli_x(), // X⊗I negates y and z
            1 => pauli_y(), // Y⊗I negates x and z
            _ => pauli_z(), // Z⊗I negates x and y
        };
        for idx in 0..3 {
            if idx != keep {
                let v = self.coord(idx);
                *self.coord_mut(idx) = -v;
            }
        }
        self.k.a1 = fixed::mul(&self.k.a1, &p);
        self.k.b1 = fixed::mul(&p, &self.k.b1);
    }

    /// Swaps two coordinates by conjugating with a Clifford on both qubits.
    fn swap_coords(&mut self, i: usize, j: usize) {
        assert!(i < j);
        // (i,j) = (0,1): S-conjugation; (0,2): H; (1,2): Rx(π/2).
        let (c, cdg) = match (i, j) {
            (0, 1) => (sdg_gate(), s_gate()),
            (0, 2) => (hadamard(), hadamard()),
            _ => (rx(FRAC_PI_2), rx(-FRAC_PI_2)),
        };
        let vi = self.coord(i);
        let vj = self.coord(j);
        *self.coord_mut(i) = vj;
        *self.coord_mut(j) = vi;
        // Can(old) = (C⊗C) · Can(swapped) · (C†⊗C†) with the conventions
        // picked so the identity holds exactly (verified by tests).
        self.k.a1 = fixed::mul(&self.k.a1, &c);
        self.k.a2 = fixed::mul(&self.k.a2, &c);
        self.k.b1 = fixed::mul(&cdg, &self.k.b1);
        self.k.b2 = fixed::mul(&cdg, &self.k.b2);
    }
}

/// Tolerance of the `x = π/4` face snap in [`kak_decompose`]'s
/// canonicalization: coordinates within this distance of the face are
/// pinned to *bitwise* `π/4`, perturbing reconstruction by at most the
/// same amount.
///
/// This constant is part of the shared segment's format contract: a
/// whole-program segment value carries its reply record, whose SU(4)
/// gate durations are priced through this KAK, so the snap decides the
/// persisted durations (it keeps the whole CNOT family on the face
/// instead of straddling `π/4 ± ε`). Changing it would let peers serve
/// durations the new canonicalization no longer computes — any change
/// must bump `STORE_FORMAT_VERSION`.
pub const KAK_FACE_SNAP_TOL: f64 = 1e-8;

/// How far below zero `z` must sit (on the `x = π/4` face) before the
/// face rule bothers to flip it — values inside this band are noise.
const FACE_Z_GUARD: f64 = 1e-12;

/// Coordinates with magnitude under this are snapped to exactly `0.0`
/// on output so `-0.0` never leaks into cache keys or display.
const COORD_ZERO_SNAP: f64 = 1e-14;

/// Moves the coordinates of `kak` into the canonical Weyl chamber while
/// preserving the reconstructed unitary up to ~[`KAK_FACE_SNAP_TOL`]:
/// coordinates within that tolerance of the `x = π/4` face are pinned to
/// it, perturbing reconstruction by at most that much (exact everywhere
/// else).
fn canonicalize(kak: &mut Kak4) {
    let mut c = Canon { k: kak };
    for _round in 0..4 {
        // 1. Fold every coordinate into (-π/4, π/4].
        for idx in 0..3 {
            while c.coord(idx) > FRAC_PI_4 + 1e-12 {
                c.shift(idx, -1.0);
            }
            while c.coord(idx) <= -FRAC_PI_4 - 1e-12 {
                c.shift(idx, 1.0);
            }
            // Map the open lower face -π/4 (within eps) up to +π/4.
            if c.coord(idx) < -FRAC_PI_4 + 1e-12 {
                c.shift(idx, 1.0);
            }
        }
        // 2. Sort by |coordinate| descending (stable bubble over 3 entries).
        for _ in 0..3 {
            if c.coord(0).abs() < c.coord(1).abs() - 1e-15 {
                c.swap_coords(0, 1);
            }
            if c.coord(1).abs() < c.coord(2).abs() - 1e-15 {
                c.swap_coords(1, 2);
            }
        }
        // 3. Fix signs: make x ≥ 0 (negate x with z as companion), then
        //    y ≥ 0 (negate y with z).
        if c.coord(0) < 0.0 {
            c.negate_other_two(1); // negates x and z
        }
        if c.coord(1) < 0.0 {
            c.negate_other_two(0); // negates y and z
        }
        // 4. Face rule: on x = π/4 require z ≥ 0 (tolerance must be at
        // least as wide as `in_chamber`'s WEYL_EPS).
        if (c.coord(0) - FRAC_PI_4).abs() < KAK_FACE_SNAP_TOL && c.coord(2) < -FACE_Z_GUARD {
            // (π/4, y, z<0) → negate (x,z) → (-π/4, y, -z) → shift x up.
            c.negate_other_two(1);
            c.shift(0, 1.0);
            // x is only known to be on the face within KAK_FACE_SNAP_TOL
            // above, and the transform maps x = π/4 - δ to π/4 + δ, which
            // `in_chamber` (tolerance WEYL_EPS = 1e-9) rejects — folding it
            // back just oscillates. The gate is numerically *on* the face,
            // so pin the coordinate there (perturbs reconstruction by at
            // most the snap tolerance, far inside every consumer's own).
            *c.coord_mut(0) = FRAC_PI_4;
        }
        if c.k.coords.in_chamber() {
            break;
        }
    }
    // Snap tiny negative zeros for tidy output.
    for v in [&mut kak.coords.x, &mut kak.coords.y, &mut kak.coords.z] {
        if v.abs() < COORD_ZERO_SNAP {
            *v = 0.0;
        }
    }
}

/// Decomposes `u` against a fixed target convention and returns the pieces
/// `(phase, a1, a2, coords, b1, b2)` — convenience for callers that do not
/// want to depend on the [`Kak`] struct.
///
/// # Errors
///
/// Same conditions as [`kak_decompose`].
pub fn kak_parts(u: &CMat) -> Result<(C64, CMat, CMat, WeylCoord, CMat, CMat), KakError> {
    let k = kak_decompose(u)?;
    Ok((k.phase, k.a1, k.a2, k.coords, k.b1, k.b2))
}

/// Verifies `u ~ Can(coords)` up to local gates, returning the max residual
/// in the coordinates. Mostly used by tests and the microarchitecture's
/// self-checks.
///
/// # Errors
///
/// Same conditions as [`kak_decompose`].
pub fn coord_residual(u: &CMat, target: &WeylCoord) -> Result<f64, KakError> {
    let c = weyl_coords(u)?;
    Ok((c.x - target.x)
        .abs()
        .max((c.y - target.y).abs())
        .max((c.z - target.z).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::{b_gate, canonical_gate, cnot, cz, ecp_gate, iswap, sqisw, swap, u3};
    use crate::haar::{haar_su2, haar_unitary};
    use crate::magic::kron_factor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check_roundtrip(u: &CMat) -> Kak {
        let k = kak_decompose(u).expect("kak");
        let rec = k.reconstruct();
        assert!(
            rec.approx_eq(u, 1e-8),
            "reconstruction residual {:.3e}",
            rec.max_dist(u)
        );
        assert!(k.coords.in_chamber(), "coords {} not canonical", k.coords);
        assert!(k.a1.is_unitary(1e-9) && k.a2.is_unitary(1e-9));
        assert!(k.b1.is_unitary(1e-9) && k.b2.is_unitary(1e-9));
        k
    }

    #[test]
    fn named_gate_coordinates() {
        let cases: Vec<(CMat, WeylCoord)> = vec![
            (cnot(), WeylCoord::cnot()),
            (cz(), WeylCoord::cnot()),
            (iswap(), WeylCoord::iswap()),
            (swap(), WeylCoord::swap()),
            (sqisw(), WeylCoord::sqisw()),
            (b_gate(), WeylCoord::b_gate()),
            (ecp_gate(), WeylCoord::ecp()),
        ];
        for (g, want) in cases {
            let k = check_roundtrip(&g);
            assert!(
                k.coords.approx_eq(&want, 1e-8),
                "got {} want {}",
                k.coords,
                want
            );
        }
    }

    #[test]
    fn identity_and_locals_have_zero_coords() {
        let mut rng = StdRng::seed_from_u64(21);
        check_roundtrip(&CMat::identity(4));
        for _ in 0..8 {
            let l = haar_su2(&mut rng).kron(&haar_su2(&mut rng));
            let k = check_roundtrip(&l);
            assert!(k.coords.l1_norm() < 1e-7, "locals must map to origin");
        }
    }

    #[test]
    fn haar_random_roundtrips() {
        let mut rng = StdRng::seed_from_u64(1234);
        for _ in 0..60 {
            let u = haar_unitary(4, &mut rng);
            check_roundtrip(&u);
        }
    }

    #[test]
    fn canonical_gates_return_their_own_coords() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..40 {
            // Random point inside the open chamber.
            let x: f64 = rng.gen_range(0.0..FRAC_PI_4);
            let y: f64 = rng.gen_range(0.0..x.min(FRAC_PI_4 - 1e-3));
            let z: f64 = rng.gen_range(-y..y.max(1e-12));
            let g = canonical_gate(x, y, z);
            let k = check_roundtrip(&g);
            assert!(
                k.coords.approx_eq(&WeylCoord::new(x, y, z), 1e-7),
                "got {} want ({x}, {y}, {z})",
                k.coords
            );
        }
    }

    #[test]
    fn dressed_canonical_gates_keep_coords() {
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..30 {
            let x: f64 = rng.gen_range(0.0..FRAC_PI_4);
            let y: f64 = rng.gen_range(0.0..=x);
            let z: f64 = rng.gen_range(-y..=y);
            let core = canonical_gate(x, y, z);
            let l = haar_su2(&mut rng).kron(&haar_su2(&mut rng));
            let r = haar_su2(&mut rng).kron(&haar_su2(&mut rng));
            let u = l.mul_mat(&core).mul_mat(&r);
            let k = check_roundtrip(&u);
            // Same class: compare against the canonicalized version of (x,y,z).
            let kc = kak_decompose(&core).unwrap();
            assert!(
                k.coords.approx_eq(&kc.coords, 1e-7),
                "dressing changed coords: {} vs {}",
                k.coords,
                kc.coords
            );
        }
    }

    #[test]
    fn locally_equivalent_detects_classes() {
        assert!(locally_equivalent(&cnot(), &cz(), 1e-8).unwrap());
        assert!(!locally_equivalent(&cnot(), &iswap(), 1e-3).unwrap());
    }

    #[test]
    fn global_phase_recovered() {
        let g = C64::cis(0.9);
        let u = cnot().scale(g);
        let k = check_roundtrip(&u);
        assert!((k.phase.abs() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn rejects_non_unitary() {
        let m = CMat::from_fn(4, 4, |i, j| C64::real((i + j) as f64));
        assert!(kak_decompose(&m).is_err());
    }

    #[test]
    fn rejects_wrong_shape() {
        assert!(kak_decompose(&CMat::identity(2)).is_err());
    }

    #[test]
    fn coord_residual_zero_for_self() {
        let c = WeylCoord::new(0.3, 0.2, -0.1);
        // Canonicalize reference coords through a decomposition first.
        let g = canonical_gate(c.x, c.y, c.z);
        let canonical = weyl_coords(&g).unwrap();
        assert!(coord_residual(&g, &canonical).unwrap() < 1e-8);
    }

    #[test]
    fn kron_of_u3s_roundtrip() {
        let u = u3(0.3, 0.5, -0.7).kron(&u3(1.1, -0.2, 0.9));
        let k = check_roundtrip(&u);
        assert!(k.coords.l1_norm() < 1e-7);
        let _ = kron_factor(&u, 1e-8).expect("still a product");
    }
}
