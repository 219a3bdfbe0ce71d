//! Weyl-chamber coordinates of two-qubit gates.
//!
//! A gate's nonlocal content is the point `(x, y, z)` with
//! `U ~ Can(x, y, z) = e^{-i(x·XX + y·YY + z·ZZ)}` (paper §2.2). The
//! canonical chamber is `W = {π/4 ≥ x ≥ y ≥ |z|, z ≥ 0 if x = π/4}`.

use std::f64::consts::{FRAC_PI_4, FRAC_PI_8};
use std::fmt;

/// Tolerance used by chamber predicates and coordinate comparisons.
pub const WEYL_EPS: f64 = 1e-9;

/// The SU(4) instruction-class grouping tolerance of calibration
/// consumers and the distinct-SU(4) count (paper §5.3.1 / §6.5):
/// synthesis converges to ~1e-11 infidelity, leaving ~1e-6 coordinate
/// noise, so grouping tighter than 1e-5 over-splits identical
/// instructions. No persisted byte depends on it.
pub const SU4_CLASS_TOL: f64 = 1e-5;

/// A point in (or near) the Weyl chamber.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WeylCoord {
    /// Coefficient of `XX`.
    pub x: f64,
    /// Coefficient of `YY`.
    pub y: f64,
    /// Coefficient of `ZZ`.
    pub z: f64,
}

impl WeylCoord {
    /// Creates a coordinate triple (not necessarily canonical).
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// The origin (identity-gate class).
    pub const fn identity() -> Self {
        Self::new(0.0, 0.0, 0.0)
    }

    /// Coordinates of the CNOT/CZ class.
    pub const fn cnot() -> Self {
        Self::new(FRAC_PI_4, 0.0, 0.0)
    }

    /// Coordinates of the iSWAP class.
    pub const fn iswap() -> Self {
        Self::new(FRAC_PI_4, FRAC_PI_4, 0.0)
    }

    /// Coordinates of the SWAP class.
    pub const fn swap() -> Self {
        Self::new(FRAC_PI_4, FRAC_PI_4, FRAC_PI_4)
    }

    /// Coordinates of the SQiSW (√iSWAP) class.
    pub const fn sqisw() -> Self {
        Self::new(FRAC_PI_8, FRAC_PI_8, 0.0)
    }

    /// Coordinates of the B-gate class.
    pub const fn b_gate() -> Self {
        Self::new(FRAC_PI_4, FRAC_PI_8, 0.0)
    }

    /// Coordinates of the ECP class.
    pub const fn ecp() -> Self {
        Self::new(FRAC_PI_4, FRAC_PI_8, FRAC_PI_8)
    }

    /// True when the triple lies in the canonical Weyl chamber
    /// `π/4 ≥ x ≥ y ≥ |z|` with `z ≥ 0` on the `x = π/4` face.
    pub fn in_chamber(&self) -> bool {
        let Self { x, y, z } = *self;
        let ok = x <= FRAC_PI_4 + WEYL_EPS
            && x >= y - WEYL_EPS
            && y >= z.abs() - WEYL_EPS
            && y >= -WEYL_EPS;
        let face = x < FRAC_PI_4 - WEYL_EPS || z >= -WEYL_EPS;
        ok && face
    }

    /// L1 norm `|x| + |y| + |z|` — the paper's near-identity criterion
    /// (§4.3, Fig. 5a): gates with `‖(x,y,z)‖₁ ≤ r` are mirrored.
    pub fn l1_norm(&self) -> f64 {
        self.x.abs() + self.y.abs() + self.z.abs()
    }

    /// Euclidean distance to another coordinate triple.
    pub fn dist(&self, other: &Self) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2) + (self.z - other.z).powi(2))
            .sqrt()
    }

    /// True when within `tol` (component-wise) of `other`.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        (self.x - other.x).abs() <= tol
            && (self.y - other.y).abs() <= tol
            && (self.z - other.z).abs() <= tol
    }

    /// Canonical coordinates of the *mirror gate* `SWAP · Can(x, y, z)`
    /// (paper §4.3):
    ///
    /// ```text
    /// SWAP·Can(x,y,z) ~ Can(π/4-z, π/4-y, x-π/4)   if z ≥ 0
    ///                   Can(π/4+z, π/4-y, π/4-x)   if z < 0
    /// ```
    pub fn mirror(&self) -> Self {
        let Self { x, y, z } = *self;
        if z >= 0.0 {
            Self::new(FRAC_PI_4 - z, FRAC_PI_4 - y, x - FRAC_PI_4)
        } else {
            Self::new(FRAC_PI_4 + z, FRAC_PI_4 - y, FRAC_PI_4 - x)
        }
    }

    /// True when this gate class is "near identity" under threshold `r`
    /// and should be mirrored before pulse-level realization (§4.3).
    pub fn is_near_identity(&self, r: f64) -> bool {
        self.l1_norm() <= r
    }

    /// The locally-equivalent mirror image `(π/2 - x, y, -z)` used to extend
    /// the chamber (Appendix A.1, `W_ext`).
    pub fn ext_image(&self) -> Self {
        Self::new(std::f64::consts::FRAC_PI_2 - self.x, self.y, -self.z)
    }

    /// The four magic-basis eigenphases `φ_k` of `Can(x, y, z)`, ordered
    /// by Bell state as `[Φ⁺, Φ⁻, Ψ⁺, Ψ⁻]`:
    ///
    /// ```text
    /// φ(Φ⁺) = −(x − y + z)    φ(Φ⁻) = −(−x + y + z)
    /// φ(Ψ⁺) = −(x + y − z)    φ(Ψ⁻) = +(x + y + z)
    /// ```
    ///
    /// The *squared* phases `2φ_k` are the eigenphases of `U_m·U_mᵀ`
    /// (see [`crate::kak::local_invariant_trace`]); each maps to one
    /// linear combination of the coordinates because the Bell states
    /// diagonalize `XX`, `YY`, and `ZZ` simultaneously. The EA solver's
    /// boundary curves are level sets of these phases.
    pub fn magic_eigenphases(&self) -> [f64; 4] {
        let Self { x, y, z } = *self;
        [-(x - y + z), -(-x + y + z), -(x + y - z), x + y + z]
    }

    /// Target-side counterpart of [`crate::kak::local_invariant_trace`]:
    /// `Σ_k e^{2iφ_k}` over [`WeylCoord::magic_eigenphases`]. A two-qubit
    /// unitary is locally equivalent to `Can(x, y, z)` exactly when its
    /// trace invariant equals this value *and* one eigenvalue is pinned
    /// (the EA subschemes pin one Bell phase by construction).
    pub fn local_invariant_trace(&self) -> crate::c64::C64 {
        let mut s = crate::c64::C64::real(0.0);
        for p in self.magic_eigenphases() {
            s += crate::c64::C64::cis(2.0 * p);
        }
        s
    }
}

impl fmt::Display for WeylCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6}, {:.6})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_gates_are_canonical() {
        for c in [
            WeylCoord::identity(),
            WeylCoord::cnot(),
            WeylCoord::iswap(),
            WeylCoord::swap(),
            WeylCoord::sqisw(),
            WeylCoord::b_gate(),
            WeylCoord::ecp(),
        ] {
            assert!(c.in_chamber(), "{c} not in chamber");
        }
    }

    #[test]
    fn chamber_rejects_outsiders() {
        assert!(!WeylCoord::new(1.0, 0.0, 0.0).in_chamber());
        assert!(!WeylCoord::new(0.1, 0.2, 0.0).in_chamber()); // x < y
        assert!(!WeylCoord::new(0.2, 0.1, 0.15).in_chamber()); // y < |z|
        assert!(!WeylCoord::new(FRAC_PI_4, 0.2, -0.1).in_chamber()); // face rule
        // Negative z is fine off the face.
        assert!(WeylCoord::new(0.2, 0.15, -0.1).in_chamber());
    }

    #[test]
    fn mirror_of_identity_is_swap() {
        let m = WeylCoord::identity().mirror();
        // (π/4, π/4, -π/4) ~ SWAP class: |z| = π/4 = y = x.
        assert!((m.x - FRAC_PI_4).abs() < 1e-12);
        assert!((m.y - FRAC_PI_4).abs() < 1e-12);
        assert!((m.z.abs() - FRAC_PI_4).abs() < 1e-12);
    }

    #[test]
    fn mirror_of_swap_is_identity_class() {
        let m = WeylCoord::swap().mirror();
        assert!(m.l1_norm() < 1e-12);
    }

    #[test]
    fn mirror_moves_near_identity_away() {
        let c = WeylCoord::new(0.05, 0.02, 0.01);
        assert!(c.is_near_identity(0.1));
        assert!(!c.mirror().is_near_identity(0.3));
    }

    #[test]
    fn mirror_negative_z_branch() {
        let c = WeylCoord::new(0.2, 0.1, -0.05);
        let m = c.mirror();
        assert!((m.x - (FRAC_PI_4 - 0.05)).abs() < 1e-12);
        assert!((m.y - (FRAC_PI_4 - 0.1)).abs() < 1e-12);
        assert!((m.z - (FRAC_PI_4 - 0.2)).abs() < 1e-12);
    }

    #[test]
    fn ext_image_involution() {
        let c = WeylCoord::new(0.2, 0.1, 0.05);
        let e = c.ext_image().ext_image();
        assert!(c.approx_eq(&e, 1e-14));
    }
}
