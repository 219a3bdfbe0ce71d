//! The genAshN gate scheme end-to-end (paper Algorithm 1, Fig. 3).
//!
//! Given a coupling Hamiltonian and a target two-qubit gate, this module
//! ① decodes the instruction into Weyl coordinates, ② handles the
//! near-identity singularity by compile-time gate mirroring (§4.3),
//! ③ selects the micro-op mode (ND / EA+ / EA−) from the binding frontier
//! time, solves the pulse parameters, and computes the 1Q corrections that
//! make the evolution *exactly* equal the target.
//!
//! Naming note: the paper's main text and appendix swap the EA+/EA− labels;
//! we follow the main text (Algorithm 1): **EA+** ⇔ binding time
//! `τ₊ = (x+y−z)/(a+b−c)` ⇔ antisymmetric drive (`Ω₁ = 0`), **EA−** ⇔
//! `τ₋ = (x+y+z)/(a+b+c)` ⇔ symmetric drive (`Ω₂ = 0`).

// lint:allow-file(tolerance-literal, pulse-scheme residual and branch guards local to the solve path)
use crate::coupling::Coupling;
use crate::duration::{optimal_duration, Duration, Image};
use crate::solver::{evolve, residual, solve_ea, solve_nd, EaSign, PulseParams};
use reqisc_qmath::weyl::WeylCoord;
use reqisc_qmath::{kak_decompose, weyl_coords, CMat, C64};

/// Default near-identity mirroring threshold `r` on the L1 norm of the Weyl
/// coordinates (§4.3; hardware-dependent in general).
pub const DEFAULT_MIRROR_THRESHOLD: f64 = 0.15;

/// The micro-op execution mode (Algorithm 1 / Fig. 3(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subscheme {
    /// No detuning (`δ = 0`), binding time `τ₀ = x/a`.
    Nd,
    /// Equal amplitudes, opposite signs (`Ω₁ = 0`), binding `τ₊`.
    EaPlus,
    /// Equal amplitudes, same sign (`Ω₂ = 0`), binding `τ₋`.
    EaMinus,
}

/// A solved pulse program for one SU(4) instruction.
#[derive(Debug, Clone)]
pub struct PulseSolution {
    /// Interaction duration τ (units of inverse coupling coefficients).
    pub tau: f64,
    /// Drive parameters (Ω₁, Ω₂, δ).
    pub params: PulseParams,
    /// Selected micro-op mode.
    pub subscheme: Subscheme,
    /// Whether the `(π/2−x, y, −z)` image was steered instead of `(x,y,z)`.
    pub image: Image,
    /// Canonical target coordinates this pulse realizes (up to locals).
    pub target: WeylCoord,
    /// Verified Weyl-coordinate error of `e^{-iτ(H+H₁+H₂)}`.
    pub residual: f64,
}

/// Error from the pulse solver.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveError {
    /// Description of the failure.
    pub message: String,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "genAshN solve failed: {}", self.message)
    }
}

impl std::error::Error for SolveError {}

/// Solves pulse parameters realizing a gate locally equivalent to
/// `Can(w)` in optimal time under coupling `cp` (Algorithm 1 lines 1–32).
///
/// `w` must be canonical. Near-identity handling is *not* applied here —
/// see [`solve_with_mirroring`] for the compiler-facing entry point.
///
/// # Errors
///
/// Returns [`SolveError`] if the numerical solver fails to reach the
/// requested tolerance (which would indicate coordinates at a control
/// singularity — e.g. deep near-identity gates).
pub fn solve_pulse(cp: &Coupling, w: &WeylCoord) -> Result<PulseSolution, SolveError> {
    let tol = 1e-8;
    if !w.in_chamber() {
        return Err(SolveError { message: format!("coordinates {w} not canonical") });
    }
    let dur: Duration = optimal_duration(w, cp);
    let tau = dur.tau;
    if tau <= 1e-14 {
        // Identity class: no pulse at all.
        return Ok(PulseSolution {
            tau: 0.0,
            params: PulseParams { omega1: 0.0, omega2: 0.0, delta: 0.0 },
            subscheme: Subscheme::Nd,
            image: Image::Direct,
            target: *w,
            residual: 0.0,
        });
    }
    let eff = dur.effective;
    let ft = dur.frontier;
    // Which frontier binds picks the subscheme; ties prefer ND (cheapest
    // control), then EA− (symmetric drive).
    let sub = if ft.t0 >= ft.tp - 1e-12 && ft.t0 >= ft.tm - 1e-12 {
        Subscheme::Nd
    } else if ft.tm >= ft.tp - 1e-12 {
        Subscheme::EaMinus
    } else {
        Subscheme::EaPlus
    };
    let attempt = |sub: Subscheme| -> Option<(Subscheme, PulseParams, f64)> {
        match sub {
            Subscheme::Nd => {
                if (eff.x - cp.a * tau).abs() > 1e-9 {
                    return None;
                }
                let p = solve_nd(cp, &eff, tau);
                let r = residual(cp, &p, tau, w);
                (r < tol).then_some((sub, p, r))
            }
            Subscheme::EaPlus => solve_ea(cp, EaSign::Plus, w, tau, tol)
                .first()
                .map(|s| (sub, s.params, s.residual)),
            Subscheme::EaMinus => solve_ea(cp, EaSign::Minus, w, tau, tol)
                .first()
                .map(|s| (sub, s.params, s.residual)),
        }
    };
    // Try the selected subscheme first, then the others (ties and boundary
    // points are sometimes better conditioned in a neighbouring sector).
    let order = match sub {
        Subscheme::Nd => [Subscheme::Nd, Subscheme::EaMinus, Subscheme::EaPlus],
        Subscheme::EaMinus => [Subscheme::EaMinus, Subscheme::EaPlus, Subscheme::Nd],
        Subscheme::EaPlus => [Subscheme::EaPlus, Subscheme::EaMinus, Subscheme::Nd],
    };
    for s in order {
        if let Some((sub, params, r)) = attempt(s) {
            return Ok(PulseSolution {
                tau,
                params,
                subscheme: sub,
                image: dur.image,
                target: *w,
                residual: r,
            });
        }
    }
    Err(SolveError {
        message: format!("no subscheme converged for {w} under ({}, {}, {})", cp.a, cp.b, cp.c),
    })
}

/// Output of the compiler-facing solve: the pulse plus the mirroring
/// decision (§4.3).
#[derive(Debug, Clone)]
pub struct MirroredSolution {
    /// The pulse program (for the mirrored gate when `swapped`).
    pub pulse: PulseSolution,
    /// True when a logical SWAP was appended and the qubit mapping must be
    /// updated by the compiler.
    pub swapped: bool,
}

/// Near-identity-aware solve: gates with `‖w‖₁ ≤ r` are replaced by their
/// mirror `SWAP·Can(w)` (far from the origin), and the logical SWAP is left
/// to the compiler's mapping tracker — no extra 2Q gate is executed.
///
/// # Errors
///
/// Propagates [`SolveError`] from the underlying solver.
pub fn solve_with_mirroring(
    cp: &Coupling,
    w: &WeylCoord,
    r: f64,
) -> Result<MirroredSolution, SolveError> {
    if w.is_near_identity(r) && w.l1_norm() > 1e-12 {
        let m = w.mirror();
        // The mirror formula lands in the chamber for near-identity inputs.
        let mc = canonicalize_coords(&m)?;
        Ok(MirroredSolution { pulse: solve_pulse(cp, &mc)?, swapped: true })
    } else {
        Ok(MirroredSolution { pulse: solve_pulse(cp, w)?, swapped: false })
    }
}

/// Canonicalizes arbitrary coordinates through an actual gate (robust to
/// out-of-chamber inputs).
pub(crate) fn canonicalize_coords(w: &WeylCoord) -> Result<WeylCoord, SolveError> {
    let g = reqisc_qmath::gates::canonical_gate(w.x, w.y, w.z);
    weyl_coords(&g).map_err(|e| SolveError { message: e.to_string() })
}

/// A fully corrected realization of a specific target unitary:
/// `(a1⊗a2) · e^{-iτ(H+H₁+H₂)} · (b1⊗b2) · phase = target`
/// (Algorithm 1 lines 33–37).
#[derive(Debug, Clone)]
pub struct GateRealization {
    /// The pulse program.
    pub pulse: PulseSolution,
    /// Post-evolution 1Q correction on qubit 0.
    pub a1: CMat,
    /// Post-evolution 1Q correction on qubit 1.
    pub a2: CMat,
    /// Pre-evolution 1Q correction on qubit 0.
    pub b1: CMat,
    /// Pre-evolution 1Q correction on qubit 1.
    pub b2: CMat,
    /// Global phase factor.
    pub phase: C64,
}

impl GateRealization {
    /// Reconstructs the realized unitary
    /// `phase · (a1⊗a2) · e^{-iτ(H+H₁+H₂)} · (b1⊗b2)`.
    pub fn reconstruct(&self, cp: &Coupling) -> CMat {
        let evo = evolve(cp, &self.pulse.params, self.pulse.tau);
        self.a1
            .kron(&self.a2)
            .mul_mat(&evo)
            .mul_mat(&self.b1.kron(&self.b2))
            .scale(self.phase)
    }
}

/// Realizes an exact target unitary: solves the pulse for its Weyl class
/// and computes the 1Q corrections from two canonical decompositions.
///
/// # Errors
///
/// Returns [`SolveError`] if `u` is not a 4×4 unitary or the pulse solve
/// fails.
pub fn realize_gate(cp: &Coupling, u: &CMat) -> Result<GateRealization, SolveError> {
    let kt = kak_decompose(u).map_err(|e| SolveError { message: e.to_string() })?;
    let pulse = solve_pulse(cp, &kt.coords)?;
    let evo = evolve(cp, &pulse.params, pulse.tau);
    let kr = kak_decompose(&evo).map_err(|e| SolveError { message: e.to_string() })?;
    if kt.coords.dist(&kr.coords) > 1e-6 {
        return Err(SolveError {
            message: format!("realized class {} differs from target {}", kr.coords, kt.coords),
        });
    }
    // U_t = (p_t/p_r)·(a_t·a_r†)·U_r·(b_r†·b_t) per qubit.
    let a1 = kt.a1.mul_mat(&kr.a1.adjoint());
    let a2 = kt.a2.mul_mat(&kr.a2.adjoint());
    let b1 = kr.b1.adjoint().mul_mat(&kt.b1);
    let b2 = kr.b2.adjoint().mul_mat(&kt.b2);
    let phase = kt.phase * kr.phase.recip();
    Ok(GateRealization { pulse, a1, a2, b1, b2, phase })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reqisc_qmath::gates as qg;
    use std::f64::consts::FRAC_PI_8;

    #[test]
    fn cnot_under_xy_is_nd() {
        let cp = Coupling::xy(1.0);
        let s = solve_pulse(&cp, &WeylCoord::cnot()).expect("solve");
        assert_eq!(s.subscheme, Subscheme::Nd);
        assert!(s.residual < 1e-8);
        assert!((s.tau - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
    }

    #[test]
    fn swap_under_xx_is_ea() {
        let cp = Coupling::xx(1.0);
        let s = solve_pulse(&cp, &WeylCoord::swap()).expect("solve");
        assert!(matches!(s.subscheme, Subscheme::EaMinus | Subscheme::EaPlus));
        assert!(s.residual < 1e-7);
        assert!((s.tau - 3.0 * std::f64::consts::FRAC_PI_4).abs() < 1e-9);
    }

    #[test]
    fn identity_is_free() {
        let cp = Coupling::xy(1.0);
        let s = solve_pulse(&cp, &WeylCoord::identity()).expect("solve");
        assert_eq!(s.tau, 0.0);
        assert_eq!(s.params.penalty(), 0.0);
    }

    #[test]
    fn near_identity_gets_mirrored() {
        let cp = Coupling::xy(1.0);
        let w = WeylCoord::new(0.03, 0.01, 0.005);
        let m = solve_with_mirroring(&cp, &w, DEFAULT_MIRROR_THRESHOLD).expect("solve");
        assert!(m.swapped);
        // The mirrored gate is far from the origin and solvable with
        // bounded amplitudes.
        assert!(m.pulse.params.penalty() < 20.0);
        assert!(m.pulse.residual < 1e-7);
    }

    #[test]
    fn far_gates_not_mirrored() {
        let cp = Coupling::xy(1.0);
        let m = solve_with_mirroring(&cp, &WeylCoord::cnot(), DEFAULT_MIRROR_THRESHOLD)
            .expect("solve");
        assert!(!m.swapped);
    }

    #[test]
    fn realize_cnot_exactly() {
        let cp = Coupling::xy(1.0);
        let r = realize_gate(&cp, &qg::cnot()).expect("realize");
        let rec = r.reconstruct(&cp);
        assert!(
            rec.approx_eq(&qg::cnot(), 1e-6),
            "residual {:.3e}",
            rec.max_dist(&qg::cnot())
        );
    }

    #[test]
    fn realize_random_su4() {
        use rand::SeedableRng;
        let cp = Coupling::xy(1.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..4 {
            let u = reqisc_qmath::haar_su4(&mut rng);
            let r = realize_gate(&cp, &u).expect("realize");
            let rec = r.reconstruct(&cp);
            assert!(rec.approx_eq(&u, 1e-6), "residual {:.3e}", rec.max_dist(&u));
            // 1Q corrections are unitary.
            assert!(r.a1.is_unitary(1e-8) && r.b2.is_unitary(1e-8));
        }
    }

    #[test]
    fn realize_under_xx_coupling() {
        let cp = Coupling::xx(1.0);
        let r = realize_gate(&cp, &qg::iswap()).expect("realize");
        let rec = r.reconstruct(&cp);
        assert!(rec.approx_eq(&qg::iswap(), 1e-6));
    }

    #[test]
    fn sqisw_family_zero_drive_xy() {
        // iSWAP-family gates are drive-free under XY coupling.
        let cp = Coupling::xy(1.0);
        let s = solve_pulse(&cp, &WeylCoord::new(FRAC_PI_8, FRAC_PI_8, 0.0)).expect("solve");
        assert!(s.params.penalty() < 1e-8, "penalty {}", s.params.penalty());
    }
}
