//! Numerical solvers for the genAshN subschemes (paper §4.2, Algorithm 1
//! lines 12–31).
//!
//! * **ND** (no detuning): two independent sinc inversions with the
//!   smallest-root (amplitude-minimal) branch.
//! * **EA+ / EA−** (equal amplitude): solved by parameterizing the
//!   feasibility **boundary curves** of the paper's `(α, β)` eigenvalue
//!   domain directly, instead of the historical tiered grid search.
//!
//! ## The boundary-curve formulation
//!
//! Each EA subscheme conserves one Bell state: `Ψ⁻` for EA− (symmetric
//! drive) and `Ψ⁺` for EA+ (antisymmetric drive). At the binding frontier
//! time, that conserved eigenphase matches the target *by construction*,
//! so local equivalence to the target reduces to **one complex equation**
//! in the smooth invariant `F(α, β) = tr(U_m·U_mᵀ) − Σ_k e^{2iφ_k}` (see
//! [`reqisc_qmath::local_invariant_trace`]): no chamber folds, no KAK per
//! probe, and an immediate O(1) rejection when the conserved phase cannot
//! match (which is what makes wrong-subscheme fallback attempts free).
//!
//! For a unitary with fixed determinant, `det(M − e^{it}·I)` collapses to
//! a *real* scalar `g_t = Im(e1·e^{iθ_t}) − sin(t + θ_t)` affine in the
//! triplet trace `e1` — so "the realized spectrum contains the target
//! eigenphase `t`" is a smooth curve `{g_t = 0}` in `(α, β)`, and on that
//! curve `F` is confined to a fixed complex ray whose real coordinate
//! `h_t = Re(F·e^{iθ_t})` is the single remaining root condition. The
//! solver therefore:
//!
//! 1. solves the **pure-detuning and pure-amplitude boundary families**
//!    (the `α = 1` / `β = 0` and `δ = 0` edges, where frontier-marginal
//!    sliver roots live) as 1-D sign-scans in log-spaced coordinates —
//!    the O(10⁻³)-sliver roots that used to need edge-seed quotas and
//!    reserve waves are now found by construction;
//! 2. walks the interior matched-eigenphase curves `{g_t = 0}` on a
//!    shared lattice over `(α, ln β)` (log below β = 1, phase-resolved
//!    above), brackets sign changes of `h_t` along them, and polishes
//!    each bracket with a local 2-D Newton in the `(g, h)` chart;
//! 3. for targets with (near-)degenerate eigenphases — `x ≈ y`, `y ≈ z`
//!    SU(4) classes, where roots are tangential and can split into close
//!    pairs — refines the best-separated curve and falls back to a few
//!    Nelder–Mead polishes of the true Weyl residual.
//!
//! Every candidate is verified against the exact evolution
//! `e^{-iτ(H + H₁ + H₂)}` exactly as before; returned solutions are
//! sorted by the physical implementation penalty `|Ω| + |δ|`.

// lint:allow-file(tolerance-literal, solver-internal convergence and root-bracketing epsilons; the contract tolerances live in qmath as KAK_FACE_SNAP_TOL / SU4_CLASS_TOL)
use crate::coupling::Coupling;
use reqisc_qmath::gates::{id2, pauli_x, pauli_z};
use reqisc_qmath::weyl::WeylCoord;
use reqisc_qmath::{expm_i_hermitian, local_invariant_trace, weyl_coords, CMat, C64};
use std::cell::Cell;

/// Normalized sinc `sin(u)/u` with the removable singularity filled.
pub fn sinc(u: f64) -> f64 {
    if u.abs() < 1e-8 {
        1.0 - u * u / 6.0
    } else {
        u.sin() / u
    }
}

/// Solves `sinc(u) = v` for the smallest `u ∈ [lo, π]`.
///
/// Valid for `0 ≤ v ≤ sinc(lo)` with `lo ∈ [0, π]`; `sinc` is strictly
/// decreasing there, so bisection is exact to machine precision.
///
/// # Panics
///
/// Panics if `v` lies outside `[−ε, sinc(lo)+ε]`.
pub fn sinc_inverse(v: f64, lo: f64) -> f64 {
    let lo = lo.max(0.0);
    assert!(
        v >= -1e-9 && v <= sinc(lo) + 1e-9,
        "sinc_inverse target {v} out of range [0, {}]",
        sinc(lo)
    );
    let v = v.clamp(0.0, sinc(lo));
    let (mut a, mut b) = (lo, std::f64::consts::PI);
    if sinc(a) - v <= 0.0 {
        return a;
    }
    for _ in 0..200 {
        let m = 0.5 * (a + b);
        if sinc(m) - v > 0.0 {
            a = m;
        } else {
            b = m;
        }
        if b - a < 1e-16 {
            break;
        }
    }
    0.5 * (a + b)
}

/// Pulse parameters of one subscheme solution.
#[derive(Debug, Clone, Copy)]
pub struct PulseParams {
    /// Symmetric drive amplitude Ω₁ (qubit drives `Ω₁±Ω₂`).
    pub omega1: f64,
    /// Antisymmetric drive amplitude Ω₂.
    pub omega2: f64,
    /// Common drive detuning δ.
    pub delta: f64,
}

impl PulseParams {
    /// The paper's physical-implementation penalty `|Ω₁| + |Ω₂| + |δ|`.
    pub fn penalty(&self) -> f64 {
        self.omega1.abs() + self.omega2.abs() + self.delta.abs()
    }

    /// Local drive Hamiltonians `(H₁, H₂)` acting on the two-qubit space:
    /// `H₁ = (Ω₁+Ω₂)·X⊗I + δ·Z⊗I`, `H₂ = (Ω₁−Ω₂)·I⊗X + δ·I⊗Z` (Eq. (4)).
    pub fn drive_hamiltonians(&self) -> (CMat, CMat) {
        let x = pauli_x();
        let z = pauli_z();
        let h1 = &x.scale(C64::real(self.omega1 + self.omega2)) + &z.scale(C64::real(self.delta));
        let h2 = &x.scale(C64::real(self.omega1 - self.omega2)) + &z.scale(C64::real(self.delta));
        (h1.kron(&id2()), id2().kron(&h2))
    }
}

/// Evolves `e^{-iτ(H_coupling + H₁ + H₂)}` for the given pulse parameters.
pub fn evolve(cp: &Coupling, p: &PulseParams, tau: f64) -> CMat {
    let (h1, h2) = p.drive_hamiltonians();
    let h = &(&cp.hamiltonian() + &h1) + &h2;
    expm_i_hermitian(&h, tau)
}

/// Weyl-coordinate residual of a pulse candidate against a canonical
/// target.
pub fn residual(cp: &Coupling, p: &PulseParams, tau: f64, target: &WeylCoord) -> f64 {
    match weyl_coords(&evolve(cp, p, tau)) {
        Ok(c) => c.dist(target),
        Err(_) => f64::INFINITY,
    }
}

/// ND subscheme: `δ = 0`, solve the two sinc inversions
/// (Algorithm 1 lines 13–15).
///
/// `w` must be the *effective* (possibly mirrored) coordinates with
/// `τ = x/a` binding. Degenerate couplings (`b = ±c`) are handled by the
/// zero-amplitude limit.
pub fn solve_nd(cp: &Coupling, w: &WeylCoord, tau: f64) -> PulseParams {
    let (a, b, c) = (cp.a, cp.b, cp.c);
    debug_assert!((w.x - a * tau).abs() < 1e-9, "ND requires τ = x/a");
    let solve_branch = |coupling_term: f64, angle: f64| -> f64 {
        // sin(angle) = coupling_term·τ·sinc(Sτ), S ≥ coupling_term.
        if coupling_term.abs() * tau < 1e-12 {
            // No coupling in this channel: the angle must already be 0 and
            // any S works; choose the amplitude-free S = 0.
            return 0.0;
        }
        let v = (angle.sin() / (coupling_term * tau)).clamp(0.0, 1.0);
        let u = sinc_inverse(v, coupling_term * tau);
        u / tau
    };
    let s1 = solve_branch(b - c, w.y - w.z);
    let s2 = solve_branch(b + c, w.y + w.z);
    let omega1 = 0.5 * (s1 * s1 - (b - c) * (b - c)).max(0.0).sqrt();
    let omega2 = 0.5 * (s2 * s2 - (b + c) * (b + c)).max(0.0).sqrt();
    PulseParams { omega1, omega2, delta: 0.0 }
}

/// Which equal-amplitude variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EaSign {
    /// EA+: `Ω₁ = 0` (opposite-sign drive amplitudes), binding time τ₊.
    Plus,
    /// EA−: `Ω₂ = 0` (same-sign drive amplitudes), binding time τ₋.
    Minus,
}

/// Maps the paper's `(α, β)` eigenvalue parameters to pulse parameters for
/// an EA subscheme (Algorithm 1 lines 19–31), **projecting** infeasible
/// inputs: a negative radicand (outside the feasible region
/// `α ∈ [0, 1], β ≥ 0, α + β ≥ η`) is clamped to zero amplitude, which is
/// the boundary value the region's closure attains. Callers probing
/// arbitrary points should prefer [`ea_params_checked`], which reports
/// infeasibility instead of silently projecting — the boundary-curve
/// solver uses it so a root search can never converge to a masked-invalid
/// point.
pub fn ea_params(cp: &Coupling, sign: EaSign, alpha: f64, beta: f64) -> PulseParams {
    let (om2, de2) = ea_radicands(cp, sign, alpha, beta);
    ea_params_from_radicands(cp, sign, om2.max(0.0), de2.max(0.0))
}

/// [`ea_params`] with explicit infeasibility: returns `None` when either
/// radicand is negative beyond numerical rounding (relative to the
/// `O((1+β)²)` scale of the radicands), i.e. when `(α, β)` lies genuinely
/// outside the feasible region rather than on its boundary.
pub fn ea_params_checked(
    cp: &Coupling,
    sign: EaSign,
    alpha: f64,
    beta: f64,
) -> Option<PulseParams> {
    let (om2, de2) = ea_radicands(cp, sign, alpha, beta);
    let tol = -1e-9 * (1.0 + beta) * (1.0 + beta);
    if om2 < tol || de2 < tol {
        return None;
    }
    Some(ea_params_from_radicands(cp, sign, om2.max(0.0), de2.max(0.0)))
}

/// The two squared-amplitude radicands of the EA parameterization, in
/// units of `scale²`.
fn ea_radicands(cp: &Coupling, sign: EaSign, alpha: f64, beta: f64) -> (f64, f64) {
    let eta = ea_eta(cp, sign);
    (
        (1.0 - alpha) * beta * (1.0 - eta + alpha + beta),
        alpha * (1.0 + beta) * (alpha + beta - eta),
    )
}

fn ea_params_from_radicands(cp: &Coupling, sign: EaSign, om2: f64, de2: f64) -> PulseParams {
    let scale = ea_scale(cp, sign);
    let om = scale * om2.sqrt();
    let de = scale * de2.sqrt();
    match sign {
        EaSign::Plus => PulseParams { omega1: 0.0, omega2: om, delta: -de },
        EaSign::Minus => PulseParams { omega1: om, omega2: 0.0, delta: de },
    }
}

fn ea_scale(cp: &Coupling, sign: EaSign) -> f64 {
    match sign {
        EaSign::Plus => cp.a + cp.c,
        EaSign::Minus => cp.a - cp.c,
    }
}

fn ea_eta(cp: &Coupling, sign: EaSign) -> f64 {
    (cp.a - cp.b) / ea_scale(cp, sign)
}

/// A converged EA root with its parameterization and verification residual.
#[derive(Debug, Clone, Copy)]
pub struct EaSolution {
    /// Eigenvalue parameter α ∈ [0, 1].
    pub alpha: f64,
    /// Eigenvalue parameter β ≥ 0.
    pub beta: f64,
    /// Physical pulse parameters.
    pub params: PulseParams,
    /// Weyl-coordinate residual of the verified evolution.
    pub residual: f64,
}

/// Deterministic counters of one [`solve_ea_profiled`] call — the
/// cold-path profile `solverbench` and the CI `solver-profile` job assert
/// budgets on (wall-clock-free, so a seeding regression fails loudly even
/// on a noisy single-core runner).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EaSolveProfile {
    /// Cheap invariant-trace evaluations (`F = tr M − T`): the analog of
    /// the grid solver's seed evaluations, one 4×4 `expm` each — no KAK.
    pub evals: u64,
    /// Full Weyl-residual verifications (one KAK decomposition each),
    /// including Nelder–Mead polish steps on degenerate targets.
    pub verifies: u64,
    /// Matched-eigenphase curve points located on the lattice.
    pub curve_points: u64,
    /// Local polish starts (Newton or Nelder–Mead).
    pub newton_starts: u64,
    /// Local polish iterations across all starts.
    pub newton_iters: u64,
    /// Roots found on the pure-detuning boundary family (`Ω = 0`).
    pub delta_family_roots: u64,
    /// Roots found on the pure-amplitude boundary family (`δ = 0`).
    pub omega_family_roots: u64,
    /// Roots found by the interior curve walk.
    pub interior_roots: u64,
    /// Solves rejected outright by the conserved-eigenphase precheck (no
    /// root can exist at this `(sign, τ)`): each cost zero evaluations.
    pub early_rejects: u64,
    /// Solves whose target eigenphases were (near-)degenerate, taking the
    /// tangential-root path.
    pub degenerate_targets: u64,
}

/// Angle tolerance of the conserved-eigenphase precheck and of the
/// boundary-family fixed-pair gate.
const PHASE_MATCH_TOL: f64 = 1e-6;

/// Below this pairwise separation (radians, mod 2π) of target eigenphases
/// the root structure turns tangential and the degenerate path runs.
const DEGENERATE_PHASE_SEP: f64 = 0.05;

/// Hard β ceiling — the historical grid solver's top tier bound.
const BETA_CAP: f64 = 400.0;

/// Total eigenphase-winding budget (radians) a scan resolves before the
/// escalation doubles it; bounds the phase-spaced β range per pass.
const PHASE_BUDGET: f64 = 30.0;

/// Bell-phase mismatch distance to 0 mod 2π.
fn ang(d: f64) -> f64 {
    let two_pi = 2.0 * std::f64::consts::PI;
    let r = d.rem_euclid(two_pi);
    r.min(two_pi - r)
}

/// Eval counters shared by the solve's closures (interior mutability so
/// the residual-map lambdas stay `Fn`).
#[derive(Default)]
struct Counters {
    evals: Cell<u64>,
    verifies: Cell<u64>,
    curve_points: Cell<u64>,
    newton_starts: Cell<u64>,
    newton_iters: Cell<u64>,
}

/// Per-solve context: the target's Bell phases, the conserved index, and
/// the rotation data of the boundary-curve chart.
struct Ctx<'a> {
    cp: &'a Coupling,
    sign: EaSign,
    w: &'a WeylCoord,
    tau: f64,
    eta: f64,
    scale: f64,
    /// Target M-phases `2φ_k` of the representative `tau` binds, ordered
    /// `[Φ⁺, Φ⁻, Ψ⁺, Ψ⁻]`.
    t: [f64; 4],
    /// `Σ_k e^{i t_k}` — the target's trace invariant.
    big_t: C64,
    /// Index into `t` of the Bell state the subscheme conserves.
    fixed_idx: usize,
    /// Sum of the three non-conserved target phases.
    s3: f64,
    c: Counters,
}

impl<'a> Ctx<'a> {
    /// Builds the context with trace targets from `rep`, a locally
    /// equivalent representative of `w` (the chamber point or its
    /// extended image) — whichever one `tau` actually binds.
    fn with_rep(cp: &'a Coupling, sign: EaSign, w: &'a WeylCoord, rep: &WeylCoord, tau: f64) -> Self {
        let phis = rep.magic_eigenphases();
        let t = [2.0 * phis[0], 2.0 * phis[1], 2.0 * phis[2], 2.0 * phis[3]];
        let mut big_t = C64::real(0.0);
        for tk in t {
            big_t += C64::cis(tk);
        }
        let fixed_idx = match sign {
            EaSign::Plus => 2,  // Ψ⁺ conserved by the antisymmetric drive
            EaSign::Minus => 3, // Ψ⁻ conserved by the symmetric drive
        };
        let s3 = (0..4).filter(|&i| i != fixed_idx).map(|i| t[i]).sum();
        Ctx {
            cp,
            sign,
            w,
            tau,
            eta: ea_eta(cp, sign),
            scale: ea_scale(cp, sign),
            t,
            big_t,
            fixed_idx,
            s3,
            c: Counters::default(),
        }
    }

    /// Realized M-phase of the conserved Bell state (exact: it is an
    /// eigenvector of the full drive-on Hamiltonian).
    fn fixed_realized(&self) -> f64 {
        let (a, b, c) = (self.cp.a, self.cp.b, self.cp.c);
        match self.sign {
            // Ψ⁺: E = a+b−c ⇒ M-phase −2τ(a+b−c).
            EaSign::Plus => -2.0 * self.tau * (a + b - c),
            // Ψ⁻: E = −(a+b+c) ⇒ M-phase +2τ(a+b+c).
            EaSign::Minus => 2.0 * self.tau * (a + b + c),
        }
    }

    /// Projects a probe point onto the closed feasible region. The
    /// projection is explicit (and `ea_params_checked` would accept the
    /// result) — nothing downstream relies on silent radicand masking.
    fn project(&self, al: f64, be: f64) -> (f64, f64) {
        let al = al.clamp(0.0, 1.0);
        (al, be.max(self.eta - al).max(0.0))
    }

    fn params(&self, al: f64, be: f64) -> PulseParams {
        let (al, be) = self.project(al, be);
        ea_params_checked(self.cp, self.sign, al, be)
            .expect("projected point must be feasible")
    }

    /// `F = tr M − T` for the given params (counted).
    fn f_params(&self, p: &PulseParams) -> C64 {
        self.c.evals.set(self.c.evals.get() + 1);
        local_invariant_trace(&evolve(self.cp, p, self.tau)) - self.big_t
    }

    fn f(&self, al: f64, be: f64) -> C64 {
        self.f_params(&self.params(al, be))
    }

    /// `(g_k, h_k)` at a point for curve phase `t_k` (`k` indexes
    /// `self.t`); see the module docs for the chart.
    fn gh(&self, al: f64, be: f64, k: usize) -> (f64, f64) {
        let f = self.f(al, be);
        self.gh_from_f(f, k)
    }

    fn gh_from_f(&self, f: C64, k: usize) -> (f64, f64) {
        let tk = self.t[k];
        let theta = 0.5 * (tk - self.s3);
        let rot = C64::cis(theta);
        // e1 = tr M_trip = (F + T) − conserved eigenvalue (exact).
        let e1 = f + self.big_t - C64::cis(self.fixed_realized());
        let g = (e1 * rot).im - (tk + theta).sin();
        let h = (f * rot).re;
        (g, h)
    }

    /// Counted full-KAK Weyl verification.
    fn verify(&self, p: &PulseParams) -> f64 {
        self.c.verifies.set(self.c.verifies.get() + 1);
        residual(self.cp, p, self.tau, self.w)
    }

    /// Fixed-pair data of a boundary family (0 = pure-detuning δ-only,
    /// 1 = pure-amplitude Ω-only): `(fixed target phase, fixed realized
    /// phase, varying-pair target phase sum)`. On a one-axis drive the
    /// Hamiltonian conserves a second Bell state, so the family can hold
    /// roots only when that state's phase also matches — the gate that
    /// makes boundary scans O(1) to skip.
    fn family_fixed(&self, family: usize) -> (f64, f64, f64) {
        let (a, b, c) = (self.cp.a, self.cp.b, self.cp.c);
        let t = &self.t;
        match (self.sign, family) {
            // EA−, δ-only: fixed {Ψ⁺, Ψ⁻}; varying {Φ⁺, Φ⁻}.
            (EaSign::Minus, 0) => (t[2], -2.0 * self.tau * (a + b - c), t[0] + t[1]),
            // EA−, Ω-only: fixed {Φ⁻, Ψ⁻}; varying {Φ⁺, Ψ⁺}.
            (EaSign::Minus, _) => (t[1], -2.0 * self.tau * (b + c - a), t[0] + t[2]),
            // EA+, δ-only: fixed {Ψ⁺, Ψ⁻}; varying {Φ⁺, Φ⁻}.
            (EaSign::Plus, 0) => (t[3], 2.0 * self.tau * (a + b + c), t[0] + t[1]),
            // EA+, Ω-only: fixed {Φ⁺, Ψ⁺}; varying {Φ⁻, Ψ⁻}.
            (EaSign::Plus, _) => (t[0], -2.0 * self.tau * (a - b + c), t[1] + t[3]),
        }
    }

    fn family_mismatch(&self, family: usize) -> f64 {
        let (ft, fr, _) = self.family_fixed(family);
        ang(fr - ft)
    }
}

/// A located root candidate before final dedup.
struct Root {
    alpha: f64,
    beta: f64,
    params: PulseParams,
    residual: f64,
}

/// Solves an EA subscheme by the boundary-curve method (module docs),
/// returning all distinct converged roots sorted by implementation
/// penalty (paper §4.2).
pub fn solve_ea(cp: &Coupling, sign: EaSign, w: &WeylCoord, tau: f64, tol: f64) -> Vec<EaSolution> {
    solve_ea_profiled(cp, sign, w, tau, tol).0
}

/// [`solve_ea`] plus the solve's deterministic cost profile.
pub fn solve_ea_profiled(
    cp: &Coupling,
    sign: EaSign,
    w: &WeylCoord,
    tau: f64,
    tol: f64,
) -> (Vec<EaSolution>, EaSolveProfile) {
    // `tau` binds either the chamber representative or its extended image
    // (π/2−x, y, −z); their M-eigenphase multisets differ (pair π-shifts),
    // so the trace targets must come from the one `tau` saturates. The
    // conserved-eigenphase test identifies it exactly — and rejects the
    // whole solve for free when neither matches (no root can exist).
    let reps = [*w, w.ext_image()];
    let mut ctx = Ctx::with_rep(cp, sign, w, &reps[0], tau);
    if ang(ctx.fixed_realized() - ctx.t[ctx.fixed_idx]) > PHASE_MATCH_TOL {
        let ctx2 = Ctx::with_rep(cp, sign, w, &reps[1], tau);
        if ang(ctx2.fixed_realized() - ctx2.t[ctx2.fixed_idx]) > PHASE_MATCH_TOL {
            return (
                Vec::new(),
                EaSolveProfile { early_rejects: 1, ..EaSolveProfile::default() },
            );
        }
        ctx = ctx2;
    }

    let mut profile = EaSolveProfile::default();
    let mut roots = boundary_family(&ctx, 0, tol);
    profile.delta_family_roots = roots.len() as u64;
    let omega_roots = boundary_family(&ctx, 1, tol);
    profile.omega_family_roots = omega_roots.len() as u64;
    roots.extend(omega_roots);
    let have_boundary_roots = !roots.is_empty();
    let interior_roots = interior(&ctx, tol, have_boundary_roots, &mut profile);
    profile.interior_roots = interior_roots.iter().filter(|r| r.residual < tol).count() as u64;
    roots.extend(interior_roots);
    // Escalation: nothing anywhere below the winding budget, but the
    // conserved phase says roots can exist — scan the legacy solver's
    // high-β tiers (up to the historical cap) before giving up.
    if !roots.iter().any(|r| r.residual < tol) {
        let q_ref = ctx.scale.abs().max(1e-12);
        let b_hi = (PHASE_BUDGET / (ctx.tau.max(1e-9) * q_ref)).min(BETA_CAP);
        if b_hi < BETA_CAP {
            let escalated = escalation_scan(&ctx, tol, b_hi);
            profile.interior_roots +=
                escalated.iter().filter(|r| r.residual < tol).count() as u64;
            roots.extend(escalated);
        }
    }

    // Filter by the verified residual, sort by (penalty, residual), and
    // deduplicate by pulse parameters — the historical output contract.
    roots.retain(|r| r.residual < tol);
    roots.sort_by(|a, b| {
        (a.params.penalty(), a.residual)
            .partial_cmp(&(b.params.penalty(), b.residual))
            .unwrap()
    });
    let mut out: Vec<EaSolution> = Vec::new();
    for r in roots {
        if !out.iter().any(|s| {
            (s.params.omega1 - r.params.omega1).abs()
                + (s.params.omega2 - r.params.omega2).abs()
                + (s.params.delta - r.params.delta).abs()
                < 1e-6 * (1.0 + r.params.penalty())
        }) {
            out.push(EaSolution {
                alpha: r.alpha,
                beta: r.beta,
                params: r.params,
                residual: r.residual,
            });
        }
    }
    profile.evals = ctx.c.evals.get();
    profile.verifies = ctx.c.verifies.get();
    profile.curve_points = ctx.c.curve_points.get();
    profile.newton_starts = ctx.c.newton_starts.get();
    profile.newton_iters = ctx.c.newton_iters.get();
    (out, profile)
}

/// 1-D solve over one boundary family of the feasible region.
///
/// `family`: `0` = pure detuning (`Ω = 0`, the union of the `β = 0` and
/// `α = 1` edges, parameterized by the physical `δ`); `1` = pure
/// amplitude (`δ = 0`, the `α + β = η` diagonal and the `α = 0` edge,
/// parameterized by `Ω`). On these one-axis drives a second Bell state is
/// conserved, `F` minus its fixed mismatch is confined to a known complex
/// ray, and roots are sign changes of the ray coordinate along log- and
/// phase-spaced scan points — frontier-marginal sliver roots fall in the
/// log-spaced span by construction.
fn boundary_family(ctx: &Ctx, family: usize, tol: f64) -> Vec<Root> {
    let (fixed_target, fixed_realized, s_pair) = ctx.family_fixed(family);
    if ang(fixed_realized - fixed_target) > PHASE_MATCH_TOL {
        return Vec::new();
    }
    let const_c = C64::cis(fixed_realized) - C64::cis(fixed_target);
    let rot = C64::cis(-0.5 * s_pair);
    let to_ab = |q: f64| -> (f64, f64) {
        let s = ctx.scale;
        let eta = ctx.eta;
        let r = (q / s) * (q / s);
        if family == 0 {
            // δ = s·√(α(1+β)(α+β−η)); β = 0 below the (α = 1, β = 0)
            // corner value, α = 1 above it.
            let q0 = s * (1.0 - eta).max(0.0).sqrt();
            if q <= q0 {
                let al = 0.5 * (eta + (eta * eta + 4.0 * r).sqrt());
                (al.min(1.0), 0.0)
            } else {
                let half = 0.5 * eta - 1.0;
                let be = half + (half * half + r - (1.0 - eta)).max(0.0).sqrt();
                (1.0, be.max(0.0))
            }
        } else {
            // Ω = s·√((1−α)β(1−η+α+β)); the α+β = η diagonal below the
            // (α = 0, β = η) corner value, α = 0 above it.
            let q0 = if ctx.eta > 0.0 { s * ctx.eta.sqrt() } else { 0.0 };
            if q < q0 {
                let disc = ((1.0 + eta) * (1.0 + eta) - 4.0 * (eta - r)).max(0.0).sqrt();
                let al = 0.5 * ((1.0 + eta) - disc);
                (al.clamp(0.0, 1.0), (eta - al).max(0.0))
            } else {
                let half = 0.5 * (1.0 - eta);
                let be = -half + (half * half + r).sqrt();
                (0.0, be.max(ctx.eta))
            }
        }
    };
    let h_of = |q: f64| -> f64 {
        let (al, be) = to_ab(q);
        ((ctx.f(al, be) - const_c) * rot).re
    };
    // Log-spaced drive magnitudes cover the slivers; phase-spaced points
    // resolve the winding above the coupling scale.
    let q_ref = ctx.scale.abs().max(1e-12);
    let mut qs: Vec<f64> = (0..14).map(|j| q_ref * 1e-5 * 10f64.powf(5.0 * j as f64 / 13.0)).collect();
    let dq = 0.45 / ctx.tau.max(1e-9);
    let q_hi = (PHASE_BUDGET / ctx.tau.max(1e-9)).min(500.0 * q_ref);
    let mut q = q_ref + dq;
    while q < q_hi {
        qs.push(q);
        q += dq;
    }
    let mut roots = Vec::new();
    let mut prev: Option<(f64, f64)> = None;
    for &qq in &qs {
        let h = h_of(qq);
        if let Some((pq, ph)) = prev {
            if ph == 0.0 {
                // The previous scan point is itself the root — verify it
                // directly (a bisection seeded with flo = 0 would treat
                // it as positive and walk away from it).
                let (al, be) = to_ab(pq);
                let p = ctx.params(al, be);
                let r = ctx.verify(&p);
                if r < tol {
                    roots.push(Root { alpha: al, beta: be, params: p, residual: r });
                }
            } else if (ph < 0.0) != (h < 0.0) {
                let (mut lo, mut hi, mut flo) = (pq, qq, ph);
                for _ in 0..60 {
                    let mid = 0.5 * (lo + hi);
                    let fm = h_of(mid);
                    if (fm < 0.0) == (flo < 0.0) {
                        lo = mid;
                        flo = fm;
                    } else {
                        hi = mid;
                    }
                    if hi - lo < 1e-14 * (1.0 + hi) {
                        break;
                    }
                }
                let (al, be) = to_ab(0.5 * (lo + hi));
                let p = ctx.params(al, be);
                let r = ctx.verify(&p);
                if r < tol {
                    roots.push(Root { alpha: al, beta: be, params: p, residual: r });
                }
            }
        }
        prev = Some((qq, h));
    }
    roots
}

/// Interior curve walk on a shared `(α, ln β)` lattice: evaluate `F` once
/// per node, locate `g_k` sign changes along both lattice directions,
/// link nearby curve points with opposite `h` into Newton starts, and
/// route (near-)degenerate targets through the tangential-root path.
///
fn interior(
    ctx: &Ctx,
    tol: f64,
    have_boundary_roots: bool,
    profile: &mut EaSolveProfile,
) -> Vec<Root> {
    let mut rows: Vec<f64> = vec![0.06, 0.18, 0.3, 0.42, 0.54, 0.66, 0.78, 0.9];
    for j in 2..=6 {
        rows.push(1.0 - 10f64.powf(-(j as f64)));
    }
    // The exact edges join the lattice only when their boundary family
    // carries a fixed-pair mismatch: then g is well-behaved there and
    // curve/edge crossings bracket roots hugging the edge. (With a
    // matched fixed pair, g vanishes identically along the edge and the
    // 1-D boundary scan owns it instead.)
    if ctx.family_mismatch(1) > 1e-4 {
        rows.insert(0, 0.0);
    }
    if ctx.family_mismatch(0) > 1e-4 {
        rows.push(1.0);
    }
    rows.sort_by(|a, b| a.partial_cmp(b).unwrap());

    // β grid: coarse log ladder through the sliver decades (the boundary
    // families and near-edge rows own those roots), dense log spacing
    // through [1e-2, 1] where interior roots live, then phase-spaced
    // above 1 out to the winding budget.
    let q_ref = ctx.scale.abs().max(1e-12);
    let db = 0.9 / (ctx.tau.max(1e-9) * q_ref * 2.0);
    let mut betas: Vec<f64> = (0..6).map(|j| 10f64.powf(-8.0 + 6.0 * j as f64 / 5.0)).collect();
    betas.extend((0..=10).map(|j| 10f64.powf(-2.0 + 2.0 * j as f64 / 10.0)));
    let b_hi = (PHASE_BUDGET / (ctx.tau.max(1e-9) * q_ref)).min(BETA_CAP);
    let mut bb = 1.0f64 + db;
    while bb < b_hi {
        betas.push(bb);
        bb += db * (1.0 + bb * 0.15);
    }
    betas.push(b_hi);

    let ks: Vec<usize> = (0..4).filter(|&i| i != ctx.fixed_idx).collect();
    let (na, nb) = (rows.len(), betas.len());
    let mut lat = vec![[(f64::NAN, f64::NAN); 4]; na * nb];
    let mut fabs = vec![f64::NAN; na * nb];
    for (i, &al) in rows.iter().enumerate() {
        for (j, &be) in betas.iter().enumerate() {
            if al + be < ctx.eta {
                continue;
            }
            let f = ctx.f(al, be);
            fabs[i * nb + j] = f.abs();
            for &k in &ks {
                lat[i * nb + j][k] = ctx.gh_from_f(f, k);
            }
        }
    }

    // Curve points per k: (α, β, h), from sign changes along both lattice
    // directions, linearly interpolated (log-β along rows).
    let mut pts: Vec<Vec<(f64, f64, f64)>> = vec![Vec::new(); 4];
    for &k in &ks {
        for i in 0..na {
            for j in 0..nb {
                let (g0, h0) = lat[i * nb + j][k];
                if g0.is_nan() {
                    continue;
                }
                if j + 1 < nb {
                    let (g1, h1) = lat[i * nb + j + 1][k];
                    if !g1.is_nan() && (g0 < 0.0) != (g1 < 0.0) {
                        let t = g0 / (g0 - g1);
                        let be = betas[j] * (betas[j + 1] / betas[j]).powf(t);
                        pts[k].push((rows[i], be, h0 + t * (h1 - h0)));
                    }
                }
                if i + 1 < na {
                    let (g1, h1) = lat[(i + 1) * nb + j][k];
                    if !g1.is_nan() && (g0 < 0.0) != (g1 < 0.0) {
                        let t = g0 / (g0 - g1);
                        let al = rows[i] + t * (rows[i + 1] - rows[i]);
                        pts[k].push((al, betas[j], h0 + t * (h1 - h0)));
                    }
                }
            }
        }
    }
    ctx.c
        .curve_points
        .set(ctx.c.curve_points.get() + pts.iter().map(|p| p.len() as u64).sum::<u64>());

    // Scaled distance between curve points: α weighted up, β compared in
    // whichever of log or phase-step units is tighter.
    let metric = |a: &(f64, f64, f64), b: &(f64, f64, f64)| -> f64 {
        let dl = ((a.1.max(1e-12)) / (b.1.max(1e-12)))
            .ln()
            .abs()
            .min((a.1 - b.1).abs() / db.max(1e-12));
        (3.0 * (a.0 - b.0)).abs() + dl
    };

    // Target-degeneracy detection: any tracked pair coinciding mod 2π
    // makes roots tangential (x ≈ y / y ≈ z SU(4) families).
    let mut degenerate = false;
    for (ii, &k1) in ks.iter().enumerate() {
        for &k2 in ks.iter().skip(ii + 1) {
            if ang(ctx.t[k1] - ctx.t[k2]) < DEGENERATE_PHASE_SEP {
                degenerate = true;
            }
        }
    }
    profile.degenerate_targets = u64::from(degenerate);

    // Newton starts: linked opposite-h curve-point pairs plus small-h
    // points, each with a promise score (smaller = closer to a root).
    let mut starts: Vec<(f64, f64, usize, f64)> = Vec::new();
    for &k in &ks {
        let list = &pts[k];
        for i in 0..list.len() {
            let (al, be, h) = list[i];
            if h.abs() < 0.03 {
                starts.push((al, be, k, h.abs()));
            }
            for pj in list.iter().skip(i + 1) {
                if metric(&list[i], pj) < 0.7 && (h < 0.0) != (pj.2 < 0.0) {
                    starts.push((
                        0.5 * (al + pj.0),
                        (be.max(1e-12) * pj.1.max(1e-12)).sqrt(),
                        k,
                        h.abs().min(pj.2.abs()),
                    ));
                }
            }
        }
    }
    // Lattice-local |F| minima as extra starts — only degenerate targets
    // need them; transversal roots are caught by the curve net.
    if degenerate {
        for i in 0..na {
            for j in 0..nb {
                let v = fabs[i * nb + j];
                if v.is_nan() || v > 0.5 {
                    continue;
                }
                let mut is_min = true;
                for (di, dj) in [(0i64, -1i64), (0, 1), (-1, 0), (1, 0)] {
                    let (ni, nj) = (i as i64 + di, j as i64 + dj);
                    if ni >= 0 && nj >= 0 && (ni as usize) < na && (nj as usize) < nb {
                        let nv = fabs[ni as usize * nb + nj as usize];
                        if !nv.is_nan() && nv < v {
                            is_min = false;
                        }
                    }
                }
                if is_min {
                    starts.push((rows[i], betas[j], ks[0], v));
                }
            }
        }
    }
    // Sort most promising first; dedup within a radius (across k too: the
    // same location under two phases converges to the same root).
    // Near-degenerate targets split roots into close pairs, so their
    // dedup radius must stay below the pair separation.
    starts.sort_by(|a, b| a.3.partial_cmp(&b.3).unwrap());
    let dedup_r = if degenerate { 0.08 } else { 0.2 };
    let mut kept: Vec<(f64, f64, usize, f64)> = Vec::new();
    for s in starts {
        if !kept.iter().any(|t| metric(&(s.0, s.1, 0.0), &(t.0, t.1, 0.0)) < dedup_r) {
            kept.push(s);
        }
    }
    let mut starts = kept;

    // The tracked phase with the largest separation from the other two:
    // curves and Newton stay transversal for it even when the remaining
    // pair degenerates.
    let k_sep = *ks
        .iter()
        .max_by(|&&a, &&b| {
            let sep = |k: usize| {
                ks.iter()
                    .filter(|&&o| o != k)
                    .map(|&o| ang(ctx.t[k] - ctx.t[o]))
                    .fold(f64::INFINITY, f64::min)
            };
            sep(a).partial_cmp(&sep(b)).unwrap()
        })
        .unwrap();

    // Degenerate-pair targets split roots into |h| dips that need not
    // cross zero at lattice resolution: chain the separated-phase curve,
    // refine the most promising segments, and add sign changes and dip
    // bottoms as extra starts. Budgets bound the work: a winding ladder
    // (escalation window) yields thousands of curve points, and only the
    // smallest-|h| stretches can hold roots.
    if degenerate && !have_boundary_roots {
        let mut pool: Vec<(f64, f64, f64)> = pts[k_sep].clone();
        let mut chains: Vec<Vec<(f64, f64, f64)>> = Vec::new();
        while let Some(seed) = pool.pop() {
            let mut cur = vec![seed];
            loop {
                let last = *cur.last().unwrap();
                let Some((bi, _)) = pool
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (i, metric(&last, p)))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                    .filter(|&(_, d)| d < 1.0)
                else {
                    break;
                };
                cur.push(pool.swap_remove(bi));
            }
            chains.push(cur);
        }
        // Candidate segments (adjacent chain pairs), most promising (the
        // smallest endpoint |h|) first, refined 4x under a global budget.
        let mut segments: Vec<(f64, (f64, f64, f64), (f64, f64, f64))> = Vec::new();
        for ch in &chains {
            for i in 0..ch.len().saturating_sub(1) {
                let (p, q) = (ch[i], ch[i + 1]);
                let score = p.2.abs().min(q.2.abs());
                if score < 0.35 {
                    segments.push((score, p, q));
                }
            }
        }
        segments.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        // Stage 1: refine the 48 most promising segments; collect exact
        // sign-change brackets and dip candidates with their *refined*
        // minimum |h|.
        let mut dips: Vec<(f64, [(f64, f64, f64); 3])> = Vec::new();
        for &(_, p, q) in segments.iter().take(48) {
            let mut fine = vec![p];
            for m in 1..4 {
                let t = m as f64 / 4.0;
                let al = p.0 + t * (q.0 - p.0);
                let be = p.1.max(1e-12) * (q.1.max(1e-12) / p.1.max(1e-12)).powf(t);
                if let Some(pt) = correct_onto_curve(ctx, al, be, k_sep) {
                    fine.push(pt);
                }
            }
            fine.push(q);
            for w in fine.windows(2) {
                let (a, b) = (w[0], w[1]);
                // Sign changes between refined neighbors are exact brackets.
                if (a.2 < 0.0) != (b.2 < 0.0) {
                    starts.push((
                        0.5 * (a.0 + b.0),
                        (a.1.max(1e-12) * b.1.max(1e-12)).sqrt(),
                        k_sep,
                        a.2.abs().min(b.2.abs()) * 0.01,
                    ));
                }
            }
            let besti = (0..fine.len())
                .min_by(|&a, &b| fine[a].2.abs().partial_cmp(&fine[b].2.abs()).unwrap())
                .unwrap();
            if besti > 0 && besti + 1 < fine.len() {
                dips.push((
                    fine[besti].2.abs(),
                    [fine[besti - 1], fine[besti], fine[besti + 1]],
                ));
            }
        }
        // Stage 2: ternary-search the globally deepest dips (a tangential
        // root bottoms out without a sign change).
        dips.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for (_, [lo, mid, hi]) in dips.into_iter().take(12) {
            let eval_at = |t: f64| -> Option<(f64, f64, f64)> {
                let al = lo.0 + t * (hi.0 - lo.0);
                let be = lo.1.max(1e-12) * (hi.1.max(1e-12) / lo.1.max(1e-12)).powf(t);
                correct_onto_curve(ctx, al, be, k_sep)
            };
            let (mut a, mut b) = (0.0f64, 1.0f64);
            let mut best_pt = mid;
            for _ in 0..7 {
                let t1 = a + (b - a) / 3.0;
                let t2 = b - (b - a) / 3.0;
                match (eval_at(t1), eval_at(t2)) {
                    (Some(p1), Some(p2)) => {
                        if p1.2.abs() < best_pt.2.abs() {
                            best_pt = p1;
                        }
                        if p2.2.abs() < best_pt.2.abs() {
                            best_pt = p2;
                        }
                        if p1.2.abs() < p2.2.abs() {
                            b = t2;
                        } else {
                            a = t1;
                        }
                    }
                    _ => break,
                }
            }
            starts.push((best_pt.0, best_pt.1, k_sep, best_pt.2.abs() * 0.1));
        }
        starts.sort_by(|a, b| a.3.partial_cmp(&b.3).unwrap());
    }

    let mut roots: Vec<Root> = Vec::new();
    if degenerate {
        // Candidate pool: score starts by their true residual (one verify
        // each — tangential |h| barely discriminates here), then keep the
        // union of the lowest-penalty half (the best-root contract:
        // low-amplitude basins must get polish slots — this is what pins
        // e.g. SWAP's (2/3, 1) optimum) and the lowest-residual half
        // (root-finding robustness: marginal targets can hide their only
        // roots in high-penalty corners). The window is generous: ~60 KAK
        // evaluations are noise next to the legacy path's thousands, and
        // a degenerate target's root basin can rank anywhere by |h|.
        let (pen_n, res_n) = if have_boundary_roots { (2, 2) } else { (8, 8) };
        let window = if have_boundary_roots { 6 } else { 24 };
        let cand: Vec<(f64, f64, f64, f64)> = starts
            .into_iter()
            .take(window)
            .map(|(al, be, _k, _s)| {
                // Symmetric degenerate targets hide their roots in basins
                // narrower than the lattice pitch (the legacy rational
                // grid hit e.g. SWAP's (1/2, 5/2) exactly); a couple of
                // coordinate-descent rounds on cheap |F| pull each
                // candidate into its local basin before the expensive
                // residual scoring.
                let (al, be) = refine_on_f(ctx, al, be);
                let (al, be) = ctx.project(al, be);
                let r = ctx.verify(&ctx.params(al, be));
                (al, be, ctx.params(al, be).penalty(), r)
            })
            .collect();
        let mut by_penalty = cand.clone();
        by_penalty.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
        let mut by_residual = cand;
        by_residual.sort_by(|a, b| a.3.partial_cmp(&b.3).unwrap());
        let mut scored: Vec<(f64, f64, f64)> = Vec::new();
        for (al, be, _pen, r) in
            by_penalty.into_iter().take(pen_n).chain(by_residual.into_iter().take(res_n))
        {
            if !scored.iter().any(|&(a, b2, _)| {
                (a - al).abs() < 1e-12 && (b2 - be).abs() < 1e-12 * (1.0 + be)
            }) {
                scored.push((al, be, r));
            }
        }
        // Pass 1: a cheap Newton attempt on every start. Split-pair
        // (near-degenerate) roots are transversal at fine scale, so this
        // lands them exactly; root-continuum points (marginal targets)
        // verify below tol immediately.
        let mut failures: Vec<(f64, f64, f64)> = Vec::new();
        for &(al0, be0, r0) in &scored {
            ctx.c.newton_starts.set(ctx.c.newton_starts.get() + 1);
            if r0 < tol {
                let p = ctx.params(al0, be0);
                roots.push(Root { alpha: al0, beta: be0, params: p, residual: r0 });
                continue;
            }
            if let Some((al, be)) = newton_gh(ctx, al0, be0, k_sep, 30) {
                let (al, be) = ctx.project(al, be);
                let p = ctx.params(al, be);
                let r = ctx.verify(&p);
                if r < tol {
                    roots.push(Root { alpha: al, beta: be, params: p, residual: r });
                    continue;
                }
            }
            failures.push((al0, be0, r0));
        }
        // Pass 2: Nelder–Mead on the true Weyl residual for the most
        // promising failures — the only functional that stays conical at
        // exactly-degenerate (tangential) roots. Raw (α, β) coordinates
        // and the legacy step sizes: log-β reflections overshoot the
        // narrow conical valleys these roots sit in.
        // Boundary-rooted degenerate targets (the marginal sliver
        // continuum) already hold their best root exactly; NM passes
        // would only wander the flat valley collecting duplicates.
        let nm_budget = if have_boundary_roots {
            0
        } else if roots.is_empty() {
            4
        } else {
            2
        };
        for (al0, be0, _r0) in failures.into_iter().take(nm_budget) {
            // Stage A: minimize the *smooth* |F| (cheap trace evals). The
            // Weyl residual is cliff-bounded around degenerate roots
            // (canonicalization folds), so a residual search can only
            // succeed from inside a basin that may be 1e-4 wide — |F| has
            // no folds and funnels the simplex into that basin.
            let obj_f = |al: f64, be: f64| -> f64 {
                ctx.c.newton_iters.set(ctx.c.newton_iters.get() + 1);
                let (al, be) = ctx.project(al, be);
                ctx.f(al, be).abs()
            };
            let step = if al0 > 0.99 || be0 < 0.05 { 0.004 } else { 0.08 };
            let Some((al1, be1, f1)) = nelder_mead_2d(&obj_f, al0, be0, step, 400) else {
                continue;
            };
            if f1 > 1e-6 {
                continue; // no tangential zero in reach
            }
            // Stage B: finish on the true Weyl residual from inside the
            // basin (|F| bottoms out at its ~1e-14 noise floor, which is
            // only ~1e-7 in eigenphase — not yet tol).
            let obj_r = |al: f64, be: f64| -> f64 {
                ctx.c.newton_iters.set(ctx.c.newton_iters.get() + 1);
                let (al, be) = ctx.project(al, be);
                ctx.verify(&ctx.params(al, be))
            };
            if let Some((al, be, r)) = nelder_mead_2d(&obj_r, al1, be1, 1e-3, 300) {
                if r < tol.max(1e-9) {
                    let (al, be) = ctx.project(al, be);
                    let p = ctx.params(al, be);
                    roots.push(Root { alpha: al, beta: be, params: p, residual: r });
                }
            }
        }
        return roots;
    }

    for (al0, be0, k, _s) in starts {
        ctx.c.newton_starts.set(ctx.c.newton_starts.get() + 1);
        if let Some((al, be)) = newton_gh(ctx, al0, be0, k, 20) {
            let (al, be) = ctx.project(al, be);
            let p = ctx.params(al, be);
            let r = ctx.verify(&p);
            roots.push(Root { alpha: al, beta: be, params: p, residual: r });
        }
    }
    roots
}

/// High-β rescue pass over `(b_lo, 400]`: roots out here wind the drive
/// phase tens of times (huge amplitudes) and — for the near-degenerate
/// targets that need them — sit on a 2-D *plateau* where `F ≈ 0`
/// everywhere and the curve chart degenerates. The only robust tool on a
/// plateau is the legacy recipe: rank lattice nodes by the true Weyl
/// residual and Nelder–Mead the best few. Runs only when everything
/// below the winding budget came up empty, exactly like the legacy
/// solver's 120/400 grid tiers (which burned ~35000 KAK evaluations on
/// this path).
fn escalation_scan(ctx: &Ctx, tol: f64, b_lo: f64) -> Vec<Root> {
    let q_ref = ctx.scale.abs().max(1e-12);
    // Constant phase-resolved β steps (eigenphases grow linearly in β out
    // here; a stretch would alias them), bounded per row.
    let db = (0.9 / (ctx.tau.max(1e-9) * q_ref * 2.0)).max((BETA_CAP - b_lo) / 1024.0);
    let rows = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0 - 1e-3];
    let mut nodes: Vec<(f64, f64, f64)> = Vec::new();
    for &al in &rows {
        let mut be = b_lo;
        while be <= BETA_CAP {
            let f = ctx.f(al, be);
            nodes.push((al, be, f.abs()));
            be += db;
        }
    }
    // Rank by |F|, verify the best few dozen, polish the best handful.
    nodes.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
    let mut verified: Vec<(f64, f64, f64)> = nodes
        .into_iter()
        .take(32)
        .map(|(al, be, _)| {
            let r = ctx.verify(&ctx.params(al, be));
            (al, be, r)
        })
        .collect();
    // Polish slots, half by β and half by residual: on a plateau every
    // candidate neighbours some ladder root and the low-β members carry
    // the smallest drive amplitudes (the final penalty order), while
    // isolated high-β roots are only visible through their residual.
    let mut by_beta = verified.clone();
    by_beta.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    verified.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
    let mut picks: Vec<(f64, f64, f64)> = Vec::new();
    for cand in by_beta.into_iter().take(3).chain(verified.into_iter().take(3)) {
        if !picks.iter().any(|p| (p.0 - cand.0).abs() < 1e-12 && (p.1 - cand.1).abs() < 1e-9) {
            picks.push(cand);
        }
    }
    let mut roots = Vec::new();
    for (al0, be0, r0) in picks {
        ctx.c.newton_starts.set(ctx.c.newton_starts.get() + 1);
        if r0 < tol {
            let p = ctx.params(al0, be0);
            roots.push(Root { alpha: al0, beta: be0, params: p, residual: r0 });
            continue;
        }
        let obj = |al: f64, u: f64| -> f64 {
            ctx.c.newton_iters.set(ctx.c.newton_iters.get() + 1);
            let (al, be) = ctx.project(al, u.exp());
            ctx.verify(&ctx.params(al, be))
        };
        if let Some((al, u, r)) = nelder_mead_2d(&obj, al0, be0.max(1e-25).ln(), 0.05, 300) {
            if r < tol.max(1e-9) {
                let (al, be) = ctx.project(al, u.exp());
                let p = ctx.params(al, be);
                roots.push(Root { alpha: al, beta: be, params: p, residual: r });
            }
        }
    }
    roots
}

/// Two rounds of 5-point coordinate descent on `|F|` around a candidate
/// start — cheap trace evaluations that pull a lattice-pitch-accurate
/// point into the (often much narrower) root basin of a degenerate
/// target before any KAK-priced polish runs.
fn refine_on_f(ctx: &Ctx, al0: f64, be0: f64) -> (f64, f64) {
    let (mut al, mut be) = ctx.project(al0, be0);
    let mut da = 0.06;
    let mut dbb = 0.12 * be.max(0.05);
    for _ in 0..2 {
        let mut best = (ctx.f(al, be).abs(), al);
        for cand in [al - da, al - 0.5 * da, al + 0.5 * da, al + da] {
            let c = cand.clamp(0.0, 1.0);
            let v = ctx.f(c, be).abs();
            if v < best.0 {
                best = (v, c);
            }
        }
        al = best.1;
        let mut bestb = (ctx.f(al, be).abs(), be);
        for cand in [be - dbb, be - 0.5 * dbb, be + 0.5 * dbb, be + dbb] {
            let c = cand.max(ctx.eta - al).max(0.0);
            let v = ctx.f(al, c).abs();
            if v < bestb.0 {
                bestb = (v, c);
            }
        }
        be = bestb.1;
        da *= 0.3;
        dbb *= 0.3;
    }
    (al, be)
}

/// Pulls a point back onto the curve `{g_k = 0}` with two 1-D secant
/// steps along whichever direction `g` responds to more, returning
/// `(α, β, h)` there.
fn correct_onto_curve(ctx: &Ctx, al0: f64, be0: f64, k: usize) -> Option<(f64, f64, f64)> {
    let (mut al, mut u) = (al0.clamp(0.0, 1.0), be0.max(1e-12).ln());
    let mut out = None;
    for _ in 0..2 {
        let (g0, h0) = ctx.gh(al, u.exp(), k);
        if !g0.is_finite() || !h0.is_finite() {
            return None;
        }
        out = Some((al, u.exp(), h0));
        if g0.abs() < 1e-10 {
            break;
        }
        let d = 1e-6;
        let (ga, _) = ctx.gh((al + d).min(1.0), u.exp(), k);
        let (gu, _) = ctx.gh(al, (u + d).exp(), k);
        let dga = (ga - g0) / d;
        let dgu = (gu - g0) / d;
        if dgu.abs() >= dga.abs() && dgu.abs() > 1e-14 {
            u = clamp_log_beta(u - g0 / dgu);
        } else if dga.abs() > 1e-14 {
            al = (al - g0 / dga).clamp(0.0, 1.0);
        } else {
            return None;
        }
    }
    out
}

/// Keeps a log-β iterate inside the numerically safe window (a step off a
/// near-flat derivative must not explode `exp(u)` into the Hamiltonian).
fn clamp_log_beta(u: f64) -> f64 {
    if u.is_finite() {
        u.clamp(-60.0, BETA_CAP.ln() + 0.7)
    } else {
        0.0
    }
}

/// Damped 2-D Newton on `(g_k, h_k)` in `(α, ln β)`; returns the
/// converged point or `None` (with an early abort when the bracket is a
/// phantom and the scores never contract).
fn newton_gh(ctx: &Ctx, al0: f64, be0: f64, k: usize, max_iter: usize) -> Option<(f64, f64)> {
    let (mut al, mut u) = (al0, be0.max(1e-25).ln());
    let mut best = f64::INFINITY;
    for it in 0..max_iter {
        ctx.c.newton_iters.set(ctx.c.newton_iters.get() + 1);
        let be = u.exp();
        let (g0, h0) = ctx.gh(al, be, k);
        let score = g0.abs() + h0.abs();
        if !score.is_finite() {
            return None;
        }
        if score < 1e-13 {
            return Some((al, u.exp()));
        }
        best = best.min(score);
        if it == 6 && best > 0.1 {
            return None;
        }
        let da = 1e-7 * (1.0 - al).clamp(1e-3, 0.5) + 1e-9;
        let du = 1e-7;
        // Backward difference at the α = 1 clamp: a forward probe would
        // collapse onto the clamped point (zero columns, fake-singular
        // Jacobian) and lose edge-hugging roots.
        let (al_probe, da_sign) = if al + da > 1.0 { (al - da, -1.0) } else { (al + da, 1.0) };
        let (ga, ha) = ctx.gh(al_probe, be, k);
        let (gu, hu) = ctx.gh(al, (u + du).exp(), k);
        let j00 = da_sign * (ga - g0) / da;
        let j01 = (gu - g0) / du;
        let j10 = da_sign * (ha - h0) / da;
        let j11 = (hu - h0) / du;
        let det = j00 * j11 - j01 * j10;
        if det.abs() < 1e-18 {
            return None;
        }
        let mut step_a = (-g0 * j11 + h0 * j01) / det;
        let mut step_u = (-j00 * h0 + j10 * g0) / det;
        let m = step_a.abs().max(step_u.abs());
        if m > 0.5 {
            step_a *= 0.5 / m;
            step_u *= 0.5 / m;
        }
        al = (al + step_a).clamp(0.0, 1.0);
        u = clamp_log_beta(u + step_u);
    }
    None
}

/// Minimal 2-D Nelder–Mead. Returns `(x, y, f(x,y))` of the best vertex,
/// or `None` if the simplex degenerates before converging.
fn nelder_mead_2d(
    f: &dyn Fn(f64, f64) -> f64,
    x0: f64,
    y0: f64,
    step: f64,
    max_iter: usize,
) -> Option<(f64, f64, f64)> {
    let mut pts = [
        (x0, y0, f(x0, y0)),
        (x0 + step, y0, f(x0 + step, y0)),
        (x0, y0 + step, f(x0, y0 + step)),
    ];
    for _ in 0..max_iter {
        pts.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
        let (best, mid, worst) = (pts[0], pts[1], pts[2]);
        if best.2 < 1e-12 || ((worst.2 - best.2).abs() < 1e-16 && best.2 < 1e-15) {
            return Some(best);
        }
        let cx = 0.5 * (best.0 + mid.0);
        let cy = 0.5 * (best.1 + mid.1);
        // Reflection.
        let rx = cx + (cx - worst.0);
        let ry = cy + (cy - worst.1);
        let fr = f(rx, ry);
        if fr < best.2 {
            // Expansion.
            let ex = cx + 2.0 * (cx - worst.0);
            let ey = cy + 2.0 * (cy - worst.1);
            let fe = f(ex, ey);
            pts[2] = if fe < fr { (ex, ey, fe) } else { (rx, ry, fr) };
        } else if fr < mid.2 {
            pts[2] = (rx, ry, fr);
        } else {
            // Contraction.
            let kx = cx + 0.5 * (worst.0 - cx);
            let ky = cy + 0.5 * (worst.1 - cy);
            let fk = f(kx, ky);
            if fk < worst.2 {
                pts[2] = (kx, ky, fk);
            } else {
                // Shrink toward best.
                for i in 1..3 {
                    let sx = best.0 + 0.5 * (pts[i].0 - best.0);
                    let sy = best.1 + 0.5 * (pts[i].1 - best.1);
                    pts[i] = (sx, sy, f(sx, sy));
                }
            }
        }
        let spread = (pts[0].0 - pts[2].0).abs()
            + (pts[0].1 - pts[2].1).abs()
            + (pts[0].0 - pts[1].0).abs();
        if spread < 1e-14 {
            break;
        }
    }
    pts.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
    Some(pts[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_4, FRAC_PI_8, PI};

    #[test]
    fn sinc_basics() {
        assert!((sinc(0.0) - 1.0).abs() < 1e-15);
        assert!(sinc(PI).abs() < 1e-15);
        assert!((sinc(PI / 2.0) - 2.0 / PI).abs() < 1e-15);
    }

    #[test]
    fn sinc_inverse_roundtrip() {
        for k in 1..20 {
            let u = PI * k as f64 / 21.0;
            let v = sinc(u);
            let got = sinc_inverse(v, 0.0);
            assert!((got - u).abs() < 1e-10, "u={u} got={got}");
        }
    }

    #[test]
    fn sinc_inverse_respects_lower_bound() {
        let lo = 1.0;
        let u = sinc_inverse(sinc(2.0), lo);
        assert!((u - 2.0).abs() < 1e-10);
        assert!(sinc_inverse(sinc(lo), lo) >= lo - 1e-12);
    }

    #[test]
    fn nd_solves_cnot_under_xy() {
        // CNOT (π/4, 0, 0) under XY coupling: τ = x/a = π/2, and the sinc
        // equations give nonzero symmetric drives.
        let cp = Coupling::xy(1.0);
        let w = WeylCoord::cnot();
        let tau = w.x / cp.a;
        let p = solve_nd(&cp, &w, tau);
        let r = residual(&cp, &p, tau, &w);
        assert!(r < 1e-9, "residual {r}");
    }

    #[test]
    fn nd_solves_iswap_family_with_zero_drive() {
        // iSWAP-family under XY coupling needs no local drives at all
        // (paper Fig. 6 caption).
        let cp = Coupling::xy(1.0);
        let w = WeylCoord::new(FRAC_PI_8, FRAC_PI_8, 0.0); // SQiSW
        let tau = w.x / cp.a;
        let p = solve_nd(&cp, &w, tau);
        assert!(p.omega1.abs() < 1e-9 && p.omega2.abs() < 1e-9);
        assert!(residual(&cp, &p, tau, &w) < 1e-9);
    }

    #[test]
    fn nd_handles_xx_coupling_b_equals_c() {
        // XX coupling: b = c = 0 → both channels degenerate; gates with
        // y = z = 0 (CNOT family) are free.
        let cp = Coupling::xx(1.0);
        let w = WeylCoord::cnot();
        let tau = w.x / cp.a;
        let p = solve_nd(&cp, &w, tau);
        assert!(p.penalty() < 1e-12);
        assert!(residual(&cp, &p, tau, &w) < 1e-9);
    }

    #[test]
    fn ea_params_checked_flags_infeasible_points() {
        let cp = Coupling::new(1.0, 0.6, 0.2);
        // Deep inside the feasible region: both agree.
        let a = ea_params(&cp, EaSign::Minus, 0.6, 1.0);
        let b = ea_params_checked(&cp, EaSign::Minus, 0.6, 1.0).expect("feasible");
        assert!((a.omega1 - b.omega1).abs() + (a.delta - b.delta).abs() < 1e-15);
        // α + β clearly below η: the detuning radicand is genuinely
        // negative — `ea_params` silently projects, the checked variant
        // reports the infeasibility.
        let eta = (cp.a - cp.b) / (cp.a - cp.c); // = 0.5
        assert!(ea_params_checked(&cp, EaSign::Minus, 0.1, eta - 0.3).is_none());
        assert_eq!(ea_params(&cp, EaSign::Minus, 0.1, eta - 0.3).delta, 0.0);
        // α > 1 is outside the domain too (the old code masked it).
        assert!(ea_params_checked(&cp, EaSign::Minus, 1.2, 1.0).is_none());
        // Boundary rounding stays feasible.
        assert!(ea_params_checked(&cp, EaSign::Minus, 1.0, 0.5).is_some());
    }

    #[test]
    fn ea_solves_swap_under_xx() {
        // The paper's Fig. 4 case: SWAP under XX coupling uses EA− and has
        // several roots; the selected one has minimal |Ω|+|δ|.
        let cp = Coupling::xx(1.0);
        let w = WeylCoord::swap();
        let tau = 3.0 * FRAC_PI_4;
        let sols = solve_ea(&cp, EaSign::Minus, &w, tau, 1e-8);
        assert!(!sols.is_empty(), "no EA- solution found for SWAP under XX");
        let best = &sols[0];
        assert!(best.residual < 1e-8);
        // Verify the evolution realizes SWAP-class exactly.
        assert!(residual(&cp, &best.params, tau, &w) < 1e-8);
        // The known optimum: (α, β) = (2/3, 1).
        assert!(
            (best.alpha - 2.0 / 3.0).abs() < 1e-6 && (best.beta - 1.0).abs() < 1e-5,
            "best root moved: alpha = {}, beta = {}",
            best.alpha,
            best.beta
        );
    }

    #[test]
    fn ea_finds_multiple_roots() {
        let cp = Coupling::xx(1.0);
        let w = WeylCoord::swap();
        let tau = 3.0 * FRAC_PI_4;
        let sols = solve_ea(&cp, EaSign::Minus, &w, tau, 1e-7);
        // Fig. 4 shows several valid intersections.
        assert!(!sols.is_empty());
        // Sorted by penalty.
        for pair in sols.windows(2) {
            assert!(pair[0].params.penalty() <= pair[1].params.penalty() + 1e-12);
        }
    }

    #[test]
    fn conserved_phase_precheck_rejects_for_free() {
        // EA− at EA+'s binding time: the conserved Ψ⁻ phase cannot match,
        // so the solve must reject without a single evaluation — this is
        // what makes `solve_pulse`'s wrong-subscheme fallbacks free.
        let cp = Coupling::new(1.0, 0.95, 0.9);
        let w = WeylCoord::new(0.7, 0.6, 0.5);
        let tp = (w.x + w.y - w.z) / (cp.a + cp.b - cp.c);
        let (sols, profile) = solve_ea_profiled(&cp, EaSign::Minus, &w, tp, 1e-8);
        assert!(sols.is_empty());
        assert_eq!(profile.early_rejects, 1);
        assert_eq!(profile.evals, 0, "early reject must cost zero evaluations");
    }

    #[test]
    fn profile_counts_are_bounded_on_the_sliver_tier() {
        // The frontier-marginal sliver family: the boundary-curve solver
        // must find the edge root by construction within a deterministic
        // evaluation budget (the historical grid solver spent ~4300–10000
        // full-KAK residual evaluations here).
        let cp = Coupling::xx(1.0);
        for eps in [1e-3, 1e-5, 1e-6] {
            let w = WeylCoord::new(0.7, eps, 0.0);
            let tau = crate::duration::optimal_duration(&w, &cp).tau;
            let (sols, profile) = solve_ea_profiled(&cp, EaSign::Minus, &w, tau, 1e-8);
            assert!(!sols.is_empty(), "sliver root lost at eps = {eps}");
            assert!(
                profile.delta_family_roots >= 1,
                "sliver root must come from the pure-detuning boundary family (eps = {eps})"
            );
            assert!(
                profile.evals + profile.verifies < 2500,
                "eps = {eps}: budget blown: {profile:?}"
            );
            assert!(sols[0].residual < 1e-10, "boundary bisection should be near-exact");
        }
    }

    #[test]
    fn ea_interior_root_matches_known_generic_case() {
        // A generic anisotropic coupling with a transversal interior root;
        // the curve walk pins it to full precision (the historical grid
        // solver converged to the same point).
        let cp = Coupling::new(1.0, 0.6, 0.2);
        let w = WeylCoord::new(0.5, 0.3, 0.2);
        let tau = crate::duration::optimal_duration(&w, &cp).tau;
        let (sols, profile) = solve_ea_profiled(&cp, EaSign::Minus, &w, tau, 1e-8);
        assert_eq!(sols.len(), 1);
        assert!((sols[0].alpha - 0.34353436).abs() < 1e-6);
        assert!((sols[0].beta - 2.96708814).abs() < 1e-5);
        assert!(profile.interior_roots >= 1);
        assert!(profile.evals < 1500, "generic interior solve over budget: {profile:?}");
    }

    #[test]
    fn drive_hamiltonians_shape() {
        let p = PulseParams { omega1: 0.3, omega2: 0.1, delta: -0.2 };
        let (h1, h2) = p.drive_hamiltonians();
        assert!(h1.is_hermitian(1e-14));
        assert!(h2.is_hermitian(1e-14));
        // h1 acts trivially on qubit 2.
        assert!((h1[(0, 1)].abs() - 0.0).abs() < 1e-14);
    }
}
