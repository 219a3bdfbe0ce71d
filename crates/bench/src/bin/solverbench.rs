//! `solverbench` — cold-path profile of the boundary-curve EA solver.
//!
//! Runs `solve_ea` cold on four representative tiers and prints the
//! solver's *deterministic* counters (trace evaluations, full-KAK
//! verifications, polish starts/iterations, roots per family), so the
//! cold-compile cost is assertable on a single-core CI container without
//! wall clocks. Wall time is printed for context only.
//!
//! Tiers:
//!
//! * **sliver** — the frontier-marginal full-edge-row family
//!   `(0.7, ε, 0)` under XX coupling, ε down to 1e-6: roots live in
//!   O(10⁻³)-and-thinner boundary slivers. Historical grid-solver cost:
//!   25709 full-KAK evaluations over the four ε cases (437 grid seeds +
//!   NM refinement each).
//! * **generic** — anisotropic couplings with transversal interior roots
//!   (historical cost: 8209 over two cases).
//! * **degenerate** — SWAP under XX and the near-SWAP corner (target
//!   eigenphases coincide; tangential roots; historical cost: ~8874 for
//!   the pair). The counter count here is *comparable* to the legacy
//!   solver's, but every counted evaluation is a ~4× cheaper trace
//!   evaluation instead of a full KAK decomposition, so wall time still
//!   drops ~2×.
//! * **reject** — wrong-subscheme attempts, which the conserved-phase
//!   precheck must reject with **zero** evaluations (historically ~35000
//!   wasted evaluations each).
//!
//! Budgets, asserted on every run (each a ceiling on Σ(evals+verifies)
//! of its tier; any breach exits 1):
//!
//! * sliver ≤ `SLIVER_BUDGET` — the legacy 25709 / 5, the ≥ 5× bar;
//! * generic ≤ `GENERIC_BUDGET` — the legacy 8209 / 5;
//! * degenerate ≤ `DEGENERATE_BUDGET` — a regression pin (the legacy
//!   solver spent fewer counters here, but each was a full KAK);
//! * reject: exactly 0.
//!
//! The sliver tier additionally always asserts *zero unconverged rows*
//! (every ε finds its root) — that is the regression the boundary-curve
//! rewrite exists to prevent.

use reqisc_microarch::{
    optimal_duration, solve_ea_profiled, Coupling, EaSign, EaSolveProfile,
};
use reqisc_qmath::WeylCoord;
use std::time::Instant;

/// Ceiling on Σ(evals+verifies) over the sliver tier.
const SLIVER_BUDGET: u64 = 5141;
/// Ceiling on Σ(evals+verifies) over the generic tier.
const GENERIC_BUDGET: u64 = 1641;
/// Ceiling on Σ(evals+verifies) over the degenerate tier.
const DEGENERATE_BUDGET: u64 = 13500;

struct Case {
    label: String,
    cp: Coupling,
    sign: EaSign,
    w: WeylCoord,
    /// Frontier time of the *other* EA sign when exercising the reject
    /// path (`None` = solve at the binding time).
    wrong_tau: bool,
}

fn case(label: &str, cp: Coupling, sign: EaSign, w: WeylCoord) -> Case {
    Case { label: label.to_string(), cp, sign, w, wrong_tau: false }
}

struct TierResult {
    total: u64,
    unconverged: usize,
    profiles: Vec<(String, usize, EaSolveProfile)>,
}

fn run_tier(name: &str, cases: &[Case]) -> TierResult {
    let mut result = TierResult { total: 0, unconverged: 0, profiles: Vec::new() };
    let t0 = Instant::now();
    for c in cases {
        let dur = optimal_duration(&c.w, &c.cp);
        let tau = if c.wrong_tau {
            // The non-binding EA frontier: no root can exist there.
            match c.sign {
                EaSign::Plus => (c.w.x + c.w.y + c.w.z) / (c.cp.a + c.cp.b + c.cp.c),
                EaSign::Minus => (c.w.x + c.w.y - c.w.z) / (c.cp.a + c.cp.b - c.cp.c),
            }
        } else {
            dur.tau
        };
        let (sols, profile) = solve_ea_profiled(&c.cp, c.sign, &c.w, tau, 1e-8);
        if sols.is_empty() && !c.wrong_tau {
            result.unconverged += 1;
        }
        result.total += profile.evals + profile.verifies;
        result.profiles.push((c.label.clone(), sols.len(), profile));
    }
    let elapsed = t0.elapsed();
    println!("== tier {name} ({} cases, {:.1} ms wall)", cases.len(), elapsed.as_secs_f64() * 1e3);
    println!(
        "{:<22} {:>5} {:>7} {:>8} {:>7} {:>7} {:>6} {:>6} {:>6}",
        "case", "roots", "evals", "verifies", "starts", "iters", "bnd", "int", "rej"
    );
    for (label, roots, p) in &result.profiles {
        println!(
            "{:<22} {:>5} {:>7} {:>8} {:>7} {:>7} {:>6} {:>6} {:>6}",
            label,
            roots,
            p.evals,
            p.verifies,
            p.newton_starts,
            p.newton_iters,
            p.delta_family_roots + p.omega_family_roots,
            p.interior_roots,
            p.early_rejects,
        );
    }
    println!("tier {name}: total evals+verifies = {}", result.total);
    result
}

fn main() {
    let xx = Coupling::xx(1.0);
    let aniso = Coupling::new(1.0, 0.6, 0.2);

    let sliver: Vec<Case> = [1e-3, 1e-4, 1e-5, 1e-6]
        .iter()
        .map(|&eps| {
            case(&format!("sliver eps={eps:.0e}"), xx, EaSign::Minus, WeylCoord::new(0.7, eps, 0.0))
        })
        .collect();
    let generic = vec![
        case("generic ea+", aniso, EaSign::Plus, WeylCoord::new(0.5, 0.3, -0.2)),
        case("generic ea-", aniso, EaSign::Minus, WeylCoord::new(0.5, 0.3, 0.2)),
    ];
    let degenerate = vec![
        case("swap corner", xx, EaSign::Minus, WeylCoord::swap()),
        case(
            "near-swap corner",
            xx,
            EaSign::Minus,
            WeylCoord::new(
                std::f64::consts::FRAC_PI_4,
                std::f64::consts::FRAC_PI_4,
                std::f64::consts::FRAC_PI_4 - 1e-3,
            ),
        ),
    ];
    let reject = vec![
        Case {
            label: "wrong-sign ea-".into(),
            cp: Coupling::new(1.0, 0.95, 0.9),
            sign: EaSign::Minus,
            w: WeylCoord::new(0.7, 0.6, 0.5),
            wrong_tau: false, // tau binds EA+ for this target; EA- must reject
        },
        Case {
            label: "off-frontier ea+".into(),
            cp: aniso,
            sign: EaSign::Plus,
            w: WeylCoord::new(0.5, 0.3, 0.2),
            wrong_tau: true,
        },
    ];

    let s = run_tier("sliver", &sliver);
    let g = run_tier("generic", &generic);
    let d = run_tier("degenerate", &degenerate);
    let r = run_tier("reject", &reject);

    // Historical grid-solver baselines (full-KAK evaluations, measured
    // with the instrumented legacy solver before its removal in PR 5).
    println!();
    println!("baseline (legacy grid solver): sliver 25709, generic 8209, degenerate 8874, reject ~35000/case");
    let ratio = |old: u64, new: u64| old as f64 / new.max(1) as f64;
    println!(
        "speedup (counter ratio): sliver {:.1}x, generic {:.1}x, degenerate {:.1}x",
        ratio(25709, s.total),
        ratio(8209, g.total),
        ratio(8874, d.total)
    );

    // Hard assertion: the sliver family must never lose a root again.
    assert_eq!(s.unconverged, 0, "unconverged sliver rows — the PR-5 regression guard");
    assert_eq!(g.unconverged + d.unconverged, 0, "unconverged non-sliver case");

    let mut failed = false;
    for (name, total, budget) in [
        ("sliver", s.total, SLIVER_BUDGET),
        ("generic", g.total, GENERIC_BUDGET),
        ("degenerate", d.total, DEGENERATE_BUDGET),
    ] {
        if total > budget {
            eprintln!("FAIL: {name} counters {total} exceed budget {budget}");
            failed = true;
        } else {
            println!("OK: {name} counters {total} <= budget {budget}");
        }
    }
    if r.total != 0 {
        eprintln!("FAIL: reject tier cost {} evaluations (must be 0)", r.total);
        failed = true;
    } else {
        println!("OK: reject tier cost 0 evaluations");
    }
    if failed {
        std::process::exit(1);
    }
}
