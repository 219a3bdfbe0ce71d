//! **tolerance-literal**: no bare `1e-N` comparison literals in
//! production code.
//!
//! The workspace's numeric contracts (KAK face snapping, SU(4) class
//! keys, solver convergence) hinge on a handful of named tolerances
//! whose exact values are load-bearing — two of them are part of the
//! persisted format surface. A bare `x < 1e-9` scattered in a
//! kernel is either (a) secretly one of those contracts, in which case
//! drift between the literal and the named constant corrupts caches, or
//! (b) a local heuristic, in which case naming it documents that.
//!
//! Flagged: scientific-notation literals with a negative exponent
//! appearing directly as a comparison operand (`<`, `>`, `<=`, `>=`) in
//! non-test production code, outside `const`/`static` definitions.
//! Numeric kernels whose local epsilons are genuinely local carry
//! `lint:allow-file(tolerance-literal, …)` with the justification.

use crate::config::Config;
use crate::facts::FileKind;
use crate::{Diagnostic, Workspace};

/// Rule id.
pub const RULE: &str = "tolerance-literal";

/// Runs the rule.
pub fn check(ws: &Workspace, _cfg: &Config, out: &mut Vec<Diagnostic>) {
    for f in &ws.files {
        if f.kind != FileKind::Src {
            continue;
        }
        for t in &f.tols {
            if t.in_const_def || f.is_test_line(t.line) {
                continue;
            }
            out.push(Diagnostic::deny(
                RULE,
                &f.rel,
                t.line,
                format!(
                    "bare tolerance literal `{}` in a comparison: name it as a `const` (and \
                     check whether it must match an existing contract constant — drift \
                     between copies of a tolerance silently changes cache-key behaviour)",
                    t.literal
                ),
            ));
        }
    }
}
