//! **atomic-ordering**: every atomic site is either a stats *counter*
//! (wants `Relaxed`) or a *handoff* flag (wants a `Release` store paired
//! with an `Acquire` load). Two checks:
//!
//! * `SeqCst` anywhere is denied — on this stack it is always either an
//!   over-strong counter (pay a full fence per stats tick) or a handoff
//!   spelled without saying which side it is. The one legitimate user
//!   (`compiler/pool.rs`'s consistency-snapshot counters, whose
//!   `is_consistent` check needs a single total order) carries a
//!   file-level allow citing that argument.
//! * Release/Acquire sites must pair up: keyed by the atomic's field
//!   name across the whole workspace, a `Release`-side site with no
//!   `Acquire`-side counterpart (or vice versa) is a handoff that
//!   synchronizes with nobody. (`AcqRel` — swaps, RMW handoffs — counts
//!   as both sides.)

use crate::config::Config;
use crate::facts::FileKind;
use crate::{Diagnostic, Workspace};
use std::collections::BTreeSet;

/// Rule id.
pub const RULE: &str = "atomic-ordering";

/// Runs the rule.
pub fn check(ws: &Workspace, _cfg: &Config, out: &mut Vec<Diagnostic>) {
    // Workspace-wide pairing sets, keyed by field name.
    let mut release_side: BTreeSet<&str> = BTreeSet::new();
    let mut acquire_side: BTreeSet<&str> = BTreeSet::new();
    for f in &ws.files {
        for site in &f.atomics {
            for o in &site.orderings {
                match o.as_str() {
                    "Release" => {
                        release_side.insert(&site.field);
                    }
                    "Acquire" => {
                        acquire_side.insert(&site.field);
                    }
                    "AcqRel" => {
                        release_side.insert(&site.field);
                        acquire_side.insert(&site.field);
                    }
                    _ => {}
                }
            }
        }
    }

    for f in &ws.files {
        if f.kind != FileKind::Src {
            continue;
        }
        for site in &f.atomics {
            if f.is_test_line(site.line) {
                continue;
            }
            if site.orderings.iter().any(|o| o == "SeqCst") {
                out.push(Diagnostic::deny(
                    RULE,
                    &f.rel,
                    site.line,
                    format!(
                        "`{}.{}` uses SeqCst: classify the site — stats counter (use Relaxed) \
                         or flag handoff (Release store / Acquire load); SeqCst costs a full \
                         fence and hides which one was meant",
                        site.field, site.method
                    ),
                ));
                continue;
            }
            for o in &site.orderings {
                match o.as_str() {
                    "Release" if !acquire_side.contains(site.field.as_str()) => {
                        out.push(Diagnostic::deny(
                            RULE,
                            &f.rel,
                            site.line,
                            format!(
                                "Release on `{}.{}` has no Acquire-side counterpart anywhere \
                                 in the workspace: the handoff synchronizes with nobody \
                                 (either add the Acquire load or relax this to Relaxed)",
                                site.field, site.method
                            ),
                        ));
                    }
                    "Acquire" if !release_side.contains(site.field.as_str()) => {
                        out.push(Diagnostic::deny(
                            RULE,
                            &f.rel,
                            site.line,
                            format!(
                                "Acquire on `{}.{}` has no Release-side counterpart anywhere \
                                 in the workspace: nothing publishes the data this load \
                                 expects to observe",
                                site.field, site.method
                            ),
                        ));
                    }
                    _ => {}
                }
            }
        }
    }
}
