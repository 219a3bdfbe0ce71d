//! **blocking-in-critical-section**: no blocking work under the
//! latency-critical locks.
//!
//! The config marks lock classes `non-blocking-lock` (the inflight map
//! and the pipeline rings: every request thread contends for them, so a
//! holder that blocks stalls the whole service). The rule runs a
//! held-locks dataflow over the shared call graph: each function's
//! *blocking summary* — built-in blocking I/O sites (`std::fs`,
//! `std::net`, …), `blocking-call` entry points (solvers, bulk passes
//! into the segment), and condvar waits — is propagated bottom-up through
//! uniquely-resolved calls, then every classed lock-hold window is
//! checked against both its direct events and the summaries of the
//! functions it calls while holding the lock.
//!
//! Condvar waits are classified by the `condvar-class` mapping: waiting
//! on the held lock's own condvar *releases* it (that's what a wait is)
//! and is fine; waiting on any other class — or an unmapped condvar —
//! parks the thread with the lock still held and is denied.
//!
//! Summaries are seeded from production code only (`src/`, outside
//! `#[cfg(test)]`), matching the other interprocedural rules.

use crate::callgraph::{CallGraph, FnId};
use crate::config::Config;
use crate::facts::FileKind;
use crate::{Diagnostic, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// Rule id.
pub const RULE: &str = "blocking-in-critical-section";

/// One blocking fact in a function's transitive summary.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    /// Built-in blocking I/O: what was matched, "file:line" origin.
    Io(String, String),
    /// A `blocking-call` entry point: name, origin.
    Entry(String, String),
    /// A condvar wait: mapped class (None = unmapped), condvar name,
    /// origin.
    Wait(Option<String>, String, String),
}

/// Runs the rule.
pub fn check(ws: &Workspace, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if cfg.non_blocking_locks.is_empty() {
        return;
    }
    let cg = CallGraph::build(ws);

    // Per-function direct blocking facts (production code only).
    let mut seeds: BTreeMap<FnId, BTreeSet<Op>> = BTreeMap::new();
    for (fi, f) in ws.files.iter().enumerate() {
        if f.kind != FileKind::Src {
            continue;
        }
        let site = |line: u32| format!("{}:{}", f.rel, line);
        // An allow at the blocking site clears the fact everywhere: it
        // never enters the summaries, so call-site diagnostics derived
        // from it vanish too (the model scheduler's park loop relies on
        // this).
        let dead = |line: u32| f.is_test_line(line) || f.allows_rule_at(RULE, line);
        for (fj, io) in &f.blocking_ops {
            if !dead(io.line) {
                seeds
                    .entry((fi, *fj))
                    .or_default()
                    .insert(Op::Io(io.what.clone(), site(io.line)));
            }
        }
        for (fj, c) in &f.calls {
            if cfg.blocking_calls.contains(&c.name) && !dead(c.line) {
                seeds
                    .entry((fi, *fj))
                    .or_default()
                    .insert(Op::Entry(c.name.clone(), site(c.line)));
            }
        }
        for (fj, w) in &f.waits {
            if !dead(w.line) {
                seeds.entry((fi, *fj)).or_default().insert(Op::Wait(
                    cfg.condvar_class_of(&w.condvar),
                    w.condvar.clone(),
                    site(w.line),
                ));
            }
        }
    }
    let summaries = cg.propagate(ws, cfg, seeds);

    // Check every non-blocking-classed hold window.
    for f in ws.files.iter().filter(|f| f.kind == FileKind::Src) {
        for (fj, ev) in &f.locks {
            let Some(held) = cfg.lock_class_of(&ev.receiver) else { continue };
            if !cfg.non_blocking_locks.contains(&held) || f.is_test_line(ev.line) {
                continue;
            }
            let window = |pos: usize| pos > ev.pos && pos < ev.held_until;

            // Direct blocking I/O inside the window.
            for (ij, io) in &f.blocking_ops {
                if ij == fj && window(io.pos) {
                    out.push(Diagnostic::deny(
                        RULE,
                        &f.rel,
                        io.line,
                        format!(
                            "performs `{}` I/O while holding non-blocking lock class `{held}`: \
                             every thread contending for `{held}` stalls behind the syscall — \
                             move the I/O outside the critical section",
                            io.what
                        ),
                    ));
                }
            }
            // Direct waits on a different (or unmapped) condvar class.
            for (wj, w) in &f.waits {
                if wj != fj || !window(w.pos) {
                    continue;
                }
                match cfg.condvar_class_of(&w.condvar) {
                    Some(c) if c == held => {} // waiting releases this lock
                    other => out.push(Diagnostic::deny(
                        RULE,
                        &f.rel,
                        w.line,
                        format!(
                            "waits on condvar `{}` ({}) while holding non-blocking lock class \
                             `{held}`: the wait parks the thread with `{held}` still held",
                            w.condvar,
                            other
                                .map(|c| format!("lock class `{c}`"))
                                .unwrap_or_else(|| "unmapped — declare a `condvar-class`".into()),
                        ),
                    )),
                }
            }
            // Calls made while held: direct blocking entries, then the
            // callee summaries from the dataflow.
            for (cj, call) in &f.calls {
                if cj != fj || !window(call.pos) {
                    continue;
                }
                if cfg.blocking_calls.contains(&call.name) {
                    out.push(Diagnostic::deny(
                        RULE,
                        &f.rel,
                        call.line,
                        format!(
                            "calls blocking entry `{}` while holding non-blocking lock class \
                             `{held}`: solver/segment work under this lock serializes the whole \
                             service",
                            call.name
                        ),
                    ));
                    continue;
                }
                let Some(callee) = cg.resolve_unique(cfg, &call.name) else { continue };
                let Some(sum) = summaries.get(&callee) else { continue };
                // One diagnostic per category per call site.
                let mut seen_block = false;
                let mut seen_wait = false;
                for op in sum {
                    match op {
                        Op::Io(what, origin) if !seen_block => {
                            seen_block = true;
                            out.push(Diagnostic::deny(
                                RULE,
                                &f.rel,
                                call.line,
                                format!(
                                    "calls `{}` while holding non-blocking lock class `{held}`: \
                                     it reaches `{what}` I/O at {origin}",
                                    call.name
                                ),
                            ));
                        }
                        Op::Entry(name, origin) if !seen_block => {
                            seen_block = true;
                            out.push(Diagnostic::deny(
                                RULE,
                                &f.rel,
                                call.line,
                                format!(
                                    "calls `{}` while holding non-blocking lock class `{held}`: \
                                     it reaches blocking entry `{name}` at {origin}",
                                    call.name
                                ),
                            ));
                        }
                        Op::Wait(class, condvar, origin)
                            if !seen_wait && class.as_deref() != Some(held.as_str()) =>
                        {
                            seen_wait = true;
                            out.push(Diagnostic::deny(
                                RULE,
                                &f.rel,
                                call.line,
                                format!(
                                    "calls `{}` while holding non-blocking lock class `{held}`: \
                                     it can wait on condvar `{condvar}` at {origin} with \
                                     `{held}` still held",
                                    call.name
                                ),
                            ));
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}
