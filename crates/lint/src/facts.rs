//! Per-file fact extraction: the bridge between the raw token stream and
//! the cross-file rules. Each [`SourceFile`] carries its tokens plus
//! pre-digested facts — function spans and call sites, lock-acquisition
//! events with approximate guard scopes, atomic-ordering sites, panic
//! sites (`unwrap`/`expect`/indexing), comparison-adjacent float
//! literals, `REQISC_*` string literals, `unsafe` sites, condvar waits,
//! and built-in blocking-I/O sites — and the comment-borne annotations
//! (`lint:allow`, `lint:allow-file`, store-surface markers, `// SAFETY:`
//! justifications, and `lint:protocol-begin/end` regions).

use crate::lexer::{lex, Comment, TokKind, Token};
use std::collections::HashMap;

/// How a file participates in the analysis (decided from its path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Production source (`src/`).
    Src,
    /// Integration tests (`tests/` directory).
    Test,
    /// Examples.
    Example,
    /// Criterion benches.
    Bench,
}

/// One extracted function: name, body token range, line.
#[derive(Debug, Clone)]
pub struct FnFact {
    /// Function name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token index of the body's `{`.
    pub body_start: usize,
    /// Token index of the body's matching `}` (exclusive range end).
    pub body_end: usize,
}

/// Style of a lock acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockStyle {
    /// Bound to a `let` guard: held to end of enclosing function, or to
    /// an explicit `drop(guard)` call.
    Guard,
    /// A temporary: held to the end of the statement (or through the
    /// block, when the statement opens one — `for`/`if let` headers).
    Temp,
}

/// One lock acquisition event inside a function.
#[derive(Debug, Clone)]
pub struct LockEvent {
    /// Lock class (after config mapping) — `None` when the receiver name
    /// is mapped to "ignore".
    pub class: String,
    /// Receiver name as written (pre-mapping), for diagnostics.
    pub receiver: String,
    /// Line of the `.lock()`/`.read()`/`.write()` call.
    pub line: u32,
    /// Token index of the method name.
    pub pos: usize,
    /// Guard or temporary.
    pub style: LockStyle,
    /// Token index where the hold ends (exclusive).
    pub held_until: usize,
}

/// One call site inside a function.
#[derive(Debug, Clone)]
pub struct CallEvent {
    /// Callee name (bare; method and free calls alike).
    pub name: String,
    /// Line.
    pub line: u32,
    /// Token index of the callee name.
    pub pos: usize,
}

/// One atomic-ordering site.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    /// Receiver field name (best effort).
    pub field: String,
    /// Atomic method (`load`, `store`, `fetch_add`, `swap`, …).
    pub method: String,
    /// Ordering idents found among the call's arguments
    /// (`SeqCst`/`Acquire`/`Release`/`AcqRel`/`Relaxed`).
    pub orderings: Vec<String>,
    /// Line.
    pub line: u32,
    /// Token index of the method name (orders sites within a file).
    pub pos: usize,
}

/// What the `unsafe` keyword introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeKind {
    /// `unsafe { … }` block.
    Block,
    /// `unsafe impl …`.
    Impl,
    /// `unsafe fn …`.
    Fn,
    /// `unsafe extern …`.
    Extern,
    /// Anything else (trait bounds, pointers-to-unsafe-fn, …).
    Other,
}

/// One `unsafe` keyword site.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// Kind.
    pub kind: UnsafeKind,
    /// Line of the `unsafe` keyword.
    pub line: u32,
}

/// One condvar-wait site inside a function: `.wait()`/`.wait_while(…)`/
/// `.wait_timeout(…)` method calls, plus the sched shim's free-function
/// `wait_recover(cv, guard)` / `wait_timeout_recover(cv, guard, dur)`
/// forms (the condvar is the first argument there).
#[derive(Debug, Clone)]
pub struct WaitEvent {
    /// Condvar receiver/argument name as written.
    pub condvar: String,
    /// Line.
    pub line: u32,
    /// Token index of the wait method/function name.
    pub pos: usize,
}

/// One built-in blocking-I/O site: a `std::fs`/`std::net`/
/// `std::os::unix::net` path, or a `File::open(…)`-style call on a known
/// I/O type.
#[derive(Debug, Clone)]
pub struct BlockIoEvent {
    /// What was matched (`std::fs`, `File::open`, …), for diagnostics.
    pub what: String,
    /// Line.
    pub line: u32,
    /// Token index.
    pub pos: usize,
}

/// Kind of panic site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap()`.
    Unwrap,
    /// `.expect("…")` with a string-literal message (the byte-arg
    /// `expect` method of the JSON parser is not a panic site).
    Expect,
    /// Direct `x[…]` indexing.
    Index,
}

/// One panic site with the function it lives in.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// Kind.
    pub kind: PanicKind,
    /// Line.
    pub line: u32,
    /// Index of the function (into [`SourceFile::fns`]) containing it.
    pub fn_idx: usize,
}

/// One comparison-adjacent `1e-N`-style float literal.
#[derive(Debug, Clone)]
pub struct TolSite {
    /// Literal text.
    pub literal: String,
    /// Line.
    pub line: u32,
    /// True when the literal is the value of a `const`/`static` item.
    pub in_const_def: bool,
}

/// One `REQISC_*` string literal.
#[derive(Debug, Clone)]
pub struct EnvLit {
    /// The literal's full text.
    pub text: String,
    /// Line.
    pub line: u32,
    /// Token index.
    pub pos: usize,
}

/// A fully fact-extracted source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Path-derived kind.
    pub kind: FileKind,
    /// Token stream.
    pub tokens: Vec<Token>,
    /// Functions in token order.
    pub fns: Vec<FnFact>,
    /// Lock events per function index.
    pub locks: Vec<(usize, LockEvent)>,
    /// Call events per function index.
    pub calls: Vec<(usize, CallEvent)>,
    /// Atomic sites.
    pub atomics: Vec<AtomicSite>,
    /// `unsafe` sites.
    pub unsafes: Vec<UnsafeSite>,
    /// Condvar-wait events per function index.
    pub waits: Vec<(usize, WaitEvent)>,
    /// Built-in blocking-I/O events per function index.
    pub blocking_ops: Vec<(usize, BlockIoEvent)>,
    /// Panic sites.
    pub panics: Vec<PanicSite>,
    /// Tolerance-literal sites.
    pub tols: Vec<TolSite>,
    /// `REQISC_*` string literals.
    pub env_lits: Vec<EnvLit>,
    /// Line-level suppressions: line → [(rule, reason)]. A suppression on
    /// line L covers diagnostics on L and L+1 (comment-above style).
    pub allows: HashMap<u32, Vec<(String, String)>>,
    /// File-level suppressions: [(rule, reason)].
    pub file_allows: Vec<(String, String)>,
    /// `lint:store-surface-begin/end` line ranges (inclusive).
    pub surface_regions: Vec<(u32, u32)>,
    /// `lint:protocol-begin(kind)/end(kind)` regions as
    /// `(kind, begin-line, end-line)`. An unmatched begin records
    /// `u32::MAX` as its end so the rule can flag it instead of the
    /// region silently vanishing.
    pub protocol_regions: Vec<(String, u32, u32)>,
    /// Lines of comments carrying a `SAFETY:` justification.
    pub safety_lines: Vec<u32>,
    /// Line ranges (inclusive) covered by `#[cfg(test)]` items.
    pub test_regions: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Extracts every fact from one file.
    pub fn extract(rel: String, src: &str) -> SourceFile {
        let kind = classify(&rel);
        let lexed = lex(src);
        let scan = scan_comments(&lexed.comments);
        let tokens = lexed.tokens;
        let fns = extract_fns(&tokens);
        let test_regions = extract_test_regions(&tokens);
        let mut f = SourceFile {
            rel,
            kind,
            fns,
            locks: Vec::new(),
            calls: Vec::new(),
            atomics: Vec::new(),
            unsafes: Vec::new(),
            waits: Vec::new(),
            blocking_ops: Vec::new(),
            panics: Vec::new(),
            tols: Vec::new(),
            env_lits: Vec::new(),
            allows: scan.allows,
            file_allows: scan.file_allows,
            surface_regions: scan.surface_regions,
            protocol_regions: scan.protocol_regions,
            safety_lines: scan.safety_lines,
            test_regions,
            tokens,
        };
        extract_events(&mut f);
        f
    }

    /// True when `line` falls inside a `#[cfg(test)]` region.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_regions.iter().any(|&(a, b)| line >= a && line <= b)
    }

    /// True when a `lint:allow(rule, …)` covers `line` — on the line
    /// itself or the line above (comment-above style) — or a file-level
    /// `lint:allow-file` names the rule. Interprocedural rules also use
    /// this at *fact* sites: an allow on a blocking operation clears it
    /// from every transitive summary, not just from diagnostics reported
    /// at that line.
    pub fn allows_rule_at(&self, rule: &str, line: u32) -> bool {
        if self.file_allows.iter().any(|(r, _)| r == rule) {
            return true;
        }
        for probe in [line, line.saturating_sub(1)] {
            if let Some(list) = self.allows.get(&probe) {
                if list.iter().any(|(r, _)| r == rule) {
                    return true;
                }
            }
        }
        false
    }

    /// The function index containing token position `pos` (functions are
    /// non-overlapping at the granularity the rules care about; nested
    /// items resolve to the innermost).
    pub fn fn_at(&self, pos: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, f) in self.fns.iter().enumerate() {
            if pos > f.body_start && pos < f.body_end {
                best = Some(match best {
                    Some(j) if self.fns[j].body_start >= f.body_start => j,
                    _ => i,
                });
            }
        }
        best
    }
}

fn classify(rel: &str) -> FileKind {
    if rel.contains("/tests/") || rel.starts_with("tests/") {
        FileKind::Test
    } else if rel.contains("/examples/") || rel.starts_with("examples/") {
        FileKind::Example
    } else if rel.contains("/benches/") || rel.starts_with("benches/") {
        FileKind::Bench
    } else {
        FileKind::Src
    }
}

/// Everything the comment stream yields.
struct CommentScan {
    allows: HashMap<u32, Vec<(String, String)>>,
    file_allows: Vec<(String, String)>,
    surface_regions: Vec<(u32, u32)>,
    protocol_regions: Vec<(String, u32, u32)>,
    safety_lines: Vec<u32>,
}

/// Parses `lint:allow(rule, reason)`, `lint:allow-file(rule, reason)`,
/// `lint:store-surface-begin/end`, `lint:protocol-begin(kind)/end(kind)`,
/// and `SAFETY:` justifications out of the comment stream.
fn scan_comments(comments: &[Comment]) -> CommentScan {
    let mut allows: HashMap<u32, Vec<(String, String)>> = HashMap::new();
    let mut file_allows = Vec::new();
    let mut regions = Vec::new();
    let mut protocol_regions = Vec::new();
    let mut safety_lines = Vec::new();
    let mut open: Option<u32> = None;
    let mut open_protocol: HashMap<String, u32> = HashMap::new();
    for c in comments {
        let t = c.text.trim();
        if let Some(rest) = t.strip_prefix("lint:allow-file(") {
            if let Some((rule, reason)) = split_allow(rest) {
                file_allows.push((rule, reason));
            }
        } else if let Some(rest) = t.strip_prefix("lint:allow(") {
            if let Some((rule, reason)) = split_allow(rest) {
                allows.entry(c.line).or_default().push((rule, reason));
            }
        } else if let Some(rest) = t.strip_prefix("lint:protocol-begin(") {
            let kind = rest.trim_end_matches(')').trim().to_string();
            // A second begin of the same kind leaves the first unmatched.
            if let Some(prev) = open_protocol.insert(kind.clone(), c.line) {
                protocol_regions.push((kind, prev, u32::MAX));
            }
        } else if let Some(rest) = t.strip_prefix("lint:protocol-end(") {
            let kind = rest.trim_end_matches(')').trim();
            if let Some(a) = open_protocol.remove(kind) {
                protocol_regions.push((kind.to_string(), a, c.line));
            }
        } else if t.starts_with("lint:store-surface-begin") {
            open = Some(c.line);
        } else if t.starts_with("lint:store-surface-end") {
            if let Some(a) = open.take() {
                regions.push((a, c.line));
            }
        }
        if t.contains("SAFETY:") {
            safety_lines.push(c.line);
        }
    }
    for (kind, a) in open_protocol {
        protocol_regions.push((kind, a, u32::MAX));
    }
    protocol_regions.sort();
    CommentScan {
        allows,
        file_allows,
        surface_regions: regions,
        protocol_regions,
        safety_lines,
    }
}

fn split_allow(rest: &str) -> Option<(String, String)> {
    let inner = rest.strip_suffix(')').unwrap_or(rest);
    let (rule, reason) = inner.split_once(',')?;
    let reason = reason.trim();
    if reason.is_empty() {
        return None; // a justification is mandatory
    }
    Some((rule.trim().to_string(), reason.to_string()))
}

/// Finds `fn name … { body }` items by scanning for the `fn` keyword and
/// brace-matching the body. Trait-method declarations (ending in `;`)
/// yield no body and are skipped.
fn extract_fns(toks: &[Token]) -> Vec<FnFact> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].text == "fn" && i + 1 < toks.len() {
            let name_tok = &toks[i + 1];
            if name_tok.kind == TokKind::Ident {
                // Scan to the body `{`, or a `;` (no body). Track
                // parens/brackets so `;` inside default-arg types and
                // where-clause bounds can't fool us.
                let mut j = i + 2;
                let mut depth = 0i32;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 => break,
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if j < toks.len() && toks[j].text == "{" {
                    let end = match_brace(toks, j);
                    out.push(FnFact {
                        name: name_tok.text.clone(),
                        line: toks[i].line,
                        body_start: j,
                        body_end: end,
                    });
                }
            }
        }
        i += 1;
    }
    out
}

/// Given the index of a `{`, returns the index just past its matching
/// `}` (or the end of input).
fn match_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return k + 1;
                    }
                }
                _ => {}
            }
        }
    }
    toks.len()
}

/// `#[cfg(test)]` item spans, as line ranges.
fn extract_test_regions(toks: &[Token]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 5 < toks.len() {
        if toks[i].text == "#"
            && toks[i + 1].text == "["
            && toks[i + 2].text == "cfg"
            && toks[i + 3].text == "("
            && toks[i + 4].text == "test"
        {
            // Find the attribute's `]`, then the item's `{`, then match.
            let mut j = i + 5;
            while j < toks.len() && toks[j].text != "]" {
                j += 1;
            }
            while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
                j += 1;
            }
            if j < toks.len() && toks[j].text == "{" {
                let end = match_brace(toks, j);
                let last = toks.get(end.saturating_sub(1)).map(|t| t.line).unwrap_or(toks[j].line);
                out.push((toks[i].line, last));
                i = end;
                continue;
            }
        }
        i += 1;
    }
    out
}

const ORDERINGS: &[&str] = &["SeqCst", "AcqRel", "Acquire", "Release", "Relaxed"];
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "let", "move", "else", "in", "as",
    "impl", "where", "unsafe", "dyn", "ref", "mut", "pub", "use", "mod", "struct", "enum",
    "trait", "type", "const", "static", "break", "continue", "crate", "self", "Self", "super",
];

/// Known I/O types: a `Type::method(` call on one of these is a
/// blocking-I/O event even when the type was `use`-imported (no `std::`
/// path at the call site).
const IO_TYPES: &[&str] =
    &["File", "OpenOptions", "TcpStream", "TcpListener", "UnixStream", "UnixListener"];

/// One pass over the token stream filling locks/calls/atomics/unsafes/
/// waits/blocking-I/O/panics/tolerances/env-literals.
fn extract_events(f: &mut SourceFile) {
    let toks = &f.tokens;
    let mut locks = Vec::new();
    let mut calls = Vec::new();
    let mut atomics = Vec::new();
    let mut unsafes = Vec::new();
    let mut waits = Vec::new();
    let mut blocking_ops = Vec::new();
    let mut panics = Vec::new();
    let mut tols = Vec::new();
    let mut env_lits = Vec::new();

    for i in 0..toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Ident => {
                let is_call = toks.get(i + 1).map(|n| n.text == "(").unwrap_or(false)
                    && !KEYWORDS.contains(&t.text.as_str());
                let is_method = i > 0 && toks[i - 1].text == ".";
                let is_macro = toks.get(i + 1).map(|n| n.text == "!").unwrap_or(false);
                if is_call && !is_macro {
                    if let Some(fi) = f.fn_at(i) {
                        calls.push((
                            fi,
                            CallEvent { name: t.text.clone(), line: t.line, pos: i },
                        ));
                    }
                }
                // Lock acquisition: zero-arg `.lock()` / `.read()` /
                // `.write()`, plus the service crate's poisoning-tolerant
                // `.lock_recover()`.
                if is_method
                    && is_call
                    && matches!(t.text.as_str(), "lock" | "read" | "write" | "lock_recover")
                    && toks.get(i + 2).map(|n| n.text == ")").unwrap_or(false)
                {
                    if let Some(fi) = f.fn_at(i) {
                        let receiver = receiver_name(toks, i - 1);
                        let (style, held_until, guard) = lock_scope(toks, i, fi, &f.fns);
                        let _ = guard;
                        locks.push((
                            fi,
                            LockEvent {
                                class: receiver.clone(),
                                receiver,
                                line: t.line,
                                pos: i,
                                style,
                                held_until,
                            },
                        ));
                    }
                }
                // Atomic site: `.method(… Ordering ident …)`.
                if is_method && is_call && ATOMIC_METHODS.contains(&t.text.as_str()) {
                    let end = match_paren(toks, i + 1);
                    let mut ords = Vec::new();
                    for a in toks.iter().take(end).skip(i + 2) {
                        if a.kind == TokKind::Ident && ORDERINGS.contains(&a.text.as_str()) {
                            ords.push(a.text.clone());
                        }
                    }
                    if !ords.is_empty() {
                        atomics.push(AtomicSite {
                            field: receiver_name(toks, i - 1),
                            method: t.text.clone(),
                            orderings: ords,
                            line: t.line,
                            pos: i,
                        });
                    }
                }
                // `unsafe` sites, classified by the following token.
                if t.text == "unsafe" {
                    let kind = match toks.get(i + 1).map(|n| n.text.as_str()) {
                        Some("{") => UnsafeKind::Block,
                        Some("impl") => UnsafeKind::Impl,
                        Some("fn") => UnsafeKind::Fn,
                        Some("extern") => UnsafeKind::Extern,
                        _ => UnsafeKind::Other,
                    };
                    unsafes.push(UnsafeSite { kind, line: t.line });
                }
                // Condvar waits: method form on the condvar…
                if is_method
                    && is_call
                    && matches!(t.text.as_str(), "wait" | "wait_while" | "wait_timeout")
                {
                    if let Some(fi) = f.fn_at(i) {
                        waits.push((
                            fi,
                            WaitEvent {
                                condvar: receiver_name(toks, i - 1),
                                line: t.line,
                                pos: i,
                            },
                        ));
                    }
                }
                // …and the sched shim's free-function form (condvar is
                // the first argument).
                if is_call
                    && !is_method
                    && matches!(t.text.as_str(), "wait_recover" | "wait_timeout_recover")
                {
                    if let Some(fi) = f.fn_at(i) {
                        waits.push((
                            fi,
                            WaitEvent {
                                condvar: first_arg_ident(toks, i + 1),
                                line: t.line,
                                pos: i,
                            },
                        ));
                    }
                }
                // Blocking I/O: `std::fs` / `std::net` / `std::os::unix::net`
                // paths, and `File::open(…)`-style calls on known I/O types.
                let path_head = i == 0 || toks[i - 1].text != "::";
                let then_colons = toks.get(i + 1).map(|n| n.text == "::").unwrap_or(false);
                if t.text == "std" && path_head && then_colons {
                    let what = match toks.get(i + 2).map(|n| n.text.as_str()) {
                        Some("fs") => Some("std::fs"),
                        Some("net") => Some("std::net"),
                        Some("os")
                            if toks.get(i + 4).map(|n| n.text == "unix").unwrap_or(false)
                                && toks.get(i + 6).map(|n| n.text == "net").unwrap_or(false) =>
                        {
                            Some("std::os::unix::net")
                        }
                        _ => None,
                    };
                    if let (Some(w), Some(fi)) = (what, f.fn_at(i)) {
                        blocking_ops
                            .push((fi, BlockIoEvent { what: w.into(), line: t.line, pos: i }));
                    }
                }
                if IO_TYPES.contains(&t.text.as_str())
                    && path_head
                    && then_colons
                    && toks.get(i + 2).map(|n| n.kind == TokKind::Ident).unwrap_or(false)
                    && toks.get(i + 3).map(|n| n.text == "(").unwrap_or(false)
                {
                    if let Some(fi) = f.fn_at(i) {
                        let what = format!("{}::{}", t.text, toks[i + 2].text);
                        blocking_ops.push((fi, BlockIoEvent { what, line: t.line, pos: i }));
                    }
                }
                // Panic sites.
                if is_method && is_call && t.text == "unwrap" {
                    if let Some(fi) = f.fn_at(i) {
                        panics.push(PanicSite { kind: PanicKind::Unwrap, line: t.line, fn_idx: fi });
                    }
                }
                if is_method
                    && is_call
                    && t.text == "expect"
                    && toks.get(i + 2).map(|n| n.kind == TokKind::Str).unwrap_or(false)
                {
                    if let Some(fi) = f.fn_at(i) {
                        panics.push(PanicSite { kind: PanicKind::Expect, line: t.line, fn_idx: fi });
                    }
                }
            }
            // Indexing: `[` directly after an ident / `)` / `]`.
            TokKind::Punct
                if t.text == "["
                    && i > 0
                    && (toks[i - 1].kind == TokKind::Ident
                        && !KEYWORDS.contains(&toks[i - 1].text.as_str())
                        || toks[i - 1].text == ")"
                        || toks[i - 1].text == "]") =>
            {
                if let Some(fi) = f.fn_at(i) {
                    panics.push(PanicSite { kind: PanicKind::Index, line: t.line, fn_idx: fi });
                }
            }
            TokKind::Num if is_tolerance_literal(&t.text) && comparison_adjacent(toks, i) => {
                tols.push(TolSite {
                    literal: t.text.clone(),
                    line: t.line,
                    in_const_def: in_const_def(toks, i),
                });
            }
            TokKind::Str => {
                if let Some(name) = exact_env_name(&t.text) {
                    env_lits.push(EnvLit { text: name.to_string(), line: t.line, pos: i });
                }
            }
            _ => {}
        }
    }

    f.locks = locks;
    f.calls = calls;
    f.atomics = atomics;
    f.unsafes = unsafes;
    f.waits = waits;
    f.blocking_ops = blocking_ops;
    f.panics = panics;
    f.tols = tols;
    f.env_lits = env_lits;
}

/// Last identifier of a call's first argument, skipping `self`/`mut` and
/// reference/deref sigils: `(&self.available, st)` → `available`,
/// `(&*cv, guard)` → `cv`. `open` is the index of the call's `(`.
fn first_arg_ident(toks: &[Token], open: usize) -> String {
    let mut depth = 0i32;
    let mut last = String::new();
    for t in toks.iter().skip(open) {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "," if depth == 1 => break,
            _ => {
                if t.kind == TokKind::Ident && t.text != "self" && t.text != "mut" {
                    last = t.text.clone();
                }
            }
        }
    }
    last
}

/// Given the index of a `(`-opening token's predecessor… actually: given
/// the index of the `(` token, returns the index just past the matching
/// `)`.
fn match_paren(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

/// Receiver name for a method call: the last field/method identifier of
/// the receiver chain. `dot` is the index of the `.` before the method.
/// `a.b.c.lock()` → `c`; `self.shard_of(&k).read()` → `shard_of`.
fn receiver_name(toks: &[Token], dot: usize) -> String {
    if dot == 0 {
        return String::new();
    }
    let prev = &toks[dot - 1];
    if prev.kind == TokKind::Ident {
        return prev.text.clone();
    }
    if prev.text == ")" {
        // Walk back to the matching `(`, then the ident before it.
        let mut depth = 0i32;
        let mut k = dot - 1;
        loop {
            match toks[k].text.as_str() {
                ")" => depth += 1,
                "(" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if k == 0 {
                return String::new();
            }
            k -= 1;
        }
        if k > 0 && toks[k - 1].kind == TokKind::Ident {
            return toks[k - 1].text.clone();
        }
    }
    String::new()
}

/// Decides guard-vs-temp for a lock acquisition at method index `mi`, and
/// computes the hold extent (token index, exclusive).
fn lock_scope(
    toks: &[Token],
    mi: usize,
    fi: usize,
    fns: &[FnFact],
) -> (LockStyle, usize, Option<String>) {
    let body_end = fns[fi].body_end;
    // Walk back from the receiver chain to see whether this statement is
    // `let [mut] name = …`. Cross field chains, paren groups, `&`, `*`.
    let mut k = mi;
    let mut depth = 0i32;
    while k > 0 {
        k -= 1;
        match toks[k].text.as_str() {
            ")" | "]" => depth += 1,
            "(" | "[" => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            ";" | "{" | "}" if depth == 0 => break,
            "=" if depth == 0 => {
                // `let name =` or `let mut name =` ?
                let mut j = k;
                let name = loop {
                    if j == 0 {
                        break None;
                    }
                    j -= 1;
                    if toks[j].kind == TokKind::Ident && toks[j].text != "mut" {
                        break Some(toks[j].text.clone());
                    }
                    if toks[j].text != "mut" {
                        break None;
                    }
                };
                let is_let = name.is_some()
                    && (0..k).rev().take(4).any(|p| toks[p].text == "let");
                // A `let` binding only holds the *guard* when the call
                // chain is purely `.unwrap()` / `.expect(…)` up to the
                // `;` — `let x = m.lock().unwrap().remove(k);` binds the
                // removed value, and the temporary guard dies at the `;`.
                let binds_guard = is_let && chain_is_guard_only(toks, mi);
                if let (Some(n), true) = (name, binds_guard) {
                    // Guard: held until `drop(n)` or end of function.
                    let mut end = body_end;
                    let mut p = mi;
                    while p + 2 < body_end {
                        if toks[p].text == "drop"
                            && toks[p + 1].text == "("
                            && toks[p + 2].text == n
                        {
                            end = p;
                            break;
                        }
                        p += 1;
                    }
                    return (LockStyle::Guard, end, Some(n));
                }
                break;
            }
            _ => {}
        }
    }
    // Temporary: held to end of statement; if the statement opens a block
    // before its `;` (for/if-let headers), hold through the block.
    let mut p = mi;
    let mut depth = 0i32;
    while p < body_end {
        match toks[p].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ";" if depth <= 0 => return (LockStyle::Temp, p, None),
            "{" if depth <= 0 => return (LockStyle::Temp, match_brace(toks, p), None),
            "}" if depth <= 0 => return (LockStyle::Temp, p, None),
            _ => {}
        }
        p += 1;
    }
    (LockStyle::Temp, body_end, None)
}

/// True when the call chain starting at the lock method `mi` is
/// `(…)` followed only by `.unwrap()` / `.expect(…)` links and then the
/// statement's `;` — i.e. the `let` binding really binds the guard.
fn chain_is_guard_only(toks: &[Token], mi: usize) -> bool {
    let mut p = match_paren(toks, mi + 1);
    loop {
        if toks.get(p).map(|t| t.text == ";").unwrap_or(false) {
            return true;
        }
        let is_link = toks.get(p).map(|t| t.text == ".").unwrap_or(false)
            && toks
                .get(p + 1)
                .map(|t| t.text == "unwrap" || t.text == "expect")
                .unwrap_or(false)
            && toks.get(p + 2).map(|t| t.text == "(").unwrap_or(false);
        if !is_link {
            return false;
        }
        p = match_paren(toks, p + 2);
    }
}

/// A "tolerance-shaped" literal: scientific notation with a negative
/// exponent (`1e-8`, `2.5e-12`, with or without a type suffix).
fn is_tolerance_literal(text: &str) -> bool {
    let lower = text.to_ascii_lowercase();
    let Some(epos) = lower.find('e') else { return false };
    let (mantissa, exp) = lower.split_at(epos);
    let exp = &exp[1..];
    let Some(exp_digits) = exp.strip_prefix('-') else { return false };
    let exp_digits = exp_digits.trim_end_matches(|c: char| c.is_ascii_alphabetic());
    !mantissa.is_empty()
        && mantissa.chars().all(|c| c.is_ascii_digit() || c == '.' || c == '_')
        && !exp_digits.is_empty()
        && exp_digits.chars().all(|c| c.is_ascii_digit())
}

const CMP_OPS: &[&str] = &["<", ">", "<=", ">="];

/// True when the literal at `i` is an operand of a comparison: the
/// previous non-minus token or the next token is a comparison operator.
fn comparison_adjacent(toks: &[Token], i: usize) -> bool {
    let mut p = i;
    if p > 0 && toks[p - 1].text == "-" {
        p -= 1; // negated literal: look left of the minus
    }
    let prev_cmp = p > 0 && CMP_OPS.contains(&toks[p - 1].text.as_str());
    let next_cmp = toks.get(i + 1).map(|t| CMP_OPS.contains(&t.text.as_str())).unwrap_or(false);
    prev_cmp || next_cmp
}

/// True when the literal is the RHS of a `const`/`static` item definition
/// (scan back to the statement head).
fn in_const_def(toks: &[Token], i: usize) -> bool {
    let mut k = i;
    let mut steps = 0;
    while k > 0 && steps < 16 {
        k -= 1;
        steps += 1;
        match toks[k].text.as_str() {
            ";" | "{" | "}" => return false,
            "const" | "static" => return true,
            _ => {}
        }
    }
    false
}

/// Returns `Some(name)` when a string literal is exactly one `REQISC_*`
/// variable name (messages merely *mentioning* a variable pass).
fn exact_env_name(text: &str) -> Option<&str> {
    if !text.starts_with("REQISC_") {
        return None;
    }
    let rest = &text["REQISC_".len()..];
    if !rest.is_empty()
        && rest.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
    {
        Some(text)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::extract("crates/x/src/lib.rs".into(), src)
    }

    #[test]
    fn fn_and_call_extraction() {
        let f = file("fn a() { b(); c.d(1); }\nfn b() {}\n");
        assert_eq!(f.fns.len(), 2);
        let names: Vec<&str> = f.calls.iter().map(|(_, c)| c.name.as_str()).collect();
        assert_eq!(names, vec!["b", "d"]);
        assert_eq!(f.calls[0].0, 0, "call attributed to fn a");
    }

    #[test]
    fn lock_guard_vs_temp() {
        let f = file(
            "fn a(&self) {\n let g = self.inflight.lock().unwrap();\n self.queue.try_push();\n}\n\
             fn b(&self) {\n self.conns.lock().unwrap().push(1);\n let x = 2;\n}\n",
        );
        assert_eq!(f.locks.len(), 2);
        let (fi0, l0) = &f.locks[0];
        assert_eq!((*fi0, l0.class.as_str(), l0.style), (0, "inflight", LockStyle::Guard));
        assert_eq!(f.fns[0].body_end, l0.held_until, "guard held to end of fn");
        let (_, l1) = &f.locks[1];
        assert_eq!((l1.class.as_str(), l1.style), ("conns", LockStyle::Temp));
        // Temp ends at the statement's `;`, before `let x`.
        assert!(f.tokens[l1.held_until].text == ";");
    }

    #[test]
    fn let_bound_value_is_not_a_guard() {
        // The binding takes the *removed value*; the guard is a
        // temporary that dies at the `;`.
        let f = file(
            "fn a(&self) { let w = self.inflight.lock().expect(\"p\").remove(&k); use_it(w); }",
        );
        let (_, l) = &f.locks[0];
        assert_eq!(l.style, LockStyle::Temp);
        assert_eq!(f.tokens[l.held_until].text, ";");
    }

    #[test]
    fn guard_released_by_drop() {
        let f = file("fn a(&self) { let g = self.m.lock().unwrap(); use_it(); drop(g); after(); }");
        let (_, l) = &f.locks[0];
        let call_after: Vec<&str> = f
            .calls
            .iter()
            .filter(|(_, c)| c.pos < l.held_until)
            .map(|(_, c)| c.name.as_str())
            .collect();
        assert!(call_after.contains(&"use_it"));
        assert!(!call_after.contains(&"after"), "drop(g) must end the hold");
    }

    #[test]
    fn method_result_receiver() {
        let f = file("fn a(&self) { let s = self.shard_of(&k).read(); }");
        assert_eq!(f.locks[0].1.receiver, "shard_of");
    }

    #[test]
    fn atomic_sites() {
        let f = file(
            "fn a(&self) { self.hits.fetch_add(1, Ordering::SeqCst); \
             self.flag.store(true, Release); self.x.compare_exchange(0, 1, AcqRel, Acquire); }",
        );
        assert_eq!(f.atomics.len(), 3);
        assert_eq!(f.atomics[0].field, "hits");
        assert_eq!(f.atomics[0].orderings, vec!["SeqCst"]);
        assert_eq!(f.atomics[1].method, "store");
        assert_eq!(f.atomics[2].orderings, vec!["AcqRel", "Acquire"]);
    }

    #[test]
    fn panic_sites_and_expect_discrimination() {
        let f = file(
            "fn a(v: &[u8]) { v.first().unwrap(); m.lock().expect(\"poisoned\"); \
             self.expect(b'{'); let x = v[0]; }",
        );
        let kinds: Vec<PanicKind> = f.panics.iter().map(|p| p.kind).collect();
        assert_eq!(kinds, vec![PanicKind::Unwrap, PanicKind::Expect, PanicKind::Index]);
    }

    #[test]
    fn tolerance_literals() {
        let f = file(
            "const T: f64 = 1e-8;\nfn a(x: f64) -> bool { x < 1e-9 && x.abs() > -1e-12 && x.max(1e-4) > 0.0 }",
        );
        let lits: Vec<(&str, bool)> =
            f.tols.iter().map(|t| (t.literal.as_str(), t.in_const_def)).collect();
        // 1e-8 is not comparison-adjacent (const def); 1e-4 inside max() is
        // not comparison-adjacent either (`>` follows the `)`), leaving the
        // two real comparisons.
        assert_eq!(lits, vec![("1e-9", false), ("1e-12", false)]);
    }

    #[test]
    fn env_literals_exact_only() {
        let f = file(
            "fn a() { std::env::var(\"REQISC_SCALE\"); let m = \"REQISC_X set but ignored\"; }",
        );
        assert_eq!(f.env_lits.len(), 1);
        assert_eq!(f.env_lits[0].text, "REQISC_SCALE");
    }

    #[test]
    fn unsafe_sites_and_safety_comments() {
        let f = file(
            "// SAFETY: the mmap outlives the slice.\n\
             unsafe impl Send for X {}\n\
             fn a(p: *const u8) { let v = unsafe { *p }; }\n\
             unsafe fn raw() {}\n\
             fn msg() { assert!(true, \"unsafe reorder\"); }\n",
        );
        let kinds: Vec<(UnsafeKind, u32)> = f.unsafes.iter().map(|u| (u.kind, u.line)).collect();
        assert_eq!(
            kinds,
            vec![(UnsafeKind::Impl, 2), (UnsafeKind::Block, 3), (UnsafeKind::Fn, 4)],
            "the word `unsafe` inside a string literal is not a site"
        );
        assert_eq!(f.safety_lines, vec![1]);
    }

    #[test]
    fn wait_events_method_and_free_forms() {
        let f = file(
            "fn a(&self) {\n let mut st = self.state.lock_recover();\n \
             st = crate::sync::wait_recover(&self.available, st);\n \
             let g = cv.wait(g).unwrap();\n \
             let (s, t) = crate::sync::wait_timeout_recover(&*cv2, s, dur);\n}\n",
        );
        let names: Vec<&str> = f.waits.iter().map(|(_, w)| w.condvar.as_str()).collect();
        assert_eq!(names, vec!["available", "cv", "cv2"]);
        assert_eq!(f.waits[0].1.line, 3);
    }

    #[test]
    fn blocking_io_events() {
        let f = file(
            "use std::fs::File;\n\
             fn a() { let _ = std::fs::read_to_string(\"x\"); }\n\
             fn b() { let _ = File::open(\"x\"); }\n\
             fn c() { let _ = std::net::TcpStream::connect(\"y\"); }\n\
             fn d() { let _ = std::os::unix::net::UnixStream::connect(\"z\"); }\n\
             fn e(fs: u32) { let x = fs + 1; }\n",
        );
        let whats: Vec<&str> = f.blocking_ops.iter().map(|(_, b)| b.what.as_str()).collect();
        assert_eq!(whats, vec!["std::fs", "File::open", "std::net", "std::os::unix::net"]);
        // The `use` line sits outside any fn and records nothing.
        assert!(f.blocking_ops.iter().all(|(_, b)| b.line >= 2));
    }

    #[test]
    fn protocol_regions_and_unmatched_begin() {
        let f = file(
            "// lint:protocol-begin(publish)\nfn p() {}\n// lint:protocol-end(publish)\n\
             // lint:protocol-begin(probe)\nfn q() {}\n",
        );
        assert_eq!(
            f.protocol_regions,
            vec![("probe".into(), 4, u32::MAX), ("publish".into(), 1, 3)],
            "unmatched begin must survive as an open region, not vanish"
        );
    }

    #[test]
    fn annotations_and_regions() {
        let f = file(
            "// lint:allow-file(tolerance-literal, numeric kernel)\n\
             fn a() {} // lint:allow(panic-path, checked above)\n\
             // lint:store-surface-begin\nconst V: u32 = 2;\n// lint:store-surface-end\n\
             #[cfg(test)]\nmod tests { fn t() {} }\n",
        );
        assert_eq!(f.file_allows, vec![("tolerance-literal".into(), "numeric kernel".into())]);
        assert!(f.allows.contains_key(&2));
        assert_eq!(f.surface_regions, vec![(3, 5)]);
        assert!(f.is_test_line(7));
        assert!(!f.is_test_line(2));
    }
}
