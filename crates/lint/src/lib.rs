#![warn(missing_docs)]
//! # reqisc-lint
//!
//! A workspace invariant analyzer for the reqisc repo: a hand-rolled
//! static-analysis pass (no external parser crates) that tokenizes every
//! workspace `.rs` file, extracts per-file facts, and runs ten
//! repo-specific cross-file rules:
//!
//! * **store-format** — the shared segment's codec surface (byte codecs,
//!   record layout, class-snap tolerances) is fingerprinted into a
//!   committed registry keyed by `STORE_FORMAT_VERSION`; changing the
//!   surface without bumping the version fails.
//! * **lock-order** — lock acquisitions in the service/cache stack must
//!   respect the declared partial order (propagated through an
//!   approximate call graph).
//! * **atomic-ordering** — atomics are classified counter vs. handoff;
//!   `SeqCst` and unpaired `Release`/`Acquire` are flagged.
//! * **panic-path** — no `unwrap()`/`expect("…")`/direct indexing in
//!   functions reachable from service request-path entry points.
//! * **tolerance-literal** — no bare `1e-N` comparison literals outside
//!   named-constant definitions.
//! * **env-registry** — every `REQISC_*` env-var literal must be declared
//!   (with a doc line) in the single registry module.
//! * **sync-shim** — the service stack's mutexes, condvars, atomics and
//!   spawns come from the `reqisc-sched` shim (so `--features
//!   sched-model` can model-check them), never raw `std::sync` /
//!   `std::thread::spawn`.
//! * **unsafe-audit** — `unsafe` only in `unsafe-scope` crates, and
//!   every production site carries an attached `// SAFETY:` comment.
//! * **publish-protocol** — the shared-memory segment's lock-free
//!   publish/probe ordering (Release commit store, CAS index handoff,
//!   Acquire-before-read probes) inside `lint:protocol-begin/end`
//!   marked regions.
//! * **blocking-in-critical-section** — a held-locks dataflow over the
//!   call graph denies file/socket I/O, cross-class condvar waits, and
//!   solver entry points while a `non-blocking-lock` class is held.
//!
//! Diagnostics are deny-by-default and deterministic; suppress with
//! `// lint:allow(rule, reason)` (covers that line and the next) or
//! `// lint:allow-file(rule, reason)` at file granularity.

pub mod callgraph;
pub mod config;
pub mod facts;
pub mod lexer;
pub mod rules;

use config::Config;
use facts::SourceFile;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Diagnostic severity. Everything the ten rules emit is [`Severity::Deny`];
/// `Warn` exists for forward-compat with `--deny-all` promotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory.
    Warn,
    /// Fails the run.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warn => write!(f, "warn"),
            Severity::Deny => write!(f, "deny"),
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (`store-format`, `lock-order`, …).
    pub rule: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human message.
    pub message: String,
}

impl Diagnostic {
    /// Convenience constructor for a deny diagnostic.
    pub fn deny(rule: &'static str, file: &str, line: u32, message: String) -> Diagnostic {
        Diagnostic { rule, severity: Severity::Deny, file: file.to_string(), line, message }
    }

    /// Renders the canonical human form.
    pub fn render(&self) -> String {
        format!("{}[{}] {}:{}: {}", self.severity, self.rule, self.file, self.line, self.message)
    }

    /// Renders one JSON object (hand-rolled; no serde in this crate).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"severity\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            self.rule,
            self.severity,
            json_escape(&self.file),
            self.line,
            json_escape(&self.message)
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The scanned workspace: every fact-extracted `.rs` file, sorted by
/// path for determinism.
pub struct Workspace {
    /// Workspace root.
    pub root: PathBuf,
    /// Files in path order.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Walks `root` for `.rs` files (skipping `target/`, hidden dirs, and
    /// the config's `skip-dir`s) and extracts facts from each.
    pub fn scan(root: &Path, cfg: &Config) -> Result<Workspace, String> {
        let mut paths = Vec::new();
        walk(root, root, cfg, &mut paths)?;
        paths.sort();
        let mut files = Vec::new();
        for rel in paths {
            let src = std::fs::read_to_string(root.join(&rel))
                .map_err(|e| format!("cannot read {rel}: {e}"))?;
            files.push(SourceFile::extract(rel, &src));
        }
        Ok(Workspace { root: root.to_path_buf(), files })
    }

    /// Looks up a scanned file by workspace-relative path.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

fn walk(root: &Path, dir: &Path, cfg: &Config, out: &mut Vec<String>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk error: {e}"))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let rel = path
            .strip_prefix(root)
            .map_err(|_| "walk escaped root".to_string())?
            .to_string_lossy()
            .replace('\\', "/");
        if path.is_dir() {
            if name.starts_with('.') || name == "target" || cfg.is_skipped(&rel) {
                continue;
            }
            walk(root, &path, cfg, out)?;
        } else if name.ends_with(".rs") && !cfg.is_skipped(&rel) {
            out.push(rel);
        }
    }
    Ok(())
}

/// FNV-1a 128-bit over a byte stream.
pub fn fnv128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Fingerprints a normalized token stream (comment- and
/// whitespace-insensitive: only token texts matter, joined with `\x1f`).
pub fn fingerprint_tokens(tokens: &[lexer::Token]) -> String {
    let mut buf = Vec::new();
    for t in tokens {
        buf.extend_from_slice(t.text.as_bytes());
        buf.push(0x1f);
    }
    format!("{:032x}", fnv128(&buf))
}

/// Fingerprints only the tokens inside the file's
/// `lint:store-surface-begin/end` regions.
pub fn fingerprint_regions(f: &SourceFile) -> String {
    let mut buf = Vec::new();
    for t in &f.tokens {
        if f.surface_regions.iter().any(|&(a, b)| t.line >= a && t.line <= b) {
            buf.extend_from_slice(t.text.as_bytes());
            buf.push(0x1f);
        }
    }
    format!("{:032x}", fnv128(&buf))
}

/// The committed store-surface registry (`store_surface.lock`).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct StoreRegistry {
    /// Registered `STORE_FORMAT_VERSION`.
    pub version: String,
    /// Whole-file fingerprints.
    pub surfaces: BTreeMap<String, String>,
    /// Marked-region fingerprints.
    pub regions: BTreeMap<String, String>,
    /// Registered constant literal values, keyed `file::NAME`.
    pub consts: BTreeMap<String, String>,
}

impl StoreRegistry {
    /// Parses the registry file format.
    pub fn parse(text: &str) -> Result<StoreRegistry, String> {
        let mut r = StoreRegistry::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["version", v] => r.version = v.to_string(),
                ["surface", path, fp] => {
                    r.surfaces.insert(path.to_string(), fp.to_string());
                }
                ["region", path, fp] => {
                    r.regions.insert(path.to_string(), fp.to_string());
                }
                ["const", path, name, value] => {
                    r.consts.insert(format!("{path}::{name}"), value.to_string());
                }
                _ => {
                    return Err(format!(
                        "store registry line {}: unrecognized entry `{line}`",
                        lineno + 1
                    ))
                }
            }
        }
        Ok(r)
    }

    /// Serializes back to the committed file format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("# reqisc-lint store-format registry. Regenerate with:\n");
        out.push_str("#   cargo run -p reqisc-lint -- --update-store-registry\n");
        out.push_str("# after bumping STORE_FORMAT_VERSION in compiler/src/sharing.rs.\n");
        out.push_str(&format!("version {}\n", self.version));
        for (p, fp) in &self.surfaces {
            out.push_str(&format!("surface {p} {fp}\n"));
        }
        for (p, fp) in &self.regions {
            out.push_str(&format!("region {p} {fp}\n"));
        }
        for (k, v) in &self.consts {
            let (p, name) = k.split_once("::").unwrap_or((k.as_str(), ""));
            out.push_str(&format!("const {p} {name} {v}\n"));
        }
        out
    }
}

/// Computes the *current* surface registry from the scanned workspace.
pub fn compute_registry(ws: &Workspace, cfg: &Config) -> Result<StoreRegistry, String> {
    let mut r = StoreRegistry::default();
    let (vfile, vname) = cfg
        .version_const
        .as_ref()
        .ok_or("lint.conf: store-format rule needs a `version-const` directive")?;
    let f = ws.file(vfile).ok_or_else(|| format!("version-const file {vfile} not in scan"))?;
    r.version = const_literal(f, vname)
        .ok_or_else(|| format!("const {vname} not found in {vfile}"))?;
    for path in &cfg.surface_files {
        let f = ws.file(path).ok_or_else(|| format!("surface-file {path} not in scan"))?;
        r.surfaces.insert(path.clone(), fingerprint_tokens(&f.tokens));
    }
    for path in &cfg.surface_region_files {
        let f = ws.file(path).ok_or_else(|| format!("surface-region file {path} not in scan"))?;
        if f.surface_regions.is_empty() {
            return Err(format!(
                "{path}: declared `surface-region` but contains no lint:store-surface-begin/end markers"
            ));
        }
        r.regions.insert(path.clone(), fingerprint_regions(f));
    }
    for (path, name) in &cfg.surface_consts {
        let f = ws.file(path).ok_or_else(|| format!("surface-const file {path} not in scan"))?;
        let v = const_literal(f, name)
            .ok_or_else(|| format!("const {name} not found in {path}"))?;
        r.consts.insert(format!("{path}::{name}"), v);
    }
    Ok(r)
}

/// Extracts the literal initializer of `const NAME: T = <value>;` as its
/// token texts joined (so `1e-8` → `1e-8`, `-1.0` → `-1.0`).
pub fn const_literal(f: &SourceFile, name: &str) -> Option<String> {
    let toks = &f.tokens;
    for i in 0..toks.len() {
        if toks[i].text == "const"
            && toks.get(i + 1).map(|t| t.text == name).unwrap_or(false)
        {
            // Skip to `=`, collect until `;`.
            let mut j = i + 2;
            while j < toks.len() && toks[j].text != "=" && toks[j].text != ";" {
                j += 1;
            }
            if j >= toks.len() || toks[j].text != "=" {
                return None;
            }
            let mut parts = Vec::new();
            j += 1;
            while j < toks.len() && toks[j].text != ";" {
                parts.push(toks[j].text.clone());
                j += 1;
            }
            if parts.is_empty() {
                return None;
            }
            return Some(parts.join(""));
        }
    }
    None
}

/// Result of a lint run.
pub struct LintOutcome {
    /// Post-suppression diagnostics, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Count of diagnostics silenced by `lint:allow` annotations.
    pub suppressed: usize,
    /// Files scanned.
    pub files_scanned: usize,
}

impl LintOutcome {
    /// True when no deny diagnostics remain.
    pub fn clean(&self) -> bool {
        !self.diagnostics.iter().any(|d| d.severity == Severity::Deny)
    }
}

/// Runs every rule over the workspace at `root` with the given config.
pub fn run(root: &Path, cfg: &Config) -> Result<LintOutcome, String> {
    let ws = Workspace::scan(root, cfg)?;
    run_scanned(&ws, cfg)
}

/// Runs every rule over an already-scanned workspace.
pub fn run_scanned(ws: &Workspace, cfg: &Config) -> Result<LintOutcome, String> {
    let mut diags = Vec::new();
    rules::store_format::check(ws, cfg, &mut diags)?;
    rules::locks::check(ws, cfg, &mut diags);
    rules::atomics::check(ws, cfg, &mut diags);
    rules::panics::check(ws, cfg, &mut diags);
    rules::tolerances::check(ws, cfg, &mut diags);
    rules::envvars::check(ws, cfg, &mut diags);
    rules::sync_shim::check(ws, cfg, &mut diags);
    rules::unsafe_audit::check(ws, cfg, &mut diags);
    rules::protocol::check(ws, cfg, &mut diags);
    rules::blocking::check(ws, cfg, &mut diags);

    // Apply suppressions.
    let before = diags.len();
    let diags: Vec<Diagnostic> = diags
        .into_iter()
        .filter(|d| !is_suppressed(ws, d))
        .collect();
    let suppressed = before - diags.len();

    let mut diags = diags;
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
    diags.dedup();
    Ok(LintOutcome { diagnostics: diags, suppressed, files_scanned: ws.files.len() })
}

fn is_suppressed(ws: &Workspace, d: &Diagnostic) -> bool {
    let Some(f) = ws.file(&d.file) else { return false };
    f.allows_rule_at(d.rule, d.line)
}

/// Recomputes the store-surface registry from the live workspace and
/// writes it to the configured registry file. Returns the path written.
pub fn update_store_registry(root: &Path, cfg: &Config) -> Result<PathBuf, String> {
    let ws = Workspace::scan(root, cfg)?;
    let reg = compute_registry(&ws, cfg)?;
    let rel = cfg
        .registry_file
        .as_ref()
        .ok_or("lint.conf: no `registry-file` directive")?;
    let path = root.join(rel);
    std::fs::write(&path, reg.render())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Locates the workspace root (the directory containing `Cargo.toml` with
/// a `[workspace]` table) starting from `start` and walking up.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Loads the workspace's own `crates/lint/lint.conf` relative to `root`.
pub fn load_workspace_config(root: &Path) -> Result<Config, String> {
    Config::load(&root.join("crates/lint/lint.conf"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv128_vectors() {
        // FNV-1a 128 of the empty input is the offset basis.
        assert_eq!(fnv128(b""), 0x6c62272e07bb014262b821756295c58d);
        // Stability check (self-consistent, guards accidental edits).
        assert_eq!(format!("{:032x}", fnv128(b"a")), format!("{:032x}", fnv128(b"a")));
        assert_ne!(fnv128(b"a"), fnv128(b"b"));
    }

    #[test]
    fn fingerprint_ignores_comments_and_whitespace() {
        let a = lexer::lex("fn f() { 1 + 2 }");
        let b = lexer::lex("// comment\nfn f()  {\n  1+2\n}");
        assert_eq!(fingerprint_tokens(&a.tokens), fingerprint_tokens(&b.tokens));
        let c = lexer::lex("fn f() { 1 + 3 }");
        assert_ne!(fingerprint_tokens(&a.tokens), fingerprint_tokens(&c.tokens));
    }

    #[test]
    fn registry_roundtrip() {
        let mut r = StoreRegistry { version: "2".into(), ..Default::default() };
        r.surfaces.insert("a/b.rs".into(), "00ff".into());
        r.regions.insert("c/d.rs".into(), "11ee".into());
        r.consts.insert("e/f.rs::TOL".into(), "1e-8".into());
        let r2 = StoreRegistry::parse(&r.render()).unwrap();
        assert_eq!(r, r2);
    }

    #[test]
    fn const_literal_extraction() {
        let f = SourceFile::extract(
            "x.rs".into(),
            "pub const STORE_FORMAT_VERSION: u32 = 2;\npub(crate) const TOL: f64 = 1e-8;\nconst NEG: f64 = -0.5;",
        );
        assert_eq!(const_literal(&f, "STORE_FORMAT_VERSION").as_deref(), Some("2"));
        assert_eq!(const_literal(&f, "TOL").as_deref(), Some("1e-8"));
        assert_eq!(const_literal(&f, "NEG").as_deref(), Some("-0.5"));
        assert_eq!(const_literal(&f, "MISSING"), None);
    }
}
