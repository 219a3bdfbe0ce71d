//! `lint.conf` parser. The config is a line-oriented directive file
//! committed next to the crate; it declares the workspace-specific
//! knowledge the rules need (lock classes and their partial order, the
//! store-format surface, panic-path entry points, …) so the engine
//! itself stays generic and the fixtures can supply miniature configs.
//!
//! Grammar: one directive per line, `#` comments, whitespace-separated
//! fields. Unknown directives are an error (typos must not silently
//! disable a rule).

use std::collections::{HashMap, HashSet};
use std::path::Path;

/// Parsed configuration for one lint run.
#[derive(Debug, Default)]
pub struct Config {
    /// Directory prefixes (workspace-relative) excluded from the scan.
    pub skip_dirs: Vec<String>,
    /// Path of the committed store-surface registry, workspace-relative.
    pub registry_file: Option<String>,
    /// `(file, const-name)` of the store format version constant.
    pub version_const: Option<(String, String)>,
    /// Whole files whose normalized token stream is part of the surface.
    pub surface_files: Vec<String>,
    /// Files whose `lint:store-surface-begin/end` regions are the surface.
    pub surface_region_files: Vec<String>,
    /// `(file, const-name)` constants whose literal value is registered.
    pub surface_consts: Vec<(String, String)>,
    /// Receiver-name → lock-class mapping (`-` means ignore).
    pub lock_classes: HashMap<String, String>,
    /// Declared partial order: `(inner may be taken while outer held)`.
    pub lock_order: Vec<(String, String)>,
    /// Callee names never followed during call-graph propagation.
    pub call_ignore: HashSet<String>,
    /// Directory prefixes in scope for the panic-path rule.
    pub panic_scopes: Vec<String>,
    /// Request-path entry function names.
    pub panic_entries: HashSet<String>,
    /// The env-registry module file, workspace-relative.
    pub env_registry: Option<String>,
    /// Directory prefixes in scope for the sync-shim rule.
    pub sync_shim_scopes: Vec<String>,
    /// Directory prefixes where `unsafe` is permitted (unsafe-audit).
    pub unsafe_scopes: Vec<String>,
    /// Files that must carry `lint:protocol-begin/end(publish|probe)`
    /// regions (publish-protocol).
    pub protocol_files: Vec<String>,
    /// Call names that write entry bytes into the mapping without
    /// ordering (publish-protocol).
    pub protocol_plain_writes: HashSet<String>,
    /// Call names that read entry bytes out of the mapping without
    /// ordering (publish-protocol).
    pub protocol_plain_reads: HashSet<String>,
    /// Lock classes under which blocking operations are denied
    /// (blocking-in-critical-section).
    pub non_blocking_locks: HashSet<String>,
    /// Condvar receiver name → the lock class its guard belongs to
    /// (blocking-in-critical-section).
    pub condvar_classes: HashMap<String, String>,
    /// Function names that are blocking entry points (solvers, bulk
    /// passes into the segment) wherever they are called
    /// (blocking-in-critical-section).
    pub blocking_calls: HashSet<String>,
}

impl Config {
    /// Parses a config from text. Returns a descriptive error on any
    /// malformed or unknown directive.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut c = Config::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let directive = parts.next().unwrap();
            let args: Vec<&str> = parts.collect();
            let want = |n: usize| -> Result<(), String> {
                if args.len() == n {
                    Ok(())
                } else {
                    Err(format!(
                        "lint.conf:{}: `{}` takes {} argument(s), got {}",
                        lineno + 1,
                        directive,
                        n,
                        args.len()
                    ))
                }
            };
            match directive {
                "skip-dir" => {
                    want(1)?;
                    c.skip_dirs.push(args[0].to_string());
                }
                "registry-file" => {
                    want(1)?;
                    c.registry_file = Some(args[0].to_string());
                }
                "version-const" => {
                    want(2)?;
                    c.version_const = Some((args[0].to_string(), args[1].to_string()));
                }
                "surface-file" => {
                    want(1)?;
                    c.surface_files.push(args[0].to_string());
                }
                "surface-region" => {
                    want(1)?;
                    c.surface_region_files.push(args[0].to_string());
                }
                "surface-const" => {
                    want(2)?;
                    c.surface_consts.push((args[0].to_string(), args[1].to_string()));
                }
                "lock-class" => {
                    want(2)?;
                    c.lock_classes.insert(args[0].to_string(), args[1].to_string());
                }
                "lock-order" => {
                    want(2)?;
                    c.lock_order.push((args[0].to_string(), args[1].to_string()));
                }
                "call-ignore" => {
                    if args.is_empty() {
                        return Err(format!(
                            "lint.conf:{}: `call-ignore` needs at least one name",
                            lineno + 1
                        ));
                    }
                    c.call_ignore.extend(args.iter().map(|s| s.to_string()));
                }
                "panic-scope" => {
                    want(1)?;
                    c.panic_scopes.push(args[0].to_string());
                }
                "panic-entry" => {
                    if args.is_empty() {
                        return Err(format!(
                            "lint.conf:{}: `panic-entry` needs at least one name",
                            lineno + 1
                        ));
                    }
                    c.panic_entries.extend(args.iter().map(|s| s.to_string()));
                }
                "env-registry" => {
                    want(1)?;
                    c.env_registry = Some(args[0].to_string());
                }
                "sync-shim-scope" => {
                    want(1)?;
                    c.sync_shim_scopes.push(args[0].to_string());
                }
                "unsafe-scope" => {
                    want(1)?;
                    c.unsafe_scopes.push(args[0].to_string());
                }
                "protocol-file" => {
                    want(1)?;
                    c.protocol_files.push(args[0].to_string());
                }
                "protocol-plain-write" | "protocol-plain-read" | "non-blocking-lock"
                | "blocking-call" => {
                    if args.is_empty() {
                        return Err(format!(
                            "lint.conf:{}: `{}` needs at least one name",
                            lineno + 1,
                            directive
                        ));
                    }
                    let set = match directive {
                        "protocol-plain-write" => &mut c.protocol_plain_writes,
                        "protocol-plain-read" => &mut c.protocol_plain_reads,
                        "non-blocking-lock" => &mut c.non_blocking_locks,
                        _ => &mut c.blocking_calls,
                    };
                    set.extend(args.iter().map(|s| s.to_string()));
                }
                "condvar-class" => {
                    want(2)?;
                    c.condvar_classes.insert(args[0].to_string(), args[1].to_string());
                }
                other => {
                    return Err(format!("lint.conf:{}: unknown directive `{}`", lineno + 1, other));
                }
            }
        }
        Ok(c)
    }

    /// Loads and parses a config file from disk.
    pub fn load(path: &Path) -> Result<Config, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Config::parse(&text)
    }

    /// Maps a receiver name to its lock class: `Some(class)`, or `None`
    /// when the receiver is explicitly ignored (`-`) or unknown.
    pub fn lock_class_of(&self, receiver: &str) -> Option<String> {
        match self.lock_classes.get(receiver) {
            Some(c) if c == "-" => None,
            Some(c) => Some(c.clone()),
            None => None,
        }
    }

    /// True when `inner` is declared safe to take while `outer` is held
    /// (transitively).
    pub fn order_allows(&self, outer: &str, inner: &str) -> bool {
        // BFS over declared edges.
        let mut seen: HashSet<&str> = HashSet::new();
        let mut stack = vec![outer];
        while let Some(o) = stack.pop() {
            if !seen.insert(o) {
                continue;
            }
            for (a, b) in &self.lock_order {
                if a == o {
                    if b == inner {
                        return true;
                    }
                    stack.push(b);
                }
            }
        }
        false
    }

    /// True when a workspace-relative path is under a skipped directory.
    pub fn is_skipped(&self, rel: &str) -> bool {
        self.skip_dirs.iter().any(|d| rel == d || rel.starts_with(&format!("{d}/")))
    }

    /// True when a workspace-relative path is in panic-path scope.
    pub fn in_panic_scope(&self, rel: &str) -> bool {
        self.panic_scopes.iter().any(|d| rel == d || rel.starts_with(&format!("{d}/")))
    }

    /// True when a workspace-relative path is in sync-shim scope.
    pub fn in_sync_shim_scope(&self, rel: &str) -> bool {
        self.sync_shim_scopes.iter().any(|d| rel == d || rel.starts_with(&format!("{d}/")))
    }

    /// True when a workspace-relative path may contain `unsafe`.
    pub fn in_unsafe_scope(&self, rel: &str) -> bool {
        self.unsafe_scopes.iter().any(|d| rel == d || rel.starts_with(&format!("{d}/")))
    }

    /// Maps a condvar receiver name to the lock class its guard belongs
    /// to: `Some(class)`, or `None` when unmapped (the
    /// blocking-in-critical-section rule treats an unmapped condvar as
    /// blocking under every non-blocking class).
    pub fn condvar_class_of(&self, receiver: &str) -> Option<String> {
        match self.condvar_classes.get(receiver) {
            Some(c) if c == "-" => None,
            Some(c) => Some(c.clone()),
            None => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_directive() {
        let c = Config::parse(
            "# comment\n\
             skip-dir crates/vendor\n\
             registry-file crates/lint/store_surface.lock\n\
             version-const crates/compiler/src/sharing.rs STORE_FORMAT_VERSION\n\
             surface-file crates/qmath/src/bytes.rs\n\
             surface-region crates/compiler/src/sharing.rs\n\
             surface-const crates/qmath/src/kak.rs KAK_FACE_SNAP_TOL\n\
             lock-class inflight inflight\n\
             lock-class stdout -\n\
             lock-order inflight queue\n\
             lock-order queue cache_shard\n\
             call-ignore get insert len\n\
             panic-scope crates/service/src\n\
             panic-entry serve_lines handle_line\n\
             env-registry crates/envreg/src/lib.rs\n\
             sync-shim-scope crates/service/src\n\
             unsafe-scope crates/shmem\n\
             protocol-file crates/shmem/src/lib.rs\n\
             protocol-plain-write write_bytes_in\n\
             protocol-plain-read copy_out read_bytes_in\n\
             non-blocking-lock inflight completion_ring\n\
             condvar-class available queue\n\
             blocking-call solve_ea solve_pulse\n",
        )
        .unwrap();
        assert!(c.is_skipped("crates/vendor/rand/src/lib.rs"));
        assert!(!c.is_skipped("crates/vendored/x.rs"));
        assert_eq!(c.lock_class_of("inflight").as_deref(), Some("inflight"));
        assert_eq!(c.lock_class_of("stdout"), None);
        assert_eq!(c.lock_class_of("mystery"), None);
        assert!(c.order_allows("inflight", "queue"));
        assert!(c.order_allows("inflight", "cache_shard"), "order is transitive");
        assert!(!c.order_allows("queue", "inflight"));
        assert!(c.call_ignore.contains("len"));
        assert!(c.in_panic_scope("crates/service/src/server.rs"));
        assert!(!c.in_panic_scope("crates/compiler/src/sharing.rs"));
        assert!(c.panic_entries.contains("serve_lines"));
        assert_eq!(c.env_registry.as_deref(), Some("crates/envreg/src/lib.rs"));
        assert!(c.in_sync_shim_scope("crates/service/src/queue.rs"));
        assert!(!c.in_sync_shim_scope("crates/sched/src/shim.rs"));
        assert!(c.in_unsafe_scope("crates/shmem/src/sys.rs"));
        assert!(!c.in_unsafe_scope("crates/shmem2/src/lib.rs"));
        assert_eq!(c.protocol_files, vec!["crates/shmem/src/lib.rs".to_string()]);
        assert!(c.protocol_plain_writes.contains("write_bytes_in"));
        assert!(c.protocol_plain_reads.contains("read_bytes_in"));
        assert!(c.non_blocking_locks.contains("completion_ring"));
        assert_eq!(c.condvar_class_of("available").as_deref(), Some("queue"));
        assert_eq!(c.condvar_class_of("mystery"), None);
        assert!(c.blocking_calls.contains("solve_pulse"));
    }

    #[test]
    fn rejects_unknown_directive() {
        let err = Config::parse("frobnicate yes\n").unwrap_err();
        assert!(err.contains("unknown directive"), "{err}");
    }

    #[test]
    fn rejects_bad_arity() {
        let err = Config::parse("version-const onlyone\n").unwrap_err();
        assert!(err.contains("takes 2"), "{err}");
    }
}
