#![warn(missing_docs)]
//! # reqisc-env
//!
//! The **single registry** of `REQISC_*` environment knobs. Every
//! variable the workspace reads is declared exactly once here, as an
//! [`EnvKnob`] carrying the variable name and a one-line doc; consumers
//! (the service daemon, the bench binaries, the benchsuite scale switch)
//! reference the knob constant instead of spelling the string.
//!
//! This is enforced, not aspirational: the `reqisc-lint` `env-registry`
//! rule rejects any `"REQISC_*"` string literal outside this module, so a
//! new knob cannot ship undeclared or undocumented. The README's
//! environment-variable table is generated from [`markdown_table`] and a
//! test keeps the two in sync.

use std::path::PathBuf;

/// One declared environment knob: the variable name plus its
/// human-readable contract. Accessors implement the one shared parse for
/// each value shape, so two binaries can never drift on semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvKnob {
    /// The environment variable name (always `REQISC_*`).
    pub name: &'static str,
    /// One-line description of what the knob does and who reads it.
    pub doc: &'static str,
}

impl EnvKnob {
    /// The raw value (`None` when unset or not valid UTF-8).
    pub fn var(&self) -> Option<String> {
        std::env::var(self.name).ok()
    }

    /// Integer knob: `default` when unset or unparseable.
    pub fn usize_or(&self, default: usize) -> usize {
        self.var().and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// Byte-size knob (`u64` even on 32-bit hosts — segment capacities
    /// exceed `usize` there): `default` when unset or unparseable.
    pub fn u64_or(&self, default: u64) -> u64 {
        self.var().and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// Path knob: `None` when unset **or empty** (an empty segment path
    /// means "no segment", not "the current directory").
    pub fn path(&self) -> Option<PathBuf> {
        let v = std::env::var_os(self.name)?;
        if v.is_empty() {
            return None;
        }
        Some(PathBuf::from(v))
    }
}

/// Shared-memory cache segment path: the one durable tier, shared by
/// the daemons, the compiling bench binaries, and CI.
pub const SHM_PATH: EnvKnob = EnvKnob {
    name: "REQISC_SHM_PATH",
    doc: "Shared cache segment file, the durable tier (read by reqiscd, fig12, fig13, fig14 and table2); unset/empty = in-memory only",
};

/// Capacity used when the shared segment is (re)created.
pub const SHM_CAPACITY_BYTES: EnvKnob = EnvKnob {
    name: "REQISC_SHM_CAPACITY_BYTES",
    doc: "Shared segment capacity in bytes when it is first created (default 67108864 = 64 MiB; existing segments keep theirs)",
};

/// Benchsuite scale switch: `paper` selects Table-1-sized programs.
pub const SCALE: EnvKnob = EnvKnob {
    name: "REQISC_SCALE",
    doc: "Benchsuite scale: `paper` = Table-1-sized programs (slow), anything else = demo scale",
};

/// Trial count of the `fig15` pulse-robustness sweep.
pub const TRIALS: EnvKnob = EnvKnob {
    name: "REQISC_TRIALS",
    doc: "fig15 robustness-sweep trial count (default 120)",
};

/// Sample count of the `table3` Haar-random evaluation.
pub const HAAR_SAMPLES: EnvKnob = EnvKnob {
    name: "REQISC_HAAR_SAMPLES",
    doc: "table3 Haar-random SU(4) sample count (default 2000; the paper uses 1e5)",
};

/// Every declared knob, in the order the README table presents them.
pub const ALL: &[&EnvKnob] = &[&SHM_PATH, &SHM_CAPACITY_BYTES, &SCALE, &TRIALS, &HAAR_SAMPLES];

/// The README "Environment variables" table, generated from [`ALL`] so
/// docs can never silently drift from the registry.
pub fn markdown_table() -> String {
    let mut out = String::from("| Variable | Meaning |\n|---|---|\n");
    for k in ALL {
        out.push_str(&format!("| `{}` | {} |\n", k.name, k.doc));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for k in ALL {
            assert!(k.name.starts_with("REQISC_"), "{} lacks the prefix", k.name);
            assert!(!k.doc.trim().is_empty(), "{} lacks a doc line", k.name);
            assert!(seen.insert(k.name), "{} declared twice", k.name);
        }
        assert_eq!(seen.len(), ALL.len());
    }

    #[test]
    fn markdown_table_covers_every_knob() {
        let t = markdown_table();
        for k in ALL {
            assert!(t.contains(k.name), "table misses {}", k.name);
        }
    }

    #[test]
    fn readme_documents_every_knob() {
        // The README env table is pasted from `markdown_table()`; this
        // pin catches a knob added to the registry but not to the docs,
        // and a row left behind by a knob the registry dropped.
        let readme = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md"),
        )
        .expect("README.md readable");
        for k in ALL {
            assert!(readme.contains(k.name), "README does not mention {}", k.name);
        }
        assert!(
            readme.contains(&markdown_table()),
            "README env table differs from markdown_table(); regenerate it"
        );
    }

    #[test]
    fn accessor_semantics() {
        // Use names that are *declared* (the registry rule forbids ad-hoc
        // literals), reading through knobs whose values we control.
        std::env::set_var(TRIALS.name, "17");
        assert_eq!(TRIALS.usize_or(3), 17);
        assert_eq!(TRIALS.u64_or(3), 17);
        std::env::set_var(TRIALS.name, "junk");
        assert_eq!(TRIALS.var().as_deref(), Some("junk"));
        assert_eq!(TRIALS.usize_or(3), 3, "unparseable means the default");
        assert_eq!(TRIALS.u64_or(3), 3);
        std::env::set_var(SHM_PATH.name, "");
        assert_eq!(SHM_PATH.path(), None, "empty path knob means no segment");
        std::env::set_var(SHM_PATH.name, "/tmp/x");
        assert_eq!(SHM_PATH.path(), Some(std::path::PathBuf::from("/tmp/x")));
        std::env::remove_var(SHM_PATH.name);
        std::env::remove_var(TRIALS.name);
        assert_eq!(SHM_PATH.path(), None);
        assert_eq!(TRIALS.var(), None);
        assert_eq!(TRIALS.usize_or(3), 3, "unset means the default");
    }
}
