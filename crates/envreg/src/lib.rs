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

    /// True when the variable is set at all (even to the empty string).
    pub fn is_set(&self) -> bool {
        std::env::var_os(self.name).is_some()
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

    /// Float knob (`None` when unset/unparseable) — the shape of the
    /// `REQISC_REQUIRE_*` assertion thresholds.
    pub fn f64(&self) -> Option<f64> {
        self.var().and_then(|v| v.parse().ok())
    }

    /// Boolean flag: set and neither empty nor `"0"`.
    pub fn flag(&self) -> bool {
        self.var().map(|v| !v.is_empty() && v != "0").unwrap_or(false)
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
/// the daemons, the bench binaries, and CI.
pub const SHM_PATH: EnvKnob = EnvKnob {
    name: "REQISC_SHM_PATH",
    doc: "Shared cache segment file, the durable tier (reqiscd + every bench binary); unset/empty = in-memory only",
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

/// Cap on how many suite programs `cachebench` drives.
pub const BENCH_N: EnvKnob = EnvKnob {
    name: "REQISC_BENCH_N",
    doc: "Program-count cap for cachebench (default: whole suite)",
};

/// Worker-thread pin of `cachebench`'s batch tier.
pub const THREADS: EnvKnob = EnvKnob {
    name: "REQISC_THREADS",
    doc: "cachebench batch worker count (default 0 = hardware parallelism)",
};

/// Skip `cachebench`'s slow serial reference column.
pub const SKIP_SERIAL: EnvKnob = EnvKnob {
    name: "REQISC_SKIP_SERIAL",
    doc: "Set non-zero to skip cachebench's slow serial reference column",
};

/// CI assertion: minimum disk-warm speedup over cold.
pub const REQUIRE_DISK_WARM_X: EnvKnob = EnvKnob {
    name: "REQISC_REQUIRE_DISK_WARM_X",
    doc: "cachebench assertion: the segment must hold an earlier run's entries and disk-warm must be >= this x over cold",
};

/// CI assertion: minimum disk-warm program-pool hit percentage.
pub const REQUIRE_PROGRAM_HIT_PCT: EnvKnob = EnvKnob {
    name: "REQISC_REQUIRE_PROGRAM_HIT_PCT",
    doc: "cachebench assertion: disk-warm program-pool hit rate must be >= this percentage",
};

/// CI assertion: solver cost ceiling on the sliver tier.
pub const REQUIRE_SLIVER_BUDGET: EnvKnob = EnvKnob {
    name: "REQISC_REQUIRE_SLIVER_BUDGET",
    doc: "solverbench assertion: max total evals+verifies on the sliver tier",
};

/// CI assertion: solver cost ceiling on the generic tier.
pub const REQUIRE_GENERIC_BUDGET: EnvKnob = EnvKnob {
    name: "REQISC_REQUIRE_GENERIC_BUDGET",
    doc: "solverbench assertion: max total evals+verifies on the generic tier",
};

/// CI assertion: solver cost ceiling on the degenerate tier.
pub const REQUIRE_DEGENERATE_BUDGET: EnvKnob = EnvKnob {
    name: "REQISC_REQUIRE_DEGENERATE_BUDGET",
    doc: "solverbench assertion: max total evals+verifies on the degenerate tier",
};

/// CI assertion: the wrong-subscheme reject path must cost zero evals.
pub const REQUIRE_ZERO_REJECT_EVALS: EnvKnob = EnvKnob {
    name: "REQISC_REQUIRE_ZERO_REJECT_EVALS",
    doc: "solverbench assertion: set = the wrong-subscheme reject tier must cost exactly 0 evaluations",
};

/// Every declared knob, in the order the README table presents them.
pub const ALL: &[&EnvKnob] = &[
    &SHM_PATH,
    &SHM_CAPACITY_BYTES,
    &SCALE,
    &TRIALS,
    &HAAR_SAMPLES,
    &BENCH_N,
    &THREADS,
    &SKIP_SERIAL,
    &REQUIRE_DISK_WARM_X,
    &REQUIRE_PROGRAM_HIT_PCT,
    &REQUIRE_SLIVER_BUDGET,
    &REQUIRE_GENERIC_BUDGET,
    &REQUIRE_DEGENERATE_BUDGET,
    &REQUIRE_ZERO_REJECT_EVALS,
];

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
        // Use a name that is *declared* (the registry rule forbids ad-hoc
        // literals), reading through a knob whose value we control.
        std::env::set_var(SKIP_SERIAL.name, "0");
        assert!(!SKIP_SERIAL.flag());
        assert!(SKIP_SERIAL.is_set());
        std::env::set_var(SKIP_SERIAL.name, "1");
        assert!(SKIP_SERIAL.flag());
        std::env::set_var(BENCH_N.name, "17");
        assert_eq!(BENCH_N.usize_or(3), 17);
        std::env::set_var(BENCH_N.name, "junk");
        assert_eq!(BENCH_N.usize_or(3), 3);
        std::env::set_var(REQUIRE_DISK_WARM_X.name, "2.5");
        assert_eq!(REQUIRE_DISK_WARM_X.f64(), Some(2.5));
        std::env::set_var(SHM_PATH.name, "");
        assert_eq!(SHM_PATH.path(), None, "empty path knob means no segment");
        std::env::set_var(SHM_PATH.name, "/tmp/x");
        assert_eq!(SHM_PATH.path(), Some(std::path::PathBuf::from("/tmp/x")));
        std::env::remove_var(SHM_PATH.name);
        std::env::remove_var(BENCH_N.name);
        std::env::remove_var(SKIP_SERIAL.name);
        std::env::remove_var(REQUIRE_DISK_WARM_X.name);
        assert_eq!(SHM_PATH.path(), None);
    }
}
