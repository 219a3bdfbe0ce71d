//! `reqisc-lint` CLI: runs the ten workspace invariant rules and exits
//! non-zero on any deny diagnostic.
//!
//! ```text
//! reqisc-lint [--root DIR] [--json] [--deny-all] [--update-store-registry]
//!             [--explain RULE]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

/// `(rule id, contract)` pairs for `--explain`, so CI failures are
/// self-describing without digging through rule sources.
const EXPLAIN: &[(&str, &str)] = &[
    (
        "store-format",
        "The shared segment's codec surface (surface-file token streams, \
         lint:store-surface-begin/end regions, registered constants) is fingerprinted into \
         crates/lint/store_surface.lock keyed by STORE_FORMAT_VERSION. Changing any of it \
         without bumping the version and regenerating the registry \
         (--update-store-registry) is denied: a silent surface change corrupts the \
         segment files of every deployed daemon.",
    ),
    (
        "lock-order",
        "Lock acquisitions (receiver names mapped to classes by `lock-class`) must respect \
         the declared `lock-order outer inner` partial order, including through calls \
         resolved over the approximate call graph. Re-acquiring a held class is a \
         self-deadlock; inverting a declared edge deadlocks against any thread taking them \
         in order.",
    ),
    (
        "atomic-ordering",
        "SeqCst is denied (this codebase's protocols are all pairwise Release/Acquire), and \
         every Release store must have a workspace-visible Acquire load of the same field \
         (and vice versa) — an unpaired half of a handoff is almost always a bug.",
    ),
    (
        "panic-path",
        "No unwrap()/expect(\"…\")/direct indexing in functions reachable from the \
         `panic-entry` service request-path entry points (closure over functions defined \
         under `panic-scope`). A panic there silently kills a worker or accept thread; \
         return an error response instead.",
    ),
    (
        "tolerance-literal",
        "No bare 1e-N comparison literals outside named-constant definitions: numeric \
         tolerances are contracts (some are part of the disk-format key space) and live in \
         one auditable place.",
    ),
    (
        "env-registry",
        "Every REQISC_* environment-variable literal must be declared exactly once, with a \
         doc line, in the registry module (`env-registry` directive) — no undocumented \
         knobs.",
    ),
    (
        "sync-shim",
        "Inside `sync-shim-scope`, mutexes/condvars/atomics/spawns come from the \
         crate::sync / reqisc_sched shim, never raw std::sync or bare std::thread::spawn, \
         so `--features sched-model` can drive every sync site through the interleaving \
         explorer.",
    ),
    (
        "unsafe-audit",
        "`unsafe` is only permitted under the `unsafe-scope` directory prefixes (today: the \
         shmem mmap crate), and every production unsafe block/impl/fn needs an attached \
         `// SAFETY:` comment stating the invariant that makes it sound. Unsafe cannot \
         silently creep into the service or compiler crates.",
    ),
    (
        "publish-protocol",
        "Inside lint:protocol-begin(publish)/(probe) regions (the shmem segment's lock-free \
         paths): the commit word is stored with Release, the index handoff is a \
         compare_exchange after the commit with success ordering >= Release, no plain \
         mapping write follows the commit store, and probes Acquire before reading any \
         entry byte. Files declared `protocol-file` must carry both region kinds, so \
         deleting the markers is itself a violation.",
    ),
    (
        "blocking-in-critical-section",
        "A held-locks dataflow over the call graph: while a lock class marked \
         `non-blocking-lock` (the inflight map, the pipeline rings) is held, file/socket \
         I/O, waits on a different (or unmapped) condvar class, and `blocking-call` entry \
         points (solvers, bulk passes into the segment) are denied — directly or through any chain of \
         uniquely-resolved calls.",
    ),
];

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut deny_all = false;
    let mut update_registry = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => return usage("--root needs a directory"),
            },
            "--json" => json = true,
            "--deny-all" => deny_all = true,
            "--update-store-registry" => update_registry = true,
            "--explain" => {
                let Some(rule) = args.next() else {
                    return usage("--explain needs a rule id (or `all`)");
                };
                return explain(&rule);
            }
            "--help" | "-h" => {
                println!(
                    "reqisc-lint: workspace invariant analyzer\n\n\
                     USAGE: reqisc-lint [--root DIR] [--json] [--deny-all] [--update-store-registry]\n\
                     \x20                 [--explain RULE]\n\n\
                     Rules: store-format, lock-order, atomic-ordering, panic-path,\n\
                     tolerance-literal, env-registry, sync-shim, unsafe-audit,\n\
                     publish-protocol, blocking-in-critical-section. All deny by default;\n\
                     --deny-all additionally promotes any warn-level diagnostics.\n\n\
                     --explain RULE prints the rule's contract (`--explain all` for every\n\
                     rule).\n\n\
                     Suppress a finding with `// lint:allow(rule, reason)` on (or above)\n\
                     its line, or `// lint:allow-file(rule, reason)` anywhere in the file.\n\n\
                     --update-store-registry recomputes crates/lint/store_surface.lock\n\
                     from the live workspace; run it in the same commit that bumps\n\
                     STORE_FORMAT_VERSION."
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().expect("cwd");
            match reqisc_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("reqisc-lint: no workspace root found above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let cfg = match reqisc_lint::load_workspace_config(&root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("reqisc-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if update_registry {
        return match reqisc_lint::update_store_registry(&root, &cfg) {
            Ok(path) => {
                eprintln!("reqisc-lint: wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("reqisc-lint: {e}");
                ExitCode::from(2)
            }
        };
    }

    let outcome = match reqisc_lint::run(&root, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("reqisc-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let mut diags = outcome.diagnostics;
    if deny_all {
        for d in &mut diags {
            d.severity = reqisc_lint::Severity::Deny;
        }
    }

    if json {
        println!("[");
        for (i, d) in diags.iter().enumerate() {
            let comma = if i + 1 < diags.len() { "," } else { "" };
            println!("  {}{comma}", d.render_json());
        }
        println!("]");
    } else {
        for d in &diags {
            println!("{}", d.render());
        }
        eprintln!(
            "reqisc-lint: {} file(s), {} finding(s), {} suppressed",
            outcome.files_scanned,
            diags.len(),
            outcome.suppressed
        );
    }

    if diags.iter().any(|d| d.severity == reqisc_lint::Severity::Deny) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("reqisc-lint: {msg} (see --help)");
    ExitCode::from(2)
}

fn explain(rule: &str) -> ExitCode {
    if rule == "all" {
        for (id, text) in EXPLAIN {
            println!("{id}:\n  {}\n", rewrap(text));
        }
        return ExitCode::SUCCESS;
    }
    match EXPLAIN.iter().find(|(id, _)| *id == rule) {
        Some((id, text)) => {
            println!("{id}:\n  {}", rewrap(text));
            ExitCode::SUCCESS
        }
        None => {
            let ids: Vec<&str> = EXPLAIN.iter().map(|(id, _)| *id).collect();
            usage(&format!("unknown rule `{rule}`; known rules: {}", ids.join(", ")))
        }
    }
}

/// Rewraps a contract paragraph to ~76 columns under a two-space indent.
fn rewrap(text: &str) -> String {
    let mut out = String::new();
    let mut col = 0usize;
    for word in text.split_whitespace() {
        if col > 0 && col + 1 + word.len() > 76 {
            out.push_str("\n  ");
            col = 0;
        } else if col > 0 {
            out.push(' ');
            col += 1;
        }
        out.push_str(word);
        col += word.len();
    }
    out
}
