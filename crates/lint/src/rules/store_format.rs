//! **store-format**: the shared segment's codec surface must not change
//! without a `STORE_FORMAT_VERSION` bump.
//!
//! The surface is: whole-file normalized token streams (`surface-file`),
//! `lint:store-surface-begin/end` regions (`surface-region`), and the
//! literal values of registered constants (`surface-const` — the KAK
//! face-snap tolerance, whose value decides the durations persisted in
//! segment reply records). All fingerprints live in a committed registry
//! keyed by the version. The rule compares the live workspace's entries
//! against the registry (a registry line no live entry names is not
//! compared):
//!
//! * live version ≠ registry version → the registry is stale: regenerate
//!   it (`--update-store-registry`) as part of the bump commit;
//! * versions equal but a fingerprint/constant differs → the codec
//!   surface changed **without** a version bump — exactly the silent
//!   corruption this rule exists to stop.

use crate::config::Config;
use crate::{compute_registry, Diagnostic, StoreRegistry, Workspace};

/// Rule id.
pub const RULE: &str = "store-format";

/// Runs the rule. Returns `Err` only for setup problems (missing
/// registry file, malformed config) that should abort the run loudly.
pub fn check(ws: &Workspace, cfg: &Config, out: &mut Vec<Diagnostic>) -> Result<(), String> {
    let Some(reg_rel) = cfg.registry_file.as_ref() else {
        return Ok(()); // rule not configured (fixture workspaces)
    };
    let reg_path = ws.root.join(reg_rel);
    let text = std::fs::read_to_string(&reg_path).map_err(|e| {
        format!(
            "store-format: cannot read registry {}: {e} (run --update-store-registry once)",
            reg_path.display()
        )
    })?;
    let committed = StoreRegistry::parse(&text)?;
    let live = compute_registry(ws, cfg)?;

    let (vfile, vname) = cfg.version_const.as_ref().expect("compute_registry checked this");
    if live.version != committed.version {
        out.push(Diagnostic::deny(
            RULE,
            vfile,
            line_of_const(ws, vfile, vname),
            format!(
                "{vname} is {} but the committed registry ({reg_rel}) records {}; \
                 regenerate it with `cargo run -p reqisc-lint -- --update-store-registry` \
                 and commit both in the version-bump change",
                live.version, committed.version
            ),
        ));
        // Version mismatch explains every downstream fingerprint delta;
        // don't pile on.
        return Ok(());
    }

    for (path, fp) in &live.surfaces {
        match committed.surfaces.get(path) {
            Some(c) if c == fp => {}
            Some(_) => out.push(mismatch(ws, path, vname)),
            None => out.push(Diagnostic::deny(
                RULE,
                path,
                1,
                format!("file is a declared codec surface but {reg_rel} has no entry for it; \
                         bump {vname} and regenerate the registry"),
            )),
        }
    }
    for (path, fp) in &live.regions {
        match committed.regions.get(path) {
            Some(c) if c == fp => {}
            Some(_) => out.push(mismatch(ws, path, vname)),
            None => out.push(Diagnostic::deny(
                RULE,
                path,
                1,
                format!("marked store-surface region has no entry in {reg_rel}; \
                         bump {vname} and regenerate the registry"),
            )),
        }
    }
    for (key, val) in &live.consts {
        let (path, name) = key.split_once("::").unwrap_or((key.as_str(), ""));
        match committed.consts.get(key) {
            Some(c) if c == val => {}
            Some(c) => out.push(Diagnostic::deny(
                RULE,
                path,
                line_of_const(ws, path, name),
                format!(
                    "{name} changed from {c} to {val}: this constant decides which cache \
                     entries collide on disk, so existing stores silently return stale \
                     results; bump {vname} and regenerate the registry"
                ),
            )),
            None => out.push(Diagnostic::deny(
                RULE,
                path,
                line_of_const(ws, path, name),
                format!("{name} is a declared surface constant but has no registry entry; \
                         regenerate the registry"),
            )),
        }
    }
    Ok(())
}

fn mismatch(ws: &Workspace, path: &str, vname: &str) -> Diagnostic {
    let _ = ws;
    Diagnostic::deny(
        RULE,
        path,
        1,
        format!(
            "codec surface changed without a {vname} bump: on-disk stores written by \
             the previous build would be mis-decoded by this one; bump the version \
             (readers then reject old stores cleanly) and regenerate the registry"
        ),
    )
}

fn line_of_const(ws: &Workspace, path: &str, name: &str) -> u32 {
    ws.file(path)
        .and_then(|f| {
            f.tokens.windows(2).find_map(|w| {
                (w[0].text == "const" && w[1].text == name).then_some(w[0].line)
            })
        })
        .unwrap_or(1)
}
