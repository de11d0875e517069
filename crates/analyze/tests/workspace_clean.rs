//! Pins the repo's own cleanliness: the interprocedural determinism taint
//! analysis, run over this workspace's real sources, finds nothing. If a
//! `std::collections` HashMap, an unannotated wall-clock or environment
//! read, a stale allow-annotation, or a helper that launders
//! nondeterminism into the serving layer ever lands in
//! `crates/{core,engine,ir,workloads}`, this test is the tier that says so.

use std::path::Path;

use cnb_analyze::taint::{taint_workspace, TAINT_RULES};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
}

#[test]
fn determinism_lint_is_clean_on_this_workspace() {
    // The line-level half of the pass (what the per-line lint checked):
    // no direct needle hit for the former lint rules and no stale allow.
    // Direct findings carry at most the enclosing function as their path;
    // propagated ones carry a call chain.
    let rules = ["std-hash-map", "wall-clock", "thread-id", "stale-allow"];
    for rule in rules {
        assert!(
            TAINT_RULES.contains(&rule),
            "rule {rule} is no longer checked"
        );
    }
    let direct: Vec<_> = taint_workspace(workspace_root())
        .expect("scan the workspace")
        .into_iter()
        .filter(|f| f.path.len() <= 1 && rules.contains(&f.rule))
        .collect();
    assert!(
        direct.is_empty(),
        "determinism lint found violations:\n{}",
        direct
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn determinism_taint_is_clean_on_this_workspace() {
    // Zero findings: every sanctioned site carries a live line-scoped
    // allow comment, and no other suppression exists.
    let findings = taint_workspace(workspace_root()).expect("scan the workspace");
    assert!(
        findings.is_empty(),
        "determinism taint found:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn missing_crate_directory_is_an_error_not_a_clean_pass() {
    let err = taint_workspace(Path::new("/nonexistent-cnb-root")).unwrap_err();
    assert!(err.to_string().contains("not found"), "{err}");
}
