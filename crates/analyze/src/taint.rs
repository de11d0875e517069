//! Interprocedural determinism taint: the workspace's one determinism
//! pass.
//!
//! Byte-identical output at every thread count is a repo-level invariant,
//! and the cheapest way to lose it is an innocent-looking
//! `std::collections::HashMap` (SipHash with a random key — iteration
//! order changes per process) or an ad-hoc wall-clock read feeding a
//! decision. This pass scans `crates/{core,engine,ir,workloads}` for these
//! *sources*:
//!
//! | rule            | pattern                                | use instead                         |
//! |-----------------|----------------------------------------|-------------------------------------|
//! | `std-hash-map`  | `HashMap` / `HashSet`                  | `cnb_core::fxhash` maps             |
//! | `wall-clock`    | `Instant::now` / `SystemTime::now`     | timing paths, annotated             |
//! | `thread-id`     | `thread::current`                      | nothing — logic must not know       |
//! | `random-state`  | `RandomState`                          | `cnb_core::fxhash` hashers          |
//! | `std-env`       | `std::env::` reads                     | explicit configuration              |
//!
//! A needle marks its enclosing function as tainted, and taint flows
//! callee→caller over the [`crate::callgraph`] edges, so a helper that
//! launders `Instant::now()` is flagged at every caller too — with the full
//! call path in the finding. Matching runs on lexed code (see
//! [`crate::strip`]): comments, string and raw-string contents are removed
//! first, so prose about `HashMap` in docs or a needle inside `r#"…"#`
//! never false-positives, and code after a multi-line `/* */` close is
//! still scanned.
//!
//! **One suppression mechanism.** A line (or the standalone comment line
//! directly above it) may carry `// cnb-lint: allow(<rule>)` where the use
//! is sanctioned — the `fxhash` definition site, `WallClock::start`,
//! timings that never influence emitted plans, the `CNB_THREADS` and
//! `CNB_TRAIL_CHECK` reads. An annotated needle is a declared boundary: it
//! neither reports nor sources taint for its rule. An annotation that
//! suppresses nothing on its target line, or names an unknown rule, is
//! itself a finding (`stale-allow`, direct only), so sanctioned sites
//! cannot rot silently.
//!
//! The strict `serving-clock` tier is a reachability rule: wall-clock
//! needles in [`SERVING_CLOCK_FILES`] are flagged directly and **no
//! annotation suppresses them**, and any unannotated wall-clock taint that
//! reaches a function defined in the serving layer — through any helper
//! chain, in any file — is flagged at that serving function.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::callgraph::{build_graph, CallGraph};

/// The taint rules, in reporting order. The first five are needle-sourced
/// (see [`rule_needles`]); `serving-clock` derives from wall-clock sources
/// via reachability, and `stale-allow` audits the annotations.
pub const TAINT_RULES: [&str; 7] = [
    "std-hash-map",
    "wall-clock",
    "thread-id",
    "random-state",
    "std-env",
    "serving-clock",
    "stale-allow",
];

/// The rule name stale annotations are reported under.
const STALE_ALLOW: &str = "stale-allow";

/// Files whose functions form the serving layer — deadline decisions there
/// must flow through the injectable `cnb_engine::clock::Clock`. Matched by
/// suffix so both workspace-relative names and bare paths qualify.
pub const SERVING_CLOCK_FILES: [&str; 2] = [
    "crates/engine/src/serving.rs",
    "crates/engine/src/pressure.rs",
];

/// The crates the determinism contract covers. `cnb-bench` is excluded:
/// measuring wall time is its job. `cnb-analyze` itself never runs inside
/// the optimizer and is likewise out of scope.
const SCANNED_CRATES: [&str; 4] = [
    "crates/core",
    "crates/engine",
    "crates/ir",
    "crates/workloads",
];

/// True when `file` is part of the serving layer.
fn serving_scope(file: &str) -> bool {
    let norm = file.replace('\\', "/");
    SERVING_CLOCK_FILES
        .iter()
        .any(|f| norm == *f || norm.ends_with(&format!("/{f}")))
}

/// The needle set per source rule, in [`TAINT_RULES`] order. Built by
/// concatenation at runtime so this file never contains its own denied
/// patterns as literals (the scanner must stay self-clean if it is ever
/// pointed at itself).
fn rule_needles() -> [(&'static str, Vec<String>); 5] {
    let h = "Hash";
    let now = "::now";
    let sep = "::";
    [
        ("std-hash-map", vec![format!("{h}Map"), format!("{h}Set")]),
        (
            "wall-clock",
            vec![format!("Instant{now}"), format!("SystemTime{now}")],
        ),
        ("thread-id", vec![format!("thread{sep}current")]),
        ("random-state", vec![format!("Random{}", "State")]),
        ("std-env", vec![format!("std{sep}env{sep}")]),
    ]
}

/// True if `needle` occurs in `code` at an identifier boundary (the
/// preceding character is not alphanumeric or `_`, so `FxHashMap` does
/// not match the `HashMap` needle).
fn contains_token(code: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(i) = code[start..].find(needle) {
        let at = start + i;
        let boundary = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        if boundary {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// The rule names inside `cnb-lint: allow(...)` annotations in `comment`,
/// verbatim (validity is the caller's concern — stale-allow flags unknown
/// names).
fn allows_in(comment: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(i) = rest.find("cnb-lint: allow(") {
        let after = &rest[i + "cnb-lint: allow(".len()..];
        if let Some(end) = after.find(')') {
            out.push(after[..end].trim().to_string());
            rest = &after[end..];
        } else {
            break;
        }
    }
    out
}

/// Per-line allow context for a stripped file: `allowed[i]` is the set of
/// rule names suppressing findings on line `i+1` (same-line annotations
/// plus ones carried from a standalone comment line directly above).
fn allow_map(lines: &[crate::strip::StrippedLine]) -> Vec<Vec<String>> {
    let mut out = Vec::with_capacity(lines.len());
    let mut carried: Vec<String> = Vec::new();
    for l in lines {
        let mut here = allows_in(&l.comment);
        here.extend(carried.iter().cloned());
        out.push(here);
        carried = if l.code.trim().is_empty() {
            allows_in(&l.comment)
        } else {
            Vec::new()
        };
    }
    out
}

/// One taint finding: a function that contains — or transitively calls
/// into — an unsanctioned nondeterminism source, or a stale annotation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaintFinding {
    /// File of the flagged line.
    pub file: String,
    /// 1-based line: the needle (or annotation) line for direct findings,
    /// the function header for propagated findings.
    pub line: usize,
    /// Which of [`TAINT_RULES`] fired.
    pub rule: &'static str,
    /// Qualified name of the flagged function (`<file scope>` for lines
    /// outside any function).
    pub function: String,
    /// Call path from the flagged function down to the source function.
    pub path: Vec<String>,
    /// The flagged source line (direct) or the relaying call (propagated).
    pub snippet: String,
}

impl std::fmt::Display for TaintFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: tainted [{}] {}: {}",
            self.file,
            self.line,
            self.rule,
            self.path.join(" -> "),
            self.snippet
        )
    }
}

/// A needle occurrence, classified against the allow annotations.
struct Source {
    fn_idx: Option<usize>,
    file: String,
    line: usize,
    rule: &'static str,
    snippet: String,
    /// Suppressed by an allow annotation for its own rule.
    annotated: bool,
}

impl Source {
    /// The finding this source reports at its own line under `rule`.
    fn direct(&self, g: &CallGraph, rule: &'static str) -> TaintFinding {
        let f = self.fn_idx.map(|i| g.fns[i].qualified());
        TaintFinding {
            file: self.file.clone(),
            line: self.line,
            rule,
            function: f.clone().unwrap_or_else(|| "<file scope>".to_string()),
            path: f.into_iter().collect(),
            snippet: self.snippet.clone(),
        }
    }
}

/// The finding for function `fi`, tainted under `rule` through `chain`.
fn propagated(g: &CallGraph, rule: &'static str, fi: usize, chain: &[usize]) -> TaintFinding {
    let f = &g.fns[fi];
    TaintFinding {
        file: f.file.clone(),
        line: f.line,
        rule,
        function: f.qualified(),
        path: chain.iter().map(|&i| g.fns[i].qualified()).collect(),
        snippet: format!("calls {}", g.fns[chain[1]].qualified()),
    }
}

/// Runs the taint analysis over `(path, source)` file pairs — the
/// workspace in production, seeded corpora in tests. Each file is
/// stripped once, by [`build_graph`].
pub fn taint_files(files: &[(String, String)]) -> Vec<TaintFinding> {
    let g = build_graph(files);
    let needles = rule_needles();
    let mut sources: Vec<Source> = Vec::new();
    let mut out: Vec<TaintFinding> = Vec::new();
    for (path, content) in files {
        let stripped = &g.lines[path];
        let raws: Vec<&str> = content.lines().collect();
        let allowed = allow_map(stripped);
        let has = |idx: usize, ns: &[String]| {
            stripped
                .get(idx)
                .is_some_and(|l| ns.iter().any(|n| contains_token(&l.code, n)))
        };
        for (idx, l) in stripped.iter().enumerate() {
            let at = |rule, annotated| Source {
                fn_idx: g.enclosing(path, idx + 1),
                file: path.clone(),
                line: idx + 1,
                rule,
                snippet: raws
                    .get(idx)
                    .map(|s| s.trim())
                    .unwrap_or_default()
                    .to_string(),
                annotated,
            };
            for (rule, ns) in &needles {
                if has(idx, ns) {
                    sources.push(at(*rule, allowed[idx].iter().any(|a| a == rule)));
                }
            }
            // Every annotation must have a needle of its rule on the line
            // it targets: this one, or the next when this line is
            // comment-only.
            let target = idx + usize::from(l.code.trim().is_empty());
            for name in allows_in(&l.comment) {
                if !needles.iter().any(|(r, ns)| *r == name && has(target, ns)) {
                    out.push(at(STALE_ALLOW, false).direct(&g, STALE_ALLOW));
                }
            }
        }
    }

    let callers = g.callers();

    // Needle-sourced rules: unannotated sources flag their own line and
    // propagate to every transitive caller.
    for (rule, _) in &needles {
        let roots: Vec<&Source> = sources
            .iter()
            .filter(|s| s.rule == *rule && !s.annotated)
            .collect();
        out.extend(roots.iter().map(|s| s.direct(&g, rule)));
        for (fi, chain) in propagate(&g, &callers, roots.iter().filter_map(|s| s.fn_idx)) {
            out.push(propagated(&g, rule, fi, &chain));
        }
    }

    // serving-clock: every wall-clock needle in a serving file is flagged
    // directly, annotated or not, and unannotated wall-clock taint
    // reaching a serving-layer function is flagged at that function.
    let clock: Vec<&Source> = sources.iter().filter(|s| s.rule == "wall-clock").collect();
    out.extend(
        clock
            .iter()
            .filter(|s| serving_scope(&s.file))
            .map(|s| s.direct(&g, "serving-clock")),
    );
    let clock_roots = clock
        .iter()
        .filter(|s| !s.annotated)
        .filter_map(|s| s.fn_idx);
    for (fi, chain) in propagate(&g, &callers, clock_roots) {
        if serving_scope(&g.fns[fi].file) {
            out.push(propagated(&g, "serving-clock", fi, &chain));
        }
    }

    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, rule_rank(a.rule)).cmp(&(
            b.file.as_str(),
            b.line,
            rule_rank(b.rule),
        ))
    });
    out.dedup();
    out
}

fn rule_rank(rule: &str) -> usize {
    TAINT_RULES
        .iter()
        .position(|r| *r == rule)
        .unwrap_or(usize::MAX)
}

/// BFS callee→caller from `roots`; returns each newly tainted function
/// with its (shortest, first-found) chain down to a root.
fn propagate(
    g: &CallGraph,
    callers: &[Vec<usize>],
    roots: impl Iterator<Item = usize>,
) -> Vec<(usize, Vec<usize>)> {
    let mut chain: Vec<Option<Vec<usize>>> = vec![None; g.fns.len()];
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for r in roots {
        if chain[r].is_none() {
            chain[r] = Some(vec![r]);
            queue.push_back(r);
        }
    }
    let mut out = Vec::new();
    while let Some(cur) = queue.pop_front() {
        let mut cs = callers[cur].clone();
        cs.sort_unstable();
        for caller in cs {
            if chain[caller].is_some() {
                continue;
            }
            let mut c = vec![caller];
            c.extend(chain[cur].as_ref().expect("visited").iter().copied());
            chain[caller] = Some(c.clone());
            out.push((caller, c));
            queue.push_back(caller);
        }
    }
    out.sort_by_key(|(i, _)| (g.fns[*i].file.clone(), g.fns[*i].line));
    out
}

/// Recursively collects `.rs` files under `dir`, sorted for deterministic
/// reporting.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            // `target/` never appears under crate source dirs, but guard
            // anyway — stale build output must not produce findings.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Reads every determinism-covered source file under the workspace root
/// (the directory containing `crates/`) as `(relative path, content)`
/// pairs, sorted. Missing crate directories are an error: a silently
/// skipped crate would read as clean.
fn workspace_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for rel in SCANNED_CRATES {
        let dir = root.join(rel);
        if !dir.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} not found under {}", rel, root.display()),
            ));
        }
        rust_files(&dir, &mut files)?;
    }
    files
        .into_iter()
        .map(|f| {
            let content = fs::read_to_string(&f)?;
            let name = f
                .strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .replace('\\', "/");
            Ok((name, content))
        })
        .collect()
}

/// Runs the taint analysis over the determinism-covered crates beneath
/// `root` (the directory containing `crates/`).
pub fn taint_workspace(root: &Path) -> io::Result<Vec<TaintFinding>> {
    Ok(taint_files(&workspace_files(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock_needle() -> String {
        format!("Instant{}now()", "::")
    }

    /// Builds a line containing a source needle without this test file
    /// itself containing it.
    fn seeded(rule: &str) -> String {
        match rule {
            "std-hash-map" => format!("    let m: {}Map<u32, u32> = Default::default();", "Hash"),
            "wall-clock" => format!("    let t0 = {};", clock_needle()),
            "thread-id" => format!("    let id = thread{}current().id();", "::"),
            "random-state" => format!("    let s = Random{}::new();", "State"),
            "std-env" => format!("    let v = std{}env{}var(\"X\");", "::", "::"),
            _ => unreachable!(),
        }
    }

    fn run(files: &[(&str, String)]) -> Vec<TaintFinding> {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.clone()))
            .collect();
        taint_files(&owned)
    }

    fn run_one(src: &str) -> Vec<TaintFinding> {
        run(&[("seed.rs", src.to_string())])
    }

    #[test]
    fn every_rule_fires_on_a_seeded_violation() {
        for (rule, _) in rule_needles() {
            let src = format!("fn f() {{\n{}\n}}\n", seeded(rule));
            let found = run_one(&src);
            assert_eq!(found.len(), 1, "{rule}: {found:?}");
            assert_eq!(found[0].rule, rule);
            assert_eq!(found[0].line, 2);
            assert_eq!(found[0].function, "f");
        }
    }

    #[test]
    fn hash_set_variant_fires_too() {
        let found = run_one(&format!("use std::collections::{}Set;\n", "Hash"));
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "std-hash-map");
        assert_eq!(found[0].function, "<file scope>");
    }

    #[test]
    fn fx_aliases_do_not_fire() {
        let src = format!(
            "use cnb_core::fxhash::{{Fx{h}Map, Fx{h}Set}};\nfn f() {{\n    let m: Fx{h}Map<u8, u8> = Fx{h}Map::default();\n}}\n",
            h = "Hash"
        );
        assert!(run_one(&src).is_empty());
    }

    #[test]
    fn comments_are_stripped() {
        let src = format!("// std {}Map is denied in prose too? no.\n", "Hash");
        assert!(run_one(&src).is_empty());
    }

    #[test]
    fn needles_inside_raw_strings_do_not_fire() {
        let src = format!("let doc = r#\"call {} here\"#;\n", clock_needle());
        assert!(run_one(&src).is_empty(), "{src}");
    }

    #[test]
    fn needles_inside_block_comments_do_not_fire_but_code_after_does() {
        let n = seeded("wall-clock");
        let src = format!(
            "/* {} spans\nlines {} */ {}\n",
            n.trim(),
            n.trim(),
            n.trim()
        );
        let found = run_one(&src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 2, "only the code after */ fires");
    }

    #[test]
    fn same_line_allow_suppresses() {
        let src = format!(
            "{} // cnb-lint: allow(std-hash-map)\n",
            seeded("std-hash-map")
        );
        assert!(run_one(&src).is_empty());
    }

    #[test]
    fn preceding_comment_line_allow_suppresses() {
        let src = format!("// cnb-lint: allow(wall-clock)\n{}\n", seeded("wall-clock"));
        assert!(run_one(&src).is_empty());
    }

    #[test]
    fn allow_does_not_leak_past_one_line() {
        let src = format!(
            "// cnb-lint: allow(wall-clock)\n{}\n{}\n",
            seeded("wall-clock"),
            seeded("wall-clock")
        );
        let found = run_one(&src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn allow_of_wrong_rule_does_not_suppress_and_is_stale() {
        let src = format!(
            "{} // cnb-lint: allow(wall-clock)\n",
            seeded("std-hash-map")
        );
        let found = run_one(&src);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().any(|v| v.rule == "std-hash-map"));
        assert!(found.iter().any(|v| v.rule == STALE_ALLOW));
    }

    #[test]
    fn allow_suppressing_nothing_is_stale() {
        let found = run_one("let a = 1; // cnb-lint: allow(wall-clock)\n");
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, STALE_ALLOW);
        assert_eq!(found[0].line, 1);
    }

    #[test]
    fn standalone_allow_over_a_clean_line_is_stale() {
        let found = run_one("// cnb-lint: allow(std-hash-map)\nlet a = 1;\n");
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, STALE_ALLOW);
        assert_eq!(found[0].line, 1, "reported at the annotation");
    }

    #[test]
    fn allow_of_unknown_rule_is_stale() {
        let found = run_one("let a = 1; // cnb-lint: allow(no-such-rule)\n");
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, STALE_ALLOW);
    }

    #[test]
    fn live_allows_are_not_stale() {
        // Same-line and carried forms, both with real needles.
        let src = format!(
            "{} // cnb-lint: allow(std-hash-map)\n// cnb-lint: allow(wall-clock)\n{}\n",
            seeded("std-hash-map"),
            seeded("wall-clock")
        );
        assert!(run_one(&src).is_empty());
    }

    #[test]
    fn taint_rule_allows_validate_against_their_needles() {
        // A `std-env` allow is live when its needle is present — and stale
        // when not.
        let live = format!("{} // cnb-lint: allow(std-env)\n", seeded("std-env"));
        assert!(run_one(&live).is_empty());
        let found = run_one("let v = 1; // cnb-lint: allow(std-env)\n");
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, STALE_ALLOW);
    }

    #[test]
    fn violation_display_is_greppable() {
        let found = run(&[(
            "x.rs",
            format!("fn f() {{ {} }}\n", seeded("thread-id").trim()),
        )]);
        let shown = found[0].to_string();
        assert!(shown.contains("x.rs:1"), "{shown}");
        assert!(shown.contains("thread-id"), "{shown}");
    }

    #[test]
    fn direct_source_flags_needle_and_function() {
        let src = format!("fn hot() {{\n    let t = {};\n}}\n", clock_needle());
        let found = run(&[("a.rs", src)]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "wall-clock");
        assert_eq!(found[0].line, 2);
        assert_eq!(found[0].function, "hot");
    }

    #[test]
    fn taint_propagates_through_one_helper() {
        let src = format!(
            "fn helper() -> u64 {{\n    let t = {};\n    0\n}}\nfn caller() {{\n    let x = helper();\n}}\n",
            clock_needle()
        );
        let found = run(&[("a.rs", src)]);
        // Needle finding at line 2 + propagated finding at `caller`.
        assert_eq!(found.len(), 2, "{found:?}");
        let prop = found
            .iter()
            .find(|f| f.function == "caller")
            .expect("caller flagged");
        assert_eq!(prop.rule, "wall-clock");
        assert_eq!(prop.path, vec!["caller", "helper"]);
        assert_eq!(prop.snippet, "calls helper");
    }

    #[test]
    fn annotated_needles_do_not_source_taint() {
        let src = format!(
            "fn timed() {{\n    let t = {}; // cnb-lint: allow(wall-clock)\n}}\nfn caller() {{\n    timed();\n}}\n",
            clock_needle()
        );
        assert!(run(&[("a.rs", src)]).is_empty());
    }

    #[test]
    fn sinks_absorb_instead_of_relaying() {
        // An annotated `WallClock::start` may read the clock; its caller
        // stays clean. The same origin without the annotation relays.
        let clock = |note: &str| {
            format!(
                "impl WallClock {{\n    fn start() -> Self {{\n        let t = {};{note}\n        WallClock\n    }}\n}}\nfn boot() {{\n    let c = WallClock::start();\n}}\n",
                clock_needle()
            )
        };
        assert!(run(&[("clock.rs", clock(" // cnb-lint: allow(wall-clock)"))]).is_empty());
        let found = run(&[("clock.rs", clock(""))]);
        assert!(found.iter().any(|f| f.function == "boot"), "{found:?}");
    }

    #[test]
    fn env_reads_outside_declared_sinks_are_flagged() {
        let env = format!("std{}env{}var(\"X\")", "::", "::");
        let read = |note: &str| {
            format!("pub fn resolve_threads(n: usize) -> usize {{\n    let e = {env};{note}\n    n\n}}\n")
        };
        let found = run(&[("crates/core/src/parallel.rs", read(""))]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "std-env");
        // …while the annotated read is a declared boundary.
        let ok = read(" // cnb-lint: allow(std-env)");
        assert!(run(&[("crates/core/src/parallel.rs", ok)]).is_empty());
    }

    #[test]
    fn serving_clock_flags_direct_needles_despite_annotation() {
        let src = format!(
            "fn serve() {{\n    let t = {}; // cnb-lint: allow(wall-clock)\n}}\n",
            clock_needle()
        );
        let found = run(&[("crates/engine/src/serving.rs", src)]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "serving-clock");
        assert_eq!(found[0].line, 2);
    }

    #[test]
    fn serving_clock_reaches_through_helpers_in_other_files() {
        let helper = format!(
            "pub fn sneak() -> u64 {{\n    let t = {};\n    1\n}}\n",
            clock_needle()
        );
        let serving = "fn admit() {\n    let d = sneak();\n}\n".to_string();
        let found = run(&[
            ("crates/core/src/util.rs", helper),
            ("crates/engine/src/serving.rs", serving),
        ]);
        let sc: Vec<_> = found.iter().filter(|f| f.rule == "serving-clock").collect();
        assert_eq!(sc.len(), 1, "{found:?}");
        assert_eq!(sc[0].function, "admit");
        assert_eq!(sc[0].path, vec!["admit", "sneak"]);
        // The helper itself is also a plain wall-clock finding.
        assert!(found
            .iter()
            .any(|f| f.rule == "wall-clock" && f.function == "sneak"));
    }

    #[test]
    fn random_state_maps_are_flagged() {
        let src = format!("fn build() {{\n{}\n}}\n", seeded("random-state"));
        let found = run(&[("a.rs", src)]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "random-state");
    }

    #[test]
    fn findings_are_deterministically_ordered() {
        let src = format!(
            "fn helper() {{\n    let t = {};\n}}\nfn a() {{\n    helper();\n}}\nfn b() {{\n    helper();\n}}\n",
            clock_needle()
        );
        let f1 = run(&[("a.rs", src.clone())]);
        let f2 = run(&[("a.rs", src)]);
        assert_eq!(f1, f2);
        assert_eq!(f1.len(), 3, "{f1:?}");
        let lines: Vec<usize> = f1.iter().map(|f| f.line).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }
}
