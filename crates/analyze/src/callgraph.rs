//! A workspace call graph scraped from source text — no rustc, offline.
//!
//! The taint analysis needs to know *which function* a nondeterminism
//! needle sits in and *who calls that function*, so a hazard reached
//! through a helper is flagged at the call site too. Full name resolution
//! needs the compiler; this module settles for a deliberately conservative
//! approximation that is cheap, dependency-free, and deterministic:
//!
//! - **Functions** are found by scanning stripped code (see [`crate::strip`])
//!   for `fn name` headers; bodies are delimited by brace matching, and an
//!   enclosing `impl Owner` block (tracked the same way) qualifies the
//!   function as `Owner::name`.
//! - **Call edges** are `name(` occurrences inside a body, resolved by
//!   shape: bare `name(` to free functions of that name, `.name(` to any
//!   impl method of that name (receiver types are unknown — over-approximate
//!   across owners), `Seg::name(` to methods of `Seg` when `Seg` is a type
//!   name (else to free functions), and `Self::name(` to the enclosing
//!   impl's methods. Macro invocations (`name!(`) and bare uppercase idents
//!   (tuple-struct constructors) are skipped.
//!
//! Over-approximation (e.g. `.len(` pointing at every `len` method) only
//! makes taint *more* eager, never lets it escape — acceptable for a deny
//! pass whose sanctioned sites are annotated. Turbofish call sites are edges too: a
//! fn-side turbofish (`name::<T>(`) is skipped between the name and the
//! argument list, and a type-side turbofish (`Type::<T>::method(`) is
//! walked back over so the prefix resolves to `Type`.

use cnb_ir::prelude::{FxHashMap, FxHashSet};

use crate::strip::{strip_source, StrippedLine};

/// One scraped function.
#[derive(Clone, Debug)]
pub struct FnInfo {
    /// File the function lives in (workspace-relative path).
    pub file: String,
    /// `impl` owner type, if the fn sits in an impl block.
    pub owner: Option<String>,
    /// Bare function name.
    pub name: String,
    /// 1-based line of the `fn` header.
    pub line: usize,
    /// 1-based body line span (inclusive), header included.
    pub span: (usize, usize),
}

impl FnInfo {
    /// `Owner::name` or `name` — the label findings display.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The scraped workspace: functions, their stripped bodies, and call
/// edges between them (indices into `fns`).
pub struct CallGraph {
    /// Every scraped function, in (file, line) order.
    pub fns: Vec<FnInfo>,
    /// Stripped lines per file, keyed by path — the taint pass scans these
    /// for needles so it never re-strips.
    pub lines: FxHashMap<String, Vec<StrippedLine>>,
    /// `edges[i]` = callee indices of `fns[i]`, sorted, deduped.
    pub edges: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Index of the innermost function containing `file:line`, if any.
    pub fn enclosing(&self, file: &str, line: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == file && f.span.0 <= line && line <= f.span.1)
            .max_by_key(|(_, f)| f.span.0)
            .map(|(i, _)| i)
    }

    /// Reverse edges: `callers[i]` = indices of functions calling `fns[i]`.
    pub fn callers(&self) -> Vec<Vec<usize>> {
        let mut rev = vec![Vec::new(); self.fns.len()];
        for (caller, callees) in self.edges.iter().enumerate() {
            for &c in callees {
                rev[c].push(caller);
            }
        }
        rev
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Scans one stripped code line for `word(`-shaped call sites, returning
/// `(prefix, name)` where `prefix` is the token right before the name:
/// `"."`, `"Seg"` (path segment), or `""` (bare).
fn call_sites(code: &str) -> Vec<(String, String)> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        if !is_ident_char(chars[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < chars.len() && is_ident_char(chars[i]) {
            i += 1;
        }
        let word: String = chars[start..i].iter().collect();
        // Skip whitespace to find the next significant char.
        let mut j = i;
        while j < chars.len() && chars[j] == ' ' {
            j += 1;
        }
        // A fn-side turbofish (`name::<T>(`) sits between the name and the
        // argument list — skip the balanced `::<…>` so the `(` check below
        // still sees the call. `->`/`=>` inside the generics (fn-pointer
        // types, rare const closures) are arrows, not angle closes.
        if chars.get(j) == Some(&':') && chars.get(j + 1) == Some(&':') {
            let mut m = j + 2;
            while m < chars.len() && chars[m] == ' ' {
                m += 1;
            }
            if chars.get(m) == Some(&'<') {
                let mut depth = 0i32;
                while m < chars.len() {
                    match chars[m] {
                        '<' => depth += 1,
                        '>' if m > 0 && (chars[m - 1] == '-' || chars[m - 1] == '=') => {}
                        '>' => {
                            depth -= 1;
                            if depth == 0 {
                                m += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    m += 1;
                }
                if depth == 0 {
                    while m < chars.len() && chars[m] == ' ' {
                        m += 1;
                    }
                    j = m;
                }
            }
        }
        if chars.get(j) != Some(&'(') || word.chars().next().is_none_or(|c| c.is_ascii_digit()) {
            continue;
        }
        // Macro invocation? The char right after the name is `!`.
        if chars.get(i) == Some(&'!') {
            continue;
        }
        // Classify the token before `start`.
        let mut k = start;
        let prefix = if k >= 1 && chars[k - 1] == '.' {
            ".".to_string()
        } else if k >= 2 && chars[k - 1] == ':' && chars[k - 2] == ':' {
            k -= 2;
            // A type-side turbofish (`Type::<T>::method(`) puts `>` right
            // before the `::` — walk back over the balanced angles and the
            // second `::` to reach the type segment.
            if k >= 1 && chars[k - 1] == '>' {
                let mut depth = 0i32;
                let mut m = k;
                while m > 0 {
                    m -= 1;
                    match chars[m] {
                        '>' if m > 0 && (chars[m - 1] == '-' || chars[m - 1] == '=') => m -= 1,
                        '>' => depth += 1,
                        '<' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                if depth == 0 && m >= 2 && chars[m - 1] == ':' && chars[m - 2] == ':' {
                    k = m - 2;
                }
            }
            let seg_end = k;
            while k > 0 && is_ident_char(chars[k - 1]) {
                k -= 1;
            }
            chars[k..seg_end].iter().collect()
        } else {
            String::new()
        };
        out.push((prefix, word));
    }
    out
}

/// Extracts functions (with impl owners and brace-matched spans) from one
/// file's stripped lines.
fn scrape_fns(file: &str, lines: &[StrippedLine]) -> Vec<FnInfo> {
    // Flatten to a char stream with line positions so brace matching can
    // cross lines.
    let mut fns = Vec::new();
    let mut stream: Vec<(char, usize)> = Vec::new();
    for (ln, l) in lines.iter().enumerate() {
        for c in l.code.chars() {
            stream.push((c, ln + 1));
        }
        stream.push(('\n', ln + 1));
    }
    let text: String = stream.iter().map(|(c, _)| *c).collect();
    let bytes: Vec<char> = text.chars().collect();

    // Walk for `impl` and `fn` keywords; maintain a stack of open braces
    // annotated with what they open.
    enum Open {
        Impl(String),
        Fn(usize), // index into fns
        Other,
    }
    enum Pending {
        Impl(String),
        // Header scraped; the record is created only when `{` arrives, so
        // body-less trait signatures (killed by `;`) never register.
        Fn(FnInfo),
    }
    let mut stack: Vec<Open> = Vec::new();
    // Pending header seen but its `{` not yet reached.
    let mut pending: Option<Pending> = None;
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        if is_ident_char(c) {
            let start = i;
            while i < bytes.len() && is_ident_char(bytes[i]) {
                i += 1;
            }
            let word: String = bytes[start..i].iter().collect();
            let before = if start == 0 {
                None
            } else {
                Some(bytes[start - 1])
            };
            if word == "impl" && !ident_like_char(before) {
                // Owner = last path-segment ident before `{` or `for`..`{`.
                let (owner, _end) = impl_owner(&bytes, i);
                pending = Some(Pending::Impl(owner));
            } else if word == "trait" && !ident_like_char(before) {
                // Default-bodied trait methods are `.call(`-reachable;
                // own them under the trait's name.
                let mut j = i;
                while j < bytes.len() && !is_ident_char(bytes[j]) && bytes[j] != '{' {
                    j += 1;
                }
                let s = j;
                while j < bytes.len() && is_ident_char(bytes[j]) {
                    j += 1;
                }
                pending = Some(Pending::Impl(bytes[s..j].iter().collect()));
                i = j;
            } else if word == "fn" && !ident_like_char(before) {
                // Name = next ident.
                let mut j = i;
                while j < bytes.len() && !is_ident_char(bytes[j]) && bytes[j] != '{' {
                    j += 1;
                }
                let nstart = j;
                while j < bytes.len() && is_ident_char(bytes[j]) {
                    j += 1;
                }
                if j > nstart {
                    let name: String = bytes[nstart..j].iter().collect();
                    let line = stream[start].1;
                    let owner = stack.iter().rev().find_map(|o| match o {
                        Open::Impl(n) => Some(n.clone()),
                        _ => None,
                    });
                    pending = Some(Pending::Fn(FnInfo {
                        file: file.to_string(),
                        owner,
                        name,
                        line,
                        span: (line, line), // closed when the brace pops
                    }));
                    i = j;
                }
            }
            continue;
        }
        match c {
            '{' => {
                stack.push(match pending.take() {
                    Some(Pending::Impl(owner)) => Open::Impl(owner),
                    Some(Pending::Fn(info)) => {
                        fns.push(info);
                        Open::Fn(fns.len() - 1)
                    }
                    None => Open::Other,
                });
            }
            '}' => {
                if let Some(Open::Fn(idx)) = stack.pop() {
                    fns[idx].span.1 = stream[i.min(stream.len() - 1)].1;
                }
            }
            ';' => {
                // A trait-method signature or extern decl: drop the header.
                pending = None;
            }
            _ => {}
        }
        i += 1;
    }
    fns
}

fn ident_like_char(c: Option<char>) -> bool {
    matches!(c, Some(ch) if ch.is_alphanumeric() || ch == '_')
}

/// From the text after `impl`, find the implemented type's name: the last
/// `::`-free path segment before the opening `{`, preferring the segment
/// after `for` when present (`impl Trait for Type`).
fn impl_owner(bytes: &[char], from: usize) -> (String, usize) {
    let mut i = from;
    let mut idents: Vec<String> = Vec::new();
    let mut after_for = false;
    let mut owner_from_for: Option<String> = None;
    let mut depth = 0i32; // generic angle depth, coarse
    while i < bytes.len() && (bytes[i] != '{' || depth > 0) {
        let c = bytes[i];
        if c == '<' {
            depth += 1;
            i += 1;
        } else if c == '>' {
            depth -= 1;
            i += 1;
        } else if is_ident_char(c) {
            let s = i;
            while i < bytes.len() && is_ident_char(bytes[i]) {
                i += 1;
            }
            let w: String = bytes[s..i].iter().collect();
            if w == "for" && depth == 0 {
                after_for = true;
            } else if depth == 0 {
                if after_for && owner_from_for.is_none() {
                    owner_from_for = Some(w.clone());
                }
                idents.push(w);
            }
        } else if c == ';' {
            return (String::new(), i);
        } else {
            i += 1;
        }
    }
    let owner = owner_from_for
        .or_else(|| idents.last().cloned())
        .unwrap_or_default();
    (owner, i)
}

/// Builds the call graph over `(path, source)` file pairs. Paths are kept
/// verbatim in findings; pass workspace-relative ones.
pub fn build_graph(files: &[(String, String)]) -> CallGraph {
    let mut fns = Vec::new();
    let mut lines = FxHashMap::default();
    for (path, src) in files {
        let stripped = strip_source(src);
        fns.extend(scrape_fns(path, &stripped));
        lines.insert(path.clone(), stripped);
    }
    fns.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));

    // Name indexes for resolution.
    let mut free: FxHashMap<&str, Vec<usize>> = FxHashMap::default();
    let mut methods: FxHashMap<&str, Vec<usize>> = FxHashMap::default();
    let mut owned: FxHashMap<(&str, &str), Vec<usize>> = FxHashMap::default();
    for (i, f) in fns.iter().enumerate() {
        match &f.owner {
            None => free.entry(f.name.as_str()).or_default().push(i),
            Some(o) => {
                methods.entry(f.name.as_str()).or_default().push(i);
                owned
                    .entry((o.as_str(), f.name.as_str()))
                    .or_default()
                    .push(i);
            }
        }
    }

    let mut edges: Vec<FxHashSet<usize>> = vec![FxHashSet::default(); fns.len()];
    for (i, f) in fns.iter().enumerate() {
        let Some(stripped) = lines.get(&f.file) else {
            continue;
        };
        for ln in f.span.0..=f.span.1.min(stripped.len()) {
            for (prefix, name) in call_sites(&stripped[ln - 1].code) {
                let targets: Vec<usize> = if prefix == "." {
                    methods.get(name.as_str()).cloned().unwrap_or_default()
                } else if prefix.is_empty() {
                    // Bare uppercase idents are tuple-struct constructors.
                    if name.chars().next().is_some_and(|c| c.is_uppercase()) {
                        Vec::new()
                    } else {
                        free.get(name.as_str()).cloned().unwrap_or_default()
                    }
                } else if prefix == "Self" {
                    match &f.owner {
                        Some(o) => owned
                            .get(&(o.as_str(), name.as_str()))
                            .cloned()
                            .unwrap_or_default(),
                        None => Vec::new(),
                    }
                } else if prefix.chars().next().is_some_and(|c| c.is_uppercase()) {
                    owned
                        .get(&(prefix.as_str(), name.as_str()))
                        .cloned()
                        .unwrap_or_default()
                } else {
                    // `module::helper(` — resolve by free-fn name.
                    free.get(name.as_str()).cloned().unwrap_or_default()
                };
                for t in targets {
                    if t != i {
                        edges[i].insert(t);
                    }
                }
            }
        }
    }
    let edges = edges
        .into_iter()
        .map(|s| {
            let mut v: Vec<usize> = s.into_iter().collect();
            v.sort_unstable();
            v
        })
        .collect();
    CallGraph { fns, lines, edges }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(src: &str) -> CallGraph {
        build_graph(&[("lib.rs".to_string(), src.to_string())])
    }

    fn idx(g: &CallGraph, q: &str) -> usize {
        g.fns
            .iter()
            .position(|f| f.qualified() == q)
            .unwrap_or_else(|| panic!("no fn {q} in {:?}", g.fns))
    }

    #[test]
    fn free_functions_and_spans_are_scraped() {
        let g = graph_of("fn a() {\n    b();\n}\n\nfn b() {}\n");
        assert_eq!(g.fns.len(), 2);
        let a = idx(&g, "a");
        assert_eq!(g.fns[a].span, (1, 3));
        assert_eq!(g.edges[a], vec![idx(&g, "b")]);
    }

    #[test]
    fn impl_methods_get_owners_and_self_resolves() {
        let src = "struct S;\nimpl S {\n    fn new() -> S {\n        Self::seed();\n        S\n    }\n    fn seed() {}\n}\n";
        let g = graph_of(src);
        let new = idx(&g, "S::new");
        assert_eq!(g.edges[new], vec![idx(&g, "S::seed")]);
    }

    #[test]
    fn trait_impl_owner_is_the_implementing_type() {
        let src = "impl Default for W {\n    fn default() -> W { W::start() }\n}\nimpl W {\n    fn start() -> W { W }\n}\n";
        let g = graph_of(src);
        let d = idx(&g, "W::default");
        assert_eq!(g.edges[d], vec![idx(&g, "W::start")]);
    }

    #[test]
    fn dot_calls_over_approximate_across_owners() {
        let src =
            "impl A { fn go(&self) {} }\nimpl B { fn go(&self) {} }\nfn drive(a: A) { a.go(); }\n";
        let g = graph_of(src);
        let d = idx(&g, "drive");
        assert_eq!(g.edges[d].len(), 2, "unknown receiver hits both `go`s");
    }

    #[test]
    fn macros_and_constructors_are_not_calls() {
        let src =
            "fn f() {\n    println!(\"x\");\n    let v = Some(1);\n    vec![1];\n}\nfn Some() {}\n";
        // (A free fn named `Some` is silly but exercises the filter.)
        let g = graph_of(src);
        assert!(g.edges[idx(&g, "f")].is_empty());
    }

    #[test]
    fn trait_signatures_without_bodies_are_skipped() {
        let src =
            "trait T {\n    fn sig(&self) -> u32;\n    fn with_default(&self) -> u32 { 1 }\n}\n";
        let g = graph_of(src);
        assert_eq!(g.fns.len(), 1);
        assert_eq!(g.fns[0].qualified(), "T::with_default");
    }

    #[test]
    fn enclosing_finds_the_innermost_fn() {
        let g = graph_of("fn outer() {\n    x();\n}\nfn later() {\n    y();\n}\n");
        assert_eq!(g.enclosing("lib.rs", 2), Some(idx(&g, "outer")));
        assert_eq!(g.enclosing("lib.rs", 5), Some(idx(&g, "later")));
        assert_eq!(g.enclosing("lib.rs", 99), None);
    }

    #[test]
    fn fn_side_turbofish_calls_resolve() {
        let src = "fn caller() {\n    helper::<Vec<u8>>(1);\n}\nfn helper<T>(x: u32) {}\n";
        let g = graph_of(src);
        assert_eq!(g.edges[idx(&g, "caller")], vec![idx(&g, "helper")]);
    }

    #[test]
    fn type_side_turbofish_calls_resolve_to_the_owner() {
        let src = "impl S {\n    fn make() -> u32 { 1 }\n}\nfn caller() {\n    S::<u8>::make();\n}\nfn make() {}\n";
        let g = graph_of(src);
        // The edge lands on `S::make`, not the free `make` the old scanner
        // fell back to when the `>` before `::` defeated prefix detection.
        assert_eq!(g.edges[idx(&g, "caller")], vec![idx(&g, "S::make")]);
    }

    #[test]
    fn arrows_inside_turbofish_generics_do_not_unbalance_the_walk() {
        let src = "impl S {\n    fn apply() -> u32 { 1 }\n}\nfn caller() {\n    S::<fn(u8) -> u8>::apply();\n    dispatch::<fn() -> u32>();\n}\nfn dispatch<T>() {}\n";
        let g = graph_of(src);
        let c = idx(&g, "caller");
        assert_eq!(g.edges[c], {
            let mut v = vec![idx(&g, "S::apply"), idx(&g, "dispatch")];
            v.sort_unstable();
            v
        });
    }

    #[test]
    fn module_path_calls_resolve_to_free_fns() {
        let src = "fn caller() {\n    helpers::tick();\n}\nfn tick() {}\n";
        let g = graph_of(src);
        assert_eq!(g.edges[idx(&g, "caller")], vec![idx(&g, "tick")]);
    }
}
