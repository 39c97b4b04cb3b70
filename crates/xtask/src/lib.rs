//! The repository's static-analysis engine, driven by `cargo xtask`.
//!
//! A hand-rolled lexer ([`lexer`]) feeds a lightweight scope model
//! ([`model`]) under a pass framework ([`passes`]) whose rules encode
//! the properties the type system cannot see: determinism of seeded
//! runs and a panic-free wire surface. Reports render as text or byte-stable JSON
//! ([`report`]). See DESIGN.md §15 for the architecture and rule
//! catalog.

pub mod lexer;
pub mod model;
pub mod passes;
pub mod report;

use passes::{FileCtx, Pass, RawDiag};
use report::Diagnostic;
use std::path::{Path, PathBuf};

/// The workspace root (two levels above this crate's manifest).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// True for files that are test-only by naming convention and skipped
/// outright (inline `#[cfg(test)]` modules are filtered by span).
fn is_test_file(rel: &str) -> bool {
    rel.ends_with("/tests.rs") || rel.ends_with("/proptests.rs") || rel.ends_with("_tests.rs")
}

/// Discovers the `.rs` files the engine scans: every `crates/*/src`
/// tree plus the root `src/`, workspace-relative with forward slashes,
/// sorted.
pub fn discover(root: &Path) -> Vec<(String, PathBuf)> {
    let mut files = Vec::new();
    let mut roots: Vec<PathBuf> = vec![root.join("src")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            roots.push(e.path().join("src"));
        }
    }
    for r in roots {
        walk(&r, &mut files);
    }
    let mut out: Vec<(String, PathBuf)> = files
        .into_iter()
        .filter_map(|p| {
            let rel = p.strip_prefix(root).ok()?.to_string_lossy().replace('\\', "/");
            (!is_test_file(&rel)).then_some((rel, p))
        })
        .collect();
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            walk(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Analyzes one file's source under a virtual workspace-relative path.
///
/// The driver owns the cross-cutting policy: `#[cfg(test)]` regions
/// are exempt from every rule, and a justified `xtask:allow` comment
/// suppresses named rules on its target line (`allow-syntax` findings
/// are non-suppressible by construction).
pub fn analyze_file(rel: &str, src: &str, registry: &[Box<dyn Pass>]) -> Vec<Diagnostic> {
    let toks = lexer::lex(src);
    let lines = model::LineMap::new(src);
    let test_spans = model::cfg_test_spans(src, &toks);
    let known = passes::all_rules();
    let (allows, mut raw) = model::parse_allows(src, &toks, &lines, &known);
    let ctx = FileCtx { rel, src, toks: &toks, lines: &lines };
    for pass in registry {
        if pass.applies(rel) {
            pass.run(&ctx, &mut raw);
        }
    }
    let mut diags = Vec::new();
    for RawDiag { off, rule, msg } in raw {
        if model::in_spans(&test_spans, off) {
            continue;
        }
        let (line, col) = lines.line_col(off);
        if rule != "allow-syntax" && allows.covers(line, rule) {
            continue;
        }
        diags.push(Diagnostic { file: rel.to_string(), line, col, rule, message: msg });
    }
    diags
}

/// Runs the registry over a list of `(rel, path)` files on disk.
pub fn analyze_files(files: &[(String, PathBuf)]) -> Vec<Diagnostic> {
    let registry = passes::registry();
    let mut diags = Vec::new();
    for (rel, path) in files {
        let Ok(src) = std::fs::read_to_string(path) else { continue };
        diags.extend(analyze_file(rel, &src, &registry));
    }
    report::sort(&mut diags);
    diags
}

/// Runs the engine over the real workspace tree.
pub fn analyze_tree(root: &Path) -> Vec<Diagnostic> {
    analyze_files(&discover(root))
}

/// Runs the engine over the fixture corpus: each `fixtures/*.rs` file
/// declares the virtual workspace path it poses as in a first-line
/// `//@ path: …` header, so pass scoping applies exactly as it would
/// in the real tree.
pub fn analyze_fixtures(dir: &Path) -> Vec<Diagnostic> {
    let registry = passes::registry();
    let mut diags = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else { return diags };
    let mut paths: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    paths.sort();
    for p in paths {
        let Ok(src) = std::fs::read_to_string(&p) else { continue };
        let Some(rel) = fixture_virtual_path(&src) else {
            eprintln!("fixture {} is missing its `//@ path:` header", p.display());
            continue;
        };
        diags.extend(analyze_file(&rel, &src, &registry));
    }
    report::sort(&mut diags);
    diags
}

/// Reads the `//@ path: <virtual-path>` header off a fixture.
pub fn fixture_virtual_path(src: &str) -> Option<String> {
    let first = src.lines().next()?;
    let rest = first.strip_prefix("//@ path:")?;
    let rel = rest.trim();
    (!rel.is_empty()).then(|| rel.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_file_names_are_skipped() {
        assert!(is_test_file("crates/baselines/src/aodv/tests.rs"));
        assert!(is_test_file("crates/sim/src/proptests.rs"));
        assert!(!is_test_file("crates/sim/src/wire.rs"));
    }

    #[test]
    fn allow_suppresses_only_named_rule_on_target_line() {
        let registry = passes::registry();
        let src = "\
fn f(v: &[u8]) -> u8 {
    // xtask:allow(no-panic): index checked by caller invariant
    v.first().unwrap().clone()
}
fn g(v: &[u8]) -> u8 {
    v.first().unwrap().clone()
}
";
        let diags = analyze_file("crates/sim/src/example.rs", src, &registry);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 6);
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let registry = passes::registry();
        let src = "\
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); }
}
";
        let diags = analyze_file("crates/sim/src/example.rs", src, &registry);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn profiler_is_scoped_into_the_hot_path_lints() {
        let registry = passes::registry();
        // The profiler file carries both bans: wall clocks need a
        // justified allow, and std hash maps are banned outright.
        let src = "\
fn hot() {
    let m: HashMap<u32, u32> = HashMap::new();
    let t = Instant::now();
}
";
        let diags = analyze_file("crates/sim/src/prof.rs", src, &registry);
        assert!(
            diags.iter().any(|d| d.rule == "fault-determinism" && d.line == 2),
            "prof.rs must be under the hash-map ban: {diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.rule == "determinism" && d.line == 3),
            "a bare Instant::now in prof.rs must still fire: {diags:?}"
        );
    }

    #[test]
    fn profiler_wall_clock_allow_carve_out_is_line_scoped() {
        let registry = passes::registry();
        let src = "\
fn read_wall_clock() -> Instant {
    // xtask:allow(determinism): observation-only wall-clock read
    Instant::now()
}
fn stray() -> Instant {
    Instant::now()
}
";
        let diags = analyze_file("crates/sim/src/prof.rs", src, &registry);
        assert_eq!(diags.len(), 1, "only the uncovered read may fire: {diags:?}");
        assert_eq!((diags[0].rule, diags[0].line), ("determinism", 6));
    }
}
