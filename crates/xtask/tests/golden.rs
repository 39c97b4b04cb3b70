//! Golden-diagnostics tests: the fixture corpus must produce exactly
//! the byte-pinned report, every rule must fire at least once, the
//! real tree must be clean, and the whole run must be fast.

use std::path::PathBuf;
use xtask::{analyze_fixtures, analyze_tree, passes, report, workspace_root};

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

#[test]
fn fixtures_match_pinned_report_byte_for_byte() {
    let diags = analyze_fixtures(&fixtures_dir());
    let got = report::json(&diags);
    let expected = std::fs::read_to_string(fixtures_dir().join("expected.json"))
        .expect("fixtures/expected.json present");
    assert_eq!(got, expected, "regenerate expected.json if a rule intentionally changed");
}

#[test]
fn every_rule_fires_on_the_fixture_corpus() {
    let diags = analyze_fixtures(&fixtures_dir());
    for rule in passes::all_rules() {
        assert!(
            diags.iter().any(|d| d.rule == rule),
            "no fixture trips rule `{rule}` — plant one or the rule is dead"
        );
    }
}

#[test]
fn real_tree_is_clean() {
    let diags = analyze_tree(&workspace_root());
    assert!(diags.is_empty(), "workspace has findings:\n{}", report::text(&diags));
}

#[test]
fn full_run_completes_fast() {
    // The <5s budget covers lexing and all passes over the workspace
    // plus the fixture corpus. (Wall-clock measurement is fine here:
    // xtask is tooling, outside the simulator's determinism scope.)
    let t0 = std::time::Instant::now();
    let _ = analyze_tree(&workspace_root());
    let _ = analyze_fixtures(&fixtures_dir());
    assert!(t0.elapsed().as_secs_f64() < 5.0, "static analysis exceeded its 5s budget");
}

#[test]
fn json_report_is_structurally_valid() {
    let diags = analyze_fixtures(&fixtures_dir());
    let j = report::json(&diags);
    check_json(&j);
    check_json(&report::json(&[]));
}

/// A minimal JSON validity checker (no deps): balanced structure with
/// correct string/escape handling, one top-level value.
fn check_json(s: &str) {
    let b = s.as_bytes();
    let mut stack: Vec<u8> = Vec::new();
    let mut i = 0;
    let mut seen_value = false;
    while i < b.len() {
        match b[i] {
            b'{' | b'[' => {
                stack.push(b[i]);
                i += 1;
            }
            b'}' => {
                assert_eq!(stack.pop(), Some(b'{'), "mismatched }} at byte {i}");
                seen_value = true;
                i += 1;
            }
            b']' => {
                assert_eq!(stack.pop(), Some(b'['), "mismatched ] at byte {i}");
                seen_value = true;
                i += 1;
            }
            b'"' => {
                i += 1;
                loop {
                    assert!(i < b.len(), "unterminated string");
                    match b[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                seen_value = true;
            }
            b' ' | b'\n' | b'\t' | b'\r' | b',' | b':' => i += 1,
            c if c.is_ascii_digit() || c == b'-' => {
                while i < b.len()
                    && (b[i].is_ascii_digit() || matches!(b[i], b'-' | b'.' | b'e' | b'E' | b'+'))
                {
                    i += 1;
                }
                seen_value = true;
            }
            c if s[i..].starts_with("true")
                || s[i..].starts_with("false")
                || s[i..].starts_with("null") =>
            {
                let _ = c;
                i += if s[i..].starts_with("false") { 5 } else { 4 };
                seen_value = true;
            }
            c => panic!("unexpected byte {c:?} at {i}"),
        }
    }
    assert!(stack.is_empty(), "unbalanced braces/brackets");
    assert!(seen_value, "empty document");
}

#[test]
fn no_panic_scope_covers_the_model_checker() {
    let pass = passes::registry()
        .into_iter()
        .find(|p| p.id() == "no-panic")
        .expect("no-panic pass registered");
    assert!(pass.applies("crates/modelcheck/src/live.rs"));
    assert!(pass.applies("crates/modelcheck/src/main.rs"));
    assert!(pass.applies("crates/core/src/protocol.rs"));
    assert!(!pass.applies("crates/xtask/src/lib.rs"));
}

#[test]
fn no_panic_scope_covers_the_sweep_engine_and_pool() {
    let pass = passes::registry()
        .into_iter()
        .find(|p| p.id() == "no-panic")
        .expect("no-panic pass registered");
    // A panic in the sweep coordinator or a pool worker abandons a
    // half-journaled sweep; both files are held to the no-panic bar.
    assert!(pass.applies("crates/bench/src/sweep.rs"));
    assert!(pass.applies("crates/bench/src/workpool.rs"));
    // The rest of the bench crate (report rendering, binaries) stays
    // out of scope — a CLI is allowed to abort on bad flags.
    assert!(!pass.applies("crates/bench/src/runner.rs"));
    assert!(!pass.applies("crates/bench/src/bin/sweepbench.rs"));
}

#[test]
fn fault_determinism_scope_covers_the_pools_and_sweep() {
    let pass = passes::registry()
        .into_iter()
        .find(|p| p.id() == "fault-determinism")
        .expect("fault-determinism pass registered");
    assert!(pass.applies("crates/sim/src/pool.rs"));
    assert!(pass.applies("crates/bench/src/sweep.rs"));
    assert!(!pass.applies("crates/bench/src/report.rs"));
}
