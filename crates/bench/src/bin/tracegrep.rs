//! Trace forensics CLI: query an exported `manet-trace` JSONL file,
//! or render exported `manet-prof` profiler documents.
//!
//! ```text
//! tracegrep --trace FILE [QUERY...]
//!   --explain-packet FLOW,SEQ   hop-by-hop lifecycle of one data packet
//!   --route-lifetimes DST       install→invalidate spans + churn histogram
//!   --drops                     drop-reason breakdown over time
//!   --loops                     successor-cycle check replayed from the
//!                               route-mutation stream (independent of the
//!                               simulator's own audit)
//!
//! tracegrep --prof FILE [FILE...] [--top K]
//!   renders the profiler report for one or more `manet-prof` JSONL
//!   files: top-K phases by self time per run and the per-protocol
//!   cost table
//! ```
//!
//! The two forms do not mix: `--prof` beside `--trace` or a trace
//! query, or `--top` without `--prof`, is a usage error (exit 2).
//!
//! Without a trace on disk, export one first:
//! `sweepbench --grid faults --telemetry-dir DIR` (trace, series and
//! prof documents per row), or
//! [`ldr_bench::telemetry_export::export_run`].

#![cfg_attr(not(test), deny(clippy::iter_over_hash_type, clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), deny(clippy::allow_attributes))]

use ldr_bench::forensics::{self, TraceFile};
use ldr_bench::profiling::{render_report, ProfView};
use std::io::Write;
use std::process::ExitCode;

#[derive(Debug, PartialEq)]
enum Query {
    Explain { flow: u64, seq: u64 },
    RouteLifetimes { dst: u64 },
    Drops,
    Loops,
}

/// The two modes: queries over one trace, or a profiler report.
#[derive(Debug, PartialEq)]
enum Args {
    Trace { path: String, queries: Vec<Query> },
    Prof { files: Vec<String>, top: usize },
}

const USAGE: &str = "usage: tracegrep --trace FILE \
[--explain-packet FLOW,SEQ] [--route-lifetimes DST] [--drops] [--loops]
       tracegrep --prof FILE [FILE...] [--top K]";

/// Parses the arguments after the program name. A mix of the two modes
/// is an error rather than a silently dropped half.
fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut trace = None;
    let mut queries = Vec::new();
    let mut prof: Vec<String> = Vec::new();
    let mut top = None;
    let mut it = argv.peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => {
                trace = Some(it.next().ok_or("--trace needs a file path")?);
            }
            "--prof" => {
                prof.push(it.next().ok_or("--prof needs at least one file path")?);
                while let Some(next) = it.next_if(|next| !next.starts_with("--")) {
                    prof.push(next);
                }
            }
            "--top" => {
                let spec = it.next().ok_or("--top needs a value")?;
                top = Some(spec.trim().parse().map_err(|_| format!("bad --top value {spec:?}"))?);
            }
            "--explain-packet" => {
                let spec = it.next().ok_or("--explain-packet needs FLOW,SEQ")?;
                let (f, s) = spec
                    .split_once(',')
                    .ok_or_else(|| format!("bad packet spec {spec:?}, want FLOW,SEQ"))?;
                let flow = f.trim().parse().map_err(|_| format!("bad flow id {f:?}"))?;
                let seq = s.trim().parse().map_err(|_| format!("bad seq {s:?}"))?;
                queries.push(Query::Explain { flow, seq });
            }
            "--route-lifetimes" => {
                let spec = it.next().ok_or("--route-lifetimes needs a destination id")?;
                let dst = spec.trim().parse().map_err(|_| format!("bad node id {spec:?}"))?;
                queries.push(Query::RouteLifetimes { dst });
            }
            "--drops" => queries.push(Query::Drops),
            "--loops" => queries.push(Query::Loops),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if top.is_some() && prof.is_empty() {
        return Err("--top applies to --prof only".into());
    }
    match (trace, prof.is_empty()) {
        (Some(_), false) => Err("--trace and --prof are separate runs".into()),
        (Some(_), true) if queries.is_empty() => Err("no query given".into()),
        (Some(path), true) => Ok(Args::Trace { path, queries }),
        (None, false) if !queries.is_empty() => Err("trace queries need --trace".into()),
        (None, false) => Ok(Args::Prof { files: prof, top: top.unwrap_or(10) }),
        (None, true) => Err(String::new()),
    }
}

/// Renders the `--prof` report for the given `manet-prof` files.
fn run_prof(files: &[String], top: usize) -> ExitCode {
    let mut views = Vec::new();
    for path in files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("tracegrep: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        match ProfView::parse(&text) {
            Ok(v) => views.push(v),
            Err(e) => {
                eprintln!("tracegrep: {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = write!(out, "{}", render_report(&views, top));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let (trace_path, queries) = match parse_args(std::env::args().skip(1)) {
        Ok(Args::Trace { path, queries }) => (path, queries),
        Ok(Args::Prof { files, top }) => return run_prof(&files, top),
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("tracegrep: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let text = match std::fs::read_to_string(&trace_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tracegrep: cannot read {trace_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let trace = match TraceFile::parse(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tracegrep: {trace_path}: {e}");
            return ExitCode::from(2);
        }
    };
    // Write through a fallible handle: a closed pipe (`tracegrep … |
    // head`) must end the program quietly, not panic mid-report.
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    if writeln!(
        out,
        "{}: {} events (seed {}, {} nodes)",
        trace_path,
        trace.events.len(),
        trace.header.u64_field("seed").unwrap_or(0),
        trace.header.u64_field("nodes").unwrap_or(0)
    )
    .is_err()
    {
        return ExitCode::SUCCESS;
    }
    for q in &queries {
        let report = match q {
            Query::Explain { flow, seq } => forensics::explain_packet(&trace, *flow, *seq),
            Query::RouteLifetimes { dst } => forensics::route_lifetimes(&trace, *dst),
            Query::Drops => forensics::drops_report(&trace),
            Query::Loops => forensics::loops_check(&trace),
        };
        if write!(out, "{report}").is_err() {
            return ExitCode::SUCCESS;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn both_modes_parse() {
        let a = parse(&[
            "--trace",
            "t.jsonl",
            "--explain-packet",
            "4, 0",
            "--route-lifetimes",
            "44",
            "--drops",
            "--loops",
        ]);
        let queries = vec![
            Query::Explain { flow: 4, seq: 0 },
            Query::RouteLifetimes { dst: 44 },
            Query::Drops,
            Query::Loops,
        ];
        assert_eq!(a, Ok(Args::Trace { path: "t.jsonl".into(), queries }));
        let files = |names: &[&str]| names.iter().map(|s| s.to_string()).collect();
        assert_eq!(parse(&["--prof", "a"]), Ok(Args::Prof { files: files(&["a"]), top: 10 }));
        assert_eq!(
            parse(&["--top", "8", "--prof", "a", "b"]),
            Ok(Args::Prof { files: files(&["a", "b"]), top: 8 })
        );
    }

    #[test]
    fn a_mix_of_the_two_modes_is_rejected() {
        for mix in [
            &["--trace", "t.jsonl", "--loops", "--prof", "p.jsonl"][..],
            &["--trace", "t.jsonl", "--drops", "--top", "3"],
            &["--top", "3"],
            &["--prof", "p.jsonl", "--loops"],
        ] {
            let err = parse(mix).expect_err("a mix runs neither mode");
            assert!(!err.is_empty(), "{mix:?} says what is wrong");
        }
    }

    #[test]
    fn malformed_or_missing_values_are_errors_not_panics() {
        for bad in [
            &[][..],
            &["--help"],
            &["--trace"],
            &["--trace", "t.jsonl"],
            &["--prof"],
            &["--prof", "p.jsonl", "--top"],
            &["--prof", "p.jsonl", "--top", "-1"],
            &["--trace", "t.jsonl", "--explain-packet", "4"],
            &["--trace", "t.jsonl", "--explain-packet", "x,0"],
            &["--trace", "t.jsonl", "--explain-packet", "4,y"],
            &["--trace", "t.jsonl", "--route-lifetimes", "n44"],
            &["--trace", "t.jsonl", "--route-lifetimes"],
            &["--trace", "t.jsonl", "--drops", "--bogus"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
