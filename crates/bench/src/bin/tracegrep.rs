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

enum Query {
    Explain { flow: u64, seq: u64 },
    RouteLifetimes { dst: u64 },
    Drops,
    Loops,
}

struct Args {
    trace: Option<String>,
    queries: Vec<Query>,
    prof: Vec<String>,
    top: usize,
}

const USAGE: &str = "usage: tracegrep --trace FILE \
[--explain-packet FLOW,SEQ] [--route-lifetimes DST] [--drops] [--loops]
       tracegrep --prof FILE [FILE...] [--top K]";

fn parse_args() -> Result<Args, String> {
    let mut trace = None;
    let mut queries = Vec::new();
    let mut prof: Vec<String> = Vec::new();
    let mut top = 10usize;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => {
                trace = Some(it.next().ok_or("--trace needs a file path")?);
            }
            "--prof" => {
                prof.push(it.next().ok_or("--prof needs at least one file path")?);
                while let Some(next) = it.peek() {
                    if next.starts_with("--") {
                        break;
                    }
                    prof.push(it.next().unwrap_or_default());
                }
            }
            "--top" => {
                let spec = it.next().ok_or("--top needs a value")?;
                top = spec.trim().parse().map_err(|_| format!("bad --top value {spec:?}"))?;
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
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if trace.is_none() && prof.is_empty() {
        return Err(USAGE.into());
    }
    if trace.is_some() && queries.is_empty() {
        return Err(format!("no query given\n{USAGE}"));
    }
    Ok(Args { trace, queries, prof, top })
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
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if !args.prof.is_empty() {
        return run_prof(&args.prof, args.top);
    }
    let Some(trace_path) = &args.trace else {
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(trace_path) {
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
    for q in &args.queries {
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
