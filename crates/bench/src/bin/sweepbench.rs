//! The one experiment runner: every table and figure of the paper's
//! evaluation is a named grid ([`ldr_bench::grids::GRIDS`]) executed
//! through the memoized, resumable sweep engine.
//!
//! ```text
//! cargo run --release -p ldr-bench --bin sweepbench -- --check BENCH_6.json
//! cargo run --release -p ldr-bench --bin sweepbench -- --grid fig2 --trials 2 --duration 60
//! cargo run --release -p ldr-bench --bin sweepbench -- --grid paper
//! ```
//!
//! All of a grid's cells go on the worker pool at once. Every cell is
//! journaled as it completes (`--sweep-dir`), so a killed run resumes
//! where it stopped, and memoized content-addressed by its
//! code-relevant configuration, so grids that share cells (`table1`
//! after `fig2`…`fig5`) and reruns over an unchanged tree execute
//! nothing. `--check` compares the rendered BENCH JSON against a
//! committed trajectory and exits non-zero on any drift (the CI
//! regression gate); `--out`/`--table` write the JSON and the printed
//! tables to files. `--max-cells N` stops after N executed cells — the
//! hook the resumability tests (and impatient humans) use.
//! `--telemetry-dir` exports trace + series + prof JSONL for the first
//! seed of every `(scenario, fault level, protocol)` row as
//! `<scenario>-l<level>-<protocol>-{trace,series,prof}.jsonl`.

#![cfg_attr(not(test), deny(clippy::iter_over_hash_type, clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), deny(clippy::allow_attributes))]

use ldr_bench::grids::{grid, GridOpts, GRIDS};
use ldr_bench::runner::trial_fault_plan;
use ldr_bench::sweep::{run_sweep, CellSpec, SweepConfig};
use ldr_bench::telemetry_export::export_run;
use ldr_bench::workpool;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: sweepbench [--grid NAME] [--full] [--trials N] [--duration SECS] \
[--pauses a,b,c] [--audit]
                  [--sweep-dir DIR] [--threads N] [--max-cells N] [--fresh]
                  [--check PATH] [--out PATH] [--table PATH] [--telemetry-dir DIR]";

struct Args {
    grid: String,
    opts: GridOpts,
    out: Option<String>,
    table: Option<String>,
    sweep_dir: String,
    check: Option<String>,
    threads: Option<usize>,
    max_cells: Option<usize>,
    fresh: bool,
    telemetry_dir: Option<String>,
}

fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
    v.trim().parse().map_err(|_| format!("bad {flag} value {v:?}"))
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        grid: "smoke".to_string(),
        opts: GridOpts::default(),
        out: None,
        table: None,
        sweep_dir: ".sweep".to_string(),
        check: None,
        threads: None,
        max_cells: None,
        fresh: false,
        telemetry_dir: None,
    };
    let mut it = argv;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--grid" => args.grid = value()?,
            "--full" => args.opts.full = true,
            "--audit" => args.opts.audit = true,
            "--trials" => args.opts.trials = Some(num(&flag, value()?)?),
            "--duration" => args.opts.duration = Some(num(&flag, value()?)?),
            "--pauses" => {
                let csv = value()?;
                let pauses: Result<Vec<u64>, String> =
                    csv.split(',').map(|p| num(&flag, p.to_string())).collect();
                args.opts.pauses = Some(pauses?);
            }
            "--out" => args.out = Some(value()?),
            "--table" => args.table = Some(value()?),
            "--sweep-dir" => args.sweep_dir = value()?,
            "--check" => args.check = Some(value()?),
            "--threads" => args.threads = Some(num(&flag, value()?)?),
            "--max-cells" => args.max_cells = Some(num(&flag, value()?)?),
            "--fresh" => args.fresh = true,
            "--telemetry-dir" => args.telemetry_dir = Some(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("sweepbench: {msg}\n{USAGE}\ngrids:");
    for (name, what, _) in GRIDS {
        eprintln!("  {name:<10} {what}");
    }
    ExitCode::from(2)
}

/// Writes `text` to `path`, creating the parent directory.
fn write_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// One telemetry-attached, profiled rerun per `(scenario, fault level,
/// protocol)` row — its first seed, under the same fault plan the
/// sweep cell ran.
fn export_telemetry(cells: &[CellSpec], dir: &Path) -> Result<(), String> {
    let mut seen = BTreeSet::new();
    for cell in cells {
        let prefix = format!(
            "{}-l{}-{}",
            cell.scenario_name,
            cell.fault_level,
            cell.protocol.name().to_lowercase()
        );
        if !seen.insert(prefix.clone()) {
            continue;
        }
        let mut scenario = cell.scenario.clone();
        scenario.profile = true;
        let plan = trial_fault_plan(&scenario, cell.seed, cell.fault_level);
        let (_, paths) = export_run(cell.protocol, &scenario, cell.seed, Some(plan), dir, &prefix)
            .map_err(|e| format!("telemetry export failed for {}: {e}", cell.display()))?;
        println!("telemetry: wrote {} (+series, +prof)", paths.trace.display());
    }
    Ok(())
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let Some(grid) = grid(&args.grid, &args.opts) else {
        return Ok(usage_error(&format!("unknown grid {}", args.grid)));
    };
    let mut cfg = SweepConfig::rooted(Path::new(&args.sweep_dir));
    // The cells all run single-worker kernels, so the pool can use
    // every core; an explicit --threads overrides.
    cfg.threads = args.threads.unwrap_or_else(workpool::host_cores);
    cfg.max_cells = args.max_cells;
    cfg.fresh = args.fresh;

    eprintln!(
        "sweepbench {}: {} cells, {} pool thread(s), journal {}",
        grid.name,
        grid.cells.len(),
        cfg.threads,
        cfg.journal.display()
    );
    let outcome = run_sweep(&grid.cells, &cfg).map_err(|e| format!("sweep failed: {e}"))?;
    let (rendered, loop_free) = grid.render(&outcome);
    print!("{rendered}");

    if !outcome.complete() {
        let pending = outcome.cells.iter().filter(|(_, r)| r.is_none()).count();
        println!(
            "sweep paused after {} executed cell(s); {pending} pending — rerun to resume",
            outcome.executed
        );
        return Ok(ExitCode::SUCCESS);
    }

    let json = outcome.to_json(&grid.name);
    if let Some(golden) = &args.check {
        let committed =
            std::fs::read_to_string(golden).map_err(|e| format!("cannot read {golden}: {e}"))?;
        if committed != json {
            let drift = committed
                .lines()
                .zip(json.lines())
                .position(|(a, b)| a != b)
                .map_or("length".to_string(), |i| format!("line {}", i + 1));
            eprintln!("REGRESSION: sweep output diverged from {golden} (first drift: {drift})");
            return Ok(ExitCode::from(1));
        }
        println!("check OK: output is byte-identical to {golden}");
    }
    if let Some(out) = &args.out {
        write_file(out, &json)?;
        println!("wrote {out}");
    }
    if let Some(table) = &args.table {
        write_file(table, &rendered)?;
        println!("wrote {table}");
    }
    if let Some(dir) = &args.telemetry_dir {
        export_telemetry(&grid.cells, Path::new(dir))?;
    }
    println!(
        "executed {} / memoized {} / journaled {} of {} cells",
        outcome.executed,
        outcome.memo_hits,
        outcome.journal_hits,
        outcome.cells.len()
    );
    if outcome.failures() > 0 {
        eprintln!(
            "{} cell(s) FAILED (panicked trials recorded in the journal)",
            outcome.failures()
        );
        return Ok(ExitCode::from(1));
    }
    Ok(if loop_free { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => return usage_error(&msg),
    };
    run(&args).unwrap_or_else(|msg| {
        eprintln!("sweepbench: {msg}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_to_the_quick_smoke_grid() {
        let a = parse(&[]).expect("no flags is valid");
        assert_eq!(a.grid, "smoke");
        assert_eq!(a.opts, GridOpts::default());
        assert_eq!(a.sweep_dir, ".sweep");
        assert!(a.out.is_none() && a.table.is_none() && a.check.is_none());
    }

    #[test]
    fn grid_scale_and_overrides_parse() {
        let a = parse(&[
            "--grid",
            "fig7",
            "--full",
            "--audit",
            "--trials",
            "4",
            "--duration",
            "300",
            "--pauses",
            "0, 60,900",
            "--threads",
            "2",
            "--max-cells",
            "5",
            "--fresh",
        ])
        .expect("valid");
        assert_eq!(a.grid, "fig7");
        let want = GridOpts {
            full: true,
            trials: Some(4),
            duration: Some(300),
            pauses: Some(vec![0, 60, 900]),
            audit: true,
        };
        assert_eq!(a.opts, want);
        assert_eq!((a.threads, a.max_cells, a.fresh), (Some(2), Some(5), true));
    }

    #[test]
    fn malformed_or_missing_values_are_errors_not_panics() {
        for bad in [
            &["--trials", "x"][..],
            &["--trials"],
            &["--out"],
            &["--duration", "-3"],
            &["--pauses", "0,,60"],
            &["--threads", "two"],
            &["--smoke"],
            &["--quick"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
