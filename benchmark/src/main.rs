//! The scoreboard: four workloads, end-to-end metrics from an untraced
//! run and per-layer metrics from a traced one, in one schema that
//! stays comparable from PR to PR. See `README.md` beside this package.
//!
//! ```text
//! ldr-benchmark all [--seed S] [--seconds N] [--smoke] [--out FILE]
//! ldr-benchmark run --workload W [--seed S] [--seconds N] [--trace 0|1 | --traced] [--smoke]
//! ldr-benchmark compare A.json B.json
//! ldr-benchmark selfcheck [--seed S] [--seconds N] [--smoke]
//! ```
//!
//! It drives the program through public functions only, changes nothing
//! outside its own directory, and claims no gain.

mod alloc;
mod cells;
mod probes;
mod report;
mod run;
mod spans;
mod sys;
mod workloads;

use ldr_bench::forensics::Json;
use run::{Plant, RunArgs};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Scale;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// The repository's `BENCHMARK.json`: the metric names, directions and
/// bounds `compare` judges by.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 1000;
/// Seconds one run measures when none are given (`run_seconds` of
/// `BENCHMARK.json`); a smoke run stops after its first round.
const DEFAULT_SECONDS: f64 = 20.0;

/// Where span files, result files and scratch directories go: `out/`
/// beside this package's manifest.
pub fn out_dir() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    // A binary carried away from where it was built writes under the
    // directory it is run from.
    let package = if manifest.is_dir() { manifest } else { Path::new("benchmark") };
    package.join("out")
}

/// Options shared by the subcommands.
#[derive(Clone, Debug)]
pub struct Options {
    pub seed: u64,
    pub seconds: Option<f64>,
    pub smoke: bool,
    pub workload: Option<String>,
    pub traced: bool,
    pub plant: Option<Plant>,
    pub out: Option<PathBuf>,
    pub detail_out: Option<PathBuf>,
    pub files: Vec<PathBuf>,
}

impl Options {
    pub fn scale(&self) -> Scale {
        if self.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        }
    }

    pub fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke { 0.0 } else { DEFAULT_SECONDS })
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        seed: DEFAULT_SEED,
        seconds: None,
        smoke: false,
        workload: None,
        traced: false,
        plant: None,
        out: None,
        detail_out: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=600"));
                }
                o.seconds = Some(s);
            }
            "--workload" => o.workload = Some(value()?.clone()),
            "--trace" => {
                o.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => o.traced = true,
            "--smoke" => o.smoke = true,
            "--plant" => {
                o.plant = Some(match value()?.as_str() {
                    "panic" => Plant::Panic,
                    "digest" => Plant::Digest,
                    other => return Err(format!("--plant takes panic or digest, not {other}")),
                })
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--detail-out" => o.detail_out = Some(PathBuf::from(value()?)),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            file => o.files.push(PathBuf::from(file)),
        }
    }
    Ok(o)
}

fn run_command(o: &Options) -> Result<ExitCode, String> {
    let name = o.workload.as_deref().ok_or("run needs --workload")?;
    let workload = workloads::find(name).ok_or_else(|| {
        let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; the workloads are {}", names.join(", "))
    })?;
    if o.plant == Some(Plant::Panic) && workload.threads() > 1 {
        return Err("--plant panic needs a single-thread workload".to_string());
    }
    let args = RunArgs {
        workload,
        seed: o.seed,
        seconds: o.seconds(),
        traced: o.traced,
        scale: o.scale(),
        plant: o.plant,
    };
    let outcome = run::run(&args)?;
    let detail = report::detail_json(&outcome);
    let parsed = Json::parse(&detail).ok_or("the run's detail document is not valid JSON")?;
    print!("{}", report::human(&parsed));
    if let Some(path) = &o.detail_out {
        std::fs::write(path, detail).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    // The last line of standard output is the result.
    println!("{}", report::result_line(&outcome));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: ldr-benchmark all|run|compare|selfcheck [options]");
        return ExitCode::from(2);
    };
    let done = parse(rest).and_then(|o| match command.as_str() {
        "run" => run_command(&o),
        "all" => report::all_command(&o),
        "compare" => report::compare_command(&o),
        "selfcheck" => report::selfcheck_command(&o),
        other => Err(format!("unknown command {other}")),
    });
    match done {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ldr-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
