//! What the benchmark prints and writes, and the commands built on its
//! result files: `all`, `compare`, `selfcheck`.

use crate::run::{ratio, RunOutcome};
use crate::sys::Manifest;
use crate::workloads::{is_exact_layer_metric, WORKLOADS};
use crate::{out_dir, Options, BENCHMARK_JSON};
use ldr_bench::forensics::Json;
use manet_sim::telemetry::json_escape;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Schema stamp of the result file `all` writes.
const SCHEMA: &str = "ldr-benchmark/1";

// ----- one run ----------------------------------------------------------

/// A finite number as JSON, with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result a run ends its standard output with: one JSON object with
/// exactly the keys `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(o: &RunOutcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failures.is_empty(),
        o.attempted,
        o.failures.len(),
        metrics.join(", ")
    )
}

/// Everything a run knows, for `all` to collect.
pub fn detail_json(o: &RunOutcome) -> String {
    let failed = o.failures.len() as u64;
    let failures: Vec<String> =
        o.failures.iter().map(|f| format!("\"{}\"", json_escape(f))).collect();
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, num(m.value), m.unit))
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"traced\":{},\"seed\":{},\"seconds\":{},\"smoke\":{},\"rounds\":{},\"cells\":{},\"measured_wall_s\":{},\"sim_s_per_wall_s\":{},\"attempted\":{},\"failed\":{},\"failed_frac\":{},\"failures\":[{}],\"sim_digest\":\"{}\",\"delivery_ratio\":{},\"metrics\":{{{}}}}}",
        o.args.workload.name,
        o.args.traced,
        o.args.seed,
        num(o.args.seconds),
        o.args.scale.smoke,
        o.rounds,
        o.cells,
        num(o.measured_wall_s),
        num(o.sim_s_per_wall_s),
        o.attempted,
        failed,
        num(ratio(failed as f64, o.attempted as f64)),
        failures.join(","),
        o.sim_digest,
        num(o.delivery_ratio),
        metrics.join(",")
    )
}

// ----- reading result files ---------------------------------------------

fn f64_of(v: &Json) -> Option<f64> {
    match v {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

fn f64_field(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(f64_of).unwrap_or(0.0)
}

fn bool_field(v: &Json, key: &str) -> bool {
    matches!(v.get(key), Some(Json::Bool(true)))
}

fn members(v: Option<&Json>) -> &[(String, Json)] {
    match v {
        Some(Json::Obj(fields)) => fields,
        _ => &[],
    }
}

fn items(v: Option<&Json>) -> &[Json] {
    match v {
        Some(Json::Arr(items)) => items,
        _ => &[],
    }
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    unit: String,
    lower_is_better: bool,
    /// Share of the base by which the metric may worsen.
    bound: f64,
}

fn declared_end_to_end() -> Result<Vec<Declared>, String> {
    let spec = Json::parse(BENCHMARK_JSON).ok_or("BENCHMARK.json is not valid JSON")?;
    let list = items(spec.get("end_to_end"));
    if list.is_empty() {
        return Err("BENCHMARK.json declares no end_to_end metrics".to_string());
    }
    list.iter()
        .map(|m| {
            Ok(Declared {
                name: m.str_field("name").ok_or("end_to_end metric without a name")?.to_string(),
                unit: m.str_field("unit").unwrap_or("").to_string(),
                lower_is_better: m.str_field("better") == Some("lower"),
                bound: f64_field(m, "bound"),
            })
        })
        .collect()
}

/// A result file, parsed.
struct Doc {
    path: PathBuf,
    json: Json,
}

impl Doc {
    fn read(path: &Path) -> Result<Doc, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let json =
            Json::parse(&text).ok_or_else(|| format!("{} is not valid JSON", path.display()))?;
        if json.str_field("schema") != Some(SCHEMA) {
            return Err(format!("{} is not a {SCHEMA} result file", path.display()));
        }
        Ok(Doc { path: path.to_path_buf(), json })
    }

    fn manifest(&self) -> &Json {
        self.json.get("manifest").unwrap_or(&Json::Null)
    }

    fn describe(&self) -> String {
        let m = self.manifest();
        format!(
            "{}: git {}, {} core(s), {}, {}, seed {}, {} s per run",
            self.path.display(),
            m.str_field("git_rev").unwrap_or("?"),
            m.u64_field("nproc").unwrap_or(0),
            m.str_field("cpu_model").unwrap_or("?"),
            m.str_field("rustc").unwrap_or("?"),
            m.u64_field("seed").unwrap_or(0),
            num(f64_field(m, "seconds")),
        )
    }

    /// The `untraced` or `traced` run of a workload.
    fn run(&self, workload: &str, which: &str) -> Option<&Json> {
        items(self.json.get("workloads"))
            .iter()
            .find(|w| w.str_field("name") == Some(workload))
            .and_then(|w| w.get(which))
    }
}

fn metric<'a>(run: Option<&'a Json>, name: &str) -> Option<&'a Json> {
    run.and_then(|r| r.get("metrics")).and_then(|m| m.get(name))
}

// ----- compare ----------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn text(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within-bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `base` by the metric's bound. `comparable` is
/// false when the two runs did not do the same work without failures;
/// then no difference can be called either way.
fn verdict(d: &Declared, base: f64, new: f64, comparable: bool) -> Verdict {
    if !comparable || base <= 0.0 {
        return Verdict::Unresolved;
    }
    let worse_by = if d.lower_is_better { new / base - 1.0 } else { 1.0 - new / base };
    if worse_by > d.bound {
        Verdict::Regressed
    } else if worse_by < -d.bound {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

fn ratio_text(base: f64, new: f64) -> String {
    if base != 0.0 {
        format!("{:.4}", new / base)
    } else if new == 0.0 {
        "same".to_string()
    } else {
        "-".to_string()
    }
}

/// What `compare` found, for its exit code and for `selfcheck`.
#[derive(Default)]
struct Findings {
    regressed: Vec<String>,
    /// End-to-end metrics further apart than their bound, either way.
    apart: Vec<String>,
    /// Exact fields that differ at all.
    inexact: Vec<String>,
}

/// One row of a workload's end-to-end table.
fn print_row(name: &str, unit: &str, base: f64, new: f64, bound: &str, verdict: &str) {
    println!(
        "{name:<20} {unit:<9} {base:>14.6} {new:>14.6} {:>9} {bound:>6}  {verdict}",
        ratio_text(base, new)
    );
}

/// Prints the per-workload tables of `new` against `base`.
fn compare_docs(base: &Doc, new: &Doc) -> Result<Findings, String> {
    let declared = declared_end_to_end()?;
    let mut found = Findings::default();
    println!("base  {}", base.describe());
    println!("new   {}", new.describe());
    for w in WORKLOADS.iter().map(|w| w.name) {
        let (b, n) = (base.run(w, "untraced"), new.run(w, "untraced"));
        let (Some(b), Some(n)) = (b, n) else {
            println!("\n== {w} == missing from a file: unresolved");
            found.apart.push(format!("{w}: missing"));
            continue;
        };
        let digests = (b.str_field("sim_digest"), n.str_field("sim_digest"));
        let same_work = digests.0 == digests.1;
        let failed = (f64_field(b, "failed_frac"), f64_field(n, "failed_frac"));
        println!("\n== {w} ==");
        println!(
            "{:<20} {:<9} {:>14} {:>14} {:>9} {:>6}  verdict",
            "metric", "unit", "base", "new", "new/base", "bound"
        );
        for d in &declared {
            let value = |run| metric(Some(run), &d.name).map(|m| f64_field(m, "value"));
            let (Some(bv), Some(nv)) = (value(b), value(n)) else {
                println!("{:<20} missing from a file: unresolved", d.name);
                found.apart.push(format!("{w} {}: missing", d.name));
                continue;
            };
            let v = verdict(d, bv, nv, same_work && failed == (0.0, 0.0));
            print_row(&d.name, &d.unit, bv, nv, &d.bound.to_string(), v.text());
            if v == Verdict::Regressed {
                found.regressed.push(format!("{w} {}", d.name));
            }
            if v != Verdict::WithinBound {
                found.apart.push(format!("{w} {}: {}", d.name, v.text()));
            }
        }
        let v = match failed.1.total_cmp(&failed.0) {
            std::cmp::Ordering::Greater => Verdict::Regressed,
            std::cmp::Ordering::Less => Verdict::Improved,
            std::cmp::Ordering::Equal => Verdict::WithinBound,
        };
        print_row("failed_frac", "ratio", failed.0, failed.1, "0", v.text());
        if v == Verdict::Regressed {
            found.regressed.push(format!("{w} failed_frac"));
        }
        if v != Verdict::WithinBound {
            found.inexact.push(format!("{w} failed_frac"));
        }
        for f in items(n.get("failures")).iter().filter_map(Json::as_str) {
            println!("  new FAILED {f}");
        }
        let delivery = (f64_field(b, "delivery_ratio"), f64_field(n, "delivery_ratio"));
        let same = if delivery.0 == delivery.1 { "identical" } else { "changed" };
        print_row("delivery_ratio", "ratio", delivery.0, delivery.1, "exact", same);
        if delivery.0 != delivery.1 {
            found.inexact.push(format!("{w} delivery_ratio"));
        }
        if same_work {
            println!("simulated statistics identical (sim_digest {})", digests.0.unwrap_or("?"));
        } else {
            println!(
                "simulated statistics CHANGED (sim_digest {} -> {})",
                digests.0.unwrap_or("?"),
                digests.1.unwrap_or("?")
            );
            found.inexact.push(format!("{w} sim_digest"));
        }

        let (bt, nt) = (base.run(w, "traced"), new.run(w, "traced"));
        println!("-- {w}: per-layer (traced run) --");
        println!("{:<40} {:<9} {:>16} {:>16} {:>9}", "metric", "unit", "base", "new", "new/base");
        for (name, m) in members(nt.and_then(|t| t.get("metrics"))) {
            let nv = f64_field(m, "value");
            let bv = metric(bt, name).map_or(0.0, |m| f64_field(m, "value"));
            println!(
                "{:<40} {:<9} {:>16.6} {:>16.6} {:>9}",
                name,
                m.str_field("unit").unwrap_or(""),
                bv,
                nv,
                ratio_text(bv, nv)
            );
            if is_exact_layer_metric(name) && bv != nv {
                found.inexact.push(format!("{w} {name}"));
            }
        }
    }
    Ok(found)
}

/// `compare A.json B.json`: B against A. Exits 1 when a metric
/// regressed.
pub fn compare_command(o: &Options) -> Result<ExitCode, String> {
    let [a, b] = o.files.as_slice() else {
        return Err("compare takes two result files: compare A.json B.json".to_string());
    };
    let (base, new) = (Doc::read(a)?, Doc::read(b)?);
    for doc in [&base, &new] {
        if bool_field(doc.manifest(), "smoke") {
            return Err(format!("{} is a smoke run; it measures nothing", doc.path.display()));
        }
    }
    let seeds = (base.manifest().u64_field("seed"), new.manifest().u64_field("seed"));
    if seeds.0 != seeds.1 {
        return Err(format!(
            "the files were run with different seeds ({:?} and {:?}), so their inputs differ",
            seeds.0, seeds.1
        ));
    }
    let found = compare_docs(&base, &new)?;
    if found.regressed.is_empty() {
        println!("\nno end-to-end metric regressed");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("\nREGRESSED: {}", found.regressed.join("; "));
        Ok(ExitCode::FAILURE)
    }
}

// ----- all --------------------------------------------------------------

/// Runs every workload, untraced then traced, each in a process of its
/// own, so that peak memory and heap state belong to one workload.
/// Returns the result document.
fn collect_all(o: &Options, tag: &str) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = out_dir();
    fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let m = Manifest::collect(o.seed, o.seconds(), o.smoke);
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let mut runs = Vec::new();
        for (which, trace) in [("untraced", "0"), ("traced", "1")] {
            eprintln!("ldr-benchmark: {} {which} ...", w.name);
            let detail = dir.join(format!("detail-{tag}-{}-{which}.json", w.name));
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", w.name, "--trace", trace])
                .args(["--seed", &o.seed.to_string(), "--seconds", &o.seconds().to_string()])
                .arg("--detail-out")
                .arg(&detail)
                .stdout(Stdio::null());
            if o.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.status().map_err(|e| format!("start {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("{} {which} run ended with {status}", w.name));
            }
            let text = fs::read_to_string(&detail)
                .map_err(|e| format!("read {}: {e}", detail.display()))?;
            let _ = fs::remove_file(&detail);
            runs.push(format!("\"{which}\":{}", text.trim()));
        }
        workloads.push(format!("{{\"name\":\"{}\",{}}}", w.name, runs.join(",")));
    }
    Ok(format!(
        "{{\"schema\":\"{SCHEMA}\",\n\"manifest\":{{\"git_rev\":\"{}\",\"nproc\":{},\"cpu_model\":\"{}\",\"rustc\":\"{}\",\"profile\":\"{}\",\"seed\":{},\"seconds\":{},\"smoke\":{}}},\n\"workloads\":[\n{}\n]}}\n",
        json_escape(&m.git_rev),
        m.nproc,
        json_escape(&m.cpu_model),
        json_escape(&m.rustc),
        json_escape(&m.profile),
        m.seed,
        num(m.seconds),
        m.smoke,
        workloads.join(",\n")
    ))
}

/// Every metric of one run (a detail document) by name, with its unit,
/// for people.
pub fn human(run: &Json) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== {} ({}, seed {}{}): {} round(s) of {} cells in {:.1} s ==",
        run.str_field("workload").unwrap_or("?"),
        if bool_field(run, "traced") { "traced" } else { "untraced" },
        run.u64_field("seed").unwrap_or(0),
        if bool_field(run, "smoke") { ", smoke" } else { "" },
        run.u64_field("rounds").unwrap_or(0),
        run.u64_field("cells").unwrap_or(0),
        f64_field(run, "measured_wall_s")
    );
    for (name, m) in members(run.get("metrics")) {
        let unit = m.str_field("unit").unwrap_or("");
        let _ = writeln!(s, "  {:<40} {:>16} {unit}", name, num(f64_field(m, "value")));
    }
    let _ = writeln!(
        s,
        "  {:<40} {:>16} ratio ({} of {} failed)",
        "failed_frac",
        num(f64_field(run, "failed_frac")),
        run.u64_field("failed").unwrap_or(0),
        run.u64_field("attempted").unwrap_or(0)
    );
    for f in items(run.get("failures")).iter().filter_map(Json::as_str) {
        let _ = writeln!(s, "  FAILED {f}");
    }
    let exact = |name: &str| num(f64_field(run, name));
    let _ = writeln!(
        s,
        "  {:<40} {:>16} ratio (round 0, exact)",
        "delivery_ratio",
        exact("delivery_ratio")
    );
    let _ = writeln!(
        s,
        "  {:<40} {:>16} sim-s/s (not a metric)",
        "sim_s_per_wall_s",
        exact("sim_s_per_wall_s")
    );
    let _ = writeln!(s, "  {:<40} {}", "sim_digest", run.str_field("sim_digest").unwrap_or("?"));
    s
}

/// Prints every metric of every workload by name, with its unit.
/// Returns whether every output was correct.
fn print_doc(doc: &Doc) -> bool {
    let mut all_correct = true;
    println!("{}", doc.describe());
    for w in WORKLOADS.iter().map(|w| w.name) {
        for run in ["untraced", "traced"].into_iter().filter_map(|which| doc.run(w, which)) {
            print!("\n{}", human(run));
            all_correct &= run.u64_field("failed") == Some(0);
        }
        // Profiling, spans and probes only watch: both runs of a
        // workload must have simulated the same round 0.
        let digest = |which| doc.run(w, which).and_then(|r| r.str_field("sim_digest"));
        if digest("untraced") != digest("traced") {
            println!("  FAILED {w}: the traced run simulated something else than the untraced run");
            all_correct = false;
        }
    }
    all_correct
}

/// `all`: every workload, every metric, one result file. Exits 1 when
/// any output was wrong.
pub fn all_command(o: &Options) -> Result<ExitCode, String> {
    let text = collect_all(o, "all")?;
    let path = o.out.clone().unwrap_or_else(|| out_dir().join("latest.json"));
    fs::write(&path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
    let correct = print_doc(&Doc::read(&path)?);
    println!("\nwrote {}", path.display());
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `selfcheck`: `all` twice on this build. Exits 1 when an end-to-end
/// metric differs by more than its bound, or an exact field differs at
/// all.
pub fn selfcheck_command(o: &Options) -> Result<ExitCode, String> {
    let mut docs = Vec::new();
    for tag in ["selfcheck-a", "selfcheck-b"] {
        let path = out_dir().join(format!("{tag}.json"));
        fs::write(&path, collect_all(o, tag)?)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        docs.push(Doc::read(&path)?);
    }
    let found = compare_docs(&docs[0], &docs[1])?;
    let mut ok = true;
    for (what, list) in
        [("further apart than its bound", &found.apart), ("exact, yet different", &found.inexact)]
    {
        for item in list {
            println!("SELFCHECK FAILED ({what}): {item}");
            ok = false;
        }
    }
    if ok {
        println!("\nselfcheck passed: two runs of this build agree within the benchmark's bounds");
    }
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
