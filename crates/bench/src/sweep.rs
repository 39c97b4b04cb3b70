//! The experiment orchestrator: memoized, resumable parameter sweeps.
//!
//! A sweep is a list of **cells** — `(scenario, protocol, seed,
//! fault level)` points — executed on the bounded
//! [worker pool](crate::workpool), whose workers claim cells in order
//! from one shared cursor, and folded into the `BENCH_6.json`
//! trajectory. Three properties make re-runs cheap and
//! interruptions harmless:
//!
//! * **Content-addressed memoization** — every cell is keyed by a hash
//!   of its *code-relevant* configuration (topology, traffic, PHY
//!   flavour, audit, protocol, seed, fault level, plus
//!   [`SWEEP_CODE_REV`]). Completed cells land in an on-disk cache
//!   under `<cache>/<key>.json`; a later sweep that contains the same
//!   cell reads the cached record instead of simulating.
//!   `profile` is deliberately *excluded* from the key: the profiler
//!   is strictly observational, so it can never change a cell's
//!   result — only its wall-clock.
//! * **A completion journal** — each cell is appended to a JSONL
//!   journal the moment it finishes (single writer: the pool's
//!   coordinator thread). A sweep killed mid-flight restarts, replays
//!   the journal, and schedules only the remainder; a torn final line
//!   from the kill is skipped harmlessly.
//! * **Deterministic output** — every simulated quantity is recorded
//!   with bit-exact `f64` round-tripping and the rendered BENCH
//!   contains no wall-clock, so a memoized re-run (and CI) reproduces
//!   the committed file byte for byte.
//!
//! A cell whose trial panics is journaled as `failed` (the sweep keeps
//! going — see the pool's panic-isolation contract) but **never
//! cached**: a panic is a bug, and a fixed binary must re-run the
//! cell rather than resurrect the failure from disk.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::unimplemented))]

use crate::forensics::Json;
use crate::runner::{run_world, trial_fault_plan, trial_seed};
use crate::scenario::{paper_cases, Protocol, Scenario, SimFlavor};
use crate::workpool;
use manet_sim::metrics::Metrics;
use manet_sim::telemetry::json_escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Bumped whenever simulator semantics change in a way that
/// invalidates previously recorded cells (part of every cell key, so
/// stale cache entries simply stop matching).
pub const SWEEP_CODE_REV: &str = "pr10-r1";

// ----- cells ------------------------------------------------------------

/// One sweep cell: a single deterministic trial.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSpec {
    /// Display label for the scenario (e.g. `n50-f10-p0`).
    pub scenario_name: String,
    /// Full scenario parameters (the embedded `trials`/`seed_base` are
    /// ignored — the cell's own `seed` identifies the trial).
    pub scenario: Scenario,
    /// Protocol under test.
    pub protocol: Protocol,
    /// The trial's seed.
    pub seed: u64,
    /// Fault-intensity level (0 = fault-free).
    pub fault_level: u32,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl CellSpec {
    /// Human-readable cell label (journal/table display, not identity).
    pub fn display(&self) -> String {
        format!(
            "{}/{}/L{}/s{}",
            self.scenario_name,
            self.protocol.name(),
            self.fault_level,
            self.seed
        )
    }

    /// The cell's content address: 128 bits of FNV-1a over a canonical
    /// rendering of everything that can affect the result. Terrain
    /// dimensions are hashed as raw `f64` bits, so the key is exact,
    /// not formatted.
    pub fn key(&self) -> String {
        let sc = &self.scenario;
        let flavor = match sc.flavor {
            SimFlavor::Default => "default",
            SimFlavor::Alt => "alt",
        };
        let canon = format!(
            "rev={};n={};tx={:016x};ty={:016x};flows={};pause={};dur={};flavor={};audit={};proto={};seed={};level={}",
            SWEEP_CODE_REV,
            sc.n_nodes,
            sc.terrain.0.to_bits(),
            sc.terrain.1.to_bits(),
            sc.n_flows,
            sc.pause_secs,
            sc.duration_secs,
            flavor,
            sc.audit,
            self.protocol.name(),
            self.seed,
            self.fault_level,
        );
        let lo = fnv1a(canon.as_bytes(), FNV_OFFSET);
        // Second lane: same stream, independent starting state.
        let hi = fnv1a(canon.as_bytes(), FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15);
        format!("{hi:016x}{lo:016x}")
    }
}

/// The scoreboard grid: both paper topologies × the four paper
/// protocols × the given fault levels × `trials` seeds per cell, in
/// canonical (scenario, protocol, level, seed) order.
pub fn cells_for(duration_secs: u64, trials: u32, levels: &[u32]) -> Vec<CellSpec> {
    let mut out = Vec::new();
    for (name, scenario) in paper_cases(duration_secs, trials) {
        for protocol in Protocol::PAPER_SET {
            for &level in levels {
                for k in 0..trials {
                    out.push(CellSpec {
                        scenario_name: name.clone(),
                        scenario: scenario.clone(),
                        protocol,
                        seed: trial_seed(scenario.seed_base, k),
                        fault_level: level,
                    });
                }
            }
        }
    }
    out
}

// ----- per-cell results -------------------------------------------------

/// The simulated quantities a cell records: the paper's §4 measures
/// plus the audit/fault counters. `f64` fields round-trip bit-exactly
/// through the journal and cache (serialized as raw bit patterns).
#[derive(Clone, Debug, PartialEq)]
pub struct CellMetrics {
    /// Packet delivery ratio.
    pub delivery: f64,
    /// Mean data latency (seconds).
    pub latency_s: f64,
    /// Control packets per received data packet.
    pub net_load: f64,
    /// RREQ transmissions per received data packet.
    pub rreq_load: f64,
    /// RREPs initiated per RREQ initiated.
    pub rrep_init: f64,
    /// Usable RREPs received per RREQ initiated.
    pub rrep_recv: f64,
    /// Mean own destination sequence number at run end (Fig. 7).
    pub mean_seqno: f64,
    /// Hop-wise RREQ transmissions.
    pub rreq_tx: u64,
    /// Data packets originated.
    pub data_originated: u64,
    /// Data packets delivered.
    pub data_delivered: u64,
    /// Routing-loop audit violations.
    pub loop_violations: u64,
    /// Every-mutation invariant checks performed.
    pub invariant_checks: u64,
    /// Invariant breaches found.
    pub invariant_breaches: u64,
    /// Fault-plan actions fired.
    pub faults_injected: u64,
    /// Crash/restart recoveries.
    pub node_restarts: u64,
    /// Kernel events executed — the deterministic numerator of the
    /// scoreboard's events-per-sim-second-per-core column (wall-clock
    /// never enters the journal or cache, so reruns stay byte-exact).
    pub events: u64,
}

impl CellMetrics {
    /// Extracts the recorded subset from a trial's full [`Metrics`],
    /// plus the kernel's event counter.
    pub fn from_metrics(m: &Metrics, events: u64) -> Self {
        CellMetrics {
            delivery: m.delivery_ratio(),
            latency_s: m.mean_latency_s(),
            net_load: m.network_load(),
            rreq_load: m.rreq_load(),
            rrep_init: m.rrep_init_per_rreq(),
            rrep_recv: m.rrep_recv_per_rreq(),
            mean_seqno: m.mean_own_seqno,
            rreq_tx: m.rreq_tx(),
            data_originated: m.data_originated,
            data_delivered: m.data_delivered,
            loop_violations: m.loop_violations,
            invariant_checks: m.invariant_checks,
            invariant_breaches: m.invariant_breaches,
            faults_injected: m.faults_injected,
            node_restarts: m.node_restarts,
            events,
        }
    }
}

/// A completed cell: its metrics, or the panic that killed it.
#[derive(Clone, Debug, PartialEq)]
pub enum CellRecord {
    /// The trial ran to completion.
    Done(CellMetrics),
    /// The trial panicked; the sweep continued without it.
    Failed {
        /// The panic payload, stringified.
        panic_msg: String,
    },
}

// ----- record (de)serialization -----------------------------------------

/// Bit-exact `f64` rendering: 16 hex digits of the IEEE-754 pattern.
fn f64_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn f64_from_hex(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// Approximate decimal companion to the bit field, for human diffing;
/// never parsed back. `null` for non-finite values.
fn f64_approx(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

const F64_FIELDS: [&str; 7] =
    ["delivery", "latency_s", "net_load", "rreq_load", "rrep_init", "rrep_recv", "mean_seqno"];
const U64_FIELDS: [&str; 9] = [
    "rreq_tx",
    "data_originated",
    "data_delivered",
    "loop_violations",
    "invariant_checks",
    "invariant_breaches",
    "faults_injected",
    "node_restarts",
    "events",
];

fn f64_values(m: &CellMetrics) -> [f64; 7] {
    [m.delivery, m.latency_s, m.net_load, m.rreq_load, m.rrep_init, m.rrep_recv, m.mean_seqno]
}

fn u64_values(m: &CellMetrics) -> [u64; 9] {
    [
        m.rreq_tx,
        m.data_originated,
        m.data_delivered,
        m.loop_violations,
        m.invariant_checks,
        m.invariant_breaches,
        m.faults_injected,
        m.node_restarts,
        m.events,
    ]
}

/// Renders one journal/cache line (stable field order, no wall-clock).
pub fn record_line(key: &str, cell: &str, record: &CellRecord) -> String {
    let mut s = String::new();
    let _ = write!(s, "{{\"key\":\"{}\",\"cell\":\"{}\"", json_escape(key), json_escape(cell));
    match record {
        CellRecord::Done(m) => {
            s.push_str(",\"status\":\"ok\"");
            for (name, v) in F64_FIELDS.iter().zip(f64_values(m)) {
                let _ = write!(s, ",\"{name}\":\"{}\"", f64_hex(v));
            }
            for (name, v) in U64_FIELDS.iter().zip(u64_values(m)) {
                let _ = write!(s, ",\"{name}\":{v}");
            }
        }
        CellRecord::Failed { panic_msg } => {
            let _ =
                write!(s, ",\"status\":\"failed\",\"panic_msg\":\"{}\"", json_escape(panic_msg));
        }
    }
    s.push('}');
    s
}

/// Parses one journal/cache line back into `(key, record)`. Returns
/// `None` on any malformation — a torn line from a killed writer is
/// skipped, never fatal.
pub fn parse_record(line: &str) -> Option<(String, CellRecord)> {
    let v = Json::parse(line.trim())?;
    let key = v.str_field("key")?.to_string();
    match v.str_field("status")? {
        "ok" => {
            let mut f = [0.0f64; 7];
            for (slot, name) in f.iter_mut().zip(F64_FIELDS) {
                *slot = f64_from_hex(v.str_field(name)?)?;
            }
            let mut u = [0u64; 9];
            for (slot, name) in u.iter_mut().zip(U64_FIELDS) {
                *slot = v.u64_field(name)?;
            }
            let m = CellMetrics {
                delivery: f[0],
                latency_s: f[1],
                net_load: f[2],
                rreq_load: f[3],
                rrep_init: f[4],
                rrep_recv: f[5],
                mean_seqno: f[6],
                rreq_tx: u[0],
                data_originated: u[1],
                data_delivered: u[2],
                loop_violations: u[3],
                invariant_checks: u[4],
                invariant_breaches: u[5],
                faults_injected: u[6],
                node_restarts: u[7],
                events: u[8],
            };
            Some((key, CellRecord::Done(m)))
        }
        "failed" => {
            let panic_msg = v.str_field("panic_msg")?.to_string();
            Some((key, CellRecord::Failed { panic_msg }))
        }
        _ => None,
    }
}

// ----- the sweep driver -------------------------------------------------

/// Where and how a sweep runs.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Content-addressed cache directory (`<key>.json` per cell).
    pub cache_dir: PathBuf,
    /// Completion journal (JSONL, appended as cells finish).
    pub journal: PathBuf,
    /// Worker-pool width; callers derive it from
    /// [`workpool::host_cores`] (a cell runs on one thread).
    pub threads: usize,
    /// Stop scheduling after this many *executed* cells (interruption
    /// hook for the resumability tests); `None` runs everything.
    pub max_cells: Option<usize>,
    /// Ignore the existing journal and cache: re-execute every cell.
    pub fresh: bool,
}

impl SweepConfig {
    /// A default layout rooted at `dir`, sized for this host.
    pub fn rooted(dir: &std::path::Path) -> Self {
        SweepConfig {
            cache_dir: dir.join("cells"),
            journal: dir.join("journal.jsonl"),
            threads: workpool::host_cores(),
            max_cells: None,
            fresh: false,
        }
    }
}

/// What a sweep invocation did. `cells` is in canonical sweep order —
/// the order the BENCH rendering uses — regardless of the order cells
/// actually completed in, so output bytes never depend on scheduling.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Every cell with its record; `None` = not yet run (the sweep was
    /// interrupted by `max_cells` before reaching it).
    pub cells: Vec<(CellSpec, Option<CellRecord>)>,
    /// Cells actually simulated by *this* invocation.
    pub executed: usize,
    /// Cells satisfied from the content-addressed cache.
    pub memo_hits: usize,
    /// Cells satisfied by replaying the journal.
    pub journal_hits: usize,
}

impl SweepOutcome {
    /// Whether every cell has a record.
    pub fn complete(&self) -> bool {
        self.cells.iter().all(|(_, r)| r.is_some())
    }

    /// Number of cells whose trial panicked.
    pub fn failures(&self) -> usize {
        self.cells.iter().filter(|(_, r)| matches!(r, Some(CellRecord::Failed { .. }))).count()
    }
}

fn run_cell(cell: &CellSpec) -> CellMetrics {
    // Level 0 yields an empty plan, which the kernel treats exactly
    // like no plan (covered by the runner's level-zero test).
    let plan = trial_fault_plan(&cell.scenario, cell.seed, cell.fault_level);
    let world = run_world(cell.protocol, &cell.scenario, cell.seed, Some(plan));
    // The kernel's event counter is the deterministic numerator of the
    // scoreboard's throughput column.
    CellMetrics::from_metrics(world.metrics(), world.events_executed())
}

/// Runs (or resumes) a sweep. Per cell, in order of preference: replay
/// the journal, hit the content-addressed cache, or simulate on the
/// worker pool — journaling and caching each cell as it completes.
pub fn run_sweep(cells: &[CellSpec], cfg: &SweepConfig) -> Result<SweepOutcome, String> {
    let keys: Vec<String> = cells.iter().map(CellSpec::key).collect();
    let mut key_set: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, k) in keys.iter().enumerate() {
        if key_set.insert(k.as_str(), i).is_some() {
            return Err(format!(
                "duplicate cell key {k} ({}): seed collision or repeated cell",
                cells[i].display()
            ));
        }
    }
    fs::create_dir_all(&cfg.cache_dir)
        .map_err(|e| format!("create cache dir {}: {e}", cfg.cache_dir.display()))?;
    if cfg.fresh {
        fs::remove_file(&cfg.journal).or_else(|e| match e.kind() {
            std::io::ErrorKind::NotFound => Ok(()),
            _ => Err(format!("remove journal {}: {e}", cfg.journal.display())),
        })?;
    }

    let mut done: BTreeMap<usize, CellRecord> = BTreeMap::new();
    let mut journal_hits = 0usize;
    let mut memo_hits = 0usize;
    if !cfg.fresh {
        // 1. Replay the journal (this sweep's own completion log).
        if let Ok(text) = fs::read_to_string(&cfg.journal) {
            for line in text.lines() {
                if let Some((key, rec)) = parse_record(line) {
                    if let Some(&i) = key_set.get(key.as_str()) {
                        if done.insert(i, rec).is_none() {
                            journal_hits += 1;
                        }
                    }
                }
            }
        }
        // 2. Content-addressed cache (possibly from an earlier,
        //    different sweep that shared cells). Failed cells are
        //    never cached, so everything read here is `Done`.
        for (i, key) in keys.iter().enumerate() {
            if done.contains_key(&i) {
                continue;
            }
            let path = cfg.cache_dir.join(format!("{key}.json"));
            if let Ok(text) = fs::read_to_string(&path) {
                if let Some((k, rec)) = parse_record(&text) {
                    if k == *key && matches!(rec, CellRecord::Done(_)) {
                        done.insert(i, rec);
                        memo_hits += 1;
                    }
                }
            }
        }
    }

    // 3. Simulate the remainder on the bounded pool.
    let todo: Vec<usize> = (0..cells.len()).filter(|i| !done.contains_key(i)).collect();
    let scheduled: Vec<usize> = match cfg.max_cells {
        Some(n) => todo.iter().copied().take(n).collect(),
        None => todo,
    };
    let executed = scheduled.len();
    if executed > 0 {
        let mut journal_file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&cfg.journal)
            .map_err(|e| format!("open journal {}: {e}", cfg.journal.display()))?;
        let jobs: Vec<_> = scheduled
            .iter()
            .map(|&i| {
                let cell = &cells[i];
                move || run_cell(cell)
            })
            .collect();
        let mut io_err: Option<String> = None;
        let (results, _stats) = workpool::run_jobs_with(cfg.threads, jobs, |j, res| {
            let i = scheduled[j];
            let rec = match res {
                Ok(m) => CellRecord::Done(m.clone()),
                Err(panic_msg) => CellRecord::Failed { panic_msg: panic_msg.clone() },
            };
            let line = record_line(&keys[i], &cells[i].display(), &rec);
            // Journal first (the resume log must never trail the
            // cache), flushed per line so a kill loses at most the
            // line being written.
            if let Err(e) = writeln!(journal_file, "{line}").and_then(|()| journal_file.flush()) {
                io_err.get_or_insert_with(|| format!("journal write: {e}"));
            }
            if matches!(rec, CellRecord::Done(_)) {
                let path = cfg.cache_dir.join(format!("{}.json", keys[i]));
                if let Err(e) = fs::write(&path, format!("{line}\n")) {
                    io_err.get_or_insert_with(|| format!("cache write {}: {e}", path.display()));
                }
            }
        });
        if let Some(e) = io_err {
            return Err(e);
        }
        for (j, r) in results.into_iter().enumerate() {
            let rec = match r {
                Ok(m) => CellRecord::Done(m),
                Err(panic_msg) => CellRecord::Failed { panic_msg },
            };
            done.insert(scheduled[j], rec);
        }
    }

    let cells_out = cells.iter().enumerate().map(|(i, c)| (c.clone(), done.remove(&i))).collect();
    Ok(SweepOutcome { cells: cells_out, executed, memo_hits, journal_hits })
}

// ----- rendering --------------------------------------------------------

impl SweepOutcome {
    /// Renders the BENCH trajectory entry (`BENCH_6.json`). Contains
    /// no wall-clock and renders cells in canonical order, so the
    /// bytes depend only on the simulated results — a memoized re-run
    /// (or a CI runner) reproduces the committed file exactly.
    pub fn to_json(&self, mode: &str) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"bench\": \"sweepbench\",\n");
        s.push_str("  \"schema\": 1,\n");
        let _ = writeln!(s, "  \"mode\": \"{}\",", json_escape(mode));
        let _ = writeln!(s, "  \"code_rev\": \"{}\",", json_escape(SWEEP_CODE_REV));
        let _ = writeln!(s, "  \"cells\": [");
        for (i, (cell, rec)) in self.cells.iter().enumerate() {
            s.push_str("    {\n");
            let _ = writeln!(s, "      \"key\": \"{}\",", cell.key());
            let _ = writeln!(s, "      \"cell\": \"{}\",", json_escape(&cell.display()));
            let _ = writeln!(s, "      \"scenario\": \"{}\",", json_escape(&cell.scenario_name));
            let _ = writeln!(s, "      \"protocol\": \"{}\",", json_escape(&cell.protocol.name()));
            let _ = writeln!(s, "      \"fault_level\": {},", cell.fault_level);
            let _ = writeln!(s, "      \"seed\": {},", cell.seed);
            match rec {
                Some(CellRecord::Done(m)) => {
                    s.push_str("      \"status\": \"ok\",\n");
                    for (name, v) in F64_FIELDS.iter().zip(f64_values(m)) {
                        let _ = writeln!(
                            s,
                            "      \"{name}_bits\": \"{}\",\n      \"{name}\": {},",
                            f64_hex(v),
                            f64_approx(v)
                        );
                    }
                    let mut first = true;
                    for (name, v) in U64_FIELDS.iter().zip(u64_values(m)) {
                        if !first {
                            s.push_str(",\n");
                        }
                        first = false;
                        let _ = write!(s, "      \"{name}\": {v}");
                    }
                    s.push('\n');
                }
                Some(CellRecord::Failed { panic_msg }) => {
                    s.push_str("      \"status\": \"failed\",\n");
                    let _ = writeln!(s, "      \"panic_msg\": \"{}\"", json_escape(panic_msg));
                }
                None => {
                    s.push_str("      \"status\": \"pending\"\n");
                }
            }
            s.push_str(if i + 1 < self.cells.len() { "    },\n" } else { "    }\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Renders the human-readable table (`results/sweepbench.txt`):
    /// one row per `(scenario, fault level, protocol)`, averaged over
    /// that group's seeds in cell order.
    pub fn to_table(&self, mode: &str) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "sweepbench ({mode}): {} cells — {} executed, {} memoized, {} journaled, {} failed",
            self.cells.len(),
            self.executed,
            self.memo_hits,
            self.journal_hits,
            self.failures()
        );
        // Group in first-appearance order; BTreeMap re-keyed by the
        // group's first cell index keeps the iteration canonical.
        let mut groups: BTreeMap<usize, (String, Vec<&CellMetrics>, usize, u64)> = BTreeMap::new();
        let mut index: BTreeMap<String, usize> = BTreeMap::new();
        for (i, (cell, rec)) in self.cells.iter().enumerate() {
            let label =
                format!("{}/L{} {}", cell.scenario_name, cell.fault_level, cell.protocol.name());
            let slot = *index.entry(label.clone()).or_insert(i);
            let entry = groups
                .entry(slot)
                .or_insert_with(|| (label, Vec::new(), 0, cell.scenario.duration_secs));
            match rec {
                Some(CellRecord::Done(m)) => entry.1.push(m),
                Some(CellRecord::Failed { .. }) => entry.2 += 1,
                None => {}
            }
        }
        let _ = writeln!(
            s,
            "{:<28} {:>6} {:>10} {:>12} {:>10} {:>7} {:>10} {:>7}",
            "cell group",
            "seeds",
            "delivery",
            "latency(s)",
            "net load",
            "loops",
            "ev/ssc",
            "failed"
        );
        for (_, (label, ms, failed, duration_secs)) in groups {
            let n = ms.len();
            let mean = |f: fn(&CellMetrics) -> f64| -> f64 {
                if n == 0 {
                    0.0
                } else {
                    ms.iter().map(|m| f(m)).sum::<f64>() / n as f64
                }
            };
            let loops: u64 = ms.iter().map(|m| m.loop_violations).sum();
            // Events per simulated second per core: deterministic (no
            // wall-clock), so the rendered table reproduces byte-exactly.
            let total_events: u64 = ms.iter().map(|m| m.events).sum();
            let ev_ssc =
                crate::report::events_per_simsec_core(total_events, duration_secs * n as u64);
            let _ = writeln!(
                s,
                "{:<28} {:>6} {:>10.4} {:>12.4} {:>10.3} {:>7} {:>10.1} {:>7}",
                label,
                n,
                mean(|m| m.delivery),
                mean(|m| m.latency_s),
                mean(|m| m.net_load),
                loops,
                ev_ssc,
                failed
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(seed: u64, level: u32) -> CellSpec {
        let mut sc = Scenario::n50(3, 0);
        sc.n_nodes = 12;
        sc.terrain = (700.0, 300.0);
        sc.duration_secs = 10;
        CellSpec {
            scenario_name: "tiny".to_string(),
            scenario: sc,
            protocol: Protocol::Ldr,
            seed,
            fault_level: level,
        }
    }

    #[test]
    fn keys_separate_code_relevant_config_only() {
        let a = cell(7, 0);
        assert_eq!(a.key(), cell(7, 0).key(), "key must be a pure function");
        assert_ne!(a.key(), cell(8, 0).key(), "seed is code-relevant");
        assert_ne!(a.key(), cell(7, 1).key(), "fault level is code-relevant");
        let mut b = cell(7, 0);
        b.protocol = Protocol::Aodv;
        assert_ne!(a.key(), b.key(), "protocol is code-relevant");
        let mut c = cell(7, 0);
        c.scenario.duration_secs = 11;
        assert_ne!(a.key(), c.key(), "duration is code-relevant");
        // The profiler changes wall-clock only, so it must NOT
        // invalidate cached cells.
        let mut d = cell(7, 0);
        d.scenario.profile = true;
        assert_eq!(a.key(), d.key(), "the profiler must not change the key");
        // Display names are labels, not identity.
        let mut e = cell(7, 0);
        e.scenario_name = "renamed".to_string();
        assert_eq!(a.key(), e.key());
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        let m = CellMetrics {
            delivery: 0.1 + 0.2, // deliberately not exactly 0.3
            latency_s: f64::from_bits(0x3fd5_5555_5555_5555),
            net_load: 17.25,
            rreq_load: 0.0,
            rrep_init: 1.0 / 3.0,
            rrep_recv: 2.0 / 7.0,
            mean_seqno: 41.999999999999,
            rreq_tx: 123,
            data_originated: 4000,
            data_delivered: 3999,
            loop_violations: 0,
            invariant_checks: 55,
            invariant_breaches: 1,
            faults_injected: 9,
            node_restarts: 2,
            events: 987654321,
        };
        let rec = CellRecord::Done(m);
        let line = record_line("abc123", "tiny/LDR/L0/s7", &rec);
        let (key, back) = parse_record(&line).expect("round trip");
        assert_eq!(key, "abc123");
        assert_eq!(back, rec, "every f64 must round-trip bit-exactly");

        let fail = CellRecord::Failed { panic_msg: "index 3 out of \"bounds\"\n".to_string() };
        let line = record_line("def", "tiny/LDR/L0/s8", &fail);
        let (_, back) = parse_record(&line).expect("failed record round trip");
        assert_eq!(back, fail, "panic messages must survive escaping");
    }

    #[test]
    fn torn_journal_lines_are_skipped() {
        let m = CellMetrics {
            delivery: 0.5,
            latency_s: 0.01,
            net_load: 1.0,
            rreq_load: 0.1,
            rrep_init: 1.0,
            rrep_recv: 1.0,
            mean_seqno: 3.0,
            rreq_tx: 5,
            data_originated: 10,
            data_delivered: 5,
            loop_violations: 0,
            invariant_checks: 0,
            invariant_breaches: 0,
            faults_injected: 0,
            node_restarts: 0,
            events: 1200,
        };
        let full = record_line("k1", "c", &CellRecord::Done(m));
        let torn = &full[..full.len() / 2];
        assert!(parse_record(torn).is_none(), "a torn line must parse to None, not panic");
        assert!(parse_record("").is_none());
        assert!(parse_record("{\"key\":\"x\"}").is_none(), "missing status");
    }
}
