//! One run of one workload: the untraced run that yields the end-to-end
//! metrics, or the traced run that yields the per-layer ones.
//!
//! Load is a closed loop in one process: a run executes whole rounds of
//! cells back to back until its time is up, single-threaded except for
//! `paper-sweep`. Simulated statistics are taken from round 0 alone, so
//! they depend on `--seed` and on nothing the host does.

use crate::cells::{check_cell, digest_of, guarded, run_cell, sim_packets, CellRun, Drive};
use crate::probes;
use crate::spans::Tracer;
use crate::sys;
use crate::workloads::{seed_base, Kind, Scale, Workload, END_TO_END, PER_LAYER};
use crate::{alloc, out_dir};
use ldr_bench::scenario::Protocol;
use ldr_bench::sweep::{run_sweep, CellMetrics, CellRecord, CellSpec, SweepConfig};
use ldr_bench::workpool::{self, PoolStats};
use manet_sim::event::Event;
use manet_sim::prof::{
    ProfSnapshot, DISPATCH_BASE, HIST_BUCKETS, HIST_FEL_DEPTH, N_PHASES, PHASE_FEL_POP,
    PHASE_FEL_PUSH, PHASE_NEIGHBOR_GRID, PHASE_PROTOCOL, PHASE_TELEMETRY_SAMPLE, PHASE_TRACE_EMIT,
};
use manet_sim::stats::percentile;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How many times set-up runs; `setup_s` is the median.
const SETUPS: usize = 5;

/// Share of `--seconds` a traced run gives its workload rounds; the
/// rest is for the probes.
const TRACED_ROUNDS_SHARE: f64 = 0.5;

/// A fault planted by the tests, to see that it is counted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plant {
    /// Cell 1 of round 0 panics.
    Panic,
    /// The closing re-run of cell 0 simulates another seed.
    Digest,
}

#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
    pub plant: Option<Plant>,
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a run reports.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    pub args: RunArgs,
    /// Cells and checks attempted.
    pub attempted: u64,
    /// One line per failed cell or check.
    pub failures: Vec<String>,
    /// Every end-to-end metric (untraced) or per-layer metric (traced),
    /// in table order.
    pub metrics: Vec<Metric>,
    /// Digest of round 0's simulated statistics.
    pub sim_digest: String,
    /// Σ delivered / Σ originated over round 0.
    pub delivery_ratio: f64,
    /// Cells in one round.
    pub cells: usize,
    pub rounds: usize,
    pub measured_wall_s: f64,
    /// Simulated seconds per wall second over the timed rounds. Not a
    /// metric (it varies too much from seed to seed), but the figure a
    /// user thinks in.
    pub sim_s_per_wall_s: f64,
}

// ----- rounds -----------------------------------------------------------

/// One round, executed.
struct Round {
    specs: Vec<CellSpec>,
    records: Vec<Option<CellRecord>>,
    /// Per-cell detail; empty when `run_sweep` ran the cells.
    runs: Vec<CellRun>,
    wall_s: f64,
    cpu_s: f64,
    /// Failed checks on the round as a whole (not on one cell).
    failures: Vec<String>,
    /// Checks on the round as a whole that were attempted.
    checks: u64,
}

impl Round {
    fn cell_failures(&self) -> Vec<String> {
        self.specs
            .iter()
            .zip(&self.records)
            .filter_map(|(s, r)| check_cell(s, r.as_ref()))
            .collect()
    }

    /// The cells that did not fail, with their records.
    fn ok(&self) -> impl Iterator<Item = (&CellSpec, &CellRecord)> {
        self.done().filter(|(s, r)| check_cell(s, Some(r)).is_none())
    }

    /// Simulated seconds of the cells that did not fail.
    fn ok_sim_s(&self) -> f64 {
        self.ok().map(|(s, _)| s.scenario.duration_secs as f64).sum()
    }

    /// Simulated packets of the cells that did not fail.
    fn ok_sim_pkts(&self) -> f64 {
        self.ok().filter_map(|(_, r)| metrics_of(r)).map(sim_packets).sum()
    }

    fn done(&self) -> impl Iterator<Item = (&CellSpec, &CellRecord)> {
        self.specs.iter().zip(&self.records).filter_map(|(s, r)| r.as_ref().map(|r| (s, r)))
    }

    fn digest(&self) -> String {
        digest_of(self.done())
    }

    /// Σ delivered / Σ originated over the cells that ran to completion.
    fn delivery_ratio(&self) -> f64 {
        let sum = |f: fn(&CellMetrics) -> u64| -> u64 {
            self.done().filter_map(|(_, r)| metrics_of(r)).map(f).sum()
        };
        ratio(sum(|m| m.data_delivered) as f64, sum(|m| m.data_originated) as f64)
    }

    fn events(&self) -> u64 {
        self.done().filter_map(|(_, r)| metrics_of(r)).map(|m| m.events).sum()
    }
}

fn metrics_of(record: &CellRecord) -> Option<&CellMetrics> {
    match record {
        CellRecord::Done(m) => Some(m),
        CellRecord::Failed { .. } => None,
    }
}

fn from_runs(specs: Vec<CellSpec>, runs: Vec<CellRun>, wall_s: f64, cpu_s: f64) -> Round {
    let records = runs.iter().map(|r| Some(r.record.clone())).collect();
    Round { specs, records, runs, wall_s, cpu_s, failures: Vec::new(), checks: 0 }
}

/// Runs the cells one after the other on this thread.
fn serial_round(
    specs: Vec<CellSpec>,
    drive: Drive,
    tracer: &Tracer,
    parent: Option<usize>,
    plant_panic: bool,
) -> Round {
    let cpu0 = sys::cpu_seconds();
    let t = Instant::now();
    let runs: Vec<CellRun> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            if plant_panic && i == 1 {
                guarded(|| panic!("planted panic"))
            } else {
                run_cell(spec, drive, tracer, parent, i)
            }
        })
        .collect();
    let (wall_s, cpu_s) = (t.elapsed().as_secs_f64(), sys::cpu_seconds() - cpu0);
    from_runs(specs, runs, wall_s, cpu_s)
}

/// Runs the cells on the bare pool, each job timing itself: the same
/// cells `run_sweep` runs, without its journal, cache and keys.
fn pool_round(
    specs: Vec<CellSpec>,
    threads: usize,
    tracer: &Tracer,
    parent: Option<usize>,
) -> (Round, PoolStats) {
    let drive = Drive { telemetry: false, profile: false };
    let cpu0 = sys::cpu_seconds();
    let t = Instant::now();
    let (results, stats) = tracer.scope("workpool.run_jobs", parent, None, |span| {
        let jobs: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| move || run_cell(spec, drive, tracer, span, i))
            .collect();
        workpool::run_jobs(threads, jobs)
    });
    let (wall_s, cpu_s) = (t.elapsed().as_secs_f64(), sys::cpu_seconds() - cpu0);
    // `run_cell` catches panics itself, so the pool never sees one.
    let runs = results.into_iter().map(|r| r.unwrap_or_else(|m| CellRun::failed(m, 0.0))).collect();
    (from_runs(specs, runs, wall_s, cpu_s), stats)
}

/// What the traced run reads off a `run_sweep` round beyond its cells.
#[derive(Default)]
struct SweepTimes {
    fresh_s: f64,
    memo_rerun_s: f64,
    render_json_s: f64,
    executed: usize,
    memo_hits: usize,
}

/// One fresh `run_sweep` over the cells (timed), then the memoized
/// re-run (a check): it must execute nothing and render the same bytes.
fn sweep_round(
    specs: Vec<CellSpec>,
    threads: usize,
    dir: &Path,
    tracer: &Tracer,
    parent: Option<usize>,
) -> (Round, SweepTimes) {
    let cfg = SweepConfig {
        cache_dir: dir.join("cells"),
        journal: dir.join("journal.jsonl"),
        threads,
        max_cells: None,
        fresh: true,
    };
    let mut times = SweepTimes::default();
    let cpu0 = sys::cpu_seconds();
    let t = Instant::now();
    let fresh = tracer.scope("sweep.run_sweep", parent, None, |_| run_sweep(&specs, &cfg));
    let (wall_s, cpu_s) = (t.elapsed().as_secs_f64(), sys::cpu_seconds() - cpu0);
    times.fresh_s = wall_s;
    let mut round = Round {
        specs,
        records: Vec::new(),
        runs: Vec::new(),
        wall_s,
        cpu_s,
        failures: Vec::new(),
        checks: 1,
    };
    let fresh = match fresh {
        Ok(outcome) => outcome,
        Err(e) => {
            round.records = vec![None; round.specs.len()];
            round.failures.push(format!("run_sweep: {e}"));
            return (round, times);
        }
    };
    times.executed = fresh.executed;
    if fresh.executed != round.specs.len() {
        round.failures.push(format!(
            "fresh sweep executed {} of {} cells",
            fresh.executed,
            round.specs.len()
        ));
    }
    let t = Instant::now();
    let memo = tracer.scope("sweep.memo_rerun", parent, None, |_| {
        run_sweep(&round.specs, &SweepConfig { fresh: false, ..cfg })
    });
    times.memo_rerun_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let json = tracer.scope("sweep.to_json", parent, None, |_| fresh.to_json("benchmark"));
    times.render_json_s = t.elapsed().as_secs_f64();
    match memo {
        Ok(memo) => {
            times.memo_hits = memo.memo_hits + memo.journal_hits;
            if memo.executed != 0 {
                round.failures.push(format!("memoized re-run executed {} cells", memo.executed));
            } else if memo.to_json("benchmark") != json {
                round.failures.push("memoized re-run rendered different to_json bytes".to_string());
            }
        }
        Err(e) => round.failures.push(format!("memoized re-run: {e}")),
    }
    round.records = fresh.cells.into_iter().map(|(_, r)| r).collect();
    (round, times)
}

// ----- counting what was attempted --------------------------------------

/// Cells and checks attempted so far, and one line per failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn round(&mut self, round: &Round) {
        self.attempted += round.specs.len() as u64 + round.checks;
        self.failures.extend(round.cell_failures());
        self.failures.extend(round.failures.iter().cloned());
    }

    /// One check: `failure` is what went wrong, if anything did.
    fn check(&mut self, failure: Option<String>) {
        self.attempted += 1;
        self.failures.extend(failure);
    }

    /// Passes must agree on what was simulated: observing a run (the
    /// profiler, telemetry, the sweep engine around it) may not change it.
    fn same_digest(&mut self, what: &str, a: &Round, b: &Round) {
        let changed = a.digest() != b.digest();
        self.check(changed.then(|| format!("{what} changed the simulated statistics of round 0")));
    }
}

// ----- set-up -----------------------------------------------------------

struct Setup {
    cells0: Vec<CellSpec>,
    /// Scratch directory of this process (the sweep's cache and journal).
    tmp: PathBuf,
    warmup_failure: Option<String>,
}

/// Everything before the first timed cell: the cell list, the scratch
/// directory and the warm-up cell. (Fault plans are drawn inside each
/// cell, the way `sweep::run_sweep` draws them.)
fn setup(args: &RunArgs, tracer: &Tracer, parent: Option<usize>) -> Result<Setup, String> {
    let base = seed_base(args.seed);
    let cells0 = args.workload.round_cells(base, 0, args.scale);
    let tmp = out_dir().join(format!("tmp-{}-{}", args.workload.name, std::process::id()));
    fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    let warm = args.workload.warmup_cell(args.scale);
    let drive = Drive { telemetry: args.workload.telemetry(), profile: false };
    let run = run_cell(&warm, drive, tracer, parent, 0);
    // A cell this short may carry no traffic yet, so only a panic counts.
    let warmup_failure = match &run.record {
        CellRecord::Failed { panic_msg } => Some(format!("warm-up panicked: {panic_msg}")),
        CellRecord::Done(_) => None,
    };
    Ok(Setup { cells0, tmp, warmup_failure })
}

fn remove_tmp(tmp: &Path) {
    // Best effort: a leftover scratch directory is ignored by git.
    let _ = fs::remove_dir_all(tmp);
}

// ----- small numerics ---------------------------------------------------

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

// ----- the untraced run -------------------------------------------------

fn run_untraced(args: &RunArgs) -> Result<RunOutcome, String> {
    let tracer = Tracer::new(false);
    let w = args.workload;
    let mut tally = Tally::default();

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let s = setup(args, &tracer, None)?;
        setup_s.push(t.elapsed().as_secs_f64());
        tally.check(s.warmup_failure.clone());
        ready = Some(s);
    }
    let Setup { cells0, tmp, .. } = ready.expect("SETUPS is at least 1");

    let base = seed_base(args.seed);
    let drive = Drive { telemetry: w.telemetry(), profile: false };
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut round_peaks_mb = Vec::new();
    loop {
        let r = rounds.len() as u32;
        let specs = if r == 0 { cells0.clone() } else { w.round_cells(base, r, args.scale) };
        let peak_was_reset = sys::reset_peak_rss();
        let round = match w.kind {
            Kind::PaperSweep => {
                sweep_round(specs, w.threads(), &tmp.join(format!("r{r}")), &tracer, None).0
            }
            _ => serial_round(
                specs,
                drive,
                &tracer,
                None,
                r == 0 && args.plant == Some(Plant::Panic),
            ),
        };
        rounds.push(round);
        if peak_was_reset {
            round_peaks_mb.push(sys::peak_rss_mb());
        }
        // Stop at the round boundary nearest to `--seconds`.
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + 0.5 * elapsed / rounds.len() as f64 >= args.seconds {
            break;
        }
    }
    let measured_wall_s = started.elapsed().as_secs_f64();
    // The median over rounds of each round's own peak: how many rounds
    // fit in a run must not decide the figure, as it would decide a
    // maximum, and a trace that just outgrows its buffer doubles a
    // round's peak, which would swing a mean. Where the kernel cannot
    // reset the peak, it is the process's.
    let peak_rss_mb = if round_peaks_mb.is_empty() {
        sys::peak_rss_mb()
    } else {
        percentile(&round_peaks_mb, 50.0)
    };

    for round in &rounds {
        tally.round(round);
    }

    // The closing check: cell 0 again, which must reproduce its digest.
    let mut again = cells0[0].clone();
    if args.plant == Some(Plant::Digest) {
        again.seed = again.seed.wrapping_add(1);
    }
    let rerun = run_cell(&again, drive, &tracer, None, 0);
    let first = rounds[0].records[0].as_ref().map(|r| digest_of([(&cells0[0], r)].into_iter()));
    let reproduced = first == Some(digest_of([(&again, &rerun.record)].into_iter()));
    tally.check(
        (!reproduced)
            .then(|| format!("{}: re-run did not reproduce its digest", cells0[0].display())),
    );
    remove_tmp(&tmp);

    let ok_sim_s: f64 = rounds.iter().map(Round::ok_sim_s).sum();
    let ok_sim_pkts: f64 = rounds.iter().map(Round::ok_sim_pkts).sum();
    let wall_s: f64 = rounds.iter().map(|r| r.wall_s).sum();
    let cpu_s: f64 = rounds.iter().map(|r| r.cpu_s).sum();
    let values = [
        percentile(&setup_s, 50.0),
        ratio(ok_sim_pkts, wall_s),
        1e6 * ratio(cpu_s, ok_sim_pkts),
        peak_rss_mb,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect();
    Ok(RunOutcome {
        args: *args,
        attempted: tally.attempted,
        failures: tally.failures,
        metrics,
        sim_digest: rounds[0].digest(),
        delivery_ratio: rounds[0].delivery_ratio(),
        cells: cells0.len(),
        rounds: rounds.len(),
        measured_wall_s,
        sim_s_per_wall_s: ratio(ok_sim_s, wall_s),
    })
}

// ----- the traced run ---------------------------------------------------

/// Per-layer metric values by name; a name the table does not list is a
/// bug here, caught when the run is assembled.
type Layers = BTreeMap<&'static str, f64>;

/// Index of an event kind in the profiler's per-kind arrays.
fn kind(name: &str) -> usize {
    Event::KIND_NAMES.iter().position(|n| *n == name).expect("an event kind the kernel has")
}

/// Sums of the profiler snapshots of a set of cells.
#[derive(Default)]
struct ProfSum {
    nanos: [u64; N_PHASES],
    counts: [u64; N_PHASES],
    dispatch: [u64; Event::KIND_COUNT],
    fel_depth: [u64; HIST_BUCKETS],
    pool_hits: u64,
    pool_misses: u64,
    events: u64,
    total_ns: u64,
    attributed_ns: u64,
}

impl ProfSum {
    fn of<'a>(snaps: impl Iterator<Item = &'a ProfSnapshot>) -> ProfSum {
        let mut sum = ProfSum::default();
        for s in snaps {
            for (a, b) in sum.nanos.iter_mut().zip(s.nanos) {
                *a += b;
            }
            for (a, b) in sum.counts.iter_mut().zip(s.counts) {
                *a += b;
            }
            for (a, b) in sum.dispatch.iter_mut().zip(s.dispatch_counts) {
                *a += b;
            }
            for (a, b) in sum.fel_depth.iter_mut().zip(s.hists[HIST_FEL_DEPTH]) {
                *a += b;
            }
            sum.pool_hits += s.pool_hits;
            sum.pool_misses += s.pool_misses;
            sum.events += s.events_executed;
            sum.total_ns += s.total_nanos();
            sum.attributed_ns += s.attributed_nanos();
        }
        sum
    }

    fn ns(&self, phase: u16) -> f64 {
        self.nanos[phase as usize] as f64
    }

    fn count(&self, phase: u16) -> f64 {
        self.counts[phase as usize] as f64
    }

    /// Median FEL depth at a pop. The histogram's buckets are powers of
    /// two (bucket `i` holds `2^(i-1) ..= 2^i - 1`); the middle of the
    /// median's bucket is reported.
    fn fel_depth_p50(&self) -> f64 {
        let total: u64 = self.fel_depth.iter().sum();
        let mut seen = 0;
        for (i, &n) in self.fel_depth.iter().enumerate() {
            seen += n;
            if n > 0 && 2 * seen >= total {
                return if i == 0 { 0.0 } else { 0.75 * (1u64 << i) as f64 - 0.5 };
            }
        }
        0.0
    }
}

fn profiles(rounds: &[Round]) -> impl Iterator<Item = (&CellSpec, &ProfSnapshot)> {
    rounds
        .iter()
        .flat_map(|r| r.specs.iter().zip(&r.runs))
        .filter_map(|(s, run)| run.prof.as_ref().map(|p| (s, p)))
}

/// The `world.`, `pool.` and per-protocol callback metrics, from the
/// profiled rounds. Counts are exact, so they come from round 0 alone;
/// timings are summed over every profiled round.
fn profile_metrics(profiled: &[Round], out: &mut Layers) {
    let all = ProfSum::of(profiles(profiled).map(|(_, p)| p));
    let first = ProfSum::of(profiles(&profiled[..1]).map(|(_, p)| p));
    let events = all.events as f64;
    let (mac_kick, tx_end, rx_end_batch) = (kind("mac_kick"), kind("tx_end"), kind("rx_end_batch"));
    let dispatch = |kind: usize| all.ns(DISPATCH_BASE + kind as u16);
    let named = [
        ("world.fel_pop_ns_per_event", all.ns(PHASE_FEL_POP)),
        ("world.fel_push_ns_per_event", all.ns(PHASE_FEL_PUSH)),
        ("world.neighbor_grid_ns_per_event", all.ns(PHASE_NEIGHBOR_GRID)),
        ("world.rx_end_batch_ns_per_event", dispatch(rx_end_batch)),
        ("world.mac_kick_ns_per_event", dispatch(mac_kick)),
        ("world.tx_end_ns_per_event", dispatch(tx_end)),
        ("world.ack_timeout_ns_per_event", dispatch(kind("ack_timeout"))),
        ("world.protocol_callback_ns_per_event", all.ns(PHASE_PROTOCOL)),
        ("world.trace_emit_ns_per_event", all.ns(PHASE_TRACE_EMIT)),
        ("world.telemetry_sample_ns_per_event", all.ns(PHASE_TELEMETRY_SAMPLE)),
    ];
    let named_ns: f64 = named.iter().map(|(_, ns)| ns).sum();
    for (name, ns) in named {
        out.insert(name, ratio(ns, events));
    }
    out.insert("world.other_ns_per_event", ratio(all.total_ns as f64 - named_ns, events));
    out.insert("world.prof_attribution", ratio(all.attributed_ns as f64, all.total_ns as f64));

    out.insert("world.mac_kicks", first.dispatch[mac_kick] as f64);
    out.insert("world.rx_batches", first.dispatch[rx_end_batch] as f64);
    out.insert("world.tx_ends", first.dispatch[tx_end] as f64);
    out.insert("world.protocol_callbacks", first.count(PHASE_PROTOCOL));
    out.insert("world.trace_emits", first.count(PHASE_TRACE_EMIT));
    out.insert(
        "world.kick_yield",
        ratio(first.dispatch[tx_end] as f64, first.dispatch[mac_kick] as f64),
    );
    out.insert("world.fel_depth_p50", first.fel_depth_p50());
    out.insert(
        "pool.reuse_ratio",
        ratio(first.pool_hits as f64, (first.pool_hits + first.pool_misses) as f64),
    );

    for (protocol, name) in [
        (Protocol::Ldr, "ldr.callback_ns"),
        (Protocol::Aodv, "aodv.callback_ns"),
        (Protocol::Dsr, "dsr.callback_ns"),
        (Protocol::Olsr, "olsr.callback_ns"),
    ] {
        let sum =
            ProfSum::of(profiles(profiled).filter(|(s, _)| s.protocol == protocol).map(|(_, p)| p));
        out.insert(name, ratio(sum.ns(PHASE_PROTOCOL), sum.count(PHASE_PROTOCOL)));
    }
    let lines: u64 = profiled.iter().flat_map(|r| &r.runs).map(|r| r.trace_lines).sum();
    out.insert("telemetry.render_ns_per_line", ratio(all.ns(PHASE_TRACE_EMIT), lines as f64));
}

/// The metrics an unprofiled pass over round 0 gives: what the kernel
/// costs when nothing watches it, and the exact simulated statistics.
fn plain_metrics(plain: &Round, out: &mut Layers) {
    let events = plain.events() as f64;
    let kernel_s: f64 = plain.runs.iter().map(|r| r.kernel_s).sum();
    let cell_ms: Vec<f64> = plain.runs.iter().map(|r| 1e3 * r.wall_s).collect();
    out.insert("world.events", events);
    out.insert("world.ns_per_event", ratio(1e9 * kernel_s, events));
    out.insert("world.cell_ms_p50", percentile(&cell_ms, 50.0));
    out.insert("world.cell_ms_max", cell_ms.iter().copied().fold(0.0, f64::max));
    let allocs: u64 = plain.runs.iter().map(|r| r.allocs).sum();
    let bytes: u64 = plain.runs.iter().map(|r| r.alloc_bytes).sum();
    out.insert("pool.allocs_per_event", ratio(allocs as f64, events));
    out.insert("pool.alloc_bytes_per_event", ratio(bytes as f64, events));

    out.insert("metrics.delivery_ratio", plain.delivery_ratio());
    let full =
        || plain.specs.iter().zip(&plain.runs).filter_map(|(s, r)| Some((s, r.metrics.as_ref()?)));
    let of = |p: Protocol| full().filter(move |(s, _)| s.protocol == p).map(|(_, m)| m);
    for (protocol, name) in [
        (Protocol::Ldr, "metrics.ldr_delivery_ratio"),
        (Protocol::Aodv, "metrics.aodv_delivery_ratio"),
        (Protocol::Dsr, "metrics.dsr_delivery_ratio"),
        (Protocol::Olsr, "metrics.olsr_delivery_ratio"),
    ] {
        let delivered: u64 = of(protocol).map(|m| m.data_delivered).sum();
        let originated: u64 = of(protocol).map(|m| m.data_originated).sum();
        out.insert(name, ratio(delivered as f64, originated as f64));
    }
    let ldr_control: u64 = of(Protocol::Ldr).map(|m| m.total_control_tx()).sum();
    let ldr_delivered: u64 = of(Protocol::Ldr).map(|m| m.data_delivered).sum();
    let ldr_latency_s: f64 = of(Protocol::Ldr).map(|m| m.latency_sum_s).sum();
    out.insert("metrics.ldr_network_load", ratio(ldr_control as f64, ldr_delivered as f64));
    out.insert("metrics.ldr_mean_latency_ms", 1e3 * ratio(ldr_latency_s, ldr_delivered as f64));
    out.insert("metrics.collisions", full().map(|(_, m)| m.collisions).sum::<u64>() as f64);
    out.insert("metrics.ifq_drops", full().map(|(_, m)| m.ifq_drops).sum::<u64>() as f64);
    out.insert(
        "metrics.mac_retry_failures",
        full().map(|(_, m)| m.mac_retry_failures).sum::<u64>() as f64,
    );
    out.insert("faults.injected", full().map(|(_, m)| m.faults_injected).sum::<u64>() as f64);
    out.insert("faults.restarts", full().map(|(_, m)| m.node_restarts).sum::<u64>() as f64);
    out.insert(
        "telemetry.trace_lines",
        plain.runs.iter().map(|r| r.trace_lines).sum::<u64>() as f64,
    );
    out.insert(
        "telemetry.trace_mb",
        plain.runs.iter().map(|r| r.trace_bytes).sum::<u64>() as f64 / 1e6,
    );
}

/// Everything a traced run collected, besides the metrics.
struct Traced {
    tally: Tally,
    /// The unprofiled pass over round 0.
    plain: Round,
    rounds: usize,
}

/// A single-thread workload, traced: round 0 unprofiled (and, for the
/// telemetry workload, once more with telemetry off), then profiled
/// rounds until the time share is spent.
fn traced_serial(
    args: &RunArgs,
    cells0: Vec<CellSpec>,
    tracer: &Tracer,
    root: Option<usize>,
    out: &mut Layers,
) -> Traced {
    let w = args.workload;
    let base = seed_base(args.seed);
    let mut tally = Tally::default();
    let plain_drive = Drive { telemetry: w.telemetry(), profile: false };
    let started = Instant::now();

    let pass = |name: &'static str, specs: Vec<CellSpec>, drive: Drive| {
        tracer.scope(name, root, None, |s| serial_round(specs, drive, tracer, s, false))
    };
    let bare = w
        .telemetry()
        .then(|| pass("pass.bare", cells0.clone(), Drive { telemetry: false, profile: false }));
    let plain = pass("pass.plain", cells0.clone(), plain_drive);
    tally.round(&plain);
    if let Some(bare) = &bare {
        tally.round(bare);
        tally.same_digest("telemetry", bare, &plain);
        out.insert("telemetry.trace_on_overhead_frac", ratio(plain.wall_s, bare.wall_s) - 1.0);
    }

    let mut profiled: Vec<Round> = Vec::new();
    loop {
        let r = profiled.len() as u32;
        let specs = if r == 0 { cells0.clone() } else { w.round_cells(base, r, args.scale) };
        profiled.push(pass("round", specs, Drive { profile: true, ..plain_drive }));
        if started.elapsed().as_secs_f64() >= TRACED_ROUNDS_SHARE * args.seconds {
            break;
        }
    }
    for round in &profiled {
        tally.round(round);
    }
    tally.same_digest("profiling", &plain, &profiled[0]);

    plain_metrics(&plain, out);
    profile_metrics(&profiled, out);
    out.insert("world.profile_overhead_frac", ratio(profiled[0].wall_s, plain.wall_s) - 1.0);
    Traced { tally, plain, rounds: profiled.len() }
}

/// `paper-sweep`, traced: round 0 through `run_sweep` with a span around
/// each call, then the same cells on the bare pool. The cells stay
/// unprofiled: `run_sweep` keeps its worlds to itself.
fn traced_sweep(
    args: &RunArgs,
    cells0: Vec<CellSpec>,
    tmp: &Path,
    tracer: &Tracer,
    root: Option<usize>,
    out: &mut Layers,
) -> Traced {
    let threads = args.workload.threads();
    let mut tally = Tally::default();
    let (swept, times) = tracer.scope("round", root, None, |s| {
        sweep_round(cells0.clone(), threads, &tmp.join("r0"), tracer, s)
    });
    tally.round(&swept);
    let (bare, stats) =
        tracer.scope("pass.plain", root, None, |s| pool_round(cells0, threads, tracer, s));
    tally.round(&bare);
    tally.same_digest("the sweep engine", &bare, &swept);

    out.insert("sweep.fresh_s", times.fresh_s);
    out.insert("sweep.memo_rerun_s", times.memo_rerun_s);
    out.insert("sweep.executed_cells", times.executed as f64);
    out.insert("sweep.memo_hits", times.memo_hits as f64);
    out.insert("sweep.render_json_ms", 1e3 * times.render_json_s);
    out.insert("sweep.orchestration_overhead_frac", ratio(times.fresh_s, bare.wall_s) - 1.0);
    let busy_s: f64 = bare.runs.iter().map(|r| r.wall_s).sum();
    out.insert("workpool.utilisation", ratio(busy_s, threads as f64 * bare.wall_s));
    out.insert("workpool.cell_s_max", bare.runs.iter().map(|r| r.wall_s).fold(0.0, f64::max));
    out.insert("workpool.peak_live_workers", stats.peak_live_workers as f64);
    plain_metrics(&bare, out);
    Traced { tally, plain: bare, rounds: 1 }
}

fn run_traced(args: &RunArgs) -> Result<RunOutcome, String> {
    alloc::start_counting();
    let tracer = Tracer::new(true);
    let w = args.workload;
    let mut out = Layers::new();
    let started = Instant::now();
    let traced = tracer.scope("run", None, None, |root| -> Result<Traced, String> {
        let Setup { cells0, tmp, warmup_failure } =
            tracer.scope("setup", root, None, |s| setup(args, &tracer, s))?;
        let mut traced = match w.kind {
            Kind::PaperSweep => traced_sweep(args, cells0, &tmp, &tracer, root, &mut out),
            _ => traced_serial(args, cells0, &tracer, root, &mut out),
        };
        remove_tmp(&tmp);
        traced.tally.check(warmup_failure);
        out.extend(probes::run_all(args.scale, w.threads(), &tracer, root));
        Ok(traced)
    })?;
    let measured_wall_s = started.elapsed().as_secs_f64();

    out.insert(
        "runner.build_world_us",
        1e6 * percentile(&tracer.durations_s("runner.build_world"), 50.0),
    );
    out.insert(
        "runner.fault_plan_us",
        1e6 * percentile(&tracer.durations_s("runner.trial_fault_plan"), 50.0),
    );
    out.insert(
        "telemetry.series_render_ms",
        1e3 * percentile(&tracer.durations_s("telemetry.series_to_jsonl"), 50.0),
    );

    let path = out_dir().join(format!("spans-{}.jsonl", w.name));
    let header = format!(
        "{{\"schema\":\"ldr-benchmark-spans\",\"version\":1,\"workload\":\"{}\",\"seed\":{},\"smoke\":{}}}",
        w.name, args.seed, args.scale.smoke
    );
    tracer.write_jsonl(&path, &header).map_err(|e| format!("write {}: {e}", path.display()))?;

    if let Some(unknown) = out.keys().find(|k| !PER_LAYER.iter().any(|(n, _)| n == *k)) {
        unreachable!("metric {unknown} is not in the PER_LAYER table");
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: out.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0),
        })
        .collect();
    Ok(RunOutcome {
        args: *args,
        attempted: traced.tally.attempted,
        failures: traced.tally.failures,
        metrics,
        sim_digest: traced.plain.digest(),
        delivery_ratio: traced.plain.delivery_ratio(),
        cells: traced.plain.specs.len(),
        rounds: traced.rounds,
        measured_wall_s,
        sim_s_per_wall_s: ratio(traced.plain.ok_sim_s(), traced.plain.wall_s),
    })
}

/// Runs the workload once, traced or not.
pub fn run(args: &RunArgs) -> Result<RunOutcome, String> {
    if args.traced {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}
