//! Runs one cell through the program's public functions, checks what
//! came out, and digests it.

use crate::alloc;
use crate::spans::Tracer;
use ldr_bench::runner::{build_world, build_world_telemetry, trial_fault_plan};
use ldr_bench::scenario::{Protocol, Scenario};
use ldr_bench::sweep::{record_line, CellMetrics, CellRecord, CellSpec};
use ldr_bench::telemetry_export::render_run;
use manet_sim::metrics::Metrics;
use manet_sim::prof::{phase_name, ProfSnapshot, N_PHASES};
use manet_sim::telemetry::{series_to_jsonl, JsonlTrace, TelemetryConfig};
use manet_sim::time::{SimDuration, SimTime};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// How a cell is driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Drive {
    /// Attach the JSONL trace sink, flight recorder and sampler.
    pub telemetry: bool,
    /// Switch the kernel profiler on (`Scenario::profile`).
    pub profile: bool,
}

/// Everything one run of a cell yielded.
pub struct CellRun {
    pub record: CellRecord,
    /// The whole cell: fault plan, world construction, kernel, finalize,
    /// rendering.
    pub wall_s: f64,
    /// `World::run_until` alone (0 where the world is out of reach).
    pub kernel_s: f64,
    /// Full metrics of a cell that ran to completion.
    pub metrics: Option<Metrics>,
    pub prof: Option<ProfSnapshot>,
    pub trace_lines: u64,
    pub trace_bytes: u64,
    /// Allocations and bytes during `World::run_until` (traced runs).
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl CellRun {
    pub fn failed(panic_msg: String, wall_s: f64) -> CellRun {
        CellRun {
            record: CellRecord::Failed { panic_msg },
            wall_s,
            kernel_s: 0.0,
            metrics: None,
            prof: None,
            trace_lines: 0,
            trace_bytes: 0,
            allocs: 0,
            alloc_bytes: 0,
        }
    }
}

fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `body` as one cell. A panic inside the program is caught and
/// recorded as a failed cell; the benchmark goes on.
pub fn guarded(body: impl FnOnce() -> CellRun) -> CellRun {
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(body));
    let wall_s = started.elapsed().as_secs_f64();
    match outcome {
        Ok(run) => CellRun { wall_s, ..run },
        Err(e) => CellRun::failed(panic_text(e), wall_s),
    }
}

/// Runs `spec` once.
///
/// An untraced telemetry cell is one `render_run` call, the function a
/// user calls. Everywhere else the same steps are taken one by one, a
/// span around each, so that the world stays in reach for its event
/// count and profile.
pub fn run_cell(
    spec: &CellSpec,
    drive: Drive,
    tracer: &Tracer,
    parent: Option<usize>,
    cell_id: usize,
) -> CellRun {
    guarded(|| {
        tracer.scope("cell", parent, Some(cell_id), |span| {
            if drive.telemetry && !tracer.enabled() {
                render_whole(spec)
            } else {
                step_by_step(spec, drive, tracer, span, cell_id)
            }
        })
    })
}

fn render_whole(spec: &CellSpec) -> CellRun {
    let plan = trial_fault_plan(&spec.scenario, spec.seed, spec.fault_level);
    let run = render_run(spec.protocol, &spec.scenario, spec.seed, Some(plan));
    CellRun {
        // `render_run` keeps the world to itself, so the event count is
        // not known here; the traced run reports it.
        record: CellRecord::Done(CellMetrics::from_metrics(&run.metrics, 0)),
        wall_s: 0.0,
        kernel_s: 0.0,
        trace_lines: run.trace.lines().count().saturating_sub(1) as u64,
        trace_bytes: run.trace.len() as u64,
        metrics: Some(run.metrics),
        prof: None,
        allocs: 0,
        alloc_bytes: 0,
    }
}

fn step_by_step(
    spec: &CellSpec,
    drive: Drive,
    tracer: &Tracer,
    span: Option<usize>,
    cell_id: usize,
) -> CellRun {
    let cell = Some(cell_id);
    let sc = Scenario { profile: drive.profile, ..spec.scenario.clone() };
    // A level-0 plan is empty, and the kernel treats an empty plan as no
    // plan; `sweep::run_sweep` passes it the same way.
    let plan = tracer.scope("runner.trial_fault_plan", span, cell, |_| {
        trial_fault_plan(&sc, spec.seed, spec.fault_level)
    });
    let sink = drive.telemetry.then(|| JsonlTrace::shared(spec.seed, sc.n_nodes));
    let mut world = tracer.scope("runner.build_world", span, cell, |_| match &sink {
        Some(sink) => {
            let telemetry = Some(TelemetryConfig::default());
            let mut w = build_world_telemetry(spec.protocol, &sc, spec.seed, Some(plan), telemetry);
            w.set_trace(Box::new(sink.clone()));
            w
        }
        None => build_world(spec.protocol, &sc, spec.seed, Some(plan)),
    });
    let until = SimTime::ZERO + SimDuration::from_secs(sc.duration_secs);
    let (kernel_s, allocs, alloc_bytes) = tracer.scope("world.run_until", span, cell, |run_span| {
        let (a0, b0) = alloc::counted();
        let t = Instant::now();
        world.run_until(until);
        let kernel_s = t.elapsed().as_secs_f64();
        let (a1, b1) = alloc::counted();
        if let Some(snap) = world.prof_snapshot() {
            for p in (0..N_PHASES).filter(|&p| snap.counts[p] > 0 || snap.nanos[p] > 0) {
                tracer.phase(run_span, phase_name(p), snap.nanos[p], snap.counts[p]);
            }
        }
        (kernel_s, a1 - a0, b1 - b0)
    });
    tracer.scope("world.finalize", span, cell, |_| world.finalize());
    let (mut trace_lines, mut trace_bytes) = (0, 0);
    if let Some(sink) = &sink {
        let interval = world.sample_interval().unwrap_or(SimDuration::from_secs(1));
        let series = tracer.scope("telemetry.series_to_jsonl", span, cell, |_| {
            series_to_jsonl(spec.seed, interval, world.telemetry_series())
        });
        // The copy out of the sink is what `render_run` hands its caller.
        let trace = tracer.scope("telemetry.trace_copy", span, cell, |_| {
            let guard = sink.lock().expect("the sink is only locked while the kernel runs");
            trace_lines = guard.lines();
            guard.contents().to_string()
        });
        trace_bytes = trace.len() as u64;
        std::hint::black_box((series, trace));
    }
    let metrics = world.metrics().clone();
    CellRun {
        record: CellRecord::Done(CellMetrics::from_metrics(&metrics, world.events_executed())),
        wall_s: 0.0,
        kernel_s,
        metrics: Some(metrics),
        prof: world.prof_snapshot(),
        trace_lines,
        trace_bytes,
        allocs,
        alloc_bytes,
    }
}

/// The work unit of the throughput metrics: packets the simulated
/// network carried in a cell, as hop-wise control transmissions plus data
/// packets delivered.
///
/// A simulated second costs the host very different amounts from one
/// scenario to the next, and this count tracks that cost: per packet,
/// host time varies about half as much between seeds as per simulated
/// second. It is a statistic of the simulated network, so a change to
/// the kernel that leaves the simulation alone cannot move it, which is
/// why the kernel's own event count is not used.
pub fn sim_packets(m: &CellMetrics) -> f64 {
    // `net_load` is control transmissions per delivered data packet.
    (m.net_load * m.data_delivered as f64).round() + m.data_delivered as f64
}

/// What is wrong with a cell's output, if anything: one line.
pub fn check_cell(spec: &CellSpec, record: Option<&CellRecord>) -> Option<String> {
    let name = spec.display();
    match record {
        None => Some(format!("{name}: never ran")),
        Some(CellRecord::Failed { panic_msg }) => Some(format!("{name}: panicked: {panic_msg}")),
        Some(CellRecord::Done(m)) => {
            if m.data_originated == 0 {
                Some(format!("{name}: originated no data"))
            } else if m.data_delivered > m.data_originated {
                Some(format!(
                    "{name}: delivered {} of {} originated",
                    m.data_delivered, m.data_originated
                ))
            } else if spec.protocol == Protocol::Ldr && m.loop_violations > 0 {
                Some(format!("{name}: LDR formed {} routing loops", m.loop_violations))
            } else {
                None
            }
        }
    }
}

/// FNV-1a, 128 bits, over each cell's `sweep::record_line` in canonical
/// order: two runs simulated the same thing exactly when their digests
/// are equal.
///
/// The kernel's event count is left out: it says how the kernel
/// computed the result, not what the result is, and a change that
/// schedules fewer events must not read as a change in simulated
/// statistics.
pub fn digest_of<'a>(cells: impl Iterator<Item = (&'a CellSpec, &'a CellRecord)>) -> String {
    let mut h: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    for (spec, record) in cells {
        let record = match record {
            CellRecord::Done(m) => CellRecord::Done(CellMetrics { events: 0, ..m.clone() }),
            failed => failed.clone(),
        };
        for b in record_line(&spec.key(), &spec.display(), &record).bytes().chain([b'\n']) {
            h ^= u128::from(b);
            h = h.wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013b);
        }
    }
    format!("{h:032x}")
}
