//! One-call telemetry export: runs a trial with the time-series
//! sampler and JSONL trace sink attached, and renders (or writes) the
//! two schema-versioned documents.
//!
//! The attached telemetry is observation-pure — the exported run's
//! [`Metrics`] are byte-identical to the same `(scenario, seed)` run
//! without telemetry, and re-exporting the same run reproduces both
//! files byte-for-byte (`telemetry_purity.rs` enforces both).

use crate::runner::build_world_telemetry;
use crate::scenario::{Protocol, Scenario};
use manet_sim::faults::FaultPlan;
use manet_sim::metrics::Metrics;
use manet_sim::prof::prof_to_jsonl;
use manet_sim::telemetry::{series_to_jsonl, JsonlTrace, TelemetryConfig};
use manet_sim::time::{SimDuration, SimTime};
use std::fs::{self, File};
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Where [`export_run`] wrote its documents.
#[derive(Clone, Debug)]
pub struct ExportPaths {
    /// The `manet-trace` event file.
    pub trace: PathBuf,
    /// The `manet-series` sampler file.
    pub series: PathBuf,
    /// The `manet-prof` profiler file, when [`Scenario::profile`] was
    /// on.
    pub prof: Option<PathBuf>,
}

/// An exported run, still in memory.
#[derive(Clone, Debug)]
pub struct RenderedRun {
    /// The run's metrics (identical to an untelemetered run).
    pub metrics: Metrics,
    /// The full `manet-trace` JSONL document.
    pub trace: String,
    /// The full `manet-series` JSONL document.
    pub series: String,
    /// The `manet-prof` JSONL document, when [`Scenario::profile`] was
    /// on. Only its `count`/`hist` section is deterministic
    /// ([`manet_sim::prof::deterministic_section`]); the `timing`
    /// lines carry wall nanoseconds and are never byte-gated.
    pub prof: Option<String>,
}

/// A finished telemetry-attached trial: everything but the trace is
/// rendered, the trace is still the sink's compact log.
struct TracedRun {
    metrics: Metrics,
    sink: Arc<Mutex<JsonlTrace>>,
    series: String,
    prof: Option<String>,
}

fn run_traced(
    protocol: Protocol,
    scenario: &Scenario,
    seed: u64,
    plan: Option<FaultPlan>,
) -> TracedRun {
    let telemetry = TelemetryConfig::default();
    let interval = telemetry.sample_interval;
    let mut world = build_world_telemetry(protocol, scenario, seed, plan, Some(telemetry));
    let sink = JsonlTrace::shared(seed, scenario.n_nodes);
    world.set_trace(Box::new(sink.clone()));
    world.run_until(SimTime::ZERO + SimDuration::from_secs(scenario.duration_secs));
    world.finalize();
    let series = series_to_jsonl(seed, interval, world.telemetry_series());
    let metrics = world.metrics().clone();
    let prof = world.prof_snapshot().map(|snap| {
        prof_to_jsonl(seed, scenario.n_nodes, &protocol.name(), &scenario.label(), &snap)
    });
    TracedRun { metrics, sink, series, prof }
}

/// The sink's trace, even if a panic elsewhere poisoned the lock.
fn locked(sink: &Mutex<JsonlTrace>) -> MutexGuard<'_, JsonlTrace> {
    sink.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs one telemetry-attached trial and returns the rendered JSONL
/// documents without touching the filesystem.
pub fn render_run(
    protocol: Protocol,
    scenario: &Scenario,
    seed: u64,
    plan: Option<FaultPlan>,
) -> RenderedRun {
    let run = run_traced(protocol, scenario, seed, plan);
    let trace = locked(&run.sink).render();
    RenderedRun { metrics: run.metrics, trace, series: run.series, prof: run.prof }
}

/// Runs one telemetry-attached trial and writes
/// `<dir>/<prefix>-trace.jsonl` and `<dir>/<prefix>-series.jsonl`
/// (plus `<dir>/<prefix>-prof.jsonl` when [`Scenario::profile`] is
/// on), creating `dir` if needed. The trace is streamed to its file
/// line by line; the whole document is never in memory.
pub fn export_run(
    protocol: Protocol,
    scenario: &Scenario,
    seed: u64,
    plan: Option<FaultPlan>,
    dir: &Path,
    prefix: &str,
) -> std::io::Result<(Metrics, ExportPaths)> {
    let run = run_traced(protocol, scenario, seed, plan);
    fs::create_dir_all(dir)?;
    let trace = dir.join(format!("{prefix}-trace.jsonl"));
    let series = dir.join(format!("{prefix}-series.jsonl"));
    let mut file = BufWriter::new(File::create(&trace)?);
    locked(&run.sink).write_to(&mut file)?;
    file.flush()?;
    fs::write(&series, &run.series)?;
    let prof = match &run.prof {
        Some(doc) => {
            let path = dir.join(format!("{prefix}-prof.jsonl"));
            fs::write(&path, doc)?;
            Some(path)
        }
        None => None,
    };
    Ok((run.metrics, ExportPaths { trace, series, prof }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_scenario() -> Scenario {
        Scenario {
            n_nodes: 12,
            terrain: (600.0, 300.0),
            duration_secs: 25,
            trials: 1,
            seed_base: 11,
            ..Scenario::n50(3, 0)
        }
    }

    #[test]
    fn render_produces_headers_and_samples() {
        let run = render_run(Protocol::Ldr, &smoke_scenario(), 11, None);
        let trace_head = run.trace.lines().next().expect("trace non-empty");
        assert!(trace_head.contains("\"schema\":\"manet-trace\""), "{trace_head}");
        let series_head = run.series.lines().next().expect("series non-empty");
        assert!(series_head.contains("\"schema\":\"manet-series\""), "{series_head}");
        // 25 s at a 1 s interval → 25 samples after the header.
        assert_eq!(run.series.lines().count(), 26, "{}", run.series);
        assert!(run.trace.lines().count() > 1, "trace recorded no events");
    }

    #[test]
    fn export_writes_both_files() {
        let dir = std::env::temp_dir().join("ldr-bench-telemetry-export-test");
        let (_m, paths) =
            export_run(Protocol::Ldr, &smoke_scenario(), 11, None, &dir, "smoke").expect("export");
        let trace = fs::read_to_string(&paths.trace).expect("trace written");
        let series = fs::read_to_string(&paths.series).expect("series written");
        assert!(trace.starts_with("{\"schema\":\"manet-trace\""));
        assert!(series.starts_with("{\"schema\":\"manet-series\""));
        assert!(paths.prof.is_none(), "no prof file without Scenario::profile");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn profiled_export_adds_the_prof_document() {
        let dir = std::env::temp_dir().join("ldr-bench-prof-export-test");
        let scenario = Scenario { profile: true, ..smoke_scenario() };
        let (_m, paths) =
            export_run(Protocol::Ldr, &scenario, 11, None, &dir, "smoke").expect("export");
        let prof_path = paths.prof.expect("profiled run exports a prof file");
        let prof = fs::read_to_string(&prof_path).expect("prof written");
        assert!(prof.starts_with("{\"schema\":\"manet-prof\",\"version\":2,"), "{prof}");
        assert!(prof.contains("\"protocol\":\"LDR\""));
        assert!(prof.contains("\"scenario\":\"n12-f3-p0\""));
        assert!(prof.contains("\"sect\":\"timing\",\"name\":\"total\""));
        let _ = fs::remove_dir_all(&dir);
    }
}
