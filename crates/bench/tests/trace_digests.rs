//! Exported trace and series bytes are pinned *across commits*.
//!
//! `telemetry_purity.rs` shows a rerun reproduces its own bytes; this
//! shows the bytes are the ones the fixture's commit produced, so a
//! change to the trace sink, the renderer or the kernel's emission
//! order fails here instead of in a manual `sha256sum` step.
//!
//! The fixture also pins what the loop auditors read: audited rows
//! record, per protocol, the snapshot auditor's loop count, the
//! every-mutation auditor's check and breach counts, and the series
//! (whose route-table occupancy the sampler reads off the same tables).
//!
//! Regenerate (after an *intentional* change to traced bytes) with
//! `BLESS=1 cargo test -p ldr-bench --test trace_digests`.

use ldr_bench::runner::trial_fault_plan;
use ldr_bench::scenario::{Protocol, Scenario};
use ldr_bench::telemetry_export::{export_run, render_run};
use manet_sim::config::SimConfig;
use manet_sim::metrics::Metrics;
use manet_sim::mobility::RandomWaypoint;
use manet_sim::rng::SimRng;
use manet_sim::telemetry::{series_to_jsonl, TelemetryConfig};
use manet_sim::time::{SimDuration, SimTime};
use manet_sim::world::World;
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("fixtures/trace_digests.txt");
const SEED: u64 = 1804;
/// The fault level of the audited rows: AODV loops under it at [`SEED`].
const AUDIT_LEVEL: u32 = 1;

fn scenario() -> Scenario {
    Scenario { duration_secs: 20, trials: 1, ..Scenario::n50(10, 0) }
}

/// FNV-1a, 128 bits (the digest `benchmark/` uses for `sim_digest`).
fn fnv128(bytes: &[u8]) -> String {
    let mut h: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013b);
    }
    format!("{h:032x}")
}

/// One trial with every auditor on: the snapshot loop auditor each
/// second ([`Scenario::audit`]), the every-mutation invariant auditor
/// after each callback, and the sampler. Built like the runner's
/// worlds, since no runner entry point attaches the invariant auditor.
fn audited_run(proto: Protocol, level: u32) -> (Metrics, String) {
    let sc = Scenario { audit: true, ..scenario() };
    let interval = SimDuration::from_secs(1);
    let cfg = SimConfig {
        phy: sc.flavor.phy(),
        duration: SimDuration::from_secs(sc.duration_secs),
        seed: SEED,
        audit_interval: Some(interval),
        invariant_audit: true,
        fault_plan: Some(trial_fault_plan(&sc, SEED, level)),
        telemetry: Some(TelemetryConfig { sample_interval: interval }),
        profile: false,
    };
    let mobility = RandomWaypoint::new(
        sc.n_nodes,
        sc.terrain(),
        SimDuration::from_secs(sc.pause_secs),
        1.0,
        20.0,
        SimRng::stream(SEED, "mobility"),
    );
    let mut factory = proto.factory();
    let mut world = World::new(cfg, Box::new(mobility), |id, n| factory(id, n));
    world.with_cbr(sc.n_flows);
    world.run_until(SimTime::ZERO + SimDuration::from_secs(sc.duration_secs));
    world.finalize();
    let series = series_to_jsonl(SEED, interval, world.telemetry_series());
    (world.metrics().clone(), series)
}

#[test]
fn trace_and_series_bytes_match_the_pinned_digests() {
    let sc = scenario();
    let mut actual = String::new();
    for level in [0, 2] {
        for proto in [Protocol::Ldr, Protocol::Aodv, Protocol::Dsr, Protocol::Olsr] {
            let plan = trial_fault_plan(&sc, SEED, level);
            let run = render_run(proto, &sc, SEED, Some(plan));
            let _ = writeln!(
                actual,
                "{} l{level} trace {} {} series {} {}",
                proto.name(),
                run.trace.len(),
                fnv128(run.trace.as_bytes()),
                run.series.len(),
                fnv128(run.series.as_bytes())
            );
        }
    }
    for proto in [Protocol::Ldr, Protocol::Aodv, Protocol::Dsr, Protocol::Olsr] {
        let (m, series) = audited_run(proto, AUDIT_LEVEL);
        let _ = writeln!(
            actual,
            "{} l{AUDIT_LEVEL} audited loops {} checks {} breaches {} series {} {}",
            proto.name(),
            m.loop_violations,
            m.invariant_checks,
            m.invariant_breaches,
            series.len(),
            fnv128(series.as_bytes())
        );
    }
    if std::env::var_os("BLESS").is_some() {
        let path = format!("{}/tests/fixtures/trace_digests.txt", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(path, &actual).expect("write fixture");
        return;
    }
    assert_eq!(actual, FIXTURE, "exported bytes drifted from the pinned commit");
}

#[test]
fn exported_files_equal_the_rendered_strings() {
    let sc = Scenario { profile: true, ..scenario() };
    let dir = std::env::temp_dir().join(format!("ldr-trace-digests-{}", std::process::id()));
    let plan = || Some(trial_fault_plan(&sc, SEED, 2));
    let run = render_run(Protocol::Ldr, &sc, SEED, plan());
    let (metrics, paths) =
        export_run(Protocol::Ldr, &sc, SEED, plan(), &dir, "cell").expect("export");
    assert_eq!(metrics, run.metrics);
    let read = |p: &std::path::Path| std::fs::read_to_string(p).expect("exported file");
    assert!(read(&paths.trace) == run.trace, "trace file differs from render_run");
    assert!(read(&paths.series) == run.series, "series file differs from render_run");
    let prof = paths.prof.as_deref().map(read).expect("profiled export writes prof");
    assert_eq!(
        manet_sim::prof::deterministic_section(&prof),
        manet_sim::prof::deterministic_section(run.prof.as_deref().expect("prof rendered")),
    );
    let _ = std::fs::remove_dir_all(&dir);
}
