//! The profiler is observation-pure: turning it on changes nothing.
//!
//! The kernel profiler reads the wall clock, so its timing section can
//! never be deterministic — but everything the simulation *observes*
//! must be byte-identical whether profiling is on or off, and the
//! deterministic section of the prof document (counts + histograms)
//! must reproduce across reruns. `purity_check` enforces all of it:
//!
//! 1. metrics equality on vs off,
//! 2. byte-identical trace and series JSONL on vs off,
//! 3. a prof document present iff profiling is on,
//! 4. rerun byte-determinism of the prof count/hist section.
//!
//! Exercised for every paper protocol on both paper scenarios (smoke
//! durations).
//!
//! The same loop carries the attribution gate: at least 95% of the
//! measured kernel wall time must land in named phases (everything but
//! the `kern_loop` bottom-frame residue).

use ldr_bench::profiling::ProfView;
use ldr_bench::scenario::{Protocol, Scenario};
use ldr_bench::telemetry_export::render_run;
use manet_sim::prof::deterministic_section;

/// The on-vs-off purity differential: runs `(protocol, scenario,
/// seed)` once with profiling off and once with it on, and demands
/// metrics, trace and series stay byte-identical. Returns the profiled
/// run's prof document, or a description of the first divergence.
fn purity_check(protocol: Protocol, scenario: &Scenario, seed: u64) -> Result<String, String> {
    let case = format!("({} {} seed {seed})", protocol.name(), scenario.label());
    let profiled = Scenario { profile: true, ..scenario.clone() };
    let off = render_run(protocol, &Scenario { profile: false, ..scenario.clone() }, seed, None);
    let on = render_run(protocol, &profiled, seed, None);
    if off.metrics != on.metrics {
        return Err(format!("metrics diverged with profiling on {case}"));
    }
    if off.trace != on.trace {
        return Err(format!("trace JSONL diverged with profiling on {case}"));
    }
    if off.series != on.series {
        return Err(format!("series JSONL diverged with profiling on {case}"));
    }
    if off.prof.is_some() {
        return Err("unprofiled run rendered a prof document".to_string());
    }
    let doc = on.prof.ok_or("profiled run rendered no prof document")?;
    // The deterministic section must reproduce on a rerun.
    let rerun = render_run(protocol, &profiled, seed, None);
    let again = rerun.prof.as_deref().map(deterministic_section).unwrap_or_default();
    if deterministic_section(&doc) != again {
        return Err(format!("prof count/hist section not rerun-deterministic {case}"));
    }
    Ok(doc)
}

/// Purity plus the attribution gate for one case.
fn assert_pure_and_attributed(protocol: Protocol, scenario: &Scenario, seed: u64) {
    let doc =
        purity_check(protocol, scenario, seed).unwrap_or_else(|e| panic!("purity violated: {e}"));
    let view = ProfView::parse(&doc).unwrap_or_else(|e| panic!("prof export must parse: {e}"));
    assert!(
        view.attribution() >= 0.95,
        "kernel attributed only {:.2}% of wall time to named phases ({} {})",
        100.0 * view.attribution(),
        protocol.name(),
        scenario.label()
    );
}

/// The paper's two scenarios, cut down to smoke size.
fn smoke_scenarios() -> Vec<(Scenario, u64)> {
    let mut a = Scenario::n50(10, 30);
    a.duration_secs = 8;
    a.trials = 1;
    let mut b = Scenario::n100(30, 30);
    b.duration_secs = 5;
    b.trials = 1;
    vec![(a, 7001), (b, 7002)]
}

#[test]
fn profiling_is_observation_pure_on_the_sequential_kernel() {
    for (scenario, seed) in smoke_scenarios() {
        for proto in [Protocol::Ldr, Protocol::Aodv, Protocol::Dsr, Protocol::Olsr] {
            assert_pure_and_attributed(proto, &scenario, seed);
        }
    }
}
