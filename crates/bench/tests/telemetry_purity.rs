//! Telemetry is observation-pure and byte-deterministic.
//!
//! Two contracts, enforced for both paper scenarios (smoke-sized) and
//! every protocol family:
//!
//! 1. **Observation equivalence** — attaching the time-series sampler
//!    and a JSONL trace sink must not change a run's [`Metrics`]. The
//!    sampler rides the FEL as a real event, so this catches any
//!    seq/RNG leakage from the telemetry path into the simulation.
//! 2. **Byte determinism** — exporting the same `(scenario, seed)` run
//!    twice yields byte-identical trace and series documents, so a
//!    trace file is a stable forensic artifact.

use ldr_bench::forensics::{Json, TraceFile};
use ldr_bench::runner::run_once;
use ldr_bench::scenario::{Protocol, Scenario};
use ldr_bench::telemetry_export::render_run;

/// The paper's two scenarios, cut down to smoke size.
fn smoke_scenarios() -> Vec<(Scenario, u64)> {
    let mut a = Scenario::n50(10, 30);
    a.duration_secs = 20;
    a.trials = 1;
    let mut b = Scenario::n100(30, 30);
    b.duration_secs = 10;
    b.trials = 1;
    vec![(a, 4242), (b, 4243)]
}

#[test]
fn telemetry_never_perturbs_metrics() {
    for (scenario, seed) in smoke_scenarios() {
        for proto in [Protocol::Ldr, Protocol::Aodv, Protocol::Dsr, Protocol::Olsr] {
            let bare = run_once(proto, &scenario, seed);
            let run = render_run(proto, &scenario, seed, None);
            assert_eq!(
                bare,
                run.metrics,
                "{} on n{} diverged with telemetry attached",
                proto.name(),
                scenario.n_nodes
            );
        }
    }
}

#[test]
fn exports_are_byte_identical_across_reruns() {
    for (scenario, seed) in smoke_scenarios() {
        for proto in [Protocol::Ldr, Protocol::Aodv, Protocol::Dsr, Protocol::Olsr] {
            let first = render_run(proto, &scenario, seed, None);
            let again = render_run(proto, &scenario, seed, None);
            assert_eq!(first.trace, again.trace, "{} trace not reproducible", proto.name());
            assert_eq!(first.series, again.series, "{} series not reproducible", proto.name());
        }
    }
}

#[test]
fn every_exported_line_is_valid_jsonl() {
    let (scenario, seed) = smoke_scenarios().remove(0);
    for proto in [Protocol::Ldr, Protocol::Aodv, Protocol::Dsr, Protocol::Olsr] {
        let run = render_run(proto, &scenario, seed, None);
        let trace = TraceFile::parse(&run.trace)
            .unwrap_or_else(|e| panic!("{} trace rejected: {e}", proto.name()));
        assert!(!trace.events.is_empty(), "{} produced an empty trace", proto.name());
        for line in run.series.lines() {
            Json::parse(line)
                .unwrap_or_else(|| panic!("{} series line {line:?} is not JSON", proto.name()));
        }
        // DSR and OLSR must now narrate their route mutations too.
        if matches!(proto, Protocol::Dsr | Protocol::Olsr) {
            let installs = trace
                .events
                .iter()
                .filter(|e| e.str_field("type") == Some("route_install"))
                .count();
            assert!(installs > 0, "{} exported no route_install events", proto.name());
        }
    }
}
