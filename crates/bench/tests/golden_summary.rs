//! Golden-summary regression: a small fig2-style multi-protocol run
//! with fixed seeds must render byte-for-byte identically to the pinned
//! fixture, so any drift in the simulator, the protocols or the
//! aggregation shows up as a diff instead of silently shifting results
//! — and one toy grid pins every renderer kind (protocol table, both
//! pause series, fault ladder, loop ladder) the same way.
//! Plus `Metrics`/`Summary` edge cases: zero-delivery flows, single-
//! trial variance and NaN-free percentiles.
//!
//! Regenerate the fixtures (after an *intentional* behaviour change)
//! with `BLESS=1 cargo test -p ldr-bench --test golden_summary`.

use ldr_bench::grids::{Grid, GridBuilder, Measure, Render};
use ldr_bench::runner::{run_once, trial_seed};
use ldr_bench::scenario::{Protocol, Scenario};
use ldr_bench::sweep::{run_sweep, CellMetrics, SweepConfig, SweepOutcome};
use ldr_bench::Summary;
use manet_sim::metrics::Metrics;
use manet_sim::stats::{percentile, Accumulator};
use manet_sim::time::SimDuration;

/// The pinned scenario: 10 nodes, fixed seeds, fig2-shaped but small
/// enough to run on every `cargo test`.
fn golden_scenario() -> Scenario {
    Scenario {
        n_nodes: 10,
        terrain: (600.0, 300.0),
        duration_secs: 30,
        trials: 2,
        seed_base: 2003,
        audit: true,
        ..Scenario::n50(3, 10)
    }
}

/// Renders the summaries exactly as the fixture stores them: the
/// Table-1-style row plus the audit counters the fault work added.
fn render(rows: &[Summary]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>16} {:>16} {:>16} {:>16} {:>14} {:>14} {:>6} {:>7}\n",
        "protocol",
        "delivery",
        "latency(s)",
        "net load",
        "RREQ load",
        "RREP init",
        "RREP recv",
        "loops",
        "trials"
    ));
    for r in rows {
        out.push_str(&format!("{} {:>6} {:>7}\n", r.table_row(), r.loop_violations, r.trials()));
    }
    out
}

const PROTOCOLS: [Protocol; 3] = [Protocol::Ldr, Protocol::Aodv, Protocol::Dsr];

/// The golden scenario at another pause time.
fn at_pause(pause_secs: u64) -> Scenario {
    Scenario { pause_secs, ..golden_scenario() }
}

/// Runs a toy grid through the sweep engine in a scratch directory.
fn sweep(tag: &str, grid: &Grid) -> SweepOutcome {
    let dir = std::env::temp_dir().join(format!("ldr-golden-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = run_sweep(&grid.cells, &SweepConfig::rooted(&dir)).expect("toy sweep");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.complete() && out.failures() == 0);
    out
}

/// Compares against (or, under `BLESS=1`, rewrites) a pinned fixture.
fn assert_golden(name: &str, actual: &str, expected: &str) {
    if std::env::var_os("BLESS").is_some() {
        let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(path, actual).expect("write fixture");
        return;
    }
    assert_eq!(
        actual, expected,
        "{name} drifted; if the change is intentional, regenerate with \
         BLESS=1 cargo test -p ldr-bench --test golden_summary"
    );
}

#[test]
fn fig2_style_summary_matches_pinned_fixture() {
    let mut b = GridBuilder::default();
    b.view("golden", Render::Table, &[0], &PROTOCOLS, |_| vec![(golden_scenario(), 0)]);
    let grid = b.finish("golden");
    let rows = grid.fold(&grid.views[0], &sweep("summary", &grid));
    assert_golden(
        "golden_summary.txt",
        &render(&rows),
        include_str!("fixtures/golden_summary.txt"),
    );
}

#[test]
fn every_renderer_kind_matches_its_pinned_toy_grid() {
    let mut b = GridBuilder::default();
    b.view(
        "Toy table — pauses 0 and 10 folded per protocol",
        Render::Table,
        &[0],
        &PROTOCOLS,
        |_| vec![(at_pause(0), 0), (at_pause(10), 0)],
    );
    for (title, measure) in
        [("Toy delivery series", Measure::Delivery), ("Toy seqno series", Measure::MeanSeqno)]
    {
        b.view(title, Render::Series(measure), &[0, 10], &PROTOCOLS, |p| vec![(at_pause(p), 0)]);
    }
    b.view("Toy fault ladder", Render::FaultLadder, &[0, 1, 2], &PROTOCOLS, |level| {
        vec![(golden_scenario(), level as u32)]
    });
    b.view("toy loop-audit ladder", Render::LoopLadder, &[0, 10], &PROTOCOLS, |p| {
        vec![(at_pause(p), 0)]
    });
    let grid = b.finish("toy");
    // Table, series and loop ladder re-read the same 12 cells; the
    // fault ladder adds levels 1–2 of the pause-10 scenario.
    assert_eq!(grid.cells.len(), 12 + 12);
    let (text, loop_free) = grid.render(&sweep("views", &grid));
    assert!(loop_free, "LDR must stay loop-free on the toy grid");
    assert_golden("golden_views.txt", &text, include_str!("fixtures/golden_views.txt"));
}

#[test]
fn table_fold_confidence_interval_sees_every_trial_not_group_means() {
    // Table 1 folds several (nodes, pause) groups into one row.
    // Pushing each group's *mean* once per trial would keep the row
    // mean but discard within-group variance and understate every ±;
    // the fold must equal an accumulator fed the raw samples.
    let pauses = [0u64, 10];
    let mut b = GridBuilder::default();
    b.view("t", Render::Table, &[0], &[Protocol::Ldr], |_| {
        pauses.iter().map(|&p| (at_pause(p), 0)).collect()
    });
    let grid = b.finish("ci");
    let row = grid.fold(&grid.views[0], &sweep("ci", &grid)).remove(0);

    let mut delivery = Accumulator::new();
    let mut latency = Accumulator::new();
    let mut group_means = Accumulator::new();
    for pause in pauses {
        let sc = at_pause(pause);
        let mut group = Accumulator::new();
        for k in 0..sc.trials {
            let m = run_once(Protocol::Ldr, &sc, trial_seed(sc.seed_base, k));
            delivery.push(m.delivery_ratio());
            latency.push(m.mean_latency_s());
            group.push(m.mean_latency_s());
        }
        for _ in 0..sc.trials {
            group_means.push(group.mean());
        }
    }
    assert_eq!(row.trials(), 4);
    assert_eq!(row.delivery.mean(), delivery.mean());
    assert_eq!(row.delivery.ci95_half_width(), delivery.ci95_half_width());
    assert_eq!(row.latency.ci95_half_width(), latency.ci95_half_width());
    assert!(
        row.latency.ci95_half_width() > group_means.ci95_half_width(),
        "a group-means fold must be strictly narrower on this data, or the test pins nothing"
    );
}

#[test]
fn zero_delivery_metrics_and_summary_are_nan_free() {
    // A flow that originates traffic but delivers nothing: every ratio
    // must degrade to 0, never NaN or infinity.
    let mut m = Metrics::new();
    m.data_originated = 50;
    assert_eq!(m.delivery_ratio(), 0.0);
    assert_eq!(m.mean_latency_s(), 0.0);
    for v in [m.network_load(), m.rreq_load(), m.rrep_init_per_rreq(), m.rrep_recv_per_rreq()] {
        assert!(v.is_finite(), "zero-delivery ratio must stay finite, got {v}");
    }
    let mut s = Summary::new("dead");
    s.add_cell(&CellMetrics::from_metrics(&m, 0));
    let row = s.table_row();
    assert!(!row.contains("NaN") && !row.contains("inf"), "row must be NaN-free: {row}");
}

#[test]
fn single_trial_summary_has_zero_finite_ci() {
    let mut m = Metrics::new();
    m.data_originated = 10;
    for i in 0..8u64 {
        m.record_delivery(1, i as u32, SimDuration::from_millis(25));
    }
    let mut s = Summary::new("solo");
    s.add_cell(&CellMetrics::from_metrics(&m, 0));
    assert_eq!(s.trials(), 1);
    // Student-t is undefined at zero degrees of freedom; the CI must
    // collapse to exactly zero rather than NaN or infinity.
    assert_eq!(s.delivery.ci95_half_width(), 0.0);
    assert_eq!(s.latency.ci95_half_width(), 0.0);
    assert_eq!(s.delivery.display(3), "0.800 ± 0.000");
}

#[test]
fn percentiles_and_accumulators_stay_nan_free_on_degenerate_data() {
    assert_eq!(percentile(&[], 95.0), 0.0);
    let latencies = [0.02, 0.05, 0.03, 0.9];
    assert!(percentile(&latencies, 95.0).is_finite());
    let empty = Accumulator::new();
    assert!(empty.mean().is_finite());
    assert!(empty.ci95_half_width().is_finite());
    assert!(!empty.display(3).contains("NaN"));
}
