//! Resumability and memoization differentials for the sweep engine
//! (ISSUE 9 satellite): a finished sweep re-runs with zero executed
//! cells and byte-identical BENCH output, an interrupted sweep resumes
//! with the remainder only and still matches a clean run byte for
//! byte, and the content-addressed cache serves cells across journals
//! — and across named grids that share cells.

use ldr_bench::grids::{grid, GridOpts};
use ldr_bench::scenario::{Protocol, Scenario};
use ldr_bench::sweep::{run_sweep, CellRecord, CellSpec, SweepConfig};
use std::path::{Path, PathBuf};

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ldr-sweep-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn cfg_in(dir: &Path) -> SweepConfig {
    let mut cfg = SweepConfig::rooted(dir);
    cfg.threads = 2;
    cfg
}

/// Six quick cells: 12 nodes, 10 s simulated, two protocols × seeds
/// {7, 8} × fault levels {0, 1} minus two cells to keep it snappy.
fn tiny_cells() -> Vec<CellSpec> {
    let mut sc = Scenario::n50(3, 0);
    sc.n_nodes = 12;
    sc.terrain = (700.0, 300.0);
    sc.duration_secs = 10;
    let mut cells = Vec::new();
    for protocol in [Protocol::Ldr, Protocol::Aodv] {
        for seed in [7u64, 8] {
            for level in [0u32, 1] {
                if protocol == Protocol::Aodv && level == 1 {
                    continue;
                }
                cells.push(CellSpec {
                    scenario_name: "tiny".to_string(),
                    scenario: sc.clone(),
                    protocol,
                    seed,
                    fault_level: level,
                });
            }
        }
    }
    assert_eq!(cells.len(), 6);
    cells
}

#[test]
fn rerun_executes_zero_cells_and_reproduces_bench_bytes() {
    let dir = fresh_dir("rerun");
    let cells = tiny_cells();
    let cfg = cfg_in(&dir);

    let first = run_sweep(&cells, &cfg).expect("clean sweep");
    assert!(first.complete());
    assert_eq!(first.executed, cells.len(), "cold start simulates everything");
    assert_eq!(first.failures(), 0);
    let bench_first = first.to_json("test");

    let second = run_sweep(&cells, &cfg).expect("rerun");
    assert!(second.complete());
    assert_eq!(second.executed, 0, "an unchanged tree must execute zero cells");
    assert_eq!(second.journal_hits, cells.len(), "every cell replayed from the journal");
    assert_eq!(second.to_json("test"), bench_first, "BENCH output must be byte-identical");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_sweep_resumes_remainder_only_and_matches_clean_run() {
    let clean_dir = fresh_dir("clean");
    let cells = tiny_cells();
    let clean = run_sweep(&cells, &cfg_in(&clean_dir)).expect("clean sweep");
    let bench_clean = clean.to_json("test");

    // "Kill" a sweep after 2 executed cells (max_cells models the
    // interruption: journal flushed per cell, process gone).
    let int_dir = fresh_dir("interrupted");
    let mut paused_cfg = cfg_in(&int_dir);
    paused_cfg.max_cells = Some(2);
    let paused = run_sweep(&cells, &paused_cfg).expect("paused sweep");
    assert!(!paused.complete());
    assert_eq!(paused.executed, 2);
    assert_eq!(paused.cells.iter().filter(|(_, r)| r.is_none()).count(), 4);

    // Restart without the cap: only the remainder runs.
    let resumed = run_sweep(&cells, &cfg_in(&int_dir)).expect("resumed sweep");
    assert!(resumed.complete());
    assert_eq!(resumed.executed, 4, "resume must complete the remainder only");
    assert_eq!(resumed.journal_hits, 2, "the interrupted cells come from the journal");
    assert_eq!(
        resumed.to_json("test"),
        bench_clean,
        "interrupted-then-resumed must match a clean run byte for byte"
    );

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&int_dir);
}

#[test]
fn content_addressed_cache_serves_cells_across_journals() {
    let dir = fresh_dir("cache");
    let cells = tiny_cells();
    let cfg = cfg_in(&dir);
    let first = run_sweep(&cells, &cfg).expect("clean sweep");

    // A different sweep (separate journal) sharing the cache dir: all
    // cells are memo hits, nothing simulates, bytes unchanged.
    let mut other = cfg.clone();
    other.journal = dir.join("journal-2.jsonl");
    let second = run_sweep(&cells, &other).expect("cache-served sweep");
    assert!(second.complete());
    assert_eq!(second.executed, 0);
    assert_eq!(second.journal_hits, 0);
    assert_eq!(second.memo_hits, cells.len(), "every cell must come from the cache");
    assert_eq!(second.to_json("test"), first.to_json("test"));

    // --fresh distrusts journal and cache alike.
    let mut fresh = cfg.clone();
    fresh.fresh = true;
    let third = run_sweep(&cells, &fresh).expect("fresh sweep");
    assert_eq!(third.executed, cells.len(), "--fresh must re-execute everything");
    assert_eq!(third.to_json("test"), first.to_json("test"), "and still agree bytewise");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journaled_failures_are_honored_but_never_cached() {
    let dir = fresh_dir("failed");
    let cells = tiny_cells();
    let cfg = cfg_in(&dir);

    // Pre-seed the journal with a failed record for the first cell, as
    // if a previous invocation's trial panicked.
    std::fs::create_dir_all(&cfg.cache_dir).expect("mkdir");
    let failed = CellRecord::Failed { panic_msg: "injected: trial panicked".to_string() };
    let line = ldr_bench::sweep::record_line(&cells[0].key(), &cells[0].display(), &failed);
    std::fs::write(&cfg.journal, format!("{line}\n")).expect("seed journal");

    let outcome = run_sweep(&cells, &cfg).expect("sweep with failed cell");
    assert!(outcome.complete());
    assert_eq!(outcome.executed, cells.len() - 1, "the failed cell is not re-run");
    assert_eq!(outcome.failures(), 1);
    assert_eq!(outcome.cells[0].1, Some(failed));
    assert!(
        !cfg.cache_dir.join(format!("{}.json", cells[0].key())).exists(),
        "failed cells must never enter the content-addressed cache"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn table1_after_the_delivery_figures_executes_nothing() {
    // §4 is one matrix: Table 1 averages exactly the cells Figs. 2–5
    // plot, so in a shared sweep dir it must be served from the cache.
    let dir = fresh_dir("cross-grid");
    let opts = GridOpts {
        trials: Some(1),
        duration: Some(3),
        pauses: Some(vec![0]),
        ..GridOpts::default()
    };
    // One journal per grid, as separate invocations sharing a cache.
    let cfg_for =
        |name: &str| SweepConfig { journal: dir.join(format!("{name}.jsonl")), ..cfg_in(&dir) };
    for fig in ["fig2", "fig3", "fig4", "fig5"] {
        let g = grid(fig, &opts).expect("registered");
        let out = run_sweep(&g.cells, &cfg_for(fig)).expect("figure sweep");
        assert_eq!(out.executed, g.cells.len(), "{fig}: cold cells simulate");
    }
    let t1 = grid("table1", &opts).expect("registered");
    let out = run_sweep(&t1.cells, &cfg_for("table1")).expect("table sweep");
    assert!(out.complete());
    assert_eq!(out.executed, 0, "Table 1 shares every cell with Figs. 2–5");
    assert_eq!(out.memo_hits, t1.cells.len());
    assert_eq!(t1.cells.len(), 2 * 2 * 4, "2 node counts × 2 flow counts × 4 protocols");

    let _ = std::fs::remove_dir_all(&dir);
}
