//! The named-grid registry: every table and figure of the paper's §4
//! is one entry — a cell list plus the views that slice it — and all
//! of them run through the one executor, [`run_sweep`].
//!
//! §4 is *one* matrix ({50, 100 nodes} × {10, 30 flows} × pause times
//! × protocols × trials) that Table 1 averages and Figs. 2–7 slice, so
//! the entries share cells: the cache key of a cell depends only on
//! what can change its result, and `--grid table1` after
//! `fig2`…`fig5` executes nothing. A [`View`] is always an
//! `xs × protocols` matrix of [`Summary`] folds over per-trial
//! [`CellMetrics`](crate::sweep::CellMetrics); the [`Render`] kind
//! decides how the matrix prints. The scoreboard grids (`smoke`,
//! `full`) carry no views and print as
//! [`SweepOutcome::to_table`].
//!
//! [`run_sweep`]: crate::sweep::run_sweep

use crate::report::{
    ldr_loop_violations, render_fault_ladder, render_loop_ladder, render_series, render_table,
    Summary,
};
use crate::runner::trial_seed;
use crate::scenario::{Ablation, Protocol, Scenario, SimFlavor};
use crate::sweep::{cells_for, CellRecord, CellSpec, SweepOutcome};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Scale and overrides shared by every grid (`sweepbench`'s
/// `--full --trials --duration --pauses --audit`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GridOpts {
    /// Paper scale (900 s, 10 trials, full pause sweep, five fault
    /// levels) instead of the quick defaults.
    pub full: bool,
    /// Override the trial count.
    pub trials: Option<u32>,
    /// Override the run length in seconds.
    pub duration: Option<u64>,
    /// Override the pause-time sweep.
    pub pauses: Option<Vec<u64>>,
    /// Run the loop auditor during every run.
    pub audit: bool,
}

impl GridOpts {
    /// The pause sweep this invocation uses.
    pub fn pause_sweep(&self) -> Vec<u64> {
        match &self.pauses {
            Some(p) => p.clone(),
            None if self.full => Scenario::PAUSE_SWEEP.to_vec(),
            None => Scenario::PAUSE_SWEEP_QUICK.to_vec(),
        }
    }

    /// The paper's §4 scenario at a `(nodes, flows, pause)` point, with
    /// scale and overrides applied.
    pub fn scenario(&self, n_nodes: usize, n_flows: usize, pause_secs: u64) -> Scenario {
        let mut s = if n_nodes <= 50 {
            Scenario::n50(n_flows, pause_secs)
        } else {
            Scenario::n100(n_flows, pause_secs)
        };
        if !self.full {
            s = s.quick();
        }
        if let Some(t) = self.trials {
            s.trials = t;
        }
        if let Some(d) = self.duration {
            s.duration_secs = d;
        }
        s.audit = self.audit;
        s
    }
}

/// Which §4 measure a pause series plots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Measure {
    /// Packet delivery ratio (Figs. 2–6).
    Delivery,
    /// Mean destination sequence number at run end (Fig. 7).
    MeanSeqno,
}

/// How a view's `xs × protocols` matrix of summaries prints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Render {
    /// Table-1-style block: one row per protocol (a single x).
    Table,
    /// Figure-style series: x = pause time, one column per protocol.
    Series(Measure),
    /// Fault ladder: x = fault level, one row per `(level, protocol)`.
    FaultLadder,
    /// Loop-audit ladder: x = pause time, loop violations per
    /// protocol, closed by the LDR verdict.
    LoopLadder,
}

/// One printed block of a grid.
#[derive(Clone, Debug)]
pub struct View {
    /// Block title.
    pub title: String,
    /// Layout.
    pub render: Render,
    /// The x axis (pause times or fault levels; `[0]` for a table).
    pub xs: Vec<u64>,
    /// One column (series) or row (table, ladder) per protocol.
    pub protocols: Vec<Protocol>,
    /// x-major: `groups[i * protocols.len() + j]` indexes the grid
    /// cells (one per trial) folded into the summary at
    /// `(xs[i], protocols[j])`.
    pub groups: Vec<Vec<usize>>,
}

/// A runnable grid: unique cells for [`run_sweep`](crate::sweep::run_sweep)
/// plus the views that print them.
#[derive(Clone, Debug)]
pub struct Grid {
    /// Registry name; also the `mode` of the rendered BENCH JSON.
    pub name: String,
    /// Every cell once, in first-use order.
    pub cells: Vec<CellSpec>,
    /// Printed blocks (empty for the scoreboard grids).
    pub views: Vec<View>,
}

/// Accumulates a grid: cells deduplicated by content key, so views —
/// and whole grids, for `paper` — can overlap freely.
#[derive(Default)]
pub struct GridBuilder {
    cells: Vec<CellSpec>,
    by_key: BTreeMap<String, usize>,
    views: Vec<View>,
}

impl GridBuilder {
    fn cell(&mut self, spec: CellSpec) -> usize {
        let next = self.cells.len();
        let i = *self.by_key.entry(spec.key()).or_insert(next);
        if i == next {
            self.cells.push(spec);
        }
        i
    }

    /// Adds a view. `points(x)` lists the `(scenario, fault level)`
    /// points folded together at `x`; each expands to the scenario's
    /// `trials` seeds, for every protocol.
    pub fn view(
        &mut self,
        title: impl Into<String>,
        render: Render,
        xs: &[u64],
        protocols: &[Protocol],
        points: impl Fn(u64) -> Vec<(Scenario, u32)>,
    ) {
        let mut groups = Vec::with_capacity(xs.len() * protocols.len());
        for &x in xs {
            let points = points(x);
            for &protocol in protocols {
                let mut group = Vec::new();
                for (scenario, fault_level) in &points {
                    let alt = if scenario.flavor == SimFlavor::Alt { "-alt" } else { "" };
                    for k in 0..scenario.trials {
                        group.push(self.cell(CellSpec {
                            scenario_name: format!("{}{alt}", scenario.label()),
                            scenario: scenario.clone(),
                            protocol,
                            seed: trial_seed(scenario.seed_base, k),
                            fault_level: *fault_level,
                        }));
                    }
                }
                groups.push(group);
            }
        }
        self.views.push(View {
            title: title.into(),
            render,
            xs: xs.to_vec(),
            protocols: protocols.to_vec(),
            groups,
        });
    }

    /// The finished grid.
    pub fn finish(self, name: &str) -> Grid {
        Grid { name: name.to_string(), cells: self.cells, views: self.views }
    }
}

// ----- the registry -----------------------------------------------------

type Build = fn(&mut GridBuilder, &GridOpts);

/// Every named grid: `(name, what it regenerates, builder)`.
pub const GRIDS: [(&str, &str, Build); 13] = [
    ("smoke", "CI scoreboard: 2 scenarios × 4 protocols × fault levels 0–1, 60 s, 1 seed", smoke),
    ("full", "paper-scale scoreboard: fault levels 0–2, 900 s, 3 seeds", full),
    ("table1", "Table 1: every §4 metric averaged over pauses and node counts", table1),
    ("fig2", "Fig. 2: delivery vs pause, 50 nodes, 10 flows", fig2),
    ("fig3", "Fig. 3: delivery vs pause, 50 nodes, 30 flows", fig3),
    ("fig4", "Fig. 4: delivery vs pause, 100 nodes, 10 flows", fig4),
    ("fig5", "Fig. 5: delivery vs pause, 100 nodes, 30 flows", fig5),
    ("fig6", "Fig. 6: Fig. 3 under the alternate simulator flavour, DSR draft 7", fig6),
    ("fig7", "Fig. 7: mean destination sequence number vs pause, LDR vs AODV", fig7),
    ("ablation", "each LDR optimisation disabled in turn, 50 nodes, 10 flows", ablation),
    ("faults", "delivery/latency/loops vs fault intensity, LDR vs AODV vs DSR", faults),
    ("loopcheck", "Theorem 4 at evaluation scale: audited loop violations", loopcheck),
    ("paper", "everything above except the scoreboards, at 10 × 900 s", paper),
];

/// Builds the named grid, or `None` for an unknown name.
pub fn grid(name: &str, opts: &GridOpts) -> Option<Grid> {
    let (_, _, build) = GRIDS.iter().find(|(n, _, _)| *n == name)?;
    let mut b = GridBuilder::default();
    build(&mut b, opts);
    Some(b.finish(name))
}

fn scoreboard(b: &mut GridBuilder, opts: &GridOpts, duration: u64, trials: u32, levels: &[u32]) {
    for cell in cells_for(opts.duration.unwrap_or(duration), opts.trials.unwrap_or(trials), levels)
    {
        b.cell(cell);
    }
}

fn smoke(b: &mut GridBuilder, opts: &GridOpts) {
    scoreboard(b, opts, 60, 1, &[0, 1]);
}

fn full(b: &mut GridBuilder, opts: &GridOpts) {
    scoreboard(b, opts, 900, 3, &[0, 1, 2]);
}

fn table1(b: &mut GridBuilder, opts: &GridOpts) {
    let pauses = opts.pause_sweep();
    for flows in [10usize, 30] {
        b.view(
            format!("Table 1 — {flows} flows (mean ± 95% CI over pause times and node counts)"),
            Render::Table,
            &[0],
            &Protocol::PAPER_SET,
            |_| {
                let at = |nodes| pauses.iter().map(move |&p| (opts.scenario(nodes, flows, p), 0));
                at(50).chain(at(100)).collect()
            },
        );
    }
}

fn delivery_figure(
    b: &mut GridBuilder,
    opts: &GridOpts,
    title: &str,
    (n_nodes, n_flows): (usize, usize),
    flavor: SimFlavor,
    dsr_variant: Protocol,
) {
    b.view(
        title,
        Render::Series(Measure::Delivery),
        &opts.pause_sweep(),
        &[Protocol::Ldr, Protocol::Aodv, dsr_variant, Protocol::Olsr],
        |pause| vec![(Scenario { flavor, ..opts.scenario(n_nodes, n_flows, pause) }, 0)],
    );
}

fn fig2(b: &mut GridBuilder, opts: &GridOpts) {
    let title = "Fig. 2 — delivery ratio, 50 nodes, 10 flows";
    delivery_figure(b, opts, title, (50, 10), SimFlavor::Default, Protocol::Dsr);
}

fn fig3(b: &mut GridBuilder, opts: &GridOpts) {
    let title = "Fig. 3 — delivery ratio, 50 nodes, 30 flows";
    delivery_figure(b, opts, title, (50, 30), SimFlavor::Default, Protocol::Dsr);
}

fn fig4(b: &mut GridBuilder, opts: &GridOpts) {
    let title = "Fig. 4 — delivery ratio, 100 nodes, 10 flows";
    delivery_figure(b, opts, title, (100, 10), SimFlavor::Default, Protocol::Dsr);
}

fn fig5(b: &mut GridBuilder, opts: &GridOpts) {
    let title = "Fig. 5 — delivery ratio, 100 nodes, 30 flows";
    delivery_figure(b, opts, title, (100, 30), SimFlavor::Default, Protocol::Dsr);
}

fn fig6(b: &mut GridBuilder, opts: &GridOpts) {
    let title = "Fig. 6 — delivery ratio, 50 nodes, 30 flows (alternate simulator, DSR draft 7)";
    delivery_figure(b, opts, title, (50, 30), SimFlavor::Alt, Protocol::Dsr7);
}

fn fig7(b: &mut GridBuilder, opts: &GridOpts) {
    for flows in [10usize, 30] {
        b.view(
            format!("Fig. 7 — mean destination sequence number, 50 nodes, {flows} flows"),
            Render::Series(Measure::MeanSeqno),
            &opts.pause_sweep(),
            &[Protocol::Ldr, Protocol::Aodv],
            |pause| vec![(opts.scenario(50, flows, pause), 0)],
        );
    }
}

fn ablation(b: &mut GridBuilder, opts: &GridOpts) {
    let variants = [
        Protocol::Ldr,
        Protocol::LdrWithout(Ablation::MultipleRreps),
        Protocol::LdrWithout(Ablation::RequestAsError),
        Protocol::LdrWithout(Ablation::ReducedDistance),
        Protocol::LdrWithout(Ablation::MinimumLifetime),
        Protocol::LdrWithout(Ablation::OptimalTtl),
        Protocol::LdrNoOpts,
    ];
    let pauses = opts.pause_sweep();
    b.view(
        "Ablation — LDR optimisations, 50 nodes, 10 flows",
        Render::Table,
        &[0],
        &variants,
        |_| pauses.iter().map(|&p| (opts.scenario(50, 10, p), 0)).collect(),
    );
}

/// Every protocol faces the *same* per-trial fault plans (the schedule
/// is a pure function of scenario, seed and level), so the rows are
/// directly comparable: LDR must stay at zero loops while AODV's
/// restart unsoundness is allowed to show.
fn faults(b: &mut GridBuilder, opts: &GridOpts) {
    let levels: &[u64] = if opts.full { &[0, 1, 2, 3, 4] } else { &[0, 1, 2] };
    // The loop column needs the auditor.
    let sc = Scenario { audit: true, ..opts.scenario(50, 10, 60) };
    b.view(
        format!(
            "Fault degradation — {} nodes, {} flows, {} trials/cell",
            sc.n_nodes, sc.n_flows, sc.trials
        ),
        Render::FaultLadder,
        levels,
        &[Protocol::Ldr, Protocol::Aodv, Protocol::Dsr],
        |level| vec![(sc.clone(), level as u32)],
    );
}

fn loopcheck(b: &mut GridBuilder, opts: &GridOpts) {
    let opts = GridOpts { audit: true, ..opts.clone() };
    b.view(
        "routing-loop audit violations (sampled once per simulated second)",
        Render::LoopLadder,
        &opts.pause_sweep(),
        &Protocol::PAPER_SET,
        |pause| vec![(opts.scenario(50, 10, pause), 0)],
    );
}

fn paper(b: &mut GridBuilder, opts: &GridOpts) {
    let opts = GridOpts { full: true, ..opts.clone() };
    for build in [table1, fig2, fig3, fig4, fig5, fig6, fig7, ablation, faults, loopcheck] {
        build(b, &opts);
    }
}

// ----- folding and rendering --------------------------------------------

impl Grid {
    /// Folds one view's groups into summaries (same x-major layout as
    /// [`View::groups`]). Pending cells contribute nothing; panicked
    /// ones land in [`Summary::failed`].
    pub fn fold(&self, view: &View, out: &SweepOutcome) -> Vec<Summary> {
        let names = view.protocols.iter().cycle();
        view.groups
            .iter()
            .zip(names)
            .map(|(group, protocol)| {
                let mut s = Summary::new(protocol.name());
                for &i in group {
                    match &out.cells[i].1 {
                        Some(CellRecord::Done(m)) => s.add_cell(m),
                        Some(CellRecord::Failed { panic_msg }) => {
                            s.record_failure(self.cells[i].seed, panic_msg.clone())
                        }
                        None => {}
                    }
                }
                s
            })
            .collect()
    }

    /// Renders every view (or the scoreboard table, for a grid without
    /// views) from a sweep over [`Grid::cells`]. The flag is the
    /// loop-freedom gate: `false` iff a loop ladder caught LDR looping.
    pub fn render(&self, out: &SweepOutcome) -> (String, bool) {
        if self.views.is_empty() {
            return (out.to_table(&self.name), true);
        }
        let mut text = String::new();
        let mut loop_free = true;
        for view in &self.views {
            let rows = self.fold(view, out);
            let names: Vec<String> = view.protocols.iter().map(|p| p.name()).collect();
            text.push_str(&match view.render {
                Render::Table => render_table(&view.title, &rows),
                Render::Series(measure) => {
                    let points: Vec<(f64, f64)> = rows
                        .iter()
                        .map(|s| match measure {
                            Measure::Delivery => &s.delivery,
                            Measure::MeanSeqno => &s.mean_seqno,
                        })
                        .map(|acc| (acc.mean(), acc.ci95_half_width()))
                        .collect();
                    render_series(&view.title, &view.xs, &names, &points)
                }
                Render::FaultLadder => render_fault_ladder(&view.title, &view.xs, &rows),
                Render::LoopLadder => {
                    loop_free &= ldr_loop_violations(&rows) == 0;
                    render_loop_ladder(&view.title, &view.xs, &names, &rows)
                }
            });
            for (i, s) in rows.iter().enumerate().filter(|(_, s)| !s.failed.is_empty()) {
                let seeds: Vec<String> = s.failed.iter().map(|f| f.seed.to_string()).collect();
                let _ = writeln!(
                    text,
                    "  ! {} at x={}: {} trial(s) panicked and are excluded (seeds {})",
                    s.protocol,
                    view.xs[i / view.protocols.len()],
                    s.failed.len(),
                    seeds.join(", ")
                );
            }
        }
        (text, loop_free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> GridOpts {
        GridOpts { trials: Some(2), duration: Some(60), ..GridOpts::default() }
    }

    #[test]
    fn opts_default_to_quick_and_honour_overrides() {
        let quick = GridOpts::default();
        assert_eq!(quick.pause_sweep(), Scenario::PAUSE_SWEEP_QUICK.to_vec());
        let s = quick.scenario(50, 10, 0);
        assert_eq!((s.trials, s.duration_secs, s.audit), (3, 200, false));
        let full = GridOpts { full: true, audit: true, ..GridOpts::default() };
        assert_eq!(full.pause_sweep(), Scenario::PAUSE_SWEEP.to_vec());
        let s = full.scenario(100, 30, 900);
        assert_eq!((s.n_nodes, s.trials, s.duration_secs, s.audit), (100, 10, 900, true));
        let over = GridOpts { pauses: Some(vec![0, 60]), ..tiny_opts() };
        assert_eq!(over.pause_sweep(), vec![0, 60]);
        let s = over.scenario(50, 10, 60);
        assert_eq!((s.trials, s.duration_secs), (2, 60));
    }

    #[test]
    fn every_named_grid_has_unique_cell_keys_and_complete_views() {
        for (name, _, _) in GRIDS {
            let g = grid(name, &tiny_opts()).expect("registered");
            let mut keys: Vec<String> = g.cells.iter().map(CellSpec::key).collect();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), g.cells.len(), "{name}: duplicate cell keys");
            assert!(!g.cells.is_empty(), "{name}: empty grid");
            for v in &g.views {
                assert_eq!(v.groups.len(), v.xs.len() * v.protocols.len(), "{name}: ragged view");
                assert!(v.groups.iter().flatten().all(|&i| i < g.cells.len()));
            }
        }
        assert!(grid("fig8", &tiny_opts()).is_none());
    }

    #[test]
    fn smoke_is_exactly_the_committed_scoreboard_grid() {
        // BENCH_6.json records these 16 cells in this order.
        let g = grid("smoke", &GridOpts::default()).expect("registered");
        assert_eq!(g.cells, cells_for(60, 1, &[0, 1]));
        assert_eq!(g.cells.len(), 2 * 4 * 2, "2 scenarios × 4 protocols × 2 levels × 1 trial");
        assert!(g.views.is_empty());
        assert_eq!(g.cells[0].display(), "n50-f10-p0/LDR/L0/s1000");
        assert_eq!(g.cells[15].display(), "n100-f30-p0/OLSR/L1/s1000");
        let full = grid("full", &GridOpts::default()).expect("registered");
        assert_eq!(full.cells, cells_for(900, 3, &[0, 1, 2]));
    }

    #[test]
    fn table1_is_the_union_of_the_delivery_figures_and_fig7_a_subset() {
        let keys = |name: &str| -> Vec<String> {
            grid(name, &tiny_opts()).expect("registered").cells.iter().map(CellSpec::key).collect()
        };
        let mut figs: Vec<String> =
            ["fig2", "fig3", "fig4", "fig5"].iter().flat_map(|f| keys(f)).collect();
        figs.sort();
        let mut t1 = keys("table1");
        t1.sort();
        assert_eq!(t1, figs, "Table 1 averages exactly the cells Figs. 2–5 plot");
        assert!(keys("fig7").iter().all(|k| figs.contains(k)), "Fig. 7 re-reads Figs. 2–3's cells");
        assert!(keys("fig6").iter().all(|k| !figs.contains(k)), "the alt flavour is its own cells");
        // The auditor changes what a run records, so it must change the key.
        assert!(keys("loopcheck").iter().all(|k| !figs.contains(k)));
    }

    #[test]
    fn loop_ladder_trips_the_gate_and_panicked_trials_are_called_out() {
        use crate::sweep::{CellMetrics, SweepOutcome};
        let g = grid("loopcheck", &GridOpts { pauses: Some(vec![0]), ..tiny_opts() }).expect("ok");
        let metrics = |loops| {
            let mut m = manet_sim::metrics::Metrics::new();
            m.loop_violations = loops;
            CellRecord::Done(CellMetrics::from_metrics(&m, 0))
        };
        let outcome = |ldr_loops| SweepOutcome {
            cells: g
                .cells
                .iter()
                .map(|c| match (c.protocol, c.seed) {
                    (Protocol::Ldr, _) => (c.clone(), Some(metrics(ldr_loops))),
                    (Protocol::Olsr, 1001) => {
                        (c.clone(), Some(CellRecord::Failed { panic_msg: "boom".into() }))
                    }
                    _ => (c.clone(), Some(metrics(7))),
                })
                .collect(),
            executed: 0,
            memo_hits: 0,
            journal_hits: 0,
        };
        let (text, loop_free) = g.render(&outcome(0));
        assert!(loop_free, "other protocols looping must not trip the LDR gate");
        assert!(text.contains("LDR: loop-free at every audited instant"));
        assert!(text.contains("! OLSR at x=0: 1 trial(s) panicked and are excluded (seeds 1001)"));
        let (text, loop_free) = g.render(&outcome(2));
        assert!(!loop_free);
        assert!(text.contains("LDR VIOLATED LOOP FREEDOM 4 TIMES"), "{text}");
    }

    #[test]
    fn paper_is_the_full_scale_union_without_duplicates() {
        let opts = GridOpts { trials: Some(1), duration: Some(30), ..GridOpts::default() };
        let paper = grid("paper", &opts).expect("registered");
        let full = GridOpts { full: true, ..opts };
        let mut union: Vec<String> = Vec::new();
        let mut views = 0;
        for name in [
            "table1",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "ablation",
            "faults",
            "loopcheck",
        ] {
            let g = grid(name, &full).expect("registered");
            union.extend(g.cells.iter().map(CellSpec::key));
            views += g.views.len();
        }
        union.sort();
        union.dedup();
        let mut keys: Vec<String> = paper.cells.iter().map(CellSpec::key).collect();
        keys.sort();
        assert_eq!(keys, union);
        assert_eq!(paper.views.len(), views);
        assert!(paper.cells.iter().any(|c| c.fault_level == 4), "paper runs the deep fault ladder");
        assert!(paper.cells.iter().any(|c| c.scenario.pause_secs == 900));
    }
}
