//! Aggregation and table formatting for the paper's six metrics.

use crate::sweep::CellMetrics;
use manet_sim::stats::Accumulator;
use std::fmt::Write as _;

/// The scoreboard's throughput figure: kernel events per *simulated*
/// second per core (a trial runs on one). Both inputs are
/// deterministic (the kernel's event counter and the cell's
/// configuration), so — unlike a wall-clock rate — the column
/// reproduces byte-exactly on reruns and can live in committed
/// artifacts like `BENCH_6.json`-derived tables.
pub fn events_per_simsec_core(events: u64, sim_secs: u64) -> f64 {
    if sim_secs == 0 {
        0.0
    } else {
        events as f64 / sim_secs as f64
    }
}

/// One trial that panicked instead of producing metrics. The pool
/// catches the unwind, the sweep journals the cell as failed, and the
/// fold records it here — a single bad trial never discards the
/// completed cells around it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrialFailure {
    /// The trial's seed, for exact reproduction with
    /// [`run_once`](crate::runner::run_once).
    pub seed: u64,
    /// The panic payload, stringified.
    pub panic_msg: String,
}

/// Per-protocol aggregate over trials: the six §4 metrics plus the
/// Fig. 7 sequence-number measure and loop-audit results.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Protocol display name.
    pub protocol: String,
    /// Packet delivery ratio.
    pub delivery: Accumulator,
    /// Mean data latency (seconds).
    pub latency: Accumulator,
    /// Control packets transmitted per received data packet.
    pub net_load: Accumulator,
    /// RREQs transmitted per received data packet.
    pub rreq_load: Accumulator,
    /// RREPs initiated per RREQ initiated.
    pub rrep_init: Accumulator,
    /// Usable RREPs received per RREQ initiated.
    pub rrep_recv: Accumulator,
    /// Mean own destination sequence number at run end (Fig. 7).
    pub mean_seqno: Accumulator,
    /// Hop-wise RREQ transmissions per run.
    pub rreq_tx: Accumulator,
    /// Total routing-loop audit violations across trials.
    pub loop_violations: u64,
    /// Total every-mutation invariant checks performed across trials.
    pub invariant_checks: u64,
    /// Total invariant breaches (fd regressions + loops) found across
    /// trials.
    pub invariant_breaches: u64,
    /// Total fault-plan actions the kernel fired across trials.
    pub faults_injected: u64,
    /// Total crash/restart recoveries across trials.
    pub node_restarts: u64,
    /// Trials that panicked; excluded from every accumulator above.
    pub failed: Vec<TrialFailure>,
}

impl Summary {
    /// An empty summary for a protocol.
    pub fn new(protocol: impl Into<String>) -> Self {
        Summary {
            protocol: protocol.into(),
            delivery: Accumulator::new(),
            latency: Accumulator::new(),
            net_load: Accumulator::new(),
            rreq_load: Accumulator::new(),
            rrep_init: Accumulator::new(),
            rrep_recv: Accumulator::new(),
            mean_seqno: Accumulator::new(),
            rreq_tx: Accumulator::new(),
            loop_violations: 0,
            invariant_checks: 0,
            invariant_breaches: 0,
            faults_injected: 0,
            node_restarts: 0,
            failed: Vec::new(),
        }
    }

    /// Records a panicked trial (does not touch the metric
    /// accumulators — a failed trial produced none).
    pub fn record_failure(&mut self, seed: u64, panic_msg: String) {
        self.failed.push(TrialFailure { seed, panic_msg });
    }

    /// Folds one sweep cell (one trial) in. Every grid renderer
    /// aggregates through here, so a confidence interval always sees
    /// the per-trial samples themselves, never group means.
    pub fn add_cell(&mut self, m: &CellMetrics) {
        self.delivery.push(m.delivery);
        self.latency.push(m.latency_s);
        self.net_load.push(m.net_load);
        self.rreq_load.push(m.rreq_load);
        self.rrep_init.push(m.rrep_init);
        self.rrep_recv.push(m.rrep_recv);
        self.mean_seqno.push(m.mean_seqno);
        self.rreq_tx.push(m.rreq_tx as f64);
        self.loop_violations += m.loop_violations;
        self.invariant_checks += m.invariant_checks;
        self.invariant_breaches += m.invariant_breaches;
        self.faults_injected += m.faults_injected;
        self.node_restarts += m.node_restarts;
    }

    /// Number of trials folded in.
    pub fn trials(&self) -> u64 {
        self.delivery.count()
    }

    /// One formatted row of the Table-1-style report.
    pub fn table_row(&self) -> String {
        format!(
            "{:<12} {:>16} {:>16} {:>16} {:>16} {:>14} {:>14}",
            self.protocol,
            self.delivery.display(3),
            self.latency.display(3),
            self.net_load.display(2),
            self.rreq_load.display(2),
            self.rrep_init.display(2),
            self.rrep_recv.display(2),
        )
    }
}

/// Renders a Table-1-style block (header plus one row per summary).
pub fn render_table(title: &str, rows: &[Summary]) -> String {
    let mut out = format!("\n=== {title} ===\n");
    let _ = writeln!(
        out,
        "{:<12} {:>16} {:>16} {:>16} {:>16} {:>14} {:>14}",
        "protocol", "delivery", "latency(s)", "net load", "RREQ load", "RREP init", "RREP recv"
    );
    for r in rows {
        let _ = writeln!(out, "{}", r.table_row());
    }
    out
}

/// Renders a figure-style series: pause time against one `(mean, CI
/// half-width)` column per protocol; `points` is pause-major
/// (`points[i * protocols.len() + j]`).
pub fn render_series(
    title: &str,
    pauses: &[u64],
    protocols: &[String],
    points: &[(f64, f64)],
) -> String {
    let mut out = format!("\n=== {title} ===\n{:>10}", "pause(s)");
    for p in protocols {
        let _ = write!(out, " {p:>22}");
    }
    out.push('\n');
    for (x, row) in pauses.iter().zip(points.chunks(protocols.len().max(1))) {
        let _ = write!(out, "{x:>10}");
        for (mean, ci) in row {
            let _ = write!(out, " {mean:>13.4} ±{ci:>6.4}");
        }
        out.push('\n');
    }
    out
}

/// Renders the fault-degradation ladder: one row per `(level,
/// protocol)`, `rows` level-major. The loop column is the paper's
/// safety claim under fire.
pub fn render_fault_ladder(title: &str, levels: &[u64], rows: &[Summary]) -> String {
    let mut out = format!("\n=== {title} ===\n");
    let _ = writeln!(
        out,
        "{:>5} {:<10} {:>16} {:>16} {:>8} {:>9} {:>7}",
        "level", "protocol", "delivery", "latency(s)", "faults", "restarts", "loops"
    );
    let per_level = rows.len() / levels.len().max(1);
    for (level, block) in levels.iter().zip(rows.chunks(per_level.max(1))) {
        for s in block {
            let _ = writeln!(
                out,
                "{:>5} {:<10} {:>16} {:>16} {:>8} {:>9} {:>7}",
                level,
                s.protocol,
                s.delivery.display(3),
                s.latency.display(3),
                s.faults_injected,
                s.node_restarts,
                s.loop_violations,
            );
        }
    }
    out
}

/// Renders the loop-audit ladder (Theorem 4 at evaluation scale):
/// violations per pause time and protocol, `rows` pause-major, closed
/// by the LDR verdict line.
pub fn render_loop_ladder(
    title: &str,
    pauses: &[u64],
    protocols: &[String],
    rows: &[Summary],
) -> String {
    let mut out = format!("{title}\n{:>10}", "pause(s)");
    for p in protocols {
        let _ = write!(out, " {p:>12}");
    }
    out.push('\n');
    for (pause, block) in pauses.iter().zip(rows.chunks(protocols.len().max(1))) {
        let _ = write!(out, "{pause:>10}");
        for s in block {
            let _ = write!(out, " {:>12}", s.loop_violations);
        }
        out.push('\n');
    }
    let ldr_total = ldr_loop_violations(rows);
    if ldr_total == 0 {
        out.push_str("\nLDR: loop-free at every audited instant (Theorem 4 holds).\n");
    } else {
        let _ = writeln!(out, "\nLDR VIOLATED LOOP FREEDOM {ldr_total} TIMES — investigate!");
    }
    out
}

/// Loop-audit violations summed over the LDR rows.
pub fn ldr_loop_violations(rows: &[Summary]) -> u64 {
    rows.iter().filter(|s| s.protocol == "LDR").map(|s| s.loop_violations).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::metrics::Metrics;
    use manet_sim::time::SimDuration;

    fn cell(delivered: u64, originated: u64) -> CellMetrics {
        let mut m = Metrics::new();
        m.data_originated = originated;
        for i in 0..delivered {
            m.record_delivery(1, i as u32, SimDuration::from_millis(20));
        }
        m.invariant_checks = 5;
        m.invariant_breaches = 1;
        CellMetrics::from_metrics(&m, 0)
    }

    #[test]
    fn add_cell_accumulates_ratios_and_audit_counters() {
        let mut s = Summary::new("X");
        s.add_cell(&cell(90, 100));
        s.add_cell(&cell(80, 100));
        assert_eq!(s.trials(), 2);
        assert!((s.delivery.mean() - 0.85).abs() < 1e-12);
        assert_eq!(s.invariant_checks, 10);
        assert_eq!(s.invariant_breaches, 2);
    }

    #[test]
    fn failures_are_recorded_without_skewing_accumulators() {
        let mut a = Summary::new("X");
        a.add_cell(&cell(90, 100));
        a.record_failure(41, "index out of bounds".to_string());
        assert_eq!(a.trials(), 1, "a failed trial contributes no samples");
        assert_eq!(a.failed, [TrialFailure { seed: 41, panic_msg: "index out of bounds".into() }]);
    }

    #[test]
    fn table_row_contains_protocol_and_ci() {
        let mut s = Summary::new("LDR");
        s.add_cell(&cell(90, 100));
        s.add_cell(&cell(95, 100));
        let row = s.table_row();
        assert!(row.starts_with("LDR"));
        assert!(row.contains('±'));
    }
}
