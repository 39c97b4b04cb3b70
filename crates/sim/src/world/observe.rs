//! What observes a run without steering it: the loop auditor's
//! snapshot, the every-mutation invariant check, the time-series
//! sampler and the accessors that hand their results out. A child
//! module of [`super`], so these `impl World` blocks see the private
//! fields.

use super::World;
use crate::audit::ForensicReport;
use crate::loopcheck::{find_loops, LoopViolation};
use crate::packet::{ControlKind, NodeId};
use crate::prof::ProfSnapshot;
use crate::protocol::{successors, DropReason};
use crate::telemetry::{SampleBaseline, SeriesSample};
use crate::time::SimDuration;

impl World {
    /// The every-mutation auditor's first-violation forensic report, if
    /// [`SimConfig::invariant_audit`](crate::config::SimConfig::invariant_audit)
    /// is on and a breach occurred. Retrieve after
    /// [`World::run_until`]/[`World::finalize`] (the consuming
    /// [`World::run`] drops the world).
    pub fn forensic_report(&self) -> Option<&ForensicReport> {
        self.auditor.as_ref().and_then(|a| a.report())
    }

    /// Routing-decision trace events emitted by protocols so far.
    /// Intentionally not part of [`Metrics`](crate::metrics::Metrics):
    /// protocols emit only when a sink or auditor is attached.
    pub fn trace_events(&self) -> u64 {
        self.trace_events
    }

    /// A snapshot of the kernel profiler's accumulators, when
    /// [`SimConfig::profile`](crate::config::SimConfig::profile) is on.
    /// The snapshot pairs the profiler's own span counters with the
    /// kernel's dispatch counters. Render with
    /// [`crate::prof::prof_to_jsonl`].
    pub fn prof_snapshot(&self) -> Option<ProfSnapshot> {
        self.prof.as_ref().map(|p| p.snapshot(self.dispatch_counts, self.events_executed))
    }

    /// Time-series samples collected so far (one per elapsed
    /// [`crate::telemetry::TelemetryConfig::sample_interval`]).
    /// Retrieve after [`World::run_until`]; the consuming
    /// [`World::run`] drops the world.
    pub fn telemetry_series(&self) -> &[SeriesSample] {
        &self.series
    }

    /// The configured sampling interval, if telemetry is on.
    pub fn sample_interval(&self) -> Option<SimDuration> {
        self.cfg.telemetry.as_ref().map(|t| t.sample_interval)
    }

    /// Runs the loop auditor immediately; records and returns any
    /// violations.
    pub fn audit_now(&mut self) -> Vec<LoopViolation> {
        let tables: Vec<Vec<(NodeId, NodeId)>> =
            self.nodes.iter().map(|s| successors(&s.protocol.route_table_dump())).collect();
        let violations = find_loops(&tables);
        self.metrics.loop_violations += violations.len() as u64;
        violations
    }

    /// Snapshots one time-series sample. Strictly read-only with
    /// respect to simulation state: it touches metrics, route tables
    /// and queue depths, draws no randomness and mutates only the
    /// telemetry side (series, baseline).
    pub(super) fn take_sample(&mut self) {
        let m = &self.metrics;
        let delivered = m.data_delivered;
        let originated = m.data_originated;
        let mut control_tx = [0u64; ControlKind::ALL.len()];
        for (i, k) in ControlKind::ALL.iter().enumerate() {
            control_tx[i] = m.control_tx.get(k).copied().unwrap_or(0);
        }
        let mut drops = [0u64; DropReason::ALL.len()];
        for (i, r) in DropReason::ALL.iter().enumerate() {
            drops[i] = m.drops.get(r).copied().unwrap_or(0);
        }
        let mut route_entries = 0u64;
        let mut route_valid = 0u64;
        for s in &self.nodes {
            let t = s.protocol.telemetry_snapshot();
            route_entries += t.entries;
            route_valid += t.valid;
        }
        let base = self.sample_base;
        let mut control_tx_w = [0u64; ControlKind::ALL.len()];
        for (w, (cur, prev)) in
            control_tx_w.iter_mut().zip(control_tx.iter().zip(base.control_tx.iter()))
        {
            *w = cur.saturating_sub(*prev);
        }
        self.sample_base = SampleBaseline { delivered, originated, control_tx };
        self.series.push(SeriesSample {
            at: self.now,
            delivered,
            originated,
            delivered_w: delivered.saturating_sub(base.delivered),
            originated_w: originated.saturating_sub(base.originated),
            control_tx_w,
            drops,
            route_entries,
            route_valid,
            fel_depth: self.fel.len() as u64,
            events_by_kind: self.dispatch_counts,
        });
    }

    /// Re-checks the every-mutation invariants (fd monotonicity,
    /// successor acyclicity) if the auditor is attached. Route tables
    /// only mutate inside protocol callbacks, so running this after
    /// each one observes every table state the run passes through.
    pub(super) fn invariant_check(&mut self) {
        if self.auditor.is_none() {
            return;
        }
        let dumps: Vec<Vec<crate::protocol::RouteDump>> =
            self.nodes.iter().map(|s| s.protocol.route_table_dump()).collect();
        let tables: Vec<Vec<(NodeId, NodeId)>> = dumps.iter().map(|d| successors(d)).collect();
        let Some(aud) = self.auditor.as_mut() else { return };
        let new = aud.check(self.now, self.cfg.seed, &dumps, &tables);
        self.metrics.invariant_checks += 1;
        self.metrics.invariant_breaches += new;
    }
}
