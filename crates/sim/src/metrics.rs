//! Run metrics, mirroring the paper's six reported measures (§4):
//! delivery ratio, network load, RREQ load, data latency, RREP Init and
//! RREP Recv — plus supporting counters (drops, MAC stats, loop-audit
//! violations, mean destination sequence number for Fig. 7).

use crate::hash::{FxMap, FxSet};
use crate::packet::ControlKind;
use crate::protocol::{DropReason, ProtoCounter};
use crate::time::SimDuration;

/// Everything measured during one simulation run.
///
/// `PartialEq` compares every field (including float sums bit-for-bit
/// via `==`), which is what the grid-vs-linear differential tests rely
/// on: two byte-identical runs compare equal.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    /// CBR packets handed to the routing layer by sources.
    pub data_originated: u64,
    /// CBR packets delivered to their destination (first copy only).
    pub data_delivered: u64,
    /// Extra copies of already-delivered packets.
    pub duplicate_deliveries: u64,
    /// Hop-wise data transmissions (first MAC attempt per hop).
    pub data_tx_hops: u64,
    /// Sum of end-to-end latencies of delivered packets, seconds.
    pub latency_sum_s: f64,
    /// Hop-wise control transmissions by kind. (These counter maps are
    /// deterministic [`FxMap`]s — they are bumped on every
    /// control hop / drop / delivery, and every consumer is
    /// order-insensitive: point lookups, commutative sums and
    /// whole-map equality.)
    pub control_tx: FxMap<ControlKind, u64>,
    /// Control packets initiated (first transmission only) by kind.
    pub control_init: FxMap<ControlKind, u64>,
    /// Routing-layer data drops by reason.
    pub drops: FxMap<DropReason, u64>,
    /// Protocol-reported counters.
    pub proto: FxMap<ProtoCounter, u64>,
    /// Frames lost to interface-queue overflow.
    pub ifq_drops: u64,
    /// Unicast frames abandoned after the MAC retry limit.
    pub mac_retry_failures: u64,
    /// Frames corrupted by collisions (receptions, not transmissions).
    pub collisions: u64,
    /// Routing-table loops observed by the auditor (0 required for LDR).
    pub loop_violations: u64,
    /// Every-mutation invariant checks performed (0 unless
    /// `SimConfig::invariant_audit` is set).
    pub invariant_checks: u64,
    /// Invariant breaches (fd regressions + loops) the every-mutation
    /// auditor found.
    pub invariant_breaches: u64,
    /// Fault-plan actions the kernel fired ([`crate::faults`]).
    pub faults_injected: u64,
    /// Crash/restart cycles completed (restart instants).
    pub node_restarts: u64,
    /// Mean of each node's own destination sequence number at run end.
    pub mean_own_seqno: f64,
    /// Simulated run length, for rate normalisation.
    pub sim_seconds: f64,
    delivered_keys: FxSet<(u32, u32)>,
}

impl Metrics {
    /// A zeroed metrics record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a delivery; returns `false` (and counts a duplicate) if
    /// this `(flow, seq)` was already delivered.
    pub fn record_delivery(&mut self, flow: u32, seq: u32, latency: SimDuration) -> bool {
        if self.delivered_keys.insert((flow, seq)) {
            self.data_delivered += 1;
            self.latency_sum_s += latency.as_secs_f64();
            true
        } else {
            self.duplicate_deliveries += 1;
            false
        }
    }

    /// Increments a control-transmission counter.
    pub fn record_control_tx(&mut self, kind: ControlKind) {
        *self.control_tx.entry(kind).or_insert(0) += 1;
    }

    /// Increments a control-initiation counter.
    pub fn record_control_init(&mut self, kind: ControlKind) {
        *self.control_init.entry(kind).or_insert(0) += 1;
    }

    /// Increments a drop counter.
    pub fn record_drop(&mut self, reason: DropReason) {
        *self.drops.entry(reason).or_insert(0) += 1;
    }

    /// Adds to a protocol counter.
    pub fn record_proto(&mut self, which: ProtoCounter, amount: u64) {
        *self.proto.entry(which).or_insert(0) += amount;
    }

    /// Fraction of originated CBR packets that were delivered.
    pub fn delivery_ratio(&self) -> f64 {
        if self.data_originated == 0 {
            return 0.0;
        }
        self.data_delivered as f64 / self.data_originated as f64
    }

    /// Total hop-wise control transmissions of every kind.
    pub fn total_control_tx(&self) -> u64 {
        self.control_tx.values().sum()
    }

    /// The paper's "network load": control packets transmitted per
    /// received data packet.
    pub fn network_load(&self) -> f64 {
        safe_ratio(self.total_control_tx(), self.data_delivered)
    }

    /// The paper's "RREQ load": RREQs transmitted per received data
    /// packet.
    pub fn rreq_load(&self) -> f64 {
        safe_ratio(
            self.control_tx.get(&ControlKind::Rreq).copied().unwrap_or(0),
            self.data_delivered,
        )
    }

    /// Mean end-to-end data latency in seconds.
    pub fn mean_latency_s(&self) -> f64 {
        if self.data_delivered == 0 {
            return 0.0;
        }
        self.latency_sum_s / self.data_delivered as f64
    }

    /// The paper's "RREP Init": RREPs initiated per RREQ initiated.
    pub fn rrep_init_per_rreq(&self) -> f64 {
        safe_ratio(
            self.control_init.get(&ControlKind::Rrep).copied().unwrap_or(0),
            self.control_init.get(&ControlKind::Rreq).copied().unwrap_or(0),
        )
    }

    /// The paper's "RREP Recv": hop-wise *usable* RREPs received per
    /// RREQ initiated.
    pub fn rrep_recv_per_rreq(&self) -> f64 {
        safe_ratio(
            self.proto.get(&ProtoCounter::RrepUsableRecv).copied().unwrap_or(0),
            self.control_init.get(&ControlKind::Rreq).copied().unwrap_or(0),
        )
    }

    /// Hop-wise RREQ transmissions (broadcast flood volume).
    pub fn rreq_tx(&self) -> u64 {
        self.control_tx.get(&ControlKind::Rreq).copied().unwrap_or(0)
    }
}

fn safe_ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_dedup_and_latency() {
        let mut m = Metrics::new();
        m.data_originated = 4;
        assert!(m.record_delivery(1, 1, SimDuration::from_millis(10)));
        assert!(m.record_delivery(1, 2, SimDuration::from_millis(30)));
        assert!(!m.record_delivery(1, 1, SimDuration::from_millis(99)));
        assert_eq!(m.data_delivered, 2);
        assert_eq!(m.duplicate_deliveries, 1);
        assert!((m.delivery_ratio() - 0.5).abs() < 1e-12);
        assert!((m.mean_latency_s() - 0.020).abs() < 1e-12);
    }

    #[test]
    fn load_metrics() {
        let mut m = Metrics::new();
        m.data_originated = 10;
        for _ in 0..6 {
            m.record_control_tx(ControlKind::Rreq);
        }
        m.record_control_tx(ControlKind::Rrep);
        m.record_control_tx(ControlKind::Rerr);
        for _ in 0..2 {
            m.record_delivery(0, m.data_delivered as u32, SimDuration::ZERO);
        }
        assert_eq!(m.total_control_tx(), 8);
        assert!((m.network_load() - 4.0).abs() < 1e-12);
        assert!((m.rreq_load() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rrep_ratios() {
        let mut m = Metrics::new();
        for _ in 0..4 {
            m.record_control_init(ControlKind::Rreq);
        }
        for _ in 0..2 {
            m.record_control_init(ControlKind::Rrep);
        }
        m.record_proto(ProtoCounter::RrepUsableRecv, 6);
        assert!((m.rrep_init_per_rreq() - 0.5).abs() < 1e-12);
        assert!((m.rrep_recv_per_rreq() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_are_zero_not_nan() {
        let m = Metrics::new();
        assert_eq!(m.delivery_ratio(), 0.0);
        assert_eq!(m.network_load(), 0.0);
        assert_eq!(m.mean_latency_s(), 0.0);
        assert_eq!(m.rrep_init_per_rreq(), 0.0);
    }

    #[test]
    fn drop_and_proto_counters_accumulate() {
        let mut m = Metrics::new();
        m.record_drop(DropReason::NoRoute);
        m.record_drop(DropReason::NoRoute);
        m.record_drop(DropReason::TtlExpired);
        assert_eq!(m.drops[&DropReason::NoRoute], 2);
        assert_eq!(m.drops[&DropReason::TtlExpired], 1);
        m.record_proto(ProtoCounter::Salvage, 3);
        m.record_proto(ProtoCounter::Salvage, 2);
        assert_eq!(m.proto[&ProtoCounter::Salvage], 5);
    }
}
