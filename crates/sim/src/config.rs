//! Simulator configuration.

use crate::faults::FaultPlan;
use crate::telemetry::TelemetryConfig;
use crate::time::SimDuration;

/// Channel bit rate: 802.11's 2 Mbit/s DSSS rate.
pub const BANDWIDTH_BPS: u64 = 2_000_000;
/// 802.11 DSSS `aSlotTime`, the backoff slot.
pub const SLOT: SimDuration = SimDuration::from_micros(20);
/// 802.11 DSSS `aSIFSTime`, the short inter-frame space before an ACK.
pub const SIFS: SimDuration = SimDuration::from_micros(10);
/// 802.11 DIFS (`SIFS + 2 · aSlotTime`), the distributed inter-frame
/// space before data and backoff.
pub const DIFS: SimDuration = SimDuration::from_micros(50);
/// 802.11 DSSS `aCWmax`, the contention window's ceiling in slots.
pub const CW_MAX: u32 = 1023;
/// Interface (transmit) queue capacity in frames: ns-2's 50-packet
/// `IFQ`.
pub const IFQ_CAP: usize = 50;
/// One-way propagation delay (constant; ≤ 275 m is under 1 µs).
pub const PROP_DELAY: SimDuration = SimDuration::from_micros(1);
/// 802.11 MAC framing (header + FCS) added to every payload frame, bytes.
pub const MAC_HEADER_BYTES: usize = 34;
/// Size of an 802.11 ACK frame, bytes.
pub const ACK_BYTES: usize = 14;

/// Physical- and link-layer parameters (an IEEE 802.11-DCF-style radio,
/// matching the evaluation's 275 m transmission range and 2 Mbit/s rate).
/// The fields are what Fig. 6's [`PhyConfig::alt_flavor`] varies, the
/// range and the capture instrument; the rest of the radio is the
/// constants above.
#[derive(Clone, Debug, PartialEq)]
pub struct PhyConfig {
    /// Transmission/carrier-sense range in metres (unit-disk).
    pub range_m: f64,
    /// 802.11 `aCWmin`: the minimum contention window (slots, inclusive
    /// upper bound `cw`).
    pub cw_min: u32,
    /// 802.11 `dot11ShortRetryLimit`: maximum transmission attempts for
    /// a unicast frame before the MAC declares the link broken.
    pub retry_limit: u32,
    /// PLCP preamble + header airtime prepended to every frame.
    pub preamble: SimDuration,
    /// Physical capture: when two frames overlap at a receiver, the
    /// earlier frame survives if its transmitter is at least this
    /// factor closer than the interferer (≈ the SNR capture threshold
    /// of real radios and of GloMoSim's PHY). `None` disables capture:
    /// any overlap corrupts both frames.
    pub capture_distance_ratio: Option<f64>,
}

impl Default for PhyConfig {
    fn default() -> Self {
        PhyConfig {
            range_m: 275.0,
            cw_min: 31,
            retry_limit: 7,
            preamble: SimDuration::from_micros(192),
            // Off by default: the recorded experiment results were
            // produced with overlap-corrupts-both physics. Enable for
            // more forgiving (capture-capable) radios.
            capture_distance_ratio: None,
        }
    }
}

impl PhyConfig {
    /// Airtime of a frame whose network-layer size is `bytes`
    /// (preamble + MAC framing + payload at the channel rate).
    pub fn tx_duration(&self, bytes: usize) -> SimDuration {
        let total_bits = (bytes + MAC_HEADER_BYTES) as u64 * 8;
        let ns = total_bits * 1_000_000_000 / BANDWIDTH_BPS;
        self.preamble + SimDuration::from_nanos(ns)
    }

    /// Airtime of an ACK frame.
    pub fn ack_duration(&self) -> SimDuration {
        let ns = (ACK_BYTES as u64 * 8) * 1_000_000_000 / BANDWIDTH_BPS;
        self.preamble + SimDuration::from_nanos(ns)
    }

    /// How long a unicast sender waits for an ACK after its transmission
    /// ends before counting a failed attempt.
    pub fn ack_timeout(&self) -> SimDuration {
        SIFS + self.ack_duration() + PROP_DELAY.saturating_mul(2) + SimDuration::from_micros(5)
    }

    /// An alternate parameterisation used by the Fig. 6 cross-check
    /// (the paper re-ran one scenario in Qualnet 3.5.2; we emulate
    /// "a different simulator" with different contention timing).
    pub fn alt_flavor() -> Self {
        PhyConfig {
            cw_min: 15,
            retry_limit: 6,
            preamble: SimDuration::from_micros(96),
            ..PhyConfig::default()
        }
    }
}

/// Whole-run configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Radio/MAC parameters.
    pub phy: PhyConfig,
    /// Simulated run length (900 s in the paper).
    pub duration: SimDuration,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// If set, run the routing-loop auditor every interval (and record
    /// violations in the metrics).
    pub audit_interval: Option<SimDuration>,
    /// Run the every-mutation invariant auditor
    /// ([`crate::audit::InvariantAuditor`]): after each protocol
    /// callback, check fd-monotonicity-per-seqno and successor-graph
    /// acyclicity, and capture a forensic dump on the first violation.
    /// Much more expensive than the periodic loop audit; for tests and
    /// protocol debugging.
    pub invariant_audit: bool,
    /// Deterministic fault schedule executed by the event kernel
    /// ([`crate::faults`]). `None` runs fault-free.
    pub fault_plan: Option<FaultPlan>,
    /// Observability layer ([`crate::telemetry`]): the time-series
    /// sampler. `None` runs with telemetry fully off.
    /// Telemetry is observation-pure — enabling it may not change one
    /// observable bit of the run (metrics and trace are byte-identical
    /// either way; enforced by test).
    pub telemetry: Option<TelemetryConfig>,
    /// Attach the deterministic kernel profiler ([`crate::prof`]):
    /// per-phase wall-time attribution, phase counts and the FEL-depth
    /// histogram, exported as `manet-prof` JSONL. The profiler is strictly observational —
    /// its wall-clock readings never feed simulation state, so a
    /// profiled run is byte-identical (metrics, trace and telemetry)
    /// to an unprofiled one (enforced by differential tests). Off by
    /// default; when off, no wall clock is ever read.
    pub profile: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            phy: PhyConfig::default(),
            duration: SimDuration::from_secs(900),
            seed: 1,
            audit_interval: None,
            invariant_audit: false,
            fault_plan: None,
            telemetry: None,
            profile: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_duration_scales_with_size() {
        let phy = PhyConfig::default();
        // 532-byte packet + 34-byte MAC header = 566 B = 4528 bits at
        // 2 Mb/s = 2264 µs, plus 192 µs preamble.
        let d = phy.tx_duration(532);
        assert_eq!(d.as_micros(), 2264 + 192);
        assert!(phy.tx_duration(100) < phy.tx_duration(500));
    }

    #[test]
    fn ack_shorter_than_data() {
        let phy = PhyConfig::default();
        assert!(phy.ack_duration() < phy.tx_duration(532));
        assert!(phy.ack_timeout() > phy.ack_duration());
    }

    #[test]
    fn default_matches_paper_parameters() {
        let phy = PhyConfig::default();
        assert_eq!(phy.range_m, 275.0);
        assert_eq!(BANDWIDTH_BPS, 2_000_000);
        assert_eq!(IFQ_CAP, 50);
        let cfg = SimConfig::default();
        assert_eq!(cfg.duration.as_secs_f64(), 900.0);
    }

    #[test]
    fn alt_flavor_differs() {
        assert_ne!(PhyConfig::alt_flavor(), PhyConfig::default());
    }
}
