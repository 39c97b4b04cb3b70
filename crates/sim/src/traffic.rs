//! Constant-bit-rate traffic generation.
//!
//! The evaluation drives the network with a fixed number of concurrent
//! CBR flows (10 or 30, the one input: [`World::with_cbr`]'s argument),
//! each sending [`PAYLOAD_BYTES`]-byte packets every [`PACKET_INTERVAL`]
//! between random distinct endpoints, with flow lifetimes drawn from an
//! exponential distribution with mean [`MEAN_FLOW_SECS`]; when a flow
//! ends a new one replaces it, so the offered load is constant.
//!
//! [`World::with_cbr`]: crate::world::World::with_cbr

use crate::time::{SimDuration, SimTime};

/// Interval between packets of one flow: the paper's 4 packets/s.
pub const PACKET_INTERVAL: SimDuration = SimDuration::from_millis(250);
/// Application payload of every CBR packet: the paper's 512 bytes.
pub const PAYLOAD_BYTES: u16 = 512;
/// Mean flow lifetime in seconds (exponential): the paper's 100 s.
pub const MEAN_FLOW_SECS: f64 = 100.0;
/// Flow starts are staggered uniformly over this window.
pub const START_WINDOW: SimDuration = SimDuration::from_secs(20);

/// Internal state of one flow slot (the current flow occupying it).
#[derive(Clone, Debug)]
pub(crate) struct FlowState {
    /// Metrics identity of the current flow instance.
    pub flow_id: u32,
    /// Source node index.
    pub src: u16,
    /// Destination node index.
    pub dst: u16,
    /// Next packet sequence number.
    pub next_seq: u32,
    /// When the current flow instance ends.
    pub ends_at: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        assert_eq!(PAYLOAD_BYTES, 512);
        // Exactly what `from_secs_f64(1.0 / 4.0)` gave when the rate was
        // a field: one flow's packets sit 250 000 000 ns apart.
        assert_eq!(PACKET_INTERVAL, SimDuration::from_secs_f64(1.0 / 4.0));
        assert_eq!(PACKET_INTERVAL.as_nanos(), 250_000_000);
    }
}
