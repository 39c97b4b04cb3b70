//! The curated scenario suite.
//!
//! Each entry pairs a [`Scenario`] with a search [`Budget`] sized so the
//! whole suite stays inside the CI smoke budget. The LDR scenarios are
//! *safety obligations* — the checker must come back clean — while the
//! AODV scenario is a *sensitivity witness*: it reproduces the classic
//! stale-route loop (an expired entry re-accepting an equal-sequence
//! advertisement from a neighbour whose own route points back), proving
//! the checker actually finds the bug class LDR's NDC rules out. The
//! DSR and OLSR entries are the hand-built witnesses behind the
//! liveness and differential fixtures (see `tests/`).
//!
//! Protocol configs here cap discovery at a single attempt: retries
//! only multiply timer interleavings without enabling new route-table
//! behaviour, and the loss budgets already model a failed first flood.

use crate::checker::Budget;
use crate::net::Scenario;
use ldr::{Ldr, LdrConfig};
use manet_baselines::{Aodv, AodvConfig, Dsr, DsrConfig, Olsr, OlsrConfig};
use manet_sim::packet::NodeId;

/// LDR configuration used by the model-check scenarios.
pub fn ldr_config() -> LdrConfig {
    LdrConfig { max_attempts: 1, ..LdrConfig::default() }
}

/// AODV configuration used by the model-check scenarios.
pub fn aodv_config() -> AodvConfig {
    AodvConfig { max_attempts: 1 }
}

/// DSR configuration used by the model-check scenarios: draft-07
/// flavoured (finite cache timeout, so [`crate::net::Event::Expire`]
/// models a real protocol behaviour), one discovery attempt, and no
/// non-propagating first attempt — under `max_attempts: 1` a TTL-1
/// first flood would make every multi-hop discovery fail by
/// construction, which verifies nothing.
pub fn dsr_config() -> DsrConfig {
    DsrConfig { max_attempts: 1, non_propagating_first: false, ..DsrConfig::draft7() }
}

/// OLSR configuration used by the model-check scenarios: no jitter
/// queue (the queue only reorders broadcasts in wall-clock time, which
/// the frozen-time model already explores by interleaving deliveries).
pub fn olsr_config() -> OlsrConfig {
    OlsrConfig { jitter_max: None }
}

/// Node factory for LDR scenarios.
pub fn ldr_factory() -> impl Fn(NodeId) -> Ldr + Copy {
    |id| Ldr::new(id, ldr_config())
}

/// Node factory for AODV scenarios.
pub fn aodv_factory() -> impl Fn(NodeId) -> Aodv + Copy {
    |id| Aodv::new(id, aodv_config())
}

/// Node factory for DSR scenarios.
pub fn dsr_factory() -> impl Fn(NodeId) -> Dsr + Copy {
    |id| Dsr::new(id, dsr_config())
}

/// Node factory for OLSR scenarios.
pub fn olsr_factory() -> impl Fn(NodeId) -> Olsr + Copy {
    |id| Olsr::new(id, olsr_config())
}

/// A scenario plus the search budget it runs under.
#[derive(Clone, Debug)]
pub struct SuiteEntry {
    /// The scenario.
    pub scenario: Scenario,
    /// Its search budget.
    pub budget: Budget,
}

/// LDR obligations: every entry must explore clean.
pub fn ldr_suite() -> Vec<SuiteEntry> {
    vec![
        // Plain discovery over a chain, with one message loss allowed
        // anywhere (covers retried floods arriving after partial
        // state).
        SuiteEntry {
            scenario: Scenario {
                name: "ldr-chain-discovery".into(),
                n: 3,
                links: vec![(0, 1), (1, 2)],
                originations: vec![(0, 2)],
                toggles: vec![],
                max_expires: 0,
                max_bumps: 0,
                max_losses: 1,
                max_restarts: 0,
                probe: Some((0, 2)),
            },
            budget: Budget { max_depth: 40, max_states: 120_000 },
        },
        // The stale-route shape that loops AODV: establish 2->1->0,
        // expire the middle node's entry at any point, re-discover. NDC
        // must reject the neighbour's equal-sequence stale
        // advertisement.
        SuiteEntry {
            scenario: Scenario {
                name: "ldr-expire-rediscover".into(),
                n: 3,
                links: vec![(0, 1), (1, 2)],
                originations: vec![(2, 0), (1, 0)],
                toggles: vec![],
                max_expires: 1,
                max_bumps: 0,
                max_losses: 0,
                max_restarts: 0,
                probe: Some((2, 0)),
            },
            budget: Budget { max_depth: 40, max_states: 120_000 },
        },
        // Two disjoint paths; one may break mid-flight. Replies racing
        // over both sides must never assemble a cycle.
        SuiteEntry {
            scenario: Scenario {
                name: "ldr-diamond-partition".into(),
                n: 4,
                links: vec![(0, 1), (0, 2), (1, 3), (2, 3)],
                originations: vec![(0, 3)],
                toggles: vec![(1, 3)],
                max_expires: 0,
                max_bumps: 0,
                max_losses: 0,
                max_restarts: 0,
                probe: Some((0, 3)),
            },
            budget: Budget { max_depth: 40, max_states: 150_000 },
        },
        // Destination-side sequence increments racing stale state: fd
        // history must reset only on a strictly newer seqno.
        SuiteEntry {
            scenario: Scenario {
                name: "ldr-bump-reset".into(),
                n: 3,
                links: vec![(0, 1), (1, 2)],
                originations: vec![(0, 2)],
                toggles: vec![],
                max_expires: 1,
                max_bumps: 1,
                max_losses: 0,
                max_restarts: 0,
                probe: Some((0, 2)),
            },
            budget: Budget { max_depth: 40, max_states: 120_000 },
        },
        // Crash/restart with total state loss at any node, at any
        // point. The restarted node re-requests with no history; the
        // neighbour holding a stale route through it must treat that
        // request as a route error (the request-as-error rule) instead
        // of answering from the stale entry — the exact hole AODV's
        // restart leaves open.
        SuiteEntry {
            scenario: Scenario {
                name: "ldr-restart-recover".into(),
                n: 3,
                links: vec![(0, 1), (1, 2)],
                originations: vec![(2, 0), (1, 0)],
                toggles: vec![],
                max_expires: 0,
                max_bumps: 0,
                max_losses: 0,
                max_restarts: 1,
                probe: Some((2, 0)),
            },
            budget: Budget { max_depth: 40, max_states: 200_000 },
        },
    ]
}

/// The AODV sensitivity witness: same shape as `ldr-expire-rediscover`;
/// the checker must find a routing loop here.
pub fn aodv_stale_reply() -> SuiteEntry {
    SuiteEntry {
        scenario: Scenario {
            name: "aodv-stale-reply".into(),
            n: 3,
            links: vec![(0, 1), (1, 2)],
            originations: vec![(2, 0), (1, 0)],
            toggles: vec![],
            max_expires: 1,
            max_bumps: 0,
            max_losses: 0,
            max_restarts: 0,
            probe: Some((2, 0)),
        },
        budget: Budget { max_depth: 40, max_states: 120_000 },
    }
}

/// The AODV restart witness (van Glabbeek et al.): a node that crashes,
/// loses its sequence number, and re-requests with an unknown
/// destination sequence number draws a stale intermediate reply from a
/// neighbour whose own route points back through it. The checker must
/// find a routing loop here — no expiry needed, state loss alone does
/// it — while `ldr-restart-recover` (same shape) explores clean.
pub fn aodv_restart_amnesia() -> SuiteEntry {
    SuiteEntry {
        scenario: Scenario {
            name: "aodv-restart-amnesia".into(),
            n: 3,
            links: vec![(0, 1), (1, 2)],
            originations: vec![(2, 0), (1, 0)],
            toggles: vec![],
            max_expires: 0,
            max_bumps: 0,
            max_losses: 0,
            max_restarts: 1,
            probe: Some((2, 0)),
        },
        budget: Budget { max_depth: 40, max_states: 200_000 },
    }
}

/// The DSR liveness witness: complete one discovery over a chain, then
/// crash the source. The reboot resets `next_id` to 0, so the
/// restarted source's re-discovery reuses request id 0 — which every
/// neighbour's dedup set still remembers (frozen time keeps `seen`
/// entries immortal) — and the flood dies one hop out. The probe
/// origination must therefore stall: a liveness breach LDR avoids by
/// *not* resetting its request-id counter on reboot.
pub fn dsr_restart_stale_id() -> SuiteEntry {
    SuiteEntry {
        scenario: Scenario {
            name: "dsr-restart-stale-id".into(),
            n: 3,
            links: vec![(0, 1), (1, 2)],
            originations: vec![(0, 2)],
            toggles: vec![],
            max_expires: 0,
            max_bumps: 0,
            max_losses: 0,
            max_restarts: 1,
            probe: Some((0, 2)),
        },
        budget: Budget { max_depth: 40, max_states: 200_000 },
    }
}

/// The OLSR safety witness: a triangle whose links break faster than
/// the link-state views converge. After both of node 2's links go
/// down, node 0 still routes to 2 via 1 (stale topology) and node 1
/// routes to 2 via 0 (stale two-hop set) — a transient 2-cycle, the
/// classic link-state stale-view loop that sequence-numbered on-demand
/// protocols dodge per-route.
pub fn olsr_stale_views_loop() -> SuiteEntry {
    SuiteEntry {
        scenario: Scenario {
            name: "olsr-stale-views-loop".into(),
            n: 3,
            links: vec![(0, 1), (1, 2), (0, 2)],
            originations: vec![(0, 2)],
            toggles: vec![(1, 2), (0, 2)],
            max_expires: 0,
            max_bumps: 0,
            max_losses: 0,
            max_restarts: 0,
            probe: Some((0, 2)),
        },
        budget: Budget { max_depth: 60, max_states: 200_000 },
    }
}
