//! Exhaustive bounded model checking for on-demand routing protocols.
//!
//! The discrete-event simulator in `manet-sim` samples *one* schedule
//! per seed; this crate explores **all** of them, for small topologies.
//! A [`net::Scenario`] fixes a topology (3–5 nodes), a workload (data
//! originations) and budgets for environment hazards (message loss,
//! link toggles, route-table timeouts, destination sequence-number
//! increments). The checker then walks every reachable interleaving of
//!
//! * message delivery and loss (each in-flight copy independently),
//! * pending protocol timers firing in any order,
//! * link up/down transitions,
//! * soft-state route expiry at any node, and
//! * the destination raising its own sequence number,
//!
//! driving the *real* protocol implementations — [`ldr::Ldr`] and the
//! [`manet_baselines::Aodv`] baseline — through the simulator's own
//! [`manet_sim::protocol::RoutingProtocol`] callbacks (the
//! [`ProtocolModel`] trait beside it adds only the verification hooks,
//! implemented once in each protocol's own crate).
//!
//! At every transition the checker verifies the paper's safety
//! obligations: per-destination successor graphs stay acyclic
//! (Theorem 1's conclusion), feasible distances never rise under an
//! unchanged sequence number (Procedure 3), and every route admission
//! traced by the protocol actually satisfied NDC. Logical time is
//! frozen at a single instant so that states canonicalise; the passage
//! of time is modelled *explicitly* by the expiry and timer events,
//! which is exactly what makes the classic AODV stale-route loop
//! reachable (see [`scenarios`]).
//!
//! On a violation the checker emits the event trace, shrinks it to a
//! 1-minimal counterexample ([`shrink`]) and replays it through the
//! forensic audit machinery of `manet-sim` for a deterministic,
//! diffable dump ([`report`]).
//!
//! Beyond the exhaustive DFS, the crate hunts: [`topo`] manufactures
//! deterministic 3–6 node scenarios, [`coverage`] walks them steered
//! by fingerprint novelty (all four protocols — the DSR and OLSR
//! baselines implement [`ProtocolModel`] too), and [`live`]
//! adds the liveness question — after fair completion, can the probe
//! source still reach a route? — alongside the safety frontier.
//!
//! Run the curated suite with `cargo run -p modelcheck --release`, the
//! coverage hunt with `cargo run -p modelcheck --release -- --coverage`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::unimplemented, clippy::allow_attributes))]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type, clippy::allow_attributes_without_reason))]

pub mod checker;
pub mod coverage;
pub mod live;
pub mod net;
pub mod report;
pub mod scenarios;
pub mod shrink;
pub mod topo;

pub use checker::{Budget, Checker, Counterexample, Outcome, Violation};
pub use coverage::{Exploration, ExploreBudget, Finding, ViolationClass};
pub use live::LiveVerdict;
pub use manet_sim::protocol::ProtocolModel;
pub use net::{Event, NetState, Scenario};
