//! # ldr — Labeled Distance Routing
//!
//! A from-scratch implementation of **LDR**, the on-demand loop-free
//! routing protocol of *"A New Approach to On-Demand Loop-Free Routing
//! in Ad Hoc Networks"* (Garcia-Luna-Aceves, Mosko & Perkins, PODC
//! 2003). LDR combines
//!
//! * a **distance invariant** — each node tracks a *feasible distance*
//!   per destination, the minimum distance attained under the current
//!   destination sequence number, and only changes successors under the
//!   Numbered Distance Condition ([`invariants::ndc_accepts`]); with
//! * **destination-controlled sequence numbers**
//!   ([`seqno::SeqNo`]) that act as resets of the distance invariant —
//!   only the destination may increment its own number (the `T`-bit /
//!   path-reset machinery of §2.2), unlike AODV where upstream nodes
//!   inflate each other's numbers.
//!
//! The result is loop freedom at every instant (Theorem 4) without
//! source routing (DSR), internodal synchronisation (DUAL/ROAM/TORA),
//! or AODV's reply-suppressing sequence-number inflation.
//!
//! The protocol plugs into the [`manet_sim`] discrete-event simulator
//! via [`manet_sim::protocol::RoutingProtocol`]; the same workspace
//! hosts the AODV/DSR/OLSR baselines (`manet-baselines`) and the
//! experiment harness (`ldr-bench`).
//!
//! ## Example
//!
//! ```
//! use ldr::{Ldr, LdrConfig};
//! use manet_sim::config::SimConfig;
//! use manet_sim::mobility::StaticMobility;
//! use manet_sim::packet::NodeId;
//! use manet_sim::time::{SimDuration, SimTime};
//! use manet_sim::world::World;
//!
//! let cfg = SimConfig { duration: SimDuration::from_secs(20), ..SimConfig::default() };
//! let mut world = World::new(
//!     cfg,
//!     Box::new(StaticMobility::line(4, 200.0)),
//!     Ldr::factory(LdrConfig::default()),
//! );
//! world.schedule_app_packet(SimTime::from_secs(1), NodeId(0), NodeId(3), 512);
//! let metrics = world.run();
//! assert_eq!(metrics.data_delivered, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::unimplemented, clippy::allow_attributes))]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type, clippy::allow_attributes_without_reason))]

pub mod config;
pub mod invariants;
pub mod messages;
pub mod protocol;
pub mod route_table;
pub mod seqno;

pub use config::LdrConfig;
pub use invariants::{Distance, Invariants, Solicited, INFINITY};
pub use protocol::Ldr;
pub use route_table::{AdvertOutcome, RouteEntry, RouteTable};
pub use seqno::SeqNo;
