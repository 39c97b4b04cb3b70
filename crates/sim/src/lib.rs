//! # manet-sim — a deterministic MANET discrete-event simulator
//!
//! The simulation substrate for the LDR reproduction (PODC 2003,
//! Garcia-Luna-Aceves, Mosko & Perkins): a from-scratch replacement for
//! the paper's GloMoSim/Qualnet environment, providing
//!
//! * a discrete-event kernel with a deterministic future event list
//!   ([`event`], [`time`], [`rng`]);
//! * a unit-disk radio (275 m) with a CSMA/CA MAC — carrier sensing,
//!   binary-exponential backoff, ACK/retry unicast, jittered unreliable
//!   broadcast, drop-tail interface queues, collisions including hidden
//!   terminals ([`config`], [`mac`], [`world`]);
//! * random-waypoint, static and scripted mobility ([`mobility`]);
//! * the paper's CBR workload (512-byte packets at 4 packets/s per
//!   flow, exponential flow lifetimes) ([`traffic`]);
//! * metrics matching §4 of the paper — delivery ratio, network load,
//!   RREQ load, latency, RREP Init/Recv — with Student-t confidence
//!   intervals ([`metrics`], [`stats`]);
//! * an online routing-loop auditor that checks per-destination
//!   successor graphs at runtime ([`loopcheck`]);
//! * a routing-decision trace layer ([`trace`]) and an opt-in
//!   every-mutation invariant auditor with first-violation forensic
//!   dumps ([`audit`]);
//! * a deterministic fault-injection layer — node crash/restart with
//!   state loss, administrative link churn, regional partitions,
//!   per-link loss/corruption, stale-advert replay — scheduled on the
//!   same future event list ([`faults`]);
//! * a spatial neighbor index (kinetic candidate lists + epoch-cached
//!   positions) that answers radio range queries without scanning all N nodes,
//!   byte-identical to the linear scan, which stays the path for
//!   mobility models that promise no speed bound ([`spatial`],
//!   [`MobilityModel::max_speed_mps`](mobility::MobilityModel::max_speed_mps));
//! * an observation-pure telemetry layer — sim-time time-series
//!   sampler, compact trace log, hand-rolled JSONL export — that never
//!   changes a run's observable behaviour ([`telemetry`],
//!   [`SimConfig::telemetry`](config::SimConfig::telemetry));
//! * a deterministic kernel profiler — per-phase wall-time
//!   attribution (FEL churn, neighbor queries, dispatch, protocol
//!   callbacks), counts and histograms, rendered as `manet-prof` JSONL with wall times segregated from
//!   the byte-gated sections ([`prof`],
//!   [`SimConfig::profile`](config::SimConfig::profile)).
//!
//! Routing protocols implement [`protocol::RoutingProtocol`] and plug
//! into a [`world::World`].
//!
//! ## Example
//!
//! Run a static 3-node chain under fixed-table routing and count
//! deliveries:
//!
//! ```
//! use manet_sim::config::SimConfig;
//! use manet_sim::mobility::StaticMobility;
//! use manet_sim::packet::NodeId;
//! use manet_sim::static_routing::StaticRouting;
//! use manet_sim::time::{SimDuration, SimTime};
//! use manet_sim::world::World;
//!
//! let cfg = SimConfig { duration: SimDuration::from_secs(10), ..SimConfig::default() };
//! let tables = StaticRouting::tables_for_line(3);
//! let mut world = World::new(
//!     cfg,
//!     Box::new(StaticMobility::line(3, 200.0)),
//!     move |id, _| Box::new(StaticRouting::new(id, tables.clone())),
//! );
//! world.schedule_app_packet(SimTime::from_secs(1), NodeId(0), NodeId(2), 512);
//! let metrics = world.run();
//! assert_eq!(metrics.data_delivered, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::unimplemented, clippy::allow_attributes))]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type, clippy::allow_attributes_without_reason))]

pub mod audit;
pub mod config;
pub mod discovery;
pub mod event;
pub mod faults;
pub mod geometry;
pub mod hash;
pub mod loopcheck;
pub mod mac;
pub mod metrics;
pub mod mobility;
pub mod packet;
pub mod pool;
pub mod prof;
pub mod protocol;
pub mod rng;
pub mod spatial;
pub mod static_routing;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod trace;
pub mod traffic;
pub mod wire;
pub mod world;

pub use config::{PhyConfig, SimConfig};
pub use faults::{FaultAction, FaultIntensity, FaultPlan};
pub use metrics::Metrics;
pub use packet::{ControlKind, DataPacket, NodeId, Packet};
pub use protocol::{Ctx, RoutingProtocol};
pub use time::{SimDuration, SimTime};
pub use world::World;
mod proptests;
