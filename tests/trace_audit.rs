//! Integration tests for the routing-decision trace layer and the
//! every-mutation invariant auditor.
//!
//! Covers the wiring end to end: link-layer events (`MacGiveUp`,
//! `Delivered`) and routing-layer events (`RreqStart`, `RouteInstall`,
//! `AdvertConsidered` with an `Infeasible` NDC verdict) reach an
//! attached sink from a real simulation, a clean LDR run passes the
//! every-mutation audit, and an injected fd-monotonicity bug produces
//! a deterministic forensic dump.

use ldr::{Ldr, LdrConfig};
use manet_sim::config::SimConfig;
use manet_sim::mobility::StaticMobility;
use manet_sim::packet::{ControlPacket, DataPacket, NodeId, Packet};
use manet_sim::protocol::{Ctx, DropReason, RouteDump, RoutingProtocol};
use manet_sim::static_routing::StaticRouting;
use manet_sim::time::{SimDuration, SimTime};
use manet_sim::trace::{InvariantSnapshot, MemoryTrace, RouteVerdict, TraceEvent};
use manet_sim::world::World;

fn cfg(duration_secs: u64, seed: u64) -> SimConfig {
    SimConfig { duration: SimDuration::from_secs(duration_secs), seed, ..SimConfig::default() }
}

#[test]
fn mac_give_up_and_delivery_reach_the_sink() {
    // Two nodes 400 m apart (out of the 275 m range): the MAC exhausts
    // its retries and the sink must hear about it.
    let shared = MemoryTrace::shared();
    let topo = StaticRouting::tables_for_line(2);
    let mut w = World::new(cfg(10, 1), Box::new(StaticMobility::line(2, 400.0)), move |id, _| {
        Box::new(StaticRouting::new(id, topo.clone()))
    });
    w.set_trace(Box::new(shared.clone()));
    w.schedule_app_packet(SimTime::from_secs(1), NodeId(0), NodeId(1), 512);
    let m = w.run();
    assert_eq!(m.data_delivered, 0);
    let tr = shared.lock().unwrap();
    let give_ups =
        tr.count(|e| matches!(e, TraceEvent::MacGiveUp { node: NodeId(0), dst: NodeId(1), .. }));
    assert_eq!(give_ups, 1, "one unicast frame, one give-up");

    // Three nodes in range: the delivery event fires exactly once.
    let shared = MemoryTrace::shared();
    let topo = StaticRouting::tables_for_line(3);
    let mut w = World::new(cfg(10, 2), Box::new(StaticMobility::line(3, 200.0)), move |id, _| {
        Box::new(StaticRouting::new(id, topo.clone()))
    });
    w.set_trace(Box::new(shared.clone()));
    w.schedule_app_packet(SimTime::from_secs(1), NodeId(0), NodeId(2), 512);
    let m = w.run();
    assert_eq!(m.data_delivered, 1);
    let tr = shared.lock().unwrap();
    let delivered = tr.count(|e| matches!(e, TraceEvent::Delivered { node: NodeId(2), .. }));
    assert_eq!(delivered, 1);
}

#[test]
fn ldr_discovery_emits_routing_layer_events() {
    // A 4-node chain, one packet from 0 to 3: the discovery must leave
    // a full routing-decision record — the origin's RREQ, installed
    // routes with their (sn, d, fd) snapshots, at least one advert
    // rejected by NDC (node 1 re-hears the origin's solicitation via
    // node 2's relay at a worse distance under the same sequence
    // number), and the reply.
    let shared = MemoryTrace::shared();
    let mut factory = Ldr::factory(LdrConfig::default());
    let mut w =
        World::new(cfg(30, 7), Box::new(StaticMobility::line(4, 200.0)), |id, n| factory(id, n));
    w.set_trace(Box::new(shared.clone()));
    w.schedule_app_packet(SimTime::from_secs(1), NodeId(0), NodeId(3), 512);
    w.run_until(SimTime::from_secs(30));
    w.finalize();
    let m = w.metrics().clone();
    assert_eq!(m.data_delivered, 1);
    // The emission counter lives on the world, not in Metrics —
    // metrics must stay equal between traced and untraced twins.
    assert!(w.trace_events() > 0, "routing emissions must be counted");

    let tr = shared.lock().unwrap();
    let rreq_starts =
        tr.count(|e| matches!(e, TraceEvent::RreqStart { node: NodeId(0), dest: NodeId(3), .. }));
    assert!(rreq_starts >= 1, "the origin must log its solicitation");

    let installs = tr.count(|e| matches!(e, TraceEvent::RouteInstall { .. }));
    assert!(installs >= 3, "reverse + forward routes install along the chain: {installs}");

    // Every install's after-snapshot satisfies fd <= d (the fd is the
    // minimum distance attained under the current sn).
    for (_, e) in tr.events() {
        if let TraceEvent::RouteInstall { after, .. } = e {
            assert!(after.fd <= after.d, "install with fd > d: {after:?}");
        }
    }

    let infeasible = tr.count(|e| {
        matches!(e, TraceEvent::AdvertConsidered { verdict: RouteVerdict::Infeasible, .. })
    });
    assert!(infeasible >= 1, "NDC must reject the worse re-advertisement");

    let rreps = tr.count(|e| matches!(e, TraceEvent::RrepSend { .. }));
    assert!(rreps >= 1, "the destination must answer");
}

#[test]
fn clean_ldr_run_passes_every_mutation_audit() {
    let mut config = cfg(20, 11);
    config.invariant_audit = true;
    let mut factory = Ldr::factory(LdrConfig::default());
    let mut w =
        World::new(config, Box::new(StaticMobility::line(5, 200.0)), |id, n| factory(id, n));
    for i in 0..10u64 {
        w.schedule_app_packet(SimTime::from_millis(1000 + i * 200), NodeId(0), NodeId(4), 512);
    }
    w.run_until(SimTime::from_secs(20));
    w.finalize();
    assert!(w.metrics().invariant_checks > 0, "audit must actually run");
    assert_eq!(w.metrics().invariant_breaches, 0, "LDR must keep fd monotone");
    assert!(w.forensic_report().is_none());
    assert!(w.metrics().data_delivered >= 9);
}

/// A deliberately broken protocol: node 0 advertises a route to node 1
/// whose feasible distance *rises* every second under a fixed sequence
/// number — exactly the regression the LDR invariants forbid.
struct BuggyFd {
    id: NodeId,
    fd: u32,
}

impl RoutingProtocol for BuggyFd {
    fn name(&self) -> &'static str {
        "BuggyFd"
    }
    fn start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(SimDuration::from_secs(1), 0);
    }
    fn handle_data_origination(&mut self, ctx: &mut Ctx, data: DataPacket) {
        ctx.drop_data(data, DropReason::NoRoute);
    }
    fn handle_data_packet(&mut self, ctx: &mut Ctx, _prev_hop: NodeId, data: DataPacket) {
        ctx.drop_data(data, DropReason::NoRoute);
    }
    fn handle_control(
        &mut self,
        _ctx: &mut Ctx,
        _prev_hop: NodeId,
        _ctrl: &ControlPacket,
        _was_broadcast: bool,
    ) {
    }
    fn handle_timer(&mut self, ctx: &mut Ctx, _token: u64) {
        if self.id == NodeId(0) {
            self.fd += 1;
            let id = self.id;
            let fd = self.fd;
            ctx.trace(|| TraceEvent::RouteInstall {
                node: id,
                dest: NodeId(1),
                next: NodeId(1),
                before: None,
                after: InvariantSnapshot { sn: Some(5), d: fd, fd },
            });
        }
        ctx.set_timer(SimDuration::from_secs(1), 0);
    }
    fn handle_unicast_failure(&mut self, _ctx: &mut Ctx, _next_hop: NodeId, _packet: Packet) {}
    fn route_table_dump(&self) -> Vec<RouteDump> {
        if self.id != NodeId(0) {
            return Vec::new();
        }
        vec![RouteDump {
            dest: NodeId(1),
            next: NodeId(1),
            dist: self.fd,
            feasible_dist: Some(self.fd),
            seqno: Some(5),
            valid: true,
        }]
    }
}

#[test]
fn injected_fd_raise_produces_a_deterministic_forensic_dump() {
    let run = || {
        let mut config = cfg(10, 42);
        config.invariant_audit = true;
        let mut w = World::new(config, Box::new(StaticMobility::line(2, 100.0)), |id, _| {
            Box::new(BuggyFd { id, fd: 2 }) as Box<dyn RoutingProtocol>
        });
        w.run_until(SimTime::from_secs(5));
        w.finalize();
        assert!(w.metrics().invariant_breaches >= 1, "the bug must be caught");
        let report = w.forensic_report().expect("first breach must leave a report");
        format!("{report}")
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "the forensic dump must be deterministic under a fixed seed");
    assert!(a.contains("fd-monotonicity"), "dump must name the broken invariant:\n{a}");
    assert!(a.contains("seed 42"), "dump must record the seed:\n{a}");
    assert!(a.contains("n0"), "dump must name the offending node:\n{a}");
}
