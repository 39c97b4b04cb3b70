//! Node crash/restart behaviour — §3's claim that LDR's
//! clock-plus-counter sequence numbers avoid AODV's *reboot-hold*
//! procedure: a restarted node may participate immediately, because its
//! fresh clock stamp (epoch) dominates every number it issued before
//! the crash, so stale state elsewhere can never suppress or mis-order
//! its new advertisements.

use ldr::{Ldr, LdrConfig};
use manet_baselines::{Aodv, AodvConfig, Dsr, DsrConfig, Olsr, OlsrConfig};
use manet_sim::config::SimConfig;
use manet_sim::faults::{FaultAction, FaultPlan};
use manet_sim::mobility::StaticMobility;
use manet_sim::packet::{ControlPacket, DataPacket, NodeId, Packet};
use manet_sim::protocol::{Action, Ctx, RouteDump, RoutingProtocol};
use manet_sim::time::{SimDuration, SimTime};
use manet_sim::world::World;
use std::sync::{Arc, Mutex};

/// An LDR chain of `n` nodes whose `reboots` crash and restart at once,
/// with no downtime, each at its instant.
fn chain_world(n: usize, seed: u64, secs: u64, reboots: &[(SimTime, u16)]) -> World {
    let crashes = reboots.iter().map(|&(at, node)| {
        (at, FaultAction::CrashRestart { node: NodeId(node), downtime: SimDuration::ZERO })
    });
    let cfg = SimConfig {
        duration: SimDuration::from_secs(secs),
        seed,
        audit_interval: Some(SimDuration::from_millis(500)),
        fault_plan: Some(FaultPlan::new(crashes.collect())),
        ..SimConfig::default()
    };
    World::new(cfg, Box::new(StaticMobility::line(n, 200.0)), Ldr::factory(LdrConfig::default()))
}

#[test]
fn intermediate_reboot_loses_routes_but_traffic_recovers() {
    // The middle relay crashes mid-stream.
    let mut world = chain_world(4, 51, 40, &[(SimTime::from_secs(10), 1)]);
    for k in 0..120u64 {
        world.schedule_app_packet(SimTime::from_millis(1000 + 250 * k), NodeId(0), NodeId(3), 512);
    }
    let m = world.run();
    assert!(
        m.data_delivered > 100,
        "traffic must recover after a relay restart: {}",
        m.data_delivered
    );
    assert!(m.data_delivered < 120, "packets in flight at the crash are lost");
    assert_eq!((m.faults_injected, m.node_restarts), (1, 1));
    assert_eq!(m.loop_violations, 0);
}

#[test]
fn rebooted_destination_participates_immediately_no_hold() {
    // The destination crashes, then the path's relay crashes moments
    // later, wiping the network's usable routes — the subsequent
    // re-discovery must be answered by the *rebooted* destination with
    // its fresh-epoch number, and accepted everywhere despite the
    // tight feasible-distance history the old epoch left behind.
    let reboots = [(SimTime::from_secs(10), 3), (SimTime::from_millis(10_500), 2)];
    let mut world = chain_world(4, 53, 40, &reboots);
    for k in 0..120u64 {
        world.schedule_app_packet(SimTime::from_millis(1000 + 250 * k), NodeId(0), NodeId(3), 512);
    }
    world.run_until(SimTime::from_secs(40));
    world.finalize();
    let m = world.metrics();
    assert!(
        m.data_delivered > 100,
        "no reboot-hold: the fresh epoch answers immediately: {}",
        m.data_delivered
    );
    assert_eq!((m.faults_injected, m.node_restarts), (2, 2));
    assert_eq!(m.loop_violations, 0, "epoch jumps must stay loop-free");
    // The destination's number is now in epoch 2: its scalar value
    // dominates anything from epoch 1.
    let sn = world.protocol(NodeId(3)).own_seqno_value().expect("LDR reports its number");
    assert!(sn >= 2f64.powi(32), "fresh clock stamp: got {sn}");
}

#[test]
fn reboot_mid_discovery_is_survivable() {
    // The destination reboots while a discovery for it is in flight;
    // the origin's retry must still converge.
    // Crash the destination a hair after the first RREQ goes out.
    let mut world = chain_world(4, 57, 30, &[(SimTime::from_millis(1002), 3)]);
    for k in 0..80u64 {
        world.schedule_app_packet(SimTime::from_millis(1000 + 250 * k), NodeId(0), NodeId(3), 512);
    }
    let m = world.run();
    assert!(m.data_delivered > 60, "{}", m.data_delivered);
    assert_eq!((m.faults_injected, m.node_restarts), (1, 1));
    assert_eq!(m.loop_violations, 0);
}

/// One thing a [`Witness`] saw its protocol do or receive.
#[derive(Clone, Copy, Debug)]
enum Seen {
    /// A timer armed, due at `due`.
    Armed { token: u64, due: SimTime },
    /// A timer delivered to the protocol.
    Fired { token: u64 },
    /// A broadcast put on the MAC queue.
    Broadcast,
}

/// `(node, incarnation, instant, what)` rows, in callback order.
type Log = Arc<Mutex<Vec<(NodeId, u32, SimTime, Seen)>>>;

/// Runs a protocol against a private action buffer, logging the timers
/// it arms and receives and the broadcasts it sends, each with the
/// incarnation it happened in (0 until the first reboot, then one more
/// per reboot), before passing every action on unchanged.
struct Witness {
    inner: Box<dyn RoutingProtocol>,
    incarnation: u32,
    log: Log,
}

impl Witness {
    fn call(&mut self, ctx: &mut Ctx, f: impl FnOnce(&mut dyn RoutingProtocol, &mut Ctx)) {
        let (now, id, n, trace) = (ctx.now(), ctx.id(), ctx.n_nodes(), ctx.trace_enabled());
        let mut actions = Vec::new();
        {
            let mut inner = Ctx::new(now, id, n, ctx.rng(), &mut actions);
            inner.set_trace_enabled(trace);
            f(self.inner.as_mut(), &mut inner);
        }
        let mut log = self.log.lock().expect("no panic holds the log");
        for action in actions {
            let seen = match action {
                Action::SetTimer { delay, token } => Some(Seen::Armed { token, due: now + delay }),
                Action::Broadcast { .. } => Some(Seen::Broadcast),
                _ => None,
            };
            log.extend(seen.map(|s| (id, self.incarnation, now, s)));
            ctx.push(action);
        }
    }
}

impl RoutingProtocol for Witness {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn start(&mut self, ctx: &mut Ctx) {
        self.call(ctx, |p, ctx| p.start(ctx));
    }
    fn handle_data_origination(&mut self, ctx: &mut Ctx, data: DataPacket) {
        self.call(ctx, |p, ctx| p.handle_data_origination(ctx, data));
    }
    fn handle_data_packet(&mut self, ctx: &mut Ctx, prev_hop: NodeId, data: DataPacket) {
        self.call(ctx, |p, ctx| p.handle_data_packet(ctx, prev_hop, data));
    }
    fn handle_control(
        &mut self,
        ctx: &mut Ctx,
        prev_hop: NodeId,
        ctrl: &ControlPacket,
        was_broadcast: bool,
    ) {
        self.call(ctx, |p, ctx| p.handle_control(ctx, prev_hop, ctrl, was_broadcast));
    }
    fn handle_timer(&mut self, ctx: &mut Ctx, token: u64) {
        let row = (ctx.id(), self.incarnation, ctx.now(), Seen::Fired { token });
        self.log.lock().expect("no panic holds the log").push(row);
        self.call(ctx, |p, ctx| p.handle_timer(ctx, token));
    }
    fn handle_unicast_failure(&mut self, ctx: &mut Ctx, next_hop: NodeId, packet: Packet) {
        self.call(ctx, |p, ctx| p.handle_unicast_failure(ctx, next_hop, packet));
    }
    fn handle_reboot(&mut self, ctx: &mut Ctx) {
        self.incarnation += 1;
        self.call(ctx, |p, ctx| p.handle_reboot(ctx));
    }
    fn route_table_dump(&self) -> Vec<RouteDump> {
        self.inner.route_table_dump()
    }
    fn own_seqno_value(&self) -> Option<f64> {
        self.inner.own_seqno_value()
    }
}

/// Builds node `id`'s protocol instance.
type Factory = fn(NodeId) -> Box<dyn RoutingProtocol>;

/// A `secs`-long world of `n` nodes `spacing` metres apart on a line,
/// every protocol instance behind a [`Witness`], and the zero-downtime
/// reboots `reboots` in its fault plan.
fn witnessed_world(
    proto: Factory,
    (n, spacing): (usize, f64),
    (seed, secs): (u64, u64),
    reboots: &[(SimTime, u16)],
) -> (World, Log) {
    let crashes = reboots.iter().map(|&(at, node)| {
        (at, FaultAction::CrashRestart { node: NodeId(node), downtime: SimDuration::ZERO })
    });
    let cfg = SimConfig {
        duration: SimDuration::from_secs(secs),
        seed,
        fault_plan: Some(FaultPlan::new(crashes.collect())),
        ..SimConfig::default()
    };
    let log = Log::default();
    let shared = Arc::clone(&log);
    let mobility = Box::new(StaticMobility::line(n, spacing));
    let world = World::new(cfg, mobility, move |id, _| {
        Box::new(Witness { inner: proto(id), incarnation: 0, log: Arc::clone(&shared) })
    });
    (world, log)
}

fn ldr(id: NodeId) -> Box<dyn RoutingProtocol> {
    Box::new(Ldr::new(id, LdrConfig::default()))
}
fn aodv(id: NodeId) -> Box<dyn RoutingProtocol> {
    Box::new(Aodv::new(id, AodvConfig::default()))
}
fn dsr(id: NodeId) -> Box<dyn RoutingProtocol> {
    Box::new(Dsr::new(id, DsrConfig::default()))
}
fn olsr(id: NodeId) -> Box<dyn RoutingProtocol> {
    Box::new(Olsr::new(id, OlsrConfig::default()))
}

/// A reboot restarts OLSR's periodic HELLO/TC/CLEANUP chain; the chain
/// of the crashed incarnation must not keep running beside it. Node 1
/// of a 3-node line sends 50 HELLOs and 20 TCs in [20 s, 120 s) however
/// often it rebooted at 5–8 s.
#[test]
fn reboots_do_not_multiply_olsr_timer_chains() {
    let instants = [5, 6, 7, 8].map(|s| (SimTime::from_secs(s), 1));
    for k in [0, 1, 2, 4] {
        let (mut world, log) = witnessed_world(olsr, (3, 200.0), (7, 120), &instants[..k]);
        world.run_until(SimTime::from_secs(120));
        let sent = (log.lock().expect("no panic holds the log").iter())
            .filter(|&&(node, _, at, seen)| {
                node == NodeId(1) && matches!(seen, Seen::Broadcast) && at >= SimTime::from_secs(20)
            })
            .count();
        assert_eq!(sent, 70, "node 1 after {k} reboots");
        assert_eq!(world.metrics().node_restarts, k as u64);
    }
}

/// A crash ends an incarnation: no timer armed before it reaches the
/// protocol after the restart, however the restarted node numbers its
/// timers. Node 0 looks for an unreachable node, crashes mid-discovery
/// with no downtime and opens the same discovery again: AODV and DSR
/// count discovery generations from zero after a reboot, so the
/// crashed incarnation's retry token is also the new one's. OLSR, with
/// no discoveries, stands in with its periodic chain.
#[test]
fn no_timer_armed_before_a_crash_reaches_the_protocol_after_it() {
    let crash = SimTime::from_millis(1_050);
    let protos: [(&str, Factory); 4] = [("LDR", ldr), ("AODV", aodv), ("DSR", dsr), ("OLSR", olsr)];
    for (name, proto) in protos {
        let (mut world, log) = witnessed_world(proto, (2, 1000.0), (11, 10), &[(crash, 0)]);
        world.schedule_app_packet(SimTime::from_secs(1), NodeId(0), NodeId(1), 512);
        world.schedule_app_packet(SimTime::from_millis(1_100), NodeId(0), NodeId(1), 512);
        world.run_until(SimTime::from_secs(10));
        let log = log.lock().expect("no panic holds the log");
        let node0 = || log.iter().filter(|r| r.0 == NodeId(0));
        // Not vacuous: the crash left a timer in flight, a discovery
        // retry where there is one (the sweep timer is u64::MAX).
        let in_flight = node0().any(|&(_, inc, _, seen)| {
            matches!(seen, Seen::Armed { token, due }
                if inc == 0 && due > crash && (name == "OLSR" || token != u64::MAX))
        });
        assert!(in_flight, "{name}: no timer was pending at the crash");
        assert_eq!(node0().map(|r| r.1).max(), Some(1), "{name}: one reboot");
        for &(_, inc, at, seen) in node0() {
            let Seen::Fired { token } = seen else { continue };
            let armed_here = node0().any(|&(_, i, _, s)| {
                i == inc && matches!(s, Seen::Armed { token: t, due } if t == token && due == at)
            });
            assert!(armed_here, "{name}: timer {token:#x} at {at} crossed into incarnation {inc}");
        }
    }
}
