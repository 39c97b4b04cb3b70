//! DSR unit tests driving the state machine directly.

use super::*;
use manet_sim::protocol::Action;
use manet_sim::rng::SimRng;

struct Node {
    dsr: Dsr,
    rng: SimRng,
    now: SimTime,
}

impl Node {
    fn new(id: u16) -> Self {
        Node {
            dsr: Dsr::new(NodeId(id), DsrConfig::draft3()),
            rng: SimRng::from_seed(u64::from(id)),
            now: SimTime::from_secs(1),
        }
    }

    fn call<F: FnOnce(&mut Dsr, &mut Ctx)>(&mut self, f: F) -> Vec<Action> {
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(self.now, self.dsr.id, 50, &mut self.rng, &mut actions);
        f(&mut self.dsr, &mut ctx);
        actions
    }

    /// Receives `bytes` as a control frame of `kind` from `prev`.
    fn hear(&mut self, prev: u16, kind: ControlKind, bytes: Vec<u8>) -> Vec<Action> {
        let ctrl = ControlPacket { kind, bytes };
        self.call(|d, ctx| d.handle_control(ctx, NodeId(prev), &ctrl, false))
    }

    fn hear_rreq(&mut self, prev: u16, m: &Rreq) -> Vec<Action> {
        self.hear(prev, ControlKind::Rreq, m.encode())
    }

    fn hear_rrep(&mut self, prev: u16, m: &Rrep) -> Vec<Action> {
        self.hear(prev, ControlKind::Rrep, m.encode())
    }
}

fn ids(v: &[u16]) -> Vec<NodeId> {
    v.iter().map(|&i| NodeId(i)).collect()
}

fn data(src: u16, dst: u16) -> DataPacket {
    DataPacket {
        src: NodeId(src),
        dst: NodeId(dst),
        flow: 1,
        seq: 0,
        created: SimTime::from_secs(1),
        payload_len: 512,
        ttl: 64,
        ext: vec![],
    }
}

fn sent_data(actions: &[Action]) -> Vec<(NodeId, DataPacket)> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::SendData { next, data } => Some((*next, data.clone())),
            _ => None,
        })
        .collect()
}

fn sent_rreps(actions: &[Action]) -> Vec<(Rrep, NodeId)> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::UnicastControl { next, ctrl, .. } if ctrl.kind == ControlKind::Rrep => {
                Rrep::decode(&ctrl.bytes).map(|m| (m, *next))
            }
            _ => None,
        })
        .collect()
}

fn sent_rreqs(actions: &[Action]) -> Vec<Rreq> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Broadcast { ctrl, .. } if ctrl.kind == ControlKind::Rreq => {
                Rreq::decode(&ctrl.bytes)
            }
            _ => None,
        })
        .collect()
}

#[test]
fn origination_with_cached_route_attaches_source_route() {
    let mut n = Node::new(0);
    n.dsr.cache.insert(&ids(&[2, 5, 9]), n.now);
    let acts = n.call(|d, ctx| d.handle_data_origination(ctx, data(0, 9)));
    let sent = sent_data(&acts);
    assert_eq!(sent.len(), 1);
    assert_eq!(sent[0].0, NodeId(2));
    let sr = SourceRoute::decode(&sent[0].1.ext).unwrap();
    assert_eq!(sr.path, ids(&[0, 2, 5, 9]));
    assert_eq!(sr.idx, 1, "idx points at the receiver");
}

#[test]
fn origination_without_route_floods_nonpropagating_first() {
    let mut n = Node::new(0);
    let acts = n.call(|d, ctx| d.handle_data_origination(ctx, data(0, 9)));
    let rreqs = sent_rreqs(&acts);
    assert_eq!(rreqs.len(), 1);
    assert_eq!(rreqs[0].ttl, 1, "first attempt queries neighbours only");
    assert!(n.dsr.discovery_pending(NodeId(9)));
    // Retry propagates network-wide.
    let acts = n.call(|d, ctx| d.handle_timer(ctx, Discoveries::token(NodeId(9), 0)));
    let rreqs = sent_rreqs(&acts);
    assert_eq!(rreqs[0].ttl, 35);
}

#[test]
fn a_retry_timer_from_before_the_reboot_retries_the_discovery_after_it() {
    // As in AODV (see its test of the same name): a rebooted DSR counts
    // generations from zero again, so a pre-crash retry token names the
    // post-reboot discovery. The kernel never delivers one
    // (tests/reboot.rs).
    let mut n = Node::new(0);
    n.call(|d, ctx| d.handle_data_origination(ctx, data(0, 9)));
    n.call(|d, ctx| d.handle_reboot(ctx));
    n.call(|d, ctx| d.handle_data_origination(ctx, data(0, 9)));
    let acts = n.call(|d, ctx| d.handle_timer(ctx, Discoveries::token(NodeId(9), 0)));
    assert_eq!(sent_rreqs(&acts).len(), 1);
}

#[test]
fn target_replies_with_accumulated_route() {
    let mut n = Node::new(9);
    let m = Rreq { src: NodeId(0), dst: NodeId(9), id: 7, ttl: 5, route: ids(&[2, 5]) };
    let acts = n.hear_rreq(5, &m);
    let rreps = sent_rreps(&acts);
    assert_eq!(rreps.len(), 1);
    let (r, to) = &rreps[0];
    assert_eq!(r.path, ids(&[0, 2, 5, 9]));
    assert_eq!(r.idx, 2, "idx addresses the receiver");
    assert_eq!(*to, NodeId(5), "travels backwards along the route");
}

#[test]
fn cached_route_produces_spliced_reply() {
    let mut n = Node::new(5);
    n.dsr.cache.insert(&ids(&[6, 9]), n.now);
    let m = Rreq { src: NodeId(0), dst: NodeId(9), id: 7, ttl: 5, route: ids(&[2]) };
    let acts = n.hear_rreq(2, &m);
    let rreps = sent_rreps(&acts);
    assert_eq!(rreps.len(), 1);
    assert_eq!(rreps[0].0.path, ids(&[0, 2, 5, 6, 9]));
    assert_eq!(rreps[0].0.idx, 1, "addressed to node 2 at position 1");
    assert!(sent_rreqs(&acts).is_empty(), "cache reply suppresses the flood");
}

#[test]
fn splice_with_duplicate_node_falls_through_to_relay() {
    let mut n = Node::new(5);
    // Cached route goes back through 2, which is already on the record.
    n.dsr.cache.insert(&ids(&[2, 9]), n.now);
    let m = Rreq { src: NodeId(0), dst: NodeId(9), id: 7, ttl: 5, route: ids(&[2]) };
    let acts = n.hear_rreq(2, &m);
    assert!(sent_rreps(&acts).is_empty(), "looping splice is forbidden");
    let rreqs = sent_rreqs(&acts);
    assert_eq!(rreqs.len(), 1);
    assert_eq!(rreqs[0].route, ids(&[2, 5]));
}

#[test]
fn duplicate_rreq_suppressed_and_own_rreq_ignored() {
    let mut n = Node::new(5);
    let m = Rreq { src: NodeId(0), dst: NodeId(9), id: 7, ttl: 5, route: vec![] };
    assert_eq!(sent_rreqs(&n.hear_rreq(0, &m)).len(), 1);
    assert!(n.hear_rreq(0, &m).is_empty());
    let own = Rreq { src: NodeId(5), dst: NodeId(9), id: 1, ttl: 5, route: vec![] };
    assert!(n.hear_rreq(2, &own).is_empty());
}

#[test]
fn rreq_with_self_in_record_ignored() {
    let mut n = Node::new(5);
    let m = Rreq { src: NodeId(0), dst: NodeId(9), id: 7, ttl: 5, route: ids(&[5, 3]) };
    assert!(n.hear_rreq(3, &m).is_empty());
}

#[test]
fn rrep_relay_moves_backwards_and_learns_routes() {
    let mut n = Node::new(2);
    let m = Rrep { orig: NodeId(0), id: 7, path: ids(&[0, 2, 5, 9]), idx: 1 };
    let acts = n.hear_rrep(5, &m);
    let fwd = sent_rreps(&acts);
    assert_eq!(fwd.len(), 1);
    assert_eq!(fwd[0].1, NodeId(0));
    assert_eq!(fwd[0].0.idx, 0);
    assert_eq!(n.dsr.cache.lookup(NodeId(9), n.now), Some(&ids(&[5, 9])[..]));
    assert_eq!(n.dsr.cache.lookup(NodeId(0), n.now), Some(&ids(&[0])[..]));
}

#[test]
fn rrep_at_origin_flushes_buffered_packets() {
    let mut n = Node::new(0);
    n.call(|d, ctx| d.handle_data_origination(ctx, data(0, 9)));
    n.call(|d, ctx| d.handle_data_origination(ctx, data(0, 9)));
    let m = Rrep { orig: NodeId(0), id: 0, path: ids(&[0, 2, 9]), idx: 0 };
    let acts = n.hear_rrep(2, &m);
    let sent = sent_data(&acts);
    assert_eq!(sent.len(), 2);
    assert!(!n.dsr.discovery_pending(NodeId(9)));
}

#[test]
fn forwarding_follows_the_source_route() {
    let mut n = Node::new(5);
    let sr = SourceRoute { path: ids(&[0, 2, 5, 9]), idx: 2, salvage: 0 };
    let mut d = data(0, 9);
    d.ext = sr.encode();
    let acts = n.call(|p, ctx| p.handle_data_packet(ctx, NodeId(2), d));
    let sent = sent_data(&acts);
    assert_eq!(sent.len(), 1);
    assert_eq!(sent[0].0, NodeId(9));
    let fwd = SourceRoute::decode(&sent[0].1.ext).unwrap();
    assert_eq!(fwd.idx, 3);
}

#[test]
fn delivery_at_destination_and_malformed_headers() {
    let mut n = Node::new(9);
    let sr = SourceRoute { path: ids(&[0, 2, 9]), idx: 2, salvage: 0 };
    let mut d = data(0, 9);
    d.ext = sr.encode();
    let acts = n.call(|p, ctx| p.handle_data_packet(ctx, NodeId(2), d));
    assert!(acts.iter().any(|a| matches!(a, Action::Deliver { .. })));
    // Garbage extension: dropped.
    let mut bad = data(0, 9);
    bad.ext = vec![9, 9, 9];
    let acts = n.call(|p, ctx| p.handle_data_packet(ctx, NodeId(2), bad));
    assert!(acts
        .iter()
        .any(|a| matches!(a, Action::DropData { reason: DropReason::BrokenSourceRoute, .. })));
}

#[test]
fn link_failure_salvages_onto_alternate_route() {
    let mut n = Node::new(5);
    n.dsr.cache.insert(&ids(&[6, 9]), n.now); // alternate avoiding the broken hop
    let sr = SourceRoute { path: ids(&[0, 2, 5, 7, 9]), idx: 3, salvage: 0 };
    let mut d = data(0, 9);
    d.ext = sr.encode();
    let p = Packet { uid: 1, origin: NodeId(5), body: PacketBody::Data(d) };
    let acts = n.call(|x, ctx| x.handle_unicast_failure(ctx, NodeId(7), p));
    let sent = sent_data(&acts);
    assert_eq!(sent.len(), 1, "salvaged");
    assert_eq!(sent[0].0, NodeId(6));
    let new_sr = SourceRoute::decode(&sent[0].1.ext).unwrap();
    assert_eq!(new_sr.path, ids(&[5, 6, 9]));
    assert_eq!(new_sr.salvage, 1);
    // And a RERR headed back to the source via node 2.
    let rerr = acts.iter().find_map(|a| match a {
        Action::UnicastControl { next, ctrl, .. } if ctrl.kind == ControlKind::Rerr => {
            Rerr::decode(&ctrl.bytes).map(|m| (m, *next))
        }
        _ => None,
    });
    let (m, to) = rerr.expect("RERR sent");
    assert_eq!(to, NodeId(2));
    assert_eq!((m.from, m.to, m.target), (NodeId(5), NodeId(7), NodeId(0)));
}

#[test]
fn link_failure_without_alternate_drops() {
    let mut n = Node::new(5);
    let sr = SourceRoute { path: ids(&[0, 2, 5, 7, 9]), idx: 3, salvage: 0 };
    let mut d = data(0, 9);
    d.ext = sr.encode();
    let p = Packet { uid: 1, origin: NodeId(5), body: PacketBody::Data(d) };
    let acts = n.call(|x, ctx| x.handle_unicast_failure(ctx, NodeId(7), p));
    assert!(acts
        .iter()
        .any(|a| matches!(a, Action::DropData { reason: DropReason::BrokenSourceRoute, .. })));
}

#[test]
fn source_failure_rediscoveres() {
    let mut n = Node::new(0);
    n.dsr.cache.insert(&ids(&[2, 9]), n.now);
    let sr = SourceRoute { path: ids(&[0, 2, 9]), idx: 1, salvage: 0 };
    let mut d = data(0, 9);
    d.ext = sr.encode();
    let p = Packet { uid: 1, origin: NodeId(0), body: PacketBody::Data(d) };
    let acts = n.call(|x, ctx| x.handle_unicast_failure(ctx, NodeId(2), p));
    // Link 0->2 removed; cached route gone; re-discovery begins.
    assert!(n.dsr.discovery_pending(NodeId(9)));
    assert_eq!(sent_rreqs(&acts).len(), 1);
}

#[test]
fn rerr_removes_link_and_forwards_toward_target() {
    let mut n = Node::new(2);
    n.dsr.cache.insert(&ids(&[5, 7, 9]), n.now);
    let m = Rerr { from: NodeId(5), to: NodeId(7), target: NodeId(0), path: ids(&[0]) };
    let acts = n.call(|d, ctx| d.handle_rerr(ctx, NodeId(5), m));
    assert_eq!(n.dsr.cache.lookup(NodeId(9), n.now), None, "stale path purged");
    let fwd = acts.iter().find_map(|a| match a {
        Action::UnicastControl { next, ctrl, .. } if ctrl.kind == ControlKind::Rerr => {
            Rerr::decode(&ctrl.bytes).map(|m| (m, *next))
        }
        _ => None,
    });
    let (m, to) = fwd.expect("forwarded");
    assert_eq!(to, NodeId(0));
    assert!(m.path.is_empty());
}

#[test]
fn stale_cache_answers_discoveries_with_dead_routes() {
    // The failure mode the paper blames for DSR's poor delivery:
    // draft-03 caches never expire, so a long-dead route keeps being
    // offered in cache replies.
    let mut n = Node::new(5);
    n.dsr.cache.insert(&ids(&[6, 9]), SimTime::from_secs(1));
    n.now = SimTime::from_secs(800); // 13+ minutes later
    let m = Rreq { src: NodeId(0), dst: NodeId(9), id: 7, ttl: 5, route: ids(&[2]) };
    let acts = n.hear_rreq(2, &m);
    assert_eq!(sent_rreps(&acts).len(), 1, "stale reply served");
    // Draft-07 flavour expires it.
    let mut n7 = Node::new(5);
    n7.dsr = Dsr::new(NodeId(5), DsrConfig::draft7());
    n7.dsr.cache.insert(&ids(&[6, 9]), SimTime::from_secs(1));
    n7.now = SimTime::from_secs(800);
    let m = Rreq { src: NodeId(0), dst: NodeId(9), id: 7, ttl: 5, route: ids(&[2]) };
    let acts = n7.hear_rreq(2, &m);
    assert!(sent_rreps(&acts).is_empty(), "draft-07 cache expired");
}
