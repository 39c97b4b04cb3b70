//! AODV unit tests driving the state machine directly.

use super::*;
use manet_sim::protocol::Action;
use manet_sim::rng::SimRng;

struct Node {
    aodv: Aodv,
    rng: SimRng,
    now: SimTime,
}

impl Node {
    fn new(id: u16) -> Self {
        Node {
            aodv: Aodv::new(NodeId(id), AodvConfig::default()),
            rng: SimRng::from_seed(u64::from(id)),
            now: SimTime::from_secs(1),
        }
    }

    fn call<F: FnOnce(&mut Aodv, &mut Ctx)>(&mut self, f: F) -> Vec<Action> {
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(self.now, self.aodv.id, 50, &mut self.rng, &mut actions);
        f(&mut self.aodv, &mut ctx);
        actions
    }

    fn originate(&mut self, d: DataPacket) -> Vec<Action> {
        self.call(|a, ctx| a.handle_data_origination(ctx, d))
    }
    fn rreq_from(&mut self, prev: u16, m: Rreq) -> Vec<Action> {
        self.call(|a, ctx| a.handle_rreq(ctx, NodeId(prev), m))
    }
    fn rrep_from(&mut self, prev: u16, m: Rrep) -> Vec<Action> {
        self.call(|a, ctx| a.handle_rrep(ctx, NodeId(prev), m))
    }
    fn link_failure(&mut self, next: u16, d: DataPacket) -> Vec<Action> {
        let p = Packet { uid: 1, origin: self.aodv.id, body: PacketBody::Data(d) };
        self.call(|a, ctx| a.handle_unicast_failure(ctx, NodeId(next), p))
    }
    fn install(&mut self, dest: u16, seq: u32, hops: u8, via: u16) {
        let m = Rrep {
            dst: NodeId(dest),
            dst_seq: seq,
            orig: NodeId(49),
            hop_count: hops,
            lifetime_ms: 6000,
        };
        self.rrep_from(via, m);
        assert!(self.aodv.active(NodeId(dest), self.now).is_some());
    }
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

fn base_rreq(src: u16, dst: u16, id: u32) -> Rreq {
    Rreq {
        dst: NodeId(dst),
        dst_seq: None,
        rreqid: id,
        src: NodeId(src),
        src_seq: 5,
        hop_count: 0,
        ttl: 10,
        dest_only: false,
    }
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

fn sent_rerrs(actions: &[Action]) -> Vec<Rerr> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Broadcast { ctrl, .. } if ctrl.kind == ControlKind::Rerr => {
                Rerr::decode(&ctrl.bytes)
            }
            _ => None,
        })
        .collect()
}

#[test]
fn origination_increments_own_seq_and_floods() {
    let mut n = Node::new(0);
    assert_eq!(n.aodv.own_seq(), 0);
    let acts = n.originate(data(0, 7));
    assert_eq!(n.aodv.own_seq(), 1, "AODV bumps its own number per RREQ");
    let rreqs = sent_rreqs(&acts);
    assert_eq!(rreqs.len(), 1);
    assert_eq!(rreqs[0].src_seq, 1);
    assert_eq!(rreqs[0].dst_seq, None);
}

#[test]
fn destination_increments_when_request_matches_own_number() {
    let mut n = Node::new(7);
    // Request carries our exact current number (0): we must move past it.
    let m = Rreq { dst_seq: Some(0), ..base_rreq(0, 7, 1) };
    let acts = n.rreq_from(2, m);
    assert_eq!(n.aodv.own_seq(), 1);
    let rreps = sent_rreps(&acts);
    assert_eq!(rreps[0].0.dst_seq, 1);
    assert_eq!(rreps[0].0.hop_count, 0);
}

#[test]
fn destination_catches_up_with_inflated_numbers() {
    // Other nodes incremented our number to 41 on breaks; when the
    // request reaches us we must adopt and exceed it.
    let mut n = Node::new(7);
    let m = Rreq { dst_seq: Some(41), ..base_rreq(0, 7, 1) };
    n.rreq_from(2, m);
    assert_eq!(n.aodv.own_seq(), 42);
}

#[test]
fn intermediate_with_fresh_route_replies() {
    let mut n = Node::new(5);
    n.install(7, 9, 1, 6);
    let m = Rreq { dst_seq: Some(9), ..base_rreq(0, 7, 1) };
    let acts = n.rreq_from(2, m);
    let rreps = sent_rreps(&acts);
    assert_eq!(rreps.len(), 1);
    assert_eq!(rreps[0].0.dst_seq, 9);
    assert_eq!(rreps[0].1, NodeId(2));
    assert!(sent_rreqs(&acts).is_empty());
}

#[test]
fn destination_only_rreq_is_relayed_with_the_flag_not_answered() {
    // RFC 3561 §5.1, the D flag: only the destination may respond. A
    // node that could answer from its fresh route relays instead.
    let mut n = Node::new(5);
    n.install(7, 9, 1, 6);
    let m = Rreq { dst_seq: Some(9), dest_only: true, ..base_rreq(0, 7, 1) };
    let acts = n.rreq_from(2, m);
    assert!(sent_rreps(&acts).is_empty(), "only the destination may answer");
    let rreqs = sent_rreqs(&acts);
    assert_eq!(rreqs.len(), 1);
    assert!(rreqs[0].dest_only, "the relayed copy keeps the flag");
    // The same request without the flag gets the intermediate reply.
    let m = Rreq { dst_seq: Some(9), ..base_rreq(0, 7, 2) };
    let acts = n.rreq_from(2, m);
    let rreps = sent_rreps(&acts);
    assert_eq!(rreps.len(), 1);
    assert_eq!((rreps[0].0.dst, rreps[0].0.dst_seq, rreps[0].1), (NodeId(7), 9, NodeId(2)));
    assert!(sent_rreqs(&acts).is_empty());
}

#[test]
fn intermediate_with_stale_seq_must_relay_not_reply() {
    // The AODV pathology LDR fixes: a downstream node with a perfectly
    // good route under the *previous* number cannot answer.
    let mut n = Node::new(5);
    n.install(7, 9, 1, 6);
    let m = Rreq { dst_seq: Some(10), ..base_rreq(0, 7, 1) };
    let acts = n.rreq_from(2, m);
    assert!(sent_rreps(&acts).is_empty());
    let rreqs = sent_rreqs(&acts);
    assert_eq!(rreqs.len(), 1);
    assert_eq!(rreqs[0].hop_count, 1);
    assert_eq!(rreqs[0].dst_seq, Some(10), "relay keeps the max number");
}

#[test]
fn relay_raises_requested_seq_to_stored() {
    let mut n = Node::new(5);
    n.install(7, 12, 1, 6);
    n.aodv.routes.get_mut(&NodeId(7)).unwrap().valid = false;
    let m = Rreq { dst_seq: Some(3), ..base_rreq(0, 7, 1) };
    let acts = n.rreq_from(2, m);
    let rreqs = sent_rreqs(&acts);
    assert_eq!(rreqs[0].dst_seq, Some(12));
}

#[test]
fn duplicate_rreq_suppressed() {
    let mut n = Node::new(5);
    assert_eq!(sent_rreqs(&n.rreq_from(2, base_rreq(0, 7, 1))).len(), 1);
    assert!(n.rreq_from(3, base_rreq(0, 7, 1)).is_empty());
}

#[test]
fn reverse_route_installed_from_rreq() {
    let mut n = Node::new(5);
    n.rreq_from(2, Rreq { hop_count: 3, ..base_rreq(0, 7, 1) });
    let r = n.aodv.route(NodeId(0)).unwrap();
    assert_eq!((r.hops, r.next, r.seq), (4, NodeId(2), Some(5)));
}

#[test]
fn rrep_forwarded_along_reverse_route() {
    let mut n = Node::new(5);
    n.rreq_from(2, base_rreq(0, 7, 1)); // reverse route to 0 via 2
    let m = Rrep { dst: NodeId(7), dst_seq: 4, orig: NodeId(0), hop_count: 1, lifetime_ms: 6000 };
    let acts = n.rrep_from(6, m);
    let fwd = sent_rreps(&acts);
    assert_eq!(fwd.len(), 1);
    assert_eq!(fwd[0].1, NodeId(2));
    assert_eq!(fwd[0].0.hop_count, 2);
    // Duplicate (same strength) suppressed.
    let acts = n.rrep_from(6, m);
    assert!(sent_rreps(&acts).is_empty());
    // Strictly better forwarded.
    let better = Rrep { dst_seq: 5, ..m };
    assert_eq!(sent_rreps(&n.rrep_from(6, better)).len(), 1);
}

#[test]
fn link_break_increments_stored_seq_and_sends_rerr() {
    let mut n = Node::new(5);
    n.install(7, 9, 2, 6);
    n.install(8, 3, 1, 6);
    let acts = n.link_failure(6, data(1, 7));
    assert!(n.aodv.active(NodeId(7), n.now).is_none());
    let rerrs = sent_rerrs(&acts);
    assert_eq!(rerrs.len(), 1);
    let mut seqs: Vec<(u16, u32)> = rerrs[0].entries.iter().map(|e| (e.dst.0, e.dst_seq)).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, vec![(7, 10), (8, 4)], "numbers inflate on breaks");
    assert_eq!(n.aodv.route(NodeId(7)).unwrap().seq, Some(10));
}

#[test]
fn rerr_propagates_only_for_routes_through_sender() {
    let mut n = Node::new(5);
    n.install(7, 9, 2, 6);
    let rerr = Rerr { entries: vec![RerrEntry { dst: NodeId(7), dst_seq: 10 }] };
    let acts = n.call(|a, ctx| a.handle_rerr(ctx, NodeId(6), rerr.clone()));
    assert!(n.aodv.active(NodeId(7), n.now).is_none());
    assert_eq!(sent_rerrs(&acts).len(), 1);
    // From a non-successor: inert.
    let mut n2 = Node::new(5);
    n2.install(7, 9, 2, 6);
    let acts = n2.call(|a, ctx| a.handle_rerr(ctx, NodeId(4), rerr));
    assert!(n2.aodv.active(NodeId(7), n2.now).is_some());
    assert!(sent_rerrs(&acts).is_empty());
}

#[test]
fn stale_rediscovery_inhibits_downstream_answers_end_to_end() {
    // After a break, the origin's RREQ carries seq+1; a downstream
    // holder of the old number relays instead of replying.
    let mut origin = Node::new(0);
    origin.install(7, 9, 3, 1);
    origin.link_failure(1, data(0, 7)); // stored seq becomes 10, rediscovery starts
    assert!(origin.aodv.pending.is_pending(NodeId(7)));
    let r = origin.aodv.route(NodeId(7)).unwrap();
    assert_eq!(r.seq, Some(10));

    let mut downstream = Node::new(5);
    downstream.install(7, 9, 1, 6); // still has the old number
    let m = Rreq { dst_seq: Some(10), src_seq: 2, ..base_rreq(0, 7, 77) };
    let acts = downstream.rreq_from(2, m);
    assert!(sent_rreps(&acts).is_empty(), "old-number route cannot answer");
    assert_eq!(sent_rreqs(&acts).len(), 1);
}

#[test]
fn route_update_rules_follow_rfc() {
    let mut n = Node::new(5);
    let now = n.now;
    let exp = now + SimDuration::from_secs(3);
    // Fresh install.
    assert!(n.aodv.update_route(NodeId(7), Some(5), 3, NodeId(2), now, exp));
    // Older seq rejected.
    assert!(!n.aodv.update_route(NodeId(7), Some(4), 1, NodeId(3), now, exp));
    // Same seq, shorter: accepted.
    assert!(n.aodv.update_route(NodeId(7), Some(5), 2, NodeId(4), now, exp));
    // Same seq, longer: rejected.
    assert!(!n.aodv.update_route(NodeId(7), Some(5), 6, NodeId(3), now, exp));
    // Newer seq, any hops: accepted.
    assert!(n.aodv.update_route(NodeId(7), Some(6), 9, NodeId(3), now, exp));
    assert_eq!(n.aodv.route(NodeId(7)).unwrap().next, NodeId(3));
}

#[test]
fn data_with_route_forwards_and_refreshes() {
    let mut n = Node::new(5);
    n.install(7, 9, 1, 6);
    let acts = n.call(|a, ctx| a.handle_data_packet(ctx, NodeId(2), data(0, 7)));
    assert!(acts.iter().any(|a| matches!(a, Action::SendData { next, .. } if *next == NodeId(6))));
}

#[test]
fn data_without_route_at_relay_errs_upstream() {
    let mut n = Node::new(5);
    let acts = n.call(|a, ctx| a.handle_data_packet(ctx, NodeId(2), data(0, 7)));
    assert_eq!(sent_rerrs(&acts).len(), 1);
    assert!(acts.iter().any(|a| matches!(a, Action::DropData { reason: DropReason::NoRoute, .. })));
}

#[test]
fn expanding_ring_retry_with_timer() {
    let mut n = Node::new(0);
    let first = sent_rreqs(&n.originate(data(0, 7)));
    let acts = n.timer(Discoveries::token(NodeId(7), 0));
    let second = sent_rreqs(&acts);
    assert_eq!(second.len(), 1);
    assert!(second[0].ttl > first[0].ttl);
    assert!(second[0].src_seq > first[0].src_seq, "every attempt bumps own seq");
}

impl Node {
    fn timer(&mut self, token: u64) -> Vec<Action> {
        self.call(|a, ctx| a.handle_timer(ctx, token))
    }
}

#[test]
fn a_retry_timer_from_before_the_reboot_retries_the_discovery_after_it() {
    // Nothing survives AODV's power cycle, the generation count
    // included, so the restarted node reopens the same discovery under
    // the crashed incarnation's retry token, and that token, handed over
    // anyway, retries it. Only the kernel keeps the two apart: it never
    // delivers a timer armed before a crash (tests/reboot.rs).
    let mut n = Node::new(0);
    n.originate(data(0, 7));
    n.call(|a, ctx| a.handle_reboot(ctx));
    n.originate(data(0, 7));
    assert_eq!(sent_rreqs(&n.timer(Discoveries::token(NodeId(7), 0))).len(), 1);
}

#[test]
fn own_seqno_value_reflects_growth() {
    let mut n = Node::new(0);
    for _ in 0..30 {
        // Each failed discovery cycle bumps the number.
        n.originate(data(0, 7));
        // Simulate timeout exhaustion quickly by dropping pending.
        n.aodv.pending = Discoveries::default();
    }
    assert_eq!(n.aodv.own_seqno_value(), Some(30.0));
}
