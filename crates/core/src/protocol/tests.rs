//! Unit tests driving the LDR state machine callback-by-callback and
//! inspecting the queued actions — no simulator required.

use super::*;
use manet_sim::discovery::DISCOVERY_BUFFER;
use manet_sim::protocol::{successors, Action};
use manet_sim::rng::SimRng;

/// Test harness around one LDR node.
struct Node {
    ldr: Ldr,
    rng: SimRng,
    now: SimTime,
}

impl Node {
    fn new(id: u16) -> Self {
        Self::with_cfg(id, LdrConfig::default())
    }

    fn with_cfg(id: u16, cfg: LdrConfig) -> Self {
        Node {
            ldr: Ldr::new(NodeId(id), cfg),
            rng: SimRng::from_seed(u64::from(id)),
            now: SimTime::from_secs(1),
        }
    }

    fn at(&mut self, t: SimTime) -> &mut Self {
        self.now = t;
        self
    }

    fn call<F>(&mut self, f: F) -> Vec<Action>
    where
        F: FnOnce(&mut Ldr, &mut Ctx),
    {
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(self.now, self.ldr.id, 50, &mut self.rng, &mut actions);
        f(&mut self.ldr, &mut ctx);
        actions
    }

    fn originate(&mut self, data: DataPacket) -> Vec<Action> {
        self.call(|l, ctx| l.handle_data_origination(ctx, data))
    }

    fn data_from(&mut self, prev: u16, data: DataPacket) -> Vec<Action> {
        self.call(|l, ctx| l.handle_data_packet(ctx, NodeId(prev), data))
    }

    fn rreq_from(&mut self, prev: u16, m: Rreq) -> Vec<Action> {
        self.call(|l, ctx| l.handle_rreq(ctx, NodeId(prev), m))
    }

    fn rrep_from(&mut self, prev: u16, m: Rrep) -> Vec<Action> {
        self.call(|l, ctx| l.handle_rrep(ctx, NodeId(prev), m))
    }

    fn rerr_from(&mut self, prev: u16, m: Rerr) -> Vec<Action> {
        self.call(|l, ctx| l.handle_rerr(ctx, NodeId(prev), m))
    }

    fn timer(&mut self, token: u64) -> Vec<Action> {
        self.call(|l, ctx| l.handle_timer(ctx, token))
    }

    fn link_failure(&mut self, next: u16, data: DataPacket) -> Vec<Action> {
        let packet = Packet { uid: 1, origin: self.ldr.id, body: PacketBody::Data(data) };
        self.call(|l, ctx| l.handle_unicast_failure(ctx, NodeId(next), packet))
    }

    /// Installs a route by feeding an RREP advertisement directly.
    fn install_route(&mut self, dest: u16, sn: SeqNo, adv_dist: u32, via: u16) {
        let m = Rrep {
            dst: NodeId(dest),
            sn_dst: sn,
            src: NodeId(9999 % 50), // not us (tests use small ids)
            rreqid: 999_000 + u32::from(dest),
            dist: adv_dist,
            lifetime_ms: 6000,
            n_bit: false,
        };
        // Use a src that is definitely not this node so the RREP is a
        // "relay" path; without a cache entry it installs then drops.
        let m = Rrep { src: NodeId(49), ..m };
        assert_ne!(m.src, self.ldr.id, "test helper misuse");
        self.rrep_from(via, m);
        assert!(self.ldr.routes.active(NodeId(dest), self.now).is_some());
    }
}

fn sn(c: u32) -> SeqNo {
    SeqNo { epoch: 1, counter: c }
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

fn base_rreq(src: u16, dst: u16, rreqid: u32) -> Rreq {
    Rreq {
        dst: NodeId(dst),
        sn_dst: None,
        rreqid,
        src: NodeId(src),
        sn_src: sn(0),
        fd: INFINITY,
        dist: 0,
        ttl: 10,
        t_bit: false,
        n_bit: false,
        d_bit: false,
    }
}

fn sent_rreqs(actions: &[Action]) -> Vec<(Rreq, bool, Option<NodeId>)> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Broadcast { ctrl, initiated } if ctrl.kind == ControlKind::Rreq => {
                Some((Rreq::decode(&ctrl.bytes).unwrap(), *initiated, None))
            }
            Action::UnicastControl { next, ctrl, initiated, .. }
                if ctrl.kind == ControlKind::Rreq =>
            {
                Some((Rreq::decode(&ctrl.bytes).unwrap(), *initiated, Some(*next)))
            }
            _ => None,
        })
        .collect()
}

fn sent_rreps(actions: &[Action]) -> Vec<(Rrep, bool, NodeId)> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::UnicastControl { next, ctrl, initiated, .. }
                if ctrl.kind == ControlKind::Rrep =>
            {
                Some((Rrep::decode(&ctrl.bytes).unwrap(), *initiated, *next))
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

fn sent_data(actions: &[Action]) -> Vec<(NodeId, DataPacket)> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::SendData { next, data } => Some((*next, data.clone())),
            _ => None,
        })
        .collect()
}

fn counted(actions: &[Action], which: ProtoCounter) -> u64 {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Count { which: w, amount } if *w == which => Some(*amount),
            _ => None,
        })
        .sum()
}

fn dropped(actions: &[Action]) -> Vec<DropReason> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::DropData { reason, .. } => Some(*reason),
            _ => None,
        })
        .collect()
}

// ----- Procedure 1: initiation -------------------------------------------

#[test]
fn origination_without_route_floods_rreq_and_buffers() {
    let mut n = Node::new(0);
    let acts = n.originate(data(0, 7));
    let rreqs = sent_rreqs(&acts);
    assert_eq!(rreqs.len(), 1);
    let (m, initiated, to) = &rreqs[0];
    assert!(initiated);
    assert_eq!(*to, None, "discovery RREQ is a broadcast");
    assert_eq!(m.dst, NodeId(7));
    assert_eq!(m.sn_dst, None, "no prior information");
    assert_eq!(m.fd, INFINITY);
    assert_eq!(m.dist, 0);
    assert!(!m.t_bit && !m.n_bit && !m.d_bit);
    assert_eq!(counted(&acts, ProtoCounter::DiscoveryStarted), 1);
    assert!(acts.iter().any(|a| matches!(a, Action::SetTimer { .. })));
    assert!(n.ldr.discovery_pending(NodeId(7)));
    assert!(sent_data(&acts).is_empty(), "data must wait for the route");
}

#[test]
fn second_packet_while_active_is_queued_not_reflooded() {
    let mut n = Node::new(0);
    n.originate(data(0, 7));
    let acts = n.originate(data(0, 7));
    assert!(sent_rreqs(&acts).is_empty(), "one computation per destination");
    assert_eq!(counted(&acts, ProtoCounter::DiscoveryStarted), 0);
}

#[test]
fn buffer_overflow_drops_excess_packets() {
    let mut n = Node::new(0);
    for _ in 0..DISCOVERY_BUFFER {
        assert!(dropped(&n.originate(data(0, 7))).is_empty());
    }
    let acts = n.originate(data(0, 7));
    assert_eq!(dropped(&acts), vec![DropReason::BufferOverflow]);
}

#[test]
fn origination_with_active_route_sends_immediately() {
    let mut n = Node::new(0);
    n.install_route(7, sn(1), 2, 3);
    let acts = n.originate(data(0, 7));
    let sent = sent_data(&acts);
    assert_eq!(sent.len(), 1);
    assert_eq!(sent[0].0, NodeId(3));
    assert!(sent_rreqs(&acts).is_empty());
}

// ----- Procedure 2: relaying solicitations --------------------------------

#[test]
fn uninformed_relay_rebroadcasts_with_incremented_distance() {
    let mut n = Node::new(5);
    let acts = n.rreq_from(2, base_rreq(0, 7, 1));
    let rreqs = sent_rreqs(&acts);
    assert_eq!(rreqs.len(), 1);
    let (m, initiated, to) = &rreqs[0];
    assert!(!initiated, "a relay does not initiate");
    assert_eq!(*to, None);
    assert_eq!(m.dist, 1);
    assert_eq!(m.ttl, 9);
    assert!(!m.t_bit, "no information leaves the T bit alone");
    // Reverse route to the origin was installed from the embedded
    // advertisement.
    let e = n.ldr.routes.active(NodeId(0), n.now).unwrap();
    assert_eq!(e.next_hop, NodeId(2));
    assert_eq!(e.dist, 1);
}

#[test]
fn engaged_node_ignores_duplicate_broadcast() {
    let mut n = Node::new(5);
    n.rreq_from(2, base_rreq(0, 7, 1));
    let acts = n.rreq_from(3, base_rreq(0, 7, 1));
    assert!(acts.is_empty(), "a node enters a computation at most once");
}

#[test]
fn node_never_relays_its_own_solicitation() {
    let mut n = Node::new(0);
    let acts = n.rreq_from(2, base_rreq(0, 7, 1));
    assert!(acts.is_empty());
}

#[test]
fn ttl_exhaustion_stops_the_flood() {
    let mut n = Node::new(5);
    let m = Rreq { ttl: 1, ..base_rreq(0, 7, 1) };
    let acts = n.rreq_from(2, m);
    assert!(sent_rreqs(&acts).is_empty());
}

#[test]
fn sdc_satisfied_relay_answers_instead_of_flooding() {
    let mut n = Node::new(5);
    n.install_route(7, sn(3), 1, 6); // dist 2, fd 2
    let m = Rreq { sn_dst: Some(sn(3)), fd: 5, ..base_rreq(0, 7, 1) };
    let acts = n.rreq_from(2, m);
    let rreps = sent_rreps(&acts);
    assert_eq!(rreps.len(), 1);
    let (r, initiated, to) = &rreps[0];
    assert!(initiated, "an SDC answer counts as an initiated RREP");
    assert_eq!(*to, NodeId(2), "reply follows the reverse path");
    assert_eq!(r.dist, 2);
    assert_eq!(r.sn_dst, sn(3));
    assert!(sent_rreqs(&acts).is_empty());
}

#[test]
fn fdc_violation_sets_t_bit_in_relay() {
    let mut n = Node::new(5);
    n.install_route(7, sn(3), 3, 6); // dist 4, fd 4
                                     // Make the route stale so SDC can't answer but the history remains.
    n.ldr.routes.invalidate(NodeId(7), n.now);
    // Requester wants fd# = 3 at the same sequence number; our fd 4 >= 3.
    let m = Rreq { sn_dst: Some(sn(3)), fd: 3, ..base_rreq(0, 7, 1) };
    let acts = n.rreq_from(2, m);
    let rreqs = sent_rreqs(&acts);
    assert_eq!(rreqs.len(), 1);
    assert!(rreqs[0].0.t_bit, "ordering violation must set the reset bit");
    assert_eq!(rreqs[0].0.fd, 3, "fd# unchanged by a weaker relay");
}

#[test]
fn ordered_relay_strengthens_fd_and_preserves_t() {
    let mut n = Node::new(5);
    n.install_route(7, sn(3), 1, 6); // dist 2, fd 2
    n.ldr.routes.invalidate(NodeId(7), n.now); // history only
    let m = Rreq { sn_dst: Some(sn(3)), fd: 5, ..base_rreq(0, 7, 1) };
    let acts = n.rreq_from(2, m);
    let rreqs = sent_rreqs(&acts);
    assert_eq!(rreqs.len(), 1);
    assert!(!rreqs[0].0.t_bit);
    assert_eq!(rreqs[0].0.fd, 2, "fd#' = min(fd_B, fd#)");
}

#[test]
fn newer_seqno_relay_clears_t_and_resets_invariants() {
    let mut n = Node::new(5);
    n.install_route(7, sn(9), 4, 6); // sn 9, dist 5, fd 5 — but invalid
    n.ldr.routes.invalidate(NodeId(7), n.now);
    let m = Rreq { sn_dst: Some(sn(3)), fd: 2, t_bit: true, ..base_rreq(0, 7, 1) };
    let acts = n.rreq_from(2, m);
    let rreqs = sent_rreqs(&acts);
    assert_eq!(rreqs.len(), 1);
    let fwd = rreqs[0].0;
    assert!(!fwd.t_bit, "higher sn# acts as the reset");
    assert_eq!(fwd.sn_dst, Some(sn(9)));
    assert_eq!(fwd.fd, 5);
}

// ----- destination behaviour ----------------------------------------------

#[test]
fn destination_replies_with_distance_zero_and_own_seqno() {
    let mut n = Node::new(7);
    let acts = n.rreq_from(2, base_rreq(0, 7, 1));
    let rreps = sent_rreps(&acts);
    assert_eq!(rreps.len(), 1);
    let (r, initiated, to) = &rreps[0];
    assert!(initiated);
    assert_eq!(*to, NodeId(2));
    assert_eq!(r.dist, 0);
    assert_eq!(r.sn_dst, n.ldr.own_seqno());
    assert_eq!(r.dst, NodeId(7));
    assert_eq!(r.src, NodeId(0));
}

#[test]
fn destination_answers_each_computation_once() {
    let mut n = Node::new(7);
    n.rreq_from(2, base_rreq(0, 7, 1));
    // A D-bit copy of the same computation must not produce a second
    // advertisement.
    let m = Rreq { d_bit: true, ..base_rreq(0, 7, 1) };
    let acts = n.rreq_from(3, m);
    assert!(sent_rreps(&acts).is_empty());
    // A *new* rreqid is a new computation.
    let acts = n.rreq_from(2, base_rreq(0, 7, 2));
    assert_eq!(sent_rreps(&acts).len(), 1);
}

#[test]
fn t_bit_request_makes_destination_increment_seqno() {
    let mut n = Node::new(7);
    let before = n.ldr.own_seqno();
    let m = Rreq { sn_dst: Some(before), t_bit: true, fd: 3, ..base_rreq(0, 7, 1) };
    let acts = n.rreq_from(2, m);
    assert!(n.ldr.own_seqno() > before, "path reset increments the owner's number");
    assert_eq!(counted(&acts, ProtoCounter::SeqnoIncrement), 1);
    let rreps = sent_rreps(&acts);
    assert_eq!(rreps[0].0.sn_dst, n.ldr.own_seqno());
}

#[test]
fn t_bit_request_with_stale_seqno_needs_no_increment() {
    let mut n = Node::new(7);
    // Raise our own number past the request's first.
    let old = n.ldr.own_seqno();
    let m1 = Rreq { sn_dst: Some(old), t_bit: true, fd: 3, ..base_rreq(0, 7, 1) };
    n.rreq_from(2, m1);
    let now_sn = n.ldr.own_seqno();
    assert!(now_sn > old);
    // A reset request against the *old* number is already satisfied.
    let m2 = Rreq { sn_dst: Some(old), t_bit: true, fd: 3, ..base_rreq(1, 7, 5) };
    let acts = n.rreq_from(3, m2);
    assert_eq!(n.ldr.own_seqno(), now_sn, "current number already exceeds the request");
    assert_eq!(counted(&acts, ProtoCounter::SeqnoIncrement), 0);
    assert_eq!(sent_rreps(&acts)[0].0.sn_dst, now_sn);
}

#[test]
fn only_the_destination_increments_its_number() {
    // A relay processing solicitations/advertisements for 7 never
    // touches its own sequence number on 7's behalf.
    let mut n = Node::new(5);
    let before = n.ldr.own_seqno();
    n.rreq_from(2, Rreq { t_bit: true, sn_dst: Some(sn(4)), fd: 2, ..base_rreq(0, 7, 1) });
    assert_eq!(n.ldr.own_seqno(), before);
}

// ----- path reset via unicast (T bit, D bit) -------------------------------

#[test]
fn sdc_without_t_node_unicasts_reset_request_to_destination() {
    let mut n = Node::new(5);
    n.install_route(7, sn(3), 1, 6); // dist 2, fd 2: satisfies d < fd# below
    let m = Rreq { sn_dst: Some(sn(3)), fd: 4, t_bit: true, ..base_rreq(0, 7, 1) };
    let acts = n.rreq_from(2, m);
    assert!(sent_rreps(&acts).is_empty(), "T bit forbids a same-sn answer");
    let rreqs = sent_rreqs(&acts);
    assert_eq!(rreqs.len(), 1);
    let (fwd, _, to) = &rreqs[0];
    assert_eq!(*to, Some(NodeId(6)), "unicast along the successor path");
    assert!(fwd.d_bit, "destination-only forwarding");
    assert!(fwd.t_bit);
    assert!(fwd.ttl >= 2, "TTL must cover the remaining distance");
}

#[test]
fn d_bit_relay_forwards_along_successor_not_broadcast() {
    let mut n = Node::new(5);
    n.install_route(7, sn(3), 1, 6);
    let m = Rreq { d_bit: true, t_bit: true, sn_dst: Some(sn(3)), fd: 2, ..base_rreq(0, 7, 1) };
    let acts = n.rreq_from(2, m);
    let rreqs = sent_rreqs(&acts);
    assert_eq!(rreqs.len(), 1);
    assert_eq!(rreqs[0].2, Some(NodeId(6)));
    assert!(rreqs[0].0.d_bit);
}

#[test]
fn d_bit_relay_with_newer_seqno_may_answer() {
    let mut n = Node::new(5);
    n.install_route(7, sn(9), 1, 6);
    let m = Rreq { d_bit: true, t_bit: true, sn_dst: Some(sn(3)), fd: 2, ..base_rreq(0, 7, 1) };
    let acts = n.rreq_from(2, m);
    assert_eq!(sent_rreps(&acts).len(), 1, "a strictly newer sn is itself a reset");
}

// ----- Procedures 3 & 4: advertisements ------------------------------------

#[test]
fn terminus_installs_route_and_flushes_buffered_data() {
    let mut n = Node::new(0);
    n.originate(data(0, 7));
    n.originate(data(0, 7));
    let rrep = Rrep {
        dst: NodeId(7),
        sn_dst: sn(1),
        src: NodeId(0),
        rreqid: 0,
        dist: 2,
        lifetime_ms: 6000,
        n_bit: false,
    };
    let acts = n.rrep_from(4, rrep);
    assert_eq!(counted(&acts, ProtoCounter::RrepUsableRecv), 1);
    assert_eq!(counted(&acts, ProtoCounter::DiscoverySucceeded), 1);
    let sent = sent_data(&acts);
    assert_eq!(sent.len(), 2, "both buffered packets go out");
    assert!(sent.iter().all(|(next, _)| *next == NodeId(4)));
    assert!(!n.ldr.discovery_pending(NodeId(7)));
    let e = n.ldr.routes.active(NodeId(7), n.now).unwrap();
    assert_eq!((e.dist, e.fd), (3, 3));
}

#[test]
fn relay_forwards_rrep_with_its_own_invariants_via_cached_reverse_path() {
    let mut n = Node::new(5);
    // Engage in computation (0, 1) arriving from neighbour 2.
    n.rreq_from(2, base_rreq(0, 7, 1));
    // RREP comes back from downstream neighbour 6.
    let rrep = Rrep {
        dst: NodeId(7),
        sn_dst: sn(4),
        src: NodeId(0),
        rreqid: 1,
        dist: 1,
        lifetime_ms: 6000,
        n_bit: false,
    };
    let acts = n.rrep_from(6, rrep);
    let fwd = sent_rreps(&acts);
    assert_eq!(fwd.len(), 1);
    let (m, initiated, to) = &fwd[0];
    assert!(!initiated, "a relayed RREP is not initiated");
    assert_eq!(*to, NodeId(2), "forced onto the RREQ reverse path");
    assert_eq!(m.dist, 2, "relay substitutes its own distance");
    assert_eq!(m.sn_dst, sn(4));
}

#[test]
fn rrep_without_cache_entry_is_consumed_not_forwarded() {
    let mut n = Node::new(5);
    let rrep = Rrep {
        dst: NodeId(7),
        sn_dst: sn(4),
        src: NodeId(0),
        rreqid: 77,
        dist: 1,
        lifetime_ms: 6000,
        n_bit: false,
    };
    let acts = n.rrep_from(6, rrep);
    assert!(sent_rreps(&acts).is_empty());
    // The advertisement is still usable locally (Procedure 3 ran).
    assert!(n.ldr.routes.active(NodeId(7), n.now).is_some());
}

#[test]
fn infeasible_rrep_is_ignored_fig1_example() {
    // Figure 1: E gets C's reply (dist 3) first, then B's (dist 4),
    // then D's (dist 1). B's must be ignored; D's must win.
    let mut e = Node::new(0); // plays node E
    e.originate(data(0, 7)); // node T is 7
    let rrep = |dist: u32| Rrep {
        dst: NodeId(7),
        sn_dst: sn(1),
        src: NodeId(0),
        rreqid: 0,
        dist,
        lifetime_ms: 6000,
        n_bit: false,
    };
    let acts = e.rrep_from(3, rrep(3)); // from C
    assert_eq!(counted(&acts, ProtoCounter::RrepUsableRecv), 1);
    let r = *e.ldr.routes.active(NodeId(7), e.now).unwrap();
    assert_eq!((r.dist, r.fd, r.next_hop), (4, 4, NodeId(3)));

    let acts = e.rrep_from(2, rrep(4)); // from B: 4 >= fd 4 — infeasible
    assert_eq!(counted(&acts, ProtoCounter::RrepUsableRecv), 0);
    let r = *e.ldr.routes.active(NodeId(7), e.now).unwrap();
    assert_eq!(r.next_hop, NodeId(3), "B's reply must not displace C's");

    let acts = e.rrep_from(4, rrep(1)); // from D: 1 < fd 4 — feasible
    assert_eq!(counted(&acts, ProtoCounter::RrepUsableRecv), 1);
    let r = *e.ldr.routes.active(NodeId(7), e.now).unwrap();
    assert_eq!((r.dist, r.fd, r.next_hop), (2, 2, NodeId(4)));
}

#[test]
fn relay_without_active_route_drops_rrep() {
    let mut n = Node::new(5);
    n.rreq_from(2, base_rreq(0, 7, 1));
    // Install then invalidate so invariants exist but the route is
    // unusable: the relay "cannot issue a new advertisement".
    let rrep = Rrep {
        dst: NodeId(7),
        sn_dst: sn(4),
        src: NodeId(0),
        rreqid: 1,
        dist: 1,
        lifetime_ms: 6000,
        n_bit: false,
    };
    // First reception installs a route...
    n.rrep_from(6, rrep);
    n.ldr.routes.invalidate(NodeId(7), n.now);
    // ...a second (stronger) RREP can't be relayed without a valid route.
    let stronger = Rrep { sn_dst: sn(9), rreqid: 1, ..rrep };
    let acts = n.rrep_from(6, stronger);
    // The table update happened (sn 9 installs), making the route valid
    // again, so relaying is actually allowed here; use an infeasible
    // one instead to pin the no-route case.
    let _ = acts;
    n.ldr.routes.invalidate(NodeId(7), n.now);
    let infeasible = Rrep { sn_dst: sn(9), dist: 50, rreqid: 1, ..rrep };
    let acts = n.rrep_from(6, infeasible);
    assert!(sent_rreps(&acts).is_empty(), "invalid route + infeasible advert: nothing to relay");
}

#[test]
fn duplicate_rrep_not_relayed_twice_without_optimization() {
    let cfg = LdrConfig { opt_multiple_rreps: false, ..LdrConfig::default() };
    let mut n = Node::with_cfg(5, cfg);
    n.rreq_from(2, base_rreq(0, 7, 1));
    let rrep = Rrep {
        dst: NodeId(7),
        sn_dst: sn(4),
        src: NodeId(0),
        rreqid: 1,
        dist: 1,
        lifetime_ms: 6000,
        n_bit: false,
    };
    assert_eq!(sent_rreps(&n.rrep_from(6, rrep)).len(), 1);
    let stronger = Rrep { sn_dst: sn(5), ..rrep };
    assert_eq!(
        sent_rreps(&n.rrep_from(6, stronger)).len(),
        0,
        "one reply per (originator, rreqid) without the optimisation"
    );
}

#[test]
fn multiple_rreps_optimization_relays_only_strictly_stronger() {
    let mut n = Node::new(5); // defaults enable the optimisation
    n.rreq_from(2, base_rreq(0, 7, 1));
    let rrep = Rrep {
        dst: NodeId(7),
        sn_dst: sn(4),
        src: NodeId(0),
        rreqid: 1,
        dist: 3,
        lifetime_ms: 6000,
        n_bit: false,
    };
    assert_eq!(sent_rreps(&n.rrep_from(6, rrep)).len(), 1);
    // Same strength: blocked.
    assert_eq!(sent_rreps(&n.rrep_from(6, rrep)).len(), 0);
    // Shorter at same sn: relayed.
    let shorter = Rrep { dist: 1, ..rrep };
    assert_eq!(sent_rreps(&n.rrep_from(6, shorter)).len(), 1);
    // Newer sn: relayed.
    let newer = Rrep { sn_dst: sn(5), dist: 4, ..rrep };
    assert_eq!(sent_rreps(&n.rrep_from(6, newer)).len(), 1);
}

// ----- failures and errors --------------------------------------------------

#[test]
fn unicast_failure_invalidates_routes_and_broadcasts_rerr() {
    let mut n = Node::new(5);
    n.install_route(7, sn(1), 2, 6);
    n.install_route(8, sn(2), 3, 6);
    n.install_route(9, sn(1), 1, 4);
    let acts = n.link_failure(6, data(1, 7)); // relayed data, link to 6 died
    assert!(n.ldr.routes.active(NodeId(7), n.now).is_none());
    assert!(n.ldr.routes.active(NodeId(8), n.now).is_none());
    assert!(n.ldr.routes.active(NodeId(9), n.now).is_some(), "other next hop unaffected");
    let rerrs = sent_rerrs(&acts);
    assert_eq!(rerrs.len(), 1);
    let dests: Vec<u16> = rerrs[0].entries.iter().map(|e| e.dst.0).collect();
    assert_eq!(dests, vec![7, 8]);
    assert_eq!(dropped(&acts), vec![DropReason::NoRoute], "relayed data is dropped");
}

#[test]
fn unicast_failure_on_own_data_rediscoveres_without_seqno_increment() {
    let mut n = Node::new(5);
    n.install_route(7, sn(1), 2, 6);
    let sn_before = n.ldr.own_seqno();
    let fd_before = n.ldr.routes.invariants(NodeId(7)).fd;
    let acts = n.link_failure(6, data(5, 7));
    assert!(n.ldr.discovery_pending(NodeId(7)), "own traffic triggers re-discovery");
    let rreqs = sent_rreqs(&acts);
    assert_eq!(rreqs.len(), 1);
    // The re-discovery carries the preserved invariants: same sn, the
    // (reduced) feasible distance.
    assert_eq!(rreqs[0].0.sn_dst, Some(sn(1)));
    assert!(rreqs[0].0.fd <= fd_before);
    assert_eq!(n.ldr.own_seqno(), sn_before, "LDR never bumps numbers on breaks");
}

#[test]
fn rerr_from_successor_invalidates_and_propagates() {
    let mut n = Node::new(5);
    n.install_route(7, sn(2), 2, 6);
    let rerr = Rerr { entries: vec![RerrEntry { dst: NodeId(7), sn: Some(sn(2)) }] };
    let acts = n.rerr_from(6, rerr);
    assert!(n.ldr.routes.active(NodeId(7), n.now).is_none());
    assert_eq!(sent_rerrs(&acts).len(), 1, "propagated to our own predecessors");
}

#[test]
fn rerr_from_non_successor_is_inert() {
    let mut n = Node::new(5);
    n.install_route(7, sn(2), 2, 6);
    let rerr = Rerr { entries: vec![RerrEntry { dst: NodeId(7), sn: Some(sn(2)) }] };
    let acts = n.rerr_from(4, rerr); // 4 is not our next hop to 7
    assert!(n.ldr.routes.active(NodeId(7), n.now).is_some());
    assert!(sent_rerrs(&acts).is_empty());
}

#[test]
fn rerr_with_newer_seqno_resets_feasible_distance_history() {
    let mut n = Node::new(5);
    n.install_route(7, sn(2), 2, 6);
    let rerr = Rerr { entries: vec![RerrEntry { dst: NodeId(7), sn: Some(sn(5)) }] };
    n.rerr_from(6, rerr);
    let inv = n.ldr.routes.invariants(NodeId(7));
    assert_eq!(inv.sn, Some(sn(5)));
    assert_eq!(inv.fd, INFINITY, "no distance known under the new number");
}

#[test]
fn forwarding_without_route_reports_error_upstream() {
    let mut n = Node::new(5);
    let acts = n.data_from(2, data(0, 7));
    assert_eq!(dropped(&acts), vec![DropReason::NoRoute]);
    assert_eq!(sent_rerrs(&acts).len(), 1);
}

#[test]
fn data_at_destination_is_delivered() {
    let mut n = Node::new(7);
    let acts = n.data_from(2, data(0, 7));
    assert!(acts.iter().any(|a| matches!(a, Action::Deliver { .. })));
    assert!(dropped(&acts).is_empty());
}

#[test]
fn data_ttl_expiry_is_dropped() {
    let mut n = Node::new(5);
    n.install_route(7, sn(1), 2, 6);
    let mut d = data(0, 7);
    d.ttl = 0;
    let acts = n.data_from(2, d);
    assert_eq!(dropped(&acts), vec![DropReason::TtlExpired]);
}

// ----- expanding ring and retries -------------------------------------------

#[test]
fn timer_expiry_retries_with_wider_ring_and_fresh_rreqid() {
    let mut n = Node::new(0);
    let first = sent_rreqs(&n.originate(data(0, 7)));
    let (m1, _, _) = first[0];
    // Fire the discovery timer (generation 0 for dest 7).
    let acts = n.timer(Discoveries::token(NodeId(7), 0));
    let second = sent_rreqs(&acts);
    assert_eq!(second.len(), 1);
    let (m2, _, _) = second[0];
    assert!(m2.ttl > m1.ttl, "expanding ring widens");
    assert_ne!(m2.rreqid, m1.rreqid, "each attempt is a fresh computation");
}

#[test]
fn discovery_fails_after_max_attempts_dropping_buffered_data() {
    let cfg = LdrConfig { max_attempts: 2, ..LdrConfig::default() };
    let mut n = Node::with_cfg(0, cfg);
    n.originate(data(0, 7));
    n.originate(data(0, 7));
    let a1 = n.timer(Discoveries::token(NodeId(7), 0));
    assert_eq!(sent_rreqs(&a1).len(), 1, "attempt 2 of 2");
    let a2 = n.timer(Discoveries::token(NodeId(7), 0));
    assert!(sent_rreqs(&a2).is_empty());
    assert_eq!(dropped(&a2), vec![DropReason::NoRoute, DropReason::NoRoute]);
    assert_eq!(counted(&a2, ProtoCounter::DiscoveryFailed), 1);
    assert!(!n.ldr.discovery_pending(NodeId(7)));
}

#[test]
fn stale_timer_generation_is_ignored() {
    let mut n = Node::new(0);
    n.originate(data(0, 7));
    let acts = n.timer(Discoveries::token(NodeId(7), 42));
    assert!(acts.is_empty());
}

// ----- optimisations ----------------------------------------------------------

#[test]
fn request_as_error_invalidates_route_through_asking_successor() {
    let mut n = Node::new(5);
    n.install_route(7, sn(2), 2, 6); // dist 3 via 6
                                     // Node 6 (our successor to 7) floods an RREQ for 7 with fd# = 3 >
                                     // d - 1 = 2: it should have answered if it had a route.
    let m = Rreq { sn_dst: Some(sn(2)), fd: 3, ..base_rreq(6, 7, 9) };
    n.rreq_from(6, m);
    assert!(n.ldr.routes.active(NodeId(7), n.now).is_none());
}

#[test]
fn request_as_error_respects_low_fd_requests() {
    let mut n = Node::new(5);
    n.install_route(7, sn(2), 4, 6); // dist 5 via 6
                                     // fd# = 2 <= d - 1 = 4: node 6 couldn't have answered anyway.
    let m = Rreq { sn_dst: Some(sn(2)), fd: 2, ..base_rreq(6, 7, 9) };
    n.rreq_from(6, m);
    assert!(n.ldr.routes.active(NodeId(7), n.now).is_some());
}

#[test]
fn minimum_lifetime_pushes_stale_routes_to_relay() {
    let mut n = Node::new(5);
    n.install_route(7, sn(3), 1, 6);
    // Age the clock to within 1 s of expiry (installed with 6 s at t=1).
    n.at(SimTime::from_millis(6500));
    let m = Rreq { sn_dst: Some(sn(3)), fd: 5, ..base_rreq(0, 7, 1) };
    let acts = n.rreq_from(2, m);
    assert!(sent_rreps(&acts).is_empty(), "nearly-expired route must not answer");
    assert_eq!(sent_rreqs(&acts).len(), 1, "...but must relay");
}

#[test]
fn reduced_distance_advertises_eighty_percent() {
    let mut n = Node::new(0);
    n.install_route(7, sn(1), 9, 3); // dist 10, fd 10
    n.ldr.routes.invalidate(NodeId(7), n.now);
    let acts = n.originate(data(0, 7));
    let rreqs = sent_rreqs(&acts);
    assert_eq!(rreqs[0].0.fd, 9, "floor(0.8 x 10) + 1");
    assert_eq!(rreqs[0].0.sn_dst, Some(sn(1)));
}

#[test]
fn optimal_ttl_uses_distance_and_fd() {
    let mut n = Node::new(0);
    n.install_route(7, sn(1), 9, 3); // dist 10, fd 10 -> fd# 8
    n.ldr.routes.invalidate(NodeId(7), n.now);
    let acts = n.originate(data(0, 7));
    let rreqs = sent_rreqs(&acts);
    // TTL = dist - fd# + LOCAL_ADD_TTL = 10 - 9 + 2 = 3.
    assert_eq!(rreqs[0].0.ttl, 3);
}

// ----- auditor hooks ----------------------------------------------------------

#[test]
fn dump_successors_report_only_active_routes() {
    let mut n = Node::new(5);
    n.install_route(7, sn(1), 2, 6);
    n.install_route(8, sn(1), 2, 4);
    n.ldr.routes.invalidate(NodeId(8), n.now);
    // Touch the clock via a callback so the snapshot time is current.
    n.data_from(2, data(0, 5));
    let dump = n.ldr.route_table_dump();
    assert_eq!(successors(&dump), vec![(NodeId(7), NodeId(6))]);
    assert_eq!(dump.len(), 2);
    assert!(dump.iter().any(|r| r.dest == NodeId(8) && !r.valid));
}

#[test]
fn own_seqno_value_tracks_counter() {
    let mut n = Node::new(7);
    assert_eq!(n.ldr.own_seqno_value(), Some(0.0));
    let m = Rreq { sn_dst: Some(n.ldr.own_seqno()), t_bit: true, fd: 3, ..base_rreq(0, 7, 1) };
    n.rreq_from(2, m);
    assert_eq!(n.ldr.own_seqno_value(), Some(1.0));
}

// ----- N bit (the origin never probes) ---------------------------------------

#[test]
fn relay_that_cannot_install_reverse_route_sets_n_bit() {
    let mut n = Node::new(5);
    // Give node 5 strong history for origin 0: fd = 1 under sn (1,0).
    n.install_route(0, sn(0), 0, 2);
    // An RREQ from 0 arrives over a long detour (dist 6): NDC rejects
    // the reverse advertisement (6 >= fd 1)... but the active route to
    // 0 still exists, so reverse_ok holds and N stays clear.
    let m = Rreq { dst: NodeId(7), sn_src: sn(0), dist: 6, ..base_rreq(0, 7, 1) };
    let acts = n.rreq_from(3, m);
    let rreqs = sent_rreqs(&acts);
    assert!(!rreqs[0].0.n_bit, "active reverse route: no N bit");

    // Same situation but the route to 0 is stale: N must be set.
    let mut n2 = Node::new(6);
    n2.install_route(0, sn(0), 0, 2);
    n2.ldr.routes.invalidate(NodeId(0), n2.now);
    let m = Rreq { dst: NodeId(7), sn_src: sn(0), dist: 6, ..base_rreq(0, 7, 1) };
    let acts = n2.rreq_from(3, m);
    let rreqs = sent_rreqs(&acts);
    assert!(rreqs[0].0.n_bit, "no reverse path: the RREQ stops advertising its origin");
}

#[test]
fn n_bit_rreq_no_longer_installs_reverse_routes() {
    let mut n = Node::new(5);
    let m = Rreq { n_bit: true, dist: 2, ..base_rreq(0, 7, 1) };
    n.rreq_from(3, m);
    assert!(
        n.ldr.routes.active(NodeId(0), n.now).is_none(),
        "an N-bit RREQ is not an advertisement for its origin"
    );
}

#[test]
fn n_bit_propagates_into_the_rrep() {
    let mut n = Node::new(5);
    n.install_route(7, sn(3), 1, 6);
    let m = Rreq { sn_dst: Some(sn(3)), fd: 5, n_bit: true, ..base_rreq(0, 7, 1) };
    let acts = n.rreq_from(2, m);
    let rreps = sent_rreps(&acts);
    assert_eq!(rreps.len(), 1);
    assert!(rreps[0].0.n_bit, "the requester must learn the reverse path is missing");
}

#[test]
fn probe_disabled_by_default_no_seqno_inflation() {
    let mut n = Node::new(0);
    n.originate(data(0, 7));
    let before = n.ldr.own_seqno();
    let rrep = Rrep {
        dst: NodeId(7),
        sn_dst: sn(1),
        src: NodeId(0),
        rreqid: 0,
        dist: 2,
        lifetime_ms: 6000,
        n_bit: true,
    };
    let acts = n.rrep_from(4, rrep);
    assert_eq!(n.ldr.own_seqno(), before, "no probe, no increment");
    assert!(sent_rreqs(&acts).is_empty());
}

// ----- housekeeping -----------------------------------------------------------

#[test]
fn cleanup_timer_sweeps_expired_computation_state() {
    let mut n = Node::new(5);
    n.rreq_from(2, base_rreq(0, 7, 1));
    assert_eq!(n.ldr.cache.len(), 1);
    // Fire the periodic sweep long after the cache TTL (2.8 s).
    n.at(SimTime::from_secs(30));
    let acts = n.timer(CLEANUP_TOKEN);
    assert_eq!(n.ldr.cache.len(), 0, "expired engagements are reclaimed");
    assert!(
        acts.iter().any(|a| matches!(a, Action::SetTimer { token, .. } if *token == CLEANUP_TOKEN)),
        "the sweep reschedules itself"
    );
}

#[test]
fn expired_engagement_allows_reengagement() {
    let mut n = Node::new(5);
    n.rreq_from(2, base_rreq(0, 7, 1));
    // Past the rreq-cache TTL the same (src, rreqid) is processed anew.
    n.at(SimTime::from_secs(10));
    let acts = n.rreq_from(3, base_rreq(0, 7, 1));
    assert_eq!(sent_rreqs(&acts).len(), 1, "stale engagement no longer suppresses");
}

#[test]
fn route_expiry_makes_route_unusable_but_keeps_invariants() {
    let mut n = Node::new(0);
    n.install_route(7, sn(1), 2, 3); // 6 s lifetime from t = 1
    n.at(SimTime::from_secs(8));
    let acts = n.originate(data(0, 7));
    assert!(sent_data(&acts).is_empty(), "expired route cannot carry data");
    let rreqs = sent_rreqs(&acts);
    assert_eq!(rreqs.len(), 1, "expiry triggers a re-discovery");
    assert_eq!(rreqs[0].0.sn_dst, Some(sn(1)), "history survives expiry");
    assert!(rreqs[0].0.fd < INFINITY, "feasible distance survives expiry");
}

// ----- crash/restart (driven by the simulator's fault layer) ------------------

#[test]
fn reboot_wipes_volatile_state_and_bumps_the_epoch() {
    let mut n = Node::new(5);
    n.install_route(7, sn(3), 2, 3);
    let before = n.ldr.own_seqno();
    n.at(SimTime::from_secs(4));
    let acts = n.call(|l, ctx| l.handle_reboot(ctx));
    assert!(n.ldr.routes.active(NodeId(7), n.now).is_none(), "routes are volatile");
    assert_eq!(n.ldr.cache.len(), 0, "computation cache is volatile");
    assert!(
        n.ldr.own_seqno() > before,
        "the post-reboot epoch dominates every pre-crash number (§3: no reboot-hold needed)"
    );
    assert!(
        acts.iter().any(|a| matches!(a, Action::SetTimer { token, .. } if *token == CLEANUP_TOKEN)),
        "housekeeping restarts with the node"
    );
}

#[test]
fn post_reboot_replies_dominate_pre_crash_advertisements() {
    // A destination that crashes and recovers must answer with a number
    // no stale pre-crash advert can beat — this is LDR's destination
    // sequence-number recovery (epoch counter in stable storage).
    let mut n = Node::new(7);
    let pre = n.ldr.own_seqno();
    n.call(|l, ctx| l.handle_reboot(ctx));
    let post = n.ldr.own_seqno();
    assert!(post > pre);
    assert!(post.epoch > pre.epoch, "recovery is by epoch, not by counter");
}

#[test]
fn a_retry_timer_from_before_the_reboot_finds_no_discovery_after_it() {
    // A reboot leaves a fresh `Ldr` with no open discovery, so the
    // crashed incarnation's retry token names nothing and sends nothing.
    // Once the same discovery is reopened, generations count from zero
    // as in AODV and DSR; the kernel keeps the token from reaching it,
    // since no timer armed before a crash is delivered after it
    // (tests/reboot.rs, all four protocols).
    let mut n = Node::new(0);
    n.originate(data(0, 7));
    assert!(n.ldr.pending.is_pending(NodeId(7)));
    n.call(|l, ctx| l.handle_reboot(ctx));
    assert!(!n.ldr.pending.is_pending(NodeId(7)));
    assert!(n.timer(Discoveries::token(NodeId(7), 0)).is_empty());
}
