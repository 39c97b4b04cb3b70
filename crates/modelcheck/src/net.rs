//! Network state, scenarios and the transition relation.
//!
//! A [`NetState`] is one vertex of the transition system: the protocol
//! state of every node plus the environment — in-flight message copies,
//! pending timers, the live link set, and the remaining hazard budgets.
//! [`NetState::enumerate`] lists every event enabled in a state and
//! [`NetState::apply`] executes one, producing the successor state and
//! the routing-decision trace events the transition emitted.
//!
//! **Logical time is frozen** at [`T0`]: every callback observes the
//! same `now`, so route lifetimes granted during the run never lapse on
//! their own and canonically equal states hash identically. The passage
//! of time is modelled explicitly instead — [`Event::Expire`] is the
//! route-table timeout, [`Event::Fire`] delivers any pending timer, and
//! [`Event::Bump`] is the destination-side sequence-number increment.
//! This is what makes timing-dependent interleavings (the stale-route
//! AODV loop among them) ordinary reachable states instead of
//! improbable schedules.

use manet_sim::hash::{fnv1a, FNV_OFFSET};
use manet_sim::packet::{ControlKind, DataPacket, NodeId, Packet, PacketBody};
use manet_sim::protocol::{Action, Ctx, ProtocolModel};
use manet_sim::rng::SimRng;
use manet_sim::time::SimTime;
use manet_sim::trace::TraceEvent;
use std::collections::BTreeSet;
use std::fmt;

/// The frozen logical instant every callback observes.
pub const T0: SimTime = SimTime::from_secs(1);

/// Hop budget given to originated data packets.
const DATA_TTL: u8 = 16;

/// Flow id stamped on liveness-probe data packets, keeping them
/// distinct from scenario workload flows (which use their origination
/// index).
pub const PROBE_FLOW: u32 = u32::MAX;

/// One scenario: topology, workload and hazard budgets.
///
/// Budgets bound the environment's adversarial moves, keeping the state
/// space finite and focused: a scenario with `max_expires: 1` explores
/// every schedule in which *at most one* route entry times out, at any
/// node, at any point.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (reports and test assertions).
    pub name: String,
    /// Number of nodes (ids `0..n`).
    pub n: u16,
    /// Initially-up symmetric links.
    pub links: Vec<(u16, u16)>,
    /// Data originations `(src, dst)`, injectable in list order at any
    /// point of the schedule.
    pub originations: Vec<(u16, u16)>,
    /// Links that may change state (each toggled at most once, in any
    /// order relative to everything else).
    pub toggles: Vec<(u16, u16)>,
    /// How many route entries may time out ([`Event::Expire`]).
    pub max_expires: u32,
    /// How many owner sequence-number increments ([`Event::Bump`]).
    pub max_bumps: u32,
    /// How many in-flight copies may be lost on *live* links (loss on a
    /// downed link is certain, not a choice, and is always free).
    pub max_losses: u32,
    /// How many crash/restart-with-state-loss transitions
    /// ([`Event::Restart`]) the environment may inject. Mirrors the
    /// simulator's `FaultAction::CrashRestart` with zero downtime: the
    /// node's protocol state and pending timers vanish and its reboot
    /// callback runs, all at the frozen instant.
    pub max_restarts: u32,
    /// The `(src, dst)` pair the liveness executor probes after a walk
    /// ends: once the schedule quiesces fairly, `src` must either hold
    /// a route towards `dst` or `dst` must be partitioned away. `None`
    /// skips the liveness check (pure safety scenarios).
    pub probe: Option<(u16, u16)>,
}

/// An in-flight message copy (one receiver; broadcasts fan out into one
/// copy per neighbour at send time).
#[derive(Clone, Debug)]
pub struct Msg {
    /// Transmitter.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Payload.
    pub body: PacketBody,
    /// Whether the receiver should see a broadcast reception.
    pub was_broadcast: bool,
    /// Whether losing this copy notifies the transmitter (models the
    /// MAC retry give-up callback for unicasts).
    pub notify_failure: bool,
}

fn kind_tag(kind: ControlKind) -> u8 {
    match kind {
        ControlKind::Rreq => 0,
        ControlKind::Rrep => 1,
        ControlKind::Rerr => 2,
        ControlKind::Hello => 3,
        ControlKind::Tc => 4,
        ControlKind::Other => 5,
    }
}

fn tag_name(tag: u8) -> &'static str {
    match tag {
        0 => "RREQ",
        1 => "RREP",
        2 => "RERR",
        3 => "HELLO",
        4 => "TC",
        5 => "CTRL",
        _ => "DATA",
    }
}

impl Msg {
    /// Canonical byte key: equal keys iff the copies are
    /// interchangeable. Layout: src, dst, flags, tag, payload.
    pub fn key(&self) -> Vec<u8> {
        let mut k = Vec::with_capacity(32);
        k.extend_from_slice(&self.src.0.to_le_bytes());
        k.extend_from_slice(&self.dst.0.to_le_bytes());
        k.push(u8::from(self.was_broadcast) | (u8::from(self.notify_failure) << 1));
        match &self.body {
            PacketBody::Control(c) => {
                k.push(kind_tag(c.kind));
                k.extend_from_slice(&c.bytes);
            }
            PacketBody::Data(d) => {
                k.push(255);
                k.extend_from_slice(&d.src.0.to_le_bytes());
                k.extend_from_slice(&d.dst.0.to_le_bytes());
                k.extend_from_slice(&d.flow.to_le_bytes());
                k.extend_from_slice(&d.seq.to_le_bytes());
                k.push(d.ttl);
            }
        }
        k
    }
}

/// One transition of the system. `Deliver`/`Lose` identify the message
/// copy by its canonical [`Msg::key`] rather than a queue index, so a
/// recorded trace replays (with inapplicable steps skipped) even after
/// the shrinker removes earlier events.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Event {
    /// Deliver the (first) in-flight copy with this key.
    Deliver(Vec<u8>),
    /// Lose the (first) in-flight copy with this key.
    Lose(Vec<u8>),
    /// Fire the pending timer `token` at `node`.
    Fire {
        /// Timer owner.
        node: u16,
        /// Timer token.
        token: u64,
    },
    /// Time out `node`'s route entry towards `dest`.
    Expire {
        /// The node whose table entry expires.
        node: u16,
        /// The entry's destination.
        dest: u16,
    },
    /// `node` raises its own destination sequence number.
    Bump {
        /// The destination node.
        node: u16,
    },
    /// Inject origination `index` of the scenario's workload.
    Originate {
        /// Index into [`Scenario::originations`].
        index: usize,
    },
    /// Toggle link `index` of the scenario's toggle list.
    Toggle {
        /// Index into [`Scenario::toggles`].
        index: usize,
    },
    /// Crash `node` and restart it with total state loss (protocol
    /// state and pending timers gone; the reboot callback runs).
    Restart {
        /// The node that loses its state.
        node: u16,
    },
}

const HEX: &[u8; 16] = b"0123456789abcdef";

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(HEX[usize::from(b >> 4)] as char);
        s.push(HEX[usize::from(b & 15)] as char);
    }
    s
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let b = s.as_bytes();
    let mut out = Vec::with_capacity(b.len() / 2);
    for pair in b.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

impl Event {
    /// Serialises the event to one line of the witness wire format
    /// (`deliver <hex-key>`, `fire <node> <token>`, ...). The format
    /// round-trips through [`Event::from_wire`] and is what
    /// `.events` fixture files contain.
    pub fn to_wire(&self) -> String {
        match self {
            Event::Deliver(k) => format!("deliver {}", hex_encode(k)),
            Event::Lose(k) => format!("lose {}", hex_encode(k)),
            Event::Fire { node, token } => format!("fire {node} {token}"),
            Event::Expire { node, dest } => format!("expire {node} {dest}"),
            Event::Bump { node } => format!("bump {node}"),
            Event::Originate { index } => format!("originate {index}"),
            Event::Toggle { index } => format!("toggle {index}"),
            Event::Restart { node } => format!("restart {node}"),
        }
    }

    /// Parses one line of the witness wire format; `None` on malformed
    /// input (wrong verb, missing or non-numeric operands, odd-length
    /// hex). Blank lines and `#` comments are the *caller's* concern —
    /// this parses exactly one event.
    pub fn from_wire(line: &str) -> Option<Event> {
        let mut parts = line.split_whitespace();
        let verb = parts.next()?;
        let event = match verb {
            "deliver" => Event::Deliver(hex_decode(parts.next()?)?),
            "lose" => Event::Lose(hex_decode(parts.next()?)?),
            "fire" => Event::Fire {
                node: parts.next()?.parse().ok()?,
                token: parts.next()?.parse().ok()?,
            },
            "expire" => Event::Expire {
                node: parts.next()?.parse().ok()?,
                dest: parts.next()?.parse().ok()?,
            },
            "bump" => Event::Bump { node: parts.next()?.parse().ok()? },
            "originate" => Event::Originate { index: parts.next()?.parse().ok()? },
            "toggle" => Event::Toggle { index: parts.next()?.parse().ok()? },
            "restart" => Event::Restart { node: parts.next()?.parse().ok()? },
            _ => return None,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(event)
    }
}

fn short_hash(bytes: &[u8]) -> u32 {
    fnv1a(bytes, FNV_OFFSET) as u32
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = |f: &mut fmt::Formatter<'_>, verb: &str, k: &[u8]| {
            let src = u16::from_le_bytes([k[0], k[1]]);
            let dst = u16::from_le_bytes([k[2], k[3]]);
            let what = tag_name(k[5]);
            write!(f, "{verb} {what} {src}->{dst} #{:08x}", short_hash(k))
        };
        match self {
            Event::Deliver(k) => msg(f, "deliver", k),
            Event::Lose(k) => msg(f, "lose", k),
            Event::Fire { node, token } => write!(f, "fire timer {token:#x} at {node}"),
            Event::Expire { node, dest } => write!(f, "expire route {node}->{dest}"),
            Event::Bump { node } => write!(f, "bump own seqno at {node}"),
            Event::Originate { index } => write!(f, "originate #{index}"),
            Event::Toggle { index } => write!(f, "toggle link #{index}"),
            Event::Restart { node } => write!(f, "restart {node} with state loss"),
        }
    }
}

/// The result of applying one event: the successor state plus the
/// routing-decision trace the transition emitted.
pub struct Step<M> {
    /// Successor state.
    pub state: NetState<M>,
    /// Trace events emitted by the protocol callback (if any).
    pub traces: Vec<TraceEvent>,
}

/// One vertex of the transition system.
#[derive(Clone, Debug)]
pub struct NetState<M> {
    /// Per-node protocol instances, indexed by node id.
    pub nodes: Vec<M>,
    /// In-flight message copies (a multiset; order is irrelevant).
    pub inflight: Vec<Msg>,
    /// Pending timers as a `(node, token)` set — any may fire next.
    pub timers: BTreeSet<(u16, u64)>,
    /// Live symmetric links, normalised to `(low, high)`.
    pub links: BTreeSet<(u16, u16)>,
    /// Next workload origination to inject.
    pub next_orig: usize,
    /// Remaining route-expiry budget.
    pub expires_left: u32,
    /// Remaining seqno-bump budget.
    pub bumps_left: u32,
    /// Remaining live-link loss budget.
    pub losses_left: u32,
    /// Remaining crash/restart budget.
    pub restarts_left: u32,
    /// Bitmask of already-fired link toggles.
    pub toggles_done: u32,
}

fn norm(a: u16, b: u16) -> (u16, u16) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl<M: ProtocolModel> NetState<M> {
    /// The initial state: fresh nodes (with their start callbacks run),
    /// the scenario's initial links, and full budgets.
    pub fn init(scenario: &Scenario, factory: impl Fn(NodeId) -> M) -> Self {
        let mut s = NetState {
            nodes: (0..scenario.n).map(|i| factory(NodeId(i))).collect(),
            inflight: Vec::new(),
            timers: BTreeSet::new(),
            links: scenario.links.iter().map(|&(a, b)| norm(a, b)).collect(),
            next_orig: 0,
            expires_left: scenario.max_expires,
            bumps_left: scenario.max_bumps,
            losses_left: scenario.max_losses,
            restarts_left: scenario.max_restarts,
            toggles_done: 0,
        };
        for i in 0..scenario.n {
            s.callback(scenario, i, |m, ctx| m.start(ctx));
        }
        s
    }

    fn link_up(&self, a: u16, b: u16) -> bool {
        self.links.contains(&norm(a, b))
    }

    fn neighbors(&self, node: u16) -> Vec<u16> {
        // `links` is sorted, so the result is deterministic.
        let mut out: Vec<u16> = self
            .links
            .iter()
            .filter_map(|&(a, b)| {
                if a == node {
                    Some(b)
                } else if b == node {
                    Some(a)
                } else {
                    None
                }
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Runs one protocol callback at `node` and folds its queued
    /// actions back into the network state. Returns the trace events
    /// the callback emitted.
    fn callback(
        &mut self,
        scenario: &Scenario,
        node: u16,
        f: impl FnOnce(&mut M, &mut Ctx),
    ) -> Vec<TraceEvent> {
        let mut actions = Vec::new();
        {
            // A fresh fixed-seed stream per callback: protocols only
            // draw jitter from it, and reusing the seed keeps equal
            // states canonically equal.
            let mut rng = SimRng::from_seed(0);
            let mut ctx = Ctx::new(T0, NodeId(node), scenario.n as usize, &mut rng, &mut actions);
            ctx.set_trace_enabled(true);
            f(&mut self.nodes[node as usize], &mut ctx);
        }
        let mut traces = Vec::new();
        for action in actions {
            match action {
                Action::Broadcast { ctrl, .. } => {
                    for nbr in self.neighbors(node) {
                        self.inflight.push(Msg {
                            src: NodeId(node),
                            dst: NodeId(nbr),
                            body: PacketBody::Control(ctrl.clone()),
                            was_broadcast: true,
                            notify_failure: false,
                        });
                    }
                }
                Action::UnicastControl { next, ctrl, notify_failure, .. } => {
                    self.inflight.push(Msg {
                        src: NodeId(node),
                        dst: next,
                        body: PacketBody::Control(ctrl),
                        was_broadcast: false,
                        notify_failure,
                    });
                }
                Action::SendData { next, data } => {
                    self.inflight.push(Msg {
                        src: NodeId(node),
                        dst: next,
                        body: PacketBody::Data(data),
                        was_broadcast: false,
                        notify_failure: true,
                    });
                }
                Action::SetTimer { token, .. } => {
                    self.timers.insert((node, token));
                }
                Action::Trace(event) => traces.push(event),
                // The model checker never injects corrupted frames, so
                // `DropMalformed` is unreachable here; treating it as a
                // no-op keeps the match exhaustive without pretending
                // the model covers corruption.
                Action::Deliver { .. }
                | Action::DropData { .. }
                | Action::DropMalformed { .. }
                | Action::Count { .. } => {}
            }
        }
        traces
    }

    /// Injects a data origination at `src` towards `dst` outside the
    /// scenario workload — the liveness executor's probe (flow id
    /// [`PROBE_FLOW`]). Returns the traces the callback emitted.
    pub(crate) fn inject_origination(
        &mut self,
        scenario: &Scenario,
        src: u16,
        dst: u16,
    ) -> Vec<TraceEvent> {
        let data = DataPacket {
            src: NodeId(src),
            dst: NodeId(dst),
            flow: PROBE_FLOW,
            seq: 0,
            created: T0,
            payload_len: 512,
            ttl: DATA_TTL,
            ext: vec![],
        };
        self.callback(scenario, src, |m, ctx| m.handle_data_origination(ctx, data))
    }

    /// Every event enabled in this state, in deterministic order.
    pub fn enumerate(&self, scenario: &Scenario) -> Vec<Event> {
        let mut events = Vec::new();
        let mut keys: Vec<(Vec<u8>, bool)> =
            self.inflight.iter().map(|m| (m.key(), self.link_up(m.src.0, m.dst.0))).collect();
        keys.sort_unstable();
        keys.dedup();
        for (key, up) in &keys {
            if *up {
                events.push(Event::Deliver(key.clone()));
            }
        }
        for (key, up) in &keys {
            // Loss on a live link spends budget; on a dead link it is
            // the only possible outcome and is free.
            if !*up || self.losses_left > 0 {
                events.push(Event::Lose(key.clone()));
            }
        }
        for &(node, token) in &self.timers {
            events.push(Event::Fire { node, token });
        }
        if self.expires_left > 0 {
            for (i, m) in self.nodes.iter().enumerate() {
                for r in m.dump() {
                    if r.valid {
                        events.push(Event::Expire { node: i as u16, dest: r.dest.0 });
                    }
                }
            }
        }
        if self.bumps_left > 0 {
            for i in 0..self.nodes.len() {
                events.push(Event::Bump { node: i as u16 });
            }
        }
        if self.next_orig < scenario.originations.len() {
            events.push(Event::Originate { index: self.next_orig });
        }
        for index in 0..scenario.toggles.len() {
            if self.toggles_done & (1 << index) == 0 {
                events.push(Event::Toggle { index });
            }
        }
        if self.restarts_left > 0 {
            for i in 0..self.nodes.len() {
                events.push(Event::Restart { node: i as u16 });
            }
        }
        events
    }

    /// Applies one event, returning the successor state (or `None` when
    /// the event is not applicable here — a replayed trace may contain
    /// steps an earlier removal made moot).
    pub fn apply(&self, scenario: &Scenario, event: &Event) -> Option<Step<M>> {
        let mut next = self.clone();
        let traces = match event {
            Event::Deliver(key) => {
                let i = next.inflight.iter().position(|m| m.key() == *key)?;
                let msg = next.inflight.remove(i);
                if !next.link_up(msg.src.0, msg.dst.0) {
                    return None;
                }
                let (src, dst, bcast) = (msg.src, msg.dst, msg.was_broadcast);
                match msg.body {
                    PacketBody::Control(ctrl) => next.callback(scenario, dst.0, |m, ctx| {
                        m.handle_control(ctx, src, &ctrl, bcast)
                    }),
                    PacketBody::Data(data) => next
                        .callback(scenario, dst.0, |m, ctx| m.handle_data_packet(ctx, src, data)),
                }
            }
            Event::Lose(key) => {
                let i = next.inflight.iter().position(|m| m.key() == *key)?;
                let msg = next.inflight.remove(i);
                if next.link_up(msg.src.0, msg.dst.0) {
                    if next.losses_left == 0 {
                        return None;
                    }
                    next.losses_left -= 1;
                }
                if msg.notify_failure {
                    let (src, dst) = (msg.src, msg.dst);
                    let packet = Packet { uid: 0, origin: src, body: msg.body };
                    next.callback(scenario, src.0, |m, ctx| {
                        m.handle_unicast_failure(ctx, dst, packet)
                    })
                } else {
                    Vec::new()
                }
            }
            Event::Fire { node, token } => {
                if !next.timers.remove(&(*node, *token)) {
                    return None;
                }
                let token = *token;
                next.callback(scenario, *node, |m, ctx| m.handle_timer(ctx, token))
            }
            Event::Expire { node, dest } => {
                if next.expires_left == 0 {
                    return None;
                }
                if !next.nodes[*node as usize].force_expire(NodeId(*dest)) {
                    return None;
                }
                next.expires_left -= 1;
                Vec::new()
            }
            Event::Bump { node } => {
                if next.bumps_left == 0 {
                    return None;
                }
                next.bumps_left -= 1;
                next.nodes[*node as usize].bump_own_seqno();
                Vec::new()
            }
            Event::Originate { index } => {
                if *index != next.next_orig || *index >= scenario.originations.len() {
                    return None;
                }
                next.next_orig += 1;
                let (src, dst) = scenario.originations[*index];
                let data = DataPacket {
                    src: NodeId(src),
                    dst: NodeId(dst),
                    flow: *index as u32,
                    seq: 0,
                    created: T0,
                    payload_len: 512,
                    ttl: DATA_TTL,
                    ext: vec![],
                };
                next.callback(scenario, src, |m, ctx| m.handle_data_origination(ctx, data))
            }
            Event::Toggle { index } => {
                if next.toggles_done & (1 << *index) != 0 || *index >= scenario.toggles.len() {
                    return None;
                }
                next.toggles_done |= 1 << *index;
                let (a, b) = scenario.toggles[*index];
                let link = norm(a, b);
                if !next.links.remove(&link) {
                    next.links.insert(link);
                }
                Vec::new()
            }
            Event::Restart { node } => {
                if next.restarts_left == 0 || *node as usize >= next.nodes.len() {
                    return None;
                }
                next.restarts_left -= 1;
                // Pending timers belong to the lost incarnation.
                next.timers.retain(|&(n, _)| n != *node);
                next.callback(scenario, *node, |m, ctx| m.handle_reboot(ctx))
            }
        };
        Some(Step { state: next, traces })
    }

    /// Canonical 128-bit fingerprint for state-space deduplication.
    ///
    /// Everything order-dependent is sorted first (node digests iterate
    /// their maps sorted; the in-flight multiset is sorted by key), so
    /// two states reached along different schedules but holding the
    /// same logical state collide — which is the point.
    pub fn fingerprint(&self) -> u128 {
        let mut bytes = Vec::with_capacity(256);
        for m in &self.nodes {
            let start = bytes.len();
            m.digest(&mut bytes);
            let len = (bytes.len() - start) as u64;
            bytes.extend_from_slice(&len.to_le_bytes());
        }
        let mut keys: Vec<Vec<u8>> = self.inflight.iter().map(Msg::key).collect();
        keys.sort_unstable();
        bytes.extend_from_slice(&(keys.len() as u64).to_le_bytes());
        for k in keys {
            bytes.extend_from_slice(&(k.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&k);
        }
        for &(node, token) in &self.timers {
            bytes.extend_from_slice(&node.to_le_bytes());
            bytes.extend_from_slice(&token.to_le_bytes());
        }
        for &(a, b) in &self.links {
            bytes.extend_from_slice(&a.to_le_bytes());
            bytes.extend_from_slice(&b.to_le_bytes());
        }
        bytes.extend_from_slice(&(self.next_orig as u64).to_le_bytes());
        bytes.extend_from_slice(&self.expires_left.to_le_bytes());
        bytes.extend_from_slice(&self.bumps_left.to_le_bytes());
        bytes.extend_from_slice(&self.losses_left.to_le_bytes());
        bytes.extend_from_slice(&self.restarts_left.to_le_bytes());
        bytes.extend_from_slice(&self.toggles_done.to_le_bytes());
        let h1 = fnv1a(&bytes, FNV_OFFSET);
        let h2 = fnv1a(&bytes, 0x6c62_272e_07bb_0142);
        (u128::from(h1) << 64) | u128::from(h2)
    }
}
