//! Observability: flight recorder, time-series sampler and JSONL export.
//!
//! Three pieces, all strictly *observation-pure* — attaching or
//! detaching any of them may not change one observable bit of the
//! simulation (enforced by the metrics-equality and byte-determinism
//! tests in `crates/bench/tests/`):
//!
//! * a bounded **[`FlightRecorder`]**: per-node ring buffers of the
//!   last N [`TraceEvent`]s, stamped with a global sequence number, fed
//!   from the kernel's single emission point. When the every-mutation
//!   invariant auditor captures its first breach, the recorder's merged
//!   dump is attached to the [`crate::audit::ForensicReport`], so
//!   failures always come with context;
//! * a **time-series sampler** driven by the kernel's
//!   [`crate::event::Event::TelemetrySample`] event (sim-time only —
//!   wall clocks are banned in this crate by `cargo xtask check`):
//!   each [`SeriesSample`] snapshots rolling delivery ratio,
//!   per-[`ControlKind`] transmission rates, per-protocol route-table
//!   occupancy ([`crate::protocol::RoutingProtocol::telemetry_snapshot`]),
//!   drop-reason counters, FEL depth and per-event-kind kernel counts;
//! * a hand-rolled **JSONL** layer (no serde — the build is offline):
//!   schema-versioned trace and series files with a fixed field order,
//!   byte-identical across reruns of the same `(scenario, seed)`.
//!   [`JsonlTrace`] is a [`TraceSink`] that keeps events in a compact
//!   [`TraceLog`] and renders the document once, at export;
//!   [`series_to_jsonl`] renders the sampler output. `crates/bench`'s
//!   `tracegrep` binary consumes both.

use crate::event::Event;
use crate::packet::{ControlKind, NodeId};
use crate::protocol::DropReason;
use crate::time::{SimDuration, SimTime};
use crate::trace::{
    FaultKind, InvalidateCause, InvariantSnapshot, RouteVerdict, TraceEvent, TraceSink,
};
use std::cell::OnceCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io;
use std::sync::{Arc, Mutex};

/// Schema identifier of the per-event trace file.
pub const TRACE_SCHEMA: &str = "manet-trace";
/// Schema identifier of the time-series file.
pub const SERIES_SCHEMA: &str = "manet-series";
/// Version stamped into both file headers; bump on any field change.
pub const SCHEMA_VERSION: u32 = 1;

/// Telemetry knobs, carried by [`crate::config::SimConfig::telemetry`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Per-node flight-recorder ring capacity (events). `0` disables
    /// the recorder.
    pub flight_recorder_depth: usize,
    /// Sampling interval of the time-series sampler. `None` disables
    /// sampling.
    pub sample_interval: Option<SimDuration>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            flight_recorder_depth: 64,
            sample_interval: Some(SimDuration::from_secs(1)),
        }
    }
}

/// One entry of a flight-recorder ring: a trace event with its global
/// emission sequence number (total order across all nodes).
#[derive(Clone, Debug, PartialEq)]
pub struct FlightEntry {
    /// Global emission sequence number (0-based, gap-free at emission;
    /// rings evict oldest-first, so retained entries show gaps).
    pub seq: u64,
    /// Simulated time of the event.
    pub at: SimTime,
    /// The event.
    pub event: TraceEvent,
}

/// Bounded per-node rings of recent trace events.
///
/// Sized `nodes × depth`; recording is O(1). The merged [`dump`]
/// interleaves all rings back into global emission order by sequence
/// number.
///
/// [`dump`]: FlightRecorder::dump
#[derive(Debug)]
pub struct FlightRecorder {
    depth: usize,
    next_seq: u64,
    rings: Vec<VecDeque<FlightEntry>>,
}

impl FlightRecorder {
    /// A recorder with one `depth`-deep ring per node.
    pub fn new(n_nodes: usize, depth: usize) -> Self {
        FlightRecorder { depth, next_seq: 0, rings: vec![VecDeque::new(); n_nodes] }
    }

    /// Records one event into the ring of the node it happened at.
    pub fn record(&mut self, at: SimTime, event: &TraceEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.depth == 0 {
            return;
        }
        let idx = event.node().index();
        let Some(ring) = self.rings.get_mut(idx) else { return };
        if ring.len() == self.depth {
            ring.pop_front();
        }
        ring.push_back(FlightEntry { seq, at, event: event.clone() });
    }

    /// Total events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// The retained tail of one node's ring, oldest first.
    pub fn node_tail(&self, node: NodeId) -> Vec<FlightEntry> {
        self.rings.get(node.index()).map(|r| r.iter().cloned().collect()).unwrap_or_default()
    }

    /// All retained entries across all nodes, merged back into global
    /// emission order (ascending sequence number).
    pub fn dump(&self) -> Vec<FlightEntry> {
        let mut all: Vec<FlightEntry> = self.rings.iter().flat_map(|r| r.iter().cloned()).collect();
        all.sort_by_key(|e| e.seq);
        all
    }
}

/// Cumulative-counter baseline the sampler diffs against to turn
/// monotone totals into per-interval rates.
#[derive(Clone, Copy, Debug, Default)]
pub struct SampleBaseline {
    /// Packets delivered as of the previous sample.
    pub delivered: u64,
    /// Packets originated as of the previous sample.
    pub originated: u64,
    /// Hop-wise control transmissions per kind ([`ControlKind::ALL`]
    /// order) as of the previous sample.
    pub control_tx: [u64; ControlKind::ALL.len()],
}

/// One time-series sample, taken at a `TelemetrySample` kernel event.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesSample {
    /// Simulated time of the sample.
    pub at: SimTime,
    /// Cumulative packets delivered.
    pub delivered: u64,
    /// Cumulative packets originated.
    pub originated: u64,
    /// Packets delivered during the last interval.
    pub delivered_w: u64,
    /// Packets originated during the last interval.
    pub originated_w: u64,
    /// Control transmissions during the last interval, per kind in
    /// [`ControlKind::ALL`] order.
    pub control_tx_w: [u64; ControlKind::ALL.len()],
    /// Cumulative routing-layer drops per reason in
    /// [`DropReason::ALL`] order.
    pub drops: [u64; DropReason::ALL.len()],
    /// Route-table entries summed over all nodes.
    pub route_entries: u64,
    /// Currently usable routes summed over all nodes.
    pub route_valid: u64,
    /// Future-event-list depth at sample time.
    pub fel_depth: u64,
    /// Cumulative kernel events dispatched, per kind in
    /// [`Event::KIND_NAMES`] order.
    pub events_by_kind: [u64; Event::KIND_COUNT],
}

impl SeriesSample {
    /// Cumulative delivery ratio (0 when nothing originated yet).
    pub fn delivery_ratio(&self) -> f64 {
        if self.originated == 0 {
            0.0
        } else {
            self.delivered as f64 / self.originated as f64
        }
    }

    /// Delivery ratio of the last interval alone.
    pub fn delivery_ratio_w(&self) -> f64 {
        if self.originated_w == 0 {
            0.0
        } else {
            self.delivered_w as f64 / self.originated_w as f64
        }
    }
}

// ----- JSONL encoding ---------------------------------------------------

/// Appends `s` JSON-escaped (quotes, backslashes, control characters).
fn esc_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// JSON-escapes a string (without surrounding quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    esc_into(&mut out, s);
    out
}

/// Where the trace renderer puts its bytes: a buffer, or a counter for
/// the exact-length pass of [`JsonlTrace::render`]. One renderer drives
/// both, so the length pass can only disagree with the document on how
/// many digits a number has.
trait Out {
    fn lit(&mut self, s: &str);
    fn num(&mut self, v: u64);
}

impl Out for Vec<u8> {
    #[inline]
    fn lit(&mut self, s: &str) {
        self.extend_from_slice(s.as_bytes());
    }

    /// Decimal digits, two per table lookup and four per division: a
    /// line is mostly numbers, and one division per digit was most of
    /// what rendering it cost.
    #[inline]
    fn num(&mut self, mut v: u64) {
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        let mut pair = |at: &mut usize, p: usize| {
            *at -= 2;
            buf[*at..*at + 2].copy_from_slice(&DIGIT_PAIRS[2 * p..2 * p + 2]);
        };
        while v >= 10_000 {
            let low = (v % 10_000) as usize;
            v /= 10_000;
            pair(&mut at, low % 100);
            pair(&mut at, low / 100);
        }
        let mut v = v as usize;
        if v >= 100 {
            pair(&mut at, v % 100);
            v /= 100;
        }
        pair(&mut at, v);
        if v < 10 {
            at += 1; // drop the pair's leading zero
        }
        self.extend_from_slice(&buf[at..]);
    }
}

/// `"00".."99"`, concatenated.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut p = 0;
    while p < 100 {
        t[2 * p] = b'0' + (p / 10) as u8;
        t[2 * p + 1] = b'0' + (p % 10) as u8;
        p += 1;
    }
    t
};

/// Counts the bytes a render would produce.
struct Len(usize);

impl Out for Len {
    #[inline]
    fn lit(&mut self, s: &str) {
        self.0 += s.len();
    }

    #[inline]
    fn num(&mut self, v: u64) {
        self.0 += v.checked_ilog10().map_or(1, |d| d as usize + 1);
    }
}

/// Writes `key` (a literal like `,"node":`) and then `v`.
#[inline]
fn kv(out: &mut impl Out, key: &str, v: u64) {
    out.lit(key);
    out.num(v);
}

#[inline]
fn kv_opt(out: &mut impl Out, key: &str, v: Option<u64>) {
    out.lit(key);
    match v {
        Some(v) => out.num(v),
        None => out.lit("null"),
    }
}

fn kv_snapshot(out: &mut impl Out, key: &str, s: Option<&InvariantSnapshot>) {
    out.lit(key);
    match s {
        Some(s) => {
            kv_opt(out, "{\"sn\":", s.sn);
            kv(out, ",\"d\":", s.d.into());
            kv(out, ",\"fd\":", s.fd.into());
            out.lit("}");
        }
        None => out.lit("null"),
    }
}

/// Stable wire name of a control kind.
pub fn control_kind_name(k: ControlKind) -> &'static str {
    match k {
        ControlKind::Rreq => "rreq",
        ControlKind::Rrep => "rrep",
        ControlKind::Rerr => "rerr",
        ControlKind::Hello => "hello",
        ControlKind::Tc => "tc",
        ControlKind::Other => "other",
    }
}

/// Stable wire name of a drop reason.
pub fn drop_reason_name(r: DropReason) -> &'static str {
    match r {
        DropReason::NoRoute => "no_route",
        DropReason::TtlExpired => "ttl_expired",
        DropReason::BufferOverflow => "buffer_overflow",
        DropReason::BrokenSourceRoute => "broken_source_route",
        DropReason::Malformed => "malformed",
        DropReason::Other => "other",
    }
}

fn verdict_name(v: RouteVerdict) -> &'static str {
    match v {
        RouteVerdict::Installed => "installed",
        RouteVerdict::Refreshed => "refreshed",
        RouteVerdict::NotBetter => "not_better",
        RouteVerdict::Infeasible => "infeasible",
    }
}

fn cause_name(c: InvalidateCause) -> &'static str {
    match c {
        InvalidateCause::LinkFailure => "link_failure",
        InvalidateCause::RouteError => "route_error",
        InvalidateCause::RequestAsError => "request_as_error",
        InvalidateCause::SeqnoAdopted => "seqno_adopted",
    }
}

fn fault_kind_name(k: FaultKind) -> &'static str {
    match k {
        FaultKind::Crash => "crash",
        FaultKind::LinkDown => "link_down",
        FaultKind::LinkUp => "link_up",
        FaultKind::Partition => "partition",
        FaultKind::Heal => "heal",
        FaultKind::Impair => "impair",
        FaultKind::Replay => "replay",
    }
}

/// The trace file's header line (first line of the file).
pub fn trace_header(seed: u64, nodes: usize) -> String {
    format!(
        "{{\"schema\":\"{TRACE_SCHEMA}\",\"version\":{SCHEMA_VERSION},\"seed\":{seed},\"nodes\":{nodes}}}"
    )
}

/// Renders one trace event as a single JSONL line (no trailing
/// newline). Field order is fixed per event type: `i` (record index),
/// `t_ns`, `type`, then the variant's own fields in declaration order.
pub fn event_to_jsonl(i: u64, t: SimTime, e: &TraceEvent) -> String {
    let mut out = Vec::with_capacity(128);
    write_event(&mut out, i, t, e);
    ascii_string(out)
}

/// The renderer only ever writes ASCII, so the conversion cannot fail
/// (the differential proptest compares against `core::fmt` output).
fn ascii_string(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).unwrap_or_default()
}

/// The one trace-line renderer behind [`event_to_jsonl`],
/// [`JsonlTrace::render`] and [`JsonlTrace::write_to`]: literals and
/// hand-rolled decimal digits, no `core::fmt`.
fn write_event(out: &mut impl Out, i: u64, t: SimTime, e: &TraceEvent) {
    kv(out, "{\"i\":", i);
    kv(out, ",\"t_ns\":", t.as_nanos());
    out.lit(",\"type\":\"");
    match e {
        TraceEvent::TxStart { node, uid, dst } => {
            kv(out, "tx_start\",\"node\":", node.0.into());
            kv_opt(out, ",\"uid\":", *uid);
            kv_opt(out, ",\"dst\":", dst.map(|d| d.0.into()));
        }
        TraceEvent::RxOk { node, uid } => {
            kv(out, "rx_ok\",\"node\":", node.0.into());
            kv_opt(out, ",\"uid\":", *uid);
        }
        TraceEvent::RxCollision { node } => {
            kv(out, "rx_collision\",\"node\":", node.0.into());
        }
        TraceEvent::MacGiveUp { node, dst, uid } => {
            kv(out, "mac_give_up\",\"node\":", node.0.into());
            kv(out, ",\"dst\":", dst.0.into());
            kv(out, ",\"uid\":", *uid);
        }
        TraceEvent::Delivered { node, flow, seq } => {
            kv(out, "delivered\",\"node\":", node.0.into());
            kv(out, ",\"flow\":", (*flow).into());
            kv(out, ",\"seq\":", (*seq).into());
        }
        TraceEvent::DataSend { node, next, dst, flow, seq } => {
            kv(out, "data_send\",\"node\":", node.0.into());
            kv(out, ",\"next\":", next.0.into());
            kv(out, ",\"dst\":", dst.0.into());
            kv(out, ",\"flow\":", (*flow).into());
            kv(out, ",\"seq\":", (*seq).into());
        }
        TraceEvent::DataDrop { node, flow, seq, reason } => {
            kv(out, "data_drop\",\"node\":", node.0.into());
            kv(out, ",\"flow\":", (*flow).into());
            kv(out, ",\"seq\":", (*seq).into());
            out.lit(",\"reason\":\"");
            out.lit(drop_reason_name(*reason));
            out.lit("\"");
        }
        TraceEvent::ControlDrop { node, kind } => {
            kv(out, "control_drop\",\"node\":", node.0.into());
            out.lit(",\"kind\":\"");
            out.lit(control_kind_name(*kind));
            out.lit("\"");
        }
        TraceEvent::RouteInstall { node, dest, next, before, after } => {
            kv(out, "route_install\",\"node\":", node.0.into());
            kv(out, ",\"dest\":", dest.0.into());
            kv(out, ",\"next\":", next.0.into());
            kv_snapshot(out, ",\"before\":", before.as_ref());
            kv_snapshot(out, ",\"after\":", Some(after));
        }
        TraceEvent::RouteInvalidate { node, dest, seqno, cause } => {
            kv(out, "route_invalidate\",\"node\":", node.0.into());
            kv(out, ",\"dest\":", dest.0.into());
            kv_opt(out, ",\"sn\":", *seqno);
            out.lit(",\"cause\":\"");
            out.lit(cause_name(*cause));
            out.lit("\"");
        }
        TraceEvent::SeqnoReset { node, old, new } => {
            kv(out, "seqno_reset\",\"node\":", node.0.into());
            kv(out, ",\"old\":", *old);
            kv(out, ",\"new\":", *new);
        }
        TraceEvent::AdvertConsidered {
            node,
            dest,
            from,
            adv_sn,
            adv_d,
            before,
            after,
            verdict,
        } => {
            kv(out, "advert_considered\",\"node\":", node.0.into());
            kv(out, ",\"dest\":", dest.0.into());
            kv(out, ",\"from\":", from.0.into());
            kv(out, ",\"adv_sn\":", *adv_sn);
            kv(out, ",\"adv_d\":", (*adv_d).into());
            kv_snapshot(out, ",\"before\":", before.as_ref());
            kv_snapshot(out, ",\"after\":", after.as_ref());
            out.lit(",\"verdict\":\"");
            out.lit(verdict_name(*verdict));
            out.lit("\"");
        }
        TraceEvent::SolicitVerdict { node, dest, t_bit, allowed } => {
            kv(out, "solicit_verdict\",\"node\":", node.0.into());
            kv(out, ",\"dest\":", dest.0.into());
            out.lit(if *t_bit { ",\"t_bit\":true" } else { ",\"t_bit\":false" });
            out.lit(if *allowed { ",\"allowed\":true" } else { ",\"allowed\":false" });
        }
        TraceEvent::RreqStart { node, dest, rreqid, ttl } => {
            kv(out, "rreq_start\",\"node\":", node.0.into());
            kv(out, ",\"dest\":", dest.0.into());
            kv(out, ",\"rreqid\":", (*rreqid).into());
            kv(out, ",\"ttl\":", (*ttl).into());
        }
        TraceEvent::RreqRelay { node, dest, origin } => {
            kv(out, "rreq_relay\",\"node\":", node.0.into());
            kv(out, ",\"dest\":", dest.0.into());
            kv(out, ",\"origin\":", origin.0.into());
        }
        TraceEvent::RrepSend { node, dest, to, dist } => {
            kv(out, "rrep_send\",\"node\":", node.0.into());
            kv(out, ",\"dest\":", dest.0.into());
            kv(out, ",\"to\":", to.0.into());
            kv(out, ",\"dist\":", (*dist).into());
        }
        TraceEvent::RerrSend { node, dests } => {
            kv(out, "rerr_send\",\"node\":", node.0.into());
            out.lit(",\"dests\":[");
            for (k, d) in dests.iter().enumerate() {
                kv(out, if k > 0 { "," } else { "" }, d.0.into());
            }
            out.lit("]");
        }
        TraceEvent::FaultInjected { node, kind } => {
            kv(out, "fault_injected\",\"node\":", node.0.into());
            out.lit(",\"kind\":\"");
            out.lit(fault_kind_name(*kind));
            out.lit("\"");
        }
        TraceEvent::NodeRestarted { node } => {
            kv(out, "node_restarted\",\"node\":", node.0.into());
        }
    }
    out.lit("}");
}

/// The series file's header line.
pub fn series_header(seed: u64, interval: SimDuration) -> String {
    format!(
        "{{\"schema\":\"{SERIES_SCHEMA}\",\"version\":{SCHEMA_VERSION},\"seed\":{seed},\"interval_ns\":{}}}",
        interval.as_nanos()
    )
}

/// Renders one sample as a single JSONL line (no trailing newline),
/// with a fixed field order.
pub fn sample_to_jsonl(i: u64, s: &SeriesSample) -> String {
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"i\":{i},\"t_ns\":{},\"delivery_ratio\":{},\"delivery_ratio_w\":{},\"delivered\":{},\"originated\":{},\"delivered_w\":{},\"originated_w\":{}",
        s.at.as_nanos(),
        s.delivery_ratio(),
        s.delivery_ratio_w(),
        s.delivered,
        s.originated,
        s.delivered_w,
        s.originated_w
    );
    for (k, kind) in ControlKind::ALL.iter().enumerate() {
        let _ = write!(out, ",\"ctl_{}_w\":{}", control_kind_name(*kind), s.control_tx_w[k]);
    }
    for (k, reason) in DropReason::ALL.iter().enumerate() {
        let _ = write!(out, ",\"drop_{}\":{}", drop_reason_name(*reason), s.drops[k]);
    }
    let _ = write!(
        out,
        ",\"route_entries\":{},\"route_valid\":{},\"fel_depth\":{}",
        s.route_entries, s.route_valid, s.fel_depth
    );
    for (k, name) in Event::KIND_NAMES.iter().enumerate() {
        let _ = write!(out, ",\"ev_{name}\":{}", s.events_by_kind[k]);
    }
    out.push('}');
    out
}

/// Renders a whole sampler series as a JSONL document (header line plus
/// one line per sample, each newline-terminated).
pub fn series_to_jsonl(seed: u64, interval: SimDuration, samples: &[SeriesSample]) -> String {
    let mut out = series_header(seed, interval);
    out.push('\n');
    for (i, s) in samples.iter().enumerate() {
        out.push_str(&sample_to_jsonl(i as u64, s));
        out.push('\n');
    }
    out
}

// ----- compact event log ------------------------------------------------

/// Tag byte of each [`TraceEvent`] variant in a [`TraceLog`].
mod tag {
    pub const TX_START: u8 = 0;
    pub const RX_OK: u8 = 1;
    pub const RX_COLLISION: u8 = 2;
    pub const MAC_GIVE_UP: u8 = 3;
    pub const DELIVERED: u8 = 4;
    pub const DATA_SEND: u8 = 5;
    pub const DATA_DROP: u8 = 6;
    pub const CONTROL_DROP: u8 = 7;
    pub const ROUTE_INSTALL: u8 = 8;
    pub const ROUTE_INVALIDATE: u8 = 9;
    pub const SEQNO_RESET: u8 = 10;
    pub const ADVERT_CONSIDERED: u8 = 11;
    pub const SOLICIT_VERDICT: u8 = 12;
    pub const RREQ_START: u8 = 13;
    pub const RREQ_RELAY: u8 = 14;
    pub const RREP_SEND: u8 = 15;
    pub const RERR_SEND: u8 = 16;
    pub const FAULT_INJECTED: u8 = 17;
    pub const NODE_RESTARTED: u8 = 18;
}

/// Packet uids are `(node << 48) | counter`: stored as two varints so
/// neither half pays for the other's magnitude.
const UID_LOW_BITS: u32 = 48;
const UID_LOW_MASK: u64 = (1 << UID_LOW_BITS) - 1;

/// LEB128: seven bits per byte, low group first.
#[inline]
fn put(b: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        b.push(v as u8 | 0x80);
        v >>= 7;
    }
    b.push(v as u8);
}

#[inline]
fn put_node(b: &mut Vec<u8>, n: NodeId) {
    put(b, n.0.into());
}

/// A presence byte, then the value.
fn put_opt(b: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            b.push(1);
            put(b, v);
        }
        None => b.push(0),
    }
}

/// High half plus one (zero is `None`), then the low half.
#[inline]
fn put_uid(b: &mut Vec<u8>, uid: Option<u64>) {
    match uid {
        Some(uid) => {
            put(b, (uid >> UID_LOW_BITS) + 1);
            put(b, uid & UID_LOW_MASK);
        }
        None => b.push(0),
    }
}

fn put_snapshot(b: &mut Vec<u8>, s: &InvariantSnapshot) {
    put_opt(b, s.sn);
    put(b, s.d.into());
    put(b, s.fd.into());
}

fn put_opt_snapshot(b: &mut Vec<u8>, s: &Option<InvariantSnapshot>) {
    match s {
        Some(s) => {
            b.push(1);
            put_snapshot(b, s);
        }
        None => b.push(0),
    }
}

/// A compact append-only log of trace events: what the kernel-side sink
/// keeps instead of rendered text.
///
/// Each event is one tag byte, the time since the previous event in
/// nanoseconds as a LEB128 varint (wrapping, so any timestamp order
/// round-trips), and the variant's fields in declaration order:
/// integers and node ids as varints, enums as their index byte,
/// `Option`s behind a presence byte, packet uids as two varints. A
/// kernel trace averages about 8 bytes per event against 80–100 for its
/// JSONL line. [`TraceLog::iter`] decodes back to exactly what was
/// pushed.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    bytes: Vec<u8>,
    events: u64,
    last_ns: u64,
}

impl TraceLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events pushed.
    pub fn len(&self) -> u64 {
        self.events
    }

    /// Whether nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Encoded size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Appends one event.
    pub fn push(&mut self, t: SimTime, event: &TraceEvent) {
        let ns = t.as_nanos();
        let delta = ns.wrapping_sub(self.last_ns);
        self.last_ns = ns;
        self.events += 1;
        let b = &mut self.bytes;
        let mut head = |tag: u8, node: NodeId| {
            b.push(tag);
            put(b, delta);
            put_node(b, node);
        };
        match event {
            TraceEvent::TxStart { node, uid, dst } => {
                head(tag::TX_START, *node);
                put_uid(b, *uid);
                put(b, dst.map_or(0, |d| u64::from(d.0) + 1));
            }
            TraceEvent::RxOk { node, uid } => {
                head(tag::RX_OK, *node);
                put_uid(b, *uid);
            }
            TraceEvent::RxCollision { node } => head(tag::RX_COLLISION, *node),
            TraceEvent::MacGiveUp { node, dst, uid } => {
                head(tag::MAC_GIVE_UP, *node);
                put_node(b, *dst);
                put_uid(b, Some(*uid));
            }
            TraceEvent::Delivered { node, flow, seq } => {
                head(tag::DELIVERED, *node);
                put(b, (*flow).into());
                put(b, (*seq).into());
            }
            TraceEvent::DataSend { node, next, dst, flow, seq } => {
                head(tag::DATA_SEND, *node);
                put_node(b, *next);
                put_node(b, *dst);
                put(b, (*flow).into());
                put(b, (*seq).into());
            }
            TraceEvent::DataDrop { node, flow, seq, reason } => {
                head(tag::DATA_DROP, *node);
                put(b, (*flow).into());
                put(b, (*seq).into());
                b.push(*reason as u8);
            }
            TraceEvent::ControlDrop { node, kind } => {
                head(tag::CONTROL_DROP, *node);
                b.push(*kind as u8);
            }
            TraceEvent::RouteInstall { node, dest, next, before, after } => {
                head(tag::ROUTE_INSTALL, *node);
                put_node(b, *dest);
                put_node(b, *next);
                put_opt_snapshot(b, before);
                put_snapshot(b, after);
            }
            TraceEvent::RouteInvalidate { node, dest, seqno, cause } => {
                head(tag::ROUTE_INVALIDATE, *node);
                put_node(b, *dest);
                put_opt(b, *seqno);
                b.push(*cause as u8);
            }
            TraceEvent::SeqnoReset { node, old, new } => {
                head(tag::SEQNO_RESET, *node);
                put(b, *old);
                put(b, *new);
            }
            TraceEvent::AdvertConsidered {
                node,
                dest,
                from,
                adv_sn,
                adv_d,
                before,
                after,
                verdict,
            } => {
                head(tag::ADVERT_CONSIDERED, *node);
                put_node(b, *dest);
                put_node(b, *from);
                put(b, *adv_sn);
                put(b, (*adv_d).into());
                put_opt_snapshot(b, before);
                put_opt_snapshot(b, after);
                b.push(*verdict as u8);
            }
            TraceEvent::SolicitVerdict { node, dest, t_bit, allowed } => {
                head(tag::SOLICIT_VERDICT, *node);
                put_node(b, *dest);
                b.push(u8::from(*t_bit) | u8::from(*allowed) << 1);
            }
            TraceEvent::RreqStart { node, dest, rreqid, ttl } => {
                head(tag::RREQ_START, *node);
                put_node(b, *dest);
                put(b, (*rreqid).into());
                b.push(*ttl);
            }
            TraceEvent::RreqRelay { node, dest, origin } => {
                head(tag::RREQ_RELAY, *node);
                put_node(b, *dest);
                put_node(b, *origin);
            }
            TraceEvent::RrepSend { node, dest, to, dist } => {
                head(tag::RREP_SEND, *node);
                put_node(b, *dest);
                put_node(b, *to);
                put(b, (*dist).into());
            }
            TraceEvent::RerrSend { node, dests } => {
                head(tag::RERR_SEND, *node);
                put(b, dests.len() as u64);
                for d in dests {
                    put_node(b, *d);
                }
            }
            TraceEvent::FaultInjected { node, kind } => {
                head(tag::FAULT_INJECTED, *node);
                b.push(*kind as u8);
            }
            TraceEvent::NodeRestarted { node } => head(tag::NODE_RESTARTED, *node),
        }
    }

    /// The events in push order, decoded.
    pub fn iter(&self) -> TraceLogIter<'_> {
        TraceLogIter { bytes: &self.bytes, at: 0, ns: 0 }
    }
}

/// Decoding iterator over a [`TraceLog`]. Total: bytes that are not a
/// whole event (which [`TraceLog::push`] never writes) end the
/// iteration instead of panicking.
#[derive(Clone, Debug)]
pub struct TraceLogIter<'a> {
    bytes: &'a [u8],
    at: usize,
    ns: u64,
}

impl TraceLogIter<'_> {
    fn byte(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.at)?;
        self.at += 1;
        Some(b)
    }

    fn var(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..u64::BITS).step_by(7) {
            let b = self.byte()?;
            let group = u64::from(b & 0x7f);
            if group << shift >> shift != group {
                return None;
            }
            v |= group << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }

    fn node(&mut self) -> Option<NodeId> {
        u16::try_from(self.var()?).ok().map(NodeId)
    }

    fn u32(&mut self) -> Option<u32> {
        u32::try_from(self.var()?).ok()
    }

    fn opt(&mut self) -> Option<Option<u64>> {
        match self.byte()? {
            0 => Some(None),
            1 => self.var().map(Some),
            _ => None,
        }
    }

    fn uid(&mut self) -> Option<Option<u64>> {
        let Some(high) = self.var()?.checked_sub(1) else { return Some(None) };
        let low = self.var()?;
        (high <= u64::from(u16::MAX) && low <= UID_LOW_MASK)
            .then_some(Some(high << UID_LOW_BITS | low))
    }

    fn snapshot(&mut self) -> Option<InvariantSnapshot> {
        Some(InvariantSnapshot { sn: self.opt()?, d: self.u32()?, fd: self.u32()? })
    }

    fn opt_snapshot(&mut self) -> Option<Option<InvariantSnapshot>> {
        match self.byte()? {
            0 => Some(None),
            1 => self.snapshot().map(Some),
            _ => None,
        }
    }

    fn pick<T: Copy>(&mut self, all: &[T]) -> Option<T> {
        all.get(usize::from(self.byte()?)).copied()
    }

    fn event(&mut self) -> Option<(SimTime, TraceEvent)> {
        let tag = self.byte()?;
        self.ns = self.ns.wrapping_add(self.var()?);
        let node = self.node()?;
        let event = match tag {
            tag::TX_START => {
                let uid = self.uid()?;
                let dst = match self.var()?.checked_sub(1) {
                    Some(d) => Some(NodeId(u16::try_from(d).ok()?)),
                    None => None,
                };
                TraceEvent::TxStart { node, uid, dst }
            }
            tag::RX_OK => TraceEvent::RxOk { node, uid: self.uid()? },
            tag::RX_COLLISION => TraceEvent::RxCollision { node },
            tag::MAC_GIVE_UP => {
                TraceEvent::MacGiveUp { node, dst: self.node()?, uid: self.uid()?? }
            }
            tag::DELIVERED => TraceEvent::Delivered { node, flow: self.u32()?, seq: self.u32()? },
            tag::DATA_SEND => TraceEvent::DataSend {
                node,
                next: self.node()?,
                dst: self.node()?,
                flow: self.u32()?,
                seq: self.u32()?,
            },
            tag::DATA_DROP => TraceEvent::DataDrop {
                node,
                flow: self.u32()?,
                seq: self.u32()?,
                reason: self.pick(&DropReason::ALL)?,
            },
            tag::CONTROL_DROP => {
                TraceEvent::ControlDrop { node, kind: self.pick(&ControlKind::ALL)? }
            }
            tag::ROUTE_INSTALL => TraceEvent::RouteInstall {
                node,
                dest: self.node()?,
                next: self.node()?,
                before: self.opt_snapshot()?,
                after: self.snapshot()?,
            },
            tag::ROUTE_INVALIDATE => TraceEvent::RouteInvalidate {
                node,
                dest: self.node()?,
                seqno: self.opt()?,
                cause: self.pick(&InvalidateCause::ALL)?,
            },
            tag::SEQNO_RESET => TraceEvent::SeqnoReset { node, old: self.var()?, new: self.var()? },
            tag::ADVERT_CONSIDERED => TraceEvent::AdvertConsidered {
                node,
                dest: self.node()?,
                from: self.node()?,
                adv_sn: self.var()?,
                adv_d: self.u32()?,
                before: self.opt_snapshot()?,
                after: self.opt_snapshot()?,
                verdict: self.pick(&RouteVerdict::ALL)?,
            },
            tag::SOLICIT_VERDICT => {
                let dest = self.node()?;
                let bits = self.byte()?;
                if bits > 3 {
                    return None;
                }
                TraceEvent::SolicitVerdict {
                    node,
                    dest,
                    t_bit: bits & 1 != 0,
                    allowed: bits & 2 != 0,
                }
            }
            tag::RREQ_START => TraceEvent::RreqStart {
                node,
                dest: self.node()?,
                rreqid: self.u32()?,
                ttl: self.byte()?,
            },
            tag::RREQ_RELAY => {
                TraceEvent::RreqRelay { node, dest: self.node()?, origin: self.node()? }
            }
            tag::RREP_SEND => TraceEvent::RrepSend {
                node,
                dest: self.node()?,
                to: self.node()?,
                dist: self.u32()?,
            },
            tag::RERR_SEND => {
                // Every entry is at least one byte, which bounds the
                // allocation by what is left to read.
                let n = usize::try_from(self.var()?).ok()?;
                if n > self.bytes.len() - self.at {
                    return None;
                }
                let mut dests = Vec::with_capacity(n);
                for _ in 0..n {
                    dests.push(self.node()?);
                }
                TraceEvent::RerrSend { node, dests }
            }
            tag::FAULT_INJECTED => {
                TraceEvent::FaultInjected { node, kind: self.pick(&FaultKind::ALL)? }
            }
            tag::NODE_RESTARTED => TraceEvent::NodeRestarted { node },
            _ => return None,
        };
        Some((SimTime::from_nanos(self.ns), event))
    }
}

impl Iterator for TraceLogIter<'_> {
    type Item = (SimTime, TraceEvent);

    fn next(&mut self) -> Option<(SimTime, TraceEvent)> {
        let item = self.event();
        if item.is_none() {
            self.at = self.bytes.len();
        }
        item
    }
}

/// A [`TraceSink`] that keeps every event in a [`TraceLog`] and renders
/// the JSONL document (header line first) only when asked: recording is
/// an encode, with no formatting and no per-event allocation. Share it
/// with the world via [`JsonlTrace::shared`], then take
/// [`JsonlTrace::render`] or stream [`JsonlTrace::write_to`].
#[derive(Debug)]
pub struct JsonlTrace {
    seed: u64,
    nodes: usize,
    log: TraceLog,
    /// What [`JsonlTrace::contents`] rendered, until the next record.
    rendered: OnceCell<String>,
}

impl JsonlTrace {
    /// An empty trace for a run of `nodes` nodes under `seed`.
    pub fn new(seed: u64, nodes: usize) -> Self {
        JsonlTrace { seed, nodes, log: TraceLog::new(), rendered: OnceCell::new() }
    }

    /// A shareable handle usable both as the world's sink and for
    /// retrieving the document afterwards.
    pub fn shared(seed: u64, nodes: usize) -> Arc<Mutex<JsonlTrace>> {
        Arc::new(Mutex::new(JsonlTrace::new(seed, nodes)))
    }

    /// Number of event lines recorded (excluding the header).
    pub fn lines(&self) -> u64 {
        self.log.len()
    }

    fn emit(&self, out: &mut impl Out) {
        out.lit(&trace_header(self.seed, self.nodes));
        out.lit("\n");
        for (i, (t, event)) in self.log.iter().enumerate() {
            write_event(out, i as u64, t, &event);
            out.lit("\n");
        }
    }

    /// The JSONL document, allocated once at its exact length (a
    /// counting pass of the same renderer sizes it): a grown or
    /// over-reserved buffer would sit on top of the heap the run has
    /// already touched instead of reusing it.
    pub fn render(&self) -> String {
        let mut len = Len(0);
        self.emit(&mut len);
        let mut doc = Vec::with_capacity(len.0);
        self.emit(&mut doc);
        debug_assert_eq!(doc.len(), len.0, "length pass disagrees with the renderer");
        ascii_string(doc)
    }

    /// Streams the JSONL document into `w` a line at a time, never
    /// holding more than one line of it.
    pub fn write_to(&self, w: &mut impl io::Write) -> io::Result<()> {
        writeln!(w, "{}", trace_header(self.seed, self.nodes))?;
        let mut line = Vec::with_capacity(128);
        for (i, (t, event)) in self.log.iter().enumerate() {
            line.clear();
            write_event(&mut line, i as u64, t, &event);
            line.push(b'\n');
            w.write_all(&line)?;
        }
        Ok(())
    }

    /// The document as a borrowed string, rendered on first use and
    /// kept until the next record. Kept for the frozen `benchmark/`
    /// package, whose traced run copies out of it; delete with ROADMAP
    /// item 5(c). New callers want [`JsonlTrace::render`].
    pub fn contents(&self) -> &str {
        self.rendered.get_or_init(|| self.render())
    }
}

impl TraceSink for JsonlTrace {
    fn record(&mut self, t: SimTime, event: TraceEvent) {
        self.rendered.take();
        self.log.push(t, &event);
    }
}

impl TraceSink for Arc<Mutex<JsonlTrace>> {
    fn record(&mut self, t: SimTime, event: TraceEvent) {
        // A poisoned lock means a panic elsewhere already ended the
        // run; silently dropping the event beats a panic-in-panic.
        if let Ok(mut w) = self.lock() {
            w.record(t, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use proptest::prelude::*;

    fn push_opt_u64(out: &mut String, v: Option<u64>) {
        match v {
            Some(v) => {
                let _ = write!(out, "{v}");
            }
            None => out.push_str("null"),
        }
    }

    fn push_snapshot(out: &mut String, s: &InvariantSnapshot) {
        out.push_str("{\"sn\":");
        push_opt_u64(out, s.sn);
        let _ = write!(out, ",\"d\":{},\"fd\":{}}}", s.d, s.fd);
    }

    fn push_opt_snapshot(out: &mut String, s: &Option<InvariantSnapshot>) {
        match s {
            Some(s) => push_snapshot(out, s),
            None => out.push_str("null"),
        }
    }

    /// The `core::fmt` line renderer `write_event` replaced, kept as the
    /// oracle of the differential proptest below.
    fn event_to_jsonl_oracle(i: u64, t: SimTime, e: &TraceEvent) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(out, "{{\"i\":{i},\"t_ns\":{},\"type\":\"", t.as_nanos());
        match e {
            TraceEvent::TxStart { node, uid, dst } => {
                let _ = write!(out, "tx_start\",\"node\":{},\"uid\":", node.0);
                push_opt_u64(&mut out, *uid);
                out.push_str(",\"dst\":");
                push_opt_u64(&mut out, dst.map(|d| u64::from(d.0)));
            }
            TraceEvent::RxOk { node, uid } => {
                let _ = write!(out, "rx_ok\",\"node\":{},\"uid\":", node.0);
                push_opt_u64(&mut out, *uid);
            }
            TraceEvent::RxCollision { node } => {
                let _ = write!(out, "rx_collision\",\"node\":{}", node.0);
            }
            TraceEvent::MacGiveUp { node, dst, uid } => {
                let _ = write!(
                    out,
                    "mac_give_up\",\"node\":{},\"dst\":{},\"uid\":{}",
                    node.0, dst.0, uid
                );
            }
            TraceEvent::Delivered { node, flow, seq } => {
                let _ =
                    write!(out, "delivered\",\"node\":{},\"flow\":{flow},\"seq\":{seq}", node.0);
            }
            TraceEvent::DataSend { node, next, dst, flow, seq } => {
                let _ = write!(
                    out,
                    "data_send\",\"node\":{},\"next\":{},\"dst\":{},\"flow\":{flow},\"seq\":{seq}",
                    node.0, next.0, dst.0
                );
            }
            TraceEvent::DataDrop { node, flow, seq, reason } => {
                let _ = write!(
                    out,
                    "data_drop\",\"node\":{},\"flow\":{flow},\"seq\":{seq},\"reason\":\"{}\"",
                    node.0,
                    drop_reason_name(*reason)
                );
            }
            TraceEvent::ControlDrop { node, kind } => {
                let _ = write!(
                    out,
                    "control_drop\",\"node\":{},\"kind\":\"{}\"",
                    node.0,
                    control_kind_name(*kind)
                );
            }
            TraceEvent::RouteInstall { node, dest, next, before, after } => {
                let _ = write!(
                    out,
                    "route_install\",\"node\":{},\"dest\":{},\"next\":{},\"before\":",
                    node.0, dest.0, next.0
                );
                push_opt_snapshot(&mut out, before);
                out.push_str(",\"after\":");
                push_snapshot(&mut out, after);
            }
            TraceEvent::RouteInvalidate { node, dest, seqno, cause } => {
                let _ = write!(
                    out,
                    "route_invalidate\",\"node\":{},\"dest\":{},\"sn\":",
                    node.0, dest.0
                );
                push_opt_u64(&mut out, *seqno);
                let _ = write!(out, ",\"cause\":\"{}\"", cause_name(*cause));
            }
            TraceEvent::SeqnoReset { node, old, new } => {
                let _ =
                    write!(out, "seqno_reset\",\"node\":{},\"old\":{old},\"new\":{new}", node.0);
            }
            TraceEvent::AdvertConsidered {
                node,
                dest,
                from,
                adv_sn,
                adv_d,
                before,
                after,
                verdict,
            } => {
                let _ = write!(
                    out,
                    "advert_considered\",\"node\":{},\"dest\":{},\"from\":{},\"adv_sn\":{adv_sn},\"adv_d\":{adv_d},\"before\":",
                    node.0, dest.0, from.0
                );
                push_opt_snapshot(&mut out, before);
                out.push_str(",\"after\":");
                push_opt_snapshot(&mut out, after);
                let _ = write!(out, ",\"verdict\":\"{}\"", verdict_name(*verdict));
            }
            TraceEvent::SolicitVerdict { node, dest, t_bit, allowed } => {
                let _ = write!(
                    out,
                    "solicit_verdict\",\"node\":{},\"dest\":{},\"t_bit\":{t_bit},\"allowed\":{allowed}",
                    node.0, dest.0
                );
            }
            TraceEvent::RreqStart { node, dest, rreqid, ttl } => {
                let _ = write!(
                    out,
                    "rreq_start\",\"node\":{},\"dest\":{},\"rreqid\":{rreqid},\"ttl\":{ttl}",
                    node.0, dest.0
                );
            }
            TraceEvent::RreqRelay { node, dest, origin } => {
                let _ = write!(
                    out,
                    "rreq_relay\",\"node\":{},\"dest\":{},\"origin\":{}",
                    node.0, dest.0, origin.0
                );
            }
            TraceEvent::RrepSend { node, dest, to, dist } => {
                let _ = write!(
                    out,
                    "rrep_send\",\"node\":{},\"dest\":{},\"to\":{},\"dist\":{dist}",
                    node.0, dest.0, to.0
                );
            }
            TraceEvent::RerrSend { node, dests } => {
                let _ = write!(out, "rerr_send\",\"node\":{},\"dests\":[", node.0);
                for (k, d) in dests.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}", d.0);
                }
                out.push(']');
            }
            TraceEvent::FaultInjected { node, kind } => {
                let _ = write!(
                    out,
                    "fault_injected\",\"node\":{},\"kind\":\"{}\"",
                    node.0,
                    fault_kind_name(*kind)
                );
            }
            TraceEvent::NodeRestarted { node } => {
                let _ = write!(out, "node_restarted\",\"node\":{}", node.0);
            }
        }
        out.push('}');
        out
    }

    /// Edge-heavy field values: 0, `max`, or anything in between, a
    /// third of the time each.
    fn upto(rng: &mut SimRng, max: u64) -> u64 {
        match rng.below(3) {
            0 => 0,
            1 => max,
            _ if max == u64::MAX => rng.next_u64(),
            _ => rng.below(max + 1),
        }
    }

    fn node(rng: &mut SimRng) -> NodeId {
        NodeId(upto(rng, u16::MAX.into()) as u16)
    }

    fn word(rng: &mut SimRng) -> u32 {
        upto(rng, u32::MAX.into()) as u32
    }

    fn opt(rng: &mut SimRng) -> Option<u64> {
        rng.chance(0.5).then(|| upto(rng, u64::MAX))
    }

    fn snapshot(rng: &mut SimRng) -> InvariantSnapshot {
        InvariantSnapshot { sn: opt(rng), d: word(rng), fd: word(rng) }
    }

    fn opt_snapshot(rng: &mut SimRng) -> Option<InvariantSnapshot> {
        rng.chance(0.5).then(|| snapshot(rng))
    }

    /// An arbitrary event of variant number `variant` (tag order).
    fn arbitrary_event(variant: u8, rng: &mut SimRng) -> TraceEvent {
        let node = node(rng);
        match variant {
            tag::TX_START => TraceEvent::TxStart {
                node,
                uid: opt(rng),
                dst: rng.chance(0.5).then(|| self::node(rng)),
            },
            tag::RX_OK => TraceEvent::RxOk { node, uid: opt(rng) },
            tag::RX_COLLISION => TraceEvent::RxCollision { node },
            tag::MAC_GIVE_UP => {
                TraceEvent::MacGiveUp { node, dst: self::node(rng), uid: upto(rng, u64::MAX) }
            }
            tag::DELIVERED => TraceEvent::Delivered { node, flow: word(rng), seq: word(rng) },
            tag::DATA_SEND => TraceEvent::DataSend {
                node,
                next: self::node(rng),
                dst: self::node(rng),
                flow: word(rng),
                seq: word(rng),
            },
            tag::DATA_DROP => TraceEvent::DataDrop {
                node,
                flow: word(rng),
                seq: word(rng),
                reason: *rng.choose(&DropReason::ALL),
            },
            tag::CONTROL_DROP => {
                TraceEvent::ControlDrop { node, kind: *rng.choose(&ControlKind::ALL) }
            }
            tag::ROUTE_INSTALL => TraceEvent::RouteInstall {
                node,
                dest: self::node(rng),
                next: self::node(rng),
                before: opt_snapshot(rng),
                after: snapshot(rng),
            },
            tag::ROUTE_INVALIDATE => TraceEvent::RouteInvalidate {
                node,
                dest: self::node(rng),
                seqno: opt(rng),
                cause: *rng.choose(&InvalidateCause::ALL),
            },
            tag::SEQNO_RESET => {
                TraceEvent::SeqnoReset { node, old: upto(rng, u64::MAX), new: upto(rng, u64::MAX) }
            }
            tag::ADVERT_CONSIDERED => TraceEvent::AdvertConsidered {
                node,
                dest: self::node(rng),
                from: self::node(rng),
                adv_sn: upto(rng, u64::MAX),
                adv_d: word(rng),
                before: opt_snapshot(rng),
                after: opt_snapshot(rng),
                verdict: *rng.choose(&RouteVerdict::ALL),
            },
            tag::SOLICIT_VERDICT => TraceEvent::SolicitVerdict {
                node,
                dest: self::node(rng),
                t_bit: rng.chance(0.5),
                allowed: rng.chance(0.5),
            },
            tag::RREQ_START => TraceEvent::RreqStart {
                node,
                dest: self::node(rng),
                rreqid: word(rng),
                ttl: upto(rng, u8::MAX.into()) as u8,
            },
            tag::RREQ_RELAY => {
                TraceEvent::RreqRelay { node, dest: self::node(rng), origin: self::node(rng) }
            }
            tag::RREP_SEND => TraceEvent::RrepSend {
                node,
                dest: self::node(rng),
                to: self::node(rng),
                dist: word(rng),
            },
            tag::RERR_SEND => {
                let n = [0, 1, 3, 300][rng.below(4) as usize];
                TraceEvent::RerrSend { node, dests: (0..n).map(|_| self::node(rng)).collect() }
            }
            tag::FAULT_INJECTED => {
                TraceEvent::FaultInjected { node, kind: *rng.choose(&FaultKind::ALL) }
            }
            _ => TraceEvent::NodeRestarted { node },
        }
    }

    /// Non-decreasing timestamps: repeats (delta 0), MAC-scale steps
    /// and multi-second gaps.
    fn arbitrary_trace(spec: &[(u8, u8, u64)]) -> Vec<(SimTime, TraceEvent)> {
        let mut ns = 0u64;
        spec.iter()
            .map(|&(variant, gap, seed)| {
                let mut rng = SimRng::from_seed(seed);
                ns += match gap {
                    0 => 0,
                    1 => rng.below(200),
                    2 => rng.below(2_000_000),
                    _ => 1_000_000_000 + rng.below(40_000_000_000),
                };
                (SimTime::from_nanos(ns), arbitrary_event(variant, &mut rng))
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The log decodes to what was pushed, and all three exports
        /// are the old renderer's lines byte for byte, `render` at its
        /// exact capacity.
        #[test]
        fn log_round_trips_and_renders_like_the_fmt_oracle(
            spec in prop::collection::vec((0u8..19, 0u8..4, any::<u64>()), 0..60),
            seed in any::<u64>(),
            nodes in 0usize..70_000,
        ) {
            let events = arbitrary_trace(&spec);
            let mut sink = JsonlTrace::new(seed, nodes);
            for (t, e) in &events {
                sink.record(*t, e.clone());
            }
            prop_assert_eq!(sink.lines(), events.len() as u64);
            prop_assert_eq!(sink.log.iter().collect::<Vec<_>>(), events.clone());

            let mut expected = trace_header(seed, nodes);
            expected.push('\n');
            for (i, (t, e)) in events.iter().enumerate() {
                let line = event_to_jsonl_oracle(i as u64, *t, e);
                prop_assert_eq!(&event_to_jsonl(i as u64, *t, e), &line);
                expected.push_str(&line);
                expected.push('\n');
            }
            let doc = sink.render();
            prop_assert_eq!(&doc, &expected);
            prop_assert_eq!(doc.capacity(), doc.len(), "render must allocate its exact length");
            let mut streamed = Vec::new();
            sink.write_to(&mut streamed).expect("a Vec never fails to write");
            prop_assert_eq!(streamed, expected.clone().into_bytes());
            prop_assert_eq!(sink.contents(), expected);
        }
    }

    #[test]
    fn digits_and_their_count_match_fmt_around_every_power_of_ten() {
        let powers = (0..20).map(|k| 10u64.pow(k));
        for v in powers.flat_map(|p| [p - 1, p, p + 1]).chain([u64::MAX - 1, u64::MAX]) {
            let (mut bytes, mut len) = (Vec::new(), Len(0));
            bytes.num(v);
            len.num(v);
            assert_eq!(String::from_utf8(bytes).unwrap(), v.to_string());
            assert_eq!(len.0, v.to_string().len(), "{v}");
        }
    }

    #[test]
    fn the_generator_reaches_every_variant() {
        let mut rng = SimRng::from_seed(1);
        for variant in 0..19 {
            let mut log = TraceLog::new();
            log.push(SimTime::ZERO, &arbitrary_event(variant, &mut rng));
            assert_eq!(log.bytes[0], variant);
        }
    }

    #[test]
    fn a_clock_that_runs_backwards_still_round_trips() {
        let events = [
            (SimTime::from_secs(5), TraceEvent::RxCollision { node: NodeId(1) }),
            (SimTime::from_secs(2), TraceEvent::RxCollision { node: NodeId(2) }),
            (SimTime::from_nanos(u64::MAX), TraceEvent::RxCollision { node: NodeId(3) }),
            (SimTime::ZERO, TraceEvent::RxCollision { node: NodeId(4) }),
        ];
        let mut log = TraceLog::new();
        for (t, e) in &events {
            log.push(*t, e);
        }
        assert_eq!(log.iter().collect::<Vec<_>>(), events);
    }

    #[test]
    fn a_truncated_log_ends_the_iteration_without_panicking() {
        let mut rng = SimRng::from_seed(9);
        let mut log = TraceLog::new();
        for variant in 0..19 {
            log.push(SimTime::from_millis(variant.into()), &arbitrary_event(variant, &mut rng));
        }
        let whole: Vec<_> = log.iter().collect();
        for cut in 0..log.bytes.len() {
            let part = TraceLog { bytes: log.bytes[..cut].to_vec(), ..log.clone() };
            let got: Vec<_> = part.iter().collect();
            assert!(got.len() <= whole.len() && got == whole[..got.len()], "cut at {cut}");
        }
    }

    #[test]
    fn a_kernel_shaped_event_costs_about_eight_bytes() {
        let mut log = TraceLog::new();
        for k in 0..1000u64 {
            let uid = Some((k % 50) << 48 | k);
            let node = NodeId((k % 50) as u16);
            log.push(SimTime::from_micros(k * 40), &TraceEvent::RxOk { node, uid });
        }
        assert!(log.byte_len() <= 8 * 1000, "{} bytes for 1000 rx_ok", log.byte_len());
    }

    #[test]
    fn contents_is_rerendered_after_a_record() {
        let mut sink = JsonlTrace::new(7, 3);
        sink.record(SimTime::from_secs(1), TraceEvent::RxCollision { node: NodeId(0) });
        assert_eq!(sink.contents().lines().count(), 2);
        sink.record(SimTime::from_secs(2), TraceEvent::RxCollision { node: NodeId(1) });
        assert_eq!(sink.contents().lines().count(), 3);
        assert_eq!(sink.contents(), sink.render());
    }

    fn every_variant() -> Vec<TraceEvent> {
        let snap = InvariantSnapshot { sn: Some(7), d: 2, fd: 2 };
        vec![
            TraceEvent::TxStart { node: NodeId(1), uid: Some(9), dst: None },
            TraceEvent::RxOk { node: NodeId(2), uid: None },
            TraceEvent::RxCollision { node: NodeId(3) },
            TraceEvent::MacGiveUp { node: NodeId(1), dst: NodeId(2), uid: 4 },
            TraceEvent::Delivered { node: NodeId(2), flow: 5, seq: 6 },
            TraceEvent::DataSend {
                node: NodeId(0),
                next: NodeId(1),
                dst: NodeId(2),
                flow: 5,
                seq: 6,
            },
            TraceEvent::DataDrop { node: NodeId(1), flow: 5, seq: 7, reason: DropReason::NoRoute },
            TraceEvent::ControlDrop { node: NodeId(1), kind: ControlKind::Rreq },
            TraceEvent::RouteInstall {
                node: NodeId(0),
                dest: NodeId(2),
                next: NodeId(1),
                before: None,
                after: snap,
            },
            TraceEvent::RouteInvalidate {
                node: NodeId(0),
                dest: NodeId(2),
                seqno: Some(7),
                cause: InvalidateCause::LinkFailure,
            },
            TraceEvent::SeqnoReset { node: NodeId(0), old: 1, new: 2 },
            TraceEvent::AdvertConsidered {
                node: NodeId(0),
                dest: NodeId(2),
                from: NodeId(1),
                adv_sn: 7,
                adv_d: 3,
                before: Some(snap),
                after: Some(snap),
                verdict: RouteVerdict::NotBetter,
            },
            TraceEvent::SolicitVerdict {
                node: NodeId(1),
                dest: NodeId(2),
                t_bit: true,
                allowed: false,
            },
            TraceEvent::RreqStart { node: NodeId(0), dest: NodeId(2), rreqid: 1, ttl: 3 },
            TraceEvent::RreqRelay { node: NodeId(1), dest: NodeId(2), origin: NodeId(0) },
            TraceEvent::RrepSend { node: NodeId(2), dest: NodeId(2), to: NodeId(1), dist: 0 },
            TraceEvent::RerrSend { node: NodeId(1), dests: vec![NodeId(2), NodeId(3)] },
            TraceEvent::FaultInjected { node: NodeId(1), kind: FaultKind::Crash },
            TraceEvent::NodeRestarted { node: NodeId(1) },
        ]
    }

    #[test]
    fn every_trace_variant_encodes_to_one_wellformed_line() {
        for (i, e) in every_variant().iter().enumerate() {
            let line = event_to_jsonl(i as u64, SimTime::from_millis(i as u64), e);
            assert!(line.starts_with(&format!("{{\"i\":{i},")), "{line}");
            assert!(line.ends_with('}'), "{line}");
            assert!(!line.contains('\n'), "one line per event: {line}");
            assert!(line.contains("\"type\":\""), "{line}");
            // Balanced braces and brackets (no string in our encoding
            // contains either, so raw counting is sound).
            let open = line.matches('{').count();
            let close = line.matches('}').count();
            assert_eq!(open, close, "{line}");
            assert_eq!(line.matches('[').count(), line.matches(']').count(), "{line}");
        }
    }

    #[test]
    fn escape_covers_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn trace_and_series_headers_are_schema_versioned() {
        let h = trace_header(42, 50);
        assert_eq!(h, "{\"schema\":\"manet-trace\",\"version\":1,\"seed\":42,\"nodes\":50}");
        let s = series_header(42, SimDuration::from_secs(1));
        assert_eq!(
            s,
            "{\"schema\":\"manet-series\",\"version\":1,\"seed\":42,\"interval_ns\":1000000000}"
        );
    }

    #[test]
    fn flight_recorder_rings_are_bounded_and_merge_in_seq_order() {
        let mut fr = FlightRecorder::new(2, 3);
        for k in 0..5u64 {
            fr.record(SimTime::from_millis(k), &TraceEvent::RxCollision { node: NodeId(0) });
            fr.record(
                SimTime::from_millis(k),
                &TraceEvent::Delivered { node: NodeId(1), flow: 0, seq: k as u32 },
            );
        }
        assert_eq!(fr.recorded(), 10);
        assert_eq!(fr.node_tail(NodeId(0)).len(), 3, "ring bounded at depth");
        assert_eq!(fr.node_tail(NodeId(1)).len(), 3);
        let dump = fr.dump();
        assert_eq!(dump.len(), 6);
        assert!(dump.windows(2).all(|w| w[0].seq < w[1].seq), "global order restored");
        // The oldest retained entries are the last 3 rounds.
        assert_eq!(dump[0].seq, 4);
    }

    #[test]
    fn zero_depth_recorder_retains_nothing_but_still_counts() {
        let mut fr = FlightRecorder::new(1, 0);
        fr.record(SimTime::ZERO, &TraceEvent::RxCollision { node: NodeId(0) });
        assert_eq!(fr.recorded(), 1);
        assert!(fr.dump().is_empty());
    }

    #[test]
    fn jsonl_sink_renders_header_then_events() {
        let shared = JsonlTrace::shared(7, 3);
        let mut sink: Box<dyn TraceSink> = Box::new(shared.clone());
        sink.record(SimTime::from_secs(1), TraceEvent::RxCollision { node: NodeId(0) });
        sink.record(
            SimTime::from_secs(2),
            TraceEvent::Delivered { node: NodeId(1), flow: 0, seq: 0 },
        );
        let doc = shared.lock().map(|t| t.contents().to_string()).unwrap_or_default();
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"schema\":\"manet-trace\""));
        assert!(lines[1].contains("\"type\":\"rx_collision\""));
        assert!(lines[2].contains("\"type\":\"delivered\""));
    }

    #[test]
    fn sample_line_has_fixed_field_order() {
        let s = SeriesSample {
            at: SimTime::from_secs(1),
            delivered: 4,
            originated: 8,
            delivered_w: 2,
            originated_w: 4,
            control_tx_w: [1, 2, 3, 4, 5, 6],
            drops: [1, 0, 0, 0, 0, 2],
            route_entries: 9,
            route_valid: 7,
            fel_depth: 33,
            events_by_kind: [0; Event::KIND_COUNT],
        };
        let line = sample_to_jsonl(0, &s);
        assert!(line.starts_with("{\"i\":0,\"t_ns\":1000000000,\"delivery_ratio\":0.5,"));
        assert!(line.contains("\"ctl_rreq_w\":1"));
        assert!(line.contains("\"drop_no_route\":1"));
        assert!(line.contains("\"drop_other\":2"));
        assert!(line.contains("\"route_entries\":9,\"route_valid\":7,\"fel_depth\":33"));
        assert!(line.contains("\"ev_mac_kick\":0"));
        let idx_ratio = line.find("delivery_ratio").unwrap();
        let idx_fel = line.find("fel_depth").unwrap();
        assert!(idx_ratio < idx_fel, "fixed field order");
    }
}
