//! Observability: time-series sampler and JSONL export.
//!
//! Two pieces, both strictly *observation-pure* — attaching or
//! detaching either may not change one observable bit of the
//! simulation (enforced by the metrics-equality and byte-determinism
//! tests in `crates/bench/tests/`):
//!
//! * a **time-series sampler** driven by the kernel's
//!   [`crate::event::Event::TelemetrySample`] event (sim-time only —
//!   wall clocks are banned in this crate by the workspace `clippy.toml`):
//!   each [`SeriesSample`] snapshots rolling delivery ratio,
//!   per-[`ControlKind`] transmission rates, per-protocol route-table
//!   occupancy ([`crate::protocol::RoutingProtocol::telemetry_snapshot`]),
//!   drop-reason counters, FEL depth and per-event-kind kernel counts;
//! * a hand-rolled **JSONL** layer (no serde — the build is offline):
//!   schema-versioned trace and series files with a fixed field order,
//!   byte-identical across reruns of the same `(scenario, seed)`.
//!   [`JsonlTrace`] is a [`TraceSink`] that keeps events in a compact
//!   [`TraceLog`] and renders the document once, at export, from one
//!   table of the trace lines' names and shapes; [`series_to_jsonl`]
//!   renders the sampler output. `crates/bench`'s `tracegrep` binary
//!   consumes both.
//!
//! The tail of events a first-breach report ships with is the invariant
//! auditor's own ring ([`crate::audit::FORENSIC_WINDOW`]), not kept here.

use crate::event::Event;
use crate::packet::{ControlKind, NodeId};
use crate::protocol::DropReason;
use crate::time::{SimDuration, SimTime};
use crate::trace::{
    FaultKind, InvalidateCause, InvariantSnapshot, RouteVerdict, TraceEvent, TraceSink,
};
use std::cell::OnceCell;
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
    /// Sampling interval of the time-series sampler. Telemetry off
    /// (`SimConfig::telemetry: None`) is the one way to run without it.
    pub sample_interval: SimDuration,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { sample_interval: SimDuration::from_secs(1) }
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

/// JSON-escapes a string (quotes, backslashes, control characters;
/// without surrounding quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[inline]
fn lit(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(s.as_bytes());
}

/// Writes `v` in decimal, two digits per table lookup and four per
/// division: a line is mostly numbers, and one division per digit was
/// most of what rendering it cost. Forced inline, as is [`kv`]: left to
/// `#[inline]`, both stayed calls, and rendering took 15 % longer.
#[inline(always)]
fn num(out: &mut Vec<u8>, mut v: u64) {
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
    out.extend_from_slice(&buf[at..]);
}

/// How many bytes [`num`] writes for `v`: `⌊log₁₀ 2 · bits⌋` from the
/// bit length (1233 / 4096 ≈ log₁₀ 2), plus one when `v` reaches the next
/// power of ten. No division, unlike `ilog10` above 10¹⁰ — and a
/// nanosecond timestamp is above it after ten seconds.
#[inline]
fn digits(v: u64) -> usize {
    let low = (((64 - (v | 1).leading_zeros()) * 1233) >> 12) as usize;
    low + usize::from(v | 1 >= POW10[low])
}

/// `10⁰ ..= 10¹⁹`.
const POW10: [u64; 20] = {
    let mut t = [1u64; 20];
    let mut k = 1;
    while k < 20 {
        t[k] = t[k - 1] * 10;
        k += 1;
    }
    t
};

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

/// Writes `key` (a literal like `,"node":`) and then `v`.
#[inline(always)]
fn kv(out: &mut Vec<u8>, key: &str, v: u64) {
    lit(out, key);
    num(out, v);
}

/// Wire names of the enums a trace line spells out, each in its enum's
/// declaration order: the log keeps the variant's index.
const CONTROL_KINDS: [&str; ControlKind::ALL.len()] =
    ["rreq", "rrep", "rerr", "hello", "tc", "other"];
const DROP_REASONS: [&str; DropReason::ALL.len()] =
    ["no_route", "ttl_expired", "buffer_overflow", "broken_source_route", "malformed", "other"];
const VERDICTS: [&str; RouteVerdict::ALL.len()] =
    ["installed", "refreshed", "not_better", "infeasible"];
const CAUSES: [&str; InvalidateCause::ALL.len()] =
    ["link_failure", "route_error", "request_as_error", "seqno_adopted"];
const FAULT_KINDS: [&str; FaultKind::ALL.len()] =
    ["crash", "link_down", "link_up", "partition", "heal", "impair", "replay"];

/// Stable wire name of a control kind.
pub fn control_kind_name(k: ControlKind) -> &'static str {
    CONTROL_KINDS[k as usize]
}

/// Stable wire name of a drop reason.
pub fn drop_reason_name(r: DropReason) -> &'static str {
    DROP_REASONS[r as usize]
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
    let mut log = TraceLog::new();
    log.push(t, e);
    let mut out = Vec::with_capacity(log.text_len);
    // A log of one pushed event holds one whole line.
    let _ = log.reader().line(&mut out, i);
    ascii_string(out)
}

/// The renderer only ever writes ASCII, so the conversion cannot fail
/// (the differential proptest compares against `core::fmt` output).
fn ascii_string(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).unwrap_or_default()
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

/// How one field of a trace line is kept in the log and printed.
#[derive(Clone, Copy)]
enum Kind {
    /// A varint; a number.
    Num,
    /// A presence byte, then a varint; a number or `null`.
    OptNum,
    /// A packet uid, `(node << 48) | counter`, as two varints so
    /// neither half pays for the other's magnitude: the high half plus
    /// one (zero is no uid), then the low half; a number or `null`.
    Uid,
    /// The index byte of an enum variant; its name in the table, quoted.
    Name(&'static [&'static str]),
    /// A byte; `true` or `false`.
    Flag,
    /// A presence byte, then `sn` as an [`Kind::OptNum`] and `d`, `fd`
    /// as varints; an object or `null`.
    Snapshot,
    /// A count, then that many varints; an array of numbers.
    List,
}

const UID_LOW_BITS: u32 = 48;
const UID_LOW_MASK: u64 = (1 << UID_LOW_BITS) - 1;

/// One trace line: its `,"type":"…","node":` literal, then each further
/// field's `,"name":` literal and kind, in wire order.
type Row = (&'static str, &'static [(&'static str, Kind)]);

macro_rules! row {
    ($ty:literal $(, $name:literal: $kind:expr)*) => {
        (
            concat!(",\"type\":\"", $ty, "\",\"node\":"),
            &[$((concat!(",\"", $name, "\":"), $kind)),*],
        )
    };
}

/// Every trace line's names and JSON shapes, indexed by tag: the
/// variant's position in [`TraceEvent`]. A line is `i`, `t_ns`, `type`,
/// `node`, then the row's fields; [`TraceLog::push`] writes a variant's
/// fields in its row's order and [`LogReader::line`] prints them, so
/// this table is the only place the schema is spelled.
const SCHEMA: [Row; 19] = {
    use Kind::*;
    [
        row!("tx_start", "uid": Uid, "dst": OptNum),
        row!("rx_ok", "uid": Uid),
        row!("rx_collision"),
        row!("mac_give_up", "dst": Num, "uid": Uid),
        row!("delivered", "flow": Num, "seq": Num),
        row!("data_send", "next": Num, "dst": Num, "flow": Num, "seq": Num),
        row!("data_drop", "flow": Num, "seq": Num, "reason": Name(&DROP_REASONS)),
        row!("control_drop", "kind": Name(&CONTROL_KINDS)),
        row!("route_install", "dest": Num, "next": Num, "before": Snapshot, "after": Snapshot),
        row!("route_invalidate", "dest": Num, "sn": OptNum, "cause": Name(&CAUSES)),
        row!("seqno_reset", "old": Num, "new": Num),
        row!(
            "advert_considered",
            "dest": Num,
            "from": Num,
            "adv_sn": Num,
            "adv_d": Num,
            "before": Snapshot,
            "after": Snapshot,
            "verdict": Name(&VERDICTS)
        ),
        row!("solicit_verdict", "dest": Num, "t_bit": Flag, "allowed": Flag),
        row!("rreq_start", "dest": Num, "rreqid": Num, "ttl": Num),
        row!("rreq_relay", "dest": Num, "origin": Num),
        row!("rrep_send", "dest": Num, "to": Num, "dist": Num),
        row!("rerr_send", "dests": List),
        row!("fault_injected", "kind": Name(&FAULT_KINDS)),
        row!("node_restarted"),
    ]
};

/// What every line prints around its [`SCHEMA`] row: `i` and `t_ns`
/// before it, the closing brace after.
const LINE: [&str; 3] = ["{\"i\":", ",\"t_ns\":", "}"];
/// What a present [`Kind::Snapshot`] prints around its three numbers.
const SNAPSHOT: [&str; 4] = ["{\"sn\":", ",\"d\":", ",\"fd\":", "}"];
/// An absent [`Kind::OptNum`], [`Kind::Uid`] or [`Kind::Snapshot`].
const NULL: &str = "null";
/// A [`Kind::Flag`], by its byte.
const FLAGS: [&str; 2] = ["false", "true"];

const fn width(mut lits: &[&str]) -> usize {
    let mut sum = 0;
    while let [lit, rest @ ..] = lits {
        sum += lit.len();
        lits = rest;
    }
    sum
}

/// Per tag, the bytes of a line that do not depend on the event: the
/// [`LINE`] frame, the row's literals and the newline.
const ROW_WIDTH: [usize; SCHEMA.len()] = {
    let mut t = [width(&LINE) + 1; SCHEMA.len()];
    let mut tag = 0;
    while tag < SCHEMA.len() {
        let (head, mut fields) = SCHEMA[tag];
        t[tag] += head.len();
        while let [(key, _), rest @ ..] = fields {
            t[tag] += key.len();
            fields = rest;
        }
        tag += 1;
    }
    t
};

/// Appends one event's bytes to a log and counts the bytes its line
/// prints: [`LogWriter::head`], then one call per field of the event's
/// [`SCHEMA`] row, named after its [`Kind`]. Every method is forced
/// inline: left to `#[inline]`, some stayed calls, and recording an
/// event took about a quarter longer.
struct LogWriter<'a> {
    bytes: &'a mut Vec<u8>,
    /// The event's line number, its time and the time since the last.
    i: u64,
    ns: u64,
    delta_ns: u64,
    /// The fields of the event's row not yet written.
    row: &'static [(&'static str, Kind)],
    /// Bytes of the event's line so far, newline included.
    width: usize,
}

impl LogWriter<'_> {
    /// The tag byte, the time since the previous event and the node.
    #[inline(always)]
    fn head(&mut self, tag: u8, node: NodeId) -> &mut Self {
        let tag = usize::from(tag);
        self.row = SCHEMA[tag].1;
        self.width = ROW_WIDTH[tag] + digits(self.i) + digits(self.ns);
        self.bytes.push(tag as u8);
        self.var(self.delta_ns).printed(node.0.into())
    }

    /// Steps past the row's next field, whose kind `is` the one the
    /// caller writes: a `push` arm whose calls disagree with its row
    /// fails the assertion.
    #[inline(always)]
    fn field(&mut self, is: fn(Kind) -> bool) -> Option<Kind> {
        let row = self.row;
        let kind = row.split_first().map(|(&(_, kind), rest)| {
            self.row = rest;
            kind
        });
        debug_assert!(kind.is_some_and(is), "push disagrees with its row");
        kind
    }

    /// LEB128: seven bits per byte, low group first.
    #[inline(always)]
    fn var(&mut self, mut v: u64) -> &mut Self {
        while v >= 0x80 {
            self.bytes.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.bytes.push(v as u8);
        self
    }

    /// A varint the line prints as it is.
    #[inline(always)]
    fn printed(&mut self, v: u64) -> &mut Self {
        self.width += digits(v);
        self.var(v)
    }

    /// The zero byte of an absent value, which prints as `null`.
    #[inline(always)]
    fn null(&mut self) -> &mut Self {
        self.width += NULL.len();
        self.var(0)
    }

    /// A presence byte, then the number: an [`Kind::OptNum`] body.
    #[inline(always)]
    fn opt(&mut self, v: Option<u64>) -> &mut Self {
        match v {
            Some(v) => self.var(1).printed(v),
            None => self.null(),
        }
    }

    #[inline(always)]
    fn num(&mut self, v: impl Into<u64>) -> &mut Self {
        self.field(|k| matches!(k, Kind::Num));
        self.printed(v.into())
    }

    #[inline(always)]
    fn opt_num(&mut self, v: Option<u64>) -> &mut Self {
        self.field(|k| matches!(k, Kind::OptNum));
        self.opt(v)
    }

    #[inline(always)]
    fn uid(&mut self, uid: Option<u64>) -> &mut Self {
        self.field(|k| matches!(k, Kind::Uid));
        match uid {
            Some(uid) => {
                self.width += digits(uid);
                self.var((uid >> UID_LOW_BITS) + 1).var(uid & UID_LOW_MASK)
            }
            None => self.null(),
        }
    }

    /// `index` is the enum variant `as u8`.
    #[inline(always)]
    fn name(&mut self, index: u8) -> &mut Self {
        if let Some(Kind::Name(names)) = self.field(|k| matches!(k, Kind::Name(_))) {
            // The name, quoted.
            self.width += names.get(usize::from(index)).map_or(0, |name| name.len() + 2);
        }
        self.bytes.push(index);
        self
    }

    #[inline(always)]
    fn flag(&mut self, v: bool) -> &mut Self {
        self.field(|k| matches!(k, Kind::Flag));
        self.width += FLAGS[usize::from(v)].len();
        self.var(v.into())
    }

    #[inline(always)]
    fn snapshot(&mut self, s: Option<&InvariantSnapshot>) -> &mut Self {
        self.field(|k| matches!(k, Kind::Snapshot));
        match s {
            Some(s) => {
                self.width += width(&SNAPSHOT);
                self.var(1).opt(s.sn).printed(s.d.into()).printed(s.fd.into())
            }
            None => self.null(),
        }
    }

    #[inline(always)]
    fn list(&mut self, nodes: &[NodeId]) -> &mut Self {
        self.field(|k| matches!(k, Kind::List));
        // Brackets, and a comma between two numbers.
        self.width += 2 + nodes.len().saturating_sub(1);
        self.var(nodes.len() as u64);
        for n in nodes {
            self.printed(n.0.into());
        }
        self
    }
}

/// A compact append-only log of trace events: what the kernel-side sink
/// keeps instead of rendered text.
///
/// Each event is one tag byte (the variant's position in
/// [`TraceEvent`]), the time since the previous event in nanoseconds as
/// a LEB128 varint (wrapping, so any timestamp order renders back), the
/// node, and the variant's fields in the order its JSONL line prints
/// them: integers and node ids as varints, enums and booleans as one
/// byte, `Option`s behind a presence byte, packet uids as two varints.
/// A kernel trace averages about 7 bytes per event against 80–100 for
/// its JSONL line. The layout is private to this file and never
/// persisted: the only reader is the JSONL renderer.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    bytes: Vec<u8>,
    events: u64,
    last_ns: u64,
    /// Bytes of the event lines the log renders to, newlines included,
    /// counted as each field is written.
    text_len: usize,
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
        let mut w = LogWriter {
            bytes: &mut self.bytes,
            i: self.events,
            ns,
            delta_ns: ns.wrapping_sub(self.last_ns),
            row: &[],
            width: 0,
        };
        self.last_ns = ns;
        self.events += 1;
        match event {
            TraceEvent::TxStart { node, uid, dst } => {
                w.head(0, *node).uid(*uid).opt_num(dst.map(|d| d.0.into()))
            }
            TraceEvent::RxOk { node, uid } => w.head(1, *node).uid(*uid),
            TraceEvent::RxCollision { node } => w.head(2, *node),
            TraceEvent::MacGiveUp { node, dst, uid } => w.head(3, *node).num(dst.0).uid(Some(*uid)),
            TraceEvent::Delivered { node, flow, seq } => w.head(4, *node).num(*flow).num(*seq),
            TraceEvent::DataSend { node, next, dst, flow, seq } => {
                w.head(5, *node).num(next.0).num(dst.0).num(*flow).num(*seq)
            }
            TraceEvent::DataDrop { node, flow, seq, reason } => {
                w.head(6, *node).num(*flow).num(*seq).name(*reason as u8)
            }
            TraceEvent::ControlDrop { node, kind } => w.head(7, *node).name(*kind as u8),
            TraceEvent::RouteInstall { node, dest, next, before, after } => w
                .head(8, *node)
                .num(dest.0)
                .num(next.0)
                .snapshot(before.as_ref())
                .snapshot(Some(after)),
            TraceEvent::RouteInvalidate { node, dest, seqno, cause } => {
                w.head(9, *node).num(dest.0).opt_num(*seqno).name(*cause as u8)
            }
            TraceEvent::SeqnoReset { node, old, new } => w.head(10, *node).num(*old).num(*new),
            TraceEvent::AdvertConsidered {
                node,
                dest,
                from,
                adv_sn,
                adv_d,
                before,
                after,
                verdict,
            } => w
                .head(11, *node)
                .num(dest.0)
                .num(from.0)
                .num(*adv_sn)
                .num(*adv_d)
                .snapshot(before.as_ref())
                .snapshot(after.as_ref())
                .name(*verdict as u8),
            TraceEvent::SolicitVerdict { node, dest, t_bit, allowed } => {
                w.head(12, *node).num(dest.0).flag(*t_bit).flag(*allowed)
            }
            TraceEvent::RreqStart { node, dest, rreqid, ttl } => {
                w.head(13, *node).num(dest.0).num(*rreqid).num(*ttl)
            }
            TraceEvent::RreqRelay { node, dest, origin } => {
                w.head(14, *node).num(dest.0).num(origin.0)
            }
            TraceEvent::RrepSend { node, dest, to, dist } => {
                w.head(15, *node).num(dest.0).num(to.0).num(*dist)
            }
            TraceEvent::RerrSend { node, dests } => w.head(16, *node).list(dests),
            TraceEvent::FaultInjected { node, kind } => w.head(17, *node).name(*kind as u8),
            TraceEvent::NodeRestarted { node } => w.head(18, *node),
        };
        debug_assert!(w.row.is_empty(), "push disagrees with its row");
        self.text_len += w.width;
    }

    fn reader(&self) -> LogReader<'_> {
        LogReader { bytes: &self.bytes, at: 0, ns: 0 }
    }
}

/// Prints a [`TraceLog`] as JSONL lines straight from its bytes. Total:
/// bytes that are not a whole event (which [`TraceLog::push`] never
/// writes) end the document at its last whole line instead of
/// panicking.
struct LogReader<'a> {
    bytes: &'a [u8],
    at: usize,
    ns: u64,
}

impl LogReader<'_> {
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

    /// A presence byte or a [`Kind::Flag`].
    fn flag(&mut self) -> Option<bool> {
        match self.byte()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Prints the log's next event as line `i` (no trailing newline).
    /// `None`, with `out` as it was, once the log holds no further
    /// whole event.
    fn line(&mut self, out: &mut Vec<u8>, i: u64) -> Option<()> {
        let start = out.len();
        let whole = self.event(out, i);
        if whole.is_none() {
            out.truncate(start);
            // What follows a broken event cannot be trusted to start at
            // a tag: the log ends here.
            self.at = self.bytes.len();
        }
        whole
    }

    fn event(&mut self, out: &mut Vec<u8>, i: u64) -> Option<()> {
        let (head, fields) = SCHEMA.get(usize::from(self.byte()?))?;
        self.ns = self.ns.wrapping_add(self.var()?);
        let [open, t_ns, close] = LINE;
        kv(out, open, i);
        kv(out, t_ns, self.ns);
        kv(out, head, self.var()?);
        for (key, kind) in *fields {
            lit(out, key);
            self.field(out, *kind)?;
        }
        lit(out, close);
        Some(())
    }

    fn field(&mut self, out: &mut Vec<u8>, kind: Kind) -> Option<()> {
        match kind {
            Kind::Num => num(out, self.var()?),
            Kind::OptNum => match self.flag()? {
                true => num(out, self.var()?),
                false => lit(out, NULL),
            },
            Kind::Uid => match self.var()?.checked_sub(1) {
                Some(high) => num(out, high << UID_LOW_BITS | self.var()? & UID_LOW_MASK),
                None => lit(out, NULL),
            },
            Kind::Name(names) => {
                lit(out, "\"");
                lit(out, names.get(usize::from(self.byte()?))?);
                lit(out, "\"");
            }
            Kind::Flag => lit(out, FLAGS[usize::from(self.flag()?)]),
            Kind::Snapshot => match self.flag()? {
                true => {
                    let [sn, d, fd, close] = SNAPSHOT;
                    lit(out, sn);
                    self.field(out, Kind::OptNum)?;
                    kv(out, d, self.var()?);
                    kv(out, fd, self.var()?);
                    lit(out, close);
                }
                false => lit(out, NULL),
            },
            Kind::List => {
                lit(out, "[");
                for k in 0..self.var()? {
                    kv(out, if k > 0 { "," } else { "" }, self.var()?);
                }
                lit(out, "]");
            }
        }
        Some(())
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

    /// The JSONL document, allocated once at its exact length, which
    /// the log counted as it was recorded: a grown or over-reserved
    /// buffer would sit on top of the heap the run has already touched
    /// instead of reusing it.
    pub fn render(&self) -> String {
        let header = trace_header(self.seed, self.nodes);
        let len = header.len() + 1 + self.log.text_len;
        let mut doc = Vec::with_capacity(len);
        lit(&mut doc, &header);
        doc.push(b'\n');
        let mut log = self.log.reader();
        let mut i = 0;
        while log.line(&mut doc, i).is_some() {
            doc.push(b'\n');
            i += 1;
        }
        // Only a log cut mid-event, which tests build, renders short.
        debug_assert!(doc.len() == len || i < self.log.len(), "text_len disagrees with render");
        ascii_string(doc)
    }

    /// Streams the JSONL document into `w` a line at a time, never
    /// holding more than one line of it.
    pub fn write_to(&self, w: &mut impl io::Write) -> io::Result<()> {
        writeln!(w, "{}", trace_header(self.seed, self.nodes))?;
        let mut line = Vec::with_capacity(128);
        let mut log = self.log.reader();
        let mut i = 0;
        while log.line(&mut line, i).is_some() {
            line.push(b'\n');
            w.write_all(&line)?;
            line.clear();
            i += 1;
        }
        Ok(())
    }

    /// The document as a borrowed string, rendered on first use and
    /// kept until the next record. Kept for the frozen `benchmark/`
    /// package, whose traced run copies out of it; delete with ROADMAP
    /// item 9(b). New callers want [`JsonlTrace::render`].
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use proptest::prelude::*;

    // The oracle's own spelling of every enum name: it must not read
    // the tables it checks.
    fn control_kind_name(k: ControlKind) -> &'static str {
        match k {
            ControlKind::Rreq => "rreq",
            ControlKind::Rrep => "rrep",
            ControlKind::Rerr => "rerr",
            ControlKind::Hello => "hello",
            ControlKind::Tc => "tc",
            ControlKind::Other => "other",
        }
    }

    fn drop_reason_name(r: DropReason) -> &'static str {
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

    /// A `core::fmt` line renderer that spells every line out by hand:
    /// the oracle of the differential proptest below.
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

    /// An arbitrary event of variant number `variant` (its position in
    /// [`TraceEvent`], which is its tag).
    fn arbitrary_event(variant: u8, rng: &mut SimRng) -> TraceEvent {
        let node = node(rng);
        match variant {
            0 => TraceEvent::TxStart {
                node,
                uid: opt(rng),
                dst: rng.chance(0.5).then(|| self::node(rng)),
            },
            1 => TraceEvent::RxOk { node, uid: opt(rng) },
            2 => TraceEvent::RxCollision { node },
            3 => TraceEvent::MacGiveUp { node, dst: self::node(rng), uid: upto(rng, u64::MAX) },
            4 => TraceEvent::Delivered { node, flow: word(rng), seq: word(rng) },
            5 => TraceEvent::DataSend {
                node,
                next: self::node(rng),
                dst: self::node(rng),
                flow: word(rng),
                seq: word(rng),
            },
            6 => TraceEvent::DataDrop {
                node,
                flow: word(rng),
                seq: word(rng),
                reason: *rng.choose(&DropReason::ALL),
            },
            7 => TraceEvent::ControlDrop { node, kind: *rng.choose(&ControlKind::ALL) },
            8 => TraceEvent::RouteInstall {
                node,
                dest: self::node(rng),
                next: self::node(rng),
                before: opt_snapshot(rng),
                after: snapshot(rng),
            },
            9 => TraceEvent::RouteInvalidate {
                node,
                dest: self::node(rng),
                seqno: opt(rng),
                cause: *rng.choose(&InvalidateCause::ALL),
            },
            10 => {
                TraceEvent::SeqnoReset { node, old: upto(rng, u64::MAX), new: upto(rng, u64::MAX) }
            }
            11 => TraceEvent::AdvertConsidered {
                node,
                dest: self::node(rng),
                from: self::node(rng),
                adv_sn: upto(rng, u64::MAX),
                adv_d: word(rng),
                before: opt_snapshot(rng),
                after: opt_snapshot(rng),
                verdict: *rng.choose(&RouteVerdict::ALL),
            },
            12 => TraceEvent::SolicitVerdict {
                node,
                dest: self::node(rng),
                t_bit: rng.chance(0.5),
                allowed: rng.chance(0.5),
            },
            13 => TraceEvent::RreqStart {
                node,
                dest: self::node(rng),
                rreqid: word(rng),
                ttl: upto(rng, u8::MAX.into()) as u8,
            },
            14 => TraceEvent::RreqRelay { node, dest: self::node(rng), origin: self::node(rng) },
            15 => TraceEvent::RrepSend {
                node,
                dest: self::node(rng),
                to: self::node(rng),
                dist: word(rng),
            },
            16 => {
                let n = [0, 1, 3, 300][rng.below(4) as usize];
                TraceEvent::RerrSend { node, dests: (0..n).map(|_| self::node(rng)).collect() }
            }
            17 => TraceEvent::FaultInjected { node, kind: *rng.choose(&FaultKind::ALL) },
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

        /// All four exports are the oracle's lines byte for byte,
        /// `render` at its exact capacity.
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
            // Exact in release builds too, where `render`'s own check is off.
            assert_eq!(doc.len(), trace_header(seed, nodes).len() + 1 + sink.log.text_len);
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
            let mut bytes = Vec::new();
            num(&mut bytes, v);
            assert_eq!(String::from_utf8(bytes).unwrap(), v.to_string());
            assert_eq!(digits(v), v.to_string().len(), "{v}");
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

    /// A type name is checked against the oracle's for each tag on its
    /// own, so a variant inserted mid-enum cannot silently shift rows.
    #[test]
    fn schema_rows_follow_the_enum() {
        let mut rng = SimRng::from_seed(2);
        for tag in 0..19 {
            let event = arbitrary_event(tag, &mut rng);
            let line = event_to_jsonl(0, SimTime::ZERO, &event);
            let oracle = event_to_jsonl_oracle(0, SimTime::ZERO, &event);
            let head = oracle.find("\"node\"").expect("every line names its node");
            assert_eq!(line.get(..head), Some(&oracle[..head]), "tag {tag}");
        }
    }

    fn rendered_lines(log: &TraceLog) -> Vec<String> {
        let sink = JsonlTrace { log: log.clone(), ..JsonlTrace::new(0, 0) };
        let mut streamed = Vec::new();
        sink.write_to(&mut streamed).expect("a Vec never fails to write");
        let doc = sink.render();
        assert_eq!(doc.as_bytes(), streamed);
        // A cut log renders short of the length its whole self counted,
        // but never past it: the one allocation is never outgrown.
        let len = trace_header(0, 0).len() + 1 + log.text_len;
        assert!(doc.len() <= len && doc.capacity() == len, "{} of {len}", doc.len());
        doc.lines().skip(1).map(String::from).collect()
    }

    #[test]
    fn a_clock_that_runs_backwards_still_round_trips() {
        let times = [5_000_000_000, 2_000_000_000, u64::MAX, 0];
        let mut log = TraceLog::new();
        for (k, ns) in times.iter().enumerate() {
            log.push(SimTime::from_nanos(*ns), &TraceEvent::RxCollision { node: NodeId(k as u16) });
        }
        let lines = rendered_lines(&log);
        assert_eq!(lines.len(), times.len());
        for (i, (line, ns)) in lines.iter().zip(times).enumerate() {
            assert!(line.starts_with(&format!("{{\"i\":{i},\"t_ns\":{ns},")), "{line}");
        }
    }

    #[test]
    fn a_truncated_log_ends_the_iteration_without_panicking() {
        let mut rng = SimRng::from_seed(9);
        let mut log = TraceLog::new();
        for variant in 0..19 {
            log.push(SimTime::from_millis(variant.into()), &arbitrary_event(variant, &mut rng));
        }
        let whole = rendered_lines(&log);
        assert_eq!(whole.len(), 19);
        for cut in 0..log.bytes.len() {
            let part = TraceLog { bytes: log.bytes[..cut].to_vec(), ..log.clone() };
            let got = rendered_lines(&part);
            assert!(got.len() < whole.len() && got == whole[..got.len()], "cut at {cut}");
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
