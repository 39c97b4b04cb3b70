//! Trace forensics: parsing and querying exported JSONL traces.
//!
//! Powers the `tracegrep` binary. The queries deliberately recompute
//! everything from the flat event stream — in particular
//! [`loops_check`] rebuilds per-destination successor graphs from
//! `route_install` / `route_invalidate` records alone, independently of
//! the simulator's own `sim::audit` machinery, so the two
//! implementations cross-check each other.

use manet_sim::hash::FxMap;
use std::collections::BTreeMap;
use std::fmt::Write as _;

// ----- a minimal JSON reader --------------------------------------------

/// A parsed JSON value. Objects keep their field order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number an `f64` holds exactly: every float, and every integer
    /// token up to 2⁵³ (and the sparser ones beyond that survive the
    /// round trip).
    Num(f64),
    /// A non-negative integer token an `f64` would round — packet uids
    /// are `(node << 48) | ctr`, so those of nodes ≥ 32 exceed 2⁵³.
    Int(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (a full line of a JSONL file).
    pub fn parse(s: &str) -> Option<Json> {
        let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos == p.bytes.len() {
            Some(v)
        } else {
            None
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Shorthand: integer field of an object.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Json::as_u64)
    }

    /// Shorthand: string field of an object.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Option<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Some(v)
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Json> {
        self.skip_ws();
        match self.peek()? {
            b'n' => self.lit("null", Json::Null),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' => self.array(),
            b'{' => self.object(),
            _ => self.number(),
        }
    }

    fn string(&mut self) -> Option<String> {
        if !self.eat(b'"') {
            return None;
        }
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                _ => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).ok()?);
                }
            }
        }
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        // An integer token is kept exact: as the float it equals where
        // one exists, as itself where the float would be a neighbour.
        if let Ok(int) = text.parse::<u64>() {
            let float = int as f64;
            return Some(if float as u128 == u128::from(int) {
                Json::Num(float)
            } else {
                Json::Int(int)
            });
        }
        text.parse::<f64>().ok().filter(|n| n.is_finite()).map(Json::Num)
    }

    fn array(&mut self) -> Option<Json> {
        self.eat(b'[');
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Some(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Some(Json::Arr(items));
            }
            if !self.eat(b',') {
                return None;
            }
        }
    }

    fn object(&mut self) -> Option<Json> {
        self.eat(b'{');
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Some(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return None;
            }
            fields.push((key, self.value()?));
            self.skip_ws();
            if self.eat(b'}') {
                return Some(Json::Obj(fields));
            }
            if !self.eat(b',') {
                return None;
            }
        }
    }
}

// ----- trace file -------------------------------------------------------

/// A parsed `manet-trace` JSONL file: validated header plus one parsed
/// object per event line.
#[derive(Debug)]
pub struct TraceFile {
    /// The header object (schema, version, seed, nodes).
    pub header: Json,
    /// Event records in file order.
    pub events: Vec<Json>,
}

impl TraceFile {
    /// Parses a whole trace document, validating the schema header.
    pub fn parse(text: &str) -> Result<TraceFile, String> {
        let mut lines = text.lines().enumerate();
        let (_, first) = lines.next().ok_or("empty trace file")?;
        let header = Json::parse(first).ok_or("header is not valid JSON")?;
        match header.str_field("schema") {
            Some(s) if s == manet_sim::telemetry::TRACE_SCHEMA => {}
            Some(s) => return Err(format!("not a trace file (schema {s:?})")),
            None => return Err("header has no schema field".into()),
        }
        let version = header.u64_field("version").unwrap_or(0);
        if version != u64::from(manet_sim::telemetry::SCHEMA_VERSION) {
            return Err(format!(
                "unsupported trace version {version} (reader speaks {})",
                manet_sim::telemetry::SCHEMA_VERSION
            ));
        }
        let mut events = Vec::new();
        for (n, line) in lines {
            if line.is_empty() {
                continue;
            }
            events.push(Json::parse(line).ok_or_else(|| format!("line {}: invalid JSON", n + 1))?);
        }
        Ok(TraceFile { header, events })
    }
}

fn secs(ev: &Json) -> f64 {
    ev.u64_field("t_ns").unwrap_or(0) as f64 / 1e9
}

// ----- --explain-packet -------------------------------------------------

/// Reconstructs one data packet's lifecycle: the route discovery that
/// preceded its first transmission, then every per-hop forward, and the
/// final delivery or drop.
pub fn explain_packet(trace: &TraceFile, flow: u64, seq: u64) -> String {
    let is_ours = |ev: &Json| {
        matches!(ev.str_field("type"), Some("data_send" | "data_drop" | "delivered"))
            && ev.u64_field("flow") == Some(flow)
            && ev.u64_field("seq") == Some(seq)
    };
    let hops: Vec<&Json> = trace.events.iter().filter(|e| is_ours(e)).collect();
    let mut out = String::new();
    let Some(first) = hops.first() else {
        let _ = writeln!(out, "packet flow={flow} seq={seq}: no events in trace");
        return out;
    };
    let src = first.u64_field("node");
    let dst = match first.str_field("type") {
        Some("data_send") => first.u64_field("dst"),
        // A packet delivered or dropped without a data_send was handled
        // entirely at its origin node.
        _ => first.u64_field("node"),
    };
    let _ =
        writeln!(out, "packet flow={flow} seq={seq}: src={} dst={}", fmt_opt(src), fmt_opt(dst));

    // Route-discovery context: the destination's RREQ/RREP activity
    // before the first hop (the discovery this packet waited on).
    let first_idx = trace.events.iter().position(is_ours).unwrap_or(0);
    let discovery: Vec<&Json> = trace.events[..first_idx]
        .iter()
        .filter(|e| {
            matches!(e.str_field("type"), Some("rreq_start" | "rreq_relay" | "rrep_send"))
                && e.u64_field("dest") == dst
        })
        .collect();
    let shown = discovery.len().min(6);
    if discovery.len() > shown {
        let _ = writeln!(out, "  … {} earlier discovery events elided", discovery.len() - shown);
    }
    for ev in &discovery[discovery.len() - shown..] {
        let _ = writeln!(out, "  {}", fmt_event(ev));
    }

    for ev in &hops {
        let _ = writeln!(out, "  {}", fmt_event(ev));
    }
    let verdict = hops
        .iter()
        .rev()
        .find_map(|e| match e.str_field("type") {
            Some("delivered") => Some(format!(
                "DELIVERED at node {} ({:.6}s, {} hop(s))",
                fmt_opt(e.u64_field("node")),
                secs(e),
                hops.iter().filter(|h| h.str_field("type") == Some("data_send")).count()
            )),
            Some("data_drop") => Some(format!(
                "DROPPED at node {} ({:.6}s, reason {})",
                fmt_opt(e.u64_field("node")),
                secs(e),
                e.str_field("reason").unwrap_or("?")
            )),
            _ => None,
        })
        .unwrap_or_else(|| "IN FLIGHT at trace end".into());
    let _ = writeln!(out, "  verdict: {verdict}");
    out
}

fn fmt_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "?".into(), |v| v.to_string())
}

/// One-line rendering of any trace event: time, node, type, then the
/// remaining fields in wire order.
fn fmt_event(ev: &Json) -> String {
    let mut line = format!(
        "[{:>12.6}s] node {:>3} {}",
        secs(ev),
        fmt_opt(ev.u64_field("node")),
        ev.str_field("type").unwrap_or("?")
    );
    if let Json::Obj(fields) = ev {
        for (k, v) in fields {
            if matches!(k.as_str(), "i" | "t_ns" | "type" | "node") {
                continue;
            }
            let rendered = match v {
                Json::Null => "null".into(),
                Json::Bool(b) => b.to_string(),
                Json::Num(n) => {
                    if n.fract() == 0.0 {
                        format!("{}", *n as i64)
                    } else {
                        format!("{n}")
                    }
                }
                Json::Int(n) => n.to_string(),
                Json::Str(s) => s.clone(),
                Json::Arr(items) => format!("[{} items]", items.len()),
                Json::Obj(_) => fmt_snapshot(v),
            };
            let _ = write!(line, " {k}={rendered}");
        }
    }
    line
}

fn fmt_snapshot(v: &Json) -> String {
    format!(
        "(sn={},d={},fd={})",
        v.get("sn").map_or_else(
            || "?".into(),
            |s| match s {
                Json::Null => "-".into(),
                s => fmt_opt(s.as_u64()),
            }
        ),
        fmt_opt(v.u64_field("d")),
        fmt_opt(v.u64_field("fd"))
    )
}

// ----- --route-lifetimes ------------------------------------------------

/// Install→invalidate spans for one destination, per node, with a
/// lifetime (churn) histogram.
pub fn route_lifetimes(trace: &TraceFile, dst: u64) -> String {
    // node -> (installs, invalidates, open install time). Ordered map:
    // the totals below iterate it and the report must be byte-stable.
    let mut per_node: BTreeMap<u64, (u64, u64, Option<u64>)> = BTreeMap::new();
    let mut spans_ns: Vec<u64> = Vec::new();
    let mut end_ns: u64 = 0;
    for ev in &trace.events {
        let t = ev.u64_field("t_ns").unwrap_or(0);
        end_ns = end_ns.max(t);
        if ev.u64_field("dest") != Some(dst) {
            continue;
        }
        let Some(node) = ev.u64_field("node") else { continue };
        // Only table mutations open a row — discovery events also carry
        // a `dest` field and must not clutter the listing.
        match ev.str_field("type") {
            Some("route_install") => {
                let e = per_node.entry(node).or_default();
                e.0 += 1;
                // A reinstall while open refreshes the route; the span
                // keeps running from the original install.
                if e.2.is_none() {
                    e.2 = Some(t);
                }
            }
            Some("route_invalidate") => {
                let e = per_node.entry(node).or_default();
                e.1 += 1;
                if let Some(t0) = e.2.take() {
                    spans_ns.push(t.saturating_sub(t0));
                }
            }
            _ => {}
        }
    }
    let mut out = String::new();
    if per_node.is_empty() {
        let _ = writeln!(out, "route-lifetimes dest={dst}: no route events");
        return out;
    }
    // Spans still open at trace end run to the last event's timestamp.
    let mut open = 0u64;
    let nodes: Vec<u64> = per_node.keys().copied().collect();
    let _ = writeln!(out, "route-lifetimes dest={dst}:");
    let _ = writeln!(out, "  node  installs  invalidates  state");
    for n in nodes {
        let (ins, inv, open_at) = per_node[&n];
        if open_at.is_some() {
            open += 1;
        }
        let state = match open_at {
            Some(t0) => {
                spans_ns.push(end_ns.saturating_sub(t0));
                format!("held since {:.3}s", t0 as f64 / 1e9)
            }
            None => "closed".into(),
        };
        let _ = writeln!(out, "  {n:>4}  {ins:>8}  {inv:>11}  {state}");
    }
    spans_ns.sort_unstable();
    let total_installs: u64 = per_node.values().map(|v| v.0).sum();
    let total_invalidates: u64 = per_node.values().map(|v| v.1).sum();
    let _ = writeln!(
        out,
        "  totals: {total_installs} installs, {total_invalidates} invalidates, {open} still held"
    );
    if !spans_ns.is_empty() {
        let mean = spans_ns.iter().sum::<u64>() as f64 / spans_ns.len() as f64 / 1e9;
        let median = spans_ns[spans_ns.len() / 2] as f64 / 1e9;
        let _ = writeln!(out, "  lifetime: mean {mean:.3}s, median {median:.3}s");
        let _ = writeln!(out, "  churn histogram:");
        let buckets: [(&str, u64, u64); 5] = [
            ("< 100ms", 0, 100_000_000),
            ("100ms–1s", 100_000_000, 1_000_000_000),
            ("1–10s", 1_000_000_000, 10_000_000_000),
            ("10–60s", 10_000_000_000, 60_000_000_000),
            ("≥ 60s", 60_000_000_000, u64::MAX),
        ];
        for (label, lo, hi) in buckets {
            let count = spans_ns.iter().filter(|&&s| s >= lo && s < hi).count();
            let _ = writeln!(out, "    {label:>9}  {count:>6}  {}", "#".repeat(count.min(60)));
        }
    }
    out
}

// ----- --drops ----------------------------------------------------------

/// Data-drop breakdown: totals per reason plus a coarse timeline.
pub fn drops_report(trace: &TraceFile) -> String {
    let mut by_reason: Vec<(String, u64)> = Vec::new();
    let mut drops: Vec<(u64, String)> = Vec::new();
    let mut end_ns: u64 = 0;
    for ev in &trace.events {
        end_ns = end_ns.max(ev.u64_field("t_ns").unwrap_or(0));
        if ev.str_field("type") != Some("data_drop") {
            continue;
        }
        let reason = ev.str_field("reason").unwrap_or("?").to_string();
        match by_reason.iter_mut().find(|(r, _)| *r == reason) {
            Some((_, n)) => *n += 1,
            None => by_reason.push((reason.clone(), 1)),
        }
        drops.push((ev.u64_field("t_ns").unwrap_or(0), reason));
    }
    let mut out = String::new();
    if drops.is_empty() {
        let _ = writeln!(out, "drops: none recorded");
        return out;
    }
    by_reason.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let _ = writeln!(out, "drops: {} total", drops.len());
    for (reason, n) in &by_reason {
        let _ = writeln!(out, "  {reason:<20} {n:>6}");
    }
    // Ten-bucket timeline over the trace's span.
    const BUCKETS: usize = 10;
    let width = (end_ns / BUCKETS as u64).max(1);
    let mut counts = [0u64; BUCKETS];
    for (t, _) in &drops {
        let b = ((t / width) as usize).min(BUCKETS - 1);
        counts[b] += 1;
    }
    let _ = writeln!(out, "  timeline ({} buckets of {:.1}s):", BUCKETS, width as f64 / 1e9);
    for (b, n) in counts.iter().enumerate() {
        let _ = writeln!(
            out,
            "    [{:>5.1}s–{:>5.1}s) {n:>6}  {}",
            (b as u64 * width) as f64 / 1e9,
            ((b as u64 + 1) * width) as f64 / 1e9,
            "#".repeat((*n as usize).min(60))
        );
    }
    out
}

// ----- --loops ----------------------------------------------------------

/// Replays the route-mutation stream into per-destination successor
/// graphs and checks for cycles after every mutation — an independent
/// re-derivation of the simulator's online loop audit.
pub fn loops_check(trace: &TraceFile) -> String {
    // dest -> (node -> next)
    let mut succ: FxMap<u64, FxMap<u64, u64>> = FxMap::default();
    let mut mutations = 0u64;
    let mut loops: Vec<String> = Vec::new();
    for ev in &trace.events {
        let (Some(node), Some(dest)) = (ev.u64_field("node"), ev.u64_field("dest")) else {
            continue;
        };
        match ev.str_field("type") {
            Some("route_install") => {
                let Some(next) = ev.u64_field("next") else { continue };
                mutations += 1;
                let g = succ.entry(dest).or_default();
                g.insert(node, next);
                // Follow successors from the mutated node; a revisit
                // before reaching the destination is a loop.
                let mut visited = vec![node];
                let mut cur = node;
                while let Some(&n) = g.get(&cur) {
                    if n == dest {
                        break;
                    }
                    if visited.contains(&n) {
                        let cycle: Vec<String> =
                            visited.iter().skip_while(|&&v| v != n).map(u64::to_string).collect();
                        loops.push(format!(
                            "[{:>12.6}s] dest {dest}: cycle {} → {}",
                            secs(ev),
                            cycle.join(" → "),
                            n
                        ));
                        break;
                    }
                    visited.push(n);
                    cur = n;
                }
            }
            Some("route_invalidate") => {
                mutations += 1;
                if let Some(g) = succ.get_mut(&dest) {
                    g.remove(&node);
                }
            }
            _ => {}
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "loop check: {mutations} route mutations replayed, {} loop(s) found",
        loops.len()
    );
    // A source-routed protocol (DSR) legitimately caches paths whose
    // first hops point at each other — packets carry the full route,
    // so the next-hop replay over-approximates there. For hop-by-hop
    // protocols (LDR, OLSR) every cycle below is a real forwarding
    // loop the simulator's own audit should also have caught.
    const SHOWN: usize = 20;
    for l in loops.iter().take(SHOWN) {
        let _ = writeln!(out, "  {l}");
    }
    if loops.len() > SHOWN {
        let _ = writeln!(out, "  … {} more cycle(s) elided", loops.len() - SHOWN);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_values() {
        let v = Json::parse(r#"{"a":1,"b":null,"c":"x\ny","d":[1,2],"e":{"f":true},"g":-2.5}"#)
            .expect("parses");
        assert_eq!(v.u64_field("a"), Some(1));
        assert_eq!(v.get("b"), Some(&Json::Null));
        assert_eq!(v.str_field("c"), Some("x\ny"));
        assert_eq!(v.get("d"), Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])));
        assert_eq!(v.get("e").and_then(|e| e.get("f")), Some(&Json::Bool(true)));
        assert_eq!(v.get("g"), Some(&Json::Num(-2.5)));
        assert!(Json::parse("{\"a\":1}trailing").is_none());
        assert!(Json::parse("{").is_none());
    }

    #[test]
    fn uids_above_two_to_the_53_survive_the_trace_round_trip() {
        use manet_sim::packet::NodeId;
        use manet_sim::telemetry::{event_to_jsonl, trace_header};
        use manet_sim::time::SimTime;
        use manet_sim::trace::TraceEvent;
        // Node 49's first packet: 54 significant bits, which an `f64`
        // rounds to the even neighbour.
        let uid = (49u64 << 48) | 1;
        assert_ne!((uid as f64) as u64, uid);
        let doc = format!(
            "{}\n{}\n{}\n",
            trace_header(1, 50),
            event_to_jsonl(0, SimTime::ZERO, &TraceEvent::RxOk { node: NodeId(3), uid: Some(uid) }),
            event_to_jsonl(
                1,
                SimTime::ZERO,
                &TraceEvent::SeqnoReset { node: NodeId(3), old: u64::MAX - 1, new: u64::MAX }
            ),
        );
        let trace = TraceFile::parse(&doc).expect("parses");
        assert_eq!(trace.events[0].u64_field("uid"), Some(uid));
        assert_eq!(trace.events[1].u64_field("old"), Some(u64::MAX - 1));
        assert_eq!(trace.events[1].u64_field("new"), Some(u64::MAX));
        // Small integers are still the float the frozen readers match on.
        assert_eq!(trace.events[0].get("node"), Some(&Json::Num(3.0)));
        assert_eq!(Json::parse("9007199254740992"), Some(Json::Num(9_007_199_254_740_992.0)));
        assert_eq!(Json::parse("9007199254740993"), Some(Json::Int(9_007_199_254_740_993)));
        // Past u64 it is a float again, as before.
        assert_eq!(
            Json::parse("18446744073709551616"),
            Some(Json::Num(18_446_744_073_709_551_616.0))
        );
    }

    #[test]
    fn json_unicode_escapes_and_utf8() {
        let v = Json::parse(r#""café — ok""#).expect("parses");
        assert_eq!(v, Json::Str("café — ok".into()));
    }

    fn trace_of(lines: &[&str]) -> TraceFile {
        let mut text =
            String::from("{\"schema\":\"manet-trace\",\"version\":1,\"seed\":1,\"nodes\":4}\n");
        for l in lines {
            text.push_str(l);
            text.push('\n');
        }
        TraceFile::parse(&text).expect("valid trace")
    }

    #[test]
    fn rejects_wrong_schema_and_version() {
        assert!(TraceFile::parse("{\"schema\":\"other\",\"version\":1}\n").is_err());
        assert!(TraceFile::parse("{\"schema\":\"manet-trace\",\"version\":99}\n").is_err());
        assert!(TraceFile::parse("").is_err());
    }

    #[test]
    fn explain_packet_reports_delivery() {
        let t = trace_of(&[
            r#"{"i":0,"t_ns":1000000000,"type":"rreq_start","node":0,"dest":2,"rreqid":1,"ttl":5}"#,
            r#"{"i":1,"t_ns":1100000000,"type":"rrep_send","node":2,"dest":2,"to":1,"dist":0}"#,
            r#"{"i":2,"t_ns":1200000000,"type":"data_send","node":0,"next":1,"dst":2,"flow":3,"seq":7}"#,
            r#"{"i":3,"t_ns":1300000000,"type":"data_send","node":1,"next":2,"dst":2,"flow":3,"seq":7}"#,
            r#"{"i":4,"t_ns":1400000000,"type":"delivered","node":2,"flow":3,"seq":7}"#,
        ]);
        let s = explain_packet(&t, 3, 7);
        assert!(s.contains("src=0 dst=2"), "{s}");
        assert!(s.contains("rreq_start"), "{s}");
        assert!(s.contains("DELIVERED at node 2"), "{s}");
        assert!(s.contains("2 hop(s)"), "{s}");
        let missing = explain_packet(&t, 9, 9);
        assert!(missing.contains("no events"), "{missing}");
    }

    #[test]
    fn explain_packet_reports_drop() {
        let t = trace_of(&[
            r#"{"i":0,"t_ns":500000000,"type":"data_send","node":0,"next":1,"dst":2,"flow":1,"seq":1}"#,
            r#"{"i":1,"t_ns":600000000,"type":"data_drop","node":1,"flow":1,"seq":1,"reason":"no_route"}"#,
        ]);
        let s = explain_packet(&t, 1, 1);
        assert!(s.contains("DROPPED at node 1"), "{s}");
        assert!(s.contains("no_route"), "{s}");
    }

    #[test]
    fn route_lifetimes_spans_and_histogram() {
        let t = trace_of(&[
            r#"{"i":0,"t_ns":1000000000,"type":"route_install","node":0,"dest":5,"next":1,"before":null,"after":{"sn":1,"d":2,"fd":2}}"#,
            r#"{"i":1,"t_ns":3000000000,"type":"route_invalidate","node":0,"dest":5,"sn":1,"cause":"link_failure"}"#,
            r#"{"i":2,"t_ns":4000000000,"type":"route_install","node":1,"dest":5,"next":2,"before":null,"after":{"sn":1,"d":1,"fd":1}}"#,
        ]);
        let s = route_lifetimes(&t, 5);
        assert!(s.contains("2 installs, 1 invalidates, 1 still held"), "{s}");
        assert!(s.contains("1–10s"), "{s}");
        assert!(route_lifetimes(&t, 99).contains("no route events"));
    }

    #[test]
    fn drops_report_counts_reasons() {
        let t = trace_of(&[
            r#"{"i":0,"t_ns":1000000000,"type":"data_drop","node":1,"flow":1,"seq":1,"reason":"no_route"}"#,
            r#"{"i":1,"t_ns":2000000000,"type":"data_drop","node":1,"flow":1,"seq":2,"reason":"no_route"}"#,
            r#"{"i":2,"t_ns":3000000000,"type":"data_drop","node":2,"flow":2,"seq":1,"reason":"ttl_expired"}"#,
        ]);
        let s = drops_report(&t);
        assert!(s.contains("3 total"), "{s}");
        assert!(s.contains("no_route") && s.contains("ttl_expired"), "{s}");
        let empty = trace_of(&[]);
        assert!(drops_report(&empty).contains("none recorded"));
    }

    #[test]
    fn loops_check_finds_two_cycle() {
        let t = trace_of(&[
            r#"{"i":0,"t_ns":1000000000,"type":"route_install","node":0,"dest":5,"next":1,"before":null,"after":{"sn":1,"d":2,"fd":2}}"#,
            r#"{"i":1,"t_ns":2000000000,"type":"route_install","node":1,"dest":5,"next":0,"before":null,"after":{"sn":1,"d":3,"fd":3}}"#,
        ]);
        let s = loops_check(&t);
        assert!(s.contains("1 loop(s) found"), "{s}");
        assert!(s.contains("dest 5"), "{s}");
    }

    #[test]
    fn loops_check_clean_chain_and_invalidate() {
        let t = trace_of(&[
            r#"{"i":0,"t_ns":1000000000,"type":"route_install","node":0,"dest":5,"next":1,"before":null,"after":{"sn":1,"d":2,"fd":2}}"#,
            r#"{"i":1,"t_ns":2000000000,"type":"route_install","node":1,"dest":5,"next":5,"before":null,"after":{"sn":1,"d":1,"fd":1}}"#,
            r#"{"i":2,"t_ns":3000000000,"type":"route_invalidate","node":1,"dest":5,"sn":1,"cause":"route_error"}"#,
        ]);
        let s = loops_check(&t);
        assert!(s.contains("3 route mutations"), "{s}");
        assert!(s.contains("0 loop(s) found"), "{s}");
    }
}
