//! The `manet-prof` reader: parses exported profiler JSONL (written by
//! [`crate::telemetry_export`] for a [`Scenario::profile`] run) back
//! into a [`ProfView`] and renders the attribution report `tracegrep
//! --prof` prints — top-K phases and the per-protocol cost table.
//!
//! [`Scenario::profile`]: crate::scenario::Scenario::profile

use crate::forensics::Json;
use manet_sim::prof::PROF_VERSION;
use std::fmt::Write as _;

/// A parsed profile of one run — everything the report renderer needs.
#[derive(Clone, Debug)]
pub struct ProfView {
    /// Protocol name from the header.
    pub protocol: String,
    /// Scenario label from the header.
    pub scenario: String,
    /// Deterministic counters, in document order (phase counts, pool
    /// hit/miss, `events_executed`).
    pub counts: Vec<(String, u64)>,
    /// Histograms: name → per-bucket counts (power-of-two buckets).
    pub hists: Vec<(String, Vec<u64>)>,
    /// Wall self-time per phase, nanoseconds.
    pub timings: Vec<(String, u64)>,
    /// Total measured kernel wall time (the `total` timing line).
    pub total_nanos: u64,
}

impl ProfView {
    /// Parses one `manet-prof` JSONL document of the version the
    /// profiler writes ([`PROF_VERSION`]).
    pub fn parse(doc: &str) -> Result<ProfView, String> {
        let mut lines = doc.lines();
        let head = lines.next().ok_or("empty prof document")?;
        let head = Json::parse(head).ok_or_else(|| format!("unparseable header: {head}"))?;
        if head.str_field("schema") != Some("manet-prof") {
            return Err(format!("not a manet-prof file (schema {:?})", head.str_field("schema")));
        }
        if head.u64_field("version") != Some(u64::from(PROF_VERSION)) {
            return Err(format!("unsupported manet-prof version {:?}", head.u64_field("version")));
        }
        let mut view = ProfView {
            protocol: head.str_field("protocol").unwrap_or("?").to_string(),
            scenario: head.str_field("scenario").unwrap_or("?").to_string(),
            counts: Vec::new(),
            hists: Vec::new(),
            timings: Vec::new(),
            total_nanos: 0,
        };
        for (lineno, line) in lines.enumerate() {
            let v = Json::parse(line)
                .ok_or_else(|| format!("line {}: unparseable: {line}", lineno + 2))?;
            let name =
                v.str_field("name").ok_or_else(|| format!("line {}: no name", lineno + 2))?;
            match v.str_field("sect") {
                Some("count") => {
                    let c = v.u64_field("count").unwrap_or(0);
                    view.counts.push((name.to_string(), c));
                }
                Some("hist") => {
                    let buckets = match v.get("buckets") {
                        Some(Json::Arr(items)) => {
                            items.iter().map(|b| b.as_u64().unwrap_or(0)).collect()
                        }
                        _ => Vec::new(),
                    };
                    view.hists.push((name.to_string(), buckets));
                }
                Some("timing") => {
                    let ns = v.u64_field("nanos").unwrap_or(0);
                    if name == "total" {
                        view.total_nanos = ns;
                    } else {
                        view.timings.push((name.to_string(), ns));
                    }
                }
                other => return Err(format!("line {}: unknown sect {other:?}", lineno + 2)),
            }
        }
        Ok(view)
    }

    /// A deterministic counter by name.
    pub fn count(&self, name: &str) -> u64 {
        self.counts.iter().find(|(n, _)| n == name).map_or(0, |(_, c)| *c)
    }

    /// A phase's wall self-time by name, nanoseconds.
    pub fn timing(&self, name: &str) -> u64 {
        self.timings.iter().find(|(n, _)| n == name).map_or(0, |(_, ns)| *ns)
    }

    /// Fraction of measured kernel wall time attributed to named
    /// phases (everything except the `kern_loop` bottom-frame
    /// residue); 1.0 when nothing was measured.
    pub fn attribution(&self) -> f64 {
        if self.total_nanos == 0 {
            1.0
        } else {
            let named = self.total_nanos - self.timing("kern_loop");
            named as f64 / self.total_nanos as f64
        }
    }

    /// Kernel events per wall second (0 when no time was measured).
    pub fn events_per_sec(&self) -> f64 {
        if self.total_nanos == 0 {
            0.0
        } else {
            self.count("events_executed") as f64 / (self.total_nanos as f64 / 1e9)
        }
    }

    /// The `timings` sorted descending, excluding zero phases.
    pub fn top_phases(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> =
            self.timings.iter().filter(|(_, ns)| *ns > 0).cloned().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }
}

fn pct(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * part as f64 / total as f64
    }
}

/// Renders the attribution report for a set of profiles: per-run
/// top-K phase tables and the per-protocol cost table.
pub fn render_report(views: &[ProfView], top_k: usize) -> String {
    let mut out = String::new();
    for v in views {
        let _ = writeln!(
            out,
            "== {} · {} ==  total {:.3} ms, attribution {:.2}%",
            v.protocol,
            v.scenario,
            v.total_nanos as f64 / 1e6,
            100.0 * v.attribution(),
        );
        let _ = writeln!(out, "{:<26} {:>12} {:>8} {:>14}", "phase", "self ns", "%", "count");
        for (name, ns) in v.top_phases().into_iter().take(top_k) {
            let _ = writeln!(
                out,
                "{:<26} {:>12} {:>7.2}% {:>14}",
                name,
                ns,
                pct(ns, v.total_nanos),
                v.count(&name),
            );
        }
        out.push('\n');
    }

    let _ = writeln!(out, "-- per-protocol cost --");
    let _ = writeln!(
        out,
        "{:<12} {:<14} {:>12} {:>11} {:>9} {:>12} {:>7}",
        "protocol", "scenario", "events", "wall ms", "ns/event", "events/s", "attr%"
    );
    for v in views {
        let events = v.count("events_executed");
        let ns_per_event = if events == 0 { 0.0 } else { v.total_nanos as f64 / events as f64 };
        let _ = writeln!(
            out,
            "{:<12} {:<14} {:>12} {:>11.3} {:>9.1} {:>12.0} {:>6.2}%",
            v.protocol,
            v.scenario,
            events,
            v.total_nanos as f64 / 1e6,
            ns_per_event,
            v.events_per_sec(),
            100.0 * v.attribution(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Protocol, Scenario};
    use crate::telemetry_export::render_run;

    fn profiled(protocol: Protocol) -> ProfView {
        let sc = Scenario { duration_secs: 12, profile: true, ..Scenario::n50(3, 0) };
        let doc = render_run(protocol, &sc, 5, None).prof.expect("profiled run renders prof");
        ProfView::parse(&doc).expect("export parses")
    }

    #[test]
    fn profiled_export_parses_and_self_times_sum_to_total() {
        let view = profiled(Protocol::Ldr);
        assert!(view.count("events_executed") > 0);
        assert!(view.total_nanos > 0, "a real run measures time");
        assert_eq!((view.protocol.as_str(), view.scenario.as_str()), ("LDR", "n50-f3-p0"));
        // Self times are exclusive, so the phase lines sum to total.
        let sum: u64 = view.timings.iter().map(|(_, ns)| ns).sum();
        assert_eq!(sum, view.total_nanos);
    }

    #[test]
    fn report_renders_all_sections() {
        let report = render_report(&[profiled(Protocol::Ldr), profiled(Protocol::Aodv)], 8);
        assert!(report.contains("-- per-protocol cost --"));
        assert!(report.contains("LDR"));
        assert!(report.contains("AODV"));
    }

    #[test]
    fn parse_rejects_foreign_documents() {
        assert!(ProfView::parse("").is_err());
        assert!(ProfView::parse("{\"schema\":\"manet-trace\",\"version\":1}").is_err());
        assert!(ProfView::parse("{\"schema\":\"manet-prof\",\"version\":1}").is_err());
        assert!(ProfView::parse("{\"schema\":\"manet-prof\",\"version\":3}").is_err());
    }
}
