//! Benchmark-side spans: one record per call into a layer, kept in
//! memory and written out when the run ends.
//!
//! Spans are recorded here, around the calls, and not inside the
//! program. The one in-program source is the kernel profiler's
//! snapshot, a public read, whose phases hang under the
//! `world.run_until` span as [`Phase`] records.

use manet_sim::telemetry::json_escape;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The span that caused this one; `None` for the root.
    pub parent: Option<usize>,
    /// The cell the call served, shared by all spans of one cell.
    pub cell: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A kernel-profiler phase of one `world.run_until` call: self time and
/// entry count, no interval of its own.
#[derive(Clone, Debug)]
pub struct Phase {
    pub parent: usize,
    pub name: String,
    pub self_ns: u64,
    pub count: u64,
}

#[derive(Default)]
struct Records {
    spans: Vec<Span>,
    phases: Vec<Phase>,
}

/// The span recorder. Switched off (an untraced run) it reads no clock
/// and records nothing.
pub struct Tracer {
    on: bool,
    t0: Instant,
    records: Mutex<Records>,
}

/// Closes its span when dropped, so a span whose body panics (a failed
/// cell) still gets its end.
struct Closer<'a> {
    tracer: &'a Tracer,
    id: usize,
}

impl Drop for Closer<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        // Never panic in drop: a poisoned lock loses the span's end.
        if let Ok(mut r) = self.tracer.records.lock() {
            r.spans[self.id].end_ns = end;
        }
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), records: Mutex::new(Records::default()) }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Records> {
        self.records.lock().expect("no span is recorded while a recorder panics")
    }

    /// Runs `body` inside a span and hands it the span's id, the
    /// `parent` of whatever it calls. Switched off, it only runs `body`.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        cell: Option<usize>,
        body: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        if !self.on {
            return body(None);
        }
        let id = {
            let mut r = self.lock();
            r.spans.push(Span { name, parent, cell, start_ns: 0, end_ns: 0 });
            r.spans.len() - 1
        };
        // Read the clock after the bookkeeping, so it is charged to the
        // parent's self time, not to this span.
        let start = self.now_ns();
        self.lock().spans[id].start_ns = start;
        let _closer = Closer { tracer: self, id };
        body(Some(id))
    }

    /// Hangs a kernel-profiler phase under `parent`.
    pub fn phase(&self, parent: Option<usize>, name: String, self_ns: u64, count: u64) {
        if let Some(parent) = parent {
            self.lock().phases.push(Phase { parent, name, self_ns, count });
        }
    }

    /// Durations, in seconds, of every closed span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Writes `header` and then one line per span (with its self time)
    /// and per phase.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let r = self.lock();
        let selfs = self_times(&r.spans);
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        let mut out = String::new();
        out.push_str(header);
        out.push('\n');
        for (id, (s, self_ns)) in r.spans.iter().zip(selfs).enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"cell\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                json_escape(s.name),
                opt(s.parent),
                opt(s.cell),
                s.start_ns,
                s.end_ns,
            );
        }
        for p in &r.phases {
            let _ = writeln!(
                out,
                "{{\"phase\":\"{}\",\"parent\":{},\"self_ns\":{},\"count\":{}}}",
                json_escape(&p.name),
                p.parent,
                p.self_ns,
                p.count,
            );
        }
        std::fs::write(path, out)
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its child spans cover. Children of one parent may overlap (the
/// pool runs cells on two threads), so the covered part is their union.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            children[p].push((s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered)
        })
        .collect()
}
