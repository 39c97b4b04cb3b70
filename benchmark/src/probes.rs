//! Micro-probes of single layers, run once at the end of a traced run.
//! They sit outside every end-to-end number by design: each gives the
//! layer's own cost, the base a change to that layer is measured from.

use crate::spans::Tracer;
use crate::sys;
use crate::workloads::Scale;
use ldr::messages as ldr_msg;
use ldr::{RouteTable, SeqNo};
use ldr_bench::forensics::{drops_report, explain_packet, loops_check, route_lifetimes, TraceFile};
use ldr_bench::runner::build_world;
use ldr_bench::scenario::{Protocol, Scenario};
use ldr_bench::sweep::{parse_record, record_line, CellMetrics, CellRecord};
use ldr_bench::telemetry_export::render_run;
use ldr_bench::workpool;
use manet_baselines::{aodv, dsr, olsr};
use manet_sim::event::{Event, EventQueue};
use manet_sim::mobility::RandomWaypoint;
use manet_sim::packet::NodeId;
use manet_sim::rng::SimRng;
use manet_sim::spatial::NeighborGrid;
use manet_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Batches per probe; the median batch is reported.
const BATCHES: usize = 5;

/// Nanoseconds per call of `op`, the median over [`BATCHES`] batches of
/// `iters` calls each.
fn ns_per_call(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut batches: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let t = Instant::now();
            for i in 0..iters {
                op(b as u64 * iters + i);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[BATCHES / 2]
}

/// The classic hold model: pop the earliest event, push one a random
/// increment later, at a fixed queue depth.
fn event_hold_ns(depth: usize, iters: u64) -> f64 {
    let mut rng = SimRng::stream(depth as u64, "benchmark-event-hold");
    let mut q = EventQueue::new();
    for i in 0..depth {
        q.schedule(SimTime::from_nanos(rng.below(1_000_000)), Event::MacKick(NodeId(i as u16)));
    }
    ns_per_call(iters, |_| {
        let (t, e) = q.pop().expect("the queue holds `depth` events throughout");
        q.schedule(t + SimDuration::from_nanos(1 + rng.below(1_000_000)), e);
    })
}

/// Neighbour queries against random-waypoint nodes that never pause,
/// with the clock moving on 1 ms per query so epochs lapse and the grid
/// rebuilds as it does in a run. Returns `(ns per query, neighbours per
/// query)`.
fn spatial_query(sc: &Scenario, iters: u64) -> (f64, f64) {
    let mobility = RandomWaypoint::new(
        sc.n_nodes,
        sc.terrain(),
        SimDuration::ZERO,
        1.0,
        20.0,
        SimRng::stream(sc.n_nodes as u64, "benchmark-spatial"),
    );
    let mut grid = NeighborGrid::new(sc.n_nodes, sc.flavor.phy().range_m, 20.0);
    let mut out = Vec::new();
    let mut found = 0u64;
    let n = sc.n_nodes as u64;
    let ns = ns_per_call(iters, |i| {
        let now = SimTime::ZERO + SimDuration::from_millis(i);
        grid.query_into(&mobility, NodeId((i % n) as u16), now, &mut out);
        found += out.len() as u64;
    });
    (ns, found as f64 / (iters * BATCHES as u64) as f64)
}

fn ids(range: std::ops::Range<u16>) -> Vec<NodeId> {
    range.map(NodeId).collect()
}

/// Encode + decode round trips of the control messages each protocol
/// sends most.
fn codecs(n: u64, out: &mut BTreeMap<&'static str, f64>) {
    let rreq = ldr_msg::Rreq {
        dst: NodeId(7),
        sn_dst: Some(SeqNo::initial()),
        rreqid: 99,
        src: NodeId(3),
        sn_src: SeqNo::initial(),
        fd: 4,
        dist: 2,
        ttl: 5,
        t_bit: false,
        n_bit: false,
        d_bit: false,
    };
    out.insert(
        "ldr.rreq_codec_ns",
        ns_per_call(n, |i| {
            let m = ldr_msg::Rreq { rreqid: i as u32, ..rreq };
            black_box(ldr_msg::Rreq::decode(&black_box(m).encode()));
        }),
    );
    let rrep = ldr_msg::Rrep {
        dst: NodeId(7),
        sn_dst: SeqNo::initial(),
        src: NodeId(3),
        rreqid: 99,
        dist: 3,
        lifetime_ms: 3000,
        n_bit: false,
    };
    out.insert(
        "ldr.rrep_codec_ns",
        ns_per_call(n, |i| {
            let m = ldr_msg::Rrep { rreqid: i as u32, ..rrep };
            black_box(ldr_msg::Rrep::decode(&black_box(m).encode()));
        }),
    );
    let aodv_rreq = aodv::messages::Rreq {
        dst: NodeId(7),
        dst_seq: Some(12),
        rreqid: 99,
        src: NodeId(3),
        src_seq: 40,
        hop_count: 2,
        ttl: 5,
        dest_only: false,
    };
    out.insert(
        "aodv.rreq_codec_ns",
        ns_per_call(n, |i| {
            let m = aodv::messages::Rreq { rreqid: i as u32, ..aodv_rreq };
            black_box(aodv::messages::Rreq::decode(&black_box(m).encode()));
        }),
    );
    // A DSR request half-way across the 100-node terrain: 4 relays.
    let dsr_rreq =
        dsr::messages::Rreq { src: NodeId(3), dst: NodeId(7), id: 99, ttl: 5, route: ids(10..14) };
    out.insert(
        "dsr.rreq_codec_ns",
        ns_per_call(n, |_| {
            black_box(dsr::messages::Rreq::decode(&black_box(&dsr_rreq).encode()));
        }),
    );
    // OLSR at n100: about 12 neighbours, half of them MPR selectors.
    let tc = olsr::messages::Tc {
        originator: NodeId(3),
        ansn: 17,
        seq: 400,
        ttl: 255,
        selectors: ids(20..26),
    };
    out.insert(
        "olsr.tc_codec_ns",
        ns_per_call(n, |_| {
            black_box(olsr::messages::Tc::decode(&black_box(&tc).encode()));
        }),
    );
    let hello = olsr::messages::Hello { sym: ids(20..30), heard: ids(30..32), mpr: ids(20..23) };
    out.insert(
        "olsr.hello_codec_ns",
        ns_per_call(n, |_| {
            black_box(olsr::messages::Hello::decode(&black_box(&hello).encode()));
        }),
    );
}

/// `RouteTable::consider_advertisement` over a 100-destination table:
/// a mix of installs, refreshes and infeasible adverts.
fn route_advert_ns(iters: u64) -> f64 {
    let mut rng = SimRng::stream(0, "benchmark-route-advert");
    let mut table = RouteTable::new();
    ns_per_call(iters, |i| {
        let now = SimTime::from_nanos(i * 1_000_000);
        let expires = now + SimDuration::from_secs(3);
        let dest = NodeId(rng.below(100) as u16);
        let via = NodeId(100 + rng.below(8) as u16);
        let sn = SeqNo { epoch: 1, counter: (i / (iters / 10).max(1)) as u32 };
        let dist = 1 + rng.below(6) as u32;
        black_box(table.consider_advertisement(dest, sn, dist, via, now, expires));
    })
}

/// Journal/cache line round trip: `record_line` + `parse_record`.
fn record_codec_ns(iters: u64) -> f64 {
    let m = CellMetrics {
        delivery: 0.9375,
        latency_s: 0.0123,
        net_load: 1.75,
        rreq_load: 0.5,
        rrep_init: 0.6,
        rrep_recv: 1.1,
        mean_seqno: 2.0,
        rreq_tx: 12_345,
        data_originated: 11_668,
        data_delivered: 10_939,
        loop_violations: 0,
        invariant_checks: 0,
        invariant_breaches: 0,
        faults_injected: 0,
        node_restarts: 0,
        events: 539_747,
    };
    let key = "00112233445566778899aabbccddeeff";
    ns_per_call(iters, |i| {
        let rec = CellRecord::Done(CellMetrics { rreq_tx: i, ..m.clone() });
        black_box(parse_record(&record_line(key, "n50-f10-p0/LDR/L0/s1000", &rec)));
    })
}

/// Microseconds the pool spends per job when the jobs do nothing.
fn dispatch_us_per_job(threads: usize) -> f64 {
    const JOBS: usize = 10_000;
    let t = Instant::now();
    let jobs: Vec<_> = (0..JOBS).map(|i| move || i).collect();
    let (results, _) = workpool::run_jobs(threads, jobs);
    black_box(results);
    t.elapsed().as_secs_f64() * 1e6 / JOBS as f64
}

/// One LDR trace parsed and queried. Returns `(MB parsed per second,
/// resident bytes per trace byte, milliseconds for the four queries)`.
fn forensics(scale: Scale, tracer: &Tracer, parent: Option<usize>) -> (f64, f64, f64) {
    let sc = Scenario { duration_secs: scale.sim_secs, trials: 1, ..Scenario::n50(10, 0) };
    let trace = render_run(Protocol::Ldr, &sc, 0, None).trace;
    let rss0 = sys::rss_bytes();
    let t = Instant::now();
    let parsed = tracer.scope("forensics.parse", parent, None, |_| TraceFile::parse(&trace));
    let parse_s = t.elapsed().as_secs_f64();
    let rss = (sys::rss_bytes() - rss0).max(0.0);
    let Ok(file) = parsed else { return (0.0, 0.0, 0.0) };
    let t = Instant::now();
    tracer.scope("forensics.queries", parent, None, |_| {
        black_box(drops_report(&file));
        black_box(loops_check(&file));
        black_box(route_lifetimes(&file, 0));
        black_box(explain_packet(&file, 0, 0));
    });
    let query_ms = t.elapsed().as_secs_f64() * 1e3;
    (trace.len() as f64 / 1e6 / parse_s, rss / trace.len() as f64, query_ms)
}

/// ROADMAP item 2's keep-or-delete number: the sequential kernel's wall
/// time over the `workers = 2` kernel's, on the LDR n100-f30 cell of
/// seed 0. Returns `(speed-up, parallel windows)`; zeros on one core,
/// where the ratio would say nothing.
fn parallel_speedup(scale: Scale, tracer: &Tracer, parent: Option<usize>) -> (f64, f64) {
    if workpool::host_cores() < 2 {
        return (0.0, 0.0);
    }
    let kernel = |workers: usize| {
        let sc =
            Scenario { duration_secs: scale.sim_secs, trials: 1, workers, ..Scenario::n100(30, 0) };
        let mut world = build_world(Protocol::Ldr, &sc, 0, None);
        let until = SimTime::ZERO + SimDuration::from_secs(sc.duration_secs);
        let t = Instant::now();
        tracer.scope("world.run_until", parent, Some(workers), |_| world.run_until(until));
        (t.elapsed().as_secs_f64(), world.parallel_windows())
    };
    let (seq_s, _) = kernel(1);
    let (par_s, windows) = kernel(2);
    (seq_s / par_s, windows as f64)
}

/// Runs every probe under a `probes` span and returns its metrics.
pub fn run_all(
    scale: Scale,
    threads: usize,
    tracer: &Tracer,
    parent: Option<usize>,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    // A smoke run only has to name every metric, not measure it well.
    let iters = if scale.smoke { 8_000 } else { 400_000 };
    tracer.scope("probes", parent, None, |span| {
        tracer.scope("probe.event", span, None, |_| {
            out.insert("event.hold_ns_d256", event_hold_ns(256, iters));
            out.insert("event.hold_ns_d4096", event_hold_ns(4096, iters));
        });
        tracer.scope("probe.spatial", span, None, |_| {
            let t = scale.sim_secs;
            let n50 = Scenario { duration_secs: t, ..Scenario::n50(10, 0) };
            let n100 = Scenario { duration_secs: t, ..Scenario::n100(30, 0) };
            out.insert("spatial.query_ns_n50", spatial_query(&n50, iters / 4).0);
            let (ns, found) = spatial_query(&n100, iters / 4);
            out.insert("spatial.query_ns_n100", ns);
            out.insert("spatial.neighbors_per_query_n100", found);
        });
        tracer.scope("probe.codecs", span, None, |_| {
            codecs(iters / 2, &mut out);
            out.insert("ldr.route_advert_ns", route_advert_ns(iters));
            out.insert("sweep.record_codec_ns", record_codec_ns(iters / 40));
        });
        tracer.scope("probe.workpool", span, None, |_| {
            out.insert("workpool.dispatch_us_per_job", dispatch_us_per_job(threads));
        });
        tracer.scope("probe.forensics", span, None, |s| {
            let (mb_per_s, rss_ratio, query_ms) = forensics(scale, tracer, s);
            out.insert("forensics.parse_mb_per_s", mb_per_s);
            out.insert("forensics.rss_bytes_per_trace_byte", rss_ratio);
            out.insert("forensics.query_ms", query_ms);
        });
        tracer.scope("probe.parallel", span, None, |s| {
            let (speedup, windows) = parallel_speedup(scale, tracer, s);
            out.insert("parallel.speedup_w2", speedup);
            out.insert("parallel.windows_w2", windows);
        });
    });
    out
}
