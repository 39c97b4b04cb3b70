//! The four workloads and the metric names. `BENCHMARK.json` at the
//! repository root lists the same names (with bounds); the smoke tests
//! check the two agree in both directions.

use ldr_bench::runner::trial_seed;
use ldr_bench::scenario::{Protocol, Scenario};
use ldr_bench::sweep::CellSpec;
use manet_sim::rng::SimRng;

/// How much each cell simulates. The full scale is what every recorded
/// number uses; the smoke scale exists for the tests and is stamped
/// into its output so `compare` can refuse it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale {
    /// Simulated seconds per measured cell.
    pub sim_secs: u64,
    /// Simulated seconds of the warm-up cell run during set-up.
    pub warmup_secs: u64,
    pub smoke: bool,
}

impl Scale {
    pub const FULL: Scale = Scale { sim_secs: 100, warmup_secs: 25, smoke: false };
    pub const SMOKE: Scale = Scale { sim_secs: 10, warmup_secs: 2, smoke: true };
}

/// Fault-intensity level of the `traced-faults` cells.
const FAULT_LEVEL: u32 = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    PaperSweep,
    DenseReactive,
    OlsrProactive,
    TracedFaults,
}

/// One workload: a stream of *rounds*, each a short list of cells (a
/// cell is one deterministic trial). A run executes whole rounds, one
/// after the other, until its time is up; round `r` draws its scenarios
/// from seed `trial_seed(base, r)`, so a run averages over as many
/// independent scenarios as fit.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

/// Why each is on the scoreboard is recorded in `BENCHMARK.json` and in
/// the README.
pub const WORKLOADS: [Workload; 4] = [
    // The Table-1 grid through `sweep::run_sweep` on 2 threads: the only
    // workload where sweep, workpool, journal and cache do work.
    Workload { name: "paper-sweep", kind: Kind::PaperSweep },
    // MAC-saturated on-demand protocols: rx_end_batch, mac_kick, FEL.
    Workload { name: "dense-reactive", kind: Kind::DenseReactive },
    // OLSR, where protocol_callback is the largest kernel phase.
    Workload { name: "olsr-proactive", kind: Kind::OlsrProactive },
    // The same kernel with observability, faults and the auditor on.
    Workload { name: "traced-faults", kind: Kind::TracedFaults },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The seed base a run derives every cell seed from: a pure function of
/// `--seed`, spread out so that neighbouring `--seed` values share no
/// scenario.
pub fn seed_base(seed: u64) -> u64 {
    SimRng::stream(seed, "benchmark-seed-base").next_u64()
}

fn scenario(nodes: usize, flows: usize, pause: u64, sim_secs: u64) -> Scenario {
    let s = if nodes == 50 { Scenario::n50(flows, pause) } else { Scenario::n100(flows, pause) };
    Scenario { duration_secs: sim_secs, trials: 1, ..s }
}

fn cell(sc: Scenario, protocol: Protocol, seed: u64, fault_level: u32) -> CellSpec {
    CellSpec { scenario_name: sc.label(), scenario: sc, protocol, seed, fault_level }
}

impl Workload {
    /// Worker threads of the pool the workload's cells run on. Only
    /// `paper-sweep` is parallel, and never wider than the host.
    pub fn threads(&self) -> usize {
        match self.kind {
            Kind::PaperSweep => ldr_bench::workpool::host_cores().min(2),
            _ => 1,
        }
    }

    /// Whether cells run with the whole telemetry layer attached.
    pub fn telemetry(&self) -> bool {
        self.kind == Kind::TracedFaults
    }

    /// The cells of round `round`, in canonical order.
    pub fn round_cells(&self, base: u64, round: u32, scale: Scale) -> Vec<CellSpec> {
        let seed = trial_seed(base, round);
        let t = scale.sim_secs;
        match self.kind {
            Kind::PaperSweep => {
                let mut cells = Vec::new();
                for nodes in [50, 100] {
                    for flows in [10, 30] {
                        for pause in [0, 900] {
                            for protocol in Protocol::PAPER_SET {
                                cells.push(cell(
                                    scenario(nodes, flows, pause, t),
                                    protocol,
                                    seed,
                                    0,
                                ));
                            }
                        }
                    }
                }
                cells
            }
            Kind::DenseReactive => [Protocol::Ldr, Protocol::Aodv, Protocol::Dsr]
                .into_iter()
                .map(|p| cell(scenario(100, 30, 0, t), p, seed, 0))
                .collect(),
            Kind::OlsrProactive => [100, 50]
                .into_iter()
                .map(|n| cell(scenario(n, 10, 0, t), Protocol::Olsr, seed, 0))
                .collect(),
            Kind::TracedFaults => Protocol::PAPER_SET
                .into_iter()
                .map(|p| {
                    let sc = Scenario { audit: true, ..scenario(50, 10, 0, t) };
                    cell(sc, p, seed, FAULT_LEVEL)
                })
                .collect(),
        }
    }

    /// The cell set-up runs before anything is timed: the workload's
    /// costliest scenario, shortened. Its seed is fixed: set-up does the
    /// same work whatever `--seed` is, so `setup_s` compares across seeds.
    pub fn warmup_cell(&self, scale: Scale) -> CellSpec {
        let seed = 0;
        let t = scale.warmup_secs;
        match self.kind {
            Kind::PaperSweep | Kind::DenseReactive => {
                cell(scenario(100, 30, 0, t), Protocol::Ldr, seed, 0)
            }
            Kind::OlsrProactive => cell(scenario(100, 10, 0, t), Protocol::Olsr, seed, 0),
            Kind::TracedFaults => {
                let sc = Scenario { audit: true, ..scenario(50, 10, 0, t) };
                cell(sc, Protocol::Olsr, seed, FAULT_LEVEL)
            }
        }
    }
}

/// End-to-end metrics: `(name, unit)`. One value per workload, from the
/// untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("sim_pkts_per_wall_s", "pkt/s"),
    ("cpu_us_per_sim_pkt", "us/pkt"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, from the traced run. Layer names
/// are the repository's modules. A layer a workload does not exercise
/// reads 0 there.
pub const PER_LAYER: [(&str, &str); 78] = [
    ("sweep.fresh_s", "s"),
    ("sweep.memo_rerun_s", "s"),
    ("sweep.executed_cells", "count"),
    ("sweep.memo_hits", "count"),
    ("sweep.orchestration_overhead_frac", "ratio"),
    ("sweep.render_json_ms", "ms"),
    ("sweep.record_codec_ns", "ns"),
    ("workpool.utilisation", "ratio"),
    ("workpool.cell_s_max", "s"),
    ("workpool.dispatch_us_per_job", "us"),
    ("workpool.peak_live_workers", "count"),
    ("runner.build_world_us", "us"),
    ("runner.fault_plan_us", "us"),
    ("world.events", "count"),
    ("world.ns_per_event", "ns"),
    ("world.cell_ms_p50", "ms"),
    ("world.cell_ms_max", "ms"),
    ("world.fel_pop_ns_per_event", "ns"),
    ("world.fel_push_ns_per_event", "ns"),
    ("world.neighbor_grid_ns_per_event", "ns"),
    ("world.rx_end_batch_ns_per_event", "ns"),
    ("world.mac_kick_ns_per_event", "ns"),
    ("world.tx_end_ns_per_event", "ns"),
    ("world.ack_timeout_ns_per_event", "ns"),
    ("world.protocol_callback_ns_per_event", "ns"),
    ("world.trace_emit_ns_per_event", "ns"),
    ("world.telemetry_sample_ns_per_event", "ns"),
    ("world.other_ns_per_event", "ns"),
    ("world.mac_kicks", "count"),
    ("world.rx_batches", "count"),
    ("world.tx_ends", "count"),
    ("world.protocol_callbacks", "count"),
    ("world.trace_emits", "count"),
    ("world.kick_yield", "ratio"),
    ("world.fel_depth_p50", "count"),
    ("world.prof_attribution", "ratio"),
    ("world.profile_overhead_frac", "ratio"),
    ("pool.reuse_ratio", "ratio"),
    ("pool.allocs_per_event", "1/event"),
    ("pool.alloc_bytes_per_event", "B/event"),
    ("event.hold_ns_d256", "ns"),
    ("event.hold_ns_d4096", "ns"),
    ("spatial.query_ns_n50", "ns"),
    ("spatial.query_ns_n100", "ns"),
    ("spatial.neighbors_per_query_n100", "count"),
    ("parallel.speedup_w2", "ratio"),
    ("parallel.windows_w2", "count"),
    ("ldr.callback_ns", "ns"),
    ("ldr.rreq_codec_ns", "ns"),
    ("ldr.rrep_codec_ns", "ns"),
    ("ldr.route_advert_ns", "ns"),
    ("aodv.callback_ns", "ns"),
    ("aodv.rreq_codec_ns", "ns"),
    ("dsr.callback_ns", "ns"),
    ("dsr.rreq_codec_ns", "ns"),
    ("olsr.callback_ns", "ns"),
    ("olsr.tc_codec_ns", "ns"),
    ("olsr.hello_codec_ns", "ns"),
    ("telemetry.trace_lines", "count"),
    ("telemetry.trace_mb", "MB"),
    ("telemetry.trace_on_overhead_frac", "ratio"),
    ("telemetry.render_ns_per_line", "ns"),
    ("telemetry.series_render_ms", "ms"),
    ("forensics.parse_mb_per_s", "MB/s"),
    ("forensics.rss_bytes_per_trace_byte", "ratio"),
    ("forensics.query_ms", "ms"),
    ("faults.injected", "count"),
    ("faults.restarts", "count"),
    ("metrics.delivery_ratio", "ratio"),
    ("metrics.ldr_delivery_ratio", "ratio"),
    ("metrics.aodv_delivery_ratio", "ratio"),
    ("metrics.dsr_delivery_ratio", "ratio"),
    ("metrics.olsr_delivery_ratio", "ratio"),
    ("metrics.ldr_network_load", "ratio"),
    ("metrics.ldr_mean_latency_ms", "ms"),
    ("metrics.collisions", "count"),
    ("metrics.ifq_drops", "count"),
    ("metrics.mac_retry_failures", "count"),
];

/// Per-layer metrics that are simulated or counted, never timed, and
/// so must repeat exactly for one `--seed`: `selfcheck` demands it.
pub fn is_exact_layer_metric(name: &str) -> bool {
    name == "world.events" || name.starts_with("metrics.") || name.starts_with("faults.")
}
