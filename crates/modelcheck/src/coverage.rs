//! Coverage-guided exploration.
//!
//! The exhaustive DFS ([`crate::checker`]) owns small curated
//! scenarios; this module trades exhaustiveness for reach. An
//! exploration runs a fixed number of random walks, and at every step
//! it *applies every enabled event* before committing to one — so each
//! step is a one-transition frontier check (any violation on any
//! enabled transition is caught, exactly as the DFS would catch it) —
//! then commits to a successor chosen by **fingerprint novelty**: if
//! any candidate lands in a state the coverage map has not seen, the
//! walk goes there. The FNV-128 fingerprints from
//! [`NetState::fingerprint`] make "seen" canonical, so novelty means
//! genuinely new protocol state, not a reshuffled queue.
//!
//! Every random draw comes from one `SimRng` stream derived from the
//! exploration seed, and the coverage map is a `BTreeSet` — the whole
//! run, including the rendered report, is a pure function of
//! `(scenario, seed, budget)`. Budgets are states/steps/walks, never
//! wall-clock.
//!
//! When a walk survives its safety frontier, its end state is handed to
//! [`live::fair_complete`] for the liveness verdict; a stall shrinks
//! through the liveness oracle just as a safety violation shrinks
//! through the replay oracle. Exploration stops at the first finding —
//! the checker reports first breaches, not breach inventories.

use crate::checker::{check_transition, Violation};
use crate::live::{self, LiveVerdict};
use crate::net::{NetState, Scenario};
use crate::{shrink, Event};
use manet_sim::packet::NodeId;
use manet_sim::protocol::ProtocolModel;
use manet_sim::rng::SimRng;
use std::collections::BTreeSet;
use std::fmt;
use std::fmt::Write as _;

/// Exploration budget: all three axes are logical quantities, so a
/// budgeted run is reproducible on any machine.
#[derive(Clone, Copy, Debug)]
pub struct ExploreBudget {
    /// Number of guided walks from the initial state.
    pub walks: usize,
    /// Maximum events per walk.
    pub max_steps: usize,
    /// Maximum distinct fingerprints in the coverage map; the run
    /// winds down once the map is full.
    pub max_states: usize,
}

impl Default for ExploreBudget {
    fn default() -> Self {
        ExploreBudget { walks: 64, max_steps: 40, max_states: 20_000 }
    }
}

/// Coarse classification of a finding, used by expectation tables
/// (which classes may a protocol exhibit?) and report rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationClass {
    /// A per-destination successor graph contains a cycle.
    RoutingLoop,
    /// A feasible distance rose under an unchanged sequence number.
    FdRaised,
    /// A traced route admission violated NDC.
    NdcUnsound,
    /// Fair completion left the probe source without a route to a
    /// reachable destination.
    LivenessStall,
    /// Fair completion failed to quiesce within the step cap.
    Diverged,
}

impl fmt::Display for ViolationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationClass::RoutingLoop => "routing-loop",
            ViolationClass::FdRaised => "fd-raised",
            ViolationClass::NdcUnsound => "ndc-unsound",
            ViolationClass::LivenessStall => "liveness-stall",
            ViolationClass::Diverged => "diverged",
        };
        f.write_str(s)
    }
}

/// Classifies a safety violation.
pub fn classify(v: &Violation) -> ViolationClass {
    match v {
        Violation::RoutingLoop { .. } => ViolationClass::RoutingLoop,
        Violation::FdRaised { .. } => ViolationClass::FdRaised,
        Violation::NdcUnsound { .. } => ViolationClass::NdcUnsound,
    }
}

/// One finding: a classified, 1-minimal witness trace.
#[derive(Clone, Debug)]
pub struct Finding {
    /// What kind of breach this is.
    pub class: ViolationClass,
    /// The safety violation, when the class is a safety class
    /// (`None` for liveness findings).
    pub safety: Option<Violation>,
    /// Minimized event trace.
    pub events: Vec<Event>,
    /// Trace length as first found, before shrinking.
    pub raw_len: usize,
}

/// The result of one coverage-guided exploration.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// The explored scenario.
    pub scenario: Scenario,
    /// Protocol under test.
    pub protocol: &'static str,
    /// Exploration seed.
    pub seed: u64,
    /// Distinct fingerprints covered.
    pub states: usize,
    /// Transitions executed (every frontier probe counts).
    pub transitions: usize,
    /// Steps whose successor was chosen for novelty (vs. fallback
    /// random picks among already-covered states).
    pub novel_picks: usize,
    /// Walks actually run (exploration stops early on a finding or a
    /// full coverage map).
    pub walks_run: usize,
    /// The first finding, if any.
    pub finding: Option<Finding>,
}

/// Runs one coverage-guided exploration. Deterministic: the outcome is
/// a pure function of `(scenario, seed, budget)` (the factory must be
/// deterministic too, which all of [`crate::scenarios`]'s are).
pub fn explore<M: ProtocolModel>(
    scenario: &Scenario,
    factory: impl Fn(NodeId) -> M + Copy,
    seed: u64,
    budget: &ExploreBudget,
) -> Exploration {
    let mut rng = SimRng::stream(seed, "mc-explore");
    let init = NetState::init(scenario, factory);
    let mut coverage: BTreeSet<u128> = BTreeSet::new();
    coverage.insert(init.fingerprint());
    let mut transitions = 0usize;
    let mut novel_picks = 0usize;
    let mut walks_run = 0usize;
    let mut finding: Option<Finding> = None;

    'walks: for _ in 0..budget.walks {
        walks_run += 1;
        let mut state = init.clone();
        let mut trace: Vec<Event> = Vec::new();
        for _ in 0..budget.max_steps {
            // Frontier check: apply every enabled event. A violation on
            // *any* enabled transition is found, not just on the one
            // the walk happens to take.
            let mut candidates = Vec::new();
            for event in state.enumerate(scenario) {
                let Some(step) = state.apply(scenario, &event) else { continue };
                transitions += 1;
                if let Some(v) = check_transition(&state, &step.state, &step.traces) {
                    let mut t = trace.clone();
                    t.push(event);
                    let raw_len = t.len();
                    let (events, v) = shrink::shrink(scenario, factory, t, v);
                    finding =
                        Some(Finding { class: classify(&v), safety: Some(v), events, raw_len });
                    break 'walks;
                }
                candidates.push((event, step));
            }
            if candidates.is_empty() {
                break;
            }
            // Commit to a novel successor when one exists; otherwise
            // wander among covered states (which still reshuffles the
            // prefix for later steps).
            let fps: Vec<u128> = candidates.iter().map(|(_, s)| s.state.fingerprint()).collect();
            let novel: Vec<usize> =
                (0..candidates.len()).filter(|&i| !coverage.contains(&fps[i])).collect();
            let pick = if novel.is_empty() {
                rng.below(candidates.len() as u64) as usize
            } else {
                novel_picks += 1;
                novel[rng.below(novel.len() as u64) as usize]
            };
            coverage.insert(fps[pick]);
            let (event, step) = candidates.swap_remove(pick);
            trace.push(event);
            state = step.state;
            if coverage.len() >= budget.max_states {
                break;
            }
        }
        // The walk's safety frontier was clean: ask the liveness
        // question about its end state.
        match live::fair_complete(scenario, state).0 {
            LiveVerdict::Stall { .. } => {
                let raw_len = trace.len();
                let events = live::shrink_stall(scenario, factory, trace);
                finding = Some(Finding {
                    class: ViolationClass::LivenessStall,
                    safety: None,
                    events,
                    raw_len,
                });
                break 'walks;
            }
            LiveVerdict::Diverged => {
                let raw_len = trace.len();
                finding = Some(Finding {
                    class: ViolationClass::Diverged,
                    safety: None,
                    events: trace,
                    raw_len,
                });
                break 'walks;
            }
            LiveVerdict::Pass | LiveVerdict::Vacuous => {}
        }
        if coverage.len() >= budget.max_states {
            break 'walks;
        }
    }

    Exploration {
        scenario: scenario.clone(),
        protocol: factory(NodeId(0)).name(),
        seed,
        states: coverage.len(),
        transitions,
        novel_picks,
        walks_run,
        finding,
    }
}

/// Renders the coverage report for a batch of explorations: a summary
/// table, then one detail block per finding. Pure function of its
/// inputs — pinned byte-for-byte by the determinism test and uploaded
/// as the CI artifact.
pub fn render_report(explorations: &[Exploration], budget: &ExploreBudget) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== modelcheck coverage report ==");
    let _ = writeln!(
        out,
        "budget: walks={} max_steps={} max_states={}",
        budget.walks, budget.max_steps, budget.max_states
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<26} {:<5} {:>6} {:>7} {:>11} {:>6} {:>6}  finding",
        "scenario", "proto", "seed", "states", "transitions", "novel", "walks"
    );
    for e in explorations {
        let verdict =
            e.finding.as_ref().map_or_else(|| "clean".to_string(), |f| f.class.to_string());
        let _ = writeln!(
            out,
            "{:<26} {:<5} {:>6} {:>7} {:>11} {:>6} {:>6}  {verdict}",
            e.scenario.name,
            e.protocol,
            e.seed,
            e.states,
            e.transitions,
            e.novel_picks,
            e.walks_run
        );
    }
    for e in explorations {
        let Some(f) = &e.finding else { continue };
        let _ = writeln!(out);
        let _ = writeln!(out, "-- finding: {} ({}) --", e.scenario.name, e.protocol);
        let _ = writeln!(out, "class: {}", f.class);
        if let Some(v) = &f.safety {
            let _ = writeln!(out, "violation: {v}");
        }
        let _ = writeln!(out, "trace ({} events, shrunk from {}):", f.events.len(), f.raw_len);
        for (i, ev) in f.events.iter().enumerate() {
            let _ = writeln!(out, "  {:>2}. {ev}", i + 1);
        }
    }
    out
}
