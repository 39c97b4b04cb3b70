//! Corruption-workload hardening: wire decoding must be total and
//! undecodable control frames must surface as `Malformed` drops.
//!
//! Two layers of defence are exercised here. First, every paper
//! protocol is fed truncated and bit-mutated control frames of every
//! [`ControlKind`] directly through `handle_control` — the old
//! unchecked `get_u16`-style readers in `ldr::messages` panicked on
//! short reads, so completing at all is the regression check, and the
//! queued [`Action::DropMalformed`] proves the loss is *recorded*
//! rather than silently swallowed. Second, corruption-ppm fault plans
//! (hand-built so every link is impaired, plus the generated
//! crash/partition mix) replay deterministically over full trials for
//! all four protocols without a panic.

use ldr_bench::runner::{run_once_faulted, trial_fault_plan};
use ldr_bench::scenario::{Protocol, Scenario};
use manet_sim::faults::{FaultAction, FaultPlan};
use manet_sim::packet::{ControlKind, ControlPacket, NodeId};
use manet_sim::protocol::{Action, Ctx};
use manet_sim::rng::SimRng;
use manet_sim::time::SimTime;

/// Drives one protocol instance's `handle_control` with the given
/// bytes for every claimed message kind, returning the actions queued.
fn feed_all_kinds(protocol: Protocol, bytes: &[u8]) -> Vec<Action> {
    let mut factory = protocol.factory();
    let mut proto = factory(NodeId(0), 8);
    let mut rng = SimRng::stream(11, "corruption-test");
    let mut actions = Vec::new();
    for kind in ControlKind::ALL {
        let mut ctx = Ctx::new(SimTime::from_secs(1), NodeId(0), 8, &mut rng, &mut actions);
        let ctrl = ControlPacket { kind, bytes: bytes.to_vec() };
        proto.handle_control(&mut ctx, NodeId(1), &ctrl, true);
    }
    actions
}

#[test]
fn truncated_frames_are_counted_as_malformed_drops() {
    for protocol in Protocol::PAPER_SET {
        // A one-byte frame fails every decoder's length check (and
        // panicked inside the old LDR readers when the length guard
        // was missing). Each kind the protocol decodes must answer
        // with exactly one recorded malformed drop, and nothing else.
        let actions = feed_all_kinds(protocol, &[0u8]);
        let drops = actions.iter().filter(|a| matches!(a, Action::DropMalformed { .. })).count();
        assert_eq!(
            drops,
            actions.len(),
            "{}: truncated frames caused non-drop actions",
            protocol.name()
        );
        assert!(drops >= 2, "{}: decodes fewer than two message kinds", protocol.name());
    }
}

#[test]
fn mutated_frames_never_panic_any_protocol() {
    // Systematic corruption sweep: truncations of every length up to
    // the largest wire layout, and deterministic pseudo-random buffers
    // (some of which decode "successfully" into garbage — also fine,
    // the property under test is totality, not rejection).
    let mut rng = SimRng::stream(17, "corruption-bytes");
    let mut buffers: Vec<Vec<u8>> = (0..48usize).map(|len| vec![0xAB; len]).collect();
    for len in [1usize, 3, 7, 15, 20, 28, 36, 40, 64] {
        for type_byte in 0u8..6 {
            let mut b: Vec<u8> = (0..len).map(|_| (rng.below(256)) as u8).collect();
            if !b.is_empty() {
                b[0] = type_byte;
            }
            buffers.push(b);
        }
    }
    for protocol in Protocol::PAPER_SET {
        for bytes in &buffers {
            // Completing without a panic is the assertion.
            let _ = feed_all_kinds(protocol, bytes);
        }
    }
}

/// A fault schedule that impairs every link with a heavy corruption
/// rate from the first simulated second, layered over the generated
/// crash/partition mix so replayed control frames and mid-flight
/// corruption interact.
fn corruption_heavy_plan(scenario: &Scenario, seed: u64) -> FaultPlan {
    let mut entries: Vec<_> = trial_fault_plan(scenario, seed, 2).entries().to_vec();
    let n = scenario.n_nodes as u16;
    for a in 0..n {
        for b in (a + 1)..n {
            entries.push((
                SimTime::from_secs(1),
                FaultAction::LinkImpair {
                    a: NodeId(a),
                    b: NodeId(b),
                    loss_ppm: 40_000,
                    corrupt_ppm: 350_000,
                },
            ));
        }
    }
    FaultPlan::new(entries)
}

#[test]
fn corruption_ppm_fault_plans_replay_without_panics() {
    let scenario = Scenario {
        n_nodes: 15,
        terrain: (700.0, 300.0),
        duration_secs: 25,
        trials: 1,
        seed_base: 300,
        audit: true,
        ..Scenario::n50(3, 0)
    };
    for protocol in Protocol::PAPER_SET {
        let plan = corruption_heavy_plan(&scenario, 301);
        let a = run_once_faulted(protocol, &scenario, 301, Some(plan.clone()));
        let b = run_once_faulted(protocol, &scenario, 301, Some(plan));
        assert!(a.faults_injected > 0, "{}: plan injected nothing", protocol.name());
        assert!(a.collisions > 0, "{}: corruption never corrupted a frame", protocol.name());
        assert_eq!(a, b, "{}: corrupted run is not replayable", protocol.name());
    }
}
