//! The model checker's half of the one reboot rule the simulator's
//! `tests/reboot.rs` holds `World` to: a restart ends the node's
//! incarnation, so no timer armed before it survives it. After k = 1, 2
//! and 4 [`Event::Restart`]s, a node's pending timers are exactly
//! those of a node that has only run `start`, for all four protocols.

use manet_sim::protocol::ProtocolModel;
use modelcheck::{scenarios, Event, NetState, Scenario};
use std::collections::BTreeSet;

/// A 3-node line whose end node 0 may originate towards node 2 and
/// restart `restarts` times.
fn line(restarts: u32) -> Scenario {
    Scenario {
        name: format!("reboot-x{restarts}"),
        n: 3,
        links: vec![(0, 1), (1, 2)],
        originations: vec![(0, 2)],
        toggles: vec![],
        max_expires: 0,
        max_bumps: 0,
        max_losses: 0,
        max_restarts: restarts,
        probe: None,
    }
}

fn timers_of<M>(s: &NetState<M>, node: u16) -> BTreeSet<(u16, u64)> {
    s.timers.iter().filter(|&&(n, _)| n == node).copied().collect()
}

/// Node 0 originates (a reactive protocol arms a discovery retry), then
/// restarts k times; after every restart its timer set is the one
/// `start` alone leaves.
fn restarts_leave_only_the_start_timers<M: ProtocolModel>(
    reactive: bool,
    factory: impl Fn(manet_sim::packet::NodeId) -> M + Copy,
) {
    for k in [1, 2, 4] {
        let sc = line(k);
        let init = NetState::init(&sc, factory);
        let started = timers_of(&init, 0);
        assert!(!started.is_empty(), "every protocol arms a timer in start");
        let mut s = init.apply(&sc, &Event::Originate { index: 0 }).expect("originate").state;
        if reactive {
            assert_ne!(timers_of(&s, 0), started, "the origination armed no retry");
        }
        for restart in 1..=k {
            s = s.apply(&sc, &Event::Restart { node: 0 }).expect("restart in budget").state;
            assert_eq!(timers_of(&s, 0), started, "after restart {restart} of {k}");
        }
        assert_eq!(s.restarts_left, 0);
    }
}

#[test]
fn ldr_restarts_leave_only_the_start_timers() {
    restarts_leave_only_the_start_timers(true, scenarios::ldr_factory());
}

#[test]
fn aodv_restarts_leave_only_the_start_timers() {
    restarts_leave_only_the_start_timers(true, scenarios::aodv_factory());
}

#[test]
fn dsr_restarts_leave_only_the_start_timers() {
    restarts_leave_only_the_start_timers(true, scenarios::dsr_factory());
}

#[test]
fn olsr_restarts_leave_only_the_start_timers() {
    restarts_leave_only_the_start_timers(false, scenarios::olsr_factory());
}
