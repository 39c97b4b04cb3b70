//! The fault executor: applies the entries of the installed
//! [`FaultPlan`](crate::faults::FaultPlan) and is the one place a node
//! crashes and restarts. A child module of [`super`], so these
//! `impl World` blocks see the private fields.

use super::medium::{FramePayload, RecentCache};
use super::World;
use crate::event::Event;
use crate::faults::FaultAction;
use crate::mac::MacState;
use crate::packet::NodeId;
use crate::time::SimTime;
use crate::trace::{FaultKind, TraceEvent};

impl World {
    /// Applies the fault plan's entry `idx` (scheduled at world
    /// construction; see [`crate::faults`]).
    pub(super) fn on_fault(&mut self, idx: u32) {
        let Some(action) = self.faults.as_ref().and_then(|fs| fs.action(idx as usize)).cloned()
        else {
            return;
        };
        self.metrics.faults_injected += 1;
        match action {
            FaultAction::CrashRestart { node, downtime } => {
                let crashed = self.faults.as_mut().is_some_and(|fs| fs.set_down(node));
                if !crashed {
                    return; // already down: a double crash is inert
                }
                self.emit(TraceEvent::FaultInjected { node, kind: FaultKind::Crash });
                self.crash_node(node);
                self.fel.schedule(self.now + downtime, Event::FaultRestart { node });
            }
            FaultAction::LinkDown { a, b } => {
                if let Some(fs) = self.faults.as_mut() {
                    fs.sever_link(a, b);
                }
                self.emit(TraceEvent::FaultInjected { node: a, kind: FaultKind::LinkDown });
            }
            FaultAction::LinkUp { a, b } => {
                if let Some(fs) = self.faults.as_mut() {
                    fs.restore_link(a, b);
                }
                self.emit(TraceEvent::FaultInjected { node: a, kind: FaultKind::LinkUp });
            }
            FaultAction::Partition { group } => {
                if let Some(fs) = self.faults.as_mut() {
                    fs.set_partition(&group);
                }
                let node = group.first().copied().unwrap_or(NodeId(0));
                self.emit(TraceEvent::FaultInjected { node, kind: FaultKind::Partition });
            }
            FaultAction::Heal => {
                if let Some(fs) = self.faults.as_mut() {
                    fs.heal();
                }
                self.emit(TraceEvent::FaultInjected { node: NodeId(0), kind: FaultKind::Heal });
            }
            FaultAction::LinkImpair { a, b, loss_ppm, corrupt_ppm } => {
                if let Some(fs) = self.faults.as_mut() {
                    fs.set_impairment(a, b, loss_ppm, corrupt_ppm);
                }
                self.emit(TraceEvent::FaultInjected { node: a, kind: FaultKind::Impair });
            }
            FaultAction::ReplayLastControl { node } => {
                if self.node_down(node) {
                    return;
                }
                let (mut frame, tx_id, uid) = {
                    let slot = &mut self.nodes[node.index()];
                    let Some(frame) = slot.last_control.clone() else {
                        return; // nothing sent yet
                    };
                    slot.uid_ctr += 1;
                    let uid = (u64::from(node.0) << 48) | slot.uid_ctr;
                    slot.tx_ctr += 1;
                    let tx_id = (u64::from(node.0) << 48) | slot.tx_ctr;
                    (frame, tx_id, uid)
                };
                // Fresh uid so MAC-level duplicate suppression does not
                // swallow the replay; protocols must reject the stale
                // content on their own (LDR: NDC, AODV: seen-cache). It
                // goes out once, past the MAC queue: not retriable.
                frame.retriable = false;
                if let FramePayload::Packet(p) = &mut frame.payload {
                    p.uid = uid;
                }
                let dur = match &frame.payload {
                    FramePayload::Packet(p) => self.cfg.phy.tx_duration(p.wire_size()),
                    FramePayload::Ack { .. } => self.cfg.phy.ack_duration(),
                };
                self.emit(TraceEvent::FaultInjected { node, kind: FaultKind::Replay });
                self.propagate(node, frame, tx_id, dur);
            }
        }
    }

    /// Silences a crashing node: wipes its MAC queue and state, its
    /// in-progress receptions and its duplicate cache, and truncates
    /// any frame it was mid-transmission on (receivers see a corrupted
    /// tail).
    fn crash_node(&mut self, node: NodeId) {
        let (phy, n) = (self.cfg.phy.clone(), self.nodes.len());
        {
            let slot = &mut self.nodes[node.index()];
            slot.mac.queue.clear();
            slot.mac.state = MacState::Idle;
            slot.mac.ack_busy_until = SimTime::ZERO;
            slot.mac.reset_cw(&phy);
            slot.recent = RecentCache::new(n);
        }
        self.clear_receptions(node);
        self.corrupt_frames_from(node);
    }

    /// Brings a crashed node back up with total state loss and runs the
    /// protocol's restart callback.
    pub(super) fn on_fault_restart(&mut self, node: NodeId) {
        let restarted = self.faults.as_mut().is_some_and(|fs| fs.set_up(node));
        if !restarted {
            return;
        }
        self.metrics.node_restarts += 1;
        let phy = self.cfg.phy.clone();
        {
            let slot = &mut self.nodes[node.index()];
            slot.mac.state = MacState::Idle;
            slot.mac.reset_cw(&phy);
        }
        self.clear_receptions(node);
        // Emit the restart before the callback runs: the invariant
        // auditor drops the lost incarnation's fd baselines on this
        // event, so the rebuilt table is judged as a fresh start.
        self.emit(TraceEvent::NodeRestarted { node });
        self.call_protocol(node, |p, ctx| p.handle_reboot(ctx));
    }
}
