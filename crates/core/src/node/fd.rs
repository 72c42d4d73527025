//! The Failure Detector: one timer per monitored peer, however many groups
//! monitor it, over the monitors in the groups' rows. Each row keeps its
//! group's trust and horizon; the operating point (η, δ) its checks follow
//! is its QoS class's, once per peer in the node's peer table. The timer
//! only suspects: (η, δ) move when the peer's ALIVE datagrams arrive
//! ([`ServiceNode::fd_class_moved`]), never on a walk.

use sle_fd::{FdParams, TuningPolicy, Wake};
use sle_sim::actor::{NodeId, TimerTag};
use sle_sim::time::SimInstant;

use super::{take_batch, ServiceContext, ServiceNode, FD_KIND};
use crate::group::GroupState;
use crate::messages::{ServiceMessage, ACCUSATION_WIRE_SIZE};
use crate::obs::NodeCount;
use crate::process::GroupId;

/// A peer's detector timer state.
#[derive(Debug, Default)]
pub(super) struct PeerFd {
    /// When the peer's detector timer is armed, if it is.
    pub(super) armed: Option<SimInstant>,
    /// What the peer's monitors need next, as of the last walk. `None` once
    /// a monitor of the peer was created, reset or removed, an ALIVE
    /// datagram was applied, or a class of the peer moved (η, δ), since.
    /// Nothing else moves a monitor or its class's operating point: (η, δ)
    /// only move on an arrival of the peer's, and every check of the peer's
    /// monitors is in its walk.
    pub(super) wake: Option<Wake>,
}

/// The failure-detector timer of `peer`: one per monitored peer, however
/// many groups monitor it.
fn fd_tag(peer: NodeId) -> TimerTag {
    TimerTag(FD_KIND << 32 | peer.0 as u64)
}

impl ServiceNode {
    /// Arms `peer`'s detector timer (peer slot `pslot`) at `at`, unless it
    /// already fires no later. Heartbeats and stamps only push horizons
    /// out, so a timer left early fires into a cheap re-arm from the wake.
    fn arm_fd_timer(
        &mut self,
        peer: NodeId,
        pslot: usize,
        at: SimInstant,
        ctx: &mut ServiceContext,
    ) {
        let entry = &mut self.peers[pslot].fd;
        if at == SimInstant::FAR_FUTURE || entry.armed.is_some_and(|armed| armed <= at) {
            return;
        }
        entry.armed = Some(at);
        ctx.set_timer_at(fd_tag(peer), at);
    }

    /// Arms `peer`'s detector timer no later than its monitor's deadline in
    /// `group`.
    pub(super) fn arm_fd_deadline(
        &mut self,
        peer: NodeId,
        pslot: usize,
        group: GroupId,
        ctx: &mut ServiceContext,
    ) {
        let monitor = (self.groups.get(group)).and_then(|s| s.rows.monitor(peer));
        if let Some(at) = monitor.and_then(|m| m.next_deadline(&self.peers)) {
            self.arm_fd_timer(peer, pslot, at, ctx);
        }
    }

    /// `group` just started monitoring `peer` afresh (created, or reset for
    /// a new incarnation) in its row.
    pub(super) fn fd_monitor_added(
        &mut self,
        peer: NodeId,
        group: GroupId,
        ctx: &mut ServiceContext,
    ) {
        let pslot = self.peers.intern(peer);
        self.peers[pslot].fd.wake = None;
        self.arm_fd_deadline(peer, pslot, group, ctx);
    }

    /// `peer`'s detector timer. While the peer's stamp keeps every monitor
    /// of it ahead of `now`, the fire re-arms from the cached wake and
    /// touches no group. Otherwise it walks the groups with a row for the
    /// peer, checks the row's monitor, acts on each suspicion, and caches
    /// the wake the checks leave. The walk's accusations go to the peer
    /// together, one ACCUSE per budget's worth.
    pub(super) fn handle_fd_timer(&mut self, peer: NodeId, ctx: &mut ServiceContext) {
        let now = ctx.now();
        let Some(pslot) = self.peers.find(peer) else {
            return;
        };
        self.counts[NodeCount::FdFires].inc();
        self.peers[pslot].fd.armed = None;
        let stamp = self.peers.stamp_of(pslot);
        if let Some(wake) = self.peers[pslot].fd.wake {
            if wake.at(stamp) > now {
                debug_assert!(
                    self.fd_wake_holds(peer, pslot, wake),
                    "stale wake of {peer}"
                );
                self.arm_fd_timer(peer, pslot, wake.at(stamp), ctx);
                return;
            }
        }
        self.counts[NodeCount::FdWalks].inc();
        debug_assert!(self.row_index_holds(peer, pslot), "stale index of {peer}");
        debug_assert!(self.points_hold(peer, pslot), "stale classes of {peer}");
        let mut wake = Wake::NEVER;
        let mut accusations = Vec::new();
        let groups = std::mem::take(&mut self.peers[pslot].groups);
        for &group in &groups {
            let Some(state) = self.groups.get_mut(group) else {
                continue;
            };
            let Some(row) = state.rows.get_mut(peer) else {
                continue;
            };
            let Some(monitor) = &mut row.monitor else {
                continue;
            };
            let suspected = monitor.check(&mut self.peers, now).is_some();
            wake = wake.merge(monitor.wake(&self.peers));
            if suspected {
                self.alive_epoch += 1;
                if let (Some(obs), Some(instruments)) = (&self.obs, &state.obs) {
                    // Detection latency T_D: silence since the suspected
                    // peer's last heartbeat or gossip (or its restart).
                    let silent_for = now.saturating_since(self.peers[pslot].heard(row));
                    obs.on_detection(instruments, silent_for);
                }
                // Accused at the epoch of the payload it last sent, if any.
                let last = (row.member.as_ref()).and_then(|m| m.payload.as_deref().copied());
                state.elector.reevaluate(state.rows.trusted());
                let epoch = last.and_then(|last| state.elector.accusation(&last));
                if let Some(epoch) = epoch {
                    if let Some(obs) = &self.obs {
                        obs.on_accusation(group, peer, now);
                    }
                    accusations.push((group, epoch));
                }
                self.check_leader(group, ctx);
            }
        }
        let entry = &mut self.peers[pslot];
        entry.groups = groups;
        entry.fd.wake = Some(wake);
        self.arm_fd_timer(peer, pslot, wake.at(stamp), ctx);
        // `groups` is ascending, so each list is too. A peer suspected in
        // more groups than one list's budget holds gets several.
        while !accusations.is_empty() {
            let accusations = take_batch(&mut accusations, |_| ACCUSATION_WIRE_SIZE);
            ctx.send(peer, ServiceMessage::Accuse { accusations });
        }
    }

    /// An arrival from the peer in slot `pslot` (a `repeat` of what its
    /// rows hold or not) moved a class of it. The class folded its stamp in
    /// first, so the armed timer is still early, but the cached wake priced
    /// later stamps at the old δ. Adaptive groups' grace moves with (η, δ).
    pub(super) fn fd_class_moved(&mut self, pslot: usize, repeat: bool, ctx: &mut ServiceContext) {
        self.counts[NodeCount::FdReconfigurations].inc();
        if repeat {
            self.counts[NodeCount::FdMovesOnRepeats].inc();
        }
        self.peers[pslot].fd.wake = None;
        for group in self.peers[pslot].groups.clone() {
            let state = self.groups.get(group);
            if state.is_some_and(|state| state.fd.policy() == TuningPolicy::Adaptive) {
                self.check_leader(group, ctx);
            }
        }
    }

    /// What a quiet fire of `peer`'s detector timer relies on beside the
    /// index: the cached `wake` is the one a walk would leave now, rebuilt
    /// from every monitor of the peer. Asserted in debug builds.
    fn fd_wake_holds(&self, peer: NodeId, pslot: usize, wake: Wake) -> bool {
        let rebuilt = (self.groups.iter())
            .filter_map(|state| state.rows.monitor(peer))
            .map(|monitor| monitor.wake(&self.peers))
            .fold(Wake::NEVER, Wake::merge);
        self.row_index_holds(peer, pslot) && rebuilt == wake
    }

    /// What every check of `peer`'s monitors relies on: each names the
    /// peer's slot `pslot` and the operating point of its group's own
    /// class, and the slot keeps one point per class. Asserted in debug
    /// builds.
    fn points_hold(&self, peer: NodeId, pslot: usize) -> bool {
        let own = |state: &GroupState| {
            let (qos, policy) = (state.fd.qos(), state.fd.policy());
            let monitor = state.rows.monitor(peer);
            monitor.is_none_or(|m| m.slot() == pslot && m.is_of(&self.peers, &qos, policy))
        };
        let classes: Vec<_> = self.peers.classes(pslot).collect();
        let distinct = (1..classes.len()).all(|i| !classes[..i].contains(&classes[i]));
        self.groups.iter().all(own) && distinct
    }

    /// The failure-detector operating parameters currently used towards
    /// `peer` in `group` (observability hook; also used by the experiment
    /// harness to verify adaptation).
    pub fn fd_params_of(&self, group: GroupId, peer: NodeId) -> Option<FdParams> {
        Some(
            self.groups
                .get(group)?
                .rows
                .monitor(peer)?
                .params(&self.peers),
        )
    }
}
