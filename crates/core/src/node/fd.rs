//! The Failure Detector: one timer per monitored peer, however many groups
//! monitor it, over the per-group [`sle_fd::GroupDetector`]s.

use sle_election::LeaderElector;
use sle_fd::{FdParams, Transition, TuningPolicy, Wake};
use sle_sim::actor::{NodeId, TimerTag};
use sle_sim::time::SimInstant;

use super::{ServiceContext, ServiceNode, FD_KIND, MAX_BATCH_BYTES};
use crate::messages::{ServiceMessage, ACCUSATION_WIRE_SIZE};
use crate::obs::NodeCount;
use crate::process::GroupId;

/// A peer's detector timer state.
#[derive(Debug, Default)]
pub(super) struct PeerFd {
    /// The groups whose failure detector monitors the peer, ascending: what
    /// a walk of the peer's detector timer visits.
    groups: Vec<GroupId>,
    /// When the peer's detector timer is armed, if it is.
    pub(super) armed: Option<SimInstant>,
    /// What the peer's monitors need next, as of the last walk. `None` once
    /// a monitor of the peer was created, reset or removed, or a batch was
    /// applied, since. Nothing else moves a monitor: (η, δ) only move in a
    /// check, and every check of the peer's monitors is in its walk.
    pub(super) wake: Option<Wake>,
}

impl PeerFd {
    /// `group`'s detector monitors the peer from now on.
    fn index(&mut self, group: GroupId) {
        if let Err(i) = self.groups.binary_search(&group) {
            self.groups.insert(i, group);
        }
        self.wake = None;
    }

    /// `group`'s detector no longer monitors the peer.
    pub(super) fn unindex(&mut self, group: GroupId) {
        if let Ok(i) = self.groups.binary_search(&group) {
            self.groups.remove(i);
        }
        self.wake = None;
    }
}

/// The most `(group, epoch)` entries one ACCUSE carries: a peer suspected
/// in more groups in one walk gets several.
const MAX_ACCUSATIONS: usize = MAX_BATCH_BYTES / ACCUSATION_WIRE_SIZE;

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
        let deadline = (self.groups.get(group)).and_then(|s| s.fd.deadline_of(&self.peers, peer));
        if let Some(at) = deadline {
            self.arm_fd_timer(peer, pslot, at, ctx);
        }
    }

    /// `group`'s detector just started monitoring `peer` afresh (created,
    /// or reset for a new incarnation).
    pub(super) fn fd_monitor_added(
        &mut self,
        peer: NodeId,
        group: GroupId,
        ctx: &mut ServiceContext,
    ) {
        let pslot = self.peers.intern(peer);
        self.peers[pslot].fd.index(group);
        self.arm_fd_deadline(peer, pslot, group, ctx);
    }

    /// `peer`'s detector timer. While the peer's stamp keeps every monitor
    /// of it ahead of `now` and none is due to re-derive (η, δ), the fire
    /// re-arms from the cached wake and touches no group. Otherwise it walks
    /// the groups monitoring the peer, checks that one monitor in each, acts
    /// on what changed, and caches the wake the checks leave. The walk's
    /// accusations go to the peer together, one ACCUSE per budget's worth.
    pub(super) fn handle_fd_timer(&mut self, peer: NodeId, ctx: &mut ServiceContext) {
        let now = ctx.now();
        let Some(pslot) = self.peers.find(peer) else {
            return;
        };
        self.counts[NodeCount::FdFires].inc();
        self.peers[pslot].fd.armed = None;
        let stamp = self.peers.stamp_of(pslot);
        if let Some(wake) = self.peers[pslot].fd.wake {
            if wake.quiet(stamp, now) {
                let at = wake.at(stamp);
                debug_assert!(self.fd_wake_holds(peer, pslot, at), "late wake of {peer}");
                self.arm_fd_timer(peer, pslot, at, ctx);
                return;
            }
        }
        self.counts[NodeCount::FdWalks].inc();
        debug_assert!(self.fd_index_holds(peer, pslot), "stale index of {peer}");
        let mut wake = Wake::NEVER;
        let mut accusations = Vec::new();
        let groups = std::mem::take(&mut self.peers[pslot].fd.groups);
        for &group in &groups {
            let Some(state) = self.groups.get_mut(group) else {
                continue;
            };
            let Some(check) = state.fd.check_peer(&mut self.peers, peer, now) else {
                continue;
            };
            wake = wake.merge(check.wake);
            if check.transition == Some(Transition::BecameSuspected) {
                // The revival must be noticed: no repeat may skip it.
                self.peers[pslot].alive.resync = true;
                self.alive_epoch += 1;
                if let Some(obs) = &state.obs {
                    // Detection latency T_D: silence since the suspected
                    // peer's last heartbeat or gossip.
                    let silent_for = (state.members.get(peer))
                        .map(|m| now.saturating_since(self.peers[pslot].heard(group, m)))
                        .unwrap_or_default();
                    obs.on_detection(silent_for);
                }
                if let Some(epoch) = state.elector.on_suspect(peer, now) {
                    if let Some(obs) = &self.obs {
                        obs.on_accusation(group, peer, now);
                    }
                    accusations.push((group, epoch));
                }
            }
            // Adaptive tuning moves the self-election grace with (η, δ).
            let regraced = check.retuned && state.fd.policy() == TuningPolicy::Adaptive;
            if check.transition.is_some() || regraced {
                self.check_leader(group, ctx);
            }
        }
        let entry = &mut self.peers[pslot].fd;
        entry.groups = groups;
        entry.wake = Some(wake);
        self.arm_fd_timer(peer, pslot, wake.at(stamp), ctx);
        self.release_stale_batch(peer, pslot);
        // `groups` is ascending, so each list is too.
        while !accusations.is_empty() {
            let rest = accusations.split_off(accusations.len().min(MAX_ACCUSATIONS));
            ctx.send(peer, ServiceMessage::Accuse { accusations });
            accusations = rest;
        }
    }

    /// What every fire of `peer`'s detector timer (peer slot `pslot`)
    /// relies on: the peer's index names exactly the groups whose monitor
    /// rows name its slot. Asserted in debug builds.
    fn fd_index_holds(&self, peer: NodeId, pslot: usize) -> bool {
        let indexed = &self.peers[pslot].fd.groups;
        self.groups.iter().all(|state| {
            let named = state.fd.slot_of(peer) == Some(pslot);
            named == indexed.binary_search(&state.group).is_ok()
        })
    }

    /// What a quiet fire of `peer`'s detector timer relies on beside the
    /// index: none of the peer's monitors is due before `at`. Asserted in
    /// debug builds.
    fn fd_wake_holds(&self, peer: NodeId, pslot: usize, at: SimInstant) -> bool {
        self.fd_index_holds(peer, pslot)
            && (self.groups.iter())
                .all(|state| (state.fd.deadline_of(&self.peers, peer)).is_none_or(|due| due >= at))
    }

    /// The failure-detector operating parameters currently used towards
    /// `peer` in `group` (observability hook; also used by the experiment
    /// harness to verify adaptation).
    pub fn fd_params_of(&self, group: GroupId, peer: NodeId) -> Option<FdParams> {
        self.groups.get(group)?.fd.params(peer)
    }
}
