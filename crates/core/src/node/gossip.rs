//! Group Maintenance: HELLO gossip, the membership it maintains, explicit
//! leaves and membership expiry.

use std::sync::Arc;

use sle_fd::PeerMonitor;
use sle_sim::actor::NodeId;
use sle_sim::time::{SimDuration, SimInstant};

use super::{next_tick, PeerEntry, ServiceContext, ServiceNode, HELLO_TIMER};
use crate::group::{GroupState, PeerRow};
use crate::messages::{GroupAnnouncement, HelloList, ServiceMessage};
use crate::obs::NodeCount;
use crate::process::{GroupId, ProcessId};

/// A peer's Group Maintenance state.
#[derive(Debug, Default)]
pub(super) struct PeerGossip {
    /// The version of the peer's full list (of its incarnation) last applied.
    pub(super) applied: Option<u64>,
    /// The applied list no longer covers what this node should know (a local
    /// group created, a member expired or left since): pull at any version.
    pub(super) resync: bool,
    /// When the peer's latest current HELLO arrived: a digest touches no
    /// group state, it vouches here for every member `listed_at` `applied`.
    pub(super) heard: SimInstant,
    /// When the peer's rows can first expire, as of the last walk. `None`
    /// once a membership was created or removed, or a stamp stopped
    /// vouching for one (a list moved `applied` or a member's `listed_at`,
    /// an ALIVE datagram was applied), since.
    pub(super) wake: Option<MemberWake>,
}

impl PeerGossip {
    /// Whether the peer's list of its current life is applied and covers
    /// what this node should know: no pull is pending.
    pub(super) fn is_current(&self) -> bool {
        self.applied.is_some() && !self.resync
    }
}

/// When a peer's rows can first expire, as a function of the peer's two
/// stamps. Per vouch class — no stamp, the digest only, the ALIVE datagram
/// only, both — it holds the earliest own `last_heard` of the peer's rows
/// in that class. A row is heard at the latest of its own account and the
/// stamps vouching for it, so the earliest of a class is its floor raised
/// to its stamps. Stamps and `last_heard` only move
/// forward, and whatever moves a row between classes drops the wake, so
/// the instant it gives never runs ahead of any row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct MemberWake([SimInstant; 4]);

impl MemberWake {
    const NEVER: MemberWake = MemberWake([SimInstant::FAR_FUTURE; 4]);

    /// The wake of rows all heard at `now` on their own account: a
    /// restarted peer's, which no stamp vouches for.
    pub(super) fn heard_at(now: SimInstant) -> MemberWake {
        let mut wake = MemberWake::NEVER;
        wake.note((false, false), now);
        wake
    }

    /// Notes a row heard at `own` on its own account, vouched for by the
    /// digest and the ALIVE datagram as `(hello, alive)` says.
    fn note(&mut self, (hello, alive): (bool, bool), own: SimInstant) {
        let floor = &mut self.0[usize::from(hello) | usize::from(alive) << 1];
        *floor = (*floor).min(own);
    }

    /// The earliest any of the rows is heard at, given the stamps.
    fn heard(&self, hello: SimInstant, alive: SimInstant) -> SimInstant {
        let [none, by_hello, by_alive, by_both] = self.0;
        none.min(by_hello.max(hello))
            .min(by_alive.max(alive))
            .min(by_both.max(hello).max(alive))
    }
}

impl PeerEntry {
    /// Which of the peer's stamps vouch for its `row`: `(the digest — the
    /// applied list names the group, the ALIVE datagram — the row's monitor
    /// is vouched for)`.
    fn vouches(&self, row: &PeerRow) -> (bool, bool) {
        let listed_at = row.member.as_ref().and_then(|member| member.listed_at);
        let hello = listed_at.is_some() && listed_at == self.gossip.applied;
        let alive = row.monitor.as_ref().is_some_and(PeerMonitor::is_vouched);
        (hello, alive)
    }

    /// When the peer's `row` was last heard from: on its own account or by
    /// a stamp vouching for it, whichever is latest.
    pub(super) fn heard(&self, row: &PeerRow) -> SimInstant {
        let (hello, alive) = self.vouches(row);
        let mut heard = row.last_heard;
        if hello {
            heard = heard.max(self.gossip.heard);
        }
        if alive {
            heard = heard.max(self.alive.heard);
        }
        heard
    }

    /// Whether none of the peer's rows can be quiet past `timeout` at `now`:
    /// it has none, or its cached wake says so.
    fn member_quiet(&self, now: SimInstant, timeout: SimDuration) -> bool {
        let quiet = |wake: MemberWake| {
            now.saturating_since(wake.heard(self.gossip.heard, self.alive.heard)) <= timeout
        };
        self.groups.is_empty() || self.gossip.wake.is_some_and(quiet)
    }
}

/// What `me` announces about `state`'s group in its HELLO lists.
pub(super) fn announcement(me: NodeId, state: &GroupState) -> GroupAnnouncement {
    GroupAnnouncement {
        group: state.group,
        processes: state
            .local_processes
            .iter()
            .map(|&(local, candidate)| (ProcessId::new(me, local), candidate))
            .collect(),
    }
}

impl ServiceNode {
    /// The full announcement list at the current version: built on first
    /// use and shared by every later send until a local join or leave.
    pub(super) fn full_list(&mut self) -> Arc<[GroupAnnouncement]> {
        let me = self.config.node;
        let groups = &self.groups;
        let build = || groups.iter().map(|s| announcement(me, s)).collect();
        let list = Arc::clone(self.hello_list.get_or_insert_with(&build));
        debug_assert!(
            *list == *build(),
            "stale HELLO list at version {}",
            self.hello_version
        );
        list
    }

    /// The one HELLO send path: stamps a digest (`HelloList::Omitted`), pull,
    /// full list or partial with `(incarnation, version, now)` for each of `to`.
    pub(super) fn send_hello(
        &self,
        to: impl Iterator<Item = NodeId>,
        pull: bool,
        announcements: HelloList,
        ctx: &mut ServiceContext,
    ) {
        let shape = match &announcements {
            HelloList::Full(_) => Some(NodeCount::HelloFullSent),
            HelloList::Omitted if !pull => Some(NodeCount::HelloDigestSent),
            _ => None,
        };
        let msg = ServiceMessage::Hello {
            incarnation: self.incarnation,
            version: self.hello_version,
            sent_at: ctx.now(),
            pull,
            announcements,
        };
        let mut sent = 0;
        for peer in to {
            ctx.send(peer, msg.clone());
            sent += 1;
        }
        // Counted once per call: every count is an atomic add.
        if let Some(count) = shape {
            self.counts[count].add(sent);
        }
    }

    /// The one HELLO receive path. An unchanged digest — the steady state —
    /// is one peer-table lookup and one store; anything else is checked for
    /// staleness, applied if it carries a list, and answered if it must be.
    pub(super) fn handle_hello(
        &mut self,
        from: NodeId,
        incarnation: u64,
        version: u64,
        pull: bool,
        announcements: HelloList,
        ctx: &mut ServiceContext,
    ) {
        let slot = self.peers.intern(from);
        let peer = &mut self.peers[slot];
        let same_life = peer.incarnation == Some(incarnation);
        let mut behind =
            !(same_life && peer.gossip.applied == Some(version) && !peer.gossip.resync);
        if behind {
            // From a previous life or below the applied version: a delayed
            // or duplicated copy that would resurrect processes that left.
            if peer.incarnation.is_some_and(|known| incarnation < known)
                || (same_life && peer.gossip.applied.is_some_and(|applied| version < applied))
            {
                self.counts[NodeCount::HelloStaleIgnored].inc();
                return;
            }
            self.note_peer_incarnation(from, incarnation, ctx);
        }
        let heard = std::mem::replace(&mut self.peers[slot].gossip.heard, ctx.now());
        if let (true, Some(list)) = (behind, announcements.announcements()) {
            // Only a full list advances the applied version. A partial is
            // no reason to pull either: the sender's next digest is.
            let missing = self.lists_missing;
            if matches!(announcements, HelloList::Full(_)) {
                let moved = (self.peers[slot].gossip.applied).filter(|&at| at != version);
                self.set_list(from, slot, |list| {
                    (list.applied, list.resync) = (Some(version), false);
                });
                if let Some(unvouched) = moved {
                    self.fold_hello_vouch(from, slot, unvouched, heard);
                }
            }
            behind = false;
            self.apply_announcements(from, slot, version, list, ctx);
            // The last list to become current may complete open graces.
            if missing > 0 && self.lists_missing == 0 {
                self.recheck_open_graces(ctx);
            }
        }
        // A pull is answered with the full list; a node still behind pulls.
        if pull || behind {
            let list = if pull {
                HelloList::Full(self.full_list())
            } else {
                HelloList::Omitted
            };
            self.send_hello(std::iter::once(from), behind, list, ctx);
            // Counted here, not by `send_hello`: a start's pull is not one.
            if behind {
                self.counts[NodeCount::HelloPullsSent].inc();
            }
        }
    }

    /// Changes what is known of `peer`'s (peer slot `slot`) list with
    /// `change`, keeping `lists_missing` in step.
    pub(super) fn set_list(
        &mut self,
        peer: NodeId,
        slot: usize,
        change: impl FnOnce(&mut PeerGossip),
    ) {
        let list = &mut self.peers[slot].gossip;
        let was = list.is_current();
        change(list);
        if list.is_current() != was {
            let configured = self.config.remote_peers().filter(|&p| p == peer).count();
            if was {
                self.lists_missing += configured;
            } else {
                self.lists_missing -= configured;
            }
        }
    }

    /// `from`'s applied list (peer slot `slot`) moves on from version
    /// `unvouched`: every member row that version named keeps what the
    /// peer's digests bought it, up to `heard`, before they stop vouching for
    /// it — a row the new list does not name then ages out on its own
    /// account.
    fn fold_hello_vouch(&mut self, from: NodeId, slot: usize, unvouched: u64, heard: SimInstant) {
        let entry = &mut self.peers[slot];
        entry.gossip.wake = None;
        for &group in &entry.groups {
            let row = (self.groups.get_mut(group)).and_then(|s| s.rows.get_mut(from));
            let named = |row: &&mut PeerRow| {
                (row.member.as_ref()).is_some_and(|m| m.listed_at == Some(unvouched))
            };
            if let Some(row) = row.filter(named) {
                row.last_heard = row.last_heard.max(heard);
            }
        }
    }

    /// Applies `from`'s (peer slot `slot`) full or partial list to the groups
    /// this node is in, stamping every named membership with the list's
    /// version. Groups the list does not name are left alone: their
    /// memberships age out.
    fn apply_announcements(
        &mut self,
        from: NodeId,
        slot: usize,
        version: u64,
        announcements: &[GroupAnnouncement],
        ctx: &mut ServiceContext,
    ) {
        let now = ctx.now();
        for announcement in announcements {
            let group = announcement.group;
            let Some(state) = self.groups.get_mut(group) else {
                continue;
            };
            let row = state.rows.row(from, now);
            let (member, created) = row.heard_as_member(now);
            let peer = &mut self.peers[slot];
            if created {
                peer.member_added(group);
            }
            // Overtaken on the way by a later partial of the same life.
            if member.listed_at.is_some_and(|at| at > version) {
                continue;
            }
            // Being named refreshes the row outright, but whether the
            // peer's digests vouch for it may change with its version.
            if member.listed_at != Some(version) {
                peer.gossip.wake = None;
            }
            member.listed_at = Some(version);
            // Nothing derived changes when the list repeats what is known
            // and the advertised representative (if any) already matches
            // what this list would resolve to.
            let fallback_representative = announcement
                .processes
                .iter()
                .filter(|(_, candidate)| *candidate)
                .map(|(process, _)| *process)
                .min();
            // (A membership is of the peer's current life: a restart drops
            // every one of the previous.)
            if !created
                && *member.processes == *announcement.processes
                && (member.representative.is_none()
                    || member.representative == fallback_representative)
            {
                continue;
            }
            member.processes = announcement.processes.as_slice().into();
            // A HELLO's process list supersedes any representative a
            // previous ALIVE advertised; consumers fall back to the first
            // announced candidate (`MemberEntry::representative_process`).
            member.representative = None;
            let watch = member.has_candidate() && row.monitor.is_none();
            if watch {
                row.monitor = Some(state.fd.monitor(&mut self.peers, from, now));
            }
            self.alive_epoch += 1;
            if watch {
                self.fd_monitor_added(from, group, ctx);
            }
            self.check_leader(group, ctx);
        }
    }

    pub(super) fn handle_leave(
        &mut self,
        from: NodeId,
        group: GroupId,
        process: ProcessId,
        ctx: &mut ServiceContext,
    ) {
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        if let Some(member) = (state.rows.get_mut(from)).and_then(|row| row.member.as_mut()) {
            let listed = member.processes.len();
            member.processes.retain(|(p, _)| *p != process);
            if member.processes.is_empty() {
                self.forget_member(group, from);
            } else if member.processes.len() != listed {
                // Unversioned: a late copy may have undone a rejoin the
                // applied list already showed. Pull to find out.
                let slot = self.peers.intern(from);
                self.set_list(from, slot, |list| list.resync = true);
            }
        }
        self.check_leader(group, ctx);
    }

    /// The one way `peer`'s row in `group` goes, membership and monitor,
    /// before the caller re-checks the leader. Not `leave_group`'s, where
    /// the group goes as a whole, nor a restart's, which keeps the row with
    /// a *reset* monitor: sharing this path would make it branch on its
    /// caller.
    fn forget_member(&mut self, group: GroupId, peer: NodeId) {
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        let row = state.rows.remove(peer);
        state.elector.reevaluate(state.rows.trusted());
        self.alive_epoch += 1;
        let slot = self.peers.intern(peer);
        // Should a member come back at its applied list: pull, apply. (A
        // row a restart left without membership is no member of the
        // applied list, which is the new life's.)
        if row.is_some_and(|row| row.member.is_some()) {
            self.set_list(peer, slot, |list| list.resync = true);
        }
        let entry = &mut self.peers[slot];
        entry.unindex(group);
        (entry.fd.wake, entry.gossip.wake) = (None, None);
    }

    /// The HELLO tick: membership expiry, then the periodic digest. A peer
    /// whose cached member wake says none of its rows can be quiet past the
    /// membership timeout — the steady state — costs one comparison and
    /// touches no group. Any other peer's rows are walked: a row quiet on
    /// its own account folds the peer's stamps in, and expires if it is
    /// quiet by them too and is not a member the group's monitor trusts (a
    /// row a restart left without membership expires whatever its fresh
    /// monitor says); the survivors leave the new wake. Expiries are then
    /// applied group by group, in ascending group order.
    pub(super) fn handle_hello_timer(&mut self, ctx: &mut ServiceContext) {
        let now = ctx.now();
        let timeout = self.config.membership_timeout;
        let mut expired: Vec<(GroupId, NodeId)> = Vec::new();
        let mut walked: Vec<(usize, MemberWake)> = Vec::new();
        for (peer, pslot) in self.peers.iter() {
            let entry = &self.peers[pslot];
            if entry.member_quiet(now, timeout) {
                debug_assert!(
                    self.member_wake_holds(peer, pslot, now),
                    "late member wake of {peer}"
                );
                continue;
            }
            self.counts[NodeCount::HelloMemberWalks].inc();
            let mut wake = MemberWake::NEVER;
            for &group in &entry.groups {
                let Some(state) = self.groups.get_mut(group) else {
                    continue;
                };
                let Some(row) = state.rows.get_mut(peer) else {
                    continue;
                };
                if now.saturating_since(row.last_heard) > timeout {
                    // Quiet on its own account: fold the peer's digests and
                    // repeated batches in (here, once per timeout — not on
                    // every datagram).
                    row.last_heard = entry.heard(row);
                    let trusted = row.monitor.as_ref().is_some_and(PeerMonitor::is_trusted);
                    if now.saturating_since(row.last_heard) > timeout
                        && !(row.member.is_some() && trusted)
                    {
                        expired.push((group, peer));
                        continue;
                    }
                }
                wake.note(entry.vouches(row), row.last_heard);
            }
            walked.push((pslot, wake));
        }
        for (pslot, wake) in walked {
            self.peers[pslot].gossip.wake = Some(wake);
        }
        expired.sort_unstable();
        for expiring in expired.chunk_by(|a, b| a.0 == b.0) {
            let group = expiring[0].0;
            for &(_, peer) in expiring {
                self.forget_member(group, peer);
            }
            self.check_leader(group, ctx);
        }
        self.send_hello(self.config.remote_peers(), false, HelloList::Omitted, ctx);
        self.arm_hello_timer(ctx);
    }

    /// Arms the HELLO tick at the next instant of the node-wide HELLO grid,
    /// on start and on every tick: a late fire does not shift the phase.
    pub(super) fn arm_hello_timer(&self, ctx: &mut ServiceContext) {
        let at = next_tick(ctx.now(), self.config.hello_interval);
        ctx.set_timer_at(HELLO_TIMER, at);
    }

    /// What a quiet HELLO tick relies on for `peer` (peer slot `pslot`)
    /// beside the index: none of its rows is quiet past the membership
    /// timeout at `now`. Asserted in debug builds.
    fn member_wake_holds(&self, peer: NodeId, pslot: usize, now: SimInstant) -> bool {
        let entry = &self.peers[pslot];
        let timeout = self.config.membership_timeout;
        self.row_index_holds(peer, pslot)
            && self.groups.iter().all(|state| {
                let fresh = |row: &PeerRow| now.saturating_since(entry.heard(row)) <= timeout;
                state.rows.get(peer).is_none_or(fresh)
            })
    }
}
