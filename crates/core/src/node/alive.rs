//! The ALIVE stream, both directions: the per-node tick that batches every
//! group's heartbeats, and the receive path that feeds them to each group.

use sle_election::LeaderElector;
use sle_fd::Transition;
use sle_sim::actor::NodeId;
use sle_sim::time::{SimDuration, SimInstant};

use super::{next_tick, ServiceContext, ServiceNode, ALIVE_TIMER, MAX_BATCH_BYTES};
use crate::group::GroupState;
use crate::messages::{AliveHeader, GroupAlive, ServiceMessage};
use crate::obs::NodeCount;
use crate::process::{GroupId, ProcessId};

/// A peer's ALIVE stream state, both directions.
#[derive(Debug, Default)]
pub(super) struct PeerAlive {
    /// Next node-level ALIVE sequence number towards the peer: one
    /// heartbeat stream per peer link, whichever groups ride on it.
    ///
    /// Never reset: a receiver — even a freshly restarted one — may have
    /// already recorded a few of our high pre-reset sequence numbers, and
    /// a stream restarting at 0 then reads as catastrophic loss on its
    /// link estimator, cranking the requested heartbeat rate to the floor.
    seq: u64,
    /// The last ALIVE batch applied from the peer. A datagram repeating it
    /// touches no group state: it advances `heard` and the peer's freshness
    /// stamp in its table slot, which the monitors it vouches for read.
    pub(super) batch: Vec<GroupAlive>,
    /// Repeating `batch` could miss something (a suspicion to revive from,
    /// an entry of the peer created or removed, a local join or leave):
    /// apply the next batch whatever it says.
    pub(super) resync: bool,
    /// When the peer's latest ALIVE datagram arrived: it vouches for the
    /// member entry of every group `batch` lists.
    pub(super) heard: SimInstant,
}

/// One send grid of the cached ALIVE plan: groups that fan out together
/// (same due time, same interval), with what each destination gets.
#[derive(Debug, Clone, PartialEq, Default)]
pub(super) struct AliveGrid {
    due: SimInstant,
    interval: SimDuration,
    /// Slots of the grid's groups.
    groups: Vec<u32>,
    /// The grid's groups this node leads: lease renewal and, while a group
    /// holds no lease yet, the settle-delayed mint are time-driven for these
    /// alone.
    led: Vec<GroupId>,
    /// `(destination, its peer slot, entries in ascending group id)`, in
    /// ascending destination id.
    sends: Vec<(NodeId, u32, Vec<GroupAlive>)>,
}

impl ServiceNode {
    /// Re-arms the per-node ALIVE tick at the earliest due time across all
    /// groups (or cancels it when the node is in no group).
    pub(super) fn arm_alive_timer(&self, ctx: &mut ServiceContext) {
        let due = |(_, slot): (u32, u32)| self.groups.due[slot as usize];
        match self.groups.index.iter().map(due).min() {
            Some(at) => ctx.set_timer_at(ALIVE_TIMER, at),
            None => ctx.cancel_timer(ALIVE_TIMER),
        }
    }

    /// Builds the ALIVE plan from scratch: groups partitioned into grids by
    /// `(due time, send interval)`, and per grid what each member workstation
    /// of a group this node competes in is sent. Groups are visited in
    /// ascending id, so every destination's entries are too.
    fn build_alive_grids(&mut self) -> Vec<AliveGrid> {
        let me = self.config.node;
        let mut grids: Vec<AliveGrid> = Vec::new();
        for (group, gslot) in self.groups.index.iter() {
            let group = GroupId(group);
            let due = self.groups.due[gslot as usize];
            let state = self.groups.slot(gslot);
            let interval = state.send_interval();
            let at = grids
                .iter()
                .position(|grid| (grid.due, grid.interval) == (due, interval))
                .unwrap_or_else(|| {
                    grids.push(AliveGrid {
                        due,
                        interval,
                        ..AliveGrid::default()
                    });
                    grids.len() - 1
                });
            let grid = &mut grids[at];
            grid.groups.push(gslot);
            if state.led_since.is_some() {
                grid.led.push(group);
            }
            if !state.should_send_alives() {
                continue;
            }
            let payload = state.elector.alive_payload();
            let representative = state
                .local_representative(me)
                .unwrap_or_else(|| ProcessId::new(me, 0));
            for member in state.members.iter() {
                let dest = member.peer;
                let entry = GroupAlive {
                    group,
                    sending_interval: interval,
                    requested_interval: state
                        .fd
                        .requested_interval(dest)
                        .unwrap_or_else(|| state.fd.qos().detection_time().mul_f64(0.25)),
                    payload,
                    representative,
                };
                match grid.sends.binary_search_by_key(&dest, |send| send.0) {
                    Ok(i) => grid.sends[i].2.push(entry),
                    Err(i) => {
                        let pslot = self.peers.intern(dest) as u32;
                        grid.sends.insert(i, (dest, pslot, vec![entry]));
                    }
                }
            }
        }
        grids
    }

    /// The per-node ALIVE tick: every due grid of the cached plan sends each
    /// destination one datagram (entries of several due grids coalesced,
    /// split only at the transport's size budget) under a fresh sequence
    /// number. The plan is rebuilt only when one of its inputs moved.
    pub(super) fn handle_alive_tick(&mut self, ctx: &mut ServiceContext) {
        let now = ctx.now();
        let key = Some((self.alive_epoch, self.peers.params_epoch()));
        let (built_at, mut grids) = std::mem::take(&mut self.alive_plan);
        if built_at != key {
            grids = self.build_alive_grids();
            self.counts[NodeCount::AlivePlanRebuilds].inc();
        }
        debug_assert_eq!(grids, self.build_alive_grids(), "stale ALIVE plan");
        let due = |grid: &&AliveGrid| grid.due <= now;
        for &group in grids.iter().filter(due).flat_map(|grid| &grid.led) {
            // The settle-delayed mint is the one time-driven change left to
            // a leader: a group still waiting to mint is re-checked, or the
            // mint would starve until the next elector event. Everything else
            // `check_leader` reads arrives by an event that runs it already,
            // and a lease the renewal finds expired is dropped, so that
            // group is re-checked on this very tick.
            if self.renew_lease(group, ctx) {
                self.check_leader(group, ctx);
            } else {
                debug_assert!(
                    self.leader_settled(group, now),
                    "a skipped re-check of {group:?} would change it"
                );
            }
        }
        // Destinations in ascending peer id (each grid's already are), so
        // the fan-out order stays deterministic.
        let mut sends: Vec<_> = grids.iter().filter(due).flat_map(|g| &g.sends).collect();
        sends.sort_by_key(|send| send.0);
        let mut rest = sends.as_slice();
        let (mut payloads, mut datagrams) = (0, 0);
        while let Some((&&(dest, pslot, ref first), others)) = rest.split_first() {
            let shared = others.iter().take_while(|send| send.0 == dest).count();
            let mut alives = first.clone();
            for send in &others[..shared] {
                alives.extend_from_slice(&send.2);
            }
            if shared > 0 {
                alives.sort_by_key(|alive| alive.group);
            }
            payloads += alives.len() as u64;
            datagrams += self.flush_alives(dest, pslot as usize, alives, now, ctx);
            rest = &others[shared..];
        }
        // Counted once per tick: every count is an atomic add.
        self.counts[NodeCount::AlivePayloadsSent].add(payloads);
        self.counts[NodeCount::AliveDatagramsSent].add(datagrams);
        // Advance the due grids — always, so a node that re-enters the
        // competition resumes sending within one interval — snapped to the
        // node-wide grid of the interval, so groups joined at staggered
        // times converge onto a shared phase after their first send and
        // keep sharing datagrams. The gap between consecutive sends never
        // exceeds one interval, so receivers' freshness horizons are
        // unaffected.
        for grid in grids.iter_mut().filter(|grid| grid.due <= now) {
            grid.due = next_tick(now, grid.interval);
            for &gslot in &grid.groups {
                self.groups.due[gslot as usize] = grid.due;
            }
        }
        // Two grids that converged are one from now on: rebuild to merge.
        let same = |a: &AliveGrid, b: &AliveGrid| (a.due, a.interval) == (b.due, b.interval);
        if (1..grids.len()).any(|i| grids[..i].iter().any(|g| same(g, &grids[i]))) {
            self.alive_epoch += 1;
        }
        // Every group is in one grid: the earliest grid is the next tick.
        if let Some(next) = grids.iter().map(|grid| grid.due).min() {
            ctx.set_timer_at(ALIVE_TIMER, next);
        }
        self.alive_plan = (key, grids);
    }

    /// Sends `alives` to `dest` (peer slot `pslot`), split at the
    /// transport's size budget; each datagram takes the next node-level
    /// sequence number of the destination's heartbeat stream. Returns the
    /// number of datagrams sent.
    fn flush_alives(
        &mut self,
        dest: NodeId,
        pslot: usize,
        mut alives: Vec<GroupAlive>,
        now: SimInstant,
        ctx: &mut ServiceContext,
    ) -> u64 {
        let mut datagrams = 0;
        while !alives.is_empty() {
            let mut bytes = 0;
            let fits = alives.iter().take_while(|alive| {
                bytes += alive.wire_size();
                bytes <= MAX_BATCH_BYTES
            });
            let rest = alives.split_off(fits.count().max(1));
            let stream = &mut self.peers[pslot].alive;
            let seq = stream.seq;
            stream.seq += 1;
            datagrams += 1;
            let msg = match alives[..] {
                [ref alive] => ServiceMessage::Alive {
                    group: alive.group,
                    header: AliveHeader {
                        incarnation: self.incarnation,
                        seq,
                        sent_at: now,
                        sending_interval: alive.sending_interval,
                        requested_interval: alive.requested_interval,
                    },
                    payload: alive.payload,
                    representative: alive.representative,
                },
                _ => ServiceMessage::AliveBatch {
                    incarnation: self.incarnation,
                    seq,
                    sent_at: now,
                    alives,
                },
            };
            ctx.send(dest, msg);
            alives = rest;
        }
        datagrams
    }

    /// The one ALIVE receive path (a single `Alive` is a batch of one). A
    /// datagram repeating the batch last applied from the sender — the
    /// steady state — is the node-level accounting plus one store into the
    /// sender's freshness stamp. Anything else, or anything after
    /// `resync` was set, is applied entry by entry and kept to repeat.
    pub(super) fn handle_alives(
        &mut self,
        from: NodeId,
        incarnation: u64,
        seq: u64,
        sent_at: SimInstant,
        alives: Vec<GroupAlive>,
        ctx: &mut ServiceContext,
    ) {
        let now = ctx.now();
        let slot = self.peers.intern(from);
        let known = self.peers[slot].incarnation;
        if known != Some(incarnation) {
            // A previous life's heartbeat says nothing about the current one.
            if known.is_some_and(|known| incarnation < known) {
                return;
            }
            self.note_peer_incarnation(from, incarnation, ctx);
        }
        let heard = self.note_alive_datagram(slot, seq, sent_at, now);
        let peer = &mut self.peers[slot];
        if !peer.alive.resync && peer.alive.batch == alives {
            self.counts[NodeCount::AliveUnchanged].inc();
            self.peers.stamp(slot, sent_at, false);
            return;
        }
        self.counts[NodeCount::AliveApplied].inc();
        peer.alive.resync = false;
        (peer.fd.wake, peer.gossip.wake) = (None, None);
        // Every monitor and member entry the old batch vouched for keeps
        // what the stamp bought it, and the stamp restarts: a group the new
        // batch drops then ages out on its own horizon.
        for dropped in std::mem::take(&mut peer.alive.batch) {
            if let Some(state) = self.groups.get_mut(dropped.group) {
                state.fd.unvouch(&self.peers, from);
                if let Some(member) = state.members.get_mut(from) {
                    member.last_heard = member.last_heard.max(heard);
                }
            }
        }
        self.peers.stamp(slot, sent_at, true);
        for alive in &alives {
            self.apply_group_alive(from, slot, incarnation, seq, sent_at, alive, ctx);
        }
        self.peers[slot].alive.batch = alives;
    }

    /// Node-level accounting of one incoming ALIVE datagram, before the
    /// per-group dispatch. The heartbeat sequence is a *node-level*
    /// per-destination stream, so every consumer of sequence numbers must
    /// see every datagram of the stream, not just the subset carrying its
    /// own group — a group observing a sparser view would infer phantom
    /// loss from the sequence numbers consumed by its siblings (or, after
    /// a lost LEAVE, by groups this node is no longer even in). The peer's
    /// table slot records the sample once (the per-group monitors' recordings
    /// dedup against it): the one link estimate every group's (η, δ) follow,
    /// whatever its tuning policy. Returns when the sender's previous
    /// datagram arrived.
    fn note_alive_datagram(
        &mut self,
        slot: usize,
        seq: u64,
        sent_at: SimInstant,
        now: SimInstant,
    ) -> SimInstant {
        self.peers.record(slot, seq, sent_at, now);
        let heard = std::mem::replace(&mut self.peers[slot].alive.heard, now);
        if let Some(obs) = &self.obs {
            obs.on_alive_datagram(heard, now);
        }
        heard
    }

    /// The per-group effect of one ALIVE entry: membership refresh,
    /// failure-detector freshness, election payload.
    #[allow(clippy::too_many_arguments)]
    fn apply_group_alive(
        &mut self,
        from: NodeId,
        pslot: usize,
        incarnation: u64,
        seq: u64,
        sent_at: SimInstant,
        alive: &GroupAlive,
        ctx: &mut ServiceContext,
    ) {
        let now = ctx.now();
        let group = alive.group;
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        // What this node's own ALIVEs embed of the group, before.
        let stance = |state: &GroupState| {
            let elector = (state.elector.alive_payload(), state.elector.is_competing());
            (elector, state.fd.requested_interval(from))
        };
        let stance_before = stance(state);
        // A member first learnt of via ALIVE (no HELLO yet) is seeded with
        // its advertised representative as the only known process; a HELLO
        // will replace the list with the authoritative one.
        let (member, created) = state.members.ensure(from, incarnation, now);
        if created {
            member.processes = (alive.representative, true).into();
            self.peers[pslot].gossip.index(group);
        }
        let representative_changed = member.representative != Some(alive.representative);
        member.representative = Some(alive.representative);
        let asked = member.requested_interval.replace(alive.requested_interval);
        let leader_before = state.elector.leader();
        let watched = state.fd.state(from).is_some();
        // The measurement side of this heartbeat (the link estimator) was
        // already fed at node level by `note_alive_datagram`; the monitor's
        // own recording dedups against it.
        let eta = alive.sending_interval;
        let transition = state
            .fd
            .on_heartbeat(&mut self.peers, from, seq, sent_at, eta, now);
        let mut revived = false;
        if let Some(t) = transition {
            if t.transition == Transition::BecameTrusted {
                // A revival of a suspected peer: the suspicion was a
                // detector mistake (the paper's T_MR numerator).
                revived = true;
                if let Some(obs) = &state.obs {
                    obs.on_mistake();
                }
                state.elector.on_trust(from, now);
            }
        }
        state.elector.on_alive(from, alive.payload, now);
        let leader_changed = state.elector.leader() != leader_before;
        if asked != Some(alive.requested_interval) || stance(state) != stance_before {
            self.alive_epoch += 1;
        }
        // Still suspected (the heartbeat was too old to revive it): the
        // revival must not be skipped as a repeat.
        if !state.fd.is_trusted(from) {
            self.peers[pslot].alive.resync = true;
        }
        // A heartbeat only *extends* the sender's freshness horizon: the
        // peer's timer needs moving only for a monitor that had no
        // deadline before (new, or suspected until now).
        if !watched {
            self.fd_monitor_added(from, group, ctx);
        } else if revived || self.peers[pslot].fd.armed.is_none() {
            self.arm_fd_deadline(from, pslot, group, ctx);
        }
        // In steady state nothing `check_leader` derives has changed: same
        // elector leader, same representative, no trust transition.
        // Time-driven transitions (the self-election grace elapsing, the
        // lease settle delay) are driven by the grace / FD / ALIVE timers,
        // not by received heartbeats.
        if created || representative_changed || revived || leader_changed {
            self.check_leader(group, ctx);
        }
    }
}
