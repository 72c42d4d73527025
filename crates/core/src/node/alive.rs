//! The ALIVE stream, both directions: the per-node tick that batches every
//! group's heartbeats, and the receive path that feeds them to each group.
//! An arrival is also the one place a peer's operating points (η, δ) move:
//! the datagram's sample is recorded once, before either receive path, and
//! a move it causes is acted on once, after it.
//!
//! The tick follows the sending set, not the clock: it is armed only while
//! some group ticks — sends ALIVEs, leads, or waits to mint — so a silent
//! Ω_l follower never wakes for it. Which groups tick moves only with
//! `alive_epoch`, and every entry point ends in
//! [`ServiceNode::sync_alive_tick`], one comparison when the epoch stayed.
//! A group that starts ticking sends in the slot its last send left it
//! (its due time) if that slot is still ahead, and at once otherwise: a
//! follower that suspects its leader competes in the same instant, and a
//! group's re-entries never crowd its ALIVEs closer than its own cadence.

use std::hash::{Hash, Hasher};

use sle_fd::{default_interval, PeerMonitor, Transition};
use sle_sim::actor::NodeId;
use sle_sim::time::{SimDuration, SimInstant};

use super::election::first_alive_held;
use super::{next_tick, take_batch, Peers, ServiceContext, ServiceNode, ALIVE_TIMER};
use crate::group::{GroupState, PeerRow};
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
    /// When the peer's latest ALIVE datagram arrived: it vouches for the
    /// member entry of every row whose monitor is vouched for.
    pub(super) heard: SimInstant,
    /// The [`fingerprint`] of the datagram the peer's rows were last found
    /// to hold, under the `alive_epoch` of then; 0 for none. Whatever else
    /// changes a row a repeat verdict reads — a suspicion, a HELLO, a row
    /// created or removed, a local join or leave, a new incarnation — moves
    /// the epoch, and an applied datagram clears the key: an equal
    /// fingerprint is the same verdict, without a look at the rows.
    repeat_key: u64,
}

/// A 64-bit fingerprint of `alives` under the node's `epoch`, never 0: a
/// multiply-rotate chain over 8-byte words (FxHash's), in which any one
/// changed word changes the result. (std's SipHash doubles what a repeat
/// costs on `sim-steady`.)
fn fingerprint(epoch: u64, alives: &[GroupAlive]) -> u64 {
    struct Chain(u64);
    impl Hasher for Chain {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for word in bytes.chunks(8) {
                let mut padded = [0; 8];
                padded[..word.len()].copy_from_slice(word);
                let word = u64::from_le_bytes(padded);
                self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
            }
        }
    }
    let mut chain = Chain(epoch);
    alives.hash(&mut chain);
    chain.finish() | 1
}

/// Whether the 32-bit serial number `seq` is `than` or after it.
fn seq_newer(seq: u32, than: u32) -> bool {
    seq.wrapping_sub(than) < 1 << 31
}

/// What one destination is sent of a grid's group: the entry's index, and
/// the η that group's monitor asks of the destination.
type Pick = (u32, SimDuration);

/// One send grid of the cached ALIVE plan: groups that fan out together
/// (same due time, same interval), with what each destination gets. Every
/// vector is sized exactly: the plan lives from one rebuild to the next.
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
    /// One entry per group this node sends for, in ascending group id, with
    /// everything but `requested_interval`: that one is per destination.
    entries: Vec<GroupAlive>,
    /// `(destination, its peer slot, picks in ascending group id)`, in
    /// ascending destination id.
    sends: Vec<(NodeId, u32, Vec<Pick>)>,
}

/// Whether `state` keeps the node's ALIVE tick: it sends ALIVEs, or it
/// leads — renewing its lease, or waiting out the settle delay to mint.
fn ticks(state: &GroupState) -> bool {
    state.should_send_alives() || state.led_since.is_some()
}

/// `state`'s ALIVE entry as node `me` sends it, with every field but the
/// per-destination `requested_interval`.
fn alive_entry(me: NodeId, state: &GroupState) -> GroupAlive {
    GroupAlive {
        group: state.group,
        sending_interval: state.send_interval(),
        requested_interval: SimDuration::ZERO,
        payload: state.elector.alive_payload(state.rows.trusted()),
        representative: (state.local_representative(me)).unwrap_or_else(|| ProcessId::new(me, 0)),
    }
}

/// The η `state` asks of `row`'s peer: what its monitor of the peer asks,
/// or the default for `T_D` where it watches none.
fn asked_of(state: &GroupState, row: &PeerRow, peers: &Peers) -> SimDuration {
    let asked = || default_interval(state.fd.qos().detection_time());
    (row.monitor.as_ref()).map_or_else(asked, |m| m.requested_interval(peers))
}

impl ServiceNode {
    /// When the ALIVE tick is due, derived from the groups: the earliest due
    /// time of those that tick, if any does.
    fn alive_tick_due(&self) -> Option<SimInstant> {
        let slots = self.groups.index.iter().map(|(_, slot)| slot);
        let ticking = slots.filter(|&slot| ticks(self.groups.slot(slot)));
        ticking.map(|slot| self.groups.due[slot as usize]).min()
    }

    /// Arms the ALIVE tick at `next`, or disarms it, unless it already is.
    /// A disarmed tick drops the cached plan too: no tick would rebuild it,
    /// and a follower would hold the fan-out of its last competing round.
    fn arm_alive_tick(&mut self, next: Option<SimInstant>, ctx: &mut ServiceContext) {
        if next.is_none() {
            self.alive_plan = Default::default();
        }
        if next == self.alive_armed {
            return;
        }
        match next {
            Some(at) => ctx.set_timer_at(ALIVE_TIMER, at),
            None => ctx.cancel_timer(ALIVE_TIMER),
        }
        self.alive_armed = next;
        self.alive_armed_at = ctx.now();
    }

    /// Keeps the ALIVE tick armed at the earliest due time of the groups
    /// that tick, and disarmed while none does: the last step of every
    /// entry point. Only a moved `alive_epoch` can change which groups
    /// tick, so while it stays this is one comparison. A group that starts
    /// ticking keeps its due time, so a due time already passed fires the
    /// tick at once (counted as a re-entry). Debug builds assert that the
    /// armed tick is the one derived from the groups.
    pub(super) fn sync_alive_tick(&mut self, ctx: &mut ServiceContext) {
        if self.alive_synced != self.alive_epoch {
            self.alive_synced = self.alive_epoch;
            let next = self.alive_tick_due();
            if next != self.alive_armed && next.is_some_and(|at| at <= ctx.now()) {
                self.counts[NodeCount::AliveReentries].inc();
            }
            self.arm_alive_tick(next, ctx);
        }
        debug_assert_eq!(self.alive_armed, self.alive_tick_due(), "stale ALIVE tick");
        debug_assert!(self.graces_hold(ctx.now()), "a grace outlived its view");
    }

    /// Builds the ALIVE plan from scratch: the groups that tick partitioned
    /// into grids by `(due time, send interval)`, and per grid what each
    /// member workstation of a group this node competes in is sent. Groups
    /// are visited in ascending id, so every destination's picks are too.
    fn build_alive_grids(&mut self) -> Vec<AliveGrid> {
        let me = self.config.node;
        let mut grids: Vec<AliveGrid> = Vec::new();
        // Per grid, `(destination, peer slot, pick)` in visit order.
        let mut picks: Vec<Vec<(NodeId, u32, Pick)>> = Vec::new();
        for (group, gslot) in self.groups.index.iter() {
            let group = GroupId(group);
            let due = self.groups.due[gslot as usize];
            let state = self.groups.slot(gslot);
            if !ticks(state) {
                continue;
            }
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
                    picks.push(Vec::new());
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
            let entry = grid.entries.len() as u32;
            grid.entries.push(alive_entry(me, state));
            for (row, _) in state.rows.members() {
                let (dest, eta) = (row.peer, asked_of(state, row, &self.peers));
                let pslot = self.peers.intern(dest) as u32;
                picks[at].push((dest, pslot, (entry, eta)));
            }
        }
        for (grid, mut picks) in grids.iter_mut().zip(picks) {
            // Stable: each destination's picks stay in ascending group id.
            picks.sort_by_key(|pick| pick.0);
            let runs = picks.chunk_by(|a, b| a.0 == b.0);
            grid.sends = Vec::with_capacity(runs.clone().count());
            for run in runs {
                let (dest, pslot, ..) = run[0];
                let picked = run.iter().map(|&(.., pick)| pick).collect();
                grid.sends.push((dest, pslot, picked));
            }
            grid.groups.shrink_to_fit();
            grid.led.shrink_to_fit();
            grid.entries.shrink_to_fit();
        }
        grids.shrink_to_fit();
        grids
    }

    /// The per-node ALIVE tick: every due grid of the cached plan sends each
    /// destination one datagram (entries of several due grids coalesced,
    /// split only at the transport's size budget) under a fresh sequence
    /// number. The plan is rebuilt only when one of its inputs moved.
    pub(super) fn handle_alive_tick(&mut self, ctx: &mut ServiceContext) {
        let now = ctx.now();
        self.alive_armed = None;
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
        // A join's first tick that fired late sends nothing.
        let armed_at = self.alive_armed_at;
        let held = |grid: &AliveGrid, &slot: &u32| {
            first_alive_held(self.groups.slot(slot), grid.due, armed_at, now)
        };
        let sending = |grid: &&AliveGrid| !grid.groups.iter().all(|slot| held(grid, slot));
        let mut sends: Vec<_> = (grids.iter().filter(due).filter(sending))
            .flat_map(|grid| grid.sends.iter().map(move |send| (grid, send)))
            .collect();
        sends.sort_by_key(|(_, send)| send.0);
        let mut rest = sends.as_slice();
        let (mut payloads, mut datagrams) = (0, 0);
        while let Some(&(_, &(dest, pslot, _))) = rest.first() {
            let shared = rest.iter().take_while(|(_, send)| send.0 == dest).count();
            let (mine, others) = rest.split_at(shared);
            let mut alives = Vec::with_capacity(mine.iter().map(|(_, send)| send.2.len()).sum());
            for &(grid, send) in mine {
                alives.extend(send.2.iter().map(|&(entry, eta)| GroupAlive {
                    requested_interval: eta,
                    ..grid.entries[entry as usize].clone()
                }));
            }
            if shared > 1 {
                alives.sort_by_key(|alive| alive.group);
            }
            payloads += alives.len() as u64;
            datagrams += self.flush_alives(dest, pslot as usize, alives, now, ctx);
            rest = others;
        }
        // Counted once per tick: every count is an atomic add.
        self.counts[NodeCount::AlivePayloadsSent].add(payloads);
        self.counts[NodeCount::AliveDatagramsSent].add(datagrams);
        // The due grids' next slot is on the node-wide grid of their
        // interval, so groups joined or re-entered at staggered times
        // converge onto a shared phase after their first send and keep
        // sharing datagrams. The gap between consecutive sends never
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
        // Unless the tick moved which groups tick (then the entry point's
        // sync re-derives it), every ticking group is in one grid: the
        // earliest grid is the next tick.
        if self.alive_epoch == self.alive_synced {
            self.arm_alive_tick(grids.iter().map(|grid| grid.due).min(), ctx);
        }
        self.alive_plan = (key, grids);
    }

    /// Sends `group`'s entry to each member workstation at once, outside
    /// the tick: the last ALIVE of a group an accepted accusation just
    /// silenced (Ω_l: the accused saw a better-ranked candidate). Without
    /// it the members keep ranking the group by its payload from before
    /// the accusation until their monitors of it expire, while it and the
    /// successor it saw already follow that successor.
    pub(super) fn send_farewell(&mut self, group: GroupId, ctx: &mut ServiceContext) {
        let Some(state) = self.groups.get(group) else {
            return;
        };
        let entry = alive_entry(self.config.node, state);
        let members = state.rows.members();
        let asks: Vec<_> =
            (members.map(|(row, _)| (row.peer, asked_of(state, row, &self.peers)))).collect();
        let mut datagrams = 0;
        for &(dest, eta) in &asks {
            let pslot = self.peers.intern(dest);
            let alive = GroupAlive {
                requested_interval: eta,
                ..entry.clone()
            };
            datagrams += self.flush_alives(dest, pslot, vec![alive], ctx.now(), ctx);
        }
        self.counts[NodeCount::AlivePayloadsSent].add(asks.len() as u64);
        self.counts[NodeCount::AliveDatagramsSent].add(datagrams);
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
            let batch = take_batch(&mut alives, GroupAlive::wire_size);
            let stream = &mut self.peers[pslot].alive;
            let seq = stream.seq;
            stream.seq += 1;
            datagrams += 1;
            let msg = match batch[..] {
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
                    alives: batch,
                },
            };
            ctx.send(dest, msg);
        }
        datagrams
    }

    /// The one ALIVE receive path (a single `Alive` is a batch of one). A
    /// datagram the sender's rows already hold — the steady state — is the
    /// node-level accounting plus one store into the sender's freshness
    /// stamp ([`ServiceNode::repeats`]; when its fingerprint is the one the
    /// rows were last found to hold, without a look at them: on a working
    /// set beyond the caches, one row lookup costs what the rest of the
    /// path does). Anything else is applied entry by entry. Either way, a
    /// datagram whose arrival moved a class of the sender (η, δ) is
    /// followed by [`ServiceNode::fd_class_moved`].
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
        // The sender's datagram before this one, if it was a repeat: every
        // row the stamp vouches for holds what that datagram said.
        let repeated =
            (self.peers.last_seq(slot)).filter(|_| self.peers[slot].alive.repeat_key != 0);
        let (heard, moved) = self.note_alive_datagram(slot, seq, sent_at, now);
        let key = fingerprint(self.alive_epoch, &alives);
        let repeat = self.peers[slot].alive.repeat_key == key || self.repeats(from, slot, &alives);
        debug_assert!(
            self.row_index_holds(from, slot) && repeat == self.repeats(from, slot, &alives),
            "repeat verdict {repeat} on {from}"
        );
        if repeat {
            self.counts[NodeCount::AliveUnchanged].inc();
            self.peers[slot].alive.repeat_key = key;
            self.peers.stamp(slot, sent_at, false);
        } else {
            self.counts[NodeCount::AliveApplied].inc();
            let peer = &mut self.peers[slot];
            peer.alive.repeat_key = 0;
            (peer.fd.wake, peer.gossip.wake) = (None, None);
            // The stamp restarts: a row the datagram does not name then ages
            // out on its own horizon.
            self.unvouch_rows(from, slot, heard, repeated);
            self.peers.stamp(slot, sent_at, true);
            for alive in &alives {
                self.apply_group_alive(from, slot, seq, sent_at, alive, ctx);
            }
        }
        if moved {
            self.fd_class_moved(slot, repeat, ctx);
        }
    }

    /// Whether `alives` from `from` (peer slot `slot`) repeats what the
    /// sender's rows hold, so applying it would only restamp them: every
    /// entry naming a group this node is in finds the sender's row there
    /// holding what it says — the payload, representative, requested and
    /// declared η — from a monitor that trusts the sender and is vouched
    /// for, and no other row of the sender (in its index) is vouched for.
    /// A suspicion, a late copy, a HELLO or a leave changes a row, so a
    /// datagram after it cannot repeat it.
    fn repeats(&self, from: NodeId, slot: usize, alives: &[GroupAlive]) -> bool {
        let row = |group| Some(self.groups.get(group)?.rows.get(from));
        let held = |alive: &GroupAlive| {
            row(alive.group).is_none_or(|row: Option<&PeerRow>| {
                let monitor = row.and_then(|row| row.monitor.as_ref());
                let member = row.and_then(|row| row.member.as_ref());
                monitor.is_some_and(|m| m.is_trusted() && m.is_vouched())
                    && member.is_some_and(|member| {
                        member.payload.as_deref() == Some(&alive.payload)
                            && member.representative == Some(alive.representative)
                            && member.requested_interval == alive.requested_interval
                            && member.sending_interval == alive.sending_interval
                    })
            })
        };
        let vouched = |group| {
            let monitor = row(group).flatten().and_then(|row| row.monitor.as_ref());
            monitor.is_some_and(PeerMonitor::is_vouched)
        };
        let named = |group| alives.iter().any(|alive| alive.group == group);
        let groups = &self.peers[slot].groups;
        alives.iter().all(held) && groups.iter().all(|&group| named(group) || !vouched(group))
    }

    /// Unvouches every row of `from` (peer slot `slot`) its ALIVE stamp
    /// vouches for, the sender's datagram before the latest having arrived
    /// at `heard` (under sequence number `repeated` if it was a repeat):
    /// each keeps what the stamp bought it, in its monitor and its
    /// `last_heard`, and in its `applied_seq` the repeat it held — a repeat
    /// writes no row, so a late copy older than it must still read older.
    fn unvouch_rows(
        &mut self,
        from: NodeId,
        slot: usize,
        heard: SimInstant,
        repeated: Option<u64>,
    ) {
        for &group in &self.peers[slot].groups {
            let row = (self.groups.get_mut(group)).and_then(|state| state.rows.get_mut(from));
            let Some(row) = row else {
                continue;
            };
            if let Some(monitor) = row.monitor.as_mut().filter(|m| m.is_vouched()) {
                monitor.unvouch(&self.peers);
                row.last_heard = row.last_heard.max(heard);
                if let (Some(member), Some(seq)) = (row.member.as_mut(), repeated) {
                    if seq_newer(seq as u32, member.applied_seq) {
                        member.applied_seq = seq as u32;
                    }
                }
            }
        }
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
    /// whatever its tuning policy, and the one place they move. Returns
    /// when the sender's previous datagram arrived, and whether this one
    /// moved a class of the sender.
    fn note_alive_datagram(
        &mut self,
        slot: usize,
        seq: u64,
        sent_at: SimInstant,
        now: SimInstant,
    ) -> (SimInstant, bool) {
        let moved = self.peers.record(slot, seq, sent_at, now);
        let heard = std::mem::replace(&mut self.peers[slot].alive.heard, now);
        if let Some(obs) = &self.obs {
            obs.on_alive_datagram(heard, now);
        }
        (heard, moved)
    }

    /// The per-group effect of one ALIVE entry on the sender's row:
    /// membership refresh, failure-detector freshness, election payload.
    fn apply_group_alive(
        &mut self,
        from: NodeId,
        pslot: usize,
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
        let stance = |state: &GroupState, peers: &Peers| {
            let asks = (state.rows.monitor(from)).map(|m| m.requested_interval(peers));
            let payload = state.elector.alive_payload(state.rows.trusted());
            (payload, state.elector.is_competing(), asks)
        };
        let stance_before = stance(state, &self.peers);
        let leader_before = state.elector.leader(state.rows.trusted());
        let row = state.rows.row(from, now);
        // A member first learnt of via ALIVE (no HELLO yet) is seeded with
        // its advertised representative as the only known process; a HELLO
        // will replace the list with the authoritative one.
        let (member, created) = row.heard_as_member(now);
        if created {
            member.processes = (alive.representative, true).into();
            self.peers[pslot].member_added(group);
        }
        // A datagram older than the one the entry holds (reordered or
        // duplicated; sequence numbers compare as 32-bit serial numbers)
        // still proves the peer alive, but rows move only forward. The η
        // it declares is what the monitor is fed, older or not.
        let seq32 = seq as u32;
        let first = member.payload.is_none();
        let newer = first || seq_newer(seq32, member.applied_seq);
        let representative_changed = newer && member.representative != Some(alive.representative);
        let asked_changed =
            newer && (first || member.requested_interval != alive.requested_interval);
        if newer {
            member.applied_seq = seq32;
            member.representative = Some(alive.representative);
            member.requested_interval = alive.requested_interval;
        }
        member.sending_interval = alive.sending_interval;
        let watched = row.monitor.is_some();
        let monitor =
            (row.monitor).get_or_insert_with(|| state.fd.monitor(&mut self.peers, from, now));
        // The measurement side of this heartbeat (the link estimator) was
        // already fed at node level by `note_alive_datagram`; the monitor's
        // own recording dedups against it. A heartbeat too old to revive a
        // suspected peer under a tightened bound makes the next arrival
        // re-derive its class's (η, δ).
        let eta = alive.sending_interval;
        let transition = monitor.on_heartbeat(&mut self.peers, seq, sent_at, eta, now);
        let revived = transition == Some(Transition::BecameTrusted);
        if revived {
            // A revival of a suspected peer: the suspicion was a detector
            // mistake (the paper's T_MR numerator). The elector hears of
            // it over the payload last heard, then of this one's: each
            // step may move Ω_l's competing flag and epoch.
            if let Some(obs) = &state.obs {
                obs.on_mistake();
            }
            state.elector.reevaluate(state.rows.trusted());
        }
        // A payload counts only while the monitor trusts its sender: one
        // too old to revive a suspected peer is kept, not ranked.
        let member = state.rows.row(from, now).member.as_mut();
        match &mut member.expect("heard as a member").payload {
            _ if !newer => {}
            Some(last) => **last = alive.payload,
            payload => *payload = Some(Box::new(alive.payload)),
        }
        state.elector.reevaluate(state.rows.trusted());
        let leader_changed = state.elector.leader(state.rows.trusted()) != leader_before;
        let stance_after = stance(state, &self.peers);
        if asked_changed || stance_after != stance_before {
            self.alive_epoch += 1;
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
        // elector leader, same representative, no trust transition, and no
        // first payload (which may complete a grace's view). Time-driven
        // transitions (the grace's fallback, the lease settle delay) are
        // driven by the grace / FD / ALIVE timers, not by heartbeats.
        if first || representative_changed || revived || leader_changed {
            self.check_leader(group, ctx);
        }
    }
}
