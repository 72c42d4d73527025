//! The per-workstation service instance: [`ServiceNode`], a sans-io
//! [`sle_sim::Actor`], so the same code runs under the discrete-event
//! simulator and under the real-time [`crate::runtime`]. It has one file per
//! module of the paper's Figure 2, each owning its handlers, per-peer state
//! and debug invariants (the counters they bump are one [`NodeCount`] table):
//!
//! | Figure 2 module | File | What it does |
//! |---|---|---|
//! | (the dispatcher) | `node/mod.rs` | registration, joins and leaves, timers, the tables the modules share |
//! | Group Maintenance | `node/gossip.rs` | HELLO gossip, membership, leaves and expiry |
//! | Failure Detector, its input | `node/alive.rs` | the ALIVE stream, sent and received |
//! | Failure Detector | `node/fd.rs` | one detector timer per monitored peer, over the monitors in the groups' rows |
//! | Leader Election Algorithm | `node/election.rs` | the leader each group's [`sle_election::GroupElector`] yields over its trusted rows, announced |
//! | (the lease tier above it) | `node/lease.rs` | lease upkeep and client serving |

mod alive;
mod election;
mod fd;
mod gossip;
mod lease;

use sle_election::{ElectorKind, GroupElector};
use sle_fd::{PeerTable, MIN_INTERVAL};
use sle_sim::actor::{Actor, Context, NodeId, TimerTag};
use sle_sim::dense::{insert_tight, SlotIndex};
use sle_sim::time::{SimDuration, SimInstant};

use std::sync::Arc;

use crate::config::{JoinConfig, ServiceConfig};
use crate::error::ServiceError;
use crate::events::ServiceEvent;
use crate::group::GroupState;
use crate::lease::{FencedApp, FencingToken, LeaderLease};
use crate::messages::{
    AliveHeader, GroupAlive, GroupAnnouncement, HelloList, ServiceMessage, MAX_BATCH_BYTES,
};
use crate::obs::{NodeCount, NodeInstruments};
use crate::process::{GroupId, ProcessId};

/// Timer-tag namespace of the per-node HELLO tick.
const HELLO_KIND: u64 = 0;
/// Timer-tag namespace of the per-node ALIVE tick.
const ALIVE_KIND: u64 = 1;
/// Timer-tag namespace of the per-peer failure-detector timers.
const FD_KIND: u64 = 2;
/// Timer-tag namespace for the end of the self-election grace period.
pub(crate) const GRACE_KIND: u64 = 3;

/// Timer used for periodic HELLO gossip and membership expiry.
const HELLO_TIMER: TimerTag = TimerTag(HELLO_KIND << 32);
/// The single per-node ALIVE tick: it fires at the earliest due time of the
/// groups that tick (`alive::ticks`) and fans out for every one that is due,
/// however many groups the node participates in; a node none of whose
/// groups ticks arms it not at all.
const ALIVE_TIMER: TimerTag = TimerTag(ALIVE_KIND << 32);

/// The node-wide grid both periodic ticks keep to: the first multiple of
/// `step` strictly after `now`, counted from the clock's origin (time zero
/// in the simulator, the cluster's start on the wall clock). A tick that
/// fires late still lands back on the grid, so co-hosted nodes sharing a
/// step fire together and their sends share datagrams. The step is floored
/// at [`MIN_INTERVAL`]: a step of 0 would re-arm a tick at the instant it
/// fires.
fn next_tick(now: SimInstant, step: SimDuration) -> SimInstant {
    let step = step.max(MIN_INTERVAL).as_nanos();
    SimInstant::from_nanos((now.as_nanos() / step + 1) * step)
}

/// Takes from the front of `entries` the longest run whose encoded sizes,
/// by `size`, sum to at most [`MAX_BATCH_BYTES`] (one entry at least): the
/// one split of per-peer ALIVE batches and ACCUSE lists.
fn take_batch<T>(entries: &mut Vec<T>, size: impl Fn(&T) -> usize) -> Vec<T> {
    let mut bytes = 0;
    let fits = entries.iter().take_while(|entry| {
        bytes += size(entry);
        bytes <= MAX_BATCH_BYTES
    });
    let rest = entries.split_off(fits.count().max(1));
    std::mem::replace(entries, rest)
}

/// Dense per-group storage: group ids are interned into `u32` slots on
/// first join, a [`SlotIndex`] maps ids to slots, and the states live in a
/// contiguous slot vector. Iteration follows the index (ascending group id,
/// so the ALIVE fan-out stays deterministic), and slots vacated by `remove`
/// are recycled through a free list.
#[derive(Debug, Default)]
struct GroupTable {
    index: SlotIndex,
    slots: Vec<Option<GroupState>>,
    free: Vec<u32>,
    /// When each slot's group is next due to fan out ALIVEs — dense, so the
    /// per-node tick reads and advances them without touching the states.
    /// A group that stops ticking keeps its due time: the slot it would
    /// next have sent in, which its re-entry sends in if it has not passed.
    due: Vec<SimInstant>,
}

impl GroupTable {
    fn get(&self, group: GroupId) -> Option<&GroupState> {
        self.slots[self.index.get(group.0)? as usize].as_ref()
    }

    fn get_mut(&mut self, group: GroupId) -> Option<&mut GroupState> {
        self.slots[self.index.get(group.0)? as usize].as_mut()
    }

    /// The slot of `group`, creating its state with `make` on first join.
    fn intern(&mut self, group: GroupId, make: impl FnOnce() -> GroupState) -> usize {
        let slot = self.index.get(group.0).unwrap_or_else(|| {
            let state = Some(make());
            let slot = match self.free.pop() {
                Some(slot) => {
                    self.slots[slot as usize] = state;
                    slot
                }
                None => {
                    let slot = self.slots.len();
                    insert_tight(&mut self.slots, slot, state);
                    insert_tight(&mut self.due, slot, SimInstant::FAR_FUTURE);
                    slot as u32
                }
            };
            self.index.insert(group.0, slot);
            slot
        });
        slot as usize
    }

    fn remove(&mut self, group: GroupId) -> Option<GroupState> {
        let slot = self.index.remove(group.0)?;
        self.free.push(slot);
        self.slots[slot as usize].take()
    }

    /// Group states in ascending group-id order.
    fn iter(&self) -> impl Iterator<Item = &GroupState> + '_ {
        self.index.iter().map(move |(_, slot)| self.slot(slot))
    }

    /// The state living in `slot` (which must be indexed).
    fn slot(&self, slot: u32) -> &GroupState {
        self.slots[slot as usize]
            .as_ref()
            .expect("indexed slot is live")
    }
}

/// The node's own part of a peer's [`PeerTable`] slot, beside the link
/// record the failure detector reads: each module keeps its part here.
///
/// Slots are deliberately never removed. The ALIVE sequence counter must
/// survive group churn (see `PeerAlive::seq`), and so must the one link
/// estimate every group's monitors of the peer read. Retention is bounded
/// by the workstation universe — destinations are configured peers — not
/// by churn.
#[derive(Debug, Default)]
struct PeerEntry {
    /// Highest incarnation observed from the peer; `None` until the first
    /// incarnation-carrying message arrives.
    incarnation: Option<u64>,
    /// The groups that have a row for the peer, ascending: what the HELLO
    /// tick and the peer's detector timer walk.
    groups: Vec<GroupId>,
    gossip: gossip::PeerGossip,
    alive: alive::PeerAlive,
    fd: fd::PeerFd,
}

impl PeerEntry {
    /// `group` made the peer a member: in a new row, or in one the peer's
    /// restart left with a monitor alone. (Only a membership creates a row.)
    fn member_added(&mut self, group: GroupId) {
        if let Err(i) = self.groups.binary_search(&group) {
            self.groups.insert(i, group);
        }
        self.gossip.wake = None;
    }

    /// `group` no longer has a row for the peer.
    fn unindex(&mut self, group: GroupId) {
        if let Ok(i) = self.groups.binary_search(&group) {
            self.groups.remove(i);
        }
    }
}

/// The node's peer table: each peer's link record beside its [`PeerEntry`].
type Peers = PeerTable<PeerEntry>;

/// The context type used by the service.
pub type ServiceContext = Context<ServiceMessage, ServiceEvent>;

/// One leader-election service instance (one per workstation).
#[derive(Debug)]
pub struct ServiceNode {
    config: ServiceConfig,
    incarnation: u64,
    /// This node's announcement version, bumped on every local join, leave
    /// or candidacy change: `(incarnation, hello_version)` orders its lists.
    hello_version: u64,
    /// The full announcement list at `hello_version`, built on the first
    /// full send of a version (a start, a pull answered) and shared by every
    /// later one.
    hello_list: Option<Arc<[GroupAnnouncement]>>,
    /// The node's counters, one cell per [`NodeCount`] in one block: the
    /// registry's own once instruments are attached.
    counts: sle_obs::CounterBlock,
    /// The local slot of the next process to register: every slot below it
    /// is registered.
    next_local_process: u32,
    /// Per-group state in dense slots, indexed by interned group id.
    groups: GroupTable,
    /// Everything per peer, in dense slots indexed by interned peer id:
    /// the one link estimate every group's failure detector reads (paper
    /// Figure 2's single Failure Detector module per workstation), lent to
    /// their calls, beside what the node's modules keep.
    peers: Peers,
    /// Moves whenever something the ALIVE plan embeds may have: an elector's
    /// payload or competing flag, local candidacy, a group's membership, an
    /// interval a member asked for, which groups this node leads. (What the
    /// monitors themselves ask for moves the peer table's epoch.)
    alive_epoch: u64,
    /// How many configured peers' lists are not current
    /// (`PeerGossip::is_current`): while any is, no grace ends early.
    lists_missing: usize,
    /// The cached ALIVE fan-out, and the `(alive_epoch, table params epoch)`
    /// it was built at.
    alive_plan: (Option<(u64, u64)>, Vec<alive::AliveGrid>),
    /// The `alive_epoch` the ALIVE tick was last armed at: which groups
    /// tick moves only with the epoch.
    alive_synced: u64,
    /// When the ALIVE tick is armed to fire, if it is.
    alive_armed: Option<SimInstant>,
    /// When the ALIVE tick was last armed: a tick that fires well after
    /// both this and its due time fired late ([`election::FIRST_ALIVE_DELAY`]).
    alive_armed_at: SimInstant,
    /// Live QoS instruments and protocol trace, when attached by the
    /// driving runtime ([`ServiceNode::set_instruments`]). `None` — the
    /// default — costs one branch per instrumentation point.
    obs: Option<NodeInstruments>,
    lease: lease::LeaseTier,
}

impl ServiceNode {
    /// Creates a service instance from its configuration.
    pub fn new(config: ServiceConfig) -> Self {
        ServiceNode {
            // Every configured peer is contacted (HELLO goes to them all).
            peers: PeerTable::with_capacity(config.remote_peers().count()),
            lists_missing: config.remote_peers().count(),
            config,
            incarnation: 0,
            hello_version: 0,
            hello_list: None,
            counts: sle_obs::CounterBlock::new(NodeCount::COUNT),
            next_local_process: 0,
            groups: GroupTable::default(),
            alive_epoch: 0,
            alive_plan: (None, Vec::new()),
            alive_synced: 0,
            alive_armed: None,
            alive_armed_at: SimInstant::ZERO,
            obs: None,
            lease: lease::LeaseTier::default(),
        }
    }

    /// Attaches live observability instruments: QoS histograms recorded
    /// into this node's registry family (three per workstation, and two
    /// counters per group), protocol events pushed into the
    /// given trace ring, and every [`NodeCount`] counted in the registry's
    /// block of the node. Runtimes call this right after
    /// construction, before the node starts; without it, every
    /// instrumentation point is a single `None` branch.
    ///
    /// The cells outlive the node: a recovered incarnation attached to the
    /// same registry counts on where its predecessor stopped, so
    /// [`ServiceNode::count`] is then cumulative across incarnations.
    pub fn set_instruments(&mut self, instruments: NodeInstruments) {
        self.counts = instruments.counts().clone();
        self.obs = Some(instruments);
    }

    /// The value of one of the node's counters.
    pub fn count(&self, count: NodeCount) -> u64 {
        self.counts[count].get()
    }

    /// The attached instruments, if any.
    pub fn instruments(&self) -> Option<&NodeInstruments> {
        self.obs.as_ref()
    }

    /// Installs the fenced state machine this node serves while leading.
    ///
    /// Installing an app also enables `LeaseGrant` broadcasts on the ALIVE
    /// tick, so the other members' apps learn new fencing tokens promptly.
    ///
    /// A leader resumed after a pause longer than its lease term is fenced
    /// off only under Ω_lc and Ω_l: it drops the expired lease and applies
    /// the accusation its silence earned (see `renew_lease`). Ω_id (S1) has
    /// no accusation to apply, so a resumed S1 leader keeps its rank and
    /// its lease is not fenced against the successor's.
    pub fn install_app(&mut self, app: Box<dyn FencedApp>) {
        self.lease.app = Some(app);
        self.lease.broadcast = true;
    }

    /// Whether a fenced state machine is installed.
    pub fn has_app(&self) -> bool {
        self.lease.app.is_some()
    }

    /// The lease this node currently holds as the leader of `group`.
    pub fn lease_of(&self, group: GroupId) -> Option<LeaderLease> {
        self.groups.get(group)?.lease
    }

    /// The fencing token of this node's current leadership of `group`.
    pub fn fencing_token(&self, group: GroupId) -> Option<FencingToken> {
        Some(self.lease_of(group)?.token)
    }

    /// The most recent lease heard from a remote leader of `group` (its
    /// `renewed_at` is the local receipt time).
    pub fn remote_lease_of(&self, group: GroupId) -> Option<LeaderLease> {
        self.groups.get(group)?.remote_lease
    }

    /// This workstation's identity.
    pub fn node_id(&self) -> NodeId {
        self.config.node
    }

    /// The leader-election algorithm this instance runs.
    pub fn algorithm(&self) -> ElectorKind {
        self.config.algorithm
    }

    /// The groups this instance currently participates in.
    pub fn group_ids(&self) -> impl Iterator<Item = GroupId> + '_ {
        self.groups.index.iter().map(|(id, _)| GroupId(id))
    }

    /// Number of peers with a link record in the node's peer table: the
    /// contacted-peer universe. Group churn on top of it must neither grow
    /// the count nor reclaim a record a surviving group still uses.
    pub fn monitored_peer_count(&self) -> usize {
        self.peers.len()
    }

    /// The current leader of `group` as seen by this instance (the "query"
    /// notification style of the paper).
    pub fn leader_of(&self, group: GroupId) -> Option<ProcessId> {
        let state = self.groups.get(group)?;
        state.leader_process(self.config.node, state.elector.leader(state.rows.trusted()))
    }

    /// Whether this node is currently competing (sending ALIVEs) in `group`.
    pub fn is_competing(&self, group: GroupId) -> bool {
        self.groups
            .get(group)
            .is_some_and(GroupState::should_send_alives)
    }

    /// The application processes of this workstation currently joined to
    /// `group`, in registration order.
    ///
    /// This is how external drivers (the chaos harness's mid-run
    /// leave/rejoin churn, management tooling) discover what there is to
    /// leave without keeping their own books.
    pub fn local_members_of(&self, group: GroupId) -> Vec<ProcessId> {
        let state = self.groups.get(group);
        let locals = state.into_iter().flat_map(|s| &s.local_processes);
        locals
            .map(|&(local, _)| ProcessId::new(self.config.node, local))
            .collect()
    }

    /// This node's view of the remote membership of `group`: per member
    /// workstation (ascending), its processes and their candidate flags.
    pub fn remote_members_of(&self, group: GroupId) -> Vec<(NodeId, Vec<(ProcessId, bool)>)> {
        let state = self.groups.get(group);
        let members = state.into_iter().flat_map(|s| s.rows.members());
        members
            .map(|(row, m)| (row.peer, m.processes.to_vec()))
            .collect()
    }

    /// Registers a new application process with this service instance and
    /// returns its identifier.
    pub fn register_process(&mut self) -> ProcessId {
        let local = self.next_local_process;
        self.next_local_process += 1;
        ProcessId::new(self.config.node, local)
    }

    /// Joins `process` to `group` with the given parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::ForeignProcess`] if the process belongs to a
    /// different workstation, or [`ServiceError::UnknownProcess`] if it was
    /// never registered here.
    pub fn join_group(
        &mut self,
        process: ProcessId,
        group: GroupId,
        join: JoinConfig,
        ctx: &mut ServiceContext,
    ) -> Result<(), ServiceError> {
        self.enter_group(process, group, join, ctx)?;
        // Prompt discovery: announce only this group now (the full list per
        // join is quadratic in a burst); the next digest gets the rest pulled.
        if let Some(state) = self.groups.get(group) {
            let announcement = gossip::announcement(self.config.node, state);
            let partial = HelloList::Partial(Arc::from([announcement]));
            self.send_hello(self.config.remote_peers(), false, partial, ctx);
        }
        self.check_leader(group, ctx);
        self.sync_alive_tick(ctx);
        Ok(())
    }

    /// Joins `process` to `group` without announcing it or re-checking the
    /// leader: what a runtime join and a start's auto-joins share.
    fn enter_group(
        &mut self,
        process: ProcessId,
        group: GroupId,
        join: JoinConfig,
        ctx: &mut ServiceContext,
    ) -> Result<(), ServiceError> {
        if process.node != self.config.node {
            return Err(ServiceError::ForeignProcess(process));
        }
        if process.local >= self.next_local_process {
            return Err(ServiceError::UnknownProcess(process));
        }
        let me = self.config.node;
        let algorithm = self.config.algorithm;
        let now = ctx.now();
        let (obs, peers) = (&self.obs, &mut self.peers);
        let (config, missing) = (&self.config, &mut self.lists_missing);
        let slot = self.groups.intern(group, || {
            let mut state = GroupState::new(group, me, algorithm, &join, now);
            state.obs = obs.as_ref().map(|obs| obs.group(group, now));
            // Every applied announcement list skipped this group: re-pull.
            for peer in peers.states_mut() {
                peer.gossip.resync = true;
            }
            *missing = config.remote_peers().count();
            state
        });
        self.groups.due[slot] = now + election::FIRST_ALIVE_DELAY;
        let state = self.groups.slots[slot]
            .as_mut()
            .expect("interned slot is live");
        if state.upsert_local_process(process.local, join.candidate) {
            self.hello_version += 1;
            self.hello_list = None;
        }
        // Upgrading to candidate after having joined as a listener requires a
        // fresh elector (the accusation time starts now — a newcomer rank).
        // The accusation epoch must NOT restart: epochs already advertised on
        // the wire would become current again, letting a replayed old ACCUSE
        // demote this node after it re-won — and breaking fencing-token
        // monotonicity. Start one above the old elector's epoch instead.
        if join.candidate && !state.elector.is_candidate() {
            state.elector =
                GroupElector::new_with_epoch(algorithm, me, true, now, state.elector.epoch() + 1);
            // Ranked over the rows at once: a repeat feeds it nothing.
            state.elector.reevaluate(state.rows.trusted());
        }
        let grace_ends = state.joined_at + state.self_election_grace(&self.peers);
        ctx.set_timer_at(election::grace_tag(group), grace_ends);
        self.alive_epoch += 1;
        if let Some(obs) = &self.obs {
            obs.on_join(group, now);
        }
        Ok(())
    }

    /// Removes `process` from `group`.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::NotJoined`] if the process is not currently a
    /// member of the group on this workstation.
    pub fn leave_group(
        &mut self,
        process: ProcessId,
        group: GroupId,
        ctx: &mut ServiceContext,
    ) -> Result<(), ServiceError> {
        let me = self.config.node;
        let algorithm = self.config.algorithm;
        let state = self
            .groups
            .get_mut(group)
            .ok_or(ServiceError::NotJoined(process, group))?;
        if !state.remove_local_process(process.local) {
            return Err(ServiceError::NotJoined(process, group));
        }
        // Tell the other members explicitly so they do not need to wait for
        // the membership timeout.
        for (row, _) in state.rows.members() {
            ctx.send(row.peer, ServiceMessage::Leave { group, process });
        }
        if state.local_processes.is_empty() {
            if let Some(gone) = self.groups.remove(group) {
                for row in gone.rows.iter() {
                    let entry = self.peers.entry(row.peer);
                    entry.unindex(group);
                    if row.member.is_some() {
                        entry.gossip.wake = None;
                    }
                    if row.monitor.is_some() {
                        entry.fd.wake = None;
                    }
                }
            }
        } else {
            if !state.locally_candidate() && state.elector.is_candidate() {
                // The last local candidate left: stop competing. As on the
                // listener→candidate upgrade, preserve the accusation epoch
                // so replayed accusations from the candidate life stay stale.
                state.elector = GroupElector::new_with_epoch(
                    algorithm,
                    me,
                    false,
                    ctx.now(),
                    state.elector.epoch() + 1,
                );
            }
            // The local representative — the process announced while this
            // node leads — may have been the one that left.
            self.check_leader(group, ctx);
        }
        if let Some(obs) = &self.obs {
            obs.on_leave(group, ctx.now());
        }
        self.alive_epoch += 1;
        self.hello_version += 1;
        self.hello_list = None;
        self.send_hello(self.config.remote_peers(), false, HelloList::Omitted, ctx);
        self.sync_alive_tick(ctx);
        Ok(())
    }

    /// Handles a possibly new incarnation of `peer`: if the peer restarted,
    /// all state learnt from its previous life is discarded.
    fn note_peer_incarnation(&mut self, peer: NodeId, incarnation: u64, ctx: &mut ServiceContext) {
        let slot = self.peers.intern(peer);
        let entry = &mut self.peers[slot];
        let known = entry.incarnation;
        if known.is_some_and(|known| incarnation <= known) {
            return;
        }
        entry.incarnation = Some(incarnation);
        // Whatever list was applied belonged to the previous life.
        self.set_list(peer, slot, |list| list.applied = None);
        if known.is_none() {
            // First contact with this peer: nothing to reset.
            return;
        }
        // So did the link estimate, whether or not a group still lists the
        // peer: its loss window would count the new life's reused sequence
        // numbers as fresh arrivals. Once, for every class of every group
        // reading it.
        let now = ctx.now();
        self.peers.reset(slot, now);
        self.alive_epoch += 1;
        let entry = &mut self.peers[slot];
        // Every row of the peer is heard now, on its own account only.
        entry.gossip.wake = Some(gossip::MemberWake::heard_at(now));
        let groups = std::mem::take(&mut entry.groups);
        let mut kept = Vec::with_capacity(groups.len());
        // Every membership of the previous life goes. A row the group
        // monitors stays, with a fresh monitor, until the new life names the
        // group or the row is quiet past the membership timeout; a row of
        // listeners only has nothing left and goes.
        for group in groups {
            let Some(state) = self.groups.get_mut(group) else {
                continue;
            };
            let Some(row) = state.rows.get_mut(peer) else {
                continue;
            };
            (row.member, row.last_heard) = (None, now);
            let monitored = row.monitor.is_some();
            if monitored {
                row.monitor = Some(state.fd.monitor(&mut self.peers, peer, now));
                kept.push(group);
            } else {
                state.rows.remove(peer);
            }
            state.elector.reevaluate(state.rows.trusted());
            if monitored {
                self.fd_monitor_added(peer, group, ctx);
            }
            self.check_leader(group, ctx);
        }
        self.peers[slot].groups = kept;
    }

    /// What both walks of `peer` (peer slot `pslot`) rely on: its index
    /// names exactly the groups that have a row for it. Asserted in debug
    /// builds.
    fn row_index_holds(&self, peer: NodeId, pslot: usize) -> bool {
        let indexed = &self.peers[pslot].groups;
        self.groups.iter().all(|state| {
            let row = state.rows.get(peer);
            // A row holds a membership, a monitor or both.
            row.is_none_or(|row| row.member.is_some() || row.monitor.is_some())
                && row.is_some() == indexed.binary_search(&state.group).is_ok()
        })
    }
}

impl Actor for ServiceNode {
    type Msg = ServiceMessage;
    type Event = ServiceEvent;

    fn on_start(&mut self, ctx: &mut ServiceContext) {
        self.incarnation = ctx.incarnation();
        let auto_joins = self.config.auto_joins.clone();
        for auto in auto_joins {
            let process = self.register_process();
            // Joining our own freshly registered process cannot fail.
            let _ = self.enter_group(process, auto.group, auto.config, ctx);
            self.check_leader(auto.group, ctx);
        }
        // One full list per peer, not a partial per group: its pull makes
        // every peer answer with its own, so a restarted node learns their
        // lists within one round trip rather than at their next tick.
        let list = self.full_list();
        self.send_hello(self.config.remote_peers(), true, HelloList::Full(list), ctx);
        self.arm_hello_timer(ctx);
        self.sync_alive_tick(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: ServiceMessage, ctx: &mut ServiceContext) {
        match msg {
            ServiceMessage::Hello {
                incarnation,
                version,
                pull,
                announcements,
                ..
            } => self.handle_hello(from, incarnation, version, pull, announcements, ctx),
            ServiceMessage::Alive {
                group,
                header,
                payload,
                representative,
            } => {
                let alive = GroupAlive {
                    group,
                    sending_interval: header.sending_interval,
                    requested_interval: header.requested_interval,
                    payload,
                    representative,
                };
                let AliveHeader {
                    incarnation, seq, ..
                } = header;
                self.handle_alives(from, incarnation, seq, header.sent_at, vec![alive], ctx)
            }
            ServiceMessage::AliveBatch {
                incarnation,
                seq,
                sent_at,
                alives,
            } => self.handle_alives(from, incarnation, seq, sent_at, alives, ctx),
            ServiceMessage::Accuse { accusations } => {
                for (group, epoch) in accusations {
                    self.handle_accusation(group, epoch, ctx);
                }
            }
            ServiceMessage::Leave { group, process } => {
                self.handle_leave(from, group, process, ctx)
            }
            ServiceMessage::LeaseGrant {
                group,
                token,
                valid_for,
            } => self.handle_lease_grant(from, group, token, valid_for, ctx),
            ServiceMessage::ClientRequest {
                group,
                session,
                seq,
                payload,
            } => self.handle_client_request(from, group, session, seq, payload, ctx),
            // Client-bound answers: a service instance can receive these
            // only through misrouting (or a hostile sender); ignore them.
            ServiceMessage::ClientReply { .. } | ServiceMessage::Redirect { .. } => {}
        }
        self.sync_alive_tick(ctx);
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut ServiceContext) {
        let id = (tag.0 & 0xFFFF_FFFF) as u32;
        match tag.0 >> 32 {
            HELLO_KIND => self.handle_hello_timer(ctx),
            ALIVE_KIND => self.handle_alive_tick(ctx),
            FD_KIND => self.handle_fd_timer(NodeId(id), ctx),
            GRACE_KIND => {
                let group = GroupId(id);
                if let Some(obs) = &self.obs {
                    obs.on_grace_timer(ctx.now());
                }
                self.check_leader(group, ctx)
            }
            _ => {}
        }
        self.sync_alive_tick(ctx);
    }
}

#[cfg(test)]
mod tests;
