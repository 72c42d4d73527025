//! The per-workstation service instance.
//!
//! A [`ServiceNode`] is the sans-io heart of the leader-election service: it
//! combines the Group Maintenance module (HELLO gossip, membership), the
//! Failure Detector module (per-group [`sle_fd::FailureDetector`]s fed by
//! ALIVE messages) and the Leader Election Algorithm module (one
//! [`sle_election::AnyElector`] per group), exactly mirroring the architecture of the
//! paper's Figure 2. It implements [`sle_sim::Actor`], so the same code runs
//! under the discrete-event simulator (for the evaluation) and under the
//! real-time runtime in [`crate::runtime`] (for applications).

use sle_election::{ElectorKind, ElectorOutput, LeaderElector};
use sle_fd::{FdParams, LivenessHandle, MonitorArena, Transition, TuningPolicy, Wake};
use sle_sim::actor::{Actor, Context, NodeId, TimerTag};
use sle_sim::time::{SimDuration, SimInstant};

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::config::{JoinConfig, ServiceConfig};
use crate::error::ServiceError;
use crate::events::ServiceEvent;
use crate::group::{GroupState, MemberEntry};
use crate::lease::{FencedApp, FencingToken, LeaderLease};
use crate::messages::{AliveHeader, GroupAlive, GroupAnnouncement, HelloList, ServiceMessage};
use crate::obs::NodeInstruments;
use crate::process::{GroupId, ProcessId};

/// Timer used for periodic HELLO gossip and membership expiry.
const HELLO_TIMER: TimerTag = TimerTag(0);
/// Timer-tag namespace of the per-node ALIVE tick.
const ALIVE_KIND: u64 = 1;
/// Timer-tag namespace of the per-peer failure-detector timers.
const FD_KIND: u64 = 2;
/// Timer-tag namespace for the end of the self-election grace period.
pub(crate) const GRACE_KIND: u64 = 3;

/// The single per-node ALIVE tick: it fires at the earliest due time across
/// all groups and fans out for every group that is due, however many groups
/// the node participates in.
const ALIVE_TIMER: TimerTag = TimerTag(ALIVE_KIND << 32);

/// Encoded-size budget for one batched ALIVE datagram. Stays safely under
/// `sle-wire`'s `MAX_DATAGRAM` (1400 bytes minus the frame header), so a
/// node in very many groups splits its fan-out into several datagrams
/// rather than producing one the transport must reject.
const MAX_ALIVE_BATCH_BYTES: usize = 1200;

/// The failure-detector timer of `peer`: one per monitored peer, however
/// many groups monitor it.
fn fd_tag(peer: NodeId) -> TimerTag {
    TimerTag(FD_KIND << 32 | peer.0 as u64)
}

fn grace_tag(group: GroupId) -> TimerTag {
    TimerTag(GRACE_KIND << 32 | group.0 as u64)
}

/// Dense per-group storage: group ids are interned into `u32` slots on
/// first join, a sorted `(id, slot)` index maps ids to slots, and the
/// states live in a contiguous slot vector. Lookups are binary searches
/// over the index, iteration follows the index (ascending group id, so the
/// ALIVE fan-out stays deterministic), and slots
/// vacated by `remove` are recycled through a free list.
#[derive(Debug, Default)]
struct GroupTable {
    index: Vec<(u32, u32)>,
    slots: Vec<Option<GroupState>>,
    free: Vec<u32>,
    /// When each slot's group is next due to fan out ALIVEs — dense, so the
    /// per-node tick reads and advances them without touching the states.
    due: Vec<SimInstant>,
}

impl GroupTable {
    #[inline]
    fn find(&self, group: GroupId) -> Result<usize, usize> {
        self.index.binary_search_by_key(&group.0, |&(id, _)| id)
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn get(&self, group: GroupId) -> Option<&GroupState> {
        let i = self.find(group).ok()?;
        self.slots[self.index[i].1 as usize].as_ref()
    }

    fn get_mut(&mut self, group: GroupId) -> Option<&mut GroupState> {
        match self.find(group) {
            Ok(i) => {
                let slot = self.index[i].1 as usize;
                self.slots[slot].as_mut()
            }
            Err(_) => None,
        }
    }

    fn get_or_insert_with(
        &mut self,
        group: GroupId,
        make: impl FnOnce() -> GroupState,
    ) -> &mut GroupState {
        let slot = match self.find(group) {
            Ok(i) => self.index[i].1 as usize,
            Err(i) => {
                let state = make();
                let slot = match self.free.pop() {
                    Some(s) => {
                        self.slots[s as usize] = Some(state);
                        s as usize
                    }
                    None => {
                        self.slots.push(Some(state));
                        self.due.push(SimInstant::FAR_FUTURE);
                        self.slots.len() - 1
                    }
                };
                self.index.insert(i, (group.0, slot as u32));
                slot
            }
        };
        self.slots[slot].as_mut().expect("indexed slot is live")
    }

    fn remove(&mut self, group: GroupId) -> Option<GroupState> {
        match self.find(group) {
            Ok(i) => {
                let (_, slot) = self.index.remove(i);
                self.free.push(slot);
                self.slots[slot as usize].take()
            }
            Err(_) => None,
        }
    }

    /// Group ids in ascending order.
    fn ids(&self) -> impl Iterator<Item = GroupId> + '_ {
        self.index.iter().map(|&(id, _)| GroupId(id))
    }

    /// Group states in ascending group-id order.
    fn iter(&self) -> impl Iterator<Item = &GroupState> + '_ {
        self.index.iter().map(move |&(_, slot)| self.slot(slot))
    }

    /// The `(id, slot)` pair at position `i` of the sorted index.
    fn pair(&self, i: usize) -> (GroupId, u32) {
        let (id, slot) = self.index[i];
        (GroupId(id), slot)
    }

    /// The state living in `slot` (which must be indexed).
    fn slot(&self, slot: u32) -> &GroupState {
        self.slots[slot as usize]
            .as_ref()
            .expect("indexed slot is live")
    }
}

/// Node-level per-peer state, interned into dense `u32` slots on first
/// contact.
///
/// Entries are deliberately never removed. The sequence counter must
/// survive group churn (see the field comment on the counter below), and
/// the cached [`LivenessHandle`] turns the per-datagram arena lock of the
/// hot receive path into one binary search over this slab. Retention is
/// bounded by the workstation universe — destinations are configured
/// peers — not by churn.
#[derive(Debug)]
struct PeerEntry {
    /// Highest incarnation observed from the peer; `None` until the first
    /// incarnation-carrying message arrives.
    incarnation: Option<u64>,
    /// Next node-level ALIVE sequence number towards the peer: one
    /// heartbeat stream per peer link, whichever groups ride on it.
    ///
    /// Never reset: a receiver — even a freshly restarted one — may have
    /// already recorded a few of our high pre-reset sequence numbers, and
    /// a stream restarting at 0 then reads as catastrophic loss on its
    /// link estimator, cranking the requested heartbeat rate to the floor.
    node_seq: u64,
    /// Cached handle to the peer's shared liveness record in the
    /// workstation arena; keeps the hot path off the arena mutex.
    liveness: LivenessHandle,
    /// The version of the peer's full list (of `incarnation`) last applied.
    applied: Option<u64>,
    /// The applied list no longer covers what this node should know (a local
    /// group created, a member expired or left since): pull at any version.
    resync: bool,
    /// When the peer's latest current HELLO arrived: a digest touches no
    /// group state, it vouches here for every member `listed_at` `applied`.
    hello_heard: SimInstant,
    /// The last ALIVE batch applied from the peer. A datagram repeating it
    /// touches no group state: it advances `alive_heard` and the peer's
    /// freshness stamp in the arena, which the monitors it vouches for read.
    alive_batch: Vec<GroupAlive>,
    /// Repeating `alive_batch` could miss something (a suspicion to revive
    /// from, an entry of the peer created or removed, a local join or
    /// leave): apply the next batch whatever it says.
    alive_resync: bool,
    /// When the peer's latest ALIVE datagram arrived: it vouches for the
    /// member entry of every group `alive_batch` lists.
    alive_heard: SimInstant,
    /// The groups whose failure detector monitors the peer, ascending: what
    /// a walk of the peer's detector timer visits.
    fd_groups: Vec<GroupId>,
    /// When the peer's detector timer is armed, if it is.
    fd_armed: Option<SimInstant>,
    /// What the peer's monitors need next, as of the last walk. `None` once
    /// a monitor of the peer was created, reset or removed, or a batch was
    /// applied, since. Nothing else moves a monitor: (η, δ) only move in a
    /// check, and every check of the peer's monitors is in its walk.
    fd_wake: Option<Wake>,
    /// The groups whose member table lists the peer, ascending: what a
    /// HELLO tick walking the peer visits.
    member_groups: Vec<GroupId>,
    /// When the peer's member entries can first expire, as of the last
    /// walk. `None` once an entry was created or removed, or a stamp stopped
    /// vouching for one (a list moved `applied` or an entry's `listed_at`,
    /// a batch was applied), since.
    member_wake: Option<MemberWake>,
}

/// When a peer's member entries can first expire, as a function of the
/// peer's two stamps. Per vouch class — no stamp, the digest only, the ALIVE
/// datagram only, both — it holds the earliest own `last_heard` of the
/// peer's entries in that class. An entry is heard at the latest of its own
/// account and the stamps vouching for it, so the earliest of a class is
/// its floor raised to its stamps. Stamps and `last_heard` only move
/// forward, and whatever moves an entry between classes drops the wake, so
/// the instant it gives never runs ahead of any entry.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MemberWake([SimInstant; 4]);

impl MemberWake {
    const NEVER: MemberWake = MemberWake([SimInstant::FAR_FUTURE; 4]);

    /// Notes an entry heard at `own` on its own account, vouched for by the
    /// digest and the ALIVE datagram as `(hello, alive)` says.
    fn note(&mut self, (hello, alive): (bool, bool), own: SimInstant) {
        let floor = &mut self.0[usize::from(hello) | usize::from(alive) << 1];
        *floor = (*floor).min(own);
    }

    /// The earliest any of the entries is heard at, given the stamps.
    fn heard(&self, hello: SimInstant, alive: SimInstant) -> SimInstant {
        let [none, by_hello, by_alive, by_both] = self.0;
        none.min(by_hello.max(hello))
            .min(by_alive.max(alive))
            .min(by_both.max(hello).max(alive))
    }
}

impl PeerEntry {
    /// Which of the peer's stamps vouch for its entry `member` in `group`:
    /// `(the digest — the applied list names the group, the ALIVE datagram —
    /// the applied batch lists it)`.
    fn vouches(&self, group: GroupId, member: &MemberEntry) -> (bool, bool) {
        let hello = member.listed_at.is_some() && member.listed_at == self.applied;
        let alive = self.alive_batch.iter().any(|alive| alive.group == group);
        (hello, alive)
    }

    /// When the peer's entry `member` in `group` was last heard from: on its
    /// own account or by a stamp vouching for it, whichever is latest.
    fn heard(&self, group: GroupId, member: &MemberEntry) -> SimInstant {
        let (hello, alive) = self.vouches(group, member);
        let mut heard = member.last_heard;
        if hello {
            heard = heard.max(self.hello_heard);
        }
        if alive {
            heard = heard.max(self.alive_heard);
        }
        heard
    }

    /// Whether none of the peer's member entries can be quiet past `timeout`
    /// at `now`: it has none, or its cached wake says so.
    fn member_quiet(&self, now: SimInstant, timeout: SimDuration) -> bool {
        let quiet = |wake: MemberWake| {
            now.saturating_since(wake.heard(self.hello_heard, self.alive_heard)) <= timeout
        };
        self.member_groups.is_empty() || self.member_wake.is_some_and(quiet)
    }

    /// `group`'s member table lists the peer from now on.
    fn member_index(&mut self, group: GroupId) {
        if let Err(i) = self.member_groups.binary_search(&group) {
            self.member_groups.insert(i, group);
        }
        self.member_wake = None;
    }

    /// `group`'s member table no longer lists the peer.
    fn member_unindex(&mut self, group: GroupId) {
        if let Ok(i) = self.member_groups.binary_search(&group) {
            self.member_groups.remove(i);
        }
        self.member_wake = None;
    }

    /// `group`'s detector monitors the peer from now on.
    fn fd_index(&mut self, group: GroupId) {
        if let Err(i) = self.fd_groups.binary_search(&group) {
            self.fd_groups.insert(i, group);
        }
        self.fd_wake = None;
    }

    /// `group`'s detector no longer monitors the peer.
    fn fd_unindex(&mut self, group: GroupId) {
        if let Ok(i) = self.fd_groups.binary_search(&group) {
            self.fd_groups.remove(i);
        }
        self.fd_wake = None;
    }
}

#[derive(Debug, Default)]
struct PeerSlab {
    /// Sorted `(peer id, slot)` index into `entries`.
    index: Vec<(u32, u32)>,
    entries: Vec<PeerEntry>,
}

impl PeerSlab {
    /// The slot for `peer`, creating its entry (and its arena record) on
    /// first contact.
    fn intern(&mut self, peer: NodeId, arena: &MonitorArena) -> usize {
        match self.index.binary_search_by_key(&peer.0, |&(id, _)| id) {
            Ok(i) => self.index[i].1 as usize,
            Err(i) => {
                let slot = self.entries.len();
                self.entries.push(PeerEntry {
                    incarnation: None,
                    node_seq: 0,
                    liveness: arena.slot(peer),
                    applied: None,
                    resync: false,
                    hello_heard: SimInstant::ZERO,
                    alive_batch: Vec::new(),
                    alive_resync: false,
                    alive_heard: SimInstant::ZERO,
                    fd_groups: Vec::new(),
                    fd_armed: None,
                    fd_wake: None,
                    member_groups: Vec::new(),
                    member_wake: None,
                });
                self.index.insert(i, (peer.0, slot as u32));
                slot
            }
        }
    }

    /// The slot of `peer`, if it was ever contacted.
    fn find(&self, peer: NodeId) -> Option<usize> {
        let i = self.index.binary_search_by_key(&peer.0, |&(id, _)| id);
        i.ok().map(|i| self.index[i].1 as usize)
    }

    /// `peer`'s entry, created on first contact.
    fn entry(&mut self, peer: NodeId, arena: &MonitorArena) -> &mut PeerEntry {
        let slot = self.intern(peer, arena);
        &mut self.entries[slot]
    }

    /// When `member` was last heard from for `group`: by the ALIVEs and
    /// HELLO lists applied to it, by the peer's latest digest while the
    /// peer's applied list names the group, or by the peer's latest ALIVE
    /// datagram while its applied batch does — whichever is latest.
    fn last_heard(&self, group: GroupId, member: &MemberEntry) -> SimInstant {
        self.find(member.peer).map_or(member.last_heard, |slot| {
            self.entries[slot].heard(group, member)
        })
    }
}

/// A node's ALIVE path counters (`node.<n>.alive.*` in the registry).
#[derive(Debug, Default)]
pub struct AliveCounters {
    /// ALIVE datagrams that repeated the sender's applied batch: one stamp.
    pub unchanged: sle_obs::Counter,
    /// ALIVE datagrams applied entry by entry (changed, or after a resync).
    pub applied: sle_obs::Counter,
    /// Times the ALIVE tick rebuilt its fan-out plan instead of reusing it.
    pub plan_rebuilds: sle_obs::Counter,
}

/// A node's failure-detector timer counters (`node.<n>.fd.*` in the
/// registry).
#[derive(Debug, Default)]
pub struct FdCounters {
    /// Per-peer detector timers that fired.
    pub fires: sle_obs::Counter,
    /// Fires that checked the peer's monitor in every group; the others
    /// re-armed from the peer's cached [`Wake`] without touching a group.
    pub walks: sle_obs::Counter,
}

/// One send grid of the cached ALIVE plan: groups that fan out together
/// (same due time, same interval), with what each destination gets.
#[derive(Debug, Clone, PartialEq, Default)]
struct AliveGrid {
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

/// A node's HELLO gossip counters ([`ServiceNode::hello_counters`];
/// `node.<n>.hello.*` in the registry once instruments are attached).
#[derive(Debug, Default)]
pub struct HelloCounters {
    /// Full announcement lists sent (answers to pulls).
    pub full_sent: sle_obs::Counter,
    /// List-less, pull-less HELLOs sent (the periodic digest, per peer).
    pub digest_sent: sle_obs::Counter,
    /// HELLOs sent with the pull flag set.
    pub pulls_sent: sle_obs::Counter,
    /// HELLOs dropped for an `(incarnation, version)` below the applied one.
    pub stale_ignored: sle_obs::Counter,
    /// Peers whose groups a HELLO tick walked for membership expiry; the
    /// tick skipped the others on their cached member wake without touching
    /// a group.
    pub member_walks: sle_obs::Counter,
}

/// What `me` announces about `state`'s group in its HELLO lists.
fn announcement(me: NodeId, state: &GroupState) -> GroupAnnouncement {
    GroupAnnouncement {
        group: state.group,
        processes: state
            .local_processes
            .iter()
            .map(|&(local, candidate)| (ProcessId::new(me, local), candidate))
            .collect(),
    }
}

/// What `check_leader` makes of a group at some instant.
struct LeaderView {
    /// The leader to announce.
    leader: Option<ProcessId>,
    /// The end of the self-election grace period, when it withheld this
    /// node's own claim.
    withheld: Option<SimInstant>,
    /// The token to mint: this node leads, has settled, and holds no lease
    /// that still dominates.
    mint: Option<FencingToken>,
}

/// The leadership `me` (of incarnation `incarnation`) sees in `state` at
/// `now`, without acting on it.
fn leader_view(me: NodeId, incarnation: u64, state: &GroupState, now: SimInstant) -> LeaderView {
    let mut leader = state.leader_process(me, state.elector.leader());
    let mut withheld = None;
    // A freshly (re)joined candidate does not claim the leadership for
    // itself until the grace period elapses: it first listens for an
    // incumbent leader, which keeps rejoining workstations from briefly
    // disrupting the group's agreement.
    if let Some(claimed) = leader {
        let grace_ends = state.joined_at + state.self_election_grace();
        if claimed.node == me && now < grace_ends {
            leader = None;
            withheld = Some(grace_ends);
        }
    }
    // Settle delay: only a node that has led *continuously* for one lease
    // term (`T_D`) mints. A transient claimant yields before the delay
    // elapses and never serves, and by the time a genuine successor starts
    // serving, the deposed leader's lease (TTL `T_D`, no longer renewed) has
    // already lapsed — so two leases are never simultaneously valid.
    let leads = leader.is_some_and(|l| l.node == me);
    let settled = now >= state.led_since.unwrap_or(now) + state.qos.detection_time();
    let mut mint = None;
    if leads && settled {
        let natural = FencingToken {
            accusation_time: state.elector.accusation_time(),
            node: me,
            epoch: state.elector.epoch(),
            incarnation,
        };
        // The issued token must strictly dominate every token this node has
        // granted or observed for the group. A transiently self-elected
        // claimant broadcasts a token that orders *above* ours (its later
        // accusation time is a worse rank but a higher token); unless the
        // rightful leader out-mints it after the claimant yields, every app
        // that observed the claimant's grant would fence-reject the rightful
        // leader's writes forever.
        let observed = state.remote_lease.as_ref().map(|l| l.token);
        let needs_mint = match &state.lease {
            None => true,
            Some(lease) => {
                natural > lease.token
                    || (natural.epoch, natural.incarnation)
                        != (lease.token.epoch, lease.token.incarnation)
                    || observed.is_some_and(|o| o >= lease.token)
            }
        };
        if needs_mint {
            let mut token = natural;
            for floor in [state.lease.as_ref().map(|l| l.token), observed]
                .into_iter()
                .flatten()
            {
                if token <= floor {
                    token.accusation_time = floor.accusation_time + SimDuration::from_nanos(1);
                }
            }
            mint = Some(token);
        }
    }
    LeaderView {
        leader,
        withheld,
        mint,
    }
}

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
    /// pull of a version and shared by every later one.
    hello_list: Option<Arc<[GroupAnnouncement]>>,
    hello: HelloCounters,
    next_local_process: u32,
    registered: BTreeMap<u32, ProcessId>,
    /// Per-group state in dense slots, indexed by interned group id.
    groups: GroupTable,
    /// Node-level per-peer state (incarnation, heartbeat sequence, cached
    /// liveness handle) in dense slots, indexed by interned peer id.
    peers: PeerSlab,
    /// The workstation-wide liveness arena: one link estimate per peer,
    /// shared by every group's failure detector (paper Figure 2's single
    /// Failure Detector module per workstation).
    arena: MonitorArena,
    /// Moves whenever something the ALIVE plan embeds may have: an elector's
    /// payload or competing flag, local candidacy, a group's membership, an
    /// interval a member asked for, which groups this node leads. (What the
    /// monitors themselves ask for moves the arena's epoch.)
    alive_epoch: u64,
    /// The cached ALIVE fan-out, and the `(alive_epoch, arena params epoch)`
    /// it was built at.
    alive_plan: (Option<(u64, u64)>, Vec<AliveGrid>),
    alive: AliveCounters,
    fd: FdCounters,
    /// Per-group ALIVE payloads handed to the transport (batch entries
    /// count individually). A live counter handle so that attaching
    /// instruments makes it a registry view instead of a second account.
    alive_payloads_sent: sle_obs::Counter,
    /// ALIVE datagrams handed to the transport (a batch counts once).
    alive_datagrams_sent: sle_obs::Counter,
    /// Live QoS instruments and protocol trace, when attached by the
    /// driving runtime ([`ServiceNode::set_instruments`]). `None` — the
    /// default — costs one branch per instrumentation point.
    obs: Option<NodeInstruments>,
    /// The fenced state machine served while this node leads a group with a
    /// valid lease ([`ServiceNode::install_app`]).
    app: Option<Box<dyn FencedApp>>,
    /// Whether the ALIVE tick broadcasts `LeaseGrant`s for held leases.
    /// Enabled by [`ServiceNode::install_app`], so deployments without an
    /// application tier pay no extra traffic.
    lease_broadcast: bool,
    /// ACCUSE messages dropped because their epoch predates the elector's
    /// current one (a duplicated or delayed replay).
    stale_accusations_ignored: sle_obs::Counter,
    /// Leader leases minted (a new token taking effect).
    leases_minted: sle_obs::Counter,
    /// Lease renewals performed on the ALIVE tick.
    lease_renewals: sle_obs::Counter,
    /// Client requests applied by the installed app.
    requests_applied: sle_obs::Counter,
    /// Client requests the installed app rejected as stale-fenced.
    requests_rejected: sle_obs::Counter,
    /// Client requests answered with a redirect instead of being served.
    requests_redirected: sle_obs::Counter,
}

impl ServiceNode {
    /// Creates a service instance from its configuration.
    pub fn new(config: ServiceConfig) -> Self {
        ServiceNode {
            config,
            incarnation: 0,
            hello_version: 0,
            hello_list: None,
            hello: HelloCounters::default(),
            next_local_process: 0,
            registered: BTreeMap::new(),
            groups: GroupTable::default(),
            peers: PeerSlab::default(),
            arena: MonitorArena::new(),
            alive_epoch: 0,
            alive_plan: (None, Vec::new()),
            alive: AliveCounters::default(),
            fd: FdCounters::default(),
            alive_payloads_sent: sle_obs::Counter::new(),
            alive_datagrams_sent: sle_obs::Counter::new(),
            obs: None,
            app: None,
            lease_broadcast: false,
            stale_accusations_ignored: sle_obs::Counter::new(),
            leases_minted: sle_obs::Counter::new(),
            lease_renewals: sle_obs::Counter::new(),
            requests_applied: sle_obs::Counter::new(),
            requests_rejected: sle_obs::Counter::new(),
            requests_redirected: sle_obs::Counter::new(),
        }
    }

    /// Attaches live observability instruments: QoS histograms recorded
    /// under this node's registry names, protocol events pushed into the
    /// given trace ring, and the node's own traffic counters bound into the
    /// registry as views. Runtimes call this right after construction;
    /// without it, every instrumentation point is a single `None` branch.
    pub fn set_instruments(&mut self, instruments: NodeInstruments) {
        instruments.bind_node_counter("net.alive_payloads_sent", &self.alive_payloads_sent);
        instruments.bind_node_counter("net.alive_datagrams_sent", &self.alive_datagrams_sent);
        instruments.bind_node_counter("hello.full_sent", &self.hello.full_sent);
        instruments.bind_node_counter("hello.digest_sent", &self.hello.digest_sent);
        instruments.bind_node_counter("hello.pulls_sent", &self.hello.pulls_sent);
        instruments.bind_node_counter("hello.stale_ignored", &self.hello.stale_ignored);
        instruments.bind_node_counter("hello.member_walks", &self.hello.member_walks);
        instruments.bind_node_counter("alive.unchanged", &self.alive.unchanged);
        instruments.bind_node_counter("alive.applied", &self.alive.applied);
        instruments.bind_node_counter("alive.plan_rebuilds", &self.alive.plan_rebuilds);
        instruments.bind_node_counter("fd.fires", &self.fd.fires);
        instruments.bind_node_counter("fd.walks", &self.fd.walks);
        instruments.bind_node_counter(
            "elect.stale_accusations_ignored",
            &self.stale_accusations_ignored,
        );
        instruments.bind_node_counter("app.leases_minted", &self.leases_minted);
        instruments.bind_node_counter("app.lease_renewals", &self.lease_renewals);
        instruments.bind_node_counter("app.requests_applied", &self.requests_applied);
        instruments.bind_node_counter("app.requests_rejected", &self.requests_rejected);
        instruments.bind_node_counter("app.requests_redirected", &self.requests_redirected);
        self.obs = Some(instruments);
    }

    /// The attached instruments, if any.
    pub fn instruments(&self) -> Option<&NodeInstruments> {
        self.obs.as_ref()
    }

    /// Installs the fenced state machine this node serves while leading.
    ///
    /// Installing an app also enables `LeaseGrant` broadcasts on the ALIVE
    /// tick, so the other members' apps learn new fencing tokens promptly.
    pub fn install_app(&mut self, app: Box<dyn FencedApp>) {
        self.app = Some(app);
        self.lease_broadcast = true;
    }

    /// Whether a fenced state machine is installed.
    pub fn has_app(&self) -> bool {
        self.app.is_some()
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

    /// ACCUSE messages dropped because their epoch predated the elector's
    /// current one — each is a duplicated or delayed replay that would have
    /// destabilised a settled leader before the stale-epoch guard existed.
    pub fn stale_accusations_ignored(&self) -> u64 {
        self.stale_accusations_ignored.get()
    }

    /// Client requests served by the installed app under a valid lease.
    pub fn client_requests_applied(&self) -> u64 {
        self.requests_applied.get()
    }

    /// Client requests the installed app rejected for a stale fencing token.
    pub fn client_requests_rejected(&self) -> u64 {
        self.requests_rejected.get()
    }

    /// Client requests answered with a redirect (not leading, no valid
    /// lease, or no app installed).
    pub fn client_requests_redirected(&self) -> u64 {
        self.requests_redirected.get()
    }

    /// Leader leases minted (leaderships taken, or token changes while
    /// leading).
    pub fn leases_minted(&self) -> u64 {
        self.leases_minted.get()
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
        self.groups.ids()
    }

    /// Number of peers with a live record in the workstation's shared
    /// liveness arena (after pruning records no group monitors any more).
    ///
    /// The node itself caches one handle per peer it ever exchanged
    /// heartbeats with, so the floor is the contacted-peer universe — group
    /// churn on top of it must neither grow the count nor reclaim a record
    /// a surviving group still uses.
    pub fn monitored_peer_count(&self) -> usize {
        self.arena.peer_count()
    }

    /// The current leader of `group` as seen by this instance (the "query"
    /// notification style of the paper).
    pub fn leader_of(&self, group: GroupId) -> Option<ProcessId> {
        let state = self.groups.get(group)?;
        state.leader_process(self.config.node, state.elector.leader())
    }

    /// Whether this node is currently competing (sending ALIVEs) in `group`.
    pub fn is_competing(&self, group: GroupId) -> bool {
        self.groups
            .get(group)
            .map(|g| g.should_send_alives())
            .unwrap_or(false)
    }

    /// The application processes of this workstation currently joined to
    /// `group`, in registration order.
    ///
    /// This is how external drivers (the chaos harness's mid-run
    /// leave/rejoin churn, management tooling) discover what there is to
    /// leave without keeping their own books.
    pub fn local_members_of(&self, group: GroupId) -> Vec<ProcessId> {
        self.groups
            .get(group)
            .map(|state| {
                state
                    .local_processes
                    .iter()
                    .map(|&(local, _)| ProcessId::new(self.config.node, local))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// This node's view of the remote membership of `group`: per member
    /// workstation (ascending), its processes and their candidate flags.
    pub fn remote_members_of(&self, group: GroupId) -> Vec<(NodeId, Vec<(ProcessId, bool)>)> {
        let state = self.groups.get(group);
        let members = state.into_iter().flat_map(|s| s.members.iter());
        members.map(|m| (m.peer, m.processes.clone())).collect()
    }

    /// The HELLO gossip counters.
    pub fn hello_counters(&self) -> &HelloCounters {
        &self.hello
    }

    /// The ALIVE path counters.
    pub fn alive_counters(&self) -> &AliveCounters {
        &self.alive
    }

    /// The failure-detector timer counters.
    pub fn fd_counters(&self) -> &FdCounters {
        &self.fd
    }

    /// Registers a new application process with this service instance and
    /// returns its identifier.
    pub fn register_process(&mut self) -> ProcessId {
        let local = self.next_local_process;
        self.next_local_process += 1;
        let process = ProcessId::new(self.config.node, local);
        self.registered.insert(local, process);
        process
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
        if process.node != self.config.node {
            return Err(ServiceError::ForeignProcess(process));
        }
        if !self.registered.contains_key(&process.local) {
            return Err(ServiceError::UnknownProcess(process));
        }
        let me = self.config.node;
        let algorithm = self.config.algorithm;
        let now = ctx.now();
        let arena = &self.arena;
        let peers = &mut self.peers;
        let state = self.groups.get_or_insert_with(group, || {
            let state = GroupState::new(group, me, algorithm, &join, arena, now);
            // Every applied announcement list skipped this group: re-pull.
            for peer in &mut peers.entries {
                peer.resync = true;
            }
            state
        });
        if state.upsert_local_process(process.local, join.candidate) {
            self.hello_version += 1;
            self.hello_list = None;
        }
        state.notification = join.notification;
        // Upgrading to candidate after having joined as a listener requires a
        // fresh elector (the accusation time starts now — a newcomer rank).
        // The accusation epoch must NOT restart: epochs already advertised on
        // the wire would become current again, letting a replayed old ACCUSE
        // demote this node after it re-won — and breaking fencing-token
        // monotonicity. Start one above the old elector's epoch instead.
        if join.candidate && !state.elector.is_candidate() {
            state.elector = sle_election::AnyElector::new_with_epoch(
                algorithm,
                me,
                true,
                now,
                state.elector.epoch() + 1,
            );
        }
        let grace_ends = state.joined_at + state.self_election_grace();
        ctx.set_timer_at(grace_tag(group), grace_ends);
        if let Ok(i) = self.groups.find(group) {
            self.groups.due[self.groups.index[i].1 as usize] = now + SimDuration::from_millis(5);
        }
        self.local_membership_changed();
        if let Some(obs) = &mut self.obs {
            obs.on_join(group, now);
        }
        self.arm_alive_timer(ctx);
        // Prompt discovery: announce only this group now (the full list per
        // join is quadratic in a burst); the next digest gets the rest pulled.
        if let Some(state) = self.groups.get(group) {
            let partial = HelloList::Partial(Arc::from([announcement(me, state)]));
            self.send_hello(self.config.remote_peers(), false, partial, ctx);
        }
        self.check_leader(group, ctx);
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
        for peer in state.members.peers() {
            ctx.send(peer, ServiceMessage::Leave { group, process });
        }
        if state.local_processes.is_empty() {
            if let Some(gone) = self.groups.remove(group) {
                for peer in gone.fd.peers() {
                    self.peers.entry(peer, &self.arena).fd_unindex(group);
                }
                for peer in gone.members.peers() {
                    self.peers.entry(peer, &self.arena).member_unindex(group);
                }
            }
            self.arm_alive_timer(ctx);
        } else {
            if !state.locally_candidate() && state.elector.is_candidate() {
                // The last local candidate left: stop competing. As on the
                // listener→candidate upgrade, preserve the accusation epoch
                // so replayed accusations from the candidate life stay stale.
                state.elector = sle_election::AnyElector::new_with_epoch(
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
        if let Some(obs) = &mut self.obs {
            obs.on_leave(group, ctx.now());
        }
        self.local_membership_changed();
        self.hello_version += 1;
        self.hello_list = None;
        self.send_hello(self.config.remote_peers(), false, HelloList::Omitted, ctx);
        Ok(())
    }

    /// A local join or leave: the ALIVE plan is stale, and no peer's repeated
    /// batch may skip feeding an elector that was created or replaced.
    fn local_membership_changed(&mut self) {
        self.alive_epoch += 1;
        for peer in &mut self.peers.entries {
            peer.alive_resync = true;
        }
    }

    /// The one HELLO send path: stamps a digest (`HelloList::Omitted`), pull,
    /// full list or partial with `(incarnation, version, now)` for each of `to`.
    fn send_hello(
        &self,
        to: impl Iterator<Item = NodeId>,
        pull: bool,
        announcements: HelloList,
        ctx: &mut ServiceContext,
    ) {
        let shape = match &announcements {
            HelloList::Full(_) => Some(&self.hello.full_sent),
            HelloList::Omitted if !pull => Some(&self.hello.digest_sent),
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
        if let Some(counter) = shape {
            counter.add(sent);
        }
        if pull {
            self.hello.pulls_sent.add(sent);
        }
    }

    /// Re-arms the per-node ALIVE tick at the earliest due time across all
    /// groups (or cancels it when the node is in no group).
    fn arm_alive_timer(&self, ctx: &mut ServiceContext) {
        let due = |&(_, slot): &(u32, u32)| self.groups.due[slot as usize];
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
        for gi in 0..self.groups.len() {
            let (group, gslot) = self.groups.pair(gi);
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
                        .unwrap_or_else(|| state.qos.detection_time().mul_f64(0.25)),
                    payload,
                    representative,
                };
                match grid.sends.binary_search_by_key(&dest, |send| send.0) {
                    Ok(i) => grid.sends[i].2.push(entry),
                    Err(i) => {
                        let pslot = self.peers.intern(dest, &self.arena) as u32;
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
    fn handle_alive_tick(&mut self, ctx: &mut ServiceContext) {
        let now = ctx.now();
        let key = Some((self.alive_epoch, self.arena.params_epoch()));
        let (built_at, mut grids) = std::mem::take(&mut self.alive_plan);
        if built_at != key {
            grids = self.build_alive_grids();
            self.alive.plan_rebuilds.inc();
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
        self.alive_payloads_sent.add(payloads);
        self.alive_datagrams_sent.add(datagrams);
        // Advance the due grids — always, so a node that re-enters the
        // competition resumes sending within one interval — snapped to the
        // node-wide grid of the interval (multiples of it since the node
        // started), so groups joined at staggered times converge onto a
        // shared phase after their first send and keep sharing datagrams.
        // The gap between consecutive sends never exceeds one interval, so
        // receivers' freshness horizons are unaffected.
        for grid in grids.iter_mut().filter(|grid| grid.due <= now) {
            // Never 0: `GroupState::send_interval` is floored.
            let step = grid.interval.as_nanos();
            grid.due = SimInstant::from_nanos((now.as_nanos() / step + 1) * step);
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

    /// Holding a lease and still sending ALIVEs is the leader's liveness
    /// evidence: renew for another T_D. A crashed leader stops ticking, so
    /// its last lease dies within T_D — before any survivor's detector can
    /// complete and elect a successor.
    ///
    /// A lease found expired is never revived: the tick came late (the
    /// wall-clock runtime resumes a paused node with its state) and a
    /// successor may be serving. The node re-enters the settle rule of
    /// `check_leader` as a non-holder and applies the accusation its
    /// silence earned — the followers' detectors share the bound T_D, and
    /// their ACCUSEs may have found it paused — so it neither takes the
    /// leadership back on its stale rank nor mints below the successor.
    ///
    /// Returns whether the group holds no lease: still waiting to mint, or
    /// its lease just dropped.
    fn renew_lease(&mut self, group: GroupId, ctx: &mut ServiceContext) -> bool {
        let now = ctx.now();
        let Some(state) = self.groups.get_mut(group) else {
            return false;
        };
        let sending = state.should_send_alives();
        let Some(lease) = state.lease.as_mut() else {
            return true;
        };
        if !sending {
            return false;
        }
        if !lease.valid_at(now) {
            state.lease = None;
            state.led_since = None;
            state.elector.on_accusation(state.elector.epoch(), now);
            self.alive_epoch += 1;
            return true;
        }
        lease.renewed_at = now;
        self.lease_renewals.inc();
        if self.lease_broadcast {
            let grant = ServiceMessage::LeaseGrant {
                group,
                token: lease.token,
                valid_for: lease.ttl,
            };
            for dest in state.members.peers() {
                ctx.send(dest, grant.clone());
            }
        }
        false
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
                bytes <= MAX_ALIVE_BATCH_BYTES
            });
            let rest = alives.split_off(fits.count().max(1));
            let entry = &mut self.peers.entries[pslot];
            let seq = entry.node_seq;
            entry.node_seq += 1;
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

    /// Per-group ALIVE payloads handed to the transport so far (batch
    /// entries count individually) — the figure the paper's message-count
    /// analysis is about: O(n) per group in steady state for S3, O(n²)
    /// for S2.
    pub fn alive_payloads_sent(&self) -> u64 {
        self.alive_payloads_sent.get()
    }

    /// ALIVE datagrams handed to the transport so far (a batch counts
    /// once); `alive_payloads_sent - alive_datagrams_sent` is the fan-out
    /// the batching saved.
    pub fn alive_datagrams_sent(&self) -> u64 {
        self.alive_datagrams_sent.get()
    }

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
        let entry = &mut self.peers.entries[pslot];
        if at == SimInstant::FAR_FUTURE || entry.fd_armed.is_some_and(|armed| armed <= at) {
            return;
        }
        entry.fd_armed = Some(at);
        ctx.set_timer_at(fd_tag(peer), at);
    }

    /// Arms `peer`'s detector timer no later than its monitor's deadline in
    /// `group`.
    fn arm_fd_deadline(
        &mut self,
        peer: NodeId,
        pslot: usize,
        group: GroupId,
        ctx: &mut ServiceContext,
    ) {
        let deadline = self.groups.get(group).and_then(|s| s.fd.deadline_of(peer));
        if let Some(at) = deadline {
            self.arm_fd_timer(peer, pslot, at, ctx);
        }
    }

    /// `group`'s detector just started monitoring `peer` afresh (created,
    /// or reset for a new incarnation).
    fn fd_monitor_added(&mut self, peer: NodeId, group: GroupId, ctx: &mut ServiceContext) {
        let pslot = self.peers.intern(peer, &self.arena);
        self.peers.entries[pslot].fd_index(group);
        self.arm_fd_deadline(peer, pslot, group, ctx);
    }

    fn check_leader(&mut self, group: GroupId, ctx: &mut ServiceContext) {
        let me = self.config.node;
        let now = ctx.now();
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        let view = leader_view(me, self.incarnation, state, now);
        // Adaptive tuning moves the grace period with (η, δ) — either way,
        // whenever a check re-derives them or the monitored set changes: the
        // end armed at join may no longer be the one.
        if let Some(grace_ends) = view.withheld {
            if state.fd.policy() == TuningPolicy::Adaptive {
                ctx.set_timer_at(grace_tag(group), grace_ends);
            }
        }
        // Lease upkeep: mint on taking the leadership (and whenever the
        // elector's rank or epoch moved, which changes the token), drop on
        // losing it. Renewals ride the ALIVE tick.
        let leader = view.leader;
        let leads = leader.is_some_and(|l| l.node == me);
        if leads != state.led_since.is_some() {
            self.alive_epoch += 1;
        }
        if leads {
            state.led_since.get_or_insert(now);
            if let Some(token) = view.mint {
                state.lease = Some(LeaderLease {
                    token,
                    renewed_at: now,
                    ttl: state.qos.detection_time(),
                });
                self.leases_minted.inc();
            }
        } else {
            state.lease = None;
            state.led_since = None;
        }
        if leader != state.announced_leader {
            state.announced_leader = leader;
            if let Some(obs) = &mut self.obs {
                obs.on_leader_change(group, leader, now);
            }
            ctx.emit(ServiceEvent::LeaderChanged { group, leader });
        }
    }

    /// Handles a possibly new incarnation of `peer`: if the peer restarted,
    /// all state learnt from its previous life is discarded.
    fn note_peer_incarnation(&mut self, peer: NodeId, incarnation: u64, ctx: &mut ServiceContext) {
        let slot = self.peers.intern(peer, &self.arena);
        let known = self.peers.entries[slot].incarnation;
        match known {
            Some(k) if incarnation <= k => return,
            _ => {}
        }
        let entry = &mut self.peers.entries[slot];
        entry.incarnation = Some(incarnation);
        // Whatever list or batch was applied belonged to the previous life.
        entry.applied = None;
        entry.alive_batch.clear();
        if known.is_none() {
            // First contact with this peer: nothing to reset.
            return;
        }
        // So did the link estimate, whether or not a group still lists the
        // peer: its loss window would count the new life's reused sequence
        // numbers as fresh arrivals. Once, for every group reading it.
        entry.liveness.reset();
        self.alive_epoch += 1;
        let now = ctx.now();
        // Every member entry of the previous life goes.
        let groups = std::mem::take(&mut entry.member_groups);
        entry.member_wake = None;
        for group in groups {
            let Some(state) = self.groups.get_mut(group) else {
                continue;
            };
            if state.members.remove(peer).is_some() {
                state.elector.remove_peer(peer, now);
                state.fd.reset_peer(peer, now);
                self.fd_monitor_added(peer, group, ctx);
                self.check_leader(group, ctx);
            }
        }
    }

    /// The one HELLO receive path. An unchanged digest — the steady state —
    /// is one peer-slab lookup and one store; anything else is checked for
    /// staleness, applied if it carries a list, and answered if it must be.
    fn handle_hello(
        &mut self,
        from: NodeId,
        incarnation: u64,
        version: u64,
        pull: bool,
        announcements: HelloList,
        ctx: &mut ServiceContext,
    ) {
        let slot = self.peers.intern(from, &self.arena);
        let peer = &mut self.peers.entries[slot];
        let same_life = peer.incarnation == Some(incarnation);
        let mut behind = !(same_life && peer.applied == Some(version) && !peer.resync);
        if behind {
            // From a previous life or below the applied version: a delayed
            // or duplicated copy that would resurrect processes that left.
            if peer.incarnation.is_some_and(|known| incarnation < known)
                || (same_life && peer.applied.is_some_and(|applied| version < applied))
            {
                self.hello.stale_ignored.inc();
                return;
            }
            self.note_peer_incarnation(from, incarnation, ctx);
        }
        let heard = std::mem::replace(&mut self.peers.entries[slot].hello_heard, ctx.now());
        if let (true, Some(list)) = (behind, announcements.announcements()) {
            // Only a full list advances the applied version. A partial is
            // no reason to pull either: the sender's next digest is.
            if matches!(announcements, HelloList::Full(_)) {
                let peer = &mut self.peers.entries[slot];
                let moved = peer.applied.filter(|&applied| applied != version);
                (peer.applied, peer.resync) = (Some(version), false);
                if let Some(unvouched) = moved {
                    self.fold_hello_vouch(from, slot, unvouched, heard);
                }
            }
            behind = false;
            self.apply_announcements(from, slot, incarnation, version, list, ctx);
        }
        if pull {
            let me = self.config.node;
            let list = self
                .hello_list
                .get_or_insert_with(|| self.groups.iter().map(|s| announcement(me, s)).collect())
                .clone();
            self.send_hello(std::iter::once(from), behind, HelloList::Full(list), ctx);
        } else if behind {
            self.send_hello(std::iter::once(from), true, HelloList::Omitted, ctx);
        }
    }

    /// `from`'s applied list (peer slot `slot`) moves on from version
    /// `unvouched`: every entry that version named keeps what the peer's
    /// digests bought it, up to `heard`, before they stop vouching for it —
    /// an entry the new list does not name then ages out on its own account.
    fn fold_hello_vouch(&mut self, from: NodeId, slot: usize, unvouched: u64, heard: SimInstant) {
        let entry = &mut self.peers.entries[slot];
        entry.member_wake = None;
        for &group in &entry.member_groups {
            let member = (self.groups.get_mut(group)).and_then(|s| s.members.get_mut(from));
            if let Some(member) = member.filter(|m| m.listed_at == Some(unvouched)) {
                member.last_heard = member.last_heard.max(heard);
            }
        }
    }

    /// Applies `from`'s (peer slot `slot`) full or partial list to the groups
    /// this node is in, stamping every named entry with the list's version.
    /// Groups the list does not name are left alone: their entries age out.
    fn apply_announcements(
        &mut self,
        from: NodeId,
        slot: usize,
        incarnation: u64,
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
            let has_candidate = announcement.processes.iter().any(|(_, c)| *c);
            let (member, created) = state.members.ensure(from, incarnation, now);
            let peer = &mut self.peers.entries[slot];
            if created {
                peer.member_index(group);
            }
            // Overtaken on the way by a later partial of the same life.
            if member.listed_at.is_some_and(|at| at > version) {
                continue;
            }
            // Being named refreshes the entry outright, but whether the
            // peer's digests vouch for it may change with its version.
            if member.listed_at != Some(version) {
                peer.member_wake = None;
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
            if !created
                && member.incarnation == incarnation
                && member.processes == announcement.processes
                && (member.representative.is_none()
                    || member.representative == fallback_representative)
            {
                continue;
            }
            member.incarnation = incarnation;
            member.processes = announcement.processes.clone();
            // A HELLO's process list supersedes any representative a
            // previous ALIVE advertised; consumers fall back to the first
            // announced candidate (`MemberEntry::representative_process`).
            member.representative = None;
            let watch = has_candidate && state.fd.state(from).is_none();
            if watch {
                state.fd.ensure_peer(from, now);
            }
            self.alive_epoch += 1;
            self.peers.entries[slot].alive_resync = true;
            if watch {
                self.fd_monitor_added(from, group, ctx);
            }
            self.check_leader(group, ctx);
        }
    }

    /// The one ALIVE receive path (a single `Alive` is a batch of one). A
    /// datagram repeating the batch last applied from the sender — the
    /// steady state — is the node-level accounting plus one store into the
    /// sender's freshness stamp. Anything else, or anything after
    /// `alive_resync` was set, is applied entry by entry and kept to repeat.
    fn handle_alives(
        &mut self,
        from: NodeId,
        incarnation: u64,
        seq: u64,
        sent_at: SimInstant,
        alives: Vec<GroupAlive>,
        ctx: &mut ServiceContext,
    ) {
        let now = ctx.now();
        let slot = self.peers.intern(from, &self.arena);
        let known = self.peers.entries[slot].incarnation;
        if known != Some(incarnation) {
            // A previous life's heartbeat says nothing about the current one.
            if known.is_some_and(|known| incarnation < known) {
                return;
            }
            self.note_peer_incarnation(from, incarnation, ctx);
        }
        self.note_alive_datagram(from, slot, seq, sent_at, now);
        let peer = &mut self.peers.entries[slot];
        let heard = std::mem::replace(&mut peer.alive_heard, now);
        if !peer.alive_resync && peer.alive_batch == alives {
            self.alive.unchanged.inc();
            self.arena.stamp(&peer.liveness, sent_at, false);
            return;
        }
        self.alive.applied.inc();
        peer.alive_resync = false;
        (peer.fd_wake, peer.member_wake) = (None, None);
        // Every monitor and member entry the old batch vouched for keeps
        // what the stamp bought it, and the stamp restarts: a group the new
        // batch drops then ages out on its own horizon.
        for dropped in std::mem::take(&mut peer.alive_batch) {
            if let Some(state) = self.groups.get_mut(dropped.group) {
                state.fd.unvouch(from);
                if let Some(member) = state.members.get_mut(from) {
                    member.last_heard = member.last_heard.max(heard);
                }
            }
        }
        self.arena
            .stamp(&self.peers.entries[slot].liveness, sent_at, true);
        for alive in &alives {
            self.apply_group_alive(from, slot, incarnation, seq, sent_at, alive, ctx);
        }
        self.peers.entries[slot].alive_batch = alives;
    }

    /// Node-level accounting of one incoming ALIVE datagram, before the
    /// per-group dispatch. The heartbeat sequence is a *node-level*
    /// per-destination stream, so every consumer of sequence numbers must
    /// see every datagram of the stream, not just the subset carrying its
    /// own group — a group observing a sparser view would infer phantom
    /// loss from the sequence numbers consumed by its siblings (or, after
    /// a lost LEAVE, by groups this node is no longer even in). The shared
    /// arena records the sample once (the per-group monitors' recordings
    /// dedup against it): the one link estimate every group's (η, δ) follow,
    /// whatever its tuning policy.
    fn note_alive_datagram(
        &mut self,
        from: NodeId,
        slot: usize,
        seq: u64,
        sent_at: SimInstant,
        now: SimInstant,
    ) {
        // The slab's cached handle keeps this off the arena mutex.
        self.peers.entries[slot].liveness.record(seq, sent_at, now);
        if let Some(obs) = &mut self.obs {
            obs.on_alive_datagram(from, now);
        }
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
            member.processes = vec![(alive.representative, true)];
            self.peers.entries[pslot].member_index(group);
        }
        let representative_changed = member.representative != Some(alive.representative);
        member.representative = Some(alive.representative);
        let asked = member.requested_interval.replace(alive.requested_interval);
        let leader_before = state.elector.leader();
        let watched = state.fd.state(from).is_some();
        // The measurement side of this heartbeat (the link estimator) was
        // already fed at node level by `note_alive_datagram`; the monitor's
        // own recording dedups against it.
        let transition = state
            .fd
            .on_heartbeat(from, seq, sent_at, alive.sending_interval, now);
        let mut revived = false;
        if let Some(t) = transition {
            if t.transition == Transition::BecameTrusted {
                // A revival of a suspected peer: the suspicion was a
                // detector mistake (the paper's T_MR numerator).
                revived = true;
                if let Some(obs) = &mut self.obs {
                    obs.on_mistake(group, now);
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
            self.peers.entries[pslot].alive_resync = true;
        }
        // A heartbeat only *extends* the sender's freshness horizon: the
        // peer's timer needs moving only for a monitor that had no
        // deadline before (new, or suspected until now).
        if !watched {
            self.fd_monitor_added(from, group, ctx);
        } else if revived || self.peers.entries[pslot].fd_armed.is_none() {
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

    fn handle_accusation(&mut self, group: GroupId, epoch: u64, ctx: &mut ServiceContext) {
        let now = ctx.now();
        if let Some(state) = self.groups.get_mut(group) {
            // An ACCUSE below the elector's current epoch was minted against
            // a previous suspicion episode — or a previous elector life (the
            // chaos duplication machinery can replay one long after the
            // leader yielded and re-won). Honouring it would re-rank a
            // settled leader and forge a fencing-token regression. The
            // electors additionally require exact epoch equality; dropping
            // stale ones here makes replays observable as a counter.
            if epoch < state.elector.epoch() {
                self.stale_accusations_ignored.inc();
                return;
            }
            state.elector.on_accusation(epoch, now);
            self.alive_epoch += 1;
        }
        self.check_leader(group, ctx);
    }

    /// Serves one client-tier request: applied by the installed app while
    /// this node leads `group` under a valid lease, otherwise answered with
    /// a redirect carrying the current leader view.
    fn handle_client_request(
        &mut self,
        from: NodeId,
        group: GroupId,
        session: u64,
        seq: u64,
        payload: u64,
        ctx: &mut ServiceContext,
    ) {
        let now = ctx.now();
        let Some(state) = self.groups.get_mut(group) else {
            self.requests_redirected.inc();
            ctx.send(
                from,
                ServiceMessage::Redirect {
                    group,
                    session,
                    seq,
                    leader: None,
                },
            );
            return;
        };
        let lease = state.lease.filter(|lease| lease.valid_at(now));
        if let (Some(lease), Some(app)) = (lease, self.app.as_mut()) {
            let (applied, value) = match app.apply(group, lease.token, payload) {
                Ok(value) => {
                    self.requests_applied.inc();
                    (true, value)
                }
                Err(_stale) => {
                    self.requests_rejected.inc();
                    (false, 0)
                }
            };
            ctx.send(
                from,
                ServiceMessage::ClientReply {
                    group,
                    session,
                    seq,
                    applied,
                    value,
                    token: lease.token,
                },
            );
        } else {
            self.requests_redirected.inc();
            ctx.send(
                from,
                ServiceMessage::Redirect {
                    group,
                    session,
                    seq,
                    leader: state.announced_leader,
                },
            );
        }
    }

    /// Records a remote leader's lease broadcast and forwards the fencing
    /// token to the installed app, advancing its high-water mark ahead of
    /// the new leader's first write.
    fn handle_lease_grant(
        &mut self,
        group: GroupId,
        token: FencingToken,
        valid_for: SimDuration,
        ctx: &mut ServiceContext,
    ) {
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        // Track the *highest* grant seen: it answers client redirects and
        // floors this node's own future mints (see `check_leader`).
        if state.remote_lease.as_ref().is_none_or(|l| token >= l.token) {
            state.remote_lease = Some(LeaderLease {
                token,
                renewed_at: ctx.now(),
                ttl: valid_for,
            });
        }
        if let Some(app) = self.app.as_mut() {
            app.observe_token(group, token);
        }
        // A leading node that just observed a claimant's higher token must
        // immediately out-mint it to stay serviceable.
        self.check_leader(group, ctx);
    }

    fn handle_leave(
        &mut self,
        from: NodeId,
        group: GroupId,
        process: ProcessId,
        ctx: &mut ServiceContext,
    ) {
        let now = ctx.now();
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        let mut gone = false;
        if let Some(member) = state.members.get_mut(from) {
            let listed = member.processes.len();
            member.processes.retain(|(p, _)| *p != process);
            gone = member.processes.is_empty();
            if member.processes.len() != listed {
                // Unversioned: a late copy may have undone a rejoin the
                // applied list already showed. Pull to find out.
                self.peers.entry(from, &self.arena).resync = true;
            }
        }
        if gone {
            state.members.remove(from);
            state.elector.remove_peer(from, now);
            state.fd.remove_peer(from);
            self.alive_epoch += 1;
            let entry = self.peers.entry(from, &self.arena);
            entry.alive_resync = true;
            entry.fd_unindex(group);
            entry.member_unindex(group);
        }
        self.check_leader(group, ctx);
    }

    /// The HELLO tick: membership expiry, then the periodic digest. A peer
    /// whose cached member wake says none of its entries can be quiet past
    /// the membership timeout — the steady state — costs one comparison and
    /// touches no group. Any other peer's indexed groups are walked: an
    /// entry quiet on its own account folds the peer's stamps in, and
    /// expires if it is quiet by them too and the group's detector does not
    /// trust the peer; the survivors leave the new wake. Expiries are then
    /// applied group by group, in ascending group order.
    fn handle_hello_timer(&mut self, ctx: &mut ServiceContext) {
        let now = ctx.now();
        let timeout = self.config.membership_timeout;
        let mut expired: Vec<(GroupId, NodeId)> = Vec::new();
        for i in 0..self.peers.index.len() {
            let (peer, pslot) = (
                NodeId(self.peers.index[i].0),
                self.peers.index[i].1 as usize,
            );
            let entry = &self.peers.entries[pslot];
            if entry.member_quiet(now, timeout) {
                debug_assert!(
                    self.member_wake_holds(peer, pslot, now),
                    "late member wake of {peer}"
                );
                continue;
            }
            self.hello.member_walks.inc();
            let mut wake = MemberWake::NEVER;
            for &group in &entry.member_groups {
                let Some(state) = self.groups.get_mut(group) else {
                    continue;
                };
                let Some(member) = state.members.get_mut(peer) else {
                    continue;
                };
                if now.saturating_since(member.last_heard) > timeout {
                    // Quiet on its own account: fold the peer's digests and
                    // repeated batches in (here, once per timeout — not on
                    // every datagram).
                    member.last_heard = entry.heard(group, member);
                    if now.saturating_since(member.last_heard) > timeout
                        && !state.fd.is_trusted(peer)
                    {
                        expired.push((group, peer));
                        continue;
                    }
                }
                wake.note(entry.vouches(group, member), member.last_heard);
            }
            self.peers.entries[pslot].member_wake = Some(wake);
        }
        expired.sort_unstable();
        for expiring in expired.chunk_by(|a, b| a.0 == b.0) {
            let group = expiring[0].0;
            if let Some(state) = self.groups.get_mut(group) {
                for &(_, peer) in expiring {
                    state.members.remove(peer);
                    state.elector.remove_peer(peer, now);
                    state.fd.remove_peer(peer);
                    // Should the peer come back at the applied version, pull.
                    let entry = self.peers.entry(peer, &self.arena);
                    (entry.resync, entry.alive_resync) = (true, true);
                    entry.fd_unindex(group);
                    entry.member_unindex(group);
                }
            }
            self.alive_epoch += 1;
            self.check_leader(group, ctx);
        }
        self.send_hello(self.config.remote_peers(), false, HelloList::Omitted, ctx);
        ctx.set_timer_after(HELLO_TIMER, self.config.hello_interval);
    }

    /// What a quiet HELLO tick relies on for `peer` (peer slot `pslot`): its
    /// index names exactly the groups listing it, and none of its entries is
    /// quiet past the membership timeout at `now`. Asserted in debug builds.
    fn member_wake_holds(&self, peer: NodeId, pslot: usize, now: SimInstant) -> bool {
        let entry = &self.peers.entries[pslot];
        let timeout = self.config.membership_timeout;
        self.groups.iter().all(|state| {
            let member = state.members.get(peer);
            let indexed = entry.member_groups.binary_search(&state.group).is_ok();
            let fresh =
                |m: &MemberEntry| now.saturating_since(entry.heard(state.group, m)) <= timeout;
            member.is_some() == indexed && member.is_none_or(fresh)
        })
    }

    /// `peer`'s detector timer. While the peer's stamp keeps every monitor
    /// of it ahead of `now` and none is due to re-derive (η, δ), the fire
    /// re-arms from the cached wake and touches no group. Otherwise it walks
    /// the groups monitoring the peer, checks that one monitor in each, acts
    /// on what changed, and caches the wake the checks leave.
    fn handle_fd_timer(&mut self, peer: NodeId, ctx: &mut ServiceContext) {
        let now = ctx.now();
        let Some(pslot) = self.peers.find(peer) else {
            return;
        };
        self.fd.fires.inc();
        let entry = &mut self.peers.entries[pslot];
        entry.fd_armed = None;
        let stamp = self.arena.stamp_of(&entry.liveness);
        if let Some(wake) = entry.fd_wake {
            if wake.quiet(stamp, now) {
                let at = wake.at(stamp);
                debug_assert!(self.fd_wake_holds(peer, pslot, at), "late wake of {peer}");
                self.arm_fd_timer(peer, pslot, at, ctx);
                return;
            }
        }
        self.fd.walks.inc();
        let mut wake = Wake::NEVER;
        let groups = std::mem::take(&mut self.peers.entries[pslot].fd_groups);
        for &group in &groups {
            let Some(state) = self.groups.get_mut(group) else {
                continue;
            };
            let Some(check) = state.fd.check_peer(peer, now) else {
                continue;
            };
            wake = wake.merge(check.wake);
            if check.transition == Some(Transition::BecameSuspected) {
                // The revival must be noticed: no repeat may skip it.
                self.peers.entries[pslot].alive_resync = true;
                self.alive_epoch += 1;
                if let Some(obs) = &mut self.obs {
                    // Detection latency T_D: silence since the suspected
                    // peer's last heartbeat or gossip.
                    let silent_for = (state.members.get(peer))
                        .map(|m| now.saturating_since(self.peers.last_heard(group, m)))
                        .unwrap_or_default();
                    obs.on_detection(group, silent_for, now);
                }
                for output in state.elector.on_suspect(peer, now) {
                    match output {
                        ElectorOutput::SendAccusation { to, epoch } => {
                            if let Some(obs) = &mut self.obs {
                                obs.on_accusation(group, to, now);
                            }
                            ctx.send(to, ServiceMessage::Accuse { group, epoch });
                        }
                    }
                }
            }
            // Adaptive tuning moves the self-election grace with (η, δ).
            let regraced = check.retuned && state.fd.policy() == TuningPolicy::Adaptive;
            if check.transition.is_some() || regraced {
                self.check_leader(group, ctx);
            }
        }
        let entry = &mut self.peers.entries[pslot];
        entry.fd_groups = groups;
        entry.fd_wake = Some(wake);
        self.arm_fd_timer(peer, pslot, wake.at(stamp), ctx);
    }

    /// What a quiet fire of `peer`'s detector timer relies on: the peer's
    /// index names exactly the groups monitoring it, and none of those
    /// monitors is due before `at`. Asserted in debug builds.
    fn fd_wake_holds(&self, peer: NodeId, pslot: usize, at: SimInstant) -> bool {
        let indexed = &self.peers.entries[pslot].fd_groups;
        self.groups.iter().all(|state| {
            let watched = state.fd.state(peer).is_some();
            watched == indexed.binary_search(&state.group).is_ok()
                && state.fd.deadline_of(peer).is_none_or(|due| due >= at)
        })
    }

    /// Whether `check_leader` would leave `group` exactly as it is at `now`:
    /// what the ALIVE tick relies on when it skips a leader that holds its
    /// lease. Asserted in debug builds.
    fn leader_settled(&self, group: GroupId, now: SimInstant) -> bool {
        let me = self.config.node;
        let Some(state) = self.groups.get(group) else {
            return true;
        };
        let view = leader_view(me, self.incarnation, state, now);
        let leads = view.leader.is_some_and(|l| l.node == me);
        view.leader == state.announced_leader
            && view.withheld.is_none()
            && view.mint.is_none()
            && leads == state.led_since.is_some()
            && (leads || state.lease.is_none())
    }

    /// The failure-detector operating parameters currently used towards
    /// `peer` in `group` (observability hook; also used by the experiment
    /// harness to verify adaptation).
    pub fn fd_params_of(&self, group: GroupId, peer: NodeId) -> Option<FdParams> {
        self.groups.get(group)?.fd.params(peer)
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
            let _ = self.join_group(process, auto.group, auto.config, ctx);
        }
        self.send_hello(self.config.remote_peers(), false, HelloList::Omitted, ctx);
        ctx.set_timer_after(HELLO_TIMER, self.config.hello_interval);
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
            ServiceMessage::Accuse { group, epoch } => self.handle_accusation(group, epoch, ctx),
            ServiceMessage::Leave { group, process } => {
                self.handle_leave(from, group, process, ctx)
            }
            ServiceMessage::LeaseGrant {
                group,
                token,
                valid_for,
            } => self.handle_lease_grant(group, token, valid_for, ctx),
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
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut ServiceContext) {
        if tag == HELLO_TIMER {
            self.handle_hello_timer(ctx);
            return;
        }
        if tag == ALIVE_TIMER {
            self.handle_alive_tick(ctx);
            return;
        }
        let id = (tag.0 & 0xFFFF_FFFF) as u32;
        match tag.0 >> 32 {
            FD_KIND => self.handle_fd_timer(NodeId(id), ctx),
            GRACE_KIND => {
                let group = GroupId(id);
                if let Some(obs) = &mut self.obs {
                    obs.on_grace_timer(ctx.now());
                }
                self.check_leader(group, ctx)
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sle_sim::prelude::*;

    const GROUP: GroupId = GroupId(1);

    fn build_world(
        n: usize,
        algorithm: ElectorKind,
        seed: u64,
    ) -> World<ServiceNode, PerfectMedium> {
        World::new(
            n,
            Box::new(move |node, _inc| {
                let config = ServiceConfig::full_mesh(node, n, algorithm)
                    .with_auto_join(GROUP, JoinConfig::candidate());
                ServiceNode::new(config)
            }),
            PerfectMedium,
            seed,
        )
    }

    fn agreed_leader<M: Medium>(
        world: &World<ServiceNode, M>,
        group: GroupId,
    ) -> Option<ProcessId> {
        let mut leader = None;
        for i in 0..world.num_nodes() {
            let node = NodeId(i as u32);
            if !world.is_up(node) {
                continue;
            }
            let view = world.actor(node)?.leader_of(group)?;
            match leader {
                None => leader = Some(view),
                Some(l) if l == view => {}
                _ => return None,
            }
        }
        leader
    }

    #[test]
    fn a_group_of_services_agrees_on_a_leader() {
        for algorithm in ElectorKind::all() {
            let mut world = build_world(4, algorithm, 7);
            let mut obs = NullObserver;
            world.run_for(SimDuration::from_secs(5), &mut obs);
            let leader = agreed_leader(&world, GROUP);
            assert!(leader.is_some(), "{algorithm}: no agreement after 5 s");
        }
    }

    #[test]
    fn leader_crash_triggers_reelection_within_seconds() {
        for algorithm in ElectorKind::all() {
            let mut world = build_world(4, algorithm, 11);
            let mut obs = NullObserver;
            world.run_for(SimDuration::from_secs(5), &mut obs);
            let leader = agreed_leader(&world, GROUP).expect("initial leader");

            world.schedule_crash(leader.node, world.now() + SimDuration::from_millis(10));
            world.run_for(SimDuration::from_secs(5), &mut obs);
            let new_leader = agreed_leader(&world, GROUP)
                .unwrap_or_else(|| panic!("{algorithm}: no new leader after crash"));
            assert_ne!(
                new_leader.node, leader.node,
                "{algorithm}: crashed node still leads"
            );
        }
    }

    #[test]
    fn stable_algorithms_keep_leader_when_smaller_id_rejoins() {
        // Crash node 0 (smallest id). Under S2/S3 its recovery must not
        // demote the incumbent; under S1 it must (that is the instability
        // the paper measures).
        for (algorithm, expect_demotion) in [
            (ElectorKind::OmegaId, true),
            (ElectorKind::OmegaLc, false),
            (ElectorKind::OmegaL, false),
        ] {
            let mut world = build_world(4, algorithm, 13);
            let mut obs = NullObserver;
            world.schedule_crash(NodeId(0), SimInstant::from_secs_f64(3.0));
            world.schedule_recovery(NodeId(0), SimInstant::from_secs_f64(20.0));
            world.run_for(SimDuration::from_secs(15), &mut obs);
            let leader_before = agreed_leader(&world, GROUP).expect("leader before rejoin");
            assert_ne!(leader_before.node, NodeId(0));

            world.run_for(SimDuration::from_secs(15), &mut obs);
            let leader_after = agreed_leader(&world, GROUP).expect("leader after rejoin");
            if expect_demotion {
                assert_eq!(leader_after.node, NodeId(0), "{algorithm}: S1 must demote");
            } else {
                assert_eq!(
                    leader_after, leader_before,
                    "{algorithm}: stable algorithm must not demote a healthy leader"
                );
            }
        }
    }

    #[test]
    fn omega_l_converges_to_a_single_sender() {
        let mut world = build_world(6, ElectorKind::OmegaL, 19);
        let mut obs = NullObserver;
        world.run_for(SimDuration::from_secs(10), &mut obs);
        let competing: Vec<NodeId> = (0..6)
            .map(|i| NodeId(i as u32))
            .filter(|&n| {
                world
                    .actor(n)
                    .map(|a| a.is_competing(GROUP))
                    .unwrap_or(false)
            })
            .collect();
        assert_eq!(
            competing.len(),
            1,
            "exactly one process should still send ALIVEs"
        );
        let leader = agreed_leader(&world, GROUP).unwrap();
        assert_eq!(leader.node, competing[0]);
    }

    #[test]
    fn omega_lc_keeps_every_candidate_sending() {
        let mut world = build_world(4, ElectorKind::OmegaLc, 23);
        let mut obs = NullObserver;
        world.run_for(SimDuration::from_secs(5), &mut obs);
        for i in 0..4 {
            assert!(world.actor(NodeId(i)).unwrap().is_competing(GROUP));
        }
    }

    #[test]
    fn join_and_leave_api_validation() {
        let config = ServiceConfig::full_mesh(NodeId(0), 2, ElectorKind::OmegaLc);
        let mut node = ServiceNode::new(config);
        let mut ctx = ServiceContext::new(SimInstant::ZERO, NodeId(0), 0);
        let foreign = ProcessId::new(NodeId(1), 0);
        assert_eq!(
            node.join_group(foreign, GROUP, JoinConfig::candidate(), &mut ctx),
            Err(ServiceError::ForeignProcess(foreign))
        );
        let unregistered = ProcessId::new(NodeId(0), 9);
        assert_eq!(
            node.join_group(unregistered, GROUP, JoinConfig::candidate(), &mut ctx),
            Err(ServiceError::UnknownProcess(unregistered))
        );
        let process = node.register_process();
        assert_eq!(
            node.leave_group(process, GROUP, &mut ctx),
            Err(ServiceError::NotJoined(process, GROUP))
        );
        assert!(node.local_members_of(GROUP).is_empty());
        assert!(node
            .join_group(process, GROUP, JoinConfig::candidate(), &mut ctx)
            .is_ok());
        assert_eq!(node.leader_of(GROUP), Some(process));
        assert_eq!(node.group_ids().collect::<Vec<_>>(), vec![GROUP]);
        assert_eq!(node.local_members_of(GROUP), vec![process]);
        assert!(node.leave_group(process, GROUP, &mut ctx).is_ok());
        assert_eq!(node.leader_of(GROUP), None);
        assert!(node.local_members_of(GROUP).is_empty());
        assert_eq!(node.algorithm(), ElectorKind::OmegaLc);
        assert_eq!(node.node_id(), NodeId(0));
    }

    #[test]
    fn listener_follows_without_becoming_leader() {
        let n = 3;
        let mut world: World<ServiceNode, PerfectMedium> = World::new(
            n,
            Box::new(move |node, _inc| {
                let join = if node == NodeId(2) {
                    JoinConfig::listener()
                } else {
                    JoinConfig::candidate()
                };
                let config = ServiceConfig::full_mesh(node, n, ElectorKind::OmegaL)
                    .with_auto_join(GROUP, join);
                ServiceNode::new(config)
            }),
            PerfectMedium,
            31,
        );
        let mut obs = NullObserver;
        world.run_for(SimDuration::from_secs(5), &mut obs);
        let leader = agreed_leader(&world, GROUP).expect("leader");
        assert_ne!(leader.node, NodeId(2), "a listener must never be elected");
        assert!(!world.actor(NodeId(2)).unwrap().is_competing(GROUP));
    }

    #[test]
    fn adaptive_tuning_tracks_latency_regimes_deterministically() {
        // A two-node group over a deterministic medium whose delay steps
        // 90 ms → 2 ms → 150 ms. The monitor's timeout shift δ
        // must shrink after the latency drop and grow after the spike.
        let n = 2;
        let medium = SteppedDelayMedium::new(SimDuration::from_millis(90))
            .with_step(SimInstant::from_secs_f64(20.0), SimDuration::from_millis(2))
            .with_step(
                SimInstant::from_secs_f64(40.0),
                SimDuration::from_millis(150),
            );
        let mut world: World<ServiceNode, SteppedDelayMedium> = World::new(
            n,
            Box::new(move |node, _inc| {
                let config = ServiceConfig::full_mesh(node, n, ElectorKind::OmegaLc)
                    .with_auto_join(GROUP, JoinConfig::candidate().with_adaptive_tuning());
                ServiceNode::new(config)
            }),
            medium,
            3,
        );
        let mut obs = NullObserver;
        let params_at = |world: &World<ServiceNode, SteppedDelayMedium>| {
            world
                .actor(NodeId(0))
                .unwrap()
                .fd_params_of(GROUP, NodeId(1))
                .expect("node 0 monitors node 1")
        };

        world.run_until(SimInstant::from_secs_f64(18.0), &mut obs);
        let slow = params_at(&world);
        // Tuned: the bound must already be below the static T_D^U = 1 s.
        assert!(slow.worst_case_detection() < SimDuration::from_secs(1));
        assert!(
            slow.shift > SimDuration::from_millis(90),
            "δ must clear the 90 ms delay"
        );

        world.run_until(SimInstant::from_secs_f64(38.0), &mut obs);
        let fast = params_at(&world);
        assert!(
            fast.shift < slow.shift,
            "δ must shrink after the latency drop: {} !< {}",
            fast.shift,
            slow.shift
        );

        world.run_until(SimInstant::from_secs_f64(58.0), &mut obs);
        let spiked = params_at(&world);
        assert!(
            spiked.shift > fast.shift,
            "δ must grow after the latency spike: {} !> {}",
            spiked.shift,
            fast.shift
        );
        assert!(
            spiked.shift > SimDuration::from_millis(150),
            "δ must clear the 150 ms delay"
        );

        // Throughout, both nodes keep agreeing on a leader (tuning must not
        // destabilise the election).
        assert!(agreed_leader(&world, GROUP).is_some());
    }

    /// Every `LeaderChanged` raised, as `(when, group, leader)`.
    #[derive(Default)]
    struct LeaderLog(Vec<(SimInstant, GroupId, Option<ProcessId>)>);

    impl Observer<ServiceEvent> for LeaderLog {
        fn event_emitted(&mut self, now: SimInstant, _node: NodeId, event: &ServiceEvent) {
            let ServiceEvent::LeaderChanged { group, leader } = *event;
            self.0.push((now, group, leader));
        }
    }

    #[test]
    fn a_static_and_an_adaptive_group_share_one_link_estimate() {
        // A rolling upgrade in miniature: the same two workstations share a
        // static and an adaptive group while the delay steps 90 → 2 → 150 ms.
        const STATIC: GroupId = GroupId(1);
        const ADAPTIVE: GroupId = GroupId(2);
        let t_d = SimDuration::from_secs(1);
        for algorithm in [ElectorKind::OmegaLc, ElectorKind::OmegaL] {
            let medium = SteppedDelayMedium::new(SimDuration::from_millis(90))
                .with_step(SimInstant::from_secs_f64(20.0), SimDuration::from_millis(2))
                .with_step(
                    SimInstant::from_secs_f64(40.0),
                    SimDuration::from_millis(150),
                );
            let mut world: World<ServiceNode, SteppedDelayMedium> = World::new(
                2,
                Box::new(move |node, _inc| {
                    let config = ServiceConfig::full_mesh(node, 2, algorithm)
                        .with_auto_join(STATIC, JoinConfig::candidate())
                        .with_auto_join(ADAPTIVE, JoinConfig::candidate().with_adaptive_tuning());
                    ServiceNode::new(config)
                }),
                medium,
                3,
            );
            let mut log = LeaderLog::default();
            // Whoever follows in a group monitors its leader.
            let bounds = |world: &World<ServiceNode, SteppedDelayMedium>| {
                [STATIC, ADAPTIVE].map(|group| {
                    let leader = agreed_leader(world, group).expect("leader").node;
                    let follower = NodeId(1 - leader.0);
                    (world.actor(follower).unwrap())
                        .fd_params_of(group, leader)
                        .expect("the follower monitors its leader")
                        .worst_case_detection()
                })
            };
            let mut adaptive_bounds = Vec::new();
            let mut leaders = Vec::new();
            for checkpoint in [18.0, 38.0, 58.0] {
                world.run_until(SimInstant::from_secs_f64(checkpoint), &mut log);
                let [pinned, tuned] = bounds(&world);
                assert_eq!(pinned, t_d, "{algorithm}: static η + δ at {checkpoint} s");
                adaptive_bounds.push(tuned);
                leaders.push([STATIC, ADAPTIVE].map(|group| agreed_leader(&world, group)));
            }
            // The adaptive group tightens and re-widens beside it.
            let [slow, fast, spiked] = adaptive_bounds[..] else {
                unreachable!()
            };
            assert!(slow < t_d, "{algorithm}: {slow}");
            assert!(fast < slow, "{algorithm}: {fast} !< {slow}");
            assert!(spiked > fast && spiked <= t_d, "{algorithm}: {spiked}");

            // The static group never so much as wavers: each node announces
            // its leader once. The adaptive one agrees on a leader at every
            // checkpoint and keeps it through the tightening; a link that
            // gets 75 times slower within one η outruns the bound tightened
            // for it, and the suspicions that costs (accusations included:
            // the leadership may move) end as soon as (η, δ) back off.
            assert!(leaders.iter().flatten().all(|l| l.is_some()), "{leaders:?}");
            assert_eq!(leaders[0], leaders[1], "{algorithm}");
            assert_eq!(leaders[0][0], leaders[2][0], "{algorithm}");
            let changes = |group| log.0.iter().filter(move |(_, g, _)| *g == group);
            assert_eq!(changes(STATIC).count(), 2, "{algorithm}: {:?}", log.0);
            let spike = SimInstant::from_secs_f64(40.0);
            let wavered: Vec<_> = changes(ADAPTIVE).skip(2).map(|(at, ..)| *at).collect();
            assert!(
                (wavered.iter()).all(|&at| at > spike && at < spike + t_d * 2),
                "{algorithm}: {:?}",
                log.0
            );

            // One arena record per peer, fed once per datagram however many
            // groups (and policies) read it.
            for node in [NodeId(0), NodeId(1)] {
                let actor = world.actor(node).unwrap();
                assert_eq!(actor.arena.peer_count(), 1);
                let peer = &actor.peers.entries[0];
                let alive = actor.alive_counters();
                assert_eq!(
                    peer.liveness.heartbeats_recorded(),
                    alive.unchanged.get() + alive.applied.get(),
                    "{algorithm}: {node}"
                );
            }
        }
    }

    #[test]
    fn multi_group_alives_share_one_datagram_per_destination() {
        // Two workstations sharing three groups: the per-node tick must
        // coalesce the three per-group heartbeats bound for the same peer
        // into one batched datagram.
        let n = 2;
        let groups = [GroupId(1), GroupId(2), GroupId(3)];
        let mut world: World<ServiceNode, PerfectMedium> = World::new(
            n,
            Box::new(move |node, _inc| {
                let mut config = ServiceConfig::full_mesh(node, n, ElectorKind::OmegaLc);
                for group in groups {
                    config = config.with_auto_join(group, JoinConfig::candidate());
                }
                ServiceNode::new(config)
            }),
            PerfectMedium,
            41,
        );
        let mut obs = NullObserver;
        world.run_for(SimDuration::from_secs(5), &mut obs);
        for i in 0..n {
            let actor = world.actor(NodeId(i as u32)).unwrap();
            let payloads = actor.alive_payloads_sent();
            let datagrams = actor.alive_datagrams_sent();
            assert!(payloads > 0);
            // All three groups join together and share one send interval,
            // so every tick batches exactly three payloads per datagram.
            assert_eq!(
                payloads,
                3 * datagrams,
                "node {i}: {payloads} payloads in {datagrams} datagrams"
            );
            for group in groups {
                assert!(actor.leader_of(group).is_some(), "no leader in {group:?}");
            }
        }
        // Both nodes converge on the same leader in every group.
        for group in groups {
            assert!(agreed_leader(&world, group).is_some());
        }
    }

    #[test]
    fn staggered_group_joins_converge_onto_shared_datagrams() {
        // Group 2 is joined mid-run, out of phase with group 1. The
        // quarter-interval batching slack must pull the two onto a shared
        // tick, so steady-state traffic is 2 payloads per datagram — not
        // one datagram per group forever.
        let n = 2;
        let mut world: World<ServiceNode, PerfectMedium> = World::new(
            n,
            Box::new(move |node, _inc| {
                let config = ServiceConfig::full_mesh(node, n, ElectorKind::OmegaLc)
                    .with_auto_join(GroupId(1), JoinConfig::candidate());
                ServiceNode::new(config)
            }),
            PerfectMedium,
            43,
        );
        let mut obs = NullObserver;
        world.run_for(SimDuration::from_millis(330), &mut obs);
        for i in 0..n as u32 {
            world.with_actor(NodeId(i), &mut obs, |actor, ctx| {
                let process = actor.register_process();
                actor
                    .join_group(process, GroupId(2), JoinConfig::candidate(), ctx)
                    .expect("join group 2");
            });
        }
        // Let the phases converge, then measure a steady-state window.
        world.run_for(SimDuration::from_secs(5), &mut obs);
        let counts = |world: &World<ServiceNode, PerfectMedium>, i: u32| {
            let actor = world.actor(NodeId(i)).unwrap();
            (actor.alive_payloads_sent(), actor.alive_datagrams_sent())
        };
        let before: Vec<_> = (0..n as u32).map(|i| counts(&world, i)).collect();
        world.run_for(SimDuration::from_secs(10), &mut obs);
        for i in 0..n as u32 {
            let (p0, d0) = before[i as usize];
            let (p1, d1) = counts(&world, i);
            let payloads = p1 - p0;
            let datagrams = d1 - d0;
            assert!(payloads > 0);
            // Perfect batching is 2 payloads per datagram; a monitor
            // reconfiguration can briefly desync the two groups' intervals
            // (and so their grids), so allow a handful of solo datagrams.
            assert!(
                payloads * 10 >= 2 * datagrams * 9,
                "node {i}: staggered groups failed to share datagrams \
                 ({payloads} payloads in {datagrams} datagrams)"
            );
        }
        assert!(agreed_leader(&world, GroupId(1)).is_some());
        assert!(agreed_leader(&world, GroupId(2)).is_some());
    }

    #[test]
    fn nodes_in_different_groups_do_not_interfere() {
        // Nodes 0,1 join group 1; nodes 2,3 join group 2.
        let n = 4;
        let mut world: World<ServiceNode, PerfectMedium> = World::new(
            n,
            Box::new(move |node, _inc| {
                let group = if node.0 < 2 { GroupId(1) } else { GroupId(2) };
                let config = ServiceConfig::full_mesh(node, n, ElectorKind::OmegaLc)
                    .with_auto_join(group, JoinConfig::candidate());
                ServiceNode::new(config)
            }),
            PerfectMedium,
            37,
        );
        let mut obs = NullObserver;
        world.run_for(SimDuration::from_secs(5), &mut obs);
        let leader1 = world
            .actor(NodeId(0))
            .unwrap()
            .leader_of(GroupId(1))
            .unwrap();
        let leader2 = world
            .actor(NodeId(2))
            .unwrap()
            .leader_of(GroupId(2))
            .unwrap();
        assert!(leader1.node.0 < 2);
        assert!(leader2.node.0 >= 2);
        assert_eq!(world.actor(NodeId(0)).unwrap().leader_of(GroupId(2)), None);
    }

    /// A minimal fenced state machine for the lease/client-tier tests: a
    /// counter with the canonical high-water fencing check.
    #[derive(Debug, Default)]
    struct TestApp {
        high_water: Option<crate::lease::FencingToken>,
        value: u64,
    }

    impl crate::lease::FencedApp for TestApp {
        fn apply(
            &mut self,
            _group: GroupId,
            token: crate::lease::FencingToken,
            payload: u64,
        ) -> Result<u64, crate::lease::StaleToken> {
            if let Some(high) = self.high_water {
                if token < high {
                    return Err(crate::lease::StaleToken {
                        presented: token,
                        high_water: high,
                    });
                }
            }
            self.high_water = Some(token);
            self.value += payload;
            Ok(self.value)
        }

        fn observe_token(&mut self, _group: GroupId, token: crate::lease::FencingToken) {
            if self.high_water.is_none_or(|high| token > high) {
                self.high_water = Some(token);
            }
        }
    }

    #[test]
    fn leader_serves_fenced_requests_and_followers_redirect() {
        let mut world = build_world(2, ElectorKind::OmegaLc, 61);
        let mut obs = NullObserver;
        for i in 0..2u32 {
            world.with_actor(NodeId(i), &mut obs, |actor, _ctx| {
                actor.install_app(Box::new(TestApp::default()));
                assert!(actor.has_app());
            });
        }
        world.run_for(SimDuration::from_secs(5), &mut obs);
        let leader = agreed_leader(&world, GROUP).expect("agreed leader").node;
        let follower = NodeId(1 - leader.0);

        world.with_actor(leader, &mut obs, |actor, ctx| {
            let lease = actor.lease_of(GROUP).expect("the leader holds a lease");
            assert_eq!(lease.token.node, leader);
            assert!(lease.valid_at(ctx.now()), "lease expired while leading");
            assert_eq!(actor.fencing_token(GROUP), Some(lease.token));
            assert!(actor.leases_minted() >= 1);
            // A client request lands on the leader: served.
            actor.on_message(
                follower,
                ServiceMessage::ClientRequest {
                    group: GROUP,
                    session: 1,
                    seq: 0,
                    payload: 7,
                },
                ctx,
            );
            assert_eq!(actor.client_requests_applied(), 1);
            assert_eq!(actor.client_requests_redirected(), 0);
        });

        world.with_actor(follower, &mut obs, |actor, ctx| {
            // The follower holds no lease of its own…
            assert_eq!(actor.lease_of(GROUP), None);
            // …but has heard the leader's LeaseGrant broadcasts.
            let remote = actor
                .remote_lease_of(GROUP)
                .expect("LeaseGrant broadcasts reached the follower");
            assert_eq!(remote.token.node, leader);
            // A client request landing on the follower is redirected to the
            // leader it knows about.
            actor.on_message(
                leader,
                ServiceMessage::ClientRequest {
                    group: GROUP,
                    session: 2,
                    seq: 0,
                    payload: 7,
                },
                ctx,
            );
            assert_eq!(actor.client_requests_applied(), 0);
            assert_eq!(actor.client_requests_redirected(), 1);
            // Unknown group: redirected with no hint (leader unknown).
            actor.on_message(
                leader,
                ServiceMessage::ClientRequest {
                    group: GroupId(99),
                    session: 2,
                    seq: 1,
                    payload: 7,
                },
                ctx,
            );
            assert_eq!(actor.client_requests_redirected(), 2);
        });
    }

    #[test]
    fn a_lease_that_expired_before_the_tick_is_dropped_not_renewed() {
        // The wall-clock runtime's crash/recover parks a leader with its
        // state: its frozen ALIVE tick fires on resume, however long after
        // the lease ran out — by then a successor may be serving. (Here the
        // only other member is a listener, so the leadership stays
        // uncontested and the re-mint can be watched.)
        let (leader, follower) = (NodeId(0), NodeId(1));
        let mut world: World<ServiceNode, PerfectMedium> = World::new(
            2,
            Box::new(move |node, _inc| {
                let join = if node == leader {
                    JoinConfig::candidate()
                } else {
                    JoinConfig::listener()
                };
                let config = ServiceConfig::full_mesh(node, 2, ElectorKind::OmegaL)
                    .with_auto_join(GROUP, join);
                let mut service = ServiceNode::new(config);
                service.install_app(Box::new(TestApp::default()));
                service
            }),
            PerfectMedium,
            61,
        );
        let mut obs = NullObserver;
        world.run_for(SimDuration::from_secs(5), &mut obs);
        assert_eq!(agreed_leader(&world, GROUP).map(|l| l.node), Some(leader));
        let t_d = JoinConfig::candidate().qos.detection_time();
        let ms = SimDuration::from_millis(1);

        // From here the leader is driven by hand, on a clock of its own.
        world.with_actor(leader, &mut obs, |actor, _ctx| {
            let at = |now| ServiceContext::new(now, leader, 0);
            let held = actor.lease_of(GROUP).expect("the leader holds a lease");
            let resumed = held.expires_at() + ms;
            let mut tick = at(resumed);
            actor.on_timer(ALIVE_TIMER, &mut tick);
            assert_eq!(actor.lease_of(GROUP), None, "an expired lease revived");
            let granted = tick.into_effects().into_iter().any(|effect| {
                matches!(
                    effect,
                    sle_sim::Effect::Send {
                        msg: ServiceMessage::LeaseGrant { .. },
                        ..
                    }
                )
            });
            assert!(!granted, "a LeaseGrant went out under the expired lease");
            let request = ServiceMessage::ClientRequest {
                group: GROUP,
                session: 1,
                seq: 0,
                payload: 7,
            };
            actor.on_message(follower, request, &mut at(resumed));
            assert_eq!(actor.client_requests_applied(), 0);
            assert_eq!(actor.client_requests_redirected(), 1);

            // Still the elector's output, it leads through a whole settle
            // delay again before it mints — ranked, like any accused leader,
            // by the instant of the accusation, so above the old token.
            actor.on_timer(ALIVE_TIMER, &mut at(resumed + t_d.mul_f64(0.5)));
            assert_eq!(actor.lease_of(GROUP), None, "minted before settling");
            actor.on_timer(ALIVE_TIMER, &mut at(resumed + t_d.mul_f64(1.5)));
            let minted = actor.lease_of(GROUP).expect("re-minted after T_D");
            assert!(
                minted.token > held.token,
                "{} ≤ {}",
                minted.token,
                held.token
            );
            assert_eq!(minted.token.accusation_time, resumed);
        });
    }

    #[test]
    fn replayed_stale_accusation_is_ignored_after_elector_recreation() {
        // Node 2 joins as a listener; its elector life later restarts when
        // it upgrades to candidate (the join_group recreation site). An
        // ACCUSE minted against the pre-upgrade elector life must not be
        // honoured by the recreated one.
        let n = 3;
        let mut world: World<ServiceNode, PerfectMedium> = World::new(
            n,
            Box::new(move |node, _inc| {
                let join = if node == NodeId(2) {
                    JoinConfig::listener()
                } else {
                    JoinConfig::candidate()
                };
                let config = ServiceConfig::full_mesh(node, n, ElectorKind::OmegaL)
                    .with_auto_join(GROUP, join);
                ServiceNode::new(config)
            }),
            PerfectMedium,
            67,
        );
        let mut obs = NullObserver;
        world.run_for(SimDuration::from_secs(5), &mut obs);
        let before = agreed_leader(&world, GROUP).expect("settled leader");
        assert_ne!(before.node, NodeId(2));

        // Upgrade node 2 to candidate: the elector is recreated with an
        // epoch floor above everything its previous life advertised.
        world.with_actor(NodeId(2), &mut obs, |actor, ctx| {
            let process = actor.register_process();
            actor
                .join_group(process, GROUP, JoinConfig::candidate(), ctx)
                .expect("upgrade to candidate");
            // Replay a duplicated stale ACCUSE from the pre-upgrade life
            // (epoch 0 was current before the recreation). Both copies must
            // be dropped by the stale-epoch guard.
            for _ in 0..2 {
                actor.on_message(
                    NodeId(0),
                    ServiceMessage::Accuse {
                        group: GROUP,
                        epoch: 0,
                    },
                    ctx,
                );
            }
            assert_eq!(actor.stale_accusations_ignored(), 2);
        });

        // The replays must not have perturbed the election: the settled
        // leader is still in office after another settling period.
        world.run_for(SimDuration::from_secs(5), &mut obs);
        let after = agreed_leader(&world, GROUP).expect("leader after replay");
        assert_eq!(after, before, "a replayed stale ACCUSE changed leadership");
    }

    #[test]
    fn a_peer_resuming_at_its_old_version_is_pulled_after_its_members_expired() {
        // The wall-clock runtime's crash/recover parks a node with its state:
        // it comes back with the incarnation and version its peers already
        // applied. If they expired its members meanwhile, the unchanged
        // digest must not pass for "in sync".
        let peer = NodeId(1);
        let config = ServiceConfig::full_mesh(NodeId(0), 2, ElectorKind::OmegaL);
        let mut node = ServiceNode::new(config);
        let at =
            |ms: u64| ServiceContext::new(SimInstant::from_nanos(ms * 1_000_000), NodeId(0), 0);
        let process = node.register_process();
        node.join_group(process, GROUP, JoinConfig::candidate(), &mut at(0))
            .unwrap();
        let hello = |announcements| ServiceMessage::Hello {
            incarnation: 0,
            version: 1,
            sent_at: SimInstant::ZERO,
            pull: false,
            announcements,
        };
        // A listener: nothing but HELLOs keeps it in the membership.
        let list = Arc::from([GroupAnnouncement {
            group: GROUP,
            processes: vec![(ProcessId::new(peer, 0), false)],
        }]);
        node.on_message(peer, hello(HelloList::Full(list)), &mut at(10));
        assert_eq!(node.remote_members_of(GROUP).len(), 1);
        // Digests keep it there past the membership timeout…
        for second in 1..=8 {
            node.on_message(peer, hello(HelloList::Omitted), &mut at(second * 1000));
            node.on_timer(HELLO_TIMER, &mut at(second * 1000 + 1));
            assert_eq!(node.remote_members_of(GROUP).len(), 1, "second {second}");
        }
        // …and their absence expires it.
        for second in 9..=15 {
            node.on_timer(HELLO_TIMER, &mut at(second * 1000 + 1));
        }
        assert!(node.remote_members_of(GROUP).is_empty());
        // The peer resumes where it stopped: same incarnation, same version.
        let mut ctx = at(16_000);
        node.on_message(peer, hello(HelloList::Omitted), &mut ctx);
        let pulled = ctx.into_effects().into_iter().any(|effect| {
            matches!(
                effect,
                sle_sim::Effect::Send {
                    to,
                    msg: ServiceMessage::Hello { pull: true, .. },
                } if to == peer
            )
        });
        assert!(
            pulled,
            "the resumed peer's digest must be answered with a pull"
        );
    }

    #[test]
    fn a_restart_resets_the_link_estimate_of_a_peer_no_group_lists() {
        // The arena record is the one link estimate every group reads. A new
        // incarnation restarts the peer's sequence numbers, so the old
        // life's loss window must go even when no group lists the peer.
        let peer = NodeId(1);
        let config = ServiceConfig::full_mesh(NodeId(0), 2, ElectorKind::OmegaL);
        let mut node = ServiceNode::new(config);
        let at =
            |ms: u64| ServiceContext::new(SimInstant::from_nanos(ms * 1_000_000), NodeId(0), 0);
        let process = node.register_process();
        node.join_group(process, GROUP, JoinConfig::candidate(), &mut at(0))
            .unwrap();
        let eta = SimDuration::from_millis(250);
        for seq in 0..8u64 {
            let sent_at = SimInstant::from_nanos((seq + 1) * 250_000_000);
            let alive = ServiceMessage::Alive {
                group: GROUP,
                header: AliveHeader {
                    incarnation: 1,
                    seq,
                    sent_at,
                    sending_interval: eta,
                    requested_interval: eta,
                },
                payload: sle_election::AlivePayload {
                    accusation_time: SimInstant::ZERO,
                    epoch: 0,
                    local_leader: None,
                },
                representative: ProcessId::new(peer, 0),
            };
            node.on_message(peer, alive, &mut at((seq + 1) * 250 + 1));
        }
        let recorded = |node: &ServiceNode| {
            let slot = node.peers.find(peer).expect("contacted");
            node.peers.entries[slot].liveness.heartbeats_recorded()
        };
        assert_eq!(recorded(&node), 8);
        let leave = ServiceMessage::Leave {
            group: GROUP,
            process: ProcessId::new(peer, 0),
        };
        node.on_message(peer, leave, &mut at(2_100));
        assert!(node.remote_members_of(GROUP).is_empty());
        // The peer restarts; its new life's first word is a digest.
        let hello = ServiceMessage::Hello {
            incarnation: 2,
            version: 0,
            sent_at: SimInstant::from_nanos(3_000_000_000),
            pull: false,
            announcements: HelloList::Omitted,
        };
        node.on_message(peer, hello, &mut at(3_000));
        assert_eq!(recorded(&node), 0, "the old life's estimate survived");
    }

    #[test]
    fn a_zero_interval_request_is_served_at_the_floor() {
        // A member asking for ALIVEs every 0 ns would re-arm the tick every
        // nanosecond; the step budget turns that into a failure, not a hang.
        type Timers = BTreeMap<TimerTag, SimInstant>;
        let peer = NodeId(1);
        let at = |now| ServiceContext::new(now, NodeId(0), 0);
        // Keeps one callback's timers and counts its ALIVE datagrams to `peer`.
        let settle = |ctx: ServiceContext, timers: &mut Timers| {
            let mut alives = 0;
            for effect in ctx.into_effects() {
                match effect {
                    sle_sim::Effect::SetTimer { tag, at } => drop(timers.insert(tag, at)),
                    sle_sim::Effect::CancelTimer { tag } => drop(timers.remove(&tag)),
                    sle_sim::Effect::Send {
                        to,
                        msg: ServiceMessage::Alive { .. } | ServiceMessage::AliveBatch { .. },
                    } if to == peer => alives += 1,
                    _ => {}
                }
            }
            alives
        };
        // Fires timers up to `end`, within a budget of 10 000 steps: the
        // ALIVE datagrams sent, or `None` if the budget ran out first.
        let run_to = |node: &mut ServiceNode, timers: &mut Timers, end| {
            let mut sent = 0;
            for _ in 0..10_000 {
                let next = timers.iter().min_by_key(|&(&tag, &at)| (at, tag));
                let Some((&tag, &when)) = next.filter(|&(_, &when)| when <= end) else {
                    return Some(sent);
                };
                timers.remove(&tag);
                let mut ctx = at(when);
                node.on_timer(tag, &mut ctx);
                sent += settle(ctx, timers);
            }
            None
        };
        let config = ServiceConfig::full_mesh(NodeId(0), 2, ElectorKind::OmegaLc)
            .with_auto_join(GROUP, JoinConfig::candidate());
        let mut node = ServiceNode::new(config);
        let mut timers = Timers::new();
        let mut ctx = at(SimInstant::ZERO);
        node.on_start(&mut ctx);
        settle(ctx, &mut timers);
        let asked_at = SimInstant::from_nanos(10_000_000);
        run_to(&mut node, &mut timers, asked_at);
        let alive = ServiceMessage::Alive {
            group: GROUP,
            header: AliveHeader {
                incarnation: 1,
                seq: 0,
                sent_at: asked_at,
                sending_interval: SimDuration::from_millis(250),
                requested_interval: SimDuration::ZERO,
            },
            payload: sle_election::AlivePayload {
                accusation_time: SimInstant::ZERO,
                epoch: 0,
                local_leader: None,
            },
            representative: ProcessId::new(peer, 0),
        };
        let mut ctx = at(asked_at);
        node.on_message(peer, alive, &mut ctx);
        settle(ctx, &mut timers);
        let end = asked_at + SimDuration::from_secs(1);
        let sent = run_to(&mut node, &mut timers, end)
            .unwrap_or_else(|| panic!("the step budget ran out before {end}: the tick spins"));
        // The tick already armed keeps its 250 ms rhythm once; from then on
        // the member is served every 5 ms.
        assert!(
            (150..=201).contains(&sent),
            "{sent} ALIVE datagrams in one second"
        );
    }

    /// One leader-change announcement, as plain comparable data:
    /// `(virtual ns, observing node, group, leader as (node, local))`.
    type LeaderTraceEvent = (u64, u32, u32, Option<(u32, u32)>);

    /// Records every leader-change announcement as plain data, for
    /// comparing two runs event-for-event.
    #[derive(Debug, Default)]
    struct LeaderTrace {
        events: Vec<LeaderTraceEvent>,
    }

    impl Observer<ServiceEvent> for LeaderTrace {
        fn event_emitted(&mut self, now: SimInstant, node: NodeId, event: &ServiceEvent) {
            let ServiceEvent::LeaderChanged { group, leader } = event;
            self.events.push((
                now.as_nanos(),
                node.0,
                group.0,
                leader.map(|p| (p.node.0, p.local)),
            ));
        }
    }

    fn crash_recover_trace(seed: u64) -> Vec<LeaderTraceEvent> {
        let n = 5;
        let medium = sle_net::network::NetworkModel::new(
            sle_net::link::LinkSpec::from_paper_tuple(10.0, 0.01),
        )
        .build(seed);
        let mut world: World<ServiceNode, sle_net::network::SimulatedNetwork> = World::new(
            n,
            Box::new(move |node, _inc| {
                let config = ServiceConfig::full_mesh(node, n, ElectorKind::OmegaL)
                    .with_auto_join(GROUP, JoinConfig::candidate());
                ServiceNode::new(config)
            }),
            medium,
            seed,
        );
        let mut obs = LeaderTrace::default();
        world.schedule_crash(NodeId(1), SimInstant::from_secs_f64(4.0));
        world.schedule_recovery(NodeId(1), SimInstant::from_secs_f64(9.0));
        world.schedule_crash(NodeId(3), SimInstant::from_secs_f64(12.0));
        world.run_for(SimDuration::from_secs(20), &mut obs);
        obs.events
    }

    #[test]
    fn crash_recover_runs_are_seed_deterministic() {
        // The dense tables iterate in interned-slot or sorted-id order, not
        // tree order; a lossy medium plus crash/recover churn exercises all
        // of them. Two runs from one seed must announce the identical
        // leader-change sequence, timestamp for timestamp.
        let first = crash_recover_trace(0xD5);
        let second = crash_recover_trace(0xD5);
        assert!(
            !first.is_empty(),
            "the scenario must produce leader changes"
        );
        assert_eq!(
            first, second,
            "same seed must replay the identical leader-change trace"
        );
    }

    #[test]
    fn group_churn_keeps_monitor_arena_at_baseline() {
        // Two workstations share one long-lived group; a second group on
        // the same pair is joined and left repeatedly. The shared liveness
        // arena must keep exactly one record per contacted peer throughout:
        // churn neither leaks records nor reclaims the estimate the
        // long-lived group (and the node's own cached handle) still uses.
        let n = 2u32;
        let mut world = build_world(n as usize, ElectorKind::OmegaLc, 71);
        let mut obs = NullObserver;
        world.run_for(SimDuration::from_secs(2), &mut obs);
        let baseline: Vec<usize> = (0..n)
            .map(|i| world.actor(NodeId(i)).unwrap().monitored_peer_count())
            .collect();
        assert!(
            baseline.iter().all(|&count| count == 1),
            "each node tracks exactly its one peer: {baseline:?}"
        );
        let churn = GroupId(50);
        for round in 0..10 {
            for i in 0..n {
                world.with_actor(NodeId(i), &mut obs, |actor, ctx| {
                    let process = actor.register_process();
                    actor
                        .join_group(process, churn, JoinConfig::candidate(), ctx)
                        .expect("join churn group");
                });
            }
            world.run_for(SimDuration::from_millis(400), &mut obs);
            for i in 0..n {
                world.with_actor(NodeId(i), &mut obs, |actor, ctx| {
                    for process in actor.local_members_of(churn) {
                        actor
                            .leave_group(process, churn, ctx)
                            .expect("leave churn group");
                    }
                });
            }
            world.run_for(SimDuration::from_millis(100), &mut obs);
            for i in 0..n {
                let count = world.actor(NodeId(i)).unwrap().monitored_peer_count();
                assert_eq!(
                    count, baseline[i as usize],
                    "round {round}: node {i} arena record count drifted"
                );
            }
        }
    }
}
