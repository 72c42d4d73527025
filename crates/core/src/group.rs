//! Per-group state kept by a service instance (the Group Maintenance module
//! of the paper's architecture, Figure 2).
//!
//! A group keeps one [`PeerRow`] per remote workstation in a sorted
//! [`PeerRows`] table: the membership learnt from HELLO and ALIVE messages,
//! with the election payload the workstation last sent, and the group's
//! failure-detector opinion of it, so applying one ALIVE payload touches a
//! single row. The group's elector ranks exactly the rows with a payload
//! and a trusted monitor ([`PeerRows::trusted`]). The operating point
//! (η, δ) the monitor follows is the link's, kept once per QoS class in the
//! node's peer table.

use sle_election::{AlivePayload, GroupElector};
use sle_fd::{default_interval, GroupDetector, PeerMonitor, PeerTable, MIN_INTERVAL};
use sle_sim::actor::NodeId;
use sle_sim::dense::insert_tight;
use sle_sim::time::{SimDuration, SimInstant};

use crate::config::JoinConfig;
use crate::lease::LeaderLease;
use crate::obs::GroupInstruments;
use crate::process::{GroupId, ProcessId};

/// What a service instance knows about one remote member workstation of a
/// group: its processes, the representative it advertises and the ALIVE
/// interval it asked us for.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemberEntry {
    /// The version of the peer's announcement list that last named this
    /// group, if any: a group its newer list no longer names ages out.
    pub listed_at: Option<u64>,
    /// The remote processes in the group and whether each is a candidate.
    pub processes: ProcessList,
    /// The representative candidate process the member advertises in its
    /// ALIVEs, if any.
    pub representative: Option<ProcessId>,
    /// The ALIVE interval the member asked us to use towards it, once it
    /// sent a payload.
    pub requested_interval: SimDuration,
    /// The ALIVE interval the member declared in the last entry applied to
    /// the row, older or not: the η its monitor was last fed.
    pub sending_interval: SimDuration,
    /// The low 32 bits (the entry's padding) of the sequence number of the
    /// ALIVE whose payload, representative and request it holds, if any.
    pub applied_seq: u32,
    /// The election payload of the member's last ALIVE for the group, if
    /// it sent one in its current life: boxed, so a row a HELLO creates
    /// costs 8 bytes for it until the member's first ALIVE.
    pub payload: Option<Box<AlivePayload>>,
}

impl MemberEntry {
    /// True if any of the remote processes is a candidate.
    pub fn has_candidate(&self) -> bool {
        self.processes.iter().any(|(_, candidate)| *candidate)
    }

    /// The member's representative candidate: the one it advertises, else
    /// its first candidate process.
    pub fn representative_process(&self) -> Option<ProcessId> {
        self.representative.or_else(|| {
            self.processes
                .iter()
                .filter(|(_, candidate)| *candidate)
                .map(|(process, _)| *process)
                .min()
        })
    }
}

/// A group's row for one remote workstation: its membership (with its last
/// election payload) and the group's failure-detector monitor of it, the
/// one record of whether the group trusts it. A row has at least one of the
/// two. A member listing only listeners has no monitor, and a restarted
/// peer's monitored row keeps a fresh monitor but no membership until the
/// peer's new life names the group, or until the row is quiet past the
/// membership timeout.
#[derive(Debug, Clone)]
pub struct PeerRow {
    /// The remote workstation.
    pub peer: NodeId,
    /// When an ALIVE or a HELLO list last named the peer in this group (or
    /// when the peer's restart took its membership) — its own account only.
    /// The peer's stamps vouch on top of it: its latest digest while the
    /// membership's `listed_at` is the peer's applied version, its latest
    /// ALIVE datagram while the row's monitor is vouched for. The service
    /// folds a stamp in here when the row is about to lose its vouch (a new
    /// list no longer names the group, a datagram is applied entry by
    /// entry) and when the row is quiet past the membership timeout on its
    /// own account; otherwise it may lag.
    pub last_heard: SimInstant,
    /// The peer's membership of the group, if it is a member.
    pub member: Option<MemberEntry>,
    /// The group's monitor of the peer, if it watches the peer: its own
    /// trust, vouch and horizon; (η, δ) are its class's, in the peer's slot.
    pub monitor: Option<PeerMonitor>,
}

impl PeerRow {
    /// The row heard from as a member at `now`: its membership, created
    /// empty if the row had none, and whether it was.
    pub fn heard_as_member(&mut self, now: SimInstant) -> (&mut MemberEntry, bool) {
        self.last_heard = now;
        let created = self.member.is_none();
        (
            self.member.get_or_insert_with(MemberEntry::default),
            created,
        )
    }
}

/// A member's remote processes with their candidate flags, in announced
/// order: a single process (by far the common case) is held inline, more
/// spill to the heap. Dereferences to the slice.
#[derive(Debug, Clone)]
pub struct ProcessList(Processes);

#[derive(Debug, Clone)]
enum Processes {
    One((ProcessId, bool)),
    Many(Vec<(ProcessId, bool)>),
}

impl ProcessList {
    /// Keeps only the processes for which `keep` returns true.
    pub fn retain(&mut self, mut keep: impl FnMut(&(ProcessId, bool)) -> bool) {
        let mut list = self.to_vec();
        list.retain(|process| keep(process));
        *self = list.into();
    }
}

impl Default for ProcessList {
    fn default() -> Self {
        ProcessList(Processes::Many(Vec::new()))
    }
}

impl std::ops::Deref for ProcessList {
    type Target = [(ProcessId, bool)];

    fn deref(&self) -> &Self::Target {
        match &self.0 {
            Processes::One(process) => std::slice::from_ref(process),
            Processes::Many(list) => list,
        }
    }
}

impl PartialEq for ProcessList {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl From<(ProcessId, bool)> for ProcessList {
    fn from(process: (ProcessId, bool)) -> Self {
        ProcessList(Processes::One(process))
    }
}

impl From<Vec<(ProcessId, bool)>> for ProcessList {
    fn from(list: Vec<(ProcessId, bool)>) -> Self {
        match list[..] {
            [process] => process.into(),
            _ => ProcessList(Processes::Many(list)),
        }
    }
}

impl From<&[(ProcessId, bool)]> for ProcessList {
    fn from(list: &[(ProcessId, bool)]) -> Self {
        match *list {
            [process] => process.into(),
            _ => ProcessList(Processes::Many(list.to_vec())),
        }
    }
}

/// A group's rows, one per remote workstation, sorted by peer id.
///
/// Lookups are binary searches over contiguous rows; iteration is in
/// deterministic peer order. Sizes are bounded by group fan-out.
#[derive(Debug, Clone, Default)]
pub struct PeerRows {
    rows: Vec<PeerRow>,
}

impl PeerRows {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn find(&self, peer: NodeId) -> Result<usize, usize> {
        self.rows.binary_search_by_key(&peer, |row| row.peer)
    }

    /// The row of `peer`, if any.
    pub fn get(&self, peer: NodeId) -> Option<&PeerRow> {
        self.find(peer).ok().map(|i| &self.rows[i])
    }

    /// Mutable access to the row of `peer`, if any.
    pub fn get_mut(&mut self, peer: NodeId) -> Option<&mut PeerRow> {
        match self.find(peer) {
            Ok(i) => Some(&mut self.rows[i]),
            Err(_) => None,
        }
    }

    /// The membership of `peer`, if it is a member.
    pub fn member(&self, peer: NodeId) -> Option<&MemberEntry> {
        self.get(peer)?.member.as_ref()
    }

    /// The group's monitor of `peer`, if it watches the peer.
    pub fn monitor(&self, peer: NodeId) -> Option<&PeerMonitor> {
        self.get(peer)?.monitor.as_ref()
    }

    /// The row of `peer`, created (neither member nor monitored, heard at
    /// `now`) if it had none.
    pub fn row(&mut self, peer: NodeId, now: SimInstant) -> &mut PeerRow {
        let i = self.find(peer).unwrap_or_else(|i| {
            let row = PeerRow {
                peer,
                last_heard: now,
                member: None,
                monitor: None,
            };
            insert_tight(&mut self.rows, i, row);
            i
        });
        &mut self.rows[i]
    }

    /// Forgets everything about `peer`, returning its row if it had one.
    pub fn remove(&mut self, peer: NodeId) -> Option<PeerRow> {
        match self.find(peer) {
            Ok(i) => Some(self.rows.remove(i)),
            Err(_) => None,
        }
    }

    /// Iterates over all rows in ascending peer order.
    pub fn iter(&self) -> impl Iterator<Item = &PeerRow> + '_ {
        self.rows.iter()
    }

    /// Iterates over the members, with their rows, in ascending peer order.
    pub fn members(&self) -> impl Iterator<Item = (&PeerRow, &MemberEntry)> + '_ {
        (self.rows.iter()).filter_map(|row| Some((row, row.member.as_ref()?)))
    }

    /// Iterates over the group's monitors in ascending peer order.
    pub fn monitors(&self) -> impl Iterator<Item = &PeerMonitor> + '_ {
        self.rows.iter().filter_map(|row| row.monitor.as_ref())
    }

    /// What the group's elector ranks: the members whose monitor trusts
    /// them, each with its last election payload, in ascending peer order.
    pub fn trusted(&self) -> impl Iterator<Item = (NodeId, &AlivePayload)> + '_ {
        self.rows.iter().filter_map(|row| {
            let payload = row.member.as_ref()?.payload.as_deref()?;
            let trusted = row.monitor.as_ref()?.is_trusted();
            trusted.then_some((row.peer, payload))
        })
    }
}

/// The full state a service instance keeps for one group it participates in.
#[derive(Debug, Clone)]
pub struct GroupState {
    /// The group's identifier.
    pub group: GroupId,
    /// Local processes that joined the group, with their candidate flags,
    /// sorted by local slot.
    pub local_processes: Vec<(u32, bool)>,
    /// The election algorithm instance for this group, lent the trusted
    /// rows ([`PeerRows::trusted`]).
    pub elector: GroupElector,
    /// The group's share of the node's failure detector: its QoS and
    /// policy, the class whose operating point the monitors in `rows` read
    /// in the node's peer table. It arms no timer of its own: the service
    /// watches every group's monitor of a peer from that peer's one timer
    /// (`PeerMonitor::check`).
    pub fd: GroupDetector,
    /// One row per remote workstation: membership learnt from HELLO/ALIVE
    /// messages with the last election payload, and the monitor `fd`
    /// applies to.
    pub rows: PeerRows,
    /// The leader last announced to local applications (to detect changes).
    pub announced_leader: Option<ProcessId>,
    /// When this node joined the group: the start of the self-election
    /// grace period, in which a freshly joined candidate does not claim the
    /// leadership for itself until its view of the group is complete (see
    /// [`GroupState::self_election_grace`]) or the grace runs out.
    pub joined_at: SimInstant,
    /// Whether the grace ended early, on a complete view: latched, so a
    /// member learnt later does not withhold the claim again.
    pub grace_ended: bool,
    /// The lease this node holds as the group's current leader, if any
    /// (minted/renewed by `ServiceNode`, dropped on losing the leadership).
    pub lease: Option<LeaderLease>,
    /// The most recent lease heard from a *remote* leader's `LeaseGrant`
    /// broadcast (`renewed_at` is the local receipt time).
    pub remote_lease: Option<LeaderLease>,
    /// When the local elector's output last *became* this node (cleared the
    /// moment it stops leading). A lease is only minted after leading
    /// continuously for `T_D`, so a deposed leader's lease lapses before a
    /// successor starts serving — closing the double-leadership window.
    pub led_since: Option<SimInstant>,
    /// The group's QoS counters and election episode, when the node has
    /// instruments attached.
    pub(crate) obs: Option<GroupInstruments>,
}

impl GroupState {
    /// Creates the state for a group the local node just joined.
    pub fn new(
        group: GroupId,
        me: NodeId,
        algorithm: sle_election::ElectorKind,
        config: &JoinConfig,
        now: SimInstant,
    ) -> Self {
        GroupState {
            group,
            local_processes: Vec::new(),
            elector: GroupElector::new(algorithm, me, config.candidate, now),
            fd: GroupDetector::new(config.qos, config.tuning),
            rows: PeerRows::new(),
            announced_leader: None,
            joined_at: now,
            grace_ended: false,
            lease: None,
            remote_lease: None,
            led_since: None,
            obs: None,
        }
    }

    /// Adds or updates a local process in the group; returns true if that
    /// changed what the group announces.
    pub fn upsert_local_process(&mut self, local: u32, candidate: bool) -> bool {
        match self
            .local_processes
            .binary_search_by_key(&local, |&(l, _)| l)
        {
            Ok(i) => std::mem::replace(&mut self.local_processes[i].1, candidate) != candidate,
            Err(i) => {
                self.local_processes.insert(i, (local, candidate));
                true
            }
        }
    }

    /// Removes a local process; returns true if it was in the group.
    pub fn remove_local_process(&mut self, local: u32) -> bool {
        match self
            .local_processes
            .binary_search_by_key(&local, |&(l, _)| l)
        {
            Ok(i) => {
                self.local_processes.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// How long after joining this node refrains at most from announcing
    /// *itself* as the leader: twice the crash-detection bound, the
    /// fallback for a view that never completes (a configured peer that
    /// never answers). The grace ends earlier, on evidence, once every
    /// configured peer's list is applied and every candidate member is
    /// resolved ([`GroupState::candidates_resolved`]). Adaptive tuning
    /// shrinks the fallback alongside the detection bound, which reads the
    /// monitors' operating points in `peers`.
    pub fn self_election_grace<T>(&self, peers: &PeerTable<T>) -> SimDuration {
        self.fd.detection_bound(peers, self.rows.monitors()) * 2
    }

    /// Whether every member that lists a candidate is resolved: its row
    /// holds the member's election payload, or its monitor suspects it. An
    /// incumbent stays unresolved until its ALIVE arrives; a candidate that
    /// never sends is resolved once its monitor, started when its list
    /// arrived, times out.
    pub fn candidates_resolved(&self) -> bool {
        self.rows.members().all(|(row, member)| {
            let suspected = row.monitor.as_ref().is_some_and(|m| !m.is_trusted());
            !member.has_candidate() || member.payload.is_some() || suspected
        })
    }

    /// True if any local process joined this group as a candidate.
    pub fn locally_candidate(&self) -> bool {
        self.local_processes.iter().any(|&(_, candidate)| candidate)
    }

    /// The local representative candidate process, if any.
    pub fn local_representative(&self, me: NodeId) -> Option<ProcessId> {
        self.local_processes
            .iter()
            .filter(|&&(_, candidate)| candidate)
            .map(|&(local, _)| ProcessId::new(me, local))
            .min()
    }

    /// The interval at which this node should currently send ALIVEs for the
    /// group: the most demanding (smallest) of what the members asked for,
    /// never exceeding the [`default_interval`] of the group's `T_D^U` and
    /// never below [`MIN_INTERVAL`], the least any configurator asks for — a
    /// hostile request of 0 must not make the ALIVE tick spin.
    pub fn send_interval(&self) -> SimDuration {
        let default = default_interval(self.fd.qos().detection_time()).max(MIN_INTERVAL);
        self.rows
            .members()
            .filter(|(_, member)| member.payload.is_some())
            .map(|(_, member)| member.requested_interval)
            .fold(default, SimDuration::min)
            .max(MIN_INTERVAL)
    }

    /// Maps an elected node to the elected process announced to applications.
    pub fn leader_process(&self, me: NodeId, leader_node: Option<NodeId>) -> Option<ProcessId> {
        let node = leader_node?;
        if node == me {
            self.local_representative(me)
        } else if let Some(entry) = self.rows.member(node) {
            entry.representative_process()
        } else {
            // We elected a node we have no process information about yet;
            // announce its service instance's first process slot.
            Some(ProcessId::new(node, 0))
        }
    }

    /// Whether this node should currently be emitting ALIVE messages for the
    /// group.
    pub fn should_send_alives(&self) -> bool {
        self.locally_candidate() && self.elector.is_competing()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sle_election::ElectorKind;

    fn state() -> GroupState {
        GroupState::new(
            GroupId(1),
            NodeId(0),
            ElectorKind::OmegaLc,
            &JoinConfig::candidate(),
            SimInstant::ZERO,
        )
    }

    /// `peer`'s membership in `rows`, created if it had none.
    fn member(rows: &mut PeerRows, peer: NodeId) -> &mut MemberEntry {
        rows.row(peer, SimInstant::ZERO)
            .heard_as_member(SimInstant::ZERO)
            .0
    }

    #[test]
    fn local_candidacy_and_representative() {
        let mut group = state();
        assert!(!group.locally_candidate());
        assert_eq!(group.local_representative(NodeId(0)), None);
        group.upsert_local_process(3, false);
        group.upsert_local_process(1, true);
        group.upsert_local_process(2, true);
        assert!(group.locally_candidate());
        assert_eq!(
            group.local_representative(NodeId(0)),
            Some(ProcessId::new(NodeId(0), 1))
        );
        assert!(group.remove_local_process(1));
        assert!(!group.remove_local_process(1));
        assert_eq!(
            group.local_representative(NodeId(0)),
            Some(ProcessId::new(NodeId(0), 2))
        );
    }

    #[test]
    fn send_interval_takes_the_most_demanding_request() {
        let mut group = state();
        // Default: a quarter of the 1 s detection bound.
        assert_eq!(group.send_interval(), SimDuration::from_millis(250));
        // A member asks once it sent a payload.
        let asks = |rows: &mut PeerRows, peer, interval| {
            let member = member(rows, peer);
            member.requested_interval = interval;
            member.payload = Some(Box::new(AlivePayload {
                accusation_time: SimInstant::ZERO,
                epoch: 0,
                local_leader: None,
            }));
        };
        member(&mut group.rows, NodeId(5)).requested_interval = SimDuration::from_millis(50);
        asks(&mut group.rows, NodeId(1), SimDuration::from_millis(100));
        asks(&mut group.rows, NodeId(2), SimDuration::from_millis(400));
        assert_eq!(group.send_interval(), SimDuration::from_millis(100));
        // A monitored peer that is no member asks for nothing.
        let fd = group.fd.clone();
        let mut peers: sle_fd::PeerTable = sle_fd::PeerTable::new();
        let monitor = fd.monitor(&mut peers, NodeId(4), SimInstant::ZERO);
        group.rows.row(NodeId(4), SimInstant::ZERO).monitor = Some(monitor);
        assert_eq!(group.send_interval(), SimDuration::from_millis(100));
        // A request below the configurator's floor is held at the floor.
        asks(&mut group.rows, NodeId(3), SimDuration::ZERO);
        assert_eq!(group.send_interval(), MIN_INTERVAL);
    }

    #[test]
    fn leader_process_resolution() {
        let mut group = state();
        group.upsert_local_process(0, true);
        assert_eq!(
            group.leader_process(NodeId(0), Some(NodeId(0))),
            Some(ProcessId::new(NodeId(0), 0))
        );
        assert_eq!(group.leader_process(NodeId(0), None), None);
        // Unknown remote node: fall back to its slot 0.
        assert_eq!(
            group.leader_process(NodeId(0), Some(NodeId(7))),
            Some(ProcessId::new(NodeId(7), 0))
        );
        // Known via membership.
        member(&mut group.rows, NodeId(2)).processes =
            vec![(ProcessId::new(NodeId(2), 4), true)].into();
        assert_eq!(
            group.leader_process(NodeId(0), Some(NodeId(2))),
            Some(ProcessId::new(NodeId(2), 4))
        );
        // An explicit representative advertised in ALIVEs takes precedence.
        member(&mut group.rows, NodeId(2)).representative = Some(ProcessId::new(NodeId(2), 9));
        assert_eq!(
            group.leader_process(NodeId(0), Some(NodeId(2))),
            Some(ProcessId::new(NodeId(2), 9))
        );
    }

    #[test]
    fn member_entry_helpers() {
        let mut table = PeerRows::new();
        let (entry, created) = table
            .row(NodeId(3), SimInstant::ZERO)
            .heard_as_member(SimInstant::ZERO);
        assert!(created);
        entry.processes = vec![
            (ProcessId::new(NodeId(3), 2), false),
            (ProcessId::new(NodeId(3), 1), true),
        ]
        .into();
        let entry = table.member(NodeId(3)).unwrap();
        assert!(entry.has_candidate());
        assert_eq!(
            entry.representative_process(),
            Some(ProcessId::new(NodeId(3), 1))
        );
        let later = SimInstant::from_secs_f64(1.0);
        let row = table.row(NodeId(3), later);
        assert!(!row.heard_as_member(later).1);
        assert_eq!(row.last_heard, later);
        member(&mut table, NodeId(4)).processes = (ProcessId::new(NodeId(4), 2), false).into();
        let passive = table.member(NodeId(4)).unwrap();
        assert!(!passive.has_candidate());
        assert_eq!(passive.representative_process(), None);
        // A row without membership is no member.
        table.row(NodeId(1), SimInstant::ZERO);
        assert_eq!(table.member(NodeId(1)), None);
        // Table iterates in sorted peer order and removals work.
        let members = table.members().map(|(row, _)| row.peer);
        assert_eq!(members.collect::<Vec<_>>(), vec![NodeId(3), NodeId(4)]);
        let rows = table.iter().map(|row| row.peer);
        assert_eq!(rows.collect::<Vec<_>>(), [1, 3, 4].map(NodeId));
        assert!(table.remove(NodeId(3)).is_some());
        assert!(table.remove(NodeId(3)).is_none());
        assert_eq!(table.iter().count(), 2);
    }

    #[test]
    fn a_row_keeps_only_the_group_s_opinion_of_the_peer() {
        // (η, δ) and everything else per link live in the peer's table
        // slot: the monitor is the group's trust, vouch and horizon. The
        // row's 104 bytes grew only by the elector's column, the boxed
        // payload.
        assert_eq!(std::mem::size_of::<Option<PeerMonitor>>(), 16);
        let payload = std::mem::size_of::<Option<Box<AlivePayload>>>();
        assert!(std::mem::size_of::<PeerRow>() <= 104 + payload);
    }

    #[test]
    fn a_single_process_is_held_inline() {
        let one = (ProcessId::new(NodeId(3), 0), true);
        let many: Vec<_> = (0..5)
            .map(|l| (ProcessId::new(NodeId(3), l), false))
            .collect();
        let mut list = ProcessList::from(many.clone());
        assert!(matches!(list.0, Processes::Many(_)));
        assert_eq!(*list, many[..]);
        list.retain(|&(p, _)| p.local == 2);
        assert!(matches!(list.0, Processes::One(_)));
        assert_eq!(*list, many[2..3]);
        assert!(matches!(ProcessList::from(vec![one]).0, Processes::One(_)));
        assert_eq!(ProcessList::from(&[one][..]), ProcessList::from(one));
        list.retain(|_| false);
        assert!(list.is_empty());
    }

    #[test]
    fn should_send_alives_requires_local_candidate() {
        let mut group = state();
        assert!(!group.should_send_alives());
        group.upsert_local_process(0, true);
        assert!(group.should_send_alives());
    }
}
