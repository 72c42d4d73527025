//! Leader Election: what each group's elector yields, held to the
//! self-election grace and the lease settle rule, and announced.
//!
//! The grace ends on evidence: once the view of the group is complete —
//! every configured peer's list current, every candidate member heard or
//! suspected — or after 2·T_D, whichever comes first. Every path that can
//! complete a view re-checks the leader, which debug builds assert after
//! every entry point. A join's first ALIVE tick is held here too when it
//! fires late ([`FIRST_ALIVE_DELAY`]), so that the candidates of one start
//! are all heard before any of them withdraws.

use sle_fd::{PeerTable, TuningPolicy};
use sle_sim::actor::{NodeId, TimerTag};
use sle_sim::time::{SimDuration, SimInstant};

use super::{ServiceContext, ServiceNode, GRACE_KIND};
use crate::events::ServiceEvent;
use crate::group::GroupState;
use crate::lease::{FencingToken, LeaderLease};
use crate::obs::NodeCount;
use crate::process::{GroupId, ProcessId};

/// How long after a join its first ALIVE tick is due: the start's list
/// exchange lands first on a LAN, so the first ALIVE reaches every member.
///
/// A first tick that fires more than this late sends nothing; the group's
/// first ALIVE waits for its slot on the node-wide grid. Such a tick comes
/// from a worker too busy to keep its timers, as in the start of a large
/// cluster on the wall clock. Its view was formed after it was due; the
/// joins it raced with fired earlier, most knowing no member yet. If it
/// sent now, its ALIVE could silence (Ω_l) a worse-ranked candidate that
/// had not yet been heard. That candidate's winner would then wait one
/// detection bound for its monitor to suspect it. The grid slot is shared
/// by every join of that start, so each candidate is heard before any of
/// them withdraws. A simulated timer is never late, so this never holds
/// there.
pub(super) const FIRST_ALIVE_DELAY: SimDuration = SimDuration::from_millis(5);

/// Whether `state`'s ALIVE tick, due at `due`, armed at `armed_at` and
/// firing at `now`, is the join's first and fired late: more than
/// [`FIRST_ALIVE_DELAY`] after both its due time and the instant it was
/// armed. A re-entry arms the tick for a slot already passed, and so fires
/// on time for when it was armed.
pub(super) fn first_alive_held(
    state: &GroupState,
    due: SimInstant,
    armed_at: SimInstant,
    now: SimInstant,
) -> bool {
    due == state.joined_at + FIRST_ALIVE_DELAY && now > due.max(armed_at) + FIRST_ALIVE_DELAY
}

/// The timer that ends `group`'s self-election grace period.
pub(super) fn grace_tag(group: GroupId) -> TimerTag {
    TimerTag(GRACE_KIND << 32 | group.0 as u64)
}

/// What `check_leader` makes of a group at some instant.
struct LeaderView {
    /// The leader to announce.
    leader: Option<ProcessId>,
    /// The end of the self-election grace period, when it withheld this
    /// node's own claim.
    withheld: Option<SimInstant>,
    /// Whether the grace ends now, early: it was open, the elector picks
    /// this node, and the view is complete.
    ends_grace: bool,
    /// The token to mint: this node leads, has settled, and holds no lease
    /// that still dominates.
    mint: Option<FencingToken>,
}

/// Whether `state`'s self-election grace is still open at `now`.
fn grace_open<T>(state: &GroupState, peers: &PeerTable<T>, now: SimInstant) -> bool {
    !state.grace_ended && now < state.joined_at + state.self_election_grace(peers)
}

/// The leadership `me` (of incarnation `incarnation`) sees in `state` at
/// `now`, its monitors' operating points in `peers`, without acting on it;
/// `lists_current` says whether every configured peer's list is.
fn leader_view<T>(
    me: NodeId,
    incarnation: u64,
    lists_current: bool,
    state: &GroupState,
    peers: &PeerTable<T>,
    now: SimInstant,
) -> LeaderView {
    let mut leader = state.leader_process(me, state.elector.leader(state.rows.trusted()));
    let (mut withheld, mut ends_grace) = (None, false);
    // A freshly (re)joined candidate does not claim the leadership for
    // itself until its view of the group is complete, or the grace period
    // elapses: it first listens for an incumbent leader, which keeps
    // rejoining workstations from briefly disrupting the group's agreement.
    if leader.is_some_and(|claimed| claimed.node == me) && !state.grace_ended {
        let grace_ends = state.joined_at + state.self_election_grace(peers);
        if now < grace_ends {
            if lists_current && state.candidates_resolved() {
                ends_grace = true;
            } else {
                leader = None;
                withheld = Some(grace_ends);
            }
        }
    }
    // Settle delay: only a node that has led *continuously* for one lease
    // term (`T_D`) mints. A transient claimant yields before the delay
    // elapses and never serves, and by the time a genuine successor starts
    // serving, the deposed leader's lease (TTL `T_D`, no longer renewed) has
    // already lapsed — so two leases are never simultaneously valid.
    let leads = leader.is_some_and(|l| l.node == me);
    let settled = now >= state.led_since.unwrap_or(now) + state.fd.qos().detection_time();
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
        ends_grace,
        mint,
    }
}

impl ServiceNode {
    pub(super) fn check_leader(&mut self, group: GroupId, ctx: &mut ServiceContext) {
        let me = self.config.node;
        let now = ctx.now();
        let lists_current = self.lists_missing == 0;
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        let view = leader_view(me, self.incarnation, lists_current, state, &self.peers, now);
        if view.ends_grace {
            state.grace_ended = true;
            self.counts[NodeCount::GraceEndedEarly].inc();
        }
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
                    ttl: state.fd.qos().detection_time(),
                });
                self.counts[NodeCount::LeasesMinted].inc();
            }
        } else {
            state.lease = None;
            state.led_since = None;
        }
        if leader != state.announced_leader {
            state.announced_leader = leader;
            if let (Some(obs), Some(instruments)) = (&self.obs, &mut state.obs) {
                obs.on_leader_change(instruments, group, leader, now);
            }
            ctx.emit(ServiceEvent::LeaderChanged { group, leader });
        }
    }

    /// Whether `check_leader` would leave `group` exactly as it is at `now`:
    /// what the ALIVE tick relies on when it skips a leader that holds its
    /// lease. Asserted in debug builds.
    pub(super) fn leader_settled(&self, group: GroupId, now: SimInstant) -> bool {
        let me = self.config.node;
        let lists_current = self.lists_missing == 0;
        let Some(state) = self.groups.get(group) else {
            return true;
        };
        let view = leader_view(me, self.incarnation, lists_current, state, &self.peers, now);
        let leads = view.leader.is_some_and(|l| l.node == me);
        view.leader == state.announced_leader
            && view.withheld.is_none()
            && !view.ends_grace
            && view.mint.is_none()
            && leads == state.led_since.is_some()
            && (leads || state.lease.is_none())
    }

    /// Re-checks every group whose self-election grace is still open: the
    /// last configured peer's list just became current, which may complete
    /// their views.
    pub(super) fn recheck_open_graces(&mut self, ctx: &mut ServiceContext) {
        let now = ctx.now();
        let open = |state: &&GroupState| grace_open(state, &self.peers, now);
        let groups: Vec<GroupId> = self.groups.iter().filter(open).map(|s| s.group).collect();
        for group in groups {
            self.check_leader(group, ctx);
        }
    }

    /// What the grace rule relies on after every entry point: while some
    /// group's grace is open (only then is the count read, and every join
    /// opens one), `lists_missing` counts the configured peers whose list
    /// is not current, and no group whose elector picks this node holds
    /// its claim back under an open grace with a complete view. Asserted
    /// in debug builds.
    pub(super) fn graces_hold(&self, now: SimInstant) -> bool {
        let open = |state: &&GroupState| grace_open(state, &self.peers, now);
        let mut open = self.groups.iter().filter(open).peekable();
        if open.peek().is_none() {
            return true;
        }
        let current = |peer| {
            let slot = self.peers.find(peer);
            slot.is_some_and(|slot| self.peers[slot].gossip.is_current())
        };
        let missing = self.config.remote_peers().filter(|&p| !current(p)).count();
        let (me, incarnation) = (self.config.node, self.incarnation);
        let ended = |state: &GroupState| {
            !leader_view(me, incarnation, missing == 0, state, &self.peers, now).ends_grace
        };
        missing == self.lists_missing && open.all(ended)
    }

    pub(super) fn handle_accusation(
        &mut self,
        group: GroupId,
        epoch: u64,
        ctx: &mut ServiceContext,
    ) {
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
                self.counts[NodeCount::StaleAccusationsIgnored].inc();
                return;
            }
            let sending = state.should_send_alives();
            (state.elector).on_accusation(epoch, now, state.rows.trusted());
            self.alive_epoch += 1;
            if sending && !state.should_send_alives() {
                self.send_farewell(group, ctx);
            }
        }
        self.check_leader(group, ctx);
    }
}
