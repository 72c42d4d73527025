//! The lease tier on top of the election: lease renewal, the grants other
//! leaders broadcast, and client requests served under a valid lease.

use sle_sim::actor::NodeId;
use sle_sim::time::SimDuration;

use super::{ServiceContext, ServiceNode};
use crate::lease::{FencedApp, FencingToken, LeaderLease};
use crate::messages::ServiceMessage;
use crate::obs::NodeCount;
use crate::process::GroupId;

/// The lease tier's state.
#[derive(Debug, Default)]
pub(super) struct LeaseTier {
    /// The fenced state machine served while this node leads a group with a
    /// valid lease ([`ServiceNode::install_app`]).
    pub(super) app: Option<Box<dyn FencedApp>>,
    /// Whether the ALIVE tick broadcasts `LeaseGrant`s for held leases.
    /// Enabled by [`ServiceNode::install_app`], so deployments without an
    /// application tier pay no extra traffic.
    pub(super) broadcast: bool,
}

impl ServiceNode {
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
    pub(super) fn renew_lease(&mut self, group: GroupId, ctx: &mut ServiceContext) -> bool {
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
            let epoch = state.elector.epoch();
            (state.elector).on_accusation(epoch, now, state.rows.trusted());
            self.alive_epoch += 1;
            return true;
        }
        lease.renewed_at = now;
        self.counts[NodeCount::LeaseRenewals].inc();
        if self.lease.broadcast {
            let grant = ServiceMessage::LeaseGrant {
                group,
                token: lease.token,
                valid_for: lease.ttl,
            };
            for (row, _) in state.rows.members() {
                ctx.send(row.peer, grant.clone());
            }
        }
        false
    }

    /// Records a remote leader's lease broadcast and forwards the fencing
    /// token to the installed app, advancing its high-water mark ahead of
    /// the new leader's first write.
    ///
    /// A leader broadcasts only its own token, so a grant whose token names
    /// another node than `from` is not a leader's word: it is dropped (and
    /// counted) before it can floor this node's mints or fence the app.
    pub(super) fn handle_lease_grant(
        &mut self,
        from: NodeId,
        group: GroupId,
        token: FencingToken,
        valid_for: SimDuration,
        ctx: &mut ServiceContext,
    ) {
        if token.node != from {
            self.counts[NodeCount::ForeignGrantsIgnored].inc();
            return;
        }
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
        if let Some(app) = self.lease.app.as_mut() {
            app.observe_token(group, token);
        }
        // A leading node that just observed a claimant's higher token must
        // immediately out-mint it to stay serviceable.
        self.check_leader(group, ctx);
    }

    /// Serves one client-tier request: applied by the installed app while
    /// this node leads `group` under a valid lease, otherwise answered with
    /// a redirect carrying the current leader view.
    pub(super) fn handle_client_request(
        &mut self,
        from: NodeId,
        group: GroupId,
        session: u64,
        seq: u64,
        payload: u64,
        ctx: &mut ServiceContext,
    ) {
        let now = ctx.now();
        let state = self.groups.get(group);
        let lease = state
            .and_then(|s| s.lease)
            .filter(|lease| lease.valid_at(now));
        if let (Some(lease), Some(app)) = (lease, self.lease.app.as_mut()) {
            let (applied, value) = match app.apply(group, lease.token, payload) {
                Ok(value) => {
                    self.counts[NodeCount::RequestsApplied].inc();
                    (true, value)
                }
                Err(_stale) => {
                    self.counts[NodeCount::RequestsRejected].inc();
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
            self.counts[NodeCount::RequestsRedirected].inc();
            ctx.send(
                from,
                ServiceMessage::Redirect {
                    group,
                    session,
                    seq,
                    leader: state.and_then(|s| s.announced_leader),
                },
            );
        }
    }
}
