//! The fenced replicated counter and the audit ledger that checks it.

use std::sync::{Arc, Mutex};

use sle_core::lease::{FencedApp, FencingToken, StaleToken};
use sle_core::process::GroupId;

/// A point-in-time copy of a [`FencingAudit`]'s ledger totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AuditSnapshot {
    /// Writes accepted (across every replica sharing the audit).
    pub accepts: u64,
    /// Writes rejected by the fencing check.
    pub rejections: u64,
    /// Accepted writes whose token was *below* a previously accepted one —
    /// fencing violations. A correct deployment keeps this at zero.
    pub violations: u64,
    /// The highest token accepted so far, if any write was accepted.
    pub high_water: Option<FencingToken>,
}

#[derive(Debug, Default)]
struct AuditInner {
    accepts: u64,
    rejections: u64,
    violations: u64,
    high_water: Option<FencingToken>,
}

/// A ledger shared (via [`Arc`]) by every replica's [`FencedCounter`],
/// recording each accepted write's fencing token in global acceptance
/// order.
///
/// Because the ledger's mutex serializes the accepts of *all* replicas, a
/// token observed below the running maximum means two leaderships' writes
/// interleaved — exactly the safety violation fencing exists to prevent —
/// and is counted in [`AuditSnapshot::violations`]. The integration tests
/// and `benchmark/`'s `app-failover` workload assert this count stays zero
/// through forced leader crashes.
#[derive(Debug, Default)]
pub struct FencingAudit {
    inner: Mutex<AuditInner>,
}

impl FencingAudit {
    /// Creates an empty audit ledger behind an [`Arc`], ready to hand to
    /// many [`FencedCounter`]s.
    pub fn shared() -> Arc<Self> {
        Arc::new(FencingAudit::default())
    }

    /// Records one accepted write under `token`.
    pub fn record_accept(&self, token: FencingToken) {
        let mut inner = self.inner.lock().expect("fencing audit poisoned");
        inner.accepts += 1;
        match inner.high_water {
            Some(high) if token < high => inner.violations += 1,
            _ => inner.high_water = Some(token),
        }
    }

    /// Records one write rejected by the fencing check.
    pub fn record_rejection(&self) {
        let mut inner = self.inner.lock().expect("fencing audit poisoned");
        inner.rejections += 1;
    }

    /// A copy of the current totals.
    pub fn snapshot(&self) -> AuditSnapshot {
        let inner = self.inner.lock().expect("fencing audit poisoned");
        AuditSnapshot {
            accepts: inner.accepts,
            rejections: inner.rejections,
            violations: inner.violations,
            high_water: inner.high_water,
        }
    }
}

/// The demo state machine of the client tier: a counter that accepts
/// `add payload` writes only under a fencing token at or above its
/// high-water mark.
///
/// One instance is installed per service node
/// ([`ClusterHandle::install_app`](sle_core::runtime::ClusterHandle::install_app));
/// instances optionally share a [`FencingAudit`] so the cross-replica
/// acceptance order can be checked. `LeaseGrant` broadcasts advance the
/// high-water mark even on replicas that never served a write
/// ([`FencedApp::observe_token`]), so a deposed leader's delayed write is
/// rejected *everywhere*, not just where the new leader already wrote.
#[derive(Debug, Default)]
pub struct FencedCounter {
    value: u64,
    high_water: Option<FencingToken>,
    audit: Option<Arc<FencingAudit>>,
}

impl FencedCounter {
    /// A counter starting at zero with no audit attached.
    pub fn new() -> Self {
        FencedCounter::default()
    }

    /// A counter reporting every accept/reject into `audit`.
    pub fn with_audit(audit: Arc<FencingAudit>) -> Self {
        FencedCounter {
            audit: Some(audit),
            ..FencedCounter::default()
        }
    }

    /// The current counter value.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// The highest token this replica has accepted or observed.
    pub fn high_water(&self) -> Option<FencingToken> {
        self.high_water
    }
}

impl FencedApp for FencedCounter {
    fn apply(
        &mut self,
        _group: GroupId,
        token: FencingToken,
        payload: u64,
    ) -> Result<u64, StaleToken> {
        if let Some(high) = self.high_water {
            if token < high {
                if let Some(audit) = &self.audit {
                    audit.record_rejection();
                }
                return Err(StaleToken {
                    presented: token,
                    high_water: high,
                });
            }
        }
        self.high_water = Some(token);
        self.value = self.value.wrapping_add(payload);
        if let Some(audit) = &self.audit {
            audit.record_accept(token);
        }
        Ok(self.value)
    }

    fn observe_token(&mut self, _group: GroupId, token: FencingToken) {
        if self.high_water.is_none_or(|high| token > high) {
            self.high_water = Some(token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sle_sim::actor::NodeId;
    use sle_sim::time::{SimDuration, SimInstant};

    fn token(ms: u64, node: u32) -> FencingToken {
        FencingToken {
            accusation_time: SimInstant::ZERO + SimDuration::from_millis(ms),
            node: NodeId(node),
            epoch: 0,
            incarnation: 0,
        }
    }

    #[test]
    fn counter_applies_monotone_tokens_and_rejects_stale_ones() {
        let audit = FencingAudit::shared();
        let mut counter = FencedCounter::with_audit(Arc::clone(&audit));
        let group = GroupId(1);
        assert_eq!(counter.apply(group, token(1, 0), 5), Ok(5));
        assert_eq!(counter.apply(group, token(2, 1), 7), Ok(12));
        // The deposed leader's delayed write bounces…
        let stale = counter.apply(group, token(1, 0), 100).unwrap_err();
        assert_eq!(stale.presented, token(1, 0));
        assert_eq!(stale.high_water, token(2, 1));
        // …and the value is untouched.
        assert_eq!(counter.value(), 12);
        let snap = audit.snapshot();
        assert_eq!(snap.accepts, 2);
        assert_eq!(snap.rejections, 1);
        assert_eq!(snap.violations, 0);
        assert_eq!(snap.high_water, Some(token(2, 1)));
    }

    #[test]
    fn observed_tokens_fence_before_the_first_write() {
        let mut counter = FencedCounter::new();
        let group = GroupId(1);
        // The new leader's LeaseGrant is heard first…
        counter.observe_token(group, token(5, 2));
        // …so the old leader's delayed first write is rejected even though
        // this replica never served a request.
        assert!(counter.apply(group, token(3, 0), 1).is_err());
        // Equal-to-high-water tokens still apply (same leadership).
        assert_eq!(counter.apply(group, token(5, 2), 1), Ok(1));
        // Observing an older token never regresses the mark.
        counter.observe_token(group, token(4, 1));
        assert_eq!(counter.high_water(), Some(token(5, 2)));
    }

    #[test]
    fn audit_counts_out_of_order_accepts_as_violations() {
        let audit = FencingAudit::shared();
        audit.record_accept(token(2, 0));
        audit.record_accept(token(1, 0)); // out of order: a violation
        let snap = audit.snapshot();
        assert_eq!(snap.accepts, 2);
        assert_eq!(snap.violations, 1);
        assert_eq!(snap.high_water, Some(token(2, 0)));
    }
}
