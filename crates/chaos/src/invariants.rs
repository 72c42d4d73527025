//! Machine-checked protocol invariants, replayed over a chaos-run trace.
//!
//! The checker encodes the properties the paper claims (with the section
//! that claims them):
//!
//! * **Eventual agreement** (§5, leader availability `P_leader`; §6.2):
//!   whenever the network is whole and no fault has happened for a settle
//!   window, all OK group members must share a common alive leader.
//! * **Leader stability** (§6.3/§6.4, services S2/S3): a commonly agreed
//!   leader that stays alive, stays a member and stays connected must not
//!   be demoted. S1 (Ωid) is *exempt by design* — its instability under
//!   rejoining small ids is exactly what the paper measures.
//! * **Mistake-recurrence QoS** (§3, `T_MR^L`): unjustified demotions are
//!   FD mistakes; their number over the run must not exceed the budget the
//!   QoS allows (one, plus one per `T_MR` of run time). Also S2/S3 only.
//! * **No two simultaneous stable leaders in one partition component**
//!   (§2, the service's very specification): two OK nodes of the same
//!   component must never *both* consider themselves leader beyond the
//!   settle tolerance. Leaders in different components are allowed — that
//!   is what a partition means.
//!
//! Transients are unavoidable in an asynchronous system, so every invariant
//! is enforced only outside a *settle window* after each disruption (fault
//! injection, crash, recovery, churn, topology change): an eventual
//! property checked as "must hold within `settle` of the system quieting
//! down".

use sle_election::ElectorKind;
use sle_fd::QosSpec;
use sle_sim::actor::NodeId;
use sle_sim::time::{SimDuration, SimInstant};

use crate::trace::{TraceEvent, TraceEventKind};

/// What to check a trace against.
#[derive(Debug, Clone)]
pub struct InvariantSpec {
    /// The election algorithm under test (decides whether the stability and
    /// mistake-recurrence invariants apply).
    pub algorithm: ElectorKind,
    /// Number of workstations.
    pub nodes: usize,
    /// The failure-detection QoS the group joined with (source of the
    /// mistake budget).
    pub qos: QosSpec,
    /// The settle window: how long after a disruption the invariants are
    /// suspended, and how long a bad state may persist before it counts.
    pub settle: SimDuration,
    /// End of the checked run.
    pub end: SimInstant,
}

impl InvariantSpec {
    /// Whether the stability-family invariants apply to this algorithm
    /// (they do not to Ωid, the paper's deliberately unstable baseline).
    pub fn stability_applies(&self) -> bool {
        !matches!(self.algorithm, ElectorKind::OmegaId)
    }

    /// The number of unjustified demotions the mistake-recurrence QoS
    /// tolerates over this run: one transient, plus one per `T_MR^L` of run
    /// time (for the paper's 100-day bound and minutes-long runs: one).
    pub fn mistake_budget(&self) -> u64 {
        let span = self.end.saturating_since(SimInstant::ZERO).as_secs_f64();
        let recurrence = self.qos.mistake_recurrence().as_secs_f64().max(1e-9);
        1 + (span / recurrence) as u64
    }
}

/// The class of a detected violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationKind {
    /// OK members of a whole network failed to agree on an alive leader
    /// within the settle window.
    NoAgreement,
    /// A commonly agreed leader was demoted while alive, a member, and
    /// connected — in quiet time, with no conceivable cause.
    UnjustifiedDemotion,
    /// More unjustified demotions than the mistake-recurrence QoS allows.
    MistakeRecurrenceExceeded,
    /// Two OK nodes of the same partition component both considered
    /// themselves leader beyond the settle tolerance.
    TwoStableLeaders,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViolationKind::NoAgreement => write!(f, "no-agreement"),
            ViolationKind::UnjustifiedDemotion => write!(f, "unjustified-demotion"),
            ViolationKind::MistakeRecurrenceExceeded => write!(f, "mistake-recurrence-exceeded"),
            ViolationKind::TwoStableLeaders => write!(f, "two-stable-leaders"),
        }
    }
}

/// One invariant violation found in a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// When it broke (virtual time).
    pub at: SimInstant,
    /// Human-readable specifics (who, about whom).
    pub details: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{} @ {:.3}s] {}",
            self.kind,
            self.at.as_secs_f64(),
            self.details
        )
    }
}

/// Component-id marker for nodes isolated by a partition.
const ISOLATED_BASE: u32 = 1_000_000;

struct CheckState {
    up: Vec<bool>,
    participant: Vec<bool>,
    views: Vec<Option<sle_core::ProcessId>>,
    component: Vec<u32>,
    partitioned: bool,
    last_disruption: SimInstant,
    agreement: Option<sle_core::ProcessId>,
    last_agreed: Option<sle_core::ProcessId>,
    lost_since: SimInstant,
    /// Whether anything since the loss of the last agreement justifies the
    /// previous leader being replaced (it crashed, left, or a partition
    /// intervened).
    demotion_justified: bool,
    agreement_flagged: bool,
    /// Dual-leadership pairs already reported; a pair is cleared (and may
    /// be reported again) only once one of its nodes stops self-leading —
    /// one persistent condition is one violation.
    flagged_pairs: std::collections::BTreeSet<(u32, u32)>,
    self_led_since: Vec<Option<SimInstant>>,
    mistakes: u64,
}

impl CheckState {
    fn new(nodes: usize) -> Self {
        CheckState {
            up: vec![true; nodes],
            participant: vec![true; nodes],
            views: vec![None; nodes],
            component: vec![0; nodes],
            partitioned: false,
            last_disruption: SimInstant::ZERO,
            agreement: None,
            last_agreed: None,
            lost_since: SimInstant::ZERO,
            demotion_justified: false,
            agreement_flagged: false,
            flagged_pairs: std::collections::BTreeSet::new(),
            self_led_since: vec![None; nodes],
            mistakes: 0,
        }
    }

    /// Marks `node` as no longer self-leading, re-arming the two-leaders
    /// check for every pair it was part of.
    fn stop_self_leading(&mut self, index: usize) {
        if index < self.self_led_since.len() {
            self.self_led_since[index] = None;
        }
        let id = index as u32;
        self.flagged_pairs.retain(|&(a, b)| a != id && b != id);
    }

    fn ok_member(&self, node: NodeId) -> bool {
        self.up.get(node.index()).copied().unwrap_or(false)
            && self.participant.get(node.index()).copied().unwrap_or(false)
    }

    /// The commonly agreed alive leader: *every* OK member reports the same
    /// leader and the leader's node is itself OK. Stricter than the
    /// harness's `MetricsCollector` (which excludes members without a view
    /// from its availability metric): here a member stuck with no leader
    /// view counts as disagreement, so a detector that leaves one node
    /// permanently leaderless is an agreement failure, not a blind spot.
    /// Freshly (re)joined members get the settle window that follows their
    /// join/recovery disruption to announce. Meaningless while partitioned.
    fn compute_agreement(&self) -> Option<sle_core::ProcessId> {
        if self.partitioned {
            return None;
        }
        let mut agreed: Option<sle_core::ProcessId> = None;
        let mut members = 0usize;
        for index in 0..self.views.len() {
            if !self.ok_member(NodeId(index as u32)) {
                continue;
            }
            members += 1;
            let Some(view) = self.views[index] else {
                return None; // an OK member with no leader view: no agreement
            };
            match agreed {
                None => agreed = Some(view),
                Some(current) if current == view => {}
                _ => return None,
            }
        }
        if members == 0 {
            return None;
        }
        agreed.filter(|leader| self.ok_member(leader.node))
    }

    fn disrupt(&mut self, at: SimInstant) {
        self.last_disruption = at;
        // New transients are expected; allow the agreement stretch to be
        // re-flagged once the post-disruption settle window has passed
        // again. (Dual-leadership pairs stay flagged: the condition did not
        // end, so re-reporting it would be a duplicate.)
        self.agreement_flagged = false;
    }
}

/// Replays `trace` and returns every invariant violation found.
///
/// The trace must be chronological (which any trace produced by
/// [`TraceRecorder`](crate::trace::TraceRecorder) during a simulation run
/// is).
pub fn check_trace(trace: &[TraceEvent], spec: &InvariantSpec) -> Vec<Violation> {
    let mut state = CheckState::new(spec.nodes);
    let mut violations = Vec::new();
    for event in trace {
        debug_assert!(event.at <= spec.end, "trace event past the declared end");
        interval_checks(&mut state, event.at, spec, &mut violations);
        apply_event(&mut state, event);
        refresh_agreement(&mut state, event.at, spec, &mut violations);
    }
    interval_checks(&mut state, spec.end, spec, &mut violations);
    if spec.stability_applies() && state.mistakes > spec.mistake_budget() {
        violations.push(Violation {
            kind: ViolationKind::MistakeRecurrenceExceeded,
            at: spec.end,
            details: format!(
                "{} unjustified demotions observed, but the QoS (T_MR = {}) allows at most {} \
                 over this run",
                state.mistakes,
                spec.qos.mistake_recurrence(),
                spec.mistake_budget()
            ),
        });
    }
    violations
}

/// Checks the state that was in force on the interval ending at `now`.
fn interval_checks(
    state: &mut CheckState,
    now: SimInstant,
    spec: &InvariantSpec,
    violations: &mut Vec<Violation>,
) {
    // Eventual agreement: the whole network, quiet for a settle window,
    // must have converged on a common alive leader — vacuous while nobody
    // is an OK member (e.g. the sole member left and has not rejoined yet).
    let any_ok_member = (0..spec.nodes).any(|index| state.ok_member(NodeId(index as u32)));
    if any_ok_member && !state.partitioned && state.agreement.is_none() && !state.agreement_flagged
    {
        let deadline = state.lost_since.max(state.last_disruption) + spec.settle;
        if deadline < now {
            let votes: Vec<String> = (0..spec.nodes)
                .filter(|&index| state.ok_member(NodeId(index as u32)))
                .map(|index| match state.views[index] {
                    Some(leader) => format!("n{index} -> {leader}"),
                    None => format!("n{index} -> (no leader)"),
                })
                .collect();
            violations.push(Violation {
                kind: ViolationKind::NoAgreement,
                at: deadline,
                details: format!(
                    "OK members still disagree {} after the last disruption: {}",
                    spec.settle,
                    votes.join(", ")
                ),
            });
            state.agreement_flagged = true;
        }
    }

    // No two simultaneous stable leaders within one component. Each pair is
    // reported once per episode (see `CheckState::flagged_pairs`).
    let mut leaders: Vec<(NodeId, u32, SimInstant)> = Vec::new();
    for index in 0..spec.nodes {
        let node = NodeId(index as u32);
        if !state.ok_member(node) {
            continue;
        }
        if let Some(since) = state.self_led_since[index] {
            leaders.push((node, state.component[index], since));
        }
    }
    for (i, &(node_a, comp_a, since_a)) in leaders.iter().enumerate() {
        for &(node_b, comp_b, since_b) in &leaders[i + 1..] {
            if comp_a != comp_b {
                continue;
            }
            let pair = (node_a.0.min(node_b.0), node_a.0.max(node_b.0));
            if state.flagged_pairs.contains(&pair) {
                continue;
            }
            let stable_from = since_a.max(since_b).max(state.last_disruption) + spec.settle;
            if stable_from < now {
                violations.push(Violation {
                    kind: ViolationKind::TwoStableLeaders,
                    at: stable_from,
                    details: format!(
                        "{node_a} and {node_b} both consider themselves leader of the same \
                         component, continuously for over {}",
                        spec.settle
                    ),
                });
                state.flagged_pairs.insert(pair);
            }
        }
    }
}

fn apply_event(state: &mut CheckState, event: &TraceEvent) {
    let at = event.at;
    match &event.kind {
        TraceEventKind::View { node, leader } => {
            let index = node.index();
            if index >= state.views.len() {
                return;
            }
            state.views[index] = *leader;
            let leads_itself = leader.map(|l| l.node) == Some(*node);
            if leads_itself {
                state.self_led_since[index] = state.self_led_since[index].or(Some(at));
            } else {
                // Ends this node's dual-leadership episodes, re-arming the
                // check for any future one it takes part in.
                state.stop_self_leading(index);
            }
        }
        TraceEventKind::Crashed { node } => {
            let index = node.index();
            if index < state.up.len() {
                state.up[index] = false;
                state.views[index] = None;
                state.stop_self_leading(index);
            }
            if state.last_agreed.map(|l| l.node) == Some(*node) {
                state.demotion_justified = true;
            }
            state.disrupt(at);
        }
        TraceEventKind::Recovered { node } => {
            let index = node.index();
            if index < state.up.len() {
                state.up[index] = true;
                state.views[index] = None;
                // A recovered workstation re-establishes its auto-joins, so
                // it is a group member again even if it had voluntarily left
                // in its previous life.
                state.participant[index] = true;
            }
            state.disrupt(at);
        }
        TraceEventKind::Left { node } => {
            let index = node.index();
            if index < state.participant.len() {
                state.participant[index] = false;
                state.views[index] = None;
                state.stop_self_leading(index);
            }
            if state.last_agreed.map(|l| l.node) == Some(*node) {
                state.demotion_justified = true;
            }
            state.disrupt(at);
        }
        TraceEventKind::Joined { node } => {
            let index = node.index();
            if index < state.participant.len() {
                state.participant[index] = true;
            }
            state.disrupt(at);
        }
        TraceEventKind::Partitioned { components } => {
            state.partitioned = true;
            for index in 0..state.component.len() {
                state.component[index] = ISOLATED_BASE + index as u32;
            }
            for (id, component) in components.iter().enumerate() {
                for node in component {
                    if node.index() < state.component.len() {
                        state.component[node.index()] = id as u32;
                    }
                }
            }
            state.demotion_justified = true;
            state.disrupt(at);
        }
        TraceEventKind::Healed => {
            state.partitioned = false;
            for comp in &mut state.component {
                *comp = 0;
            }
            state.demotion_justified = true;
            state.disrupt(at);
        }
        TraceEventKind::LinkChanged => {
            state.disrupt(at);
        }
    }
}

fn refresh_agreement(
    state: &mut CheckState,
    now: SimInstant,
    spec: &InvariantSpec,
    violations: &mut Vec<Violation>,
) {
    let new = state.compute_agreement();
    if new == state.agreement {
        return;
    }
    match (state.agreement, new) {
        (Some(lost), None) => {
            state.lost_since = now;
            // If the leader is *now* not OK (or a partition started), the
            // loss itself justifies whatever replacement follows.
            state.demotion_justified = !state.ok_member(lost.node) || state.partitioned;
        }
        (old, Some(formed)) => {
            let previous = old.or(state.last_agreed);
            if let Some(previous) = previous {
                let previous_ok = state.ok_member(previous.node);
                if previous != formed && previous_ok && !state.demotion_justified {
                    // Inside the settle window after a disruption (including
                    // the run's start, where partial discovery makes interim
                    // agreements flip), a demotion is an expected transient.
                    // In quiet time it is an FD mistake: counted against the
                    // QoS budget and, for the stable services, a stability
                    // violation outright.
                    if state.last_disruption + spec.settle < now {
                        state.mistakes += 1;
                        if spec.stability_applies() {
                            violations.push(Violation {
                                kind: ViolationKind::UnjustifiedDemotion,
                                at: now,
                                details: format!(
                                    "commonly agreed leader {previous} was demoted in favour of \
                                     {formed} while alive, a member and connected"
                                ),
                            });
                        }
                    }
                }
            }
            state.last_agreed = Some(formed);
            state.demotion_justified = false;
            state.agreement_flagged = false;
        }
        (None, None) => {}
    }
    state.agreement = new;
}

#[cfg(test)]
mod tests {
    use super::*;
    use sle_core::ProcessId;

    fn spec(algorithm: ElectorKind, end_secs: f64) -> InvariantSpec {
        InvariantSpec {
            algorithm,
            nodes: 3,
            qos: QosSpec::paper_default(),
            settle: SimDuration::from_secs(10),
            end: SimInstant::from_secs_f64(end_secs),
        }
    }

    fn view(at: f64, node: u32, leader: Option<u32>) -> TraceEvent {
        TraceEvent {
            at: SimInstant::from_secs_f64(at),
            kind: TraceEventKind::View {
                node: NodeId(node),
                leader: leader.map(|l| ProcessId::new(NodeId(l), 0)),
            },
        }
    }

    fn mark(at: f64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            at: SimInstant::from_secs_f64(at),
            kind,
        }
    }

    #[test]
    fn a_quickly_agreeing_group_is_clean() {
        let trace = vec![
            view(1.0, 0, Some(0)),
            view(1.1, 1, Some(0)),
            view(1.2, 2, Some(0)),
        ];
        let violations = check_trace(&trace, &spec(ElectorKind::OmegaLc, 60.0));
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn persistent_disagreement_is_a_no_agreement_violation() {
        // Neither view is a self-claim (node 1 believes node 2 leads, node 0
        // believes node 2's colleague does), so only the agreement invariant
        // trips — reported once, with the per-node votes.
        let trace = vec![view(1.0, 0, Some(1)), view(1.0, 1, Some(2))];
        let violations = check_trace(&trace, &spec(ElectorKind::OmegaL, 60.0));
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].kind, ViolationKind::NoAgreement);
        assert!(violations[0].details.contains("n0 -> n1.p0"));
        assert!(violations[0].to_string().contains("no-agreement"));
    }

    #[test]
    fn never_electing_at_all_is_a_no_agreement_violation() {
        let violations = check_trace(&[], &spec(ElectorKind::OmegaLc, 60.0));
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, ViolationKind::NoAgreement);
        assert_eq!(violations[0].at, SimInstant::from_secs_f64(10.0));
    }

    #[test]
    fn a_member_permanently_without_a_leader_view_breaks_agreement() {
        // Two nodes agree, the third announces "no leader" forever: a
        // defective detector has left it leaderless, and the checker must
        // not treat it as still joining indefinitely.
        let trace = vec![
            view(1.0, 0, Some(0)),
            view(1.0, 1, Some(0)),
            view(1.0, 2, None),
        ];
        let violations = check_trace(&trace, &spec(ElectorKind::OmegaLc, 60.0));
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].kind, ViolationKind::NoAgreement);
        assert!(violations[0].details.contains("n2 -> (no leader)"));
    }

    #[test]
    fn crash_justifies_the_demotion() {
        let trace = vec![
            view(1.0, 0, Some(0)),
            view(1.0, 1, Some(0)),
            view(1.0, 2, Some(0)),
            mark(20.0, TraceEventKind::Crashed { node: NodeId(0) }),
            view(21.5, 1, Some(1)),
            view(21.6, 2, Some(1)),
            mark(25.0, TraceEventKind::Recovered { node: NodeId(0) }),
            view(27.0, 0, Some(1)),
        ];
        let violations = check_trace(&trace, &spec(ElectorKind::OmegaL, 60.0));
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn quiet_time_demotion_of_an_alive_leader_is_unjustified() {
        let trace = vec![
            view(1.0, 0, Some(0)),
            view(1.0, 1, Some(0)),
            view(1.0, 2, Some(0)),
            // Way past any settle window, with node 0 alive and connected,
            // everyone switches to node 1.
            view(30.0, 0, Some(1)),
            view(30.1, 1, Some(1)),
            view(30.2, 2, Some(1)),
        ];
        let violations = check_trace(&trace, &spec(ElectorKind::OmegaLc, 60.0));
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].kind, ViolationKind::UnjustifiedDemotion);
        assert!(violations[0].details.contains("n0.p0"));
    }

    #[test]
    fn omega_id_is_exempt_from_stability() {
        let trace = vec![
            view(1.0, 0, Some(1)),
            view(1.0, 1, Some(1)),
            view(1.0, 2, Some(1)),
            view(30.0, 0, Some(0)),
            view(30.1, 1, Some(0)),
            view(30.2, 2, Some(0)),
        ];
        let violations = check_trace(&trace, &spec(ElectorKind::OmegaId, 60.0));
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn repeated_mistakes_exceed_the_recurrence_budget() {
        // A weakened detector flip-flopping between two leaders: each flip
        // within a settle window of the previous one is not a stability
        // violation by itself, but the budget catches the recurrence.
        let mut trace = vec![
            view(1.0, 0, Some(0)),
            view(1.0, 1, Some(0)),
            view(1.0, 2, Some(0)),
        ];
        let mut t = 12.0;
        for round in 0..4 {
            let next = if round % 2 == 0 { 1 } else { 0 };
            trace.push(view(t, 0, Some(next)));
            trace.push(view(t + 0.1, 1, Some(next)));
            trace.push(view(t + 0.2, 2, Some(next)));
            t += 8.0;
        }
        let violations = check_trace(&trace, &spec(ElectorKind::OmegaLc, 60.0));
        assert!(
            violations
                .iter()
                .any(|v| v.kind == ViolationKind::MistakeRecurrenceExceeded),
            "{violations:?}"
        );
    }

    #[test]
    fn two_components_may_each_have_a_leader_but_one_component_may_not() {
        let partition = TraceEventKind::Partitioned {
            components: vec![vec![NodeId(0)], vec![NodeId(1), NodeId(2)]],
        };
        // Partitioned: node 0 leads itself, node 1 leads the other side.
        let trace = vec![
            view(1.0, 0, Some(0)),
            view(1.0, 1, Some(0)),
            view(1.0, 2, Some(0)),
            mark(15.0, partition.clone()),
            view(17.0, 1, Some(1)),
            view(17.1, 2, Some(1)),
            view(18.0, 0, Some(0)),
        ];
        let violations = check_trace(&trace, &spec(ElectorKind::OmegaLc, 60.0));
        assert!(
            !violations
                .iter()
                .any(|v| v.kind == ViolationKind::TwoStableLeaders),
            "cross-component dual leadership must be allowed: {violations:?}"
        );

        // Same views, but no partition: two self-styled leaders in one
        // component, both stable far past the tolerance.
        let trace = vec![
            view(1.0, 0, Some(0)),
            view(1.0, 1, Some(1)),
            view(1.0, 2, Some(1)),
        ];
        let violations = check_trace(&trace, &spec(ElectorKind::OmegaLc, 60.0));
        assert!(
            violations
                .iter()
                .any(|v| v.kind == ViolationKind::TwoStableLeaders),
            "{violations:?}"
        );
    }

    #[test]
    fn voluntary_leave_justifies_the_demotion_and_leavers_do_not_block_agreement() {
        let trace = vec![
            view(1.0, 0, Some(0)),
            view(1.0, 1, Some(0)),
            view(1.0, 2, Some(0)),
            mark(20.0, TraceEventKind::Left { node: NodeId(0) }),
            view(21.0, 1, Some(1)),
            view(21.1, 2, Some(1)),
        ];
        let violations = check_trace(&trace, &spec(ElectorKind::OmegaL, 60.0));
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn crash_recovery_restores_membership_after_a_voluntary_leave() {
        // n2 leaves, crashes, recovers: the recovered incarnation
        // auto-rejoins, so its dissenting self-leadership must count again
        // — the checker may not silently exclude it forever.
        let trace = vec![
            view(1.0, 0, Some(0)),
            view(1.0, 1, Some(0)),
            view(1.0, 2, Some(0)),
            mark(12.0, TraceEventKind::Left { node: NodeId(2) }),
            mark(14.0, TraceEventKind::Crashed { node: NodeId(2) }),
            mark(16.0, TraceEventKind::Recovered { node: NodeId(2) }),
            // Far past the settle window, the rejoined n2 stably claims the
            // leadership for itself while n0 also self-leads.
            view(30.0, 2, Some(2)),
        ];
        let violations = check_trace(&trace, &spec(ElectorKind::OmegaLc, 60.0));
        assert!(
            violations
                .iter()
                .any(|v| v.kind == ViolationKind::TwoStableLeaders),
            "a recovered leaver must be checked again: {violations:?}"
        );
    }

    #[test]
    fn persistent_dual_leadership_is_reported_once_not_per_view_event() {
        let mut trace = vec![
            view(1.0, 0, Some(0)),
            view(1.0, 1, Some(1)),
            view(1.0, 2, Some(0)),
        ];
        // A stream of unrelated view flaps from n2 — sometimes briefly
        // claiming itself, always retracting within the settle tolerance —
        // while the n0/n1 dual leadership persists throughout.
        for step in 0..50 {
            let t = 15.0 + 2.0 * step as f64;
            trace.push(view(t, 2, Some(2)));
            trace.push(view(t + 1.0, 2, Some(if step % 2 == 0 { 1 } else { 0 })));
        }
        let violations = check_trace(&trace, &spec(ElectorKind::OmegaLc, 130.0));
        let dual: Vec<&Violation> = violations
            .iter()
            .filter(|v| v.kind == ViolationKind::TwoStableLeaders)
            .collect();
        assert_eq!(
            dual.len(),
            1,
            "one persistent condition must be one violation: {violations:?}"
        );
        assert!(dual[0].details.contains("n0") && dual[0].details.contains("n1"));
    }

    #[test]
    fn mistake_budget_scales_with_run_length() {
        let short = spec(ElectorKind::OmegaLc, 60.0);
        assert_eq!(short.mistake_budget(), 1);
        let mut long = spec(ElectorKind::OmegaLc, 60.0);
        long.qos =
            QosSpec::new(SimDuration::from_secs(1), SimDuration::from_secs(20), 0.99).unwrap();
        assert_eq!(long.mistake_budget(), 4);
        assert!(long.stability_applies());
        assert!(!InvariantSpec {
            algorithm: ElectorKind::OmegaId,
            ..long
        }
        .stability_applies());
    }
}
