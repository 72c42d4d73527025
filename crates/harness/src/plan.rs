//! The fault-plan DSL: timed, seed-driven injections compiled onto the
//! simulation timeline.
//!
//! A [`FaultPlan`] is a time-ordered list of [`FaultAction`]s. Plans are
//! either written by hand (regression tests, targeted experiments) or
//! generated deterministically from a seed by a [`PlanKind`] — the sweep
//! runner's way of searching the schedule space. Because generation is a
//! pure function of `(kind, nodes, duration, base link, seed)`, any failing
//! sweep cell is exactly reproducible from its coordinates.

use sle_net::link::LinkSpec;
use sle_sim::actor::NodeId;
use sle_sim::rng::SimRng;
use sle_sim::time::{SimDuration, SimInstant};

/// One fault to inject into a running simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Crash a workstation (its service instance loses all state).
    Crash(NodeId),
    /// Recover a previously crashed workstation (fresh incarnation, which
    /// auto-rejoins the experiment group).
    Recover(NodeId),
    /// Crash whichever node currently holds the (majority-view) leadership,
    /// and recover it after `down_for`. Resolved at injection time, so the
    /// same plan kills the *actual* leader of every seed's execution.
    CrashLeader {
        /// How long the crashed leader stays down before recovering.
        down_for: SimDuration,
    },
    /// All application processes of this workstation leave the experiment
    /// group (the workstation itself stays up — voluntary departure, not a
    /// crash).
    Leave(NodeId),
    /// Register a fresh application process on this workstation and join it
    /// to the experiment group as a candidate (a no-op if the workstation
    /// already has a member).
    Join(NodeId),
    /// Register a fresh application process on this workstation and join it
    /// to the experiment group as a candidate *unconditionally* — unlike
    /// [`FaultAction::Join`], an already-member workstation gains an
    /// additional process. This is how the `LargeChurn` family drives the
    /// group past 100 member processes.
    SpawnProcess(NodeId),
    /// Partition the network into the given components: messages crossing a
    /// component boundary are dropped; nodes listed in no component are
    /// isolated entirely.
    Partition(Vec<Vec<NodeId>>),
    /// Remove any active partition.
    Heal,
    /// Replace the behaviour of every (non-overridden) link — delay steps,
    /// burst loss, duplication and reordering overlays are all expressed as
    /// a pair of `SetLink` actions (apply, then restore).
    SetLink(LinkSpec),
}

impl FaultAction {
    /// Renders this action as Rust source, for pasting into a regression
    /// test. Paths are fully qualified so the snippet compiles without
    /// imports.
    pub fn to_code(&self) -> String {
        match self {
            FaultAction::Crash(node) => {
                format!("sle_harness::FaultAction::Crash(sle_sim::NodeId({}))", node.0)
            }
            FaultAction::Recover(node) => format!(
                "sle_harness::FaultAction::Recover(sle_sim::NodeId({}))",
                node.0
            ),
            FaultAction::CrashLeader { down_for } => format!(
                "sle_harness::FaultAction::CrashLeader {{ down_for: sle_sim::SimDuration::from_nanos({}) }}",
                down_for.as_nanos()
            ),
            FaultAction::Leave(node) => {
                format!("sle_harness::FaultAction::Leave(sle_sim::NodeId({}))", node.0)
            }
            FaultAction::Join(node) => {
                format!("sle_harness::FaultAction::Join(sle_sim::NodeId({}))", node.0)
            }
            FaultAction::SpawnProcess(node) => format!(
                "sle_harness::FaultAction::SpawnProcess(sle_sim::NodeId({}))",
                node.0
            ),
            FaultAction::Partition(components) => {
                let rendered: Vec<String> = components
                    .iter()
                    .map(|component| {
                        let nodes: Vec<String> = component
                            .iter()
                            .map(|node| format!("sle_sim::NodeId({})", node.0))
                            .collect();
                        format!("vec![{}]", nodes.join(", "))
                    })
                    .collect();
                format!(
                    "sle_harness::FaultAction::Partition(vec![{}])",
                    rendered.join(", ")
                )
            }
            FaultAction::Heal => "sle_harness::FaultAction::Heal".to_string(),
            FaultAction::SetLink(spec) => {
                format!("sle_harness::FaultAction::SetLink({})", link_to_code(spec))
            }
        }
    }
}

/// Renders a [`LinkSpec`] as Rust source (fully qualified paths).
pub fn link_to_code(spec: &LinkSpec) -> String {
    let mut code = format!(
        "sle_net::link::LinkSpec::lossy(sle_sim::SimDuration::from_nanos({}), {:?})",
        spec.mean_delay().as_nanos(),
        spec.loss_probability()
    );
    if spec.duplicate_probability() > 0.0 {
        code.push_str(&format!(
            ".with_duplication({:?})",
            spec.duplicate_probability()
        ));
    }
    if !spec.jitter().is_zero() {
        code.push_str(&format!(
            ".with_jitter(sle_sim::SimDuration::from_nanos({}))",
            spec.jitter().as_nanos()
        ));
    }
    code
}

/// A fault action bound to an instant of the simulation timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedAction {
    /// When the action is applied (virtual time).
    pub at: SimInstant,
    /// What is injected.
    pub action: FaultAction,
}

/// A named, time-ordered schedule of fault injections.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    name: String,
    actions: Vec<TimedAction>,
}

impl FaultPlan {
    /// An empty plan with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        FaultPlan {
            name: name.into(),
            actions: Vec::new(),
        }
    }

    /// The fault-free plan (baseline: the service must uphold every
    /// invariant with nothing injected at all).
    pub fn quiet() -> Self {
        FaultPlan::new("quiet")
    }

    /// The plan's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds `action` at `secs` seconds of virtual time (kept time-sorted).
    pub fn at(self, secs: f64, action: FaultAction) -> Self {
        self.at_instant(SimInstant::from_secs_f64(secs), action)
    }

    /// Adds `action` at `nanos` nanoseconds of virtual time — the
    /// full-precision form emitted into generated regression tests.
    pub fn at_nanos(self, nanos: u64, action: FaultAction) -> Self {
        self.at_instant(SimInstant::from_nanos(nanos), action)
    }

    /// Adds `action` at `at` (kept time-sorted; ties keep insertion order).
    pub fn at_instant(mut self, at: SimInstant, action: FaultAction) -> Self {
        let index = self.actions.partition_point(|existing| existing.at <= at);
        self.actions.insert(index, TimedAction { at, action });
        self
    }

    /// The scheduled actions, in time order.
    pub fn actions(&self) -> &[TimedAction] {
        &self.actions
    }

    /// Number of scheduled actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True if no action is scheduled.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// When the last action fires, if any.
    pub fn last_action_at(&self) -> Option<SimInstant> {
        self.actions.last().map(|timed| timed.at)
    }

    /// A copy of the plan with the action at `index` removed (the shrinker's
    /// one reduction step).
    pub fn without(&self, index: usize) -> FaultPlan {
        let mut actions = self.actions.clone();
        actions.remove(index);
        FaultPlan {
            name: self.name.clone(),
            actions,
        }
    }
}

/// The families of fault plans the sweep runner searches over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// Partition the group into two components, then heal.
    PartitionHeal,
    /// Crash the current leader (twice), recovering it a few seconds later.
    LeaderChurn,
    /// Overlay message duplication + reordering jitter + extra loss on every
    /// link for a window, then restore; one member leaves and rejoins right
    /// after the overlay goes on, and the restore moves out by as much.
    DupReorder,
    /// Step every link's delay up (a latency regime shift / clock-drift
    /// proxy) for a window, then restore.
    DriftStep,
    /// Members voluntarily leave the group mid-run and rejoin later.
    MemberChurn,
    /// Join/leave churn at scale: the group is driven past 100 member
    /// processes (spread across at least [`PlanKind::min_nodes`]
    /// workstations) while whole workstations keep leaving and rejoining.
    LargeChurn,
}

impl PlanKind {
    /// Every plan family, in sweep order.
    pub fn all() -> [PlanKind; 6] {
        [
            PlanKind::PartitionHeal,
            PlanKind::LeaderChurn,
            PlanKind::DupReorder,
            PlanKind::DriftStep,
            PlanKind::MemberChurn,
            PlanKind::LargeChurn,
        ]
    }

    /// A stable, file-system-friendly name.
    pub fn name(&self) -> &'static str {
        match self {
            PlanKind::PartitionHeal => "partition-heal",
            PlanKind::LeaderChurn => "leader-churn",
            PlanKind::DupReorder => "dup-reorder",
            PlanKind::DriftStep => "drift-step",
            PlanKind::MemberChurn => "member-churn",
            PlanKind::LargeChurn => "large-churn",
        }
    }

    /// The smallest deployment this family is meaningful at. The sweep
    /// runner raises its configured node count to this floor per family, so
    /// `LargeChurn` always runs with enough workstations to host its
    /// 100-plus processes while the other families keep the sweep's size.
    pub fn min_nodes(&self) -> usize {
        match self {
            PlanKind::LargeChurn => 24,
            _ => 0,
        }
    }

    /// Generates the concrete plan for this family, deterministically from
    /// `seed`. Every injection lands within `duration` — times that would
    /// overshoot a short window are clamped to just inside it, so the
    /// engine's quiet settle tail stays quiet — and `base_link` is the
    /// behaviour overlays are layered on and restored to. Degenerate
    /// combinations (a partition of fewer than two nodes) produce an empty
    /// plan rather than a panic.
    pub fn generate(
        &self,
        nodes: usize,
        duration: SimDuration,
        base_link: LinkSpec,
        seed: u64,
    ) -> FaultPlan {
        // Salt the stream per family so the same sweep seed explores
        // independent schedules across families.
        let salt = match self {
            PlanKind::PartitionHeal => 0x50,
            PlanKind::LeaderChurn => 0x51,
            PlanKind::DupReorder => 0x52,
            PlanKind::DriftStep => 0x53,
            PlanKind::MemberChurn => 0x54,
            PlanKind::LargeChurn => 0x55,
        };
        let mut rng = SimRng::seed_from(seed ^ (salt << 32));
        let total = duration.as_secs_f64();
        // No action past `cap`; injections start after the initial election
        // has settled (when the window leaves room for that) and the first
        // one lands early enough for a disruption window plus recovery.
        let cap = (total - 1.0).max(0.5);
        let start = (total * 0.2).min(8.0).min(cap);
        let latest = (total - 12.0).max(start + 1.0).min(cap);
        let t1 = rng.uniform_range(start, (start + latest) / 2.0).min(cap);
        match self {
            PlanKind::PartitionHeal => {
                if nodes < 2 {
                    // Nothing to partition.
                    return FaultPlan::new(self.name());
                }
                let mut minority = Vec::new();
                let mut majority = Vec::new();
                // A random non-empty minority of at most half the nodes, so
                // the other side can always elect.
                let minority_size =
                    (1 + rng.uniform_usize(((nodes - 1) / 2).max(1))).min(nodes - 1);
                let mut ids: Vec<u32> = (0..nodes as u32).collect();
                for k in 0..minority_size {
                    let pick = k + rng.uniform_usize(ids.len() - k);
                    ids.swap(k, pick);
                }
                for (index, id) in ids.into_iter().enumerate() {
                    if index < minority_size {
                        minority.push(NodeId(id));
                    } else {
                        majority.push(NodeId(id));
                    }
                }
                minority.sort();
                majority.sort();
                let heal_at = (t1 + rng.uniform_range(6.0, 12.0)).min(cap);
                FaultPlan::new(self.name())
                    .at(t1, FaultAction::Partition(vec![minority, majority]))
                    .at(heal_at, FaultAction::Heal)
            }
            PlanKind::LeaderChurn => {
                let down = SimDuration::from_secs_f64(rng.uniform_range(4.0, 7.0));
                let t2 = t1 + rng.uniform_range(14.0, 18.0);
                let mut plan =
                    FaultPlan::new(self.name()).at(t1, FaultAction::CrashLeader { down_for: down });
                if t2 < latest {
                    let down2 = SimDuration::from_secs_f64(rng.uniform_range(4.0, 7.0));
                    plan = plan.at(t2, FaultAction::CrashLeader { down_for: down2 });
                }
                plan
            }
            PlanKind::DupReorder => {
                let overlay = base_link
                    .with_duplication(rng.uniform_range(0.15, 0.35))
                    .with_jitter(SimDuration::from_millis_f64(rng.uniform_range(20.0, 60.0)));
                let window = rng.uniform_range(10.0, 18.0);
                if nodes == 0 {
                    return FaultPlan::new(self.name())
                        .at(t1, FaultAction::SetLink(overlay))
                        .at((t1 + window).min(cap), FaultAction::SetLink(base_link));
                }
                // One member leaves and rejoins right after the overlay goes
                // on, so duplicated and reordered HELLOs of moving versions
                // meet the pull path and the stale-version guard. The
                // restore moves out by as much, so the stretch checked under
                // duplication (from the last disruption's settle window to
                // the restore) stays as long as without the churn.
                let churned = NodeId(rng.uniform_usize(nodes) as u32);
                let leave_at = (t1 + rng.uniform_range(0.2, 0.5)).min(cap);
                let rejoin_at = (leave_at + rng.uniform_range(0.3, 0.5)).min(cap);
                FaultPlan::new(self.name())
                    .at(t1, FaultAction::SetLink(overlay))
                    .at(leave_at, FaultAction::Leave(churned))
                    .at(rejoin_at, FaultAction::Join(churned))
                    .at(
                        (rejoin_at + window).min(cap),
                        FaultAction::SetLink(base_link),
                    )
            }
            PlanKind::DriftStep => {
                // A delay regime shift well below the detection bound: the
                // static paper configuration must absorb it without
                // mistakes.
                let stepped = LinkSpec::lossy(
                    base_link.mean_delay()
                        + SimDuration::from_millis_f64(rng.uniform_range(60.0, 110.0)),
                    base_link.loss_probability(),
                );
                let restore_at = (t1 + rng.uniform_range(10.0, 18.0)).min(cap);
                FaultPlan::new(self.name())
                    .at(t1, FaultAction::SetLink(stepped))
                    .at(restore_at, FaultAction::SetLink(base_link))
            }
            PlanKind::MemberChurn => {
                if nodes == 0 {
                    return FaultPlan::new(self.name());
                }
                let first = NodeId(rng.uniform_usize(nodes) as u32);
                let rejoin_at = (t1 + rng.uniform_range(8.0, 14.0)).min(cap);
                let mut plan = FaultPlan::new(self.name())
                    .at(t1, FaultAction::Leave(first))
                    .at(rejoin_at, FaultAction::Join(first));
                if nodes > 2 {
                    let second = NodeId(
                        (first.0 as usize + 1 + rng.uniform_usize(nodes - 1)) as u32 % nodes as u32,
                    );
                    let t3 = (t1 + rng.uniform_range(4.0, 8.0)).min(cap);
                    let rejoin2 = (rejoin_at + rng.uniform_range(4.0, 8.0)).min(cap);
                    plan = plan
                        .at(t3, FaultAction::Leave(second))
                        .at(rejoin2, FaultAction::Join(second));
                }
                plan
            }
            PlanKind::LargeChurn => {
                if nodes == 0 {
                    return FaultPlan::new(self.name());
                }
                // Drive the group past 100 member processes: every
                // workstation auto-joins one candidate, the rest are
                // spawned across the fault window (several per node).
                let target_processes = 120usize.max(nodes + 1);
                let spawns = target_processes - nodes;
                let window = (cap - start).max(0.1);
                let mut plan = FaultPlan::new(self.name());
                for k in 0..spawns {
                    let jitter = rng.uniform_range(0.0, 1.0);
                    let at = (start + window * (k as f64 + jitter) / spawns as f64).min(cap);
                    let node = NodeId(rng.uniform_usize(nodes) as u32);
                    plan = plan.at(at, FaultAction::SpawnProcess(node));
                }
                // Whole workstations keep leaving and rejoining on top of
                // the growth, so membership never stops moving.
                let cycles = (nodes / 8).clamp(1, 4);
                for _ in 0..cycles {
                    let node = NodeId(rng.uniform_usize(nodes) as u32);
                    let leave_latest = ((start + cap) / 2.0).max(start + 0.1).min(cap);
                    let leave_at = rng.uniform_range(start, leave_latest).min(cap);
                    let rejoin_at = (leave_at + rng.uniform_range(6.0, 10.0)).min(cap);
                    plan = plan
                        .at(leave_at, FaultAction::Leave(node))
                        .at(rejoin_at, FaultAction::Join(node));
                }
                plan
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_time_sorted_and_builders_compose() {
        let plan = FaultPlan::new("x")
            .at(5.0, FaultAction::Heal)
            .at(1.0, FaultAction::Crash(NodeId(2)))
            .at(3.0, FaultAction::Recover(NodeId(2)));
        assert_eq!(plan.name(), "x");
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        let times: Vec<f64> = plan
            .actions()
            .iter()
            .map(|timed| timed.at.as_secs_f64())
            .collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
        assert_eq!(plan.last_action_at(), Some(SimInstant::from_secs_f64(5.0)));
        assert!(FaultPlan::quiet().is_empty());
        assert_eq!(FaultPlan::quiet().last_action_at(), None);
    }

    #[test]
    fn without_removes_exactly_one_action() {
        let plan = FaultPlan::new("x")
            .at(1.0, FaultAction::Crash(NodeId(0)))
            .at(2.0, FaultAction::Recover(NodeId(0)));
        let reduced = plan.without(0);
        assert_eq!(reduced.len(), 1);
        assert_eq!(reduced.actions()[0].action, FaultAction::Recover(NodeId(0)));
        assert_eq!(plan.len(), 2, "original plan untouched");
    }

    #[test]
    fn generation_is_deterministic_per_seed_and_kind() {
        let duration = SimDuration::from_secs(60);
        let link = LinkSpec::from_paper_tuple(10.0, 0.01);
        for kind in PlanKind::all() {
            let a = kind.generate(5, duration, link, 42);
            let b = kind.generate(5, duration, link, 42);
            assert_eq!(a, b, "{} not deterministic", kind.name());
            let c = kind.generate(5, duration, link, 43);
            assert_ne!(a, c, "{} ignores the seed", kind.name());
            assert!(!a.is_empty());
            assert!(
                a.last_action_at().unwrap() <= SimInstant::from_secs_f64(60.0),
                "{} schedules past the duration",
                kind.name()
            );
        }
    }

    #[test]
    fn dup_reorder_keeps_a_checked_stretch_under_duplication() {
        // The checker pauses for `settle` after every disruption. The
        // overlay and the churn are disruptions; the stretch from the last
        // one's settle window to the restore must stay as long as with the
        // overlay alone: the restore comes 10-18 s after the last of them.
        let scenario = crate::sweep::SweepConfig::smoke().scenario;
        let mut checked_total = 0.0;
        let seeds = 200;
        for seed in 1000..1000 + seeds {
            let plan = PlanKind::DupReorder.generate(
                scenario.nodes,
                scenario.duration,
                scenario.link,
                seed,
            );
            let at = |index: usize| plan.actions()[index].at.as_secs_f64();
            let kinds: Vec<_> = plan.actions().iter().map(|timed| &timed.action).collect();
            assert!(
                matches!(
                    kinds[..],
                    [
                        FaultAction::SetLink(_),
                        FaultAction::Leave(_),
                        FaultAction::Join(_),
                        FaultAction::SetLink(restored),
                    ] if *restored == scenario.link
                ),
                "seed {seed}: {kinds:?}"
            );
            let (overlay, rejoin, restore) = (at(0), at(2), at(3));
            assert!(
                rejoin - overlay <= 1.0,
                "seed {seed}: churn outside the overlay's start"
            );
            let quiet = restore - rejoin;
            assert!(
                (10.0..18.0).contains(&quiet),
                "seed {seed}: restore {quiet} s after the churn"
            );
            let checked = quiet - scenario.settle.as_secs_f64();
            assert!(
                checked > 0.0,
                "seed {seed}: nothing checked under duplication"
            );
            checked_total += checked;
        }
        let mean = checked_total / seeds as f64;
        assert!(mean > 3.0, "mean checked stretch {mean} s");
    }

    #[test]
    fn generation_handles_tiny_groups_and_short_durations() {
        // Degenerate sweeps (--nodes 1/2, --duration-secs 5) must neither
        // panic nor schedule an action outside the fault window.
        for kind in PlanKind::all() {
            for nodes in [0, 1, 2, 3] {
                for secs in [5u64, 12, 35] {
                    let duration = SimDuration::from_secs(secs);
                    for seed in 0..20 {
                        let plan = kind.generate(nodes, duration, LinkSpec::perfect(), seed);
                        if let Some(last) = plan.last_action_at() {
                            assert!(
                                last <= SimInstant::ZERO + duration,
                                "{} nodes={nodes} secs={secs} seed={seed}: action at {last} \
                                 outside the fault window",
                                kind.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn large_churn_reaches_one_hundred_processes() {
        let nodes = PlanKind::LargeChurn.min_nodes();
        assert!(nodes >= 8);
        for seed in 0..10 {
            let plan = PlanKind::LargeChurn.generate(
                nodes,
                SimDuration::from_secs(45),
                LinkSpec::perfect(),
                seed,
            );
            let spawns = plan
                .actions()
                .iter()
                .filter(|t| matches!(t.action, FaultAction::SpawnProcess(_)))
                .count();
            // One auto-joined candidate per workstation plus the spawned
            // processes: the group is driven past 100 members.
            assert!(
                nodes + spawns >= 100,
                "seed {seed}: only {} processes",
                nodes + spawns
            );
            assert!(plan
                .actions()
                .iter()
                .any(|t| matches!(t.action, FaultAction::Leave(_))));
            assert!(plan
                .actions()
                .iter()
                .any(|t| matches!(t.action, FaultAction::Join(_))));
        }
        // Other families keep the sweep's configured deployment size.
        assert_eq!(PlanKind::MemberChurn.min_nodes(), 0);
    }

    #[test]
    fn partition_plans_split_into_two_disjoint_nonempty_components() {
        for seed in 0..50 {
            let plan = PlanKind::PartitionHeal.generate(
                5,
                SimDuration::from_secs(60),
                LinkSpec::perfect(),
                seed,
            );
            let FaultAction::Partition(components) = &plan.actions()[0].action else {
                panic!("first action must be the partition");
            };
            assert_eq!(components.len(), 2);
            assert!(!components[0].is_empty());
            assert!(components[0].len() < components[1].len());
            let mut all: Vec<NodeId> = components.concat();
            all.sort();
            assert_eq!(all, (0..5).map(NodeId).collect::<Vec<_>>());
        }
    }

    #[test]
    fn action_code_rendering_is_valid_looking_rust() {
        let actions = [
            FaultAction::Crash(NodeId(3)),
            FaultAction::CrashLeader {
                down_for: SimDuration::from_secs(5),
            },
            FaultAction::Partition(vec![vec![NodeId(0)], vec![NodeId(1), NodeId(2)]]),
            FaultAction::Heal,
            FaultAction::SpawnProcess(NodeId(7)),
            FaultAction::SetLink(
                LinkSpec::from_paper_tuple(10.0, 0.05)
                    .with_duplication(0.25)
                    .with_jitter(SimDuration::from_millis(40)),
            ),
        ];
        for action in &actions {
            let code = action.to_code();
            assert!(code.starts_with("sle_harness::FaultAction::"), "{code}");
        }
        let code = actions[5].to_code();
        assert!(code.contains("with_duplication(0.25)"), "{code}");
        assert!(code.contains("with_jitter"), "{code}");
        // A plain link renders without overlay calls.
        let plain = link_to_code(&LinkSpec::perfect());
        assert!(!plain.contains("with_duplication"), "{plain}");
        assert!(!plain.contains("with_jitter"), "{plain}");
    }
}
