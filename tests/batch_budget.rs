//! Every ALIVE and ACCUSE a node emits fits one datagram, however many
//! groups it shares with a peer: the node splits both at one budget,
//! `sle_core::messages::MAX_BATCH_BYTES`, below `sle_wire::MAX_DATAGRAM`.
//! Driven end to end in the simulator: three workstations in 250 groups,
//! every one a candidate, and the leader of every group crashes.

use sle_core::{
    GroupId, JoinConfig, ServiceConfig, ServiceContext, ServiceEvent, ServiceMessage, ServiceNode,
};
use sle_election::ElectorKind;
use sle_net::network::{NetworkModel, SimulatedNetwork};
use sle_sim::observer::NullObserver;
use sle_sim::prelude::*;

const NODES: usize = 3;
const GROUPS: u32 = 250;

/// What one node's ALIVEs and ACCUSEs looked like on the wire.
#[derive(Debug, Default)]
struct Sends {
    alive_datagrams: usize,
    /// The most group entries one ALIVE datagram carried.
    most_alive_entries: usize,
    accuses: usize,
    accusations: usize,
}

/// A `ServiceNode` that encodes every ALIVE and ACCUSE it sends with
/// `sle_wire::encode_frame`, which refuses any frame over `MAX_DATAGRAM`.
struct Wire {
    node: ServiceNode,
    id: NodeId,
    sends: Sends,
}

impl Wire {
    fn after(&mut self, ctx: &mut ServiceContext) {
        for effect in ctx.drain_effects() {
            match effect {
                Effect::Send { to, msg } => {
                    let entries = match &msg {
                        ServiceMessage::Alive { .. } | ServiceMessage::AliveBatch { .. } => {
                            Some(msg.alive_payloads())
                        }
                        ServiceMessage::Accuse { accusations } => Some(accusations.len()),
                        _ => None,
                    };
                    if let Some(entries) = entries {
                        let frame = sle_wire::encode_frame(self.id, &msg)
                            .unwrap_or_else(|e| panic!("{} to {to}: {e:?}", self.id));
                        assert!(frame.len() <= sle_wire::MAX_DATAGRAM);
                        let sends = &mut self.sends;
                        if msg.is_alive() {
                            sends.alive_datagrams += 1;
                            sends.most_alive_entries = sends.most_alive_entries.max(entries);
                        } else {
                            sends.accuses += 1;
                            sends.accusations += entries;
                        }
                    }
                    ctx.send(to, msg);
                }
                Effect::SetTimer { tag, at } => ctx.set_timer_at(tag, at),
                Effect::CancelTimer { tag } => ctx.cancel_timer(tag),
                Effect::Emit(event) => ctx.emit(event),
            }
        }
    }
}

impl Actor for Wire {
    type Msg = ServiceMessage;
    type Event = ServiceEvent;

    fn on_start(&mut self, ctx: &mut ServiceContext) {
        self.node.on_start(ctx);
        self.after(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: ServiceMessage, ctx: &mut ServiceContext) {
        self.node.on_message(from, msg, ctx);
        self.after(ctx);
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut ServiceContext) {
        self.node.on_timer(tag, ctx);
        self.after(ctx);
    }
}

#[test]
fn every_alive_and_accuse_of_a_node_in_250_groups_fits_one_datagram() {
    for algorithm in [ElectorKind::OmegaLc, ElectorKind::OmegaL] {
        let mut world: World<Wire, SimulatedNetwork> = World::new(
            NODES,
            Box::new(move |id, _incarnation| {
                let mut config = ServiceConfig::full_mesh(id, NODES, algorithm);
                for g in 1..=GROUPS {
                    config = config.with_auto_join(GroupId(g), JoinConfig::candidate());
                }
                let node = ServiceNode::new(config);
                let sends = Sends::default();
                Wire { node, id, sends }
            }),
            NetworkModel::perfect().build(11),
            11,
        );
        let mut observer = NullObserver;
        world.run_until(SimInstant::from_secs_f64(5.0), &mut observer);
        let leader = (world.actor(NodeId(1)).unwrap().node)
            .leader_of(GroupId(1))
            .expect("group 1 elected")
            .node;
        let led = |world: &World<Wire, SimulatedNetwork>| {
            let node = &world.actor(NodeId(1)).unwrap().node;
            (1..=GROUPS)
                .filter(|&g| node.leader_of(GroupId(g)).is_some_and(|l| l.node == leader))
                .count()
        };
        assert_eq!(led(&world), GROUPS as usize, "{algorithm}: one leader");
        world.schedule_crash(leader, SimInstant::from_secs_f64(5.0));
        world.run_until(SimInstant::from_secs_f64(10.0), &mut observer);
        assert_eq!(led(&world), 0, "{algorithm}: {leader} still leads");

        let survivors: Vec<&Wire> = (0..NODES as u32)
            .filter_map(|i| world.actor(NodeId(i)))
            .collect();
        for wire in &survivors {
            let sends = &wire.sends;
            let what = format!("{algorithm}, {}: {sends:?}", wire.id);
            // It suspected the crashed leader in every group, and the
            // lists that accused it were split at the budget.
            assert!(sends.accusations >= GROUPS as usize, "{what}");
            assert!(sends.accuses >= 3, "{what}");
            // Whatever it sent ALIVEs in (the new leader's groups, under
            // Ω_l), they were batched, and a tick's 250 entries split.
            let most = sends.most_alive_entries;
            assert!(sends.alive_datagrams == 0 || most > 1, "{what}");
            assert!(most < GROUPS as usize, "{what}");
        }
        let senders = survivors.iter().filter(|w| w.sends.alive_datagrams > 0);
        assert!(
            senders.count() > 0,
            "{algorithm}: no survivor sent an ALIVE"
        );
    }
}
