//! The test actor and the test medium shared by the `medium`, `world` and
//! `par` test modules. The kernel ships no link model: the simulated runs of
//! the service go over `sle-net`'s `SimulatedNetwork`.

use crate::actor::{Actor, Context, NodeId, TimerTag, WireSize};
use crate::medium::{Medium, Verdict};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimInstant};

/// Delivers every message, after exactly its delay, and promises that
/// delay as the lookahead. `FixedDelay(SimDuration::ZERO)` is a perfect
/// link with no lookahead.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FixedDelay(pub(crate) SimDuration);

impl Medium for FixedDelay {
    fn transmit(
        &mut self,
        _now: SimInstant,
        _from: NodeId,
        _to: NodeId,
        _wire_bytes: usize,
        _rng: &mut SimRng,
    ) -> Verdict {
        Verdict::Deliver { delay: self.0 }
    }

    fn min_delay(&self) -> SimDuration {
        self.0
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TestMsg {
    Ping(u64),
    Pong(u64),
}

impl WireSize for TestMsg {
    fn wire_size(&self) -> usize {
        9
    }
}

/// Pings its successor on a ring of `n` every 100 ms, answers pings with
/// pongs, and emits one event per pong received.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PingActor {
    pub(crate) id: NodeId,
    pub(crate) n: u32,
    pub(crate) pings_sent: u64,
    pub(crate) pongs_received: u64,
    pub(crate) incarnation: u64,
}

pub(crate) const TICK: TimerTag = TimerTag(1);

impl PingActor {
    /// A factory for a ring of `n` ping actors, usable by both worlds.
    pub(crate) fn ring(n: u32) -> impl Fn(NodeId, u64) -> PingActor + Send + Sync + Copy {
        move |id, incarnation| PingActor {
            id,
            n,
            pings_sent: 0,
            pongs_received: 0,
            incarnation,
        }
    }
}

impl Actor for PingActor {
    type Msg = TestMsg;
    type Event = String;

    fn on_start(&mut self, ctx: &mut Context<TestMsg, String>) {
        self.incarnation = ctx.incarnation();
        ctx.set_timer_after(TICK, SimDuration::from_millis(100));
    }

    fn on_message(&mut self, from: NodeId, msg: TestMsg, ctx: &mut Context<TestMsg, String>) {
        match msg {
            TestMsg::Ping(n) => ctx.send(from, TestMsg::Pong(n)),
            TestMsg::Pong(n) => {
                self.pongs_received += 1;
                ctx.emit(format!("pong {n} at {}", ctx.now()));
            }
        }
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<TestMsg, String>) {
        assert_eq!(tag, TICK);
        let next = NodeId((self.id.0 + 1) % self.n);
        self.pings_sent += 1;
        ctx.send(next, TestMsg::Ping(self.pings_sent));
        ctx.set_timer_after(TICK, SimDuration::from_millis(100));
    }
}
