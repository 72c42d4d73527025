//! # sle-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate on which the stable leader-election service
//! (the reproduction of Schiper & Toueg, *"A Robust and Lightweight Stable
//! Leader Election Service for Dynamic Systems"*, DSN 2008) is evaluated.
//! The paper ran its experiments on a 12-workstation cluster for days at a
//! time, injecting workstation crashes, message losses, message delays and
//! link crashes with dedicated modules. This crate provides the equivalent
//! apparatus in virtual time:
//!
//! * [`time`] — nanosecond-resolution virtual instants and durations,
//! * [`rng`] — deterministic, fork-able random number generation,
//! * [`actor`] — the sans-io protocol-node abstraction (messages, timers,
//!   application events) shared with the real-time runtime,
//! * [`dense`] — allocation-light maps/indices for hot per-node state,
//! * [`medium`] — the pluggable link-model interface (the link model itself,
//!   `SimulatedNetwork`, lives in `sle-net`),
//! * [`wheel`] — the hierarchical timer wheel backing the event loop
//!   (`O(1)` scheduling at any population of pending timers), and the
//!   per-node table of armed timers both shard drivers keep beside it
//!   (this simulator's and `sle-core`'s wall-clock runtime),
//! * [`world`] — the simulator, with node crash/recovery support: one
//!   thread, one event at a time,
//! * [`par`] — the same simulator sharded over worker threads that advance
//!   in conservative-lookahead epochs; both are drivers of one private
//!   event-execution core and replay a seed identically,
//! * [`observer`] — hooks from which the experiment harness computes the
//!   paper's QoS metrics.
//!
//! ## Example
//!
//! ```
//! use sle_sim::prelude::*;
//!
//! // A node that emits one event per second.
//! struct Ticker;
//! impl Actor for Ticker {
//!     type Msg = ();
//!     type Event = u64;
//!     fn on_start(&mut self, ctx: &mut Context<(), u64>) {
//!         ctx.set_timer_after(TimerTag(0), SimDuration::from_secs(1));
//!     }
//!     fn on_message(&mut self, _: NodeId, _: (), _: &mut Context<(), u64>) {}
//!     fn on_timer(&mut self, _: TimerTag, ctx: &mut Context<(), u64>) {
//!         ctx.emit(ctx.now().as_nanos());
//!         ctx.set_timer_after(TimerTag(0), SimDuration::from_secs(1));
//!     }
//! }
//!
//! // The medium decides every message's fate. This one delivers at once;
//! // the service's runs use `sle-net`'s `SimulatedNetwork`.
//! struct AtOnce;
//! impl Medium for AtOnce {
//!     fn transmit(
//!         &mut self,
//!         _: SimInstant,
//!         _: NodeId,
//!         _: NodeId,
//!         _: usize,
//!         _: &mut SimRng,
//!     ) -> Verdict {
//!         Verdict::immediate()
//!     }
//! }
//!
//! let mut world = World::new(1, Box::new(|_, _| Ticker), AtOnce, 1);
//! let mut counter = CountingObserver::new();
//! world.run_for(SimDuration::from_secs(10), &mut counter);
//! assert_eq!(counter.events, 10);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod actor;
pub mod dense;
pub mod medium;
pub mod observer;
pub mod par;
pub mod rng;
mod shard;
#[cfg(test)]
mod testkit;
pub mod time;
pub mod wheel;
pub mod world;

/// Convenient re-exports of the items most users need.
pub mod prelude {
    pub use crate::actor::{Actor, Context, Effect, NodeId, TimerTag, WireSize};
    pub use crate::medium::{Fate, Medium, Verdict};
    pub use crate::observer::{CountingObserver, NullObserver, Observer, PairObserver};
    pub use crate::par::{ParWorld, SharedActorFactory};
    pub use crate::rng::SimRng;
    pub use crate::time::{SimDuration, SimInstant};
    pub use crate::wheel::{EventWheel, TimerTable};
    pub use crate::world::{ActorFactory, World};
}

pub use actor::{Actor, Context, Effect, NodeId, TimerTag, WireSize};
pub use dense::{SlotIndex, TagMap};
pub use medium::{Fate, Medium, Verdict};
pub use observer::{CountingObserver, NullObserver, Observer, PairObserver};
pub use par::{ParWorld, SharedActorFactory};
pub use rng::SimRng;
pub use time::{SimDuration, SimInstant};
pub use wheel::{EventWheel, TimerTable};
pub use world::{ActorFactory, World};
