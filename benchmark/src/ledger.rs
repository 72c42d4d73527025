//! The traced pass's in-memory ledger: per-slot call counts and busy time,
//! plus a bounded sample of full spans, kept per thread and merged at the
//! end of the run.
//!
//! Probes (see [`crate::probes`]) sit in the benchmark's own files at the
//! public seams of each layer. Every probed call adds to its [`Slot`]'s
//! aggregate; the spans of every [`SPAN_SAMPLE_EVERY`]-th trace (one
//! simulator event or one client request) are additionally kept in full so
//! the dump shows real causal chains without holding tens of millions of
//! records. Ledgers are thread-local — probes run on the simulator thread,
//! on shard workers and on the client hub thread — so recording never
//! contends; a thread's ledger is handed to the global collection when the
//! thread exits (or when it calls [`flush_thread`]).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans are kept in full for one trace in this many.
pub const SPAN_SAMPLE_EVERY: u64 = 64;
/// Upper bound on spans kept per thread.
pub const MAX_SPANS_PER_THREAD: usize = 100_000;
/// Probes on seams crossed millions of times a second time one call in this
/// many, picked pseudo-randomly so that no periodic call pattern aliases
/// with the choice, and only count the rest.
pub const TIME_EVERY: u64 = 8;

/// Whether probes time and count at all. The traced pass alternates slices
/// with tracing off and on inside one run: the off slices are the reference
/// for `bench.trace_overhead_frac`.
static TRACING: AtomicBool = AtomicBool::new(false);

/// Switches probe recording on or off for every thread.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Whether probes currently record.
#[inline]
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Tests that switch tracing hold this, so they do not flip the flag under
/// each other.
#[cfg(test)]
pub static TRACING_TEST_LOCK: Mutex<()> = Mutex::new(());

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process — the time base of
/// every span.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

macro_rules! slots {
    ($($variant:ident => $name:literal),+ $(,)?) => {
        /// One probed seam (or one kind of call through it).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Slot { $($variant),+ }

        impl Slot {
            /// Every slot, in declaration order.
            pub const ALL: &'static [Slot] = &[$(Slot::$variant),+];

            /// The slot's span name (`crate.module.call`).
            pub fn name(self) -> &'static str {
                match self { $(Slot::$variant => $name),+ }
            }
        }
    };
}

slots! {
    OnStart => "core.node.on_start",
    OnTimer => "core.node.on_timer",
    OnHello => "core.node.on_message.hello",
    OnAlive => "core.node.on_message.alive",
    OnAliveBatch => "core.node.on_message.alive_batch",
    OnAccuse => "core.node.on_message.accuse",
    OnLeave => "core.node.on_message.leave",
    OnLeaseGrant => "core.node.on_message.lease_grant",
    OnClientRequest => "core.node.on_message.client_request",
    OnOtherMessage => "core.node.on_message.other",
    Transmit => "net.network.transmit",
    Observer => "harness.observer",
    EndpointSend => "transport.endpoint.send",
    EndpointFlush => "transport.endpoint.flush_sends",
    AppApply => "app.counter.apply",
    ClientApplied => "app.client.attempt.applied",
    ClientRedirect => "app.client.attempt.redirect",
}

const SLOTS: usize = Slot::ALL.len();

/// Aggregate of one slot: how many calls, how many of them were timed and
/// their total busy time, and a free-form sum (effects returned, messages
/// dropped, …) where the probe has one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stat {
    /// Calls seen.
    pub calls: u64,
    /// Of those, timed (see [`timing_turn`]).
    pub timed: u64,
    /// Total busy nanoseconds of the timed calls.
    pub ns: u64,
    /// Probe-specific sum (see the probe's documentation).
    pub extra: u64,
}

impl Stat {
    /// Mean nanoseconds per timed call (0 with none).
    pub fn ns_per_call(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.ns as f64 / self.timed as f64
        }
    }

    /// Estimated busy nanoseconds of all calls, timed or not.
    pub fn total_ns(&self) -> f64 {
        self.ns_per_call() * self.calls as f64
    }
}

/// One recorded span. Spans of one simulator event or one client request
/// share `trace`; `parent` is the span that caused this one (0 = a root).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// This span's identifier (unique per thread; the dump prefixes the
    /// thread index).
    pub id: u64,
    /// The causing span, or 0.
    pub parent: u64,
    /// The event / request the span belongs to.
    pub trace: u64,
    /// Which seam.
    pub slot: Slot,
    /// Start, nanoseconds since the process epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the process epoch.
    pub end_ns: u64,
}

/// A thread's (or the merged) ledger.
#[derive(Debug, Clone)]
pub struct Ledger {
    stats: [Stat; SLOTS],
    /// The sampled spans, in recording order.
    pub spans: Vec<Span>,
    /// Spans that were sampled but dropped at the per-thread cap.
    pub spans_dropped: u64,
    next_span: u64,
    /// The trace (event / request) currently being handled on this thread
    /// and its root span, so nested probes can name their parent.
    current_trace: u64,
    current_root: u64,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            stats: [Stat::default(); SLOTS],
            spans: Vec::new(),
            spans_dropped: 0,
            next_span: 0,
            current_trace: 0,
            current_root: 0,
        }
    }
}

impl Ledger {
    /// The aggregate of `slot`.
    pub fn stat(&self, slot: Slot) -> Stat {
        self.stats[slot as usize]
    }

    /// Sum of the aggregates of several slots.
    pub fn sum(&self, slots: &[Slot]) -> Stat {
        let mut total = Stat::default();
        for &slot in slots {
            let s = self.stat(slot);
            total.calls += s.calls;
            total.timed += s.timed;
            total.ns += s.ns;
            total.extra += s.extra;
        }
        total
    }

    fn merge(&mut self, other: Ledger) {
        for (mine, theirs) in self.stats.iter_mut().zip(other.stats) {
            mine.calls += theirs.calls;
            mine.timed += theirs.timed;
            mine.ns += theirs.ns;
            mine.extra += theirs.extra;
        }
        self.spans.extend(other.spans);
        self.spans_dropped += other.spans_dropped;
    }

    fn record(&mut self, slot: Slot, start_ns: u64, end_ns: u64, extra: u64, root: bool) {
        let stat = &mut self.stats[slot as usize];
        stat.calls += 1;
        stat.timed += 1;
        stat.ns += end_ns.saturating_sub(start_ns);
        stat.extra += extra;
        self.next_span += 1;
        let id = self.next_span;
        if root {
            self.current_root = id;
        }
        // Trace 0 is "outside any trace".
        if self.current_trace == 0 || !self.current_trace.is_multiple_of(SPAN_SAMPLE_EVERY) {
            return;
        }
        if self.spans.len() >= MAX_SPANS_PER_THREAD {
            self.spans_dropped += 1;
            return;
        }
        self.spans.push(Span {
            id,
            parent: if root { 0 } else { self.current_root },
            trace: self.current_trace,
            slot,
            start_ns,
            end_ns,
        });
    }
}

/// Hands the thread's ledger to the global collection when the thread
/// exits, so shard workers (owned by `sle-core`) need no cooperation.
struct ThreadLedger(RefCell<Ledger>);

impl Drop for ThreadLedger {
    fn drop(&mut self) {
        let ledger = std::mem::take(&mut *self.0.borrow_mut());
        // Drop must not panic: a poisoned collection loses this thread's
        // share of the ledger, which the traced pass reports as zeros.
        if let Ok(mut all) = COLLECTED.lock() {
            all.push(ledger);
        }
    }
}

thread_local! {
    static LOCAL: ThreadLedger = ThreadLedger(RefCell::new(Ledger::default()));
    /// State of the generator behind [`timing_turn`].
    static TURN: std::cell::Cell<u64> = const { std::cell::Cell::new(0x9E37_79B9_7F4A_7C15) };
}

/// Whether the calling probe should time this call (one in [`TIME_EVERY`]
/// on average) rather than only count it.
#[inline]
pub fn timing_turn() -> bool {
    TURN.with(|turn| {
        // xorshift64: cheap, and good enough to decorrelate the choice from
        // whatever order the calls come in.
        let mut x = turn.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        turn.set(x);
        (x >> 32) % TIME_EVERY == 0
    })
}

static COLLECTED: Mutex<Vec<Ledger>> = Mutex::new(Vec::new());

/// Starts a new trace (one simulator event, one client request) on this
/// thread and returns its identifier. The next root span recorded becomes
/// the parent of the trace's other spans.
#[inline]
pub fn begin_trace() -> u64 {
    LOCAL.with(|local| {
        let mut ledger = local.0.borrow_mut();
        ledger.current_trace += 1;
        ledger.current_root = 0;
        ledger.current_trace
    })
}

/// Makes `trace` (an identifier the caller derived from the request itself,
/// so that several threads agree on it) the thread's current trace.
#[inline]
pub fn set_trace(trace: u64) {
    LOCAL.with(|local| {
        let mut ledger = local.0.borrow_mut();
        ledger.current_trace = trace;
        ledger.current_root = 0;
    });
}

/// Counts one call that was not timed.
#[inline]
pub fn count(slot: Slot, extra: u64) {
    LOCAL.with(|local| {
        let stat = &mut local.0.borrow_mut().stats[slot as usize];
        stat.calls += 1;
        stat.extra += extra;
    });
}

/// Counts, before it runs, one untimed call that would have been a trace's
/// root: whatever spans it causes belong to no trace (and stay out of the
/// dump) instead of to the last timed root's.
#[inline]
pub fn count_root(slot: Slot) {
    LOCAL.with(|local| {
        let mut ledger = local.0.borrow_mut();
        ledger.current_trace = 0;
        ledger.current_root = 0;
        ledger.stats[slot as usize].calls += 1;
    });
}

/// Adds to a slot's free-form sum without counting a call.
#[inline]
pub fn add_extra(slot: Slot, extra: u64) {
    LOCAL.with(|local| local.0.borrow_mut().stats[slot as usize].extra += extra);
}

/// Records one root span (the call that handles the trace's event).
#[inline]
pub fn record_root(slot: Slot, start_ns: u64, end_ns: u64, extra: u64) {
    LOCAL.with(|local| {
        local
            .0
            .borrow_mut()
            .record(slot, start_ns, end_ns, extra, true)
    });
}

/// Records one span caused by the current trace's root.
#[inline]
pub fn record(slot: Slot, start_ns: u64, end_ns: u64, extra: u64) {
    LOCAL.with(|local| {
        local
            .0
            .borrow_mut()
            .record(slot, start_ns, end_ns, extra, false)
    });
}

/// Moves this thread's ledger into the global collection now (threads the
/// benchmark itself runs call this before they end their measured work; the
/// main thread never exits through a thread-local destructor).
pub fn flush_thread() {
    LOCAL.with(|local| {
        let ledger = std::mem::take(&mut *local.0.borrow_mut());
        COLLECTED
            .lock()
            .expect("ledger collection poisoned")
            .push(ledger);
    });
}

/// Merges every collected ledger (call after every probed thread has been
/// joined or flushed) and empties the collection.
pub fn collect() -> Ledger {
    flush_thread();
    let mut merged = Ledger::default();
    let mut all = COLLECTED.lock().expect("ledger collection poisoned");
    for (thread, mut ledger) in all.drain(..).enumerate() {
        // Span ids are per thread; make them unique across the merge. Trace
        // ids stay as they are: request traces are shared between threads
        // on purpose, and a thread's own counter only meets another's in
        // workloads that have a single probed thread.
        let tag = (thread as u64 + 1) << 48;
        for span in &mut ledger.spans {
            span.id |= tag;
            if span.parent != 0 {
                span.parent |= tag;
            }
        }
        merged.merge(ledger);
    }
    merged
}

/// Writes the sampled spans as tab-separated lines
/// (`id parent trace name start_ns end_ns`), one span per line.
pub fn write_spans(ledger: &Ledger, path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\ttrace\tname\tstart_ns\tend_ns")?;
    for span in &ledger.spans {
        writeln!(
            out,
            "{:x}\t{:x}\t{:x}\t{}\t{}\t{}",
            span.id,
            span.parent,
            span.trace,
            span.slot.name(),
            span.start_ns,
            span.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_count_every_call_and_spans_are_sampled_per_trace() {
        // Own thread: the ledger is thread-local and tests share a process.
        let ledger = std::thread::spawn(|| {
            for i in 0..(2 * SPAN_SAMPLE_EVERY) {
                begin_trace();
                record_root(Slot::OnTimer, 10 * i, 10 * i + 4, 2);
                record(Slot::Transmit, 10 * i + 4, 10 * i + 5, 0);
            }
            LOCAL.with(|local| std::mem::take(&mut *local.0.borrow_mut()))
        })
        .join()
        .expect("ledger thread");
        let timers = ledger.stat(Slot::OnTimer);
        assert_eq!(timers.calls, 2 * SPAN_SAMPLE_EVERY);
        assert_eq!(timers.ns, 4 * 2 * SPAN_SAMPLE_EVERY);
        assert_eq!(timers.extra, 2 * 2 * SPAN_SAMPLE_EVERY);
        assert_eq!(ledger.stat(Slot::Transmit).calls, 2 * SPAN_SAMPLE_EVERY);
        // Traces 64 and 128 are the sampled ones: a root and a child each.
        assert_eq!(ledger.spans.len(), 4);
        assert_eq!(ledger.spans[0].parent, 0);
        assert_eq!(ledger.spans[1].parent, ledger.spans[0].id);
        assert_eq!(ledger.spans[1].trace, ledger.spans[0].trace);
        assert_ne!(ledger.spans[2].trace, ledger.spans[0].trace);
    }

    #[test]
    fn a_finished_thread_leaves_its_ledger_in_the_collection() {
        std::thread::spawn(|| {
            begin_trace();
            record_root(Slot::AppApply, 0, 7, 0);
        })
        .join()
        .expect("probe thread");
        // Other tests' threads may have contributed too; ours must be there.
        let merged = collect();
        assert!(merged.stat(Slot::AppApply).calls >= 1);
        assert!(merged.stat(Slot::AppApply).ns >= 7);
    }
}
