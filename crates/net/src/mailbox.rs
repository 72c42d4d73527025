//! The shard mailbox: one condvar-parked wait multiplexing everything a
//! runtime worker can be woken for.
//!
//! The sharded real-time runtime in `sle-core` runs many service nodes on
//! one worker thread. That worker must sleep until *either* a transport
//! delivers a message for any of its resident nodes, *or* an application
//! thread enqueues a command ([`ClusterHandle`]'s join/leave/query), *or*
//! its next timer deadline arrives — and it must sleep **exactly** that
//! long, with no fixed-interval polling. A [`Mailbox`] is that single wait
//! point: transports and command queues push through cloned
//! [`MailboxSender`]s (or just [`MailboxSender::wake`] the worker when the
//! payload lives elsewhere), and the worker parks in
//! [`Mailbox::wait_until`] with the timer wheel's next deadline as the
//! timeout.
//!
//! [`ClusterHandle`]: ../../sle_core/runtime/struct.ClusterHandle.html

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

struct MailboxState<T> {
    queue: VecDeque<T>,
    /// Set by [`MailboxSender::wake`]: "something outside the queue needs
    /// attention" (a command was enqueued, shutdown).
    notified: bool,
}

struct MailboxShared<T> {
    state: Mutex<MailboxState<T>>,
    ready: Condvar,
}

/// The receiving half of a shard mailbox, owned by one worker.
///
/// ```
/// use sle_net::mailbox::Mailbox;
///
/// let mailbox: Mailbox<u32> = Mailbox::new();
/// let sender = mailbox.sender();
/// sender.push(7);
/// let mut buf = Vec::new();
/// assert!(mailbox.wait_until(None, &mut buf));
/// assert_eq!(buf, vec![7]);
/// ```
pub struct Mailbox<T> {
    shared: Arc<MailboxShared<T>>,
}

/// A clonable pusher into a [`Mailbox`]: transports deliver messages and
/// runtimes signal out-of-band work through these.
pub struct MailboxSender<T> {
    shared: Arc<MailboxShared<T>>,
}

impl<T> Clone for MailboxSender<T> {
    fn clone(&self) -> Self {
        MailboxSender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Mailbox<T> {
    /// Creates an empty mailbox.
    pub fn new() -> Self {
        Mailbox {
            shared: Arc::new(MailboxShared {
                state: Mutex::new(MailboxState {
                    queue: VecDeque::new(),
                    notified: false,
                }),
                ready: Condvar::new(),
            }),
        }
    }

    /// A new sending handle. Senders stay valid for the mailbox's lifetime
    /// and may be cloned freely across threads.
    pub fn sender(&self) -> MailboxSender<T> {
        MailboxSender {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Parks the caller until an item is pushed, a [`MailboxSender::wake`]
    /// arrives, or `deadline` passes (`None` = wait indefinitely), then
    /// drains every queued item into `buf`.
    ///
    /// Returns `true` if the wait ended because of a push or a wake —
    /// `false` means the deadline passed with nothing to do (the caller's
    /// timers are the only reason it is awake).
    pub fn wait_until(&self, deadline: Option<Instant>, buf: &mut Vec<T>) -> bool {
        let mut state = self.shared.state.lock().expect("mailbox poisoned");
        loop {
            if !state.queue.is_empty() || state.notified {
                break;
            }
            match deadline {
                None => {
                    state = self.shared.ready.wait(state).expect("mailbox poisoned");
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    state = self
                        .shared
                        .ready
                        .wait_timeout(state, deadline - now)
                        .expect("mailbox poisoned")
                        .0;
                }
            }
        }
        let woken = state.notified || !state.queue.is_empty();
        state.notified = false;
        buf.extend(state.queue.drain(..));
        woken
    }

    /// Drains everything currently queued into `buf` without blocking.
    /// Returns `true` if anything was drained or a pending wake consumed.
    pub fn drain(&self, buf: &mut Vec<T>) -> bool {
        let mut state = self.shared.state.lock().expect("mailbox poisoned");
        let woken = state.notified || !state.queue.is_empty();
        state.notified = false;
        buf.extend(state.queue.drain(..));
        woken
    }
}

impl<T> MailboxSender<T> {
    /// Enqueues `item` and wakes the waiting worker, if any.
    pub fn push(&self, item: T) {
        let mut state = self.shared.state.lock().expect("mailbox poisoned");
        state.queue.push_back(item);
        drop(state);
        self.shared.ready.notify_one();
    }

    /// Enqueues every item of `items`, in order, and wakes the waiting
    /// worker once: one lock and one notify for the lot, so a waiter drains
    /// them together. An empty batch takes no lock and wakes no one.
    pub fn push_all(&self, items: impl IntoIterator<Item = T>) {
        let mut items = items.into_iter().peekable();
        if items.peek().is_none() {
            return;
        }
        let mut state = self.shared.state.lock().expect("mailbox poisoned");
        state.queue.extend(items);
        drop(state);
        self.shared.ready.notify_one();
    }

    /// Whether `self` and `other` push into the same mailbox.
    pub fn same_mailbox(&self, other: &MailboxSender<T>) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }

    /// Wakes the waiting worker without enqueuing anything — used when the
    /// payload lives in a side structure (a command queue, a shutdown
    /// signal) that the worker re-checks on every wake.
    pub fn wake(&self) {
        let mut state = self.shared.state.lock().expect("mailbox poisoned");
        state.notified = true;
        drop(state);
        self.shared.ready.notify_one();
    }
}

impl<T> std::fmt::Debug for Mailbox<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mailbox").finish_non_exhaustive()
    }
}

impl<T> std::fmt::Debug for MailboxSender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MailboxSender").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn push_before_wait_returns_immediately() {
        let mailbox: Mailbox<u32> = Mailbox::new();
        mailbox.sender().push(1);
        mailbox.sender().push(2);
        let mut buf = Vec::new();
        let woken = mailbox.wait_until(Some(Instant::now() + Duration::from_secs(5)), &mut buf);
        assert!(woken);
        assert_eq!(buf, vec![1, 2]);
    }

    #[test]
    fn deadline_timeout_reports_idle() {
        let mailbox: Mailbox<u32> = Mailbox::new();
        let mut buf = Vec::new();
        let start = Instant::now();
        let woken = mailbox.wait_until(Some(start + Duration::from_millis(30)), &mut buf);
        assert!(!woken);
        assert!(buf.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn wake_without_item_unparks() {
        let mailbox: Mailbox<u32> = Mailbox::new();
        let sender = mailbox.sender();
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            sender.wake();
        });
        let mut buf = Vec::new();
        // No deadline: only the wake can end this wait.
        let woken = mailbox.wait_until(Some(Instant::now() + Duration::from_secs(10)), &mut buf);
        assert!(woken);
        assert!(buf.is_empty());
        waker.join().unwrap();
    }

    #[test]
    fn cross_thread_pushes_all_arrive() {
        let mailbox: Mailbox<u64> = Mailbox::new();
        let senders: Vec<_> = (0..4).map(|_| mailbox.sender()).collect();
        let producers: Vec<_> = senders
            .into_iter()
            .enumerate()
            .map(|(which, sender)| {
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        sender.push(which as u64 * 1000 + i);
                    }
                })
            })
            .collect();
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.len() < 400 && Instant::now() < deadline {
            mailbox.wait_until(Some(Instant::now() + Duration::from_millis(50)), &mut got);
        }
        for producer in producers {
            producer.join().unwrap();
        }
        mailbox.drain(&mut got);
        assert_eq!(got.len(), 400);
    }

    #[test]
    fn push_all_keeps_order_behind_earlier_pushes() {
        let mailbox: Mailbox<u32> = Mailbox::new();
        let sender = mailbox.sender();
        sender.push(1);
        sender.push_all([2, 3, 4]);
        let mut buf = Vec::new();
        assert!(mailbox.drain(&mut buf));
        assert_eq!(buf, vec![1, 2, 3, 4]);
    }

    #[test]
    fn push_all_wakes_a_parked_worker_with_the_whole_batch() {
        let mailbox: Mailbox<u32> = Mailbox::new();
        let sender = mailbox.sender();
        let pusher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            sender.push_all(vec![7, 8, 9]);
        });
        let mut buf = Vec::new();
        let woken = mailbox.wait_until(Some(Instant::now() + Duration::from_secs(10)), &mut buf);
        assert!(woken);
        // One lock for the lot: the first wait drains all of it.
        assert_eq!(buf, vec![7, 8, 9]);
        pusher.join().unwrap();
    }

    #[test]
    fn an_empty_push_all_does_nothing() {
        let mailbox: Mailbox<u32> = Mailbox::new();
        mailbox.sender().push_all(std::iter::empty());
        let mut buf = Vec::new();
        assert!(!mailbox.drain(&mut buf), "an empty batch is not a wake");
        assert!(buf.is_empty());
    }

    #[test]
    fn senders_know_their_mailbox() {
        let a: Mailbox<u8> = Mailbox::new();
        let b: Mailbox<u8> = Mailbox::new();
        assert!(a.sender().same_mailbox(&a.sender().clone()));
        assert!(!a.sender().same_mailbox(&b.sender()));
    }

    #[test]
    fn drain_is_nonblocking_and_consumes_wakes() {
        let mailbox: Mailbox<u8> = Mailbox::new();
        let mut buf = Vec::new();
        assert!(!mailbox.drain(&mut buf));
        mailbox.sender().wake();
        assert!(mailbox.drain(&mut buf));
        assert!(!mailbox.drain(&mut buf));
        assert!(buf.is_empty());
        assert!(format!("{mailbox:?}").contains("Mailbox"));
        assert!(format!("{:?}", mailbox.sender()).contains("MailboxSender"));
    }
}
