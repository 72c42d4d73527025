//! The client session layer: leader discovery, request routing, and
//! transparent retry on redirects, fencing rejections and leader crashes.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use sle_core::messages::ServiceMessage;
use sle_core::process::GroupId;
use sle_net::transport::MessageEndpoint;
use sle_sim::actor::NodeId;

/// Configuration of a [`ClientHub`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The group whose leader serves the requests.
    pub group: GroupId,
    /// The service nodes to probe when no leader is known.
    pub servers: Vec<NodeId>,
    /// How long one attempt waits for an answer before it is retried
    /// against (possibly) another server.
    pub request_timeout: Duration,
    /// How many requests may be outstanding at once across all sessions.
    pub max_inflight: usize,
    /// How long a session backs off before retrying after an answer that
    /// carried no leader hint (an election in progress).
    pub retry_backoff: Duration,
    /// Reply gaps longer than this count toward
    /// [`HubReport::stalled`] — the unavailability accounting.
    pub stall_floor: Duration,
    /// Give-up bound for a whole workload run: if the cluster never comes
    /// back, [`ClientHub::run_workload`] returns the partial report instead
    /// of spinning forever. `None` waits indefinitely.
    pub deadline: Option<Duration>,
}

impl ClientConfig {
    /// A sensible default configuration against `servers`.
    pub fn new(group: GroupId, servers: Vec<NodeId>) -> Self {
        ClientConfig {
            group,
            servers,
            request_timeout: Duration::from_millis(250),
            max_inflight: 256,
            retry_backoff: Duration::from_millis(10),
            stall_floor: Duration::from_millis(50),
            deadline: None,
        }
    }
}

/// What one workload run through a [`ClientHub`] observed.
#[derive(Debug, Clone, Default)]
pub struct HubReport {
    /// Sessions the workload multiplexed.
    pub sessions: u64,
    /// Requests answered with `applied = true` (the workload's completions).
    pub completed: u64,
    /// Replies with `applied = false`: the serving leader's app rejected
    /// the write's fencing token. The request is retried, so these do not
    /// count as completions.
    pub rejected_replies: u64,
    /// Redirect answers received (served by a non-leader).
    pub redirects: u64,
    /// Attempts that timed out (typically: sent to a crashed leader).
    pub timeouts: u64,
    /// Replies for attempts no longer outstanding (late answers to retried
    /// requests — the at-least-once duplicates).
    pub duplicate_replies: u64,
    /// Request datagrams sent, counting retries.
    pub attempts: u64,
    /// Client-observed latency of every completed request, first issue to
    /// applied reply (so retries and leader-crash stalls are included),
    /// in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Total time covered by reply gaps above the configured stall floor —
    /// the workload's unavailability.
    pub stalled: Duration,
    /// The single longest reply gap.
    pub longest_stall: Duration,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Whether the run gave up at the configured deadline with requests
    /// still unanswered.
    pub gave_up: bool,
}

/// Per-session progress: the sequence number currently being worked on and
/// when it was first issued (for client-observed latency).
struct SessionState {
    seq: u64,
    started_at: Instant,
}

/// A client-side hub multiplexing many logical sessions over one transport
/// endpoint.
///
/// The hub's endpoint lives *outside* the cluster (its node id is not one
/// of the service nodes), which every bundled transport supports — the same
/// hub code runs over the in-memory mesh and the UDP plane. Routing state
/// machine, per outstanding request:
///
/// 1. send to the known leader, or round-robin-probe a server if none,
/// 2. `ClientReply { applied: true }` → completed; `applied: false` → the
///    write was fencing-rejected, retry (a new leader will serve it),
/// 3. `Redirect` → adopt the carried leader hint and retry; back off
///    briefly when the hint is `None` (an election is in progress) or names
///    the node already targeted (its lease has not settled yet),
/// 4. timeout → forget the leader hint (it may have crashed) and retry
///    against the next server.
///
/// Delivery is at-least-once: a request retried past a slow (not dead)
/// answer can be applied twice. Sessions carry `(session, seq)` on every
/// message, so exactly-once apps can deduplicate; the fenced counter demo
/// deliberately does not.
pub struct ClientHub<E> {
    endpoint: E,
    config: ClientConfig,
    leader_hint: Option<NodeId>,
    probe_cursor: usize,
}

impl<E: MessageEndpoint<ServiceMessage>> ClientHub<E> {
    /// Creates a hub speaking through `endpoint`.
    ///
    /// # Panics
    ///
    /// Panics if `config.servers` is empty or `config.max_inflight` is 0.
    pub fn new(endpoint: E, config: ClientConfig) -> Self {
        assert!(!config.servers.is_empty(), "a hub needs servers to talk to");
        assert!(config.max_inflight > 0, "max_inflight must be positive");
        ClientHub {
            endpoint,
            config,
            leader_hint: None,
            probe_cursor: 0,
        }
    }

    /// The server the next attempt goes to: the known leader, or the next
    /// server in round-robin order while none is known.
    fn target(&mut self) -> NodeId {
        match self.leader_hint {
            Some(leader) => leader,
            None => {
                let target = self.config.servers[self.probe_cursor % self.config.servers.len()];
                self.probe_cursor = self.probe_cursor.wrapping_add(1);
                target
            }
        }
    }

    /// Runs a complete workload: `sessions` logical sessions, each issuing
    /// `per_session` sequential `add payload` requests, with up to
    /// [`ClientConfig::max_inflight`] requests outstanding across sessions.
    /// Returns when every request has been applied (or at the configured
    /// deadline).
    pub fn run_workload(&mut self, sessions: u64, per_session: u64, payload: u64) -> HubReport {
        let started = Instant::now();
        let total = sessions * per_session;
        let mut report = HubReport {
            sessions,
            latencies_ns: Vec::with_capacity(total.min(4_000_000) as usize),
            ..HubReport::default()
        };
        let mut states: Vec<SessionState> = (0..sessions)
            .map(|_| SessionState {
                seq: 0,
                started_at: started,
            })
            .collect();
        // Sessions with a request to (re)issue now / after a backoff.
        let mut ready: VecDeque<u64> = (0..sessions).collect();
        let mut deferred: VecDeque<(Instant, u64)> = VecDeque::new();
        // Outstanding attempts by (session, seq): when they were sent, and
        // to whom (so a timeout only discredits the server it targeted).
        let mut inflight: HashMap<(u64, u64), (Instant, NodeId)> = HashMap::new();
        let mut last_success = started;
        let mut next_timeout_scan = started + self.config.request_timeout;

        while report.completed < total {
            let now = Instant::now();
            if let Some(deadline) = self.config.deadline {
                if now.duration_since(started) > deadline {
                    report.gave_up = true;
                    break;
                }
            }
            // Backed-off sessions whose pause has elapsed become ready
            // again (the queue is FIFO with a constant backoff, so the
            // front is always the earliest due).
            while deferred.front().is_some_and(|&(due, _)| due <= now) {
                let (_, session) = deferred.pop_front().expect("checked front");
                ready.push_back(session);
            }
            // Fill the window.
            while inflight.len() < self.config.max_inflight {
                let Some(session) = ready.pop_front() else {
                    break;
                };
                let state = &mut states[session as usize];
                let target = self.target();
                report.attempts += 1;
                let _ = self.endpoint.send(
                    target,
                    ServiceMessage::ClientRequest {
                        group: self.config.group,
                        session,
                        seq: state.seq,
                        payload,
                    },
                );
                inflight.insert((session, state.seq), (Instant::now(), target));
            }
            // Drain answers; block briefly only when nothing is queued.
            let mut received = false;
            while let Some(incoming) = self.endpoint.try_recv() {
                received = true;
                self.handle_answer(
                    incoming.msg,
                    per_session,
                    &mut states,
                    &mut ready,
                    &mut deferred,
                    &mut inflight,
                    &mut last_success,
                    &mut report,
                );
            }
            if !received {
                if let Some(incoming) = self.endpoint.recv_timeout(Duration::from_millis(2)) {
                    self.handle_answer(
                        incoming.msg,
                        per_session,
                        &mut states,
                        &mut ready,
                        &mut deferred,
                        &mut inflight,
                        &mut last_success,
                        &mut report,
                    );
                }
            }
            // Retire timed-out attempts (cheap: the window is small).
            let now = Instant::now();
            if now >= next_timeout_scan {
                next_timeout_scan = now + self.config.request_timeout / 4;
                let timeout = self.config.request_timeout;
                let expired: Vec<((u64, u64), NodeId)> = inflight
                    .iter()
                    .filter(|(_, &(sent, _))| now.duration_since(sent) > timeout)
                    .map(|(&key, &(_, target))| (key, target))
                    .collect();
                for (key, target) in expired {
                    inflight.remove(&key);
                    report.timeouts += 1;
                    // The server we targeted may be dead: probe afresh —
                    // but only drop the hint if it still names that server.
                    // A straggler timing out against the *previous* leader
                    // must not discard the successor another session has
                    // already discovered.
                    if self.leader_hint == Some(target) {
                        self.leader_hint = None;
                    }
                    ready.push_back(key.0);
                }
            }
        }
        report.elapsed = started.elapsed();
        report
    }

    /// Processes one answer from the cluster, updating the workload state.
    #[allow(clippy::too_many_arguments)]
    fn handle_answer(
        &mut self,
        msg: ServiceMessage,
        per_session: u64,
        states: &mut [SessionState],
        ready: &mut VecDeque<u64>,
        deferred: &mut VecDeque<(Instant, u64)>,
        inflight: &mut HashMap<(u64, u64), (Instant, NodeId)>,
        last_success: &mut Instant,
        report: &mut HubReport,
    ) {
        match msg {
            ServiceMessage::ClientReply {
                session,
                seq,
                applied,
                ..
            } => {
                if inflight.remove(&(session, seq)).is_none() {
                    report.duplicate_replies += 1;
                    return;
                }
                let state = &mut states[session as usize];
                if applied {
                    let now = Instant::now();
                    report.completed += 1;
                    report.latencies_ns.push(
                        u64::try_from(now.duration_since(state.started_at).as_nanos())
                            .unwrap_or(u64::MAX),
                    );
                    let gap = now.duration_since(*last_success);
                    *last_success = now;
                    if gap > self.config.stall_floor {
                        report.stalled += gap;
                        report.longest_stall = report.longest_stall.max(gap);
                    }
                    state.seq += 1;
                    state.started_at = now;
                    // Sessions with work left re-enter the issue queue.
                    if state.seq < per_session {
                        ready.push_back(session);
                    }
                } else {
                    // Fencing-rejected: the lease raced a leadership change.
                    // Retry; the new leader will serve it.
                    report.rejected_replies += 1;
                    ready.push_back(session);
                }
            }
            ServiceMessage::Redirect {
                session,
                seq,
                leader,
                ..
            } => {
                if inflight.remove(&(session, seq)).is_none() {
                    report.duplicate_replies += 1;
                    return;
                }
                report.redirects += 1;
                match leader {
                    // A redirect naming the node we already target means the
                    // leader-elect is not serving yet (its lease has not
                    // settled): back off instead of hammering it.
                    Some(process) if self.leader_hint == Some(process.node) => {
                        deferred.push_back((Instant::now() + self.config.retry_backoff, session));
                    }
                    Some(process) => {
                        self.leader_hint = Some(process.node);
                        ready.push_back(session);
                    }
                    None => {
                        // Election in progress: back off briefly.
                        self.leader_hint = None;
                        deferred.push_back((Instant::now() + self.config.retry_backoff, session));
                    }
                }
            }
            // Anything else (gossip that leaked to a client id) is noise.
            _ => {}
        }
    }
}
