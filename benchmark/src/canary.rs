//! The host canary: a fixed piece of work of the benchmark's own, run beside
//! a workload, whose CPU cost says what the platform charges at that moment
//! for kernel services and cold caches.
//!
//! The reference host is a small virtual machine on a shared box. What a
//! timer sleep, a wake-up, a loopback datagram and a cache miss cost there
//! moves by a factor of two over minutes with the neighbours' load, and a
//! workload that spends its CPU on exactly those moves with it: twelve runs
//! of `rt-udp-steady` in a row drifted from 1275 to 673 µs of CPU per node
//! and second. The canary does a fixed amount of the same every couple of
//! milliseconds. The CPU it needed per round, over what a round needs when
//! the host is quiet, is the factor by which the platform is dearer right
//! now ([`host_factor`]); over those twelve runs it followed the workload's
//! CPU with a log-log slope of 0.96, and dividing by it cut the spread
//! between runs from 41 % to 7 %.
//!
//! The simulated workloads run it too, with the simulator's thread held on
//! the first CPU and the canary on the last ([`run_on`]). What slows a
//! simulation down on this host is not arithmetic (a register-only loop took
//! the same time in every spell) nor stolen time (`/proc/stat` showed none)
//! but the shared last-level cache and memory, and the canary — which wakes
//! to cold caches every round — pays for those as well. Left to the
//! scheduler it read 1.25 in some runs and 1.6 in others on the same host
//! (beside the busy simulator thread its CPU never idles, so its wake-ups
//! are cheap), and dividing by that made things worse; pinned, the factor is
//! one population and the quiet decile of the normalised slices spread 2–8 %
//! where that of the raw slices spread 6–12 % (7–11 % against 22–24 % in
//! the host's worst hour).

use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The canary thread's name (its CPU is read by that prefix, and excluded
/// from the workload's).
pub const THREAD_NAME: &str = "bench-canary";

/// CPU nanoseconds a round costs on the reference host in a quiet spell.
/// Fixed: it only sets the scale of the normalised figures.
pub const QUIET_ROUND_NS: f64 = 40_000.0;

/// How much dearer than in a quiet spell the host is, from the CPU the
/// canary thread used for `rounds` rounds (1 if it completed none).
pub fn host_factor(canary_cpu_ns: u64, rounds: u64) -> f64 {
    if rounds == 0 || canary_cpu_ns == 0 {
        1.0
    } else {
        canary_cpu_ns as f64 / rounds as f64 / QUIET_ROUND_NS
    }
}

/// Pause between rounds.
const PAUSE: Duration = Duration::from_millis(2);
/// Loopback datagrams sent to itself and read back per round.
const DATAGRAMS: usize = 4;
/// Bytes per datagram.
const DATAGRAM_BYTES: usize = 600;
/// Bytes of memory walked per round, one cache line at a time.
const WALK_BYTES: usize = 256 * 1024;

extern "C" {
    // From the C library std already links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread to the CPUs `cpus` (Linux numbering).
/// Best effort: `false` if the kernel refused, and the thread stays where
/// it was allowed before.
pub fn run_on(cpus: std::ops::Range<usize>) -> bool {
    let mut mask = [0u64; 16];
    for cpu in cpus.filter(|&cpu| cpu < 1024) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live, initialised buffer of the stated size and
    // the call only reads it; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// A running canary.
pub struct Canary {
    stop: Arc<AtomicBool>,
    rounds: Arc<AtomicU64>,
    handle: JoinHandle<()>,
}

impl Canary {
    /// Starts the canary thread, on CPU `pin` only if given.
    pub fn start(pin: Option<usize>) -> std::io::Result<Self> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        let addr = socket.local_addr()?;
        socket.set_read_timeout(Some(Duration::from_millis(100)))?;
        let stop = Arc::new(AtomicBool::new(false));
        let rounds = Arc::new(AtomicU64::new(0));
        let handle = std::thread::Builder::new()
            .name(THREAD_NAME.to_string())
            .spawn({
                let (stop, rounds) = (stop.clone(), rounds.clone());
                move || {
                    if let Some(cpu) = pin {
                        run_on(cpu..cpu + 1);
                    }
                    let out = [0x5au8; DATAGRAM_BYTES];
                    let mut back = [0u8; DATAGRAM_BYTES];
                    let mut memory = vec![1u8; WALK_BYTES];
                    let mut sum = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(PAUSE);
                        for _ in 0..DATAGRAMS {
                            let _ = socket.send_to(&out, addr);
                        }
                        for _ in 0..DATAGRAMS {
                            let _ = socket.recv_from(&mut back);
                        }
                        for line in memory.chunks_mut(64) {
                            line[0] = line[0].wrapping_add(back[0]);
                            sum = sum.wrapping_add(u64::from(line[0]));
                        }
                        rounds.fetch_add(1, Ordering::Relaxed);
                    }
                    std::hint::black_box(sum);
                }
            })?;
        Ok(Canary {
            stop,
            rounds,
            handle,
        })
    }

    /// Rounds completed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Stops the thread and waits for it.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.handle.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::CpuSnapshot;

    #[test]
    fn the_canary_runs_rounds_on_its_own_thread_and_stops() {
        let before = CpuSnapshot::take();
        let canary = Canary::start(None).expect("loopback socket");
        std::thread::sleep(Duration::from_millis(100));
        let after = CpuSnapshot::take();
        let rounds = canary.rounds();
        let cpu = after.since(&before, THREAD_NAME);
        canary.stop();
        assert!(rounds >= 5, "only {rounds} rounds in 100 ms");
        assert!(cpu > 0, "the canary thread's CPU was not seen");
        let factor = host_factor(cpu, rounds);
        assert!(factor > 0.05 && factor < 50.0, "host factor {factor}");
        assert_eq!(host_factor(0, 0), 1.0);
        assert_eq!(host_factor(80_000, 1), 2.0);
    }

    #[test]
    fn a_thread_can_be_held_on_one_cpu_and_released() {
        std::thread::spawn(|| {
            let cpus = std::thread::available_parallelism().map_or(1, usize::from);
            assert!(run_on(0..1));
            assert_eq!(
                std::thread::available_parallelism().map_or(0, usize::from),
                1
            );
            assert!(run_on(0..cpus));
            assert_eq!(
                std::thread::available_parallelism().map_or(0, usize::from),
                cpus
            );
        })
        .join()
        .expect("no panic");
    }
}
