//! Real-packet UDP [`DataPlane`]: probes as actual datagrams.
//!
//! Every simulated backend answers a probe by *computing* its fate; this
//! one finds out by sending it. A probe is encoded with
//! [`encode_probe`](detector_simnet::encode_probe) — the same IP-in-IP
//! wire layout the simulator models — wrapped in a UDP datagram to a
//! [`Responder`](crate::responder::Responder)-backed echo socket, and
//! matched back to its sender by sequence number when the echo returns.
//!
//! The pieces:
//!
//! * [`UdpDataPlane`] — the [`DataPlane`] implementation. A small pool of
//!   sockets, each with a dedicated recv loop; `probe_tagged` blocks the
//!   *calling* worker on a condvar until the echo lands or the attempt
//!   times out, so the pipelined scheduler's probe workers hide wire wait
//!   exactly as they hide the simulator's modeled RTTs.
//! * [`RetryPolicy`] — per-probe timeout with bounded exponential
//!   backoff. Every attempt gets a **fresh** sequence number, so an echo
//!   that arrives after its attempt was abandoned can never complete a
//!   later attempt (no double-counting; see `late_echoes` in
//!   [`UdpStats`]).
//! * RTT measurement — kernel `SO_TIMESTAMP` receive stamps
//!   ([`timestamp`]) when the platform grants them, monotonic clock
//!   fallback otherwise. Both flow through the [`ProbeClock`] seam, which
//!   keeps detlint's `determinism` check meaningful: host time enters
//!   only through that annotated boundary, and RTTs never steer window
//!   control flow.
//! * [`LossShim`] — deterministic injected loss, keyed by
//!   `(seed, window, path_id)` and decided *before* the socket is
//!   touched. Because the drop decision is a pure hash and outcomes carry
//!   no RTT into window results, the pipelined/scripted equivalence and
//!   soak suites hold against real sockets.
//! * [`UdpHarness`] (in [`harness`]) — in-process loopback responders
//!   that make all of this CI-testable without privileges or real NICs.

mod harness;
mod timestamp;

pub use harness::{HarnessStats, UdpHarness};

use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use detector_simnet::{decode_probe, FlowKey, ProbePacket};
use detector_topology::Route;
use rand::rngs::SmallRng;

use crate::clock::ProbeClock;
use crate::dataplane::{DataPlane, ProbeOutcome, ProbeTag};
use crate::pinger::splitmix64;

/// Per-probe timeout/retry schedule: `retries + 1` attempts, the n-th
/// waiting `attempt_timeout_us * backoff_mult^n` capped at
/// `max_timeout_us`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Timeout of the first attempt, microseconds.
    pub attempt_timeout_us: u64,
    /// Number of retransmissions after the first attempt.
    pub retries: u32,
    /// Multiplier applied to the timeout per retransmission (≥ 1).
    pub backoff_mult: u32,
    /// Upper bound on any single attempt's timeout, microseconds.
    pub max_timeout_us: u64,
}

impl Default for RetryPolicy {
    /// The first attempt waits §6.1's 100 ms loss threshold (the
    /// pinger's `SystemConfig::timeout_us`): an echo inside it is not a
    /// timeout. A shorter wait turns any host scheduling stall of the
    /// echo path into a counted timeout plus a retransmission.
    fn default() -> Self {
        Self {
            attempt_timeout_us: 100_000,
            retries: 2,
            backoff_mult: 4,
            max_timeout_us: 100_000,
        }
    }
}

impl RetryPolicy {
    /// Total send attempts (first try + retries).
    pub fn attempts(&self) -> u32 {
        self.retries.saturating_add(1)
    }

    /// Timeout for the zero-indexed `attempt`, with backoff and cap
    /// applied.
    pub fn timeout_us(&self, attempt: u32) -> u64 {
        let mult = u64::from(self.backoff_mult.max(1)).saturating_pow(attempt);
        self.attempt_timeout_us
            .saturating_mul(mult)
            .min(self.max_timeout_us.max(self.attempt_timeout_us))
    }
}

/// Configuration for [`UdpDataPlane`].
#[derive(Clone, Debug)]
pub struct UdpConfig {
    /// Number of probe sockets (each with its own recv loop).
    pub sockets: usize,
    /// Local address the probe sockets bind (port 0 = ephemeral).
    pub bind: SocketAddr,
    /// Timeout/retry schedule per probe.
    pub retry: RetryPolicy,
    /// Read timeout of the recv loops; bounds shutdown latency.
    pub recv_poll: Duration,
}

impl Default for UdpConfig {
    fn default() -> Self {
        Self {
            sockets: 2,
            bind: SocketAddr::from((Ipv4Addr::LOCALHOST, 0)),
            retry: RetryPolicy::default(),
            recv_poll: Duration::from_millis(20),
        }
    }
}

/// Deterministic injected loss for the loopback harness.
///
/// Whether a probe is dropped is a pure hash of
/// `(seed, window, path_id)` — no socket state, no clock — so a
/// sequential oracle run and a pipelined run over the same plan drop
/// exactly the same probes, which is what lets the equivalence and soak
/// suites run against real sockets. The decision short-circuits at the
/// send boundary (no datagram, no timeout wait), mirroring how the
/// simulated fabric reports a loss without serving the RTT.
///
/// In-rack probes ([`ProbeTag::IN_RACK`]) are never dropped: they carry
/// no matrix path, and dropping them would only perturb reachability
/// accounting the suites pin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LossShim {
    seed: u64,
    drop_per_mille: u16,
}

impl LossShim {
    /// A shim dropping `drop_per_mille`/1000 of matrix-path probes,
    /// keyed by `seed`.
    pub fn new(seed: u64, drop_per_mille: u16) -> Self {
        Self {
            seed,
            drop_per_mille: drop_per_mille.min(1000),
        }
    }

    /// Pure drop decision for one probe.
    pub fn drops(&self, window: u64, path_id: u32) -> bool {
        if path_id == ProbeTag::IN_RACK {
            return false;
        }
        let h = splitmix64(splitmix64(self.seed ^ window) ^ u64::from(path_id));
        h % 1000 < u64::from(self.drop_per_mille)
    }
}

/// Snapshot of [`UdpDataPlane`] counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UdpStats {
    /// Datagrams handed to the socket.
    pub sent: u64,
    /// Probes whose echo arrived within some attempt's timeout.
    pub delivered: u64,
    /// Retransmission attempts (beyond each probe's first send).
    pub retries: u64,
    /// Attempts abandoned on timeout.
    pub timeouts: u64,
    /// Echoes that arrived after their attempt was abandoned (or arrived
    /// twice); dropped without completing anything.
    pub late_echoes: u64,
    /// Probes dropped by the injected-loss shim before reaching a socket.
    pub shim_dropped: u64,
    /// Echoes whose RTT came from a kernel `SO_TIMESTAMP` stamp.
    pub kernel_stamped: u64,
    /// Echoes whose RTT fell back to the monotonic clock.
    pub mono_stamped: u64,
    /// Datagrams that failed probe decoding.
    pub decode_errors: u64,
    /// Socket send failures (each consumes one attempt).
    pub send_errors: u64,
}

#[derive(Default)]
struct Counters {
    sent: AtomicU64,
    delivered: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    late_echoes: AtomicU64,
    shim_dropped: AtomicU64,
    kernel_stamped: AtomicU64,
    mono_stamped: AtomicU64,
    decode_errors: AtomicU64,
    send_errors: AtomicU64,
}

impl Counters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> UdpStats {
        UdpStats {
            sent: self.sent.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            late_echoes: self.late_echoes.load(Ordering::Relaxed),
            shim_dropped: self.shim_dropped.load(Ordering::Relaxed),
            kernel_stamped: self.kernel_stamped.load(Ordering::Relaxed),
            mono_stamped: self.mono_stamped.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            send_errors: self.send_errors.load(Ordering::Relaxed),
        }
    }
}

/// One in-flight probe attempt, keyed by its sequence number.
#[derive(Clone, Copy, Debug)]
struct PendingProbe {
    sent_mono_us: u64,
    sent_wall_us: u64,
    /// Filled by the recv loop when the echo lands.
    echo: Option<Echo>,
}

/// A completed echo as consumed by the waiting prober. Carrying `kernel`
/// here lets the prober bump `delivered` and the stamp counter together,
/// so a stats snapshot can never observe one ahead of the other.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Echo {
    rtt_us: f64,
    kernel: bool,
}

/// How the recv loop's completion attempt resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EchoOutcome {
    /// First echo for a live attempt; `kernel` says which clock stamped
    /// the RTT.
    Matched { kernel: bool },
    /// The attempt already has an RTT (duplicate echo).
    Duplicate,
    /// No such attempt — it timed out and was cancelled, or never was.
    Unknown,
}

/// Sequence-number → in-flight-attempt table shared between probe
/// callers and recv loops.
struct PendingTable {
    slots: Mutex<HashMap<u32, PendingProbe>>,
    echoed: Condvar,
}

impl PendingTable {
    fn new() -> Self {
        Self {
            slots: Mutex::new(HashMap::new()),
            echoed: Condvar::new(),
        }
    }

    /// Poison-tolerant lock: a panicking prober must not wedge the recv
    /// loops (the table holds plain data, always consistent between
    /// statements).
    fn lock(&self) -> MutexGuard<'_, HashMap<u32, PendingProbe>> {
        self.slots.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn register(&self, seq: u32, sent_mono_us: u64, sent_wall_us: u64) {
        self.lock().insert(
            seq,
            PendingProbe {
                sent_mono_us,
                sent_wall_us,
                echo: None,
            },
        );
    }

    /// Called by a recv loop for each decoded echo. Uses the kernel wall
    /// stamp when it is present *and* not behind the send stamp (a wall
    /// clock stepped backwards mid-flight would otherwise produce a
    /// bogus RTT); falls back to the monotonic clock.
    fn complete(&self, seq: u32, kernel_wall_us: Option<u64>, now_mono_us: u64) -> EchoOutcome {
        let mut slots = self.lock();
        let Some(slot) = slots.get_mut(&seq) else {
            return EchoOutcome::Unknown;
        };
        if slot.echo.is_some() {
            return EchoOutcome::Duplicate;
        }
        let echo = match kernel_wall_us {
            Some(w) if w >= slot.sent_wall_us => Echo {
                rtt_us: (w - slot.sent_wall_us) as f64,
                kernel: true,
            },
            _ => Echo {
                rtt_us: now_mono_us.saturating_sub(slot.sent_mono_us) as f64,
                kernel: false,
            },
        };
        slot.echo = Some(echo);
        drop(slots);
        self.echoed.notify_all();
        EchoOutcome::Matched {
            kernel: echo.kernel,
        }
    }

    /// Blocks the caller until the attempt completes or `timeout_us`
    /// elapses. On success the slot is consumed; on timeout it is left
    /// for [`cancel`](Self::cancel) so a racing completion is still
    /// honored.
    fn await_echo(&self, seq: u32, timeout_us: u64, clock: &dyn ProbeClock) -> Option<Echo> {
        let deadline = clock.mono_us().saturating_add(timeout_us);
        let mut slots = self.lock();
        loop {
            if let Some(slot) = slots.get(&seq) {
                if slot.echo.is_some() {
                    return slots.remove(&seq).and_then(|s| s.echo);
                }
            } else {
                // Cancelled from elsewhere; nothing to wait for.
                return None;
            }
            let now = clock.mono_us();
            if now >= deadline {
                return None;
            }
            let wait = Duration::from_micros(deadline - now);
            let (guard, _timed_out) = self
                .echoed
                .wait_timeout(slots, wait)
                .unwrap_or_else(|p| p.into_inner());
            slots = guard;
        }
    }

    /// Removes the attempt, returning its echo if one raced the timeout
    /// and completed it first.
    fn cancel(&self, seq: u32) -> Option<Echo> {
        self.lock().remove(&seq).and_then(|s| s.echo)
    }

    #[cfg(test)]
    fn in_flight(&self) -> usize {
        self.lock().len()
    }
}

struct Shared {
    sockets: Vec<UdpSocket>,
    /// Responder addresses; a flow's `dst` node maps onto
    /// `addrs[dst % len]`.
    addrs: Vec<SocketAddr>,
    pending: PendingTable,
    clock: Arc<dyn ProbeClock>,
    retry: RetryPolicy,
    loss: Option<LossShim>,
    kernel_ts: bool,
    seq: AtomicU32,
    stats: Counters,
    shutdown: AtomicBool,
}

impl Shared {
    fn addr_of(&self, dst: u32) -> Option<SocketAddr> {
        if self.addrs.is_empty() {
            None
        } else {
            self.addrs.get(dst as usize % self.addrs.len()).copied()
        }
    }
}

/// Echo-receive loop: one per socket. Decodes every datagram, stamps it
/// (kernel stamp when available, monotonic otherwise) and completes the
/// matching pending attempt.
fn recv_loop(shared: &Shared, index: usize) {
    let Some(socket) = shared.sockets.get(index) else {
        return;
    };
    let mut buf = [0u8; 2048];
    while !shared.shutdown.load(Ordering::Acquire) {
        let (len, stamp) = match timestamp::recv_with_stamp(socket, &mut buf) {
            Ok(x) => x,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => {
                // Transient socket error: back off briefly instead of
                // spinning on a hot error loop.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        let Some(frame) = buf.get(..len) else {
            continue;
        };
        let pkt = match decode_probe(Bytes::copy_from_slice(frame)) {
            Ok(p) => p,
            Err(_) => {
                Counters::bump(&shared.stats.decode_errors);
                continue;
            }
        };
        let now_mono = shared.clock.mono_us();
        match shared.pending.complete(pkt.seq, stamp, now_mono) {
            // The waiting prober does the delivered + stamp accounting
            // when it consumes the echo, keeping the counters coherent.
            EchoOutcome::Matched { .. } => {}
            EchoOutcome::Duplicate | EchoOutcome::Unknown => {
                Counters::bump(&shared.stats.late_echoes);
            }
        }
    }
}

/// Socket-backed [`DataPlane`]: real UDP probes to
/// [`Responder`](crate::responder::Responder) echo sockets.
///
/// Construct with [`UdpDataPlane::connect`] (or
/// [`UdpHarness::dataplane`] for the loopback harness). Dropping the
/// plane shuts the recv loops down and joins them.
pub struct UdpDataPlane {
    shared: Arc<Shared>,
    recv_threads: Vec<JoinHandle<()>>,
}

impl UdpDataPlane {
    /// Binds the probe socket pool and spawns one recv loop per socket.
    ///
    /// `responders` are the echo socket addresses (a flow's destination
    /// node selects `responders[dst % len]`); `loss` optionally installs
    /// the deterministic injected-loss shim.
    pub fn connect(
        responders: &[SocketAddr],
        cfg: &UdpConfig,
        loss: Option<LossShim>,
        clock: Arc<dyn ProbeClock>,
    ) -> io::Result<Self> {
        if responders.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "UdpDataPlane needs at least one responder address",
            ));
        }
        let count = cfg.sockets.max(1);
        let mut sockets = Vec::with_capacity(count);
        let mut kernel_ts = true;
        for _ in 0..count {
            let socket = UdpSocket::bind(cfg.bind)?;
            socket.set_read_timeout(Some(cfg.recv_poll.max(Duration::from_millis(1))))?;
            kernel_ts &= timestamp::enable(&socket);
            sockets.push(socket);
        }
        let shared = Arc::new(Shared {
            sockets,
            addrs: responders.to_vec(),
            pending: PendingTable::new(),
            clock,
            retry: cfg.retry,
            loss,
            kernel_ts,
            seq: AtomicU32::new(0),
            stats: Counters::default(),
            shutdown: AtomicBool::new(false),
        });
        let mut recv_threads = Vec::with_capacity(count);
        for i in 0..count {
            let sh = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("udp-recv-{i}"))
                .spawn(move || recv_loop(&sh, i))?;
            recv_threads.push(handle);
        }
        Ok(Self {
            shared,
            recv_threads,
        })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> UdpStats {
        self.shared.stats.snapshot()
    }

    /// True when every socket accepted `SO_TIMESTAMP` (RTTs use kernel
    /// receive stamps; otherwise all fall back to the monotonic clock).
    pub fn kernel_timestamps(&self) -> bool {
        self.shared.kernel_ts
    }

    /// The retry schedule in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.shared.retry
    }
}

impl Drop for UdpDataPlane {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for handle in self.recv_threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl DataPlane for UdpDataPlane {
    fn probe(&self, route: &Route, flow: FlowKey, rng: &mut SmallRng) -> ProbeOutcome {
        self.probe_tagged(ProbeTag::UNTAGGED, route, flow, rng)
    }

    fn probe_tagged(
        &self,
        tag: ProbeTag,
        _route: &Route,
        flow: FlowKey,
        _rng: &mut SmallRng,
    ) -> ProbeOutcome {
        let sh = &*self.shared;
        if let Some(loss) = &sh.loss {
            if loss.drops(tag.window, tag.path_id) {
                // Decided before the socket: deterministic, and no
                // timeout wait is served for an injected drop.
                Counters::bump(&sh.stats.shim_dropped);
                return ProbeOutcome {
                    delivered: false,
                    rtt_us: 0.0,
                };
            }
        }
        let Some(addr) = sh.addr_of(flow.dst) else {
            Counters::bump(&sh.stats.send_errors);
            return ProbeOutcome {
                delivered: false,
                rtt_us: 0.0,
            };
        };
        for attempt in 0..sh.retry.attempts() {
            if attempt > 0 {
                Counters::bump(&sh.stats.retries);
            }
            // A fresh sequence number per attempt: an echo of an
            // abandoned attempt can never complete this one.
            let seq = sh.seq.fetch_add(1, Ordering::Relaxed);
            let sent_mono = sh.clock.mono_us();
            let sent_wall = sh.clock.wall_us();
            let wire = detector_simnet::encode_probe(&ProbePacket {
                waypoint: tag.waypoint,
                flow,
                seq,
                path_id: tag.path_id,
                timestamp_us: sent_wall,
            });
            sh.pending.register(seq, sent_mono, sent_wall);
            let Some(socket) = sh.sockets.get(seq as usize % sh.sockets.len()) else {
                sh.pending.cancel(seq);
                break;
            };
            if socket.send_to(wire.as_ref(), addr).is_err() {
                sh.pending.cancel(seq);
                Counters::bump(&sh.stats.send_errors);
                continue;
            }
            Counters::bump(&sh.stats.sent);
            let timeout = sh.retry.timeout_us(attempt);
            let echo = sh
                .pending
                .await_echo(seq, timeout, sh.clock.as_ref())
                // No echo inside the timeout: cancel, honoring one that
                // raced the deadline and completed first.
                .or_else(|| sh.pending.cancel(seq));
            if let Some(echo) = echo {
                Counters::bump(&sh.stats.delivered);
                Counters::bump(if echo.kernel {
                    &sh.stats.kernel_stamped
                } else {
                    &sh.stats.mono_stamped
                });
                return ProbeOutcome {
                    delivered: true,
                    rtt_us: echo.rtt_us,
                };
            }
            Counters::bump(&sh.stats.timeouts);
        }
        ProbeOutcome {
            delivered: false,
            rtt_us: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualProbeClock;

    const WALL0: u64 = 1_700_000_000_000_000;

    #[test]
    fn retry_policy_backs_off_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.attempts(), 3);
        assert_eq!(p.timeout_us(0), 100_000, "§6.1's loss threshold");
        let backoff = RetryPolicy {
            attempt_timeout_us: 20_000,
            ..p
        };
        assert_eq!(backoff.timeout_us(0), 20_000);
        assert_eq!(backoff.timeout_us(1), 80_000);
        assert_eq!(backoff.timeout_us(2), 100_000, "capped at max_timeout_us");
        let flat = RetryPolicy {
            attempt_timeout_us: 5_000,
            retries: 1,
            backoff_mult: 0, // Clamped to 1.
            max_timeout_us: 1_000,
        };
        assert_eq!(
            flat.timeout_us(0),
            5_000,
            "cap never shrinks below the base timeout"
        );
        assert_eq!(flat.timeout_us(5), 5_000);
    }

    #[test]
    fn pending_prefers_kernel_stamp() {
        let t = PendingTable::new();
        t.register(7, 1_000, WALL0);
        let out = t.complete(7, Some(WALL0 + 450), 999_999);
        assert_eq!(out, EchoOutcome::Matched { kernel: true });
        let clock = ManualProbeClock::starting_at(WALL0);
        assert_eq!(
            t.await_echo(7, 0, &clock),
            Some(Echo {
                rtt_us: 450.0,
                kernel: true
            })
        );
        assert_eq!(t.in_flight(), 0, "successful await consumes the slot");
    }

    #[test]
    fn pending_falls_back_to_mono_when_wall_steps_back() {
        // An NTP step put the kernel stamp *behind* the send stamp; the
        // monotonic difference must be used instead.
        let t = PendingTable::new();
        t.register(8, 2_000, WALL0);
        let out = t.complete(8, Some(WALL0 - 1), 2_700);
        assert_eq!(out, EchoOutcome::Matched { kernel: false });
        let clock = ManualProbeClock::default();
        assert_eq!(
            t.await_echo(8, 0, &clock),
            Some(Echo {
                rtt_us: 700.0,
                kernel: false
            })
        );
    }

    #[test]
    fn pending_falls_back_to_mono_without_kernel_stamp() {
        let t = PendingTable::new();
        t.register(9, 5_000, WALL0);
        assert_eq!(
            t.complete(9, None, 6_250),
            EchoOutcome::Matched { kernel: false }
        );
        let clock = ManualProbeClock::default();
        assert_eq!(
            t.await_echo(9, 0, &clock),
            Some(Echo {
                rtt_us: 1_250.0,
                kernel: false
            })
        );
    }

    #[test]
    fn late_echo_after_cancel_is_unknown_and_cannot_double_count() {
        let t = PendingTable::new();
        t.register(10, 0, WALL0);
        // The prober times out and cancels before any echo.
        assert_eq!(t.cancel(10), None);
        // The echo then straggles in: it must match nothing.
        assert_eq!(t.complete(10, Some(WALL0 + 5), 100), EchoOutcome::Unknown);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn duplicate_echo_is_flagged() {
        let t = PendingTable::new();
        t.register(11, 0, WALL0);
        assert_eq!(
            t.complete(11, Some(WALL0 + 10), 10),
            EchoOutcome::Matched { kernel: true }
        );
        assert_eq!(t.complete(11, Some(WALL0 + 12), 12), EchoOutcome::Duplicate);
        let clock = ManualProbeClock::default();
        assert_eq!(
            t.await_echo(11, 0, &clock),
            Some(Echo {
                rtt_us: 10.0,
                kernel: true
            }),
            "first RTT kept"
        );
    }

    #[test]
    fn cancel_honors_racing_completion() {
        let t = PendingTable::new();
        t.register(12, 100, WALL0);
        assert_eq!(
            t.complete(12, None, 350),
            EchoOutcome::Matched { kernel: false }
        );
        // Timeout path: await gave up, but cancel finds the RTT.
        assert_eq!(
            t.cancel(12),
            Some(Echo {
                rtt_us: 250.0,
                kernel: false
            })
        );
        assert_eq!(t.complete(12, None, 400), EchoOutcome::Unknown);
    }

    #[test]
    fn await_echo_times_out_on_a_manual_clock() {
        let t = PendingTable::new();
        let clock = ManualProbeClock::default();
        clock.advance_us(50);
        t.register(13, 50, WALL0);
        // Deadline = 50 + 0 → immediate timeout; the slot stays for
        // cancel().
        assert_eq!(t.await_echo(13, 0, &clock), None);
        assert_eq!(t.in_flight(), 1);
        assert_eq!(t.cancel(13), None);
    }

    #[test]
    fn loss_shim_is_deterministic_and_spares_in_rack() {
        let a = LossShim::new(42, 200);
        let b = LossShim::new(42, 200);
        let mut dropped = 0usize;
        for window in 0..20u64 {
            for path in 0..100u32 {
                assert_eq!(a.drops(window, path), b.drops(window, path));
                if a.drops(window, path) {
                    dropped += 1;
                }
            }
        }
        // 20% nominal over 2000 trials: allow a generous band.
        assert!((200..=600).contains(&dropped), "dropped {dropped}/2000");
        for window in 0..50u64 {
            assert!(!a.drops(window, ProbeTag::IN_RACK));
        }
        let off = LossShim::new(42, 0);
        for window in 0..20u64 {
            for path in 0..100u32 {
                assert!(!off.drops(window, path));
            }
        }
    }

    #[test]
    fn loss_shim_varies_with_seed_and_clamps_rate() {
        let a = LossShim::new(1, 500);
        let b = LossShim::new(2, 500);
        let differs = (0..200u32).any(|p| a.drops(0, p) != b.drops(0, p));
        assert!(differs, "different seeds must drop different probes");
        let saturated = LossShim::new(3, 5_000); // Clamped to 1000/1000.
        for path in 0..50u32 {
            assert!(saturated.drops(0, path));
        }
    }

    #[test]
    fn connect_rejects_empty_responder_list() {
        let clock = Arc::new(ManualProbeClock::default());
        let err = UdpDataPlane::connect(&[], &UdpConfig::default(), None, clock);
        assert!(err.is_err());
    }
}
