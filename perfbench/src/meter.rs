//! Timing wrapper around a `DataPlane`: the traced runs' view of the
//! data-plane layer (simulated fabric or UDP sockets), measured from
//! outside the program at the `DataPlane` seam.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use detector::prelude::{DataPlane, FlowKey, ProbeOutcome, ProbeTag, Route};
use rand::rngs::SmallRng;

use crate::stats::Histogram;

/// Counters and histograms filled by [`TimedPlane`]; shared with the
/// event tap, which snapshots `busy_ns` at window boundaries.
#[derive(Default)]
pub struct ProbeMeter {
    /// Nanoseconds spent inside the wrapped plane's probe calls, summed
    /// over every calling thread.
    pub busy_ns: AtomicU64,
    /// Probe calls.
    pub calls: AtomicU64,
    /// Calls whose echo did not come back (monitored loss).
    pub lost: AtomicU64,
    /// Per-call wall time, nanoseconds.
    pub call_ns: Histogram,
    /// Reported round-trip time of delivered probes, microseconds.
    pub rtt_us: Histogram,
}

impl ProbeMeter {
    /// Clears every counter (between the phases of one traced run).
    pub fn reset(&self) {
        self.busy_ns.store(0, Ordering::Relaxed);
        self.calls.store(0, Ordering::Relaxed);
        self.lost.store(0, Ordering::Relaxed);
        self.call_ns.reset();
        self.rtt_us.reset();
    }

    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn lost(&self) -> u64 {
        self.lost.load(Ordering::Relaxed)
    }
}

/// A `DataPlane` that forwards to `inner` and times every probe.
pub struct TimedPlane<'a> {
    inner: &'a (dyn DataPlane + Sync),
    meter: Arc<ProbeMeter>,
}

impl<'a> TimedPlane<'a> {
    pub fn new(inner: &'a (dyn DataPlane + Sync), meter: Arc<ProbeMeter>) -> Self {
        Self { inner, meter }
    }

    fn account(&self, t0: Instant, out: ProbeOutcome) -> ProbeOutcome {
        let ns = t0.elapsed().as_nanos() as u64;
        let m = &*self.meter;
        m.busy_ns.fetch_add(ns, Ordering::Relaxed);
        m.calls.fetch_add(1, Ordering::Relaxed);
        m.call_ns.record(ns);
        if out.delivered {
            m.rtt_us.record(out.rtt_us.max(0.0) as u64);
        } else {
            m.lost.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

impl DataPlane for TimedPlane<'_> {
    fn probe(&self, route: &Route, flow: FlowKey, rng: &mut SmallRng) -> ProbeOutcome {
        let t0 = Instant::now();
        let out = self.inner.probe(route, flow, rng);
        self.account(t0, out)
    }

    fn probe_tagged(
        &self,
        tag: ProbeTag,
        route: &Route,
        flow: FlowKey,
        rng: &mut SmallRng,
    ) -> ProbeOutcome {
        let t0 = Instant::now();
        let out = self.inner.probe_tagged(tag, route, flow, rng);
        self.account(t0, out)
    }

    fn window_started(&self, window: u64, start_s: u64) {
        self.inner.window_started(window, start_s);
    }

    fn window_finished(&self, window: u64, end_s: u64) {
        self.inner.window_finished(window, end_s);
    }
}
