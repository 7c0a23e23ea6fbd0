//! The event tap: an `EventSink` that stamps every `RuntimeEvent` with
//! its arrival time and folds them into one record per window. Every
//! end-to-end timing is a gap between two arrivals here, so it is what a
//! consumer of the event stream would see.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use detector::prelude::{EventSink, RuntimeEvent};

use crate::meter::ProbeMeter;

/// Deterministic counters of one `PlanUpdated` event (its wall-clock
/// `replan_micros` left out).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanCounters {
    pub links_changed: usize,
    pub probes_delta: i64,
    pub lists_redispatched: usize,
    pub entries_diffed: usize,
    pub bytes_dispatched: u64,
}

/// Everything the tap saw of one window.
#[derive(Clone, Debug)]
pub struct WindowRecord {
    pub window: u64,
    /// Driver invocation the window ran in; gaps are only taken between
    /// windows of the same invocation.
    pub chunk: u32,
    pub started: Instant,
    /// Last `ReportIngested` / `PingerUnhealthy` arrival.
    pub last_report: Instant,
    pub ingest_stats: Instant,
    pub ready: Instant,
    pub reports: u64,
    pub unhealthy: u64,
    /// Events attributed to the window, its `PlanUpdated`s included.
    pub events: u64,
    /// `IngestStats`: reports, paths_active, topk_hits, shard_contention,
    /// retract_mismatch.
    pub ingest: [u64; 5],
    /// `DiagStats`: lossy_paths, components, suspects.
    pub diag: [u64; 3],
    /// `PlanUpdated`s emitted before the window started.
    pub plans: Vec<PlanCounters>,
    /// `ProbeMeter::busy_ns` at `WindowStarted` and at the last report.
    pub busy_at_start: u64,
    pub busy_at_last_report: u64,
}

impl WindowRecord {
    fn open(now: Instant, chunk: u32, busy: u64) -> Self {
        Self {
            window: 0,
            chunk,
            started: now,
            last_report: now,
            ingest_stats: now,
            ready: now,
            reports: 0,
            unhealthy: 0,
            events: 0,
            ingest: [0; 5],
            diag: [0; 3],
            plans: Vec::new(),
            busy_at_start: busy,
            busy_at_last_report: busy,
        }
    }
}

#[derive(Default)]
struct TapState {
    open: Option<WindowRecord>,
    pending_plans: Vec<PlanCounters>,
    done: Vec<WindowRecord>,
}

/// Shared handle; [`Tap::sink`] makes the boxed sink a driver owns.
#[derive(Clone, Default)]
pub struct Tap {
    state: Arc<Mutex<TapState>>,
    chunk: Arc<AtomicU32>,
    meter: Option<Arc<ProbeMeter>>,
}

impl Tap {
    /// A tap that also snapshots `meter`'s busy time at window
    /// boundaries (traced runs).
    pub fn with_meter(meter: Arc<ProbeMeter>) -> Self {
        Self {
            meter: Some(meter),
            ..Self::default()
        }
    }

    pub fn sink(&self) -> Box<dyn EventSink> {
        Box::new(self.clone())
    }

    fn lock(&self) -> MutexGuard<'_, TapState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Marks the start of a new driver invocation.
    pub fn next_chunk(&self) {
        self.chunk.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes the completed window records, leaving the tap empty.
    pub fn take(&self) -> Vec<WindowRecord> {
        let mut st = self.lock();
        st.pending_plans.clear();
        std::mem::take(&mut st.done)
    }

    /// Every `PlanUpdated` seen in the completed records, in order.
    pub fn plans(records: &[WindowRecord]) -> Vec<PlanCounters> {
        records
            .iter()
            .flat_map(|r| r.plans.iter().copied())
            .collect()
    }

    fn busy(&self) -> u64 {
        self.meter.as_ref().map_or(0, |m| m.busy_ns())
    }
}

impl EventSink for Tap {
    fn on_event(&mut self, event: &RuntimeEvent) {
        let now = Instant::now();
        let busy = self.busy();
        let chunk = self.chunk.load(Ordering::Relaxed);
        let mut st = self.lock();
        let st = &mut *st;
        if let RuntimeEvent::PlanUpdated {
            links_changed,
            probes_delta,
            lists_redispatched,
            entries_diffed,
            bytes_dispatched,
            ..
        } = event
        {
            st.pending_plans.push(PlanCounters {
                links_changed: *links_changed,
                probes_delta: *probes_delta,
                lists_redispatched: *lists_redispatched,
                entries_diffed: *entries_diffed,
                bytes_dispatched: *bytes_dispatched,
            });
            return;
        }
        if let RuntimeEvent::WindowStarted { window, .. } = event {
            let mut rec = WindowRecord::open(now, chunk, busy);
            rec.window = *window;
            rec.events = st.pending_plans.len() as u64;
            rec.plans = std::mem::take(&mut st.pending_plans);
            st.open = Some(rec);
        }
        let Some(rec) = st.open.as_mut() else {
            return;
        };
        rec.events += 1;
        match event {
            RuntimeEvent::ReportIngested { .. } => {
                rec.reports += 1;
                rec.last_report = now;
                rec.busy_at_last_report = busy;
            }
            RuntimeEvent::PingerUnhealthy { .. } => {
                rec.unhealthy += 1;
                rec.last_report = now;
                rec.busy_at_last_report = busy;
            }
            RuntimeEvent::IngestStats {
                reports,
                paths_active,
                topk_hits,
                shard_contention,
                retract_mismatch,
                ..
            } => {
                rec.ingest_stats = now;
                rec.ingest = [
                    *reports,
                    *paths_active,
                    *topk_hits,
                    *shard_contention,
                    *retract_mismatch,
                ];
            }
            RuntimeEvent::DiagStats {
                lossy_paths,
                components,
                suspects,
                ..
            } => {
                rec.diag = [*lossy_paths, *components, *suspects];
            }
            RuntimeEvent::DiagnosisReady(_) => {
                rec.ready = now;
                if let Some(done) = st.open.take() {
                    st.done.push(done);
                }
            }
            _ => {}
        }
    }
}
