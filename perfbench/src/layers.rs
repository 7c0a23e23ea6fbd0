//! Per-layer metrics read off the event tap's window records, and the
//! span log the traced run writes when it ends.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use crate::common::{put_p50_p90, timings, Report};
use crate::stats::{mean, median, percentile};
use crate::tap::{PlanCounters, Tap, WindowRecord};

/// Puts the layers every driver exposes through its event stream:
/// pinger, ingest, diagnoser, events, plan/dispatch counters, and the
/// self-time coverage of a window. `threads` is how many threads probe
/// concurrently; the pinger's self time subtracts the data-plane busy
/// time per thread.
pub fn put_event_layers(report: &mut Report, records: &[WindowRecord], threads: usize) {
    let t = timings(records);
    let n = records.len() as u64;
    let per = |f: &dyn Fn(&WindowRecord) -> f64| mean(&records.iter().map(f).collect::<Vec<_>>());
    let threads = threads.max(1) as f64;

    let pinger_self: Vec<f64> = t
        .probe_stage
        .iter()
        .zip(&t.busy)
        .map(|(stage, busy)| stage - busy / threads)
        .collect();
    report.put("pinger.self_ms", median(&pinger_self), n);
    report.put("pinger.reports", per(&|r| r.reports as f64), n);
    report.put("pinger.unhealthy", per(&|r| r.unhealthy as f64), n);

    let ingest = [
        "ingest.reports",
        "ingest.paths_active",
        "ingest.topk_hits",
        "ingest.shard_contention",
        "ingest.retract_mismatch",
    ];
    for (i, name) in ingest.into_iter().enumerate() {
        report.put(name, per(&|r| r.ingest[i] as f64), n);
    }
    report.put("diagnoser.self_ms_p50", median(&t.diagnose), n);
    report.put("diagnoser.self_ms_p90", percentile(&t.diagnose, 0.9), n);
    let diag = [
        "diagnoser.lossy_paths",
        "diagnoser.components",
        "diagnoser.suspects",
    ];
    for (i, name) in diag.into_iter().enumerate() {
        report.put(name, per(&|r| r.diag[i] as f64), n);
    }
    put_p50_p90(
        report,
        "planner.replan_ms_p50",
        "planner.replan_ms_p90",
        &t.replan,
    );
    report.put("events.emit_ms", median(&t.emit), n);
    report.put("events.per_window", per(&|r| r.events as f64), n);

    let plans = Tap::plans(records);
    let windows = n.max(1) as f64;
    let sum =
        |f: &dyn Fn(&PlanCounters) -> f64| plans.iter().map(f).fold(0.0, |a, b| a + b) / windows;
    let np = plans.len() as u64;
    report.put(
        "controller.links_changed",
        sum(&|p| p.links_changed as f64),
        np,
    );
    report.put(
        "controller.probes_delta",
        sum(&|p| p.probes_delta.unsigned_abs() as f64),
        np,
    );
    report.put(
        "dispatch.lists_redispatched",
        sum(&|p| p.lists_redispatched as f64),
        np,
    );
    report.put(
        "dispatch.entries_diffed",
        sum(&|p| p.entries_diffed as f64),
        np,
    );
    report.put("dispatch.bytes", sum(&|p| p.bytes_dispatched as f64), np);

    // Probe stage + diagnosis + emission over the whole window gap:
    // what the layer self times leave unexplained is the driver's
    // turnaround between windows.
    let mut coverage = Vec::new();
    let mut gap = t.window.iter();
    for (i, r) in records.iter().enumerate() {
        if i > 0 && records[i - 1].chunk == r.chunk {
            if let Some(w) = gap.next() {
                coverage.push(t.span[i] / w.max(1e-9));
            }
        }
    }
    report.put(
        "trace.self_time_coverage",
        median(&coverage),
        coverage.len() as u64,
    );
}

/// The traced run's spans, kept in memory and written out once at the
/// end. One trace per window (its id is the window index within the
/// phase); every span names the span that caused it.
pub struct Spans {
    origin: Instant,
    out: String,
    next_id: u64,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            out: String::new(),
            next_id: 1,
        }
    }

    /// Adds one span; returns its id.
    #[allow(clippy::too_many_arguments)]
    pub fn add(
        &mut self,
        phase: &str,
        trace: u64,
        parent: Option<u64>,
        name: &str,
        start: Instant,
        end: Instant,
        busy_ns: Option<u64>,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let parent = parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            self.out,
            "{{\"phase\":\"{phase}\",\"trace\":{trace},\"id\":{id},\"parent\":{parent},\"name\":\"{name}\",\"start_us\":{},\"end_us\":{}",
            us(start),
            us(end)
        );
        if let Some(b) = busy_ns {
            let _ = write!(self.out, ",\"busy_ns\":{b}");
        }
        self.out.push_str("}\n");
        id
    }

    /// Spans of every window in `records`: `window` with its `replan`,
    /// `probe`, `diagnose` and `emit` children.
    pub fn add_windows(&mut self, phase: &str, records: &[WindowRecord]) {
        for (i, r) in records.iter().enumerate() {
            let root = self.add(phase, r.window, None, "window", r.started, r.ready, None);
            if i > 0 && records[i - 1].chunk == r.chunk {
                let prev = records[i - 1].ready;
                self.add(phase, r.window, Some(root), "replan", prev, r.started, None);
            }
            let busy = r.busy_at_last_report - r.busy_at_start;
            self.add(
                phase,
                r.window,
                Some(root),
                "probe",
                r.started,
                r.last_report,
                Some(busy),
            );
            self.add(
                phase,
                r.window,
                Some(root),
                "diagnose",
                r.last_report,
                r.ingest_stats,
                None,
            );
            self.add(
                phase,
                r.window,
                Some(root),
                "emit",
                r.ingest_stats,
                r.ready,
                None,
            );
        }
    }

    /// Writes the spans as JSON lines to `dir/spans-<workload>-<seed>.jsonl`.
    pub fn write(&self, dir: &str, workload: &str, seed: u64) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = PathBuf::from(dir).join(format!("spans-{workload}-{seed}.jsonl"));
        std::fs::write(&path, &self.out)?;
        Ok(path)
    }
}
