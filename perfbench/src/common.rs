//! Pieces shared by the three workloads: options, the closed-loop
//! runner, the metric report, and per-window derived timings.

use std::time::{Duration, Instant};

use detector::prelude::{evaluate_diagnosis, Diagnosis, LinkId, SystemConfig, WindowResult};

use crate::stats::{median, percentile};
use crate::tap::WindowRecord;

/// Command-line options.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Fattree radix (16 for the benchmark, 4 for the self-test).
    pub radix: u32,
    /// Directory the traced run writes its spans to.
    pub spans_dir: String,
}

impl Opts {
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64((self.seconds * share).max(0.05))
    }
}

/// Host cores (`nproc`); every thread count below is capped by it.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The campaign configuration every workload starts from: §6.1 defaults
/// at `pps`, with the cycle refresh pushed out of reach so the plan only
/// changes when a workload says so.
pub fn base_config(pps: f64) -> SystemConfig {
    SystemConfig {
        probe_rate_pps: pps,
        cycle_s: u64::MAX,
        ..SystemConfig::default()
    }
}

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUPS: usize = 40;

/// [`SETUPS`] timed set-ups spread evenly over a measured phase and
/// run between its windows. A host's speed can swing by more than half
/// over seconds, so a burst of set-ups lands in one speed regime while
/// the windows see several; spread out, they sample the same mix. Each
/// set-up is dropped right after it is timed, beside the phase's own
/// live detector.
pub struct Setups<'a> {
    /// Builds one set-up, drops it, and returns its build time.
    setup: Box<dyn FnMut() -> Result<Duration, String> + 'a>,
    every: Duration,
    times: Vec<f64>,
    /// Wall time spent in set-ups, to exclude from the phase.
    pub spent: Duration,
}

impl<'a> Setups<'a> {
    pub fn new<T>(budget: Duration, mut setup: impl FnMut() -> Result<T, String> + 'a) -> Self {
        Self {
            setup: Box::new(move || {
                let t0 = Instant::now();
                let built = setup()?;
                let took = t0.elapsed();
                drop(built);
                Ok(took)
            }),
            every: budget / SETUPS as u32,
            times: Vec::with_capacity(SETUPS),
            spent: Duration::ZERO,
        }
    }

    /// Runs the set-ups due once `measured` of the phase has passed;
    /// returns whether any ran.
    pub fn run_due(&mut self, measured: Duration) -> Result<bool, String> {
        let mut ran = false;
        while self.times.len() < SETUPS && measured >= self.every * self.times.len() as u32 {
            self.sample()?;
            ran = true;
        }
        Ok(ran)
    }

    /// Runs the set-ups not yet run and returns the median, seconds.
    pub fn median(mut self) -> Result<f64, String> {
        while self.times.len() < SETUPS {
            self.sample()?;
        }
        Ok(median(&self.times))
    }

    fn sample(&mut self) -> Result<(), String> {
        let t0 = Instant::now();
        let took = (self.setup)()?;
        self.times.push(took.as_secs_f64());
        self.spent += t0.elapsed();
        Ok(())
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// (steal, total) jiffies of the host's `cpu` line in `/proc/stat`.
pub fn host_cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().take(8).sum())
}

/// Share of CPU time the hypervisor took from this host between two
/// [`host_cpu_jiffies`] readings: a run-to-run spread diagnostic.
pub fn steal_ratio(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    after.0.saturating_sub(before.0) as f64 / total.max(1) as f64
}

/// The end-to-end metrics (`--trace 0`), name and unit, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("windows_per_s", "1/s"),
    ("probes_per_s", "1/s"),
    ("window_ms_p5", "ms"),
    ("window_ms_p90", "ms"),
    ("verdict_ms_p5", "ms"),
    ("verdict_ms_p90", "ms"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MiB"),
    ("diag_accuracy", "ratio"),
    ("diag_precision", "ratio"),
];

/// The per-layer metrics (`--trace 1`), name and unit, in print order.
/// A layer a workload does not exercise reads 0 with 0 samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("simnet.probe_calls", "count/window"),
    ("simnet.busy_ms", "ms"),
    ("simnet.ns_per_probe", "ns"),
    ("simnet.loss_ratio", "ratio"),
    ("pinger.self_ms", "ms"),
    ("pinger.ns_per_probe", "ns"),
    ("pinger.reports", "count/window"),
    ("pinger.unhealthy", "count/window"),
    ("udp.probe_us_p50", "us"),
    ("udp.probe_us_p99", "us"),
    ("udp.busy_ms", "ms"),
    ("udp.rtt_us_p50", "us"),
    ("udp.rtt_us_p99", "us"),
    ("udp.kernel_stamp_ratio", "ratio"),
    ("udp.sent", "count/window"),
    ("udp.retries", "count/window"),
    ("udp.timeouts", "count/window"),
    ("udp.late_echoes", "count/window"),
    ("udp.shim_dropped", "count/window"),
    ("udp.decode_errors", "count/window"),
    ("udp.send_errors", "count/window"),
    ("responder.echoed", "count/window"),
    ("responder.stray", "count/window"),
    ("responder.corrupt", "count/window"),
    ("scheduler.worker_busy_ratio", "ratio"),
    ("scheduler.seq_window_ms", "ms"),
    ("scheduler.pipeline_speedup", "ratio"),
    ("ingest.reports", "count/window"),
    ("ingest.paths_active", "count/window"),
    ("ingest.topk_hits", "count/window"),
    ("ingest.shard_contention", "count/window"),
    ("ingest.retract_mismatch", "count/window"),
    ("diagnoser.self_ms_p50", "ms"),
    ("diagnoser.self_ms_p90", "ms"),
    ("diagnoser.lossy_paths", "count/window"),
    ("diagnoser.components", "count/window"),
    ("diagnoser.suspects", "count/window"),
    ("events.emit_ms", "ms"),
    ("events.per_window", "count/window"),
    ("planner.replan_ms_p50", "ms"),
    ("planner.replan_ms_p90", "ms"),
    ("planner.linkdown_ms_p50", "ms"),
    ("planner.linkup_ms_p50", "ms"),
    ("controller.deploy_ms_p50", "ms"),
    ("dispatch.diff_ms_p50", "ms"),
    ("controller.links_changed", "count/window"),
    ("controller.probes_delta", "count/window"),
    ("dispatch.lists_redispatched", "count/window"),
    ("dispatch.entries_diffed", "count/window"),
    ("dispatch.bytes", "B/window"),
    ("agent.dispatch_bytes", "B/window"),
    ("agent.control_bytes", "B/window"),
    ("agent.report_bytes", "B/window"),
    ("agent.overhead_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_time_coverage", "ratio"),
];

/// One printed metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (windows, probes, set-ups); 0 for a
    /// layer the workload does not exercise.
    pub samples: u64,
}

/// The values of one run, plus its context and output checks.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(&'static str, f64, u64)>,
    /// Context fields for the record line: driver, counts, windows.
    pub context: Vec<(&'static str, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures, one line each.
    pub mismatches: Vec<String>,
}

impl Report {
    /// Sets metric `name` (from [`END_TO_END`] or [`PER_LAYER`]).
    pub fn put(&mut self, name: &'static str, value: f64, samples: u64) {
        self.values.retain(|(n, _, _)| *n != name);
        self.values.push((name, value, samples));
    }

    /// A value already put (0 when absent).
    pub fn value(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |v| v.1)
    }

    pub fn ctx(&mut self, key: &'static str, value: impl ToString) {
        self.context.push((key, value.to_string()));
    }

    /// Records an output check; a failing one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    /// The metrics of `table` in order. With `zero_fill` (the per-layer
    /// table) an unset metric reads 0; otherwise it is an error.
    pub fn metrics(
        &self,
        table: &[(&'static str, &'static str)],
        zero_fill: bool,
    ) -> Result<Vec<Metric>, String> {
        table
            .iter()
            .map(
                |&(name, unit)| match self.values.iter().find(|(n, _, _)| *n == name) {
                    Some(&(_, value, samples)) => Ok(Metric {
                        name,
                        value,
                        unit,
                        samples,
                    }),
                    None if zero_fill => Ok(Metric {
                        name,
                        value: 0.0,
                        unit,
                        samples: 0,
                    }),
                    None => Err(format!("metric {name} was not measured")),
                },
            )
            .collect()
    }
}

/// Per-window timings derived from the tap's records, milliseconds.
/// Gaps between windows are only taken within one driver invocation.
#[derive(Debug, Default)]
pub struct Timings {
    /// `DiagnosisReady(w-1)` → `DiagnosisReady(w)`.
    pub window: Vec<f64>,
    /// Last report → `DiagnosisReady`.
    pub verdict: Vec<f64>,
    /// `DiagnosisReady(w-1)` → `WindowStarted(w)`.
    pub replan: Vec<f64>,
    /// `WindowStarted` → last report.
    pub probe_stage: Vec<f64>,
    /// Data-plane busy time between `WindowStarted` and the last report.
    pub busy: Vec<f64>,
    /// Last report → `IngestStats`.
    pub diagnose: Vec<f64>,
    /// `IngestStats` → `DiagnosisReady`.
    pub emit: Vec<f64>,
    /// `WindowStarted` → `DiagnosisReady`.
    pub span: Vec<f64>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn timings(records: &[WindowRecord]) -> Timings {
    let mut t = Timings::default();
    for (i, r) in records.iter().enumerate() {
        if i > 0 && records[i - 1].chunk == r.chunk {
            let prev = &records[i - 1];
            t.window.push(ms(r.ready - prev.ready));
            t.replan
                .push(ms(r.started.saturating_duration_since(prev.ready)));
        }
        t.verdict.push(ms(r.ready - r.last_report));
        t.probe_stage.push(ms(r.last_report - r.started));
        t.busy
            .push((r.busy_at_last_report - r.busy_at_start) as f64 / 1e6);
        t.diagnose.push(ms(r.ingest_stats - r.last_report));
        t.emit.push(ms(r.ready - r.ingest_stats));
        t.span.push(ms(r.ready - r.started));
    }
    t
}

/// Pushes `name_p50` and `name_p90` for `values`.
pub fn put_p50_p90(report: &mut Report, p50: &'static str, p90: &'static str, values: &[f64]) {
    let n = values.len() as u64;
    report.put(p50, median(values), n);
    report.put(p90, percentile(values, 0.9), n);
}

/// Link-level verdict quality of one window against injected faulty
/// links: (share of faults blamed, share of blamed links that are
/// faults). A window with nothing blamed has precision 1.
pub fn link_quality(diagnosis: &Diagnosis, truth: &[LinkId]) -> (f64, f64) {
    let m = evaluate_diagnosis(&diagnosis.suspect_links(), truth);
    (m.accuracy, 1.0 - m.false_positive_ratio)
}

/// Mean of per-window (accuracy, precision) pairs.
pub fn mean_quality(per_window: &[(f64, f64)]) -> (f64, f64) {
    let n = per_window.len().max(1) as f64;
    let (a, p) = per_window
        .iter()
        .fold((0.0, 0.0), |(a, p), (x, y)| (a + x, p + y));
    (a / n, p / n)
}

/// What one measured phase of a workload produced.
pub struct Campaign {
    pub results: Vec<WindowResult>,
    pub records: Vec<WindowRecord>,
    pub elapsed: Duration,
}

impl Campaign {
    pub fn windows_per_s(&self) -> f64 {
        self.results.len() as f64 / self.elapsed.as_secs_f64()
    }

    pub fn probes(&self) -> u64 {
        self.results.iter().map(|w| w.probes_sent).sum()
    }
}

/// Share of a run's windows, the fastest, that the end-to-end rates
/// and low percentiles describe. The shared host runs this code at one
/// of two speeds, about 2x apart, switching every few seconds; a run's
/// mean or median follows the mix of the two, its fastest twentieth
/// only the program's own speed (README.md, "Host speed").
pub const FAST_SHARE: f64 = 0.05;

/// Puts every end-to-end metric of a measured phase. `quality` holds
/// one (accuracy, precision) pair per window.
pub fn put_end_to_end(report: &mut Report, run: &Campaign, setup_s: f64, quality: &[(f64, f64)]) {
    let t = timings(&run.records);
    let mut gaps = t.window.clone();
    gaps.sort_by(f64::total_cmp);
    let fast = &gaps[..((gaps.len() as f64 * FAST_SHARE).ceil() as usize)];
    let windows_per_s = fast.len() as f64 * 1e3 / fast.iter().sum::<f64>();
    let probes_per_window = run.probes() as f64 / run.results.len() as f64;
    report.put("windows_per_s", windows_per_s, fast.len() as u64);
    report.put(
        "probes_per_s",
        windows_per_s * probes_per_window,
        fast.len() as u64,
    );
    let n = t.window.len() as u64;
    report.put("window_ms_p5", percentile(&t.window, FAST_SHARE), n);
    report.put("window_ms_p90", percentile(&t.window, 0.9), n);
    let n = t.verdict.len() as u64;
    report.put("verdict_ms_p5", percentile(&t.verdict, FAST_SHARE), n);
    report.put("verdict_ms_p90", percentile(&t.verdict, 0.9), n);
    report.put("setup_s", setup_s, SETUPS as u64);
    report.put("rss_peak_mb", rss_peak_mb(), 1);
    let (accuracy, precision) = mean_quality(quality);
    report.put("diag_accuracy", accuracy, quality.len() as u64);
    report.put("diag_precision", precision, quality.len() as u64);
}
