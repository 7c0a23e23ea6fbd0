//! `wire`: Fattree at 1 pps with every probe a real UDP datagram over
//! loopback (`UdpHarness`, one responder, one socket, 20 ‰ `LossShim`),
//! driven by the pipelined scheduler. No fabric simulation and no
//! re-plans: per-probe time is syscalls, echo matching and wire wait.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use detector::prelude::{
    DataPlane, Detector, Fattree, HarnessStats, HostClock, LinkId, LossShim, PipelineConfig,
    ProbeClock, ProbeMatrix, RetryPolicy, Script, SharedTopology, SystemConfig, UdpConfig,
    UdpDataPlane, UdpHarness, UdpStats, WindowResult,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::common::{cores, put_end_to_end, timings, Campaign, Opts, Report, Setups};
use crate::layers::{put_event_layers, Spans};
use crate::meter::{ProbeMeter, TimedPlane};
use crate::stats::median;
use crate::tap::{Tap, WindowRecord};

const WARM_WINDOWS: u64 = 3;
const RATE_PPS: f64 = 1.0;
const SHIM_PER_MILLE: u16 = 20;
const PROBE_WORKERS: usize = 2;
const DEPTH: usize = 2;
const RESPONDERS: usize = 1;
const SOCKETS: usize = 1;

/// A detector with its loopback responders and probe sockets. Field
/// order is drop order: the sockets close before the responders.
struct Rig {
    det: Detector,
    plane: UdpDataPlane,
    harness: UdpHarness,
}

/// Counter deltas of one measured phase.
#[derive(Clone, Copy, Default)]
struct WireStats {
    udp: UdpStats,
    responder: HarnessStats,
}

impl WireStats {
    fn read(plane: &UdpDataPlane, harness: &UdpHarness) -> Self {
        Self {
            udp: plane.stats(),
            responder: harness.stats(),
        }
    }

    fn since(self, before: WireStats) -> WireStats {
        let (a, b) = (self.udp, before.udp);
        let (r, q) = (self.responder, before.responder);
        WireStats {
            udp: UdpStats {
                sent: a.sent - b.sent,
                delivered: a.delivered - b.delivered,
                retries: a.retries - b.retries,
                timeouts: a.timeouts - b.timeouts,
                late_echoes: a.late_echoes - b.late_echoes,
                shim_dropped: a.shim_dropped - b.shim_dropped,
                kernel_stamped: a.kernel_stamped - b.kernel_stamped,
                mono_stamped: a.mono_stamped - b.mono_stamped,
                decode_errors: a.decode_errors - b.decode_errors,
                send_errors: a.send_errors - b.send_errors,
            },
            responder: HarnessStats {
                echoed: r.echoed - q.echoed,
                stray: r.stray - q.stray,
                corrupt: r.corrupt - q.corrupt,
            },
        }
    }

    /// Attempts that reached the socket boundary, and those abandoned on
    /// a timeout or a send error. Shim drops are the monitored fault.
    fn attempts(&self) -> (u64, u64) {
        let u = &self.udp;
        (u.sent + u.send_errors, u.timeouts + u.send_errors)
    }
}

/// Verdict quality of one window against the shim's ground truth, the
/// matrix paths it dropped that window. No link is at fault, so the
/// verdict should account for every dropped path, either through a
/// blamed link or in its unexplained list: (share of dropped paths
/// accounted for, share of blamed links that lie on a dropped path).
fn path_quality(matrix: &ProbeMatrix, shim: &LossShim, w: &WindowResult) -> (f64, f64) {
    let blamed: HashSet<LinkId> = w.diagnosis.suspect_links().into_iter().collect();
    let unexplained: HashSet<u32> = w.diagnosis.unexplained_paths.iter().map(|p| p.0).collect();
    let dropped: Vec<_> = matrix
        .paths
        .iter()
        .filter(|p| shim.drops(w.window, p.id.0))
        .collect();
    let accounted = dropped
        .iter()
        .filter(|p| unexplained.contains(&p.id.0) || p.links().iter().any(|l| blamed.contains(l)))
        .count();
    let on_dropped: HashSet<LinkId> = dropped
        .iter()
        .flat_map(|p| p.links().iter().copied())
        .collect();
    let justified = blamed.iter().filter(|l| on_dropped.contains(l)).count();
    let share = |k: usize, n: usize| if n == 0 { 1.0 } else { k as f64 / n as f64 };
    (
        share(accounted, dropped.len()),
        share(justified, blamed.len()),
    )
}

/// Runs `chunk(n)` (n windows per `run_pipelined` call) in a closed
/// loop until `budget` has elapsed. The first call runs `first` windows;
/// later calls are sized from the rate measured so far to land near the
/// budget. Returns the wall time the calls took.
fn run_for(
    budget: Duration,
    first: u64,
    mut chunk: impl FnMut(u64) -> Result<(), String>,
) -> Result<Duration, String> {
    let t0 = Instant::now();
    let mut done = 0u64;
    let mut n = first.max(1);
    loop {
        chunk(n)?;
        done += n;
        let elapsed = t0.elapsed();
        if elapsed >= budget {
            break;
        }
        let rate = done as f64 / elapsed.as_secs_f64();
        let left = (budget - elapsed).as_secs_f64() * rate;
        if left < 0.5 {
            break;
        }
        n = left.round().max(1.0) as u64;
    }
    Ok(t0.elapsed())
}

/// Warms `det` up, then runs pipelined chunks in a closed loop for
/// `budget`, the first sized to half the budget at the warm-up rate. Returns the campaign and the counter deltas over it.
#[allow(clippy::too_many_arguments)]
fn drive(
    det: &mut Detector,
    plane: &(dyn DataPlane + Sync),
    udp: &UdpDataPlane,
    harness: &UdpHarness,
    tap: &Tap,
    pipeline: &PipelineConfig,
    rng: &mut SmallRng,
    budget: Duration,
) -> Result<(Campaign, WireStats), String> {
    let mut chunk = |det: &mut Detector, n: u64| {
        tap.next_chunk();
        det.run_pipelined(plane, n, &Script::new(), pipeline, rng)
            .map_err(|e| e.to_string())
    };
    let t0 = Instant::now();
    chunk(det, WARM_WINDOWS)?;
    let warm_rate = WARM_WINDOWS as f64 / t0.elapsed().as_secs_f64().max(1e-6);
    let first = ((warm_rate * budget.as_secs_f64() / 2.0).floor() as u64).max(1);
    tap.take();
    let before = WireStats::read(udp, harness);
    let mut results = Vec::new();
    let elapsed = run_for(budget, first, |n| {
        results.extend(chunk(det, n)?);
        Ok(())
    })?;
    let stats = WireStats::read(udp, harness).since(before);
    Ok((
        Campaign {
            results,
            records: tap.take(),
            elapsed,
        },
        stats,
    ))
}

/// The wire campaign's fixed inputs, derived from the seed.
struct Setting {
    topo: SharedTopology,
    cfg: SystemConfig,
    shim: LossShim,
    udp_cfg: UdpConfig,
    pipeline: PipelineConfig,
    clock: Arc<dyn ProbeClock>,
    run_seed: u64,
}

impl Setting {
    fn new(opts: &Opts) -> Result<Self, String> {
        let ft = Arc::new(Fattree::new(opts.radix).map_err(|e| format!("{e:?}"))?);
        Ok(Self {
            topo: ft,
            cfg: crate::common::base_config(RATE_PPS),
            shim: LossShim::new(opts.seed ^ 0x5817, SHIM_PER_MILLE),
            // Each attempt waits up to §6.1's 100 ms loss threshold:
            // loopback echoes take microseconds, so only a stalled host
            // times out.
            udp_cfg: UdpConfig {
                sockets: SOCKETS,
                retry: RetryPolicy {
                    attempt_timeout_us: 100_000,
                    max_timeout_us: 100_000,
                    ..RetryPolicy::default()
                },
                ..UdpConfig::default()
            },
            pipeline: PipelineConfig {
                probe_workers: PROBE_WORKERS.min(cores()),
                depth: DEPTH,
            },
            clock: Arc::new(HostClock::new()),
            run_seed: opts.seed ^ 0x5EED,
        })
    }

    fn build(&self, tap: &Tap) -> Result<Detector, String> {
        Detector::builder(self.topo.clone())
            .config(self.cfg.clone())
            .sink(tap.sink())
            .build()
            .map_err(|e| e.to_string())
    }

    fn rig(&self, tap: &Tap) -> Result<Rig, String> {
        let det = self.build(tap)?;
        let harness = UdpHarness::spawn(RESPONDERS, self.cfg.dport, self.clock.clone())
            .map_err(|e| e.to_string())?;
        let plane = harness
            .dataplane(&self.udp_cfg, Some(self.shim))
            .map_err(|e| e.to_string())?;
        Ok(Rig {
            det,
            plane,
            harness,
        })
    }

    fn workers(&self) -> usize {
        self.pipeline.probe_workers
    }
}

pub fn run(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let setting = Setting::new(opts)?;
    let workers = setting.workers();
    report.ctx("driver", "Detector::run_pipelined");
    report.ctx("data_plane", "UdpDataPlane over loopback");
    report.ctx("probe_workers", workers);
    report.ctx("depth", DEPTH);
    report.ctx("sockets", SOCKETS);
    report.ctx("responders", RESPONDERS);
    report.ctx("agents", 0);

    let quality = |det: &Detector, results: &[WindowResult]| -> Vec<(f64, f64)> {
        results
            .iter()
            .map(|w| path_quality(det.matrix(), &setting.shim, w))
            .collect()
    };

    if !opts.trace {
        // Set-ups in one burst before the run: `drive` calls the
        // pipelined driver in a few long calls, with no room between.
        let setup_tap = Tap::default();
        let setup_s = Setups::new(opts.budget(1.0), || setting.rig(&setup_tap)).median()?;
        let tap = Tap::default();
        let rig = setting.rig(&tap)?;
        let Rig {
            mut det,
            plane,
            harness,
        } = rig;
        let mut rng = SmallRng::seed_from_u64(setting.run_seed);
        let (run, stats) = drive(
            &mut det,
            &plane,
            &plane,
            &harness,
            &tap,
            &setting.pipeline,
            &mut rng,
            opts.budget(1.0),
        )?;
        report.check(stats.udp.decode_errors == 0, || {
            format!(
                "{} datagrams failed probe decoding",
                stats.udp.decode_errors
            )
        });
        let (attempts, failed) = stats.attempts();
        report.attempted += run.results.len() as u64 + attempts;
        report.failed += failed;
        let q = quality(&det, &run.results);
        put_end_to_end(report, &run, setup_s, &q);
        report.ctx("windows", run.results.len());
        report.ctx("kernel_timestamps", plane.kernel_timestamps());
        return Ok(());
    }

    // Traced run: the transport phases B and C, then A, an untraced
    // reference that repeats B's calls without the timing wrapper.
    let mut spans = Spans::new(Instant::now());
    let piped = transport(&setting, report, opts.budget(0.7), &mut spans)?;
    let tap = Tap::default();
    let Rig {
        mut det,
        plane,
        harness,
    } = setting.rig(&tap)?;
    let mut rng = SmallRng::seed_from_u64(setting.run_seed);
    let before = WireStats::read(&plane, &harness);
    let mut plain = det
        .run_pipelined(
            &plane,
            WARM_WINDOWS,
            &Script::new(),
            &setting.pipeline,
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let measured = det
        .run_pipelined(
            &plane,
            piped.windows,
            &Script::new(),
            &setting.pipeline,
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
    let plain_rate = measured.len() as f64 / t0.elapsed().as_secs_f64();
    plain.extend(measured);
    let stats = WireStats::read(&plane, &harness).since(before);
    let (attempts, failed) = stats.attempts();
    report.attempted += plain.len() as u64 + attempts;
    report.failed += failed;
    report.check(stats.udp.decode_errors == 0, || {
        format!(
            "{} datagrams failed probe decoding",
            stats.udp.decode_errors
        )
    });
    report.check(plain == piped.results, || {
        "untraced pipelined results differ from the traced run's".to_string()
    });
    report.ctx("kernel_timestamps", plane.kernel_timestamps());
    drop((det, plane, harness));

    put_event_layers(report, &piped.records, workers);
    let pinger_self = report.value("pinger.self_ms");
    report.put(
        "pinger.ns_per_probe",
        pinger_self * 1e6 / piped.probes_per_window.max(1.0),
        piped.records.len() as u64,
    );
    report.put(
        "trace.overhead_ratio",
        plain_rate / piped.windows_per_s,
        piped.windows,
    );
    let path = spans
        .write(&opts.spans_dir, &opts.workload, opts.seed)
        .map_err(|e| format!("writing spans: {e}"))?;
    report.ctx("spans", path.display());
    report.ctx("windows", piped.windows);
    Ok(())
}

/// What the traced pipelined phase leaves for the event-stream layers.
pub struct Transport {
    /// Results of every window, warm-up included.
    pub results: Vec<WindowResult>,
    /// Window records of the measured call.
    pub records: Vec<WindowRecord>,
    /// Windows in the measured call.
    pub windows: u64,
    pub windows_per_s: f64,
    pub probes_per_window: f64,
}

/// The wire campaign's transport phases over one responder/socket rig:
/// B. pipelined windows behind the timing wrapper; C. the same windows
/// through sequential `run_scripted` over the same plane, whose results
/// must be equal. Each phase makes a warm-up call of `WARM_WINDOWS`
/// and one measured call; the measured calls' window count is sized
/// from the warm-ups' rates so that both fill about `budget`. Puts the
/// `udp.*`, `responder.*` and `scheduler.*` metrics and adds both
/// phases' spans.
fn transport(
    setting: &Setting,
    report: &mut Report,
    budget: Duration,
    spans: &mut Spans,
) -> Result<Transport, String> {
    let workers = setting.workers();
    let meter = Arc::new(ProbeMeter::default());
    let tap = Tap::with_meter(meter.clone());
    let Rig {
        mut det,
        plane,
        harness,
    } = setting.rig(&tap)?;
    let timed = TimedPlane::new(&plane, meter.clone());
    let seq_meter = Arc::new(ProbeMeter::default());
    let seq_tap = Tap::with_meter(seq_meter.clone());
    let mut seq_det = setting.build(&seq_tap)?;
    let seq_plane = TimedPlane::new(&plane, seq_meter);
    let mut rng = SmallRng::seed_from_u64(setting.run_seed);
    let mut seq_rng = SmallRng::seed_from_u64(setting.run_seed);
    let start = WireStats::read(&plane, &harness);

    let t0 = Instant::now();
    let mut piped = det
        .run_pipelined(
            &timed,
            WARM_WINDOWS,
            &Script::new(),
            &setting.pipeline,
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let mut seq = seq_det
        .run_scripted(&seq_plane, WARM_WINDOWS, &Script::new(), &mut seq_rng)
        .map_err(|e| e.to_string())?;
    let per_window = (t1.elapsed() + (t1 - t0)).as_secs_f64() / WARM_WINDOWS as f64;
    let windows = ((budget.as_secs_f64() / per_window).round() as u64).max(3);
    tap.take();
    seq_tap.take();
    meter.reset();

    let before = WireStats::read(&plane, &harness);
    let t0 = Instant::now();
    piped.extend(
        det.run_pipelined(&timed, windows, &Script::new(), &setting.pipeline, &mut rng)
            .map_err(|e| e.to_string())?,
    );
    let piped_elapsed = t0.elapsed();
    let stats = WireStats::read(&plane, &harness).since(before);
    let piped_records = tap.take();
    seq.extend(
        seq_det
            .run_scripted(&seq_plane, windows, &Script::new(), &mut seq_rng)
            .map_err(|e| e.to_string())?,
    );
    let seq_records = seq_tap.take();
    let all = WireStats::read(&plane, &harness).since(start);
    let (attempts, failed) = all.attempts();
    report.attempted += (piped.len() + seq.len()) as u64 + attempts;
    report.failed += failed;
    report.check(seq == piped, || {
        let first = seq
            .iter()
            .zip(&piped)
            .position(|(a, b)| a != b)
            .unwrap_or(seq.len().min(piped.len()));
        format!("pipelined results diverge from run_scripted at window {first}")
    });
    report.check(all.udp.decode_errors == 0, || {
        format!("{} datagrams failed probe decoding", all.udp.decode_errors)
    });

    let n = piped_records.len() as u64;
    let t = timings(&piped_records);
    let seq_t = timings(&seq_records);
    let w = windows as f64;
    let calls = meter.calls();
    report.put(
        "udp.probe_us_p50",
        meter.call_ns.percentile(0.5) / 1e3,
        calls,
    );
    report.put(
        "udp.probe_us_p99",
        meter.call_ns.percentile(0.99) / 1e3,
        calls,
    );
    report.put("udp.busy_ms", meter.busy_ns() as f64 / 1e6 / w, windows);
    let rtts = meter.rtt_us.count();
    report.put("udp.rtt_us_p50", meter.rtt_us.percentile(0.5), rtts);
    report.put("udp.rtt_us_p99", meter.rtt_us.percentile(0.99), rtts);
    let u = &stats.udp;
    let stamped = u.kernel_stamped + u.mono_stamped;
    report.put(
        "udp.kernel_stamp_ratio",
        u.kernel_stamped as f64 / stamped.max(1) as f64,
        stamped,
    );
    for (name, v) in [
        ("udp.sent", u.sent),
        ("udp.retries", u.retries),
        ("udp.timeouts", u.timeouts),
        ("udp.late_echoes", u.late_echoes),
        ("udp.shim_dropped", u.shim_dropped),
        ("udp.decode_errors", u.decode_errors),
        ("udp.send_errors", u.send_errors),
        ("responder.echoed", stats.responder.echoed),
        ("responder.stray", stats.responder.stray),
        ("responder.corrupt", stats.responder.corrupt),
    ] {
        report.put(name, v as f64 / w, windows);
    }
    report.put(
        "scheduler.worker_busy_ratio",
        meter.busy_ns() as f64 / 1e9 / (piped_elapsed.as_secs_f64() * workers as f64),
        windows,
    );
    let piped_p50 = median(&t.window);
    let seq_p50 = median(&seq_t.window);
    report.put(
        "scheduler.seq_window_ms",
        seq_p50,
        seq_t.window.len() as u64,
    );
    report.put(
        "scheduler.pipeline_speedup",
        seq_p50 / piped_p50.max(1e-9),
        n,
    );
    spans.add_windows("pipelined", &piped_records);
    spans.add_windows("sequential", &seq_records);
    Ok(Transport {
        results: piped,
        records: piped_records,
        windows,
        windows_per_s: w / piped_elapsed.as_secs_f64(),
        probes_per_window: calls as f64 / w,
    })
}

/// The wire transport phases run inside another workload's traced run
/// (see README.md: `wire` is not a gated workload, but its layers are
/// measured), sized to fill about `budget`.
pub fn transport_layers(
    opts: &Opts,
    report: &mut Report,
    budget: Duration,
    spans: &mut Spans,
) -> Result<(), String> {
    let setting = Setting::new(opts)?;
    let t = transport(&setting, report, budget, spans)?;
    report.ctx("transport_windows", t.windows);
    report.ctx("transport_probe_workers", setting.workers());
    report.ctx("transport_sockets", SOCKETS);
    report.ctx("transport_responders", RESPONDERS);
    Ok(())
}
