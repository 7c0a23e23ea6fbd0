//! `churn`: Fattree at 1 pps under a 32-link failure storm, with one
//! fresh link drained per window (and the previous one restored),
//! driven by `DistributedDetector::run_distributed` over loopback
//! agents. Every window re-plans, so the planner dominates.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use detector::prelude::{
    DcnTopology, Detector, DistScript, DistributedDetector, Fabric, FailureGenerator,
    FailureScenario, Fattree, LinkId, SystemConfig, TopologyEvent, WindowResult,
};
use detector::system::dispatch::{rebase_and_diff, rebase_pairs};
use detector::system::{Controller, Watchdog};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::{cores, link_quality, put_end_to_end, timings, Campaign, Opts, Report, Setups};
use crate::layers::{put_event_layers, Spans};
use crate::meter::{ProbeMeter, TimedPlane};
use crate::stats::median;
use crate::tap::{PlanCounters, Tap};

const WARM_WINDOWS: u64 = 2;
const RATE_PPS: f64 = 1.0;
const STORM_LINKS: usize = 32;
const MIN_LOSS_RATE: f64 = 0.05;
const AGENTS: usize = 2;
/// Windows per storm in the closed-loop phases: a run then averages its
/// verdict quality over many storms instead of resting on one draw.
const STORM_WINDOWS: u64 = 5;

/// The campaign's inputs, all derived from the seed: one failure storm
/// per epoch of `epoch_len` windows, and per window the one link that
/// is drained during it (never a link of the window's storm, never the
/// previous window's link).
struct Inputs {
    ft: Arc<Fattree>,
    seed: u64,
    epoch_len: u64,
    storms: Vec<(FailureScenario, Vec<LinkId>)>,
    drains: Vec<LinkId>,
    drain_rng: SmallRng,
}

impl Inputs {
    fn new(ft: Arc<Fattree>, seed: u64, epoch_len: u64) -> Self {
        Self {
            ft,
            seed,
            epoch_len,
            storms: Vec::new(),
            drains: Vec::new(),
            drain_rng: SmallRng::seed_from_u64(seed ^ 0xD2A1),
        }
    }

    fn epoch(&self, window: u64) -> usize {
        (window / self.epoch_len) as usize
    }

    /// Storm `epoch` and its ground truth.
    fn storm(&mut self, epoch: usize) -> &(FailureScenario, Vec<LinkId>) {
        while self.storms.len() <= epoch {
            let salt = (self.storms.len() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut rng = SmallRng::seed_from_u64(self.seed ^ salt);
            let links = STORM_LINKS.min(self.ft.probe_links() / 4);
            let scenario = FailureGenerator::links_only()
                .with_min_rate(MIN_LOSS_RATE)
                .sample(self.ft.as_ref(), links, &mut rng);
            let truth = scenario.ground_truth(self.ft.as_ref());
            self.storms.push((scenario, truth));
        }
        &self.storms[epoch]
    }

    /// Ground truth of the run's window `g` (its storm generated).
    fn truth(&self, g: u64) -> &[LinkId] {
        &self.storms[self.epoch(g)].1
    }

    /// The fabric of `epoch` (its storm generated): quiet links plus
    /// that epoch's storm.
    fn fabric(&self, epoch: usize) -> Fabric<'_> {
        let mut fabric = Fabric::quiet(self.ft.as_ref());
        fabric.apply_scenario(&self.storms[epoch].0);
        fabric
    }

    /// The link drained during the run's window `g`.
    fn drained(&mut self, g: u64) -> LinkId {
        while self.drains.len() as u64 <= g {
            let window = self.drains.len() as u64;
            let epoch = self.epoch(window);
            let storm: HashSet<LinkId> = self.storm(epoch).1.iter().copied().collect();
            let prev = self.drains.last().copied();
            let probe_links = self.ft.probe_links() as u32;
            let next = loop {
                let l = LinkId(self.drain_rng.gen_range(0..probe_links));
                if Some(l) != prev && !storm.contains(&l) {
                    break l;
                }
            };
            self.drains.push(next);
        }
        self.drains[g as usize]
    }

    /// Topology events before the run's window `g`: restore the previous
    /// window's link, drain a fresh one.
    fn events(&mut self, g: u64) -> Vec<TopologyEvent> {
        let mut events = Vec::with_capacity(2);
        if g > 0 {
            events.push(TopologyEvent::LinkUp {
                link: self.drained(g - 1),
            });
        }
        events.push(TopologyEvent::LinkDown {
            link: self.drained(g),
        });
        events
    }

    /// The script for `n` windows starting at the run's window `from`.
    fn script(&mut self, from: u64, n: u64) -> DistScript {
        let mut script = DistScript::new();
        for i in 0..n {
            for ev in self.events(from + i) {
                script = script.topology(i, ev);
            }
        }
        script
    }
}

struct Setting {
    topo: Arc<Fattree>,
    cfg: SystemConfig,
    agents: usize,
    seed: u64,
}

impl Setting {
    fn detector(&self, tap: &Tap) -> Result<DistributedDetector, String> {
        let mut dd = DistributedDetector::new(self.topo.clone(), self.cfg.clone(), self.agents)
            .map_err(|e| e.to_string())?;
        dd.add_sink(tap.sink());
        Ok(dd)
    }

    fn inputs(&self, epoch_len: u64) -> Inputs {
        Inputs::new(self.topo.clone(), self.seed, epoch_len)
    }
}

/// Runs `dd` in a closed loop for `budget` after a warm-up, one
/// `run_distributed` call per storm epoch (each call spawns the fleet
/// and ships the full pinglists), with `setups` run between calls and
/// left out of the phase.
fn drive(
    dd: &mut DistributedDetector,
    inputs: &mut Inputs,
    tap: &Tap,
    rng: &mut SmallRng,
    budget: Duration,
    setups: &mut Setups,
) -> Result<Campaign, String> {
    let mut from = 0u64;
    let mut chunk = |dd: &mut DistributedDetector, n: u64| -> Result<Vec<WindowResult>, String> {
        tap.next_chunk();
        let script = inputs.script(from, n);
        let fabric = inputs.fabric(inputs.epoch(from));
        let outcome = dd
            .run_distributed(&fabric, n, &script, rng)
            .map_err(|e| e.to_string())?;
        from += n;
        Ok(outcome.results)
    };
    chunk(dd, WARM_WINDOWS)?;
    tap.take();
    let mut results = Vec::new();
    let t0 = Instant::now();
    let mut next = WARM_WINDOWS;
    let measured = |setups: &Setups| t0.elapsed().saturating_sub(setups.spent);
    while measured(setups) < budget {
        setups.run_due(measured(setups))?;
        let n = STORM_WINDOWS - next % STORM_WINDOWS;
        results.extend(chunk(dd, n)?);
        next += n;
    }
    Ok(Campaign {
        results,
        records: tap.take(),
        elapsed: measured(setups),
    })
}

/// Checks a phase's verdicts (no drained link blamed) and returns their
/// per-window quality. `results` start at the run's window `offset`.
fn check(
    report: &mut Report,
    phase: &str,
    results: &[WindowResult],
    offset: u64,
    inputs: &Inputs,
) -> Vec<(f64, f64)> {
    results
        .iter()
        .zip(offset..)
        .map(|(w, g)| {
            let drained = inputs.drains[g as usize];
            report.check(!w.diagnosis.suspect_links().contains(&drained), || {
                format!(
                    "{phase}: window {} blames the drained link {drained:?}",
                    w.window
                )
            });
            link_quality(&w.diagnosis, inputs.truth(g))
        })
        .collect()
}

pub fn run(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let ft = Arc::new(Fattree::new(opts.radix).map_err(|e| format!("{e:?}"))?);
    let mut cfg = crate::common::base_config(RATE_PPS);
    cfg.pmc.stable_patch = true;
    let agents = AGENTS.min(cores());
    let setting = Setting {
        topo: ft.clone(),
        cfg,
        agents,
        seed: opts.seed,
    };
    let run_seed = opts.seed ^ 0x5EED;
    report.ctx("driver", "DistributedDetector::run_distributed (loopback)");
    report.ctx("data_plane", "simnet Fabric");
    report.ctx("probe_workers", agents);
    report.ctx("sockets", 0);
    report.ctx("responders", 0);
    report.ctx("agents", agents);
    report.ctx("storm_links", STORM_LINKS.min(ft.probe_links() / 4));

    if !opts.trace {
        let tap = Tap::default();
        let mut inputs = setting.inputs(STORM_WINDOWS);
        let mut setup_fabric = Fabric::quiet(ft.as_ref());
        setup_fabric.apply_scenario(&inputs.storm(0).0);
        let setup_tap = Tap::default();
        let budget = opts.budget(1.0);
        // Set-up: controller tier + first deployment, then a zero-window
        // run that spawns the fleet and ships the initial pinglists.
        let mut setups = Setups::new(budget, || {
            let mut dd = setting.detector(&setup_tap)?;
            let mut rng = SmallRng::seed_from_u64(run_seed);
            dd.run_distributed(&setup_fabric, 0, &DistScript::new(), &mut rng)
                .map_err(|e| e.to_string())?;
            Ok(dd)
        });
        let mut dd = setting.detector(&tap)?;
        let mut rng = SmallRng::seed_from_u64(run_seed);
        let run = drive(&mut dd, &mut inputs, &tap, &mut rng, budget, &mut setups)?;
        let setup_s = setups.median()?;
        let quality = check(report, "churn", &run.results, WARM_WINDOWS, &inputs);
        report.attempted += run.results.len() as u64 + run.probes();
        put_end_to_end(report, &run, setup_s, &quality);
        report.ctx("windows", run.results.len());
        return Ok(());
    }

    // Traced run, four phases over the same seed and one storm. The
    // distributed phases each make a warm-up call of `WARM_WINDOWS` and
    // one measured call of the window count A's warm-up rate fills in
    // a quarter of the time:
    // A. untraced distributed (the tracing overhead reference);
    // B. the same calls traced;
    // C. the sequential oracle over B's script (`run_scripted`);
    // D. a standalone `Controller` replay of B's script.
    let mut inputs = setting.inputs(u64::MAX);
    let mut fabric = Fabric::quiet(ft.as_ref());
    fabric.apply_scenario(&inputs.storm(0).0);
    let warm_script = inputs.script(0, WARM_WINDOWS);
    let origin = Instant::now();

    let tap = Tap::default();
    let mut dd = setting.detector(&tap)?;
    let mut rng = SmallRng::seed_from_u64(run_seed);
    let t0 = Instant::now();
    let mut plain = dd
        .run_distributed(&fabric, WARM_WINDOWS, &warm_script, &mut rng)
        .map_err(|e| e.to_string())?
        .results;
    let warm_rate = WARM_WINDOWS as f64 / t0.elapsed().as_secs_f64();
    let main = ((warm_rate * opts.budget(0.25).as_secs_f64()).round() as u64).max(3);
    let script = inputs.script(WARM_WINDOWS, main);
    let t0 = Instant::now();
    plain.extend(
        dd.run_distributed(&fabric, main, &script, &mut rng)
            .map_err(|e| e.to_string())?
            .results,
    );
    let plain_rate = main as f64 / t0.elapsed().as_secs_f64();
    check(report, "untraced", &plain, 0, &inputs);
    report.attempted += plain.len() as u64 + plain.iter().map(|w| w.probes_sent).sum::<u64>();
    drop(dd);

    let windows = WARM_WINDOWS + main;
    let meter = Arc::new(ProbeMeter::default());
    let tap = Tap::with_meter(meter.clone());
    let mut dd = setting.detector(&tap)?;
    let plane = TimedPlane::new(&fabric, meter.clone());
    let mut rng = SmallRng::seed_from_u64(run_seed);
    let mut results = dd
        .run_distributed(&plane, WARM_WINDOWS, &warm_script, &mut rng)
        .map_err(|e| e.to_string())?
        .results;
    tap.next_chunk();
    meter.reset();
    let t0 = Instant::now();
    let outcome = dd
        .run_distributed(&plane, main, &script, &mut rng)
        .map_err(|e| e.to_string())?;
    let dist_elapsed = t0.elapsed();
    results.extend(outcome.results.iter().cloned());
    let dist_records = tap.take();
    check(report, "traced", &results, 0, &inputs);
    report.attempted += results.len() as u64 + results.iter().map(|w| w.probes_sent).sum::<u64>();
    report.check(plain == results, || {
        "untraced distributed results differ from the traced run's".to_string()
    });
    let groups = dd.groups().clone();
    drop(dd);

    let oracle_meter = Arc::new(ProbeMeter::default());
    let oracle_tap = Tap::with_meter(oracle_meter.clone());
    let mut det = Detector::builder(setting.topo.clone())
        .config(setting.cfg.clone())
        .sink(oracle_tap.sink())
        .build()
        .map_err(|e| e.to_string())?;
    let oracle_plane = TimedPlane::new(&fabric, oracle_meter.clone());
    let mut rng = SmallRng::seed_from_u64(run_seed);
    let mut oracle = det
        .run_scripted(
            &oracle_plane,
            WARM_WINDOWS,
            &warm_script.oracle(&groups),
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
    oracle_tap.next_chunk();
    oracle.extend(
        det.run_scripted(&oracle_plane, main, &script.oracle(&groups), &mut rng)
            .map_err(|e| e.to_string())?,
    );
    let oracle_records = oracle_tap.take();
    report.attempted += oracle.len() as u64 + oracle.iter().map(|w| w.probes_sent).sum::<u64>();
    report.check(oracle == results, || {
        let first = oracle
            .iter()
            .zip(&results)
            .position(|(a, b)| a != b)
            .unwrap_or(oracle.len().min(results.len()));
        format!("distributed results diverge from the run_scripted oracle at window {first}")
    });
    report.check(
        Tap::plans(&oracle_records) == Tap::plans(&dist_records),
        || "distributed PlanUpdated counters differ from the oracle's".to_string(),
    );
    drop(det);

    let replay = replay_controller(&setting, &mut inputs, windows)?;
    let dist_plans = Tap::plans(&dist_records);
    report.check(replay.counters == dist_plans, || {
        format!(
            "controller replay counters ({} updates) differ from the run's PlanUpdated ({} updates)",
            replay.counters.len(),
            dist_plans.len()
        )
    });

    // Metrics over the windows after warm-up.
    let warm = WARM_WINDOWS as usize;
    let recs = &dist_records[warm.min(dist_records.len())..];
    let n = recs.len() as u64;
    let t = timings(recs);
    let oracle_t = timings(&oracle_records[warm.min(oracle_records.len())..]);
    let calls = meter.calls();
    let per_window = calls as f64 / main as f64;
    report.put("simnet.probe_calls", per_window, main);
    report.put("simnet.busy_ms", median(&t.busy), n);
    report.put(
        "simnet.ns_per_probe",
        meter.busy_ns() as f64 / calls.max(1) as f64,
        calls,
    );
    report.put(
        "simnet.loss_ratio",
        meter.lost() as f64 / calls.max(1) as f64,
        calls,
    );
    put_event_layers(report, recs, agents);
    let pinger_self = report.value("pinger.self_ms");
    report.put(
        "pinger.ns_per_probe",
        pinger_self * 1e6 / per_window.max(1.0),
        n,
    );
    report.put(
        "scheduler.worker_busy_ratio",
        meter.busy_ns() as f64 / 1e9 / (dist_elapsed.as_secs_f64() * agents as f64),
        main,
    );
    let dist_p50 = median(&t.window);
    let seq_p50 = median(&oracle_t.window);
    report.put(
        "scheduler.seq_window_ms",
        seq_p50,
        oracle_t.window.len() as u64,
    );
    report.put(
        "scheduler.pipeline_speedup",
        seq_p50 / dist_p50.max(1e-9),
        n,
    );
    report.put("agent.overhead_ms", dist_p50 - seq_p50, n);
    let w = main as f64;
    report.put(
        "agent.dispatch_bytes",
        outcome.dispatch_bytes as f64 / w,
        main,
    );
    report.put(
        "agent.control_bytes",
        outcome.control_bytes as f64 / w,
        main,
    );
    report.put("agent.report_bytes", outcome.report_bytes as f64 / w, main);
    report.put(
        "trace.overhead_ratio",
        plain_rate / (w / dist_elapsed.as_secs_f64()),
        main,
    );
    let nd = replay.linkdown_ms.len() as u64;
    report.put("planner.linkdown_ms_p50", median(&replay.linkdown_ms), nd);
    report.put(
        "planner.linkup_ms_p50",
        median(&replay.linkup_ms),
        replay.linkup_ms.len() as u64,
    );
    report.put(
        "controller.deploy_ms_p50",
        median(&replay.deploy_ms),
        replay.deploy_ms.len() as u64,
    );
    report.put(
        "dispatch.diff_ms_p50",
        median(&replay.diff_ms),
        replay.diff_ms.len() as u64,
    );

    let mut spans = Spans::new(origin);
    spans.add_windows("distributed", &dist_records);
    spans.add_windows("oracle", &oracle_records);
    for (i, (name, start, end)) in replay.spans.iter().enumerate() {
        spans.add("replay", i as u64, None, name, *start, *end, None);
    }
    let path = spans
        .write(&opts.spans_dir, &opts.workload, opts.seed)
        .map_err(|e| format!("writing spans: {e}"))?;
    report.ctx("spans", path.display());
    report.ctx("windows", windows);
    Ok(())
}

/// A standalone `Controller` replay of a churn script.
struct Replay {
    counters: Vec<PlanCounters>,
    linkdown_ms: Vec<f64>,
    linkup_ms: Vec<f64>,
    deploy_ms: Vec<f64>,
    diff_ms: Vec<f64>,
    /// (name, start, end) of every timed call.
    spans: Vec<(&'static str, Instant, Instant)>,
}

/// Replays `script`'s topology events through a fresh `Controller`,
/// mirroring `Detector::apply`: apply the event, and when links changed
/// build the deployment and diff it against the previous one.
fn replay_controller(
    setting: &Setting,
    inputs: &mut Inputs,
    windows: u64,
) -> Result<Replay, String> {
    let watchdog = Watchdog::new();
    let mut ctl = Controller::new(setting.topo.clone(), setting.cfg.clone());
    let mut prev = ctl
        .build_deployment(watchdog.unhealthy_set())
        .map_err(|e| e.to_string())?;
    let mut out = Replay {
        counters: Vec::new(),
        linkdown_ms: Vec::new(),
        linkup_ms: Vec::new(),
        deploy_ms: Vec::new(),
        diff_ms: Vec::new(),
        spans: Vec::new(),
    };
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    for g in 0..windows {
        for ev in &inputs.events(g) {
            let before = ctl.probe_plan().map(|p| p.cell_ranges());
            let t0 = Instant::now();
            let update = ctl.apply_event(ev).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            let (name, bucket) = match ev {
                TopologyEvent::LinkDown { .. } => ("apply_event:link_down", &mut out.linkdown_ms),
                _ => ("apply_event:link_up", &mut out.linkup_ms),
            };
            bucket.push(ms(t0, t1));
            out.spans.push((name, t0, t1));
            let mut counters = PlanCounters {
                links_changed: update.links_changed,
                probes_delta: update.probes_delta,
                lists_redispatched: 0,
                entries_diffed: 0,
                bytes_dispatched: 0,
            };
            if update.links_changed > 0 {
                let t2 = Instant::now();
                let mut dep = ctl
                    .build_deployment(watchdog.unhealthy_set())
                    .map_err(|e| e.to_string())?;
                let t3 = Instant::now();
                let after = ctl.probe_plan().map(|p| p.cell_ranges());
                let rebases = rebase_pairs(before.as_deref(), after.as_deref());
                let t4 = Instant::now();
                let (_, stats) = rebase_and_diff(&prev, &mut dep, &rebases);
                let t5 = Instant::now();
                out.deploy_ms.push(ms(t2, t3));
                out.diff_ms.push(ms(t4, t5));
                out.spans.push(("build_deployment", t2, t3));
                out.spans.push(("rebase_and_diff", t4, t5));
                counters.lists_redispatched = stats.lists_redispatched;
                counters.entries_diffed = stats.entries_diffed;
                counters.bytes_dispatched = stats.bytes_dispatched;
                prev = dep;
            }
            out.counters.push(counters);
        }
    }
    Ok(out)
}
