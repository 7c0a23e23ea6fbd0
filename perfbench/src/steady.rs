//! `steady`: Fattree at 10 pps with one link at 80 % random loss, driven
//! by sequential `Detector::step` over the simulated `Fabric`. The plan
//! never changes, so the probe stage dominates every window.

use std::sync::Arc;
use std::time::{Duration, Instant};

use detector::prelude::{
    DataPlane, DcnTopology, Detector, Fabric, Fattree, LinkId, LossDiscipline, SharedTopology,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::{link_quality, put_end_to_end, timings, Campaign, Opts, Report, Setups};
use crate::layers::{put_event_layers, Spans};
use crate::meter::{ProbeMeter, TimedPlane};
use crate::stats::median;
use crate::tap::Tap;

const WARM_WINDOWS: u64 = 5;
const RATE_PPS: f64 = 10.0;
/// High enough that a path through the link practically never loses
/// fewer than two packets in a window: the system's noise filter clears a path
/// with one loss (`min_loss_count = 2`), and at 30 % a short path did
/// so in about one window in 5 000, leaving a neighbouring link that
/// explains the same losses to be blamed instead (README.md).
const LOSS_RATE: f64 = 0.8;

/// Warms `det` up, then steps it in a closed loop for `budget`, with
/// `setups` (if any) run between windows and left out of the phase.
fn drive(
    det: &mut Detector,
    plane: &dyn DataPlane,
    tap: &Tap,
    meter: Option<&ProbeMeter>,
    rng: &mut SmallRng,
    budget: Duration,
    mut setups: Option<&mut Setups>,
) -> Result<Campaign, String> {
    for _ in 0..WARM_WINDOWS {
        det.step(plane, rng);
    }
    tap.take();
    if let Some(m) = meter {
        m.reset();
    }
    let mut results = Vec::new();
    let t0 = Instant::now();
    let measured = |setups: &Option<&mut Setups>| {
        let spent = setups.as_ref().map_or(Duration::ZERO, |s| s.spent);
        t0.elapsed().saturating_sub(spent)
    };
    loop {
        let now = measured(&setups);
        if now >= budget {
            break;
        }
        if let Some(s) = setups.as_mut() {
            if s.run_due(now)? {
                // The gap across a set-up is not a window.
                tap.next_chunk();
            }
        }
        results.push(det.step(plane, rng));
    }
    Ok(Campaign {
        results,
        records: tap.take(),
        elapsed: measured(&setups),
    })
}

pub fn run(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let ft = Arc::new(Fattree::new(opts.radix).map_err(|e| format!("{e:?}"))?);
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let lossy = LinkId(rng.gen_range(0..ft.probe_links() as u32));
    let mut fabric = Fabric::quiet(ft.as_ref());
    fabric.set_discipline_both(lossy, LossDiscipline::RandomPartial { rate: LOSS_RATE });
    let cfg = crate::common::base_config(RATE_PPS);
    let topo: SharedTopology = ft.clone();
    let build = |tap: &Tap| {
        Detector::builder(topo.clone())
            .config(cfg.clone())
            .sink(tap.sink())
            .build()
            .map_err(|e| e.to_string())
    };
    report.ctx("driver", "sequential Detector::step");
    report.ctx("data_plane", "simnet Fabric");
    report.ctx("lossy_link", lossy.0);
    report.ctx("probe_workers", 1);
    report.ctx("sockets", 0);
    report.ctx("responders", 0);
    report.ctx("agents", 0);

    let check = |report: &mut Report, phase: &str, run: &Campaign| {
        for w in &run.results {
            report.check(w.diagnosis.suspect_links().contains(&lossy), || {
                format!(
                    "{phase}: window {} does not name the lossy link {lossy:?}",
                    w.window
                )
            });
        }
        report.attempted += run.results.len() as u64 + run.probes();
    };

    if !opts.trace {
        let tap = Tap::default();
        let mut det = build(&tap)?;
        let setup_tap = Tap::default();
        let budget = opts.budget(1.0);
        let mut setups = Setups::new(budget, || build(&setup_tap));
        let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x5EED);
        let run = drive(
            &mut det,
            &fabric,
            &tap,
            None,
            &mut rng,
            budget,
            Some(&mut setups),
        )?;
        let setup_s = setups.median()?;
        check(report, "steady", &run);
        let quality: Vec<(f64, f64)> = run
            .results
            .iter()
            .map(|w| link_quality(&w.diagnosis, &[lossy]))
            .collect();
        put_end_to_end(report, &run, setup_s, &quality);
        report.ctx("windows", run.results.len());
        return Ok(());
    }

    // Traced: an untraced share for the tracing overhead, a traced share
    // behind the timing data-plane wrapper, then the wire workload's
    // transport phases, which measure the UDP and scheduler layers no
    // gated workload exercises (README.md).
    let tap = Tap::default();
    let mut det = build(&tap)?;
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x5EED);
    let plain = drive(
        &mut det,
        &fabric,
        &tap,
        None,
        &mut rng,
        opts.budget(0.4),
        None,
    )?;
    check(report, "untraced", &plain);
    drop(det);

    let meter = Arc::new(ProbeMeter::default());
    let tap = Tap::with_meter(meter.clone());
    let mut det = build(&tap)?;
    let plane = TimedPlane::new(&fabric, meter.clone());
    let origin = Instant::now();
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x5EED);
    let traced = drive(
        &mut det,
        &plane,
        &tap,
        Some(&meter),
        &mut rng,
        opts.budget(0.4),
        None,
    )?;
    check(report, "traced", &traced);

    let n = traced.results.len() as u64;
    let calls = meter.calls();
    let per_window = calls as f64 / n.max(1) as f64;
    let t = timings(&traced.records);
    report.put("simnet.probe_calls", per_window, n);
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
    put_event_layers(report, &traced.records, 1);
    let pinger_self = report.value("pinger.self_ms");
    report.put(
        "pinger.ns_per_probe",
        pinger_self * 1e6 / per_window.max(1.0),
        n,
    );
    report.put(
        "trace.overhead_ratio",
        plain.windows_per_s() / traced.windows_per_s(),
        n,
    );
    let coverage = report.value("trace.self_time_coverage");
    report.check(coverage >= 0.95, || {
        format!("layer self times cover only {coverage:.3} of the traced window")
    });

    let mut spans = Spans::new(origin);
    spans.add_windows("traced", &traced.records);
    crate::wire::transport_layers(opts, report, opts.budget(0.2), &mut spans)?;
    let path = spans
        .write(&opts.spans_dir, &opts.workload, opts.seed)
        .map_err(|e| format!("writing spans: {e}"))?;
    report.ctx("spans", path.display());
    report.ctx("windows", n);
    Ok(())
}
