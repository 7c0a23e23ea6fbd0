//! Report → verdict throughput: path-report entries per second through
//! `Diagnoser` — the dense per-window fold at ingest, then seal + PLL —
//! plus a windows/s guard proving the diagnosis path did not slow the
//! Fattree(16) scheduler down.
//!
//! * `fattree16/fold_seal_diagnose_st_{N}entries` — one thread ingests
//!   eight consecutive windows of [`BurstLossReports`] (every
//!   probe-matrix path reported once per window, 2% of them lossy) and
//!   diagnoses each. Entries/s = N / median. The reports are built
//!   outside the timed section.
//! * `fattree16_windows/pipelined_4w` — the scheduler-throughput
//!   pipelined arm re-measured with the diagnoser in the window loop.
//!   windows/s = 4 / median; `tests/bench_artifacts.rs` guards this
//!   against the committed `BENCH_sched.json` numbers.
//!
//! The per-iteration entry count is encoded in the bench name so the
//! committed `BENCH_ingest.json` is self-describing: the artifact test
//! recomputes entries/s from `{N}entries` and `median_ns` and enforces
//! the ≥ 1M path-reports/s floor.
//!
//! Regenerate the committed snapshot with:
//! `CRITERION_JSON=$PWD/BENCH_ingest.json cargo bench -p detector-bench --bench ingest_throughput`

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use detector_core::pll::PllConfig;
use detector_core::pmc::PmcConfig;
use detector_core::types::NodeId;
use detector_simnet::{BurstLossReports, Fabric, LossDiscipline};
use detector_system::{
    Detector, Diagnoser, PathCounters, PingerReport, PipelineConfig, Script, SharedTopology,
    SystemConfig, Watchdog,
};
use detector_topology::{construct_symmetric, Fattree};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Windows ingested and diagnosed per measured iteration.
const FOLD_WINDOWS: u64 = 8;
const WINDOWS_PER_ITER: u64 = 4;

/// `FOLD_WINDOWS` windows of synthetic pinger reports over the real
/// Fattree(16) probe matrix's path-id space.
fn burst_windows(paths: usize) -> Vec<Vec<PingerReport>> {
    let gen = BurstLossReports {
        paths: paths as u32,
        reports_per_window: 64,
        probes_per_path: 30,
        lossy_fraction: 0.02,
        burst_windows: 8,
        seed: 0x16E57,
    };
    (0..FOLD_WINDOWS)
        .map(|w| {
            gen.window_reports(w)
                .into_iter()
                .enumerate()
                .map(|(i, entries)| PingerReport {
                    pinger: NodeId(i as u32),
                    window: w,
                    paths: entries
                        .into_iter()
                        .map(|(p, sent, lost)| {
                            let c = PathCounters {
                                sent,
                                lost,
                                ..PathCounters::default()
                            };
                            (p, c)
                        })
                        .collect(),
                    ..PingerReport::default()
                })
                .collect()
        })
        .collect()
}

fn fold_throughput(c: &mut Criterion) {
    let ft = Fattree::new(16).expect("fattree");
    let matrix = construct_symmetric(&ft, &PmcConfig::new(3, 1)).expect("probe matrix");
    let windows = burst_windows(matrix.num_paths());
    let entries: usize = windows.iter().flatten().map(|r| r.paths.len()).sum();
    let expect_reports = windows[0].len() as u64;

    let mut g = c.benchmark_group("ingest_throughput/fattree16");
    g.sample_size(10);

    let mut diagnoser = Diagnoser::new(matrix, PllConfig::default());
    let watchdog = Watchdog::new();
    g.bench_function(format!("fold_seal_diagnose_st_{entries}entries"), |b| {
        let mut base = 0u64;
        b.iter_batched(
            || {
                let batch = windows.clone();
                base += FOLD_WINDOWS;
                (base, batch)
            },
            |(base, batch)| {
                let mut total = 0;
                for (w, reports) in (base..).zip(batch) {
                    for mut r in reports {
                        r.window = w;
                        diagnoser.ingest(r);
                    }
                    let ev = diagnoser.diagnose(w, &watchdog);
                    assert_eq!(ev.reports, expect_reports);
                    total += ev.num_observations;
                }
                diagnoser.prune_before(base);
                total
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// The scheduler guard: identical setup to `scheduler_throughput`'s
/// `fattree16_cpu/pipelined` arm, re-measured with the diagnoser in the
/// window loop.
fn windows_guard(c: &mut Criterion) {
    let ft = Arc::new(Fattree::new(16).expect("fattree"));
    let mut fabric = Fabric::new(ft.as_ref(), 7);
    fabric.set_discipline_both(
        ft.ac_link(3, 1, 2),
        LossDiscipline::RandomPartial { rate: 0.3 },
    );
    let cfg = SystemConfig {
        cycle_s: u64::MAX,
        ..SystemConfig::default().with_rate(10.0)
    };
    let pipeline = PipelineConfig {
        probe_workers: std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .clamp(2, 8),
        depth: 4,
    };

    let mut g = c.benchmark_group("ingest_throughput/fattree16_windows");
    g.sample_size(10);
    let mut det = Detector::new(ft.clone() as SharedTopology, cfg).expect("boot");
    let mut rng = SmallRng::seed_from_u64(1);
    let script = Script::new();
    g.bench_function("pipelined_4w", |b| {
        b.iter(|| {
            det.run_pipelined(&fabric, WINDOWS_PER_ITER, &script, &pipeline, &mut rng)
                .expect("pipelined campaign")
        })
    });
    g.finish();
}

criterion_group!(benches, fold_throughput, windows_guard);
criterion_main!(benches);
