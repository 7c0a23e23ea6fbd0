//! The diagnoser's localizer on a multi-failure storm: per-window PLL on
//! Fattree(16), plain `localize` (the oracle) vs `IncrementalPll` (what
//! the diagnoser runs).
//!
//! The scenario plants one full-loss edge–agg link in each of several
//! pods, so the window's lossy paths form many heavy islands — the worst
//! case for the global greedy. Two loss variants alternate between
//! iterations so the incremental arm's identical-window verdict cache
//! never short-circuits; its per-epoch skeleton stays warm across
//! iterations, exactly as in a real campaign (the matrix does not change
//! between windows).
//!
//! Arms:
//!
//! * `localize` — plain `localize`, rebuilding the skeleton every window;
//! * `incremental` — `IncrementalPll` patching only the flipped paths,
//!   the number `BENCH_diag.json` pins (≥1.5× over `localize`, checked by
//!   `tests/bench_artifacts.rs`).
//!
//! A second group runs a whole 4-window pipelined campaign on the default
//! configuration — the windows/s guard: the diagnosis stage must not slow
//! the end-to-end window loop by more than 10% against the committed
//! `BENCH_sched.json` baseline.
//!
//! Regenerate with:
//! `CRITERION_JSON=$PWD/BENCH_diag.json cargo bench -p detector-bench --bench diag_parallel`

use std::collections::HashSet;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use detector_core::pll::{localize, IncrementalPll, PllConfig};
use detector_core::pmc::ProbeMatrix;
use detector_core::types::{LinkId, PathObservation};
use detector_simnet::{Fabric, LossDiscipline};
use detector_system::{Controller, Detector, PipelineConfig, Script, SharedTopology, SystemConfig};
use detector_topology::Fattree;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One full-loss window: every path through a planted link drops all of
/// its probes, everything else is clean.
fn window(matrix: &ProbeMatrix, planted: &[LinkId]) -> Vec<PathObservation> {
    let bad: HashSet<LinkId> = planted.iter().copied().collect();
    matrix
        .paths
        .iter()
        .map(|p| {
            let lost = if p.links().iter().any(|l| bad.contains(l)) {
                300
            } else {
                0
            };
            PathObservation::new(p.id, 300, lost)
        })
        .collect()
}

fn multifail(c: &mut Criterion) {
    let ft = Arc::new(Fattree::new(16).expect("fattree"));
    let ctl_cfg = SystemConfig::default();
    let mut ctl = Controller::new(ft.clone() as SharedTopology, ctl_cfg);
    let matrix = ctl
        .build_deployment(&HashSet::new())
        .expect("deployment")
        .matrix;

    // Four failed edge–agg links in each of the sixteen pods — the
    // paper's gray-failure storm, the worst case for the global greedy
    // (every selection rescans every candidate of every island). The B
    // variant moves one failure so consecutive windows differ
    // (defeating the identical-window verdict cache) while the matrix —
    // and so the cached skeleton — stays put.
    let planted_a: Vec<LinkId> = (0..16)
        .flat_map(|p| {
            [
                ft.ea_link(p, p % 8, (p + 1) % 8),
                ft.ea_link(p, (p + 3) % 8, (p + 5) % 8),
                ft.ea_link(p, (p + 6) % 8, (p + 2) % 8),
                ft.ea_link(p, (p + 1) % 8, (p + 4) % 8),
            ]
        })
        .collect();
    let mut planted_b = planted_a.clone();
    planted_b[63] = ft.ea_link(9, 1, 6);
    let windows = [window(&matrix, &planted_a), window(&matrix, &planted_b)];
    let cfg = PllConfig::default();

    // Each measured iteration diagnoses both window variants, so every
    // sample covers the same alternating work.
    let mut g = c.benchmark_group("diag_parallel/fattree16_multifail");
    g.sample_size(30);

    g.bench_function("localize", |b| {
        b.iter(|| {
            for w in &windows {
                localize(&matrix, w, &cfg);
            }
        })
    });

    let mut inc = IncrementalPll::new();
    g.bench_function("incremental", |b| {
        b.iter(|| {
            for w in &windows {
                inc.localize(&matrix, w, &cfg);
            }
        })
    });
    g.finish();
}

fn windows_guard(c: &mut Criterion) {
    let ft = Arc::new(Fattree::new(16).expect("fattree"));
    let mut fabric = Fabric::new(ft.as_ref(), 7);
    fabric.set_discipline_both(
        ft.ac_link(3, 1, 2),
        LossDiscipline::RandomPartial { rate: 0.3 },
    );
    // The scheduler-throughput scenario on the default configuration:
    // comparable window for window with
    // `scheduler_throughput/fattree16_cpu/pipelined` in BENCH_sched.json.
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

    let mut g = c.benchmark_group("diag_parallel/fattree16_windows");
    g.sample_size(10);
    let mut run = Detector::new(ft.clone() as SharedTopology, cfg).expect("boot");
    let mut rng = SmallRng::seed_from_u64(1);
    let script = Script::new();
    g.bench_function("pipelined_default", |b| {
        b.iter(|| {
            run.run_pipelined(&fabric, 4, &script, &pipeline, &mut rng)
                .expect("pipelined campaign")
        })
    });
    g.finish();
}

criterion_group!(benches, multifail, windows_guard);
criterion_main!(benches);
