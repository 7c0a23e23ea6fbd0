//! Keeps the committed benchmark snapshots honest.
//!
//! `BENCH_replan.json` and `BENCH_sched.json` are JSON-lines files
//! produced by the criterion shim's `CRITERION_JSON` feed (one record
//! per benchmark: group, bench, min/median/mean/max/std-dev in
//! nanoseconds, sample count). They are the machine-readable
//! perf-trajectory record the roadmap asks for — each PR that moves the
//! replan or scheduler numbers regenerates them with
//!
//! ```text
//! CRITERION_JSON=$PWD/BENCH_replan.json cargo bench -p detector-bench --bench replan_latency
//! CRITERION_JSON=$PWD/BENCH_sched.json  cargo bench -p detector-bench --bench scheduler_throughput
//! CRITERION_JSON=$PWD/BENCH_ingest.json cargo bench -p detector-bench --bench ingest_throughput
//! CRITERION_JSON=$PWD/BENCH_diag.json   cargo bench -p detector-bench --bench diag_parallel
//! CRITERION_JSON=$PWD/BENCH_udp.json    cargo bench -p detector-bench --bench probe_rtt
//! ```
//!
//! These tests parse both files with the in-tree JSON reader, so a
//! malformed or stale-schema snapshot fails tier-1 rather than rotting
//! silently. They validate structure, not timings — numbers vary by
//! machine.

use detector_core::json::Json;

fn records(path: &str) -> Vec<Json> {
    let root = env!("CARGO_MANIFEST_DIR");
    let text = std::fs::read_to_string(format!("{root}/{path}"))
        .unwrap_or_else(|e| panic!("{path} must exist at the workspace root: {e}"));
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("{path}: bad record {l:?}: {e:?}")))
        .collect()
}

fn check_schema(path: &str, recs: &[Json]) {
    assert!(!recs.is_empty(), "{path} has no records");
    for r in recs {
        for key in ["group", "bench"] {
            assert!(
                r.get(key).and_then(Json::as_str).is_some(),
                "{path}: record missing string field {key}: {r:?}"
            );
        }
        for key in [
            "min_ns",
            "median_ns",
            "mean_ns",
            "max_ns",
            "std_dev_ns",
            "samples",
        ] {
            assert!(
                r.get(key).and_then(Json::as_u64).is_some(),
                "{path}: record missing numeric field {key}: {r:?}"
            );
        }
        let min = r.get("min_ns").and_then(Json::as_u64).unwrap();
        let med = r.get("median_ns").and_then(Json::as_u64).unwrap();
        let max = r.get("max_ns").and_then(Json::as_u64).unwrap();
        assert!(min <= med && med <= max, "{path}: unordered stats: {r:?}");
        assert!(
            min > 0,
            "{path}: zero-time sample is not a measurement: {r:?}"
        );
    }
}

#[test]
fn replan_snapshot_parses_and_covers_both_modes() {
    let recs = records("BENCH_replan.json");
    check_schema("BENCH_replan.json", &recs);
    let benches: Vec<&str> = recs
        .iter()
        .filter_map(|r| r.get("bench").and_then(Json::as_str))
        .collect();
    // The snapshot must keep the full-vs-incremental comparison alive.
    assert!(
        benches.iter().any(|b| b.starts_with("full_")),
        "no full-replan records: {benches:?}"
    );
    assert!(
        benches.iter().any(|b| b.starts_with("incremental_")),
        "no incremental-replan records: {benches:?}"
    );
}

#[test]
fn scheduler_snapshot_parses_and_covers_both_drivers() {
    let recs = records("BENCH_sched.json");
    check_schema("BENCH_sched.json", &recs);
    let benches: Vec<&str> = recs
        .iter()
        .filter_map(|r| r.get("bench").and_then(Json::as_str))
        .collect();
    assert!(
        benches.contains(&"sequential") && benches.contains(&"pipelined"),
        "snapshot must compare sequential and pipelined drivers: {benches:?}"
    );
}

/// The report → verdict snapshot carries two claims, both checked
/// against the *committed* records (so the test is deterministic — it
/// guards the snapshot pair, and regenerating either file on a machine
/// that can't hold the claims fails loudly instead of rotting):
///
/// * the fold benches (ingest through `Diagnoser`, then seal + PLL)
///   clear the throughput floor of 1M path-report entries/s (entry
///   counts are encoded in the bench names as `..._{N}entries`);
/// * the diagnoser in the window loop kept scheduler throughput —
///   `fattree16_windows/pipelined_4w` here vs `fattree16_cpu/pipelined`
///   in `BENCH_sched.json` — within 10% of the committed windows/s.
#[test]
fn ingest_snapshot_holds_throughput_floor_and_scheduler_guard() {
    let recs = records("BENCH_ingest.json");
    check_schema("BENCH_ingest.json", &recs);

    let fold_records: Vec<&Json> = recs
        .iter()
        .filter(|r| {
            r.get("bench")
                .and_then(Json::as_str)
                .is_some_and(|b| b.starts_with("fold_seal_"))
        })
        .collect();
    assert!(
        !fold_records.is_empty(),
        "snapshot must keep the single-thread fold arm"
    );
    for r in &fold_records {
        let bench = r.get("bench").and_then(Json::as_str).unwrap();
        let entries: u64 = bench
            .rsplit('_')
            .next()
            .and_then(|tail| tail.strip_suffix("entries"))
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("fold bench name must end in _{{N}}entries: {bench:?}"));
        let median_ns = r.get("median_ns").and_then(Json::as_u64).unwrap();
        let entries_per_s = entries as f64 * 1e9 / median_ns as f64;
        assert!(
            entries_per_s >= 1_000_000.0,
            "{bench}: {entries_per_s:.0} path-report entries/s is below the 1M/s floor"
        );
    }

    let median_of = |recs: &[Json], group: &str, bench: &str| -> u64 {
        recs.iter()
            .find(|r| {
                r.get("group").and_then(Json::as_str) == Some(group)
                    && r.get("bench").and_then(Json::as_str) == Some(bench)
            })
            .unwrap_or_else(|| panic!("missing record {group}/{bench}"))
            .get("median_ns")
            .and_then(Json::as_u64)
            .unwrap()
    };
    // Both arms run 4-window campaigns, so windows/s compare as inverse
    // medians: throughput must stay within 10% of the committed
    // scheduler number.
    let ingest_ns = median_of(&recs, "ingest_throughput/fattree16_windows", "pipelined_4w");
    let sched = records("BENCH_sched.json");
    let sched_ns = median_of(&sched, "scheduler_throughput/fattree16_cpu", "pipelined");
    assert!(
        ingest_ns as f64 <= sched_ns as f64 * 1.1,
        "pipelined window campaign with the diagnoser ({ingest_ns} ns) is more than 10% slower \
         than the committed scheduler baseline ({sched_ns} ns)"
    );
}

/// The diagnosis snapshot carries two perf claims, checked against the
/// *committed* records:
///
/// * on the Fattree(16) multi-failure storm, `IncrementalPll` (the
///   diagnoser's localizer) diagnoses a window ≥1.5× faster than the
///   `localize` oracle (medians of the same alternating two-window
///   workload);
/// * the default configuration keeps end-to-end windows/s —
///   `fattree16_windows/pipelined_default` here vs
///   `fattree16_cpu/pipelined` in `BENCH_sched.json` — within 10% of the
///   committed baseline.
#[test]
fn diag_snapshot_holds_speedup_and_scheduler_guard() {
    let recs = records("BENCH_diag.json");
    check_schema("BENCH_diag.json", &recs);

    let median_of = |recs: &[Json], group: &str, bench: &str| -> u64 {
        recs.iter()
            .find(|r| {
                r.get("group").and_then(Json::as_str) == Some(group)
                    && r.get("bench").and_then(Json::as_str) == Some(bench)
            })
            .unwrap_or_else(|| panic!("missing record {group}/{bench}"))
            .get("median_ns")
            .and_then(Json::as_u64)
            .unwrap()
    };
    let multifail = "diag_parallel/fattree16_multifail";
    let oracle = median_of(&recs, multifail, "localize");
    let incremental = median_of(&recs, multifail, "incremental");
    assert!(
        oracle as f64 >= incremental as f64 * 1.5,
        "incremental diagnosis must hold its 1.5× speedup over the \
         localize oracle: localize {oracle} ns, incremental {incremental} ns"
    );

    // Both campaigns run 4 windows, so windows/s compare as inverse
    // medians against the committed scheduler baseline.
    let diag_ns = median_of(
        &recs,
        "diag_parallel/fattree16_windows",
        "pipelined_default",
    );
    let sched = records("BENCH_sched.json");
    let sched_ns = median_of(&sched, "scheduler_throughput/fattree16_cpu", "pipelined");
    assert!(
        diag_ns as f64 <= sched_ns as f64 * 1.1,
        "diagnosis slowed the pipelined window campaign ({diag_ns} ns) more \
         than 10% past the committed scheduler baseline ({sched_ns} ns)"
    );
}

/// The UDP data-plane snapshot (`BENCH_udp.json`, regenerated with
/// `CRITERION_JSON=$PWD/BENCH_udp.json cargo bench -p detector-bench
/// --bench probe_rtt`) carries the real-packet backend's perf claim,
/// checked against the *committed* records:
///
/// * the per-probe loopback round trip stays under 1 ms (encode →
///   socket → responder thread → echo → match → stamp; anything worse
///   means the recv/match path regressed into busy-wait territory);
/// * a pipelined Fattree(16) 4-window campaign over real sockets keeps
///   windows/s within 2× of the committed simulated-wire baseline
///   (`scheduler_throughput/fattree16_wire/pipelined` in
///   `BENCH_sched.json`) — real packets may cost, but not an order of
///   magnitude.
#[test]
fn udp_snapshot_holds_rtt_and_wire_baseline_guard() {
    let recs = records("BENCH_udp.json");
    check_schema("BENCH_udp.json", &recs);

    let median_of = |recs: &[Json], group: &str, bench: &str| -> u64 {
        recs.iter()
            .find(|r| {
                r.get("group").and_then(Json::as_str) == Some(group)
                    && r.get("bench").and_then(Json::as_str) == Some(bench)
            })
            .unwrap_or_else(|| panic!("missing record {group}/{bench}"))
            .get("median_ns")
            .and_then(Json::as_u64)
            .unwrap()
    };

    let rtt_ns = median_of(&recs, "probe_rtt/loopback", "single_probe");
    assert!(
        rtt_ns < 1_000_000,
        "a loopback probe round trip took {rtt_ns} ns (≥ 1 ms): the \
         echo-match path has regressed"
    );

    // The sequential arm must stay in the snapshot so the
    // pipeline-over-real-wait comparison remains visible.
    let _ = median_of(&recs, "probe_rtt/fattree16_udp", "sequential");
    let udp_ns = median_of(&recs, "probe_rtt/fattree16_udp", "pipelined");
    let sched = records("BENCH_sched.json");
    let wire_ns = median_of(&sched, "scheduler_throughput/fattree16_wire", "pipelined");
    assert!(
        udp_ns as f64 <= wire_ns as f64 * 2.0,
        "pipelined UDP campaign ({udp_ns} ns / 4 windows) is more than 2× \
         slower than the committed simulated-wire baseline ({wire_ns} ns)"
    );
}

/// `BENCH_dispatch.json` carries byte counts, not timings (bytes are
/// machine-independent, so the snapshot is exactly reproducible with
/// `DISPATCH_JSON=$PWD/BENCH_dispatch.json cargo bench -p detector-bench
/// --bench dispatch_bytes`). This check enforces the distributed control
/// plane's wire-cost claim: a Fattree(16) single-link delta must ship
/// ≥10× fewer bytes as per-entry diffs than as whole-list redispatch.
#[test]
fn dispatch_snapshot_shows_per_entry_diffs_ten_times_below_whole_lists() {
    let recs = records("BENCH_dispatch.json");
    let bytes_of = |bench: &str| -> u64 {
        recs.iter()
            .find(|r| r.get("bench").and_then(Json::as_str) == Some(bench))
            .unwrap_or_else(|| panic!("BENCH_dispatch.json: missing bench {bench:?}"))
            .get("bytes")
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("BENCH_dispatch.json: {bench}: missing numeric bytes"))
    };
    let diff = bytes_of("per_entry_diff");
    let whole = bytes_of("whole_list");
    assert!(diff > 0, "a single-link delta must ship something");
    for r in &recs {
        for key in ["group", "bench"] {
            assert!(
                r.get(key).and_then(Json::as_str).is_some(),
                "BENCH_dispatch.json: record missing string field {key}: {r:?}"
            );
        }
    }
    assert!(
        diff * 10 <= whole,
        "per-entry diffs must be ≥10× below whole-list redispatch: \
         diff {diff} B, whole {whole} B"
    );
    // The summary record must agree with the raw byte counts.
    let ratio = recs
        .iter()
        .find(|r| r.get("bench").and_then(Json::as_str) == Some("ratio"))
        .and_then(|r| r.get("ratio_x100"))
        .and_then(Json::as_u64)
        .expect("BENCH_dispatch.json: missing ratio record");
    assert_eq!(ratio, whole * 100 / diff, "stale ratio record");
}
