//! `perfbench`: one monitoring-campaign benchmark over the `detector`
//! public API, with three workloads (`steady`, `churn`, `wire`).
//!
//! ```text
//! perfbench --workload <steady|churn|wire> --seed <n> --seconds <s> --trace <0|1>
//!           [--radix <k>] [--spans-dir <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! split (and writes the run's spans to `--spans-dir`). Either way the
//! last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`,
//! preceded by a `{"context": ...}` line with the run's settings and the
//! sample count behind every metric. The process exits 1 when an output
//! check fails. See README.md for the workloads and metric definitions.

mod churn;
mod common;
mod layers;
mod meter;
mod stats;
mod steady;
mod tap;
mod wire;

use std::process::ExitCode;

use detector::core::json::Json;

use common::{cores, Opts, Report, END_TO_END, PER_LAYER};

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        radix: 16,
        spans_dir: ".perfbench".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => opts.trace = value != "0",
            "--radix" => opts.radix = value.parse().map_err(|e| bad(&e))?,
            "--spans-dir" => opts.spans_dir = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let host_before = common::host_cpu_jiffies();
    let outcome = match opts.workload.as_str() {
        "steady" => steady::run(&opts, &mut report),
        "churn" => churn::run(&opts, &mut report),
        "wire" => wire::run(&opts, &mut report),
        other => Err(format!("unknown workload {other:?} (steady, churn, wire)")),
    };
    let metrics = outcome.and_then(|()| {
        if opts.trace {
            report.metrics(PER_LAYER, true)
        } else {
            report.metrics(END_TO_END, false)
        }
    });
    let metrics = metrics.and_then(|m| match m.iter().find(|m| !m.value.is_finite()) {
        Some(bad) => Err(format!("{} is not a finite number", bad.name)),
        None => Ok(m),
    });
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload);
            return ExitCode::from(1);
        }
    };

    for m in &metrics {
        println!(
            "{:<28} {:>16.4} {:<12} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for line in &report.mismatches {
        eprintln!("perfbench: check failed: {line}");
    }

    let mut context = vec![
        ("workload", Json::Str(opts.workload.clone())),
        ("seed", Json::uint(opts.seed)),
        ("trace", Json::Bool(opts.trace)),
        ("cores", Json::uint(cores() as u64)),
        ("topology", Json::Str(format!("Fattree({})", opts.radix))),
        ("seconds", Json::Float(opts.seconds)),
        ("setups", Json::uint(common::SETUPS as u64)),
        (
            "host_steal_ratio",
            Json::Float(common::steal_ratio(host_before, common::host_cpu_jiffies())),
        ),
    ];
    context.extend(
        report
            .context
            .iter()
            .map(|(k, v)| (*k, Json::Str(v.clone()))),
    );
    let samples = metrics
        .iter()
        .map(|m| (m.name, Json::uint(m.samples)))
        .collect();
    context.push(("samples", Json::obj(samples)));
    println!("{}", Json::obj(vec![("context", Json::obj(context))]));

    let correct = report.mismatches.is_empty();
    let values = metrics
        .iter()
        .map(|m| {
            (
                m.name,
                Json::obj(vec![
                    ("value", Json::Float(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    let record = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::uint(report.attempted.max(1))),
        ("failed", Json::uint(report.failed)),
        ("metrics", Json::obj(values)),
    ]);
    println!("{record}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
