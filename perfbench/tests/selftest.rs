//! Toy-scale self-test of the benchmark command: every workload runs a
//! few Fattree(4) windows, traced and untraced, and must print each
//! metric `BENCHMARK.json` declares, with its unit, in a final JSON
//! line that parses.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

use detector::core::json::Json;

fn contract() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// (name, unit) of every metric in the contract's `section`.
fn declared(contract: &Json, section: &str) -> Vec<(String, String)> {
    contract
        .get(section)
        .and_then(Json::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> (Json, String) {
    let spans = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-spans");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--radix", "4"])
        .arg("--spans-dir")
        .arg(&spans)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) exited {:?}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output").to_string();
    (Json::parse(&last).expect("last line is JSON"), stdout)
}

fn check(workload: &str, trace: bool) {
    let section = if trace { "per_layer" } else { "end_to_end" };
    let want = declared(&contract(), section);
    let (record, stdout) = run(workload, trace);
    let Json::Object(fields) = &record else {
        panic!("record is not an object: {record}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(record.get("correct").and_then(Json::as_bool), Some(true));
    assert!(record.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(record.get("failed").and_then(Json::as_u64), Some(0));
    let Some(Json::Object(metrics)) = record.get("metrics") else {
        panic!("no metrics object");
    };
    assert_eq!(metrics.len(), want.len(), "{workload}: metric count");
    for (name, unit) in &want {
        let m = record
            .get("metrics")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} = {m}"
        );
        if !trace {
            assert!(value.unwrap() > 0.0, "{workload}: {name} must not be 0");
        }
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(name.as_str()) && l.contains(unit.as_str())),
            "{workload}: {name} not printed with its unit"
        );
    }
    let context = stdout
        .lines()
        .find(|l| l.starts_with("{\"context\""))
        .expect("context line");
    let context = Json::parse(context).expect("context parses");
    for key in ["cores", "seed", "windows", "driver", "samples"] {
        assert!(
            context.get("context").and_then(|c| c.get(key)).is_some(),
            "context lacks {key}"
        );
    }
}

#[test]
fn steady_prints_every_metric() {
    check("steady", false);
    check("steady", true);
}

#[test]
fn churn_prints_every_metric() {
    check("churn", false);
    check("churn", true);
}

#[test]
fn wire_prints_every_metric() {
    check("wire", false);
    check("wire", true);
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
