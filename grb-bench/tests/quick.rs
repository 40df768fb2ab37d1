//! Smoke test of the whole harness: `grb-bench all --quick` runs every
//! workload, every check and every layer probe at scales <= 10, so API drift
//! in any crate the benchmark touches breaks this test and not the next
//! benchmark run. Also holds the program to its own contract: what it prints
//! is exactly what `BENCHMARK.json` declares.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use json::Json;

const EXE: &str = env!("CARGO_BIN_EXE_grb-bench");

fn spec_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn read(path: &Path) -> Json {
    Json::parse(&std::fs::read_to_string(path).expect("readable")).expect("valid JSON")
}

fn names(list: &Json) -> BTreeSet<(String, String)> {
    list.as_arr()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn reported(metrics: &Json) -> BTreeSet<(String, String)> {
    metrics
        .fields()
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has no numeric value"
            );
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn quick_run_passes_every_check_and_reports_the_declared_metrics() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick-all");
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new(EXE)
        .args(["all", "--quick", "--seed", "7", "--out"])
        .arg(&out)
        .output()
        .expect("spawn grb-bench");
    assert!(
        run.status.success(),
        "grb-bench all --quick failed:\n{}\n{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );

    let spec = read(&spec_path());
    let result = read(&out.join("result.json"));
    let end_to_end = names(spec.get("end_to_end").expect("end_to_end"));
    let per_layer = names(spec.get("per_layer").expect("per_layer"));
    let workloads = result.get("workloads").expect("workloads");
    let declared: Vec<&str> = spec
        .get("workloads")
        .expect("workloads")
        .as_arr()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let ran: Vec<&str> = workloads.fields().iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(ran, declared, "workloads differ from BENCHMARK.json");

    for (name, w) in workloads.fields() {
        assert_eq!(
            w.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{name} failed checks"
        );
        assert_eq!(
            reported(w.get("end_to_end").expect("end_to_end")),
            end_to_end,
            "{name}: end-to-end metrics differ from BENCHMARK.json"
        );
        assert_eq!(
            reported(w.get("per_layer").expect("per_layer")),
            per_layer,
            "{name}: per-layer metrics differ from BENCHMARK.json"
        );
        for (metric, m) in w.get("end_to_end").expect("end_to_end").fields() {
            let v = m.get("value").and_then(Json::as_f64).expect("value");
            assert!(v > 0.0, "{name}.{metric} must never be 0, got {v}");
        }
    }
    let trace = read(&out.join("trace.json"));
    assert!(!trace
        .get("traceEvents")
        .expect("events")
        .as_arr()
        .is_empty());

    // a result never regresses against itself
    let result_path = out.join("result.json");
    let compare = Command::new(EXE)
        .arg("compare")
        .args([&result_path, &result_path])
        .arg("--spec")
        .arg(spec_path())
        .output()
        .expect("spawn grb-bench compare");
    let table = String::from_utf8_lossy(&compare.stdout);
    assert!(compare.status.success(), "{table}");
    assert!(
        !table.contains("regressed") && !table.contains("missing"),
        "{table}"
    );
    assert_eq!(
        table.lines().filter(|l| l.ends_with("unchanged")).count(),
        declared.len() * (end_to_end.len() + 1),
        "{table}"
    );
}

#[test]
fn the_last_line_is_the_result_object() {
    let run = Command::new(EXE)
        .args(["--workload", "traverse", "--seed", "3", "--seconds", "0.2"])
        .args(["--trace", "0", "--quick"])
        .output()
        .expect("spawn grb-bench");
    assert!(run.status.success());
    let stdout = String::from_utf8_lossy(&run.stdout);
    let last = Json::parse(stdout.lines().last().expect("output")).expect("JSON last line");
    let keys: Vec<&str> = last.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
    assert!(
        last.get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    assert_eq!(
        reported(last.get("metrics").expect("metrics")),
        names(read(&spec_path()).get("end_to_end").expect("end_to_end"))
    );
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        vec!["--workload", "nope", "--seed", "1"],
        vec!["frobnicate"],
        vec!["--workload"],
    ] {
        let run = Command::new(EXE).args(&args).output().expect("spawn");
        assert!(!run.status.success(), "{args:?} should be refused");
        assert!(run.stdout.is_empty(), "{args:?} printed a result");
    }
}
