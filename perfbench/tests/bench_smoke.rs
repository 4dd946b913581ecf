//! Keeps the instrument alive under `cargo test`: every workload and its
//! trace at about 1 % size, checked against `BENCHMARK.json`.

use qld_perfbench::harness::json::Json;
use qld_perfbench::harness::workloads::WORKLOADS;
use qld_perfbench::harness::END_TO_END;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

/// `name → unit` of one of `BENCHMARK.json`'s metric lists.
fn declared(benchmark: &Json, list: &str) -> BTreeMap<String, String> {
    benchmark
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists `{list}`"))
        .iter()
        .map(|m| {
            let text = |key: &str| m.get(key).and_then(Json::as_str).expect(key).to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

/// Runs `qld_bench run --smoke` and returns the parsed result line.
fn smoke(workload: &str, trace: u8, scratch: &PathBuf) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_qld_bench"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
        ])
        .args(["--trace", &trace.to_string(), "--smoke", "--scratch"])
        .arg(scratch)
        .output()
        .expect("qld_bench starts");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload}: result line `{last}`: {e}"))
}

fn check_result(result: &Json, expect: &BTreeMap<String, String>, what: &str) {
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
    assert_eq!(result.get("failed"), Some(&Json::Num(0.0)), "{what}");
    let attempted = result.get("attempted").and_then(Json::as_f64).expect(what);
    assert!(attempted >= 1.0 && attempted.fract() == 0.0, "{what}");
    let metrics = result.get("metrics").and_then(Json::as_obj).expect(what);
    let mut seen = BTreeMap::new();
    for (name, metric) in metrics {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{what}: metric name `{name}`"
        );
        let value = metric.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: `{name}` = {value:?}"
        );
        let unit = metric.get("unit").and_then(Json::as_str).expect(name);
        seen.insert(name.clone(), unit.to_string());
    }
    assert_eq!(&seen, expect, "{what}: metrics ≠ BENCHMARK.json");
}

#[test]
fn every_workload_and_its_trace_match_benchmark_json() {
    let benchmark = benchmark();
    let workloads: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let end_to_end = declared(&benchmark, "end_to_end");
    let per_layer = declared(&benchmark, "per_layer");
    let in_code: BTreeMap<String, String> = END_TO_END
        .iter()
        .map(|(name, unit)| (name.to_string(), unit.to_string()))
        .collect();
    assert_eq!(end_to_end, in_code);

    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bench_smoke");
    for workload in WORKLOADS {
        let run = smoke(workload, 0, &scratch);
        check_result(&run, &end_to_end, &format!("{workload} run"));
        let trace = smoke(workload, 1, &scratch);
        check_result(&trace, &per_layer, &format!("{workload} trace"));
        let span_file = scratch
            .parent()
            .expect("scratch has a parent")
            .join(format!("trace-{workload}.json"));
        let spans = Json::parse(&std::fs::read_to_string(&span_file).expect("span file"))
            .expect("span file parses");
        let rows = spans.get("spans").and_then(Json::as_arr).expect("spans");
        assert!(!rows.is_empty(), "{workload}: no spans recorded");
    }
}

#[test]
fn an_unknown_workload_exits_non_zero_without_a_result() {
    let status = Command::new(env!("CARGO_BIN_EXE_qld_bench"))
        .args([
            "run",
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--smoke",
        ])
        .output()
        .expect("qld_bench starts");
    assert!(!status.status.success());
    assert!(status.stdout.is_empty(), "no result line without a result");
}
