//! Self-check of the benchmark: every workload, in both modes, on small
//! inputs. Each run must pass all of its own output checks (for the traced
//! `dag-rmat` run these include the replay reproducing every registry
//! record's `rounds` and `sent`), and its result line must carry exactly
//! the metrics `BENCHMARK.json` names, each with the unit named there.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use perfbench::{run, Args, Sizes, WORKLOADS};
use serde::Value;

fn get<'v>(v: &'v Value, key: &str) -> &'v Value {
    match v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        other => panic!("expected an object around {key}, got {other:?}"),
    }
}

fn keys(v: &Value) -> Vec<String> {
    match v {
        Value::Map(entries) => entries.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn seq(v: &Value) -> &[Value] {
    match v {
        Value::Seq(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn is_number(v: &Value) -> bool {
    matches!(v, Value::U64(_) | Value::I64(_) | Value::F64(_))
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(bench: &Value, list: &str) -> Vec<(String, String)> {
    seq(get(bench, list))
        .iter()
        .map(|m| {
            (
                str_of(get(m, "name")).to_string(),
                str_of(get(m, "unit")).to_string(),
            )
        })
        .collect()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let bench: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = seq(get(&bench, "workloads"))
        .iter()
        .map(|w| str_of(get(w, "name")))
        .collect();
    assert_eq!(
        workloads, WORKLOADS,
        "BENCHMARK.json names the workloads the program runs"
    );

    for workload in WORKLOADS {
        for trace in [false, true] {
            let args = Args {
                workload: workload.to_string(),
                seed: 7,
                seconds: 0.3,
                trace,
            };
            let outcome = run(&args, &Sizes::SMOKE).expect("workload runs");
            assert!(outcome.tally.attempted > 0, "{workload}: nothing checked");
            assert_eq!(
                outcome.tally.failed, 0,
                "{workload} trace={trace}: {:?}",
                outcome.tally.failures
            );
            let line: Value =
                serde_json::from_str(&outcome.result_line()).expect("result line parses");
            assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(get(&line, "correct"), &Value::Bool(true));
            let metrics = get(&line, "metrics");
            let want = declared(&bench, if trace { "per_layer" } else { "end_to_end" });
            let names: Vec<String> = want.iter().map(|(n, _)| n.clone()).collect();
            assert_eq!(
                keys(metrics),
                names,
                "{workload} trace={trace}: metric names"
            );
            for (name, unit) in &want {
                let m = get(metrics, name);
                assert_eq!(str_of(get(m, "unit")), unit, "{workload}: unit of {name}");
                assert!(is_number(get(m, "value")), "{workload}: value of {name}");
            }
        }
    }
}

#[test]
fn traced_dag_replay_is_checked_against_every_registry_record() {
    let args = Args {
        workload: "dag-rmat".into(),
        seed: 11,
        seconds: 0.0,
        trace: true,
    };
    let sizes = Sizes::SMOKE;
    let outcome = run(&args, &sizes).expect("traced dag-rmat runs");
    // per cell: the registry records, then one replay compared to each
    let per_cell = 2 * perfbench::dag::ALGOS.len() as u64;
    assert_eq!(
        outcome.tally.attempted,
        per_cell * sizes.dag_traced_cells as u64
    );
    assert_eq!(outcome.tally.failed, 0, "{:?}", outcome.tally.failures);
}
