//! Self-tests of the benchmark: its metric names agree with
//! `BENCHMARK.json`, its digest oracle fails on a wrong digest, and a
//! non-default seed moves the scaled campaigns but not the zoo pins.

use std::path::Path;

use nlft_perfbench::trace::Tracer;
use nlft_perfbench::{
    check_expected, check_repeat, collect, run, Args, Checks, MetricDef, Prepared, Rep, Workload,
    DEFAULT_SEED, END_TO_END, EXPECTED_DIGESTS, PER_LAYER, WORKERS,
};
use nlft_testkit::json::Json;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn defined(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
        .collect()
}

fn metric_names(result: &Json) -> Vec<String> {
    match result.get("metrics") {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

#[test]
fn metric_definitions_match_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), defined(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), defined(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn collect_refuses_missing_and_unknown_metrics() {
    let all: Vec<(&str, f64)> = END_TO_END.iter().map(|d| (d.name, 1.0)).collect();
    assert!(collect(&END_TO_END, &all).is_ok());
    assert!(collect(&END_TO_END, &all[1..]).is_err());
    let mut extra = all.clone();
    extra.push(("bogus", 1.0));
    assert!(collect(&END_TO_END, &extra).is_err());
}

#[test]
fn printed_metrics_match_benchmark_json_in_both_modes() {
    let doc = benchmark_json();
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let args = Args {
            workload: Workload::NodeZoo,
            seed: DEFAULT_SEED,
            seconds: 0.5,
            trace,
        };
        let report = run(&args).expect("benchmark runs");
        assert!(
            report.checks.messages.is_empty(),
            "{:?}",
            report.checks.messages
        );
        let result = report.result_json();
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        let printed = metric_names(&result);
        let names: Vec<String> = declared(&doc, key).into_iter().map(|(n, _, _)| n).collect();
        assert_eq!(printed, names, "trace={trace}");
        assert_eq!(trace, !report.tracer.spans().is_empty());
    }
}

#[test]
fn wrong_expected_digest_is_a_failure() {
    let mut tracer = Tracer::new(false);
    let prepared = Prepared::setup(Workload::NodeZoo, DEFAULT_SEED, &mut tracer).expect("setup");
    let mut checks = Checks::default();
    let rep = prepared.rep(WORKERS, &mut checks, &mut tracer);
    assert_eq!(checks.failed, 0, "{:?}", checks.messages);

    let mut right = Checks::default();
    check_expected(Workload::NodeZoo, &rep, EXPECTED_DIGESTS, &mut right);
    assert_eq!(
        (right.attempted, right.failed),
        (5, 0),
        "{:?}",
        right.messages
    );

    // Flip one bit of one recorded digest.
    let (campaign, digest) = &rep.digests[0];
    let recorded = format!("node-zoo {campaign} 0x{digest:08x}");
    assert!(EXPECTED_DIGESTS.contains(&recorded));
    let wrong = EXPECTED_DIGESTS.replace(
        &recorded,
        &format!("node-zoo {campaign} 0x{:08x}", digest ^ 1),
    );
    let mut flagged = Checks::default();
    check_expected(Workload::NodeZoo, &rep, &wrong, &mut flagged);
    assert_eq!(flagged.failed, 1, "{:?}", flagged.messages);

    let mut unrecorded = Checks::default();
    check_expected(Workload::NodeZoo, &rep, "", &mut unrecorded);
    assert_eq!(unrecorded.failed, 5);
}

#[test]
fn differing_passes_are_a_failure() {
    let first = Rep {
        digests: vec![("a".to_string(), 1)],
        ..Rep::default()
    };
    let second = Rep {
        digests: vec![("a".to_string(), 2)],
        ..Rep::default()
    };
    let mut checks = Checks::default();
    check_repeat(&first, &first, &mut checks);
    check_repeat(&first, &second, &mut checks);
    assert_eq!((checks.attempted, checks.failed), (2, 1));
}

#[test]
fn other_seed_moves_scaled_digests_but_keeps_zoo_pins() {
    let mut tracer = Tracer::new(false);
    let mut reps = Vec::new();
    for seed in [DEFAULT_SEED, 7] {
        let prepared = Prepared::setup(Workload::NodeZoo, seed, &mut tracer).expect("setup");
        let mut checks = Checks::default();
        prepared.check_before(&mut checks, &mut tracer);
        assert_eq!(checks.failed, 0, "seed {seed}: {:?}", checks.messages);
        reps.push(prepared.rep(WORKERS, &mut checks, &mut tracer));
        assert_eq!(checks.failed, 0, "seed {seed}: {:?}", checks.messages);
    }
    for ((name, a), (other, b)) in reps[0].digests.iter().zip(&reps[1].digests) {
        assert_eq!(name, other);
        assert_ne!(a, b, "{name}: seed 7 reproduced the default-seed digest");
    }

    let prepared = Prepared::setup(Workload::ClusterZoo, 7, &mut tracer).expect("setup");
    let mut checks = Checks::default();
    prepared.check_before(&mut checks, &mut tracer);
    assert_eq!(checks.failed, 0, "{:?}", checks.messages);
}
