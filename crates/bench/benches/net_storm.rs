//! Network fault-storm campaign against the executable BBW cluster,
//! benchmarked single- and multi-threaded; full mode also runs a larger
//! campaign and writes `NET_STORM.json` (outcome fractions, measured
//! coverage parameters, reintegration latency percentiles) under
//! `<target>/testkit/`.

use nlft_bbw::scenario::{run_scenario, ScenarioOutcome};
use nlft_reliability::scenario::parse_scenario;
use nlft_testkit::bench::{artifact_path, Bench};
use nlft_testkit::json::Json;
use std::hint::black_box;

fn campaign(trials: u64, threads: usize) -> ScenarioOutcome {
    let spec = parse_scenario(&format!(
        "scenario net-storm-bench\nfamily net_storm\ntrials {trials}\nseed 0x57022005\nend\n"
    ))
    .expect("bench scenario parses");
    run_scenario(&spec, threads).expect("bench scenario runs")
}

fn report(result: &ScenarioOutcome) -> Json {
    let c = |name: &str| result.counter(name).expect("net_storm counter");
    let frac = |name: &str| Json::Num(c(name) as f64 / result.trials as f64);
    let rate = |num: &str, den: &str| Json::Num(c(num) as f64 / c(den).max(1) as f64);
    let latency = |pct: u32| {
        result
            .percentile("reintegration_latencies", pct)
            .map_or(Json::Null, |v| Json::UInt(u64::from(v)))
    };
    Json::obj([
        ("trials", Json::UInt(result.trials)),
        ("unaffected", frac("unaffected")),
        ("omission_only", frac("omission_only")),
        ("degraded_episode", frac("degraded_episode")),
        ("service_lost", frac("service_lost")),
        ("split_membership", frac("split_membership")),
        ("injected_faults", Json::UInt(c("injected"))),
        (
            "crc_reject_rate",
            rate("crc_rejects", "corruptions_applied"),
        ),
        (
            "guardian_block_rate",
            rate("guardian_blocks", "injected_babbles"),
        ),
        (
            "masquerade_reject_rate",
            rate("masquerade_rejects", "masquerades_applied"),
        ),
        ("reintegration_p50_cycles", latency(50)),
        ("reintegration_p95_cycles", latency(95)),
    ])
}

fn main() {
    let mut b = Bench::new("net_storm");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    b.bench("campaign_20_trials_1_thread", || {
        black_box(campaign(black_box(20), 1))
    });
    b.bench("campaign_20_trials_parallel", || {
        black_box(campaign(black_box(20), threads))
    });

    if b.is_full() {
        let result = campaign(200, threads);
        let path = artifact_path("NET_STORM.json");
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&path, report(&result).to_string()) {
            Ok(()) => println!("storm report written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    b.finish();
}
