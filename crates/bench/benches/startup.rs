//! Blackout-survival campaign against the executable BBW cluster with
//! the TTP/C-style startup protocol enabled, benchmarked single- and
//! multi-threaded; full mode also runs a larger campaign and writes
//! `STARTUP.json` (recovery fraction, cold-start and membership
//! latencies, big-bang/clique-revert counts) under `<target>/testkit/`.

use nlft_bbw::scenario::{run_scenario, ScenarioOutcome};
use nlft_reliability::scenario::parse_scenario;
use nlft_testkit::bench::{artifact_path, Bench};
use nlft_testkit::json::Json;
use std::hint::black_box;

fn campaign(trials: u64, threads: usize) -> ScenarioOutcome {
    let spec = parse_scenario(&format!(
        "scenario startup-bench\nfamily blackout\ntrials {trials}\nseed 0xB1AC2005\nend\n"
    ))
    .expect("bench scenario parses");
    run_scenario(&spec, threads).expect("bench scenario runs")
}

fn report(result: &ScenarioOutcome) -> Json {
    let c = |name: &str| result.counter(name).expect("blackout counter");
    let membership = |pct: u32| {
        result
            .percentile("time_to_full_membership", pct)
            .map_or(Json::Null, |v| Json::UInt(u64::from(v)))
    };
    let trials = result.trials as f64;
    Json::obj([
        ("trials", Json::UInt(result.trials)),
        (
            "recovery_fraction",
            Json::Num(c("full_recoveries") as f64 / trials),
        ),
        (
            "cold_start_fraction",
            Json::Num(c("cold_start_trials") as f64 / trials),
        ),
        ("big_bangs", Json::UInt(c("big_bangs"))),
        ("clique_reverts", Json::UInt(c("clique_reverts"))),
        ("guardian_blocks", Json::UInt(c("guardian_blocks"))),
        (
            "held_setpoint_cycles",
            Json::UInt(c("held_setpoint_cycles")),
        ),
        ("membership_p50_cycles", membership(50)),
        ("membership_p95_cycles", membership(95)),
        (
            "integration_latency_mean_cycles",
            Json::Num(result.mean("integration_latencies").unwrap_or(0.0)),
        ),
    ])
}

fn main() {
    let mut b = Bench::new("startup");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    b.bench("blackout_20_trials_1_thread", || {
        black_box(campaign(black_box(20), 1))
    });
    b.bench("blackout_20_trials_parallel", || {
        black_box(campaign(black_box(20), threads))
    });

    if b.is_full() {
        let result = campaign(200, threads);
        let path = artifact_path("STARTUP.json");
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&path, report(&result).to_string()) {
            Ok(()) => println!("startup report written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    b.finish();
}
