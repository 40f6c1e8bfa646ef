//! Value-domain storm campaign against the executable BBW cluster,
//! benchmarked single- and multi-threaded; full mode also runs larger
//! single-fault and combined-storm campaigns and writes
//! `VALUE_DOMAIN.json` (outcome fractions, measured detection coverage,
//! braking-safety metrics, command-path counters) under
//! `<target>/testkit/`.

use nlft_bbw::scenario::{run_scenario, ScenarioOutcome};
use nlft_reliability::scenario::parse_scenario;
use nlft_testkit::bench::{artifact_path, Bench};
use nlft_testkit::json::Json;
use std::hint::black_box;

fn campaign(trials: u64, threads: usize, seed: u64, params: &str) -> ScenarioOutcome {
    let spec = parse_scenario(&format!(
        "scenario value-domain-bench\nfamily value_domain\ntrials {trials}\nseed {seed}\n\
         params\n{params}\nend\nend\n"
    ))
    .expect("bench scenario parses");
    run_scenario(&spec, threads).expect("bench scenario runs")
}

fn single_fault(trials: u64, threads: usize) -> ScenarioOutcome {
    campaign(trials, threads, 0x5EA1_2005, "mode single_fault")
}

fn combined_storm(trials: u64, threads: usize) -> ScenarioOutcome {
    campaign(
        trials,
        threads,
        0x5EA1_2006,
        "mode combined_storm\nnet_intensity 0.2",
    )
}

fn report(result: &ScenarioOutcome) -> Json {
    let c = |name: &str| result.counter(name).expect("value_domain counter");
    let frac = |name: &str| Json::Num(c(name) as f64 / result.trials as f64);
    let uint = |name: &str| Json::UInt(c(name));
    Json::obj([
        ("trials", Json::UInt(result.trials)),
        ("masked", frac("masked")),
        ("detected", frac("detected")),
        ("service_lost", frac("service_lost")),
        ("undetected", frac("undetected")),
        (
            "detection_coverage",
            Json::Num(1.0 - c("undetected") as f64 / result.trials as f64),
        ),
        (
            "worst_total_force_deficit",
            uint("worst_total_force_deficit"),
        ),
        (
            "worst_left_right_imbalance",
            uint("worst_left_right_imbalance"),
        ),
        ("seal_rejects", uint("seal_rejects")),
        ("stale_rejects", uint("stale_rejects")),
        ("held_setpoint_cycles", uint("held_setpoint_cycles")),
        ("sensor_demotions", uint("sensor_demotions")),
        ("actuator_trips", uint("actuator_trips")),
        (
            "undetected_value_failures",
            uint("undetected_value_failures"),
        ),
    ])
}

fn main() {
    let mut b = Bench::new("value_domain");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    b.bench("single_fault_20_trials_1_thread", || {
        black_box(single_fault(black_box(20), 1))
    });
    b.bench("combined_storm_20_trials_1_thread", || {
        black_box(combined_storm(black_box(20), 1))
    });
    b.bench("combined_storm_20_trials_parallel", || {
        black_box(combined_storm(black_box(20), threads))
    });

    if b.is_full() {
        let coverage = single_fault(200, threads);
        let storm = combined_storm(200, threads);
        let json = Json::obj([
            ("single_fault", report(&coverage)),
            ("combined_storm", report(&storm)),
        ]);
        let path = artifact_path("VALUE_DOMAIN.json");
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&path, json.to_string()) {
            Ok(()) => println!("value-domain report written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    b.finish();
}
