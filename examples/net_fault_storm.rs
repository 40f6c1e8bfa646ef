//! Adversarial network fault storm against the executable BBW cluster.
//!
//! Two acts:
//!
//! 1. a targeted storm — wheel 3's network interface drops and corrupts
//!    frames for twenty cycles; membership excludes the wheel, the central
//!    unit redistributes brake force, and once the storm quiesces the
//!    wheel is readmitted. Braking never stops.
//! 2. a cluster-wide campaign — every node takes a configurable storm of
//!    corruption, omission, crash/restart, babbling-idiot, masquerade and
//!    clock-glitch faults, optionally with a CPU transient riding along.
//!    The campaign reports the outcome distribution and the *measured*
//!    bus-level coverage parameters (CRC reject rate, guardian block
//!    rate, masquerade reject rate) plus reintegration latency
//!    percentiles.
//!
//! ```text
//! cargo run --release --example net_fault_storm [trials]
//! ```

use nlft::bbw::cluster::{BbwCluster, WHEELS};
use nlft::bbw::run_scenario;
use nlft::net::inject::{NetFaultPlan, NetFaultRates};
use nlft::reliability::scenario::parse_scenario;
use nlft::sim::rng::RngStream;

fn act_one() {
    println!("=== act 1: targeted storm on wheel 3, then quiescence ===");
    let mut cluster = BbwCluster::new();
    let storm = NetFaultPlan::quiet()
        .with_node(
            WHEELS[2],
            NetFaultRates {
                omission: 0.9,
                corruption: 0.5,
                ..NetFaultRates::QUIET
            },
        )
        .with_dynamic(0.1, 0.1);
    cluster.attach_net_faults(storm, RngStream::new(0x5702_0a11).fork("net-injector"));

    let report = cluster.run(20, |_| 1200);
    for r in &report.records {
        let forces: Vec<String> = r
            .wheel_force
            .iter()
            .map(|f| {
                f.map(|v| format!("{v:>4}"))
                    .unwrap_or_else(|| "   -".into())
            })
            .collect();
        println!(
            "cycle {:>2}  forces [{}]  members {}{}",
            r.cycle,
            forces.join(" "),
            r.members,
            if r.degraded { "  DEGRADED" } else { "" },
        );
    }
    println!(
        "storm phase: degraded cycles {}, min members {}, service lost: {}",
        report.degraded_cycles, report.min_members, report.service_lost
    );
    println!(
        "bus saw: {} corruptions (all {} CRC-rejected), {} omission events",
        report.corruptions_applied, report.crc_rejects, report.omissions
    );
    assert!(!report.service_lost && !report.split_membership);

    // The storm passes; the wheel resumes transmitting and is readmitted.
    cluster.set_net_fault_plan(NetFaultPlan::quiet());
    let calm = cluster.run(10, |_| 1200);
    println!(
        "calm phase: reintegration latencies {:?} cycles, degraded cycles {}",
        calm.reintegration_latencies, calm.degraded_cycles
    );
    assert!(!calm.service_lost);
}

fn act_two(trials: u64) {
    println!("\n=== act 2: cluster-wide storm campaign ({trials} trials) ===");
    let spec = parse_scenario(&format!(
        "scenario storm-campaign\nfamily net_storm\ntrials {trials}\nseed 0x57022005\n\
         params\ncycles 30\nintensity 0.3\nnode_faults on\nend\nend\n"
    ))
    .expect("scenario parses");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let result = run_scenario(&spec, threads).expect("scenario runs");
    let c = |name: &str| result.counter(name).expect("net_storm counter");
    let rate = |num: &str, den: &str| c(num) as f64 / c(den).max(1) as f64;

    println!("outcomes:");
    for (verdict, n) in &result.verdicts {
        let pct = 100.0 * *n as f64 / result.trials as f64;
        println!("  {verdict:<17} {n:>6} ({pct:>5.1}%)");
    }
    let injected: Vec<String> = result
        .details
        .iter()
        .map(|(kind, n)| format!("{n} {}", kind.trim_start_matches("injected_")))
        .collect();
    println!("injected: {}", injected.join(", "));
    println!("measured coverage parameters:");
    let crc = rate("crc_rejects", "corruptions_applied");
    let guardian = rate("guardian_blocks", "injected_babbles");
    println!("  CRC reject rate        {crc:.4}");
    println!("  guardian block rate    {guardian:.4}");
    println!(
        "  masquerade reject rate {:.4}",
        rate("masquerade_rejects", "masquerades_applied")
    );
    println!(
        "reintegration latency: p50 {:?} p95 {:?} cycles ({} reintegrations)",
        result.percentile("reintegration_latencies", 50),
        result.percentile("reintegration_latencies", 95),
        c("reintegrations")
    );

    assert!((crc - 1.0).abs() < f64::EPSILON);
    assert!((guardian - 1.0).abs() < f64::EPSILON);
    println!(
        "\nstorms that split the cluster (<= 3 of 6 members): {} of {} trials",
        c("split_membership"),
        result.trials
    );
}

fn main() {
    let trials: u64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    act_one();
    act_two(trials);
}
