//! Distributed fault injection over the executable cluster: the
//! `net_storm` scenario family.
//!
//! The node-level campaigns of `nlft-core` classify outcomes at the node
//! boundary; this family closes the loop at the *system* boundary: every
//! node takes a network storm (corruption, omission, crash, babbling
//! idiot, masquerade, clock glitch), optionally with a machine-level
//! transient in a random node riding along, and each trial is judged by
//! what the vehicle sees — nothing, an omission, a degraded-mode
//! episode, lost braking or a split membership. Its metrics are the
//! *measured* bus-level coverage parameters (CRC rejects per applied
//! corruption, guardian blocks per babble, identity rejects per applied
//! masquerade) that the analytic models otherwise take as inputs.
//!
//! Runs go through [`crate::scenario::run_scenario`]; this module holds
//! the compiled configuration and the per-trial function.

use nlft_machine::fault::FaultSpace;
use nlft_net::inject::{NetFaultPlan, NetFaultRates};
use nlft_sim::rng::RngStream;

use crate::cluster::{BbwCluster, ClusterInjection, ClusterReport, ALL_NODES};
use crate::tally::{Fold, Shape, Tally};

/// Configuration of a combined node + network storm campaign.
#[derive(Debug, Clone)]
pub struct NetStormCampaignConfig {
    /// Number of independent cluster runs.
    pub trials: u64,
    /// Master seed.
    pub seed: u64,
    /// Communication cycles per run.
    pub cycles: u32,
    /// Storm intensity in `[0, 1]`, scaling [`NetFaultRates::storm`] on
    /// every node.
    pub intensity: f64,
    /// Additionally inject one machine-level transient per trial (the
    /// node-level half of the combined campaign).
    pub with_node_faults: bool,
}

impl NetStormCampaignConfig {
    /// A moderate storm over the full six-node cluster.
    pub fn new(trials: u64, seed: u64) -> Self {
        NetStormCampaignConfig {
            trials,
            seed,
            cycles: 30,
            intensity: 0.3,
            with_node_faults: true,
        }
    }

    /// The network fault plan every trial attaches:
    /// [`NetFaultRates::storm`] at this intensity on all six nodes, plus
    /// dynamic-segment duplication and reordering at a tenth of it.
    pub fn plan(&self) -> NetFaultPlan {
        NetFaultPlan::quiet()
            .with_nodes(&ALL_NODES, NetFaultRates::storm(self.intensity))
            .with_dynamic(0.10 * self.intensity, 0.10 * self.intensity)
    }

    /// Runs trial `trial` into `t`.
    pub(crate) fn run_trial(&self, trial: u64, t: &mut Tally) {
        let mut rng = RngStream::new(self.seed).fork_indexed(NET_STORM.rng_label, trial);
        let mut cluster = BbwCluster::new();
        cluster.attach_net_faults(self.plan(), rng.fork("net-injector"));
        if self.with_node_faults {
            let node = ALL_NODES[rng.uniform_range(0, ALL_NODES.len() as u64) as usize];
            let cycle = rng.uniform_range(1, u64::from(self.cycles) - 1) as u32;
            cluster.inject(ClusterInjection {
                cycle,
                node,
                copy: rng.uniform_range(0, 2) as u32,
                at_cycle: rng.uniform_range(1, 40),
                fault: FaultSpace::cpu_only().sample(&mut rng),
            });
        }
        let report = cluster.run(self.cycles, |_| 1200);
        let n = cluster.net_injection_counts();
        let latencies = &report.reintegration_latencies;
        t.trial(
            system_verdict(&report),
            &[
                ("injected", n.total()),
                ("crc_rejects", report.crc_rejects),
                ("corruptions_applied", report.corruptions_applied),
                ("guardian_blocks", report.guardian_blocks),
                ("masquerade_rejects", report.masquerade_rejects),
                ("masquerades_applied", report.masquerades_applied),
                ("reintegrations", latencies.len() as u64),
                (
                    "reintegration_cycles",
                    latencies.iter().map(|&l| u64::from(l)).sum(),
                ),
            ],
            &[
                n.corruptions,
                n.omissions,
                n.crashes,
                n.babbles,
                n.masquerades,
                n.clock_glitches,
                n.duplicates,
                n.reorders,
            ],
        );
        for &latency in latencies {
            t.observe(0, latency);
        }
    }
}

/// The system-boundary verdict of a cluster run, most severe first:
/// `split_membership` (≤ 3 of 6 in the view) beats `service_lost` (no
/// CU member or < 3 wheels serving) beats `degraded_episode`
/// (membership shrank, force redistributed) beats `omission_only`
/// (slots lost, membership whole) beats `unaffected`.
pub(crate) fn system_verdict(report: &ClusterReport) -> &'static str {
    if report.split_membership {
        "split_membership"
    } else if report.service_lost {
        "service_lost"
    } else if report.degraded_cycles > 0 {
        "degraded_episode"
    } else if report.omissions > 0 {
        "omission_only"
    } else {
        "unaffected"
    }
}

/// The `net_storm` family's outcome shape.
pub(crate) const NET_STORM: Shape = Shape {
    family: "net_storm",
    campaign: "bbw-net-storm",
    rng_label: "net-storm-trial",
    verdicts: &[
        "split_membership",
        "service_lost",
        "degraded_episode",
        "omission_only",
        "unaffected",
    ],
    metrics: &[
        ("injected", Fold::Sum),
        ("crc_rejects", Fold::Sum),
        ("corruptions_applied", Fold::Sum),
        ("guardian_blocks", Fold::Sum),
        ("masquerade_rejects", Fold::Sum),
        ("masquerades_applied", Fold::Sum),
        ("reintegrations", Fold::Sum),
        ("reintegration_cycles", Fold::Sum),
    ],
    details: &[
        "injected_corruptions",
        "injected_omissions",
        "injected_crashes",
        "injected_babbles",
        "injected_masquerades",
        "injected_clock_glitches",
        "injected_duplicates",
        "injected_reorders",
    ],
    distributions: &["reintegration_latencies"],
};

#[cfg(test)]
mod tests {
    use crate::scenario::{run_params, ScenarioOutcome};

    fn storm(trials: u64, seed: u64, params: &str) -> ScenarioOutcome {
        run_params("net_storm", trials, seed, params, 1)
    }

    /// One machine-level transient per run and no network faults: the
    /// paper's distributed fault-injection experiment.
    const TRANSIENTS_ONLY: &str = "cycles 10\nintensity 0\nnode_faults on";

    fn ratio(num: u64, den: u64) -> f64 {
        num as f64 / den as f64
    }

    #[test]
    fn campaign_is_deterministic() {
        assert_eq!(
            storm(40, 0xC1A5, TRANSIENTS_ONLY),
            storm(40, 0xC1A5, TRANSIENTS_ONLY)
        );
    }

    #[test]
    fn single_transients_never_lose_braking() {
        let r = storm(150, 0xC1A5, TRANSIENTS_ONLY);
        let c = |name| r.counter(name).unwrap();
        assert_eq!(
            c("service_lost"),
            0,
            "a single CPU transient must never take the brakes out"
        );
        assert_eq!(
            r.trials,
            c("unaffected") + c("omission_only") + c("degraded_episode") + c("service_lost")
        );
    }

    #[test]
    fn vast_majority_of_faults_are_invisible() {
        let r = storm(150, 0x600D, TRANSIENTS_ONLY);
        assert!(
            ratio(r.counter("unaffected").unwrap(), r.trials) > 0.9,
            "TEM should hide almost everything at the vehicle boundary: {r:?}"
        );
    }

    #[test]
    fn storm_campaign_identical_across_thread_counts() {
        // `net-storm-nominal`'s configuration.
        let params = "cycles 20\nintensity 0.3\nnode_faults on";
        let one = run_params("net_storm", 10, 0x5708, params, 1);
        let two = run_params("net_storm", 10, 0x5708, params, 2);
        let five = run_params("net_storm", 10, 0x5708, params, 5);
        assert_eq!(one, two, "2 threads diverged from 1");
        assert_eq!(one, five, "5 threads diverged from 1");
        // Golden pin: any change to the RNG fork labels, the injector's
        // draw order or the cluster's cycle structure shows up here.
        // (Re-pinned in 0.2.0: CU set-points are now 6-word sealed fresh
        // commands and wheels hold-last-safe through short CU outages,
        // which moves corruption byte draws and outcome verdicts.)
        let c = |name| one.counter(name).unwrap();
        assert_eq!(
            (
                one.trials,
                c("split_membership"),
                c("service_lost"),
                c("degraded_episode"),
                c("omission_only"),
                c("unaffected")
            ),
            (10, 1, 5, 4, 0, 0),
            "golden outcome distribution moved: {one:?}"
        );
        assert_eq!(c("injected"), 239, "golden injection count moved: {one:?}");
        assert_eq!((c("crc_rejects"), c("guardian_blocks")), (92, 37));
    }

    #[test]
    fn storm_measures_bus_coverage_parameters() {
        let r = storm(20, 0xC0FE, "cycles 30\nnode_faults off");
        let c = |name| r.counter(name).unwrap();
        assert!(c("corruptions_applied") > 50, "storm too weak: {r:?}");
        assert!(c("injected_babbles") > 20, "storm too weak: {r:?}");
        assert!(c("masquerades_applied") > 10, "storm too weak: {r:?}");
        // 1–2-bit wire corruptions are within CRC-32's guaranteed detection
        // class, and the guardian blocks every foreign-slot attempt.
        assert_eq!(
            ratio(c("crc_rejects"), c("corruptions_applied")),
            1.0,
            "{r:?}"
        );
        assert_eq!(
            ratio(c("guardian_blocks"), c("injected_babbles")),
            1.0,
            "{r:?}"
        );
        // A masqueraded frame occasionally *also* gets corrupted on the
        // wire and is then charged to the CRC instead, so the identity
        // check's measured rate sits just below 1.
        assert!(
            ratio(c("masquerade_rejects"), c("masquerades_applied")) > 0.8,
            "{r:?}"
        );
        // Under a storm nodes get excluded and come back: the latency
        // distribution is non-empty and its percentiles are ordered.
        assert!(c("reintegrations") > 0);
        let p50 = r.percentile("reintegration_latencies", 50).unwrap();
        let p95 = r.percentile("reintegration_latencies", 95).unwrap();
        assert!(p50 <= p95);
    }
}
