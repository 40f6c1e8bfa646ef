//! Recovery-escalation scenarios and campaigns on the executable cluster.
//!
//! Three seeded scenarios demonstrate the three diagnoses end to end at
//! the system boundary:
//!
//! * [`transient_storm_scenario`] — a spread of one-shot transients is
//!   masked by TEM with *zero* escalation: no suspicion, no restarts,
//!   full membership throughout;
//! * [`intermittent_wheel_scenario`] — a wheel node with a recurring
//!   fault is silenced by its supervisor, restarts under the capped
//!   backoff, survives a probation relapse, and reintegrates into the
//!   bus membership within a bounded number of rounds;
//! * [`permanent_cu_scenario`] — a central-unit replica with a stuck-at
//!   processor fault is retired; the duplex selection re-forms around the
//!   surviving replica and braking continues on a single CU.
//!
//! The `recovery` scenario family randomises over the three fault
//! classes; runs go through [`crate::scenario::run_scenario`] and, like
//! every family, are deterministic in the seed and bit-identical for any
//! thread count.

use nlft_core::diagnosis::AlphaCountConfig;
use nlft_kernel::escalation::{EscalationPolicy, NodeHealth};
use nlft_machine::fault::{FaultTarget, IntermittentFault, StuckAtFault, TransientFault};
use nlft_net::frame::NodeId;
use nlft_sim::rng::RngStream;

use crate::cluster::{BbwCluster, ClusterInjection, ClusterReport, ALL_NODES, CU_A, WHEELS};
use crate::tally::{Shape, Tally};

/// A processor fault that essentially always activates: a flipped high PC
/// bit sends execution into unmapped memory. The scenario language's
/// `transient` and `intermittent` lines inject it too.
pub(crate) fn pc_fault() -> TransientFault {
    TransientFault {
        target: FaultTarget::Pc,
        mask: 1 << 20,
    }
}

/// A storm of one-shot transients across the cluster, every node under
/// supervision. Spaced strikes never build an error streak, so the whole
/// storm must be masked with zero escalation events and zero restarts.
pub fn transient_storm_scenario(seed: u64) -> ClusterReport {
    let mut rng = RngStream::new(seed).fork("transient-storm");
    let mut cluster = BbwCluster::new();
    cluster.supervise_all(AlphaCountConfig::default(), EscalationPolicy::default());
    // One strike per node, at least three cycles apart.
    for (i, &node) in ALL_NODES.iter().enumerate() {
        cluster.inject(ClusterInjection {
            cycle: 2 + 3 * i as u32,
            node,
            copy: rng.uniform_range(0, 2) as u32,
            at_cycle: rng.uniform_range(1, 40),
            fault: pc_fault(),
        });
    }
    cluster.run(30, |_| 1200)
}

/// A wheel node developing an intermittent fault: recurrence 0.9 over a
/// 12-job burst. Returns the report and the victim so callers can check
/// its event stream. The wheel must go fail-silent, restart (possibly
/// more than once — probation relapses are expected while the burst
/// lasts), reintegrate and end the run healthy and in the membership.
pub fn intermittent_wheel_scenario(seed: u64) -> (ClusterReport, NodeId) {
    let victim = WHEELS[1];
    let mut cluster = BbwCluster::new();
    cluster.supervise_all(AlphaCountConfig::default(), EscalationPolicy::default());
    cluster.attach_intermittent(
        victim,
        IntermittentFault {
            fault: pc_fault(),
            recurrence: 0.9,
            burst_jobs: 12,
        },
        RngStream::new(seed).fork("intermittent-wheel"),
    );
    let report = cluster.run(45, |_| 1200);
    (report, victim)
}

/// A central-unit replica with a permanent stuck-at fault on its
/// processor (a high PC bit stuck at one): every job of every copy dies
/// in unmapped memory, restarts cannot help, and the supervisor must
/// retire the node with the duplex pair re-formed around `CU_B`.
pub fn permanent_cu_scenario(seed: u64) -> ClusterReport {
    let _ = seed; // the scenario is fully deterministic
    let mut cluster = BbwCluster::new();
    cluster.supervise_all(AlphaCountConfig::default(), EscalationPolicy::default());
    cluster.attach_stuck_at(
        CU_A,
        StuckAtFault {
            target: FaultTarget::Pc,
            bit: 1 << 20,
            stuck_high: true,
        },
    );
    cluster.run(40, |_| 1200)
}

/// Configuration of the randomised recovery campaign.
#[derive(Debug, Clone)]
pub struct RecoveryClusterCampaignConfig {
    /// Number of independent cluster runs.
    pub trials: u64,
    /// Master seed.
    pub seed: u64,
    /// Communication cycles per run. Must leave room for the full ladder
    /// (the default policy needs 25 job slots to retirement).
    pub cycles: u32,
}

impl RecoveryClusterCampaignConfig {
    /// A standard recovery campaign.
    pub fn new(trials: u64, seed: u64) -> Self {
        RecoveryClusterCampaignConfig {
            trials,
            seed,
            cycles: 40,
        }
    }

    /// Runs trial `trial` into `t`: picks a fault class (one-shot
    /// transient, intermittent wheel, stuck-at node), runs a supervised
    /// cluster and classifies what the vehicle saw.
    pub(crate) fn run_trial(&self, trial: u64, t: &mut Tally) {
        let mut rng = RngStream::new(self.seed).fork_indexed(RECOVERY.rng_label, trial);
        let mut cluster = BbwCluster::new();
        cluster.supervise_all(AlphaCountConfig::default(), EscalationPolicy::default());
        let kind = rng.uniform_range(0, 3);
        let victim = match kind {
            0 => {
                // One-shot transient on a random node.
                let node = ALL_NODES[rng.uniform_range(0, ALL_NODES.len() as u64) as usize];
                cluster.inject(ClusterInjection {
                    cycle: rng.uniform_range(1, 10) as u32,
                    node,
                    copy: rng.uniform_range(0, 2) as u32,
                    at_cycle: rng.uniform_range(1, 40),
                    fault: pc_fault(),
                });
                node
            }
            1 => {
                // Intermittent fault on a random wheel.
                let node = WHEELS[rng.uniform_range(0, 4) as usize];
                cluster.attach_intermittent(
                    node,
                    IntermittentFault {
                        fault: pc_fault(),
                        recurrence: 0.9,
                        burst_jobs: 12,
                    },
                    rng.fork("victim-intermittent"),
                );
                node
            }
            _ => {
                // Permanent stuck-at on a random node.
                let node = ALL_NODES[rng.uniform_range(0, ALL_NODES.len() as u64) as usize];
                cluster.attach_stuck_at(
                    node,
                    StuckAtFault {
                        target: FaultTarget::Pc,
                        bit: 1 << 20,
                        stuck_high: true,
                    },
                );
                node
            }
        };
        let report = cluster.run(self.cycles, |_| 1200);
        let health = cluster.node_health(victim).expect("victim is supervised");
        let retired = report.retired_nodes.contains(&victim);
        let verdict = match kind {
            _ if report.service_lost => "service_lost",
            0 if report.escalations.is_empty() && report.restarts == 0 => "masked_transient",
            0 | 1 if retired => "false_retirement",
            0 | 1 if health == NodeHealth::Healthy => "recovered",
            0 | 1 => "unresolved",
            _ if retired => "retired",
            _ => "missed_permanent",
        };
        t.trial(verdict, &[], &[]);
    }
}

/// The `recovery` family's outcome shape: per-trial verdicts only.
/// `masked_transient`: a transient handled with zero escalation;
/// `recovered`: a non-permanent victim ended the run healthy;
/// `retired`: a permanent victim was retired; `false_retirement`: a
/// non-permanent victim was retired (misclassification);
/// `missed_permanent`: a permanent victim still in service at the end —
/// a stuck-at TEM's identical copies cannot distinguish;
/// `service_lost`: braking lost at any point; `unresolved`: the trial
/// ended mid-ladder.
pub(crate) const RECOVERY: Shape = Shape {
    family: "recovery",
    campaign: "bbw-recovery-cluster",
    rng_label: "recovery-cluster-trial",
    verdicts: &[
        "masked_transient",
        "recovered",
        "retired",
        "false_retirement",
        "missed_permanent",
        "service_lost",
        "unresolved",
    ],
    metrics: &[],
    details: &[],
    distributions: &[],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{run_params, ScenarioOutcome};
    use nlft_kernel::escalation::EscalationEvent;
    use nlft_net::membership::MembershipEvent;

    #[test]
    fn transient_storm_is_masked_with_zero_restarts() {
        let report = transient_storm_scenario(0x7EA5);
        assert!(!report.service_lost);
        assert_eq!(report.restarts, 0, "one-shot transients must not restart");
        assert!(
            report.escalations.is_empty(),
            "spaced one-shot strikes must not escalate: {:?}",
            report.escalations
        );
        assert!(report.retired_nodes.is_empty());
        assert_eq!(report.records.last().unwrap().members, 6);
    }

    #[test]
    fn intermittent_wheel_restarts_and_reintegrates() {
        let (report, victim) = intermittent_wheel_scenario(0x1E7E);
        assert!(!report.service_lost, "three wheels keep braking");
        let events = report.escalations_for(victim);
        assert!(
            events.contains(&EscalationEvent::WentSilent),
            "the burst must silence the wheel: {events:?}"
        );
        assert!(report.restarts >= 1, "recovery must spend a restart");
        assert!(
            events.contains(&EscalationEvent::Restarted),
            "the restart window must complete: {events:?}"
        );
        assert!(
            events.contains(&EscalationEvent::Recovered),
            "the wheel must graduate probation: {events:?}"
        );
        assert!(report.retired_nodes.is_empty(), "no retirement: {events:?}");
        // And the *membership* takes it back: an exclusion followed by a
        // reintegration, with full membership restored at the end.
        let membership_events: Vec<_> = report
            .records
            .iter()
            .flat_map(|r| r.events.iter())
            .collect();
        assert!(membership_events
            .iter()
            .any(|e| matches!(e, MembershipEvent::Excluded(n) if *n == victim)));
        assert!(membership_events
            .iter()
            .any(|e| matches!(e, MembershipEvent::Reintegrated(n) if *n == victim)));
        assert_eq!(report.records.last().unwrap().members, 6);
        assert!(!report.reintegration_latencies.is_empty());
    }

    #[test]
    fn permanent_cu_is_retired_and_duplex_reforms() {
        let report = permanent_cu_scenario(0);
        assert!(!report.service_lost, "CU_B alone must keep the service up");
        assert_eq!(report.retired_nodes, vec![CU_A]);
        let events = report.escalations_for(CU_A);
        assert!(events.contains(&EscalationEvent::Retired));
        // Restarts were tried before giving up (the budget is 3).
        assert!(report.restarts >= 1 && report.restarts <= 3);
        // After retirement the pair is permanently single.
        let last = report.records.last().unwrap();
        assert!(last.cu_single, "duplex must re-form around CU_B");
        assert_eq!(last.members, 5, "the retired replica stays excluded");
        // Wheels keep braking on CU_B's set-points.
        assert!(last.wheel_force.iter().all(|f| f.is_some()));
    }

    fn campaign(trials: u64, seed: u64, threads: usize) -> ScenarioOutcome {
        run_params("recovery", trials, seed, "", threads)
    }

    #[test]
    fn recovery_campaign_identical_across_thread_counts() {
        let one = campaign(12, 0x3E5C, 1);
        let two = campaign(12, 0x3E5C, 2);
        let five = campaign(12, 0x3E5C, 5);
        assert_eq!(one, two, "2 threads diverged from 1");
        assert_eq!(one, five, "5 threads diverged from 1");
        // Golden pin: any change to the RNG fork labels, the fault draw
        // order, the supervisor thresholds or the cluster's cycle
        // structure shows up here.
        let c = |name| one.counter(name).unwrap();
        assert_eq!(
            (
                one.trials,
                c("masked_transient"),
                c("recovered"),
                c("retired"),
                c("false_retirement"),
                c("missed_permanent"),
                c("service_lost"),
                c("unresolved"),
            ),
            (12, 3, 4, 5, 0, 0, 0, 0),
            "golden outcome distribution moved: {one:?}"
        );
    }

    #[test]
    fn recovery_campaign_covers_the_three_diagnoses() {
        let r = campaign(30, 0x3E5C, 1);
        let c = |name| r.counter(name).unwrap();
        assert_eq!(r.trials, 30);
        assert!(c("masked_transient") > 0, "{r:?}");
        assert!(c("recovered") > 0, "{r:?}");
        assert!(c("retired") > 0, "{r:?}");
        assert_eq!(c("false_retirement"), 0, "{r:?}");
        assert_eq!(
            c("service_lost"),
            0,
            "single-node faults never lose braking: {r:?}"
        );
        let total = c("masked_transient")
            + c("recovered")
            + c("retired")
            + c("false_retirement")
            + c("missed_permanent")
            + c("service_lost")
            + c("unresolved");
        assert_eq!(total, r.trials);
    }
}
