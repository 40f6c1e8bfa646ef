//! Blackout-survival campaigns over the executable cluster.
//!
//! The storm campaign in [`crate::cluster_campaign`] perturbs nodes
//! independently; this campaign injects *correlated* loss: a power/bus
//! blackout resets k of the six nodes in the same slot, wiping their
//! volatile state. With the TTP/C-style startup protocol enabled
//! ([`crate::cluster::BbwCluster::enable_startup`]) the victims re-enter
//! service through Listen → cold-start contention → integration, and the
//! campaign measures what the vehicle actually experiences:
//!
//! * time from the blackout to the first winning cold-start frame,
//! * time until the membership view is whole again,
//! * the braking-unavailability window (cycles with fewer than three
//!   wheels delivering force),
//! * hold-last-safe coverage while the command stream is dark, and
//! * the startup protocol's own health: big-bang collision rounds,
//!   minority-clique reverts, and — critically — that reverted nodes
//!   never babble (zero guardian blocks).
//!
//! This is the `blackout` scenario family; runs go through
//! [`crate::scenario::run_scenario`].

use nlft_net::frame::NodeId;
use nlft_net::inject::{BlackoutSpec, NetFaultPlan};
use nlft_sim::rng::RngStream;

use crate::cluster::{BbwCluster, ALL_NODES, WHEELS};
use crate::tally::{Fold, Shape, Tally};

/// Configuration of a blackout-survival campaign.
#[derive(Debug, Clone)]
pub struct BlackoutCampaignConfig {
    /// Number of independent cluster runs, one blackout each.
    pub trials: u64,
    /// Master seed.
    pub seed: u64,
    /// Healthy cycles before the blackout strikes (must be ≥ 2 so the
    /// clique-avoidance check has armed on real majority traffic).
    pub warmup_cycles: u32,
    /// Cycles observed after the blackout.
    pub recovery_cycles: u32,
    /// Base reset duration per victim, in cycles.
    pub down_cycles: u32,
    /// Maximum extra per-victim down time (uniform in `0..=stagger`),
    /// modelling unequal power-supply recovery.
    pub stagger: u32,
    /// Minimum number of victims per trial (the actual count is drawn
    /// uniformly from `min_reset..=pool size`).
    pub min_reset: usize,
    /// Whether the central units are in the victim pool. With `false`
    /// only wheels reset, the surviving CUs keep the time base alive and
    /// no cold-start contention is needed.
    pub include_cus: bool,
}

impl BlackoutCampaignConfig {
    /// A standard campaign: short warm-up, correlated reset of 2–6 nodes
    /// (CUs included) with a small stagger, generous recovery window.
    pub fn new(trials: u64, seed: u64) -> Self {
        BlackoutCampaignConfig {
            trials,
            seed,
            warmup_cycles: 6,
            recovery_cycles: 40,
            down_cycles: 2,
            stagger: 2,
            min_reset: 2,
            include_cus: true,
        }
    }

    /// Cycles per trial: the warm-up plus the recovery window. Every
    /// latency the family measures is at most this.
    pub(crate) fn span(&self) -> u32 {
        self.warmup_cycles + self.recovery_cycles
    }

    /// Runs trial `trial` into `t`.
    pub(crate) fn run_trial(&self, trial: u64, t: &mut Tally) {
        let mut rng = RngStream::new(self.seed).fork_indexed(BLACKOUT.rng_label, trial);
        let blackout_at = self.warmup_cycles;
        let mut pool: Vec<NodeId> = if self.include_cus {
            ALL_NODES.to_vec()
        } else {
            WHEELS.to_vec()
        };
        let spread = (pool.len() - self.min_reset) as u64;
        let k = self.min_reset + rng.uniform_range(0, spread + 1) as usize;
        // Partial Fisher–Yates: the first k entries become the victims.
        for i in 0..k {
            let j = i + rng.uniform_range(0, (pool.len() - i) as u64) as usize;
            pool.swap(i, j);
        }
        pool.truncate(k);

        let mut cluster = BbwCluster::new();
        cluster.enable_startup();
        let plan = NetFaultPlan::quiet().with_blackout(BlackoutSpec {
            at_cycle: blackout_at,
            nodes: pool,
            down_cycles: self.down_cycles,
            stagger: self.stagger,
        });
        cluster.attach_net_faults(plan, rng.fork("net-injector"));
        let report = cluster.run(self.span(), |_| 1200);
        let metrics = cluster
            .startup_metrics()
            .expect("startup enabled for blackout trials");

        let mut dipped = false;
        let mut recovered_at = None;
        let mut unavailable = 0u32;
        for rec in &report.records {
            if rec.cycle < blackout_at {
                continue;
            }
            let forces = rec.wheel_force.iter().filter(|f| f.is_some()).count();
            if forces < 3 {
                unavailable += 1;
            }
            if rec.members < ALL_NODES.len() {
                dipped = true;
            } else if dipped && recovered_at.is_none() {
                recovered_at = Some(rec.cycle);
            }
        }
        let to_membership = recovered_at.map(|cycle| cycle - blackout_at);
        let to_cold_start = metrics.first_cold_start_cycle.map(|c| c - blackout_at);
        t.trial(
            if to_membership.is_some() {
                "full_recoveries"
            } else {
                "incomplete"
            },
            &[
                ("cold_start_trials", u64::from(to_cold_start.is_some())),
                ("cold_starts_sent", u64::from(metrics.cold_starts_sent)),
                ("big_bangs", u64::from(metrics.big_bangs)),
                ("clique_reverts", u64::from(metrics.clique_reverts)),
                ("guardian_blocks", report.guardian_blocks),
                (
                    "held_setpoint_cycles",
                    u64::from(report.value.held_setpoint_cycles),
                ),
                ("membership_cycles", to_membership.map_or(0, u64::from)),
                ("unavailability_cycles", u64::from(unavailable)),
            ],
            &[],
        );
        if let Some(cycles) = to_cold_start {
            t.observe(0, cycles);
        }
        if let Some(cycles) = to_membership {
            t.observe(1, cycles);
        }
        t.observe(2, unavailable);
        for &(_, latency) in &metrics.integration_latencies {
            t.observe(3, latency);
        }
    }
}

/// The `blackout` family's outcome shape. A trial is a full recovery
/// when its membership view returned to all six nodes, `incomplete`
/// otherwise. Distributions: per cold-start trial, cycles from the
/// blackout to the first winning cold-start frame; per recovered trial,
/// cycles until the view was whole again; per trial, post-blackout
/// cycles with fewer than three wheels braking; and every node's
/// reset→Active integration latency.
pub(crate) const BLACKOUT: Shape = Shape {
    family: "blackout",
    campaign: "bbw-blackout",
    rng_label: "blackout-trial",
    verdicts: &["full_recoveries", "incomplete"],
    metrics: &[
        ("cold_start_trials", Fold::Sum),
        ("cold_starts_sent", Fold::Sum),
        ("big_bangs", Fold::Sum),
        ("clique_reverts", Fold::Sum),
        ("guardian_blocks", Fold::Sum),
        ("held_setpoint_cycles", Fold::Sum),
        ("membership_cycles", Fold::Sum),
        ("unavailability_cycles", Fold::Sum),
    ],
    details: &[],
    distributions: &[
        "time_to_cold_start",
        "time_to_full_membership",
        "unavailability_cycles",
        "integration_latencies",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{CU_A, CU_B};
    use crate::scenario::{run_params, ScenarioOutcome};
    use nlft_core::diagnosis::AlphaCountConfig;
    use nlft_kernel::escalation::{EscalationEvent, EscalationPolicy};
    use nlft_machine::fault::{FaultTarget, IntermittentFault, TransientFault};
    use nlft_net::startup::StartupEvent;

    #[test]
    fn gated_restart_reenters_through_listen_and_integration() {
        // A wheel develops an intermittent fault and is restarted by its
        // supervisor. With `gate_reintegration` set and the startup
        // protocol enabled, the restart must not rejoin instantly: the
        // supervisor parks (`AwaitingIntegration`), the node re-enters
        // through Listen, adopts timing from ongoing traffic, and only
        // once the protocol activates it does `Restarted` fire.
        let mut cluster = BbwCluster::new();
        cluster.enable_startup();
        cluster.supervise_all(
            AlphaCountConfig::default(),
            EscalationPolicy {
                gate_reintegration: true,
                ..EscalationPolicy::default()
            },
        );
        let victim = WHEELS[1];
        cluster.attach_intermittent(
            victim,
            IntermittentFault {
                fault: TransientFault {
                    target: FaultTarget::Pc,
                    mask: 1 << 20,
                },
                recurrence: 0.9,
                burst_jobs: 12,
            },
            RngStream::new(0x6A7E).fork("intermittent-wheel"),
        );
        let report = cluster.run(60, |_| 1200);
        let ladder = report.escalations_for(victim);
        let parked = ladder
            .iter()
            .position(|e| *e == EscalationEvent::AwaitingIntegration)
            .expect("gated restart must park on the integration gate");
        let restarted = ladder
            .iter()
            .position(|e| *e == EscalationEvent::Restarted)
            .expect("integration must complete the restart");
        assert!(
            parked < restarted,
            "Restarted before AwaitingIntegration: {ladder:?}"
        );
        let adopted = report
            .startup_events
            .iter()
            .any(|(_, ev)| *ev == StartupEvent::TimingAdopted(victim));
        let activated = report
            .startup_events
            .iter()
            .any(|(_, ev)| *ev == StartupEvent::Activated(victim));
        assert!(
            adopted && activated,
            "victim must re-enter via the protocol: {:?}",
            report.startup_events
        );
        assert_eq!(report.guardian_blocks, 0);
        assert_eq!(
            report.records.last().unwrap().members,
            6,
            "victim must end the run back in the membership"
        );
    }

    fn campaign(trials: u64, seed: u64, params: &str, threads: usize) -> ScenarioOutcome {
        run_params("blackout", trials, seed, params, threads)
    }

    /// A distribution's observations, sorted.
    fn values(r: &ScenarioOutcome, distribution: &str) -> Vec<u32> {
        let h = r.distribution(distribution).unwrap();
        (0u32..)
            .zip(h.bins())
            .flat_map(|(v, &n)| std::iter::repeat_n(v, n as usize))
            .collect()
    }

    #[test]
    fn full_blackout_cold_starts_within_the_deterministic_bound() {
        // All six nodes reset at cycle 6 for exactly 2 cycles. The
        // fastest listener (slot 0, timeout 4) must win the contention
        // at cycle 6 + 2 + 4 = 12 and the membership view must be whole
        // again three cycles later: marker at 12, set-points at 13,
        // wheels back at 14, readmission complete at 15.
        let r = campaign(3, 0xB1AC, "stagger 0\nmin_reset 6", 1);
        let c = |name| r.counter(name).unwrap();
        assert_eq!(r.trials, 3);
        assert_eq!(c("cold_start_trials"), 3, "{r:?}");
        assert_eq!(c("full_recoveries"), 3, "{r:?}");
        assert_eq!(c("big_bangs"), 0, "unique timeouts cannot collide: {r:?}");
        assert_eq!(c("guardian_blocks"), 0, "startup nodes must not babble");
        assert!(
            values(&r, "time_to_cold_start").iter().all(|&t| t == 6),
            "cold start must land at down + fastest timeout: {r:?}"
        );
        assert!(
            values(&r, "time_to_full_membership")
                .iter()
                .all(|&t| t == 9),
            "membership must be whole three cycles after the marker: {r:?}"
        );
        // Every node of every trial integrates with the same latency in
        // a zero-stagger full blackout.
        let integration = values(&r, "integration_latencies");
        assert_eq!(integration.len(), 18);
        assert!(integration.iter().all(|&l| l == 9), "{r:?}");
    }

    #[test]
    fn minority_survivors_revert_instead_of_babbling() {
        // Knock out four of six nodes: the two survivors are a minority
        // clique and must fall silent (revert) rather than keep acting,
        // then the whole cluster cold-starts. The guardian must never
        // fire — silence is enforced by protocol, not by the bus.
        let mut cluster = BbwCluster::new();
        cluster.enable_startup();
        let plan = NetFaultPlan::quiet().with_blackout(BlackoutSpec {
            at_cycle: 6,
            nodes: vec![CU_A, CU_B, WHEELS[0], WHEELS[1]],
            down_cycles: 3,
            stagger: 0,
        });
        cluster.attach_net_faults(plan, RngStream::new(0xC11).fork("net-injector"));
        let report = cluster.run(40, |_| 1200);
        let reverted: Vec<_> = report
            .startup_events
            .iter()
            .filter_map(|(_, ev)| match ev {
                StartupEvent::CliqueReverted(n) => Some(*n),
                _ => None,
            })
            .collect();
        assert_eq!(
            reverted,
            vec![WHEELS[2], WHEELS[3]],
            "both survivors must revert: {:?}",
            report.startup_events
        );
        assert_eq!(report.guardian_blocks, 0, "reverted nodes babbled");
        let metrics = cluster.startup_metrics().unwrap();
        assert!(metrics.first_cold_start_cycle.is_some());
        assert_eq!(
            report.records.last().unwrap().members,
            6,
            "cluster never made it back to full membership"
        );
    }

    #[test]
    fn staggered_blackout_goes_through_big_bang_and_recovers() {
        // Down times chosen so two contenders' listen timeouts expire in
        // the same cycle: node 0 (timeout 4) down 3 and node 1
        // (timeout 5) down 2 both contend at cycle 6 + 7 — the big-bang
        // collision. Both back off with their unique timeouts and the
        // rematch has a single winner.
        let mut cluster = BbwCluster::new();
        cluster.enable_startup();
        let plan = NetFaultPlan::quiet()
            .with_blackout(BlackoutSpec {
                at_cycle: 6,
                nodes: vec![CU_A],
                down_cycles: 3,
                stagger: 0,
            })
            .with_blackout(BlackoutSpec {
                at_cycle: 6,
                nodes: vec![CU_B],
                down_cycles: 2,
                stagger: 0,
            })
            .with_blackout(BlackoutSpec {
                at_cycle: 6,
                nodes: WHEELS.to_vec(),
                down_cycles: 12,
                stagger: 0,
            });
        cluster.attach_net_faults(plan, RngStream::new(0xB16).fork("net-injector"));
        let report = cluster.run(48, |_| 1200);
        let metrics = cluster.startup_metrics().unwrap();
        assert_eq!(metrics.big_bangs, 1, "{:?}", report.startup_events);
        assert!(
            metrics.first_cold_start_cycle.is_some(),
            "the rematch must produce a winner: {:?}",
            report.startup_events
        );
        assert_eq!(report.guardian_blocks, 0);
        assert_eq!(report.records.last().unwrap().members, 6, "{report:?}");
    }

    #[test]
    fn two_wheel_blackout_reintegrates_by_listening() {
        // Four nodes survive — still a majority clique — so the time
        // base never dies: the two reset wheels must adopt timing from
        // ongoing traffic without any cold-start contention.
        let mut cluster = BbwCluster::new();
        cluster.enable_startup();
        let plan = NetFaultPlan::quiet().with_blackout(BlackoutSpec {
            at_cycle: 6,
            nodes: vec![WHEELS[0], WHEELS[1]],
            down_cycles: 2,
            stagger: 0,
        });
        cluster.attach_net_faults(plan, RngStream::new(0x1D1E).fork("net-injector"));
        let report = cluster.run(40, |_| 1200);
        let metrics = cluster.startup_metrics().unwrap();
        assert_eq!(
            metrics.first_cold_start_cycle, None,
            "{:?}",
            report.startup_events
        );
        assert_eq!(metrics.cold_starts_sent, 0);
        assert_eq!(metrics.clique_reverts, 0, "{:?}", report.startup_events);
        let adopted: Vec<_> = report
            .startup_events
            .iter()
            .filter_map(|(_, ev)| match ev {
                StartupEvent::TimingAdopted(n) => Some(*n),
                _ => None,
            })
            .collect();
        assert_eq!(
            adopted,
            vec![WHEELS[0], WHEELS[1]],
            "{:?}",
            report.startup_events
        );
        assert_eq!(report.guardian_blocks, 0);
        assert_eq!(report.records.last().unwrap().members, 6);
    }

    #[test]
    fn blackout_campaign_identical_across_thread_counts() {
        let one = campaign(10, 0xB1AC_0007, "", 1);
        let two = campaign(10, 0xB1AC_0007, "", 2);
        let five = campaign(10, 0xB1AC_0007, "", 5);
        assert_eq!(one, two, "2 threads diverged from 1");
        assert_eq!(one, five, "5 threads diverged from 1");
        // Golden pin: any change to the RNG fork labels, the blackout
        // draw order, the startup protocol's transitions or the
        // cluster's cycle structure shows up here.
        let c = |name| one.counter(name).unwrap();
        assert_eq!(
            (
                one.trials,
                c("full_recoveries"),
                c("cold_start_trials"),
                c("big_bangs"),
                c("clique_reverts"),
                c("guardian_blocks")
            ),
            (10, 10, 9, 8, 12, 0),
            "golden blackout outcome moved: {one:?}"
        );
        assert_eq!(
            (
                values(&one, "time_to_full_membership"),
                values(&one, "unavailability_cycles")
            ),
            (
                vec![6, 8, 9, 9, 10, 12, 13, 13, 16, 19],
                vec![0, 7, 8, 8, 9, 11, 12, 12, 14, 18]
            ),
            "golden latency distributions moved: {one:?}"
        );
    }
}
