//! Value-domain storm campaigns over the executable BBW cluster.
//!
//! The node- and network-level campaigns ask *does the cluster still
//! brake*; this campaign asks *does it brake correctly*. Every trial
//! injects value-domain faults — pedal-sensor channels lying, wheel
//! actuators misbehaving, wheel-local command corruption past the bus
//! CRC — optionally on top of a network storm and a machine-level
//! transient, and scores the run against a fault-free twin on
//! braking-safety metrics:
//!
//! * **worst total-force deficit** — the largest per-cycle shortfall of
//!   summed wheel force against the clean reference;
//! * **worst left/right imbalance** — the largest per-cycle asymmetry
//!   between the left and right wheel pairs (a yaw-moment hazard the
//!   total cannot see);
//! * **stale/seal command rejects and held cycles** — how often the
//!   end-to-end checks fired and the hold-last-safe window bridged them;
//! * **undetected value failures** — faults that were neither masked
//!   nor detected by any layer. For single-fault trials this must be
//!   zero: that is the value-domain coverage claim, and the campaign
//!   measures it instead of assuming it.
//!
//! This is the `value_domain` scenario family; runs go through
//! [`crate::scenario::run_scenario`]. Like every campaign in this
//! workspace the run is deterministic in the seed and invariant in the
//! thread count: each trial forks its stream from `(seed, trial index)`,
//! trial tallies merge by sums and maxima, and the golden test pins the
//! exact outcome at 1/2/5 threads.

use nlft_machine::fault::FaultSpace;
use nlft_net::inject::{NetFaultPlan, NetFaultRates};
use nlft_sim::rng::RngStream;

use crate::actuator::ActuatorFault;
use crate::cluster::{BbwCluster, ClusterInjection, ClusterReport, ALL_NODES};
use crate::sensor::{SensorFault, PEDAL_MAX};
use crate::tally::{Fold, Shape, Tally};

/// What each trial injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueCampaignMode {
    /// Exactly one value-domain fault per trial (a sensor fault, an
    /// actuator fault, or a command fault) and nothing else — the
    /// coverage-measurement mode.
    SingleFault,
    /// One fault of *every* value-domain kind per trial, on top of a
    /// network storm and a machine-level transient — the stress mode.
    CombinedStorm,
}

/// Configuration of a value-domain campaign.
#[derive(Debug, Clone)]
pub struct ValueDomainCampaignConfig {
    /// Number of independent cluster runs.
    pub trials: u64,
    /// Master seed.
    pub seed: u64,
    /// Communication cycles per run.
    pub cycles: u32,
    /// What to inject per trial.
    pub mode: ValueCampaignMode,
    /// Network storm intensity in `[0, 1]` (combined mode only).
    pub net_intensity: f64,
}

impl ValueDomainCampaignConfig {
    /// A single-fault coverage campaign.
    pub fn single_fault(trials: u64, seed: u64) -> Self {
        ValueDomainCampaignConfig {
            trials,
            seed,
            cycles: 30,
            mode: ValueCampaignMode::SingleFault,
            net_intensity: 0.0,
        }
    }

    /// A combined sensor + actuator + command + network + node storm.
    pub fn combined_storm(trials: u64, seed: u64) -> Self {
        ValueDomainCampaignConfig {
            trials,
            seed,
            cycles: 30,
            mode: ValueCampaignMode::CombinedStorm,
            net_intensity: 0.2,
        }
    }
}

/// The campaign's pedal profile: a deterministic ramp whose slew stays
/// inside the voter's rate bound, so a healthy run raises no flags.
pub fn campaign_pedal(cycle: u32) -> u32 {
    (400 + 60 * cycle).min(3500)
}

/// Total force and left/right asymmetry of one cycle record, when all
/// wheels reported. Wheels are FL/FR/RL/RR, so left = 0 + 2, right =
/// 1 + 3.
fn force_metrics(record: &crate::cluster::CycleRecord) -> Option<(u32, u32)> {
    let f: Vec<u32> = record.wheel_force.iter().map(|w| w.unwrap_or(0)).collect();
    if record.wheel_force.iter().all(|w| w.is_none()) {
        return None;
    }
    let left = f[0] + f[2];
    let right = f[1] + f[3];
    Some((left + right, left.abs_diff(right)))
}

/// Draws one pedal-sensor fault.
fn draw_sensor_fault(rng: &mut RngStream, cycles: u32) -> (usize, SensorFault, u32) {
    let channel = rng.uniform_range(0, 3) as usize;
    let onset = rng.uniform_range(2, u64::from(cycles / 2)) as u32;
    let fault = match rng.uniform_range(0, 4) {
        0 => SensorFault::StuckAt(rng.uniform_range(0, u64::from(PEDAL_MAX) + 1) as u32),
        1 => {
            let magnitude = rng.uniform_range(400, 2000) as i64;
            let sign = if rng.uniform_range(0, 2) == 0 { 1 } else { -1 };
            SensorFault::Offset(sign * magnitude)
        }
        2 => SensorFault::Drift {
            per_cycle: rng.uniform_range(30, 120) as i64,
        },
        _ => SensorFault::NoiseBurst {
            amplitude: rng.uniform_range(600, 3000) as u32,
            cycles: rng.uniform_range(2, 10) as u32,
        },
    };
    (channel, fault, onset)
}

/// Draws one actuator fault.
fn draw_actuator_fault(rng: &mut RngStream, cycles: u32) -> (usize, ActuatorFault, u32) {
    let wheel = rng.uniform_range(0, 4) as usize;
    let onset = rng.uniform_range(2, u64::from(cycles / 2)) as u32;
    let fault = match rng.uniform_range(0, 3) {
        0 => ActuatorFault::Stuck,
        1 => ActuatorFault::Runaway {
            step: rng.uniform_range(200, 600) as u32,
        },
        _ => {
            let magnitude = rng.uniform_range(100, 300) as i64;
            let sign = if rng.uniform_range(0, 2) == 0 { 1 } else { -1 };
            ActuatorFault::Offset(sign * magnitude)
        }
    };
    (wheel, fault, onset)
}

/// Schedules one wheel-local command fault on the cluster.
fn draw_command_fault(rng: &mut RngStream, cluster: &mut BbwCluster, cycles: u32) {
    let wheel = rng.uniform_range(0, 4) as usize;
    if rng.uniform_range(0, 2) == 0 {
        let cycle = rng.uniform_range(1, u64::from(cycles) - 1) as u32;
        let word = rng.uniform_range(0, 6) as usize;
        let mask = 1u32 << rng.uniform_range(0, 32);
        cluster.corrupt_command_at_wheel(cycle, wheel, word, mask);
    } else {
        let cycle = rng.uniform_range(2, u64::from(cycles) - 1) as u32;
        cluster.replay_command_at_wheel(cycle, wheel);
    }
}

impl ValueDomainCampaignConfig {
    /// The per-cycle clean-twin reference every trial is scored
    /// against, run once per campaign: `(total force, |left − right|)`,
    /// absent where the clean run has no force data yet (pipeline fill).
    pub(crate) fn clean_reference(&self) -> Vec<Option<(u32, u32)>> {
        let mut cluster = BbwCluster::new();
        let report = cluster.run(self.cycles, campaign_pedal);
        report.records.iter().map(force_metrics).collect()
    }

    /// Runs trial `trial` into `t`, scoring it against `clean`.
    pub(crate) fn run_trial(&self, clean: &[Option<(u32, u32)>], trial: u64, t: &mut Tally) {
        let mut rng = RngStream::new(self.seed).fork_indexed(VALUE_DOMAIN.rng_label, trial);
        let mut cluster = BbwCluster::with_rng(rng.fork("pedal-sensors"));
        match self.mode {
            ValueCampaignMode::SingleFault => match rng.uniform_range(0, 3) {
                0 => {
                    let (ch, fault, onset) = draw_sensor_fault(&mut rng, self.cycles);
                    cluster.attach_sensor_fault(ch, fault, onset);
                }
                1 => {
                    let (wheel, fault, onset) = draw_actuator_fault(&mut rng, self.cycles);
                    cluster.attach_actuator_fault(wheel, fault, onset);
                }
                _ => draw_command_fault(&mut rng, &mut cluster, self.cycles),
            },
            ValueCampaignMode::CombinedStorm => {
                let (ch, fault, onset) = draw_sensor_fault(&mut rng, self.cycles);
                cluster.attach_sensor_fault(ch, fault, onset);
                let (wheel, fault, onset) = draw_actuator_fault(&mut rng, self.cycles);
                cluster.attach_actuator_fault(wheel, fault, onset);
                draw_command_fault(&mut rng, &mut cluster, self.cycles);
                if self.net_intensity > 0.0 {
                    let plan = NetFaultPlan::quiet()
                        .with_nodes(&ALL_NODES, NetFaultRates::storm(self.net_intensity));
                    cluster.attach_net_faults(plan, rng.fork("net-injector"));
                }
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
        }
        let report = cluster.run(self.cycles, campaign_pedal);
        score_trial(t, clean, &report);
    }
}

/// The `value_domain` family's outcome shape. Verdicts, most severe
/// first: `undetected` (a silent value failure, neither masked nor
/// detected — must be zero for single-fault campaigns) beats
/// `service_lost` beats `detected` (some layer fired and service
/// survived) beats `masked` (no externally visible trace).
pub(crate) const VALUE_DOMAIN: Shape = Shape {
    family: "value_domain",
    campaign: "bbw-value-domain",
    rng_label: "value-trial",
    verdicts: &["undetected", "service_lost", "detected", "masked"],
    metrics: &[
        ("worst_total_force_deficit", Fold::Max),
        ("worst_left_right_imbalance", Fold::Max),
        ("stale_rejects", Fold::Sum),
        ("seal_rejects", Fold::Sum),
        ("held_setpoint_cycles", Fold::Sum),
        ("sensor_demotions", Fold::Sum),
        ("actuator_trips", Fold::Sum),
        ("undetected_value_failures", Fold::Sum),
    ],
    details: &[],
    distributions: &[],
};

fn score_trial(t: &mut Tally, clean: &[Option<(u32, u32)>], report: &ClusterReport) {
    let v = &report.value;
    let undetected = u64::from(v.undetected_value_failures());

    // Braking-safety metrics against the clean twin, cycle by cycle.
    let (mut deficit, mut imbalance) = (0, 0);
    for (record, reference) in report.records.iter().zip(clean.iter()) {
        let Some((clean_total, _)) = reference else {
            continue;
        };
        let (total, lr) = force_metrics(record).unwrap_or((0, 0));
        deficit = deficit.max(clean_total.saturating_sub(total));
        imbalance = imbalance.max(lr);
    }

    let detection_fired = v.sensor_implausible_flags > 0
        || v.sensor_demotions > 0
        || v.command_rejects > 0
        || !v.actuator_trips.is_empty()
        || v.pedal_clamped_cycles > 0
        || report.degraded_cycles > 0
        || report.omissions > 0
        || report.crc_rejects > 0;
    let verdict = if undetected > 0 {
        "undetected"
    } else if report.service_lost {
        "service_lost"
    } else if detection_fired {
        "detected"
    } else {
        "masked"
    };
    t.trial(
        verdict,
        &[
            ("worst_total_force_deficit", u64::from(deficit)),
            ("worst_left_right_imbalance", u64::from(imbalance)),
            ("stale_rejects", u64::from(v.stale_rejects)),
            ("seal_rejects", u64::from(v.seal_rejects)),
            ("held_setpoint_cycles", u64::from(v.held_setpoint_cycles)),
            ("sensor_demotions", u64::from(v.sensor_demotions)),
            ("actuator_trips", v.actuator_trips.len() as u64),
            ("undetected_value_failures", undetected),
        ],
        &[],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{run_params, ScenarioOutcome};

    fn campaign(trials: u64, seed: u64, params: &str, threads: usize) -> ScenarioOutcome {
        run_params("value_domain", trials, seed, params, threads)
    }

    #[test]
    fn single_fault_campaign_has_zero_silent_failures() {
        let r = campaign(40, 0x7A1E, "mode single_fault", 1);
        let c = |name| r.counter(name).unwrap();
        assert_eq!(r.trials, 40);
        assert_eq!(
            c("undetected"),
            0,
            "every single value fault must be masked or detected: {r:?}"
        );
        assert_eq!(c("undetected_value_failures"), 0);
        assert!(
            c("service_lost") == 0,
            "one value fault must never take the brakes out: {r:?}"
        );
    }

    #[test]
    fn campaign_identical_across_thread_counts() {
        let params = "cycles 24\nmode combined_storm\nnet_intensity 0.2";
        let one = campaign(12, 0x5AFE, params, 1);
        let two = campaign(12, 0x5AFE, params, 2);
        let five = campaign(12, 0x5AFE, params, 5);
        assert_eq!(one, two, "2 threads diverged from 1");
        assert_eq!(one, five, "5 threads diverged from 1");
        // Golden pin: any change to fork labels, draw order, the sealed
        // command format or the cluster's cycle structure shows up here.
        let c = |name| one.counter(name).unwrap();
        assert_eq!(
            (
                one.trials,
                c("undetected"),
                c("service_lost"),
                c("detected"),
                c("masked")
            ),
            (12, 0, 5, 7, 0),
            "golden outcome distribution moved: {one:?}"
        );
        assert_eq!(
            (
                c("worst_total_force_deficit"),
                c("worst_left_right_imbalance")
            ),
            (1134, 1637),
            "golden braking-safety metrics moved: {one:?}"
        );
        assert_eq!(
            (
                c("stale_rejects"),
                c("seal_rejects"),
                c("held_setpoint_cycles")
            ),
            (4, 8, 39),
            "golden command-path counters moved: {one:?}"
        );
        assert_eq!((c("sensor_demotions"), c("actuator_trips")), (10, 12));
        assert_eq!(c("undetected_value_failures"), 0);
    }

    #[test]
    fn combined_storm_keeps_metrics_bounded() {
        let cfg = ValueDomainCampaignConfig::combined_storm(10, 0xB0DE);
        let r = campaign(10, 0xB0DE, "mode combined_storm\nnet_intensity 0.2", 1);
        let c = |name| r.counter(name).unwrap();
        // Bounded-degradation claim: even with a sensor fault, an
        // actuator fault, a command fault, a network storm and a CPU
        // transient per trial, the deficit cannot exceed the clean
        // twin's full braking force, and the asymmetry cannot exceed
        // twice it (redistribution may concentrate the whole demand on
        // one side, and the PID overshoots transiently when its scaled
        // set-point jumps).
        let clean_max_total: u32 = {
            let mut c = BbwCluster::new();
            let rep = c.run(cfg.cycles, campaign_pedal);
            rep.records
                .iter()
                .filter_map(force_metrics)
                .map(|(t, _)| t)
                .max()
                .unwrap()
        };
        assert!(c("worst_total_force_deficit") <= u64::from(clean_max_total));
        assert!(c("worst_left_right_imbalance") <= 2 * u64::from(clean_max_total));
        assert!(r.trials == 10);
    }
}
