//! Compiling scenario files onto the executable campaign runners.
//!
//! The parser half of the scenario DSL lives in
//! [`nlft_reliability::scenario`] (this crate has the heavier
//! dependencies, so the compiler lives here): a [`ScenarioSpec`] is
//! compiled through the typed `try_*` constructors of the injector
//! crates into a [`CompiledScenario`] — one of the existing campaign
//! configurations, or a free-form cluster scenario driven by its own
//! per-trial engine.
//!
//! Every path preserves the labelled-`RngStream`-per-trial rule: a
//! trial's stream is forked as `fork_indexed(label, trial)` off the
//! scenario seed, so running a scenario at 1, 2 or 5 threads yields a
//! bit-identical [`ScenarioOutcome`] — including its CRC-32 `digest`,
//! which the zoo's `accept … pin` clauses golden-pin in CI.

use std::time::Duration;

use nlft_core::campaign::{run_campaign, CampaignConfig};
use nlft_core::diagnosis::AlphaCountConfig;
use nlft_core::multicore_campaign::{run_multicore_campaign, MulticoreCampaignConfig};
use nlft_core::policy::NodePolicy;
use nlft_engine::checkpoint::{self, Checkpoint, TokenReader};
use nlft_engine::{CampaignOptions, EngineConfig, ResumePoint};
use nlft_kernel::contract::MkContract;
use nlft_kernel::escalation::EscalationPolicy;
use nlft_kernel::resources::ProtocolKind;
use nlft_machine::fault::{FaultTarget, IntermittentFault, StuckAtFault};
use nlft_net::frame::NodeId;
use nlft_net::inject::{BlackoutSpec, NetFaultPlan, NetFaultRates};
use nlft_reliability::scenario::{
    ActuatorFaultSpec, ClusterSpec, FamilyParams, FaultLine, NodeKind, NodeName, PedalSpec,
    ScenarioSpec, SensorFaultSpec,
};
use nlft_sim::crc::crc32;
use nlft_sim::rng::RngStream;
use nlft_sim::stats::Histogram;

use crate::actuator::ActuatorFault;
use crate::blackout::{BlackoutCampaignConfig, BLACKOUT};
use crate::braking::MissPolicy;
use crate::cluster::{BbwCluster, ClusterInjection, ALL_NODES, CU_A, CU_B, WHEELS};
use crate::cluster_campaign::{system_verdict, NetStormCampaignConfig, NET_STORM};
use crate::recovery::{pc_fault, RecoveryClusterCampaignConfig, RECOVERY};
use crate::sensor::SensorFault;
use crate::tally::{nearest_rank, Fold, Shape, Tally};
use crate::value_campaign::{ValueDomainCampaignConfig, VALUE_DOMAIN};
use crate::weakly_hard_campaign::{run_miss_pattern_campaign, MissPatternCampaignConfig};

/// Why a parsed scenario could not be compiled onto the runners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// The scenario's name.
    pub scenario: String,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario `{}`: {}", self.scenario, self.message)
    }
}

impl std::error::Error for CompileError {}

/// A scenario compiled onto its concrete runner configuration.
#[derive(Debug, Clone)]
pub enum CompiledScenario {
    /// The six-node network-storm campaign.
    NetStorm(NetStormCampaignConfig),
    /// The value-domain campaign.
    ValueDomain(ValueDomainCampaignConfig),
    /// The correlated-blackout campaign.
    Blackout(BlackoutCampaignConfig),
    /// The recovery-escalation campaign.
    Recovery(RecoveryClusterCampaignConfig),
    /// The weakly-hard miss-pattern campaign.
    WeaklyHard(MissPatternCampaignConfig),
    /// The multicore core-death campaign.
    Multicore(MulticoreCampaignConfig),
    /// The node-level SWIFI parameter campaign.
    Node(CampaignConfig),
    /// A free-form cluster scenario run by this module's engine.
    Cluster(ClusterScenarioConfig),
}

/// A compiled free-form cluster scenario.
#[derive(Debug, Clone)]
pub struct ClusterScenarioConfig {
    /// Monte-Carlo trials.
    pub trials: u64,
    /// Master seed.
    pub seed: u64,
    /// The validated declaration.
    pub spec: ClusterSpec,
}

/// The outcome of running one scenario: integer verdict and metric
/// counters in a canonical order, plus the CRC-32 digest over their
/// canonical rendering. Bit-identical for any thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// Trials executed.
    pub trials: u64,
    /// Named per-trial verdict counts (each trial gets exactly one
    /// verdict within a family's ladder).
    pub verdicts: Vec<(String, u64)>,
    /// Named aggregate metrics.
    pub metrics: Vec<(String, u64)>,
    /// CRC-32 over [`ScenarioOutcome::canonical`].
    pub digest: u32,
    /// Named counters reported beside the digest and not covered by it
    /// (the net-storm family's per-kind injection counts).
    pub details: Vec<(String, u64)>,
    /// Named integer distributions, outside the digest: unit-bin
    /// histograms where bin `i` counts the observations equal to `i`.
    /// Their size is fixed by the scenario's cycle count, never by its
    /// trial count.
    pub distributions: Vec<(String, Histogram)>,
}

// Histogram bounds are always finite, so equality is reflexive.
impl Eq for ScenarioOutcome {}

impl ScenarioOutcome {
    pub(crate) fn new(
        name: &str,
        trials: u64,
        verdicts: Vec<(String, u64)>,
        metrics: Vec<(String, u64)>,
    ) -> Self {
        let mut outcome = ScenarioOutcome {
            name: name.to_string(),
            trials,
            verdicts,
            metrics,
            digest: 0,
            details: Vec::new(),
            distributions: Vec::new(),
        };
        outcome.digest = crc32(outcome.canonical().as_bytes());
        outcome
    }

    /// The canonical rendering the digest covers: one `key=value` pair
    /// per line, verdicts before metrics, in emission order.
    pub fn canonical(&self) -> String {
        let mut out = format!("scenario={}\ntrials={}\n", self.name, self.trials);
        for (k, v) in &self.verdicts {
            out.push_str(&format!("verdict.{k}={v}\n"));
        }
        for (k, v) in &self.metrics {
            out.push_str(&format!("metric.{k}={v}\n"));
        }
        out
    }

    /// Looks up a named counter: verdicts, then metrics, then details.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.verdicts
            .iter()
            .chain(&self.metrics)
            .chain(&self.details)
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a named distribution.
    pub fn distribution(&self, name: &str) -> Option<&Histogram> {
        self.distributions
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }

    /// The nearest-rank percentile (0–100) of a named distribution: the
    /// value at index `(n - 1) * pct / 100` of its sorted observations.
    /// `None` for an unknown or empty distribution.
    pub fn percentile(&self, distribution: &str, pct: u32) -> Option<u32> {
        nearest_rank(self.distribution(distribution)?, pct)
    }

    /// The mean of a named distribution; `None` for an unknown or empty
    /// one.
    pub fn mean(&self, distribution: &str) -> Option<f64> {
        let h = self.distribution(distribution)?;
        let total: u64 = (0..).zip(h.bins()).map(|(v, &n)| v * n).sum();
        (h.count() > 0).then(|| total as f64 / h.count() as f64)
    }
}

/// A failed acceptance check, human-readable.
pub type AcceptFailure = String;

/// Checks a scenario's acceptance clause against its outcome. Returns
/// the list of violated assertions (empty = accepted).
pub fn check_accept(spec: &ScenarioSpec, outcome: &ScenarioOutcome) -> Vec<AcceptFailure> {
    let mut failures = Vec::new();
    if let Some(pin) = spec.accept.pin {
        if pin != outcome.digest {
            failures.push(format!(
                "digest 0x{:08x} does not match pin 0x{pin:08x}",
                outcome.digest
            ));
        }
    }
    for (name, expected) in &spec.accept.verdicts {
        match outcome.counter(name) {
            Some(actual) if actual == *expected => {}
            Some(actual) => {
                failures.push(format!("verdict {name}: expected {expected}, got {actual}"))
            }
            None => failures.push(format!("verdict {name}: no such counter")),
        }
    }
    for name in &spec.accept.require_zero {
        match outcome.counter(name) {
            Some(0) => {}
            Some(actual) => failures.push(format!("require_zero {name}: got {actual}")),
            None => failures.push(format!("require_zero {name}: no such counter")),
        }
    }
    for (name, ceiling) in &spec.accept.max {
        match outcome.counter(name) {
            Some(actual) if actual <= *ceiling => {}
            Some(actual) => {
                failures.push(format!("max {name}: {actual} exceeds ceiling {ceiling}"))
            }
            None => failures.push(format!("max {name}: no such counter")),
        }
    }
    failures
}

fn node_id(name: NodeName) -> NodeId {
    match name {
        NodeName::CuA => CU_A,
        NodeName::CuB => CU_B,
        NodeName::WheelFl => WHEELS[0],
        NodeName::WheelFr => WHEELS[1],
        NodeName::WheelRl => WHEELS[2],
        NodeName::WheelRr => WHEELS[3],
    }
}

/// The most communication cycles a cluster-family trial may run. It
/// bounds the distributions, which keep one bin per cycle.
pub const MAX_CYCLES: u32 = 100_000;

/// Compiles a parsed scenario onto its concrete runner configuration,
/// revalidating every rate through the injectors' typed constructors
/// and every precondition of the family's runner, so that a scenario
/// that compiles runs without panicking. `threads` is the worker count
/// for the node-level families, whose runners shard (the outcome itself
/// is thread-count invariant).
pub fn compile(spec: &ScenarioSpec, threads: usize) -> Result<CompiledScenario, CompileError> {
    let fail = |message: String| CompileError {
        scenario: spec.name.clone(),
        message,
    };
    let require = |ok: bool, message: &str| {
        if ok {
            Ok(())
        } else {
            Err(fail(message.into()))
        }
    };
    let cycles_fit = |family: &str, cycles: u32, least: u32| {
        require(
            (least..=MAX_CYCLES).contains(&cycles),
            &format!("{family} needs {least}..={MAX_CYCLES} cycles, got {cycles}"),
        )
    };
    let probability = |x: f64, what: &str| {
        require(
            (0.0..=1.0).contains(&x),
            &format!("{what} must be in [0, 1]"),
        )
    };
    require(spec.trials > 0, "trials must be positive")?;
    Ok(match &spec.params {
        FamilyParams::NetStorm {
            cycles,
            intensity,
            node_faults,
        } => {
            cycles_fit("net_storm", *cycles, 2)?;
            probability(*intensity, "net_storm intensity")?;
            let mut config = NetStormCampaignConfig::new(spec.trials, spec.seed);
            config.cycles = *cycles;
            config.intensity = *intensity;
            config.with_node_faults = *node_faults;
            CompiledScenario::NetStorm(config)
        }
        FamilyParams::ValueDomain {
            cycles,
            combined,
            net_intensity,
        } => {
            // Fault onsets are drawn from `2..cycles / 2`.
            cycles_fit("value_domain", *cycles, 8)?;
            probability(*net_intensity, "value_domain net_intensity")?;
            let mut config = if *combined {
                ValueDomainCampaignConfig::combined_storm(spec.trials, spec.seed)
            } else {
                ValueDomainCampaignConfig::single_fault(spec.trials, spec.seed)
            };
            config.cycles = *cycles;
            config.net_intensity = *net_intensity;
            CompiledScenario::ValueDomain(config)
        }
        FamilyParams::Blackout {
            warmup,
            recovery,
            down,
            stagger,
            min_reset,
            include_cus,
        } => {
            require(
                *warmup >= 2,
                "blackout needs a warmup of at least 2 cycles (clique avoidance arms on them)",
            )?;
            require(
                *recovery >= 1,
                "blackout needs a recovery window of at least 1 cycle",
            )?;
            require(*down >= 1, "blackout must last at least 1 cycle")?;
            let pool = if *include_cus {
                ALL_NODES.len()
            } else {
                WHEELS.len()
            };
            require(
                (1..=pool).contains(&(*min_reset as usize)),
                &format!("blackout min_reset must be in 1..={pool}"),
            )?;
            cycles_fit("blackout", warmup.saturating_add(*recovery), 3)?;
            let mut config = BlackoutCampaignConfig::new(spec.trials, spec.seed);
            config.warmup_cycles = *warmup;
            config.recovery_cycles = *recovery;
            config.down_cycles = *down;
            config.stagger = *stagger;
            config.min_reset = *min_reset as usize;
            config.include_cus = *include_cus;
            CompiledScenario::Blackout(config)
        }
        FamilyParams::Recovery { cycles } => {
            // The default escalation policy needs 25 job slots to retire.
            cycles_fit("recovery", *cycles, 30)?;
            let mut config = RecoveryClusterCampaignConfig::new(spec.trials, spec.seed);
            config.cycles = *cycles;
            CompiledScenario::Recovery(config)
        }
        FamilyParams::WeaklyHard {
            horizon_jobs,
            max_misses,
            window,
            interval_lo,
            interval_hi,
            zero_force,
        } => {
            let contract =
                MkContract::try_new(*max_misses, *window).map_err(|e| fail(e.to_string()))?;
            require(
                (*window..=64).contains(horizon_jobs),
                &format!("weakly_hard horizon must be {window}–64 jobs (window to 64)"),
            )?;
            require(
                0 < *interval_lo && interval_lo < interval_hi,
                "weakly_hard interval must be a non-empty range above 0",
            )?;
            let mut config = MissPatternCampaignConfig::nominal(spec.trials, spec.seed);
            config.horizon_jobs = *horizon_jobs;
            config.contract = contract;
            config.fault_interval_us = (*interval_lo, *interval_hi);
            config.policy = if *zero_force {
                MissPolicy::ZeroForce
            } else {
                MissPolicy::HoldLast
            };
            config.threads = threads;
            CompiledScenario::WeaklyHard(config)
        }
        FamilyParams::Multicore {
            cores,
            horizon,
            escalated_p,
        } => {
            require(*cores >= 2, "multicore needs at least 2 cores")?;
            require(
                *horizon >= 4,
                "multicore horizon must be at least 4 ticks to arm a death",
            )?;
            probability(*escalated_p, "multicore escalated_p")?;
            let mut config = MulticoreCampaignConfig::new(spec.trials, spec.seed);
            config.cores = *cores;
            config.horizon = *horizon;
            config.escalated_p = *escalated_p;
            config.threads = threads;
            CompiledScenario::Multicore(config)
        }
        FamilyParams::Node { lightweight_nlft } => {
            let policy = if *lightweight_nlft {
                NodePolicy::LightweightNlft
            } else {
                NodePolicy::FailSilent
            };
            let mut config = CampaignConfig::new(spec.trials, spec.seed, policy);
            config.threads = threads;
            CompiledScenario::Node(config)
        }
        FamilyParams::Cluster(cluster) => {
            cycles_fit("cluster", cluster.cycles, 2)?;
            compile_cluster(cluster).map_err(fail)?;
            CompiledScenario::Cluster(ClusterScenarioConfig {
                trials: spec.trials,
                seed: spec.seed,
                spec: cluster.clone(),
            })
        }
    })
}

/// Validates a cluster declaration by dry-building its plan through the
/// injectors' typed constructors.
fn compile_cluster(cluster: &ClusterSpec) -> Result<(), String> {
    build_net_plan(cluster).map_err(|e| e.to_string())?;
    for fault in &cluster.faults {
        match fault {
            FaultLine::Transient { cycle, copy, .. } => {
                if *cycle == 0 || *cycle >= cluster.cycles {
                    return Err(format!(
                        "transient cycle {cycle} outside 1..{}",
                        cluster.cycles
                    ));
                }
                if *copy > 1 {
                    return Err(format!("transient copy {copy} must be 0 or 1"));
                }
            }
            FaultLine::Intermittent {
                recurrence, burst, ..
            } => {
                IntermittentFault {
                    fault: pc_fault(),
                    recurrence: *recurrence,
                    burst_jobs: *burst,
                }
                .check()
                .map_err(|e| e.to_string())?;
            }
            FaultLine::CoreDeath { node, .. } => {
                let declared = cluster
                    .nodes
                    .iter()
                    .any(|&(n, k)| n == *node && k != NodeKind::SingleCore);
                if !declared {
                    return Err(format!(
                        "core_death on {} requires a dual-core node kind in `topology`",
                        node.keyword()
                    ));
                }
            }
            FaultLine::Sensor { channel, .. } if *channel > 2 => {
                return Err(format!("sensor channel {channel} outside 0–2"));
            }
            FaultLine::Actuator { wheel, .. } if *wheel > 3 => {
                return Err(format!("actuator wheel {wheel} outside 0–3"));
            }
            _ => {}
        }
    }
    if let Some(contracts) = cluster.contracts {
        for (m, k) in contracts {
            MkContract::try_new(m, k).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Builds the net-fault plan declared by a cluster's `storm` / `rates` /
/// `dynamic` / `blackout` lines; `None` when the scenario declares no
/// network faults at all.
fn build_net_plan(
    cluster: &ClusterSpec,
) -> Result<Option<NetFaultPlan>, nlft_net::inject::PlanError> {
    let mut plan = NetFaultPlan::quiet();
    let mut any = false;
    for fault in &cluster.faults {
        match fault {
            FaultLine::Storm {
                intensity,
                from,
                until,
            } => {
                plan = plan
                    .try_with_nodes(&ALL_NODES, NetFaultRates::storm(*intensity))?
                    .try_with_dynamic(0.10 * *intensity, 0.10 * *intensity)?
                    .window(*from, *until);
                any = true;
            }
            FaultLine::Rates {
                node,
                corruption,
                omission,
                crash,
                babble,
                masquerade,
                clock_glitch,
            } => {
                let rates = NetFaultRates {
                    corruption: *corruption,
                    omission: *omission,
                    crash: *crash,
                    babble: *babble,
                    masquerade: *masquerade,
                    clock_glitch: *clock_glitch,
                };
                plan = plan.try_with_node(node_id(*node), rates)?;
                any = true;
            }
            FaultLine::Dynamic { dup, reorder } => {
                plan = plan.try_with_dynamic(*dup, *reorder)?;
                any = true;
            }
            FaultLine::Blackout {
                at,
                down,
                stagger,
                nodes,
            } => {
                plan = plan.try_with_blackout(BlackoutSpec {
                    at_cycle: *at,
                    nodes: nodes.iter().map(|&n| node_id(n)).collect(),
                    down_cycles: *down,
                    stagger: *stagger,
                })?;
                any = true;
            }
            _ => {}
        }
    }
    Ok(if any { Some(plan) } else { None })
}

/// Runs a compiled scenario with default engine options: node-level
/// families at the worker count compiled into their configuration,
/// cluster families on one worker.
pub fn run_compiled(name: &str, compiled: &CompiledScenario) -> ScenarioOutcome {
    run_compiled_with(name, compiled, 1, &ScenarioEngineOptions::default())
        .expect("default engine options cannot fail")
}

/// Parses nothing, compiles nothing: runs an already-parsed scenario
/// end to end at the given thread count.
pub fn run_scenario(spec: &ScenarioSpec, threads: usize) -> Result<ScenarioOutcome, CompileError> {
    run_scenario_with(spec, threads, &ScenarioEngineOptions::default())
}

/// Engine options for the cluster-family scenario path.
///
/// The five cluster families (`cluster`, `net_storm`, `value_domain`,
/// `blackout`, `recovery`) run on one engine path and honour these;
/// passing non-default options with a node-level family (`node`,
/// `multicore`, `weakly_hard`) is a [`CompileError`].
#[derive(Default)]
pub struct ScenarioEngineOptions<'a> {
    /// Run the threaded executor even at one worker (the default
    /// dispatches to the in-thread sequential reference below two
    /// workers). The outcome is bit-identical either way — this exists
    /// so differential gates can pit the two paths against each other.
    pub force_engine: bool,
    /// Per-trial wall-clock budget: a cluster trial that returns past
    /// it is recorded as timed out and left out of the tallies.
    pub trial_budget: Option<Duration>,
    /// Resume from a checkpoint string previously handed to
    /// `on_checkpoint` by a run of the same scenario.
    pub resume: Option<String>,
    /// Checkpoint cadence in trials (0 = never).
    pub checkpoint_every: u64,
    /// Called with `(trials_done, encoded_checkpoint)` at each cadence.
    #[allow(clippy::type_complexity)]
    pub on_checkpoint: Option<&'a dyn Fn(u64, String)>,
}

impl ScenarioEngineOptions<'_> {
    fn is_default(&self) -> bool {
        !self.force_engine
            && self.trial_budget.is_none()
            && self.resume.is_none()
            && self.checkpoint_every == 0
            && self.on_checkpoint.is_none()
    }
}

impl std::fmt::Debug for ScenarioEngineOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioEngineOptions")
            .field("force_engine", &self.force_engine)
            .field("trial_budget", &self.trial_budget)
            .field("resume", &self.resume.is_some())
            .field("checkpoint_every", &self.checkpoint_every)
            .field("on_checkpoint", &self.on_checkpoint.is_some())
            .finish()
    }
}

/// [`run_scenario`] with explicit engine options for the cluster
/// families.
pub fn run_scenario_with(
    spec: &ScenarioSpec,
    threads: usize,
    opts: &ScenarioEngineOptions<'_>,
) -> Result<ScenarioOutcome, CompileError> {
    run_compiled_with(&spec.name, &compile(spec, threads)?, threads, opts)
}

/// Runs a compiled scenario: a cluster family through [`run_family`],
/// a node-level family through its own campaign runner.
fn run_compiled_with(
    name: &str,
    compiled: &CompiledScenario,
    threads: usize,
    opts: &ScenarioEngineOptions<'_>,
) -> Result<ScenarioOutcome, CompileError> {
    let run = |shape: &'static Shape,
               trials: u64,
               span: u32,
               trial: &(dyn Fn(u64, &mut Tally) + Sync)| {
        run_family(name, shape, trials, span, trial, threads, opts)
    };
    let outcome = match compiled {
        CompiledScenario::NetStorm(c) => {
            return run(&NET_STORM, c.trials, c.cycles, &|i, t| c.run_trial(i, t))
        }
        CompiledScenario::ValueDomain(c) => {
            let clean = c.clean_reference();
            return run(&VALUE_DOMAIN, c.trials, c.cycles, &|i, t| {
                c.run_trial(&clean, i, t)
            });
        }
        CompiledScenario::Blackout(c) => {
            return run(&BLACKOUT, c.trials, c.span(), &|i, t| c.run_trial(i, t))
        }
        CompiledScenario::Recovery(c) => {
            return run(&RECOVERY, c.trials, c.cycles, &|i, t| c.run_trial(i, t))
        }
        CompiledScenario::Cluster(c) => {
            return run(&CLUSTER, c.trials, c.spec.cycles, &|i, t| {
                run_cluster_trial(c, i, t)
            })
        }
        _ if !opts.is_default() => {
            return Err(CompileError {
                scenario: name.to_string(),
                message: "engine options (--engine / --trial-budget-ms / --checkpoint / \
                          --resume) require a cluster-family scenario"
                    .to_string(),
            })
        }
        CompiledScenario::WeaklyHard(config) => {
            let r = run_miss_pattern_campaign(config);
            ScenarioOutcome::new(
                name,
                r.trials,
                vec![
                    ("certified".into(), r.certified_trials),
                    ("uncertified".into(), r.trials - r.certified_trials),
                    ("violating".into(), r.violating_trials),
                    ("bound_reached".into(), r.bound_reached_trials),
                ],
                vec![
                    ("certified_violations".into(), r.certified_violations),
                    ("bound_breaches".into(), r.bound_breaches),
                    ("total_misses".into(), r.total_misses),
                    (
                        "worst_window_misses".into(),
                        u64::from(r.worst_window_misses),
                    ),
                    ("total_excess_distance".into(), r.total_excess_distance),
                ],
            )
        }
        CompiledScenario::Multicore(config) => {
            let r = run_multicore_campaign(config);
            ScenarioOutcome::new(
                name,
                r.trials,
                vec![
                    ("crash".into(), r.crash_trials),
                    ("escalated".into(), r.escalated_trials),
                ],
                vec![
                    ("lock_failed_crash".into(), r.lock_failed_crash_trials),
                    ("lock_clean_crash".into(), r.lock_clean_crash_trials),
                    ("lock_clean_escalated".into(), r.lock_clean_escalated_trials),
                    ("lock_deadlocks".into(), r.lock_deadlocks),
                    ("lock_misses".into(), r.lock_misses),
                    ("leftrs_misses".into(), r.leftrs_misses),
                    ("leftrs_deadlocks".into(), r.leftrs_deadlocks),
                    ("leftrs_clean".into(), r.leftrs_clean_trials),
                    ("leftrs_max_retries".into(), u64::from(r.leftrs_max_retries)),
                    ("retry_bound_breaches".into(), r.retry_bound_breaches),
                    ("escalation_events".into(), r.escalation_events),
                    ("uncertified_tasks".into(), r.uncertified_tasks),
                ],
            )
        }
        CompiledScenario::Node(config) => {
            let r = run_campaign(config);
            ScenarioOutcome::new(
                name,
                r.trials,
                vec![
                    ("masked".into(), r.modes.masked),
                    ("omission".into(), r.modes.omission),
                    ("fail_silent".into(), r.modes.fail_silent),
                    ("undetected".into(), r.modes.undetected),
                ],
                vec![
                    ("param_detected".into(), r.counts.detected),
                    ("param_undetected".into(), r.counts.undetected),
                    ("param_masked".into(), r.counts.masked),
                    ("param_omissions".into(), r.counts.omissions),
                    ("param_fail_silent".into(), r.counts.fail_silent),
                    ("param_benign".into(), r.counts.benign),
                    ("ecc_escaped".into(), r.ecc_escaped),
                ],
            )
        }
    };
    Ok(outcome)
}

/// Runs one cluster family's `trials` on the campaign engine, each
/// trial writing into a fresh [`Tally`] with distributions over
/// `0..=span`. Every trial forks its own labelled stream off the
/// scenario seed and block partials fold in block order, so the
/// outcome — digest included — is identical for any thread count, with
/// or without `force_engine`, and across a checkpoint/resume split.
fn run_family(
    name: &str,
    shape: &'static Shape,
    trials: u64,
    span: u32,
    trial: &(dyn Fn(u64, &mut Tally) + Sync),
    threads: usize,
    opts: &ScenarioEngineOptions<'_>,
) -> Result<ScenarioOutcome, CompileError> {
    let resume = opts
        .resume
        .as_deref()
        .map(|text| decode_resume(text, name, shape, span, trials))
        .transpose()
        .map_err(|e| CompileError {
            scenario: name.to_string(),
            message: format!("bad resume checkpoint: {e}"),
        })?;
    let campaign = nlft_engine::indexed_campaign(
        shape.campaign,
        shape.rng_label,
        trials,
        || Tally::empty(shape, span),
        |i, _ctx, tally: &mut Tally| trial(i, tally),
        |into: &mut Tally, from| into.merge(from),
    );
    let engine = EngineConfig {
        workers: threads.max(1),
        trial_budget: opts.trial_budget,
        checkpoint_every: opts.checkpoint_every,
        ..EngineConfig::default()
    };
    let save = opts.on_checkpoint.map(|f| {
        move |done: u64, acc: &Tally| {
            let point = ResumePoint {
                trials_done: done,
                acc: acc.clone(),
            };
            f(
                done,
                format!("scenario {name} {}", checkpoint::encode(&point)),
            );
        }
    });
    let options = CampaignOptions {
        resume,
        on_checkpoint: save.as_ref().map(|f| f as &dyn Fn(u64, &Tally)),
    };
    let run = if opts.force_engine {
        nlft_engine::run_campaign_with(campaign, &engine, options)
    } else {
        nlft_engine::run_trials_with(campaign, &engine, options)
    };
    Ok(run.acc.into_outcome(name))
}

/// Decodes a checkpoint written by [`run_family`] and refuses one that
/// belongs to another scenario, family or span, claims more trials than
/// the scenario has, or whose tally does not hold exactly the trials it
/// claims (a checkpoint taken after a trial timed out or panicked
/// records no trace of it, so resuming would lose the trial silently).
fn decode_resume(
    text: &str,
    name: &str,
    shape: &Shape,
    span: u32,
    trials: u64,
) -> Result<ResumePoint<Tally>, String> {
    let mut reader = TokenReader::new(text);
    reader.expect_tag("scenario")?;
    let named = reader.next_token()?;
    if named != name {
        return Err(format!("checkpoint is for scenario `{named}`"));
    }
    let point = ResumePoint::<Tally>::decode(&mut reader)?;
    reader.finish()?;
    let (done, acc) = (point.trials_done, &point.acc);
    let (family, got) = (acc.shape().family, acc.span());
    Err(if family != shape.family {
        format!(
            "checkpoint is for family `{family}`, not `{}`",
            shape.family
        )
    } else if got != span {
        format!("checkpoint spans {got} cycles, the scenario {span}")
    } else if done > trials {
        format!("checkpoint has {done} trials done, the scenario has {trials}")
    } else if acc.trials() != done {
        let held = acc.trials();
        format!("tally holds {held} trials, the checkpoint claims {done}")
    } else {
        return Ok(point);
    })
}

/// The free-form `cluster` family's outcome shape.
pub(crate) const CLUSTER: Shape = Shape {
    family: "cluster",
    campaign: "bbw-cluster-scenario",
    rng_label: "scenario-trial",
    verdicts: &[
        "undetected",
        "split_membership",
        "service_lost",
        "degraded_episode",
        "omission_only",
        "unaffected",
    ],
    metrics: &[
        ("omissions", Fold::Sum),
        ("degraded_cycles", Fold::Sum),
        ("injected", Fold::Sum),
        ("crc_rejects", Fold::Sum),
        ("guardian_blocks", Fold::Sum),
        ("masquerade_rejects", Fold::Sum),
        ("corruptions_applied", Fold::Sum),
        ("masquerades_applied", Fold::Sum),
        ("restarts", Fold::Sum),
        ("retired_nodes", Fold::Sum),
        ("escalations", Fold::Sum),
        ("contract_misses", Fold::Sum),
        ("contract_violations", Fold::Sum),
        ("held_setpoint_cycles", Fold::Sum),
        ("sensor_demotions", Fold::Sum),
        ("actuator_trips", Fold::Sum),
        ("undetected_value_failures", Fold::Sum),
        ("core_deaths", Fold::Sum),
        ("reintegrations", Fold::Sum),
        ("reintegration_cycles", Fold::Sum),
    ],
    details: &[],
    distributions: &["reintegration_latencies"],
};

/// Runs one trial of a cluster scenario: builds the cluster from the
/// declaration, attaches every fault line, runs the pedal profile.
fn run_cluster_trial(config: &ClusterScenarioConfig, trial: u64, t: &mut Tally) {
    let root = RngStream::new(config.seed);
    let rng = root.fork_indexed(CLUSTER.rng_label, trial);
    let mut cluster = BbwCluster::with_rng(rng.fork("pedal-sensors"));
    let spec = &config.spec;
    for &(node, kind) in &spec.nodes {
        match kind {
            NodeKind::SingleCore => {}
            NodeKind::DualCoreLock => {
                cluster.enable_dual_core(node_id(node), ProtocolKind::LockBased)
            }
            NodeKind::DualCoreLeftRs => {
                cluster.enable_dual_core(node_id(node), ProtocolKind::LeftRs)
            }
        }
    }
    if spec.startup {
        cluster.enable_startup();
    }
    if spec.supervise {
        cluster.supervise_all(AlphaCountConfig::default(), EscalationPolicy::default());
    }
    if let Some(contracts) = spec.contracts {
        let contracts = contracts.map(|(m, k)| MkContract::new(m, k));
        cluster.set_wheel_contracts(contracts);
    }
    if let Some(plan) = build_net_plan(spec).expect("plan validated at compile time") {
        cluster.attach_net_faults(plan, rng.fork("net-injector"));
    }
    for (i, fault) in spec.faults.iter().enumerate() {
        match fault {
            FaultLine::Storm { .. }
            | FaultLine::Rates { .. }
            | FaultLine::Dynamic { .. }
            | FaultLine::Blackout { .. } => {}
            FaultLine::Transient {
                node,
                cycle,
                copy,
                at,
            } => {
                cluster.inject(ClusterInjection {
                    cycle: *cycle,
                    node: node_id(*node),
                    copy: *copy,
                    at_cycle: *at,
                    fault: pc_fault(),
                });
            }
            FaultLine::StuckAtPc { node, bit } => {
                cluster.attach_stuck_at(
                    node_id(*node),
                    StuckAtFault {
                        target: FaultTarget::Pc,
                        bit: 1 << bit,
                        stuck_high: true,
                    },
                );
            }
            FaultLine::Intermittent {
                node,
                recurrence,
                burst,
            } => {
                cluster.attach_intermittent(
                    node_id(*node),
                    IntermittentFault {
                        fault: pc_fault(),
                        recurrence: *recurrence,
                        burst_jobs: *burst,
                    },
                    rng.fork_indexed("scenario-intermittent", i as u64),
                );
            }
            FaultLine::CoreDeath {
                node,
                cycle,
                escalated,
            } => {
                cluster.attach_core_death(*cycle, node_id(*node), *escalated);
            }
            FaultLine::Sensor {
                channel,
                fault,
                onset,
            } => {
                let fault = match *fault {
                    SensorFaultSpec::StuckAt(v) => SensorFault::StuckAt(v),
                    SensorFaultSpec::Offset(v) => SensorFault::Offset(v),
                    SensorFaultSpec::Drift(per_cycle) => SensorFault::Drift { per_cycle },
                    SensorFaultSpec::Noise { amplitude, cycles } => {
                        SensorFault::NoiseBurst { amplitude, cycles }
                    }
                };
                cluster.attach_sensor_fault(*channel as usize, fault, *onset);
            }
            FaultLine::Actuator {
                wheel,
                fault,
                onset,
            } => {
                let fault = match *fault {
                    ActuatorFaultSpec::Stuck => ActuatorFault::Stuck,
                    ActuatorFaultSpec::Runaway { step } => ActuatorFault::Runaway { step },
                    ActuatorFaultSpec::Offset(v) => ActuatorFault::Offset(v),
                };
                cluster.attach_actuator_fault(*wheel as usize, fault, *onset);
            }
            FaultLine::Silence { node, cycles } => {
                cluster.silence_node(node_id(*node), *cycles);
            }
        }
    }
    let report = match spec.pedal {
        PedalSpec::Constant(v) => cluster.run(spec.cycles, move |_| v),
        PedalSpec::Ramp { base, slope, max } => cluster.run(spec.cycles, move |cycle| {
            base.saturating_add(slope.saturating_mul(cycle)).min(max)
        }),
    };
    let sum = |xs: &[u32]| xs.iter().map(|&x| u64::from(x)).sum::<u64>();
    let value = &report.value;
    let undetected_value = u64::from(value.undetected_value_failures());
    let verdict = if undetected_value > 0 {
        "undetected"
    } else {
        system_verdict(&report)
    };
    t.trial(
        verdict,
        &[
            ("omissions", u64::from(report.omissions)),
            ("degraded_cycles", u64::from(report.degraded_cycles)),
            ("injected", cluster.net_injection_counts().total()),
            ("crc_rejects", report.crc_rejects),
            ("guardian_blocks", report.guardian_blocks),
            ("masquerade_rejects", report.masquerade_rejects),
            ("corruptions_applied", report.corruptions_applied),
            ("masquerades_applied", report.masquerades_applied),
            ("restarts", u64::from(report.restarts)),
            ("retired_nodes", report.retired_nodes.len() as u64),
            ("escalations", report.escalations.len() as u64),
            ("contract_misses", sum(&report.wheel_contract_misses)),
            (
                "contract_violations",
                sum(&report.wheel_contract_violations),
            ),
            (
                "held_setpoint_cycles",
                u64::from(value.held_setpoint_cycles),
            ),
            ("sensor_demotions", u64::from(value.sensor_demotions)),
            ("actuator_trips", value.actuator_trips.len() as u64),
            ("undetected_value_failures", undetected_value),
            ("core_deaths", report.core_deaths.len() as u64),
            (
                "reintegrations",
                report.reintegration_latencies.len() as u64,
            ),
            ("reintegration_cycles", sum(&report.reintegration_latencies)),
        ],
        &[],
    );
    for &latency in &report.reintegration_latencies {
        t.observe(0, latency);
    }
}

/// Runs a `family` scenario with the given `params` lines (for tests).
#[cfg(test)]
pub(crate) fn run_params(
    family: &str,
    trials: u64,
    seed: u64,
    params: &str,
    threads: usize,
) -> ScenarioOutcome {
    let source = format!(
        "scenario {family}\nfamily {family}\ntrials {trials}\nseed {seed}\n\
         params\n{params}\nend\nend\n"
    );
    let spec = nlft_reliability::scenario::parse_scenario(&source).expect("test scenario parses");
    run_scenario(&spec, threads).expect("test scenario runs")
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlft_reliability::scenario::parse_scenario;

    fn spec(source: &str) -> ScenarioSpec {
        parse_scenario(source).expect("test scenario parses")
    }

    #[test]
    fn outcome_is_thread_invariant() {
        let spec = spec(
            "scenario threads\nfamily cluster\ntrials 5\nseed 0xfeed\n\
             topology\ncycles 12\nend\nfaults\nstorm 0.4\nend\nend\n",
        );
        let one = run_scenario(&spec, 1).unwrap();
        let two = run_scenario(&spec, 2).unwrap();
        let five = run_scenario(&spec, 5).unwrap();
        assert_eq!(one, two);
        assert_eq!(one, five);
    }

    #[test]
    fn accept_clause_checks_counters_and_pin() {
        let source = "scenario a\nfamily recovery\ntrials 4\nseed 0x11\n\
             accept\nrequire_zero missed_permanent\nmax service_lost 4\nend\nend\n";
        let s = spec(source);
        let outcome = run_scenario(&s, 1).unwrap();
        assert!(check_accept(&s, &outcome).is_empty());
        let mut pinned = s.clone();
        pinned.accept.pin = Some(outcome.digest ^ 1);
        let failures = check_accept(&pinned, &outcome);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("does not match pin"), "{failures:?}");
    }

    #[test]
    fn compile_rejects_core_death_on_single_core_node() {
        let s = spec(
            "scenario bad\nfamily cluster\ntrials 1\nseed 1\n\
             faults\ncore_death wheel_fl 5\nend\nend\n",
        );
        let e = compile(&s, 1).unwrap_err();
        assert!(e.message.contains("dual-core"), "{e}");
    }

    #[test]
    fn compile_rejects_zero_trials() {
        let s = spec("scenario z\nfamily recovery\ntrials 0\nseed 1\nend\n");
        assert!(compile(&s, 1).is_err());
    }

    #[test]
    fn cluster_scenario_exercises_every_fault_line() {
        let s = spec(
            "scenario all-lines\nfamily cluster\ntrials 2\nseed 0xabc\n\
             topology\ncycles 24\npedal ramp 400 60 3000\n\
             node wheel_fl dual_core_left_rs\nstartup off\nsupervise on\nend\n\
             faults\n\
             storm 0.2 from 4 until 12\n\
             rates cu_b babble 0.1\n\
             dynamic 0.05 0.05\n\
             blackout 14 2 1 wheel_rr\n\
             transient wheel_rl 6 0 20\n\
             stuck_at wheel_fr 20\n\
             intermittent cu_a 0.5 6\n\
             core_death wheel_fl 8 escalated\n\
             sensor 0 drift 3 onset 5\n\
             actuator 2 runaway 50 onset 6\n\
             silence cu_b 3\n\
             end\n\
             contracts\nwheel fl 2 8\nend\nend\n",
        );
        let outcome = run_scenario(&s, 1).unwrap();
        assert_eq!(outcome.trials, 2);
        let total: u64 = outcome.verdicts.iter().map(|&(_, v)| v).sum();
        assert_eq!(total, 2, "each trial gets exactly one verdict");
    }

    #[test]
    fn compile_refuses_every_runner_precondition_without_panicking() {
        // One mutant per precondition a runner would otherwise assert.
        let mut mutants: Vec<ScenarioSpec> = [
            ("net_storm", "cycles 1"),
            ("net_storm", "cycles 100001"),
            ("value_domain", "cycles 4"),
            ("blackout", "warmup 1"),
            ("blackout", "recovery 0"),
            ("blackout", "down 0"),
            ("blackout", "min_reset 0"),
            ("blackout", "min_reset 7"),
            ("blackout", "min_reset 5\ninclude_cus off"),
            ("recovery", "cycles 29"),
            ("weakly_hard", "horizon_jobs 4\ncontract 1 8"),
            ("weakly_hard", "horizon_jobs 65"),
            ("weakly_hard", "interval 0 100"),
            ("weakly_hard", "interval 100 100"),
            ("multicore", "cores 1"),
            ("multicore", "horizon 2"),
        ]
        .iter()
        .map(|(family, params)| {
            spec(&format!(
                "scenario m\nfamily {family}\ntrials 2\nseed 1\nparams\n{params}\nend\nend\n"
            ))
        })
        .collect();
        mutants.push(spec(
            "scenario m\nfamily cluster\ntrials 2\nseed 1\ntopology\ncycles 1\nend\nend\n",
        ));
        // A rate the parser already refuses, built directly.
        let mut storm = spec("scenario m\nfamily net_storm\ntrials 2\nseed 1\nend\n");
        if let FamilyParams::NetStorm { intensity, .. } = &mut storm.params {
            *intensity = f64::NAN;
        }
        mutants.push(storm);
        for mutant in &mutants {
            let compiled = std::panic::catch_unwind(|| compile(mutant, 1));
            assert!(matches!(compiled, Ok(Err(_))), "{:?}", mutant.params);
        }
    }

    #[test]
    fn compile_accepts_the_boundary_values() {
        for (family, params) in [
            ("value_domain", "cycles 8"),
            ("blackout", "warmup 2\nrecovery 1\nmin_reset 6"),
            ("blackout", "min_reset 4\ninclude_cus off"),
            ("recovery", "cycles 30"),
            ("weakly_hard", "horizon_jobs 8\ncontract 1 8\ninterval 1 2"),
            ("multicore", "horizon 4"),
        ] {
            let source = format!(
                "scenario b\nfamily {family}\ntrials 1\nseed 1\nparams\n{params}\nend\nend\n"
            );
            assert!(compile(&spec(&source), 1).is_ok(), "{family}: {params}");
        }
    }

    const STORM: &str =
        "scenario storm\nfamily net_storm\ntrials 6\nseed 0x5708\nparams\ncycles 12\nend\nend\n";

    /// `source` run at one worker; returns its outcome and the checkpoint
    /// taken after four trials.
    fn checkpointed(source: &str) -> (ScenarioOutcome, String) {
        let first = std::cell::RefCell::new(None);
        let save = |_: u64, text: String| {
            first.borrow_mut().get_or_insert(text);
        };
        let opts = ScenarioEngineOptions {
            checkpoint_every: 4,
            on_checkpoint: Some(&save),
            ..ScenarioEngineOptions::default()
        };
        let outcome = run_scenario_with(&spec(source), 1, &opts).unwrap();
        (outcome, first.into_inner().unwrap())
    }

    fn resumed(source: &str, threads: usize, text: &str) -> Result<ScenarioOutcome, CompileError> {
        let opts = ScenarioEngineOptions {
            resume: Some(text.to_string()),
            ..ScenarioEngineOptions::default()
        };
        run_scenario_with(&spec(source), threads, &opts)
    }

    /// The refusal of resuming `source` from `text`.
    fn refusal(source: &str, text: &str) -> String {
        let e = resumed(source, 1, text).unwrap_err();
        assert!(e.message.starts_with("bad resume checkpoint: "), "{e}");
        e.message
    }

    #[test]
    fn a_mid_run_checkpoint_resumes_to_the_same_outcome() {
        let (whole, text) = checkpointed(STORM);
        assert!(text.starts_with("scenario storm resume 4 tally net_storm "));
        for threads in [1, 2] {
            assert_eq!(resumed(STORM, threads, &text).unwrap(), whole);
        }
    }

    #[test]
    fn resume_refuses_another_scenarios_checkpoint() {
        let other = STORM.replace("scenario storm", "scenario other");
        let e = refusal(&other, &checkpointed(STORM).1);
        assert!(e.contains("for scenario `storm`"), "{e}");
    }

    #[test]
    fn resume_refuses_another_familys_checkpoint() {
        let recovery = "scenario storm\nfamily recovery\ntrials 6\nseed 1\nend\n";
        let e = refusal(recovery, &checkpointed(STORM).1);
        assert!(e.contains("family `net_storm`, not `recovery`"), "{e}");
    }

    #[test]
    fn resume_refuses_a_checkpoint_of_another_span() {
        let longer = STORM.replace("cycles 12", "cycles 13");
        let e = refusal(&longer, &checkpointed(STORM).1);
        assert!(e.contains("spans 12 cycles"), "{e}");
    }

    #[test]
    fn resume_refuses_more_trials_done_than_the_scenario_has() {
        let shorter = STORM.replace("trials 6", "trials 3");
        let e = refusal(&shorter, &checkpointed(STORM).1);
        assert!(e.contains("4 trials done, the scenario has 3"), "{e}");
    }

    #[test]
    fn resume_refuses_a_tally_that_does_not_hold_the_trials_done() {
        let forged = checkpointed(STORM).1.replace("resume 4 ", "resume 2 ");
        let e = refusal(STORM, &forged);
        assert!(
            e.contains("tally holds 4 trials, the checkpoint claims 2"),
            "{e}"
        );
    }

    #[test]
    fn resume_refuses_malformed_checkpoints() {
        let text = checkpointed(STORM).1;
        let truncated = &text[..text.trim_end().rfind(' ').unwrap()];
        for bad in [
            "",
            truncated,
            &format!("{text} 7"),
            &text.replace("net_storm", "no_such_family"),
            &text.replace("net_storm 12", "net_storm 4294967295"),
        ] {
            refusal(STORM, bad);
        }
    }

    #[test]
    fn storm_and_blackout_outcomes_do_not_grow_with_the_trial_count() {
        let size = |o: &ScenarioOutcome| {
            let bins: usize = o.distributions.iter().map(|(_, h)| h.bins().len()).sum();
            o.verdicts.len() + o.metrics.len() + o.details.len() + bins
        };
        for family in ["net_storm", "blackout"] {
            let (few, more) = (
                run_params(family, 2, 3, "", 2),
                run_params(family, 8, 3, "", 2),
            );
            assert!(more.distributions.iter().any(|(_, h)| h.count() > 0));
            assert_eq!(size(&few), size(&more), "{family}");
        }
    }
}
