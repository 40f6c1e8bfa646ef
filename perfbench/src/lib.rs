//! # nlft-perfbench — the campaign benchmark
//!
//! Runs one workload from a single process at [`WORKERS`] workers,
//! measures it for a fixed time, checks that every output is correct,
//! and reports the end-to-end metrics ([`END_TO_END`]) or, in a traced
//! run, the per-layer metrics ([`PER_LAYER`]). The system is driven only
//! through its public entry points; each layer is measured from outside
//! by timing this crate's own calls into it. See `README.md` for why
//! each workload exists and how the layer metrics relate to the
//! end-to-end ones.

#![forbid(unsafe_code)]

pub mod montecarlo;
pub mod probes;
pub mod trace;
pub mod zoo;

use std::time::Instant;

use nlft_engine::EngineReport;
use nlft_testkit::json::Json;

use montecarlo::McCampaign;
use trace::Tracer;
use zoo::ZooCampaign;

/// Worker threads every campaign runs at.
pub const WORKERS: usize = 2;
/// The workload seed that keeps the zoo's own seeds.
pub const DEFAULT_SEED: u64 = 0;
/// Least timed set-up batches per run; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 51;
/// Least time spent repeating set-up, so a sub-millisecond set-up is
/// sampled over enough batches to steady its median.
pub const SETUP_SECONDS: f64 = 0.5;
/// Least duration of one timed set-up batch.
pub const SETUP_BATCH_SECONDS: f64 = 1e-3;
/// Digests of the scaled campaigns at [`DEFAULT_SEED`].
pub const EXPECTED_DIGESTS: &str = include_str!("../expected.txt");

/// A metric's name, unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics of an untraced run, as a user of the system sees them.
pub const END_TO_END: [MetricDef; 3] = [
    def("trials_per_s", "1/s", "higher"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mib", "MiB", "lower"),
];

/// Metrics of a traced run, one layer at a time.
pub const PER_LAYER: [MetricDef; 49] = [
    def("engine.empty_trial_ns", "ns", "lower"),
    def("engine.empty_trial_seq_ns", "ns", "lower"),
    def("engine.blocks", "count", "lower"),
    def("engine.steals", "count", "lower"),
    def("engine.max_pending_blocks", "count", "lower"),
    def("engine.panicked", "count", "lower"),
    def("engine.timed_out", "count", "lower"),
    def("engine.speedup_2w.cluster-zoo", "x", "higher"),
    def("engine.speedup_2w.node-zoo", "x", "higher"),
    def("engine.speedup_2w.fig12-montecarlo", "x", "higher"),
    def("sim.fork_indexed_ns", "ns", "lower"),
    def("machine.ns_per_insn.clean", "ns", "lower"),
    def("machine.ns_per_insn.faulted", "ns", "lower"),
    def("machine.insn_per_run", "count", "lower"),
    def("kernel.tem_job_us.clean", "us", "lower"),
    def("kernel.tem_job_us.faulted", "us", "lower"),
    def("kernel.copies_per_job", "count", "lower"),
    def("kernel.tem_self_us", "us", "lower"),
    def("kernel.tem_self_us.faulted", "us", "lower"),
    def("net.tdma_cycle_us", "us", "lower"),
    def("net.storm_cycle_us", "us", "lower"),
    def("net.crc_rejects", "count", "higher"),
    def("net.guardian_blocks", "count", "higher"),
    def("net.masquerade_rejects", "count", "higher"),
    def("net.injected", "count", "higher"),
    def("bbw.cluster_build_us", "us", "lower"),
    def("bbw.cluster_cycle_us", "us", "lower"),
    def("bbw.cycle_self_us", "us", "lower"),
    def("bbw.compile_ms", "ms", "lower"),
    def("bbw.trial_us.cluster", "us", "lower"),
    def("bbw.trial_us.net_storm", "us", "lower"),
    def("bbw.trial_us.value_domain", "us", "lower"),
    def("bbw.trial_us.blackout", "us", "lower"),
    def("bbw.trial_us.recovery", "us", "lower"),
    def("bbw.trial_us.weakly_hard", "us", "lower"),
    def("bbw.trials.cluster", "count", "higher"),
    def("bbw.trials.net_storm", "count", "higher"),
    def("bbw.trials.value_domain", "count", "higher"),
    def("bbw.trials.blackout", "count", "higher"),
    def("bbw.trials.recovery", "count", "higher"),
    def("bbw.trials.weakly_hard", "count", "higher"),
    def("core.trial_us.node", "us", "lower"),
    def("core.trial_us.multicore", "us", "lower"),
    def("reliability.parse_ms", "ms", "lower"),
    def("reliability.fig12_ms", "ms", "lower"),
    def("trace.trials_per_s.untraced", "1/s", "higher"),
    def("trace.trials_per_s.traced", "1/s", "higher"),
    def("trace.slowdown", "x", "lower"),
    def("trace.spans", "count", "lower"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The zoo scenarios that simulate the six-node cluster.
    ClusterZoo,
    /// The zoo scenarios that run a single node.
    NodeZoo,
    /// Fig. 12 analytic curves plus the Monte-Carlo cross-check.
    Fig12MonteCarlo,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::ClusterZoo,
        Workload::NodeZoo,
        Workload::Fig12MonteCarlo,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClusterZoo => "cluster-zoo",
            Workload::NodeZoo => "node-zoo",
            Workload::Fig12MonteCarlo => "fig12-montecarlo",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Correctness bookkeeping: trials and checks attempted, and failed.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Trials requested plus checks performed.
    pub attempted: u64,
    /// Trials not completed plus checks failed.
    pub failed: u64,
    /// What failed.
    pub messages: Vec<String>,
}

impl Checks {
    /// Records one correctness check.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = result {
            self.failed += 1;
            self.messages.push(message);
        }
    }

    /// Records a campaign: trials requested and trials completed.
    pub fn trials(&mut self, requested: u64, completed: u64) {
        self.attempted += requested;
        let missing = requested.saturating_sub(completed);
        if missing > 0 {
            self.failed += missing;
            self.messages
                .push(format!("{missing} of {requested} trials did not complete"));
        }
    }

    /// Failed over attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One timed pass over a workload's campaign.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds the pass took.
    pub seconds: f64,
    /// Trials (or replications) requested.
    pub requested: u64,
    /// Trials completed.
    pub completed: u64,
    /// `(campaign, digest)` of every campaign in the pass.
    pub digests: Vec<(String, u32)>,
    /// Campaigns that could not run.
    pub errors: Vec<String>,
    /// What the engine observed, for campaigns that report it.
    pub engine: Vec<EngineReport>,
}

impl Rep {
    /// Completed trials per host second.
    pub fn rate(&self) -> f64 {
        self.completed as f64 / self.seconds
    }
}

/// A set-up workload, ready to dispatch its first trial.
#[derive(Debug, Clone)]
pub enum Prepared {
    /// A zoo workload.
    Zoo(ZooCampaign),
    /// The Monte-Carlo workload.
    Mc(McCampaign),
}

impl Prepared {
    /// Reads, parses and compiles the workload's inputs.
    pub fn setup(workload: Workload, seed: u64, tracer: &mut Tracer) -> Result<Prepared, String> {
        tracer.span(&format!("setup/{}", workload.name()), |t| {
            Ok(match workload {
                Workload::ClusterZoo => Prepared::Zoo(ZooCampaign::setup(
                    &zoo::CLUSTER_FAMILIES,
                    zoo::CLUSTER_SCALE,
                    seed,
                    WORKERS,
                    t,
                )?),
                Workload::NodeZoo => Prepared::Zoo(ZooCampaign::setup(
                    &zoo::NODE_FAMILIES,
                    zoo::NODE_SCALE,
                    seed,
                    WORKERS,
                    t,
                )?),
                Workload::Fig12MonteCarlo => Prepared::Mc(McCampaign::setup(seed, t)),
            })
        })
    }

    /// Checks made once before timing: the zoo pins.
    pub fn check_before(&self, checks: &mut Checks, tracer: &mut Tracer) {
        if let Prepared::Zoo(z) = self {
            tracer.span("oracle/native-zoo", |t| z.check_native(WORKERS, checks, t));
        }
    }

    /// One pass over the campaign at `workers`, with its per-pass checks
    /// (trial completion; for Monte-Carlo the golden digest and bands).
    pub fn rep(&self, workers: usize, checks: &mut Checks, tracer: &mut Tracer) -> Rep {
        let rep = match self {
            Prepared::Zoo(z) => z.rep(workers, tracer),
            Prepared::Mc(m) => {
                let (rep, accs) = m.pass(workers, checks, tracer);
                m.check_bands(&accs, checks);
                rep
            }
        };
        checks.trials(rep.requested, rep.completed);
        for e in &rep.errors {
            checks.check(Err(e.clone()));
        }
        rep
    }
}

/// Checks a pass's digests against the first pass's (they must repeat
/// exactly).
pub fn check_repeat(first: &Rep, rep: &Rep, checks: &mut Checks) {
    checks.check(if first.digests == rep.digests {
        Ok(())
    } else {
        Err("campaign digests differ between passes of the same inputs".to_string())
    })
}

/// Checks a pass's digests against the ones recorded for `workload` in
/// `expected` (lines of `workload campaign 0xdigest`).
pub fn check_expected(workload: Workload, rep: &Rep, expected: &str, checks: &mut Checks) {
    for (campaign, digest) in &rep.digests {
        let recorded = expected.lines().find_map(|line| {
            let mut words = line.split_whitespace();
            (words.next() == Some(workload.name()) && words.next() == Some(campaign))
                .then(|| words.next())
                .flatten()
                .and_then(|hex| u32::from_str_radix(hex.trim_start_matches("0x"), 16).ok())
        });
        checks.check(match recorded {
            Some(r) if r == *digest => Ok(()),
            Some(r) => Err(format!(
                "{} {campaign}: digest 0x{digest:08x}, recorded 0x{r:08x}",
                workload.name()
            )),
            None => Err(format!(
                "{} {campaign}: digest 0x{digest:08x}, none recorded",
                workload.name()
            )),
        });
    }
}

/// The median of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// First quartile, median and third quartile of `values`, linearly
/// interpolated between order statistics.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let x = p * (v.len() - 1) as f64;
        let (i, f) = (x.floor() as usize, x.fract());
        v[i] + f * (v[(i + 1).min(v.len() - 1)] - v[i])
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// How long the campaign phase measures, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".to_string());
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_string()),
                    }
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// Everything a run produced.
#[derive(Debug)]
pub struct Report {
    /// Host, build and input description.
    pub host: Json,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// Correctness bookkeeping.
    pub checks: Checks,
    /// `(name, value)` in the order of the metric definitions.
    pub metrics: Vec<(MetricDef, f64)>,
    /// The tracer, with its spans when traced.
    pub tracer: Tracer,
}

impl Report {
    /// The result line: `{correct, attempted, failed, metrics}`.
    pub fn result_json(&self) -> Json {
        Json::obj([
            ("correct", Json::from(self.checks.failed == 0)),
            ("attempted", Json::from(self.checks.attempted)),
            ("failed", Json::from(self.checks.failed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(d, v)| {
                    (
                        d.name,
                        Json::obj([("value", Json::Num(*v)), ("unit", Json::from(d.unit))]),
                    )
                })),
            ),
        ])
    }
}

/// Orders measured values by `defs`, refusing a missing or unknown name.
pub fn collect(
    defs: &[MetricDef],
    values: &[(&str, f64)],
) -> Result<Vec<(MetricDef, f64)>, String> {
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| !defs.iter().any(|d| d.name == *n))
    {
        return Err(format!("metric `{name}` is not defined"));
    }
    defs.iter()
        .map(|d| {
            values
                .iter()
                .find(|(n, _)| *n == d.name)
                .map(|&(_, v)| (*d, v))
                .ok_or_else(|| format!("metric `{}` was not measured", d.name))
        })
        .collect()
}

/// The host section recorded with every result.
pub fn host_json(args: &Args) -> Json {
    Json::obj([
        (
            "available_parallelism",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
        ),
        ("workers", Json::from(WORKERS)),
        (
            "profile",
            Json::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("workload", Json::from(args.workload.name())),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::from(args.trace)),
    ])
}

/// Set-up timed in batches of at least [`SETUP_BATCH_SECONDS`] (each
/// set-up also drops the one before it), for at least [`SETUP_ROUNDS`]
/// batches and [`SETUP_SECONDS`]; returns the last prepared workload
/// and the median time per set-up. Only the first set-up records spans.
pub fn timed_setup(
    workload: Workload,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(Prepared, f64), String> {
    let was_enabled = tracer.enabled();
    let mut per_setup = Vec::new();
    let mut prepared = None;
    let phase = Instant::now();
    while per_setup.len() < SETUP_ROUNDS || phase.elapsed().as_secs_f64() < SETUP_SECONDS {
        let start = Instant::now();
        let mut count = 0u32;
        while count == 0 || start.elapsed().as_secs_f64() < SETUP_BATCH_SECONDS {
            prepared = Some(Prepared::setup(workload, seed, tracer)?);
            tracer.set_enabled(false);
            count += 1;
        }
        per_setup.push(start.elapsed().as_secs_f64() / f64::from(count));
    }
    tracer.set_enabled(was_enabled);
    Ok((prepared.expect("at least one set-up"), median(&per_setup)))
}

/// The campaign phase: one warm-up pass, then passes until `seconds`
/// have elapsed (at least one). With `alternate_trace`, every other
/// measured pass records spans. Returns the measured passes with
/// whether each was traced.
pub fn campaign_phase(
    workload: Workload,
    prepared: &Prepared,
    seed: u64,
    seconds: f64,
    alternate_trace: bool,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> Vec<(Rep, bool)> {
    let was_enabled = tracer.enabled();
    let warm = prepared.rep(WORKERS, checks, tracer);
    if seed == DEFAULT_SEED {
        check_expected(workload, &warm, EXPECTED_DIGESTS, checks);
    }
    let mut reps = Vec::new();
    let start = Instant::now();
    while reps.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let traced = alternate_trace && reps.len() % 2 == 1;
        tracer.set_enabled(was_enabled && (traced || !alternate_trace));
        let rep = tracer.span(&format!("campaign/{}", workload.name()), |t| {
            prepared.rep(WORKERS, checks, t)
        });
        check_repeat(&warm, &rep, checks);
        reps.push((rep, traced));
    }
    tracer.set_enabled(was_enabled);
    reps
}

/// Runs the benchmark as `args` asks.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut tracer = Tracer::new(args.trace);
    let mut checks = Checks::default();
    let mut lines = Vec::new();
    let (prepared, setup_s) = timed_setup(args.workload, args.seed, &mut tracer)?;
    prepared.check_before(&mut checks, &mut tracer);
    let reps = campaign_phase(
        args.workload,
        &prepared,
        args.seed,
        args.seconds,
        args.trace,
        &mut checks,
        &mut tracer,
    );
    let rates = |traced: bool| -> Vec<f64> {
        reps.iter()
            .filter(|(_, t)| *t == traced)
            .map(|(r, _)| r.rate())
            .collect()
    };
    let untraced = median(&rates(false));
    let all: Vec<f64> = reps.iter().map(|(r, _)| r.rate()).collect();
    let q = quartiles(&all);
    lines.push(format!(
        "campaign {}: {} passes in {:.1} s, trials/s quartiles {:.1} {:.1} {:.1}",
        args.workload.name(),
        reps.len(),
        reps.iter().map(|(r, _)| r.seconds).sum::<f64>(),
        q[0],
        q[1],
        q[2],
    ));
    let metrics = if args.trace {
        let traced = rates(true);
        let traced = if traced.is_empty() {
            untraced
        } else {
            median(&traced)
        };
        let mut values = probes::run_all(args.seed, &mut checks, &mut tracer, &mut lines)?;
        values.push(("trace.trials_per_s.untraced", untraced));
        values.push(("trace.trials_per_s.traced", traced));
        values.push(("trace.slowdown", untraced / traced));
        values.push(("trace.spans", tracer.spans().len() as f64));
        collect(&PER_LAYER, &values)?
    } else {
        collect(
            &END_TO_END,
            &[
                ("trials_per_s", untraced),
                ("setup_s", setup_s),
                ("peak_rss_mib", peak_rss_mib()?),
            ],
        )?
    };
    lines.push(format!(
        "failed_share {:.6} share ({} failed of {} attempted)",
        checks.failed_share(),
        checks.failed,
        checks.attempted
    ));
    Ok(Report {
        host: host_json(args),
        lines,
        checks,
        metrics,
        tracer,
    })
}
