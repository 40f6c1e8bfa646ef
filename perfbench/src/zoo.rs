//! The two scenario-zoo workloads: the `.scn` files are read, parsed
//! and compiled through the public DSL entry points, scaled by one
//! common trial factor, and run back to back through
//! `bbw::scenario::run_scenario`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use nlft_bbw::scenario::{check_accept, compile, run_scenario, CompileError, ScenarioOutcome};
use nlft_reliability::scenario::{parse_scenario, ScenarioSpec};
use nlft_sim::rng::RngStream;

use crate::trace::Tracer;
use crate::{Checks, Rep, DEFAULT_SEED};

/// Families whose trials simulate the six-node BBW cluster.
pub const CLUSTER_FAMILIES: [&str; 5] = [
    "cluster",
    "net_storm",
    "value_domain",
    "blackout",
    "recovery",
];
/// Families that run a single node and no cluster.
pub const NODE_FAMILIES: [&str; 3] = ["node", "multicore", "weakly_hard"];

/// Trial factor of `cluster-zoo` (its scenarios run 8–24 trials each).
pub const CLUSTER_SCALE: u64 = 10;
/// Trial factor of `node-zoo` (its scenarios run 24–300 trials each).
pub const NODE_SCALE: u64 = 40;

/// Every `.scn` file of the zoo of the repository this benchmark was
/// built from, sorted by file name.
pub fn read_zoo() -> Result<Vec<(PathBuf, String)>, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../scenarios");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "scn"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let source = std::fs::read_to_string(&p)
                .map_err(|e| format!("cannot read {}: {e}", p.display()))?;
            Ok((p, source))
        })
        .collect()
}

/// Parses every zoo file.
pub fn parse_zoo(files: &[(PathBuf, String)]) -> Result<Vec<ScenarioSpec>, String> {
    files
        .iter()
        .map(|(p, source)| parse_scenario(source).map_err(|e| format!("{}: {e}", p.display())))
        .collect()
}

/// The per-scenario seed for a workload seed: the zoo's own seed at the
/// default, an independent labelled draw otherwise.
pub fn scenario_seed(spec: &ScenarioSpec, workload_seed: u64) -> u64 {
    if workload_seed == DEFAULT_SEED {
        spec.seed
    } else {
        RngStream::new(workload_seed).fork(&spec.name).next_u64()
    }
}

/// A set-up zoo workload: the native scenarios (for the pin oracle) and
/// their scaled, reseeded twins (the timed campaign).
#[derive(Debug, Clone)]
pub struct ZooCampaign {
    /// The scenarios as written in the zoo.
    pub native: Vec<ScenarioSpec>,
    /// The same scenarios with trials × scale and the workload seed.
    pub scaled: Vec<ScenarioSpec>,
}

impl ZooCampaign {
    /// Set-up: read, parse and compile the zoo files of `families`, and
    /// derive the scaled campaign. Compilation validates every scenario
    /// the campaign will run; its result is dropped because
    /// `run_scenario` compiles again (microseconds) on dispatch.
    pub fn setup(
        families: &[&str],
        scale: u64,
        seed: u64,
        workers: usize,
        tracer: &mut Tracer,
    ) -> Result<Self, String> {
        let files = tracer.span("fs.read_zoo", |_| read_zoo())?;
        let parsed = tracer.span("reliability.parse_scenario", |_| parse_zoo(&files))?;
        let native: Vec<ScenarioSpec> = parsed
            .into_iter()
            .filter(|s| families.contains(&s.params.family()))
            .collect();
        let scaled: Vec<ScenarioSpec> = native
            .iter()
            .map(|s| {
                let mut t = s.clone();
                t.trials = s.trials * scale;
                t.seed = scenario_seed(s, seed);
                t
            })
            .collect();
        tracer.span("bbw.compile", |_| {
            for spec in &scaled {
                compile(spec, workers).map_err(|e| e.to_string())?;
            }
            Ok::<(), String>(())
        })?;
        Ok(ZooCampaign { native, scaled })
    }

    /// The pin oracle: every scenario at its zoo trial count and seed
    /// must reproduce its `pin` and acceptance clause.
    pub fn check_native(&self, workers: usize, checks: &mut Checks, tracer: &mut Tracer) {
        for spec in &self.native {
            let name = format!("bbw.run_scenario/{}", spec.name);
            let outcome = tracer.span(&name, |_| run_scenario(spec, workers));
            checks.trials(spec.trials, outcome.as_ref().map_or(0, |o| o.trials));
            checks.check(native_verdict(spec, outcome));
        }
    }

    /// One timed pass over the scaled campaign, scenarios back to back.
    pub fn rep(&self, workers: usize, tracer: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let start = Instant::now();
        for spec in &self.scaled {
            let name = format!("bbw.run_scenario/{}", spec.name);
            let outcome = tracer.span(&name, |_| run_scenario(spec, workers));
            rep.requested += spec.trials;
            match outcome {
                Ok(o) => {
                    rep.completed += o.trials;
                    rep.digests.push((spec.name.clone(), o.digest));
                }
                Err(e) => rep.errors.push(e.to_string()),
            }
        }
        rep.seconds = start.elapsed().as_secs_f64();
        rep
    }
}

/// Whether a native run passed: no compile error, a pin, and an
/// acceptance clause that holds.
pub fn native_verdict(
    spec: &ScenarioSpec,
    outcome: Result<ScenarioOutcome, CompileError>,
) -> Result<(), String> {
    let outcome = outcome.map_err(|e| format!("{}: {e}", spec.name))?;
    if spec.accept.pin.is_none() {
        return Err(format!("{}: zoo scenario has no pin", spec.name));
    }
    let failures = check_accept(spec, &outcome);
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("{}: {}", spec.name, failures.join("; ")))
    }
}
