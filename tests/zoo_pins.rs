//! Integration: every scenario of the `scenarios/` zoo reproduces its
//! golden pin and acceptance clause at one and two threads, so a plain
//! `cargo test` guards the paper-level campaign results and not only the
//! facade wiring. Every cluster-family scenario also reproduces its pin
//! across a mid-run checkpoint resumed at one and two workers, and every
//! node-level scenario refuses the engine options. `scenario_run verify`
//! is the wider gate (1/2/5 threads).

use std::cell::RefCell;
use std::path::Path;

use nlft::bbw::scenario::{check_accept, run_scenario, run_scenario_with, ScenarioEngineOptions};
use nlft::reliability::scenario::{load_zoo, ScenarioSpec};

/// Families that simulate one node and run outside the engine path.
const NODE_LEVEL: [&str; 3] = ["node", "multicore", "weakly_hard"];

/// Every zoo scenario, sorted by file name.
fn zoo() -> Vec<ScenarioSpec> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let zoo = load_zoo(&dir).unwrap_or_else(|e| panic!("{e}"));
    assert!(!zoo.is_empty(), "no scenarios under {}", dir.display());
    zoo.into_iter().map(|(_, spec)| spec).collect()
}

#[test]
fn every_zoo_scenario_matches_its_pin_at_one_and_two_threads() {
    let mut failures = Vec::new();
    for spec in zoo() {
        if spec.accept.pin.is_none() {
            failures.push(format!("{}: no pin", spec.name));
        }
        for threads in [1, 2] {
            match run_scenario(&spec, threads) {
                Ok(outcome) => failures.extend(
                    check_accept(&spec, &outcome)
                        .into_iter()
                        .map(|f| format!("{} at {threads} threads: {f}", spec.name)),
                ),
                Err(e) => failures.push(format!("{}: compile error: {e}", spec.name)),
            }
        }
    }
    assert!(failures.is_empty(), "zoo drift:\n{}", failures.join("\n"));
}

#[test]
fn cluster_scenarios_resume_to_their_pins_and_node_scenarios_refuse() {
    let mut failures = Vec::new();
    for spec in zoo() {
        let name = &spec.name;
        // Checkpoint halfway through and keep that first checkpoint.
        let first = RefCell::new(None);
        let save = |_: u64, text: String| {
            first.borrow_mut().get_or_insert(text);
        };
        let checkpointing = ScenarioEngineOptions {
            force_engine: true,
            checkpoint_every: (spec.trials / 2).max(1),
            on_checkpoint: Some(&save),
            ..ScenarioEngineOptions::default()
        };
        let run = run_scenario_with(&spec, 2, &checkpointing);
        if NODE_LEVEL.contains(&spec.params.family()) {
            if run.is_ok() {
                failures.push(format!("{name}: engine options were not refused"));
            }
            continue;
        }
        let mut runs = vec![("checkpointed at 2 workers", run)];
        let text = first.into_inner().unwrap_or_default();
        for (how, threads) in [("resumed at 1 worker", 1), ("resumed at 2 workers", 2)] {
            let resuming = ScenarioEngineOptions {
                resume: Some(text.clone()),
                ..ScenarioEngineOptions::default()
            };
            runs.push((how, run_scenario_with(&spec, threads, &resuming)));
        }
        for (how, run) in runs {
            let problems = match run {
                Ok(outcome) => check_accept(&spec, &outcome),
                Err(e) => vec![e.to_string()],
            };
            failures.extend(problems.iter().map(|f| format!("{name} {how}: {f}")));
        }
    }
    assert!(
        failures.is_empty(),
        "resume drift:\n{}",
        failures.join("\n")
    );
}
