//! Scenario-zoo runner: list, run and verify the declarative fault
//! campaigns under `scenarios/`.
//!
//! ```text
//! cargo run --release --bin scenario_run -- list [filter]
//! cargo run --release --bin scenario_run -- run [filter] [--threads N]
//!     [--engine] [--trial-budget-ms N]
//!     [--checkpoint FILE [--checkpoint-every N]] [--resume FILE]
//! cargo run --release --bin scenario_run -- verify [filter]
//! cargo run --release --bin scenario_run -- pin [filter]
//! ```
//!
//! * `list` — names, families and trial counts, optionally filtered by
//!   substring.
//! * `run` — run matching scenarios, print their verdict/metric
//!   counters and digests, and check each acceptance clause; exits
//!   non-zero if any clause fails. Engine flags (the five cluster
//!   families — `cluster`, `net_storm`, `value_domain`, `blackout`,
//!   `recovery`; a matching node-level scenario is refused and fails the
//!   run):
//!   `--engine` forces the threaded executor even at one worker (the
//!   digest must not change — CI uses this as a differential gate
//!   against the sequential reference), `--trial-budget-ms` sets a
//!   per-trial wall-clock budget (an overrunning trial is reported as
//!   timed out), `--checkpoint FILE` streams resumable
//!   checkpoints to a file every `--checkpoint-every` trials, and
//!   `--resume FILE` continues a previously checkpointed run of the
//!   same scenario (a checkpoint of another scenario, family or trial
//!   count is refused).
//! * `verify` — the CI gate: every matching scenario runs at 1, 2 and
//!   5 threads; the three outcomes must be bit-identical and match the
//!   scenario's `pin`. Fails hard on drift or a missing pin.
//! * `pin` — print the `pin 0x…` line for each scenario (for authoring
//!   new zoo entries).
//!
//! Unknown flags, missing values, non-numeric values and
//! `--checkpoint-every` without `--checkpoint` print the usage and exit
//! with status 2.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use nlft_bbw::scenario::{
    check_accept, run_scenario, run_scenario_with, ScenarioEngineOptions, ScenarioOutcome,
};
use nlft_reliability::scenario::{load_zoo, ScenarioSpec};

/// The `scenarios/` directory at the workspace root.
fn zoo_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("scenarios")
}

/// Loads every `*.scn` file whose scenario name contains `filter`,
/// sorted by file name for a stable order.
fn load(filter: Option<&str>) -> Result<Vec<(PathBuf, ScenarioSpec)>, String> {
    let mut zoo = load_zoo(&zoo_dir())?;
    zoo.retain(|(_, spec)| filter.is_none_or(|f| spec.name.contains(f)));
    Ok(zoo)
}

fn print_outcome(outcome: &ScenarioOutcome) {
    println!(
        "  trials {}  digest 0x{:08x}",
        outcome.trials, outcome.digest
    );
    let verdicts: Vec<String> = outcome
        .verdicts
        .iter()
        .filter(|&&(_, v)| v > 0)
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("  verdicts: {}", verdicts.join("  "));
}

fn cmd_list(zoo: &[(PathBuf, ScenarioSpec)]) {
    for (path, spec) in zoo {
        println!(
            "{:<32} {:<12} trials {:<6} {}",
            spec.name,
            spec.params.family(),
            spec.trials,
            path.file_name().and_then(|n| n.to_str()).unwrap_or("?"),
        );
    }
    println!("{} scenarios", zoo.len());
}

const USAGE: &str = "usage: scenario_run [list|run|verify|pin] [filter] [--threads N] [--engine] \
                     [--trial-budget-ms N] [--checkpoint FILE [--checkpoint-every N]] \
                     [--resume FILE]";

/// Engine flags collected from the command line (cluster families only).
#[derive(Debug, Default, PartialEq)]
struct EngineFlags {
    engine: bool,
    trial_budget_ms: Option<u64>,
    checkpoint: Option<PathBuf>,
    checkpoint_every: u64,
    resume: Option<PathBuf>,
}

fn cmd_run(zoo: &[(PathBuf, ScenarioSpec)], threads: usize, flags: &EngineFlags) -> bool {
    let mut ok = true;
    for (_, spec) in zoo {
        println!("== {} ({})", spec.name, spec.params.family());
        let resume = match &flags.resume {
            Some(path) => match std::fs::read_to_string(path) {
                Ok(text) => Some(text),
                Err(e) => {
                    ok = false;
                    println!("  resume FAILED: cannot read {}: {e}", path.display());
                    continue;
                }
            },
            None => None,
        };
        let sink = flags.checkpoint.clone();
        let written = RefCell::new(0u64);
        let save = |done: u64, encoded: String| {
            let path = sink.as_ref().expect("callback only wired with a sink");
            if let Err(e) = std::fs::write(path, encoded) {
                eprintln!("  checkpoint write FAILED at trial {done}: {e}");
            } else {
                *written.borrow_mut() += 1;
            }
        };
        let opts = ScenarioEngineOptions {
            force_engine: flags.engine,
            trial_budget: flags.trial_budget_ms.map(Duration::from_millis),
            resume,
            checkpoint_every: if flags.checkpoint.is_some() {
                // A handful of snapshots per run unless the user pinned a cadence.
                if flags.checkpoint_every > 0 {
                    flags.checkpoint_every
                } else {
                    (spec.trials / 8).max(1)
                }
            } else {
                0
            },
            on_checkpoint: flags.checkpoint.is_some().then_some(&save as _),
        };
        match run_scenario_with(spec, threads, &opts) {
            Ok(outcome) => {
                print_outcome(&outcome);
                if let Some(path) = &flags.checkpoint {
                    println!(
                        "  checkpoints: {} written to {}",
                        written.borrow(),
                        path.display()
                    );
                }
                let failures = check_accept(spec, &outcome);
                if failures.is_empty() {
                    println!("  accept: ok");
                } else {
                    ok = false;
                    for f in &failures {
                        println!("  accept FAILED: {f}");
                    }
                }
            }
            Err(e) => {
                ok = false;
                println!("  refused: {e}");
            }
        }
    }
    ok
}

/// The CI gate: bit-identical at 1/2/5 threads and equal to the pin.
fn cmd_verify(zoo: &[(PathBuf, ScenarioSpec)]) -> bool {
    let mut ok = true;
    for (path, spec) in zoo {
        let outcomes: Vec<ScenarioOutcome> = match [1usize, 2, 5]
            .iter()
            .map(|&t| run_scenario(spec, t))
            .collect::<Result<_, _>>()
        {
            Ok(v) => v,
            Err(e) => {
                println!("FAIL {:<32} compile error: {e}", spec.name);
                ok = false;
                continue;
            }
        };
        if outcomes[0] != outcomes[1] || outcomes[0] != outcomes[2] {
            println!(
                "FAIL {:<32} thread-count drift: 0x{:08x} / 0x{:08x} / 0x{:08x}",
                spec.name, outcomes[0].digest, outcomes[1].digest, outcomes[2].digest
            );
            ok = false;
            continue;
        }
        let outcome = &outcomes[0];
        let failures = check_accept(spec, outcome);
        match spec.accept.pin {
            None => {
                println!(
                    "FAIL {:<32} unpinned (add `pin 0x{:08x}` to {})",
                    spec.name,
                    outcome.digest,
                    path.display()
                );
                ok = false;
            }
            Some(_) if failures.is_empty() => {
                println!("ok   {:<32} 0x{:08x}", spec.name, outcome.digest);
            }
            Some(_) => {
                for f in &failures {
                    println!("FAIL {:<32} {f}", spec.name);
                }
                ok = false;
            }
        }
    }
    ok
}

fn cmd_pin(zoo: &[(PathBuf, ScenarioSpec)]) -> bool {
    for (_, spec) in zoo {
        match run_scenario(spec, 1) {
            Ok(outcome) => println!("{:<32} pin 0x{:08x}", spec.name, outcome.digest),
            Err(e) => {
                println!("{:<32} compile FAILED: {e}", spec.name);
                return false;
            }
        }
    }
    true
}

/// Command-line options.
#[derive(Debug, PartialEq)]
struct Options {
    command: String,
    filter: Option<String>,
    threads: usize,
    flags: EngineFlags,
}

/// Parses the arguments after the program name: the command, then an
/// optional name filter and flags in any order.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        command: args.first().cloned().unwrap_or_else(|| "list".to_string()),
        filter: None,
        threads: 1,
        flags: EngineFlags::default(),
    };
    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |flag: &str, v: &String| -> Result<u64, String> {
            v.parse()
                .map_err(|_| format!("{flag}: '{v}' is not an unsigned integer"))
        };
        match arg.as_str() {
            "--threads" => {
                let n = number(arg, value(arg)?)?;
                opts.threads = usize::try_from(n)
                    .ok()
                    .filter(|&t| t > 0)
                    .ok_or("--threads must be a positive integer")?;
            }
            "--engine" => opts.flags.engine = true,
            "--trial-budget-ms" => {
                opts.flags.trial_budget_ms = Some(number(arg, value(arg)?)?);
            }
            "--checkpoint" => opts.flags.checkpoint = Some(PathBuf::from(value(arg)?)),
            "--checkpoint-every" => {
                opts.flags.checkpoint_every = number(arg, value(arg)?)?;
            }
            "--resume" => opts.flags.resume = Some(PathBuf::from(value(arg)?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            name if opts.filter.is_none() => opts.filter = Some(name.to_string()),
            extra => return Err(format!("unexpected argument '{extra}'")),
        }
    }
    if opts.flags.checkpoint_every > 0 && opts.flags.checkpoint.is_none() {
        return Err("--checkpoint-every needs --checkpoint".to_string());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options {
        command,
        filter,
        threads,
        flags,
    } = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("scenario_run: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let filter = filter.as_deref();
    let zoo = match load(filter) {
        Ok(zoo) => zoo,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if zoo.is_empty() {
        eprintln!("no scenarios match");
        return ExitCode::FAILURE;
    }
    let ok = match command.as_str() {
        "list" => {
            cmd_list(&zoo);
            true
        }
        "run" => cmd_run(&zoo, threads, &flags),
        "verify" => cmd_verify(&zoo),
        "pin" => cmd_pin(&zoo),
        other => {
            eprintln!("unknown command `{other}` (expected list, run, verify, pin)");
            false
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Options, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn defaults_and_every_flag_parse() {
        let defaults = parse("").unwrap();
        assert_eq!((defaults.command.as_str(), defaults.threads), ("list", 1));
        assert_eq!(
            (defaults.filter, defaults.flags),
            (None, EngineFlags::default())
        );
        let all = parse(
            "run --threads 2 storm --engine --trial-budget-ms 500 \
             --checkpoint ck --checkpoint-every 3 --resume old",
        )
        .unwrap();
        assert_eq!((all.filter.as_deref(), all.threads), (Some("storm"), 2));
        let flags = EngineFlags {
            engine: true,
            trial_budget_ms: Some(500),
            checkpoint: Some("ck".into()),
            checkpoint_every: 3,
            resume: Some("old".into()),
        };
        assert_eq!(all.flags, flags);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "run --threads abc",
            "run --threads 0",
            "run --trial-budget-ms soon",
            "run --checkpoint-every x --checkpoint f",
            "run --checkpoint",
            "run --thread 2",
            "run a b",
            "run --checkpoint-every 4",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
    }
}
