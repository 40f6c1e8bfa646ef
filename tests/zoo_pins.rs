//! Integration: every scenario of the `scenarios/` zoo reproduces its
//! golden pin and acceptance clause at one and two threads, so a plain
//! `cargo test` guards the paper-level campaign results and not only the
//! facade wiring. `scenario_run verify` is the wider gate (1/2/5 threads).

use std::path::Path;

use nlft::bbw::scenario::{check_accept, run_scenario};
use nlft::reliability::scenario::parse_scenario;

#[test]
fn every_zoo_scenario_matches_its_pin_at_one_and_two_threads() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("scenarios/ is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "scn"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no scenarios under {}", dir.display());

    let mut failures = Vec::new();
    for path in &paths {
        let source = std::fs::read_to_string(path).expect("scenario is readable");
        let spec = match parse_scenario(&source) {
            Ok(spec) => spec,
            Err(e) => {
                failures.push(format!("{}: {e}", path.display()));
                continue;
            }
        };
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
