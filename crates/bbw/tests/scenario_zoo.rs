//! The scenario zoo's executable guarantees: every zoo file runs
//! through the DSL pipeline bit-identically at 1, 2 and 5 threads and
//! matches its golden pin, and the node-level `core-death-mid-section`
//! is proven equivalent — same verdict counts — to its hand-wired
//! campaign counterpart.

use std::path::PathBuf;

use nlft_bbw::scenario::{check_accept, run_scenario};
use nlft_core::multicore_campaign::{run_multicore_campaign, MulticoreCampaignConfig};
use nlft_reliability::scenario::{load_zoo, ScenarioSpec};

fn zoo() -> Vec<(String, ScenarioSpec)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let zoo = load_zoo(&dir).unwrap_or_else(|e| panic!("{e}"));
    zoo.into_iter()
        .map(|(p, spec)| (p.file_name().unwrap().to_string_lossy().into_owned(), spec))
        .collect()
}

fn by_name(name: &str) -> ScenarioSpec {
    zoo()
        .into_iter()
        .map(|(_, s)| s)
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("scenario `{name}` in the zoo"))
}

/// The CI contract: every zoo scenario is thread-count invariant and
/// bit-identical to its golden pin, and its acceptance clause holds.
#[test]
fn zoo_pins_hold_at_1_2_and_5_threads() {
    for (file, spec) in zoo() {
        let one = run_scenario(&spec, 1).unwrap_or_else(|e| panic!("{file}: {e}"));
        let two = run_scenario(&spec, 2).unwrap_or_else(|e| panic!("{file}: {e}"));
        let five = run_scenario(&spec, 5).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(one, two, "{file}: 2-thread run diverged");
        assert_eq!(one, five, "{file}: 5-thread run diverged");
        let failures = check_accept(&spec, &one);
        assert!(failures.is_empty(), "{file}: {failures:?}");
    }
}

/// Equivalence proof: the DSL's `core-death-mid-section` is the same
/// experiment as the hand-wired multicore core-death campaign.
#[test]
fn core_death_mid_section_equals_hand_wired_campaign() {
    let spec = by_name("core-death-mid-section");
    let outcome = run_scenario(&spec, 1).expect("scenario runs");

    let config = MulticoreCampaignConfig::new(spec.trials, spec.seed);
    let direct = run_multicore_campaign(&config);

    assert_eq!(outcome.counter("crash"), Some(direct.crash_trials));
    assert_eq!(outcome.counter("escalated"), Some(direct.escalated_trials));
    assert_eq!(
        outcome.counter("lock_failed_crash"),
        Some(direct.lock_failed_crash_trials)
    );
    assert_eq!(
        outcome.counter("leftrs_clean"),
        Some(direct.leftrs_clean_trials)
    );
    assert_eq!(outcome.counter("lock_misses"), Some(direct.lock_misses));
    assert_eq!(
        outcome.counter("escalation_events"),
        Some(direct.escalation_events)
    );
}
