//! Fault-injecting the campaign engine itself: panicking trials and
//! deadline-blown trials. In every case the campaign must complete,
//! label the outcome with a reproducer triple, and leave the
//! surviving-trial accumulator bit-identical to a clean run over the
//! surviving trials.

mod common;

use std::time::Duration;

use common::{Fault, ToyCampaign};
use nlft_engine::{
    indexed_campaign, run_campaign, run_campaign_with, run_sequential, CampaignOptions,
    EngineConfig,
};

const TRIALS: u64 = 300;
const SEED: u64 = 0xFA_17;

/// The bitwise expectation for "every trial except `fault` survived":
/// the same campaign with the faulty trial as a no-op, run on the
/// sequential reference (merging an empty trial accumulator is an
/// exact identity for every `sim::stats` type).
fn surviving_acc(campaign: &ToyCampaign) -> common::ToyAcc {
    run_sequential(
        &campaign.clone().excluding_fault(),
        &EngineConfig::default(),
    )
    .acc
}

/// Runs `f` with panic output silenced (the injected trial panic would
/// otherwise spew a backtrace into the test log), restoring the
/// previous hook afterwards.
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

#[test]
fn panicking_trial_is_recorded_not_fatal() {
    let faulty = 137u64;
    let campaign = ToyCampaign::new(SEED, TRIALS).with_fault(Fault::Panic(faulty));
    let expected = surviving_acc(&campaign);
    for workers in [1usize, 3] {
        let run = with_quiet_panics(|| {
            run_campaign(campaign.clone(), &EngineConfig::with_workers(workers))
        });
        assert_eq!(run.report.completed, TRIALS - 1);
        assert_eq!(run.report.panicked.len(), 1);
        let rep = &run.report.panicked[0];
        assert_eq!(rep.trial, faulty);
        assert_eq!(rep.campaign, "toy-campaign");
        assert_eq!(rep.rng_label, "toy-trial");
        assert!(
            rep.detail.contains("injected trial panic"),
            "{}",
            rep.detail
        );
        assert_eq!(
            run.acc, expected,
            "surviving-trial accumulator drifted at {workers} workers"
        );
    }
}

#[test]
fn panicking_trial_is_isolated_on_the_sequential_path_too() {
    let campaign = ToyCampaign::new(SEED, TRIALS).with_fault(Fault::Panic(7));
    let expected = surviving_acc(&campaign);
    let run = with_quiet_panics(|| run_sequential(&campaign, &EngineConfig::default()));
    assert_eq!(run.report.panicked.len(), 1);
    assert_eq!(run.report.panicked[0].trial, 7);
    assert_eq!(run.acc, expected);
}

#[test]
fn deadline_blown_trial_is_cancelled_and_quarantined() {
    // The trial polls its own budget, so it gives up and is quarantined
    // alike on both paths.
    let faulty = 42u64;
    let campaign = ToyCampaign::new(SEED, TRIALS).with_fault(Fault::SpinUntilCancelled(faulty));
    let expected = surviving_acc(&campaign);
    let cfg = EngineConfig {
        workers: 2,
        trial_budget: Some(Duration::from_millis(40)),
        ..EngineConfig::default()
    };
    for (label, run) in [
        ("sequential", run_sequential(&campaign, &cfg)),
        ("threaded", run_campaign(campaign.clone(), &cfg)),
    ] {
        assert_eq!(run.report.completed, TRIALS - 1, "{label}");
        assert_eq!(run.report.timed_out.len(), 1, "{label}");
        let rep = &run.report.timed_out[0];
        assert_eq!(rep.trial, faulty, "{label}");
        assert_eq!(
            (rep.campaign.as_str(), rep.rng_label.as_str()),
            ("toy-campaign", "toy-trial")
        );
        assert!(rep.detail.contains("budget"), "{label}: {}", rep.detail);
        assert_eq!(run.acc, expected, "{label}");
    }
}

#[test]
fn panic_outside_a_trial_reaches_the_caller_instead_of_hanging() {
    // A campaign's merge and the checkpoint callback run outside any
    // trial's catch_unwind. Their panic must stop every other thread and
    // reach the caller, whether a worker or the folding thread raised it.
    let bad_merge = indexed_campaign(
        "bad-merge",
        "unused",
        TRIALS,
        || 0u64,
        |trial, _ctx, acc: &mut u64| *acc += trial,
        |into: &mut u64, from| {
            assert_ne!(from, 150, "injected merge panic");
            *into += from;
        },
    );
    let cfg = EngineConfig {
        workers: 3,
        block_size: Some(1),
        checkpoint_every: 1,
        ..EngineConfig::default()
    };
    let worker_side =
        with_quiet_panics(|| std::panic::catch_unwind(|| run_campaign(bad_merge, &cfg)).is_err());
    assert!(worker_side, "a worker's panic must reach the caller");
    let folder_side = with_quiet_panics(|| {
        std::panic::catch_unwind(|| {
            let opts = CampaignOptions {
                resume: None,
                on_checkpoint: Some(&|_, _: &common::ToyAcc| panic!("injected checkpoint panic")),
            };
            run_campaign_with(ToyCampaign::new(SEED, TRIALS), &cfg, opts)
        })
        .is_err()
    });
    assert!(
        folder_side,
        "the folding thread's panic must reach the caller"
    );
}
