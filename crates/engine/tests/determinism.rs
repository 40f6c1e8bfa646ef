//! Schedule-independence of the executor: bitwise-identical
//! accumulators at any worker count, checkpoint/resume, and the
//! streaming-memory bound.

mod common;

use std::sync::Mutex;

use common::ToyCampaign;
use nlft_engine::{
    auto_block_size, run_campaign, run_campaign_with, run_sequential, run_sequential_with,
    CampaignOptions, EngineConfig, ResumePoint, TrialCampaign,
};

#[test]
fn executor_matches_sequential_reference_bitwise_at_any_worker_count() {
    let campaign = ToyCampaign::new(0x0E06_1E5C, 997);
    let reference = run_sequential(&campaign, &EngineConfig::default());
    assert_eq!(reference.report.completed, 997);
    for workers in [1usize, 2, 3, 5, 8] {
        let run = run_campaign(campaign.clone(), &EngineConfig::with_workers(workers));
        // PartialEq on the accumulator compares every float bit.
        assert_eq!(
            run.acc, reference.acc,
            "accumulator drifted at {workers} workers"
        );
        assert_eq!(run.report.completed, 997);
        assert!(run.report.panicked.is_empty() && run.report.timed_out.is_empty());
    }
}

#[test]
fn block_size_choice_is_a_function_of_trials_not_workers() {
    // Different explicit block sizes are allowed to change float
    // association, but a fixed block size must give the same bits
    // regardless of workers — and the integer parts must not move at
    // all, whatever the block size.
    let campaign = ToyCampaign::new(77, 500);
    let bs17: Vec<_> = [1usize, 4]
        .iter()
        .map(|&w| {
            let cfg = EngineConfig {
                workers: w,
                block_size: Some(17),
                ..EngineConfig::default()
            };
            run_campaign(campaign.clone(), &cfg).acc
        })
        .collect();
    assert_eq!(bs17[0], bs17[1]);
    let auto = run_sequential(&campaign, &EngineConfig::default()).acc;
    assert_eq!(auto.checksum, bs17[0].checksum);
    assert_eq!(auto.hits, bs17[0].hits);
    assert_eq!(auto.latencies, bs17[0].latencies);
    assert_eq!(auto.survival, bs17[0].survival);
}

/// Checkpoints an uninterrupted threaded run, then resumes from a
/// mid-run checkpoint on a different worker count and on the sequential
/// path: both must finish bit-identical to the uninterrupted run.
fn assert_resume_is_bitwise(campaign: &ToyCampaign, block_size: Option<u64>, every: u64) {
    let trials = campaign.trials();
    let size = block_size.unwrap_or_else(|| auto_block_size(trials));
    let cfg = EngineConfig {
        workers: 3,
        block_size,
        checkpoint_every: every,
        ..EngineConfig::default()
    };
    let checkpoints: Mutex<Vec<ResumePoint<common::ToyAcc>>> = Mutex::new(Vec::new());
    let full = run_campaign_with(
        campaign.clone(),
        &cfg,
        CampaignOptions {
            resume: None,
            on_checkpoint: Some(&|done, acc: &common::ToyAcc| {
                checkpoints.lock().unwrap().push(ResumePoint {
                    trials_done: done,
                    acc: acc.clone(),
                });
            }),
        },
    );
    let checkpoints = checkpoints.into_inner().unwrap();
    assert!(
        checkpoints.len() >= 5,
        "expected several checkpoints, got {}",
        checkpoints.len()
    );
    // Checkpoints land on block boundaries and carry the exact prefix.
    for cp in &checkpoints {
        assert_eq!(cp.trials_done % size, 0);
        assert_eq!(cp.acc.hits.trials(), cp.trials_done);
    }
    let mid = checkpoints[2].clone();
    for (resumer, label) in [(5usize, "executor"), (0, "sequential")] {
        let cfg_resume = EngineConfig {
            workers: resumer.max(1),
            block_size,
            ..EngineConfig::default()
        };
        let opts = CampaignOptions {
            resume: Some(mid.clone()),
            on_checkpoint: None,
        };
        let resumed = if resumer == 0 {
            run_sequential_with(campaign, &cfg_resume, opts)
        } else {
            run_campaign_with(campaign.clone(), &cfg_resume, opts)
        };
        assert_eq!(resumed.acc, full.acc, "resume drifted on {label} path");
        assert_eq!(
            resumed.report.completed,
            trials - mid.trials_done,
            "resume re-ran the folded prefix on {label} path"
        );
    }
}

#[test]
fn checkpoint_resume_reproduces_the_uninterrupted_run_bitwise() {
    assert_resume_is_bitwise(&ToyCampaign::new(0xC0FFEE, 640), Some(32), 100);
}

#[test]
fn resume_under_auto_block_size_reproduces_the_uninterrupted_run_bitwise() {
    // The resumed run must size its blocks from the campaign's trial
    // count, not from the remaining suffix, or the float moments fold
    // in a different order.
    assert_resume_is_bitwise(&ToyCampaign::new(0xD121F7, 5000), None, 1000);
}

#[test]
fn streaming_fold_buffer_stays_bounded_by_workers() {
    let campaign = ToyCampaign::new(9, 4000);
    let cfg = EngineConfig {
        workers: 4,
        block_size: Some(4),
        ..EngineConfig::default()
    };
    let run = run_campaign(campaign, &cfg);
    assert_eq!(run.report.blocks, 1000);
    let cap = 4 * 4 + 4 + 4; // pending cap + one in flight per worker
    assert!(
        run.report.max_pending_blocks <= cap,
        "fold buffer grew to {} blocks (cap {cap}) — memory is no longer O(workers)",
        run.report.max_pending_blocks
    );
}

#[test]
fn auto_block_size_is_clamped_and_trials_only() {
    assert_eq!(auto_block_size(0), 1);
    assert_eq!(auto_block_size(100), 1);
    assert_eq!(auto_block_size(2_560), 10);
    assert_eq!(auto_block_size(10_000_000), 4096);
}

#[test]
fn empty_campaign_completes() {
    let campaign = ToyCampaign::new(3, 0);
    let run = run_campaign(campaign.clone(), &EngineConfig::with_workers(3));
    assert_eq!(run.report.completed, 0);
    assert_eq!(run.acc, campaign.empty());
}
