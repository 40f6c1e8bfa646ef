//! Fault-tolerant fleet-scale campaign engine.
//!
//! Every fault-injection campaign in this workspace is, at heart, "run
//! `N` independent trials and fold their outcomes". This crate owns
//! that loop and applies the paper's own node-level discipline —
//! detect and isolate errors locally, handle only the failures that
//! can actually happen — to the harness itself:
//!
//! * **Self-scheduling.** Trials are grouped into fixed-size blocks;
//!   scoped worker threads claim them in index order from one atomic
//!   counter, so a worker that drew an expensive block simply claims
//!   fewer of them.
//! * **Panic isolation.** Each trial runs under
//!   `std::panic::catch_unwind`; a panicking trial becomes a
//!   [`Reproducer`] record in the [`EngineReport`], not a dead
//!   campaign. In safe Rust a panic is the only way a worker can fail.
//! * **Trial budgets.** A trial polls its own budget through
//!   [`TrialCtx::cancelled`]; one that returns past it is recorded as
//!   timed out with its `(campaign, trial, rng-label)` reproducer
//!   triple and excluded from the result.
//! * **Streaming statistics.** Workers fold trial outcomes into
//!   `sim::stats` accumulators per block; completed blocks merge into
//!   the campaign accumulator strictly in block-index order on the
//!   calling thread, so memory stays O(workers) and — because the
//!   block partition is a pure function of the trial count — every
//!   accumulator bit is identical at any worker count. Periodic
//!   [`Checkpoint`] snapshots let a 10M-trial run resume after
//!   interruption, bit-identically.
//!
//! The determinism argument in one line: trial randomness is addressed
//! by `(seed, label, trial-index)` and the fold tree is fixed by
//! `(trials, block_size)`, so the schedule has no channel through
//! which to reach the result.

#![warn(missing_docs)]

mod adapter;
mod campaign;
pub mod checkpoint;
mod executor;

pub use adapter::{indexed_campaign, ClosureCampaign};
pub use campaign::{
    CampaignOptions, CampaignRun, EngineConfig, EngineReport, Reproducer, ResumePoint,
    TrialCampaign, TrialCtx,
};
pub use checkpoint::Checkpoint;
pub use executor::{
    auto_block_size, run_campaign, run_campaign_with, run_sequential, run_sequential_with,
    run_trials, run_trials_with,
};
