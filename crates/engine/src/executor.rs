//! The self-scheduling executor and its sequential reference twin.
//!
//! # Scheduling
//!
//! Trials are partitioned into fixed-size *blocks*; the partition is a
//! pure function of the campaign's trial count (never of the worker
//! count, nor of where a resumed run starts). Workers run under
//! `std::thread::scope` and claim blocks in index order from one shared
//! counter. Trials are independent and pure, so there is nothing to
//! gain from locality or stealing: whichever worker is free takes the
//! next block.
//!
//! # Determinism
//!
//! Each trial runs into a fresh accumulator; successful trial
//! accumulators fold into the block partial in trial order; block
//! partials fold into the campaign accumulator strictly in block-index
//! order on the calling thread. The fold tree is therefore fixed by
//! `(trials, block_size)` alone and every accumulator bit — floats
//! included — is identical at any worker count and across a
//! checkpoint/resume split.
//!
//! # Robustness
//!
//! Every trial runs under `catch_unwind`; a panic becomes a
//! [`Reproducer`] record, not a dead campaign. A trial budget is
//! cooperative ([`TrialCtx::cancelled`]) and checked again when the
//! trial returns, so an overrun is recorded the same way on both paths.
//! Completed-but-unfolded blocks are capped at O(workers): a worker
//! holding block `i` waits until `i < cursor + cap`, where `cursor` is
//! the next block to fold. Claims are monotone, so the cursor's block
//! is always held by a worker that is not waiting, and the fold always
//! advances.

use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::campaign::{
    CampaignOptions, CampaignRun, EngineConfig, EngineReport, Reproducer, TrialCampaign, TrialCtx,
};

/// Default block size for a campaign of `trials` trials: aim for ~256
/// blocks, clamped to `[1, 4096]` so huge campaigns stream through
/// bounded blocks. A pure function of the trial count — never of the
/// worker count — so the fold tree, and with it every accumulator bit,
/// is fixed before scheduling starts.
pub fn auto_block_size(trials: u64) -> u64 {
    trials.div_ceil(256).clamp(1, 4096)
}

/// The block partition of the unfolded suffix `[base, total)`.
struct Partition {
    base: u64,
    total: u64,
    size: u64,
}

impl Partition {
    /// The block size comes from the campaign's full trial count, not
    /// from the suffix length: a resume point lands on a block boundary,
    /// so the resumed run walks exactly the uninterrupted run's blocks.
    fn new<C: TrialCampaign>(campaign: &C, cfg: &EngineConfig, base: u64) -> Self {
        let total = campaign.trials();
        Partition {
            base: base.min(total),
            total,
            size: cfg
                .block_size
                .unwrap_or_else(|| auto_block_size(total))
                .max(1),
        }
    }

    fn len(&self) -> u64 {
        (self.total - self.base).div_ceil(self.size)
    }

    fn block(&self, index: u64) -> Range<u64> {
        let start = self.base + index * self.size;
        start..(start + self.size).min(self.total)
    }
}

fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked: <non-string payload>".to_string()
    }
}

/// Runs the trials of one block, each into a fresh accumulator under
/// `catch_unwind`, folding the survivors in trial order. The result is
/// the block's partial plus its `completed`, `panicked` and `timed_out`
/// records.
fn run_block<C: TrialCampaign>(
    campaign: &C,
    budget: Option<Duration>,
    trials: Range<u64>,
) -> CampaignRun<C::Acc> {
    let mut acc_block = campaign.empty();
    let mut report = EngineReport::default();
    for trial in trials {
        let ctx = TrialCtx::new(budget, trial);
        let mut acc = campaign.empty();
        let result = catch_unwind(AssertUnwindSafe(|| {
            campaign.run_trial(trial, &ctx, &mut acc)
        }));
        let elapsed = ctx.elapsed();
        let (list, detail) = match (result, budget) {
            (Err(payload), _) => (&mut report.panicked, panic_detail(payload)),
            (Ok(()), Some(b)) if elapsed > b => (
                &mut report.timed_out,
                format!(
                    "exceeded trial budget: ran {}ms against {}ms",
                    elapsed.as_millis(),
                    b.as_millis()
                ),
            ),
            (Ok(()), _) => {
                campaign.merge(&mut acc_block, acc);
                report.completed += 1;
                continue;
            }
        };
        list.push(Reproducer {
            campaign: campaign.label(),
            rng_label: campaign.rng_label(),
            trial,
            detail,
        });
    }
    CampaignRun {
        acc: acc_block,
        report,
    }
}

/// The in-order fold both paths share: the campaign accumulator and
/// report, and the checkpoint cadence.
struct Fold<'cb, A> {
    run: CampaignRun<A>,
    every: u64,
    next_checkpoint: u64,
    #[allow(clippy::type_complexity)]
    on_checkpoint: Option<&'cb dyn Fn(u64, &A)>,
}

impl<'cb, A> Fold<'cb, A> {
    fn start<C: TrialCampaign<Acc = A>>(
        campaign: &C,
        cfg: &EngineConfig,
        opts: CampaignOptions<'cb, A>,
        workers: usize,
    ) -> (Partition, Self) {
        let base = opts.resume.as_ref().map_or(0, |r| r.trials_done);
        let blocks = Partition::new(campaign, cfg, base);
        let report = EngineReport {
            trials: blocks.total,
            blocks: blocks.len(),
            workers,
            ..EngineReport::default()
        };
        let fold = Fold {
            run: CampaignRun {
                acc: opts.resume.map_or_else(|| campaign.empty(), |r| r.acc),
                report,
            },
            every: cfg.checkpoint_every,
            next_checkpoint: match cfg.checkpoint_every {
                0 => u64::MAX,
                every => blocks.base + every,
            },
            on_checkpoint: opts.on_checkpoint,
        };
        (blocks, fold)
    }

    /// Folds the next block, which ends at trial `end`, and fires the
    /// checkpoint callback when its cadence is due.
    fn push<C: TrialCampaign<Acc = A>>(&mut self, campaign: &C, block: CampaignRun<A>, end: u64) {
        let run = &mut self.run;
        campaign.merge(&mut run.acc, block.acc);
        run.report.completed += block.report.completed;
        run.report.panicked.extend(block.report.panicked);
        run.report.timed_out.extend(block.report.timed_out);
        if end >= self.next_checkpoint {
            if let Some(cb) = self.on_checkpoint {
                cb(end, &run.acc);
            }
            self.next_checkpoint = end + self.every;
        }
    }
}

/// Runs a campaign on the threaded executor. See [`run_campaign_with`]
/// for resume and checkpoint hooks.
pub fn run_campaign<C>(campaign: C, cfg: &EngineConfig) -> CampaignRun<C::Acc>
where
    C: TrialCampaign + Sync,
{
    run_campaign_with(campaign, cfg, CampaignOptions::default())
}

/// Runs a campaign on the path its worker count selects: the in-thread
/// sequential reference below two workers, the threaded executor
/// otherwise. The two produce bit-identical accumulators, so the choice
/// is purely about threads spawned.
pub fn run_trials<C>(campaign: C, cfg: &EngineConfig) -> CampaignRun<C::Acc>
where
    C: TrialCampaign + Sync,
{
    run_trials_with(campaign, cfg, CampaignOptions::default())
}

/// [`run_trials`] with resume / checkpoint options.
pub fn run_trials_with<C>(
    campaign: C,
    cfg: &EngineConfig,
    opts: CampaignOptions<'_, C::Acc>,
) -> CampaignRun<C::Acc>
where
    C: TrialCampaign + Sync,
{
    if cfg.workers <= 1 {
        run_sequential_with(&campaign, cfg, opts)
    } else {
        run_campaign_with(campaign, cfg, opts)
    }
}

/// Hand-off between the workers and the folding thread.
struct Exchange<A> {
    /// Completed block runs awaiting the in-order fold.
    pending: BTreeMap<u64, CampaignRun<A>>,
    /// Next block index the fold consumes.
    cursor: u64,
    max_pending: usize,
    /// Set when any participant unwinds, so nobody waits forever.
    aborted: bool,
}

struct Shared<A> {
    state: Mutex<Exchange<A>>,
    /// Signalled when the cursor's block lands or the cursor advances.
    changed: Condvar,
}

// Every update leaves the exchange consistent, and a participant that
// unwinds sets `aborted` on its way out, so a poisoned lock is usable.
impl<A> Shared<A> {
    fn lock(&self) -> MutexGuard<'_, Exchange<A>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, st: MutexGuard<'a, Exchange<A>>) -> MutexGuard<'a, Exchange<A>> {
        self.changed
            .wait(st)
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Marks the exchange aborted if its thread unwinds, so the other
/// participants stop waiting and the scope can join and re-raise.
struct AbortOnUnwind<'a, A>(&'a Shared<A>);

impl<A> Drop for AbortOnUnwind<'_, A> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().aborted = true;
            self.0.changed.notify_all();
        }
    }
}

/// Runs a campaign on the threaded executor with resume / checkpoint
/// options.
///
/// `cfg.workers` scoped threads claim blocks in index order; this
/// thread folds their partials in block order and fires the checkpoint
/// callback, which therefore need not be `Sync`. Every worker is joined
/// before this function returns.
pub fn run_campaign_with<C>(
    campaign: C,
    cfg: &EngineConfig,
    opts: CampaignOptions<'_, C::Acc>,
) -> CampaignRun<C::Acc>
where
    C: TrialCampaign + Sync,
{
    let workers = cfg.workers.max(1);
    let (blocks, mut fold) = Fold::start(&campaign, cfg, opts, workers);
    let n_blocks = blocks.len();
    let cap = workers as u64 * 4 + 4;
    let next = AtomicU64::new(0);
    let shared = Shared {
        state: Mutex::new(Exchange {
            pending: BTreeMap::new(),
            cursor: 0,
            max_pending: 0,
            aborted: false,
        }),
        changed: Condvar::new(),
    };

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _guard = AbortOnUnwind(&shared);
                loop {
                    // The counter publishes no data: a block is a pure
                    // function of its index.
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= n_blocks {
                        return;
                    }
                    let mut st = shared.lock();
                    while !st.aborted && index >= st.cursor + cap {
                        st = shared.wait(st);
                    }
                    if st.aborted {
                        return;
                    }
                    drop(st);
                    let run = run_block(&campaign, cfg.trial_budget, blocks.block(index));
                    let mut st = shared.lock();
                    st.pending.insert(index, run);
                    st.max_pending = st.max_pending.max(st.pending.len());
                    if index == st.cursor {
                        shared.changed.notify_all();
                    }
                }
            });
        }

        let _guard = AbortOnUnwind(&shared);
        for index in 0..n_blocks {
            let mut st = shared.lock();
            let run = loop {
                if st.aborted {
                    // A worker panicked outside a trial; the scope
                    // re-raises its panic once every thread is joined.
                    return;
                }
                if let Some(run) = st.pending.remove(&index) {
                    break run;
                }
                st = shared.wait(st);
            };
            st.cursor = index + 1;
            shared.changed.notify_all();
            drop(st);
            fold.push(&campaign, run, blocks.block(index).end);
        }
    });

    fold.run.report.max_pending_blocks = shared.lock().max_pending;
    fold.run
}

/// Sequential reference executor: identical block partition and fold
/// order to [`run_campaign`] — and therefore a bit-identical
/// accumulator — but zero threads. This is the path campaigns take
/// below two threads, and the differential twin `verify.sh` pits the
/// threaded executor against.
pub fn run_sequential<C>(campaign: &C, cfg: &EngineConfig) -> CampaignRun<C::Acc>
where
    C: TrialCampaign,
{
    run_sequential_with(campaign, cfg, CampaignOptions::default())
}

/// [`run_sequential`] with resume / checkpoint options.
pub fn run_sequential_with<C>(
    campaign: &C,
    cfg: &EngineConfig,
    opts: CampaignOptions<'_, C::Acc>,
) -> CampaignRun<C::Acc>
where
    C: TrialCampaign,
{
    let (blocks, mut fold) = Fold::start(campaign, cfg, opts, 0);
    for index in 0..blocks.len() {
        let trials = blocks.block(index);
        let end = trials.end;
        fold.push(campaign, run_block(campaign, cfg.trial_budget, trials), end);
    }
    fold.run
}
