//! The one outcome shape every cluster family folds its trials into.
//!
//! A family declares its [`Shape`] once; its per-trial function writes
//! one trial into a fresh [`Tally`], the engine folds tallies in trial
//! order, and the result renders into a [`ScenarioOutcome`]. The merge,
//! the checkpoint codec and the rendering are written here once.
//! Distributions are unit-bin [`Histogram`]s over `0..=span`, `span`
//! being the scenario's cycle count, so memory never grows with the
//! trial count and percentiles read from the bins are exact.

use nlft_engine::checkpoint::{self, Checkpoint, TokenReader};
use nlft_sim::stats::Histogram;

use crate::scenario::{ScenarioOutcome, MAX_CYCLES};
use crate::{blackout, cluster_campaign, recovery, scenario, value_campaign};

/// How a metric folds across trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fold {
    /// Summed over trials.
    Sum,
    /// The largest value of any trial.
    Max,
}

/// The outcome shape of one cluster family, in canonical order.
#[derive(Debug)]
pub(crate) struct Shape {
    /// The family keyword; checkpoints name it.
    pub family: &'static str,
    /// The engine's campaign label.
    pub campaign: &'static str,
    /// Each trial's stream is `fork_indexed(rng_label, trial)` off the
    /// scenario seed.
    pub rng_label: &'static str,
    /// Per-trial verdicts, most severe first; each trial gets one.
    pub verdicts: &'static [&'static str],
    /// Aggregate metrics, covered by the digest.
    pub metrics: &'static [(&'static str, Fold)],
    /// Summed counters reported beside the digest.
    pub details: &'static [&'static str],
    /// Integer distributions, outside the digest.
    pub distributions: &'static [&'static str],
}

impl Shape {
    /// How each counter folds: verdicts, then metrics, then details.
    fn folds(&self) -> impl Iterator<Item = Fold> + '_ {
        let sums = |n: usize| std::iter::repeat_n(Fold::Sum, n);
        sums(self.verdicts.len())
            .chain(self.metrics.iter().map(|&(_, f)| f))
            .chain(sums(self.details.len()))
    }

    fn counters(&self) -> usize {
        self.verdicts.len() + self.metrics.len() + self.details.len()
    }
}

/// Every cluster family's shape, for checkpoint decoding.
const SHAPES: [&Shape; 5] = [
    &scenario::CLUSTER,
    &cluster_campaign::NET_STORM,
    &value_campaign::VALUE_DOMAIN,
    &blackout::BLACKOUT,
    &recovery::RECOVERY,
];

/// Room for the widest shape's counters.
const MAX_COUNTERS: usize = 32;

/// One family's tally over a prefix of trials. A fresh tally allocates
/// nothing: the engine builds one for every trial.
#[derive(Debug, Clone)]
pub(crate) struct Tally {
    shape: &'static Shape,
    span: u32,
    trials: u64,
    /// Verdict counts, then metrics, then details, in shape order.
    counts: [u64; MAX_COUNTERS],
    /// Empty until the first observation, then one per distribution.
    dists: Vec<Histogram>,
}

/// A unit-bin histogram over `0..=span`: bin `i` counts the value `i`.
fn unit_bins(span: u32) -> Histogram {
    Histogram::new(-0.5, f64::from(span) + 0.5, span as usize + 1)
}

fn named<'a>(names: impl Iterator<Item = &'a str>, values: &[u64]) -> Vec<(String, u64)> {
    names
        .zip(values)
        .map(|(k, &v)| (k.to_string(), v))
        .collect()
}

fn fold(fold: Fold, into: &mut u64, x: u64) {
    *into = match fold {
        Fold::Sum => *into + x,
        Fold::Max => (*into).max(x),
    };
}

impl Tally {
    /// An empty tally whose distributions cover `0..=span`.
    pub(crate) fn empty(shape: &'static Shape, span: u32) -> Self {
        debug_assert!(shape.counters() <= MAX_COUNTERS);
        Tally {
            shape,
            span,
            trials: 0,
            counts: [0; MAX_COUNTERS],
            dists: Vec::new(),
        }
    }

    pub(crate) fn shape(&self) -> &'static Shape {
        self.shape
    }

    pub(crate) fn span(&self) -> u32 {
        self.span
    }

    pub(crate) fn trials(&self) -> u64 {
        self.trials
    }

    /// Records one trial: its verdict, its metrics (named, in shape
    /// order) and its details.
    ///
    /// # Panics
    ///
    /// Panics on a verdict the shape does not declare.
    pub(crate) fn trial(&mut self, verdict: &str, metrics: &[(&str, u64)], details: &[u64]) {
        let s = self.shape;
        debug_assert!(
            metrics
                .iter()
                .map(|m| m.0)
                .eq(s.metrics.iter().map(|m| m.0))
                && details.len() == s.details.len(),
            "{} trial does not match its shape",
            s.family
        );
        let v = s.verdicts.iter().position(|&name| name == verdict);
        let v = v.unwrap_or_else(|| panic!("{} has no verdict `{verdict}`", s.family));
        let mut trial = [0; MAX_COUNTERS];
        trial[v] = 1;
        let values = metrics.iter().map(|m| m.1).chain(details.iter().copied());
        for (slot, x) in trial[s.verdicts.len()..].iter_mut().zip(values) {
            *slot = x;
        }
        self.fold_counts(1, &trial);
    }

    /// Records one observation of distribution `dist` (its index in the
    /// shape). Values past the span land in the overflow bin.
    pub(crate) fn observe(&mut self, dist: usize, value: u32) {
        if self.dists.is_empty() {
            let span = self.span;
            self.dists = self
                .shape
                .distributions
                .iter()
                .map(|_| unit_bins(span))
                .collect();
        }
        self.dists[dist].record(f64::from(value));
    }

    fn fold_counts(&mut self, trials: u64, counts: &[u64; MAX_COUNTERS]) {
        self.trials += trials;
        for ((f, into), &x) in self.shape.folds().zip(&mut self.counts).zip(counts) {
            fold(f, into, x);
        }
    }

    /// Folds `other`, a tally of the same family and span, into this one.
    pub(crate) fn merge(&mut self, other: Tally) {
        self.fold_counts(other.trials, &other.counts);
        if self.dists.is_empty() {
            self.dists = other.dists;
        } else {
            for (a, b) in self.dists.iter_mut().zip(&other.dists) {
                a.merge(b);
            }
        }
    }

    /// Renders the tally as the scenario's outcome.
    pub(crate) fn into_outcome(self, name: &str) -> ScenarioOutcome {
        let s = self.shape;
        let (verdicts, rest) = self.counts.split_at(s.verdicts.len());
        let (metrics, details) = rest.split_at(s.metrics.len());
        let mut outcome = ScenarioOutcome::new(
            name,
            self.trials,
            named(s.verdicts.iter().copied(), verdicts),
            named(s.metrics.iter().map(|m| m.0), metrics),
        );
        outcome.details = named(s.details.iter().copied(), details);
        let mut dists = self.dists.into_iter();
        outcome.distributions = s
            .distributions
            .iter()
            .map(|k| {
                (
                    k.to_string(),
                    dists.next().unwrap_or_else(|| unit_bins(self.span)),
                )
            })
            .collect();
        outcome
    }
}

/// The nearest-rank percentile (0–100) of a unit-bin distribution: the
/// value at index `(n - 1) * pct / 100` of its sorted observations.
/// `None` when it holds no observation in range.
pub(crate) fn nearest_rank(h: &Histogram, pct: u32) -> Option<u32> {
    let n = h.bins().iter().sum::<u64>();
    let rank = n.checked_sub(1)? * u64::from(pct) / 100;
    let mut seen = 0;
    let value = h.bins().iter().position(|&c| {
        seen += c;
        seen > rank
    });
    value.map(|i| i as u32)
}

impl Checkpoint for Tally {
    /// `tally <family> <span> <trials> <counters…> <bins…>`: the shape
    /// fixes the number of counters, and each distribution has `span + 1`
    /// bins.
    fn encode(&self) -> String {
        let mut out = format!("tally {} {} {}", self.shape.family, self.span, self.trials);
        let bins = (0..self.shape.distributions.len()).flat_map(|d| match self.dists.get(d) {
            Some(h) => h.bins().to_vec(),
            None => vec![0; self.span as usize + 1],
        });
        for x in self.counts[..self.shape.counters()]
            .iter()
            .copied()
            .chain(bins)
        {
            checkpoint::push_u64(&mut out, x);
        }
        out
    }

    fn decode(reader: &mut TokenReader<'_>) -> Result<Self, String> {
        reader.expect_tag("tally")?;
        let family = reader.next_token()?;
        let shape = SHAPES
            .into_iter()
            .find(|s| s.family == family)
            .ok_or_else(|| format!("`{family}` is not a cluster family"))?;
        let span = reader.next_u64()?;
        if span > u64::from(MAX_CYCLES) {
            return Err(format!("span {span} exceeds {MAX_CYCLES}"));
        }
        let mut tally = Tally::empty(shape, span as u32);
        tally.trials = reader.next_u64()?;
        for slot in &mut tally.counts[..shape.counters()] {
            *slot = reader.next_u64()?;
        }
        let verdicts = &tally.counts[..shape.verdicts.len()];
        if verdicts.iter().try_fold(0u64, |t, &v| t.checked_add(v)) != Some(tally.trials) {
            return Err("verdict counts do not sum to the trial count".to_string());
        }
        for _ in shape.distributions {
            let bins = (0..=span)
                .map(|_| reader.next_u64())
                .collect::<Result<Vec<_>, _>>()?;
            let count = bins.iter().try_fold(0u64, |t, &b| t.checked_add(b));
            let count = count.ok_or("distribution count overflows")?;
            let grid = unit_bins(tally.span);
            let h = Histogram::from_raw(grid.low(), grid.high(), bins, 0, 0, count);
            tally.dists.push(h);
        }
        Ok(tally)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlft_sim::rng::RngStream;

    #[test]
    fn nearest_rank_equals_the_sorted_vector_rule() {
        let span = 40;
        for case in 0..50 {
            let mut rng = RngStream::new(0x9E7C).fork_indexed("latencies", case);
            let n = rng.uniform_range(1, 200) as usize;
            let mut latencies: Vec<u32> = (0..n)
                .map(|_| rng.uniform_range(0, u64::from(span) + 1) as u32)
                .collect();
            let mut h = unit_bins(span);
            latencies.iter().for_each(|&l| h.record(f64::from(l)));
            latencies.sort_unstable();
            for pct in 0..=100 {
                let idx = ((n - 1) * pct as usize) / 100;
                let rank = nearest_rank(&h, pct);
                assert_eq!(rank, Some(latencies[idx]), "n {n} pct {pct}");
            }
        }
        assert_eq!(nearest_rank(&unit_bins(span), 50), None);
    }
}
