//! The `fig12-montecarlo` workload: the Fig. 12 analytic curves plus
//! the Monte-Carlo cross-check (FS/degraded and NLFT/degraded) on
//! `bbw::montecarlo::run_monte_carlo_with`.

use std::time::Instant;

use nlft_bbw::analytic::{BbwSystem, Functionality, Policy};
use nlft_bbw::montecarlo::{run_monte_carlo_with, MonteCarloConfig, MonteCarloResult};
use nlft_bbw::params::BbwParams;
use nlft_bench::trajectory::golden_digest;
use nlft_engine::{checkpoint, CampaignOptions, EngineConfig};
use nlft_reliability::model::ReliabilityModel;
use nlft_sim::crc::crc32;
use nlft_sim::rng::RngStream;

use crate::trace::Tracer;
use crate::{Checks, Rep, DEFAULT_SEED};

/// Replications per configuration (two configurations per pass).
pub const REPLICATIONS: u64 = 500_000;
/// The Monte-Carlo master seed at the default workload seed.
pub const DEFAULT_MC_SEED: u64 = 0x2005;
/// Standard-normal quantile of the Wilson bands. A run checks 24 grid
/// points (two configurations × 12 months), so a per-point 99 % band
/// fails some run of a ten-seed series by chance alone; at z = 5 the
/// chance of any false alarm in a run is about 1.4e-5, while a bias of
/// five standard errors (about 0.001 at one month, 0.0035 at one year)
/// still fails.
pub const BAND_Z: f64 = 5.0;
/// The committed CRC-32 of the bit-exact Fig. 12 curves.
pub const FIG12_GOLDEN: u32 = 0x2099_0701;

/// The cross-checked configurations.
pub const CONFIGS: [(&str, Policy, Functionality); 2] = [
    ("FS/degraded", Policy::FailSilent, Functionality::Degraded),
    ("NLFT/degraded", Policy::Nlft, Functionality::Degraded),
];

/// The Monte-Carlo master seed for a workload seed.
pub fn mc_seed(workload_seed: u64) -> u64 {
    if workload_seed == DEFAULT_SEED {
        DEFAULT_MC_SEED
    } else {
        RngStream::new(workload_seed)
            .fork("fig12-montecarlo")
            .next_u64()
    }
}

/// A set-up Monte-Carlo workload: one config and analytic model per
/// cross-checked configuration.
#[derive(Debug, Clone)]
pub struct McCampaign {
    /// `(label, Monte-Carlo config, analytic model)`.
    pub configs: Vec<(&'static str, MonteCarloConfig, BbwSystem)>,
}

impl McCampaign {
    /// Set-up: the Monte-Carlo configs on the one-year monthly grid and
    /// the analytic models they are checked against.
    pub fn setup(seed: u64, tracer: &mut Tracer) -> Self {
        tracer.span("bbw.analytic", |_| {
            let params = BbwParams::paper();
            let configs = CONFIGS
                .iter()
                .map(|&(label, policy, functionality)| {
                    let cfg = MonteCarloConfig::one_year(
                        policy,
                        functionality,
                        REPLICATIONS,
                        mc_seed(seed),
                    );
                    (label, cfg, BbwSystem::new(&params, policy, functionality))
                })
                .collect();
            McCampaign { configs }
        })
    }

    /// One timed pass: the analytic curves (checked against the golden
    /// digest) and every Monte-Carlo configuration.
    pub fn pass(
        &self,
        workers: usize,
        checks: &mut Checks,
        tracer: &mut Tracer,
    ) -> (Rep, Vec<MonteCarloResult>) {
        let mut rep = Rep::default();
        let start = Instant::now();
        let fig12 = tracer.span("reliability.fig12", |_| golden_digest());
        checks.check(if fig12 == FIG12_GOLDEN {
            Ok(())
        } else {
            Err(format!(
                "fig12 digest 0x{fig12:08x}, golden 0x{FIG12_GOLDEN:08x}"
            ))
        });
        let engine = EngineConfig::with_workers(workers);
        let mut accs = Vec::new();
        for (label, cfg, _) in &self.configs {
            let name = format!("bbw.run_monte_carlo_with/{label}");
            let run = tracer.span(&name, |_| {
                run_monte_carlo_with(cfg, &engine, CampaignOptions::default())
            });
            rep.requested += cfg.replications;
            rep.completed += run.report.completed;
            rep.digests.push((label.to_string(), acc_digest(&run.acc)));
            rep.engine.push(run.report);
            accs.push(run.acc);
        }
        rep.seconds = start.elapsed().as_secs_f64();
        (rep, accs)
    }

    /// The statistical oracle: at every grid point the analytic R(t)
    /// must lie inside the Wilson band (z = [`BAND_Z`]) of the estimate.
    pub fn check_bands(&self, accs: &[MonteCarloResult], checks: &mut Checks) {
        for ((label, cfg, model), acc) in self.configs.iter().zip(accs) {
            let n = acc.curve.replications();
            for (&t, r_mc) in cfg.grid_hours.iter().zip(acc.reliability()) {
                let (lo, hi) = wilson_band(r_mc, n, BAND_Z);
                let r = model.reliability(t);
                checks.check(if (lo..=hi).contains(&r) {
                    Ok(())
                } else {
                    Err(format!(
                        "{label} t={t}h: analytic R={r:.6} outside the z={BAND_Z} Wilson band \
                         [{lo:.6}, {hi:.6}] of the estimate {r_mc:.6}"
                    ))
                });
            }
        }
    }
}

/// The Wilson score interval of a proportion `p` observed over `n`
/// trials, at standard-normal quantile `z`.
pub fn wilson_band(p: f64, n: u64, z: f64) -> (f64, f64) {
    let n = n as f64;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = (p + z2 / (2.0 * n)) / denom;
    let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    ((centre - half).max(0.0), (centre + half).min(1.0))
}

/// CRC-32 over the accumulator's checkpoint encoding, which renders
/// every float as its IEEE-754 bits.
pub fn acc_digest(acc: &MonteCarloResult) -> u32 {
    crc32(checkpoint::encode(acc).as_bytes())
}

#[cfg(test)]
mod tests {
    use nlft_sim::stats::{Confidence, Proportion};

    use super::*;

    #[test]
    fn wilson_band_matches_the_library_at_its_levels() {
        for (successes, n) in [(0u64, 10u64), (7, 10), (979_326, 1_000_000), (10, 10)] {
            let p = successes as f64 / n as f64;
            let ours = wilson_band(p, n, Confidence::C99.z());
            let lib = Proportion::from_counts(successes, n).wilson_interval(Confidence::C99);
            assert!((ours.0 - lib.0).abs() < 1e-12 && (ours.1 - lib.1).abs() < 1e-12);
        }
    }
}
