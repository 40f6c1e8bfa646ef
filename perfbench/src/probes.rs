//! Per-layer probes for the traced run. Each layer is measured from
//! outside, by timing this crate's own calls into the layer's public
//! functions. A probe round builds its inputs untimed and times one
//! batch of calls; all probes run round-robin for [`ROUNDS`] rounds and
//! each reports its median time per call. Interleaving puts the host's
//! slow and fast spells on every probe alike, so the parts of the
//! attribution (cluster cycle = 6 × TEM job + TDMA cycle + bbw self)
//! are measured under the same conditions.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use nlft_bbw::cluster::{BbwCluster, CU_A, CU_B, WHEELS};
use nlft_bbw::scenario::{compile, run_scenario, CompiledScenario};
use nlft_bench::fig12;
use nlft_engine::{indexed_campaign, run_sequential, run_trials, EngineConfig, EngineReport};
use nlft_kernel::tem::{InjectionPlan, JobFault, TemConfig, TemExecutor};
use nlft_machine::fault::{run_with_injection, FaultSpace, TransientFault};
use nlft_machine::machine::{Machine, RunExit, NUM_PORTS};
use nlft_machine::workloads::{self, Workload as Program, MEM_BYTES, STACK_TOP};
use nlft_net::bus::{Bus, BusConfig};
use nlft_net::frame::NodeId;
use nlft_net::inject::{NetFaultInjector, NetFaultPlan, NetFaultRates};
use nlft_reliability::scenario::ScenarioSpec;
use nlft_sim::rng::RngStream;

use crate::trace::Tracer;
use crate::zoo::{self, CLUSTER_FAMILIES};
use crate::{median, montecarlo, Checks, Prepared, Workload, WORKERS};

/// Interleaved rounds of every probe.
const ROUNDS: usize = 15;
/// Transient fault plans per station program on the faulted path.
const FAULT_PLANS: usize = 256;
/// Communication cycles per fault-free cluster run.
const CLUSTER_CYCLES: u32 = 40;

const ALL_NODES: [NodeId; 6] = [CU_A, CU_B, WHEELS[0], WHEELS[1], WHEELS[2], WHEELS[3]];

/// One probe round: returns the time per operation in ns.
type Round<'a> = Box<dyn FnMut() -> f64 + 'a>;

/// A probe round that builds its input with `prepare` (untimed), then
/// times `batch`, which performs `ops` operations on it.
fn timed<'a, S>(
    ops: usize,
    mut prepare: impl FnMut() -> S + 'a,
    mut batch: impl FnMut(S) + 'a,
) -> Round<'a> {
    Box::new(move || {
        let input = prepare();
        let start = Instant::now();
        batch(input);
        start.elapsed().as_nanos() as f64 / ops as f64
    })
}

/// Runs the probes round-robin for [`ROUNDS`] rounds, one span per
/// probe round; returns each probe's median ns per operation.
fn interleave(mut probes: Vec<(String, Round<'_>)>, tracer: &mut Tracer) -> BTreeMap<String, f64> {
    let mut samples = vec![Vec::with_capacity(ROUNDS); probes.len()];
    for _ in 0..ROUNDS {
        for ((name, round), s) in probes.iter_mut().zip(&mut samples) {
            s.push(tracer.span(name, |_| round()));
        }
    }
    probes
        .into_iter()
        .zip(samples)
        .map(|((name, _), s)| (name, median(&s)))
        .collect()
}

/// Pass/fail helper for a condition that must hold.
fn require(checks: &mut Checks, ok: bool, what: impl FnOnce() -> String) {
    checks.check(if ok { Ok(()) } else { Err(what()) });
}

/// A station of the cluster: a program, the inputs it runs on, how many
/// of the six nodes run it, and the TEM configuration the cluster gives
/// it.
struct Station {
    program: Program,
    inputs: Vec<u32>,
    nodes: u32,
    tem: TemExecutor,
    /// A machine whose decode cache is filled, as a station's is after
    /// its first cycle.
    warm: Machine,
    golden: [Option<u32>; NUM_PORTS],
    /// Instructions of one clean run.
    insns: u64,
    /// Sampled transient faults on the faulted path.
    plans: Vec<Plan>,
}

/// One station's probe results: per-call times in ns, mean counts.
struct Figures {
    insns: f64,
    run_ns: f64,
    faulted_run_ns: f64,
    faulted_insns: f64,
    job_ns: f64,
    faulted_job_ns: f64,
    copies: f64,
}

/// One sampled fault: the flip, when it strikes, which TEM copy.
#[derive(Debug, Clone, Copy)]
struct Plan {
    fault: TransientFault,
    at_cycle: u64,
    copy: u32,
}

impl Plan {
    fn job_fault(self) -> JobFault {
        JobFault::Transient(InjectionPlan {
            copy: self.copy,
            at_cycle: self.at_cycle,
            fault: self.fault,
        })
    }
}

impl Station {
    fn new(program: Program, inputs: Vec<u32>, nodes: u32, rng: &mut RngStream) -> Self {
        let (golden, clean_cycles) = program.golden_run(&inputs);
        // The cluster's TEM budget: twice the clean run plus margin.
        let tem = TemExecutor::new(TemConfig::with_budget(clean_cycles * 2 + 50));
        let mut warm = program.instantiate();
        run_clean(&mut warm, &program, &inputs);
        let mut counter = warm.clone();
        counter.enable_trace(1 << 16);
        run_clean(&mut counter, &program, &inputs);
        let insns = counter.trace().count() as u64;
        let space = FaultSpace::seu(MEM_BYTES);
        let plans = (0..FAULT_PLANS)
            .map(|_| Plan {
                fault: space.sample(rng),
                at_cycle: rng.uniform_range(1, clean_cycles.max(2)),
                copy: rng.uniform_range(0, 2) as u32,
            })
            .collect();
        Station {
            program,
            inputs,
            nodes,
            tem,
            warm,
            golden,
            insns,
            plans,
        }
    }

    fn run_faulted(&self, m: &mut Machine, p: &Plan) {
        load(m, &self.program, &self.inputs);
        let budget = self.tem.config().copy_budget;
        black_box(run_with_injection(m, budget, p.at_cycle, p.fault));
    }

    fn machines(&self) -> Vec<Machine> {
        vec![self.warm.clone(); self.plans.len()]
    }

    /// This station's figures from the probe medians `ns`, with the
    /// faulted path's instruction and copy counts (exact: counted on
    /// separate machines).
    fn figures(&self, ns: &BTreeMap<String, f64>) -> Figures {
        let (mut insns, mut copies) = (0u64, 0u32);
        for p in &self.plans {
            let mut m = self.warm.clone();
            m.enable_trace(1 << 16);
            self.run_faulted(&mut m, p);
            insns += m.trace().count() as u64;
            let mut m = self.warm.clone();
            let job = self.tem.run_job_with_fault(
                &mut m,
                &self.program,
                &self.inputs,
                Some(p.job_fault()),
            );
            copies += job.executions();
        }
        let n = self.plans.len() as f64;
        let probe = |kind: &str| ns[&format!("{kind}/{}", self.program.name)];
        Figures {
            insns: self.insns as f64,
            run_ns: probe("machine.run"),
            faulted_run_ns: probe("machine.run_with_injection"),
            faulted_insns: insns as f64 / n,
            job_ns: probe("kernel.run_job"),
            faulted_job_ns: probe("kernel.run_job_with_fault"),
            copies: f64::from(copies) / n,
        }
    }

    /// The probes of this station: machine and kernel, clean and faulted.
    fn probes(&self) -> Vec<(String, Round<'_>)> {
        const RUNS: usize = 2_000;
        const JOBS: usize = 1_000;
        let name = self.program.name;
        vec![
            (
                format!("machine.run/{name}"),
                timed(
                    RUNS,
                    || self.warm.clone(),
                    |mut m| {
                        for _ in 0..RUNS {
                            black_box(run_clean(&mut m, &self.program, &self.inputs));
                        }
                    },
                ),
            ),
            (
                format!("machine.run_with_injection/{name}"),
                timed(
                    self.plans.len(),
                    || self.machines(),
                    |mut ms| {
                        for (m, p) in ms.iter_mut().zip(&self.plans) {
                            self.run_faulted(m, p);
                        }
                    },
                ),
            ),
            (
                format!("kernel.run_job/{name}"),
                timed(
                    JOBS,
                    || self.warm.clone(),
                    |mut m| {
                        for _ in 0..JOBS {
                            black_box(self.tem.run_job(&mut m, &self.program, &self.inputs, None));
                        }
                    },
                ),
            ),
            (
                format!("kernel.run_job_with_fault/{name}"),
                timed(
                    self.plans.len(),
                    || self.machines(),
                    |mut ms| {
                        for (m, p) in ms.iter_mut().zip(&self.plans) {
                            black_box(self.tem.run_job_with_fault(
                                m,
                                &self.program,
                                &self.inputs,
                                Some(p.job_fault()),
                            ));
                        }
                    },
                ),
            ),
        ]
    }

    /// The clean run and the clean TEM job reproduce the golden run.
    fn check(&self, checks: &mut Checks) {
        let name = self.program.name;
        let mut m = self.warm.clone();
        let exit = run_clean(&mut m, &self.program, &self.inputs);
        require(
            checks,
            exit == RunExit::Halted && *m.outputs() == self.golden,
            || format!("machine: clean {name} run diverged from its golden run"),
        );
        let mut m = self.warm.clone();
        let job = self.tem.run_job(&mut m, &self.program, &self.inputs, None);
        require(
            checks,
            job.executions() == 2 && job.outputs == Some(self.golden),
            || {
                format!(
                    "kernel: clean {name} TEM job ran {} copies or diverged",
                    job.executions()
                )
            },
        );
    }
}

fn load(m: &mut Machine, program: &Program, inputs: &[u32]) {
    m.reset(0, STACK_TOP);
    m.clear_outputs();
    for (&port, &v) in program.input_ports.iter().zip(inputs) {
        m.set_input(port, v);
    }
}

fn run_clean(m: &mut Machine, program: &Program, inputs: &[u32]) -> RunExit {
    load(m, program, inputs);
    m.run(workloads::DEFAULT_BUDGET).exit
}

/// Payload words a node sends per cycle: a sealed six-word command
/// from each central unit, one force word from each wheel.
fn payload(node: NodeId) -> Vec<u32> {
    if node == CU_A || node == CU_B {
        vec![0x4B0; 6]
    } else {
        vec![0x4B0]
    }
}

/// One TDMA cycle with every node that is not silenced transmitting in
/// its static slot; returns the frames delivered.
fn tdma_cycle(bus: &mut Bus, injector: Option<&mut NetFaultInjector>) -> usize {
    bus.start_cycle();
    let silenced = injector
        .map(|inj| inj.perturb_cycle(bus))
        .unwrap_or_default();
    for node in ALL_NODES {
        if !silenced.contains(&node) {
            let _ = bus.transmit_static(node, payload(node));
        }
    }
    bus.finish_cycle().static_frames.len()
}

/// The `NetFaultPlan` the `net-storm-nominal` scenario compiles to.
fn storm_plan(zoo: &[ScenarioSpec]) -> Result<NetFaultPlan, String> {
    let spec = zoo
        .iter()
        .find(|s| s.name == "net-storm-nominal")
        .ok_or("zoo has no net-storm-nominal scenario")?;
    match compile(spec, 1).map_err(|e| e.to_string())? {
        CompiledScenario::NetStorm(cfg) => Ok(NetFaultPlan::quiet()
            .with_nodes(&ALL_NODES, NetFaultRates::storm(cfg.intensity))
            .with_dynamic(0.10 * cfg.intensity, 0.10 * cfg.intensity)),
        _ => Err("net-storm-nominal did not compile to a net storm".to_string()),
    }
}

/// A campaign whose trial body is one wrapping add, so what is timed is
/// the engine's own per-trial overhead.
fn empty_campaign(trials: u64) -> impl nlft_engine::TrialCampaign<Acc = u64> + Send + Sync {
    indexed_campaign(
        "perfbench-empty",
        "unused",
        trials,
        || 0u64,
        |trial, _ctx, acc: &mut u64| *acc = acc.wrapping_add(black_box(trial)),
        |into, from| *into = into.wrapping_add(from),
    )
}

/// Runs every probe and returns the per-layer metrics except the
/// `trace.*` ones, appending the attribution lines to `lines`.
pub fn run_all(
    seed: u64,
    checks: &mut Checks,
    tracer: &mut Tracer,
    lines: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut rng = RngStream::new(seed).fork("perfbench-probes");
    let files = zoo::read_zoo()?;
    let specs = zoo::parse_zoo(&files)?;
    let plan = storm_plan(&specs)?;
    let storm_rng = rng.fork("net-injector");
    let stations = [
        Station::new(workloads::brake_distribution(), vec![1000], 2, &mut rng),
        // Set-point equal to the measured force: the integral and error
        // state words stay zero, so every run repeats the golden run.
        Station::new(workloads::pid_controller(), vec![1000, 1000], 4, &mut rng),
    ];

    // The empty campaign runs at the Monte-Carlo trial count.
    let n = montecarlo::REPLICATIONS * montecarlo::CONFIGS.len() as u64;
    let expect = (0..n).fold(0u64, u64::wrapping_add);
    let empty_ok = Cell::new(true);
    let frames_ok = Cell::new(true);
    let cluster_ok = Cell::new(true);
    const FORKS: usize = 1_000_000;
    const SETUPS: usize = 5;
    const CYCLES: usize = 2_000;
    const BUILDS: usize = 100;
    const CLUSTERS: usize = 20;
    let cluster =
        |i: u64| BbwCluster::with_rng(RngStream::new(seed).fork_indexed("pedal-sensors", i));
    let mut probes: Vec<(String, Round<'_>)> = vec![
        (
            "engine.run_trials/empty".into(),
            timed(
                n as usize,
                || (),
                |()| {
                    let run = run_trials(empty_campaign(n), &EngineConfig::with_workers(WORKERS));
                    empty_ok.set(empty_ok.get() && run.acc == expect && run.report.completed == n);
                },
            ),
        ),
        (
            "engine.run_sequential/empty".into(),
            timed(
                n as usize,
                || (),
                |()| {
                    let run = run_sequential(&empty_campaign(n), &EngineConfig::with_workers(1));
                    empty_ok.set(empty_ok.get() && run.acc == expect && run.report.completed == n);
                },
            ),
        ),
        (
            "sim.fork_indexed".into(),
            timed(
                FORKS,
                || RngStream::new(seed),
                |root| {
                    for i in 0..FORKS as u64 {
                        black_box(root.fork_indexed("replication", black_box(i)));
                    }
                },
            ),
        ),
        (
            "reliability.parse_scenario".into(),
            timed(
                SETUPS,
                || (),
                |()| {
                    for _ in 0..SETUPS {
                        black_box(zoo::parse_zoo(&files)).ok();
                    }
                },
            ),
        ),
        (
            "bbw.compile".into(),
            timed(
                SETUPS,
                || (),
                |()| {
                    for _ in 0..SETUPS {
                        for spec in &specs {
                            black_box(compile(spec, WORKERS)).ok();
                        }
                    }
                },
            ),
        ),
        (
            "reliability.fig12".into(),
            timed(
                1,
                || (),
                |()| {
                    black_box(fig12::generate());
                },
            ),
        ),
        (
            "net.bus_cycle".into(),
            timed(
                CYCLES,
                || Bus::new(BusConfig::round_robin(6, 4)),
                |mut bus| {
                    for _ in 0..CYCLES {
                        frames_ok
                            .set(frames_ok.get() && tdma_cycle(&mut bus, None) == ALL_NODES.len());
                    }
                },
            ),
        ),
        (
            "net.perturb_cycle".into(),
            timed(
                CYCLES,
                || {
                    (
                        Bus::new(BusConfig::round_robin(6, 4)),
                        NetFaultInjector::new(plan.clone(), storm_rng.clone()),
                    )
                },
                |(mut bus, mut inj)| {
                    for _ in 0..CYCLES {
                        black_box(tdma_cycle(&mut bus, Some(&mut inj)));
                    }
                },
            ),
        ),
        (
            "bbw.cluster_build".into(),
            timed(
                BUILDS,
                || (),
                |()| {
                    for i in 0..BUILDS as u64 {
                        black_box(cluster(i));
                    }
                },
            ),
        ),
        (
            "bbw.cluster_run".into(),
            timed(
                CLUSTERS * CLUSTER_CYCLES as usize,
                || (0..CLUSTERS as u64).map(cluster).collect::<Vec<_>>(),
                |mut clusters| {
                    for c in &mut clusters {
                        let r = c.run(CLUSTER_CYCLES, |_| 1200);
                        cluster_ok.set(
                            cluster_ok.get()
                                && !r.service_lost
                                && !r.split_membership
                                && r.degraded_cycles == 0,
                        );
                    }
                },
            ),
        ),
    ];
    for st in &stations {
        probes.extend(st.probes());
    }
    let ns = interleave(probes, tracer);
    require(checks, empty_ok.get(), || {
        "engine: an empty campaign lost trials".to_string()
    });
    require(checks, frames_ok.get(), || {
        "net: a clean TDMA cycle lost a frame".to_string()
    });
    require(checks, cluster_ok.get(), || {
        "bbw: a fault-free cluster run degraded".to_string()
    });
    for st in &stations {
        st.check(checks);
    }

    // Per-station figures, weighted by how many of the six nodes run
    // each program.
    let figures: Vec<Figures> = stations.iter().map(|s| s.figures(&ns)).collect();
    let nodes: f64 = stations.iter().map(|s| f64::from(s.nodes)).sum();
    let weighted = |f: fn(&Figures) -> f64| -> f64 {
        stations
            .iter()
            .zip(&figures)
            .map(|(s, fig)| f64::from(s.nodes) * f(fig))
            .sum::<f64>()
            / nodes
    };
    let insns = weighted(|f| f.insns);
    let run_ns = weighted(|f| f.run_ns);
    let faulted_run_ns = weighted(|f| f.faulted_run_ns);
    let faulted_insns = weighted(|f| f.faulted_insns);
    let job_ns = weighted(|f| f.job_ns);
    let faulted_job_ns = weighted(|f| f.faulted_job_ns);
    let copies = weighted(|f| f.copies);
    // A faulted job's machine work: the faulted copy plus clean re-runs.
    let faulted_machine_ns = weighted(|f| f.faulted_run_ns + (f.copies - 1.0) * f.run_ns);
    let tdma_ns = ns["net.bus_cycle"];
    let cycle_ns = ns["bbw.cluster_run"];
    let tem_cycle_ns = ALL_NODES.len() as f64 * job_ns;
    let bbw_self_ns = cycle_ns - tem_cycle_ns - tdma_ns;

    let mut out: Vec<(&'static str, f64)> = vec![
        ("engine.empty_trial_ns", ns["engine.run_trials/empty"]),
        (
            "engine.empty_trial_seq_ns",
            ns["engine.run_sequential/empty"],
        ),
        ("sim.fork_indexed_ns", ns["sim.fork_indexed"]),
        ("machine.ns_per_insn.clean", run_ns / insns),
        (
            "machine.ns_per_insn.faulted",
            faulted_run_ns / faulted_insns,
        ),
        ("machine.insn_per_run", insns),
        ("kernel.tem_job_us.clean", job_ns / 1e3),
        ("kernel.tem_job_us.faulted", faulted_job_ns / 1e3),
        ("kernel.copies_per_job", copies),
        ("kernel.tem_self_us", (job_ns - 2.0 * run_ns) / 1e3),
        (
            "kernel.tem_self_us.faulted",
            (faulted_job_ns - faulted_machine_ns) / 1e3,
        ),
        ("net.tdma_cycle_us", tdma_ns / 1e3),
        ("net.storm_cycle_us", ns["net.perturb_cycle"] / 1e3),
        ("bbw.cluster_build_us", ns["bbw.cluster_build"] / 1e3),
        ("bbw.cluster_cycle_us", cycle_ns / 1e3),
        ("bbw.cycle_self_us", bbw_self_ns / 1e3),
        ("bbw.compile_ms", ns["bbw.compile"] / 1e6),
        (
            "reliability.parse_ms",
            ns["reliability.parse_scenario"] / 1e6,
        ),
        ("reliability.fig12_ms", ns["reliability.fig12"] / 1e6),
    ];

    // Per-family trial cost: every zoo scenario at its own trial count
    // on one worker, pins checked.
    let mut family: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    let mut net: BTreeMap<&str, u64> = BTreeMap::new();
    for spec in &specs {
        let start = Instant::now();
        let outcome = tracer.span(&format!("bbw.run_scenario/{}", spec.name), |_| {
            run_scenario(spec, 1)
        });
        let f = family.entry(spec.params.family()).or_default();
        f.0 += start.elapsed().as_secs_f64() * 1e6;
        f.1 += spec.trials;
        if let (Ok(o), true) = (&outcome, CLUSTER_FAMILIES.contains(&spec.params.family())) {
            for counter in [
                "crc_rejects",
                "guardian_blocks",
                "masquerade_rejects",
                "injected",
            ] {
                *net.entry(counter).or_default() += o.counter(counter).unwrap_or(0);
            }
        }
        checks.trials(spec.trials, outcome.as_ref().map_or(0, |o| o.trials));
        checks.check(zoo::native_verdict(spec, outcome));
    }
    let family_us = |name: &str| {
        family
            .get(name)
            .map_or(0.0, |&(us, n)| us / n.max(1) as f64)
    };
    let family_trials = |name: &str| family.get(name).map_or(0.0, |&(_, n)| n as f64);
    let net_count = |name: &str| net.get(name).copied().unwrap_or(0) as f64;
    out.extend([
        ("net.crc_rejects", net_count("crc_rejects")),
        ("net.guardian_blocks", net_count("guardian_blocks")),
        ("net.masquerade_rejects", net_count("masquerade_rejects")),
        ("net.injected", net_count("injected")),
        ("bbw.trial_us.cluster", family_us("cluster")),
        ("bbw.trial_us.net_storm", family_us("net_storm")),
        ("bbw.trial_us.value_domain", family_us("value_domain")),
        ("bbw.trial_us.blackout", family_us("blackout")),
        ("bbw.trial_us.recovery", family_us("recovery")),
        ("bbw.trial_us.weakly_hard", family_us("weakly_hard")),
        ("bbw.trials.cluster", family_trials("cluster")),
        ("bbw.trials.net_storm", family_trials("net_storm")),
        ("bbw.trials.value_domain", family_trials("value_domain")),
        ("bbw.trials.blackout", family_trials("blackout")),
        ("bbw.trials.recovery", family_trials("recovery")),
        ("bbw.trials.weakly_hard", family_trials("weakly_hard")),
        ("core.trial_us.node", family_us("node")),
        ("core.trial_us.multicore", family_us("multicore")),
    ]);

    // engine: a pass at one worker against a pass at two, for every
    // workload; the outputs must not depend on the worker count.
    let mut mc_reports: Vec<EngineReport> = Vec::new();
    for workload in Workload::ALL {
        let prepared = Prepared::setup(workload, seed, tracer)?;
        let name = workload.name();
        let one = tracer.span(&format!("speedup/{name}/1w"), |t| {
            prepared.rep(1, checks, t)
        });
        let two = tracer.span(&format!("speedup/{name}/2w"), |t| {
            prepared.rep(WORKERS, checks, t)
        });
        require(checks, one.digests == two.digests, || {
            format!("{name}: digests differ between 1 and {WORKERS} workers")
        });
        out.push((
            match workload {
                Workload::ClusterZoo => "engine.speedup_2w.cluster-zoo",
                Workload::NodeZoo => "engine.speedup_2w.node-zoo",
                Workload::Fig12MonteCarlo => "engine.speedup_2w.fig12-montecarlo",
            },
            one.seconds / two.seconds,
        ));
        mc_reports.extend(two.engine);
    }
    let sum = |f: &dyn Fn(&EngineReport) -> usize| mc_reports.iter().map(f).sum::<usize>() as f64;
    out.extend([
        ("engine.blocks", sum(&|r| r.blocks as usize)),
        ("engine.steals", sum(&|r| r.steals as usize)),
        (
            "engine.max_pending_blocks",
            mc_reports
                .iter()
                .map(|r| r.max_pending_blocks)
                .max()
                .unwrap_or(0) as f64,
        ),
        ("engine.panicked", sum(&|r| r.panicked.len())),
        ("engine.timed_out", sum(&|r| r.timed_out.len())),
    ]);

    let pct = |part: f64, whole: f64| 100.0 * part / whole;
    let us = |ns: f64| ns / 1e3;
    let tem_self_ns = job_ns - 2.0 * run_ns;
    let faulted_self_ns = faulted_job_ns - faulted_machine_ns;
    lines.push(format!(
        "attribution: cluster cycle {:.2} us = 6 x TEM job {:.2} us ({:.1}%) + TDMA cycle {:.2} us ({:.1}%) + bbw self {:.2} us ({:.1}%)",
        us(cycle_ns),
        us(job_ns),
        pct(tem_cycle_ns, cycle_ns),
        us(tdma_ns),
        pct(tdma_ns, cycle_ns),
        us(bbw_self_ns),
        pct(bbw_self_ns, cycle_ns),
    ));
    lines.push(format!(
        "attribution: TEM job {:.3} us = 2 copies x machine run {:.3} us ({:.1}%) + kernel self {:.3} us ({:.1}%)",
        us(job_ns),
        us(run_ns),
        pct(2.0 * run_ns, job_ns),
        us(tem_self_ns),
        pct(tem_self_ns, job_ns),
    ));
    lines.push(format!(
        "attribution: faulted TEM job {:.3} us = {:.3} copies of machine work {:.3} us ({:.1}%) + kernel self {:.3} us ({:.1}%)",
        us(faulted_job_ns),
        copies,
        us(faulted_machine_ns),
        pct(faulted_machine_ns, faulted_job_ns),
        us(faulted_self_ns),
        pct(faulted_self_ns, faulted_job_ns),
    ));
    Ok(out)
}
