//! The node executive: the kernel's task-activation loop.
//!
//! Implements the three error-handling strategies of §2.2 on one machine:
//!
//! 1. **critical tasks** run under TEM ([`crate::tem`]) and may consume
//!    recovery slack; unrecoverable errors become omissions;
//! 2. **non-critical tasks** run once; any detected error shuts the task
//!    down so the rest of the schedule is untouched;
//! 3. **kernel errors** (faults striking while kernel code runs) silence
//!    the whole node — recovery is the system's job, not the node's.
//!
//! The executive also implements §2.5's permanent-fault suspicion: a task
//! whose activations keep failing for `repeated_error_threshold` consecutive
//! frames takes the node down for off-line diagnosis.

use std::fmt;

use nlft_machine::edm::Edm;
use nlft_machine::machine::{Machine, RunExit, NUM_PORTS};
use nlft_machine::mem::WORD_BYTES;
use nlft_machine::workloads::{Workload, DATA_BASE, STACK_TOP};

use crate::integrity::crc32;

use crate::task::{Criticality, TaskId, TaskSpec};
use crate::tem::{InjectionPlan, JobOutcome, TemConfig, TemExecutor, STATE_WORDS};

/// A task bound to its executable workload.
#[derive(Debug, Clone)]
pub struct BoundTask {
    /// Static scheduling parameters.
    pub spec: TaskSpec,
    /// The program the task runs.
    pub workload: Workload,
    /// TEM configuration; required for critical tasks, ignored for
    /// non-critical ones.
    pub tem: Option<TemConfig>,
}

/// Executive configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutiveConfig {
    /// Consecutive erroneous activations of one task before the node
    /// suspects a permanent fault and silences itself (§2.5).
    pub repeated_error_threshold: u32,
    /// Cycle budget for one activation of a non-critical task.
    pub non_critical_budget: u64,
    /// Kernel overhead cycles charged per activation (dispatching,
    /// bookkeeping) — the ~5% of CPU the paper attributes to the kernel.
    pub kernel_overhead_cycles: u64,
    /// Kernel-side state protection (§2.6): after every delivered critical
    /// activation the kernel keeps a CRC-sealed copy of the task's state
    /// region; before the next activation it verifies the region and, on a
    /// mismatch (e.g. a wild store by another task or a fault between
    /// activations), restores the last good copy — a detection by the
    /// data-integrity mechanism that is then masked.
    pub seal_task_state: bool,
}

impl Default for ExecutiveConfig {
    fn default() -> Self {
        ExecutiveConfig {
            repeated_error_threshold: 3,
            non_critical_budget: 50_000,
            kernel_overhead_cycles: 40,
            seal_task_state: true,
        }
    }
}

/// Where an injected fault strikes, relative to the executive's activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionSite {
    /// During a task's execution: frame index, position of the task in the
    /// schedule, and the in-job plan.
    Task {
        /// Frame in which to inject.
        frame: u32,
        /// Index of the task within the executive's schedule.
        task_index: usize,
        /// The TEM-level plan (copy, cycle, fault).
        plan: InjectionPlan,
    },
    /// During kernel execution in the given frame: detected by the kernel's
    /// internal checks, so the node goes silent (§2.2 strategy 3).
    Kernel {
        /// Frame in which the kernel is hit.
        frame: u32,
    },
    /// A wild store corrupting a task's state region *between* activations
    /// (the §2.6 scenario end-to-end checks exist for): before the given
    /// frame's activation of the task, `value` is written over the state
    /// word at `offset_words`.
    WildStateWrite {
        /// Frame before whose activation the write lands.
        frame: u32,
        /// Index of the victim task in the schedule.
        task_index: usize,
        /// Word offset within the state region.
        offset_words: u32,
        /// The garbage value written.
        value: u32,
    },
}

/// The record of one task activation.
#[derive(Debug, Clone, PartialEq)]
pub struct Activation {
    /// Frame number.
    pub frame: u32,
    /// Which task.
    pub task: TaskId,
    /// What happened.
    pub outcome: ActivationOutcome,
    /// Cycles the activation consumed (task + TEM overheads).
    pub cycles: u64,
}

/// Outcome of one task activation.
#[derive(Debug, Clone, PartialEq)]
pub enum ActivationOutcome {
    /// Result delivered (critical: via TEM; non-critical: plain run).
    Delivered {
        /// Output ports produced.
        outputs: [Option<u32>; NUM_PORTS],
        /// `true` if an error was masked along the way.
        masked: bool,
    },
    /// Critical task produced no result this period.
    Omission {
        /// The detecting mechanism.
        detected_by: Edm,
    },
    /// Non-critical task errored and was shut down.
    TaskShutdown {
        /// The detecting mechanism.
        detected_by: Edm,
    },
    /// Task skipped because it was previously shut down.
    Skipped,
}

/// Terminal state of the node after a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Ran all frames.
    Completed,
    /// Kernel error → node silenced itself.
    FailSilent {
        /// Frame at which the node went silent.
        frame: u32,
    },
    /// Repeated task errors → node shut down for off-line diagnosis.
    SuspectedPermanent {
        /// The repeatedly failing task.
        task: TaskId,
        /// Frame at which the threshold tripped.
        frame: u32,
    },
}

impl fmt::Display for NodeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeState::Completed => write!(f, "completed"),
            NodeState::FailSilent { frame } => write!(f, "fail-silent at frame {frame}"),
            NodeState::SuspectedPermanent { task, frame } => {
                write!(f, "suspected permanent fault in {task} at frame {frame}")
            }
        }
    }
}

/// Full report of an executive run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutiveReport {
    /// Every activation, in execution order.
    pub activations: Vec<Activation>,
    /// Terminal node state.
    pub node_state: NodeState,
    /// Cycles spent in task code (including TEM copies).
    pub task_cycles: u64,
    /// Cycles charged to the kernel (dispatch + TEM overheads).
    pub kernel_cycles: u64,
}

impl ExecutiveReport {
    /// Fraction of CPU time spent in the kernel — the paper assumes ~5%,
    /// which grounds its `P_FS` parameter.
    pub fn kernel_share(&self) -> f64 {
        let total = self.task_cycles + self.kernel_cycles;
        if total == 0 {
            0.0
        } else {
            self.kernel_cycles as f64 / total as f64
        }
    }

    /// Activations of one task.
    pub fn for_task(&self, id: TaskId) -> impl Iterator<Item = &Activation> {
        self.activations.iter().filter(move |a| a.task == id)
    }
}

/// The node executive.
#[derive(Debug)]
pub struct NodeExecutive {
    tasks: Vec<BoundTask>,
    config: ExecutiveConfig,
}

impl NodeExecutive {
    /// Creates an executive over a schedule of bound tasks. Tasks execute
    /// each frame in the given order (assumed priority-sorted).
    ///
    /// # Panics
    ///
    /// Panics if a critical task lacks a TEM configuration.
    pub fn new(tasks: Vec<BoundTask>, config: ExecutiveConfig) -> Self {
        for t in &tasks {
            if t.spec.criticality == Criticality::Critical {
                assert!(
                    t.tem.is_some(),
                    "critical task {} requires a TEM configuration",
                    t.spec.name
                );
            }
        }
        NodeExecutive { tasks, config }
    }

    /// Runs `frames` cyclic frames on a fresh machine per task (tasks are
    /// MMU-confined and share nothing but the executive). Inputs for each
    /// activation come from `inputs(task_index, frame)`.
    pub fn run(
        &self,
        frames: u32,
        mut inputs: impl FnMut(usize, u32) -> Vec<u32>,
        injection: Option<InjectionSite>,
    ) -> ExecutiveReport {
        let mut machines: Vec<Machine> = self
            .tasks
            .iter()
            .map(|t| t.workload.instantiate())
            .collect();
        let mut shutdown = vec![false; self.tasks.len()];
        let mut consecutive_errors = vec![0u32; self.tasks.len()];
        // Kernel-side protected copies of each critical task's state region.
        let mut sealed_state: Vec<Option<([u32; STATE_WORDS], u32)>> = vec![None; self.tasks.len()];
        let mut activations = Vec::new();
        let mut task_cycles = 0u64;
        let mut kernel_cycles = 0u64;

        for frame in 0..frames {
            // Kernel-window fault?
            if let Some(InjectionSite::Kernel { frame: f }) = injection {
                if f == frame {
                    // Kernel assertions/EDMs catch it; node goes silent.
                    return ExecutiveReport {
                        activations,
                        node_state: NodeState::FailSilent { frame },
                        task_cycles,
                        kernel_cycles,
                    };
                }
            }
            for (idx, bound) in self.tasks.iter().enumerate() {
                kernel_cycles += self.config.kernel_overhead_cycles;
                if shutdown[idx] {
                    activations.push(Activation {
                        frame,
                        task: bound.spec.id,
                        outcome: ActivationOutcome::Skipped,
                        cycles: 0,
                    });
                    continue;
                }
                let plan = match injection {
                    Some(InjectionSite::Task {
                        frame: f,
                        task_index,
                        plan,
                    }) if f == frame && task_index == idx => Some(plan),
                    _ => None,
                };
                let input_vec = inputs(idx, frame);
                let machine = &mut machines[idx];
                // Apply any scheduled wild store before this activation.
                if let Some(InjectionSite::WildStateWrite {
                    frame: f,
                    task_index,
                    offset_words,
                    value,
                }) = injection
                {
                    if f == frame && task_index == idx {
                        let addr = DATA_BASE + (offset_words % STATE_WORDS as u32) * WORD_BYTES;
                        machine
                            .mem
                            .store(addr, value)
                            .expect("state region is mapped");
                    }
                }
                let mut integrity_detection = false;
                if self.config.seal_task_state && bound.spec.criticality == Criticality::Critical {
                    kernel_cycles += self.config.kernel_overhead_cycles;
                    if let Some((copy, crc)) = &sealed_state[idx] {
                        let current = read_state(machine);
                        if crc32(&current) != *crc {
                            // Wild write detected: restore the kernel copy.
                            write_state(machine, copy);
                            integrity_detection = true;
                        }
                    }
                }
                let (outcome, cycles, errored) = match bound.spec.criticality {
                    Criticality::Critical => {
                        let tem = TemExecutor::new(bound.tem.expect("validated in new"));
                        let report = tem.run_job(machine, &bound.workload, &input_vec, plan);
                        // TEM overheads are kernel work; copies are task work.
                        let copies: u64 = report.copies.iter().map(|c| c.cycles).sum();
                        task_cycles += copies;
                        kernel_cycles += report.cycles_used - copies;
                        let errored = !report.detections.is_empty() || integrity_detection;
                        let outcome = match report.outcome {
                            JobOutcome::DeliveredClean => ActivationOutcome::Delivered {
                                outputs: report.outputs.expect("delivered"),
                                masked: integrity_detection,
                            },
                            JobOutcome::DeliveredMasked { .. } => ActivationOutcome::Delivered {
                                outputs: report.outputs.expect("delivered"),
                                masked: true,
                            },
                            JobOutcome::Omission { detected_by } => {
                                ActivationOutcome::Omission { detected_by }
                            }
                        };
                        if self.config.seal_task_state
                            && matches!(outcome, ActivationOutcome::Delivered { .. })
                        {
                            let state = read_state(machine);
                            let crc = crc32(&state);
                            sealed_state[idx] = Some((state, crc));
                        }
                        (outcome, report.cycles_used, errored)
                    }
                    Criticality::NonCritical => {
                        machine.reset(0, STACK_TOP);
                        machine.clear_outputs();
                        for (&port, &v) in bound.workload.input_ports.iter().zip(&input_vec) {
                            machine.set_input(port, v);
                        }
                        let exit = match plan {
                            Some(p) => {
                                let (o, _) = nlft_machine::fault::run_with_injection(
                                    machine,
                                    self.config.non_critical_budget,
                                    p.at_cycle,
                                    p.fault,
                                );
                                o
                            }
                            None => machine.run(self.config.non_critical_budget),
                        };
                        task_cycles += exit.cycles_used;
                        match exit.exit {
                            RunExit::Halted => (
                                ActivationOutcome::Delivered {
                                    outputs: *machine.outputs(),
                                    masked: false,
                                },
                                exit.cycles_used,
                                false,
                            ),
                            RunExit::Exception(e) => {
                                shutdown[idx] = true;
                                (
                                    ActivationOutcome::TaskShutdown {
                                        detected_by: Edm::from_exception(&e),
                                    },
                                    exit.cycles_used,
                                    true,
                                )
                            }
                            RunExit::BudgetExhausted => {
                                shutdown[idx] = true;
                                (
                                    ActivationOutcome::TaskShutdown {
                                        detected_by: Edm::ExecutionTimeMonitor,
                                    },
                                    exit.cycles_used,
                                    true,
                                )
                            }
                        }
                    }
                };
                if errored {
                    consecutive_errors[idx] += 1;
                } else {
                    consecutive_errors[idx] = 0;
                }
                let suspect = consecutive_errors[idx] >= self.config.repeated_error_threshold;
                activations.push(Activation {
                    frame,
                    task: bound.spec.id,
                    outcome,
                    cycles,
                });
                if suspect {
                    return ExecutiveReport {
                        activations,
                        node_state: NodeState::SuspectedPermanent {
                            task: bound.spec.id,
                            frame,
                        },
                        task_cycles,
                        kernel_cycles,
                    };
                }
            }
        }
        ExecutiveReport {
            activations,
            node_state: NodeState::Completed,
            task_cycles,
            kernel_cycles,
        }
    }
}

/// Kernel-mode raw read of a task's state region (oracle view; the sealed
/// copy lives in kernel memory, outside the task's MMU map).
fn read_state(machine: &Machine) -> [u32; STATE_WORDS] {
    let mut state = [0; STATE_WORDS];
    machine
        .mem
        .peek_words(DATA_BASE, &mut state)
        .expect("state region is mapped");
    state
}

fn write_state(machine: &mut Machine, words: &[u32; STATE_WORDS]) {
    machine
        .mem
        .store_words(DATA_BASE, words)
        .expect("state region is mapped");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Priority, TaskSpecBuilder};
    use nlft_machine::fault::{FaultTarget, StuckAtFault, TransientFault};
    use nlft_machine::isa::Reg;
    use nlft_machine::workloads;
    use nlft_sim::time::SimDuration;

    fn spec(id: u32, crit: Criticality) -> TaskSpec {
        TaskSpecBuilder::new(TaskId(id), format!("t{id}"))
            .period(SimDuration::from_millis(5))
            .wcet(SimDuration::from_micros(500))
            .priority(Priority(id))
            .criticality(crit)
            .build()
            .unwrap()
    }

    fn bound_pid(id: u32) -> BoundTask {
        let w = workloads::pid_controller();
        let (_, cycles) = w.golden_run(&[500, 400]);
        BoundTask {
            spec: spec(id, Criticality::Critical),
            workload: w,
            tem: Some(TemConfig::with_budget(cycles * 2)),
        }
    }

    fn bound_sum_noncritical(id: u32) -> BoundTask {
        BoundTask {
            spec: spec(id, Criticality::NonCritical),
            workload: workloads::sum_series(),
            tem: None,
        }
    }

    #[test]
    fn clean_run_delivers_every_frame() {
        let exec = NodeExecutive::new(
            vec![bound_pid(1), bound_sum_noncritical(2)],
            ExecutiveConfig::default(),
        );
        let report = exec.run(5, |_, _| vec![500, 400], None);
        assert_eq!(report.node_state, NodeState::Completed);
        assert_eq!(report.activations.len(), 10);
        assert!(report
            .activations
            .iter()
            .all(|a| matches!(a.outcome, ActivationOutcome::Delivered { .. })));
    }

    #[test]
    fn kernel_share_is_modest() {
        let exec = NodeExecutive::new(vec![bound_pid(1)], ExecutiveConfig::default());
        // Our toy PID copies are only ~50 cycles, so the fixed kernel
        // overhead (dispatch + sealed-state check) looms much larger than
        // the ~5% of a real system; the bound here just guards against
        // runaway accounting.
        let report = exec.run(20, |_, _| vec![500, 400], None);
        let share = report.kernel_share();
        assert!(share > 0.0 && share < 0.65, "kernel share {share}");
    }

    #[test]
    fn critical_task_masks_transient() {
        let exec = NodeExecutive::new(vec![bound_pid(1)], ExecutiveConfig::default());
        let site = InjectionSite::Task {
            frame: 2,
            task_index: 0,
            plan: InjectionPlan {
                copy: 0,
                at_cycle: 5,
                fault: TransientFault {
                    target: FaultTarget::Pc,
                    mask: 1 << 20,
                },
            },
        };
        let report = exec.run(5, |_, _| vec![500, 400], Some(site));
        assert_eq!(report.node_state, NodeState::Completed);
        let frame2 = report
            .activations
            .iter()
            .find(|a| a.frame == 2)
            .expect("frame 2 ran");
        assert!(
            matches!(
                frame2.outcome,
                ActivationOutcome::Delivered { masked: true, .. }
            ),
            "got {:?}",
            frame2.outcome
        );
    }

    #[test]
    fn non_critical_task_shuts_down_on_error() {
        let exec = NodeExecutive::new(
            vec![bound_pid(1), bound_sum_noncritical(2)],
            ExecutiveConfig::default(),
        );
        let site = InjectionSite::Task {
            frame: 1,
            task_index: 1,
            plan: InjectionPlan {
                copy: 0,
                at_cycle: 5,
                fault: TransientFault {
                    target: FaultTarget::Pc,
                    mask: 1 << 20,
                },
            },
        };
        let report = exec.run(
            4,
            |i, _| if i == 0 { vec![500, 400] } else { vec![100] },
            Some(site),
        );
        assert_eq!(report.node_state, NodeState::Completed, "node survives");
        let t2: Vec<_> = report.for_task(TaskId(2)).collect();
        assert!(matches!(
            t2[1].outcome,
            ActivationOutcome::TaskShutdown { .. }
        ));
        assert!(matches!(t2[2].outcome, ActivationOutcome::Skipped));
        assert!(matches!(t2[3].outcome, ActivationOutcome::Skipped));
        // Critical task unaffected in every frame (fault confinement).
        assert!(report
            .for_task(TaskId(1))
            .all(|a| matches!(a.outcome, ActivationOutcome::Delivered { .. })));
    }

    #[test]
    fn kernel_fault_silences_node() {
        let exec = NodeExecutive::new(vec![bound_pid(1)], ExecutiveConfig::default());
        let report = exec.run(
            5,
            |_, _| vec![500, 400],
            Some(InjectionSite::Kernel { frame: 3 }),
        );
        assert_eq!(report.node_state, NodeState::FailSilent { frame: 3 });
        // Frames 0..3 completed, nothing after.
        assert_eq!(report.activations.len(), 3);
    }

    #[test]
    fn repeated_errors_suspect_permanent_fault() {
        // A stuck-at fault in the machine reproduces errors every frame.
        // Emulate by a workload whose code region we corrupt with a 2-bit
        // ECC-uncorrectable flip: every activation traps.
        let w = workloads::sum_series();
        let (_, cycles) = w.golden_run(&[100]);
        let bound = BoundTask {
            spec: spec(1, Criticality::Critical),
            workload: w,
            tem: Some(TemConfig::with_budget(cycles * 2)),
        };
        let exec = NodeExecutive::new(vec![bound], ExecutiveConfig::default());
        // Injecting a permanent fault needs machine access; simplest path:
        // a transient injected every frame is not expressible via one plan,
        // so instead verify the threshold logic with a workload that always
        // overruns its (tiny) TEM budget.
        let w2 = workloads::sum_series();
        let bound2 = BoundTask {
            spec: spec(1, Criticality::Critical),
            workload: w2,
            tem: Some(TemConfig {
                copy_budget: 3, // absurdly small: every copy overruns
                deadline_cycles: 100,
                max_results: 3,
                min_results: 2,
                max_executions: 4,
                compare_cycles: 1,
                vote_cycles: 1,
                restore_cycles: 1,
            }),
        };
        let exec2 = NodeExecutive::new(vec![bound2], ExecutiveConfig::default());
        let report = exec2.run(10, |_, _| vec![100], None);
        match report.node_state {
            NodeState::SuspectedPermanent { task, frame } => {
                assert_eq!(task, TaskId(1));
                assert_eq!(frame, 2, "threshold of 3 consecutive errors");
            }
            other => panic!("expected suspected-permanent, got {other:?}"),
        }
        drop(exec);
    }

    #[test]
    fn wild_state_write_detected_and_repaired() {
        // Corrupt the PID's integral term between frames 2 and 3: the
        // kernel's sealed-state check catches and repairs it, so the
        // command sequence is identical to an unfaulted run.
        let run = |inject: Option<InjectionSite>| {
            let exec = NodeExecutive::new(vec![bound_pid(1)], ExecutiveConfig::default());
            exec.run(6, |_, _| vec![800, 500], inject)
        };
        let clean = run(None);
        let site = InjectionSite::WildStateWrite {
            frame: 3,
            task_index: 0,
            offset_words: 0, // the integral term
            value: 0xDEAD,
        };
        let faulted = run(Some(site));
        assert_eq!(faulted.node_state, NodeState::Completed);
        let frame3 = faulted.activations.iter().find(|a| a.frame == 3).unwrap();
        assert!(
            matches!(
                frame3.outcome,
                ActivationOutcome::Delivered { masked: true, .. }
            ),
            "integrity check must mask the wild write: {:?}",
            frame3.outcome
        );
        // Every delivered command matches the clean run.
        for (c, f) in clean.activations.iter().zip(&faulted.activations) {
            let out = |a: &Activation| match &a.outcome {
                ActivationOutcome::Delivered { outputs, .. } => outputs[0],
                _ => None,
            };
            assert_eq!(out(c), out(f), "frame {} diverged", c.frame);
        }
    }

    #[test]
    fn without_sealing_wild_write_corrupts_silently() {
        let cfg = ExecutiveConfig {
            seal_task_state: false,
            ..Default::default()
        };
        let run = |cfg: ExecutiveConfig, inject: Option<InjectionSite>| {
            let exec = NodeExecutive::new(vec![bound_pid(1)], cfg);
            exec.run(6, |_, _| vec![800, 500], inject)
        };
        let clean = run(cfg, None);
        let site = InjectionSite::WildStateWrite {
            frame: 3,
            task_index: 0,
            offset_words: 0,
            value: 0x7FF, // plausible integral value: silent corruption
        };
        let faulted = run(cfg, Some(site));
        // No detection anywhere…
        assert!(faulted.activations.iter().all(|a| matches!(
            a.outcome,
            ActivationOutcome::Delivered { masked: false, .. }
        )));
        // …but the outputs diverge: exactly the failure §2.6 warns about.
        let outputs = |r: &ExecutiveReport| -> Vec<Option<u32>> {
            r.activations
                .iter()
                .map(|a| match &a.outcome {
                    ActivationOutcome::Delivered { outputs, .. } => outputs[0],
                    _ => None,
                })
                .collect()
        };
        assert_ne!(outputs(&clean), outputs(&faulted));
    }

    #[test]
    fn stuck_at_fault_model_composes_with_executive_machines() {
        // Smoke-check that StuckAtFault exists for permanent-fault
        // diagnostics at higher layers.
        let w = workloads::sum_series();
        let mut m = w.instantiate();
        let stuck = StuckAtFault {
            target: FaultTarget::Register(Reg::R2),
            bit: 1,
            stuck_high: false,
        };
        stuck.assert_on(&mut m);
        assert_eq!(m.cpu.reg(Reg::R2) & 1, 0);
    }
}
