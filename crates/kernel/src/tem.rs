//! Temporal error masking (TEM) — the paper's §2.5 and Figure 3.
//!
//! The kernel executes every critical task **twice** and compares the two
//! result vectors. Four scenarios follow:
//!
//! 1. *(i)* the results match → the result is delivered, no third copy runs;
//! 2. *(ii)* the comparison mismatches → a **third copy** runs and a 2-of-3
//!    majority vote decides; three distinct results mean an **omission**;
//! 3. *(iii)/(iv)* a hardware or kernel EDM fires during a copy → that copy
//!    is terminated, the CPU context is restored from the task control
//!    block, and a replacement copy starts immediately, reclaiming the
//!    terminated copy's unused time plus reserved slack;
//! 4. before every additional copy, the kernel checks the deadline; when no
//!    time remains, **no result is delivered** (omission failure) — the
//!    task's state is rolled back so a later activation starts clean.
//!
//! The result of a task is its output-port vector *plus* its state region
//! (read through ECC) *plus* its control-flow path signature — a
//! computation error that corrupts only state, or a control-flow error
//! that bypasses the output-producing code (§2.7), must not slip past the
//! comparison. Two state regions match when they are equal word for word
//! or, failing that, when their `fold_words` values are equal: the
//! comparison is defined by the fold, and the word-for-word check only
//! spares clean jobs from computing it.
//! State is committed only when two matching results exist (§2.5: "state
//! data are only updated when two matching results have been produced").
//!
//! A node that triples every job (`min_results = 3`) votes without a
//! pairwise compare first. Its vote follows the same 2-of-3 rule, commits
//! the winning result's state region (rewriting it when the outvoted copy
//! ran last), and reports any dissent among the three results as a
//! [`Edm::TemComparison`] detection, so a masked error is still visible to
//! the supervisor.

use std::cell::OnceCell;
use std::fmt;

use nlft_machine::edm::Edm;
use nlft_machine::fault::{StuckAtFault, TransientFault};
use nlft_machine::machine::{Exception, Machine, RunExit, NUM_PORTS};
use nlft_machine::mem::WORD_BYTES;
use nlft_machine::workloads::{Workload, DATA_BASE, STACK_TOP};

/// Size (bytes) of the task state region carried in the result.
pub const STATE_BYTES: u32 = 0x400;

/// Size (words) of the task state region.
pub const STATE_WORDS: usize = (STATE_BYTES / WORD_BYTES) as usize;

/// Configuration of the TEM executor for one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemConfig {
    /// Execution-time-monitor budget for a single copy, in cycles.
    pub copy_budget: u64,
    /// Total cycle budget for the whole job (its deadline, as cycles).
    pub deadline_cycles: u64,
    /// Maximum number of *results* that may be voted on (the paper's 3).
    pub max_results: u32,
    /// Minimum number of results gathered before comparison/vote. The
    /// paper's TEM uses 2 (compare, escalate to 3 on mismatch); a node
    /// under *suspicion* by the diagnosis layer sets 3 so every job is
    /// triplicated and voted defensively ("TEM always triples").
    pub min_results: u32,
    /// Hard cap on executions including EDM-killed copies.
    pub max_executions: u32,
    /// Kernel overhead: result comparison.
    pub compare_cycles: u64,
    /// Kernel overhead: majority vote.
    pub vote_cycles: u64,
    /// Kernel overhead: restoring a clean context after an EDM detection.
    pub restore_cycles: u64,
}

impl TemConfig {
    /// A configuration sized for a workload with single-copy WCET
    /// `copy_budget`, reserving slack for one full recovery execution.
    pub fn with_budget(copy_budget: u64) -> Self {
        TemConfig {
            copy_budget,
            // Two scheduled copies + one recovery copy + kernel overheads.
            deadline_cycles: copy_budget * 3 + 200,
            max_results: 3,
            min_results: 2,
            max_executions: 4,
            compare_cycles: 20,
            vote_cycles: 40,
            restore_cycles: 15,
        }
    }
}

/// How one execution (copy) of the task ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyResult {
    /// Copy ran to completion and produced a result (outputs, state, path).
    Completed,
    /// An EDM terminated the copy.
    Detected(Edm),
}

/// Trace entry for one executed copy — the raw material of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyTrace {
    /// 0-based execution index.
    pub index: u32,
    /// How the copy ended.
    pub result: CopyResult,
    /// Cycles the copy consumed.
    pub cycles: u64,
}

/// Most executions one job may run: the cap on
/// [`TemConfig::max_executions`], and the capacity of the inline
/// [`CopyTraces`] a [`JobReport`] carries (two scheduled copies, one
/// recovery copy and one more EDM-killed attempt).
pub const MAX_EXECUTIONS: usize = 4;

/// The per-copy trace of one job: up to [`MAX_EXECUTIONS`] entries held
/// inline, so recording a job's copies never allocates. Reads as a slice
/// of [`CopyTrace`] in execution order.
#[derive(Clone, Copy)]
pub struct CopyTraces {
    entries: [CopyTrace; MAX_EXECUTIONS],
    len: usize,
}

impl CopyTraces {
    const EMPTY: CopyTrace = CopyTrace {
        index: 0,
        result: CopyResult::Completed,
        cycles: 0,
    };

    fn new() -> Self {
        CopyTraces {
            entries: [Self::EMPTY; MAX_EXECUTIONS],
            len: 0,
        }
    }

    /// Appends one copy's trace; [`TemExecutor::new`] bounds the job to
    /// [`MAX_EXECUTIONS`] copies, so the trace never overflows.
    fn push(&mut self, trace: CopyTrace) {
        self.entries[self.len] = trace;
        self.len += 1;
    }
}

impl std::ops::Deref for CopyTraces {
    type Target = [CopyTrace];

    fn deref(&self) -> &[CopyTrace] {
        &self.entries[..self.len]
    }
}

impl<'a> IntoIterator for &'a CopyTraces {
    type Item = &'a CopyTrace;
    type IntoIter = std::slice::Iter<'a, CopyTrace>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for CopyTraces {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for CopyTraces {}

impl fmt::Debug for CopyTraces {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Final outcome of one TEM-protected job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Both scheduled copies matched (scenario i).
    DeliveredClean,
    /// An error was detected and masked; result still delivered
    /// (scenarios ii–iv).
    DeliveredMasked {
        /// The mechanism that *first* detected the error.
        detected_by: Edm,
    },
    /// No result delivered: error detected but not recoverable in time, or
    /// the vote found three distinct results.
    Omission {
        /// The mechanism that detected the (last) error.
        detected_by: Edm,
    },
}

impl JobOutcome {
    /// `true` when a result was delivered.
    pub fn delivered(self) -> bool {
        !matches!(self, JobOutcome::Omission { .. })
    }
}

impl fmt::Display for JobOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobOutcome::DeliveredClean => write!(f, "delivered (clean)"),
            JobOutcome::DeliveredMasked { detected_by } => {
                write!(f, "delivered (masked; detected by {detected_by})")
            }
            JobOutcome::Omission { detected_by } => {
                write!(f, "omission (detected by {detected_by})")
            }
        }
    }
}

/// Full report of a TEM job execution.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// The job outcome.
    pub outcome: JobOutcome,
    /// Per-copy execution trace.
    pub copies: CopyTraces,
    /// Total cycles consumed, including kernel overheads.
    pub cycles_used: u64,
    /// Delivered output ports (`None` on omission).
    pub outputs: Option<[Option<u32>; NUM_PORTS]>,
    /// Every EDM detection event, in order.
    pub detections: Vec<Edm>,
}

impl JobReport {
    /// Number of copies executed.
    pub fn executions(&self) -> u32 {
        self.copies.len() as u32
    }
}

/// A planned fault injection into a specific copy of the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionPlan {
    /// 0-based execution index to inject into.
    pub copy: u32,
    /// Cycle offset within that copy.
    pub at_cycle: u64,
    /// The fault itself.
    pub fault: TransientFault,
}

/// A fault active during one TEM job — either a one-shot transient planted
/// into a chosen copy, or a permanent stuck-at bit asserted before every
/// instruction of *every* copy. The stuck-at case is the theoretical limit
/// of time redundancy: all copies run on the same damaged hardware, so the
/// error either trips an EDM in each copy (→ persistent omissions, the
/// signal the diagnosis layer feeds on) or corrupts every copy identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobFault {
    /// One transient bit flip into one copy.
    Transient(InjectionPlan),
    /// A permanent stuck-at bit affecting all copies.
    StuckAt(StuckAtFault),
}

/// One execution's captured result: outputs, the ECC-read state region,
/// and the control-flow path signature. Including the signature closes
/// the §2.7 gap: a control-flow error that skips or repeats code yet
/// happens to leave outputs and state intact still diverges from the clean
/// copy here. A job holds at most three, in inline slots on its stack, so
/// gathering results never allocates.
#[derive(Debug, Clone)]
struct ResultVector {
    outputs: [Option<u32>; NUM_PORTS],
    path_sig: u64,
    state: [u32; STATE_WORDS],
    /// [`fold_words`] of `state`, computed at most once and only when a
    /// comparison finds two regions that differ.
    fold: OnceCell<u64>,
}

impl ResultVector {
    /// An unused result slot.
    fn empty() -> Self {
        ResultVector {
            outputs: [None; NUM_PORTS],
            path_sig: 0,
            state: [0; STATE_WORDS],
            fold: OnceCell::new(),
        }
    }

    fn state_fold(&self) -> u64 {
        *self.fold.get_or_init(|| fold_words(&self.state))
    }
}

/// Equal outputs, equal path signatures and equal state folds. Equal
/// regions have equal folds, so a word-for-word match settles the state
/// without folding; only differing regions pay for the two folds, and two
/// differing regions whose folds collide still compare equal.
impl PartialEq for ResultVector {
    fn eq(&self, other: &Self) -> bool {
        self.outputs == other.outputs
            && self.path_sig == other.path_sig
            && (self.state == other.state || self.state_fold() == other.state_fold())
    }
}

/// The TEM executor for one workload.
#[derive(Debug, Clone)]
pub struct TemExecutor {
    config: TemConfig,
}

impl TemExecutor {
    /// Creates an executor with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics when `config.max_results < 2` (a job needs two results to
    /// compare), `config.min_results > 3` (the vote reads three) or
    /// `config.max_executions > MAX_EXECUTIONS` (the copy trace is inline).
    pub fn new(config: TemConfig) -> Self {
        assert!(
            config.max_results >= 2,
            "TEM needs max_results >= 2 to compare, got {}",
            config.max_results
        );
        assert!(
            config.min_results <= 3,
            "TEM votes over at most 3 results, got min_results {}",
            config.min_results
        );
        assert!(
            config.max_executions as usize <= MAX_EXECUTIONS,
            "TEM runs at most {MAX_EXECUTIONS} executions per job, got max_executions {}",
            config.max_executions
        );
        TemExecutor { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TemConfig {
        &self.config
    }

    /// Runs one TEM-protected job of `workload` on `machine`.
    ///
    /// `inputs` are bound to the workload's input ports before every copy
    /// (re-reading inputs is free in this model — they are latched).
    /// `inject` optionally plants one transient fault into a chosen copy;
    /// `None` runs the job fault-free.
    pub fn run_job(
        &self,
        machine: &mut Machine,
        workload: &Workload,
        inputs: &[u32],
        inject: Option<InjectionPlan>,
    ) -> JobReport {
        self.run_job_with_fault(machine, workload, inputs, inject.map(JobFault::Transient))
    }

    /// Runs one TEM-protected job with an optional [`JobFault`] — the
    /// persistence-aware generalisation of [`TemExecutor::run_job`]:
    /// transients strike one copy, stuck-at faults are asserted before
    /// every instruction of every copy.
    pub fn run_job_with_fault(
        &self,
        machine: &mut Machine,
        workload: &Workload,
        inputs: &[u32],
        fault: Option<JobFault>,
    ) -> JobReport {
        let cfg = &self.config;
        let mut cycles_used: u64 = 0;
        let mut copies = CopyTraces::new();
        let mut detections: Vec<Edm> = Vec::new();
        // The results gathered so far fill `results[..n_results]`: three
        // inline slots, as the vote reads at most three. A slot is set up
        // only when a copy halts, so a clean job touches two.
        let mut results: [Option<ResultVector>; 3] = [None, None, None];
        let mut n_results = 0;
        // Snapshot the state region so every copy starts from identical
        // state, and so an omission can roll back (§2.6).
        let state_snapshot = snapshot_state(machine);

        let deliver = |outcome_mask: Option<Edm>,
                       outputs: [Option<u32>; NUM_PORTS],
                       copies: CopyTraces,
                       cycles_used: u64,
                       detections: Vec<Edm>| JobReport {
            outcome: match outcome_mask {
                None => JobOutcome::DeliveredClean,
                Some(edm) => JobOutcome::DeliveredMasked { detected_by: edm },
            },
            copies,
            cycles_used,
            outputs: Some(outputs),
            detections,
        };

        let mut results_wanted: u32 = cfg.min_results.clamp(2, cfg.max_results);
        let voting_from_start = results_wanted == 3;
        loop {
            // Deadline check before starting any copy (§2.5): a fresh copy
            // needs its full budget plus the pending comparison.
            let next_cost = cfg.copy_budget + cfg.compare_cycles;
            let out_of_time = cycles_used + next_cost > cfg.deadline_cycles;
            let out_of_copies = copies.len() as u32 >= cfg.max_executions;
            if (n_results as u32) < results_wanted && (out_of_time || out_of_copies) {
                restore_state(machine, &state_snapshot);
                let last = detections
                    .last()
                    .copied()
                    .unwrap_or(Edm::ExecutionTimeMonitor);
                return JobReport {
                    outcome: JobOutcome::Omission { detected_by: last },
                    copies,
                    cycles_used,
                    outputs: None,
                    detections,
                };
            }

            if (n_results as u32) < results_wanted {
                // Execute one more copy.
                let index = copies.len() as u32;
                restore_state(machine, &state_snapshot);
                machine.reset(0, STACK_TOP);
                machine.clear_outputs();
                for (&port, &v) in workload.input_ports.iter().zip(inputs) {
                    machine.set_input(port, v);
                }
                let exit = match fault {
                    Some(JobFault::Transient(plan)) if plan.copy == index => {
                        let (out, _) = nlft_machine::fault::run_with_injection(
                            machine,
                            cfg.copy_budget,
                            plan.at_cycle,
                            plan.fault,
                        );
                        out
                    }
                    Some(JobFault::StuckAt(stuck)) => {
                        nlft_machine::fault::run_with_stuck_at(machine, cfg.copy_budget, stuck)
                    }
                    _ => machine.run(cfg.copy_budget),
                };
                cycles_used += exit.cycles_used;
                match exit.exit {
                    RunExit::Halted => {
                        // Read the state region through ECC; a trap while
                        // reading state counts as a detection of this copy.
                        let slot = results[n_results].insert(ResultVector::empty());
                        match machine
                            .mem
                            .load_words(DATA_BASE, &mut slot.state)
                            .map_err(Exception::from)
                        {
                            Ok(()) => {
                                copies.push(CopyTrace {
                                    index,
                                    result: CopyResult::Completed,
                                    cycles: exit.cycles_used,
                                });
                                slot.outputs = *machine.outputs();
                                slot.path_sig = machine.cpu.path_sig;
                                n_results += 1;
                            }
                            Err(e) => {
                                let edm = Edm::from_exception(&e);
                                detections.push(edm);
                                copies.push(CopyTrace {
                                    index,
                                    result: CopyResult::Detected(edm),
                                    cycles: exit.cycles_used,
                                });
                                cycles_used += cfg.restore_cycles;
                            }
                        }
                    }
                    RunExit::Exception(e) => {
                        // Scenario iii/iv: terminate, restore context, retry.
                        let edm = Edm::from_exception(&e);
                        detections.push(edm);
                        copies.push(CopyTrace {
                            index,
                            result: CopyResult::Detected(edm),
                            cycles: exit.cycles_used,
                        });
                        cycles_used += cfg.restore_cycles;
                    }
                    RunExit::BudgetExhausted => {
                        let edm = Edm::ExecutionTimeMonitor;
                        detections.push(edm);
                        copies.push(CopyTrace {
                            index,
                            result: CopyResult::Detected(edm),
                            cycles: exit.cycles_used,
                        });
                        cycles_used += cfg.restore_cycles;
                    }
                }
                continue;
            }

            // Enough results: compare or vote.
            let result = |i: usize| results[i].as_ref().expect("result gathered");
            if n_results == 2 {
                cycles_used += cfg.compare_cycles;
                if result(0) == result(1) {
                    let masked = detections.first().copied();
                    return deliver(masked, result(1).outputs, copies, cycles_used, detections);
                }
                // Scenario ii: mismatch → need a third result for the vote.
                detections.push(Edm::TemComparison);
                if cfg.max_results >= 3 {
                    results_wanted = 3;
                    continue;
                }
                restore_state(machine, &state_snapshot);
                return JobReport {
                    outcome: JobOutcome::Omission {
                        detected_by: Edm::TemComparison,
                    },
                    copies,
                    cycles_used,
                    outputs: None,
                    detections,
                };
            }

            // Three results: 2-of-3 majority vote.
            debug_assert_eq!(n_results, 3);
            cycles_used += cfg.vote_cycles;
            // The third result was executed last, so if it belongs to the
            // majority the machine state is already the winner's.
            let winner = if result(2) == result(0) || result(2) == result(1) {
                Some(2)
            } else if result(0) == result(1) {
                // Cannot happen via the mismatch path (results 0 and 1
                // differ there); a tripling node reaches it when result 2
                // is outvoted.
                Some(1)
            } else {
                None
            };
            if voting_from_start && !(winner == Some(2) && result(0) == result(1)) {
                // The three results are not unanimous, and no pairwise
                // compare has reported it yet.
                detections.push(Edm::TemComparison);
            }
            return match winner {
                Some(w) => {
                    if w != 2 {
                        // Commit the winner's state, not the outvoted
                        // copy's that the machine still holds.
                        restore_state(machine, &result(w).state);
                    }
                    let first = detections.first().copied();
                    deliver(first, result(w).outputs, copies, cycles_used, detections)
                }
                None => {
                    detections.push(Edm::TemVote);
                    restore_state(machine, &state_snapshot);
                    JobReport {
                        outcome: JobOutcome::Omission {
                            detected_by: Edm::TemVote,
                        },
                        copies,
                        cycles_used,
                        outputs: None,
                        detections,
                    }
                }
            };
        }
    }
}

/// The state region as stored, bypassing ECC (the kernel's sealed copy).
fn snapshot_state(machine: &Machine) -> [u32; STATE_WORDS] {
    let mut snapshot = [0; STATE_WORDS];
    machine
        .mem
        .peek_words(DATA_BASE, &mut snapshot)
        .expect("state region is mapped");
    snapshot
}

fn restore_state(machine: &mut Machine, snapshot: &[u32; STATE_WORDS]) {
    machine
        .mem
        .store_words(DATA_BASE, snapshot)
        .expect("state region is mapped");
}

/// Folds `words` in ascending order, one word per step, starting from the
/// FNV-1a offset basis `0xcbf2_9ce4_8422_2325`: `h = (h ^ w) * m` with
/// wrapping multiplication by `m = 0x1000_0000_01b3` (2^44 + 0x1b3). The
/// multiplier is *not* the FNV-64 prime `0x100_0000_01b3` (2^40 + 0x1b3)
/// that the CPU's path signature uses; it is kept because TEM equality
/// and the preemptive kernel's window digest are defined by this fold.
pub(crate) fn fold_words(words: &[u32]) -> u64 {
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, &w| {
        (h ^ u64::from(w)).wrapping_mul(0x1000_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlft_machine::fault::FaultTarget;
    use nlft_machine::isa::Reg;
    use nlft_machine::workloads;

    fn executor_for(w: &Workload) -> (TemExecutor, Machine) {
        let machine = w.instantiate();
        // Measure a clean copy to size the budget.
        let inputs: Vec<u32> = w.input_ports.iter().map(|_| 500).collect();
        let (_, cycles) = w.golden_run(&inputs);
        let exec = TemExecutor::new(TemConfig::with_budget(cycles * 2));
        (exec, machine)
    }

    #[test]
    fn scenario_i_fault_free_two_copies() {
        let w = workloads::pid_controller();
        let (exec, mut m) = executor_for(&w);
        let report = exec.run_job(&mut m, &w, &[1000, 900], None);
        assert_eq!(report.outcome, JobOutcome::DeliveredClean);
        assert_eq!(report.executions(), 2, "no third copy when results match");
        assert!(report.detections.is_empty());
        assert!(report.outputs.unwrap()[0].is_some());
    }

    #[test]
    fn scenario_iii_edm_detection_triggers_replacement() {
        let w = workloads::pid_controller();
        let (exec, mut m) = executor_for(&w);
        // PC fault in copy 1 → hardware exception → replacement copy.
        let plan = InjectionPlan {
            copy: 1,
            at_cycle: 5,
            fault: TransientFault {
                target: FaultTarget::Pc,
                mask: 1 << 20,
            },
        };
        let report = exec.run_job(&mut m, &w, &[1000, 900], Some(plan));
        assert!(
            matches!(report.outcome, JobOutcome::DeliveredMasked { .. }),
            "outcome was {:?}",
            report.outcome
        );
        assert_eq!(report.executions(), 3, "killed copy + replacement");
        assert!(matches!(report.copies[1].result, CopyResult::Detected(_)));
        assert!(report.outputs.is_some());
    }

    #[test]
    fn scenario_iv_edm_detection_in_first_copy() {
        let w = workloads::pid_controller();
        let (exec, mut m) = executor_for(&w);
        let plan = InjectionPlan {
            copy: 0,
            at_cycle: 5,
            fault: TransientFault {
                target: FaultTarget::Pc,
                mask: 1 << 20,
            },
        };
        let report = exec.run_job(&mut m, &w, &[1000, 900], Some(plan));
        assert!(report.outcome.delivered());
        assert!(matches!(report.copies[0].result, CopyResult::Detected(_)));
        assert_eq!(report.executions(), 3);
    }

    #[test]
    fn scenario_ii_comparison_mismatch_then_vote() {
        let w = workloads::sum_series();
        let (exec, mut m) = executor_for(&w);
        // Silent data corruption in copy 0: flip a low bit of the accumulator
        // mid-loop. No EDM fires; only the comparison can see it.
        let plan = InjectionPlan {
            copy: 0,
            at_cycle: 60,
            fault: TransientFault {
                target: FaultTarget::Register(Reg::R1),
                mask: 1 << 3,
            },
        };
        let report = exec.run_job(&mut m, &w, &[100], Some(plan));
        match report.outcome {
            JobOutcome::DeliveredMasked { detected_by } => {
                assert_eq!(detected_by, Edm::TemComparison);
            }
            other => panic!("expected masked-by-comparison, got {other:?}"),
        }
        assert_eq!(report.executions(), 3, "vote needs a third copy");
        // The delivered result is the correct one.
        assert_eq!(report.outputs.unwrap()[0], Some(5050));
    }

    #[test]
    fn early_edm_detection_reclaims_time_and_still_delivers() {
        // A PC fault trips the hardware within a few cycles, so the killed
        // copy costs almost nothing; even a tight deadline of ~2 budgets
        // leaves room for the replacement — the "time reclaimed from the
        // terminated copy" of §2.5.
        let w = workloads::pid_controller();
        let inputs = [1000u32, 900];
        let (_, clean_cycles) = w.golden_run(&inputs);
        let mut cfg = TemConfig::with_budget(clean_cycles + 10);
        cfg.deadline_cycles = (clean_cycles + 10) * 2 + 2 * cfg.compare_cycles + cfg.restore_cycles;
        let exec = TemExecutor::new(cfg);
        let mut m = w.instantiate();
        let plan = InjectionPlan {
            copy: 0,
            at_cycle: 5,
            fault: TransientFault {
                target: FaultTarget::Pc,
                mask: 1 << 20,
            },
        };
        let report = exec.run_job(&mut m, &w, &inputs, Some(plan));
        assert!(
            matches!(report.outcome, JobOutcome::DeliveredMasked { .. }),
            "got {:?}",
            report.outcome
        );
    }

    #[test]
    fn deadline_exhaustion_forces_omission() {
        // A budget-overrun fault wastes a *full* copy budget, so a deadline
        // sized for exactly two copies cannot absorb the recovery.
        let w = workloads::sum_series();
        let (_, clean_cycles) = w.golden_run(&[100]);
        let budget = clean_cycles + 20;
        let mut cfg = TemConfig::with_budget(budget);
        cfg.deadline_cycles = budget * 2 + cfg.compare_cycles;
        let exec = TemExecutor::new(cfg);
        let mut m = w.instantiate();
        let plan = InjectionPlan {
            copy: 0,
            at_cycle: 30,
            fault: TransientFault {
                target: FaultTarget::Register(Reg::R0),
                mask: 1 << 28, // loop counter explodes → overrun
            },
        };
        let report = exec.run_job(&mut m, &w, &[100], Some(plan));
        match report.outcome {
            JobOutcome::Omission { detected_by } => {
                assert_eq!(detected_by, Edm::ExecutionTimeMonitor);
            }
            other => panic!("expected omission, got {other:?}"),
        }
        assert!(report.outputs.is_none(), "omission delivers nothing");
    }

    #[test]
    fn state_rolls_back_on_omission() {
        let w = workloads::pid_controller();
        let inputs = [1000u32, 900];
        let (_, clean_cycles) = w.golden_run(&inputs);
        let mut cfg = TemConfig::with_budget(clean_cycles + 10);
        // Cap executions at 2: the EDM-killed copy cannot be replaced, so
        // only one result exists and the job must omit.
        cfg.max_executions = 2;
        let exec = TemExecutor::new(cfg);
        let mut m = w.instantiate();
        let before = m.mem.peek(DATA_BASE).unwrap();
        let plan = InjectionPlan {
            copy: 0,
            at_cycle: 5,
            fault: TransientFault {
                target: FaultTarget::Pc,
                mask: 1 << 20,
            },
        };
        let report = exec.run_job(&mut m, &w, &inputs, Some(plan));
        assert!(matches!(report.outcome, JobOutcome::Omission { .. }));
        assert_eq!(
            m.mem.peek(DATA_BASE).unwrap(),
            before,
            "integral state must be rolled back on omission"
        );
    }

    #[test]
    fn state_commits_on_delivery() {
        let w = workloads::pid_controller();
        let (exec, mut m) = executor_for(&w);
        let before = m.mem.peek(DATA_BASE).unwrap();
        let report = exec.run_job(&mut m, &w, &[1000, 0], None);
        assert!(report.outcome.delivered());
        assert_ne!(
            m.mem.peek(DATA_BASE).unwrap(),
            before,
            "integral state must be updated after delivery"
        );
    }

    #[test]
    fn budget_overrun_detected_by_execution_time_monitor() {
        let w = workloads::sum_series();
        let (exec, mut m) = executor_for(&w);
        // Flip the loop counter to a huge value → runs far past the budget.
        let plan = InjectionPlan {
            copy: 0,
            at_cycle: 30,
            fault: TransientFault {
                target: FaultTarget::Register(Reg::R0),
                mask: 1 << 28,
            },
        };
        let report = exec.run_job(&mut m, &w, &[100], Some(plan));
        assert!(
            report.detections.contains(&Edm::ExecutionTimeMonitor),
            "detections were {:?}",
            report.detections
        );
        // Masked by replacement (if deadline allowed) or an omission —
        // either way the bad result must not be delivered.
        if let Some(outputs) = report.outputs {
            assert_eq!(outputs[0], Some(5050));
        }
    }

    #[test]
    fn identical_double_injection_defeats_comparison_realistically() {
        // Injecting the *same* silent corruption into both copies makes both
        // results identical and wrong — the known theoretical limit of pure
        // time redundancy (correlated faults). TEM delivers the wrong value;
        // this documents the model boundary honestly.
        let w = workloads::sum_series();
        let (exec, _) = executor_for(&w);
        let golden = w.golden_run(&[100]).0[0];
        let mut outputs = Vec::new();
        for copy in 0..2 {
            let mut m = w.instantiate();
            let plan = InjectionPlan {
                copy,
                at_cycle: 60,
                fault: TransientFault {
                    target: FaultTarget::Register(Reg::R1),
                    mask: 1 << 3,
                },
            };
            let r = exec.run_job(&mut m, &w, &[100], Some(plan));
            outputs.push(r.outputs.map(|o| o[0]));
        }
        // Single-copy injections are each masked (vote picks the two clean
        // copies), so both deliveries match golden.
        for o in outputs {
            assert_eq!(o, Some(golden));
        }
    }

    /// A state word the PID workload never reads: only the ECC read of the
    /// state region after a completed copy touches it.
    const UNREAD_STATE_WORD: u32 = DATA_BASE + 8;

    fn flip_unread_state_word(mask: u32) -> InjectionPlan {
        InjectionPlan {
            copy: 0,
            at_cycle: 10,
            fault: TransientFault {
                target: FaultTarget::MemoryWord(UNREAD_STATE_WORD),
                mask,
            },
        }
    }

    #[test]
    fn memory_state_double_flip_detected_via_ecc_digest() {
        let w = workloads::pid_controller();
        let inputs = [1000, 900];
        let golden = w.golden_run(&inputs).0[0];
        let (exec, mut m) = executor_for(&w);
        // The copy completes untouched; its ECC read of the state region
        // traps on the double flip, so the copy counts as detected and a
        // replacement (which starts from restored, fault-free state) runs.
        let report = exec.run_job(&mut m, &w, &inputs, Some(flip_unread_state_word(0b11)));
        assert_eq!(report.copies[0].result, CopyResult::Detected(Edm::Ecc));
        assert_eq!(report.detections, vec![Edm::Ecc]);
        assert_eq!(
            report.outcome,
            JobOutcome::DeliveredMasked {
                detected_by: Edm::Ecc
            }
        );
        assert_eq!(report.outputs.unwrap()[0], golden);
        assert_eq!(m.mem.faulty_words(), 0, "the restore rewrote the word");
    }

    #[test]
    fn memory_state_single_flip_corrected_by_ecc_digest() {
        let w = workloads::pid_controller();
        let inputs = [1000, 900];
        let golden = w.golden_run(&inputs).0[0];
        let (exec, mut m) = executor_for(&w);
        let before = m.mem.ecc_stats().corrected;
        // SEC corrects the flip during the state read: the region equals
        // the clean copy's, so the job is indistinguishable from scenario i.
        let report = exec.run_job(&mut m, &w, &inputs, Some(flip_unread_state_word(1 << 7)));
        assert_eq!(m.mem.ecc_stats().corrected, before + 1);
        assert_eq!(report.outcome, JobOutcome::DeliveredClean);
        assert_eq!(report.executions(), 2);
        assert_eq!(report.outputs.unwrap()[0], golden);
    }

    #[test]
    fn control_flow_divergence_with_identical_outputs_is_detected() {
        // Both branch arms write the same value, so the *output* comparison
        // alone could never see a flipped branch decision — the §2.7
        // bypass. The path signature catches it.
        use nlft_machine::asm::assemble;
        use nlft_machine::workloads::standard_map;
        let image = assemble(
            "    in  r0, port0
                 in  r1, port1
                 cmp r0, r1
                 jn  less
                 ldi r2, 1
                 jmp done
             less:
                 ldi r2, 1
             done:
                 out r2, port0
                 halt",
        )
        .unwrap();
        let workload = Workload {
            name: "cfc-bypass",
            image,
            map: standard_map(),
            input_ports: vec![0, 1],
            output_ports: vec![0],
        };
        let mut clean = workload.instantiate();
        clean.set_input(0, 5);
        clean.set_input(1, 5);
        clean.run(1_000);
        assert_eq!(clean.output(0), Some(1));

        let exec = TemExecutor::new(TemConfig::with_budget(200));
        let mut m = workload.instantiate();
        // Flip the N flag right after CMP, before JN, in copy 0 only.
        let plan = InjectionPlan {
            copy: 0,
            at_cycle: 3,
            fault: TransientFault {
                target: FaultTarget::Status,
                mask: 0b10,
            },
        };
        let report = exec.run_job(&mut m, &workload, &[5, 5], Some(plan));
        assert!(
            report.detections.contains(&Edm::TemComparison),
            "path-signature divergence must trip the comparison: {:?}",
            report.detections
        );
        // The vote still delivers the (identical) correct output.
        assert!(report.outcome.delivered());
        assert_eq!(report.outputs.unwrap()[0], Some(1));
    }

    #[test]
    fn path_signatures_are_reproducible_across_copies() {
        let w = workloads::sum_series();
        let (exec, mut m) = executor_for(&w);
        let report = exec.run_job(&mut m, &w, &[100], None);
        assert_eq!(
            report.outcome,
            JobOutcome::DeliveredClean,
            "identical paths must compare equal"
        );
    }

    /// An executor that triples every job, as on a suspect node.
    fn tripling_executor(w: &Workload, inputs: &[u32]) -> TemExecutor {
        let (_, cycles) = w.golden_run(inputs);
        let mut cfg = TemConfig::with_budget(cycles * 2);
        cfg.min_results = 3;
        TemExecutor::new(cfg)
    }

    #[test]
    fn min_results_three_always_triples() {
        // A suspect node runs three copies and votes even when the first
        // two match — the defensive mode the escalation ladder switches on.
        let w = workloads::pid_controller();
        let inputs = [1000, 900];
        let golden = w.golden_run(&inputs).0;
        let exec = tripling_executor(&w, &inputs);
        let mut m = w.instantiate();
        let report = exec.run_job(&mut m, &w, &inputs, None);
        assert_eq!(report.outcome, JobOutcome::DeliveredClean);
        assert_eq!(report.executions(), 3, "triplicated even fault-free");
        // A single silent corruption (the error term `e`, so the output
        // and the stored state both change) is outvoted without a
        // comparison round, yet reported as a comparison detection.
        let mut m = w.instantiate();
        let plan = InjectionPlan {
            copy: 1,
            at_cycle: 3,
            fault: TransientFault {
                target: FaultTarget::Register(Reg::R2),
                mask: 1 << 2,
            },
        };
        let report = exec.run_job(&mut m, &w, &inputs, Some(plan));
        assert_eq!(
            report.outcome,
            JobOutcome::DeliveredMasked {
                detected_by: Edm::TemComparison
            }
        );
        assert_eq!(report.detections, vec![Edm::TemComparison]);
        assert_eq!(report.executions(), 3, "no fourth copy");
        assert_eq!(report.outputs, Some(golden));
    }

    #[test]
    fn triple_vote_commits_the_majority_state_and_reports_dissent() {
        // Sweep a silent corruption of the error term through every cycle
        // of the *last* copy. Whenever it changes that copy's result, the
        // vote must deliver the two clean copies' result, leave their state
        // behind (not the outvoted copy's, which the machine ran last) and
        // report the dissent; otherwise the job is a clean triple.
        let w = workloads::pid_controller();
        let inputs = [1000, 900];
        let exec = tripling_executor(&w, &inputs);
        let budget = exec.config().copy_budget;
        let single_copy = |fault: Option<(u64, TransientFault)>| {
            let mut m = w.instantiate();
            m.reset(0, STACK_TOP);
            for (&port, &v) in w.input_ports.iter().zip(&inputs) {
                m.set_input(port, v);
            }
            let exit = match fault {
                Some((at, f)) => nlft_machine::fault::run_with_injection(&mut m, budget, at, f).0,
                None => m.run(budget),
            };
            (exit.exit, *m.outputs(), m.cpu.path_sig, snapshot_state(&m))
        };
        let clean = single_copy(None);
        let mut clean_job = w.instantiate();
        let report = exec.run_job(&mut clean_job, &w, &inputs, None);
        assert_eq!(report.outcome, JobOutcome::DeliveredClean);
        let clean_state = snapshot_state(&clean_job);
        let (_, cycles) = w.golden_run(&inputs);

        let mut dissents = 0;
        for at_cycle in 0..cycles {
            for bit in [0, 3, 7, 12] {
                let fault = TransientFault {
                    target: FaultTarget::Register(Reg::R2),
                    mask: 1 << bit,
                };
                let plan = InjectionPlan {
                    copy: 2,
                    at_cycle,
                    fault,
                };
                let mut m = w.instantiate();
                let report = exec.run_job(&mut m, &w, &inputs, Some(plan));
                let ctx = format!("R2 bit {bit} at cycle {at_cycle}: {report:?}");
                assert!(report.outcome.delivered(), "{ctx}");
                assert_eq!(report.outputs, Some(clean.1), "{ctx}");
                assert_eq!(snapshot_state(&m), clean_state, "{ctx}");
                let faulty = single_copy(Some((at_cycle, fault)));
                let expected = match faulty.0 {
                    RunExit::Halted if faulty == clean => JobOutcome::DeliveredClean,
                    RunExit::Halted => {
                        dissents += 1;
                        JobOutcome::DeliveredMasked {
                            detected_by: Edm::TemComparison,
                        }
                    }
                    RunExit::Exception(e) => JobOutcome::DeliveredMasked {
                        detected_by: Edm::from_exception(&e),
                    },
                    RunExit::BudgetExhausted => JobOutcome::DeliveredMasked {
                        detected_by: Edm::ExecutionTimeMonitor,
                    },
                };
                assert_eq!(report.outcome, expected, "{ctx}");
            }
        }
        assert!(dissents > 0, "the sweep must outvote some copy");
    }

    #[test]
    fn stuck_at_job_fault_defeats_time_redundancy() {
        use nlft_machine::fault::StuckAtFault;
        // Increment register stuck at zero: every copy loops forever, every
        // copy is killed by the execution-time monitor, so the job omits —
        // and does so *every* activation, the persistent signature that
        // distinguishes permanent damage from transient bad luck.
        let w = workloads::sum_series();
        let (_, cycles) = w.golden_run(&[100]);
        let exec = TemExecutor::new(TemConfig::with_budget(cycles * 2));
        let stuck = StuckAtFault {
            target: FaultTarget::Register(Reg::R2),
            bit: 1,
            stuck_high: false,
        };
        for _ in 0..3 {
            let mut m = w.instantiate();
            let report =
                exec.run_job_with_fault(&mut m, &w, &[100], Some(JobFault::StuckAt(stuck)));
            match report.outcome {
                JobOutcome::Omission { detected_by } => {
                    assert_eq!(detected_by, Edm::ExecutionTimeMonitor);
                }
                other => panic!("stuck increment must omit, got {other:?}"),
            }
            assert!(!report.detections.is_empty());
        }
    }

    #[test]
    fn benign_stuck_at_job_fault_delivers_clean() {
        use nlft_machine::fault::StuckAtFault;
        // A stuck bit in an unused register never activates; both copies
        // match and the job is indistinguishable from a healthy one.
        let w = workloads::sum_series();
        let (_, cycles) = w.golden_run(&[100]);
        let exec = TemExecutor::new(TemConfig::with_budget(cycles * 2));
        let stuck = StuckAtFault {
            target: FaultTarget::Register(Reg::R6),
            bit: 1 << 9,
            stuck_high: true,
        };
        let mut m = w.instantiate();
        let report = exec.run_job_with_fault(&mut m, &w, &[100], Some(JobFault::StuckAt(stuck)));
        assert_eq!(report.outcome, JobOutcome::DeliveredClean);
        assert_eq!(report.outputs.unwrap()[0], Some(5050));
    }

    /// Two different 256-word regions whose folds collide at
    /// `0x763b_07d9_e319_fa30`.
    fn colliding_regions() -> ([u32; STATE_WORDS], [u32; STATE_WORDS]) {
        let mut a = [0; STATE_WORDS];
        a[..2].copy_from_slice(&[0x30e3_8d5f, 0x8b8e_a6de]);
        let mut b = [0; STATE_WORDS];
        b[..3].copy_from_slice(&[0xa0b2_df66, 0xff48_16c6, 0x0286_bc1d]);
        (a, b)
    }

    fn result_with_state(state: [u32; STATE_WORDS]) -> ResultVector {
        let mut outputs = [None; NUM_PORTS];
        outputs[0] = Some(42);
        ResultVector {
            outputs,
            path_sig: 0x5151,
            state,
            fold: OnceCell::new(),
        }
    }

    #[test]
    fn colliding_state_regions_compare_equal() {
        let (a, b) = colliding_regions();
        assert_ne!(a, b, "the regions differ");
        assert_eq!(fold_words(&a), 0x763b_07d9_e319_fa30);
        assert_eq!(fold_words(&a), fold_words(&b), "the folds collide");
        // Equality is defined by the fold, so a collision matches.
        let (ra, rb) = (result_with_state(a), result_with_state(b));
        assert!(ra == rb, "colliding regions must compare equal");
        assert!(rb == ra);
        // The differing regions forced both folds, and both are memoised.
        assert_eq!(ra.fold.get(), Some(&0x763b_07d9_e319_fa30));
        assert_eq!(rb.fold.get(), Some(&0x763b_07d9_e319_fa30));
    }

    #[test]
    fn result_equality_agrees_with_the_fold() {
        use nlft_testkit::prop::Suite;
        use nlft_testkit::{prop_assert, prop_assert_eq};

        // `a` gets random words in a random-length prefix; the pair is
        // (a, a), a against a copy with one word XOR-flipped, or the
        // colliding pair.
        Suite::new(0x5EED_F01D).check(
            "result_equality_agrees_with_the_fold",
            |r| {
                let mut a = [0u32; STATE_WORDS];
                for w in a.iter_mut().take(r.usize_range(0, STATE_WORDS + 1)) {
                    *w = r.next_u32();
                }
                match r.range(0, 3) {
                    0 => (a, a),
                    1 => {
                        let mut b = a;
                        b[r.usize_range(0, STATE_WORDS)] ^= r.next_u32() | 1;
                        (a, b)
                    }
                    _ => colliding_regions(),
                }
            },
            |(a, b)| {
                let expected = fold_words(a) == fold_words(b);
                let (ra, rb) = (result_with_state(*a), result_with_state(*b));
                prop_assert_eq!(ra == rb, expected);
                prop_assert_eq!(rb == ra, expected);
                // Identical regions never pay for a fold.
                if a == b {
                    prop_assert!(ra.fold.get().is_none() && rb.fold.get().is_none());
                }
                Ok(())
            },
        );
    }

    #[test]
    #[should_panic(expected = "max_results >= 2")]
    fn executor_rejects_fewer_than_two_results() {
        let mut cfg = TemConfig::with_budget(100);
        cfg.max_results = 1;
        TemExecutor::new(cfg);
    }

    #[test]
    #[should_panic(expected = "at most 3 results")]
    fn executor_rejects_more_than_three_minimum_results() {
        let mut cfg = TemConfig::with_budget(100);
        cfg.min_results = 4;
        TemExecutor::new(cfg);
    }

    #[test]
    #[should_panic(expected = "at most 4 executions")]
    fn executor_rejects_more_executions_than_the_trace_holds() {
        let mut cfg = TemConfig::with_budget(100);
        cfg.max_executions = MAX_EXECUTIONS as u32 + 1;
        TemExecutor::new(cfg);
    }

    #[test]
    fn report_cycles_account_for_overheads() {
        let w = workloads::sum_series();
        let (exec, mut m) = executor_for(&w);
        let report = exec.run_job(&mut m, &w, &[50], None);
        let copy_cycles: u64 = report.copies.iter().map(|c| c.cycles).sum();
        assert_eq!(
            report.cycles_used,
            copy_cycles + exec.config().compare_cycles,
            "clean job = two copies + one comparison"
        );
    }
}
