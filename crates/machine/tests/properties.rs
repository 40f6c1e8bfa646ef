//! Property-based tests for the TM32 machine.

use nlft_machine::asm::{assemble, disassemble};
use nlft_machine::fault::{run_with_injection, FaultSpace, FaultTarget, TransientFault};
use nlft_machine::isa::{Instr, Reg};
use nlft_machine::machine::{Machine, RunExit};
use nlft_machine::mem::{EccMemory, EccStats, MemError, WORD_BYTES};
use nlft_machine::mmu::{MemoryMap, Perms, Region};
use nlft_machine::workloads;
use nlft_sim::rng::RngStream;
use nlft_testkit::prop::{gens, Suite};
use nlft_testkit::rng::TkRng;
use nlft_testkit::{prop_assert, prop_assert_eq};

const SUITE: Suite = Suite::new(0x5EED_00AC);

fn arb_reg(r: &mut TkRng) -> Reg {
    Reg::new(r.range(0, 8) as u8).unwrap()
}

fn arb_i16(r: &mut TkRng) -> i16 {
    r.next_u64() as i16
}

fn arb_u16(r: &mut TkRng) -> u16 {
    r.next_u64() as u16
}

fn arb_instr(r: &mut TkRng) -> Instr {
    match r.usize_range(0, 22) {
        0 => Instr::Nop,
        1 => Instr::Halt,
        2 => Instr::Ret,
        3 => Instr::Ldi(arb_reg(r), arb_i16(r)),
        4 => Instr::Lui(arb_reg(r), arb_u16(r)),
        5 => Instr::Ld(arb_reg(r), arb_reg(r), arb_i16(r)),
        6 => Instr::St(arb_reg(r), arb_reg(r), arb_i16(r)),
        7 => Instr::Mov(arb_reg(r), arb_reg(r)),
        8 => Instr::Add(arb_reg(r), arb_reg(r), arb_reg(r)),
        9 => Instr::Sub(arb_reg(r), arb_reg(r), arb_reg(r)),
        10 => Instr::Mul(arb_reg(r), arb_reg(r), arb_reg(r)),
        11 => Instr::Div(arb_reg(r), arb_reg(r), arb_reg(r)),
        12 => Instr::Xor(arb_reg(r), arb_reg(r), arb_reg(r)),
        13 => Instr::Addi(arb_reg(r), arb_reg(r), arb_i16(r)),
        14 => Instr::Cmp(arb_reg(r), arb_reg(r)),
        15 => Instr::Jmp(arb_u16(r)),
        16 => Instr::Jz(arb_u16(r)),
        17 => Instr::Call(arb_u16(r)),
        18 => Instr::Push(arb_reg(r)),
        19 => Instr::Pop(arb_reg(r)),
        20 => Instr::In(arb_reg(r), r.range(0, 16) as u16),
        _ => Instr::Out(arb_reg(r), r.range(0, 16) as u16),
    }
}

/// Every instruction round-trips through encode/decode.
#[test]
fn isa_encode_decode_roundtrip() {
    SUITE.check("isa_encode_decode_roundtrip", arb_instr, |&instr| {
        prop_assert_eq!(Instr::decode(instr.encode()).unwrap(), instr);
        Ok(())
    });
}

/// The machine never panics on arbitrary programs — every outcome is a
/// clean halt, budget stop, or a typed exception.
#[test]
fn machine_total_on_arbitrary_programs() {
    SUITE.check(
        "machine_total_on_arbitrary_programs",
        {
            let mut words = gens::vec(|r| r.next_u32(), 1..64);
            let mut inputs = gens::vec(|r| r.next_u32(), 16..17);
            move |r: &mut TkRng| (words(r), inputs(r))
        },
        |(words, inputs)| {
            let mut m = Machine::new(4096, MemoryMap::permissive());
            m.load_program(0, words).unwrap();
            m.reset(0, 4096);
            for (p, &v) in inputs.iter().enumerate() {
                m.set_input(p, v);
            }
            let out = m.run(10_000);
            match out.exit {
                RunExit::Halted | RunExit::BudgetExhausted | RunExit::Exception(_) => {}
            }
            prop_assert!(
                out.cycles_used <= 10_000 + 8,
                "budget respected modulo one instruction"
            );
            Ok(())
        },
    );
}

/// Disassembly never panics and emits one line per word.
#[test]
fn disassemble_total() {
    SUITE.check(
        "disassemble_total",
        gens::vec(|r| r.next_u32(), 0..64),
        |words| {
            let text = disassemble(words);
            prop_assert_eq!(text.lines().count(), words.len());
            Ok(())
        },
    );
}

/// Two machines running the same program with the same injected fault
/// behave identically (campaigns are exactly replayable).
#[test]
fn injection_is_deterministic() {
    SUITE.check(
        "injection_is_deterministic",
        |r: &mut TkRng| (r.next_u64(), r.range(1, 2000)),
        |&(seed, cycle)| {
            let w = workloads::pid_controller();
            let mut rng = RngStream::new(seed);
            let fault = FaultSpace::cpu_only().sample(&mut rng);

            let run = |fault, cycle| {
                let mut m = w.instantiate();
                m.set_input(0, 1200);
                m.set_input(1, 800);
                let (out, injected) = run_with_injection(&mut m, 20_000, cycle, fault);
                (out, injected, *m.outputs())
            };
            let a = run(fault, cycle);
            let b = run(fault, cycle);
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.1, b.1);
            prop_assert_eq!(a.2, b.2);
            Ok(())
        },
    );
}

/// The golden PID command is always within the actuator range for any
/// inputs in the sensor range.
#[test]
fn pid_output_always_in_actuator_range() {
    SUITE.check(
        "pid_output_always_in_actuator_range",
        |r: &mut TkRng| (r.range(0, 4096) as u32, r.range(0, 4096) as u32),
        |&(sp, meas)| {
            let w = workloads::pid_controller();
            let (out, _) = w.golden_run(&[sp, meas]);
            let u = out[0].expect("pid always writes its output");
            prop_assert!(u <= 4095, "command {u} exceeds actuator range");
            Ok(())
        },
    );
}

/// Assembling then disassembling preserves mnemonics for a simple program.
#[test]
fn asm_disasm_consistent() {
    SUITE.check(
        "asm_disasm_consistent",
        |r: &mut TkRng| r.range(1, 50) as u32,
        |&n| {
            let src = format!("ldi r0, {n}\naddi r0, r0, 1\nhalt");
            let image = assemble(&src).unwrap();
            let text = disassemble(&image.words);
            let expected = format!("ldi r0, {}", n);
            prop_assert!(text.contains(&expected));
            prop_assert!(text.contains("halt"));
            Ok(())
        },
    );
}

/// A stuck bit re-manifests every time it is asserted: however the program
/// rewrites the target between instructions, re-asserting the fault forces
/// the bit back, on every single read/execute, until the fault is cleared —
/// after which the target holds whatever is written to it.
#[test]
fn stuck_at_bit_remanifests_until_cleared() {
    use nlft_machine::fault::{FaultTarget, StuckAtFault};

    SUITE.check(
        "stuck_at_bit_remanifests_until_cleared",
        |r: &mut TkRng| {
            (
                r.range(0, 8) as u8,   // register
                r.range(0, 32) as u32, // bit index
                r.next_u64() & 1 == 1, // stuck high?
                r.range(10, 200),      // steps to run
            )
        },
        |&(reg, bit_index, stuck_high, steps)| {
            let reg = Reg::new(reg).unwrap();
            let stuck = StuckAtFault {
                target: FaultTarget::Register(reg),
                bit: 1 << bit_index,
                stuck_high,
            };
            let w = workloads::pid_controller();
            let mut m = w.instantiate();
            m.set_input(0, 1500);
            m.set_input(1, 700);
            for _ in 0..steps {
                stuck.assert_on(&mut m);
                // Immediately after assertion the bit must read forced.
                let v = m.cpu.reg(reg);
                if stuck_high {
                    prop_assert!(v & stuck.bit != 0, "stuck-high bit read as 0");
                } else {
                    prop_assert!(v & stuck.bit == 0, "stuck-low bit read as 1");
                }
                if m.step().is_err() {
                    break; // an EDM fired; the fault model still held so far
                }
            }
            // Cleared: stop asserting and the target is writable again.
            let wanted = if stuck_high { 0u32 } else { stuck.bit };
            m.cpu.set_reg(reg, wanted);
            prop_assert_eq!(m.cpu.reg(reg), wanted, "cleared bit must stick");
            Ok(())
        },
    );
}

/// The decoded-instruction cache is bit-invisible: for arbitrary programs
/// and arbitrary single-event upsets drawn from the full SEU space
/// (registers, PC, SP, status, and memory words — including instruction
/// memory), a cached and an uncached machine produce identical exits,
/// cycle counts, injection decisions, outputs, architectural state, traces
/// and ECC statistics, with ECC both on and off.
#[test]
fn decode_cache_is_bit_invisible_under_fault_injection() {
    SUITE.check(
        "decode_cache_is_bit_invisible_under_fault_injection",
        {
            let mut words = gens::vec(|r| r.next_u32(), 1..64);
            move |r: &mut TkRng| {
                (
                    words(r),
                    r.next_u64(),          // fault seed
                    r.range(1, 2000),      // injection cycle
                    r.next_u64() & 1 == 1, // ECC enabled?
                )
            }
        },
        |(words, seed, cycle, ecc)| {
            let run = |cached: bool| {
                let mut m = if *ecc {
                    Machine::new(4096, MemoryMap::permissive())
                } else {
                    Machine::new_without_ecc(4096, MemoryMap::permissive())
                };
                m.set_decode_cache_enabled(cached);
                m.enable_trace(4096);
                m.load_program(0, words).unwrap();
                m.reset(0, 4096);
                let mut rng = RngStream::new(*seed);
                let fault = FaultSpace::seu(4096).sample(&mut rng);
                let (out, injected) = run_with_injection(&mut m, 5_000, *cycle, fault);
                let trace: Vec<_> = m.trace().copied().collect();
                (
                    out,
                    injected,
                    *m.outputs(),
                    m.cpu.clone(),
                    trace,
                    m.mem.ecc_stats(),
                )
            };
            let cached = run(true);
            let uncached = run(false);
            prop_assert_eq!(&cached.0, &uncached.0, "exit and cycle count differ");
            prop_assert_eq!(cached.1, uncached.1, "injection decision differs");
            prop_assert_eq!(&cached.2, &uncached.2, "outputs differ");
            prop_assert_eq!(&cached.3, &uncached.3, "architectural state differs");
            prop_assert_eq!(&cached.4, &uncached.4, "traces differ");
            prop_assert_eq!(&cached.5, &uncached.5, "ECC statistics differ");
            Ok(())
        },
    );
}

/// The cache stays bit-invisible across the campaign reuse pattern: flips
/// pre-planted in instruction memory, a run, `clear_faults`, a *second*
/// program loaded over the first, and a second run. Every phase must match
/// the uncached machine exactly — this exercises the generation bump on
/// `inject_flip`, `clear_faults` and `load_image`, and the word-tag check
/// for ECC-off corrupted fetches.
#[test]
fn decode_cache_is_bit_invisible_across_reuse_and_reload() {
    SUITE.check(
        "decode_cache_is_bit_invisible_across_reuse_and_reload",
        {
            let mut first = gens::vec(|r| r.next_u32(), 1..48);
            let mut second = gens::vec(|r| r.next_u32(), 1..48);
            move |r: &mut TkRng| {
                let flips: Vec<(u32, u32)> = (0..r.usize_range(1, 4))
                    .map(|_| (r.range(0, 48) as u32 * 4, 1 << r.range(0, 32)))
                    .collect();
                (first(r), second(r), flips, r.next_u64() & 1 == 1)
            }
        },
        |(first, second, flips, ecc)| {
            let run = |cached: bool| {
                let mut m = if *ecc {
                    Machine::new(4096, MemoryMap::permissive())
                } else {
                    Machine::new_without_ecc(4096, MemoryMap::permissive())
                };
                m.set_decode_cache_enabled(cached);
                m.load_program(0, first).unwrap();
                m.reset(0, 4096);
                for &(addr, mask) in flips {
                    m.mem.inject_flip(addr, mask);
                }
                let out_a = m.run(2_000);
                let snap_a = (out_a, m.cpu.clone(), m.mem.ecc_stats());
                m.mem.clear_faults();
                m.load_program(0, second).unwrap();
                m.reset(0, 4096);
                let out_b = m.run(2_000);
                (snap_a, (out_b, m.cpu.clone(), m.mem.ecc_stats()))
            };
            let cached = run(true);
            let uncached = run(false);
            prop_assert_eq!(&cached.0, &uncached.0, "first phase differs");
            prop_assert_eq!(&cached.1, &uncached.1, "second phase differs");
            Ok(())
        },
    );
}

/// A program of `2..40` words, mostly valid instructions whose branch,
/// call and some store targets stay inside the code, so runs loop, reuse
/// cached decodes and rewrite their own instruction stream.
fn arb_cached_program(r: &mut TkRng) -> Vec<u32> {
    let len = r.usize_range(2, 40);
    let code_addr = |r: &mut TkRng| r.range(0, len as u64) as u16 * 4;
    (0..len)
        .map(|_| match r.usize_range(0, 10) {
            0 => r.next_u32(),
            1 => Instr::Jmp(code_addr(r)).encode(),
            2 => Instr::Jnz(code_addr(r)).encode(),
            3 => Instr::Call(code_addr(r)).encode(),
            4 => Instr::St(arb_reg(r), Reg::R0, code_addr(r) as i16).encode(),
            _ => match arb_instr(r) {
                Instr::Jmp(_) | Instr::Jz(_) | Instr::Call(_) => Instr::Jz(code_addr(r)),
                other => other,
            }
            .encode(),
        })
        .collect()
}

/// Memory maps over a 4 KiB machine whose code sits in the first 160
/// bytes: they grant Execute on all, part or none of the code.
fn cache_test_map(i: usize) -> MemoryMap {
    match i {
        0 => MemoryMap::permissive(),
        1 => MemoryMap::from_regions(vec![
            Region::new(0, 0x100, Perms::RX),
            Region::new(0x100, 0xF00, Perms::RW),
        ]),
        2 => MemoryMap::from_regions(vec![Region::new(0, 0x1000, Perms::RW)]),
        _ => MemoryMap::from_regions(vec![
            Region::new(0, 0x40, Perms::RX),
            Region::new(0x40, 0xFC0, Perms::RW),
        ]),
    }
}

/// One event between two runs of the same machine.
#[derive(Debug, Clone)]
enum CacheEvent {
    SetMap(usize),
    /// Toggles the decode cache of the cached machine only.
    ToggleCache,
    Store {
        word: u32,
        value: u32,
    },
    Flip {
        word: u32,
        mask: u32,
    },
    ClearFaults,
    LoadImage(Vec<u32>),
    Nothing,
}

/// One step of the invalidation property: an event, an optional reset,
/// then a run of `budget` cycles, optionally with a memory flip injected
/// part-way through (after the given number of cycles).
#[derive(Debug, Clone)]
struct CacheStep {
    event: CacheEvent,
    reset: bool,
    budget: u64,
    mid_run_flip: Option<(u64, TransientFault)>,
}

/// A flip mask: one bit, two random bits, or two neighbouring bits.
fn arb_flip_mask(r: &mut TkRng) -> u32 {
    let bit = 1u32 << r.range(0, 32);
    match r.usize_range(0, 3) {
        0 => bit,
        1 => bit | bit.rotate_left(1 + r.range(0, 31) as u32),
        _ => bit ^ 1,
    }
}

fn arb_cache_event(r: &mut TkRng) -> CacheEvent {
    let word = r.range(0, 40) as u32;
    match r.usize_range(0, 8) {
        0 => CacheEvent::SetMap(r.usize_range(0, 4)),
        1 => CacheEvent::ToggleCache,
        2 => CacheEvent::Store {
            word,
            value: if r.bool() {
                arb_instr(r).encode()
            } else {
                r.next_u32()
            },
        },
        3 => CacheEvent::Flip {
            word,
            mask: arb_flip_mask(r),
        },
        4 => CacheEvent::ClearFaults,
        5 => CacheEvent::LoadImage(arb_cached_program(r)),
        _ => CacheEvent::Nothing,
    }
}

/// Every decode-cache invalidation channel is bit-invisible. One cached
/// and one uncached machine run the same program many times; between runs
/// both see the same random event: a map switch that grants or revokes
/// Execute on the code, a direct store or a bit flip into a code word
/// (ECC on and off), a fault clear, or a fresh image; the cached machine
/// may also toggle its cache. Some runs also take a flip into a code word
/// part-way through, so a loop comes back to a word that was flipped after
/// the cache last filled. After every run, exits, cycles, outputs, CPU
/// state, traces and ECC statistics must be identical.
#[test]
fn decode_cache_is_bit_invisible_across_invalidation_events() {
    SUITE.check(
        "decode_cache_is_bit_invisible_across_invalidation_events",
        |r: &mut TkRng| {
            let program = arb_cached_program(r);
            let len = program.len() as u64;
            let steps: Vec<CacheStep> = (0..r.usize_range(1, 16))
                .map(|_| {
                    let budget = r.range(1, 400);
                    let mid_run_flip = r.bool().then(|| {
                        let fault = TransientFault {
                            target: FaultTarget::MemoryWord(r.range(0, len) as u32 * WORD_BYTES),
                            mask: arb_flip_mask(r),
                        };
                        (r.range(1, budget + 1), fault)
                    });
                    CacheStep {
                        event: arb_cache_event(r),
                        reset: r.range(0, 10) < 7,
                        budget,
                        mid_run_flip,
                    }
                })
                .collect();
            (r.bool(), r.usize_range(0, 4), program, steps)
        },
        |(ecc, map, program, steps)| {
            let machine = |cached: bool| {
                let mut m = if *ecc {
                    Machine::new(4096, cache_test_map(*map))
                } else {
                    Machine::new_without_ecc(4096, cache_test_map(*map))
                };
                m.set_decode_cache_enabled(cached);
                m.enable_trace(32);
                m.load_program(0, program).unwrap();
                m.reset(0, 4096);
                m
            };
            let (mut cached, mut uncached) = (machine(true), machine(false));
            let mut cache_on = true;
            for (i, step) in steps.iter().enumerate() {
                let CacheStep {
                    event,
                    reset,
                    budget,
                    mid_run_flip,
                } = step;
                for (m, is_cached) in [(&mut cached, true), (&mut uncached, false)] {
                    match event {
                        CacheEvent::SetMap(i) => m.set_memory_map(cache_test_map(*i)),
                        CacheEvent::ToggleCache if is_cached => {
                            cache_on = !cache_on;
                            m.set_decode_cache_enabled(cache_on);
                        }
                        CacheEvent::Store { word, value } => {
                            m.mem.store(word * WORD_BYTES, *value).unwrap();
                        }
                        CacheEvent::Flip { word, mask } => {
                            m.mem.inject_flip(word * WORD_BYTES, *mask);
                        }
                        CacheEvent::ClearFaults => m.mem.clear_faults(),
                        CacheEvent::LoadImage(words) => m.load_program(0, words).unwrap(),
                        CacheEvent::ToggleCache | CacheEvent::Nothing => {}
                    }
                    if *reset {
                        m.reset(0, 4096);
                    }
                }
                let observe = |m: &mut Machine| {
                    let out = match mid_run_flip {
                        Some((at, fault)) => run_with_injection(m, *budget, *at, *fault).0,
                        None => m.run(*budget),
                    };
                    let trace: Vec<_> = m.trace().copied().collect();
                    (out, *m.outputs(), m.cpu.clone(), trace, m.mem.ecc_stats())
                };
                let (a, b) = (observe(&mut cached), observe(&mut uncached));
                prop_assert_eq!(&a, &b, "run after step {i} ({event:?})");
            }
            Ok(())
        },
    );
}

/// EDM classification of a stuck-at fault is consistent: running the same
/// workload against the same stuck bit always ends the same way (same exit,
/// same cycle count, same outputs) — a permanent fault produces a *stable*
/// error signature, which is what lets the diagnosis layer separate it from
/// transient bad luck.
#[test]
fn stuck_at_detection_classifies_consistently() {
    use nlft_machine::fault::{run_with_stuck_at, FaultModel, FaultSpace};

    SUITE.check(
        "stuck_at_detection_classifies_consistently",
        |r: &mut TkRng| r.next_u64(),
        |&seed| {
            let mut rng = RngStream::new(seed);
            let space = FaultSpace::cpu_only().with_stuck_at(1.0);
            let FaultModel::StuckAt(stuck) = space.sample_model(&mut rng) else {
                unreachable!("fraction 1.0 always draws stuck-at");
            };
            let w = workloads::sum_series();
            let run = || {
                let mut m = w.instantiate();
                m.set_input(0, 120);
                let out = run_with_stuck_at(&mut m, 30_000, stuck);
                (out, *m.outputs())
            };
            let a = run();
            let b = run();
            prop_assert_eq!(a.0, b.0, "exit and cycles must repeat exactly");
            prop_assert_eq!(a.1, b.1, "outputs must repeat exactly");
            Ok(())
        },
    );
}

/// One word-range call of the bulk-vs-word-by-word differential.
#[derive(Debug, Clone, Copy)]
enum RangeOp {
    Peek,
    Load,
    Store,
}

/// A memory, its contents and planted faults, and a short sequence of
/// word-range calls to replay through both APIs.
#[derive(Debug)]
struct RangeCase {
    ecc: bool,
    image: Vec<u32>,
    /// `(word index, mask)`; a repeated pair cancels itself.
    flips: Vec<(u32, u32)>,
    ops: Vec<(RangeOp, u32, Vec<u32>)>,
}

fn arb_range_case(r: &mut TkRng) -> RangeCase {
    // Up to 200 words, so ranges cross the 64-word lanes of the dirty
    // bitset.
    let image: Vec<u32> = (0..r.usize_range(1, 200)).map(|_| r.next_u32()).collect();
    let words = image.len() as u32;
    let mut flips = Vec::new();
    for _ in 0..r.usize_range(0, 6) {
        let idx = r.range(0, u64::from(words)) as u32;
        let bit = 1u32 << r.range(0, 32);
        match r.usize_range(0, 3) {
            0 => flips.push((idx, bit)),
            1 => flips.push((idx, bit | bit.rotate_left(1 + r.range(0, 31) as u32))),
            _ => flips.extend([(idx, bit), (idx, bit)]),
        }
    }
    let ops = (0..r.usize_range(1, 4))
        .map(|_| {
            let op = [RangeOp::Peek, RangeOp::Load, RangeOp::Store][r.usize_range(0, 3)];
            let base = match r.usize_range(0, 8) {
                // Misaligned.
                0 => r.range(0, u64::from(words) * 4) as u32 | (1 + r.range(0, 3) as u32),
                // Out of range, up to the top of the address space.
                1 => [
                    words * 4,
                    words * 4 + 4 * r.range(0, 64) as u32,
                    u32::MAX - 3,
                ][r.usize_range(0, 3)],
                // Ending at or past the last word.
                2 => (words - 1 - r.range(0, u64::from(words.min(8))) as u32) * 4,
                _ => r.range(0, u64::from(words)) as u32 * 4,
            };
            let data = (0..r.usize_range(0, 140)).map(|_| r.next_u32()).collect();
            (op, base, data)
        })
        .collect();
    RangeCase {
        ecc: r.bool(),
        image,
        flips,
        ops,
    }
}

/// What one range call returned: the filled buffer and the `Result`.
type RangeReply = (Vec<u32>, Result<(), MemError>);

fn apply_bulk(m: &mut EccMemory, op: RangeOp, base: u32, data: &[u32]) -> RangeReply {
    let mut out = vec![0x5A5A_5A5A; data.len()];
    let res = match op {
        RangeOp::Peek => m.peek_words(base, &mut out),
        RangeOp::Load => m.load_words(base, &mut out),
        RangeOp::Store => m.store_words(base, data),
    };
    (out, res)
}

/// The reference: ascending single-word calls, stopping at the first error.
fn apply_each(m: &mut EccMemory, op: RangeOp, base: u32, data: &[u32]) -> RangeReply {
    let mut out = vec![0x5A5A_5A5A; data.len()];
    let mut res = Ok(());
    for (i, &w) in data.iter().enumerate() {
        let addr = base.wrapping_add(i as u32 * WORD_BYTES);
        let step = match op {
            RangeOp::Peek => m.peek(addr).map(|v| out[i] = v),
            RangeOp::Load => m.load(addr).map(|v| out[i] = v),
            RangeOp::Store => m.store(addr, w),
        };
        if let Err(e) = step {
            res = Err(e);
            break;
        }
    }
    (out, res)
}

/// Everything observable about a memory: counters, generation, faulty
/// word count, the stored words, and what an ECC read of every word
/// returns (on a clone, so the hidden flip masks are compared too).
#[derive(Debug, PartialEq)]
struct MemView {
    stats: EccStats,
    generation: u64,
    faulty_words: usize,
    peeks: Vec<u32>,
    loads: Vec<Result<u32, MemError>>,
    stats_after_loads: EccStats,
}

fn observe(m: &EccMemory) -> MemView {
    let words = m.size_bytes() / WORD_BYTES;
    let mut probe = m.clone();
    let loads = (0..words).map(|i| probe.load(i * WORD_BYTES)).collect();
    MemView {
        stats: m.ecc_stats(),
        generation: m.generation(),
        faulty_words: m.faulty_words(),
        peeks: (0..words)
            .map(|i| m.peek(i * WORD_BYTES).unwrap())
            .collect(),
        loads,
        stats_after_loads: probe.ecc_stats(),
    }
}

/// `peek_words`, `load_words` and `store_words` are the ascending
/// word-by-word loops over `peek`, `load` and `store`, bit for bit: same
/// values and errors, same corrections, escapes, scrubs and generation
/// bumps, same memory afterwards — with ECC on and off, under single,
/// double and self-cancelling flips, on misaligned, out-of-range and
/// overhanging ranges. The dirty bitset only picks the path.
#[test]
fn word_range_calls_equal_word_by_word_calls() {
    SUITE.check(
        "word_range_calls_equal_word_by_word_calls",
        arb_range_case,
        |case| {
            let bytes = case.image.len() as u32 * WORD_BYTES;
            let mut bulk = if case.ecc {
                EccMemory::new(bytes)
            } else {
                EccMemory::new_without_ecc(bytes)
            };
            bulk.load_image(0, &case.image).unwrap();
            for &(idx, mask) in &case.flips {
                bulk.inject_flip(idx * WORD_BYTES, mask);
            }
            let mut each = bulk.clone();
            for (step, (op, base, data)) in case.ops.iter().enumerate() {
                let got = apply_bulk(&mut bulk, *op, *base, data);
                let want = apply_each(&mut each, *op, *base, data);
                prop_assert_eq!(&got, &want, "reply of op {step} ({op:?})");
                prop_assert_eq!(observe(&bulk), observe(&each), "state after op {step}");
            }
            Ok(())
        },
    );
}
