//! Allocation gate for the cluster hot path: once a `BbwCluster` is warm,
//! a clean communication cycle makes no heap allocation. Every per-cycle
//! buffer (frames, deliveries, the sealed command, TEM results and copy
//! traces) has a size the static schedule fixes, so the cluster reuses
//! them instead of allocating.
//!
//! This file is its own test binary so its counting allocator sees no
//! other test's traffic; the counter only runs on the thread that asked
//! for it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

use nlft::bbw::cluster::{BbwCluster, CU_B};
use nlft::bbw::scenario::{compile, CompiledScenario};
use nlft::net::inject::{NetFaultPlan, NetFaultRates};
use nlft::reliability::scenario::parse_scenario;
use nlft::sim::rng::RngStream;

/// The system allocator, counting the allocations (and reallocations)
/// of threads that switched counting on.
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also serves thread teardown, after the
    // thread-locals are gone.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
            BYTES.with(|n| n.set(n.get() + bytes as u64));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// bookkeeping touches only const-initialised thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with counting on; returns its result, the allocations it made
/// on this thread and their bytes.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    ALLOCS.with(|n| n.set(0));
    BYTES.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let r = f();
    COUNTING.with(|on| on.set(false));
    (r, ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// Cycles that size every reused buffer: both deliveries of the double
/// buffer, the first set-points, the first accepted commands.
const WARM_CYCLES: u32 = 8;

#[test]
fn the_counter_sees_this_thread() {
    let (v, allocs, bytes) = counted(|| std::hint::black_box(Vec::<u32>::with_capacity(4)));
    assert_eq!((allocs, bytes), (1, 16));
    drop(v);
}

#[test]
fn warm_clean_cycle_allocates_nothing() {
    assert_warm_cycles_allocate_nothing(BbwCluster::new());
}

#[test]
fn warm_clean_cycle_under_the_startup_protocol_allocates_nothing() {
    let mut cluster = BbwCluster::new();
    cluster.enable_startup();
    assert_warm_cycles_allocate_nothing(cluster);
}

#[test]
fn warm_cycle_with_a_babbling_cu_allocates_nothing() {
    // CU_B tries to transmit in a foreign slot every cycle; the guardian
    // refuses each attempt before a frame is staged, and CU_B's own
    // slot still carries its command.
    let mut cluster = BbwCluster::new();
    let babble = NetFaultRates {
        babble: 1.0,
        ..NetFaultRates::QUIET
    };
    let plan = NetFaultPlan::quiet().with_node(CU_B, babble);
    cluster.attach_net_faults(plan, RngStream::new(0xBABB).fork("net-injector"));
    assert_warm_cycles_allocate_nothing(cluster);
}

fn assert_warm_cycles_allocate_nothing(mut cluster: BbwCluster) {
    for _ in 0..WARM_CYCLES {
        cluster.step(1000);
    }
    let ((), allocs, bytes) = counted(|| {
        for _ in 0..200 {
            let outcome = cluster.step(1000);
            // The cycle measured is the full clean path: every node
            // transmits and every wheel brakes.
            assert_eq!(outcome.record.members, 6);
            assert_eq!(outcome.omissions, 0);
            assert!(outcome.record.wheel_force.iter().all(Option::is_some));
            assert!(!outcome.service_lost);
        }
    });
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "200 warm clean cycles made {allocs} allocations ({bytes} B)"
    );
}

#[test]
fn storm_cycle_allocation_count_is_reported() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/net-storm-nominal.scn");
    let source = std::fs::read_to_string(path).expect("scenario is readable");
    let spec = parse_scenario(&source).expect("scenario parses");
    let CompiledScenario::NetStorm(cfg) = compile(&spec, 1).expect("scenario compiles") else {
        panic!("net-storm-nominal is a net storm");
    };
    let mut cluster = BbwCluster::new();
    cluster.attach_net_faults(cfg.plan(), RngStream::new(cfg.seed).fork("net-injector"));
    for _ in 0..WARM_CYCLES {
        cluster.step(1000);
    }
    let (_, allocs, bytes) = counted(|| cluster.step(1000));
    // Advisory: storm cycles take rare paths (dynamic-segment resync
    // traffic, escalation records) that may allocate.
    println!("net-storm-nominal: one warm storm cycle made {allocs} allocations ({bytes} B)");
}
