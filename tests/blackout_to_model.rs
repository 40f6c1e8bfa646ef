//! Integration: cluster cold-start after a total blackout, analytically
//! and by simulation. The startup protocol's deterministic worst case —
//! every node reset in the same slot, zero stagger — is unfolded into a
//! linear absorbing DTMC (`cold_start_chain`) and solved with the
//! reliability crate's fundamental-matrix machinery; the blackout
//! campaign then measures the same quantity — cycles from reset to
//! Active — on the executed six-node cluster. The two routes are derived
//! independently (phase arithmetic vs. a cycle-driven state machine fed
//! by real bus deliveries) and must agree exactly.

use nlft::bbw::scenario::run_scenario;
use nlft::net::startup::{cold_start_chain, BASE_LISTEN_TIMEOUT};
use nlft::reliability::dtmc::AbsorbingDtmc;
use nlft::reliability::scenario::parse_scenario;

#[test]
fn analytic_cold_start_latency_matches_the_simulated_blackout() {
    // Simulated side: the deterministic full blackout. All six nodes
    // reset together, the slot-0 node has the shortest listen timeout
    // and always wins the contention, and — because the whole cluster
    // marches through the same phases — every node integrates with the
    // winner's latency.
    let down_cycles = 2;
    let spec = parse_scenario(&format!(
        "scenario full-blackout\nfamily blackout\ntrials 4\nseed 0xB1AC2005\n\
         params\ndown {down_cycles}\nstagger 0\nmin_reset 6\ninclude_cus on\nend\nend\n"
    ))
    .expect("scenario parses");
    let result = run_scenario(&spec, 1).expect("scenario runs");
    assert_eq!(result.counter("full_recoveries"), Some(result.trials));
    let latencies = result
        .distribution("integration_latencies")
        .expect("blackout measures integration latencies");
    assert!(latencies.count() > 0);

    // Analytic side: `down_cycles` powered-down states, the winner's
    // listen window, one contention cycle, and two integration cycles —
    // the marker cycle brings only the winner back on the bus, its first
    // set-point cycle has two senders, and the cycle after that all six,
    // which is the first majority anyone can hear.
    let (matrix, start, absorbing) = cold_start_chain(down_cycles, BASE_LISTEN_TIMEOUT, 2);
    let dtmc = AbsorbingDtmc::new(matrix, &absorbing).expect("cold-start chain is absorbing");
    let analytic = dtmc
        .expected_steps_to_absorption(start)
        .expect("Active is reachable");

    let simulated = result
        .mean("integration_latencies")
        .expect("latencies observed");
    assert!(
        (analytic - simulated).abs() < 1e-9,
        "analytic {analytic} cycles vs simulated {simulated} cycles"
    );
    // The scenario is fully deterministic, so not just the mean but every
    // single latency must sit on the analytic value (bin `l` counts the
    // latency `l`).
    assert!(
        latencies
            .bins()
            .iter()
            .enumerate()
            .all(|(l, &n)| n == 0 || l as f64 == analytic),
        "latency spread in a deterministic blackout: {:?}",
        latencies.bins()
    );
}

#[test]
fn cold_start_absorbs_exactly_on_schedule() {
    // Deterministic chain: zero probability of being Active one cycle
    // early, certainty at the expected step.
    let (matrix, start, absorbing) = cold_start_chain(2, BASE_LISTEN_TIMEOUT, 2);
    let dtmc = AbsorbingDtmc::new(matrix, &absorbing).unwrap();
    let steps = dtmc.expected_steps_to_absorption(start).unwrap().round() as u32;
    let before = dtmc
        .absorption_probability(start, steps - 1, &absorbing)
        .unwrap();
    let at = dtmc
        .absorption_probability(start, steps, &absorbing)
        .unwrap();
    assert!(before < 1e-12, "active early: {before}");
    assert!((at - 1.0).abs() < 1e-12, "not active on schedule: {at}");
}

#[test]
fn cold_start_latency_stretches_with_outage_depth() {
    let steps = |down: u32, timeout: u32| {
        let (matrix, start, absorbing) = cold_start_chain(down, timeout, 2);
        AbsorbingDtmc::new(matrix, &absorbing)
            .unwrap()
            .expected_steps_to_absorption(start)
            .unwrap()
    };
    // One extra powered-down cycle or one extra listen cycle each cost
    // exactly one cycle of integration latency — the chain is linear.
    assert_eq!(
        steps(3, BASE_LISTEN_TIMEOUT) - steps(2, BASE_LISTEN_TIMEOUT),
        1.0
    );
    assert_eq!(
        steps(2, BASE_LISTEN_TIMEOUT + 3) - steps(2, BASE_LISTEN_TIMEOUT),
        3.0
    );
}
