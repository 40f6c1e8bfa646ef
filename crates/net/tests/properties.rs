//! Property-based tests for the time-triggered network.

use nlft_net::bus::{Bus, BusConfig, WireFault};
use nlft_net::frame::{Frame, NodeId, SlotId};
use nlft_net::membership::Membership;
use nlft_net::sync::{run, SyncConfig};
use nlft_sim::rng::RngStream;
use nlft_testkit::prop::{gens, Suite};
use nlft_testkit::rng::TkRng;
use nlft_testkit::{prop_assert, prop_assert_eq};

const SUITE: Suite = Suite::new(0x5EED_0030);

/// Frames round-trip any payload.
#[test]
fn frame_round_trip() {
    SUITE.check(
        "frame_round_trip",
        {
            let mut payload = gens::vec(|r| r.next_u32(), 0..64);
            move |r: &mut TkRng| {
                (
                    r.range(0, 32) as u8,
                    r.range(0, 32) as u8,
                    r.next_u32(),
                    payload(r),
                )
            }
        },
        |(sender, slot, cycle, payload)| {
            let f = Frame::new(NodeId(*sender), SlotId(*slot), *cycle, payload.clone());
            prop_assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
            Ok(())
        },
    );
}

/// Any 1- or 2-bit corruption is detected (CRC-32 guarantees all
/// double-bit errors within these frame lengths).
#[test]
fn frame_detects_small_corruption() {
    SUITE.check(
        "frame_detects_small_corruption",
        {
            let mut payload = gens::vec(|r| r.next_u32(), 0..32);
            let mut b1 = gens::index();
            let mut b2 = gens::index();
            move |r: &mut TkRng| {
                (
                    payload(r),
                    b1(r),
                    r.range(0, 8) as u8,
                    b2(r),
                    r.range(0, 8) as u8,
                )
            }
        },
        |(payload, b1, bit1, b2, bit2)| {
            let f = Frame::new(NodeId(1), SlotId(2), 3, payload.clone());
            let clean = f.encode();
            let mut corrupt = clean.clone();
            corrupt[b1.index(clean.len())] ^= 1 << bit1;
            corrupt[b2.index(clean.len())] ^= 1 << bit2;
            if corrupt != clean {
                prop_assert!(Frame::decode(&corrupt).is_err());
            }
            Ok(())
        },
    );
}

/// Truncated frames never decode.
#[test]
fn frame_rejects_truncation() {
    SUITE.check(
        "frame_rejects_truncation",
        {
            let mut payload = gens::vec(|r| r.next_u32(), 0..16);
            let mut cut = gens::index();
            move |r: &mut TkRng| (payload(r), cut(r))
        },
        |(payload, cut)| {
            let bytes = Frame::new(NodeId(0), SlotId(0), 0, payload.clone()).encode();
            let keep = cut.index(bytes.len()); // strictly shorter than full
            prop_assert!(Frame::decode(&bytes[..keep]).is_err());
            Ok(())
        },
    );
}

/// Bus delivery: exactly the transmitting owners' frames arrive, in
/// slot order, whatever the subset of speakers.
#[test]
fn bus_delivers_exactly_the_speakers() {
    SUITE.check(
        "bus_delivers_exactly_the_speakers",
        gens::btree_set(|r| r.range(0, 8) as u8, 0..8),
        |speakers| {
            let mut bus = Bus::new(BusConfig::round_robin(8, 0));
            bus.start_cycle();
            for &s in speakers {
                bus.transmit_static(NodeId(s), vec![u32::from(s)]).unwrap();
            }
            let d = bus.finish_cycle();
            prop_assert_eq!(d.static_frames.len(), speakers.len());
            for &s in speakers {
                let f = d.from_node(bus.config(), NodeId(s)).expect("delivered");
                prop_assert_eq!(f.payload.clone(), vec![u32::from(s)]);
            }
            Ok(())
        },
    );
}

/// A staged wire corruption flipping one or two bits of one byte is
/// *always* rejected by the CRC — whatever the payload, the victim byte or
/// the bit pattern — and never disturbs the other slots. This is the
/// bus-level counterpart of `frame_detects_small_corruption`: the measured
/// CRC reject rate the storm campaign reports must be exactly 1.
#[test]
fn staged_corruption_always_rejected() {
    SUITE.check(
        "staged_corruption_always_rejected",
        {
            let mut payload = gens::vec(|r| r.next_u32(), 0..16);
            let mut byte = gens::index();
            move |r: &mut TkRng| {
                (
                    payload(r),
                    r.range(0, 4) as u8, // victim slot
                    byte(r),             // victim byte
                    r.range(0, 8) as u8, // first flipped bit
                    r.range(0, 8) as u8, // second flipped bit
                )
            }
        },
        |(payload, victim, byte, bit1, bit2)| {
            let mask = (1u8 << bit1) | (1 << bit2); // one or two bits
            let mut bus = Bus::new(BusConfig::round_robin(4, 0));
            bus.start_cycle();
            bus.stage_wire_fault(WireFault::CorruptStatic {
                slot: SlotId(*victim),
                byte: byte.index(usize::MAX),
                mask,
            });
            for n in 0u8..4 {
                bus.transmit_static(NodeId(n), payload.clone()).unwrap();
            }
            let d = bus.finish_cycle();
            prop_assert!(
                !d.static_frames.contains_key(&SlotId(*victim)),
                "corrupted frame (byte {byte:?}, mask {mask:#04x}) survived"
            );
            prop_assert_eq!(d.rejected, 1);
            prop_assert_eq!(bus.crc_rejects(), 1);
            prop_assert_eq!(bus.corruptions_applied(), 1);
            prop_assert_eq!(d.static_frames.len(), 3, "other slots unaffected");
            Ok(())
        },
    );
}

/// Every babbling-idiot attempt — any node, any foreign slot, any number
/// of attempts per cycle — is blocked by the guardian and counted exactly
/// once; no foreign frame ever reaches a receiver. The guardian block rate
/// the storm campaign measures must therefore be exactly 1.
#[test]
fn guardian_counts_each_babble_exactly_once() {
    SUITE.check(
        "guardian_counts_each_babble_exactly_once",
        gens::vec(|r| (r.range(0, 4) as u8, r.range(1, 4) as u8), 0..12),
        |attempts| {
            let mut bus = Bus::new(BusConfig::round_robin(4, 0));
            bus.start_cycle();
            for &(node, shift) in attempts {
                // A foreign slot: the babbler's own slot index plus a
                // non-zero shift, mod the slot count.
                let foreign = SlotId((node + shift) % 4);
                prop_assert!(bus
                    .transmit_in_slot(NodeId(node), foreign, &[0xBAD])
                    .is_err());
            }
            prop_assert_eq!(bus.guardian_blocks(), attempts.len() as u64);
            let d = bus.finish_cycle();
            prop_assert_eq!(d.static_frames.len(), 0, "nothing leaked to the wire");
            prop_assert_eq!(d.rejected, 0);
            Ok(())
        },
    );
}

/// Membership never contains a node that has been silent for at least
/// the exclusion threshold, and member count is bounded by node count.
#[test]
fn membership_invariants() {
    SUITE.check(
        "membership_invariants",
        {
            let mut pattern = gens::vec(gens::btree_set(|r| r.range(0, 4) as u8, 0..4), 1..20);
            move |r: &mut TkRng| (pattern(r), r.range(1, 4) as u32)
        },
        |(pattern, exclude_after)| {
            let exclude_after = *exclude_after;
            let config = BusConfig::round_robin(4, 0);
            let mut bus = Bus::new(config.clone());
            let mut membership = Membership::new(&config, exclude_after, 2);
            let mut silent_streak = [0u32; 4];
            for speakers in pattern {
                bus.start_cycle();
                for &s in speakers {
                    bus.transmit_static(NodeId(s), vec![1]).unwrap();
                }
                let d = bus.finish_cycle();
                membership.observe(&d);
                for n in 0u8..4 {
                    if speakers.contains(&n) {
                        silent_streak[n as usize] = 0;
                    } else {
                        silent_streak[n as usize] += 1;
                    }
                }
                prop_assert!(membership.members().len() <= 4);
                for n in 0u8..4 {
                    if silent_streak[n as usize] >= exclude_after {
                        prop_assert!(
                            !membership.is_member(NodeId(n)),
                            "node {n} silent {} cycles but still member",
                            silent_streak[n as usize]
                        );
                    }
                }
            }
            Ok(())
        },
    );
}

/// A continuously transmitting node is always a member, whatever the
/// other nodes do.
#[test]
fn reliable_node_never_excluded() {
    SUITE.check(
        "reliable_node_never_excluded",
        gens::vec(gens::btree_set(|r| r.range(1, 4) as u8, 0..3), 1..20),
        |pattern| {
            let config = BusConfig::round_robin(4, 0);
            let mut bus = Bus::new(config.clone());
            let mut membership = Membership::new(&config, 2, 2);
            for speakers in pattern {
                bus.start_cycle();
                bus.transmit_static(NodeId(0), vec![0]).unwrap();
                for &s in speakers {
                    bus.transmit_static(NodeId(s), vec![1]).unwrap();
                }
                let d = bus.finish_cycle();
                membership.observe(&d);
                prop_assert!(membership.is_member(NodeId(0)));
            }
            Ok(())
        },
    );
}

/// Welch–Lynch on a correct cluster (no Byzantine clocks) keeps the
/// steady-state skew within the analytic `4ε + 2ρR` bound (with the
/// house ×1.5 convergence cushion) for any reading error ε, drift rate
/// and resync interval.
#[test]
fn sync_steady_state_skew_within_analytic_bound() {
    SUITE.check(
        "sync_steady_state_skew_within_analytic_bound",
        |r: &mut TkRng| {
            (
                4 + r.range(0, 5) as usize,     // n in 4..=8
                r.f64_range(5.0, 100.0),        // max drift, ppm
                r.f64_range(0.05, 4.0),         // reading error ε, µs
                r.f64_range(1_000.0, 20_000.0), // resync interval R, µs
                r.next_u64(),                   // cluster + run seed
            )
        },
        |(n, ppm, eps, interval, seed)| {
            let mut rng = RngStream::new(*seed);
            let config = SyncConfig::cluster(*n, *ppm, 1, &mut rng)
                .with_reading_error(*eps)
                .with_resync_interval(*interval);
            let report = run(&config, 30, report_offset(&config), &mut rng);
            let steady = report.steady_state_skew();
            prop_assert!(
                steady <= report.skew_bound_us * 1.5,
                "steady skew {steady} exceeds bound {} (n={n}, ppm={ppm}, eps={eps}, R={interval})",
                report.skew_bound_us
            );
            Ok(())
        },
    );
}

/// A benign initial offset: twice the cluster's own skew bound, so the
/// algorithm is past its convergence transient within the two rounds
/// `steady_state_skew` skips.
fn report_offset(config: &SyncConfig) -> f64 {
    2.0 * (4.0 * config.reading_error_us + 1.0)
}

/// Degradation is monotone in the reading error: scaling ε up by ≥ 4×
/// with identical clock drifts and identical unit random draws never
/// *reduces* the steady-state skew by more than the drift term — the
/// only contribution that does not scale with ε.
#[test]
fn sync_steady_state_skew_monotone_in_reading_error() {
    SUITE.check(
        "sync_steady_state_skew_monotone_in_reading_error",
        |r: &mut TkRng| {
            (
                4 + r.range(0, 4) as usize, // n in 4..=7
                r.f64_range(5.0, 100.0),    // max drift, ppm
                r.f64_range(0.2, 1.0),      // ε_lo, µs
                r.f64_range(4.0, 10.0),     // ε_hi / ε_lo
                r.next_u64(),
            )
        },
        |(n, ppm, eps_lo, factor, seed)| {
            let interval = 1_000.0;
            let base = SyncConfig::cluster(*n, *ppm, 1, &mut RngStream::new(*seed));
            let run_with = |eps: f64| {
                let config = base
                    .clone()
                    .with_reading_error(eps)
                    .with_resync_interval(interval);
                // A fresh stream with the same seed for both runs: the
                // unit draws are identical, so every reading error
                // scales exactly with ε.
                run(
                    &config,
                    30,
                    report_offset(&config),
                    &mut RngStream::new(seed ^ 0xA5),
                )
                .steady_state_skew()
            };
            let lo = run_with(*eps_lo);
            let hi = run_with(*eps_lo * *factor);
            let drift_term = 2.0 * *ppm * 1e-6 * interval;
            prop_assert!(
                lo <= hi + drift_term,
                "skew shrank as ε grew: ε_lo={eps_lo} -> {lo}, ε_hi={} -> {hi} \
                 (drift term {drift_term}, n={n}, ppm={ppm})",
                *eps_lo * *factor
            );
            Ok(())
        },
    );
}
