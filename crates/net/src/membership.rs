//! Membership and reintegration.
//!
//! The distributed redundancy management the paper leans on: every node
//! observes every static slot, so a silent node is noticed within one
//! cycle. A node missing its slot for `exclude_after` consecutive cycles is
//! excluded from the membership view; an excluded node that transmits
//! correctly again for `reintegrate_after` consecutive cycles is
//! readmitted. The exclusion/readmission latencies are what the paper's
//! repair rates `μ_R` (restart, ~3 s) and `μ_OM` (omission reintegration,
//! ~1.6 s) abstract.

use std::collections::BTreeMap;

use nlft_sim::weakly_hard::WeaklyHard;

use crate::bus::{BusConfig, CycleDelivery};
use crate::frame::NodeId;

/// Membership status of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// In the membership; `missed` consecutive slots currently unanswered.
    Active {
        /// Consecutive missed cycles (0 = healthy).
        missed: u32,
    },
    /// Out of the membership; `seen` consecutive correct cycles so far.
    Excluded {
        /// Consecutive correct cycles while excluded.
        seen: u32,
    },
}

/// A membership change produced by one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipEvent {
    /// Node missed too many slots and was excluded.
    Excluded(NodeId),
    /// Node transmitted correctly long enough and was readmitted.
    Reintegrated(NodeId),
}

/// The membership monitor every node runs.
///
/// # Examples
///
/// ```
/// use nlft_net::bus::{Bus, BusConfig};
/// use nlft_net::frame::NodeId;
/// use nlft_net::membership::{Membership, MembershipEvent};
///
/// let config = BusConfig::round_robin(2, 0);
/// let mut bus = Bus::new(config.clone());
/// let mut membership = Membership::new(&config, 2, 2);
///
/// // Node 1 stays silent for two cycles → excluded.
/// for _ in 0..2 {
///     bus.start_cycle();
///     bus.transmit_static(NodeId(0), vec![1]).unwrap();
///     let d = bus.finish_cycle();
///     let _ = membership.observe(&d);
/// }
/// assert!(!membership.is_member(NodeId(1)));
/// assert!(membership.is_member(NodeId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct Membership {
    states: BTreeMap<NodeId, MemberState>,
    /// Per-node weakly-hard m-in-k window over slot hits/misses while
    /// Active. Empty when the window rule is off (`Membership::new`).
    windows: BTreeMap<NodeId, WeaklyHard>,
    config: BusConfig,
    exclude_after: u32,
    reintegrate_after: u32,
}

impl Membership {
    /// Creates a monitor for all slot-owning nodes, all initially members.
    /// Exclusion is purely consecutive: `exclude_after` missed cycles in a
    /// row. Intermittent senders that always recover in time are never
    /// excluded — see [`Membership::with_hysteresis`] for the windowed rule
    /// that catches them.
    ///
    /// # Panics
    ///
    /// Panics if either threshold is zero.
    pub fn new(config: &BusConfig, exclude_after: u32, reintegrate_after: u32) -> Self {
        Self::build(config, exclude_after, reintegrate_after, 0, 0)
    }

    /// Creates a monitor that additionally enforces a weakly-hard **m-in-k
    /// window** (a per-node [`WeaklyHard`] monitor): a node accumulating
    /// `window_misses` missed slots within its last `window_cycles` cycles
    /// is excluded even if no single run of misses reaches
    /// `exclude_after`. Combined with the `reintegrate_after`
    /// consecutive-clean readmission requirement this gives hysteresis: an
    /// intermittently faulty node is taken out once and must prove itself
    /// stable before coming back, instead of flapping in and out of the
    /// membership.
    ///
    /// # Panics
    ///
    /// Panics if any threshold is zero, `window_cycles > 64` (the
    /// membership keeps the historical one-word bound so per-node views
    /// stay cheap to clone), or `window_misses > window_cycles`.
    pub fn with_hysteresis(
        config: &BusConfig,
        exclude_after: u32,
        reintegrate_after: u32,
        window_misses: u32,
        window_cycles: u32,
    ) -> Self {
        assert!(window_misses > 0, "window_misses must be positive");
        assert!(window_cycles <= 64, "window_cycles must be at most 64");
        assert!(
            window_misses <= window_cycles,
            "window_misses must be at most window_cycles"
        );
        Self::build(
            config,
            exclude_after,
            reintegrate_after,
            window_misses,
            window_cycles,
        )
    }

    fn build(
        config: &BusConfig,
        exclude_after: u32,
        reintegrate_after: u32,
        window_misses: u32,
        window_cycles: u32,
    ) -> Self {
        assert!(exclude_after > 0, "exclude_after must be positive");
        assert!(reintegrate_after > 0, "reintegrate_after must be positive");
        let windows = if window_misses > 0 {
            config
                .static_slots
                .iter()
                .map(|&n| (n, WeaklyHard::new(window_misses, window_cycles)))
                .collect()
        } else {
            BTreeMap::new()
        };
        Membership {
            states: config
                .static_slots
                .iter()
                .map(|&n| (n, MemberState::Active { missed: 0 }))
                .collect(),
            windows,
            config: config.clone(),
            exclude_after,
            reintegrate_after,
        }
    }

    /// Whether a node is currently in the membership.
    pub fn is_member(&self, node: NodeId) -> bool {
        matches!(self.states.get(&node), Some(MemberState::Active { .. }))
    }

    /// All current members.
    pub fn members(&self) -> Vec<NodeId> {
        self.states
            .iter()
            .filter(|(_, s)| matches!(s, MemberState::Active { .. }))
            .map(|(&n, _)| n)
            .collect()
    }

    /// Number of current members: `members().len()` without collecting
    /// the list.
    pub fn member_count(&self) -> usize {
        self.states
            .values()
            .filter(|s| matches!(s, MemberState::Active { .. }))
            .count()
    }

    /// State of one node, if it owns a slot.
    pub fn state(&self, node: NodeId) -> Option<MemberState> {
        self.states.get(&node).copied()
    }

    /// Feeds one cycle's delivery into the monitor, returning any
    /// membership changes.
    pub fn observe(&mut self, delivery: &CycleDelivery) -> Vec<MembershipEvent> {
        let mut events = Vec::new();
        for (&node, state) in &mut self.states {
            let transmitted = self
                .config
                .slot_of(node)
                .is_some_and(|s| delivery.static_frames.contains_key(&s));
            match state {
                MemberState::Active { missed } => {
                    let window_violated = self
                        .windows
                        .get_mut(&node)
                        .is_some_and(|w| w.record(!transmitted).violated);
                    if transmitted {
                        *missed = 0;
                    } else {
                        *missed += 1;
                    }
                    if *missed >= self.exclude_after || window_violated {
                        *state = MemberState::Excluded { seen: 0 };
                        if let Some(w) = self.windows.get_mut(&node) {
                            w.reset();
                        }
                        events.push(MembershipEvent::Excluded(node));
                    }
                }
                MemberState::Excluded { seen } => {
                    if transmitted {
                        *seen += 1;
                        if *seen >= self.reintegrate_after {
                            // Readmitted with a clean slate: old misses must
                            // not count against the fresh membership.
                            *state = MemberState::Active { missed: 0 };
                            if let Some(w) = self.windows.get_mut(&node) {
                                w.reset();
                            }
                            events.push(MembershipEvent::Reintegrated(node));
                        }
                    } else {
                        *seen = 0;
                    }
                }
            }
        }
        events
    }

    /// Cycles from first missed slot to exclusion.
    pub fn exclusion_latency_cycles(&self) -> u32 {
        self.exclude_after
    }

    /// Cycles from first correct slot to readmission.
    pub fn reintegration_latency_cycles(&self) -> u32 {
        self.reintegrate_after
    }

    /// TTP/C clique-avoidance check for one completed cycle: compares
    /// the number of senders actually heard against the majority
    /// threshold over *all* slot owners. The count deliberately ignores
    /// the node's own membership view — after a glitch, that view is
    /// exactly what cannot be trusted, and TTP/C resolves the ambiguity
    /// by raw sender counting.
    ///
    /// A node that receives a [`CliqueVerdict::Minority`] must assume it
    /// is the one partitioned off and revert to integration (fall
    /// silent) instead of babbling against the majority clique; the
    /// startup protocol (`crate::startup`) enforces exactly that rule.
    pub fn clique_check(&self, delivery: &CycleDelivery) -> CliqueVerdict {
        let threshold = clique_majority_threshold(self.config.static_slots.len());
        let heard = delivery.static_frames.len();
        if heard >= threshold {
            CliqueVerdict::Majority { heard, threshold }
        } else {
            CliqueVerdict::Minority { heard, threshold }
        }
    }
}

/// Verdict of [`Membership::clique_check`] for one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CliqueVerdict {
    /// The observing node hears a majority of slot owners: it is in the
    /// agreeing clique and may keep transmitting.
    Majority {
        /// Distinct senders heard this cycle.
        heard: usize,
        /// Senders required for a majority (`n/2 + 1`).
        threshold: usize,
    },
    /// The observing node hears only a minority: it must fall silent and
    /// reintegrate rather than babble.
    Minority {
        /// Distinct senders heard this cycle.
        heard: usize,
        /// Senders required for a majority (`n/2 + 1`).
        threshold: usize,
    },
}

/// Senders that must be heard in one cycle for the observer to count
/// itself in the majority clique: `n/2 + 1` of `n` slot owners.
pub fn clique_majority_threshold(n: usize) -> usize {
    n / 2 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::Bus;

    fn setup(exclude: u32, reint: u32) -> (Bus, Membership) {
        let config = BusConfig::round_robin(3, 0);
        let bus = Bus::new(config.clone());
        let membership = Membership::new(&config, exclude, reint);
        (bus, membership)
    }

    /// Runs one cycle where exactly the `senders` transmit.
    fn cycle(bus: &mut Bus, membership: &mut Membership, senders: &[u8]) -> Vec<MembershipEvent> {
        bus.start_cycle();
        for &s in senders {
            bus.transmit_static(NodeId(s), vec![s as u32]).unwrap();
        }
        let d = bus.finish_cycle();
        membership.observe(&d)
    }

    #[test]
    fn all_members_initially() {
        let (_, m) = setup(2, 2);
        assert_eq!(m.members().len(), 3);
    }

    #[test]
    fn silent_node_excluded_after_threshold() {
        let (mut bus, mut m) = setup(2, 2);
        assert!(
            cycle(&mut bus, &mut m, &[0, 1]).is_empty(),
            "one miss tolerated"
        );
        let ev = cycle(&mut bus, &mut m, &[0, 1]);
        assert_eq!(ev, vec![MembershipEvent::Excluded(NodeId(2))]);
        assert!(!m.is_member(NodeId(2)));
        assert_eq!(m.members(), vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn single_miss_recovers_without_exclusion() {
        let (mut bus, mut m) = setup(2, 2);
        cycle(&mut bus, &mut m, &[0, 1]);
        // Node 2 returns before the threshold.
        assert!(cycle(&mut bus, &mut m, &[0, 1, 2]).is_empty());
        assert!(m.is_member(NodeId(2)));
        assert_eq!(m.state(NodeId(2)), Some(MemberState::Active { missed: 0 }));
    }

    #[test]
    fn reintegration_after_consecutive_good_cycles() {
        let (mut bus, mut m) = setup(1, 3);
        cycle(&mut bus, &mut m, &[0, 1]); // node 2 excluded immediately
        assert!(!m.is_member(NodeId(2)));
        cycle(&mut bus, &mut m, &[0, 1, 2]);
        cycle(&mut bus, &mut m, &[0, 1, 2]);
        assert!(!m.is_member(NodeId(2)), "needs 3 good cycles");
        let ev = cycle(&mut bus, &mut m, &[0, 1, 2]);
        assert_eq!(ev, vec![MembershipEvent::Reintegrated(NodeId(2))]);
        assert!(m.is_member(NodeId(2)));
    }

    #[test]
    fn reintegration_counter_resets_on_silence() {
        let (mut bus, mut m) = setup(1, 2);
        cycle(&mut bus, &mut m, &[0, 1]); // exclude node 2
        cycle(&mut bus, &mut m, &[0, 1, 2]); // 1 good
        cycle(&mut bus, &mut m, &[0, 1]); // silent again → reset
        cycle(&mut bus, &mut m, &[0, 1, 2]); // 1 good
        assert!(!m.is_member(NodeId(2)));
        cycle(&mut bus, &mut m, &[0, 1, 2]); // 2 good → in
        assert!(m.is_member(NodeId(2)));
    }

    #[test]
    fn corrupted_frame_counts_as_silence() {
        let config = BusConfig::round_robin(2, 0);
        let mut bus = Bus::new(config.clone());
        let mut m = Membership::new(&config, 1, 1);
        bus.start_cycle();
        bus.stage_wire_fault(crate::bus::WireFault::CorruptStatic {
            slot: crate::frame::SlotId(0),
            byte: 3,
            mask: 0x01,
        });
        bus.transmit_static(NodeId(0), vec![5]).unwrap();
        bus.transmit_static(NodeId(1), vec![6]).unwrap();
        let d = bus.finish_cycle();
        let ev = m.observe(&d);
        assert_eq!(ev, vec![MembershipEvent::Excluded(NodeId(0))]);
    }

    #[test]
    fn multiple_simultaneous_exclusions() {
        let (mut bus, mut m) = setup(1, 1);
        let ev = cycle(&mut bus, &mut m, &[1]);
        assert!(ev.contains(&MembershipEvent::Excluded(NodeId(0))));
        assert!(ev.contains(&MembershipEvent::Excluded(NodeId(2))));
        assert_eq!(m.members(), vec![NodeId(1)]);
    }

    #[test]
    #[should_panic(expected = "exclude_after")]
    fn zero_threshold_rejected() {
        let config = BusConfig::round_robin(2, 0);
        Membership::new(&config, 0, 1);
    }

    #[test]
    fn exclude_after_one_is_immediate() {
        let (mut bus, mut m) = setup(1, 1);
        let ev = cycle(&mut bus, &mut m, &[0, 1]);
        assert_eq!(ev, vec![MembershipEvent::Excluded(NodeId(2))]);
        // And a single good cycle readmits (reintegrate_after = 1).
        let ev = cycle(&mut bus, &mut m, &[0, 1, 2]);
        assert_eq!(ev, vec![MembershipEvent::Reintegrated(NodeId(2))]);
    }

    #[test]
    fn readmission_exactly_at_reintegrate_after() {
        let reint = 4;
        let (mut bus, mut m) = setup(1, reint);
        cycle(&mut bus, &mut m, &[0, 1]); // exclude node 2
        for good in 1..reint {
            let ev = cycle(&mut bus, &mut m, &[0, 1, 2]);
            assert!(ev.is_empty(), "good cycle {good}: still excluded");
            assert_eq!(
                m.state(NodeId(2)),
                Some(MemberState::Excluded { seen: good })
            );
        }
        let ev = cycle(&mut bus, &mut m, &[0, 1, 2]);
        assert_eq!(
            ev,
            vec![MembershipEvent::Reintegrated(NodeId(2))],
            "readmitted exactly at cycle {reint}, not one later"
        );
    }

    #[test]
    fn alternating_misses_evade_consecutive_rule() {
        // Without the m-in-k window an every-other-cycle node is never
        // excluded: the consecutive counter resets on each hit.
        let (mut bus, mut m) = setup(2, 2);
        for i in 0..40 {
            let senders: &[u8] = if i % 2 == 0 { &[0, 1] } else { &[0, 1, 2] };
            assert!(cycle(&mut bus, &mut m, senders).is_empty());
        }
        assert!(m.is_member(NodeId(2)), "50% loss yet still a member");
    }

    #[test]
    fn window_rule_catches_alternating_misses() {
        let config = BusConfig::round_robin(3, 0);
        let mut bus = Bus::new(config.clone());
        // Consecutive rule needs 3 in a row; window rule: 4 misses in 8.
        let mut m = Membership::with_hysteresis(&config, 3, 2, 4, 8);
        let mut excluded_at = None;
        for i in 0..40 {
            let senders: &[u8] = if i % 2 == 0 { &[0, 1] } else { &[0, 1, 2] };
            bus.start_cycle();
            for &s in senders {
                bus.transmit_static(NodeId(s), vec![s as u32]).unwrap();
            }
            let d = bus.finish_cycle();
            for ev in m.observe(&d) {
                if ev == MembershipEvent::Excluded(NodeId(2)) && excluded_at.is_none() {
                    excluded_at = Some(i);
                }
            }
        }
        // The 4th miss lands on cycle 6 (misses at 0, 2, 4, 6).
        assert_eq!(excluded_at, Some(6));
    }

    #[test]
    fn hysteresis_suppresses_flapping() {
        let config = BusConfig::round_robin(2, 0);
        let mut bus = Bus::new(config.clone());
        // Window 3-in-8, readmission after 2 *consecutive* clean cycles.
        let mut m = Membership::with_hysteresis(&config, 3, 2, 3, 8);
        let mut transitions = 0;
        for i in 0..120 {
            bus.start_cycle();
            bus.transmit_static(NodeId(0), vec![0]).unwrap();
            // Node 1 alternates hit/miss forever — a classic flapper.
            if i % 2 != 0 {
                bus.transmit_static(NodeId(1), vec![1]).unwrap();
            }
            let d = bus.finish_cycle();
            transitions += m.observe(&d).len();
        }
        // The window rule excludes it once (3rd miss in window, cycle 4);
        // after that the consecutive-clean readmission requirement is never
        // met by an alternating sender, so the membership changes exactly
        // once in 120 cycles instead of oscillating.
        assert_eq!(transitions, 1, "membership must not flap");
        assert!(!m.is_member(NodeId(1)));
    }

    #[test]
    fn readmission_starts_with_clean_window() {
        let config = BusConfig::round_robin(2, 0);
        let mut bus = Bus::new(config.clone());
        let mut m = Membership::with_hysteresis(&config, 10, 1, 2, 64);
        let run = |m: &mut Membership, bus: &mut Bus, node1_sends: bool| {
            bus.start_cycle();
            bus.transmit_static(NodeId(0), vec![0]).unwrap();
            if node1_sends {
                bus.transmit_static(NodeId(1), vec![1]).unwrap();
            }
            let d = bus.finish_cycle();
            m.observe(&d)
        };
        run(&mut m, &mut bus, false); // miss 1
        let ev = run(&mut m, &mut bus, false); // miss 2 → window fires
        assert_eq!(ev, vec![MembershipEvent::Excluded(NodeId(1))]);
        let ev = run(&mut m, &mut bus, true); // readmitted (reint = 1)
        assert_eq!(ev, vec![MembershipEvent::Reintegrated(NodeId(1))]);
        // One further miss must NOT re-exclude: the pre-exclusion history
        // was wiped on readmission, so the 64-cycle window holds one miss.
        let ev = run(&mut m, &mut bus, false);
        assert!(ev.is_empty(), "stale window re-excluded the node: {ev:?}");
        assert!(m.is_member(NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "window_misses must be at most")]
    fn window_wider_than_k_rejected() {
        let config = BusConfig::round_robin(2, 0);
        Membership::with_hysteresis(&config, 1, 1, 9, 8);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn window_longer_than_history_rejected() {
        let config = BusConfig::round_robin(2, 0);
        Membership::with_hysteresis(&config, 1, 1, 2, 65);
    }

    #[test]
    fn clique_threshold_is_strict_majority() {
        assert_eq!(clique_majority_threshold(3), 2);
        assert_eq!(clique_majority_threshold(4), 3);
        assert_eq!(clique_majority_threshold(6), 4);
        assert_eq!(clique_majority_threshold(7), 4);
    }

    #[test]
    fn clique_check_counts_senders_against_all_slot_owners() {
        let (mut bus, membership) = setup(2, 2);
        // 3 slot owners → threshold 2. One sender is a minority clique.
        bus.start_cycle();
        bus.transmit_static(NodeId(0), vec![1]).unwrap();
        let delivery = bus.finish_cycle();
        assert_eq!(
            membership.clique_check(&delivery),
            CliqueVerdict::Minority {
                heard: 1,
                threshold: 2
            }
        );
        // Two senders reach the majority threshold.
        bus.start_cycle();
        bus.transmit_static(NodeId(0), vec![1]).unwrap();
        bus.transmit_static(NodeId(2), vec![1]).unwrap();
        let delivery = bus.finish_cycle();
        assert_eq!(
            membership.clique_check(&delivery),
            CliqueVerdict::Majority {
                heard: 2,
                threshold: 2
            }
        );
    }

    #[test]
    fn clique_check_ignores_own_membership_view() {
        let (mut bus, mut membership) = setup(1, 1);
        // Exclude node 2 from the local view…
        cycle(&mut bus, &mut membership, &[0, 1]);
        assert!(!membership.is_member(NodeId(2)));
        // …but the clique count still spans all 3 slot owners: hearing
        // the two *other* nodes while silent ourselves is a majority.
        bus.start_cycle();
        bus.transmit_static(NodeId(1), vec![1]).unwrap();
        bus.transmit_static(NodeId(2), vec![1]).unwrap();
        let delivery = bus.finish_cycle();
        assert_eq!(
            membership.clique_check(&delivery),
            CliqueVerdict::Majority {
                heard: 2,
                threshold: 2
            }
        );
    }
}
