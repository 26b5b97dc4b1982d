//! Differential property test of the timing wheel: a shadow binary
//! heap — the reference implementation the wheel replaced in
//! `Simulation` — runs in lockstep with a [`TimingWheel`] over
//! randomized schedules, and every pop must agree exactly on
//! `(time, seq, payload)`. The schedules interleave pushes and pops and
//! draw deltas from every tier of the wheel: same-instant bursts,
//! level-0/1/2 horizons, and far-future times that land in the overflow
//! heap. Further generators aim at the slot chains themselves: the
//! scheduler's out-of-order re-queue into the head slot, a crowded
//! level-1 slot promoting into instants that then take direct inserts,
//! and head iteration from every tier.

use netsim::TimingWheel;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A delta drawn so each wheel tier (and the overflow heap) gets hit:
/// 1 ns slots, the level-0 block, level 1 (~16.8 ms), level 2 (~68.7 s),
/// and beyond.
fn tiered_delta() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..16,                // same-instant / same-slot bursts
        0u64..(1 << 12),         // level 0
        (1u64 << 12)..(1 << 24), // level 1
        (1u64 << 24)..(1 << 36), // level 2
        (1u64 << 36)..(1 << 50), // overflow heap
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Push/pop interleavings: after each step and at the final drain,
    /// wheel and heap agree on every popped `(at, seq, item)`.
    #[test]
    fn wheel_matches_shadow_heap(
        steps in prop::collection::vec((tiered_delta(), 0usize..3), 1..120),
    ) {
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
        let mut now = 0u64; // `at` of the most recent pop

        for (seq, &(delta, pops)) in steps.iter().enumerate() {
            let seq = seq as u64;
            let at = now.saturating_add(delta);
            wheel.push(at, seq, seq);
            heap.push(Reverse((at, seq, seq)));
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(
                wheel.peek(),
                heap.peek().map(|&Reverse((a, s, _))| (a, s))
            );
            for _ in 0..pops {
                let got = wheel.pop();
                let want = heap.pop().map(|Reverse(e)| e);
                prop_assert_eq!(got, want, "divergence mid-schedule");
                if let Some((at, _, _)) = got {
                    now = at;
                }
            }
        }
        while let Some(Reverse(want)) = heap.pop() {
            prop_assert_eq!(wheel.pop(), Some(want), "divergence during drain");
        }
        prop_assert!(wheel.is_empty());
        prop_assert_eq!(wheel.pop(), None);
    }

    /// Same-timestamp bursts with shuffled seq values: pops come back in
    /// ascending seq order no matter the insertion order, matching the
    /// heap exactly.
    #[test]
    fn same_instant_bursts_agree(
        at in 0u64..(1 << 40),
        mut seqs in prop::collection::vec(0u64..10_000, 1..64),
    ) {
        seqs.sort_unstable();
        seqs.dedup();
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
        // Insert in reversed (worst-case) order.
        for &s in seqs.iter().rev() {
            wheel.push(at, s, s);
            heap.push(Reverse((at, s, s)));
        }
        while let Some(Reverse(want)) = heap.pop() {
            prop_assert_eq!(wheel.pop(), Some(want));
        }
        prop_assert!(wheel.is_empty());
    }

    /// `pop_if` against the heap: a deadline between the queued times
    /// yields exactly the due prefix, and a declined pop never perturbs
    /// the order of what remains.
    #[test]
    fn pop_if_yields_exactly_the_due_prefix(
        deltas in prop::collection::vec(tiered_delta(), 1..80),
        cut in 0usize..80,
    ) {
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let mut entries = Vec::new();
        let mut t = 0u64;
        for (i, &d) in deltas.iter().enumerate() {
            t = t.saturating_add(d);
            wheel.push(t, i as u64, i as u64);
            entries.push((t, i as u64, i as u64));
        }
        entries.sort_unstable();
        let cut = cut.min(entries.len().saturating_sub(1));
        let deadline = entries[cut].0;
        let due: Vec<_> = entries.iter().copied().filter(|&(at, _, _)| at <= deadline).collect();
        let mut popped = Vec::new();
        while let Some(e) = wheel.pop_if(deadline) {
            popped.push(e);
        }
        prop_assert_eq!(popped, due, "due prefix mismatch at deadline {}", deadline);
        // The declined remainder still drains in exact heap order.
        let rest: Vec<_> = entries.into_iter().filter(|&(at, _, _)| at > deadline).collect();
        for want in rest {
            prop_assert_eq!(wheel.pop(), Some(want));
        }
        prop_assert!(wheel.is_empty());
    }

    /// The scheduler's re-queue (`Simulation::pop_next`): events popped
    /// from the head instant come back at `(head_at, seq)` with `seq`
    /// below whatever stayed in — or has since joined — the head slot.
    #[test]
    fn requeue_below_head_slot_residents_agrees(
        steps in prop::collection::vec(
            (prop_oneof![Just(0u64), 0u64..4, tiered_delta()], 0usize..5, any::<bool>(), 0usize..3),
            1..120,
        ),
    ) {
        let mut pair = Lockstep::default();
        let mut now = 0u64;
        for (seq, &(delta, requeue, newest_first, pops)) in steps.iter().enumerate() {
            pair.push(now.saturating_add(delta), seq as u64);
            // Pull up to `requeue` events off the head instant ...
            let head_at = pair.heap.peek().map(|&Reverse(e)| e.0);
            let mut batch = Vec::new();
            while batch.len() < requeue && pair.wheel.peek().map(|(at, _)| at) == head_at {
                batch.extend(pair.pop());
            }
            if let Some(&(at, _, _)) = batch.first() {
                now = at;
                // ... a same-instant newcomer takes the slot's tail ...
                pair.push(now, (steps.len() + seq) as u64);
            }
            // ... and they return below it: newest first (every insert at
            // the chain's head) or second-oldest first (inserts mid-chain).
            if newest_first {
                batch.reverse();
            } else if !batch.is_empty() {
                batch.rotate_left(1);
            }
            for (at, seq, _) in batch {
                pair.push(at, seq);
            }
            pair.check_head();
            for _ in 0..pops {
                if let Some((at, _, _)) = pair.pop() {
                    now = at;
                }
            }
        }
        pair.drain();
    }

    /// A burst parked in one level-1 slot (64+ items, mixed timestamps,
    /// seqs in no particular order) is promoted by the first pop; direct
    /// level-0 inserts then land on instants the promotion also filled,
    /// with seqs both below and above the promoted residents.
    #[test]
    fn crowded_level1_slot_promotes_under_direct_inserts(
        slot in 1u64..4096,
        offsets in prop::collection::vec(prop_oneof![0u64..4096, 0u64..8], 64..200),
        pops_before in 1usize..32,
        inserts in prop::collection::vec((any::<prop::sample::Index>(), any::<bool>()), 1..64),
    ) {
        let mut pair = Lockstep::default();
        let base = slot << 12;
        for (i, &off) in offsets.iter().enumerate() {
            // 7919 is coprime to 1024 > len: distinct, scrambled, odd seqs.
            pair.push(base + off, (i as u64 * 7919 % 1024) * 2 + 1 + 4096);
        }
        pair.check_head();
        let mut now = 0;
        for _ in 0..pops_before {
            now = pair.pop().expect("64+ parked").0;
        }
        let pending: Vec<u64> = offsets.iter().map(|off| base + off).filter(|&at| at >= now).collect();
        for (j, (pick, low)) in inserts.iter().enumerate() {
            let at = pending.get(pick.index(pending.len().max(1))).copied().unwrap_or(now);
            let seq = 2 * j as u64 + if *low { 0 } else { 1 << 20 };
            pair.push(at, seq);
            pair.check_head();
        }
        pair.drain();
    }

    /// `for_each_at_head` (and `peek`) when nothing is in level 0: the
    /// head sits in a level-1 slot, a level-2 slot or the overflow heap,
    /// among neighbours a few nanoseconds later.
    #[test]
    fn head_iteration_agrees_in_every_tier(
        tier in 1u32..4,
        offsets in prop::collection::vec(0u64..6, 1..40),
    ) {
        let mut pair = Lockstep::default();
        for (seq, &off) in offsets.iter().enumerate() {
            pair.push((1u64 << (12 * tier)) + off, seq as u64);
        }
        pair.check_head();
        // Still true after pops have walked the head down through the tiers.
        while pair.pop().is_some() {
            pair.check_head();
        }
    }
}

type Heap = BinaryHeap<Reverse<(u64, u64, u64)>>;

/// A wheel and its shadow heap, fed the same operations.
#[derive(Default)]
struct Lockstep {
    wheel: TimingWheel<u64>,
    heap: Heap,
}

impl Lockstep {
    fn push(&mut self, at: u64, seq: u64) {
        self.wheel.push(at, seq, seq);
        self.heap.push(Reverse((at, seq, seq)));
    }

    /// Pops both sides, asserting they agree.
    fn pop(&mut self) -> Option<(u64, u64, u64)> {
        let got = self.wheel.pop();
        assert_eq!(got, self.heap.pop().map(|Reverse(e)| e), "pop diverged");
        got
    }

    /// Asserts that peek and the co-enabled set agree with the heap.
    fn check_head(&self) {
        let head = self.heap.peek().map(|&Reverse((at, seq, _))| (at, seq));
        assert_eq!(self.wheel.peek(), head, "peek diverged");
        let mut got = Vec::new();
        self.wheel
            .for_each_at_head(|at, seq, &item| got.push((at, seq, item)));
        got.sort_unstable();
        let mut want: Vec<_> = self
            .heap
            .iter()
            .map(|&Reverse(e)| e)
            .filter(|e| Some(e.0) == head.map(|h| h.0))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want, "co-enabled set diverged");
    }

    fn drain(&mut self) {
        while self.pop().is_some() {}
        assert!(self.wheel.is_empty());
    }
}
