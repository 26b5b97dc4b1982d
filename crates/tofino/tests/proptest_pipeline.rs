//! Property-based tests of the switch model's stateful pieces.

use netsim::{Cpu, SimDuration, SimTime};
use proptest::prelude::*;
use tofino::{alu_min, McastMember, MulticastGroupId, MulticastGroups, RegisterArray};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The hardware min idiom (subtract-underflow through identity hash)
    /// computes exactly `min` — of any two words, the extremes included,
    /// and folded over any sequence of candidates.
    #[test]
    fn min_update_equals_min_fold(
        initial in any::<u32>(),
        candidates in prop::collection::vec(any::<u32>(), 0..50),
    ) {
        for a in [0, 1, initial, u32::MAX - 1, u32::MAX] {
            for &b in [0, 1, u32::MAX - 1, u32::MAX].iter().chain(&candidates) {
                prop_assert_eq!(alu_min(a, b), a.min(b));
                prop_assert_eq!(alu_min(b, a), a.min(b));
            }
        }
        let mut reg = RegisterArray::new("m", 4);
        reg.write(0, initial);
        let mut expected = initial;
        for c in candidates {
            let got = reg.min_update(0, c);
            expected = expected.min(c);
            prop_assert_eq!(got, expected);
        }
        prop_assert_eq!(reg.read(0), expected);
    }

    /// Increments count exactly, per (wrapped) slot — the NumRecv
    /// guarantee the gather logic relies on.
    #[test]
    fn increments_count_per_slot(
        len_pow in 1u32..8,
        hits in prop::collection::vec(any::<usize>(), 0..200),
    ) {
        let len = 1usize << len_pow;
        let mut reg = RegisterArray::new("numrecv", len);
        let mut model = vec![0u32; len];
        for h in hits {
            let got = reg.increment(h);
            let slot = h % len;
            model[slot] = model[slot].wrapping_add(1);
            prop_assert_eq!(got, model[slot]);
        }
        for (i, &v) in model.iter().enumerate() {
            prop_assert_eq!(reg.read(i), v);
        }
    }

    /// Reset-then-count: writing 0 (the scatter path) always makes the
    /// f-th subsequent increment observable exactly once.
    #[test]
    fn scatter_reset_then_gather_counts(
        f in 1u32..8,
        extra in 0u32..8,
        slot in any::<usize>(),
    ) {
        let mut reg = RegisterArray::new("numrecv", 256);
        // Stale state from a previous PSN epoch:
        reg.write(slot, 99);
        // Scatter resets…
        reg.write(slot, 0);
        // …then ACKs arrive. Exactly one of them observes `== f`.
        let mut fired = 0;
        for _ in 0..(f + extra) {
            if reg.increment(slot) == f {
                fired += 1;
            }
        }
        prop_assert_eq!(fired, 1);
    }

    /// Multicast groups: set/replace/remove behave like a map.
    #[test]
    fn mcast_group_table_is_a_map(
        ops in prop::collection::vec((0u16..16, 1usize..5, any::<bool>()), 1..50),
    ) {
        let mut groups = MulticastGroups::new();
        let mut model: std::collections::BTreeMap<u16, usize> = Default::default();
        for (gid, members, remove) in ops {
            if remove {
                groups.remove_group(MulticastGroupId(gid));
                model.remove(&gid);
            } else {
                let m: Vec<McastMember> = (0..members)
                    .map(|i| McastMember {
                        port: netsim::PortId::from_index(i as u32),
                        rid: i as u16,
                    })
                    .collect();
                groups.set_group(MulticastGroupId(gid), m);
                model.insert(gid, members);
            }
        }
        prop_assert_eq!(groups.len(), model.len());
        for (&gid, &n) in &model {
            prop_assert_eq!(
                groups.members(MulticastGroupId(gid)).map(|s| s.len()),
                Some(n)
            );
        }
    }

    /// The CPU model: completion times are non-decreasing and total busy
    /// time is the sum of costs.
    #[test]
    fn cpu_serializes_work(
        jobs in prop::collection::vec((0u64..10_000, 1u64..5_000), 1..100),
    ) {
        let mut cpu = Cpu::new();
        let mut last_done = SimTime::ZERO;
        let mut total = 0u64;
        let mut now = SimTime::ZERO;
        for (gap, cost) in jobs {
            now += SimDuration::from_nanos(gap);
            let done = cpu.run(now, SimDuration::from_nanos(cost));
            prop_assert!(done >= last_done, "completions are ordered");
            prop_assert!(done >= now + SimDuration::from_nanos(cost));
            last_done = done;
            total += cost;
        }
        prop_assert_eq!(cpu.busy_time().as_nanos(), total);
        prop_assert_eq!(cpu.busy_until(), last_done);
    }
}
