//! A hierarchical timing wheel: the event queue behind [`crate::Simulation`].
//!
//! The engine's workload is almost entirely near-future timers and frame
//! arrivals — nanoseconds to microseconds ahead of the clock — which a
//! binary heap serves with O(log n) compares *and* O(log n) moves of a
//! fat event payload per operation. The wheel replaces that with O(1)
//! routing on push and an amortized O(1) bitmap scan on pop, and it
//! writes a payload exactly once: into a slab entry that stays put until
//! the pop that returns it.
//!
//! # Structure
//!
//! Three direct-mapped levels of 4096 slots each, plus an overflow heap:
//!
//! | level | slot width | covers (from the current instant's block)   |
//! |-------|-----------|----------------------------------------------|
//! | 0     | 1 ns      | the 4096 ns block containing the horizon     |
//! | 1     | 4096 ns   | the ~16.8 ms block containing the horizon    |
//! | 2     | ~16.8 µs  | the ~68.7 s block containing the horizon     |
//! | heap  | —         | everything beyond                            |
//!
//! An item at `t` goes to level 0 if `t >> 12` equals the horizon's
//! block, level 1 if `t >> 24` matches, level 2 if `t >> 36` matches,
//! and the overflow heap otherwise. Because every item satisfies
//! `t >= horizon`, direct mapping within a matching block is unambiguous
//! — there is no ring wraparound to disambiguate. When level 0 drains,
//! the next occupied level-1 slot is promoted (its items redistributed
//! into level 0), and so on up; promotions happen only inside a
//! committed pop, so peeking never reshapes the wheel.
//!
//! Every item lives in one slab (`Vec<Entry<T>>`, LIFO free list: the
//! few hundred events in flight keep reusing the same few KiB). A slot
//! is a `head`/`tail` pair of slab indices and its items are chained
//! through `Entry::next`; the overflow heap orders `(at, seq, index)`
//! triples. Moving an item between tiers relinks an index.
//!
//! # Determinism
//!
//! Items are totally ordered by `(at, seq)` and pops return exactly that
//! order. A level-0 slot is 1 ns wide, so everything in it shares one
//! timestamp; its chain is kept in ascending `seq` order, which makes a
//! pop "unlink the head". The simulator numbers events monotonically, so
//! an insert is an O(1) tail append unless a scheduler re-queues an
//! event below its slot-mates, which walks the chain. Level-1/2 slots
//! hold mixed timestamps and are never popped from directly, so they
//! stay unsorted (append only — sorting them makes a burst quadratic)
//! and are min-scanned only by `peek` and the promotion deadline check.
//! Occupancy bitmaps (64 words per level) make "next occupied slot" a
//! handful of word scans, started from a cached hint that only moves
//! forward within a block.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

const LEVEL_BITS: u32 = 12;
const SLOTS: usize = 1 << LEVEL_BITS;
const SLOT_MASK: u64 = (SLOTS as u64) - 1;
const WORDS: usize = SLOTS / 64;
/// The null slab index: end of a chain, empty slot, empty free list.
const NIL: u32 = u32::MAX;

/// Shift that maps a timestamp to its block id at `level`.
const fn block_shift(level: u32) -> u32 {
    LEVEL_BITS * (level + 1)
}

/// One slab cell. `item` is `Some` from push to pop; a free cell keeps
/// its place in the free list through `next`.
struct Entry<T> {
    at: u64,
    seq: u64,
    next: u32,
    item: Option<T>,
}

/// The chain of slab indices parked in one slot (`tail` is meaningful
/// only while `head` is not `NIL`).
#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

const EMPTY: Slot = Slot {
    head: NIL,
    tail: NIL,
};

/// One wheel level: 4096 slot chains plus an occupancy bitmap.
struct Level {
    slots: Vec<Slot>,
    occupied: [u64; WORDS],
}

impl Level {
    fn new() -> Self {
        Level {
            slots: vec![EMPTY; SLOTS],
            occupied: [0; WORDS],
        }
    }

    /// Index of the first occupied slot at or after `from_word * 64`.
    #[inline]
    fn first_occupied(&self, from_word: usize) -> Option<usize> {
        for (w, &bits) in self.occupied.iter().enumerate().skip(from_word) {
            if bits != 0 {
                return Some((w << 6) | bits.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Links `idx` at the end of `slot`'s chain.
    #[inline]
    fn append<T>(&mut self, slab: &mut [Entry<T>], slot: usize, idx: u32) {
        slab[idx as usize].next = NIL;
        let s = &mut self.slots[slot];
        if s.head == NIL {
            s.head = idx;
            self.occupied[slot >> 6] |= 1 << (slot & 63);
        } else {
            slab[s.tail as usize].next = idx;
        }
        s.tail = idx;
    }

    /// Links `idx` into `slot`'s chain keeping it in ascending `seq`
    /// order (after any equal `seq`). The simulator's monotone numbering
    /// always takes the tail-append branch; only an out-of-order re-queue
    /// walks the chain.
    #[inline]
    fn insert_by_seq<T>(&mut self, slab: &mut [Entry<T>], slot: usize, idx: u32, seq: u64) {
        let Slot { head, tail } = self.slots[slot];
        if head == NIL || slab[tail as usize].seq <= seq {
            return self.append(slab, slot, idx);
        }
        // The tail's seq is larger, so the walk stops before the end.
        let (mut prev, mut cur) = (NIL, head);
        while slab[cur as usize].seq <= seq {
            (prev, cur) = (cur, slab[cur as usize].next);
        }
        slab[idx as usize].next = cur;
        if prev == NIL {
            self.slots[slot].head = idx;
        } else {
            slab[prev as usize].next = idx;
        }
    }

    /// Empties `slot`, returning the head of the chain it held.
    fn take(&mut self, slot: usize) -> u32 {
        self.occupied[slot >> 6] &= !(1 << (slot & 63));
        std::mem::replace(&mut self.slots[slot].head, NIL)
    }
}

/// A hierarchical timing wheel holding items of type `T`, totally ordered
/// by `(at, seq)`.
///
/// # Contract
///
/// * `push(at, seq, item)` requires `at >=` the `at` of the most recent
///   `pop` (time never runs backwards); `seq` values need not be unique
///   or ordered, but `(at, seq)` pairs must be unique for the pop order
///   to be a total order.
/// * `pop` returns items in strictly ascending `(at, seq)` order.
pub struct TimingWheel<T> {
    slab: Vec<Entry<T>>,
    /// Head of the LIFO chain of free slab cells.
    free: u32,
    levels: [Level; 3],
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// `at` of the most recent pop: the floor below which nothing can be
    /// scheduled any more.
    horizon: u64,
    /// `horizon >> 12/24/36` — the block each level currently covers.
    /// Only transiently out of sync inside a committed pop.
    bases: [u64; 3],
    /// First possibly-occupied level-0 bitmap word; monotone within a
    /// block, reset on promotion.
    hint0: usize,
    len: usize,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimingWheel<T> {
    /// An empty wheel with its horizon at time zero.
    pub fn new() -> Self {
        TimingWheel {
            slab: Vec::new(),
            free: NIL,
            levels: [Level::new(), Level::new(), Level::new()],
            overflow: BinaryHeap::new(),
            horizon: 0,
            bases: [0; 3],
            hint0: 0,
            len: 0,
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues `item` at `(at, seq)`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `at` lies before the horizon (an item
    /// scheduled in the past can never be popped in order).
    #[inline]
    pub fn push(&mut self, at: u64, seq: u64, item: T) {
        debug_assert!(
            at >= self.horizon,
            "push at {at} before horizon {}",
            self.horizon
        );
        self.len += 1;
        let entry = Entry {
            at,
            seq,
            next: NIL,
            item: Some(item),
        };
        let idx = match self.free {
            NIL => {
                assert!(self.slab.len() < NIL as usize, "slab indices are u32");
                self.slab.push(entry);
                (self.slab.len() - 1) as u32
            }
            idx => {
                self.free = std::mem::replace(&mut self.slab[idx as usize], entry).next;
                idx
            }
        };
        self.route(at, seq, idx);
    }

    /// Links slab cell `idx`, due at `(at, seq)`, into the tier that
    /// currently covers `at`.
    #[inline]
    fn route(&mut self, at: u64, seq: u64, idx: u32) {
        let slab = &mut self.slab[..];
        if at >> block_shift(0) == self.bases[0] {
            self.levels[0].insert_by_seq(slab, (at & SLOT_MASK) as usize, idx, seq);
        } else if at >> block_shift(1) == self.bases[1] {
            self.levels[1].append(slab, ((at >> LEVEL_BITS) & SLOT_MASK) as usize, idx);
        } else if at >> block_shift(2) == self.bases[2] {
            let slot = ((at >> (2 * LEVEL_BITS)) & SLOT_MASK) as usize;
            self.levels[2].append(slab, slot, idx);
        } else {
            self.overflow.push(Reverse((at, seq, idx)));
        }
    }

    /// The entries chained from slab cell `head`, in chain order.
    fn chain(&self, head: u32) -> impl Iterator<Item = &Entry<T>> {
        let cell = |idx: u32| (idx != NIL).then(|| &self.slab[idx as usize]);
        std::iter::successors(cell(head), move |e| cell(e.next))
    }

    /// The `(at, seq)`-minimal entry of an occupied level-1/2 slot.
    fn min_of(&self, level: usize, slot: usize) -> (u64, u64) {
        self.chain(self.levels[level].slots[slot].head)
            .map(|e| (e.at, e.seq))
            .min()
            .expect("occupied slot")
    }

    /// The `(at, seq)` of the next item to pop, without popping it.
    ///
    /// Any level-0 item precedes any level-1 item, and so on (each level
    /// covers a strictly earlier time range than the next), so the first
    /// occupied tier decides.
    pub fn peek(&self) -> Option<(u64, u64)> {
        if let Some(slot) = self.levels[0].first_occupied(self.hint0) {
            let e = &self.slab[self.levels[0].slots[slot].head as usize];
            return Some((e.at, e.seq));
        }
        for level in 1..3 {
            if let Some(slot) = self.levels[level].first_occupied(0) {
                return Some(self.min_of(level, slot));
            }
        }
        self.overflow.peek().map(|&Reverse((at, seq, _))| (at, seq))
    }

    /// Pops the `(at, seq)`-minimal item.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        self.pop_if(u64::MAX)
    }

    /// Pops the minimal item only if its `at` is `<= deadline`; leaves
    /// the wheel untouched otherwise. The level-0 fast path decides from
    /// the slot index alone — a 1 ns slot's timestamp is its address —
    /// so declining is as cheap as a bitmap scan.
    pub fn pop_if(&mut self, deadline: u64) -> Option<(u64, u64, T)> {
        loop {
            if let Some(slot) = self.levels[0].first_occupied(self.hint0) {
                let at = (self.bases[0] << LEVEL_BITS) | slot as u64;
                if at > deadline {
                    return None;
                }
                self.hint0 = slot >> 6;
                // Unlink the head of the seq-ordered chain and hand its
                // cell to the free list.
                let idx = self.levels[0].slots[slot].head;
                let e = &mut self.slab[idx as usize];
                let next = std::mem::replace(&mut e.next, self.free);
                let (seq, item) = (e.seq, e.item.take().expect("queued entry"));
                self.free = idx;
                if next == NIL {
                    self.levels[0].take(slot);
                } else {
                    self.levels[0].slots[slot].head = next;
                }
                self.horizon = at;
                self.len -= 1;
                return Some((at, seq, item));
            }
            // Level 0 drained: promote the earliest occupied level-1
            // slot — but only once we know its earliest item is due, so
            // a declined pop never moves the wheel past times that can
            // still be scheduled.
            let upper = (1..3).find_map(|l| Some((l, self.levels[l].first_occupied(0)?)));
            if let Some((level, slot)) = upper {
                if self.min_of(level, slot).0 > deadline {
                    return None;
                }
                self.promote(level, slot);
                continue;
            }
            let &Reverse((earliest, _, _)) = self.overflow.peek()?;
            if earliest > deadline {
                return None;
            }
            self.migrate_overflow(earliest);
        }
    }

    /// Relinks every item of `levels[level]`'s `slot` one level down,
    /// advancing that lower level's block to the slot's time range.
    fn promote(&mut self, level: usize, slot: usize) {
        self.bases[level - 1] = (self.bases[level] << LEVEL_BITS) | slot as u64;
        if level == 1 {
            self.hint0 = 0;
        }
        let mut idx = self.levels[level].take(slot);
        while idx != NIL {
            let e = &self.slab[idx as usize];
            let (at, seq, next) = (e.at, e.seq, e.next);
            self.route(at, seq, idx);
            idx = next;
        }
    }

    /// Re-centres every level on `earliest`'s blocks and pulls the whole
    /// overflow block containing `earliest` into the wheel.
    fn migrate_overflow(&mut self, earliest: u64) {
        self.bases = [
            earliest >> block_shift(0),
            earliest >> block_shift(1),
            earliest >> block_shift(2),
        ];
        self.hint0 = 0;
        while let Some(&Reverse((at, seq, idx))) = self.overflow.peek() {
            if at >> block_shift(2) != self.bases[2] {
                break;
            }
            self.overflow.pop();
            self.route(at, seq, idx);
        }
    }

    /// Calls `f` with every queued item due at exactly the head
    /// timestamp (the co-enabled set), in unspecified order. O(slot),
    /// not O(queue): all same-instant items share one slot of whichever
    /// tier currently holds the head.
    pub fn for_each_at_head(&self, mut f: impl FnMut(u64, u64, &T)) {
        let Some((head_at, _)) = self.peek() else {
            return;
        };
        // Everything in a level-0 slot is at the head instant; the wider
        // tiers hold mixed timestamps.
        let mut visit = |e: &Entry<T>| {
            if e.at == head_at {
                f(e.at, e.seq, e.item.as_ref().expect("queued entry"));
            }
        };
        for (level, from_word) in self.levels.iter().zip([self.hint0, 0, 0]) {
            if let Some(slot) = level.first_occupied(from_word) {
                return self.chain(level.slots[slot].head).for_each(visit);
            }
        }
        for &Reverse((_, _, idx)) in self.overflow.iter() {
            visit(&self.slab[idx as usize]);
        }
    }
}

impl<T> std::fmt::Debug for TimingWheel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingWheel")
            .field("len", &self.len)
            .field("horizon", &self.horizon)
            .field("bases", &self.bases)
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(wheel: &mut TimingWheel<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = wheel.pop() {
            out.push(e);
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimingWheel::new();
        w.push(50, 3, 0);
        w.push(10, 1, 1);
        w.push(50, 2, 2);
        w.push(10, 0, 3);
        let order: Vec<(u64, u64)> = drain(&mut w).iter().map(|&(a, s, _)| (a, s)).collect();
        assert_eq!(order, vec![(10, 0), (10, 1), (50, 2), (50, 3)]);
    }

    #[test]
    fn crosses_every_level_boundary() {
        let mut w = TimingWheel::new();
        // One item per tier: level 0, 1, 2 and the overflow heap.
        let times = [5u64, 1 << 13, 1 << 25, 1 << 37, 1 << 60];
        for (i, &t) in times.iter().enumerate() {
            w.push(t, i as u64, i as u32);
        }
        let popped: Vec<u64> = drain(&mut w).iter().map(|&(a, _, _)| a).collect();
        assert_eq!(popped, times);
    }

    #[test]
    fn pop_if_respects_deadline_without_reshaping() {
        let mut w = TimingWheel::new();
        w.push(1 << 20, 0, 7);
        assert!(w.pop_if(100).is_none());
        // The declined pop must not have promoted anything: an earlier
        // push is still delivered first.
        w.push(500, 1, 8);
        assert_eq!(w.pop(), Some((500, 1, 8)));
        assert_eq!(w.pop(), Some((1 << 20, 0, 7)));
    }

    #[test]
    fn same_instant_burst_pops_in_seq_order() {
        let mut w = TimingWheel::new();
        for seq in (0..32u64).rev() {
            w.push(77, seq, seq as u32);
        }
        let seqs: Vec<u64> = drain(&mut w).iter().map(|&(_, s, _)| s).collect();
        assert_eq!(seqs, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn head_iteration_sees_only_the_head_instant() {
        let mut w = TimingWheel::new();
        w.push(10, 0, 1);
        w.push(10, 1, 2);
        w.push(11, 2, 3);
        let mut seen = Vec::new();
        w.for_each_at_head(|at, seq, &v| seen.push((at, seq, v)));
        seen.sort_unstable();
        assert_eq!(seen, vec![(10, 0, 1), (10, 1, 2)]);
    }

    #[test]
    fn slab_stays_at_the_in_flight_high_water_mark() {
        const IN_FLIGHT: usize = 8;
        let mut w = TimingWheel::new();
        let mut now = 0u64;
        for seq in 0..1_000_000u64 {
            // Same slot, level 0, level 1 and level 2 in turn.
            let delta = [0, 700, 70_000, 20_000_000][seq as usize % 4];
            w.push(now + delta, seq, seq);
            if w.len() == IN_FLIGHT {
                now = w.pop().expect("non-empty").0;
            }
        }
        // Freed cells are reused LIFO: a million cycles allocate no more
        // than the most that were ever queued at once.
        assert!(
            w.slab.len() <= IN_FLIGHT + 1,
            "slab grew to {}",
            w.slab.len()
        );
    }

    #[test]
    fn len_tracks_across_migrations() {
        let mut w = TimingWheel::new();
        for i in 0..100u64 {
            w.push(i * (1 << 30), i, i as u32);
        }
        assert_eq!(w.len(), 100);
        assert_eq!(drain(&mut w).len(), 100);
        assert!(w.is_empty());
    }
}
