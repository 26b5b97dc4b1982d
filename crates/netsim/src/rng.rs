//! The simulator's one source of randomness.
//!
//! Every seeded draw in the workspace comes from here: the link fault
//! layer's generator ([`Rng`]), the harness's splitmix64 streams (chaos
//! schedules, random walks, Zipf keys), the consistent-hash finalizer
//! ([`mix64`]) and the LCG that RDMA hosts and the P4CE switch draw
//! keys and start PSNs from ([`lcg_step`]). Each caller keeps its own
//! state and seed; only the algorithms live here, written once, so the
//! same seed gives the same bits everywhere.

/// The splitmix64 finalizer: a bijective avalanche over 64 bits.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One step of the splitmix64 generator over `state`.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    mix64(*state)
}

/// A uniform float in `[0, 1)` from the top 53 bits of `bits`.
#[inline]
pub fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// One step of Knuth's MMIX linear congruential generator over `state`;
/// returns the new state.
#[inline]
pub fn lcg_step(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// The fault layer's generator: xoshiro256** seeded through
/// [`splitmix64`].
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator seeded from `seed`, deterministically.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// True with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            unit_f64(self.next_u64()) < p
        }
    }

    /// A uniform draw from `[range.start, range.end)`.
    ///
    /// # Panics
    /// Panics on an empty range.
    pub fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "gen_range on empty range");
        range.start + self.next_u64() % (range.end - range.start)
    }

    /// A uniform index in `[0, len)`.
    ///
    /// # Panics
    /// Panics when `len` is zero.
    pub fn gen_index(&mut self, len: usize) -> usize {
        assert!(len > 0, "gen_index on empty collection");
        (self.next_u64() % len as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pinned literals: a drift in any algorithm moves every seeded
    /// fault storm, random walk and key draw, so it fails here first.
    #[test]
    fn draws_match_the_recorded_bits() {
        let mut r = Rng::new(42);
        let raw: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            raw,
            [
                1546998764402558742,
                6990951692964543102,
                12544586762248559009,
                17057574109182124193
            ]
        );
        assert_eq!(r.gen_range(0..1000), 476);
        assert_eq!(r.gen_index(7), 1);
        let coins: Vec<bool> = (0..4).map(|_| r.gen_bool(0.3)).collect();
        assert_eq!(coins, [false; 4]);

        let mut s = 7;
        assert_eq!(splitmix64(&mut s), 7191089600892374487);
        assert_eq!(splitmix64(&mut s), 309689372594955804);
        assert_eq!(s, 4354685564936845361);
        let mut s = 7;
        assert_eq!(unit_f64(splitmix64(&mut s)), 0.3898297483912715);
        assert_eq!(mix64(0x1234), 13522905731073897270);

        let mut s = 1;
        assert_eq!(lcg_step(&mut s), 7806831264735756412);
        assert_eq!(s, 7806831264735756412);
    }

    #[test]
    fn draws_respect_bounds() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            assert!((10..20).contains(&r.gen_range(10..20)));
            assert!((0.0..1.0).contains(&unit_f64(r.next_u64())));
            assert!(r.gen_index(3) < 3);
        }
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }
}
