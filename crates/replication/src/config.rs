//! Cluster membership and quorum arithmetic.

use std::fmt;
use std::net::Ipv4Addr;

/// A member's identifier. The paper's rule (§III): *the leader is always
/// the live machine with the lowest identifier*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemberId(pub u8);

impl fmt::Display for MemberId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// The default log ring: 4 MiB. A replica's reader position reaches the
/// leader in its heartbeat word, so the leader writes for up to two
/// heartbeat periods on a stale one — 2.5 MB at 100 Gb/s — before the
/// ring stops it; rounded up to a power of two.
pub const DEFAULT_LOG_SIZE: usize = 4 << 20;

/// Static description of a replication cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// All members, as (id, address); must be sorted by id and contain no
    /// duplicates.
    pub members: Vec<(MemberId, Ipv4Addr)>,
    /// Log region size per member: the ring the leader recycles.
    pub log_size: usize,
}

impl ClusterConfig {
    /// A cluster over `addrs` (ids assigned in order) with
    /// [`DEFAULT_LOG_SIZE`] logs.
    ///
    /// # Panics
    ///
    /// Panics on fewer than 2 members or more than 127.
    pub fn new(addrs: &[Ipv4Addr]) -> Self {
        assert!(addrs.len() >= 2, "a cluster needs at least two members");
        assert!(addrs.len() <= 127, "member ids are 7-bit");
        ClusterConfig {
            members: addrs
                .iter()
                .enumerate()
                .map(|(i, &ip)| (MemberId(i as u8), ip))
                .collect(),
            log_size: DEFAULT_LOG_SIZE,
        }
    }

    /// Number of members (replicas + leader).
    pub fn n(&self) -> usize {
        self.members.len()
    }

    /// The quorum parameter `f`: positive acknowledgements the leader
    /// needs from replicas so that, counting itself, strictly more than
    /// half of the members store the value (§IV-A: "the f replicas + the
    /// leader").
    pub fn f(&self) -> usize {
        self.n() / 2
    }

    /// The address of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a member.
    pub fn addr_of(&self, id: MemberId) -> Ipv4Addr {
        self.members
            .iter()
            .find(|(m, _)| *m == id)
            .map(|&(_, ip)| ip)
            .unwrap_or_else(|| panic!("{id} is not a cluster member"))
    }

    /// All members except `me`.
    pub fn peers_of(&self, me: MemberId) -> Vec<(MemberId, Ipv4Addr)> {
        self.members
            .iter()
            .copied()
            .filter(|&(id, _)| id != me)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: u8) -> Vec<Ipv4Addr> {
        (0..n).map(|i| Ipv4Addr::new(10, 0, 0, i + 1)).collect()
    }

    #[test]
    fn quorum_matches_paper() {
        // 2 replicas + leader: f = 1; 4 replicas + leader: f = 2 (§V).
        assert_eq!(ClusterConfig::new(&addrs(3)).f(), 1);
        assert_eq!(ClusterConfig::new(&addrs(5)).f(), 2);
        assert_eq!(ClusterConfig::new(&addrs(2)).f(), 1);
        assert_eq!(ClusterConfig::new(&addrs(7)).f(), 3);
    }

    #[test]
    fn lookup_helpers() {
        let c = ClusterConfig::new(&addrs(3));
        assert_eq!(c.addr_of(MemberId(1)), Ipv4Addr::new(10, 0, 0, 2));
        let peers = c.peers_of(MemberId(0));
        assert_eq!(peers.len(), 2);
        assert!(peers.iter().all(|&(id, _)| id != MemberId(0)));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_cluster_rejected() {
        let _ = ClusterConfig::new(&addrs(1));
    }
}
