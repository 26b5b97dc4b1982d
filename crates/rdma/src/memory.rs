//! Registered memory regions and one-sided access checks.
//!
//! Each host owns a [`HostMemory`]: a set of registered regions, each with
//! a virtual address, a randomly generated `R_key`, and per-peer
//! permissions. The NIC consults it — without involving the host CPU — to
//! execute incoming one-sided operations, exactly the check that lets Mu
//! (and therefore P4CE) enforce "only the current leader can write to my
//! log" (§III).

use bytes::Bytes;
use netsim::rng::lcg_step;
use netsim::FxHashMap;
use std::error::Error;
use std::fmt;
use std::net::Ipv4Addr;

use std::collections::BTreeSet;

use crate::types::{Permissions, Qpn, RKey};

/// Handle to a registered region within one [`HostMemory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionHandle(usize);

/// Public identity of a region: what a peer needs to address it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionInfo {
    /// Base virtual address.
    pub va: u64,
    /// Length in bytes.
    pub len: u64,
    /// The remote key peers must present.
    pub rkey: RKey,
}

#[derive(Debug)]
struct Region {
    info: RegionInfo,
    default_perms: Permissions,
    peer_perms: FxHashMap<Ipv4Addr, Permissions>,
    /// When set, incoming writes must additionally arrive on one of these
    /// local queue pairs. This is how a replica fences out a deposed
    /// leader whose traffic still arrives from the (unchanged) switch
    /// address: the old group's queue pair is simply no longer listed.
    allowed_writer_qpns: Option<BTreeSet<u32>>,
    buf: Vec<u8>,
}

/// Why a one-sided operation was refused (the NIC answers these with a
/// `RemoteAccessError` NAK).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessError {
    /// No region matches the presented `R_key`.
    BadKey(RKey),
    /// The address range falls outside the region.
    OutOfBounds {
        /// Requested virtual address.
        va: u64,
        /// Requested length.
        len: u64,
    },
    /// The peer lacks the required permission.
    PermissionDenied {
        /// The requesting peer.
        peer: Ipv4Addr,
        /// `true` if the denied operation was a write.
        write: bool,
    },
    /// The write arrived on a queue pair that is not authorized for this
    /// region (stale leader fencing).
    WrongQueuePair(Qpn),
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessError::BadKey(k) => write!(f, "no region matches {k}"),
            AccessError::OutOfBounds { va, len } => {
                write!(f, "access [{va:#x}, +{len}) outside region bounds")
            }
            AccessError::PermissionDenied { peer, write } => write!(
                f,
                "peer {peer} lacks remote-{} permission",
                if *write { "write" } else { "read" }
            ),
            AccessError::WrongQueuePair(qpn) => {
                write!(f, "writes via {qpn} are not authorized for this region")
            }
        }
    }
}

impl Error for AccessError {}

/// The registered memory of one host.
#[derive(Debug)]
pub struct HostMemory {
    regions: Vec<Region>,
    by_rkey: FxHashMap<u32, usize>,
    next_va: u64,
    key_state: u64,
}

impl HostMemory {
    /// Creates an empty memory with a deterministic key-generation seed
    /// (distinct per host so keys differ across machines, as in the paper).
    pub fn new(seed: u64) -> Self {
        HostMemory {
            regions: Vec::new(),
            by_rkey: FxHashMap::default(),
            next_va: 0x0001_0000_0000,
            key_state: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
        }
    }

    fn next_rkey(&mut self) -> RKey {
        loop {
            let key = (lcg_step(&mut self.key_state) >> 32) as u32;
            if key != 0 && !self.by_rkey.contains_key(&key) {
                return RKey(key);
            }
        }
    }

    /// Registers a zero-initialized region of `len` bytes with default
    /// remote permissions `perms`, returning its handle.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn register(&mut self, len: usize, perms: Permissions) -> RegionHandle {
        assert!(len > 0, "cannot register an empty region");
        let rkey = self.next_rkey();
        let va = self.next_va;
        // Page-align the next region and leave a guard gap.
        self.next_va += ((len as u64 + 0xfff) & !0xfff) + 0x1000;
        let idx = self.regions.len();
        self.regions.push(Region {
            info: RegionInfo {
                va,
                len: len as u64,
                rkey,
            },
            default_perms: perms,
            peer_perms: FxHashMap::default(),
            allowed_writer_qpns: None,
            buf: vec![0; len],
        });
        self.by_rkey.insert(rkey.0, idx);
        RegionHandle(idx)
    }

    /// The public identity of a region.
    pub fn info(&self, handle: RegionHandle) -> RegionInfo {
        self.regions[handle.0].info
    }

    /// Grants `peer` specific permissions on the region, overriding the
    /// default. This is the operation a replica performs when it adopts a
    /// new leader (§III, "Decision protocol").
    pub fn grant(&mut self, handle: RegionHandle, peer: Ipv4Addr, perms: Permissions) {
        self.regions[handle.0].peer_perms.insert(peer, perms);
    }

    /// Removes `peer`'s explicit grant, reverting it to the default.
    pub fn revoke(&mut self, handle: RegionHandle, peer: Ipv4Addr) {
        self.regions[handle.0].peer_perms.remove(&peer);
    }

    /// Restricts (or, with `None`, un-restricts) which local queue pairs
    /// incoming writes to this region may arrive on. Used by replicas to
    /// fence a deposed leader's communication group (§III, "Faulty
    /// leader").
    pub fn set_allowed_writer_qpns(&mut self, handle: RegionHandle, qpns: Option<BTreeSet<u32>>) {
        self.regions[handle.0].allowed_writer_qpns = qpns;
    }

    /// The permissions `peer` currently holds on the region.
    pub fn effective_perms(&self, handle: RegionHandle, peer: Ipv4Addr) -> Permissions {
        let r = &self.regions[handle.0];
        *r.peer_perms.get(&peer).unwrap_or(&r.default_perms)
    }

    /// Local read of `[offset, offset+len)` within a region.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region (local access is
    /// programmer-controlled).
    pub fn read_local(&self, handle: RegionHandle, offset: usize, len: usize) -> &[u8] {
        &self.regions[handle.0].buf[offset..offset + len]
    }

    /// Local write into a region.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    pub fn write_local(&mut self, handle: RegionHandle, offset: usize, data: &[u8]) {
        self.regions[handle.0].buf[offset..offset + data.len()].copy_from_slice(data);
    }

    fn locate(&self, rkey: RKey, va: u64, len: u64) -> Result<(usize, usize), AccessError> {
        let idx = *self.by_rkey.get(&rkey.0).ok_or(AccessError::BadKey(rkey))?;
        let info = self.regions[idx].info;
        let end = va
            .checked_add(len)
            .ok_or(AccessError::OutOfBounds { va, len })?;
        if va < info.va || end > info.va + info.len {
            return Err(AccessError::OutOfBounds { va, len });
        }
        Ok((idx, (va - info.va) as usize))
    }

    /// Executes an incoming one-sided write: the checks of `check_write`,
    /// then stores `data` at `va`. Returns the landing region and byte
    /// offset within it. (The NIC runs the two steps apart: it checks each
    /// packet as it executes and places a whole message once.)
    ///
    /// # Errors
    ///
    /// Returns the [`AccessError`] the NIC should NAK with.
    pub fn remote_write(
        &mut self,
        peer: Ipv4Addr,
        via_qpn: Qpn,
        rkey: RKey,
        va: u64,
        data: &[u8],
    ) -> Result<(RegionHandle, u64), AccessError> {
        let (region, offset) = self.check_write(peer, via_qpn, rkey, va, data.len() as u64)?;
        self.write_local(region, offset as usize, data);
        Ok((region, offset))
    }

    /// Checks key, bounds, `peer`'s write permission and the queue-pair
    /// fence for `len` bytes at `va`, and returns where they land. Forced
    /// inline: left a call, it made `remote_write` 0.5–1 ns slower (E21).
    #[inline(always)]
    pub(crate) fn check_write(
        &self,
        peer: Ipv4Addr,
        via_qpn: Qpn,
        rkey: RKey,
        va: u64,
        len: u64,
    ) -> Result<(RegionHandle, u64), AccessError> {
        let (idx, off) = self.locate(rkey, va, len)?;
        let region = &self.regions[idx];
        let perms = *region
            .peer_perms
            .get(&peer)
            .unwrap_or(&region.default_perms);
        if !perms.remote_write {
            return Err(AccessError::PermissionDenied { peer, write: true });
        }
        if let Some(allowed) = &region.allowed_writer_qpns {
            if !allowed.contains(&via_qpn.masked()) {
                return Err(AccessError::WrongQueuePair(via_qpn));
            }
        }
        Ok((RegionHandle(idx), off as u64))
    }

    /// Executes an incoming one-sided read: validates key, bounds and
    /// `peer`'s read permission, then returns the bytes at `va`.
    ///
    /// # Errors
    ///
    /// Returns the [`AccessError`] the NIC should NAK with.
    pub fn remote_read(
        &self,
        peer: Ipv4Addr,
        rkey: RKey,
        va: u64,
        len: u64,
    ) -> Result<Bytes, AccessError> {
        let (idx, off) = self.locate(rkey, va, len)?;
        let region = &self.regions[idx];
        let perms = *region
            .peer_perms
            .get(&peer)
            .unwrap_or(&region.default_perms);
        if !perms.remote_read {
            return Err(AccessError::PermissionDenied { peer, write: false });
        }
        Ok(Bytes::copy_from_slice(&region.buf[off..off + len as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, n)
    }

    #[test]
    fn register_assigns_distinct_keys_and_vas() {
        let mut mem = HostMemory::new(1);
        let a = mem.register(4096, Permissions::NONE);
        let b = mem.register(4096, Permissions::NONE);
        let (ia, ib) = (mem.info(a), mem.info(b));
        assert_ne!(ia.rkey, ib.rkey);
        assert!(ib.va >= ia.va + ia.len, "regions must not overlap");
    }

    #[test]
    fn keys_differ_across_hosts() {
        let mut m1 = HostMemory::new(1);
        let mut m2 = HostMemory::new(2);
        let r1 = m1.register(64, Permissions::NONE);
        let r2 = m2.register(64, Permissions::NONE);
        assert_ne!(m1.info(r1).rkey, m2.info(r2).rkey);
    }

    #[test]
    fn remote_write_respects_permissions() {
        let mut mem = HostMemory::new(3);
        let r = mem.register(128, Permissions::NONE);
        let info = mem.info(r);
        let err = mem
            .remote_write(peer(1), Qpn(0), info.rkey, info.va, b"hi")
            .expect_err("default denies");
        assert!(matches!(
            err,
            AccessError::PermissionDenied { write: true, .. }
        ));

        mem.grant(r, peer(1), Permissions::WRITE);
        mem.remote_write(peer(1), Qpn(0), info.rkey, info.va + 10, b"hi")
            .expect("granted peer may write");
        assert_eq!(mem.read_local(r, 10, 2), b"hi");

        // Another peer is still denied.
        assert!(mem
            .remote_write(peer(2), Qpn(0), info.rkey, info.va, b"x")
            .is_err());

        mem.revoke(r, peer(1));
        assert!(mem
            .remote_write(peer(1), Qpn(0), info.rkey, info.va, b"x")
            .is_err());
    }

    #[test]
    fn remote_read_respects_permissions() {
        let mut mem = HostMemory::new(4);
        let r = mem.register(64, Permissions::READ);
        let info = mem.info(r);
        mem.write_local(r, 0, b"heartbeat");
        let got = mem
            .remote_read(peer(9), info.rkey, info.va, 9)
            .expect("default read allowed");
        assert_eq!(&got[..], b"heartbeat");

        mem.grant(r, peer(9), Permissions::NONE);
        assert!(mem.remote_read(peer(9), info.rkey, info.va, 9).is_err());
    }

    #[test]
    fn bounds_are_enforced() {
        let mut mem = HostMemory::new(5);
        let r = mem.register(32, Permissions::READ_WRITE);
        let info = mem.info(r);
        assert!(matches!(
            mem.remote_write(peer(1), Qpn(0), info.rkey, info.va + 30, b"abc"),
            Err(AccessError::OutOfBounds { .. })
        ));
        assert!(matches!(
            mem.remote_read(peer(1), info.rkey, info.va.wrapping_sub(1), 4),
            Err(AccessError::OutOfBounds { .. })
        ));
        assert!(matches!(
            mem.remote_read(peer(1), info.rkey, u64::MAX, 4),
            Err(AccessError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn wrong_key_is_rejected() {
        let mut mem = HostMemory::new(6);
        let r = mem.register(32, Permissions::READ_WRITE);
        let info = mem.info(r);
        let bogus = RKey(info.rkey.0 ^ 1);
        assert_eq!(
            mem.remote_write(peer(1), Qpn(0), bogus, info.va, b"x"),
            Err(AccessError::BadKey(bogus))
        );
    }

    #[test]
    fn effective_perms_reflect_grants() {
        let mut mem = HostMemory::new(7);
        let r = mem.register(8, Permissions::READ);
        mem.grant(r, peer(3), Permissions::READ_WRITE);
        assert_eq!(mem.effective_perms(r, peer(3)), Permissions::READ_WRITE);
        assert_eq!(mem.effective_perms(r, peer(4)), Permissions::READ);
    }

    #[test]
    fn qpn_fencing_blocks_unlisted_queue_pairs() {
        let mut mem = HostMemory::new(9);
        let r = mem.register(64, Permissions::NONE);
        let info = mem.info(r);
        mem.grant(r, peer(1), Permissions::WRITE);
        mem.set_allowed_writer_qpns(r, Some(BTreeSet::from([7u32])));
        assert_eq!(
            mem.remote_write(peer(1), Qpn(8), info.rkey, info.va, b"x"),
            Err(AccessError::WrongQueuePair(Qpn(8)))
        );
        mem.remote_write(peer(1), Qpn(7), info.rkey, info.va, b"x")
            .expect("listed qp may write");
        mem.set_allowed_writer_qpns(r, None);
        mem.remote_write(peer(1), Qpn(8), info.rkey, info.va, b"x")
            .expect("fencing removed");
    }

    #[test]
    #[should_panic(expected = "empty region")]
    fn empty_registration_panics() {
        let mut mem = HostMemory::new(8);
        let _ = mem.register(0, Permissions::NONE);
    }
}
