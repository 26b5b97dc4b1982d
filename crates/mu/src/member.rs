//! Mu's communication module: direct fan-out.
//!
//! The leader opens one queue pair *per replica* and replicates each
//! value with one RDMA write per replica, counting acknowledgements on
//! its own CPU — the communication pattern P4CE moves into the switch.
//! A value is decided once `f` replica NICs acknowledged it.
//!
//! [`FanOut`] is the link table and its mechanics (connect, retry,
//! exclude, self-heal, catch-up, post); P4CE embeds it as its fall-back
//! path. [`MuComm`] is Mu's [`Comm`]: the fan-out plus Mu's own notion
//! of when the leader is operational and when its workload may start.

use bytes::Bytes;
use netsim::{SimDuration, TraceEvent};
use rdma::{Completion, HostOps, Qpn, RegionAdvert, WrId};
use replication::member::{
    KIND_REPLICATION, LINK_ABANDON_TICKS, LINK_REDIAL_TICKS, LINK_RETRY_SOON_TICKS, T_CLASS_MASK,
    T_DATA_MASK, T_RECONNECT, WR_CATCHUP, WR_CLASS_MASK, WR_DIRECT, WR_SEQ_MASK,
};
use replication::{Comm, Core, LinkState, Member, MemberEvent, MemberId};
use std::collections::{BTreeMap, HashMap};

/// The Mu member application: the shared decision core over [`MuComm`].
pub type MuMember = Member<MuComm>;

/// Delay before a leader re-offers a replication connection to a replica
/// that refused the handshake (it has not adopted this leader yet).
const REPLICA_RECONNECT_DELAY: SimDuration = SimDuration::from_micros(200);

#[derive(Debug)]
struct Link {
    state: LinkState,
    qpn: Option<Qpn>,
    advert: Option<RegionAdvert>,
    retry_backoff: u32,
}

/// One replication queue pair per replica, driven by the leader.
#[derive(Debug, Default)]
pub struct FanOut {
    links: BTreeMap<MemberId, Link>,
    handshakes: HashMap<u64, MemberId>,
}

impl FanOut {
    /// Replicas currently reachable.
    pub fn ready_links(&self) -> usize {
        self.links
            .values()
            .filter(|l| l.state == LinkState::Ready)
            .count()
    }

    fn connect(&mut self, peer: MemberId, core: &Core, ops: &mut HostOps<'_, '_>) {
        let ip = core.cluster().addr_of(peer);
        let hs = ops.connect(ip, Bytes::from_static(&[KIND_REPLICATION]));
        self.handshakes.insert(hs, peer);
        self.links.insert(
            peer,
            Link {
                state: LinkState::Connecting,
                qpn: None,
                advert: None,
                retry_backoff: 0,
            },
        );
    }

    /// Forgets every link and dials every live replica.
    pub fn connect_live(&mut self, core: &Core, ops: &mut HostOps<'_, '_>) {
        self.links.clear();
        for (peer, _) in core.live_peers() {
            self.connect(peer, core, ops);
        }
    }

    /// Destroys every queue pair; the links stay, dead.
    pub fn teardown(&mut self, ops: &mut HostOps<'_, '_>) {
        for link in self.links.values_mut() {
            if let Some(qpn) = link.qpn.take() {
                ops.destroy_qp(qpn);
            }
            link.state = LinkState::Dead;
        }
    }

    fn exclude(&mut self, peer: MemberId, core: &mut Core, ops: &mut HostOps<'_, '_>) {
        if let Some(link) = self.links.get_mut(&peer) {
            if link.state == LinkState::Ready {
                link.state = LinkState::Dead;
                if let Some(qpn) = link.qpn.take() {
                    ops.destroy_qp(qpn);
                }
                core.stats
                    .event(ops.now(), MemberEvent::ReplicaExcluded { id: peer });
            }
        }
    }

    /// Once per heartbeat: excludes replicas that died, and re-dials the
    /// ones that are alive but unlinked (e.g. after a path fail-over).
    pub fn maintain(&mut self, core: &mut Core, ops: &mut HostOps<'_, '_>) {
        let dead: Vec<MemberId> = self
            .links
            .iter()
            .filter(|&(id, link)| link.state == LinkState::Ready && !core.is_alive(*id))
            .map(|(&id, _)| id)
            .collect();
        for id in dead {
            self.exclude(id, core, ops);
        }
        for (peer, _) in core.live_peers() {
            let needs_connect = match self.links.get_mut(&peer) {
                None => true,
                Some(link) if link.state == LinkState::Dead => {
                    link.retry_backoff += 1;
                    link.retry_backoff >= LINK_REDIAL_TICKS
                }
                Some(link) if link.state == LinkState::Connecting => {
                    // Abandon handshakes that died with the fabric.
                    link.retry_backoff += 1;
                    if link.retry_backoff >= LINK_ABANDON_TICKS {
                        link.state = LinkState::Dead;
                        link.retry_backoff = LINK_RETRY_SOON_TICKS;
                    }
                    false
                }
                Some(_) => false,
            };
            if needs_connect {
                self.connect(peer, core, ops);
            }
        }
    }

    /// One write per ready replica.
    pub fn post(&self, view: u64, seq: u64, at: usize, bytes: &Bytes, ops: &mut HostOps<'_, '_>) {
        for (&peer, link) in &self.links {
            if link.state != LinkState::Ready {
                continue;
            }
            let (qpn, advert) = (link.qpn.expect("ready"), link.advert.expect("ready"));
            let wr_id = WrId(WR_DIRECT | (u64::from(peer.0) << 48) | seq);
            ops.tracer().emit(ops.now(), || TraceEvent::PostBound {
                view,
                seq,
                qpn: u64::from(qpn.masked()),
                wr_id: wr_id.0,
            });
            ops.post_write(
                qpn,
                wr_id,
                advert.va + at as u64,
                advert.rkey,
                bytes.clone(),
            );
        }
    }

    /// If `handshake_id` is one of this fan-out's, marks the link ready
    /// and catches the replica up on everything already appended so its
    /// log has no gap (simplified Mu state transfer). Returns the peer.
    pub fn link_up(
        &mut self,
        core: &Core,
        handshake_id: u64,
        qpn: Qpn,
        private_data: &[u8],
        ops: &mut HostOps<'_, '_>,
    ) -> Option<MemberId> {
        let peer = self.handshakes.remove(&handshake_id)?;
        let advert = RegionAdvert::decode(private_data).ok();
        if let Some(link) = self.links.get_mut(&peer) {
            link.state = LinkState::Ready;
            link.qpn = Some(qpn);
            link.advert = advert;
        }
        if let Some(advert) = advert {
            // Chunked state transfer: bounded-size writes keep each
            // request comfortably inside the transport's retransmission
            // timeout. The current lap, then whatever of the previous lap
            // the replica has not read yet.
            const CHUNK: usize = 64 << 10;
            let region = core.log_region().expect("registered");
            for bytes in core.log_since(peer) {
                for off in bytes.clone().step_by(CHUNK) {
                    let end = (off + CHUNK).min(bytes.end);
                    let data = Bytes::copy_from_slice(ops.read_local(region, off, end - off));
                    ops.post_write(
                        qpn,
                        WrId(WR_CATCHUP | u64::from(peer.0)),
                        advert.va + off as u64,
                        advert.rkey,
                        data,
                    );
                }
            }
        }
        Some(peer)
    }

    /// Re-replicates undecided entries to a freshly connected link: the
    /// catch-up write covers the log bytes, per-seq posts earn the ACK
    /// counts.
    pub fn repost_undecided(&self, peer: MemberId, core: &Core, ops: &mut HostOps<'_, '_>) {
        let Some(link) = self.links.get(&peer) else {
            return;
        };
        let (Some(qpn), Some(advert)) = (link.qpn, link.advert) else {
            return;
        };
        for (seq, at, data) in core.undecided(ops) {
            ops.post_write(
                qpn,
                WrId(WR_DIRECT | (u64::from(peer.0) << 48) | seq),
                advert.va + at as u64,
                advert.rkey,
                data,
            );
        }
    }

    /// A replica refused one of this fan-out's handshakes — it has not
    /// adopted us yet: retry shortly.
    pub fn on_rejected(&mut self, core: &Core, handshake_id: u64, ops: &mut HostOps<'_, '_>) {
        let Some(peer) = self.handshakes.remove(&handshake_id) else {
            return;
        };
        if core.is_leader() {
            ops.set_app_timer(REPLICA_RECONNECT_DELAY, T_RECONNECT | u64::from(peer.0));
        }
    }

    /// The [`T_RECONNECT`] timer for `peer` fired.
    pub fn retry(&mut self, peer: MemberId, core: &Core, ops: &mut HostOps<'_, '_>) {
        if core.is_leader() && core.is_alive(peer) {
            self.connect(peer, core, ops);
        }
    }

    /// Handles a [`WR_DIRECT`] completion. A success returns the
    /// acknowledged seq; a failure means the replica or the path to it
    /// failed and excludes it.
    pub fn on_write_completion(
        &mut self,
        core: &mut Core,
        c: &Completion,
        ops: &mut HostOps<'_, '_>,
    ) -> Option<u64> {
        if !c.status.is_success() {
            let peer = MemberId(((c.wr_id.0 >> 48) & 0xff) as u8);
            self.exclude(peer, core, ops);
            return None;
        }
        Some(c.wr_id.0 & WR_SEQ_MASK)
    }
}

/// Mu's communication module.
#[derive(Debug, Default)]
pub struct MuComm {
    fanout: FanOut,
    /// Latched when `f` links are up, dropped when a failed write leaves
    /// fewer — Mu's leader does not re-count links on every use.
    operational: bool,
}

impl Comm for MuComm {
    fn start(&mut self, core: &mut Core, ops: &mut HostOps<'_, '_>) {
        self.operational = false;
        self.fanout.connect_live(core, ops);
    }

    fn stop(&mut self) {
        self.operational = false;
    }

    fn rebuild(&mut self, core: &mut Core, ops: &mut HostOps<'_, '_>) {
        self.operational = false;
        self.fanout.teardown(ops);
        self.fanout.connect_live(core, ops);
    }

    fn ready(&self, _core: &Core) -> bool {
        self.operational
    }

    /// Benchmark hygiene: the workload starts once every *live* replica
    /// is wired up, so early entries reach everyone.
    fn workload_gate(&self, core: &Core) -> bool {
        self.operational && self.fanout.ready_links() >= core.live_peers().len()
    }

    fn post(&mut self, view: u64, seq: u64, at: usize, bytes: Bytes, ops: &mut HostOps<'_, '_>) {
        self.fanout.post(view, seq, at, &bytes, ops);
    }

    fn on_heartbeat(&mut self, core: &mut Core, ops: &mut HostOps<'_, '_>) {
        self.fanout.maintain(core, ops);
    }

    fn on_path_failover(&mut self, ops: &mut HostOps<'_, '_>) {
        self.fanout.teardown(ops);
        self.operational = false;
    }

    fn on_connected(
        &mut self,
        core: &mut Core,
        handshake_id: u64,
        qpn: Qpn,
        private_data: &[u8],
        ops: &mut HostOps<'_, '_>,
    ) {
        let Some(peer) = self
            .fanout
            .link_up(core, handshake_id, qpn, private_data, ops)
        else {
            return;
        };
        if !self.operational && self.fanout.ready_links() >= core.cluster().f() {
            self.operational = true;
            let view = core.view();
            core.stats
                .event(ops.now(), MemberEvent::LeaderOperational { view });
        }
        // The workload starts *before* the undecided entries are
        // re-posted, so the link that opens the gate sees the first
        // window twice — kept as is, the simulator's event counts are
        // pinned on it.
        core.maybe_start_workload(self, ops);
        self.fanout.repost_undecided(peer, core, ops);
        core.resume(self, ops);
    }

    fn on_rejected(&mut self, core: &mut Core, handshake_id: u64, ops: &mut HostOps<'_, '_>) {
        self.fanout.on_rejected(core, handshake_id, ops);
    }

    fn on_completion(&mut self, core: &mut Core, c: &Completion, ops: &mut HostOps<'_, '_>) {
        if c.wr_id.0 & WR_CLASS_MASK != WR_DIRECT {
            return;
        }
        match self.fanout.on_write_completion(core, c, ops) {
            Some(seq) => {
                core.stats.min_credit_seen = core.stats.min_credit_seen.min(c.credits);
                core.acknowledge(self, seq, core.cluster().f() as u32, ops);
            }
            None => {
                if self.fanout.ready_links() < core.cluster().f() {
                    self.operational = false;
                }
            }
        }
    }

    fn on_timer(&mut self, core: &mut Core, token: u64, ops: &mut HostOps<'_, '_>) {
        if token & T_CLASS_MASK == T_RECONNECT {
            let peer = MemberId((token & T_DATA_MASK & 0xff) as u8);
            self.fanout.retry(peer, core, ops);
        }
    }
}
