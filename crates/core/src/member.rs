//! P4CE's communication module: Mu's decision protocol with in-network
//! communication.
//!
//! The member is the shared `replication::Member` (heartbeats,
//! lowest-live-id election, permission-fenced logs); only the leader's
//! communication module differs from Mu's (§III):
//!
//! * **accelerated path** — the leader opens *one* RDMA connection to the
//!   switch, piggybacking the replica set; each consensus is a single
//!   write to the BCast queue pair, and the single returning ACK already
//!   represents `f` replica acknowledgements;
//! * **fallback path** — on a NAK or transport timeout the leader reverts
//!   to direct, Mu-style replication (one write per replica — Mu's own
//!   [`FanOut`], embedded), and periodically retries the accelerated path
//!   (§III-A);
//! * **reconfiguration** — replica-set changes and view changes rebuild
//!   the communication group, which costs the switch's 40 ms
//!   reconfiguration delay (Table IV). The asynchronous variant the paper
//!   sketches (manual replication *while* reconfiguring) is available as
//!   [`SwitchCommConfig::async_reconfig`].

use bytes::Bytes;
use mu::FanOut;
use netsim::{SimDuration, SimTime, TraceEvent};
use p4ce_switch::{GroupJoin, GroupSpec};
use rdma::cm::MAX_REQ_PRIVATE_DATA;
use rdma::{Completion, HostOps, Qpn, RegionAdvert, WrId};
use replication::member::{
    T_CLASS_MASK, T_DATA_MASK, T_REACCEL, T_RECONNECT, WR_CLASS_MASK, WR_DIRECT, WR_SEQ_MASK,
    WR_SWITCH,
};
use replication::{Comm, Core, Member, MemberEvent, MemberId};
use std::net::Ipv4Addr;

/// The P4CE member application: the shared decision core over
/// [`SwitchComm`].
pub type P4ceMember = Member<SwitchComm>;

/// `T_RECONNECT` payload meaning "retry the whole group", not one peer.
const RETRY_GROUP: u64 = 0xff;
/// Delay before a leader retries forming the switch group after a
/// replica refused it (likely a leadership race).
const GROUP_RETRY_DELAY: SimDuration = SimDuration::from_micros(500);

/// Configuration of one member's [`SwitchComm`].
#[derive(Debug, Clone)]
pub struct SwitchCommConfig {
    /// The P4CE-enabled switch's address.
    pub switch_ip: Ipv4Addr,
    /// How often a fallen-back leader retries in-network acceleration,
    /// also the patience for a group handshake before giving up.
    pub reaccel_period: SimDuration,
    /// Keep replicating through the old group (or directly) while the
    /// switch reconfigures — the asynchronous variant of §V-E's Lesson 3.
    pub async_reconfig: bool,
}

impl SwitchCommConfig {
    /// A comm behind `switch_ip` with the paper's synchronous
    /// reconfiguration.
    pub fn new(switch_ip: Ipv4Addr) -> Self {
        SwitchCommConfig {
            switch_ip,
            reaccel_period: SimDuration::from_millis(100),
            async_reconfig: false,
        }
    }
}

/// Which path replication currently takes — what *serves*. What is being
/// waited for is [`SwitchComm::pending`], separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// Nothing established.
    Down,
    /// In-network replication live on this queue pair.
    Accelerated(Qpn),
    /// Direct (Mu-style) replication.
    Fallback,
}

/// The leader's communication module: one queue pair to the switch,
/// Mu's fan-out when the switch cannot serve.
#[derive(Debug)]
pub struct SwitchComm {
    cfg: SwitchCommConfig,
    path: Path,
    /// The group handshake in flight with the switch and when it was
    /// sent. With nothing serving ([`Path::Down`]) the leader is waiting
    /// for it; behind a serving path it is a background probe or an
    /// `async_reconfig` rebuild.
    pending: Option<(u64, SimTime)>,
    switch_advert: Option<RegionAdvert>,
    group_members: Vec<MemberId>,
    direct: FanOut,
}

impl SwitchComm {
    /// A comm with nothing established.
    pub fn new(cfg: SwitchCommConfig) -> Self {
        SwitchComm {
            cfg,
            path: Path::Down,
            pending: None,
            switch_advert: None,
            group_members: Vec::new(),
            direct: FanOut::default(),
        }
    }

    /// Asks the switch to build a communication group over the live
    /// replicas, without touching the path in use. `false` if no request
    /// went out: there is no quorum to build over, or more live replicas
    /// than one CM request can name — no switch can host that group, so
    /// the leader replicates directly.
    fn send_group_request(&mut self, core: &mut Core, ops: &mut HostOps<'_, '_>) -> bool {
        let alive = core.live_peers();
        let f = core.cluster().f();
        if alive.len() < f {
            return false;
        }
        let request = GroupSpec {
            f: f as u8,
            replicas: alive.iter().map(|&(_, ip)| ip).collect(),
        }
        .encode();
        if request.len() > MAX_REQ_PRIVATE_DATA {
            self.fall_back(core, ops);
            return false;
        }
        self.group_members = alive.iter().map(|&(id, _)| id).collect();
        let handshake = ops.connect(self.cfg.switch_ip, request);
        self.pending = Some((handshake, ops.now()));
        true
    }

    /// Requests a group and waits for it — unless an accelerated group
    /// keeps serving meanwhile (`async_reconfig`).
    fn request_group(&mut self, core: &mut Core, ops: &mut HostOps<'_, '_>) {
        if self.send_group_request(core, ops)
            && (!self.is_accelerated() || !self.cfg.async_reconfig)
        {
            self.path = Path::Down;
        }
    }

    /// Reverts to direct, un-accelerated replication (§III-A).
    fn fall_back(&mut self, core: &mut Core, ops: &mut HostOps<'_, '_>) {
        if self.path == Path::Fallback {
            return;
        }
        if let Path::Accelerated(qpn) = self.path {
            ops.destroy_qp(qpn);
        }
        self.path = Path::Fallback;
        core.stats.event(ops.now(), MemberEvent::FellBack);
        ops.tracer().emit(ops.now(), || TraceEvent::FellBack);
        self.direct.connect_live(core, ops);
    }

    fn reaccel_tick(&mut self, core: &mut Core, ops: &mut HostOps<'_, '_>) {
        if !core.is_leader() {
            return;
        }
        match (self.path, self.pending) {
            (Path::Down, Some((_, since)))
                // The switch never answered: it is gone (or unreachable);
                // revert to manual replication.
                if ops.now().saturating_duration_since(since) >= self.cfg.reaccel_period =>
            {
                self.pending = None;
                self.fall_back(core, ops);
            }
            (Path::Fallback, _) => {
                // Periodically probe for a P4CE-enabled switch (§III-A),
                // staying on the working path meanwhile.
                self.send_group_request(core, ops);
            }
            _ => {}
        }
        ops.set_app_timer(self.cfg.reaccel_period, T_REACCEL);
    }

    fn on_group_established(
        &mut self,
        core: &mut Core,
        qpn: Qpn,
        advert: RegionAdvert,
        ops: &mut HostOps<'_, '_>,
    ) {
        self.pending = None;
        // Drop whatever served until now: the new group replaces the
        // direct path, and the switch dropped the group it supersedes
        // (`async_reconfig`) the instant this one went active, so nothing
        // still in flight on the old queue pair will ever be ACKed — it
        // is re-posted below.
        self.direct.teardown(ops);
        if let Path::Accelerated(old) = self.path {
            ops.destroy_qp(old);
        }
        self.path = Path::Accelerated(qpn);
        self.switch_advert = Some(advert);
        core.stats.event(ops.now(), MemberEvent::GroupEstablished);
        ops.tracer()
            .emit(ops.now(), || TraceEvent::GroupEstablished);
        // Re-replicate anything that was decided-in-doubt or parked
        // during the outage.
        for (seq, at, data) in core.undecided(ops) {
            ops.post_write(qpn, WrId(WR_SWITCH | seq), at as u64, advert.rkey, data);
        }
        core.resume(self, ops);
    }
}

impl Comm for SwitchComm {
    fn start(&mut self, core: &mut Core, ops: &mut HostOps<'_, '_>) {
        self.path = Path::Down;
        self.request_group(core, ops);
        ops.set_app_timer(self.cfg.reaccel_period, T_REACCEL);
    }

    fn stop(&mut self) {
        self.path = Path::Down;
    }

    fn rebuild(&mut self, core: &mut Core, ops: &mut HostOps<'_, '_>) {
        if let Path::Accelerated(qpn) = self.path {
            ops.destroy_qp(qpn);
        }
        self.path = Path::Down;
        self.request_group(core, ops);
    }

    fn ready(&self, core: &Core) -> bool {
        match self.path {
            Path::Accelerated(_) => true,
            Path::Fallback => self.direct.ready_links() >= core.cluster().f(),
            _ => false,
        }
    }

    fn post(&mut self, view: u64, seq: u64, at: usize, bytes: Bytes, ops: &mut HostOps<'_, '_>) {
        match self.path {
            Path::Accelerated(qpn) => {
                let advert = self.switch_advert.expect("accelerated has advert");
                // One write to the switch replaces n writes to replicas:
                // the virtual VA is zero-based, so the log offset is the
                // address (§IV-A).
                let wr_id = WrId(WR_SWITCH | seq);
                ops.tracer().emit(ops.now(), || TraceEvent::PostBound {
                    view,
                    seq,
                    qpn: u64::from(qpn.masked()),
                    wr_id: wr_id.0,
                });
                ops.post_write(qpn, wr_id, at as u64, advert.rkey, bytes);
            }
            Path::Fallback => self.direct.post(view, seq, at, &bytes, ops),
            // No path (reconfiguring): the entry stays pending and is
            // re-posted when the group comes up.
            _ => {}
        }
    }

    /// A replica died while we lead: the communication group must be
    /// rebuilt (§V-E, "Crashed replica": +40 ms in P4CE).
    fn on_heartbeat(&mut self, core: &mut Core, ops: &mut HostOps<'_, '_>) {
        match self.path {
            Path::Accelerated(_) if self.group_members.iter().any(|&id| !core.is_alive(id)) => {
                // Rebuild with the survivors.
                core.stats.event(ops.now(), MemberEvent::CommRebuildStarted);
                if !self.cfg.async_reconfig {
                    // The paper's implementation pauses replication
                    // until the switch is reconfigured.
                    self.path = Path::Down;
                }
                self.request_group(core, ops);
            }
            Path::Fallback => self.direct.maintain(core, ops),
            _ => {}
        }
    }

    fn on_path_failover(&mut self, ops: &mut HostOps<'_, '_>) {
        self.direct.teardown(ops);
        if let Path::Accelerated(qpn) = self.path {
            ops.destroy_qp(qpn);
        }
        self.path = Path::Down;
    }

    /// Revert to manual replication over the new route; the reaccel
    /// probe will look for a P4CE switch later.
    fn on_path_recovered(&mut self, core: &mut Core, ops: &mut HostOps<'_, '_>) {
        self.fall_back(core, ops);
    }

    fn on_connected(
        &mut self,
        core: &mut Core,
        handshake_id: u64,
        qpn: Qpn,
        private_data: &[u8],
        ops: &mut HostOps<'_, '_>,
    ) {
        if self.pending.is_some_and(|(h, _)| h == handshake_id) {
            if let Ok(advert) = RegionAdvert::decode(private_data) {
                self.on_group_established(core, qpn, advert, ops);
            }
        } else if let Some(peer) = self
            .direct
            .link_up(core, handshake_id, qpn, private_data, ops)
        {
            self.direct.repost_undecided(peer, core, ops);
            core.resume(self, ops);
        }
    }

    fn on_rejected(&mut self, core: &mut Core, handshake_id: u64, ops: &mut HostOps<'_, '_>) {
        if self.pending.is_some_and(|(h, _)| h == handshake_id) {
            // A replica refused the group (likely a leadership race):
            // retry after a beat.
            self.pending = None;
            if core.is_leader() && !self.is_accelerated() {
                self.path = Path::Down;
                ops.set_app_timer(GROUP_RETRY_DELAY, T_RECONNECT | RETRY_GROUP);
            }
        } else {
            self.direct.on_rejected(core, handshake_id, ops);
        }
    }

    fn on_completion(&mut self, core: &mut Core, c: &Completion, ops: &mut HostOps<'_, '_>) {
        match c.wr_id.0 & WR_CLASS_MASK {
            WR_SWITCH if !c.status.is_success() => {
                // A NAK forwarded by the switch, or the ACK timed out:
                // revert to un-accelerated communication (§III-A).
                self.fall_back(core, ops);
            }
            WR_SWITCH => {
                // The single ACK certifies f replica acknowledgements.
                core.stats.min_credit_seen = core.stats.min_credit_seen.min(c.credits);
                core.acknowledge(self, c.wr_id.0 & WR_SEQ_MASK, 1, ops);
            }
            WR_DIRECT => {
                if let Some(seq) = self.direct.on_write_completion(core, c, ops) {
                    core.acknowledge(self, seq, core.cluster().f() as u32, ops);
                }
            }
            _ => {}
        }
    }

    /// §III-A: any NAK forwarded by the switch means a replica is
    /// misbehaving (or being overrun): revert to un-accelerated
    /// communication; the re-acceleration probe will try again later.
    fn on_nak(&mut self, core: &mut Core, qpn: Qpn, ops: &mut HostOps<'_, '_>) {
        if self.path == Path::Accelerated(qpn) {
            self.fall_back(core, ops);
        }
    }

    fn on_timer(&mut self, core: &mut Core, token: u64, ops: &mut HostOps<'_, '_>) {
        match token & T_CLASS_MASK {
            T_REACCEL => self.reaccel_tick(core, ops),
            T_RECONNECT => {
                let data = token & T_DATA_MASK;
                if data == RETRY_GROUP {
                    if core.is_leader() && !self.is_accelerated() {
                        self.request_group(core, ops);
                    }
                } else if self.path == Path::Fallback {
                    self.direct.retry(MemberId((data & 0xff) as u8), core, ops);
                }
            }
            _ => {}
        }
    }

    fn join_leader(private_data: &[u8]) -> Option<Ipv4Addr> {
        GroupJoin::decode(private_data).ok().map(|join| join.leader)
    }

    fn is_accelerated(&self) -> bool {
        matches!(self.path, Path::Accelerated(_))
    }
}
