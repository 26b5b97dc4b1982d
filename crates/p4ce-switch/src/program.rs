//! The P4CE switch program: transparent RDMA group communication.
//!
//! Data plane (§IV-B, §IV-C):
//! * **Scatter** — writes arriving on a group's *BCast* queue pair are
//!   handed to the replication engine; each copy is rewritten in the
//!   egress (MACs, IPs, UDP port, destination QP, PSN base, virtual
//!   address, `R_key`) so every replica believes it talks to the switch.
//!   The stages only record those rewrites on the header handle
//!   (`tofino::Headers`); the pipeline's deparser stamps them onto the
//!   arrived bytes — the payload is never re-serialized or re-hashed per
//!   replica (see `tofino::Switch` and `rdma::PacketTemplate`).
//! * **Gather** — ACKs arriving on a replica's *Aggr* queue pair bump the
//!   `NumRecv[psn]` register; the `f`-th positive ACK is rewritten into
//!   leader terms and forwarded, carrying the *minimum* credit count seen
//!   across replicas. NAKs are forwarded immediately and unconditionally.
//!
//! Control plane (§IV-A): ConnectRequests addressed to the switch are
//! punted; the control plane fans the handshake out to the replicas,
//! aggregates their ConnectReplies, programs the match-action tables and
//! the multicast group, and answers the leader with a *virtual* region
//! (VA 0, random key) after the reconfiguration delay.

use netsim::rng::lcg_step;
use netsim::{Planted, PortId, SimDuration, SimTime, TraceEvent};
use rdma::cm::{CmMessage, RegionAdvert, RejectReason};
use rdma::{Aeth, AethKind, MacAddr, Opcode, Psn, Qpn, RKey, RewriteSet, RocePacket, CM_QPN};
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use tofino::{
    alu_min, ControlOps, EgressMeta, Headers, IngressMeta, IngressVerdict, MatchTable, McastMember,
    MulticastGroupId, PipelineOps, RegisterArray, SwitchProgram,
};

use crate::spec::{GroupJoin, GroupSpec};

/// Where non-`f`-th ACKs are discarded — the §IV-D performance ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckDropStage {
    /// Drop in the ingress of the port the ACK arrived on (the paper's
    /// final design: 121 Mpps *per replica*).
    Ingress,
    /// Let every ACK traverse to the leader's egress and drop there (the
    /// paper's first attempt: the leader's egress parser caps the total at
    /// 121 Mpps).
    Egress,
}

/// How the switch reports flow-control credits back to the leader — the
/// §IV-C design choice and its naive alternative (an ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreditMode {
    /// The paper's design: track the last credit count *per replica* and
    /// forward the minimum, so the slowest replica is never ignored.
    Minimum,
    /// Naive passthrough: forward whatever the `f`-th ACK happened to
    /// carry. Under a slow replica this overruns its receive queue.
    Passthrough,
}

/// NumRecv slots per group: how many distinct in-flight PSNs can be
/// aggregated (256 in the paper, §IV-C).
pub const NUMRECV_WINDOW: usize = 256;
const _: () = assert!(
    NUMRECV_WINDOW.is_power_of_two(),
    "NumRecv window must be a power of two (hardware index masking)"
);

/// Scatters a replica may stay silent before its credit register is
/// excluded from the minimum fold. A crashed replica otherwise pins the
/// group's reported credits at its last (possibly zero) value and stalls
/// the leader forever; a silent replica cannot contribute ACKs anyway, so
/// ignoring its credits never weakens the quorum.
pub const CREDIT_STALE_SCATTERS: u32 = 1024;

/// Tunables of the P4CE program.
#[derive(Debug, Clone)]
pub struct P4ceSwitchConfig {
    /// Data-plane reconfiguration latency: the 40 ms the paper measures
    /// for programming tables and the replication engine (§V-E).
    pub reconfig_delay: SimDuration,
    /// Where non-final ACKs are dropped.
    pub ack_drop: AckDropStage,
    /// How credits are aggregated.
    pub credit_mode: CreditMode,
    /// `false` models a plain (non-programmable) fabric: group requests
    /// are silently ignored, so leaders fall back to direct replication
    /// (§III-A). Ordinary L3 forwarding is unaffected.
    pub p4ce_enabled: bool,
}

impl Default for P4ceSwitchConfig {
    fn default() -> Self {
        P4ceSwitchConfig {
            reconfig_delay: SimDuration::from_millis(40),
            ack_drop: AckDropStage::Ingress,
            credit_mode: CreditMode::Minimum,
            p4ce_enabled: true,
        }
    }
}

/// Per-replica connection structure (Table III).
#[derive(Debug, Clone)]
struct ReplicaConn {
    ip: Ipv4Addr,
    port: Option<PortId>,
    /// The replica's queue pair (destination of scattered packets).
    qpn: Qpn,
    /// The switch-side queue pair identity the replica ACKs towards.
    aggr_qpn: Qpn,
    /// First PSN the switch uses towards this replica.
    start_psn_out: Psn,
    /// The replica's log region.
    va: u64,
    rkey: RKey,
    len: u64,
    established: bool,
}

/// Per-group state (Table II).
#[derive(Debug)]
struct Group {
    mcast: MulticastGroupId,
    f: u32,
    leader_ip: Ipv4Addr,
    leader_port: Option<PortId>,
    /// The leader's queue pair (destination of gathered ACKs).
    leader_qpn: Qpn,
    /// First PSN the leader uses towards the switch.
    leader_start_psn: Psn,
    /// The BCast queue pair the leader sends on.
    bcast_qpn: Qpn,
    virt_rkey: RKey,
    replicas: Vec<ReplicaConn>,
    /// NumRecv: bitmap of endpoints whose ACK for the slot's PSN has been
    /// seen. A bitmap instead of the paper's plain counter makes the
    /// quorum test count *distinct* replicas, so a duplicated ACK (a
    /// lossy fabric retransmitting) can never fake an agreement.
    num_recv: RegisterArray,
    /// Sequence number (PSN distance from the leader's start) each
    /// NumRecv slot currently aggregates. An ACK whose distance disagrees
    /// is left over from an earlier wrap of the window and is absorbed
    /// instead of corrupting the live slot.
    num_recv_psn: RegisterArray,
    /// Last credit count per replica (one slot per endpoint).
    credits: RegisterArray,
    /// Scatter sequence number at each replica's most recent ACK (one
    /// slot per endpoint) — the staleness clock for the credit fold.
    last_ack_scatter: RegisterArray,
    /// Write packets scattered so far (wrapping).
    scatter_count: u32,
    /// Data plane active (tables programmed and reconfiguration done).
    active: bool,
    /// The leader's original handshake, answered after reconfiguration.
    leader_handshake: u64,
    pending_replies: u32,
    /// This group's own data-plane counters (the global
    /// [`P4ceSwitchStats`] sums across groups).
    stats: GroupStats,
}

/// Per-group data-plane counters: the group-keyed slice of
/// [`P4ceSwitchStats`], for isolation tests and per-shard reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Write packets scattered for this group.
    pub scattered: u64,
    /// ACKs absorbed by this group's aggregation.
    pub acks_absorbed: u64,
    /// `f`-th ACKs forwarded to this group's leader.
    pub acks_forwarded: u64,
    /// Stale ACKs (earlier window wrap) absorbed.
    pub acks_stale: u64,
    /// Duplicate ACKs absorbed.
    pub acks_duplicate: u64,
    /// NAKs forwarded to this group's leader.
    pub naks_forwarded: u64,
}

/// Counters for experiments and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct P4ceSwitchStats {
    /// Write packets scattered (pre-replication count).
    pub scattered: u64,
    /// ACKs absorbed by aggregation.
    pub acks_absorbed: u64,
    /// ACKs forwarded to leaders (the `f`-th ones).
    pub acks_forwarded: u64,
    /// NAKs forwarded to leaders.
    pub naks_forwarded: u64,
    /// ACKs absorbed because their PSN no longer matches the slot (late
    /// arrivals from an earlier wrap of the NumRecv window).
    pub stale_acks_dropped: u64,
    /// Duplicate ACKs absorbed because the replica's bit was already set
    /// in the slot's bitmap.
    pub duplicate_acks_dropped: u64,
    /// Credit-fold evaluations that skipped at least one silent replica.
    pub stale_credit_skips: u64,
    /// Communication groups created.
    pub groups_created: u64,
    /// Communication groups superseded: dropped when a newer group of
    /// the same cluster (its leader or a successor) went active.
    pub groups_retired: u64,
    /// Reconfigurations completed.
    pub reconfigs: u64,
    /// Group requests rejected because the 16-bit group-id space ran out.
    pub gid_exhausted: u64,
}

// Control-plane timer tokens.
const CTRL_RECONFIG: u64 = 1 << 40;

/// The "P4 Consensus Engine" program.
pub struct P4ceProgram {
    cfg: P4ceSwitchConfig,
    groups: BTreeMap<u16, Group>,
    /// BCast QPN → group id (data-plane match table for scatter).
    bcast_table: MatchTable<u32, u16>,
    /// Aggr QPN → (group id, endpoint id) (data-plane match table for
    /// gather).
    aggr_table: MatchTable<u32, (u16, u8)>,
    /// Switch-initiated handshake id → (group id, endpoint id).
    fanout_handshakes: HashMap<u64, (u16, u8)>,
    next_gid: u16,
    next_qpn: u32,
    /// The LCG state every virtual key and start PSN is drawn from.
    key_state: u64,
    /// Counters.
    pub stats: P4ceSwitchStats,
}

impl P4ceProgram {
    /// Builds the program with `cfg`.
    pub fn new(cfg: P4ceSwitchConfig) -> Self {
        P4ceProgram {
            cfg,
            groups: BTreeMap::new(),
            // Hardware table budgets: 1 Ki communication groups and 4 Ki
            // replica endpoints — generous for the protocol (endpoint
            // ids are 8-bit) yet finite, as on the ASIC.
            bcast_table: MatchTable::new("bcast_qp", 1024),
            aggr_table: MatchTable::new("aggr_qp", 4096),
            fanout_handshakes: HashMap::new(),
            next_gid: 1,
            next_qpn: 0x100,
            key_state: 0xb5ad_4ece_da1c_e2a9,
            stats: P4ceSwitchStats::default(),
        }
    }

    fn next_virt_rkey(&mut self) -> RKey {
        RKey(((lcg_step(&mut self.key_state) >> 32) as u32) | 1)
    }

    fn alloc_qpn(&mut self) -> Qpn {
        let q = Qpn(self.next_qpn);
        self.next_qpn += 1;
        q
    }

    /// Number of groups whose data plane is active.
    pub fn active_groups(&self) -> usize {
        self.groups.values().filter(|g| g.active).count()
    }

    /// The ids of every live group, ascending.
    pub fn group_ids(&self) -> Vec<u16> {
        self.groups.keys().copied().collect()
    }

    /// This group's own counters, if it is (still) live.
    pub fn group_stats(&self, gid: u16) -> Option<GroupStats> {
        self.groups.get(&gid).map(|g| g.stats)
    }

    /// The group led by `leader`, if any (groups have exactly one
    /// leader; a leader drives at most one group at a time — a group
    /// that goes active drops the older ones of its leader, so the
    /// oldest match is never a superseded one).
    pub fn gid_of_leader(&self, leader: Ipv4Addr) -> Option<u16> {
        self.groups
            .iter()
            .find(|(_, g)| g.leader_ip == leader)
            .map(|(&gid, _)| gid)
    }

    // ------------------------------------------------------------------
    // Control plane
    // ------------------------------------------------------------------

    fn handle_leader_request(
        &mut self,
        pkt: &RocePacket,
        handshake_id: u64,
        leader_qpn: Qpn,
        leader_psn: Psn,
        private_data: &[u8],
        ops: &mut dyn ControlOps,
    ) {
        if !self.cfg.p4ce_enabled {
            // A plain fabric is not listening on the group endpoint: the
            // request vanishes and the leader times out into fallback.
            return;
        }
        let Ok(spec) = GroupSpec::decode(private_data) else {
            // Not a group request: noise, whose reject completes the
            // requester's CM exchange.
            Self::send_cm(
                ops,
                pkt.src_ip,
                &CmMessage::ConnectReject {
                    handshake_id,
                    reason: RejectReason::NotListening,
                },
            );
            return;
        };
        // Group ids are never reused: running out of them is running out
        // of a switch resource, and the leader stays on the direct path.
        let Some(next_gid) = self.next_gid.checked_add(1) else {
            self.stats.gid_exhausted += 1;
            Self::send_cm(
                ops,
                pkt.src_ip,
                &CmMessage::ConnectReject {
                    handshake_id,
                    reason: RejectReason::NoResources,
                },
            );
            return;
        };
        let gid = std::mem::replace(&mut self.next_gid, next_gid);
        let bcast_qpn = self.alloc_qpn();
        let virt_rkey = self.next_virt_rkey();
        let n = spec.replicas.len();
        let mut replicas = Vec::with_capacity(n);
        for (idx, &ip) in spec.replicas.iter().enumerate() {
            let aggr_qpn = self.alloc_qpn();
            let start_psn_out = Psn::new((lcg_step(&mut self.key_state) >> 40) as u32);
            replicas.push(ReplicaConn {
                ip,
                port: ops.route(ip),
                qpn: Qpn(0), // learned from the replica's ConnectReply
                aggr_qpn,
                start_psn_out,
                va: 0,
                rkey: RKey(0),
                len: 0,
                established: false,
            });
            let fanout_id = (u64::from(gid) << 16) | (idx as u64) | (1 << 56);
            self.fanout_handshakes.insert(fanout_id, (gid, idx as u8));
            let join = GroupJoin { leader: pkt.src_ip };
            Self::send_cm(
                ops,
                ip,
                &CmMessage::ConnectRequest {
                    handshake_id: fanout_id,
                    qpn: aggr_qpn,
                    start_psn: start_psn_out,
                    private_data: join.encode(),
                },
            );
        }
        self.groups.insert(
            gid,
            Group {
                mcast: MulticastGroupId(gid),
                f: u32::from(spec.f),
                leader_ip: pkt.src_ip,
                leader_port: ops.route(pkt.src_ip),
                leader_qpn,
                leader_start_psn: leader_psn,
                bcast_qpn,
                virt_rkey,
                replicas,
                num_recv: RegisterArray::new(format!("numrecv.g{gid}"), NUMRECV_WINDOW),
                num_recv_psn: RegisterArray::new(format!("numrecv_psn.g{gid}"), NUMRECV_WINDOW),
                credits: RegisterArray::new(format!("credits.g{gid}"), n),
                last_ack_scatter: RegisterArray::new(format!("lastack.g{gid}"), n),
                scatter_count: 0,
                active: false,
                leader_handshake: handshake_id,
                pending_replies: n as u32,
                stats: GroupStats::default(),
            },
        );
        self.stats.groups_created += 1;
    }

    /// The only way a group leaves the switch: its state, its multicast
    /// entry, its entries in both match tables and its unanswered joins
    /// go together. Other groups' table entries and registers are
    /// untouched — group lifecycle must never disturb co-resident groups.
    fn drop_group(&mut self, gid: u16, ops: &mut dyn ControlOps) -> Option<Group> {
        let group = self.groups.remove(&gid)?;
        self.fanout_handshakes.retain(|_, &mut (g, _)| g != gid);
        ops.remove_mcast_group(group.mcast);
        self.bcast_table.remove(&group.bcast_qpn.masked());
        for r in &group.replicas {
            self.aggr_table.remove(&r.aggr_qpn.masked());
        }
        Some(group)
    }

    fn handle_replica_reply(
        &mut self,
        pkt: &RocePacket,
        handshake_id: u64,
        replica_qpn: Qpn,
        _replica_psn: Psn,
        private_data: &[u8],
        ops: &mut dyn ControlOps,
    ) {
        let Some((gid, idx)) = self.fanout_handshakes.remove(&handshake_id) else {
            return;
        };
        let Some(group) = self.groups.get_mut(&gid) else {
            return;
        };
        let Ok(advert) = RegionAdvert::decode(private_data) else {
            return;
        };
        {
            let r = &mut group.replicas[idx as usize];
            r.qpn = replica_qpn;
            r.va = advert.va;
            r.rkey = advert.rkey;
            r.len = advert.len;
            r.established = true;
            if r.port.is_none() {
                r.port = ops.route(r.ip);
            }
        }
        // Initialize the replica's credit register to "fully available".
        group.credits.write(idx as usize, 31);
        // Finish the handshake towards the replica.
        let rtu = CmMessage::ReadyToUse { handshake_id };
        let dst = pkt.src_ip;
        Self::send_cm(ops, dst, &rtu);

        group.pending_replies -= 1;
        if group.pending_replies == 0 {
            // All fan-out connections are up: program the data plane, then
            // let the reconfiguration settle before answering the leader.
            let members: Vec<McastMember> = group
                .replicas
                .iter()
                .enumerate()
                .filter_map(|(i, r)| {
                    r.port.map(|p| McastMember {
                        port: p,
                        rid: i as u16,
                    })
                })
                .collect();
            ops.set_mcast_group(group.mcast, members);
            let mut table_full = self
                .bcast_table
                .insert(group.bcast_qpn.masked(), gid)
                .is_err();
            for (i, r) in group.replicas.iter().enumerate() {
                table_full |= self
                    .aggr_table
                    .insert(r.aggr_qpn.masked(), (gid, i as u8))
                    .is_err();
            }
            if table_full {
                // The ASIC is out of table space: degrade gracefully by
                // refusing the group (the leader falls back to direct
                // replication).
                let group = self.drop_group(gid, ops).expect("borrowed above");
                Self::send_cm(
                    ops,
                    group.leader_ip,
                    &CmMessage::ConnectReject {
                        handshake_id: group.leader_handshake,
                        reason: RejectReason::NoResources,
                    },
                );
                return;
            }
            ops.set_timer(self.cfg.reconfig_delay, CTRL_RECONFIG | u64::from(gid));
        }
    }

    fn handle_replica_reject(&mut self, handshake_id: u64, ops: &mut dyn ControlOps) {
        let Some((gid, _idx)) = self.fanout_handshakes.remove(&handshake_id) else {
            return;
        };
        // One replica refused: the whole group fails; the leader falls
        // back to direct replication (§III-A, "Faulty replica").
        if let Some(group) = self.drop_group(gid, ops) {
            Self::send_cm(
                ops,
                group.leader_ip,
                &CmMessage::ConnectReject {
                    handshake_id: group.leader_handshake,
                    reason: RejectReason::NotAuthorized,
                },
            );
        }
    }

    fn finish_reconfig(&mut self, gid: u16, ops: &mut dyn ControlOps) {
        let Some(group) = self.groups.get_mut(&gid) else {
            return;
        };
        group.active = true;
        self.stats.reconfigs += 1;
        // A cluster follows one leader and a leader drives one group: the
        // group that just went active supersedes every older group of its
        // cluster — led by its leader or by one of its replicas, or with
        // its leader among the replicas — which had kept serving until
        // this instant. Other clusters' groups share no member with it.
        let group = &self.groups[&gid];
        let is_member =
            |ip: Ipv4Addr| ip == group.leader_ip || group.replicas.iter().any(|r| r.ip == ip);
        let superseded: Vec<u16> = (self.groups.range(..gid))
            .filter(|(_, old)| {
                is_member(old.leader_ip) || old.replicas.iter().any(|r| r.ip == group.leader_ip)
            })
            .map(|(&old, _)| old)
            .collect();
        for old in superseded {
            self.drop_group(old, ops);
            self.stats.groups_retired += 1;
        }
        let group = &self.groups[&gid];
        let min_len = group.replicas.iter().map(|r| r.len).min().unwrap_or(0);
        let advert = RegionAdvert {
            va: 0, // virtual: rebased per replica during scatter (§IV-A)
            rkey: group.virt_rkey,
            len: min_len,
        };
        let reply = CmMessage::ConnectReply {
            handshake_id: group.leader_handshake,
            qpn: group.bcast_qpn,
            start_psn: Psn::new(0),
            private_data: advert.encode(),
        };
        let dst = group.leader_ip;
        Self::send_cm(ops, dst, &reply);
    }

    fn send_cm(ops: &mut dyn ControlOps, to_ip: Ipv4Addr, msg: &CmMessage) {
        let sw_ip = ops.switch_ip();
        ops.send_packet(RocePacket {
            src_mac: MacAddr::for_ip(sw_ip),
            dst_mac: MacAddr::for_ip(to_ip),
            src_ip: sw_ip,
            dst_ip: to_ip,
            udp_src_port: 0xC0FE,
            bth: rdma::Bth {
                opcode: Opcode::SendOnly,
                dest_qp: CM_QPN,
                psn: Psn::new(0),
                ack_req: false,
            },
            reth: None,
            aeth: None,
            payload: msg.encode(),
        });
    }

    // ------------------------------------------------------------------
    // Data plane: gather
    // ------------------------------------------------------------------

    /// Folds the per-replica credit registers to the group minimum,
    /// skipping replicas that have been silent for more than
    /// `stale_after` scatters — a crashed replica must not pin the
    /// group's credits at its dying value. Returns the minimum and how
    /// many replicas were skipped as stale.
    fn min_credits(group: &Group) -> (u32, u32) {
        let mut min = 31;
        let mut skipped = 0;
        for i in 0..group.replicas.len() {
            let silent_for = group
                .scatter_count
                .wrapping_sub(group.last_ack_scatter.read(i));
            if silent_for > CREDIT_STALE_SCATTERS {
                skipped += 1;
                continue;
            }
            min = alu_min(min, group.credits.read(i));
        }
        (min, skipped)
    }

    /// The header deltas that move an ACK/NAK from replica space into
    /// leader space.
    fn rewrite_for_leader(group: &Group, endpoint: u8, sw_ip: Ipv4Addr, psn: Psn) -> RewriteSet {
        let replica = &group.replicas[endpoint as usize];
        let dist = replica.start_psn_out.distance_to(psn);
        RewriteSet {
            psn: Some(group.leader_start_psn.advance(dist)),
            dest_qp: Some(group.leader_qpn),
            src_ip: Some(sw_ip),
            src_mac: Some(MacAddr::for_ip(sw_ip)),
            dst_ip: Some(group.leader_ip),
            dst_mac: Some(MacAddr::for_ip(group.leader_ip)),
            ..RewriteSet::default()
        }
    }

    /// The gather decision for one ACK — the one register machine both
    /// [`AckDropStage`]s run, from whichever hook the stage names. `None`
    /// absorbs the ACK in the switch (not the `f`-th, stale, duplicate, or
    /// the group is gone); `Some` forwards it to the leader with these
    /// header deltas. `now` comes from the pipeline metadata — the gather
    /// registers themselves have no clock.
    fn gather(
        &mut self,
        psn: Psn,
        aeth: Aeth,
        gid: u16,
        endpoint: u8,
        now: SimTime,
        ops: &dyn PipelineOps,
    ) -> Option<RewriteSet> {
        let group = self.groups.get_mut(&gid).filter(|g| g.active)?;
        let (sw_ip, tracer) = (ops.switch_ip(), ops.tracer());
        match aeth.kind {
            AethKind::Nak(_) => {
                // NAKs pass through immediately (§III-A).
                let rw = Self::rewrite_for_leader(group, endpoint, sw_ip, psn);
                group.stats.naks_forwarded += 1;
                self.stats.naks_forwarded += 1;
                tracer.emit(now, || TraceEvent::NakForward {
                    psn: u64::from(rw.psn.expect("leader PSN set").value()),
                });
                Some(rw)
            }
            AethKind::Ack { credits } => {
                // Track this replica's most recent credit count — stored
                // per group and per replica, *not* per PSN, so the slowest
                // replica is never ignored (§IV-C) — and stamp its
                // liveness clock: an ACK of any PSN proves the replica is
                // there.
                group.credits.write(endpoint as usize, u32::from(credits));
                group
                    .last_ack_scatter
                    .write(endpoint as usize, group.scatter_count);
                let replica = &group.replicas[endpoint as usize];
                let dist = replica.start_psn_out.distance_to(psn);
                let idx = dist as usize; // RegisterArray wraps the index
                if group.num_recv_psn.read(idx) != dist {
                    // The slot has wrapped to a newer write (or was never
                    // scattered): a late ACK from the old occupant must
                    // not count towards the new one's quorum.
                    group.stats.acks_stale += 1;
                    self.stats.stale_acks_dropped += 1;
                    return None;
                }
                // One bit per endpoint: `GroupSpec::decode` admits no group
                // of more than `MAX_REPLICAS` = 32.
                let bit = 1u32 << endpoint;
                let seen = group.num_recv.read(idx);
                if seen & bit != 0 {
                    // This replica already ACKed this PSN — a duplicate
                    // (retransmitting fabric) adds no new storage.
                    group.stats.acks_duplicate += 1;
                    self.stats.duplicate_acks_dropped += 1;
                    return None;
                }
                let now_seen = seen | bit;
                group.num_recv.write(idx, now_seen);
                let leader_psn = u64::from(group.leader_start_psn.advance(dist).value());
                if now_seen.count_ones() == group.f {
                    let reported = match self.cfg.credit_mode {
                        CreditMode::Minimum => {
                            let (min, skipped) = Self::min_credits(group);
                            if skipped > 0 {
                                self.stats.stale_credit_skips += 1;
                            }
                            min.min(31) as u8
                        }
                        CreditMode::Passthrough => credits,
                    };
                    let mut rw = Self::rewrite_for_leader(group, endpoint, sw_ip, psn);
                    rw.aeth = Some(Aeth {
                        kind: AethKind::Ack { credits: reported },
                        msn: aeth.msn,
                    });
                    group.stats.acks_forwarded += 1;
                    self.stats.acks_forwarded += 1;
                    tracer.emit(now, || TraceEvent::GatherAck {
                        psn: leader_psn,
                        endpoint: u64::from(endpoint),
                        distinct: u64::from(now_seen.count_ones()),
                        quorum: true,
                    });
                    if matches!(self.cfg.credit_mode, CreditMode::Minimum) {
                        tracer.emit(now, || TraceEvent::CreditClamp {
                            psn: leader_psn,
                            folded: u64::from(reported),
                            carried: u64::from(credits),
                        });
                    }
                    Some(rw)
                } else {
                    group.stats.acks_absorbed += 1;
                    self.stats.acks_absorbed += 1;
                    tracer.emit(now, || TraceEvent::GatherAck {
                        psn: leader_psn,
                        endpoint: u64::from(endpoint),
                        distinct: u64::from(now_seen.count_ones()),
                        quorum: false,
                    });
                    None
                }
            }
        }
    }
}

impl SwitchProgram for P4ceProgram {
    fn ingress(
        &mut self,
        hdr: &mut Headers<'_>,
        meta: IngressMeta,
        ops: &dyn PipelineOps,
    ) -> IngressVerdict {
        let sw_ip = ops.switch_ip();
        if hdr.dst_ip() != sw_ip {
            // Transit traffic (heartbeats, direct fallback connections):
            // plain L3 forwarding, nothing rewritten.
            return match ops.route(hdr.dst_ip()) {
                Some(port) => IngressVerdict::Unicast(port),
                None => IngressVerdict::Drop,
            };
        }
        if hdr.dest_qp() == CM_QPN {
            // New connections are rare: slow path (§IV-A).
            return IngressVerdict::ToCpu;
        }
        if hdr.opcode().is_write() {
            // Scatter: match the BCast queue pair.
            let Some(&gid) = self.bcast_table.lookup(&hdr.dest_qp().masked()) else {
                return IngressVerdict::Drop;
            };
            let Some(group) = self.groups.get_mut(&gid) else {
                return IngressVerdict::Drop;
            };
            if !group.active {
                return IngressVerdict::Drop;
            }
            // Reset NumRecv for this PSN before the copies fly (§IV-B)
            // and stamp the slot with the sequence number it now serves,
            // so late ACKs from the slot's previous occupant are
            // recognizably stale.
            let psn = hdr.psn();
            let dist = group.leader_start_psn.distance_to(psn);
            group.num_recv.write(dist as usize, 0);
            group.num_recv_psn.write(dist as usize, dist);
            group.scatter_count = group.scatter_count.wrapping_add(1);
            group.stats.scattered += 1;
            self.stats.scattered += 1;
            ops.tracer().emit(meta.now, || TraceEvent::Scatter {
                psn: u64::from(psn.value()),
                dist: u64::from(dist),
            });
            let mcast = group.mcast;
            // The planted cross-wiring bug, part 1: replicate through
            // the *partner* group's scatter template, so the copies leave
            // on the foreign replicas' ports (egress rewrites the
            // addressing to match — part 2).
            if meta.planted == Some(Planted::CrosswireGroups) {
                if let Some(other) = self
                    .groups
                    .iter()
                    .find(|&(&g, _)| g != gid)
                    .map(|(_, og)| og.mcast)
                {
                    return IngressVerdict::Multicast(other);
                }
            }
            return IngressVerdict::Multicast(mcast);
        }
        if hdr.opcode() != Opcode::Acknowledge {
            return IngressVerdict::Drop;
        }
        let Some(&(gid, endpoint)) = self.aggr_table.lookup(&hdr.dest_qp().masked()) else {
            return IngressVerdict::Drop;
        };
        // Final design: count (and usually drop) right here, in the
        // ingress of the replica-facing port — `n - f` of every `n` ACKs
        // die without costing the leader's egress parser anything. A
        // forwarded `f`-th ACK leaves re-addressed to the leader, so the
        // egress stage below no longer takes it for one of ours. In the
        // first-attempt layout every ACK rides to the leader's egress
        // untouched and the decision happens there.
        if self.cfg.ack_drop == AckDropStage::Ingress {
            let aeth = hdr.aeth().expect("ACK carries AETH");
            match self.gather(hdr.psn(), aeth, gid, endpoint, meta.now, ops) {
                Some(rw) => hdr.rewrite(rw),
                None => return IngressVerdict::Drop,
            }
        }
        match self.groups.get(&gid).and_then(|g| g.leader_port) {
            Some(port) => IngressVerdict::Unicast(port),
            None => IngressVerdict::Drop,
        }
    }

    fn egress(&mut self, hdr: &mut Headers<'_>, meta: EgressMeta, ops: &dyn PipelineOps) -> bool {
        let sw_ip = ops.switch_ip();
        if hdr.dst_ip() != sw_ip {
            // Transit traffic, and ACKs the ingress already moved into
            // leader space: nothing left to do.
            return true;
        }
        // Scattered write copies: rewrite per destination endpoint.
        if hdr.opcode().is_write() {
            let Some(&gid) = self.bcast_table.lookup(&hdr.dest_qp().masked()) else {
                return false;
            };
            let Some(group) = self.groups.get(&gid) else {
                return false;
            };
            let Some(replica) = group.replicas.get(meta.rid as usize) else {
                return false;
            };
            if !replica.established {
                return false;
            }
            // The planted cross-wiring bug, part 2: address the copy
            // with the *partner* group's replica at the same endpoint
            // index (ingress already replicated through the partner's
            // scatter template, so the copy is on that replica's port).
            // The PSN distance still comes from the real group's leader,
            // so the foreign replica accepts the write at an aligned
            // slot — one shard's entry lands in another shard's log.
            let addr = if meta.planted == Some(Planted::CrosswireGroups) {
                self.groups
                    .iter()
                    .find(|&(&g, _)| g != gid)
                    .and_then(|(_, og)| og.replicas.get(meta.rid as usize))
                    .filter(|r| r.established)
                    .unwrap_or(replica)
            } else {
                replica
            };
            let psn = hdr.psn();
            ops.tracer().emit(meta.now, || TraceEvent::ScatterCopy {
                psn: u64::from(psn.value()),
                rid: u64::from(meta.rid),
            });
            let dist = group.leader_start_psn.distance_to(psn);
            let reth = hdr.reth();
            hdr.rewrite(RewriteSet {
                // Addressing: the replica must see the switch as its peer.
                src_ip: Some(sw_ip),
                src_mac: Some(MacAddr::for_ip(sw_ip)),
                dst_ip: Some(addr.ip),
                dst_mac: Some(MacAddr::for_ip(addr.ip)),
                udp_src_port: Some(0xD000 | (meta.rid & 0x0fff)),
                // Transport: destination QP and PSN base are per replica.
                dest_qp: Some(addr.qpn),
                psn: Some(addr.start_psn_out.advance(dist)),
                // RDMA: rebase the virtual address and swap in the
                // replica's real key (the leader wrote against VA 0 +
                // offset). The add is the ASIC's: modular. An address the
                // leader pushed past the end of the space wraps, and the
                // replica's NIC refuses the out-of-range access.
                va: reth.map(|r| r.va.wrapping_add(addr.va)),
                rkey: reth.map(|_| addr.rkey),
                aeth: None,
            });
            return true;
        }
        // Ablation mode: ACKs dropped (or forwarded) at the leader's
        // egress.
        if hdr.opcode() == Opcode::Acknowledge {
            let Some(&(gid, endpoint)) = self.aggr_table.lookup(&hdr.dest_qp().masked()) else {
                return false;
            };
            let aeth = hdr.aeth().expect("ACK carries AETH");
            let forward = self.gather(hdr.psn(), aeth, gid, endpoint, meta.now, ops);
            return forward.map(|rw| hdr.rewrite(rw)).is_some();
        }
        true
    }

    fn on_cpu_packet(&mut self, pkt: RocePacket, ops: &mut dyn ControlOps) {
        let Ok(msg) = CmMessage::decode(&pkt.payload) else {
            return;
        };
        match msg {
            CmMessage::ConnectRequest {
                handshake_id,
                qpn,
                start_psn,
                private_data,
            } => self.handle_leader_request(&pkt, handshake_id, qpn, start_psn, &private_data, ops),
            CmMessage::ConnectReply {
                handshake_id,
                qpn,
                start_psn,
                private_data,
            } => self.handle_replica_reply(&pkt, handshake_id, qpn, start_psn, &private_data, ops),
            CmMessage::ConnectReject { handshake_id, .. } => {
                self.handle_replica_reject(handshake_id, ops)
            }
            CmMessage::ReadyToUse { .. } => {
                // The leader's final handshake step; the data plane is
                // already active by the time the reply was sent.
            }
        }
    }

    fn on_timer(&mut self, token: u64, ops: &mut dyn ControlOps) {
        if token & CTRL_RECONFIG != 0 {
            let gid = (token & 0xffff) as u16;
            self.finish_reconfig(gid, ops);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma::Aeth;

    const SW_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);
    const LEADER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    /// A control plane that only records what the program sends.
    struct RecordingOps {
        sent: Vec<RocePacket>,
    }
    impl ControlOps for RecordingOps {
        fn now(&self) -> netsim::SimTime {
            netsim::SimTime::ZERO
        }
        fn switch_ip(&self) -> Ipv4Addr {
            SW_IP
        }
        fn route(&self, _ip: Ipv4Addr) -> Option<PortId> {
            Some(PortId::from_index(0))
        }
        fn send_packet(&mut self, pkt: RocePacket) {
            self.sent.push(pkt);
        }
        fn set_timer(&mut self, _after: netsim::SimDuration, _token: u64) {}
        fn set_mcast_group(&mut self, _gid: MulticastGroupId, _m: Vec<tofino::McastMember>) {}
        fn remove_mcast_group(&mut self, _gid: MulticastGroupId) {}
    }

    #[test]
    fn group_id_exhaustion_rejects_instead_of_wrapping() {
        let mut p = P4ceProgram::new(P4ceSwitchConfig::default());
        p.next_gid = u16::MAX - 2;
        let mut ops = RecordingOps { sent: Vec::new() };
        let request = ack_from(0, 0, 0); // only its source address is read
        let spec = GroupSpec {
            f: 1,
            replicas: vec![Ipv4Addr::new(10, 0, 0, 2)],
        }
        .encode();
        let mut rejects = Vec::new();
        for handshake_id in 1..=4u64 {
            ops.sent.clear();
            p.handle_leader_request(
                &request,
                handshake_id,
                Qpn(0x50),
                Psn::new(0),
                &spec,
                &mut ops,
            );
            let reply = CmMessage::decode(&ops.sent[0].payload).expect("CM message");
            rejects.push(matches!(
                reply,
                CmMessage::ConnectReject {
                    handshake_id: h,
                    reason: RejectReason::NoResources,
                } if h == handshake_id
            ));
        }
        // Two ids were left; the third and fourth requests are refused and
        // the live groups keep their state.
        assert_eq!(rejects, vec![false, false, true, true]);
        assert_eq!(p.stats.gid_exhausted, 2);
        assert_eq!(p.stats.groups_created, 2);
        let gids: Vec<u16> = p.groups.keys().copied().collect();
        assert_eq!(gids, vec![u16::MAX - 2, u16::MAX - 1]);
    }

    /// `leader` asks for a group (handshake `handshake_id`) of `replicas`.
    fn request(
        p: &mut P4ceProgram,
        ops: &mut RecordingOps,
        leader: Ipv4Addr,
        handshake_id: u64,
        replicas: Vec<Ipv4Addr>,
    ) {
        let mut from_leader = ack_from(0, 0, 0); // only its source address is read
        from_leader.src_ip = leader;
        let private = GroupSpec { f: 1, replicas }.encode();
        p.handle_leader_request(
            &from_leader,
            handshake_id,
            Qpn(0x50),
            Psn::new(0),
            &private,
            ops,
        );
    }

    /// Replica `idx` of group `gid` answers its join.
    fn answer(p: &mut P4ceProgram, ops: &mut RecordingOps, gid: u16, idx: u8) {
        let advert = RegionAdvert {
            va: 0x1000,
            rkey: RKey(7),
            len: 1 << 20,
        };
        let join_id = (u64::from(gid) << 16) | u64::from(idx) | (1 << 56);
        let reply = ack_from(idx, 0, 0); // only its source address is read
        p.handle_replica_reply(
            &reply,
            join_id,
            Qpn(0x200),
            Psn::new(0),
            &advert.encode(),
            ops,
        );
    }

    #[test]
    fn a_superseded_group_forgets_its_unanswered_joins() {
        let mut p = P4ceProgram::new(P4ceSwitchConfig::default());
        let mut ops = RecordingOps { sent: Vec::new() };
        let replicas = |n: u8| (0..n).map(|i| Ipv4Addr::new(10, 0, 0, 2 + i)).collect();
        // Group 1 asks two replicas to join; the second never answers.
        request(&mut p, &mut ops, LEADER_IP, 1, replicas(2));
        answer(&mut p, &mut ops, 1, 0);
        // The leader's next group goes active and supersedes group 1.
        request(&mut p, &mut ops, LEADER_IP, 2, replicas(1));
        answer(&mut p, &mut ops, 2, 0);
        p.finish_reconfig(2, &mut ops);
        assert_eq!(p.group_ids(), [2]);
        assert_eq!(p.stats.groups_retired, 1);
        assert!(
            p.fanout_handshakes.values().all(|&(gid, _)| gid != 1),
            "a dropped group's join outlived it: {:?}",
            p.fanout_handshakes
        );
    }

    #[test]
    fn a_deposed_leaders_group_goes_when_its_successors_goes_active() {
        let mut p = P4ceProgram::new(P4ceSwitchConfig::default());
        let mut ops = RecordingOps { sent: Vec::new() };
        let member = |i: u8| Ipv4Addr::new(10, 0, 0, 1 + i);
        // Leadership of one 3-member cluster goes 0 → 1 → 2; each leader's
        // group has the other two as replicas.
        for (gid, leader) in [(1u16, 0u8), (2, 1), (3, 2)] {
            let others = (0..3).filter(|&i| i != leader).map(member).collect();
            request(&mut p, &mut ops, member(leader), u64::from(gid), others);
            answer(&mut p, &mut ops, gid, 0);
            answer(&mut p, &mut ops, gid, 1);
            p.finish_reconfig(gid, &mut ops);
        }
        assert_eq!(p.group_ids(), [3]);
        assert_eq!(p.gid_of_leader(member(2)), Some(3));
        assert_eq!((p.bcast_table.len(), p.aggr_table.len()), (1, 2));
        assert_eq!(p.stats.groups_retired, 2);
        // Another cluster's group behind the same switch stays.
        let other = |i: u8| Ipv4Addr::new(10, 0, 1, 1 + i);
        request(&mut p, &mut ops, other(0), 4, vec![other(1), other(2)]);
        answer(&mut p, &mut ops, 4, 0);
        answer(&mut p, &mut ops, 4, 1);
        p.finish_reconfig(4, &mut ops);
        assert_eq!(p.group_ids(), [3, 4]);
    }

    #[test]
    fn virtual_keys_and_start_psns_follow_the_pinned_draw_sequence() {
        // Three one-replica groups on a fresh program draw key, PSN, key,
        // PSN, key, PSN from the one LCG; the literals are what the
        // program produced before the step had a helper of its own.
        let mut p = P4ceProgram::new(P4ceSwitchConfig::default());
        let mut ops = RecordingOps { sent: Vec::new() };
        let request = ack_from(0, 0, 0); // only its source address is read
        let spec = GroupSpec {
            f: 1,
            replicas: vec![Ipv4Addr::new(10, 0, 0, 2)],
        }
        .encode();
        for handshake_id in 1..=3u64 {
            p.handle_leader_request(
                &request,
                handshake_id,
                Qpn(0x50),
                Psn::new(0),
                &spec,
                &mut ops,
            );
        }
        let drawn: Vec<(u32, u32)> = (p.groups.values())
            .map(|g| (g.virt_rkey.0, g.replicas[0].start_psn_out.value()))
            .collect();
        assert_eq!(
            drawn,
            vec![
                (4_082_132_447, 5_832_747),
                (2_888_029_571, 16_450_492),
                (3_716_505_517, 7_733_844)
            ]
        );
    }

    /// A program with one active group (`gid` 1) of `n` replicas needing
    /// `f` positive ACKs, all PSN bases at zero for readable tests.
    fn active_group(f: u32, n: usize) -> P4ceProgram {
        let mut p = P4ceProgram::new(P4ceSwitchConfig::default());
        let replicas: Vec<ReplicaConn> = (0..n)
            .map(|i| ReplicaConn {
                ip: Ipv4Addr::new(10, 0, 0, 2 + i as u8),
                port: Some(PortId::from_index(1 + i as u32)),
                qpn: Qpn(0x200 + i as u32),
                aggr_qpn: Qpn(0x300 + i as u32),
                start_psn_out: Psn::new(0),
                va: 0x1000,
                rkey: RKey(7),
                len: 1 << 20,
                established: true,
            })
            .collect();
        let mut credits = RegisterArray::new("credits.test", n);
        p.bcast_table.insert(0x51, 1).expect("table space");
        for i in 0..n {
            credits.write(i, 31);
            p.aggr_table
                .insert(0x300 + i as u32, (1, i as u8))
                .expect("table space");
        }
        p.groups.insert(
            1,
            Group {
                mcast: MulticastGroupId(1),
                f,
                leader_ip: LEADER_IP,
                leader_port: Some(PortId::from_index(0)),
                leader_qpn: Qpn(0x50),
                leader_start_psn: Psn::new(0),
                bcast_qpn: Qpn(0x51),
                virt_rkey: RKey(9),
                replicas,
                num_recv: RegisterArray::new("numrecv.test", NUMRECV_WINDOW),
                num_recv_psn: RegisterArray::new("numrecv_psn.test", NUMRECV_WINDOW),
                credits,
                last_ack_scatter: RegisterArray::new("lastack.test", n),
                scatter_count: 0,
                active: true,
                leader_handshake: 0,
                pending_replies: 0,
                stats: GroupStats::default(),
            },
        );
        p
    }

    /// Marks sequence number `dist` as scattered (what the ingress write
    /// path does before the copies fly).
    fn scatter(p: &mut P4ceProgram, dist: u32) {
        let g = p.groups.get_mut(&1).expect("group");
        g.num_recv.write(dist as usize, 0);
        g.num_recv_psn.write(dist as usize, dist);
        g.scatter_count = g.scatter_count.wrapping_add(1);
    }

    fn ack_from(endpoint: u8, dist: u32, credits: u8) -> RocePacket {
        RocePacket {
            src_mac: MacAddr::for_ip(Ipv4Addr::new(10, 0, 0, 2 + endpoint)),
            dst_mac: MacAddr::for_ip(SW_IP),
            src_ip: Ipv4Addr::new(10, 0, 0, 2 + endpoint),
            dst_ip: SW_IP,
            udp_src_port: 0xD00,
            bth: rdma::Bth {
                opcode: Opcode::Acknowledge,
                dest_qp: Qpn(0x300 + u32::from(endpoint)),
                psn: Psn::new(dist),
                ack_req: false,
            },
            reth: None,
            aeth: Some(Aeth {
                kind: AethKind::Ack { credits },
                msn: dist,
            }),
            payload: bytes::Bytes::new(),
        }
    }

    /// The data plane's view of the switch: every address routes to
    /// port 0, tracing off.
    #[derive(Default)]
    struct StageOps(netsim::Tracer);
    impl PipelineOps for StageOps {
        fn route(&self, _ip: Ipv4Addr) -> Option<PortId> {
            Some(PortId::from_index(0))
        }
        fn switch_ip(&self) -> Ipv4Addr {
            SW_IP
        }
        fn tracer(&self) -> &netsim::Tracer {
            &self.0
        }
    }

    /// Runs the one gather on `ack`, as either hook would.
    fn gather(p: &mut P4ceProgram, ack: &RocePacket, endpoint: u8) -> Option<RewriteSet> {
        let (aeth, ops) = (ack.aeth.expect("ack"), StageOps::default());
        p.gather(ack.bth.psn, aeth, 1, endpoint, SimTime::ZERO, &ops)
    }

    fn num_recv(p: &P4ceProgram, dist: u32) -> u32 {
        p.groups[&1].num_recv.read(dist as usize)
    }

    #[test]
    fn quorum_counts_distinct_replicas_not_raw_acks() {
        let mut p = active_group(2, 4);
        scatter(&mut p, 0);
        // The same replica ACKing twice (a duplicating fabric) must not
        // complete the f = 2 quorum on its own.
        assert_eq!(gather(&mut p, &ack_from(0, 0, 31), 0), None);
        assert_eq!(gather(&mut p, &ack_from(0, 0, 31), 0), None);
        assert_eq!(p.stats.duplicate_acks_dropped, 1);
        assert_eq!(p.stats.acks_forwarded, 0);
        // A second, distinct replica completes it.
        let rw = gather(&mut p, &ack_from(1, 0, 31), 1).expect("f-th ACK forwarded");
        assert_eq!(p.stats.acks_forwarded, 1);
        assert_eq!(rw.dst_ip, Some(LEADER_IP), "forwarded ACK moved to leader");
        assert_eq!(rw.dest_qp, Some(Qpn(0x50)));
    }

    #[test]
    fn stale_ack_from_wrapped_slot_is_absorbed() {
        let mut p = active_group(1, 2);
        let window = NUMRECV_WINDOW as u32;
        // Slot 0 now serves sequence number `window` (one full wrap).
        scatter(&mut p, 0);
        scatter(&mut p, window);
        // A late ACK for the slot's previous occupant (dist 0) aliases to
        // the same slot but must not count for sequence `window`.
        assert_eq!(gather(&mut p, &ack_from(0, 0, 31), 0), None);
        assert_eq!(p.stats.stale_acks_dropped, 1);
        assert_eq!(p.stats.acks_forwarded, 0);
        // The slot still completes normally for its live occupant.
        assert!(gather(&mut p, &ack_from(1, window, 31), 1).is_some());
    }

    #[test]
    fn silent_replica_stops_pinning_the_credit_fold() {
        let mut p = active_group(1, 3);
        let stale_after = CREDIT_STALE_SCATTERS;
        let reported = |rw: RewriteSet| match rw.aeth.expect("credits folded into the AETH").kind {
            AethKind::Ack { credits } => credits,
            k => panic!("expected ack, got {k:?}"),
        };
        // Replica 2 dies with zero credits on record.
        {
            let g = p.groups.get_mut(&1).expect("group");
            g.credits.write(2, 0);
        }
        // While it is within the staleness window its zero still counts
        // (it might just be slow — §IV-C's whole point).
        scatter(&mut p, 0);
        let early = gather(&mut p, &ack_from(0, 0, 20), 0).expect("forwarded");
        assert_eq!(reported(early), 0, "dead weight still counted");
        // After `stale_after` further scatters with no ACK from replica 2,
        // the fold ignores it and reports the slowest *live* replica.
        for d in 1..=stale_after + 1 {
            scatter(&mut p, d);
        }
        let late = gather(&mut p, &ack_from(0, stale_after + 1, 20), 0).expect("forwarded");
        assert_eq!(
            reported(late),
            20,
            "silent replica excluded from the minimum"
        );
        assert!(p.stats.stale_credit_skips >= 1);
    }

    #[test]
    fn nak_passthrough_survives_hardening() {
        let mut p = active_group(2, 3);
        scatter(&mut p, 0);
        let mut nak = ack_from(0, 0, 31);
        nak.aeth = Some(Aeth {
            kind: AethKind::Nak(rdma::NakCode::PsnSequenceError),
            msn: 0,
        });
        let rw = gather(&mut p, &nak, 0).expect("NAKs always pass through");
        assert_eq!(rw.aeth, None, "the NAK's own AETH rides along");
        assert_eq!(p.stats.naks_forwarded, 1);
    }

    fn egress_meta() -> EgressMeta {
        EgressMeta {
            egress_port: PortId::from_index(0),
            rid: 0,
            now: SimTime::ZERO,
            planted: None,
        }
    }

    /// Hazard of the one pipeline: in `Ingress` mode the forwarded `f`-th
    /// ACK reaches `egress` too. It arrives there re-addressed to the
    /// leader, so the egress must pass it through — gathering it a second
    /// time would bump NumRecv and the counters twice.
    #[test]
    fn ingress_gathered_ack_passes_egress_ungathered() {
        let mut p = active_group(1, 2);
        scatter(&mut p, 0);
        let frame = ack_from(0, 0, 31).to_frame();
        let view = RocePacket::parse_view(&frame).expect("parse");
        let mut rw = RewriteSet::default();
        let meta = IngressMeta {
            ingress_port: PortId::from_index(1),
            now: SimTime::ZERO,
            planted: None,
        };
        let ops = StageOps::default();
        let verdict = p.ingress(&mut Headers::new(view, &mut rw), meta, &ops);
        assert_eq!(verdict, IngressVerdict::Unicast(PortId::from_index(0)));
        assert_eq!(rw.dst_ip, Some(LEADER_IP));
        let (stats, seen) = (p.groups[&1].stats, num_recv(&p, 0));
        assert_eq!((stats.acks_forwarded, seen), (1, 0b01));

        let before = rw;
        assert!(p.egress(&mut Headers::new(view, &mut rw), egress_meta(), &ops));
        assert_eq!(rw, before, "egress adds nothing");
        assert_eq!(p.stats.acks_forwarded, 1);
        assert_eq!(p.groups[&1].stats, stats, "group counters bumped once");
        assert_eq!(num_recv(&p, 0), seen, "NumRecv untouched");
        assert_eq!(p.stats.duplicate_acks_dropped, 0);
    }

    /// A write to the BCast QP whose VA sits at the top of the address
    /// space must not take the switch down: the rebase is a modular add,
    /// as on the ASIC, and the replica's NIC refuses the wrapped address.
    #[test]
    fn scatter_rebases_the_va_modulo_2_64() {
        let mut p = active_group(1, 2);
        let write = RocePacket {
            bth: rdma::Bth {
                opcode: Opcode::WriteOnly,
                dest_qp: Qpn(0x51),
                psn: Psn::new(0),
                ack_req: true,
            },
            reth: Some(rdma::Reth {
                va: u64::MAX - 8,
                rkey: RKey(9),
                dma_len: 4,
            }),
            aeth: None,
            payload: bytes::Bytes::from(vec![1u8; 4]),
            ..ack_from(0, 0, 0)
        };
        let frame = write.to_frame();
        let view = RocePacket::parse_view(&frame).expect("parse");
        let mut rw = RewriteSet::default();
        let kept = p.egress(
            &mut Headers::new(view, &mut rw),
            egress_meta(),
            &StageOps::default(),
        );
        assert!(kept, "the copy is rewritten, not dropped");
        assert_eq!(rw.va, Some((u64::MAX - 8).wrapping_add(0x1000)));
        assert_eq!(rw.rkey, Some(RKey(7)));
        assert_eq!(rw.dst_ip, Some(Ipv4Addr::new(10, 0, 0, 2)));
    }
}
