//! The member: Mu's decision protocol, defined once, over a pluggable
//! communication module.
//!
//! Every member runs this same state machine (§III):
//!
//! * it exposes a **heartbeat counter** (RDMA-readable by everyone) and a
//!   **log region** (writable only by the current leader, enforced with
//!   RDMA permissions);
//! * it reads every peer's heartbeat each period and feeds a failure
//!   detector; the live member with the lowest id is the leader;
//! * view changes re-fence the log: a replica revokes the old epoch's
//!   grants and installs the new leader's after the permission-change
//!   delay the paper measures at 0.9 ms (§V-E);
//! * the leader appends each value to its own log, hands it to its
//!   [`Comm`], and applies the workload's pacing to the decisions that
//!   come back.
//!
//! *How* a value reaches `f` replicas is the [`Comm`]'s business — the
//! seam the paper draws between decision and communication. `mu` fans
//! out over one queue pair per replica; `p4ce` writes once to the switch
//! and keeps the fan-out as its fall-back. [`Core`] is the decision
//! half, [`Member`] pairs it with a `Comm`.

use bytes::Bytes;
use netsim::{Planted, PortId, SimDuration, SimTime, TraceEvent};
use rdma::{
    CmEvent, Completion, CompletionStatus, HostOps, Permissions, Psn, Qpn, RdmaApp, RegionAdvert,
    RegionHandle, RejectReason, WrId,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::net::Ipv4Addr;
use std::ops::{Deref, DerefMut, Range};

use crate::heartbeat::{heartbeat_word, reported_position};
use crate::{
    ArrivalClock, ClusterConfig, FailureDetector, HeartbeatCounter, LogError, LogReader, LogWriter,
    MemberEvent, MemberId, MemberStats, StateMachine, ViewTracker, WorkloadMode, WorkloadSpec,
};

// Connection kinds, carried as the first private-data byte (a P4CE
// switch's group join uses 3).
const KIND_HEARTBEAT: u8 = 1;
/// First private-data byte of a leader's direct replication connection.
pub const KIND_REPLICATION: u8 = 2;

// Application timer classes (within the 56-bit app token space). One
// numbering for the member and every comm, so no two users collide.
const T_HEARTBEAT: u64 = 1 << 48;
const T_ARRIVAL: u64 = 2 << 48;
const T_DEFER_ACCEPT: u64 = 3 << 48;
/// Comm timer: retry a refused replication connection (data = peer id).
pub const T_RECONNECT: u64 = 4 << 48;
const T_PATH_RECOVER: u64 = 5 << 48;
/// Comm timer: the re-acceleration probe of a switch-backed comm.
pub const T_REACCEL: u64 = 6 << 48;
/// Mask selecting a timer token's class.
pub const T_CLASS_MASK: u64 = 0xff << 48;
/// Mask selecting a timer token's payload.
pub const T_DATA_MASK: u64 = !T_CLASS_MASK & ((1 << 56) - 1);

// Work-request id classes, likewise one numbering.
const WR_HB: u64 = 1 << 56;
/// A log write to an in-network group (low 48 bits = seq).
pub const WR_SWITCH: u64 = 2 << 56;
/// A log write to one replica (bits 48..56 = peer id, low 48 = seq).
pub const WR_DIRECT: u64 = 3 << 56;
/// A state-transfer write; not part of any decision.
pub const WR_CATCHUP: u64 = 4 << 56;
/// Mask selecting a work-request id's class.
pub const WR_CLASS_MASK: u64 = 0xff << 56;
/// Mask selecting the sequence number of a log write's id.
pub const WR_SEQ_MASK: u64 = 0xffff_ffff_ffff;

// The paper's failure-detection and fail-over timing (§V-E).
/// Heartbeat period (100 µs in the paper).
pub const HEARTBEAT_PERIOD: SimDuration = SimDuration::from_micros(100);
/// Unchanged heartbeat reads before a member is suspected dead.
pub const FAILURE_THRESHOLD: u32 = 5;
/// How long a writer waits on a replica whose position does not move
/// before it stops waiting: the failure detector's window.
const STUCK_WINDOW: SimDuration =
    SimDuration::from_nanos(HEARTBEAT_PERIOD.as_nanos() * FAILURE_THRESHOLD as u64);
/// Time a permission reconfiguration takes to apply (the 0.9 ms the
/// paper measures for a Mu leader change).
pub const PERMISSION_CHANGE_DELAY: SimDuration = SimDuration::from_micros(900);
/// Route-update plus reconnection penalty after a path fail-over (the
/// bulk of the paper's 60 ms switch-crash recovery).
pub const PATH_FAILOVER_DELAY: SimDuration = SimDuration::from_millis(55);

// Link management, in heartbeat ticks. A member's heartbeat links and a
// fan-out's replication links redial on one schedule.
/// Ticks to wait before feeding the failure detector after start-up or a
/// path fail-over — covers link establishment (no information is not a
/// stall).
const DETECTOR_GRACE_TICKS: u32 = 10;
/// Ticks a dead link waits before redialling.
pub const LINK_REDIAL_TICKS: u32 = 10;
/// Ticks after which a handshake that never completed (its packets died
/// with the fabric) is abandoned.
pub const LINK_ABANDON_TICKS: u32 = 30;
/// Back-off an abandoned handshake restarts from: it redials
/// `LINK_REDIAL_TICKS - LINK_RETRY_SOON_TICKS` ticks later, not a full
/// redial period.
pub const LINK_RETRY_SOON_TICKS: u32 = 8;

/// Configuration of one member, whatever its comm.
#[derive(Debug, Clone)]
pub struct MemberConfig {
    /// The cluster this member belongs to.
    pub cluster: ClusterConfig,
    /// This member's identity.
    pub id: MemberId,
    /// The client workload this member drives *when it is the leader*.
    pub workload: Option<WorkloadSpec>,
    /// A backup fabric port, if the host is multi-homed (switch-crash
    /// fail-over, §V-E).
    pub backup_port: Option<PortId>,
}

impl MemberConfig {
    /// A member of `cluster` with id `id` and no workload.
    pub fn new(cluster: ClusterConfig, id: MemberId) -> Self {
        MemberConfig {
            cluster,
            id,
            workload: None,
            backup_port: None,
        }
    }
}

/// The communication half of a leader: how an appended log entry
/// reaches `f` replicas and how their acknowledgements come back.
///
/// The [`Core`] calls these hooks; a comm calls back into the core's
/// public methods ([`Core::acknowledge`], [`Core::resume`], …), passing
/// itself along so a decision can immediately post the next value.
/// Replica-side behaviour is not here: accepting a leader, fencing the
/// log and applying entries are the same for every comm.
pub trait Comm: Sized + 'static {
    /// This member just took over leadership: start building a path to
    /// the live replicas.
    fn start(&mut self, core: &mut Core, ops: &mut HostOps<'_, '_>);

    /// This member no longer leads: the path is void.
    fn stop(&mut self);

    /// Tear the path down and build a fresh one (Table IV, "new
    /// communication group").
    fn rebuild(&mut self, core: &mut Core, ops: &mut HostOps<'_, '_>);

    /// `true` while a posted value can reach `f` replicas.
    fn ready(&self, core: &Core) -> bool;

    /// May the generated workload start? Mu holds it until every live
    /// replica is wired, so early entries reach everyone.
    fn workload_gate(&self, core: &Core) -> bool {
        self.ready(core)
    }

    /// Replicates the entry `bytes`, already appended at log offset
    /// `at`. Without a path the entry simply stays pending; it is
    /// re-posted when one comes up.
    fn post(&mut self, view: u64, seq: u64, at: usize, bytes: Bytes, ops: &mut HostOps<'_, '_>);

    /// A heartbeat period passed without a leadership change while this
    /// member leads: react to replicas that died or came back.
    fn on_heartbeat(&mut self, core: &mut Core, ops: &mut HostOps<'_, '_>);

    /// The fabric died under this member: destroy everything bound to it.
    fn on_path_failover(&mut self, ops: &mut HostOps<'_, '_>);

    /// Routes re-converged on the backup fabric and this member leads.
    fn on_path_recovered(&mut self, core: &mut Core, ops: &mut HostOps<'_, '_>) {
        let _ = (core, ops);
    }

    /// A handshake that is not a heartbeat link's completed.
    fn on_connected(
        &mut self,
        core: &mut Core,
        handshake_id: u64,
        qpn: Qpn,
        private_data: &[u8],
        ops: &mut HostOps<'_, '_>,
    );

    /// A handshake that is not a heartbeat link's was refused.
    fn on_rejected(&mut self, core: &mut Core, handshake_id: u64, ops: &mut HostOps<'_, '_>);

    /// A work request that is not a heartbeat read finished.
    fn on_completion(&mut self, core: &mut Core, c: &Completion, ops: &mut HostOps<'_, '_>);

    /// A negative acknowledgement arrived on `qpn`.
    fn on_nak(&mut self, core: &mut Core, qpn: Qpn, ops: &mut HostOps<'_, '_>) {
        let _ = (core, qpn, ops);
    }

    /// A timer of a class the core does not own fired.
    fn on_timer(&mut self, core: &mut Core, token: u64, ops: &mut HostOps<'_, '_>) {
        let _ = (core, token, ops);
    }

    /// If `private_data` is a connect request made *on behalf of* a
    /// leader (a switch joining a replica to a group), that leader.
    fn join_leader(private_data: &[u8]) -> Option<Ipv4Addr> {
        let _ = private_data;
        None
    }

    /// `true` while replication runs in-network.
    fn is_accelerated(&self) -> bool {
        false
    }
}

/// State of a connection to one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// Never dialled.
    Idle,
    /// Handshake in flight.
    Connecting,
    /// Usable.
    Ready,
    /// Torn down or failed; redialled after a back-off.
    Dead,
}

#[derive(Debug)]
struct HbLink {
    state: LinkState,
    qpn: Option<Qpn>,
    advert: Option<RegionAdvert>,
    last_seen: u64,
    /// When a read first showed the reader position `last_seen` carries.
    head_since: SimTime,
    /// The reader position stood still through a detector window of the
    /// writer waiting on it: the peer missed an entry no one will send
    /// again, and holds the ring back no more until its position moves.
    stuck: bool,
    reconnect_backoff: u32,
}

#[derive(Debug)]
struct PendingDecision {
    acks: u32,
    arrived: SimTime,
    size: usize,
    /// Where the entry starts in the log's history (for re-replication
    /// when a path comes up, and as the floor of the ring).
    start: u64,
    len: usize,
}

#[derive(Debug, Clone)]
struct DeferredAccept {
    handshake_id: u64,
    from_ip: Ipv4Addr,
    from_qpn: Qpn,
    start_psn: Psn,
    /// The leader this connection serves (differs from `from_ip` for
    /// switch-originated joins).
    leader_ip: Ipv4Addr,
}

/// The decision half of a member: everything that does not depend on how
/// values travel.
pub struct Core {
    cfg: MemberConfig,
    // Regions.
    log_region: Option<RegionHandle>,
    hb_region: Option<RegionHandle>,
    hb_scratch: Option<RegionHandle>,
    // Decision protocol.
    counter: HeartbeatCounter,
    detector: FailureDetector,
    views: ViewTracker,
    writer: LogWriter,
    /// Follows the writer around the ring: the entries it walked are the
    /// entries applied, exactly once and in order.
    reader: LogReader,
    // Heartbeat links.
    hb_links: BTreeMap<MemberId, HbLink>,
    hb_handshakes: HashMap<u64, MemberId>,
    // Replica-side grant state for this epoch.
    deferred: HashMap<u64, DeferredAccept>,
    next_defer: u64,
    granted_ips: BTreeSet<Ipv4Addr>,
    view_writer_qpns: BTreeSet<u32>,
    epoch_leader: Option<Ipv4Addr>,
    // Leadership.
    i_am_leader: bool,
    first_decision_pending: bool,
    // Replication: appended, not yet decided.
    pending: BTreeMap<u64, PendingDecision>,
    /// Proposals waiting for a path (arrivals during an outage) or for
    /// room in the log ring, with when they arrived.
    parked: VecDeque<(SimTime, Bytes)>,
    /// Since when the writer has found no room in the ring, if it has
    /// not appended since.
    stalled_since: Option<SimTime>,
    // Workload.
    arrivals: Option<ArrivalClock>,
    workload_started: bool,
    payload_proto: Bytes,
    // Path fail-over.
    failed_over: bool,
    /// Heartbeat ticks to wait before feeding the failure detector —
    /// covers link establishment at start-up and after a path fail-over
    /// (no information is not a stall).
    detector_grace: u32,
    state_machine: Option<Box<dyn StateMachine>>,
    /// Measurements.
    pub stats: MemberStats,
}

impl Core {
    fn new(cfg: MemberConfig) -> Self {
        let peers: Vec<MemberId> = cfg
            .cluster
            .peers_of(cfg.id)
            .iter()
            .map(|&(id, _)| id)
            .collect();
        let detector = FailureDetector::new(FAILURE_THRESHOLD, peers.iter().copied());
        let hb_links = peers
            .iter()
            .map(|&id| {
                let link = HbLink {
                    state: LinkState::Idle,
                    qpn: None,
                    advert: None,
                    last_seen: 0,
                    head_since: SimTime::ZERO,
                    stuck: false,
                    reconnect_backoff: 0,
                };
                (id, link)
            })
            .collect();
        let log_size = cfg.cluster.log_size;
        Core {
            cfg,
            log_region: None,
            hb_region: None,
            hb_scratch: None,
            counter: HeartbeatCounter::new(),
            detector,
            views: ViewTracker::new(),
            writer: LogWriter::new(log_size),
            reader: LogReader::new(),
            hb_links,
            hb_handshakes: HashMap::new(),
            deferred: HashMap::new(),
            next_defer: 0,
            granted_ips: BTreeSet::new(),
            view_writer_qpns: BTreeSet::new(),
            epoch_leader: None,
            i_am_leader: false,
            first_decision_pending: false,
            pending: BTreeMap::new(),
            parked: VecDeque::new(),
            stalled_since: None,
            arrivals: None,
            workload_started: false,
            payload_proto: Bytes::new(),
            failed_over: false,
            detector_grace: DETECTOR_GRACE_TICKS,
            state_machine: None,
            stats: MemberStats::default(),
        }
    }

    /// Installs the replicated state machine: every decided entry that
    /// becomes visible in this member's log is applied to it, in order.
    pub fn set_state_machine(&mut self, sm: Box<dyn StateMachine>) {
        self.state_machine = Some(sm);
    }

    /// The installed state machine, for post-run inspection.
    pub fn state_machine(&self) -> Option<&dyn StateMachine> {
        self.state_machine.as_deref()
    }

    /// The cluster this member belongs to.
    pub fn cluster(&self) -> &ClusterConfig {
        &self.cfg.cluster
    }

    /// `true` while this member believes it leads (with or without a
    /// working replication path).
    pub fn is_leader(&self) -> bool {
        self.i_am_leader
    }

    /// The current view number.
    pub fn view(&self) -> u64 {
        self.views.view()
    }

    /// The leader this member currently believes in.
    pub fn believed_leader(&self) -> Option<MemberId> {
        self.views.leader()
    }

    /// `true` while the failure detector considers `peer` alive.
    pub fn is_alive(&self, peer: MemberId) -> bool {
        self.detector.is_alive(peer)
    }

    /// The peers the failure detector considers alive, in id order.
    pub fn live_peers(&self) -> Vec<(MemberId, Ipv4Addr)> {
        self.cfg
            .cluster
            .peers_of(self.cfg.id)
            .into_iter()
            .filter(|&(id, _)| self.detector.is_alive(id))
            .collect()
    }

    /// Handle of this member's replicated-log region, once registered.
    /// Invariant oracles pair it with [`rdma::Host::memory`] to audit who
    /// holds write permission on the log.
    pub fn log_region(&self) -> Option<RegionHandle> {
        self.log_region
    }

    /// The leader whose epoch the current log-write grants belong to
    /// (`None` before the first grant and after a fence).
    pub fn epoch_leader(&self) -> Option<Ipv4Addr> {
        self.epoch_leader
    }

    /// Sequence number the next applied entry must carry — applied
    /// entries are exactly `0..next_apply_seq`, in order.
    pub fn next_apply_seq(&self) -> u64 {
        self.reader.next_seq()
    }

    /// Clears the measurement window (latency samples and throughput),
    /// restarting it at `now`. Experiment harnesses call this after
    /// warm-up.
    pub fn reset_measurements(&mut self, now: SimTime) {
        self.stats.latency.clear();
        self.stats.throughput.reset(now);
    }

    /// Appended-but-undecided entries as `(seq, log offset, bytes)`, for
    /// a comm to re-replicate over a path that just came up.
    pub fn undecided(&self, ops: &HostOps<'_, '_>) -> Vec<(u64, usize, Bytes)> {
        let region = self.log_region.expect("registered");
        let capacity = self.cfg.cluster.log_size as u64;
        self.pending
            .iter()
            .map(|(&seq, p)| {
                let at = (p.start % capacity) as usize;
                let data = Bytes::copy_from_slice(ops.read_local(region, at, p.len));
                (seq, at, data)
            })
            .collect()
    }

    fn peer_index(&self, peer: MemberId) -> usize {
        self.cfg
            .cluster
            .members
            .iter()
            .position(|&(id, _)| id == peer)
            .expect("peer is part of the cluster")
    }

    fn believed_leader_ip(&self) -> Option<Ipv4Addr> {
        self.views.leader().map(|id| self.cfg.cluster.addr_of(id))
    }

    // ------------------------------------------------------------------
    // Heartbeats & views
    // ------------------------------------------------------------------

    fn heartbeat_tick<C: Comm>(&mut self, comm: &mut C, ops: &mut HostOps<'_, '_>) {
        // Publish our own liveness, and how far we have read the log.
        let value = heartbeat_word(self.counter.tick(), self.reader.position());
        if let Some(region) = self.hb_region {
            ops.write_local(region, 0, &value.to_be_bytes());
        }
        // Feed the detector with the freshest knowledge of every peer —
        // once the grace window for link establishment has passed.
        let peers: Vec<MemberId> = self.hb_links.keys().copied().collect();
        if self.detector_grace > 0 {
            self.detector_grace -= 1;
        } else {
            for peer in &peers {
                let last = self.hb_links[peer].last_seen;
                self.detector.observe(*peer, last);
            }
        }
        // Issue this round's reads and drive reconnects.
        for peer in peers {
            let link = self.hb_links.get_mut(&peer).expect("known peer");
            match link.state {
                LinkState::Ready => {
                    let (qpn, advert) = (
                        link.qpn.expect("ready link has a QP"),
                        link.advert.expect("ready link has an advert"),
                    );
                    let slot = self.peer_index(peer) * 8;
                    ops.post_read(
                        qpn,
                        WrId(WR_HB | u64::from(peer.0)),
                        advert.va,
                        advert.rkey,
                        8,
                        self.hb_scratch.expect("registered"),
                        slot,
                    );
                }
                LinkState::Idle => self.connect_hb(peer, ops),
                LinkState::Dead => {
                    link.reconnect_backoff += 1;
                    if link.reconnect_backoff >= LINK_REDIAL_TICKS {
                        link.reconnect_backoff = 0;
                        self.connect_hb(peer, ops);
                    }
                }
                LinkState::Connecting => {
                    // A handshake that never completes (its packets died
                    // with the fabric) must be abandoned and retried.
                    link.reconnect_backoff += 1;
                    if link.reconnect_backoff >= LINK_ABANDON_TICKS {
                        link.reconnect_backoff = LINK_RETRY_SOON_TICKS;
                        link.state = LinkState::Dead;
                    }
                }
            }
        }
        self.update_view(comm, ops);
        // A dead fabric looks like every peer dying at once: fail over to
        // the backup path if we have one.
        if !self.failed_over
            && self.cfg.backup_port.is_some()
            && self.detector.alive_peers().is_empty()
            && self.views.view() > 0
        {
            self.path_failover(comm, ops);
            return;
        }
        ops.set_app_timer(HEARTBEAT_PERIOD, T_HEARTBEAT);
    }

    fn connect_hb(&mut self, peer: MemberId, ops: &mut HostOps<'_, '_>) {
        let ip = self.cfg.cluster.addr_of(peer);
        let hs = ops.connect(ip, Bytes::from_static(&[KIND_HEARTBEAT]));
        self.hb_handshakes.insert(hs, peer);
        self.hb_links.get_mut(&peer).expect("known peer").state = LinkState::Connecting;
    }

    fn update_view<C: Comm>(&mut self, comm: &mut C, ops: &mut HostOps<'_, '_>) {
        let mut alive: BTreeSet<MemberId> = self.detector.alive_peers();
        alive.insert(self.cfg.id);
        let Some(change) = self.views.update(&alive) else {
            // Even without a leadership change, a leader may need to
            // exclude replicas that died.
            if self.i_am_leader {
                comm.on_heartbeat(self, ops);
            }
            return;
        };
        self.stats.event(
            ops.now(),
            MemberEvent::ViewChange {
                view: change.view,
                leader: change.new,
            },
        );
        ops.tracer().emit(ops.now(), || TraceEvent::ViewChange {
            view: change.view,
            leader: change.new.map_or(u64::MAX, |m| u64::from(m.0)),
        });
        let i_lead = change.new == Some(self.cfg.id);
        if i_lead && !self.i_am_leader {
            self.become_leader(comm, change.view, ops);
        } else if !i_lead {
            self.i_am_leader = false;
            comm.stop();
            // Re-fence the log for the new leader: the old grants die
            // now; the new ones are installed when the leader connects
            // (after the permission-change delay).
            self.fence_log(ops);
        }
    }

    /// Fences out the deposed leader's grants on this member's own log:
    /// revoke every granted IP, close the QPN allowlist, forget the
    /// epoch. Runs on every epoch boundary (view change while not
    /// leading, and taking over leadership) — unless the run carries the
    /// planted bug that forgets this fence ([`fence_forgotten`]).
    fn fence_log(&mut self, ops: &mut HostOps<'_, '_>) {
        if fence_forgotten(ops) {
            return;
        }
        if let Some(region) = self.log_region {
            for ip in std::mem::take(&mut self.granted_ips) {
                ops.revoke(region, ip);
            }
            self.view_writer_qpns.clear();
            ops.set_allowed_writer_qpns(region, Some(self.view_writer_qpns.clone()));
            self.epoch_leader = None;
        }
    }

    fn become_leader<C: Comm>(&mut self, comm: &mut C, view: u64, ops: &mut HostOps<'_, '_>) {
        self.i_am_leader = true;
        self.workload_started = false;
        self.first_decision_pending = true;
        // A new leader's own log is also an old-epoch log.
        self.fence_log(ops);
        self.stats
            .event(ops.now(), MemberEvent::BecameLeader { view });
        // Continue the log after the last entry we walked as a replica.
        self.writer.resume(&self.reader);
        self.stalled_since = None;
        comm.start(self, ops);
    }

    fn force_rebuild_comm<C: Comm>(&mut self, comm: &mut C, ops: &mut HostOps<'_, '_>) {
        if !self.i_am_leader {
            return;
        }
        self.stats.event(ops.now(), MemberEvent::CommRebuildStarted);
        comm.rebuild(self, ops);
    }

    fn path_failover<C: Comm>(&mut self, comm: &mut C, ops: &mut HostOps<'_, '_>) {
        self.failed_over = true;
        self.first_decision_pending = true;
        self.stats.event(ops.now(), MemberEvent::PathFailover);
        let backup = self.cfg.backup_port.expect("checked by caller");
        ops.set_active_port(backup);
        // Tear down everything bound to the dead path.
        for link in self.hb_links.values_mut() {
            if let Some(qpn) = link.qpn.take() {
                ops.destroy_qp(qpn);
            }
            link.state = LinkState::Dead;
            link.reconnect_backoff = 0;
        }
        comm.on_path_failover(ops);
        // Routes re-converge and connections re-establish after the
        // fail-over penalty; heartbeats resume then.
        ops.set_app_timer(PATH_FAILOVER_DELAY, T_PATH_RECOVER);
    }

    fn path_recovered<C: Comm>(&mut self, comm: &mut C, ops: &mut HostOps<'_, '_>) {
        // Routes have re-converged on the backup fabric: resume
        // heartbeats (links reconnect lazily from the tick).
        for link in self.hb_links.values_mut() {
            link.state = LinkState::Idle;
        }
        self.detector_grace = DETECTOR_GRACE_TICKS;
        if self.i_am_leader {
            comm.on_path_recovered(self, ops);
        }
        self.heartbeat_tick(comm, ops);
    }

    // ------------------------------------------------------------------
    // Workload
    // ------------------------------------------------------------------

    /// Starts the generated workload if this member leads, has one, has
    /// not started it in this view, and the comm's gate is open.
    pub fn maybe_start_workload<C: Comm>(&mut self, comm: &mut C, ops: &mut HostOps<'_, '_>) {
        if !self.i_am_leader || self.workload_started || !comm.workload_gate(self) {
            return;
        }
        let Some(spec) = self.cfg.workload else {
            return;
        };
        self.workload_started = true;
        if self.payload_proto.len() != spec.value_size {
            self.payload_proto = Bytes::from(vec![0xCD; spec.value_size]);
        }
        match spec.mode {
            WorkloadMode::OpenLoop { rate_per_sec } => {
                let clock = ArrivalClock::new(ops.now(), rate_per_sec);
                let first = clock.next_arrival();
                self.arrivals = Some(clock);
                ops.set_app_timer(first.saturating_duration_since(ops.now()), T_ARRIVAL);
            }
            WorkloadMode::Closed { inflight } => {
                for _ in 0..inflight {
                    if self.workload_done(&spec) {
                        break;
                    }
                    let now = ops.now();
                    self.propose(comm, now, ops);
                }
            }
        }
    }

    /// A replication path just came up: start the workload if it is
    /// due, flush the arrivals parked during the outage, and top a
    /// closed loop back up to its in-flight target.
    pub fn resume<C: Comm>(&mut self, comm: &mut C, ops: &mut HostOps<'_, '_>) {
        self.maybe_start_workload(comm, ops);
        self.flush_parked(comm, ops);
        let Some(spec) = self.cfg.workload else {
            return;
        };
        let WorkloadMode::Closed { inflight } = spec.mode else {
            return;
        };
        if !self.workload_started || !comm.ready(self) {
            return;
        }
        let mut deficit = inflight.saturating_sub(self.pending.len() + self.parked.len());
        while deficit > 0 && !self.workload_done(&spec) {
            let now = ops.now();
            self.propose(comm, now, ops);
            deficit -= 1;
        }
    }

    fn workload_done(&self, spec: &WorkloadSpec) -> bool {
        spec.total_requests != 0 && self.stats.issued >= spec.total_requests
    }

    fn arrival_tick<C: Comm>(&mut self, comm: &mut C, ops: &mut HostOps<'_, '_>) {
        let Some(spec) = self.cfg.workload else {
            return;
        };
        if self.workload_done(&spec) {
            return;
        }
        let now = ops.now();
        if comm.ready(self) {
            self.propose(comm, now, ops);
        } else {
            // The communication module is reconfiguring: requests queue
            // (their latency will include the outage).
            self.park(now, self.payload_proto.clone());
        }
        if let Some(clock) = &mut self.arrivals {
            let next = clock.advance();
            if !self.workload_done(&spec) {
                ops.set_app_timer(next.saturating_duration_since(ops.now()), T_ARRIVAL);
            }
        }
    }

    fn propose<C: Comm>(&mut self, comm: &mut C, arrived: SimTime, ops: &mut HostOps<'_, '_>) {
        let payload = self.payload_proto.clone();
        self.propose_payload(comm, payload, arrived, ops);
    }

    /// Proposes a new value; with no room in the ring it is parked, and
    /// counted as a writer stall.
    fn propose_payload<C: Comm>(
        &mut self,
        comm: &mut C,
        payload: Bytes,
        arrived: SimTime,
        ops: &mut HostOps<'_, '_>,
    ) {
        if let Err(payload) = self.try_propose(comm, payload, arrived, ops) {
            self.stats.writer_stalls += 1;
            self.park(arrived, payload);
        }
    }

    fn park(&mut self, arrived: SimTime, payload: Bytes) {
        self.parked.push_back((arrived, payload));
        self.stats.issued += 1;
    }

    /// Proposes the parked values, oldest first, while a path serves and
    /// the ring has room.
    fn flush_parked<C: Comm>(&mut self, comm: &mut C, ops: &mut HostOps<'_, '_>) {
        while comm.ready(self) {
            let Some((arrived, payload)) = self.parked.pop_front() else {
                break;
            };
            self.stats.issued -= 1; // try_propose() re-counts it
            if let Err(payload) = self.try_propose(comm, payload, arrived, ops) {
                // Still no room: back to the head of the queue.
                self.parked.push_front((arrived, payload));
                self.stats.issued += 1;
                break;
            }
        }
    }

    /// The bytes of the log `peer` lacks, going by the reader position
    /// in its last heartbeat word ([`LogWriter::since`]).
    pub fn log_since(&self, peer: MemberId) -> [Range<usize>; 2] {
        let word = self.hb_links.get(&peer).map_or(0, |l| l.last_seen);
        self.writer
            .since(reported_position(word, self.writer.position()))
    }

    /// One consensus: append locally, then hand the entry to the comm.
    /// With no room in the ring the payload comes back.
    fn try_propose<C: Comm>(
        &mut self,
        comm: &mut C,
        payload: Bytes,
        arrived: SimTime,
        ops: &mut HostOps<'_, '_>,
    ) -> Result<(), Bytes> {
        debug_assert!(self.i_am_leader);
        let size = payload.len();
        let now = ops.now();
        let waited = |since: SimTime| now.saturating_duration_since(since) >= STUCK_WINDOW;
        let writer = self.writer;
        let written = writer.position();
        if self.stalled_since.is_some_and(waited) {
            for link in self.hb_links.values_mut() {
                link.stuck |=
                    waited(link.head_since) && reported_position(link.last_seen, written) < written;
            }
        }
        // The lowest position a reader may still need: the first undecided
        // entry's, or that of the slowest replica the detector calls
        // alive, as its last heartbeat word told it — unless the ring
        // cannot serve that replica any more: it was lapped while it was
        // dead, or it is stuck.
        let floor = || {
            let undecided = self.pending.values().next().map(|p| p.start);
            (self.hb_links.iter())
                .filter(|&(&id, link)| self.detector.is_alive(id) && !link.stuck)
                .map(|(_, link)| reported_position(link.last_seen, written))
                .filter(|&position| !writer.lapped(position))
                .fold(undecided.unwrap_or(u64::MAX), u64::min)
        };
        let (entry, bytes, at) = match self.writer.append_below(payload.clone(), floor) {
            Ok(appended) => appended,
            Err(LogError::Full) => {
                self.stalled_since.get_or_insert(now);
                return Err(payload);
            }
            // A value larger than the whole ring is dropped.
            Err(LogError::TooLarge { .. }) => return Ok(()),
        };
        self.stalled_since = None;
        let region = self.log_region.expect("registered at start");
        ops.write_local(region, at, &bytes);
        self.stats.issued += 1;
        let (view, seq) = (self.views.view(), entry.seq);
        ops.tracer()
            .emit(ops.now(), || TraceEvent::Propose { view, seq });
        self.pending.insert(
            seq,
            PendingDecision {
                acks: 0,
                arrived,
                size,
                start: self.writer.position() - bytes.len() as u64,
                len: bytes.len(),
            },
        );
        comm.post(view, seq, at, bytes, ops);
        Ok(())
    }

    /// Counts one acknowledgement for `seq`; the `needed`-th decides it
    /// (a switch's single ACK already certifies `f` replicas, a direct
    /// write's ACK counts for one).
    pub fn acknowledge<C: Comm>(
        &mut self,
        comm: &mut C,
        seq: u64,
        needed: u32,
        ops: &mut HostOps<'_, '_>,
    ) {
        let Some(p) = self.pending.get_mut(&seq) else {
            return;
        };
        p.acks += 1;
        if p.acks < needed {
            return;
        }
        let (arrived, size) = (p.arrived, p.size);
        self.pending.remove(&seq);
        self.record_decision(comm, seq, arrived, size, ops);
        // The decision may have been what held the ring back.
        if !self.parked.is_empty() {
            self.flush_parked(comm, ops);
        }
    }

    fn record_decision<C: Comm>(
        &mut self,
        comm: &mut C,
        seq: u64,
        arrived: SimTime,
        size: usize,
        ops: &mut HostOps<'_, '_>,
    ) {
        let now = ops.now();
        self.stats.decided += 1;
        let view = self.views.view();
        ops.tracer().emit(now, || TraceEvent::Decide { view, seq });
        if self.first_decision_pending {
            self.first_decision_pending = false;
            self.stats
                .event(now, MemberEvent::FirstDecision { view, seq });
        }
        if let Some(spec) = self.cfg.workload {
            if self.stats.decided == spec.warmup_requests {
                self.stats.throughput.reset(now);
                self.stats.latency.clear();
            } else if self.stats.decided > spec.warmup_requests {
                self.stats
                    .latency
                    .record(now.saturating_duration_since(arrived));
                self.stats.throughput.record(size as u64);
            }
            // Closed loop: a decision frees a slot.
            if matches!(spec.mode, WorkloadMode::Closed { .. })
                && !self.workload_done(&spec)
                && comm.ready(self)
            {
                self.propose(comm, now, ops);
            }
        } else {
            // No generated workload: proposals come from an outside
            // client (the sharded KV service). Record every decision —
            // there is no warmup window to skip.
            self.stats
                .latency
                .record(now.saturating_duration_since(arrived));
            self.stats.throughput.record(size as u64);
        }
    }

    // ------------------------------------------------------------------
    // Connection management: the acceptor side, and heartbeat links
    // ------------------------------------------------------------------

    fn on_connect_request<C: Comm>(
        &mut self,
        handshake_id: u64,
        from_ip: Ipv4Addr,
        from_qpn: Qpn,
        start_psn: Psn,
        private_data: &[u8],
        ops: &mut HostOps<'_, '_>,
    ) {
        let leader_ip = match (C::join_leader(private_data), private_data.first()) {
            (Some(leader), _) => leader,
            (None, Some(&KIND_REPLICATION)) => from_ip,
            (None, Some(&KIND_HEARTBEAT)) => {
                let region = self.hb_region.expect("registered at start");
                let advert = region_advert(region, ops);
                ops.accept(handshake_id, from_ip, from_qpn, start_psn, advert.encode());
                return;
            }
            _ => {
                ops.reject(handshake_id, from_ip, RejectReason::NotListening);
                return;
            }
        };
        // Only the member we believe leads may write our log (§III). The
        // grant itself takes the permission-change delay to apply; the
        // reply signals readiness.
        if self.believed_leader_ip() != Some(leader_ip) {
            ops.reject(handshake_id, from_ip, RejectReason::NotAuthorized);
            return;
        }
        let key = self.next_defer;
        self.next_defer += 1;
        self.deferred.insert(
            key,
            DeferredAccept {
                handshake_id,
                from_ip,
                from_qpn,
                start_psn,
                leader_ip,
            },
        );
        // Permission changes cost 0.9 ms — but only when the epoch's
        // grants actually change (the incumbent leader re-connecting, or
        // adding a second path such as a switch group next to direct
        // connections, pays nothing extra).
        let delay = if self.epoch_leader == Some(leader_ip) && self.granted_ips.contains(&from_ip) {
            SimDuration::ZERO
        } else {
            PERMISSION_CHANGE_DELAY
        };
        ops.set_app_timer(delay, T_DEFER_ACCEPT | key);
    }

    fn finish_deferred_accept(&mut self, key: u64, ops: &mut HostOps<'_, '_>) {
        let Some(d) = self.deferred.remove(&key) else {
            return;
        };
        // The leader may have changed while the grant was applying.
        if self.believed_leader_ip() != Some(d.leader_ip) {
            ops.reject(d.handshake_id, d.from_ip, RejectReason::NotAuthorized);
            return;
        }
        let region = self.log_region.expect("registered at start");
        // New epoch? Revoke everything from the previous leader. The log
        // goes on: the reader keeps its position and follows the new
        // leader's writer from there.
        if self.epoch_leader != Some(d.leader_ip) {
            let stale = std::mem::take(&mut self.granted_ips);
            if !fence_forgotten(ops) {
                for ip in stale {
                    ops.revoke(region, ip);
                }
            }
            self.view_writer_qpns.clear();
            self.epoch_leader = Some(d.leader_ip);
        }
        ops.grant(region, d.from_ip, Permissions::WRITE);
        self.granted_ips.insert(d.from_ip);
        let advert = region_advert(region, ops);
        let qpn = ops.accept(
            d.handshake_id,
            d.from_ip,
            d.from_qpn,
            d.start_psn,
            advert.encode(),
        );
        // Fence: only this epoch's queue pairs may write the log, so a
        // deposed leader's stale connection NAKs.
        self.view_writer_qpns.insert(qpn.masked());
        ops.set_allowed_writer_qpns(region, Some(self.view_writer_qpns.clone()));
    }

    fn on_cm_event<C: Comm>(&mut self, comm: &mut C, ev: CmEvent, ops: &mut HostOps<'_, '_>) {
        match ev {
            CmEvent::ConnectRequestReceived {
                handshake_id,
                from_ip,
                from_qpn,
                start_psn,
                private_data,
            } => self.on_connect_request::<C>(
                handshake_id,
                from_ip,
                from_qpn,
                start_psn,
                &private_data,
                ops,
            ),
            CmEvent::Connected {
                handshake_id,
                qpn,
                private_data,
                ..
            } => match self.hb_handshakes.remove(&handshake_id) {
                Some(peer) => {
                    if let Some(link) = self.hb_links.get_mut(&peer) {
                        link.state = LinkState::Ready;
                        link.qpn = Some(qpn);
                        link.advert = RegionAdvert::decode(&private_data).ok();
                        link.reconnect_backoff = 0;
                    }
                }
                None => comm.on_connected(self, handshake_id, qpn, &private_data, ops),
            },
            CmEvent::Rejected { handshake_id, .. } => {
                match self.hb_handshakes.remove(&handshake_id) {
                    Some(peer) => {
                        if let Some(link) = self.hb_links.get_mut(&peer) {
                            link.state = LinkState::Dead;
                        }
                    }
                    None => comm.on_rejected(self, handshake_id, ops),
                }
            }
            CmEvent::Established { .. } => {}
        }
    }

    fn on_hb_completion(&mut self, c: &Completion, ops: &mut HostOps<'_, '_>) {
        let peer = MemberId((c.wr_id.0 & 0xff) as u8);
        if c.status.is_success() {
            let slot = self.peer_index(peer) * 8;
            let raw = ops.read_local(self.hb_scratch.expect("registered"), slot, 8);
            let value = u64::from_be_bytes(raw.try_into().expect("8 bytes"));
            let written = self.writer.position();
            if let Some(link) = self.hb_links.get_mut(&peer) {
                if reported_position(value, written) != reported_position(link.last_seen, written) {
                    link.head_since = ops.now();
                    link.stuck = false;
                }
                link.last_seen = value;
            }
        } else if let Some(link) = self.hb_links.get_mut(&peer) {
            if c.status != CompletionStatus::Flushed {
                if let Some(qpn) = link.qpn.take() {
                    ops.destroy_qp(qpn);
                }
            } else {
                link.qpn = None;
            }
            link.state = LinkState::Dead;
        }
    }

    // ------------------------------------------------------------------
    // Replica side: consuming the log
    // ------------------------------------------------------------------

    /// Polls the log: one borrowing walk from the reader's position over
    /// whatever has landed, applying each complete entry in place (a torn
    /// entry fails its tail check and waits for the next notification).
    fn on_remote_write(&mut self, region: RegionHandle, ops: &mut HostOps<'_, '_>) {
        if Some(region) != self.log_region {
            return;
        }
        let log = ops.read_local(region, 0, self.cfg.cluster.log_size);
        self.reader.walk(log, |seq, payload| {
            self.stats.applied += 1;
            ops.tracer().emit(ops.now(), || TraceEvent::Apply { seq });
            if let Some(sm) = &mut self.state_machine {
                sm.apply(seq, payload);
            }
        });
    }
}

/// Whether the run carries the planted bug that forgets the epoch fence
/// as a whole — the deposed leader keeps its write grants, the bug the
/// model checker's single-writer oracle must catch.
fn fence_forgotten(ops: &HostOps<'_, '_>) -> bool {
    ops.planted() == Some(Planted::SkipEpochRevoke)
}

fn region_advert(region: RegionHandle, ops: &HostOps<'_, '_>) -> RegionAdvert {
    let info = ops.region_info(region);
    RegionAdvert {
        va: info.va,
        rkey: info.rkey,
        len: info.len,
    }
}

/// A complete replica/leader node application: the decision [`Core`]
/// plus the communication module `C`. Plug into an [`rdma::Host`].
///
/// Everything that does not depend on the comm — `stats`, `view()`,
/// `log_region()`, `set_state_machine()`, … — is the core's and is
/// reached through deref.
pub struct Member<C> {
    core: Core,
    comm: C,
}

impl<C: Comm> Member<C> {
    /// Builds the member application around `comm`.
    pub fn new(cfg: MemberConfig, comm: C) -> Self {
        Member {
            core: Core::new(cfg),
            comm,
        }
    }

    /// Proposes a client-supplied value for consensus. Returns `false`
    /// when this member is not currently an operational leader (callers
    /// should retry against the actual leader).
    pub fn propose_value(&mut self, payload: Bytes, ops: &mut HostOps<'_, '_>) -> bool {
        if !self.is_operational_leader() {
            return false;
        }
        let now = ops.now();
        self.core.propose_payload(&mut self.comm, payload, now, ops);
        true
    }

    /// `true` while this member leads with a working replication path.
    pub fn is_operational_leader(&self) -> bool {
        self.core.i_am_leader && self.comm.ready(&self.core)
    }

    /// Tears down and re-establishes the replication path (the "new
    /// communication group" scenario of Table IV). Only meaningful on
    /// the current leader.
    pub fn force_rebuild_comm(&mut self, ops: &mut HostOps<'_, '_>) {
        self.core.force_rebuild_comm(&mut self.comm, ops);
    }

    /// `true` while replication is switch-accelerated.
    pub fn is_accelerated(&self) -> bool {
        self.comm.is_accelerated()
    }
}

impl<C> Deref for Member<C> {
    type Target = Core;
    fn deref(&self) -> &Core {
        &self.core
    }
}

impl<C> DerefMut for Member<C> {
    fn deref_mut(&mut self) -> &mut Core {
        &mut self.core
    }
}

impl<C: Comm> RdmaApp for Member<C> {
    fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
        let core = &mut self.core;
        // The log: writable only by the (future) leader.
        let log = ops.register_region(core.cfg.cluster.log_size, Permissions::NONE);
        ops.watch_region(log);
        core.log_region = Some(log);
        // The heartbeat counter: readable by everyone.
        core.hb_region = Some(ops.register_region(8, Permissions::READ));
        // Landing pad for our reads of peers' counters.
        core.hb_scratch = Some(ops.register_region(8 * core.cfg.cluster.n(), Permissions::NONE));
        // Kick the heartbeat loop; the first tick also opens hb links.
        ops.set_app_timer(HEARTBEAT_PERIOD, T_HEARTBEAT);
    }

    fn on_completion(&mut self, c: Completion, ops: &mut HostOps<'_, '_>) {
        if c.wr_id.0 & WR_CLASS_MASK == WR_HB {
            self.core.on_hb_completion(&c, ops);
            // A replica's position may have moved what held the ring back.
            if !self.core.parked.is_empty() {
                self.core.flush_parked(&mut self.comm, ops);
            }
        } else {
            self.comm.on_completion(&mut self.core, &c, ops);
        }
    }

    fn on_cm_event(&mut self, ev: CmEvent, ops: &mut HostOps<'_, '_>) {
        self.core.on_cm_event(&mut self.comm, ev, ops);
    }

    fn on_remote_write(
        &mut self,
        region: RegionHandle,
        _dirty: Range<u64>,
        ops: &mut HostOps<'_, '_>,
    ) {
        self.core.on_remote_write(region, ops);
    }

    fn on_nak(&mut self, qpn: Qpn, _code: rdma::NakCode, ops: &mut HostOps<'_, '_>) {
        self.comm.on_nak(&mut self.core, qpn, ops);
    }

    fn on_timer(&mut self, token: u64, ops: &mut HostOps<'_, '_>) {
        let (core, comm) = (&mut self.core, &mut self.comm);
        match token & T_CLASS_MASK {
            T_HEARTBEAT => core.heartbeat_tick(comm, ops),
            T_ARRIVAL => core.arrival_tick(comm, ops),
            T_DEFER_ACCEPT => core.finish_deferred_accept(token & T_DATA_MASK, ops),
            T_PATH_RECOVER => core.path_recovered(comm, ops),
            _ => comm.on_timer(core, token, ops),
        }
    }
}
