//! Zero-overhead-when-disabled tracing of consensus instances.
//!
//! Every layer of the stack (member application, RDMA host, switch
//! pipeline) holds a [`Tracer`] — a cheap clonable handle that is either
//! *disabled* (the default: one `Option` branch per instrumentation
//! point, the event constructor never runs) or *attached* to a shared
//! ring of variable-width records. A record costs its content: a kind
//! byte, the interned node label's id, the time since the previous
//! record, then exactly the fields the kind names — varints, about ten
//! bytes for a consensus instance's records. An enabled emit appends
//! those bytes to a chunk of the ring: no heap allocation but one per
//! chunk, no string formatting on the hot path. A trace is read where it
//! lies: a [`Records`] snapshot of the ring's bytes decodes one
//! [`TraceRecord`] at a time as it is walked. So one ring collects a
//! causally ordered, cross-layer log of a whole cluster run at near-zero
//! steady-state cost.
//!
//! The taxonomy follows one consensus instance through the stack:
//!
//! ```text
//! Propose(view,seq) ─ PostBound(qpn,wr_id) ─ WqePost ─ WireTx(psn…)
//!   → Scatter(psn) ─ ScatterCopy(psn,rid)           [switch ingress/egress]
//!   → GatherAck(psn,endpoint)… quorum=true          [switch gather]
//!   → AckRx(qpn,psn) ─ Decide(view,seq)             [leader host/member]
//! ```
//!
//! [`assemble_spans`] stitches those records back into per-instance
//! [`InstanceSpan`]s keyed by `(view, seq)`; because adjacent stages
//! share their boundary timestamps, the five stage durations of a
//! complete span sum *exactly* to its end-to-end latency.
//! [`chrome_trace_json`] exports the records (and the assembled stage
//! slices) as Chrome/Perfetto `trace_events` JSON, and [`json`] is a
//! minimal parser used to validate that export round-trips.
//!
//! A [`Timeline`] — named counter series on a grid plus [`Annotation`]
//! markers — is a view a caller computes from the records at export time;
//! [`chrome_trace_json_with`] appends it as Perfetto counter tracks.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::stats::LatencyStats;
use crate::time::{SimDuration, SimTime};

/// The RoCE packet-sequence-number space is 24 bits wide; PSN arithmetic
/// during span assembly wraps in it.
pub const PSN_MASK: u64 = 0x00ff_ffff;

/// Why a host retransmitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetransmitKind {
    /// The retransmission timer fired (`QueuePair::check_timeout`).
    Timeout,
    /// The peer NAKed an out-of-sequence packet (`QueuePair::handle_nak`).
    Nak,
}

impl RetransmitKind {
    /// Short label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            RetransmitKind::Timeout => "timeout",
            RetransmitKind::Nak => "nak",
        }
    }
}

/// One traced occurrence. All identifiers are plain integers so the
/// simulator core stays independent of the RDMA/consensus crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    // -- consensus layer (members) -------------------------------------
    /// A leader accepted a value for consensus instance `(view, seq)`.
    Propose {
        /// View the proposing leader is operating in.
        view: u64,
        /// Log sequence number of the instance.
        seq: u64,
    },
    /// The instance was bound to a work request on a queue pair.
    PostBound {
        /// View of the instance.
        view: u64,
        /// Sequence number of the instance.
        seq: u64,
        /// Local queue-pair number the write was posted on.
        qpn: u64,
        /// Work-request id carrying the instance.
        wr_id: u64,
    },
    /// The instance was decided (`f` acknowledgements reached the leader).
    Decide {
        /// View of the instance.
        view: u64,
        /// Sequence number of the instance.
        seq: u64,
    },
    /// A member applied a decided entry to its state machine.
    Apply {
        /// Sequence number of the applied entry.
        seq: u64,
    },
    /// A member moved to a new view.
    ViewChange {
        /// The new view number.
        view: u64,
        /// The believed leader of the new view (`u64::MAX` when none).
        leader: u64,
    },
    /// A P4CE leader fell back from the in-network path to direct writes.
    FellBack,
    /// The switch group for the accelerated path became operational.
    GroupEstablished,
    // -- RDMA host layer ----------------------------------------------
    /// A work-queue element was posted to the send queue.
    WqePost {
        /// Local queue-pair number.
        qpn: u64,
        /// Work-request id.
        wr_id: u64,
    },
    /// The NIC staged a message's packets onto the wire.
    WireTx {
        /// Local queue-pair number.
        qpn: u64,
        /// Work-request id of the message.
        wr_id: u64,
        /// PSN of the message's first packet.
        psn: u64,
        /// Number of packets the message was segmented into.
        npkts: u64,
    },
    /// The responder NIC generated a positive acknowledgement.
    AckTx {
        /// Local queue-pair number of the responder.
        qpn: u64,
        /// PSN being acknowledged.
        psn: u64,
    },
    /// A requester NIC received a positive acknowledgement.
    AckRx {
        /// Local queue-pair number.
        qpn: u64,
        /// Acknowledged PSN.
        psn: u64,
        /// Credits carried in the AETH field.
        credits: u64,
    },
    /// The responder NIC generated a negative acknowledgement.
    NakTx {
        /// Local queue-pair number of the responder.
        qpn: u64,
        /// Expected PSN reported in the NAK.
        psn: u64,
    },
    /// A requester NIC received a negative acknowledgement.
    NakRx {
        /// Local queue-pair number.
        qpn: u64,
        /// NAKed PSN.
        psn: u64,
    },
    /// A requester retransmitted in-flight packets.
    Retransmit {
        /// Local queue-pair number.
        qpn: u64,
        /// What triggered the retransmission.
        kind: RetransmitKind,
        /// How many packets went out again.
        packets: u64,
    },
    // -- switch pipeline -----------------------------------------------
    /// The switch ingress accepted a leader write for scatter.
    Scatter {
        /// Leader-space PSN of the packet.
        psn: u64,
        /// Distance from the group's leader start PSN (≈ packet index).
        dist: u64,
    },
    /// The switch egress rewrote one scatter copy for a replica.
    ScatterCopy {
        /// Leader-space PSN of the packet.
        psn: u64,
        /// Replica id (egress `rid`) the copy went to.
        rid: u64,
    },
    /// The switch gather absorbed or forwarded one replica ACK.
    GatherAck {
        /// Leader-space PSN the ACK maps back to.
        psn: u64,
        /// Gather endpoint index the ACK arrived on.
        endpoint: u64,
        /// Distinct replicas seen for this PSN after this ACK.
        distinct: u64,
        /// `true` when this ACK completed the quorum and was forwarded.
        quorum: bool,
    },
    /// The gather's credit fold clamped the forwarded credits below the
    /// triggering ACK's own value.
    CreditClamp {
        /// Leader-space PSN of the forwarded ACK.
        psn: u64,
        /// The folded (minimum) credit value actually forwarded.
        folded: u64,
        /// The credit value the triggering ACK itself carried.
        carried: u64,
    },
    /// The switch passed a replica NAK through to the leader.
    NakForward {
        /// Leader-space PSN the NAK maps back to.
        psn: u64,
    },
}

/// One decoded trace entry: what happened, where, and when.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Simulation time of the occurrence.
    pub t: SimTime,
    /// Label of the emitting node (e.g. `m0`, `switch`).
    pub node: Arc<str>,
    /// The occurrence itself.
    pub event: TraceEvent,
}

// ----------------------------------------------------------------------
// Record format
// ----------------------------------------------------------------------

/// Each trace kind's export name and field names, indexed by its kind
/// byte — the `TraceEvent` variant's declaration order. `encode` writes
/// a kind's fields in this order and `decode` reads them back; a record
/// in the ring carries exactly as many fields as its row names.
const KINDS: [(&str, &[&str]); 19] = [
    ("propose", &["view", "seq"]),
    ("post_bound", &["view", "seq", "qpn", "wr_id"]),
    ("decide", &["view", "seq"]),
    ("apply", &["seq"]),
    ("view_change", &["view", "leader"]),
    ("fell_back", &[]),
    ("group_established", &[]),
    ("wqe_post", &["qpn", "wr_id"]),
    ("wire_tx", &["qpn", "wr_id", "psn", "npkts"]),
    ("ack_tx", &["qpn", "psn"]),
    ("ack_rx", &["qpn", "psn", "credits"]),
    ("nak_tx", &["qpn", "psn"]),
    ("nak_rx", &["qpn", "psn"]),
    ("retransmit", &["qpn", "timeout", "packets"]),
    ("scatter", &["psn", "dist"]),
    ("scatter_copy", &["psn", "rid"]),
    ("gather_ack", &["psn", "endpoint", "distinct", "quorum"]),
    ("credit_clamp", &["psn", "folded", "carried"]),
    ("nak_forward", &["psn"]),
];

impl TraceEvent {
    /// Short name of the event kind, used in exports.
    pub fn kind(&self) -> &'static str {
        KINDS[usize::from(self.encode().0)].0
    }

    /// The event's fields as `(name, value)` pairs, for exports.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        let (kind, values) = self.encode();
        let names = KINDS[usize::from(kind)].1;
        names.iter().copied().zip(values).collect()
    }

    /// Collapses the event to its binary form.
    #[inline]
    fn encode(&self) -> (u8, [u64; 4]) {
        match *self {
            TraceEvent::Propose { view, seq } => (0, [view, seq, 0, 0]),
            TraceEvent::PostBound {
                view,
                seq,
                qpn,
                wr_id,
            } => (1, [view, seq, qpn, wr_id]),
            TraceEvent::Decide { view, seq } => (2, [view, seq, 0, 0]),
            TraceEvent::Apply { seq } => (3, [seq, 0, 0, 0]),
            TraceEvent::ViewChange { view, leader } => (4, [view, leader, 0, 0]),
            TraceEvent::FellBack => (5, [0; 4]),
            TraceEvent::GroupEstablished => (6, [0; 4]),
            TraceEvent::WqePost { qpn, wr_id } => (7, [qpn, wr_id, 0, 0]),
            TraceEvent::WireTx {
                qpn,
                wr_id,
                psn,
                npkts,
            } => (8, [qpn, wr_id, psn, npkts]),
            TraceEvent::AckTx { qpn, psn } => (9, [qpn, psn, 0, 0]),
            TraceEvent::AckRx { qpn, psn, credits } => (10, [qpn, psn, credits, 0]),
            TraceEvent::NakTx { qpn, psn } => (11, [qpn, psn, 0, 0]),
            TraceEvent::NakRx { qpn, psn } => (12, [qpn, psn, 0, 0]),
            TraceEvent::Retransmit { qpn, kind, packets } => (
                13,
                [qpn, u64::from(kind == RetransmitKind::Timeout), packets, 0],
            ),
            TraceEvent::Scatter { psn, dist } => (14, [psn, dist, 0, 0]),
            TraceEvent::ScatterCopy { psn, rid } => (15, [psn, rid, 0, 0]),
            TraceEvent::GatherAck {
                psn,
                endpoint,
                distinct,
                quorum,
            } => (16, [psn, endpoint, distinct, u64::from(quorum)]),
            TraceEvent::CreditClamp {
                psn,
                folded,
                carried,
            } => (17, [psn, folded, carried, 0]),
            TraceEvent::NakForward { psn } => (18, [psn, 0, 0, 0]),
        }
    }

    /// Rebuilds the event from its binary form (inverse of [`encode`]).
    fn decode(kind: u8, f: [u64; 4]) -> TraceEvent {
        match kind {
            0 => TraceEvent::Propose {
                view: f[0],
                seq: f[1],
            },
            1 => TraceEvent::PostBound {
                view: f[0],
                seq: f[1],
                qpn: f[2],
                wr_id: f[3],
            },
            2 => TraceEvent::Decide {
                view: f[0],
                seq: f[1],
            },
            3 => TraceEvent::Apply { seq: f[0] },
            4 => TraceEvent::ViewChange {
                view: f[0],
                leader: f[1],
            },
            5 => TraceEvent::FellBack,
            6 => TraceEvent::GroupEstablished,
            7 => TraceEvent::WqePost {
                qpn: f[0],
                wr_id: f[1],
            },
            8 => TraceEvent::WireTx {
                qpn: f[0],
                wr_id: f[1],
                psn: f[2],
                npkts: f[3],
            },
            9 => TraceEvent::AckTx {
                qpn: f[0],
                psn: f[1],
            },
            10 => TraceEvent::AckRx {
                qpn: f[0],
                psn: f[1],
                credits: f[2],
            },
            11 => TraceEvent::NakTx {
                qpn: f[0],
                psn: f[1],
            },
            12 => TraceEvent::NakRx {
                qpn: f[0],
                psn: f[1],
            },
            13 => TraceEvent::Retransmit {
                qpn: f[0],
                kind: if f[1] != 0 {
                    RetransmitKind::Timeout
                } else {
                    RetransmitKind::Nak
                },
                packets: f[2],
            },
            14 => TraceEvent::Scatter {
                psn: f[0],
                dist: f[1],
            },
            15 => TraceEvent::ScatterCopy {
                psn: f[0],
                rid: f[1],
            },
            16 => TraceEvent::GatherAck {
                psn: f[0],
                endpoint: f[1],
                distinct: f[2],
                quorum: f[3] != 0,
            },
            17 => TraceEvent::CreditClamp {
                psn: f[0],
                folded: f[1],
                carried: f[2],
            },
            18 => TraceEvent::NakForward { psn: f[0] },
            other => unreachable!("unknown trace kind byte {other}"),
        }
    }
}

/// Bytes per chunk of the record store.
const CHUNK_BYTES: usize = 64 << 10;

/// The longest record: the kind byte, then the node id, the time delta
/// and four fields at up to ten varint bytes each.
const RECORD_MAX: usize = 1 + 6 * 10;

/// The record store every tracer of one handle writes to, plus the label
/// intern table.
///
/// A record is self-delimiting bytes: its kind byte, the node id as a
/// varint, the time since the previous record as a zigzag varint, then
/// one varint per field its [`KINDS`] row names. Records go into
/// fixed-capacity chunks and never straddle one, so a chunk is never
/// moved or reallocated and an emit allocates only when it opens the
/// next chunk. A bounded ring reads its oldest record off the front
/// before it would hold a `cap + 1`th; the next record's delta then
/// counts from the dropped one's time, and a drained front chunk is
/// freed.
#[derive(Debug, Default)]
struct Ring {
    /// The record bytes, oldest first.
    chunks: VecDeque<Vec<u8>>,
    /// Offset of the oldest held record in the front chunk.
    head: usize,
    /// The time the oldest held record's delta counts from.
    base_ns: u64,
    /// The newest record's time, which the next delta counts from.
    last_ns: u64,
    /// Records held.
    len: usize,
    /// Records a bounded ring dropped.
    dropped: u64,
    /// `Some(cap)` = bounded ring of `cap` records.
    bound: Option<usize>,
    /// Interned node labels; a record's node id indexes this table.
    labels: Vec<Arc<str>>,
}

impl Ring {
    fn new(bound: Option<usize>) -> Self {
        Ring {
            bound: bound.map(|cap| cap.max(1)),
            ..Ring::default()
        }
    }

    fn intern(&mut self, label: &str) -> u64 {
        let id = match self.labels.iter().position(|l| l.as_ref() == label) {
            Some(id) => id,
            None => {
                self.labels.push(Arc::from(label));
                self.labels.len() - 1
            }
        };
        id as u64
    }

    #[inline]
    fn push(&mut self, t_ns: u64, node: u64, event: &TraceEvent) {
        if self.bound == Some(self.len) {
            self.drop_oldest();
        }
        if self
            .chunks
            .back()
            .is_none_or(|c| c.capacity() - c.len() < RECORD_MAX)
        {
            self.chunks.push_back(Vec::with_capacity(CHUNK_BYTES));
        }
        let out = self.chunks.back_mut().expect("a chunk with room");
        let (kind, fields) = event.encode();
        out.push(kind);
        put_varint(out, node);
        put_varint(out, zigzag(t_ns.wrapping_sub(self.last_ns)));
        for &v in &fields[..KINDS[usize::from(kind)].1.len()] {
            put_varint(out, v);
        }
        self.last_ns = t_ns;
        self.len += 1;
    }

    /// Oldest-drop: steps `head` over the oldest record and makes its
    /// time the base of the next one's delta. Out of line, so the `push`
    /// every emit site inlines stays small: only a full bounded ring
    /// comes here.
    #[inline(never)]
    fn drop_oldest(&mut self) {
        if self.head == self.chunks[0].len() {
            self.chunks.pop_front();
            self.head = 0;
        }
        (self.base_ns, ..) = read(&self.chunks[0], &mut self.head, self.base_ns);
        self.len -= 1;
        self.dropped += 1;
    }
}

/// A snapshot of a ring's records: its held bytes in one exact-size copy,
/// the label table, the time the first delta counts from and the count.
/// A walk decodes one [`TraceRecord`] at a time, holding no lock.
#[derive(Debug, Default)]
pub struct Records {
    bytes: Vec<u8>,
    labels: Vec<Arc<str>>,
    base_ns: u64,
    len: usize,
}

impl Records {
    /// Decodes the records oldest first, as they are walked.
    pub fn iter(&self) -> RecordsIter<'_> {
        RecordsIter(self, 0, self.base_ns)
    }

    /// Number of records in the snapshot.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the snapshot holds no record.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<'a> IntoIterator for &'a Records {
    type Item = TraceRecord;
    type IntoIter = RecordsIter<'a>;

    fn into_iter(self) -> RecordsIter<'a> {
        self.iter()
    }
}

/// A walk over a [`Records`] snapshot: the next record's byte offset and
/// the time its delta counts from.
#[derive(Debug, Clone)]
pub struct RecordsIter<'a>(&'a Records, usize, u64);

impl Iterator for RecordsIter<'_> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        let RecordsIter(records, pos, t_ns) = self;
        let (t, node, event) =
            (*pos < records.bytes.len()).then(|| read(&records.bytes, pos, *t_ns))?;
        *t_ns = t;
        Some(TraceRecord {
            t: SimTime::from_nanos(t),
            node: Arc::clone(&records.labels[node as usize]),
            event,
        })
    }
}

/// Reads the record at `*pos`, whose delta counts from `prev_ns`: its
/// time, node id and event.
fn read(bytes: &[u8], pos: &mut usize, prev_ns: u64) -> (u64, u64, TraceEvent) {
    let kind = bytes[*pos];
    *pos += 1;
    let node = get_varint(bytes, pos);
    let delta = get_varint(bytes, pos);
    // Zigzag: the low bit is the sign.
    let t_ns = prev_ns.wrapping_add((delta >> 1) ^ (delta & 1).wrapping_neg());
    let mut fields = [0; 4];
    for f in &mut fields[..KINDS[usize::from(kind)].1.len()] {
        *f = get_varint(bytes, pos);
    }
    (t_ns, node, TraceEvent::decode(kind, fields))
}

/// A wrapping time delta as a zigzag integer: small steps either way are
/// small numbers.
fn zigzag(delta: u64) -> u64 {
    (delta << 1) ^ ((delta as i64 >> 63) as u64)
}

/// LEB128: seven bits a byte, low first, the high bit set on all but the
/// last.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0;
    for shift in (0..64).step_by(7) {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            break;
        }
    }
    v
}

/// Owner's handle on a shared record ring: create one per traced
/// run, derive per-node [`Tracer`]s from it, and read a [`Records`]
/// snapshot back after the run. Clonable and `Send`, so parallel sweeps
/// can give each point its own ring.
///
/// The default handle grows without bound (one fixed-size chunk at a
/// time); [`TraceHandle::bounded`] caps the ring at a fixed
/// record count and deterministically drops the *oldest* record
/// once full, counting each drop in [`TraceHandle::dropped`].
#[derive(Debug, Clone)]
pub struct TraceHandle {
    inner: Arc<Mutex<Ring>>,
}

impl Default for TraceHandle {
    fn default() -> Self {
        TraceHandle {
            inner: Arc::new(Mutex::new(Ring::new(None))),
        }
    }
}

impl TraceHandle {
    /// A handle on a fresh, empty, unbounded ring.
    pub fn new() -> Self {
        TraceHandle::default()
    }

    /// A handle on a ring capped at `cap` records (at least one). Once
    /// full, each new record drops the oldest one; [`TraceHandle::dropped`]
    /// counts the drops.
    pub fn bounded(cap: usize) -> Self {
        TraceHandle {
            inner: Arc::new(Mutex::new(Ring::new(Some(cap)))),
        }
    }

    /// Derives an *enabled* tracer that stamps records with `label`.
    pub fn tracer(&self, label: &str) -> Tracer {
        Tracer {
            ring: Some(Arc::clone(&self.inner)),
            node: 0,
        }
        .labeled(label)
    }

    /// A snapshot of the records collected so far, oldest first: a copy
    /// of the ring's held bytes (records never straddle a chunk), decoded
    /// as it is walked. Later records and later drops do not touch it.
    pub fn records(&self) -> Records {
        let ring = self.inner.lock().expect("trace ring poisoned");
        let mut bytes =
            Vec::with_capacity(ring.chunks.iter().map(Vec::len).sum::<usize>() - ring.head);
        for (i, chunk) in ring.chunks.iter().enumerate() {
            bytes.extend_from_slice(&chunk[if i == 0 { ring.head } else { 0 }..]);
        }
        Records {
            bytes,
            labels: ring.labels.clone(),
            base_ns: ring.base_ns,
            len: ring.len,
        }
    }

    /// Records lost to oldest-drop in a bounded ring (always 0 for
    /// unbounded handles).
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("trace ring poisoned").dropped
    }
}

/// A per-node emitter. Disabled by default — and a disabled tracer's
/// [`emit`](Tracer::emit) is a single `Option` branch: the event
/// constructor closure never runs, no allocation, no lock. Configs embed
/// one (`#[derive(Clone)]`-compatible, `Default` = disabled) and builders
/// swap in enabled ones from a [`TraceHandle`].
///
/// An enabled tracer's `emit` appends one record of a few bytes to the
/// shared ring — as many as its content needs, about ten for a
/// consensus instance's records: no heap allocation outside opening the
/// next chunk, no string formatting, no `Arc` clone — the node label was
/// interned to an id when the tracer was created.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    ring: Option<Arc<Mutex<Ring>>>,
    node: u64,
}

impl Tracer {
    /// The disabled tracer (same as `Tracer::default()`).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// The same ring under a different node label.
    pub fn labeled(&self, label: &str) -> Tracer {
        let node = match &self.ring {
            Some(ring) => ring.lock().expect("trace ring poisoned").intern(label),
            None => 0,
        };
        Tracer {
            ring: self.ring.clone(),
            node,
        }
    }

    /// Records the event produced by `f` at time `t`. When the tracer is
    /// disabled this is one branch; `f` is not called.
    #[inline]
    pub fn emit(&self, t: SimTime, f: impl FnOnce() -> TraceEvent) {
        if let Some(ring) = &self.ring {
            let event = f();
            let mut ring = ring.lock().expect("trace ring poisoned");
            ring.push(t.as_nanos(), self.node, &event);
        }
    }
}

// ----------------------------------------------------------------------
// Span assembly
// ----------------------------------------------------------------------

/// Names of the five stages of a complete accelerated-path span, in
/// chain order. Adjacent stages share boundary timestamps, so the five
/// durations telescope to the end-to-end latency exactly.
pub const STAGE_NAMES: [&str; 5] = [
    "post",      // Propose   -> WireTx  : verb post + NIC send queue
    "scatter",   // WireTx    -> Scatter : uplink wire + switch ingress
    "replicate", // Scatter   -> quorum  : fan-out, replica NICs, f ACKs
    "gather",    // quorum    -> AckRx   : switch->leader wire + NIC rx
    "decide",    // AckRx     -> Decide  : completion reap + member CPU
];

/// One consensus instance's reconstructed timeline.
#[derive(Debug, Clone)]
pub struct InstanceSpan {
    /// View of the instance.
    pub view: u64,
    /// Sequence number of the instance.
    pub seq: u64,
    /// Node label of the proposing leader.
    pub node: Arc<str>,
    /// When the leader accepted the value.
    pub propose: SimTime,
    /// When the leader NIC staged the bound message onto the wire.
    pub wire_tx: Option<SimTime>,
    /// When the switch ingress accepted the (last) packet for scatter.
    pub scatter: Option<SimTime>,
    /// When the f-th distinct replica ACK reached the switch gather.
    pub quorum: Option<SimTime>,
    /// When the forwarded ACK reached the leader NIC.
    pub ack_rx: Option<SimTime>,
    /// When the member recorded the decision.
    pub decide: Option<SimTime>,
    /// Replica ACKs the gather counted for the instance's last packet.
    pub gather_acks: u64,
}

impl InstanceSpan {
    /// `true` when every stage boundary was observed.
    pub fn is_complete(&self) -> bool {
        self.wire_tx.is_some()
            && self.scatter.is_some()
            && self.quorum.is_some()
            && self.ack_rx.is_some()
            && self.decide.is_some()
    }

    /// The five stage durations (see [`STAGE_NAMES`]), when complete.
    pub fn stage_durations(&self) -> Option<[SimDuration; 5]> {
        let (wt, sc, qu, ar, de) = (
            self.wire_tx?,
            self.scatter?,
            self.quorum?,
            self.ack_rx?,
            self.decide?,
        );
        Some([
            wt.saturating_duration_since(self.propose),
            sc.saturating_duration_since(wt),
            qu.saturating_duration_since(sc),
            ar.saturating_duration_since(qu),
            de.saturating_duration_since(ar),
        ])
    }

    /// Propose-to-decide latency, once decided.
    pub fn end_to_end(&self) -> Option<SimDuration> {
        Some(self.decide?.saturating_duration_since(self.propose))
    }
}

/// Finds the first `(t, payload)` entry at or after `not_before` in a
/// time-sorted list.
fn first_at_or_after<T: Copy>(list: &[(SimTime, T)], not_before: SimTime) -> Option<(SimTime, T)> {
    list.iter().copied().find(|&(t, _)| t >= not_before)
}

/// Stitches raw records into per-instance spans, keyed by `(view, seq)`.
///
/// The correlation chain is: `Propose`/`PostBound` give `(qpn, wr_id)`;
/// the first `WireTx` on the same node for that pair gives the PSN
/// range; switch `Scatter`/`GatherAck` and the leader's `AckRx` are
/// matched on the range's *last* PSN (a message is decided when its last
/// packet is acknowledged); `Decide` closes the span. Instances decided
/// off the accelerated path (e.g. during fallback) yield partial spans.
pub fn assemble_spans(records: &Records) -> Vec<InstanceSpan> {
    // A time-sorted observation list per correlation key: `(node, qpn,
    // wr_id or psn)` on the host side, bare leader-space PSN on the
    // switch side.
    type PerKey<K, T> = HashMap<K, Vec<(SimTime, T)>>;
    type PerQp<T> = PerKey<(Arc<str>, u64, u64), T>;

    // Index the correlation streams. Records from one simulation arrive
    // time-ordered; sort defensively so merged buffers also work.
    let mut wire_tx: PerQp<(u64, u64)> = HashMap::new();
    let mut scatter: PerKey<u64, ()> = HashMap::new();
    let mut gather: PerKey<u64, bool> = HashMap::new();
    let mut ack_rx: PerQp<()> = HashMap::new();
    struct Pending {
        node: Arc<str>,
        propose: SimTime,
        bound: Option<(SimTime, u64, u64)>,
        decide: Option<SimTime>,
    }
    let mut instances: Vec<((u64, u64), Pending)> = Vec::new();
    let mut index: HashMap<(u64, u64), usize> = HashMap::new();

    for rec in records {
        match rec.event {
            TraceEvent::Propose { view, seq } => {
                index.entry((view, seq)).or_insert_with(|| {
                    instances.push((
                        (view, seq),
                        Pending {
                            node: rec.node,
                            propose: rec.t,
                            bound: None,
                            decide: None,
                        },
                    ));
                    instances.len() - 1
                });
            }
            TraceEvent::PostBound {
                view,
                seq,
                qpn,
                wr_id,
            } => {
                if let Some(&i) = index.get(&(view, seq)) {
                    let p = &mut instances[i].1;
                    if p.bound.is_none() {
                        p.bound = Some((rec.t, qpn, wr_id));
                    }
                }
            }
            TraceEvent::Decide { view, seq } => {
                if let Some(&i) = index.get(&(view, seq)) {
                    let p = &mut instances[i].1;
                    if p.decide.is_none() {
                        p.decide = Some(rec.t);
                    }
                }
            }
            TraceEvent::WireTx {
                qpn,
                wr_id,
                psn,
                npkts,
            } => wire_tx
                .entry((rec.node, qpn, wr_id))
                .or_default()
                .push((rec.t, (psn, npkts))),
            TraceEvent::Scatter { psn, .. } => {
                scatter.entry(psn).or_default().push((rec.t, ()));
            }
            TraceEvent::GatherAck { psn, quorum, .. } => {
                gather.entry(psn).or_default().push((rec.t, quorum));
            }
            TraceEvent::AckRx { qpn, psn, .. } => ack_rx
                .entry((rec.node, qpn, psn))
                .or_default()
                .push((rec.t, ())),
            _ => {}
        }
    }
    for list in wire_tx.values_mut() {
        list.sort_by_key(|&(t, _)| t);
    }
    for list in scatter.values_mut() {
        list.sort_by_key(|&(t, _)| t);
    }
    for list in gather.values_mut() {
        list.sort_by_key(|&(t, _)| t);
    }
    for list in ack_rx.values_mut() {
        list.sort_by_key(|&(t, _)| t);
    }

    let mut spans = Vec::with_capacity(instances.len());
    for ((view, seq), p) in instances {
        let mut span = InstanceSpan {
            view,
            seq,
            node: Arc::clone(&p.node),
            propose: p.propose,
            wire_tx: None,
            scatter: None,
            quorum: None,
            ack_rx: None,
            decide: p.decide,
            gather_acks: 0,
        };
        'chain: {
            let Some((bound_t, qpn, wr_id)) = p.bound else {
                break 'chain;
            };
            let Some((tx_t, (first_psn, npkts))) = wire_tx
                .get(&(Arc::clone(&p.node), qpn, wr_id))
                .and_then(|l| first_at_or_after(l, bound_t))
            else {
                break 'chain;
            };
            span.wire_tx = Some(tx_t);
            let last_psn = (first_psn + npkts.saturating_sub(1)) & PSN_MASK;
            let Some((sc_t, ())) = scatter
                .get(&last_psn)
                .and_then(|l| first_at_or_after(l, tx_t))
            else {
                break 'chain;
            };
            span.scatter = Some(sc_t);
            if let Some(acks) = gather.get(&last_psn) {
                span.gather_acks = acks
                    .iter()
                    .filter(|&&(t, _)| t >= sc_t && p.decide.is_none_or(|d| t <= d))
                    .count() as u64;
                let Some((qu_t, _)) = acks
                    .iter()
                    .copied()
                    .find(|&(t, quorum)| quorum && t >= sc_t)
                else {
                    break 'chain;
                };
                span.quorum = Some(qu_t);
                let Some((rx_t, ())) = ack_rx
                    .get(&(Arc::clone(&p.node), qpn, last_psn))
                    .and_then(|l| first_at_or_after(l, qu_t))
                else {
                    break 'chain;
                };
                span.ack_rx = Some(rx_t);
            }
        }
        spans.push(span);
    }
    spans
}

// ----------------------------------------------------------------------
// Stage breakdown
// ----------------------------------------------------------------------

/// Latency distribution of one stage across many spans.
#[derive(Debug, Clone)]
pub struct StageLatency {
    /// Stage name (one of [`STAGE_NAMES`]).
    pub name: &'static str,
    /// The stage's latency samples.
    pub lat: LatencyStats,
}

/// Per-stage latency distributions over a set of spans, plus the
/// end-to-end distribution of the same (complete) spans.
#[derive(Debug, Clone)]
pub struct StageBreakdown {
    /// One entry per stage, in chain order.
    pub stages: Vec<StageLatency>,
    /// End-to-end latency of the complete spans.
    pub end_to_end: LatencyStats,
    /// Number of spans with a full chain.
    pub complete: usize,
    /// Total spans considered (including partial ones).
    pub total: usize,
}

impl StageBreakdown {
    /// `true` when, for every complete span, the five stage durations
    /// sum exactly to the end-to-end latency — which makes the *mean*
    /// stage latencies sum to the mean end-to-end latency too. Always
    /// holds by construction; exposed so tests and reports can assert it.
    pub fn reconciles(&self) -> bool {
        if self.complete == 0 {
            return true;
        }
        let stage_mean_sum: u64 = self.stages.iter().map(|s| s.lat.mean().as_nanos()).sum();
        let e2e = self.end_to_end.mean().as_nanos();
        // Each mean rounds down independently: the sums may differ by at
        // most one nanosecond per stage.
        stage_mean_sum.abs_diff(e2e) <= self.stages.len() as u64
    }
}

/// Builds the per-stage breakdown of `spans`. Partial spans count
/// toward `total` but contribute no samples.
pub fn breakdown(spans: &[InstanceSpan]) -> StageBreakdown {
    let mut stages: Vec<StageLatency> = STAGE_NAMES
        .iter()
        .map(|&name| StageLatency {
            name,
            lat: LatencyStats::new(),
        })
        .collect();
    let mut end_to_end = LatencyStats::new();
    let mut complete = 0;
    for span in spans {
        let Some(durs) = span.stage_durations() else {
            continue;
        };
        complete += 1;
        for (stage, d) in stages.iter_mut().zip(durs) {
            stage.lat.record(d);
        }
        end_to_end.record(span.end_to_end().expect("complete span decided"));
    }
    StageBreakdown {
        stages,
        end_to_end,
        complete,
        total: spans.len(),
    }
}

// ----------------------------------------------------------------------
// Chrome/Perfetto trace_events export
// ----------------------------------------------------------------------

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Timestamps in `trace_events` are microseconds; emit them with
/// nanosecond precision as fractional microseconds.
fn push_ts(out: &mut String, t: SimTime) {
    let ns = t.as_nanos();
    let _ = std::fmt::Write::write_fmt(out, format_args!("{}.{:03}", ns / 1000, ns % 1000));
}

/// Exports `records` as Chrome/Perfetto `trace_events` JSON
/// (`chrome://tracing` / [ui.perfetto.dev] both load it).
///
/// Layout: process 1 carries one thread per node label with every raw
/// record as an *instant* event; process 2 carries one thread per
/// pipeline stage with the assembled spans' stage slices as *complete*
/// events, named `v<view>/<seq>`.
///
/// [ui.perfetto.dev]: https://ui.perfetto.dev
pub fn chrome_trace_json(records: &Records) -> String {
    let mut out = String::with_capacity(records.len() * 96 + 1024);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    chrome_trace_body(records, &mut out, &mut first);
    out.push_str("\n]}\n");
    out
}

/// Separates `trace_events` array elements: a comma before every one but
/// the first, each on its own line.
fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
    out.push('\n');
}

/// Writes the `trace_events` array elements for `records` (metadata,
/// instant events, stage slices) into an already-open array, tracking
/// comma placement through `first`. Shared by [`chrome_trace_json`] and
/// [`chrome_trace_json_with`], which appends counter tracks before closing.
fn chrome_trace_body(records: &Records, out: &mut String, first: &mut bool) {
    // The labels that emitted a record, not every label the ring interned.
    let nodes: BTreeSet<Arc<str>> = records.iter().map(|r| r.node).collect();
    let nodes: Vec<Arc<str>> = nodes.into_iter().collect();
    let tid_of = |node: &Arc<str>| nodes.binary_search(node).expect("node indexed") + 1;

    // Process/thread naming metadata.
    for (pid, pname) in [(1, "nodes"), (2, "consensus stages")] {
        sep(out, first);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{pname}\"}}}}"
        );
    }
    for (tid, node) in (1..).zip(&nodes) {
        sep(out, first);
        let mut name = String::new();
        escape_json(node, &mut name);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{name}\"}}}}"
        );
    }
    for (tid, stage) in (1..).zip(STAGE_NAMES) {
        sep(out, first);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":2,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{stage}\"}}}}"
        );
    }

    // Raw records as instant events.
    for rec in records {
        sep(out, first);
        let _ = write!(
            out,
            "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"s\":\"t\",\"name\":\"{}\",\"ts\":",
            tid_of(&rec.node),
            rec.event.kind()
        );
        push_ts(out, rec.t);
        out.push_str(",\"args\":{");
        for (i, (k, v)) in rec.event.fields().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push_str("}}");
    }

    // Assembled stage slices as complete events.
    for span in assemble_spans(records) {
        let Some(durs) = span.stage_durations() else {
            continue;
        };
        let (view, seq, mut start) = (span.view, span.seq, span.propose);
        for ((tid, stage), d) in (1..).zip(STAGE_NAMES).zip(durs) {
            sep(out, first);
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":2,\"tid\":{tid},\"name\":\"v{view}/{seq}\",\"ts\":"
            );
            push_ts(out, start);
            let ns = d.as_nanos();
            let _ = write!(
                out,
                ",\"dur\":{}.{:03},\"args\":{{\"view\":{view},\"seq\":{seq},\"stage\":\"{stage}\"}}}}",
                ns / 1000,
                ns % 1000
            );
            start += d;
        }
    }
}

// ----------------------------------------------------------------------
// Timelines: views over the records, exported beside them
// ----------------------------------------------------------------------

/// A timeline marker: something notable that happened at one instant,
/// on the same clock as the records and the series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Annotation {
    /// When it happened.
    pub t: SimTime,
    /// The node it happened on (trace label, e.g. `m1`, `switch`).
    pub node: String,
    /// What happened (e.g. `view-change v2`, `leader-kill`).
    pub label: String,
}

/// The timeline-worthy records as markers, in record order: view
/// changes, P4CE fallback / group (re-)establishment and QP recovery
/// firings. The per-packet hot-path kinds are skipped.
pub fn annotations_from_records(records: &Records) -> Vec<Annotation> {
    let mut out = Vec::new();
    for rec in records {
        let label = match rec.event {
            TraceEvent::ViewChange { view, leader } => {
                if leader == u64::MAX {
                    format!("view-change v{view} (no leader)")
                } else {
                    format!("view-change v{view} -> m{leader}")
                }
            }
            TraceEvent::FellBack => "fell-back".to_owned(),
            TraceEvent::GroupEstablished => "group-established".to_owned(),
            TraceEvent::Retransmit { kind, packets, .. } => {
                format!("qp-recovery {} ({packets} pkts)", kind.label())
            }
            _ => continue,
        };
        out.push(Annotation {
            t: rec.t,
            node: rec.node.to_string(),
            label,
        });
    }
    out
}

/// Named counter series plus a marker stream, on the simulated clock.
/// A timeline is computed from trace records when it is exported (the
/// failover harness counts `Decide` and `ViewChange` records on a grid),
/// so it can say nothing the records do not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    /// Each series' `(instant, count)` points in clock order, by name.
    pub series: BTreeMap<String, Vec<(SimTime, u64)>>,
    /// The markers, in clock order.
    pub annotations: Vec<Annotation>,
}

impl Timeline {
    /// Series `name` as rates: for each adjacent pair of points, the count
    /// delta over the time delta in units per second, stamped at the later
    /// point. Zero-width intervals are skipped.
    pub fn rates(&self, name: &str) -> Option<Vec<(SimTime, f64)>> {
        let points = self.series.get(name)?;
        let mut out = Vec::with_capacity(points.len().saturating_sub(1));
        for w in points.windows(2) {
            let ((pt, pv), (t, v)) = (w[0], w[1]);
            if t > pt {
                let dt_s = (t - pt).as_nanos() as f64 / 1e9;
                out.push((t, (v as f64 - pv as f64) / dt_s));
            }
        }
        Some(out)
    }

    /// Renders the timeline as CSV: `t_ns,kind,name,value` rows, samples
    /// first (series in name order, each oldest first), then the markers
    /// (`kind=annotation`, `name` = `node:label`, empty value).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_ns,kind,name,value\n");
        for (name, points) in &self.series {
            for (t, v) in points {
                let _ = writeln!(out, "{},sample,{name},{v}", t.as_nanos());
            }
        }
        for a in &self.annotations {
            // Commas and newlines would break the row structure.
            let label = a.label.replace([',', '\n', '\r'], ";");
            let _ = writeln!(out, "{},annotation,{}:{label},", a.t.as_nanos(), a.node);
        }
        out
    }
}

/// [`chrome_trace_json`] plus a timeline: every series becomes a Perfetto
/// **counter track** (`ph:"C"`, process 3) and every marker a global
/// instant, so the timelines render in the same UI, on the same clock, as
/// the per-instance spans.
pub fn chrome_trace_json_with(records: &Records, timeline: &Timeline) -> String {
    let samples: usize = timeline.series.values().map(Vec::len).sum();
    let mut out =
        String::with_capacity(records.len() * 96 + samples * 64 + timeline.annotations.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    chrome_trace_body(records, &mut out, &mut first);

    sep(&mut out, &mut first);
    out.push_str(
        "{\"ph\":\"M\",\"pid\":3,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"timelines\"}}",
    );
    for (name, points) in &timeline.series {
        let mut escaped = String::new();
        escape_json(name, &mut escaped);
        for &(t, v) in points {
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"C\",\"pid\":3,\"name\":\"{escaped}\",\"ts\":"
            );
            push_ts(&mut out, t);
            let _ = write!(out, ",\"args\":{{\"value\":{v}}}}}");
        }
    }
    for a in &timeline.annotations {
        sep(&mut out, &mut first);
        let mut label = String::new();
        escape_json(&a.label, &mut label);
        let mut node = String::new();
        escape_json(&a.node, &mut node);
        let _ = write!(
            out,
            "{{\"ph\":\"i\",\"pid\":3,\"tid\":0,\"s\":\"g\",\"name\":\"{label}\",\"ts\":"
        );
        push_ts(&mut out, a.t);
        let _ = write!(out, ",\"args\":{{\"node\":\"{node}\"}}}}");
    }
    out.push_str("\n]}\n");
    out
}

// ----------------------------------------------------------------------
// Minimal JSON parser (round-trip validation of the export; the
// workspace deliberately has no serde dependency)
// ----------------------------------------------------------------------

/// A minimal JSON reader, sufficient to validate [`chrome_trace_json`]
/// output (and other hand-rolled exports) without a serde dependency.
pub mod json {
    /// A parsed JSON value. Numbers are kept as `f64`.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, in source order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Looks a key up in an object.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The array's elements, when this is an array.
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }

        /// The string's contents, when this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The numeric value, when this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }
    }

    /// Arrays and objects nested deeper than this are refused: the parser
    /// recurses once per level, and an unbounded document would overflow
    /// the stack (every export the workspace writes is at most 5 deep).
    const MAX_DEPTH: usize = 256;

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
        fn err(&self, msg: &str) -> String {
            format!("json parse error at byte {}: {msg}", self.pos)
        }

        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn eat(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(&format!("expected {:?}", b as char)))
            }
        }

        fn eat_lit(&mut self, lit: &str, v: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(v)
            } else {
                Err(self.err(&format!("expected {lit}")))
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let mut s = String::new();
            loop {
                let Some(b) = self.peek() else {
                    return Err(self.err("unterminated string"));
                };
                self.pos += 1;
                match b {
                    b'"' => return Ok(s),
                    b'\\' => {
                        let Some(esc) = self.peek() else {
                            return Err(self.err("unterminated escape"));
                        };
                        self.pos += 1;
                        match esc {
                            b'"' => s.push('"'),
                            b'\\' => s.push('\\'),
                            b'/' => s.push('/'),
                            b'b' => s.push('\u{8}'),
                            b'f' => s.push('\u{c}'),
                            b'n' => s.push('\n'),
                            b'r' => s.push('\r'),
                            b't' => s.push('\t'),
                            b'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or_else(|| self.err("bad \\u escape"))?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| self.err("bad \\u escape"))?;
                                self.pos += 4;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            _ => return Err(self.err("unknown escape")),
                        }
                    }
                    b if b < 0x80 => s.push(b as char),
                    _ => {
                        // Re-consume the full UTF-8 character. Validate
                        // at most 4 bytes (one code point), never the
                        // whole tail — that would make string parsing
                        // quadratic in the document size.
                        self.pos -= 1;
                        let end = (self.pos + 4).min(self.bytes.len());
                        let window = &self.bytes[self.pos..end];
                        let prefix = match std::str::from_utf8(window) {
                            Ok(w) => w,
                            // The window may truncate a *following*
                            // character; the valid prefix still holds
                            // the one starting at `pos` (if any).
                            Err(e) => std::str::from_utf8(&window[..e.valid_up_to()])
                                .expect("valid_up_to prefix is valid"),
                        };
                        let c = prefix
                            .chars()
                            .next()
                            .ok_or_else(|| self.err("invalid utf-8"))?;
                        s.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| self.err("invalid number"))?;
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| self.err("invalid number"))
        }

        /// One value inside `depth` enclosing arrays and objects.
        fn value(&mut self, depth: usize) -> Result<Value, String> {
            self.skip_ws();
            if matches!(self.peek(), Some(b'{' | b'[')) && depth == MAX_DEPTH {
                return Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")));
            }
            match self.peek() {
                Some(b'{') => {
                    self.pos += 1;
                    let mut fields = Vec::new();
                    self.skip_ws();
                    if self.peek() == Some(b'}') {
                        self.pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    loop {
                        self.skip_ws();
                        let key = self.string()?;
                        self.skip_ws();
                        self.eat(b':')?;
                        let val = self.value(depth + 1)?;
                        fields.push((key, val));
                        self.skip_ws();
                        match self.peek() {
                            Some(b',') => self.pos += 1,
                            Some(b'}') => {
                                self.pos += 1;
                                return Ok(Value::Obj(fields));
                            }
                            _ => return Err(self.err("expected , or }")),
                        }
                    }
                }
                Some(b'[') => {
                    self.pos += 1;
                    let mut items = Vec::new();
                    self.skip_ws();
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    loop {
                        items.push(self.value(depth + 1)?);
                        self.skip_ws();
                        match self.peek() {
                            Some(b',') => self.pos += 1,
                            Some(b']') => {
                                self.pos += 1;
                                return Ok(Value::Arr(items));
                            }
                            _ => return Err(self.err("expected , or ]")),
                        }
                    }
                }
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.eat_lit("true", Value::Bool(true)),
                Some(b'f') => self.eat_lit("false", Value::Bool(false)),
                Some(b'n') => self.eat_lit("null", Value::Null),
                Some(_) => self.number(),
                None => Err(self.err("unexpected end of input")),
            }
        }
    }

    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// Reports the byte offset and nature of the first syntax error, or
    /// of the first array or object nested more than 256 levels deep.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing garbage"));
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_never_runs_the_constructor() {
        let tracer = Tracer::disabled();
        let mut ran = false;
        tracer.emit(SimTime::ZERO, || {
            ran = true;
            TraceEvent::FellBack
        });
        assert!(!ran, "disabled tracer must not evaluate the event");
    }

    #[test]
    fn enabled_tracer_collects_labeled_records() {
        let handle = TraceHandle::new();
        let t0 = handle.tracer("m0");
        let t1 = t0.labeled("switch");
        t0.emit(SimTime::from_nanos(10), || TraceEvent::Propose {
            view: 1,
            seq: 7,
        });
        t1.emit(SimTime::from_nanos(20), || TraceEvent::Scatter {
            psn: 3,
            dist: 0,
        });
        let records: Vec<TraceRecord> = handle.records().iter().collect();
        assert_eq!(records.len(), 2);
        assert_eq!(&*records[0].node, "m0");
        assert_eq!(&*records[1].node, "switch");
        assert_eq!(records[1].t, SimTime::from_nanos(20));
    }

    #[test]
    fn binary_encoding_roundtrips_every_variant() {
        let events = [
            TraceEvent::Propose { view: 1, seq: 2 },
            TraceEvent::PostBound {
                view: 1,
                seq: 2,
                qpn: 3,
                wr_id: 4,
            },
            TraceEvent::Decide { view: 1, seq: 2 },
            TraceEvent::Apply { seq: 9 },
            TraceEvent::ViewChange {
                view: 5,
                leader: u64::MAX,
            },
            TraceEvent::FellBack,
            TraceEvent::GroupEstablished,
            TraceEvent::WqePost { qpn: 16, wr_id: 7 },
            TraceEvent::WireTx {
                qpn: 16,
                wr_id: 7,
                psn: 0xff_fffe,
                npkts: 3,
            },
            TraceEvent::AckTx { qpn: 16, psn: 11 },
            TraceEvent::AckRx {
                qpn: 16,
                psn: 11,
                credits: 31,
            },
            TraceEvent::NakTx { qpn: 16, psn: 12 },
            TraceEvent::NakRx { qpn: 16, psn: 12 },
            TraceEvent::Retransmit {
                qpn: 16,
                kind: RetransmitKind::Timeout,
                packets: 2,
            },
            TraceEvent::Retransmit {
                qpn: 16,
                kind: RetransmitKind::Nak,
                packets: 1,
            },
            TraceEvent::Scatter { psn: 8, dist: 1 },
            TraceEvent::ScatterCopy { psn: 8, rid: 2 },
            TraceEvent::GatherAck {
                psn: 8,
                endpoint: 2,
                distinct: 2,
                quorum: true,
            },
            TraceEvent::CreditClamp {
                psn: 8,
                folded: 3,
                carried: 30,
            },
            TraceEvent::NakForward { psn: 8 },
        ];
        let handle = TraceHandle::new();
        let tracer = handle.tracer("m0");
        for (i, ev) in events.iter().enumerate() {
            tracer.emit(SimTime::from_nanos(i as u64 * 5), || *ev);
        }
        let records = handle.records();
        assert_eq!(records.len(), events.len());
        for (i, (rec, ev)) in records.iter().zip(events.iter()).enumerate() {
            assert_eq!(rec.event, *ev, "variant {i} did not round-trip");
            assert_eq!(rec.t, SimTime::from_nanos(i as u64 * 5));
            assert_eq!(&*rec.node, "m0");
        }
    }

    #[test]
    fn bounded_ring_drops_oldest_deterministically() {
        let handle = TraceHandle::bounded(4);
        let tracer = handle.tracer("m0");
        for seq in 0..10 {
            tracer.emit(SimTime::from_nanos(seq), || TraceEvent::Apply { seq });
        }
        assert_eq!(handle.records().len(), 4);
        assert_eq!(handle.dropped(), 6);
        let seqs: Vec<u64> = handle
            .records()
            .iter()
            .map(|r| match r.event {
                TraceEvent::Apply { seq } => seq,
                ref other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest records must be dropped");
    }

    #[test]
    fn wrapped_ring_yields_partial_spans_without_panicking() {
        // A bounded ring that wrapped mid-chain loses the *head* of the
        // oldest instance; span assembly must stay graceful — partial
        // spans for what survived, complete ones for what did not wrap.
        let handle = TraceHandle::bounded(10);
        chain(&handle, 1, 0, 1000, 100);
        chain(&handle, 1, 1, 3000, 101);
        assert_eq!(handle.dropped(), 2 * 8 - 10, "two chains of eight records");
        let spans = assemble_spans(&handle.records());
        let second = spans
            .iter()
            .find(|s| s.seq == 1)
            .expect("unwrapped instance survives");
        assert!(second.is_complete());
        for span in &spans {
            if span.seq == 0 {
                assert!(!span.is_complete(), "truncated chain must stay partial");
            }
        }
    }

    /// One synthetic instance's full record chain, as `(ns, node, event)`.
    fn script(view: u64, seq: u64, base_ns: u64, psn: u64) -> Vec<(u64, &'static str, TraceEvent)> {
        vec![
            (base_ns, "m0", TraceEvent::Propose { view, seq }),
            (
                base_ns + 10,
                "m0",
                TraceEvent::PostBound {
                    view,
                    seq,
                    qpn: 16,
                    wr_id: seq,
                },
            ),
            (
                base_ns + 100,
                "m0",
                TraceEvent::WireTx {
                    qpn: 16,
                    wr_id: seq,
                    psn,
                    npkts: 1,
                },
            ),
            (
                base_ns + 400,
                "switch",
                TraceEvent::Scatter { psn, dist: 0 },
            ),
            (
                base_ns + 900,
                "switch",
                TraceEvent::GatherAck {
                    psn,
                    endpoint: 1,
                    distinct: 1,
                    quorum: false,
                },
            ),
            (
                base_ns + 1000,
                "switch",
                TraceEvent::GatherAck {
                    psn,
                    endpoint: 2,
                    distinct: 2,
                    quorum: true,
                },
            ),
            (
                base_ns + 1400,
                "m0",
                TraceEvent::AckRx {
                    qpn: 16,
                    psn,
                    credits: 31,
                },
            ),
            (base_ns + 1600, "m0", TraceEvent::Decide { view, seq }),
        ]
    }

    /// Emits `script` into `handle`, each record through a tracer
    /// labelled as its node.
    fn emit(
        handle: &TraceHandle,
        script: impl IntoIterator<Item = (u64, &'static str, TraceEvent)>,
    ) {
        for (ns, node, event) in script {
            handle.tracer(node).emit(SimTime::from_nanos(ns), || event);
        }
    }

    /// Emits one synthetic instance's full record chain into `handle`.
    fn chain(handle: &TraceHandle, view: u64, seq: u64, base_ns: u64, psn: u64) {
        emit(handle, script(view, seq, base_ns, psn));
    }

    #[test]
    fn spans_assemble_and_stage_sums_telescope() {
        let handle = TraceHandle::new();
        chain(&handle, 1, 0, 1000, 100);
        chain(&handle, 1, 1, 3000, 101);
        let spans = assemble_spans(&handle.records());
        assert_eq!(spans.len(), 2);
        for span in &spans {
            assert!(
                span.is_complete(),
                "span {}/{} incomplete",
                span.view,
                span.seq
            );
            let durs = span.stage_durations().expect("complete");
            let sum: u64 = durs.iter().map(|d| d.as_nanos()).sum();
            assert_eq!(sum, span.end_to_end().expect("decided").as_nanos());
            assert_eq!(span.gather_acks, 2);
        }
        assert_eq!(spans[0].end_to_end().expect("decided").as_nanos(), 1600);
        let b = breakdown(&spans);
        assert_eq!(b.complete, 2);
        assert_eq!(b.total, 2);
        assert!(b.reconciles());
        assert_eq!(b.stages[0].lat.mean().as_nanos(), 100); // propose -> wire_tx
    }

    #[test]
    fn partial_chain_yields_partial_span() {
        let handle = TraceHandle::new();
        let script = script(1, 0, 1000, 100).into_iter();
        emit(
            &handle,
            script.filter(|(_, _, e)| !matches!(e, TraceEvent::Scatter { .. })),
        );
        let spans = assemble_spans(&handle.records());
        assert_eq!(spans.len(), 1);
        assert!(!spans[0].is_complete());
        assert!(spans[0].wire_tx.is_some());
        assert!(spans[0].scatter.is_none());
        assert_eq!(spans[0].decide, Some(SimTime::from_nanos(2600)));
        let b = breakdown(&spans);
        assert_eq!((b.complete, b.total), (0, 1));
        assert!(b.reconciles(), "vacuously true with no complete spans");
    }

    #[test]
    fn multi_packet_message_matches_on_last_psn() {
        let mut script = script(2, 5, 500, 200);
        // Turn the WireTx into a 3-packet message; the switch events in
        // the chain carry psn 202 now.
        for (_, _, event) in &mut script {
            match event {
                TraceEvent::WireTx { psn, npkts, .. } => {
                    *psn = 200;
                    *npkts = 3;
                }
                TraceEvent::Scatter { psn, .. }
                | TraceEvent::GatherAck { psn, .. }
                | TraceEvent::AckRx { psn, .. } => *psn = 202,
                _ => {}
            }
        }
        let handle = TraceHandle::new();
        emit(&handle, script);
        let spans = assemble_spans(&handle.records());
        assert!(spans[0].is_complete());
    }

    #[test]
    fn chrome_trace_round_trips_through_the_parser() {
        let handle = TraceHandle::new();
        chain(&handle, 1, 0, 1000, 100);
        let text = chrome_trace_json(&handle.records());
        let doc = json::parse(&text).expect("export must be valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(json::Value::as_arr)
            .expect("traceEvents array");
        // 2 process names + 2 node threads + 5 stage threads + 8 instants
        // + 5 stage slices.
        assert_eq!(events.len(), 22);
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").and_then(json::Value::as_str).expect("ph"))
            .collect();
        assert_eq!(phases.iter().filter(|&&p| p == "X").count(), 5);
        assert_eq!(phases.iter().filter(|&&p| p == "i").count(), 8);
        // Every complete event carries ts + dur in microseconds.
        let slice = events
            .iter()
            .find(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
            .expect("one slice");
        assert!(slice.get("ts").and_then(json::Value::as_f64).is_some());
        assert!(slice.get("dur").and_then(json::Value::as_f64).expect("dur") > 0.0);
    }

    #[test]
    fn json_parser_handles_the_usual_suspects() {
        let v =
            json::parse(r#"{"a": [1, 2.5, -3e2], "b": "q\"\nA", "c": true, "d": null, "e": {}}"#)
                .expect("valid");
        assert_eq!(
            v.get("a").and_then(json::Value::as_arr).map(<[_]>::len),
            Some(3)
        );
        assert_eq!(v.get("b").and_then(json::Value::as_str), Some("q\"\nA"));
        assert_eq!(v.get("c"), Some(&json::Value::Bool(true)));
        assert_eq!(v.get("d"), Some(&json::Value::Null));
        assert!(json::parse("{").is_err());
        assert!(json::parse("[1,]").is_err());
        assert!(json::parse("{} trailing").is_err());
    }

    #[test]
    fn json_parser_decodes_multibyte_strings_in_linear_time() {
        // Multi-byte characters decode correctly, including when the
        // 4-byte validation window truncates the *next* character.
        let v = json::parse(r#"["µs → décidé", "漢字", "🦀x"]"#).expect("valid");
        let arr = v.as_arr().expect("array");
        assert_eq!(arr[0].as_str(), Some("µs → décidé"));
        assert_eq!(arr[1].as_str(), Some("漢字"));
        assert_eq!(arr[2].as_str(), Some("🦀x"));

        // A document dominated by string bytes parses in time linear in
        // its size (the quadratic re-validation would take minutes).
        let big = format!(
            "[{}\"end\"]",
            "\"padding-padding-padding-é-padding\",".repeat(50_000)
        );
        let started = std::time::Instant::now();
        let v = json::parse(&big).expect("valid");
        assert_eq!(v.as_arr().map(<[_]>::len), Some(50_001));
        assert!(
            started.elapsed() < std::time::Duration::from_secs(30),
            "string parsing must stay linear in document size"
        );
    }

    #[test]
    fn json_parser_refuses_nesting_it_cannot_recurse_into() {
        // Unbounded recursion would abort the process on a stack overflow.
        let err = json::parse(&"[".repeat(100_000)).expect_err("too deep");
        assert!(err.contains("at byte 256"), "{err}");
        let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(json::parse(&nested(256)).is_ok());
        assert!(json::parse(&nested(257)).is_err());
        let objects = format!("{}1{}", "{\"k\":".repeat(256), "}".repeat(256));
        assert!(json::parse(&objects).is_ok());
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn timeline(series: &[(&str, &[(u64, u64)])]) -> Timeline {
        let series = series.iter().map(|&(name, points)| {
            let points = points.iter().map(|&(us, v)| (t(us), v)).collect();
            (name.to_owned(), points)
        });
        Timeline {
            series: series.collect(),
            annotations: Vec::new(),
        }
    }

    #[test]
    fn timeline_rates_derive_deltas_per_second() {
        // A duplicate instant must not divide by zero.
        let tl = timeline(&[("decided", &[(100, 0), (200, 10), (400, 10), (400, 12)])]);
        let rates = tl.rates("decided").expect("exists");
        assert_eq!(rates, vec![(t(200), 100_000.0), (t(400), 0.0)]);
        assert_eq!(tl.rates("absent"), None);
    }

    #[test]
    fn annotations_derive_from_trace_kinds() {
        let handle = TraceHandle::new();
        let tracer = handle.tracer("m1");
        tracer.emit(t(30), || TraceEvent::ViewChange { view: 2, leader: 1 });
        tracer.emit(t(10), || TraceEvent::FellBack);
        tracer.emit(t(20), || TraceEvent::Retransmit {
            qpn: 3,
            kind: RetransmitKind::Timeout,
            packets: 4,
        });
        tracer.emit(t(40), || TraceEvent::GroupEstablished);
        tracer.emit(t(50), || TraceEvent::Decide { view: 2, seq: 9 });
        tracer.emit(t(60), || TraceEvent::ViewChange {
            view: 3,
            leader: u64::MAX,
        });
        let ann = annotations_from_records(&handle.records());
        let labels: Vec<&str> = ann.iter().map(|a| a.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "view-change v2 -> m1",
                "fell-back",
                "qp-recovery timeout (4 pkts)",
                "group-established",
                "view-change v3 (no leader)",
            ],
            "record order; per-packet Decide kinds are skipped"
        );
        assert!(ann.iter().all(|a| a.node == "m1"));
    }

    #[test]
    fn timeline_csv_export_is_stable() {
        let mut tl = timeline(&[("a.decided", &[(100, 1), (200, 3)])]);
        tl.annotations.push(Annotation {
            t: t(150),
            node: "m0".to_owned(),
            label: "leader-kill, again".to_owned(),
        });
        assert_eq!(
            tl.to_csv(),
            "t_ns,kind,name,value\n\
             100000,sample,a.decided,1\n\
             200000,sample,a.decided,3\n\
             150000,annotation,m0:leader-kill; again,\n"
        );
    }

    #[test]
    fn chrome_export_carries_counter_tracks_and_markers() {
        let handle = TraceHandle::new();
        handle
            .tracer("m0")
            .emit(t(10), || TraceEvent::Propose { view: 1, seq: 0 });
        let records = handle.records();
        let mut tl = timeline(&[("decided.total", &[(100, 5)])]);
        tl.annotations.push(Annotation {
            t: t(150),
            node: "harness".to_owned(),
            label: "leader-kill".to_owned(),
        });
        let out = chrome_trace_json_with(&records, &tl);
        let parsed = json::parse(&out).expect("valid json");
        let events = parsed
            .get("traceEvents")
            .and_then(json::Value::as_arr)
            .expect("array");
        let named = |ph: &str, name: &str| {
            events.iter().find(|e| {
                e.get("ph").and_then(json::Value::as_str) == Some(ph)
                    && e.get("name").and_then(json::Value::as_str) == Some(name)
            })
        };
        let counter = named("C", "decided.total").expect("counter track");
        let value = counter.get("args").and_then(|a| a.get("value"));
        assert_eq!(value.and_then(json::Value::as_f64), Some(5.0));
        assert!(named("i", "leader-kill").is_some());
        // The plain export is the same body without the timeline process.
        let plain = chrome_trace_json(&records);
        assert!(plain.contains("propose") && !plain.contains("\"pid\":3"));
    }

    #[test]
    fn labels_and_timestamps_have_no_format_limit() {
        // Three hundred labels: a traced sharded point of 85 groups of
        // three members outgrows a one-byte label id.
        let handle = TraceHandle::new();
        let tracers: Vec<Tracer> = (0..300).map(|i| handle.tracer(&format!("g{i}"))).collect();
        for (i, tracer) in tracers.iter().enumerate() {
            tracer.emit(SimTime::from_nanos(i as u64), || TraceEvent::Apply {
                seq: 1,
            });
        }
        let labels: Vec<String> = handle
            .records()
            .iter()
            .map(|r| r.node.to_string())
            .collect();
        let expected: Vec<String> = (0..300).map(|i| format!("g{i}")).collect();
        assert_eq!(labels, expected);
        // Timestamps past 48 bits, and back to zero.
        let handle = TraceHandle::new();
        let tracer = handle.tracer("m0");
        let instants = [0, 1 << 48, 1 << 62, 0];
        for ns in instants {
            tracer.emit(SimTime::from_nanos(ns), || TraceEvent::FellBack);
        }
        let times: Vec<u64> = handle.records().iter().map(|r| r.t.as_nanos()).collect();
        assert_eq!(times, instants);
    }

    /// Bytes the ring's held records occupy.
    fn ring_bytes(handle: &TraceHandle) -> usize {
        let ring = handle.inner.lock().expect("trace ring poisoned");
        ring.chunks.iter().map(Vec::len).sum::<usize>() - ring.head
    }

    #[test]
    fn a_consensus_instance_costs_at_most_twelve_bytes_a_record() {
        // One instance as the module doc follows it through a 3-member
        // cluster, seq and PSN growing: the fixed-width format this one
        // replaced spent 40 bytes on each of these records.
        let handle = TraceHandle::new();
        let [leader, switch, r1, r2] = ["m0", "switch", "m1", "m2"].map(|l| handle.tracer(l));
        let mut emitted = 0;
        let mut at = |tracer: &Tracer, ns: u64, event: TraceEvent| {
            tracer.emit(SimTime::from_nanos(ns), || event);
            emitted += 1;
        };
        let (view, qpn) = (1, 0x11);
        for seq in 1..=20_000u64 {
            let t = 1_000_000 + seq * 2_000;
            let psn = (0xfe_0000 + seq) & PSN_MASK;
            at(&leader, t, TraceEvent::Propose { view, seq });
            let bound = TraceEvent::PostBound {
                view,
                seq,
                qpn,
                wr_id: seq,
            };
            at(&leader, t + 40, bound);
            at(&leader, t + 60, TraceEvent::WqePost { qpn, wr_id: seq });
            let wire = TraceEvent::WireTx {
                qpn,
                wr_id: seq,
                psn,
                npkts: 1,
            };
            at(&leader, t + 150, wire);
            at(&switch, t + 700, TraceEvent::Scatter { psn, dist: seq });
            for rid in 0..2 {
                at(&switch, t + 710 + rid, TraceEvent::ScatterCopy { psn, rid });
            }
            at(&r1, t + 1_250, TraceEvent::AckTx { qpn: 0x12, psn });
            at(&r2, t + 1_260, TraceEvent::AckTx { qpn: 0x13, psn });
            for endpoint in 0..2 {
                let ack = TraceEvent::GatherAck {
                    psn,
                    endpoint,
                    distinct: endpoint + 1,
                    quorum: endpoint == 0,
                };
                at(&switch, t + 1_800 + endpoint * 10, ack);
            }
            let credits = 31;
            at(&leader, t + 2_350, TraceEvent::AckRx { qpn, psn, credits });
            at(&leader, t + 2_600, TraceEvent::Decide { view, seq });
            for member in [&leader, &r1, &r2] {
                at(member, t + 2_700, TraceEvent::Apply { seq });
            }
        }
        let records = handle.records();
        assert_eq!(records.len(), emitted);
        let per_record = ring_bytes(&handle) as f64 / emitted as f64;
        assert!(per_record <= 12.0, "{per_record:.2} B a record");
        // The snapshot costs the ring's bytes plus its label table (the
        // labels themselves are shared), not a decoded record each.
        let heap = records.bytes.capacity() + records.labels.capacity() * size_of::<Arc<str>>();
        assert!(heap <= ring_bytes(&handle) + records.labels.len() * size_of::<Arc<str>>());
        let per_record = heap as f64 / emitted as f64;
        assert!(per_record <= 12.0, "snapshot: {per_record:.2} B a record");
    }

    #[test]
    fn a_bounded_ring_drops_across_chunks_and_frees_them() {
        // Records of ~35 bytes fill ~1,800 to a chunk; 20,000 of them
        // cross ten chunk boundaries.
        let (cap, n) = (100, 20_000u64);
        let bounded = TraceHandle::bounded(cap);
        let tracer = bounded.tracer("m0");
        let event = |i: u64| TraceEvent::PostBound {
            view: u64::MAX,
            seq: i,
            qpn: u64::MAX - i,
            wr_id: u64::MAX,
        };
        for i in 0..n {
            tracer.emit(SimTime::from_nanos(i * 3), || event(i));
        }
        let records = bounded.records();
        assert_eq!((records.len(), records.iter().count()), (cap, cap));
        assert_eq!(bounded.dropped(), n - cap as u64);
        for (rec, i) in records.iter().zip(n - cap as u64..) {
            assert_eq!((rec.t, rec.event), (SimTime::from_nanos(i * 3), event(i)));
        }
        let chunks = bounded
            .inner
            .lock()
            .expect("trace ring poisoned")
            .chunks
            .len();
        assert!(chunks <= 2, "a drained chunk was kept: {chunks} chunks");
    }

    /// A snapshot's records as `(ns, seq)`, each an `Apply`.
    fn applied(records: &Records) -> Vec<(u64, u64)> {
        let seq = |event| match event {
            TraceEvent::Apply { seq } => seq,
            other => panic!("unexpected event {other:?}"),
        };
        (records.iter())
            .map(|r| (r.t.as_nanos(), seq(r.event)))
            .collect()
    }

    #[test]
    fn records_emitted_after_a_snapshot_are_not_in_it() {
        let handle = TraceHandle::new();
        let tracer = handle.tracer("m0");
        let apply =
            |seq: u64| tracer.emit(SimTime::from_nanos(seq * 10), || TraceEvent::Apply { seq });
        (0..3).for_each(apply);
        let snapshot = handle.records();
        (3..5).for_each(apply);
        assert_eq!(applied(&snapshot), [(0, 0), (10, 1), (20, 2)]);
        assert_eq!(applied(&snapshot), applied(&snapshot), "walked twice");
        assert_eq!(snapshot.len(), snapshot.iter().count());
        let now = handle.records();
        assert_eq!((now.len(), now.iter().count()), (5, 5));
    }

    #[test]
    fn a_bounded_ring_dropping_after_a_snapshot_leaves_it_intact() {
        let handle = TraceHandle::bounded(4);
        let tracer = handle.tracer("m0");
        let apply =
            |seq: u64| tracer.emit(SimTime::from_nanos(seq * 10), || TraceEvent::Apply { seq });
        (0..6).for_each(apply);
        let snapshot = handle.records();
        // Far past the snapshot: the ring drops every record it held then,
        // across more than one chunk.
        (6..20_000).for_each(apply);
        assert_eq!(handle.dropped(), 20_000 - 4);
        assert_eq!(applied(&snapshot), [(20, 2), (30, 3), (40, 4), (50, 5)]);
        assert_eq!(applied(&snapshot), applied(&snapshot), "walked twice");
        assert_eq!(snapshot.len(), snapshot.iter().count());
        let tail: Vec<(u64, u64)> = (19_996..20_000).map(|seq| (seq * 10, seq)).collect();
        assert_eq!(applied(&handle.records()), tail);
    }

    #[test]
    fn a_label_that_never_emitted_gets_no_chrome_thread() {
        // "idle" sorts before "m0": a thread list read off the intern
        // table would name it and give m0 the second thread.
        let handle = TraceHandle::new();
        let _idle = handle.tracer("idle");
        handle.tracer("m0").emit(t(10), || TraceEvent::FellBack);
        let text = chrome_trace_json(&handle.records());
        let doc = json::parse(&text).expect("valid json");
        let events = doc
            .get("traceEvents")
            .and_then(json::Value::as_arr)
            .expect("array");
        let on_nodes = |ph: &'static str| {
            (events.iter())
                .filter(|e| e.get("pid").and_then(json::Value::as_f64) == Some(1.0))
                .filter(move |e| e.get("ph").and_then(json::Value::as_str) == Some(ph))
        };
        let threads: Vec<(Option<f64>, Option<&str>)> = on_nodes("M")
            .filter(|e| e.get("name").and_then(json::Value::as_str) == Some("thread_name"))
            .map(|e| {
                let name = e.get("args").and_then(|a| a.get("name"));
                (
                    e.get("tid").and_then(json::Value::as_f64),
                    name.and_then(json::Value::as_str),
                )
            })
            .collect();
        assert_eq!(threads, [(Some(1.0), Some("m0"))]);
        let tids: Vec<Option<f64>> = on_nodes("i")
            .map(|e| e.get("tid").and_then(json::Value::as_f64))
            .collect();
        assert_eq!(tids, [Some(1.0)]);
        assert!(!text.contains("idle"), "{text}");
    }

    /// Field values at the edges of what the layers emit: zero, one, the
    /// PSN space's last value and the `u64` maximum (a view change to no
    /// leader). A nonzero `quorum` or `timeout` field decodes as `true`.
    const EDGES: [u64; 4] = [0, 1, PSN_MASK, u64::MAX];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Unbounded and bounded rings hold what a queue of the emitted
        /// records holds: the same records in order, the same count and
        /// the same number dropped.
        #[test]
        fn the_one_format_decodes_what_was_emitted(
            stream in proptest::collection::vec(
                (0u8..19, 0usize..4, 0usize..4, 0usize..4, 0usize..4, 0usize..3, 0usize..6),
                0..300,
            ),
            cap in 1usize..65,
        ) {
            let rings = [(TraceHandle::new(), usize::MAX), (TraceHandle::bounded(cap), cap)];
            for (handle, cap) in rings {
                let tracers = ["m0", "m1", "switch"].map(|l| handle.tracer(l));
                let mut model: VecDeque<(SimTime, &str, TraceEvent)> = VecDeque::new();
                let mut dropped = 0;
                let mut t_ns = 5_000u64;
                for &(kind, a, b, c, d, node, step) in &stream {
                    let event = TraceEvent::decode(kind, [a, b, c, d].map(|i| EDGES[i]));
                    // Equal, forward, backward, 2⁵⁰ ahead, zero, 2⁶² back.
                    t_ns = match step {
                        0 => t_ns,
                        1 => t_ns.wrapping_add(130),
                        2 => t_ns.wrapping_sub(70),
                        3 => t_ns.wrapping_add(1 << 50),
                        4 => 0,
                        _ => t_ns.wrapping_sub(1 << 62),
                    };
                    let t = SimTime::from_nanos(t_ns);
                    tracers[node].emit(t, || event);
                    if model.len() == cap {
                        model.pop_front();
                        dropped += 1;
                    }
                    model.push_back((t, ["m0", "m1", "switch"][node], event));
                }
                let records = handle.records();
                let decoded: Vec<(SimTime, String, TraceEvent)> =
                    records.iter().map(|r| (r.t, r.node.to_string(), r.event)).collect();
                let model: Vec<(SimTime, String, TraceEvent)> =
                    model.into_iter().map(|(t, node, e)| (t, node.to_owned(), e)).collect();
                proptest::prop_assert_eq!(records.len(), model.len());
                proptest::prop_assert_eq!(decoded, model);
                proptest::prop_assert_eq!(handle.dropped(), dropped);
            }
        }
    }

    /// One sample per variant, in kind-byte order, with the export name
    /// and field names it carries: `KINDS` must agree with every variant.
    #[test]
    fn kinds_table_names_every_variant() {
        use TraceEvent as E;
        let timeout = RetransmitKind::Timeout;
        let samples: [(TraceEvent, &str, &[&str]); 19] = [
            (E::Propose { view: 1, seq: 2 }, "propose", &["view", "seq"]),
            (
                E::PostBound {
                    view: 1,
                    seq: 2,
                    qpn: 3,
                    wr_id: 4,
                },
                "post_bound",
                &["view", "seq", "qpn", "wr_id"],
            ),
            (E::Decide { view: 1, seq: 2 }, "decide", &["view", "seq"]),
            (E::Apply { seq: 1 }, "apply", &["seq"]),
            (
                E::ViewChange { view: 1, leader: 2 },
                "view_change",
                &["view", "leader"],
            ),
            (E::FellBack, "fell_back", &[]),
            (E::GroupEstablished, "group_established", &[]),
            (
                E::WqePost { qpn: 1, wr_id: 2 },
                "wqe_post",
                &["qpn", "wr_id"],
            ),
            (
                E::WireTx {
                    qpn: 1,
                    wr_id: 2,
                    psn: 3,
                    npkts: 4,
                },
                "wire_tx",
                &["qpn", "wr_id", "psn", "npkts"],
            ),
            (E::AckTx { qpn: 1, psn: 2 }, "ack_tx", &["qpn", "psn"]),
            (
                E::AckRx {
                    qpn: 1,
                    psn: 2,
                    credits: 3,
                },
                "ack_rx",
                &["qpn", "psn", "credits"],
            ),
            (E::NakTx { qpn: 1, psn: 2 }, "nak_tx", &["qpn", "psn"]),
            (E::NakRx { qpn: 1, psn: 2 }, "nak_rx", &["qpn", "psn"]),
            (
                E::Retransmit {
                    qpn: 1,
                    kind: timeout,
                    packets: 3,
                },
                "retransmit",
                &["qpn", "timeout", "packets"],
            ),
            (E::Scatter { psn: 1, dist: 2 }, "scatter", &["psn", "dist"]),
            (
                E::ScatterCopy { psn: 1, rid: 2 },
                "scatter_copy",
                &["psn", "rid"],
            ),
            (
                E::GatherAck {
                    psn: 1,
                    endpoint: 2,
                    distinct: 3,
                    quorum: true,
                },
                "gather_ack",
                &["psn", "endpoint", "distinct", "quorum"],
            ),
            (
                E::CreditClamp {
                    psn: 1,
                    folded: 2,
                    carried: 3,
                },
                "credit_clamp",
                &["psn", "folded", "carried"],
            ),
            (E::NakForward { psn: 1 }, "nak_forward", &["psn"]),
        ];
        for (i, (event, name, fields)) in samples.into_iter().enumerate() {
            let (kind, values) = event.encode();
            assert_eq!(usize::from(kind), i, "{name}: kind byte");
            assert_eq!(KINDS[i], (name, fields));
            assert_eq!(event.kind(), name);
            let exported: Vec<(&str, u64)> = fields.iter().copied().zip(values).collect();
            assert_eq!(event.fields(), exported, "{name}: fields");
            // Samples number their fields 1, 2, …; bools and kinds are 1.
            assert!(values[..fields.len()].iter().all(|&v| v >= 1));
            assert_eq!(TraceEvent::decode(kind, values), event);
        }
    }
}
