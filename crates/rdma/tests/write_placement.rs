//! A remote write is placed in host memory once per message — when its
//! last packet executes, or earlier, the moment anything inside the
//! simulation could read that memory. These tests read a write's target
//! region from every such vantage point while the message is in flight
//! and demand what per-packet placement would show: exactly the packets
//! executed so far, whole, never fewer than before.
//!
//! The writers' NICs clock out one packet every 10 µs, so app timers,
//! remote reads and fault windows fit between the packets of one message.

use bytes::Bytes;
use netsim::{FaultPlan, LinkSpec, NodeId, SimDuration, SimTime, Simulation};
use proptest::prelude::*;
use rdma::{
    CmEvent, Completion, CompletionStatus, Host, HostConfig, HostOps, Permissions, Qpn, RdmaApp,
    RegionAdvert, RegionHandle, WrId, DEFAULT_RDMA_MTU as MTU,
};
use std::net::Ipv4Addr;
use std::ops::Range;

const RECEIVER_IP: Ipv4Addr = Ipv4Addr::new(10, 4, 0, 100);
const READER_IP: Ipv4Addr = Ipv4Addr::new(10, 4, 0, 50);
/// When the single-writer tests post their message (connections are up).
const POST_AT: SimTime = SimTime::from_micros(300);
/// The writers' per-packet NIC time in the single-writer tests.
const PACKET_GAP: SimDuration = SimDuration::from_micros(10);

/// `len` bytes in which packet `k` of writer `id`'s message is filled with
/// `16 * id + k + 1`: never zero, different in every packet.
fn pattern(id: u8, len: usize) -> Bytes {
    (0..len)
        .map(|j| 16 * id + (j / MTU) as u8 + 1)
        .collect::<Vec<u8>>()
        .into()
}

/// How much of `sent` the region bytes `seen` (as long as `sent`) hold:
/// a prefix of whole packets, or all of it, and nothing past that.
fn executed(seen: &[u8], sent: &[u8]) -> usize {
    let prefix = seen.iter().zip(sent).take_while(|(a, b)| a == b).count();
    assert!(
        seen[prefix..].iter().all(|&b| b == 0),
        "bytes landed past the first {prefix}"
    );
    assert!(
        prefix == sent.len() || prefix % MTU == 0,
        "{prefix} bytes is not a whole number of packets"
    );
    prefix
}

/// The distinct values of `xs`, in order, checking they never shrink.
fn growth(xs: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::new();
    for x in xs {
        match out.last() {
            Some(&last) if x == last => {}
            Some(&last) => {
                assert!(x > last, "what landed shrank: {last} → {x} bytes");
                out.push(x);
            }
            None => out.push(x),
        }
    }
    out
}

/// The target host: accepts every connection with an advert for its one
/// region and snapshots the region's first `len` bytes from every app
/// callback it is configured to get.
struct Receiver {
    len: usize,
    /// Request `on_remote_write` polls for the region.
    watch: bool,
    /// Arm an app timer every `every` until `until`.
    sample: Option<(SimDuration, SimTime)>,
    region: Option<RegionHandle>,
    /// The snapshots, in order.
    seen: Vec<Vec<u8>>,
}

impl Receiver {
    fn new(len: usize) -> Self {
        Receiver {
            len,
            watch: false,
            sample: None,
            region: None,
            seen: Vec::new(),
        }
    }

    fn snapshot(&mut self, ops: &HostOps<'_, '_>) {
        let region = self.region.expect("registered");
        self.seen.push(ops.read_local(region, 0, self.len).to_vec());
    }
}

impl RdmaApp for Receiver {
    fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
        let region = ops.register_region(64 << 10, Permissions::READ_WRITE);
        if self.watch {
            ops.watch_region(region);
        }
        self.region = Some(region);
        if let Some((every, _)) = self.sample {
            ops.set_app_timer(every, 0);
        }
    }
    fn on_completion(&mut self, _c: Completion, _ops: &mut HostOps<'_, '_>) {}
    fn on_cm_event(&mut self, ev: CmEvent, ops: &mut HostOps<'_, '_>) {
        if let CmEvent::ConnectRequestReceived {
            handshake_id,
            from_ip,
            from_qpn,
            start_psn,
            ..
        } = ev
        {
            let info = ops.region_info(self.region.expect("registered"));
            let advert = RegionAdvert {
                va: info.va,
                rkey: info.rkey,
                len: info.len,
            };
            ops.accept(handshake_id, from_ip, from_qpn, start_psn, advert.encode());
        }
    }
    fn on_remote_write(&mut self, _r: RegionHandle, _d: Range<u64>, ops: &mut HostOps<'_, '_>) {
        self.snapshot(ops);
    }
    fn on_timer(&mut self, _token: u64, ops: &mut HostOps<'_, '_>) {
        self.snapshot(ops);
        let (every, until) = self.sample.expect("only sampling arms timers");
        if ops.now() < until {
            ops.set_app_timer(every, 0);
        }
    }
}

/// Writes to post: when, at which region offset, what.
type Posts = Vec<(SimTime, u64, Bytes)>;

/// Connects to the receiver and posts `posts`, one write each.
struct Writer {
    posts: Posts,
    conn: Option<(Qpn, RegionAdvert)>,
    completions: Vec<CompletionStatus>,
}

impl Writer {
    fn new(posts: Posts) -> Self {
        Writer {
            posts,
            conn: None,
            completions: Vec::new(),
        }
    }
}

impl RdmaApp for Writer {
    fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
        ops.connect(RECEIVER_IP, Bytes::new());
    }
    fn on_cm_event(&mut self, ev: CmEvent, ops: &mut HostOps<'_, '_>) {
        if let CmEvent::Connected {
            qpn, private_data, ..
        } = ev
        {
            let advert = RegionAdvert::decode(&private_data).expect("advert");
            self.conn = Some((qpn, advert));
            for (i, (at, _, _)) in self.posts.iter().enumerate() {
                ops.set_app_timer(at.saturating_duration_since(ops.now()), i as u64);
            }
        }
    }
    fn on_timer(&mut self, token: u64, ops: &mut HostOps<'_, '_>) {
        let (qpn, advert) = self.conn.expect("connected");
        let (_, offset, data) = self.posts[token as usize].clone();
        ops.post_write(qpn, WrId(token), advert.va + offset, advert.rkey, data);
    }
    fn on_completion(&mut self, c: Completion, _ops: &mut HostOps<'_, '_>) {
        self.completions.push(c.status);
    }
}

/// Connects to the receiver and reads its region's first `len` bytes
/// every `every` from `from` to `until`, one read at a time.
struct Reader {
    len: u32,
    every: SimDuration,
    from: SimTime,
    until: SimTime,
    conn: Option<(Qpn, RegionAdvert)>,
    landing: Option<RegionHandle>,
    reads: u64,
    seen: Vec<Vec<u8>>,
}

impl RdmaApp for Reader {
    fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
        self.landing = Some(ops.register_region(self.len as usize, Permissions::NONE));
        ops.connect(RECEIVER_IP, Bytes::new());
    }
    fn on_cm_event(&mut self, ev: CmEvent, ops: &mut HostOps<'_, '_>) {
        if let CmEvent::Connected {
            qpn, private_data, ..
        } = ev
        {
            self.conn = Some((qpn, RegionAdvert::decode(&private_data).expect("advert")));
            ops.set_app_timer(self.from.saturating_duration_since(ops.now()), 0);
        }
    }
    fn on_timer(&mut self, _token: u64, ops: &mut HostOps<'_, '_>) {
        let (qpn, advert) = self.conn.expect("connected");
        let landing = self.landing.expect("registered");
        self.reads += 1;
        ops.post_read(
            qpn,
            WrId(self.reads),
            advert.va,
            advert.rkey,
            self.len,
            landing,
            0,
        );
    }
    fn on_completion(&mut self, c: Completion, ops: &mut HostOps<'_, '_>) {
        assert_eq!(c.status, CompletionStatus::Success);
        let landing = self.landing.expect("registered");
        self.seen
            .push(ops.read_local(landing, 0, self.len as usize).to_vec());
        if ops.now() < self.until {
            ops.set_app_timer(self.every, 0);
        }
    }
}

/// The receiver plus one writer per entry of `writers` (its posts and its
/// per-packet NIC time), each on a link of its own; returns the writers'
/// and the receiver's node ids.
fn deploy(
    sim: &mut Simulation,
    writers: Vec<(Posts, SimDuration)>,
    receiver: Receiver,
) -> (Vec<NodeId>, NodeId) {
    let r = sim.add_node(Box::new(Host::new(HostConfig::new(RECEIVER_IP), receiver)));
    let ids = (writers.into_iter().enumerate())
        .map(|(i, (posts, nic_tx_cost))| {
            let mut cfg = HostConfig::new(Ipv4Addr::new(10, 4, 0, 1 + i as u8));
            cfg.nic_tx_cost = nic_tx_cost;
            let w = sim.add_node(Box::new(Host::new(cfg, Writer::new(posts))));
            sim.connect(w, r, LinkSpec::default());
            w
        })
        .collect();
    (ids, r)
}

/// One writer posting one three-packet message at [`POST_AT`].
fn one_message(sim: &mut Simulation, receiver: Receiver) -> (NodeId, NodeId, Bytes) {
    let sent = pattern(0, 3 * MTU);
    let posts = vec![(POST_AT, 0, sent.clone())];
    let (writers, r) = deploy(sim, vec![(posts, PACKET_GAP)], receiver);
    (writers[0], r, sent)
}

fn receiver_of(sim: &Simulation, r: NodeId) -> &Host<Receiver> {
    sim.node_ref::<Host<Receiver>>(r)
}

#[test]
fn app_timers_between_the_packets_see_exactly_what_executed() {
    let mut sim = Simulation::new(1);
    let mut receiver = Receiver::new(3 * MTU);
    receiver.sample = Some((SimDuration::from_micros(1), SimTime::from_micros(400)));
    let (w, r, sent) = one_message(&mut sim, receiver);
    sim.run_until(SimTime::from_millis(1));

    assert_eq!(
        sim.node_ref::<Host<Writer>>(w).app().completions,
        [CompletionStatus::Success]
    );
    let seen = &receiver_of(&sim, r).app().seen;
    assert_eq!(
        growth(seen.iter().map(|s| executed(s, &sent))),
        [0, MTU, 2 * MTU, 3 * MTU],
        "a timer between two packets sees the packets before it, whole"
    );
}

#[test]
fn a_remote_read_racing_the_message_returns_the_executed_prefix() {
    let mut sim = Simulation::new(2);
    let (_, r, sent) = one_message(&mut sim, Receiver::new(3 * MTU));
    // Reads of the whole target every ~1 µs while the message lands; the
    // reader's own MTU fits the 3 KiB response in one packet.
    let mut cfg = HostConfig::new(READER_IP);
    cfg.mtu = 4 * MTU;
    let reader = Reader {
        len: 3 * MTU as u32,
        every: SimDuration::from_micros(1),
        from: POST_AT,
        until: POST_AT + SimDuration::from_micros(60),
        conn: None,
        landing: None,
        reads: 0,
        seen: Vec::new(),
    };
    let d = sim.add_node(Box::new(Host::new(cfg, reader)));
    sim.connect(d, r, LinkSpec::default());
    sim.run_until(SimTime::from_millis(1));

    let seen = &sim.node_ref::<Host<Reader>>(d).app().seen;
    assert!(seen.len() > 20, "{} reads", seen.len());
    assert_eq!(
        growth(seen.iter().map(|s| executed(s, &sent))),
        [0, MTU, 2 * MTU, 3 * MTU],
        "a read between two packets returns the packets before it, whole"
    );
}

#[test]
fn a_dropped_middle_packet_is_recovered_and_the_region_ends_identical() {
    let mut sim = Simulation::new(3);
    let mut receiver = Receiver::new(3 * MTU);
    receiver.sample = Some((SimDuration::from_micros(1), SimTime::from_micros(500)));
    let (w, r, sent) = one_message(&mut sim, receiver);
    // The writer's NIC sends packet k at POST_AT + 10(k + 1) µs and a
    // little: the window takes the middle one.
    let window = FaultPlan::new().partition(
        POST_AT + SimDuration::from_micros(15),
        POST_AT + SimDuration::from_micros(25),
    );
    sim.set_fault_plan(w, netsim::PortId::FIRST, window);
    sim.run_until(SimTime::from_millis(1));

    let writer = sim.node_ref::<Host<Writer>>(w);
    assert_eq!(writer.app().completions, [CompletionStatus::Success]);
    assert!(writer.stats().nak_retransmits >= 1, "go-back-N ran");
    let host = receiver_of(&sim, r);
    assert!(host.stats().naks_sent >= 1, "the gap was NAKed");
    let growth = growth(host.app().seen.iter().map(|s| executed(s, &sent)));
    assert_eq!(growth.first(), Some(&0));
    assert_eq!(growth.last(), Some(&(3 * MTU)));
    let region = host.app().region.expect("registered");
    assert_eq!(
        host.memory().read_local(region, 0, 4 * MTU)[..3 * MTU],
        sent[..]
    );
    assert!(host
        .memory()
        .read_local(region, 3 * MTU, MTU)
        .iter()
        .all(|&b| b == 0));
}

#[test]
fn an_abandoned_message_shows_its_executed_packets_after_the_next_event() {
    let mut sim = Simulation::new(4);
    // One app timer, well after the writer gave up: the receiver's next
    // event once the two packets have executed.
    let mut receiver = Receiver::new(3 * MTU);
    let next_event = POST_AT + SimDuration::from_micros(100);
    receiver.sample = Some((next_event.duration_since(SimTime::ZERO), SimTime::ZERO));
    let (w, r, sent) = one_message(&mut sim, receiver);
    // The last packet is lost and the writer destroys its queue pair
    // before the retransmission timer would resend it.
    let window = FaultPlan::new().partition(
        POST_AT + SimDuration::from_micros(25),
        POST_AT + SimDuration::from_micros(35),
    );
    sim.set_fault_plan(w, netsim::PortId::FIRST, window);
    sim.run_until(POST_AT + SimDuration::from_micros(40));
    sim.with_node::<Host<Writer>, _>(w, |host, ctx| {
        host.with_ops(ctx, |app, ops| {
            let (qpn, _) = app.conn.expect("connected");
            ops.destroy_qp(qpn);
        })
    });
    sim.run_until(next_event + SimDuration::from_micros(1));

    let host = receiver_of(&sim, r);
    assert_eq!(host.app().seen.len(), 1, "the one timer fired");
    let region = host.app().region.expect("registered");
    let landed = host.memory().read_local(region, 0, 3 * MTU);
    assert_eq!(executed(landed, &sent), 2 * MTU);
    assert_eq!(executed(&host.app().seen[0], &sent), 2 * MTU);
}

/// Writer `w`'s message `m` lands in slot `2w + m` of the region.
const SLOT: usize = 9 * MTU;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn two_writers_interleaving_see_whole_packet_prefixes_that_never_shrink(
        lens in prop::collection::vec(1usize..9 * MTU + 1, 4..5),
        delays in prop::collection::vec(0u64..3_000, 4..5),
        seed in any::<u64>(),
    ) {
        let mut sim = Simulation::new(seed);
        let sent: Vec<Bytes> = (0..4).map(|i| pattern(i as u8, lens[i])).collect();
        let writers = (0..2)
            .map(|w| {
                let posts = (0..2)
                    .map(|m| {
                        let i = 2 * w + m;
                        let at = POST_AT + SimDuration::from_nanos(delays[i]);
                        (at, (i * SLOT) as u64, sent[i].clone())
                    })
                    .collect();
                (posts, HostConfig::new(RECEIVER_IP).nic_tx_cost)
            })
            .collect();
        let mut receiver = Receiver::new(4 * SLOT);
        receiver.watch = true;
        let (ws, r) = deploy(&mut sim, writers, receiver);
        sim.run_until(SimTime::from_millis(1));

        for w in ws {
            let completions = &sim.node_ref::<Host<Writer>>(w).app().completions;
            prop_assert_eq!(completions, &vec![CompletionStatus::Success; 2]);
        }
        let host = receiver_of(&sim, r);
        let polls = &host.app().seen;
        prop_assert!(!polls.is_empty());
        for (i, sent) in sent.iter().enumerate() {
            let slot = |s: &[u8]| s[i * SLOT..i * SLOT + sent.len()].to_vec();
            let growth = growth(polls.iter().map(|s| executed(&slot(s), sent)));
            prop_assert_eq!(growth.last(), Some(&sent.len()));
            let region = host.app().region.expect("registered");
            let end = host.memory().read_local(region, i * SLOT, SLOT);
            prop_assert_eq!(&end[..sent.len()], &sent[..]);
            prop_assert!(end[sent.len()..].iter().all(|&b| b == 0));
        }
    }
}
