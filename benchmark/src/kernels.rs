//! Layer kernels: wall nanoseconds per call of the public operations
//! each layer is built from, at the workload's value size and replica
//! count. They say which layer a wall-clock change came from; none of
//! them can move a virtual metric.
//!
//! A kernel is timed in batches: the iteration count is doubled until a
//! batch lasts a millisecond, then batches repeat until the kernel's
//! time slice is spent, and the median batch gives the figure. Inputs
//! and results go through `black_box`.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use crate::spans::SpanLog;
use crate::spec::KERNELS;
use crate::stat::median;
use crate::sut::{
    crc32, Bandwidth, Bth, Bytes, Context, FailureDetector, Frame, HostMemory, L3Forwarder,
    LinkSpec, LogReader, LogWriter, MacAddr, MatchTable, MemberId, Node, Opcode, PacketTemplate,
    PeerInfo, Permissions, PortId, Psn, Qpn, QueuePair, RKey, RegisterArray, Reth, RewriteSet,
    RocePacket, SimTime, Simulation, Switch, SwitchConfig, TimingWheel, ViewTracker, WorkRequest,
    WrId,
};

/// What the kernels are sized to.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub value_size: usize,
    pub replicas: usize,
}

const MTU: usize = 4096;
const MIN_BATCH: Duration = Duration::from_millis(1);

/// Times kernels one after another, `slice` of wall time each, and
/// leaves one `kernel.<name>` span per batch in the log.
struct Bench<'a> {
    slice: Duration,
    log: &'a mut SpanLog,
    out: Vec<(&'static str, f64)>,
}

impl Bench<'_> {
    /// `op(n)` runs the kernel `n` times; the result is ns per run.
    fn run(&mut self, name: &'static str, op: impl FnMut(u64)) {
        self.run_scaled(name, 1.0, op);
    }

    /// As [`Bench::run`] for an `op` whose every run does `per_run`
    /// units of work; the result is ns per unit.
    fn run_scaled(&mut self, name: &'static str, per_run: f64, mut op: impl FnMut(u64)) {
        let started = Instant::now();
        let mut iters = 1u64;
        loop {
            let t = Instant::now();
            op(iters);
            if t.elapsed() >= MIN_BATCH || iters >= 1 << 30 {
                break;
            }
            iters *= 2;
        }
        let mut per_call = Vec::new();
        while per_call.len() < 3 || started.elapsed() < self.slice {
            let t = Instant::now();
            op(iters);
            let end = Instant::now();
            self.log.closed(&format!("kernel.{name}"), t, end);
            per_call.push((end - t).as_nanos() as f64 / iters as f64);
        }
        self.out.push((name, median(&per_call) / per_run));
    }
}

fn payload(len: usize) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31))
            .collect::<Vec<u8>>(),
    )
}

fn write_packet(src: Ipv4Addr, dst: Ipv4Addr, data: Bytes) -> RocePacket {
    RocePacket {
        src_mac: MacAddr::for_ip(src),
        dst_mac: MacAddr::for_ip(dst),
        src_ip: src,
        dst_ip: dst,
        udp_src_port: 0xC001,
        bth: Bth {
            opcode: Opcode::WriteOnly,
            dest_qp: Qpn(77),
            psn: Psn::new(1234),
            ack_req: true,
        },
        reth: Some(Reth {
            va: 0x1000,
            rkey: RKey(0x1234_5678),
            dma_len: data.len() as u32,
        }),
        aeth: None,
        payload: data,
    }
}

/// Sends its frame back out of the port it came in on.
struct Bounce {
    reply: Frame,
    kick: bool,
}

impl Node for Bounce {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.kick {
            ctx.send(PortId::FIRST, self.reply.clone());
        }
    }
    fn on_frame(&mut self, port: PortId, _frame: Frame, ctx: &mut Context<'_>) {
        ctx.send(port, self.reply.clone());
    }
}

/// Two trivial nodes bouncing one frame: the bare engine (pop, deliver,
/// link, push) with no protocol work in it.
fn echo_sim(frame: &Frame) -> Simulation {
    let mut sim = Simulation::new(1);
    let a = sim.add_node(Box::new(Bounce {
        reply: frame.clone(),
        kick: true,
    }));
    let b = sim.add_node(Box::new(Bounce {
        reply: frame.clone(),
        kick: false,
    }));
    sim.connect(a, b, LinkSpec::default());
    sim
}

/// The same two nodes with a plain L3 switch between them: bare
/// forwarding (parse, route, pipeline timers, emit).
fn forward_sim(seg: &Bytes) -> Simulation {
    let (ip_a, ip_b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let mut sim = Simulation::new(1);
    let a = sim.add_node(Box::new(Bounce {
        reply: write_packet(ip_a, ip_b, seg.clone()).to_frame(),
        kick: true,
    }));
    let b = sim.add_node(Box::new(Bounce {
        reply: write_packet(ip_b, ip_a, seg.clone()).to_frame(),
        kick: false,
    }));
    let sw = sim.add_node(Box::new(Switch::new(
        SwitchConfig::tofino1(Ipv4Addr::new(10, 0, 0, 100)),
        2,
        L3Forwarder,
    )));
    for (node, ip) in [(a, ip_a), (b, ip_b)] {
        let (_, port) = sim.connect(node, sw, LinkSpec::default());
        sim.node_mut::<Switch<L3Forwarder>>(sw).add_route(ip, port);
    }
    sim
}

fn steps(sim: &mut Simulation, n: u64) {
    for _ in 0..n {
        assert!(sim.step(), "the bounced frame keeps the queue non-empty");
    }
}

/// Runs every kernel of [`KERNELS`], in order, for `slice` each.
pub fn run_all(shape: Shape, slice: Duration, log: &mut SpanLog) -> Vec<(&'static str, f64)> {
    let seg = payload(shape.value_size.min(MTU));
    let value = payload(shape.value_size);
    let (ip_a, ip_b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let pkt = write_packet(ip_a, ip_b, seg.clone());
    let frame = pkt.to_frame();
    let peers: Vec<MemberId> = (1..=shape.replicas as u8).map(MemberId).collect();
    let mut bench = Bench {
        slice,
        log,
        out: Vec::with_capacity(KERNELS.len()),
    };

    {
        // A wheel holding as many events as a saturated cluster has in
        // flight; every pop re-arms its event a little later.
        let mut wheel = TimingWheel::<u64>::new();
        let mut seq = 0u64;
        for i in 0..64u64 {
            wheel.push(i * 100, seq, i);
            seq += 1;
        }
        bench.run("netsim.wheel.push_pop_ns", |n| {
            for _ in 0..n {
                let (at, _, item) = wheel.pop().expect("never empty");
                wheel.push(at + 6_400 + (item & 7), seq, item);
                seq += 1;
            }
        });
    }
    {
        // The link model's per-frame arithmetic. (`DirLink::transmit`
        // itself is crate-private; the engine kernels below include it.)
        let bw: Bandwidth = LinkSpec::default().bandwidth;
        let len = frame.len();
        bench.run("netsim.link.serialization_ns", |n| {
            for i in 0..n {
                black_box(bw.serialization_delay(black_box(len + (i & 1) as usize)));
            }
        });
    }
    {
        let mut sim = echo_sim(&frame);
        bench.run("netsim.sim.echo_event_ns", |n| steps(&mut sim, n));
    }
    bench.run("rdma.wire.to_frame_ns", |n| {
        for _ in 0..n {
            black_box(black_box(&pkt).to_frame());
        }
    });
    bench.run("rdma.wire.parse_view_ns", |n| {
        for _ in 0..n {
            let view = RocePacket::parse_view(black_box(&frame)).expect("valid frame");
            black_box((view.dest_qp(), view.psn(), view.payload_len()));
        }
    });
    bench.run("rdma.wire.crc32_ns", |n| {
        for _ in 0..n {
            black_box(crc32(black_box(&seg)));
        }
    });
    {
        let template = PacketTemplate::from_packet(&pkt);
        let rw = RewriteSet {
            dest_qp: Some(Qpn(9)),
            psn: Some(Psn::new(4321)),
            dst_ip: Some(Ipv4Addr::new(10, 0, 0, 3)),
            ..RewriteSet::default()
        };
        bench.run("rdma.wire.stamp_ns", |n| {
            for _ in 0..n {
                black_box(template.stamp(black_box(&rw)).expect("header fields only"));
            }
        });
    }
    {
        let mut qp = QueuePair::new(Qpn(5), Psn::new(100), MTU, 16);
        qp.begin_connect();
        qp.establish_requester(PeerInfo {
            ip: ip_b,
            qpn: Qpn(9),
            start_psn: Psn::new(0),
        });
        bench.run("rdma.qp.post_segment_ack_ns", |n| {
            for _ in 0..n {
                let posted = qp.post(WorkRequest::Write {
                    wr_id: WrId(1),
                    remote_va: 0x1000,
                    rkey: RKey(42),
                    data: value.clone(),
                });
                assert!(posted.is_ok(), "queue pair is ready to send");
                let plans = qp.next_message(SimTime::ZERO).expect("a message is ready");
                let last = plans.last().expect("at least one packet").psn;
                black_box(qp.handle_ack(last, 16));
            }
        });
    }
    {
        let mut qp = QueuePair::new(Qpn(7), Psn::new(0), MTU, 16);
        qp.establish_responder(PeerInfo {
            ip: ip_a,
            qpn: Qpn(3),
            start_psn: Psn::new(0),
        });
        let mut psn = Psn::new(0);
        bench.run("rdma.qp.receive_sequence_ns", |n| {
            for _ in 0..n {
                black_box(qp.receive_sequence(psn, Opcode::WriteOnly, true));
                psn = psn.next();
            }
        });
    }
    {
        let mut mem = HostMemory::new(1);
        let region = mem.register(
            16 << 20,
            Permissions {
                remote_write: true,
                remote_read: true,
            },
        );
        let info = mem.info(region);
        let span = info.len - seg.len() as u64;
        let mut off = 0u64;
        bench.run("rdma.memory.remote_write_ns", |n| {
            for _ in 0..n {
                let landed = mem.remote_write(ip_a, Qpn(1), info.rkey, info.va + off, &seg);
                black_box(landed.expect("inside the region, write allowed"));
                off = (off + seg.len() as u64) % span;
            }
        });
    }
    {
        // One consensus on the gather path: the scatter resets the slot,
        // each of the f replica ACKs counts it up.
        let f = (shape.replicas / 2).max(1) as u32;
        let mut numrecv = RegisterArray::new("numrecv", 256);
        let mut slot = 0usize;
        bench.run("tofino.register.rmw_ns", |n| {
            for _ in 0..n {
                numrecv.write(slot, 0);
                let mut fired = false;
                for _ in 0..f {
                    fired = numrecv.increment(slot) == f;
                }
                black_box(fired);
                slot = (slot + 1) & 255;
            }
        });
    }
    {
        let mut table: MatchTable<u32, u32> = MatchTable::new("qpn_to_group", 1024);
        for k in 0..256u32 {
            table.insert(k * 7, k).expect("capacity 1024");
        }
        let mut k = 0u32;
        bench.run("tofino.table.lookup_ns", |n| {
            for _ in 0..n {
                black_box(table.lookup(black_box(&(k * 7))));
                k = (k + 1) & 255;
            }
        });
    }
    {
        let mut sim = forward_sim(&seg);
        bench.run("tofino.switch.forward_event_ns", |n| steps(&mut sim, n));
    }
    {
        let mut writer = LogWriter::new(64 << 20);
        bench.run("replication.log.append_ns", |n| {
            for _ in 0..n {
                black_box(writer.append(value.clone()).expect("the ring wraps"));
            }
        });
    }
    {
        const ENTRIES: usize = 256;
        let mut writer = LogWriter::new(16 << 20);
        let mut log_bytes = vec![0u8; 16 << 20];
        for _ in 0..ENTRIES {
            let (_, bytes, at) = writer.append(value.clone()).expect("fits");
            log_bytes[at..at + bytes.len()].copy_from_slice(&bytes);
        }
        bench.run_scaled("replication.log.drain_ns_per_entry", ENTRIES as f64, |n| {
            for _ in 0..n {
                let entries = LogReader::new().drain(&log_bytes).expect("clean log");
                assert_eq!(entries.len(), ENTRIES);
                black_box(entries);
            }
        });
    }
    {
        let mut fd = FailureDetector::new(3, peers.iter().copied());
        let mut counter = 0u64;
        bench.run("replication.heartbeat.observe_ns", |n| {
            for i in 0..n {
                counter += 1;
                fd.observe(peers[(i as usize) % peers.len()], counter);
            }
            black_box(fd.is_alive(peers[0]));
        });
    }
    {
        let alive: std::collections::BTreeSet<MemberId> =
            (0..=shape.replicas as u8).map(MemberId).collect();
        let mut views = ViewTracker::new();
        bench.run("replication.election.update_ns", |n| {
            for _ in 0..n {
                black_box(views.update(black_box(&alive)));
            }
        });
    }
    debug_assert!(bench.out.iter().map(|(n, _)| *n).eq(KERNELS));
    bench.out
}
