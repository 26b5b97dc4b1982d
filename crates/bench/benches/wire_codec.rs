//! Criterion micro-benchmarks of the RoCE v2 packet codec — the hot loop
//! of every simulated NIC and of the switch data plane.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rdma::{Bth, MacAddr, Opcode, PacketTemplate, Psn, Qpn, RKey, Reth, RewriteSet, RocePacket};
use std::net::Ipv4Addr;

fn sample(payload: usize) -> RocePacket {
    let src_ip = Ipv4Addr::new(10, 0, 0, 1);
    let dst_ip = Ipv4Addr::new(10, 0, 0, 2);
    RocePacket {
        src_mac: MacAddr::for_ip(src_ip),
        dst_mac: MacAddr::for_ip(dst_ip),
        src_ip,
        dst_ip,
        udp_src_port: 0xC001,
        bth: Bth {
            opcode: Opcode::WriteOnly,
            dest_qp: Qpn(77),
            psn: Psn::new(1234),
            ack_req: true,
        },
        reth: Some(Reth {
            va: 0xdead_0000,
            rkey: RKey(0x1234_5678),
            dma_len: payload as u32,
        }),
        aeth: None,
        payload: Bytes::from(vec![0x5a; payload]),
    }
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));
    for payload in [0usize, 64, 256, 1024] {
        let pkt = sample(payload);
        let frame = pkt.to_frame();
        group.throughput(Throughput::Bytes(frame.len() as u64));
        group.bench_with_input(BenchmarkId::new("serialize", payload), &pkt, |b, pkt| {
            b.iter(|| pkt.to_frame())
        });
        group.bench_with_input(BenchmarkId::new("parse", payload), &frame, |b, frame| {
            b.iter(|| RocePacket::parse(frame).expect("valid"))
        });
        group.bench_with_input(
            BenchmarkId::new("rewrite_roundtrip", payload),
            &frame,
            |b, frame| {
                // The switch's inner loop: parse, rewrite, re-serialize
                // (ICRC recompute included).
                b.iter(|| {
                    let mut p = RocePacket::parse(frame).expect("valid");
                    p.bth.psn = p.bth.psn.next();
                    p.dst_ip = Ipv4Addr::new(10, 0, 0, 9);
                    p.to_frame()
                })
            },
        );
    }
    group.finish();
}

/// The scatter rewrite every replica copy needs, as a patch set.
fn scatter_rewrite() -> RewriteSet {
    RewriteSet {
        dst_mac: Some(MacAddr::for_ip(Ipv4Addr::new(10, 0, 0, 9))),
        dst_ip: Some(Ipv4Addr::new(10, 0, 0, 9)),
        udp_src_port: Some(0xD003),
        dest_qp: Some(Qpn(0x99)),
        psn: Some(Psn::new(4321)),
        va: Some(0xbeef_0000),
        rkey: Some(RKey(0x0bad_cafe)),
        ..RewriteSet::default()
    }
}

/// Header-only rewrites: the in-place patch (incremental IP checksum +
/// ICRC delta, payload untouched) against the full re-serialization it
/// replaces. The gap is the zero-copy fast path's win and must grow with
/// the payload — re-serialization re-hashes every payload byte, the patch
/// does constant header-sized work.
fn bench_patch(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_patch");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));
    for payload in [64usize, 512, 8192] {
        let pkt = sample(payload);
        let template = PacketTemplate::from_packet(&pkt);
        let rw = scatter_rewrite();
        let mut rewritten = pkt.clone();
        rw.apply(&mut rewritten);
        group.throughput(Throughput::Bytes(template.frame().len() as u64));
        group.bench_with_input(
            BenchmarkId::new("to_frame_full", payload),
            &rewritten,
            |b, pkt| b.iter(|| pkt.to_frame()),
        );
        group.bench_with_input(
            BenchmarkId::new("stamp", payload),
            &(&template, &rw),
            |b, (template, rw)| b.iter(|| template.stamp(rw).expect("patchable")),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_codec, bench_patch);
criterion_main!(benches);
