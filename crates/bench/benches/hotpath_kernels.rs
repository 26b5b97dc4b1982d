//! Criterion micro-benchmarks of the four per-packet hot-path kernels the
//! profile singled out: the CRC engine, RX payload delivery, ACK
//! construction, and header parsing. Each group benches the slow path the
//! kernel replaced next to the fast path, so the wins (and any
//! regressions) are visible per stage.

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rdma::wire::{crc32, crc32_slice8_raw, crc32_two_lane_raw};
use rdma::{
    Aeth, AethKind, Bth, MacAddr, Opcode, PacketTemplate, Psn, Qpn, RKey, Reth, RewriteSet,
    RocePacket,
};
use std::net::Ipv4Addr;

fn payload_bytes(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(31)).collect()
}

/// CRC kernels by length: slice-by-8, the two-lane interleaved variant,
/// and the public dispatcher that picks between them.
fn bench_crc(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_crc");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));
    for len in [64usize, 256, 1024, 4096] {
        let data = payload_bytes(len);
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(BenchmarkId::new("slice8", len), &data, |b, d| {
            b.iter(|| crc32_slice8_raw(0xffff_ffff, black_box(d)))
        });
        group.bench_with_input(BenchmarkId::new("two_lane", len), &data, |b, d| {
            b.iter(|| crc32_two_lane_raw(0xffff_ffff, black_box(d)))
        });
        group.bench_with_input(BenchmarkId::new("dispatch", len), &data, |b, d| {
            b.iter(|| crc32(black_box(d)))
        });
    }
    group.finish();
}

/// RX delivery: handing the application a copy of the received payload
/// (the old path) against handing it a refcounted slice of the frame
/// (the zero-copy path).
fn bench_rx_deliver(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_rx_deliver");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));
    for len in [64usize, 512, 4096] {
        let frame_payload = Bytes::from(payload_bytes(len));
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(BenchmarkId::new("copy", len), &frame_payload, |b, p| {
            b.iter(|| Bytes::copy_from_slice(black_box(&p[..])))
        });
        group.bench_with_input(
            BenchmarkId::new("zero_copy", len),
            &frame_payload,
            |b, p| b.iter(|| black_box(p).slice(0..p.len())),
        );
    }
    group.finish();
}

fn ack_packet(dst_ip: Ipv4Addr, psn: u32, msn: u32) -> RocePacket {
    let src_ip = Ipv4Addr::new(10, 0, 0, 1);
    RocePacket {
        src_mac: MacAddr::for_ip(src_ip),
        dst_mac: MacAddr::for_ip(dst_ip),
        src_ip,
        dst_ip,
        udp_src_port: 0xC007,
        bth: Bth {
            opcode: Opcode::Acknowledge,
            dest_qp: Qpn(0x42),
            psn: Psn::new(psn),
            ack_req: false,
        },
        reth: None,
        aeth: Some(Aeth {
            kind: AethKind::Ack { credits: 17 },
            msn,
        }),
        payload: Bytes::new(),
    }
}

/// ACK emission: full packet construction + serialization (the old
/// responder) against patching the per-QP template (PSN/MSN/ICRC deltas
/// only).
fn bench_ack(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_ack");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));
    let dst_ip = Ipv4Addr::new(10, 0, 0, 2);
    let template = PacketTemplate::from_packet(&ack_packet(dst_ip, 0, 0));
    group.bench_function("build_serialize", |b| {
        let mut psn = 0u32;
        b.iter(|| {
            psn = psn.wrapping_add(1);
            ack_packet(black_box(dst_ip), psn, psn).to_frame()
        })
    });
    group.bench_function("template_patch", |b| {
        let mut psn = 0u32;
        b.iter(|| {
            psn = psn.wrapping_add(1);
            let rw = RewriteSet {
                psn: Some(Psn::new(psn)),
                aeth: Some(Aeth {
                    kind: AethKind::Ack { credits: 17 },
                    msn: psn & 0x00ff_ffff,
                }),
                ..RewriteSet::default()
            };
            template.stamp(&rw).expect("patchable")
        })
    });
    group.finish();
}

/// RX parse: the owned-packet parse (header decode + payload copy) against
/// the borrowed view (header decode only, payload stays in the frame).
fn bench_parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_parse");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));
    for len in [0usize, 256, 1024, 4096] {
        let src_ip = Ipv4Addr::new(10, 0, 0, 1);
        let dst_ip = Ipv4Addr::new(10, 0, 0, 2);
        let pkt = RocePacket {
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
                dma_len: len as u32,
            }),
            aeth: None,
            payload: Bytes::from(payload_bytes(len)),
        };
        let frame = pkt.to_frame();
        group.throughput(Throughput::Bytes(frame.len() as u64));
        group.bench_with_input(BenchmarkId::new("parse", len), &frame, |b, f| {
            b.iter(|| RocePacket::parse(black_box(f)).expect("valid"))
        });
        group.bench_with_input(BenchmarkId::new("parse_view", len), &frame, |b, f| {
            b.iter(|| {
                let view = RocePacket::parse_view(black_box(f)).expect("valid");
                (view.dest_qp(), view.psn(), view.payload_len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_crc, bench_rx_deliver, bench_ack, bench_parse);
criterion_main!(benches);
