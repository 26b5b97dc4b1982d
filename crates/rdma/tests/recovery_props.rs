//! Property tests for queue-pair recovery: a requester and a responder
//! QP talk across a model channel that randomly drops and reorders
//! packets (both directions). Whatever the channel does, the protocol
//! invariants must hold:
//!
//! * **PSN monotonicity** — fresh (non-retransmitted) packets carry
//!   strictly consecutive sequence numbers,
//! * **exactly-once completion** — no work request completes twice, and
//!   completions surface in post order (RC ordering),
//! * **conservation** — at every step, `posted = completed + pending +
//!   inflight`; nothing is lost or invented,
//! * **liveness** — once the channel heals, everything drains.

use bytes::Bytes;
use netsim::rng::splitmix64;
use netsim::{SimDuration, SimTime};
use proptest::prelude::*;
use rdma::qp::{RecoveryAction, RecvVerdict};
use rdma::{NakCode, PacketPlan, PeerInfo, Psn, Qpn, QueuePair, RKey, WorkRequest, WrId};
use std::net::Ipv4Addr;

const MTU: usize = 256;
const WINDOW: usize = 4;
const STEP: SimDuration = SimDuration::from_micros(10);
const TIMEOUT: SimDuration = SimDuration::from_micros(50);
const RETRY_LIMIT: u32 = 1000; // loss is transient; never go fatal
const HEAL_STEP: u64 = 2_000;
const MAX_STEPS: u64 = 20_000;

fn chance(state: &mut u64, pct: u32) -> bool {
    (splitmix64(state) % 100) < u64::from(pct)
}

enum BackMsg {
    Ack { psn: Psn, credits: u8 },
    Nak,
}

/// A lossy, reordering channel: each message is either dropped or
/// assigned a delivery step (possibly behind later traffic).
struct Channel<T> {
    queue: Vec<(u64, T)>,
}

impl<T> Channel<T> {
    fn new() -> Self {
        Channel { queue: Vec::new() }
    }

    fn send(&mut self, now: u64, msg: T, rng: &mut u64, loss_pct: u32, reorder_pct: u32) {
        if chance(rng, loss_pct) {
            return;
        }
        let delay = if chance(rng, reorder_pct) {
            2 + splitmix64(rng) % 6
        } else {
            1
        };
        self.queue.push((now + delay, msg));
    }

    fn deliver_due(&mut self, now: u64) -> Vec<T> {
        let mut due = Vec::new();
        let mut rest = Vec::new();
        for (at, msg) in self.queue.drain(..) {
            if at <= now {
                due.push(msg);
            } else {
                rest.push((at, msg));
            }
        }
        self.queue = rest;
        due
    }
}

fn rts_pair() -> (QueuePair, QueuePair) {
    let req_ip = Ipv4Addr::new(10, 0, 0, 1);
    let resp_ip = Ipv4Addr::new(10, 0, 0, 2);
    let mut req = QueuePair::new(Qpn(4), Psn::new(0x00ff_fff0), MTU, WINDOW);
    let mut resp = QueuePair::new(Qpn(9), Psn::new(7), MTU, WINDOW);
    req.begin_connect();
    req.establish_requester(PeerInfo {
        ip: resp_ip,
        qpn: Qpn(9),
        start_psn: Psn::new(7),
    });
    resp.establish_responder(PeerInfo {
        ip: req_ip,
        qpn: Qpn(4),
        // The requester's start PSN sits just below the 24-bit wrap so
        // recovery is also exercised across the wraparound.
        start_psn: Psn::new(0x00ff_fff0),
    });
    resp.promote_to_rts();
    (req, resp)
}

/// Runs one seeded channel schedule and checks every invariant.
fn run_schedule(seed: u64, loss_pct: u32, reorder_pct: u32, sizes: &[usize]) {
    let (mut req, mut resp) = rts_pair();
    for (i, &len) in sizes.iter().enumerate() {
        req.post(WorkRequest::Write {
            wr_id: WrId(i as u64),
            remote_va: 0x1000,
            rkey: RKey(42),
            data: Bytes::from(vec![(i % 251) as u8; len]),
        })
        .expect("queue pair is ready to send");
    }

    let mut rng = seed;
    let mut fwd: Channel<PacketPlan> = Channel::new();
    let mut back: Channel<BackMsg> = Channel::new();
    let mut completed: Vec<WrId> = Vec::new();
    let mut last_fresh_psn: Option<Psn> = None;
    let mut last_executed: Option<Psn> = None;

    for step in 0..MAX_STEPS {
        let (loss, reorder) = if step < HEAL_STEP {
            (loss_pct, reorder_pct)
        } else {
            (0, 0) // the channel heals; the tail must drain
        };
        let now = SimTime::ZERO + STEP * step;

        // Requester: emit fresh messages while the window allows.
        while let Some(packets) = req.next_message(now) {
            for p in &packets {
                if let Some(prev) = last_fresh_psn {
                    assert_eq!(
                        prev.distance_to(p.psn),
                        1,
                        "fresh packets must carry consecutive PSNs"
                    );
                }
                last_fresh_psn = Some(p.psn);
            }
            for p in packets {
                fwd.send(step, p, &mut rng, loss, reorder);
            }
        }

        // Responder: sequence whatever arrives.
        for p in fwd.deliver_due(step) {
            match resp.receive_sequence(p.psn, p.opcode, p.ack_req) {
                RecvVerdict::Execute { ack_due } => {
                    last_executed = Some(p.psn);
                    if ack_due {
                        back.send(
                            step,
                            BackMsg::Ack {
                                psn: p.psn,
                                credits: 16,
                            },
                            &mut rng,
                            loss,
                            reorder,
                        );
                    }
                }
                RecvVerdict::Duplicate => {
                    // Re-acknowledge the newest executed PSN so the
                    // requester can make progress past the overlap.
                    if let Some(psn) = last_executed {
                        back.send(
                            step,
                            BackMsg::Ack { psn, credits: 16 },
                            &mut rng,
                            loss,
                            reorder,
                        );
                    }
                }
                RecvVerdict::OutOfOrder => {
                    back.send(step, BackMsg::Nak, &mut rng, loss, reorder);
                }
            }
        }

        // Requester: absorb acknowledgements and NAKs.
        for msg in back.deliver_due(step) {
            match msg {
                BackMsg::Ack { psn, credits } => {
                    let done = req.handle_ack(psn, credits);
                    if done.is_empty() {
                        req.note_progress(psn, now);
                    }
                    for (wr_id, is_read) in done {
                        assert!(!is_read, "only writes are posted");
                        assert!(
                            !completed.contains(&wr_id),
                            "work request {wr_id:?} completed twice"
                        );
                        completed.push(wr_id);
                    }
                }
                BackMsg::Nak => match req.handle_nak(NakCode::PsnSequenceError) {
                    RecoveryAction::None => {}
                    RecoveryAction::Retransmit(pkts) => {
                        for p in pkts {
                            fwd.send(step, p, &mut rng, loss, reorder);
                        }
                    }
                    RecoveryAction::Fatal(_) => {
                        panic!("sequence NAKs must never be fatal")
                    }
                },
            }
        }

        // Retransmission timer.
        match req.check_timeout(now, TIMEOUT, RETRY_LIMIT) {
            RecoveryAction::None => {}
            RecoveryAction::Retransmit(pkts) => {
                for p in pkts {
                    fwd.send(step, p, &mut rng, loss, reorder);
                }
            }
            RecoveryAction::Fatal(_) => {
                panic!("retry limit is effectively unbounded here")
            }
        }

        // Conservation: every posted request is exactly one of
        // completed / pending / inflight.
        assert_eq!(
            completed.len() + req.pending_len() + req.inflight_len(),
            sizes.len(),
            "work requests must be conserved at step {step}"
        );

        if completed.len() == sizes.len() {
            break;
        }
    }

    // Liveness after heal, exactly-once, and RC ordering.
    assert_eq!(
        completed.len(),
        sizes.len(),
        "every write must complete once the channel heals"
    );
    let expected: Vec<WrId> = (0..sizes.len() as u64).map(WrId).collect();
    assert_eq!(
        completed, expected,
        "completions must surface in post order"
    );
    assert_eq!(req.inflight_len(), 0);
    assert_eq!(req.pending_len(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn qp_recovery_invariants_hold_under_random_loss_and_reorder(
        seed in any::<u64>(),
        loss_pct in 0u32..40,
        reorder_pct in 0u32..40,
        sizes in prop::collection::vec(1usize..1000, 1..10),
    ) {
        run_schedule(seed, loss_pct, reorder_pct, &sizes);
    }
}

#[test]
fn heavy_loss_with_multi_mtu_writes_still_drains() {
    // A deterministic worst-ish case: 35% loss, 30% reorder, writes up
    // to four MTUs — exercises go-back-N, duplicate absorption, and the
    // timeout path across the PSN wrap.
    run_schedule(0x0BAD_5EED, 35, 30, &[700, 64, 1000, 3, 512, 900, 1, 256]);
}
