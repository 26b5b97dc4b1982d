//! End-to-end fault injection through real simulated links: plans
//! installed with [`Simulation::set_fault_plan`] must perturb exactly the
//! chosen direction, keep counters honest, and never break determinism.

use netsim::{
    Context, FaultPlan, Frame, LinkSpec, Node, PortId, SimDuration, SimTime, Simulation, TimerToken,
};

/// Emits one numbered frame per period until `total` frames are out.
struct Blaster {
    total: u64,
    sent: u64,
    period: SimDuration,
}

impl Blaster {
    fn new(total: u64, period: SimDuration) -> Self {
        Blaster {
            total,
            sent: 0,
            period,
        }
    }
}

impl Node for Blaster {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.schedule(self.period, TimerToken(0));
    }

    fn on_frame(&mut self, _port: PortId, _frame: Frame, _ctx: &mut Context<'_>) {}

    fn on_timer(&mut self, _token: TimerToken, ctx: &mut Context<'_>) {
        if self.sent < self.total {
            ctx.send(
                PortId::from_index(0),
                self.sent.to_be_bytes().to_vec().into(),
            );
            self.sent += 1;
            ctx.schedule(self.period, TimerToken(0));
        }
    }
}

/// Records every arriving frame's sequence number and arrival time, and
/// echoes it back on the same port.
#[derive(Default)]
struct Echo {
    received: Vec<(u64, u64)>,
    echo: bool,
}

impl Node for Echo {
    fn on_frame(&mut self, port: PortId, frame: Frame, ctx: &mut Context<'_>) {
        let seq = u64::from_be_bytes(frame.payload()[..8].try_into().expect("8-byte seq"));
        self.received.push((seq, ctx.now.as_nanos()));
        if self.echo {
            ctx.send(port, frame);
        }
    }
}

fn two_node_sim(seed: u64, frames: u64) -> (Simulation, netsim::NodeId, netsim::NodeId) {
    let mut sim = Simulation::new(seed);
    let tx = sim.add_node(Box::new(Blaster::new(frames, SimDuration::from_nanos(500))));
    let rx = sim.add_node(Box::new(Echo::default()));
    sim.connect(tx, rx, LinkSpec::default());
    (sim, tx, rx)
}

#[test]
fn loss_accounts_for_every_missing_frame() {
    let (mut sim, tx, rx) = two_node_sim(11, 1000);
    assert_eq!(sim.peer_of(tx, PortId::from_index(0)).0, rx);
    sim.set_fault_plan(tx, PortId::from_index(0), FaultPlan::new().loss(0.3));
    sim.run_until(SimTime::from_millis(2));

    let rx_count = sim.node_ref::<Echo>(rx).received.len() as u64;
    let stats = sim.fault_stats(tx, PortId::from_index(0));
    assert!(
        stats.dropped > 0,
        "a 30% plan over 1000 frames must drop some"
    );
    assert!(rx_count < 1000);
    assert_eq!(
        rx_count + stats.dropped,
        1000,
        "every frame delivered or counted"
    );
}

#[test]
fn duplication_delivers_extra_copies() {
    let (mut sim, tx, rx) = two_node_sim(5, 200);
    sim.set_fault_plan(tx, PortId::from_index(0), FaultPlan::new().duplicate(1.0));
    sim.run_until(SimTime::from_millis(1));

    let received = &sim.node_ref::<Echo>(rx).received;
    assert_eq!(received.len(), 400, "every frame must arrive exactly twice");
    assert_eq!(sim.fault_stats(tx, PortId::from_index(0)).duplicated, 200);
}

#[test]
fn reordering_shuffles_but_preserves_the_set() {
    let (mut sim, tx, rx) = two_node_sim(7, 500);
    sim.set_fault_plan(
        tx,
        PortId::from_index(0),
        FaultPlan::new().reorder(0.5, SimDuration::from_micros(5)),
    );
    sim.run_until(SimTime::from_millis(2));

    let received = &sim.node_ref::<Echo>(rx).received;
    assert_eq!(received.len(), 500, "reordering never loses frames");
    let mut seqs: Vec<u64> = received.iter().map(|&(s, _)| s).collect();
    assert!(
        seqs.windows(2).any(|w| w[0] > w[1]),
        "a 50% reorder plan over 500 frames must invert at least one pair"
    );
    seqs.sort_unstable();
    assert_eq!(seqs, (0..500).collect::<Vec<u64>>());
}

#[test]
fn partition_is_one_way_and_heals() {
    // a blasts frames at b; b echoes every one it hears straight back.
    // Cutting only a→b must starve b during the window while every echo
    // b does emit still reaches a.
    let mut sim = Simulation::new(3);
    let a = sim.add_node(Box::new(Blaster::new(2000, SimDuration::from_nanos(500))));
    let b = sim.add_node(Box::new(Echo {
        received: Vec::new(),
        echo: true,
    }));
    let (pa, _) = sim.connect(a, b, LinkSpec::default());
    let outage_from = SimTime::from_nanos(200_000);
    let outage_until = SimTime::from_nanos(400_000);
    sim.set_fault_plan(a, pa, FaultPlan::new().partition(outage_from, outage_until));
    sim.run_until(SimTime::from_millis(2));

    let stats = sim.fault_stats(a, pa);
    assert!(
        stats.partition_dropped > 0,
        "frames sent mid-outage must die"
    );
    let heard_by_b = sim.node_ref::<Echo>(b).received.len() as u64;
    assert_eq!(heard_by_b + stats.partition_dropped, 2000);
    // No frame b heard before/after the window was delivered inside it
    // (propagation is ~ns-scale here, outage edges are µs apart).
    let reverse = sim.fault_stats(b, PortId::from_index(0));
    assert_eq!(
        reverse,
        netsim::FaultStats::default(),
        "reverse direction untouched"
    );
}

#[test]
fn clearing_a_plan_restores_perfect_delivery() {
    let (mut sim, tx, rx) = two_node_sim(13, 400);
    sim.set_fault_plan(tx, PortId::from_index(0), FaultPlan::new().loss(1.0));
    sim.run_until(SimTime::from_micros(100));
    assert!(sim.fault_plan(tx, PortId::from_index(0)).is_some());
    let dropped_so_far = sim.fault_stats(tx, PortId::from_index(0)).dropped;
    assert!(dropped_so_far > 0);
    assert!(sim.node_ref::<Echo>(rx).received.is_empty());

    sim.clear_fault_plan(tx, PortId::from_index(0));
    assert!(sim.fault_plan(tx, PortId::from_index(0)).is_none());
    sim.run_until(SimTime::from_millis(2));

    let received = sim.node_ref::<Echo>(rx).received.len() as u64;
    assert_eq!(received + dropped_so_far, 400);
    // Counters survive the clear for post-mortem accounting.
    assert_eq!(
        sim.fault_stats(tx, PortId::from_index(0)).dropped,
        dropped_so_far
    );
}

#[test]
fn faulted_runs_replay_byte_identically() {
    let run = || {
        let (mut sim, tx, rx) = two_node_sim(99, 800);
        sim.set_fault_plan(
            tx,
            PortId::from_index(0),
            FaultPlan::new()
                .loss(0.05)
                .duplicate(0.03)
                .reorder(0.2, SimDuration::from_micros(3))
                .jitter(SimDuration::from_nanos(250))
                .corrupt(0.01)
                .partition(SimTime::from_nanos(50_000), SimTime::from_nanos(90_000)),
        );
        sim.run_until(SimTime::from_millis(3));
        (
            sim.node_ref::<Echo>(rx).received.clone(),
            sim.fault_stats(tx, PortId::from_index(0)),
            sim.events_processed(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn node_down_swallows_in_flight_frames_and_up_resumes_delivery() {
    // Pins the crash semantics the failover experiments rely on: a
    // downed node receives nothing — including frames already on the
    // wire when it went down — and a revived node hears new traffic
    // again without replaying anything it missed.
    let mut sim = Simulation::new(5);
    let tx = sim.add_node(Box::new(Blaster::new(1000, SimDuration::from_nanos(500))));
    let rx = sim.add_node(Box::new(Echo::default()));
    sim.connect(tx, rx, LinkSpec::default());

    let down_at = SimTime::from_nanos(100_000);
    let up_at = SimTime::from_nanos(300_000);
    sim.run_until(down_at);
    sim.set_node_down(rx, true);
    sim.run_until(up_at);
    sim.set_node_down(rx, false);
    sim.run_until(SimTime::from_millis(1));

    let received = &sim.node_ref::<Echo>(rx).received;
    assert!(
        received
            .iter()
            .all(|&(_, at)| at < down_at.as_nanos() || at > up_at.as_nanos()),
        "nothing may be delivered while the node is down"
    );
    let before = received
        .iter()
        .filter(|&&(_, at)| at < down_at.as_nanos())
        .count();
    let after = received
        .iter()
        .filter(|&&(_, at)| at > up_at.as_nanos())
        .count();
    assert!(before > 0, "traffic flowed before the crash");
    assert!(after > 0, "delivery resumes after the node comes back");
    // Frames emitted into the outage are gone for good, not queued.
    assert!(
        (received.len() as u64) < 1000,
        "the outage must cost deliveries"
    );
    // The revived node resumes with the sender's *current* sequence
    // numbers — no replay of the missed window.
    let first_after = received
        .iter()
        .find(|&&(_, at)| at > up_at.as_nanos())
        .map(|&(seq, _)| seq)
        .expect("post-revival delivery");
    let last_before = received
        .iter()
        .filter(|&&(_, at)| at < down_at.as_nanos())
        .map(|&(seq, _)| seq)
        .max()
        .expect("pre-crash delivery");
    assert!(
        first_after > last_before + 1,
        "the missed window must not be replayed"
    );
}

#[test]
fn installing_an_empty_plan_changes_nothing() {
    // An installed-but-inert plan consumes no RNG draws, so the run is
    // event-for-event identical to one with no plan at all.
    let run = |with_empty_plan: bool| {
        let (mut sim, tx, rx) = two_node_sim(21, 300);
        if with_empty_plan {
            sim.set_fault_plan(tx, PortId::from_index(0), FaultPlan::new());
        }
        sim.run_until(SimTime::from_millis(1));
        (
            sim.node_ref::<Echo>(rx).received.clone(),
            sim.events_processed(),
        )
    };
    assert_eq!(run(false), run(true));
}
