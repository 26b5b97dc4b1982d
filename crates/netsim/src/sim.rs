//! The discrete-event simulation engine.

use crate::fault::{FaultPlan, FaultStats};
use crate::link::{DirLink, LinkSpec, LinkStats};
use crate::node::{Context, Frame, Node, NodeId, PortId, TimerToken};
use crate::rng::Rng;
use crate::sched::{EventClass, EventInfo, Planted, Scheduler};
use crate::slab::Slab;
use crate::time::{SimDuration, SimTime};
use crate::wheel::TimingWheel;

/// One scheduled occurrence. Three in four are timers, so the queue's
/// entries stay timer-sized: a frame in flight waits in
/// [`Fabric::in_flight`] and its arrival names the slot.
#[derive(Debug)]
pub(crate) enum EventKind {
    FrameArrival {
        node: NodeId,
        port: PortId,
        slot: u32,
    },
    Timer {
        node: NodeId,
        token: TimerToken,
    },
}

/// The scheduler-visible descriptor of an event.
fn event_info(at: SimTime, seq: u64, kind: &EventKind, in_flight: &Slab<Frame>) -> EventInfo {
    let class = match *kind {
        EventKind::FrameArrival { node, port, slot } => EventClass::Frame {
            node,
            port,
            len: in_flight.get(slot).expect("on the wire").len(),
        },
        EventKind::Timer { node, token } => EventClass::Timer { node, token },
    };
    EventInfo { at, seq, class }
}

/// Where a port leads: the directed link it transmits on and the peer that
/// receives.
#[derive(Debug, Clone, Copy)]
struct PortPeer {
    dir_link: usize,
    peer: NodeId,
    peer_port: PortId,
}

/// A deterministic discrete-event network simulator.
///
/// Build a topology with [`Simulation::add_node`] and
/// [`Simulation::connect`], then drive it with [`Simulation::run_until`] /
/// [`Simulation::step`]. Two runs with the same seed and topology produce
/// identical event sequences.
///
/// ```
/// use netsim::{Simulation, Node, Context, PortId, Frame, LinkSpec, SimTime};
///
/// struct Echo;
/// impl Node for Echo {
///     fn on_frame(&mut self, port: PortId, frame: Frame, ctx: &mut Context<'_>) {
///         ctx.send(port, frame); // bounce it back
///     }
/// }
///
/// struct Probe { replies: u32 }
/// impl Node for Probe {
///     fn on_start(&mut self, ctx: &mut Context<'_>) {
///         ctx.send(PortId::FIRST, vec![0u8; 64].into());
///     }
///     fn on_frame(&mut self, _p: PortId, _f: Frame, _ctx: &mut Context<'_>) {
///         self.replies += 1;
///     }
/// }
///
/// let mut sim = Simulation::new(7);
/// let a = sim.add_node(Box::new(Probe { replies: 0 }));
/// let b = sim.add_node(Box::new(Echo));
/// sim.connect(a, b, LinkSpec::default());
/// sim.run_until(SimTime::from_millis(1));
/// assert_eq!(sim.node_ref::<Probe>(a).replies, 1);
/// ```
pub struct Simulation {
    fabric: Fabric,
    nodes: Vec<Box<dyn Node>>,
    node_down: Vec<bool>,
    started: bool,
    events_processed: u64,
    scheduler: Option<Box<dyn Scheduler>>,
}

/// Everything a callback's side effects act on — the clock, the event
/// queue, the links with their fault plans and taps, the RNG — kept apart
/// from the node table so that a [`Context`] can borrow all of it while
/// one node is borrowed mutably.
pub(crate) struct Fabric {
    now: SimTime,
    queue: TimingWheel<EventKind>,
    next_seq: u64,
    /// Frames on the wire, parked once on send and taken on arrival.
    in_flight: Slab<Frame>,
    ports: Vec<Vec<PortPeer>>,
    dir_links: Vec<DirLink>,
    // Parallel to dir_links: the installed fault plan (if any) and its
    // injection counters.
    faults: Vec<Option<FaultPlan>>,
    fault_stats: Vec<FaultStats>,
    /// Number of `Some` entries in `faults`: lets the per-send fast path
    /// skip fault bookkeeping entirely on clean topologies.
    faults_installed: usize,
    pub(crate) rng: Rng,
    taps: Vec<Tap>,
    pub(crate) planted: Option<Planted>,
}

impl Fabric {
    /// Queues `kind` at `at`. Events are numbered in the order callbacks
    /// emit them, so same-instant ties fire in emission order.
    pub(crate) fn push_event(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(at.as_nanos(), seq, kind);
    }

    /// Clocks `frame` onto the link behind `node`'s `port` and queues its
    /// arrival(s) at the far end.
    pub(crate) fn send(&mut self, node: NodeId, port: PortId, frame: Frame) {
        for tap in &mut self.taps {
            if tap.node == node && tap.port == port {
                tap.frames.push((self.now, frame.clone()));
            }
        }
        let Some(peer) = self.ports[node.index()].get(port.index()).copied() else {
            panic!("node {node} sent on unconnected port {port}");
        };
        let mut arrive = |at: SimTime, frame| {
            let slot = self.in_flight.put(frame);
            let seq = self.next_seq;
            self.next_seq += 1;
            let kind = EventKind::FrameArrival {
                node: peer.peer,
                port: peer.peer_port,
                slot,
            };
            self.queue.push(at.as_nanos(), seq, kind);
        };
        // The link is charged whether or not a fault later removes the
        // frame: serialization happened either way, so installing a plan
        // never shifts the timing of the frames that do survive.
        let arrival = self.dir_links[peer.dir_link].transmit(self.now, frame.len());
        // Fault-free topologies (the common case) skip the plan lookup
        // and stat bookkeeping outright.
        let plan = match self.faults_installed {
            0 => None,
            _ => self.faults[peer.dir_link].as_ref(),
        };
        let Some(plan) = plan else {
            return arrive(arrival, frame);
        };
        let stats = &mut self.fault_stats[peer.dir_link];
        for (at, frame) in plan.apply(self.now, arrival, frame, &mut self.rng, stats) {
            arrive(at, frame);
        }
    }
}

/// A wire tap capturing frames transmitted from one node's port.
#[derive(Debug)]
struct Tap {
    node: NodeId,
    port: PortId,
    frames: Vec<(SimTime, Frame)>,
}

/// Handle to a wire tap installed with [`Simulation::tap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapId(usize);

impl PortId {
    /// The first port allocated on a node (valid once it has been connected).
    pub const FIRST: PortId = PortId(0);
}

impl Simulation {
    /// Creates an empty simulation with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        Simulation {
            fabric: Fabric {
                now: SimTime::ZERO,
                queue: TimingWheel::new(),
                next_seq: 0,
                in_flight: Slab::new(),
                ports: Vec::new(),
                dir_links: Vec::new(),
                faults: Vec::new(),
                fault_stats: Vec::new(),
                faults_installed: 0,
                rng: Rng::new(seed),
                taps: Vec::new(),
                planted: None,
            },
            nodes: Vec::new(),
            node_down: Vec::new(),
            started: false,
            events_processed: 0,
            scheduler: None,
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.fabric.now
    }

    /// Number of events processed so far (for diagnostics).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Registers a node and returns its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many nodes"));
        self.nodes.push(node);
        self.node_down.push(false);
        self.fabric.ports.push(Vec::new());
        id
    }

    /// Connects `a` and `b` with a full-duplex link, returning the newly
    /// allocated port on each side.
    ///
    /// # Panics
    ///
    /// Panics if either node id is unknown.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (PortId, PortId) {
        assert!(a.index() < self.nodes.len(), "unknown node {a}");
        assert!(b.index() < self.nodes.len(), "unknown node {b}");
        let pa = PortId(self.fabric.ports[a.index()].len() as u32);
        let pb = PortId(self.fabric.ports[b.index()].len() as u32);
        let ab = self.fabric.dir_links.len();
        self.fabric.dir_links.push(DirLink::new(spec));
        let ba = self.fabric.dir_links.len();
        self.fabric.dir_links.push(DirLink::new(spec));
        self.fabric.faults.push(None);
        self.fabric.faults.push(None);
        self.fabric.fault_stats.push(FaultStats::default());
        self.fabric.fault_stats.push(FaultStats::default());
        self.fabric.ports[a.index()].push(PortPeer {
            dir_link: ab,
            peer: b,
            peer_port: pb,
        });
        self.fabric.ports[b.index()].push(PortPeer {
            dir_link: ba,
            peer: a,
            peer_port: pa,
        });
        (pa, pb)
    }

    /// Marks a node as crashed: all frames addressed to it are dropped and
    /// its pending/future timers never fire. Models power-off / process kill.
    pub fn set_node_down(&mut self, node: NodeId, down: bool) {
        self.node_down[node.index()] = down;
    }

    /// Immutable access to a node, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node is not of type `T`.
    pub fn node_ref<T: Node>(&self, id: NodeId) -> &T {
        let node: &dyn Node = self.nodes[id.index()].as_ref();
        (node as &dyn std::any::Any)
            .downcast_ref::<T>()
            .unwrap_or_else(|| panic!("node {id} is not a {}", std::any::type_name::<T>()))
    }

    /// Mutable access to a node, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node is not of type `T`.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> &mut T {
        let node: &mut dyn Node = self.nodes[id.index()].as_mut();
        (node as &mut dyn std::any::Any)
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("node {id} is not a {}", std::any::type_name::<T>()))
    }

    /// Runs a closure against a node with a live [`Context`], as if a
    /// callback fired now. Useful for injecting work mid-simulation.
    pub fn with_node<T: Node, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Context<'_>) -> R,
    ) -> R {
        let (node, mut ctx) = self.enter(id);
        let node = (node as &mut dyn std::any::Any)
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("node {id} is not a {}", std::any::type_name::<T>()));
        f(node, &mut ctx)
    }

    /// Borrows node `id` together with a live [`Context`] on the fabric.
    fn enter(&mut self, id: NodeId) -> (&mut dyn Node, Context<'_>) {
        let ctx = Context {
            now: self.fabric.now,
            node: id,
            fabric: &mut self.fabric,
        };
        (self.nodes[id.index()].as_mut(), ctx)
    }

    /// Installs a wire tap: every frame `node` transmits on `port` from
    /// now on is recorded with its transmission instant. Read the capture
    /// with [`Simulation::tap_frames`]. Capturing clones the [`Frame`],
    /// which shares the underlying buffer — taps add no per-byte cost to
    /// the traffic they observe.
    pub fn tap(&mut self, node: NodeId, port: PortId) -> TapId {
        let id = TapId(self.fabric.taps.len());
        self.fabric.taps.push(Tap {
            node,
            port,
            frames: Vec::new(),
        });
        id
    }

    /// The frames captured by a tap so far, as (transmit instant, frame).
    pub fn tap_frames(&self, tap: TapId) -> &[(SimTime, Frame)] {
        &self.fabric.taps[tap.0].frames
    }

    /// Installs (or replaces) a fault plan on the *directed* link that
    /// carries frames transmitted by `node` on `port`. The reverse
    /// direction is unaffected — install a plan on the peer's port too
    /// for a symmetric fault (see [`Simulation::peer_of`]).
    ///
    /// Takes effect for frames transmitted from now on; frames already
    /// on the wire are not revisited.
    pub fn set_fault_plan(&mut self, node: NodeId, port: PortId, plan: FaultPlan) {
        let peer = self.fabric.ports[node.index()][port.index()];
        if self.fabric.faults[peer.dir_link].is_none() {
            self.fabric.faults_installed += 1;
        }
        self.fabric.faults[peer.dir_link] = Some(plan);
    }

    /// Removes any fault plan from the directed link out of `node`'s
    /// `port`. Injection counters are preserved.
    pub fn clear_fault_plan(&mut self, node: NodeId, port: PortId) {
        let peer = self.fabric.ports[node.index()][port.index()];
        if self.fabric.faults[peer.dir_link].take().is_some() {
            self.fabric.faults_installed -= 1;
        }
    }

    /// The fault plan currently installed on the directed link out of
    /// `node`'s `port`, if any.
    pub fn fault_plan(&self, node: NodeId, port: PortId) -> Option<&FaultPlan> {
        let peer = self.fabric.ports[node.index()][port.index()];
        self.fabric.faults[peer.dir_link].as_ref()
    }

    /// Counters of faults injected so far on the directed link out of
    /// `node`'s `port` (across all plans ever installed there).
    pub fn fault_stats(&self, node: NodeId, port: PortId) -> FaultStats {
        let peer = self.fabric.ports[node.index()][port.index()];
        self.fabric.fault_stats[peer.dir_link]
    }

    /// Transmission statistics of the directed link from `node`'s `port`.
    pub fn link_stats(&self, node: NodeId, port: PortId) -> LinkStats {
        let peer = self.fabric.ports[node.index()][port.index()];
        let dl = &self.fabric.dir_links[peer.dir_link];
        LinkStats {
            wire_bytes: dl.wire_bytes,
            frames: dl.frames,
        }
    }

    /// The node and port at the far end of `node`'s `port`.
    pub fn peer_of(&self, node: NodeId, port: PortId) -> (NodeId, PortId) {
        let p = self.fabric.ports[node.index()][port.index()];
        (p.peer, p.peer_port)
    }

    /// Installs a [`Scheduler`] that chooses among co-enabled events
    /// (those sharing the earliest pending timestamp). Replaces any
    /// previous scheduler. Without one, equal-time events fire in
    /// insertion order — as if every choice were index 0.
    pub fn set_scheduler(&mut self, scheduler: Box<dyn Scheduler>) {
        self.scheduler = Some(scheduler);
    }

    /// Plants `bug`: callbacks from the next event on see it through
    /// [`Context::planted`]. Before the first event, the run is the one
    /// the bug compiled in would produce.
    pub fn plant(&mut self, bug: Planted) {
        self.fabric.planted = Some(bug);
    }

    /// The currently co-enabled events: every pending event due at the
    /// earliest queued instant, sorted by insertion order. Empty when the
    /// queue is drained. O(co-enabled set) — same-instant events share
    /// one wheel slot.
    pub fn co_enabled(&self) -> Vec<EventInfo> {
        let mut out = Vec::new();
        let in_flight = &self.fabric.in_flight;
        self.fabric.queue.for_each_at_head(|at, seq, kind| {
            out.push(event_info(SimTime::from_nanos(at), seq, kind, in_flight))
        });
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Pops the event to fire next, honouring the installed scheduler.
    fn pop_next(&mut self) -> Option<(SimTime, u64, EventKind)> {
        if self.scheduler.is_none() {
            return self
                .fabric
                .queue
                .pop()
                .map(|(at, seq, kind)| (SimTime::from_nanos(at), seq, kind));
        }
        let first = self.fabric.queue.pop()?;
        let head_at = first.0;
        // Gather every co-enabled event (the wheel yields them in
        // ascending seq order for equal `at`).
        let mut batch = vec![first];
        while let Some((at, _)) = self.fabric.queue.peek() {
            if at != head_at {
                break;
            }
            let Some(e) = self.fabric.queue.pop() else {
                break;
            };
            batch.push(e);
        }
        let chosen = if batch.len() == 1 {
            0
        } else {
            let infos: Vec<EventInfo> = batch
                .iter()
                .map(|(at, seq, kind)| {
                    event_info(SimTime::from_nanos(*at), *seq, kind, &self.fabric.in_flight)
                })
                .collect();
            let sched = self.scheduler.as_mut().expect("checked above");
            sched.choose(&infos).min(batch.len() - 1)
        };
        // Re-queue the unchosen events in ascending seq order so the
        // wheel slot they return to stays insertion-ordered.
        let mut picked = None;
        for (i, (at, seq, kind)) in batch.into_iter().enumerate() {
            if i == chosen {
                picked = Some((SimTime::from_nanos(at), seq, kind));
            } else {
                self.fabric.queue.push(at, seq, kind);
            }
        }
        picked
    }

    fn deliver(&mut self, kind: EventKind) {
        match kind {
            EventKind::FrameArrival { node, port, slot } => {
                // The frame leaves the wire whether or not anyone is there.
                let frame = self.fabric.in_flight.take(slot);
                if !self.node_down[node.index()] {
                    let (node, mut ctx) = self.enter(node);
                    node.on_frame(port, frame.expect("a frame on the wire"), &mut ctx);
                }
            }
            // Crashed nodes receive nothing.
            EventKind::Timer { node, token } => {
                if !self.node_down[node.index()] {
                    let (node, mut ctx) = self.enter(node);
                    node.on_timer(token, &mut ctx);
                }
            }
        }
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            if self.node_down[i] {
                continue;
            }
            let (node, mut ctx) = self.enter(NodeId(i as u32));
            node.on_start(&mut ctx);
        }
    }

    /// Processes the next event, if any. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        let Some((at, _seq, kind)) = self.pop_next() else {
            return false;
        };
        debug_assert!(at >= self.fabric.now, "time went backwards");
        self.fabric.now = at;
        self.events_processed += 1;
        self.deliver(kind);
        true
    }

    /// Runs until the clock reaches `deadline` or the event queue drains.
    /// The clock is left at `deadline` (or the last event, whichever is
    /// later-bounded).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start_if_needed();
        if self.scheduler.is_none() {
            // Fast path: the wheel's conditional pop peeks and pops in
            // one bitmap scan.
            while let Some((at, _seq, kind)) = self.fabric.queue.pop_if(deadline.as_nanos()) {
                self.fabric.now = SimTime::from_nanos(at);
                self.events_processed += 1;
                self.deliver(kind);
            }
        } else {
            while let Some((head_at, _)) = self.fabric.queue.peek() {
                if head_at > deadline.as_nanos() {
                    break;
                }
                let Some((at, _seq, kind)) = self.pop_next() else {
                    break;
                };
                self.fabric.now = at;
                self.events_processed += 1;
                self.deliver(kind);
            }
        }
        self.fabric.now = self.fabric.now.max(deadline);
    }

    /// Runs for `span` of simulated time from the current instant.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.fabric.now + span;
        self.run_until(deadline);
    }

    /// Runs until the event queue is fully drained.
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.fabric.now)
            .field("nodes", &self.nodes.len())
            .field("pending_events", &self.fabric.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Bandwidth;

    /// Records arrival times of every frame it receives.
    struct Sink {
        arrivals: Vec<(SimTime, usize)>,
    }
    impl Node for Sink {
        fn on_frame(&mut self, _port: PortId, frame: Frame, ctx: &mut Context<'_>) {
            self.arrivals.push((ctx.now, frame.len()));
        }
    }

    /// Sends a burst of frames at start, and one frame per timer tick.
    struct Burst {
        count: usize,
        size: usize,
    }
    impl Node for Burst {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for _ in 0..self.count {
                ctx.send(PortId::FIRST, vec![0u8; self.size].into());
            }
        }
        fn on_frame(&mut self, _port: PortId, _frame: Frame, _ctx: &mut Context<'_>) {}
    }

    fn slow_link() -> LinkSpec {
        LinkSpec {
            bandwidth: Bandwidth::from_gbps(8.0), // 1 byte/ns
            propagation: SimDuration::from_nanos(50),
        }
    }

    #[test]
    fn frames_arrive_in_fifo_order_with_backpressure() {
        let mut sim = Simulation::new(1);
        let tx = sim.add_node(Box::new(Burst { count: 3, size: 76 }));
        let rx = sim.add_node(Box::new(Sink { arrivals: vec![] }));
        sim.connect(tx, rx, slow_link());
        sim.run_to_completion();
        let sink = sim.node_ref::<Sink>(rx);
        // 76 + 24 = 100 wire bytes = 100 ns each, 50 ns propagation.
        let times: Vec<u64> = sink.arrivals.iter().map(|(t, _)| t.as_nanos()).collect();
        assert_eq!(times, vec![150, 250, 350]);
    }

    #[test]
    fn link_stats_count_wire_bytes() {
        let mut sim = Simulation::new(1);
        let tx = sim.add_node(Box::new(Burst {
            count: 2,
            size: 100,
        }));
        let rx = sim.add_node(Box::new(Sink { arrivals: vec![] }));
        let (ptx, _) = sim.connect(tx, rx, slow_link());
        sim.run_to_completion();
        let stats = sim.link_stats(tx, ptx);
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.wire_bytes, 2 * 124);
    }

    #[test]
    fn down_node_receives_nothing() {
        let mut sim = Simulation::new(1);
        let tx = sim.add_node(Box::new(Burst { count: 5, size: 10 }));
        let rx = sim.add_node(Box::new(Sink { arrivals: vec![] }));
        sim.connect(tx, rx, slow_link());
        sim.set_node_down(rx, true);
        sim.run_to_completion();
        assert!(sim.node_ref::<Sink>(rx).arrivals.is_empty());
    }

    #[test]
    fn timers_fire_in_order_and_ties_break_by_insertion() {
        struct Timers {
            fired: Vec<u64>,
        }
        impl Node for Timers {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.schedule(SimDuration::from_nanos(10), TimerToken(1));
                ctx.schedule(SimDuration::from_nanos(10), TimerToken(2));
                ctx.schedule(SimDuration::from_nanos(5), TimerToken(3));
            }
            fn on_frame(&mut self, _p: PortId, _f: Frame, _c: &mut Context<'_>) {}
            fn on_timer(&mut self, token: TimerToken, _ctx: &mut Context<'_>) {
                self.fired.push(token.0);
            }
        }
        let mut sim = Simulation::new(1);
        let n = sim.add_node(Box::new(Timers { fired: vec![] }));
        sim.run_to_completion();
        assert_eq!(sim.node_ref::<Timers>(n).fired, vec![3, 1, 2]);
    }

    #[test]
    fn a_planted_bug_is_seen_by_every_callback_from_the_next_event_on() {
        struct Seen(Vec<Option<Planted>>);
        impl Node for Seen {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                self.0.push(ctx.planted());
                ctx.schedule(SimDuration::from_nanos(5), TimerToken(0));
            }
            fn on_frame(&mut self, _p: PortId, _f: Frame, _c: &mut Context<'_>) {}
            fn on_timer(&mut self, _t: TimerToken, ctx: &mut Context<'_>) {
                self.0.push(ctx.planted());
            }
        }
        let mut sim = Simulation::new(1);
        let n = sim.add_node(Box::new(Seen(Vec::new())));
        sim.with_node::<Seen, _>(n, |seen, ctx| seen.0.push(ctx.planted()));
        sim.plant(Planted::CrosswireGroups);
        sim.run_to_completion();
        let bug = Some(Planted::CrosswireGroups);
        assert_eq!(sim.node_ref::<Seen>(n).0, [None, bug, bug]);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim = Simulation::new(1);
        sim.run_until(SimTime::from_millis(7));
        assert_eq!(sim.now(), SimTime::from_millis(7));
    }

    #[test]
    fn with_node_injects_sends() {
        let mut sim = Simulation::new(1);
        let tx = sim.add_node(Box::new(Burst { count: 0, size: 0 }));
        let rx = sim.add_node(Box::new(Sink { arrivals: vec![] }));
        sim.connect(tx, rx, slow_link());
        sim.run_until(SimTime::from_nanos(100));
        sim.with_node::<Burst, _>(tx, |_, ctx| {
            ctx.send(PortId::FIRST, vec![0u8; 6].into());
        });
        sim.run_to_completion();
        assert_eq!(sim.node_ref::<Sink>(rx).arrivals.len(), 1);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run() -> Vec<(u64, usize)> {
            let mut sim = Simulation::new(42);
            let tx = sim.add_node(Box::new(Burst {
                count: 10,
                size: 33,
            }));
            let rx = sim.add_node(Box::new(Sink { arrivals: vec![] }));
            sim.connect(tx, rx, LinkSpec::default());
            sim.run_to_completion();
            sim.node_ref::<Sink>(rx)
                .arrivals
                .iter()
                .map(|(t, l)| (t.as_nanos(), *l))
                .collect()
        }
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "node n1 sent on unconnected port p0")]
    fn sending_on_unconnected_port_panics_with_the_node_id() {
        let mut sim = Simulation::new(1);
        sim.add_node(Box::new(Sink { arrivals: vec![] }));
        sim.add_node(Box::new(Burst { count: 1, size: 1 }));
        sim.run_to_completion();
    }

    #[test]
    fn callback_effects_take_consecutive_seqs_and_taps_see_now() {
        use std::cell::RefCell;
        use std::rc::Rc;
        type Log = Rc<RefCell<Vec<&'static str>>>;

        /// At t = 70 ns: send on port 0, arm a timer for the instant that
        /// frame arrives, send on port 1 — three effects, one instant.
        struct Emitter(Log);
        impl Node for Emitter {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.schedule(SimDuration::from_nanos(70), TimerToken(0));
            }
            fn on_frame(&mut self, _p: PortId, _f: Frame, _c: &mut Context<'_>) {}
            fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_>) {
                if token.0 == 1 {
                    self.0.borrow_mut().push("timer");
                    return;
                }
                ctx.send(PortId::from_index(0), vec![0u8; 76].into());
                // 76 + 24 wire bytes at 1 byte/ns + 50 ns propagation.
                ctx.schedule(SimDuration::from_nanos(150), TimerToken(1));
                ctx.send(PortId::from_index(1), vec![0u8; 76].into());
            }
        }
        struct Named(&'static str, Log);
        impl Node for Named {
            fn on_frame(&mut self, _p: PortId, _f: Frame, _c: &mut Context<'_>) {
                self.1.borrow_mut().push(self.0);
            }
        }

        let log = Log::default();
        let mut sim = Simulation::new(1);
        let a = sim.add_node(Box::new(Emitter(log.clone())));
        let b = sim.add_node(Box::new(Named("b", log.clone())));
        let c = sim.add_node(Box::new(Named("c", log.clone())));
        sim.connect(a, b, slow_link());
        let (a_to_c, _) = sim.connect(a, c, slow_link());
        let tap = sim.tap(a, a_to_c);
        sim.run_until(SimTime::from_nanos(70));

        // seq 0 was the start-up timer; the callback's three effects take
        // 1, 2, 3 in emission order and all land at t = 220.
        let co = sim.co_enabled();
        let seqs: Vec<u64> = co.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert!(co.iter().all(|e| e.at == SimTime::from_nanos(220)));
        let nodes: Vec<NodeId> = co.iter().map(|e| e.class.node()).collect();
        assert_eq!(nodes, vec![b, a, c]);

        let captured = sim.tap_frames(tap);
        assert_eq!(captured.len(), 1);
        assert_eq!(captured[0].0, SimTime::from_nanos(70));

        sim.run_to_completion();
        assert_eq!(*log.borrow(), vec!["b", "timer", "c"]);
    }

    #[test]
    fn taps_capture_transmissions() {
        let mut sim = Simulation::new(1);
        let tx = sim.add_node(Box::new(Burst { count: 3, size: 10 }));
        let rx = sim.add_node(Box::new(Sink { arrivals: vec![] }));
        sim.connect(tx, rx, slow_link());
        let tap = sim.tap(tx, PortId::FIRST);
        let silent = sim.tap(rx, PortId::FIRST);
        sim.run_to_completion();
        let captured = sim.tap_frames(tap);
        assert_eq!(captured.len(), 3);
        assert!(captured.iter().all(|(_, f)| f.len() == 10));
        // All three were transmitted at t=0 (queueing happens on the link).
        assert!(captured.iter().all(|(t, _)| *t == SimTime::ZERO));
        assert!(sim.tap_frames(silent).is_empty());
    }

    /// A node that arms several same-instant timers at start and records
    /// the order they fire in — the canonical co-enabled workload.
    struct TiedTimers {
        fired: Vec<u64>,
    }
    impl Node for TiedTimers {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for t in 0..4u64 {
                ctx.schedule(SimDuration::from_nanos(10), TimerToken(t));
            }
        }
        fn on_frame(&mut self, _p: PortId, _f: Frame, _c: &mut Context<'_>) {}
        fn on_timer(&mut self, token: TimerToken, _ctx: &mut Context<'_>) {
            self.fired.push(token.0);
        }
    }

    fn tied_run(scheduler: Option<Box<dyn crate::Scheduler>>) -> Vec<u64> {
        let mut sim = Simulation::new(1);
        let n = sim.add_node(Box::new(TiedTimers { fired: vec![] }));
        if let Some(s) = scheduler {
            sim.set_scheduler(s);
        }
        sim.run_to_completion();
        sim.node_ref::<TiedTimers>(n).fired.clone()
    }

    #[test]
    fn fifo_scheduler_matches_default_order() {
        let default = tied_run(None);
        let fifo = tied_run(Some(Box::new(crate::sched::tests::FifoScheduler)));
        assert_eq!(default, vec![0, 1, 2, 3]);
        assert_eq!(default, fifo);
    }

    #[test]
    fn scheduler_permutes_co_enabled_events() {
        /// Always picks the *last* candidate — reverses FIFO among ties.
        struct Lifo;
        impl crate::Scheduler for Lifo {
            fn choose(&mut self, candidates: &[crate::EventInfo]) -> usize {
                candidates.len() - 1
            }
        }
        assert_eq!(tied_run(Some(Box::new(Lifo))), vec![3, 2, 1, 0]);
    }

    #[test]
    fn replay_scheduler_reproduces_recorded_choices() {
        // Choices recorded at successive branching points: 4 candidates →
        // pick 2; then {0,1,3} → pick 1 (token 1); then {0,3} → pick 1
        // (token 3); last one forced.
        let replay = crate::sched::tests::ReplayScheduler::new(vec![2, 1, 1]);
        assert_eq!(tied_run(Some(Box::new(replay))), vec![2, 1, 3, 0]);
    }

    #[test]
    fn co_enabled_lists_head_time_events() {
        let mut sim = Simulation::new(1);
        let n = sim.add_node(Box::new(TiedTimers { fired: vec![] }));
        // Start the nodes so the timers are queued, without processing any.
        sim.run_until(SimTime::ZERO);
        let co = sim.co_enabled();
        assert_eq!(co.len(), 4);
        assert!(co.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(co.iter().all(|e| e.at == SimTime::from_nanos(10)));
        assert!(co.iter().all(|e| e.class.node() == n));
        sim.run_to_completion();
        assert!(sim.co_enabled().is_empty());
    }

    #[test]
    fn peer_of_reports_topology() {
        let mut sim = Simulation::new(1);
        let a = sim.add_node(Box::new(Sink { arrivals: vec![] }));
        let b = sim.add_node(Box::new(Sink { arrivals: vec![] }));
        let (pa, pb) = sim.connect(a, b, LinkSpec::default());
        assert_eq!(sim.peer_of(a, pa), (b, pb));
        assert_eq!(sim.peer_of(b, pb), (a, pa));
    }
}
