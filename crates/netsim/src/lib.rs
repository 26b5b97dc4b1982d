//! # netsim — deterministic discrete-event network simulation
//!
//! The substrate under the whole P4CE reproduction. Real RDMA NICs, 100 GbE
//! links and a Tofino switch are not available in this environment, so every
//! higher layer (RoCE v2, the programmable switch, Mu, P4CE) runs on this
//! engine instead. The engine models the three resources whose contention
//! produces the paper's results:
//!
//! * **links** — serializing FIFOs with bandwidth and propagation delay
//!   ([`LinkSpec`], [`Bandwidth`]); a leader fanning a value out to `n`
//!   replicas pays `n` serializations on its single uplink,
//! * **CPUs** — serializing cores with per-operation costs ([`Cpu`]); posting
//!   a work request or reaping a completion costs a fixed number of
//!   nanoseconds,
//! * **time** — an exact nanosecond clock ([`SimTime`], [`SimDuration`]).
//!
//! Components are [`Node`]s that exchange [`Frame`]s over links and wake on
//! timers; the [`Simulation`] drives everything deterministically from a
//! seed.
//!
//! ```
//! use netsim::{Simulation, Node, Context, PortId, Frame, LinkSpec, SimTime};
//!
//! struct Counter { frames: u32 }
//! impl Node for Counter {
//!     fn on_frame(&mut self, _p: PortId, _f: Frame, _c: &mut Context<'_>) {
//!         self.frames += 1;
//!     }
//! }
//! struct Sender;
//! impl Node for Sender {
//!     fn on_start(&mut self, ctx: &mut Context<'_>) {
//!         ctx.send(PortId::FIRST, vec![0u8; 128].into());
//!     }
//!     fn on_frame(&mut self, _p: PortId, _f: Frame, _c: &mut Context<'_>) {}
//! }
//!
//! let mut sim = Simulation::new(0);
//! let s = sim.add_node(Box::new(Sender));
//! let c = sim.add_node(Box::new(Counter { frames: 0 }));
//! sim.connect(s, c, LinkSpec::default());
//! sim.run_until(SimTime::from_micros(10));
//! assert_eq!(sim.node_ref::<Counter>(c).frames, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cpu;
mod fault;
pub mod fxhash;
mod link;
mod node;
pub mod rng;
mod sched;
mod sim;
mod slab;
mod stats;
mod time;
pub mod trace;
pub mod wheel;

pub use cpu::Cpu;
pub use fault::{FaultPlan, FaultStats, Partition};
pub use fxhash::{FxHashMap, FxHashSet};
pub use link::{Bandwidth, LinkSpec, LinkStats, WIRE_OVERHEAD_BYTES};
pub use node::{Context, Frame, Node, NodeId, PortId, TimerToken, TrailerFn, FRAME_HEAD_MAX};
pub use sched::{EventClass, EventInfo, Planted, Scheduler};
pub use sim::{Simulation, TapId};
pub use slab::Slab;
pub use stats::{LatencyRecorder, LatencyStats, Throughput};
pub use time::{SimDuration, SimTime};
pub use trace::{
    annotations_from_records, assemble_spans, breakdown, chrome_trace_json, chrome_trace_json_with,
    Annotation, InstanceSpan, RetransmitKind, StageBreakdown, StageLatency, Timeline, TraceEvent,
    TraceHandle, TraceRecord, Tracer, STAGE_NAMES,
};
pub use wheel::TimingWheel;
