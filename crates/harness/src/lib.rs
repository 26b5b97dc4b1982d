//! # p4ce-harness — experiment drivers for the P4CE reproduction
//!
//! One module per table/figure of the paper's evaluation (§V), plus the
//! §IV-D ablation, the §VI P4xos comparison and the two supplementary
//! sweeps:
//!
//! | module | paper artifact | `p4ce-bench` |
//! |---|---|---|
//! | [`experiments::fig5_goodput`] | Fig. 5 — goodput vs. value size | `fig5` |
//! | [`experiments::maxrate`] | §V-C — max consensus/s at 64 B | `maxrate` |
//! | [`experiments::fig6_latency`] | Fig. 6 — latency vs. throughput | `fig6` |
//! | [`experiments::fig7_burst`] | Fig. 7 — burst latency | `fig7` |
//! | [`experiments::table4_failover`] | Table IV — fail-over times | `table4` |
//! | [`experiments::ablation_ackdrop`] | §IV-D — ACK-drop placement | `ablation ack-drop` |
//! | [`experiments::related_p4xos`] | §VI — P4xos latency comparison | `p4xos` |
//! | [`experiments::groups_sweep`] | E9 — sharded groups sweep | `groups` |
//! | [`experiments::e10_failover`] | E10 — failover attribution | `failover` |
//!
//! The `p4ce-bench` binary is a thin front door over these modules; each
//! subcommand prints a markdown table whose shape mirrors the paper's
//! artifact.
//!
//! Each scenario kind has one run entry, which takes what to observe as
//! an argument and is the same run whatever it is asked to watch:
//!
//! | kind | entry | faults, one [`FaultSchedule`] in the driver's clock | observed through |
//! |---|---|---|---|
//! | measured point | [`observe_point`] | none | [`Observe`] (each layer's own stats as [`Layers`], trace handle) |
//! | sharded point | [`observe_sharded_point`] | none | [`Observe`] |
//! | chaos run | [`chaos::run`] of a [`ChaosRun`] (+ [`chaos::replay`], [`chaos::run_checked`]) | `ChaosRun::faults`, ns after steady state ([`ChaosSpec::faults`] draws one) | `&Tracer` |
//! | explored schedule | [`explore::run_schedule`] (+ [`explore::replay`]) | `ExploreSpec::faults`, explored steps | `&Tracer` |
//! | leader kill | [`try_failover`] (+ [`run_failover`], which panics on an unserved kill) | [`FailoverConfig::faults`], ns after steady state | the outcome's timeline and records |
//! | Table IV row | [`experiments::table4_failover::run`] | one entry at steady state | the member's events |
//!
//! Under the entries there is one shape: a `Simulation` plus groups of
//! member nodes, `groups[group][member]`. An entry builds its deployment
//! (`replication::Deployment`, one group; `p4ce::ShardedDeployment`,
//! several behind one switch), destructures it on the spot and calls a
//! driver that takes `(sim, groups)` and the comm type — one
//! schedule runner, one kill loop, one chaos client, and under them one
//! wait-for-steady-state, one propose-to-the-leader and one
//! [`Faults`], the only code that crashes a node or plans a link. Both
//! reproducer kinds write the same [`repro::Header`], faults included. A
//! scenario is written once for both deployment types.
//!
//! [`sweep`] runs any of the point kinds over a config list on a worker
//! pool. [`run_point`], [`run_point_traced`], [`run_sharded_point`] and
//! [`run_failover`] are pinned by the frozen `benchmark/src/sut.rs`; the
//! first three are one-line projections of the `observe_*` entries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod experiments;
pub mod explore;
pub mod failover;
pub mod faults;
mod groups;
pub mod report;
pub mod repro;
pub mod runner;
pub mod shard;
pub mod tracing;

pub use chaos::{ChaosRecorder, ChaosReport, ChaosRun, ChaosSpec};
pub use explore::{Budget, ExploreReport, ExploreSpec, ExploreStatus};
pub use failover::{
    run_failover, try_failover, FailoverBudget, FailoverConfig, FailoverOutcome, FailoverPhase,
    ThroughputDip, FAILOVER_PHASES,
};
pub use faults::{Fault, FaultSchedule, Faults, Storm};
pub use groups::Layers;
pub use report::{to_markdown, truncation_warning, TableRow};
pub use repro::Repro;
pub use runner::{
    observe_point, run_point, run_point_traced, sweep, Observe, PointConfig, PointOutcome, System,
    TracedPoint,
};
pub use shard::{
    observe_sharded_point, run_sharded_point, HashRing, ShardGroupOutcome, ShardKvCommand,
    ShardKvStore, ShardedOutcome, ShardedPointConfig, ZipfSampler,
};
pub use tracing::{stage_rows, stage_table, write_chrome_trace};
