//! The P4CE deployment: members behind the P4CE-programmed switch — and
//! optionally a backup plain-L3 fabric for switch-crash experiments.

use netsim::{SimDuration, Tracer};
use p4ce_switch::{AckDropStage, CreditMode, P4ceProgram, P4ceSwitchConfig};
use replication::Fabric;
use std::net::Ipv4Addr;
use tofino::SwitchConfig;

use crate::member::{SwitchComm, SwitchCommConfig};

/// The P4CE switch and the settings of the comm that talks to it.
#[derive(Debug, Clone, Default)]
pub struct P4ceFabric {
    pub(crate) switch_cfg: P4ceSwitchConfig,
    pub(crate) parser_cost: Option<SimDuration>,
    pub(crate) parser_slices: Option<usize>,
    pub(crate) async_reconfig: bool,
    pub(crate) reaccel_period: Option<SimDuration>,
}

impl Fabric for P4ceFabric {
    type Comm = SwitchComm;
    type Program = P4ceProgram;

    fn comm(&self, switch_ip: Ipv4Addr) -> SwitchComm {
        let mut cfg = SwitchCommConfig::new(switch_ip);
        cfg.async_reconfig = self.async_reconfig;
        if let Some(period) = self.reaccel_period {
            cfg.reaccel_period = period;
        }
        SwitchComm::new(cfg)
    }

    fn program(&self, hw: &mut SwitchConfig, tracer: &Tracer) -> P4ceProgram {
        hw.tracer = tracer.labeled("switch");
        if let Some(cost) = self.parser_cost {
            hw.parser_cost = cost;
        }
        hw.parser_slices = self.parser_slices;
        P4ceProgram::new(self.switch_cfg.clone())
    }
}

/// Builds a ready-to-run P4CE cluster inside a [`netsim::Simulation`].
/// Member hosts trace as `m0`, `m1`, …; the P4CE switch as `switch`.
/// The switch-specific setters are [`SwitchSetters`].
///
/// ```
/// use p4ce::{ClusterBuilder};
/// use netsim::SimTime;
/// use replication::WorkloadSpec;
///
/// let mut deployment = ClusterBuilder::new(3)
///     .workload(WorkloadSpec::closed(4, 64, 200))
///     .build();
/// deployment.sim.run_until(SimTime::from_millis(100));
/// assert_eq!(deployment.leader().stats.decided, 200);
/// ```
pub type ClusterBuilder = replication::ClusterBuilder<P4ceFabric>;

/// A built P4CE deployment.
pub type Deployment = replication::Deployment<P4ceFabric>;

/// The setters of [`ClusterBuilder`] that only make sense behind a P4CE
/// switch. (An extension trait because the builder type itself is
/// `replication`'s; bring it into scope to call them.)
pub trait SwitchSetters: Sized {
    /// The fabric settings these setters edit.
    fn fabric_mut(&mut self) -> &mut P4ceFabric;

    /// Overrides the switch program configuration.
    fn switch_config(mut self, cfg: P4ceSwitchConfig) -> Self {
        self.fabric_mut().switch_cfg = cfg;
        self
    }

    /// Selects the ACK-drop placement (the §IV-D ablation).
    fn ack_drop(mut self, stage: AckDropStage) -> Self {
        self.fabric_mut().switch_cfg.ack_drop = stage;
        self
    }

    /// Selects how the switch aggregates flow-control credits (the §IV-C
    /// design choice vs. the naive passthrough).
    fn credit_mode(mut self, mode: CreditMode) -> Self {
        self.fabric_mut().switch_cfg.credit_mode = mode;
        self
    }

    /// Reconfigure the switch asynchronously (keep replicating while the
    /// group rebuilds) — the Lesson-3 extension.
    fn async_reconfig(mut self, enable: bool) -> Self {
        self.fabric_mut().async_reconfig = enable;
        self
    }

    /// Overrides how long a leader waits on the switch before falling
    /// back to direct replication (and how often it re-probes for
    /// acceleration). Model-checking runs shrink it so fallback
    /// scenarios stay cheap.
    fn reaccel_period(mut self, period: SimDuration) -> Self {
        self.fabric_mut().reaccel_period = Some(period);
        self
    }

    /// Overrides the switch's per-parser packet cost (scaled-down parser
    /// budgets for the §IV-D ablation).
    fn parser_cost(mut self, cost: SimDuration) -> Self {
        self.fabric_mut().parser_cost = Some(cost);
        self
    }
}

impl SwitchSetters for ClusterBuilder {
    fn fabric_mut(&mut self) -> &mut P4ceFabric {
        &mut self.fabric
    }
}
