//! The Mu deployment: members behind a plain L3 switch fabric.

use netsim::Tracer;
use replication::Fabric;
use std::net::Ipv4Addr;
use tofino::{L3Forwarder, SwitchConfig};

use crate::member::MuComm;

/// A switch that only forwards; every member runs [`MuComm`].
#[derive(Debug, Clone, Default)]
pub struct PlainFabric;

impl Fabric for PlainFabric {
    type Comm = MuComm;
    type Program = L3Forwarder;

    fn comm(&self, _switch_ip: Ipv4Addr) -> MuComm {
        MuComm::default()
    }

    fn program(&self, _hw: &mut SwitchConfig, _tracer: &Tracer) -> L3Forwarder {
        L3Forwarder
    }
}

/// Builds a ready-to-run Mu cluster inside a [`netsim::Simulation`].
///
/// ```
/// use mu::ClusterBuilder;
/// use replication::WorkloadSpec;
/// use netsim::SimTime;
///
/// let mut deployment = ClusterBuilder::new(3)
///     .workload(WorkloadSpec::closed(4, 64, 100))
///     .build();
/// deployment.sim.run_until(SimTime::from_millis(50));
/// assert_eq!(deployment.leader().stats.decided, 100);
/// ```
pub type ClusterBuilder = replication::ClusterBuilder<PlainFabric>;

/// A built Mu deployment.
pub type Deployment = replication::Deployment<PlainFabric>;
