//! Ablation of the §IV-C credit-aggregation design: the paper stores the
//! last credit count *per replica* and reports the minimum, "otherwise…
//! the credit count of the slowest replicas would likely be ignored."
//! This binary quantifies what the naive passthrough costs: with one slow
//! replica, the leader overruns it and the transport pays in NAKs and
//! retransmissions.

use netsim::{SimDuration, SimTime};
use p4ce::{ClusterBuilder, CreditMode, SwitchSetters, WorkloadSpec};
use p4ce_harness::report::{fmt_f64, print_markdown, TableRow};
use rdma::Host;

struct Row {
    mode: &'static str,
    decided_per_sec: f64,
    min_credit_seen: u8,
    slow_replica_drops: u64,
    fallbacks: usize,
}

impl TableRow for Row {
    fn headers() -> Vec<&'static str> {
        vec![
            "credit_mode",
            "decided_per_s",
            "leader_min_credit_seen",
            "slow_replica_drops",
            "fallbacks",
        ]
    }
    fn cells(&self) -> Vec<String> {
        vec![
            self.mode.to_owned(),
            fmt_f64(self.decided_per_sec),
            self.min_credit_seen.to_string(),
            self.slow_replica_drops.to_string(),
            self.fallbacks.to_string(),
        ]
    }
}

fn run(mode: CreditMode) -> Row {
    let mut d = ClusterBuilder::new(3)
        .workload(WorkloadSpec::closed(16, 64, 0))
        .credit_mode(mode)
        // Replica 2 is a straggler: its NIC sustains ≈1.8 M packets/s,
        // just below the leader's unthrottled 2.36 M/s offered rate.
        .member_rx_cost(2, SimDuration::from_nanos(550))
        .build();
    d.sim.run_until(SimTime::from_millis(60));
    let t0 = d.sim.now();
    d.member_mut(0).reset_measurements(t0);
    d.sim.run_for(SimDuration::from_millis(100));
    let now = d.sim.now();
    let slow_stats = d
        .sim
        .node_ref::<Host<p4ce::P4ceMember>>(d.members[2])
        .stats();
    let leader = d.member(0);
    let fallbacks = leader
        .stats
        .events
        .iter()
        .filter(|(_, e)| matches!(e, p4ce::MemberEvent::FellBack))
        .count();
    Row {
        mode: match mode {
            CreditMode::Minimum => "minimum (paper §IV-C)",
            CreditMode::Passthrough => "passthrough (naive)",
        },
        decided_per_sec: leader.stats.throughput.ops_per_sec(now),
        min_credit_seen: leader.stats.min_credit_seen,
        slow_replica_drops: slow_stats.rx_overflow_drops,
        fallbacks,
    }
}

fn main() {
    let rows = vec![run(CreditMode::Minimum), run(CreditMode::Passthrough)];
    print_markdown(
        "§IV-C ablation — credit aggregation with one slow replica",
        &rows,
    );
}
